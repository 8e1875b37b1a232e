"""Weight matrices W = T diag(w) T* and the matrix inner product."""

import numpy as np
import pytest

import mvop.scalar_families as sf
from mvop.errors import DegreeCap, InvalidParam
from mvop.matrix_poly import MatrixPolynomial
from mvop.mvop_core import MVOPSequence
from mvop.weight_model import (NODE_CAP, build_nilpotent, build_T,
                               weight_eval, weight_spec)
from oracles import one_rule, pairwise_quadrature


def lag2(a=1.0):
    return weight_spec([a], [sf.laguerre(0.0), sf.laguerre(0.0)])


class TestSpec:
    def test_validation(self):
        with pytest.raises(InvalidParam):
            weight_spec([], [sf.hermite(0.0)])               # N = 1
        with pytest.raises(InvalidParam):
            weight_spec([0.0], [sf.hermite(0.0)] * 2)        # a = 0
        with pytest.raises(InvalidParam):
            weight_spec([1.0], [sf.hermite(0.0)] * 3)        # wrong count

    def test_nilpotent_pattern(self):
        spec = weight_spec([1, 2, 3, 4], [sf.hermite(0.0)] * 5)
        A = build_nilpotent(spec)
        want = np.zeros((5, 5))
        want[0, 1] = 1   # a_1 at (1,2)
        want[2, 1] = 2   # a_2 at (3,2)
        want[2, 3] = 3   # a_3 at (3,4)
        want[4, 3] = 4   # a_4 at (5,4)
        assert np.allclose(A, want)
        assert np.allclose(A @ A, 0)

    def test_T_inverse(self):
        spec = weight_spec([1, 2, 3], [sf.laguerre(0.0)] * 4)
        T, T_inv = build_T(spec)
        prod = T * T_inv
        assert prod.degree == 0
        assert np.allclose(prod.coeffs[0], np.eye(4))


class TestWeightEval:
    def test_hermitian_psd(self):
        spec = weight_spec([1.5, -0.5], [sf.laguerre(0.5), sf.laguerre(1.0),
                                         sf.laguerre(0.0)])
        for x in (0.3, 1.0, 7.7):
            W = weight_eval(spec, x)
            assert np.allclose(W, W.conj().T)
            assert np.min(np.linalg.eigvalsh(W)) >= -1e-13

    def test_explicit_2x2(self):
        # W = [[w1 + a^2 x^2 w2, a x w2], [a x w2, w2]]
        spec = lag2(a=2.0)
        x = 1.5
        w = np.exp(-x)
        W = weight_eval(spec, x)
        want = np.array([[w + 4 * x * x * w, 2 * x * w], [2 * x * w, w]])
        assert np.allclose(W, want)

    def test_outside_support(self):
        assert np.allclose(weight_eval(lag2(), -2.0), 0)

    def test_batched_matches_pointwise(self):
        spec = weight_spec([1.5, -0.5], [sf.hermite(0.3), sf.laguerre(1.0),
                                         sf.jacobi(0.5, -0.5)])
        xs = np.array([-3.0, -1.0, -0.4, 0.0, 0.7, 1.0, 2.5, 40.0])
        Ws = weight_eval(spec, xs)
        assert Ws.shape == (len(xs), 3, 3)
        for x, W in zip(xs, Ws):
            assert np.allclose(W, weight_eval(spec, float(x)),
                               rtol=1e-14, atol=0)


    def test_distinct_weights_evaluated_once(self, monkeypatch):
        # five slots, three distinct weights: three evaluations, and the
        # stack equal bit for bit to the slot-by-slot one
        spec = weight_spec([1.5, -0.5, 0.8, 1 + 0.5j],
                           [sf.hermite(0.3), sf.laguerre(1.0), sf.hermite(0.3),
                            sf.laguerre(1.0), sf.hermite(-0.2)])
        xs = np.linspace(-3.0, 9.0, 41)
        Tx = np.eye(5) + build_nilpotent(spec) * xs[:, None, None]
        wd = np.stack([sf.weight_value(s, xs) for s in spec.scalars], axis=-1)
        want = (Tx * wd[:, None, :]) @ Tx.conj().swapaxes(1, 2)
        calls, value = [], sf.weight_value
        monkeypatch.setattr(sf, "weight_value",
                            lambda s, x: calls.append(s) or value(s, x))
        got = weight_eval(spec, xs)
        assert len(calls) == 3
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestInnerProduct:
    """The inner product as the sequence's Gram block reads it."""

    def test_gram_of_identity_frozen(self):
        # <I, I> for the 2x2 Laguerre(0)^2 a=1 weight: moments of W.
        # Q_0 = I - b_0 A is constant, so <I, I> = Q_0^{-1} <Q_0, Q_0> Q_0^{-*}
        seq = MVOPSequence(lag2(), 3)
        C = np.linalg.inv(seq.build_Q(0).coeffs[0])
        G = C @ seq.gram_qt(0, 0) @ C.conj().T
        assert np.allclose(G, [[3, 1], [1, 1]], atol=1e-12)

    def test_conjugate_symmetry(self):
        seq = MVOPSequence(lag2(a=1.3), 8)
        for n in range(8):
            for m in range(8):
                scale = np.sqrt(np.linalg.norm(seq.gram_qt(n, n))
                                * np.linalg.norm(seq.gram_qt(m, m)))
                for shift in (0, 1):
                    G1 = seq.gram_qt(n, m, shift)
                    G2 = seq.gram_qt(m, n, shift)
                    assert np.allclose(G1, G2.conj().T, rtol=1e-11,
                                       atol=1e-11 * scale)

    def test_sesquilinearity(self):
        # <z sum_n M_n Q_n, sum_m K_m Q_m> = z sum_nm M_n <Q_n, Q_m> K_m^*,
        # and conjugate-linear in the second slot, against a Gauss rule of
        # its own for the assembled polynomials
        rng = np.random.default_rng(5)
        spec = lag2()
        seq = MVOPSequence(spec, 5)

        def combo():
            Ms = [rng.standard_normal((2, 2))
                  + 1j * rng.standard_normal((2, 2)) for _ in range(4)]
            P = sum((seq.build_Q(n).left_mul(Mn) for n, Mn in enumerate(Ms)),
                    MatrixPolynomial.zero(2))
            return Ms, P.coeffs

        (Ms, P), (Ks, R) = combo(), combo()
        z = 0.7 - 0.2j
        want = sum(Mn @ seq.gram_qt(n, m) @ Km.conj().T
                   for n, Mn in enumerate(Ms) for m, Km in enumerate(Ks))
        zP = [z * c for c in P]
        tol = 1e-10 * np.max(np.abs(want))
        assert np.allclose(pairwise_quadrature(spec, seq.A, zP, R),
                           z * want, rtol=1e-10, atol=tol)
        assert np.allclose(pairwise_quadrature(spec, seq.A, R, zP),
                           np.conj(z) * want.conj().T, rtol=1e-10, atol=tol)

    def test_mixed_supports(self):
        # each column integrates over its own scalar support
        spec = weight_spec([1.0], [sf.hermite(0.0), sf.laguerre(0.5)])
        seq = MVOPSequence(spec, 3)
        C = np.linalg.inv(seq.build_Q(0).coeffs[0])
        G = C @ seq.gram_qt(0, 0) @ C.conj().T
        assert np.allclose(G, G.conj().T)
        assert np.min(np.linalg.eigvalsh(G.real)) > 0
        eye = [np.eye(2)]
        assert np.allclose(G, pairwise_quadrature(spec, seq.A, eye, eye))

    def test_node_cap(self):
        # degrees up to n_max need an (n_max + 2)-node rule
        seq = MVOPSequence(lag2(), NODE_CAP - 1)
        with pytest.raises(DegreeCap):
            seq.gram_qt(0, 0)

    def test_rule_cache_reuse(self):
        seq = MVOPSequence(lag2(), 4)
        g = seq.gram_qt(1, 2)
        r1 = seq.engine.rule(0, 6)
        r2 = seq.engine.rule(0, 6)
        assert r1 is r2
        # both slots hold laguerre(0): one rule serves them
        assert seq.engine.rule(1, 6) is r1
        assert np.array_equal(seq.gram_qt(1, 2), g)

    @pytest.mark.parametrize("backend", ["float", "exact"])
    def test_gram_data_reads_own_recurrences(self, monkeypatch, backend):
        # the sequence builds one recurrence per distinct weight, which
        # equal slots share, and the Gram data takes every rule from one
        # pass over float recurrences: the sequence's own on the float
        # backend, one more per distinct weight on the exact one, whose own
        # are exact.  Equal slots share one cached rule, which is the
        # weight's own Gauss rule bit for bit, as a cache miss would build
        # it.
        calls = []
        build = sf.recurrence_coefficients
        monkeypatch.setattr(
            sf, "recurrence_coefficients", lambda spec, n, backend="float": (
                calls.append((spec, backend)) or build(spec, n, backend)))
        scalars = [sf.laguerre(0.0), sf.hermite(0.3), sf.laguerre(0.0),
                   sf.jacobi(0.5, 1.5)]
        seq = MVOPSequence(weight_spec([1.0, 0.5, -2.0], scalars), 6,
                           backend=backend)
        own = [(s, backend) for s in dict.fromkeys(scalars)]
        assert calls == own
        assert seq.scalar_seqs[0] is seq.scalar_seqs[2]
        seq.gram_data()
        seq.quadrature_summary()
        assert calls == own + ([] if backend == "float" else [
            (s, "float") for s in dict.fromkeys(scalars)])
        rules = [seq.engine.rule(k, 8) for k in range(4)]
        assert rules[0] is rules[2]
        for spec, (nodes, weights) in zip(scalars, rules):
            want_nodes, want_weights = one_rule(spec, 8)
            assert np.array_equal(nodes, want_nodes)
            assert np.array_equal(weights, want_weights)
