"""Order-zero symmetry spaces and explicit scalar reductions."""

import os
import sys
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

import mvop.scalar_families as sf
from mvop.cli import config_from_json
from mvop.errors import InvalidParam, Unsupported
import mvop.irreducibility as irr
from mvop.irreducibility import (NULL_TOL, SymmetrySpace, _commutator_rows,
                                 _weight_classes, order_zero_symmetries,
                                 try_reduce_2x2, try_reduce_3x3_w1w3)
from mvop.weight_model import weight_eval, weight_spec

from oracles import (dense_symmetries, polish_loop, reduce_2x2_fit,
                     relation_rows, weight_classes_loop)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
from generate import generate  # noqa: E402


def jacobi_reducible(a=1.0, alpha=0.0, beta=0.5):
    # w1 / w2 = |a|^2 (1 - x^2): reducible by a constant congruence
    w1 = sf.jacobi(alpha + 1, beta + 1, scale=abs(a) ** 2)
    return weight_spec([a], [w1, sf.jacobi(alpha, beta)])


class TestSymmetryDimension:
    @pytest.mark.parametrize("spec,dim", [
        (weight_spec([1.0], [sf.hermite(1.0), sf.hermite(0.0)]), 1),
        (weight_spec([1.0], [sf.laguerre(0.5), sf.laguerre(1.0)]), 1),
        (weight_spec([1.0], [sf.laguerre(0.5), sf.laguerre(0.5)]), 1),
        (jacobi_reducible(), 2),
        (weight_spec([1.0, 1.0], [sf.laguerre(0.5), sf.laguerre(1.5),
                                  sf.laguerre(0.5)]), 2),
    ])
    def test_dimension(self, spec, dim):
        S = order_zero_symmetries(spec)
        assert S.dimension == dim
        assert S.reducible_at_order_zero == (dim >= 2)

    def test_basis_satisfies_relation(self):
        spec = jacobi_reducible()
        S = order_zero_symmetries(spec)
        for F in S.basis:
            for x in np.linspace(-0.9, 0.9, 15):
                W = weight_eval(spec, x)
                assert np.max(np.abs(F @ W - W @ F.conj().T)) < 1e-8

    def test_identity_always_present(self):
        spec = weight_spec([2.0], [sf.laguerre(0.0), sf.laguerre(0.5)])
        S = order_zero_symmetries(spec)
        # the identity lies in the span of the basis
        B = np.stack([F.ravel() for F in S.basis])
        e = np.eye(2).ravel().astype(complex)
        coef, res, *_ = np.linalg.lstsq(B.T, e, rcond=None)
        assert np.linalg.norm(B.T @ coef - e) < 1e-8

    def test_validation_residual_reported(self):
        S = order_zero_symmetries(jacobi_reducible())
        assert S.validation_residual < 1e-9
        js = S.to_json()
        assert js["dimension"] == 2
        assert len(js["basis"]) == 2
        assert len(S.singular_values) == 2      # unknowns X_11, X_22

    def test_ten_by_ten_chain(self):
        alpha = 0.5
        spec = weight_spec([1.0] * 9,
                           [sf.laguerre(alpha + (k + 1) // 2)
                            for k in range(10)])
        S = order_zero_symmetries(spec)
        assert S.dimension == 1


A10 = [1.0, -0.7, 1.3, 0.6, -1.1, 0.9, 1.5, -0.8, 1.2]
A4 = [1.234567, -0.713, 1.3091, 0.6042]


class TestSpanSizedSolve:
    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_rows_match_direct_relation(self, N):
        rng = np.random.default_rng(N)
        Ws = []
        for _ in range(3):
            A = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            Ws.append(A + A.conj().T)
        Ws = np.stack(Ws)
        rows = relation_rows(Ws).reshape(len(Ws), 2 * N * N, 2 * N * N)
        for _ in range(4):
            F = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            v = np.concatenate([F.real.ravel(), F.imag.ravel()])
            for W, block in zip(Ws, rows):
                G = (F @ W - W @ F.conj().T).ravel()
                want = np.concatenate([G.real, G.imag])
                assert np.max(np.abs(block @ v - want)) < 1e-12

    @pytest.mark.parametrize("scalars,dim,unknowns", [
        pytest.param([sf.hermite(0.2)] * 10, 5, 36, id="scalars0-5"),
        pytest.param([sf.jacobi(0.5, 1.0)] * 10, 5, 14, id="scalars1-5"),
        pytest.param([sf.laguerre(0.5 + (k + 1) // 2) for k in range(10)],
                     1, 18, id="scalars2-1"),
    ])
    def test_default_points_at_n10(self, scalars, dim, unknowns):
        S = order_zero_symmetries(weight_spec(A10, scalars))
        assert S.dimension == dim
        assert len(S.sample_points) == 40
        assert len(S.singular_values) == unknowns
        assert S.validation_residual < 1e-9
        assert S.null_gap > 1e6

    def test_commutator_rows_match_direct_commutator(self):
        rng = np.random.default_rng(5)
        N = 4
        A = rng.normal(size=(3, N, N)) + 1j * rng.normal(size=(3, N, N))
        M = A + A.conj().swapaxes(1, 2)
        a, b = np.array([0, 0, 1, 2, 2, 3]), np.array([0, 1, 1, 2, 3, 3])
        rows, (c, ka, kb) = _commutator_rows(M, a, b)
        assert rows.shape == (3 * N * (N + 1), 8)   # 4 diagonal, 2 x 2 off
        v = rng.normal(size=rows.shape[1])
        X = np.zeros((N, N), complex)
        for vk, ck, i, j in zip(v, c, ka, kb):
            X[i, j] += vk * ck
            X[j, i] += vk * np.conj(ck)
        assert np.allclose(X, X.conj().T)
        G = X @ M - M @ X
        i, j = np.triu_indices(N)
        want = G[:, i, j].ravel()
        got = rows @ v
        half = len(got) // 2
        assert np.max(np.abs(got[:half] + 1j * got[half:] - want)) < 1e-12

    def test_3n_points_suffice(self):
        spec = weight_spec([1.0, 1.0], [sf.laguerre(0.5), sf.laguerre(1.5),
                                        sf.laguerre(0.5)])
        assert order_zero_symmetries(spec).dimension == 2

    # a narrow support inside a wide one still gets its own points
    @pytest.mark.parametrize("scalars,dim", [
        ([sf.hermite(0.0), sf.jacobi(0.5, 1.0), sf.hermite(0.0)], 2),
        ([sf.jacobi(0.5, 1.0), sf.laguerre(0.5), sf.jacobi(0.5, 1.0)], 2),
        ([sf.laguerre(0.5), sf.jacobi(0.5, 1.0), sf.laguerre(0.5)], 2),
        ([sf.hermite(0.0), sf.jacobi(0.5, 1.0), sf.laguerre(0.5)], 1),
    ])
    def test_mixed_supports(self, scalars, dim):
        S = order_zero_symmetries(weight_spec([1.0, 1.0], scalars))
        assert S.dimension == dim
        assert len(S.sample_points) == 19
        assert S.validation_residual < 1e-9


def _span(basis):
    """The basis as columns of real vectors (Re F, Im F)."""
    return np.stack([np.concatenate([F.real.ravel(), F.imag.ravel()])
                     for F in basis], axis=1)


def _largest_angle(S, T):
    """sin of the largest principal angle between the two real spans."""
    Q1, Q2 = np.linalg.qr(_span(S.basis))[0], np.linalg.qr(_span(T.basis))[0]
    return np.linalg.norm(Q2 - Q1 @ (Q1.T @ Q2), 2)


def _mixed_weights(count, seed=2018):
    """Seeded 2-6 sized weights: one family throughout, two alternating,
    or a free mix of Hermite, Laguerre and Jacobi."""
    rng = np.random.default_rng(seed)

    def draw():
        f = rng.integers(3)
        if f == 0:
            return sf.hermite(round(rng.uniform(-0.5, 0.5), 3))
        if f == 1:
            return sf.laguerre(round(rng.uniform(0.0, 2.0), 2))
        return sf.jacobi(round(rng.uniform(0.0, 1.5), 2),
                         round(rng.uniform(0.0, 1.5), 2))

    for _ in range(count):
        N = int(rng.integers(2, 7))
        u, pool = rng.uniform(), [draw() for _ in range(N)]
        scalars = ([pool[0]] * N if u < 0.3 else
                   [pool[k % 2] for k in range(N)] if u < 0.6 else pool)
        a = rng.choice([-1, 1], N - 1) * rng.uniform(0.5, 2.0, N - 1)
        yield weight_spec(list(np.round(a, 4)), scalars)


class TestCommutantSolve:
    """The commutant solve against the dense Kronecker solve."""

    def agree(self, spec, want=None):
        S, D = order_zero_symmetries(spec), dense_symmetries(spec)
        assert S.dimension == D.dimension
        if want is not None:
            assert S.dimension == want
        assert _largest_angle(S, D) <= 1e-8
        assert S.validation_residual <= 1e-14

    @pytest.mark.parametrize("seed", [4242, 11, 7])
    def test_symmetry_workload(self, seed):
        for case in generate("symmetry-wide", seed):
            self.agree(config_from_json(case["config"]).spec,
                       case["expect"]["symmetry_dimension"])

    def test_mixed_weights(self):
        for spec in _mixed_weights(60):
            self.agree(spec)

    def test_repeat_calls_identical(self):
        spec = weight_spec(A10, [sf.hermite(0.2)] * 10)
        S, T = order_zero_symmetries(spec), order_zero_symmetries(spec)
        assert np.array_equal(np.stack(S.basis), np.stack(T.basis))
        assert S.singular_values == T.singular_values

    def test_every_unknown_null(self):
        # two unknowns, both null: sigma_0 is noise and cannot set the cut
        S = order_zero_symmetries(jacobi_reducible())
        assert S.dimension == 2
        assert max(S.singular_values) <= NULL_TOL * S.null_scale
        assert np.isfinite(S.null_gap) and S.null_gap > 1e6

    @pytest.mark.parametrize("scalars,dim", [
        ([sf.hermite(0.2)] * 20, 10),
        ([sf.laguerre(0.5 + (k + 1) // 2) for k in range(20)], 1),
        ([sf.jacobi(0.5, 1.0)] * 20, 10),
    ])
    def test_twenty_by_twenty(self, scalars, dim):
        a = [(-1) ** k * (0.6 + 0.05 * k) for k in range(19)]
        S = order_zero_symmetries(weight_spec(a, scalars))
        assert S.dimension == dim
        assert S.validation_residual < 1e-9


class TestGenerators:
    """W = sum_g w_g(x) Pi_g(x) and the solve on the coefficients of Pi_g."""

    @pytest.mark.parametrize("a,scalars,lo,hi", [
        (A10[:4], [sf.hermite(0.3)] * 5, -4.0, 4.0),
        (A10[:5], [sf.laguerre(0.5 + (k + 1) // 2) for k in range(6)],
         0.01, 30.0),
        (A10[:3], [sf.laguerre(1.5, scale=2.0)] * 4, 0.01, 30.0),
        (A10[:4], [sf.jacobi(0.5, 1.0), sf.jacobi(1.5, 3.0, scale=0.5),
                   sf.jacobi(-0.5, 0.0), sf.jacobi(0.5, 1.0),
                   sf.jacobi(0.2, 0.7)], -0.99, 0.99),
        ([0.8, -1.2], [sf.hermite(0.0), sf.laguerre(0.5), sf.jacobi(0.5, 1.0)],
         -3.0, 8.0),
    ], ids=["hermite", "laguerre-ladder", "laguerre-equal", "jacobi",
            "mixed3"])
    def test_identity(self, a, scalars, lo, hi):
        spec = weight_spec(a, scalars)
        xs = np.linspace(lo, hi, 50)
        got = sum(sf.weight_value(base, xs)[:, None, None]
                  * np.polynomial.polynomial.polyval(xs, Pi)
                  .transpose(2, 0, 1) for base, Pi in _weight_classes(spec))
        want = weight_eval(spec, xs)
        top = np.max(np.abs(want), axis=(1, 2))
        assert np.all(top > 0)
        assert np.max(np.abs(got - want) / top[:, None, None]) < 1e-13

    # A4 and the scales are not short binary fractions, so the sums that
    # meet on an even diagonal entry (two Hermite or Laguerre slots, three
    # Jacobi ones) round differently in another order or with an FMA
    @pytest.mark.parametrize("a,scalars", [
        (A10[:4], [sf.hermite(0.3)] * 5),
        (A4, [sf.hermite(0.3, scale=s) for s in (1.0, 0.37, 1.0, 2.9, 1.3)]),
        (A10[:5], [sf.laguerre(0.5 + (k + 1) // 2) for k in range(6)]),
        (A4, [sf.laguerre(1.5), sf.laguerre(-0.5, scale=1.9),
              sf.laguerre(1.5, scale=0.61), sf.laguerre(-0.5, scale=3.3),
              sf.laguerre(0.5)]),
        (A10[:4], [sf.jacobi(0.5, 1.0), sf.jacobi(1.5, 3.0, scale=0.5),
                   sf.jacobi(-0.5, 0.0), sf.jacobi(0.5, 1.0),
                   sf.jacobi(0.2, 0.7)]),
        (A4, [sf.jacobi(2.3, 0.1), sf.jacobi(0.3, 3.1, scale=1.7),
              sf.jacobi(4.3, 1.1, scale=0.83), sf.jacobi(0.3, 0.1, scale=2.21),
              sf.jacobi(1.3, 2.1)]),
        ([0.42536 + 0.86754j, -1.10948 + 0.3681j, -1.02852 + 0.64756j],
         [sf.jacobi(3.44, 3.31), sf.jacobi(2.44, 0.31, scale=3.54),
          sf.jacobi(4.44, 1.31, scale=3.86), sf.jacobi(3.44, 3.31)]),
        ([0.8, -1.2], [sf.hermite(0.0), sf.laguerre(0.5), sf.jacobi(0.5, 1.0)]),
        ([0.7], [sf.jacobi(1.0, 1.5, scale=0.49), sf.jacobi(0.0, 0.5)]),
    ], ids=["hermite", "hermite-scales", "laguerre-ladder",
            "laguerre-negative-alpha", "jacobi", "jacobi-steps", "complex-a",
            "mixed3", "cancelled"])
    def test_slot_loop_bits(self, a, scalars):
        # the slot tables give Pi_g bit for bit as the slot-by-slot loop
        spec = weight_spec(a, scalars)
        got, want = _weight_classes(spec), weight_classes_loop(spec)
        assert [b for b, _ in got] == [b for b, _ in want]
        for (_, P), (_, Q) in zip(got, want):
            assert P.shape == Q.shape
            assert np.array_equal(P.view(np.uint64), Q.view(np.uint64))

    @pytest.mark.parametrize("a,scalars", [
        (A10, [sf.hermite(0.2)] * 10),
        (A10, [sf.laguerre(0.5 + (k + 1) // 2) for k in range(10)]),
        (A10[:4], [sf.jacobi(0.5, 1.0)] * 5),
        ([1.0, 1.0], [sf.laguerre(0.5), sf.laguerre(1.5), sf.laguerre(0.5)]),
        ([1 + 0.5j, -0.8], [sf.hermite(0.0), sf.laguerre(0.5),
                            sf.jacobi(0.5, 1.0)]),
    ], ids=["hermite", "laguerre-ladder", "jacobi", "lag3-w1w3", "mixed3"])
    def test_polish_matches_loop(self, monkeypatch, a, scalars):
        # the stacked CGLS steps against the per-generator sums, on the
        # start and generators the solve hands over
        seen, polish = [], irr._polish
        monkeypatch.setattr(irr, "_polish",
                            lambda F, Gs: seen.append((F, Gs)) or polish(F, Gs))
        order_zero_symmetries(weight_spec(a, scalars))
        (F, Gs), = seen
        got, want = polish(F, Gs), polish_loop(F, Gs, irr.POLISH_STEPS)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_polish_far_start_matches_loop(self):
        # from random starts the steps are far from converged and eight
        # of them amplify rounding up to about 1e-13: a coarser bound,
        # which still reads a wrong step length or adjoint
        rng = np.random.default_rng(1)
        for _ in range(5):
            A = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
            Gs = A + A.conj().swapaxes(1, 2)
            F = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
            got = irr._polish(F, Gs)
            want = polish_loop(F, Gs, irr.POLISH_STEPS)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("scalars,classes", [
        ([sf.laguerre(0.1), sf.laguerre(1.1)], 1),
        ([sf.laguerre(0.1), sf.laguerre(0.6)], 2),
        ([sf.hermite(0.0), sf.hermite(0.5)], 2),
        ([sf.hermite(0.2), sf.hermite(0.2, scale=3.0)], 1),
        ([sf.jacobi(0.3, 0.4), sf.jacobi(1.3, 2.4)], 1),
        ([sf.jacobi(0.3, 0.4), sf.jacobi(1.3, 2.9)], 2),
        ([sf.laguerre(-0.5), sf.laguerre(1.5), sf.laguerre(0.5)], 1),
        ([sf.hermite(0.0), sf.laguerre(0.0), sf.jacobi(0.0, 0.0)], 3),
    ])
    def test_classes(self, scalars, classes):
        spec = weight_spec([1.0] * (len(scalars) - 1), scalars)
        assert len(_weight_classes(spec)) == classes

    def test_negative_alpha_factors(self):
        # alpha -0.5 is the class minimum: the slots get x^0, x^2 and x^1
        spec = weight_spec([1.0, 1.0], [sf.laguerre(-0.5), sf.laguerre(1.5),
                                        sf.laguerre(0.5)])
        (base, Pi), = _weight_classes(spec)
        assert base == sf.laguerre(-0.5)
        assert len(Pi) == 5

    def test_cancelled_coefficient_dropped(self):
        # w_1 = a^2 (1 - x^2) w_2: the x^2 coefficient cancels, up to the
        # rounding of 0.7 * 0.7 = 0.48999999999999994 against 0.49
        spec = weight_spec([0.7], [sf.jacobi(1.0, 1.5, scale=0.49),
                                   sf.jacobi(0.0, 0.5)])
        (_, Pi), = _weight_classes(spec)
        assert np.all(Pi[2] == 0)
        S = order_zero_symmetries(spec)
        assert S.dimension == 2 and S.generators == 2

    @pytest.mark.parametrize("scalars,dim", [
        ([sf.hermite(0.2)] * 30, 15),
        ([sf.jacobi(0.5, 1.0)] * 30, 15),
        ([sf.laguerre(0.5 + (k + 1) // 2) for k in range(30)], 1),
    ], ids=["hermite", "jacobi", "laguerre-ladder"])
    def test_thirty_by_thirty(self, scalars, dim):
        a = [(-1) ** k * (0.6 + 0.05 * (k % 10)) for k in range(29)]
        S = order_zero_symmetries(weight_spec(a, scalars))
        assert S.dimension == dim
        assert S.validation_residual < 1e-14
        assert S.generators <= 30 // 2 + 3

    def test_perturbed_basis_fails(self, monkeypatch):
        polish = irr._polish

        def perturbed(F, Gs):
            F = polish(F, Gs)
            F[:, 0, 1] += 1e-6
            return F
        monkeypatch.setattr(irr, "_polish", perturbed)
        with pytest.raises(InvalidParam, match="failed on the generators"):
            order_zero_symmetries(weight_spec(A10, [sf.hermite(0.2)] * 10))

    @pytest.mark.xfail(strict=True, raises=InvalidParam,
                       reason="a_i a factor 1e6 apart: the basis fails on "
                              "the generators of W")
    def test_a_six_decades_apart(self):
        spec = weight_spec([1e-3, 1e3, 1e-3],
                           [sf.hermite(5.0), sf.laguerre(-0.5),
                            sf.laguerre(1.0), sf.hermite(0.3)])
        assert order_zero_symmetries(spec).validation_residual < 1e-9

    def test_custom_slot_unsupported(self):
        spec = weight_spec([1.0], [sf.custom([2.0, 0.0, 2 / 3], (-1, 1)),
                                   sf.jacobi(0.0, 0.0)])
        with pytest.raises(Unsupported, match="moment-supplied"):
            order_zero_symmetries(spec)


class TestReduce2x2:
    def test_jacobi_example(self):
        a = 1.5
        spec = jacobi_reducible(a=a)
        out = try_reduce_2x2(spec)
        assert out is not None
        b, c, M, desc = out
        assert b == pytest.approx(-1.0, abs=1e-8)
        assert c == pytest.approx(1.0, abs=1e-8)
        # M W M* diagonal, with the stated diagonal entries
        for x in np.linspace(-0.95, 0.95, 20):
            W = weight_eval(spec, x)
            D = M @ W @ M.conj().T
            assert np.max(np.abs(D - np.diag(np.diag(D)))) < 1e-10
            w2 = sf.weight_value(spec.scalars[1], x)
            assert D[0, 0] == pytest.approx(w2 * (x - b) / (c - b), rel=1e-8)
            assert D[1, 1] == pytest.approx(
                a * a * (c - b) * (c - x) * w2, rel=1e-8)

    @pytest.mark.parametrize("spec", [
        weight_spec([1.0], [sf.hermite(1.0), sf.hermite(0.0)]),
        weight_spec([1.0], [sf.laguerre(0.5), sf.laguerre(1.0)]),
        weight_spec([1.0], [sf.laguerre(0.5), sf.laguerre(0.5)]),
    ])
    def test_irreducible_cases_return_none(self, spec):
        assert try_reduce_2x2(spec) is None

    def test_wrong_size(self):
        with pytest.raises(Unsupported):
            try_reduce_2x2(weight_spec([1.0, 1.0], [sf.hermite(0.0)] * 3))

    @pytest.mark.parametrize("a", [1.5, -0.7])
    def test_verdict_matches_fit(self, a):
        # the verdict read off the parameters is the one the sampled
        # quadratic fit of w1 / w2 reaches, near misses included: steps of
        # 1 +- 1e-6, a scale off a^2 by 1e-6, the slots swapped, and pairs
        # of other families
        near = (1.0, 1 + 1e-6, 1 - 1e-6)
        specs = [weight_spec([a], pair) for pair in (
            (sf.laguerre(1.5, scale=a * a), sf.laguerre(0.5)),
            (sf.hermite(0.3, scale=a * a), sf.hermite(0.0)),
            (sf.jacobi(1.0, 1.5, scale=a * a), sf.laguerre(0.5)))]
        for (al, be), da, db, f in product(
                ((0.0, 0.5), (-0.5, 1.5), (2.0, 0.25)), near, near, near):
            w1 = sf.jacobi(al + da, be + db, scale=f * a * a)
            w2 = sf.jacobi(al, be)
            specs += [weight_spec([a], [w1, w2]), weight_spec([a], [w2, w1])]
        reducible = 0
        for spec in specs:
            got, want = try_reduce_2x2(spec), reduce_2x2_fit(spec)
            assert (got is None) == (want is None), spec
            if got is not None:
                reducible += 1
                b, c, M, _ = got
                assert (b, c) == (-1.0, 1.0)
                assert (b, c) == pytest.approx(want[:2], abs=1e-14)
                assert np.isrealobj(M)
                assert np.allclose(M, want[2], rtol=1e-13, atol=0)
        assert reducible == 3

    def test_complex_a(self):
        # W(a) = U W(|a|) U*, so M = M(|a|) U* with U = diag(a / |a|, 1);
        # the scale is |a|^2
        a = 1 + 0.5j
        spec = weight_spec([a], [sf.jacobi(1.0, 1.5, scale=abs(a) ** 2),
                                 sf.jacobi(0.0, 0.5)])
        b, c, M, _ = try_reduce_2x2(spec)
        assert (b, c) == (-1.0, 1.0)
        xs = np.linspace(-0.95, 0.95, 20)
        D = M @ weight_eval(spec, xs) @ M.conj().swapaxes(-1, -2)
        w2 = sf.weight_value(spec.scalars[1], xs)
        assert np.max(np.abs(D[:, 0, 1]) / np.abs(D[:, 1, 1])) < 1e-15
        assert np.allclose(D[:, 0, 0], w2 * (xs + 1) / 2, rtol=1e-12, atol=0)
        assert np.allclose(D[:, 1, 1], abs(a) ** 2 * 2 * (1 - xs) * w2,
                           rtol=1e-12, atol=0)
        # a scale of Re(a)^2 or a^2 is no reduction
        for scale in (1.0, a.real ** 2):
            assert try_reduce_2x2(weight_spec(
                [a], [sf.jacobi(1.0, 1.5, scale=scale),
                      sf.jacobi(0.0, 0.5)])) is None


class TestReduce3x3:
    @pytest.mark.parametrize("a1,a2", [(1.0, 1.0), (3.0, 4.0)])
    def test_split(self, a1, a2):
        spec = weight_spec([a1, a2], [sf.laguerre(0.5), sf.laguerre(1.5),
                                      sf.laguerre(0.5)])
        M, desc = try_reduce_3x3_w1w3(spec)
        s = a1 * a1 + a2 * a2
        for x in np.linspace(0.2, 8.0, 20):
            W = weight_eval(spec, x)
            D = M @ W @ M.conj().T
            # scalar block decouples and equals the stated prefactor of w1
            assert abs(D[0, 1]) < 1e-10 and abs(D[0, 2]) < 1e-10
            w1 = sf.weight_value(spec.scalars[0], x)
            assert D[0, 0] == pytest.approx(s / (a2 * a2) * w1, rel=1e-10)

    def test_description_matches_the_block(self):
        # the stated 2x2 block, entry by entry: its (3, 3) entry holds w1
        # (a2^2 x^2 w2 + a2^2 / (a1^2 + a2^2) w1), which differs from the
        # same form with w2 where w1 != w2
        a1, a2, x = 3.0, 4.0, 0.5
        spec = weight_spec([a1, a2], [sf.laguerre(0.5), sf.laguerre(1.5),
                                      sf.laguerre(0.5)])
        M, desc = try_reduce_3x3_w1w3(spec)
        assert desc.endswith("a2^2 x^2 w2 + a2^2/(a1^2+a2^2) w1]])")
        D = M @ weight_eval(spec, x) @ M.conj().T
        w1, w2 = (sf.weight_value(w, x) for w in spec.scalars[:2])
        s = a1 * a1 + a2 * a2
        assert D[2, 2] == pytest.approx(1.132, abs=5e-4)
        assert D[2, 2] == pytest.approx(
            a2 * a2 * x * x * w2 + a2 * a2 / s * w1, rel=1e-12)
        assert D[2, 2] != pytest.approx(
            a2 * a2 * x * x * w2 + a2 * a2 / s * w2, rel=1e-2)
        assert D[1, 1] == pytest.approx(w2, rel=1e-12)
        assert D[1, 2] == pytest.approx(a2 * x * w2, rel=1e-12)
        assert D[2, 1] == pytest.approx(a2 * x * w2, rel=1e-12)

    @pytest.mark.parametrize("a,scalars", [
        ((1 + 0.5j, 0.5j), [sf.hermite(0.0)] * 3),
        ((1 + 0.5j, -0.5), [sf.hermite(0.3), sf.hermite(-0.2),
                            sf.hermite(0.3)]),
        ((1 + 0.5j, 0.7), [sf.jacobi(1.5, 1.5), sf.jacobi(0.5, 0.5),
                           sf.jacobi(1.5, 1.5)]),
        ((-0.5j, 2 - 1j), [sf.laguerre(0.5), sf.laguerre(1.5),
                           sf.laguerre(0.5)])])
    def test_complex_a(self, a, scalars):
        # M = M(r) U*, r_i = |a_i| for complex a_i and U = diag(a_1 / r_1,
        # 1, a_2 / r_2): the blocks of M(r) W(r) M(r)*, with r in the
        # scalar block.  Re(a_2) = 0 once divided by zero
        spec = weight_spec(list(a), scalars)
        M, _ = try_reduce_3x3_w1w3(spec)
        xs = np.array(irr._sample_inside(
            (max(w.support[0] for w in scalars),
             min(w.support[1] for w in scalars)), 20))
        D = M @ weight_eval(spec, xs) @ M.conj().swapaxes(-1, -2)
        top = np.max(np.abs(D), axis=(1, 2))
        assert np.max(np.abs(D[:, [0, 0, 1, 2], [1, 2, 0, 0]]).max(axis=1)
                      / top) < 1e-15
        r1, r2 = np.abs(a)
        want = (r1 ** 2 + r2 ** 2) / r2 ** 2 * sf.weight_value(scalars[0], xs)
        assert np.max(np.abs(D[:, 0, 0] - want) / top) < 1e-14

    def test_real_a_keeps_m_real(self):
        spec = weight_spec([3.0, -4.0], [sf.laguerre(0.5), sf.laguerre(1.5),
                                         sf.laguerre(0.5)])
        M, _ = try_reduce_3x3_w1w3(spec)
        assert np.isrealobj(M)
        assert M.tolist() == [[1.0, 0.0, 0.75], [0.0, 1.0, 0.0],
                              [-12 / 25, 0.0, 16 / 25]]

    def test_unsupported(self):
        with pytest.raises(Unsupported):
            try_reduce_3x3_w1w3(
                weight_spec([1.0, 1.0], [sf.laguerre(0.5), sf.laguerre(1.5),
                                         sf.laguerre(2.5)]))
        with pytest.raises(Unsupported):
            try_reduce_3x3_w1w3(weight_spec([1.0], [sf.hermite(0.0)] * 2))

    def test_consistency_with_symmetries(self):
        # an explicit reduction implies a symmetry space of dimension >= 2
        spec = weight_spec([1.0, 1.0], [sf.laguerre(0.5), sf.laguerre(1.5),
                                        sf.laguerre(0.5)])
        assert try_reduce_3x3_w1w3(spec) is not None
        assert order_zero_symmetries(spec).dimension >= 2

    #: w1 = w3 with Hermite, Jacobi and Laguerre slots, and a Laguerre slot
    #: between two Hermite ones
    W1W3 = ([sf.hermite(0.0), sf.hermite(0.3), sf.hermite(0.0)],
            [sf.jacobi(0.5, 1.5), sf.laguerre(1.5), sf.jacobi(0.5, 1.5)],
            [sf.laguerre(0.5), sf.laguerre(1.5), sf.laguerre(0.5)],
            [sf.hermite(0.0), sf.laguerre(1.5), sf.hermite(0.0)])
    FAR = ((1.0, 1.0), (1e3, 1.0), (1e3, 1e-3), (1e5, 1e-5), (1e5, 1.0),
           (1e-5, 1e5), (1.0, 1e5))

    def test_a_far_apart(self):
        # the split is exact for every a, so its check passes however far
        # a_1 / a_2 is from 1: each entry of M W M* is measured against
        # the terms that cancel in it, not against the largest entry (which
        # read 1.7e-10 on the Jacobi slots at a = (1000, 1))
        for scalars, a in product(self.W1W3, self.FAR):
            M, _ = try_reduce_3x3_w1w3(weight_spec(list(a), scalars))
            assert M[0, 2] == -a[0] / a[1]

    @pytest.mark.parametrize("size", [2, 3])
    def test_wrong_m_fails_its_check(self, size, monkeypatch):
        # one entry of M off by a factor 1 + 1e-6 fails the check: every
        # entry of the 2x2, M[0, 2] (a_1 / a_2) of the 3x3 on each weight
        # of ``test_a_far_apart``, and M[2, 0] and M[2, 2], which move the
        # stated 2x2 block, on Hermite(0), Hermite(0.3), Hermite(0); the
        # zeros beside the scalar block alone miss M[2, 0] at a = (1000, 1)
        # and M[2, 2] at a = (1, 1000)
        check = irr._check_congruence
        if size == 2:
            cases = [(jacobi_reducible(a, al, be), entry)
                     for a, (al, be), entry in product(
                         (1.5, -0.7, 1e3, 1e-3, 1 + 0.5j),
                         ((0.0, 0.5), (2.0, 0.25)),
                         product(range(2), range(2)))]
            reduce_ = try_reduce_2x2
        else:
            cases = [(weight_spec(list(a), scalars), (0, 2))
                     for scalars, a in product(self.W1W3, self.FAR)]
            cases += [(weight_spec(list(a), self.W1W3[0]), entry)
                      for a, entry in product(
                          ((1.0, 1.0), (3.0, 4.0), (1.5, -0.7), (10.0, 1.0),
                           (1.0, 10.0)), ((2, 0), (2, 2)))]
            cases += [(weight_spec([1e3, 1.0], self.W1W3[0]), (2, 0)),
                      (weight_spec([1.0, 1e3], self.W1W3[0]), (2, 2))]
            reduce_ = try_reduce_3x3_w1w3
        for spec, entry in cases:
            def skewed(M, *args):
                M = M.copy()
                M[entry] *= 1 + 1e-6
                return check(M, *args)
            monkeypatch.setattr(irr, "_check_congruence", skewed)
            with pytest.raises(InvalidParam, match="numeric verification"):
                reduce_(spec)


class TestRelations:
    # each reduction's relation on the slots' parameters: None on its own
    # weights, and the first unmet relation, slot and parameter, otherwise

    def test_on_their_templates(self):
        for a in (1.5, -0.7, 1e3, 1 + 0.5j):
            spec = jacobi_reducible(a)
            assert irr.pair_relation(spec) is None
            assert irr.jacobi_pair_relation(spec) is None
        for scalars, a in product(TestReduce3x3.W1W3, TestReduce3x3.FAR):
            assert irr.w1w3_relation(weight_spec(list(a), scalars)) is None

    @pytest.mark.parametrize("w1,w2,miss", [
        (sf.jacobi(1.0, 1.5, scale=2.25), sf.jacobi(0.0, 0.25),
         "slot 1: beta 1.5 is not beta_2 + 1"),
        (sf.jacobi(1.001, 1.5, scale=2.25), sf.jacobi(0.0, 0.5),
         "slot 1: alpha 1.001 is not alpha_2 + 1"),
        (sf.jacobi(1.0, 1.5, scale=2.25), sf.jacobi(0.0, 0.5, scale=1.01),
         "slot 1: scale 2.25 is not a_1^2 scale_2"),
        (sf.jacobi(1.0, 1.5, scale=2.25), sf.laguerre(0.5),
         "slot 2: family laguerre is not jacobi"),
    ])
    def test_jacobi_pair_names_the_parameter(self, w1, w2, miss):
        spec = weight_spec([1.5], [w1, w2])
        assert irr.jacobi_pair_relation(spec) == miss
        # the public guard: no reduction, the weight is still 2x2 classical
        assert irr.pair_relation(spec) is None
        assert try_reduce_2x2(spec) is None

    @pytest.mark.parametrize("spec,miss", [
        (weight_spec([1.0, 1.0], [sf.hermite(0.0)] * 3), "size 3 is not 2"),
        (weight_spec([1.0], [sf.jacobi(0.0, 0.0),
                             sf.custom([2.0, 0.0, 2 / 3], (-1, 1))]),
         "slot 2: family custom is not classical"),
    ])
    def test_pair_guard(self, spec, miss):
        assert irr.pair_relation(spec) == miss
        assert irr.jacobi_pair_relation(spec) == miss
        with pytest.raises(Unsupported) as exc:
            try_reduce_2x2(spec)
        assert str(exc.value) == miss

    @pytest.mark.parametrize("name,value,miss", [
        ("b", 0.3, "slot 3: b 0.3 is not b_1"),
        ("scale", 2.0, "slot 3: scale 2.0 is not scale_1"),
        ("family", sf.LAGUERRE, "slot 3: family laguerre is not family_1"),
    ])
    def test_w1w3_names_the_parameter(self, name, value, miss):
        w = sf.hermite(0.0)
        spec = weight_spec([1.0, 2.0], [w, sf.hermite(0.5),
                                        replace(w, **{name: value})])
        assert irr.w1w3_relation(spec) == miss
        with pytest.raises(Unsupported) as exc:
            try_reduce_3x3_w1w3(spec)
        assert str(exc.value) == miss

    def test_w1w3_jacobi_parameters(self):
        for name, miss in (("alpha", "slot 3: alpha 0.501 is not alpha_1"),
                           ("beta", "slot 3: beta 0.501 is not beta_1")):
            w3 = replace(sf.jacobi(0.5, 0.5), **{name: 0.501})
            spec = weight_spec([1.0, 2.0], [sf.jacobi(0.5, 0.5),
                                            sf.jacobi(1.5, 1.5), w3])
            assert irr.w1w3_relation(spec) == miss
        spec = weight_spec([1.0] * 3, [sf.hermite(0.0)] * 4)
        assert irr.w1w3_relation(spec) == "size 4 is not 3"
