"""The matrix orthogonal sequence: construction, norms, determinants."""

import math
import warnings

import numpy as np
import pytest
import sympy as sp

import mvop.scalar_families as sf
from mvop.errors import DegreeCap, OutOfRange, SingularLeading
from mvop.darboux import builtin_n5_laguerre
from mvop.mvop_core import MVOPSequence, continuant
from mvop.weight_model import weight_spec
from oracles import (complex_rows, pairwise_quadrature, q_product,
                     tridiagonal_from_rho)


def lag2(a=1.0):
    return weight_spec([a], [sf.laguerre(0.0), sf.laguerre(0.0)])


def herm2():
    return weight_spec([1.0], [sf.hermite(0.0), sf.hermite(0.0)])


#: exact-backend weights: mixed Laguerre, shifted Hermite, the 5x5 Laguerre
#: chain and a half-step Jacobi weight whose norms keep Beta functions
EXACT_SPECS = pytest.mark.parametrize("spec", [
    weight_spec([1.5], [sf.laguerre(0.0), sf.laguerre(0.5)]),
    weight_spec([1.0, -0.5], [sf.hermite(0.5), sf.hermite(0.0),
                              sf.hermite(-0.5)]),
    builtin_n5_laguerre(0.5, (1.0, -0.5, 2.0, 0.75))[0],
    weight_spec([1.0, 0.5], [sf.jacobi(1.5, 1.5), sf.jacobi(0.5, 0.5),
                             sf.jacobi(1.5, 1.5)]),
], ids=["lag2", "her3", "lag5_chain", "jac3_half_step"])


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


class TestContinuant:
    def test_fibonacci(self):
        # all rho = 1 gives the Fibonacci numbers
        assert continuant([]) == 1
        assert continuant([1]) == 2
        assert continuant([1, 1]) == 3
        assert continuant([1, 1, 1]) == 5

    def test_exact_n3(self):
        assert continuant([sp.Integer(1), sp.Integer(1)]) == sp.Integer(3)

    def test_against_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = rng.integers(1, 8)
            rho = rng.uniform(0.0, 10.0, k)
            K = tridiagonal_from_rho(rho, rng)
            det = np.linalg.det(K)
            assert continuant(rho) == pytest.approx(det, rel=1e-11)


class TestConstruction:
    def test_QT0_frozen(self):
        # Q_0 T = I + A (x - b_0) for Laguerre(0)^2, a=1, b_0=1
        seq = MVOPSequence(lag2(), 4)
        qt = seq.build_QT(0)
        assert np.allclose(qt.coeffs[0], [[1, -1], [0, 1]])
        assert np.allclose(qt.coeffs[1], [[0, 1], [0, 0]])

    def test_Q_degree_and_monic_like_leading(self):
        seq = MVOPSequence(lag2(2.0), 8)
        for n in range(8):
            q = seq.build_Q(n)
            assert q.degree == n
            assert abs(np.linalg.det(q.coeffs[n])) > 0

    def test_exact_Q1_frozen(self):
        # 2x2 Hermite(0), a=1: Q_1 from the explicit formula
        seq = MVOPSequence(herm2(), 4, backend="exact")
        q1 = seq.build_Q(1)
        assert q1.coeffs[0][0, 1] == sp.Rational(-1, 2)
        assert q1.coeffs[0][1, 0] == sp.Rational(-1, 2)
        assert q1.coeffs[1][0, 0] == 1
        assert q1.coeffs[1][1, 1] == sp.Rational(3, 2)

    def test_leading_closed_form_matches_product(self):
        seq = MVOPSequence(lag2(1.5), 6)
        for n in range(6):
            K = seq.leading_closed_form(n)
            prod = q_product(seq, n).coeff(n)
            scale = max(np.max(np.abs(K)), 1.0)
            assert np.max(np.abs(K - prod)) <= 1e-10 * scale

    def test_out_of_range(self):
        seq = MVOPSequence(lag2(), 3)
        with pytest.raises(OutOfRange):
            seq.build_Q(4)
        with pytest.raises(OutOfRange):
            seq.q_block(2, 5)

    def test_q_block_matches_product(self):
        # rows of the block against the per-degree (Q_n T) T^{-1} product,
        # with the x^n coefficient replaced by K_n and nothing above it
        seq = MVOPSequence(lag2(1.5), 9)
        block = seq.q_block(0, 10)
        assert block.shape == (10, 12, 2, 2)
        for n in range(10):
            prod = q_product(seq, n)
            scale = prod.max_coeff_norm()
            for k in range(n):
                assert np.max(np.abs(block[n, k] - prod.coeff(k))) <= \
                    1e-14 * scale
            assert np.array_equal(block[n, n], seq.leading_closed_form(n))
            assert not block[n, n + 1:].any()

    def test_q_block_float_matches_exact(self):
        sf_, se = MVOPSequence(herm2(), 6), MVOPSequence(herm2(), 6,
                                                         backend="exact")
        got, want = sf_.q_block(0, 7), se.q_block(0, 7)
        assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_q_block_singular_leading(self):
        # 1 + g a = 0 in G_3 A makes K_3 singular; build_Q(3) and every
        # block holding degree 3 refuse it, other degrees are unaffected
        for backend, g in (("float", -0.5), ("exact", sp.Rational(-1, 2))):
            seq = MVOPSequence(lag2(2.0), 8, backend=backend)
            ratio = seq.ratio_matrix
            bad = np.array([[0, 0], [g, 0]], dtype=ratio(3).dtype)
            seq.ratio_matrix = lambda n: bad if n == 3 else ratio(n)
            for lo, hi in ((3, 4), (0, 9), (2, 5)):
                with pytest.raises(SingularLeading, match="n=3"):
                    seq.q_block(lo, hi)
            with pytest.raises(SingularLeading):
                seq.build_Q(3)
            seq.q_block(4, 9)
            seq.build_Q(2)

    def test_q_block_past_float_range(self):
        # Laguerre power coefficients overflow near degree 170: a typed
        # error there, no warning, and lower blocks are unaffected
        seq = MVOPSequence(lag2(), 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegreeCap, match="power coefficients"):
                seq.q_block(184, 200)
            assert np.isfinite(seq.q_block(0, 16)).all()

    def test_q_block_degree_overflow(self):
        # with A^2 != 0 the x^{n+1}, x^{n+2} terms no longer cancel
        for backend in ("float", "exact"):
            seq = MVOPSequence(lag2(), 4, backend=backend)
            seq.A = seq.A + seq.A.T
            with pytest.raises(SingularLeading,
                               match="degree overflow at n=0"):
                seq.q_block(0, 3)
            with pytest.raises(SingularLeading, match="degree overflow"):
                seq.build_Q(2)

    @EXACT_SPECS
    def test_exact_build_Q_matches_product(self, spec):
        # every coefficient of the exact Q_n, n <= 6, equals the per-degree
        # (Q_n T) T^{-1} product (the Jacobi norm ratios keep unevaluated
        # Beta functions, hence simplify where expand leaves a difference)
        seq = MVOPSequence(spec, 6, backend="exact")
        for n in range(7):
            got, want = seq.build_Q(n), q_product(seq, n)
            assert got.degree == want.degree == n
            for g, w in zip(got.coeffs, want.coeffs):
                for d in (g - w).flat:
                    d = sp.expand(d)
                    assert d == 0 or sp.simplify(d) == 0


class TestExactCache:
    """The exact rows and norms are built once per sequence and rounded to
    doubles once, to the doubles complex() gives entry by entry."""

    @EXACT_SPECS
    def test_rounded_rows_match_complex_oracle(self, spec):
        seq = MVOPSequence(spec, 6, backend="exact")
        qt, q, verdict = seq._assemble(0, 7)
        assert not verdict.any()
        assert same_bits(seq.q_block(0, 7), complex_rows(q))
        assert same_bits(seq.qt_block(0, 7), complex_rows(qt))
        assert same_bits(seq.q_block(2, 5), complex_rows(q[2:5]))
        assert same_bits(seq.qt_block(6, 7), complex_rows(qt[6:7]))

    def test_readers_return_copies(self):
        seq = MVOPSequence(herm2(), 4, backend="exact")
        want, want_q2 = seq.q_block(0, 5).copy(), seq.build_Q(2).coeffs[0]
        seq.q_block(0, 5)[:] = np.nan
        seq.qt_block(0, 5)[:] = np.nan
        seq.build_Q(2).coeffs[0][:] = sp.Integer(7)
        assert same_bits(seq.q_block(0, 5), want)
        assert (seq.build_Q(2).coeffs[0] == want_q2).all()

    def test_exact_readers_keep_sympy_entries(self):
        seq = MVOPSequence(herm2(), 4, backend="exact")
        seq.q_block(0, 5)
        for poly in (seq.build_Q(3), seq.build_QT(3)):
            assert all(isinstance(v, sp.Basic)
                       for c in poly.coeffs for v in c.flat)
        assert all(isinstance(v, sp.Basic)
                   for v in seq.squared_norm_Q(3).flat)

    @EXACT_SPECS
    def test_norm_reader_matches_complex(self, spec):
        seq = MVOPSequence(spec, 6, backend="exact")
        for n in range(7):
            want = complex_rows(
                seq.squared_norm_Q(n, 2.0 * seq.log_gram_scale(n)))
            assert same_bits(seq._norm_Q(n), want)
            assert seq._norm_Q(n) is seq._norm_Q(n)
            assert not seq._norm_Q(n).flags.writeable

    def test_norm_reader_past_float_range(self):
        # ||Q_0||^2 rounds to inf unscaled; the reader scales it exactly
        spec = weight_spec([2.0], [sf.hermite(0.0, scale=1e308)] * 2)
        seq = MVOPSequence(spec, 3, backend="exact")
        got = seq._norm_Q(0)
        assert np.isfinite(got).all()
        assert np.allclose(got, [[3, 0], [0, 1]], rtol=1e-12, atol=0)

    def test_rat_matches_nsimplify(self):
        # every a and family parameter the benchmark generator draws:
        # binary fractions for the exact suite, six-decimal floats elsewhere
        rng = np.random.default_rng(3)
        values = ([s * v for s in (-1, 1)
                   for v in (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)]
                  + [k / 2 for k in range(8)] + [1e308]
                  + [round(float(v), 6) for v in rng.uniform(-2.0, 4.0, 40)])
        for v in values:
            assert sf._rat(v) == sp.nsimplify(v, rational=True)
            assert sf._rat(v) is sf._rat(v)

    @EXACT_SPECS
    def test_log_norms_round_the_exact_norms(self, spec):
        for s in MVOPSequence(spec, 6, backend="exact").scalar_seqs:
            assert s.log_norms == [float(sp.log(v)) for v in s.exact_norms]


class TestNorms:
    def test_hermite_norm_frozen_exact(self):
        # diag(3 sqrt(pi)/2, sqrt(pi)) and diag(sqrt(pi), 3 sqrt(pi)/4)
        seq = MVOPSequence(herm2(), 4, backend="exact")
        n0 = seq.squared_norm_Q(0)
        assert sp.simplify(n0[0, 0] - 3 * sp.sqrt(sp.pi) / 2) == 0
        assert sp.simplify(n0[1, 1] - sp.sqrt(sp.pi)) == 0
        n1 = seq.squared_norm_Q(1)
        assert sp.simplify(n1[0, 0] - sp.sqrt(sp.pi)) == 0
        assert sp.simplify(n1[1, 1] - 3 * sp.sqrt(sp.pi) / 4) == 0

    def test_norm_identity_vs_quadrature(self):
        seq = MVOPSequence(lag2(2.0), 13)
        for n in range(13):
            gram = seq.gram_qt(n, n)
            closed = seq.squared_norm_Q(n).astype(complex)
            assert np.linalg.norm(gram - closed) <= \
                1e-11 * np.linalg.norm(gram)

    def test_float_exact_agreement(self):
        sf_ = MVOPSequence(herm2(), 5)
        se = MVOPSequence(herm2(), 5, backend="exact")
        for n in range(5):
            a = sf_.squared_norm_Q(n)
            b = np.array([[complex(v) for v in row]
                          for row in se.squared_norm_Q(n)])
            assert np.allclose(a, b, rtol=1e-12)


class TestOrthogonality:
    def test_verify_report(self):
        seq = MVOPSequence(lag2(), 11)
        rep = seq.verify_orthogonality(10, 1e-9)
        assert rep["passed"]
        assert rep["max_scaled_residual"] < 1e-11

    def test_verify_matches_pairwise_loop(self):
        # the array form against one gram_qt read per pair
        seq = MVOPSequence(weight_spec([1.5], [sf.laguerre(0.0),
                                               sf.laguerre(0.5)]), 30)
        norm = [np.linalg.norm(seq.gram_qt(n, n, scaled=True))
                for n in range(31)]
        loop = {(n, m): np.linalg.norm(seq.gram_qt(n, m, scaled=True))
                / np.sqrt(norm[n] * norm[m])
                for n in range(31) for m in range(n + 1, 31)}
        worst = max(loop, key=loop.get)
        rep = seq.verify_orthogonality(30, 1e-9)
        assert rep["worst_pair"] == worst
        assert rep["max_scaled_residual"] == pytest.approx(loop[worst],
                                                           rel=1e-12)
        tight = seq.verify_orthogonality(30, loop[worst] / 10)
        assert {(n, m) for n, m, _ in tight["failures"]} == \
            {k for k, r in loop.items() if r > loop[worst] / 10}

    @pytest.mark.parametrize("spec", [
        weight_spec([1.5], [sf.laguerre(0.0), sf.laguerre(0.5)]),
        weight_spec([1.0, -0.7], [sf.hermite(0.2), sf.hermite(-0.3),
                                  sf.hermite(0.0)]),
        weight_spec([0.8, 1.2], [sf.jacobi(0.5, -0.5), sf.hermite(0.0),
                                 sf.laguerre(1.5)]),
    ], ids=["lag2", "her3", "mixed3"])
    def test_block_matches_pairwise_integration(self, spec):
        # every pair n, m <= 6 and shift 0, 1 of the one-rule block against
        # a Gauss rule of its own for x^shift Q_n against Q_m
        seq = MVOPSequence(spec, 6)
        Q = [seq.build_Q(n).to_float() for n in range(7)]
        worst = 0.0
        for shift in (0, 1):
            scale = [np.linalg.norm(seq.gram_qt(n, n, shift))
                     for n in range(7)]
            for n in range(7):
                for m in range(7):
                    want = pairwise_quadrature(
                        spec, seq.A, Q[n].shift(shift).coeffs, Q[m].coeffs)
                    got = seq.gram_qt(n, m, shift)
                    err = np.max(np.abs(got - want))
                    worst = max(worst, err / np.sqrt(scale[n] * scale[m]))
        assert worst < 1e-12

    def test_unscaled_gram_past_float_range(self):
        # ||Q_150||^2 ~ e^1200 for Laguerre: the plain reading raises a
        # typed error, the scaled one stays usable
        seq = MVOPSequence(lag2(), 150)
        with pytest.raises(DegreeCap):
            seq.gram_qt(150, 150)
        g = seq.gram_qt(150, 150, scaled=True)
        assert np.all(np.isfinite(g)) and np.linalg.norm(g) > 0

    def test_gram_cross_zero(self):
        seq = MVOPSequence(herm2(), 11)
        g = seq.gram_qt(3, 7)
        norm = np.sqrt(np.linalg.norm(seq.gram_qt(3, 3))
                       * np.linalg.norm(seq.gram_qt(7, 7)))
        assert np.linalg.norm(g) <= 1e-12 * norm


class TestRho:
    def test_rho_frozen_hermite(self):
        # rho_1 = a^2 ||p_n^{w_2}||^2 / ||p_{n-1}^{w_1}||^2 = a^2 n / 2
        seq = MVOPSequence(herm2(), 6)
        for n in range(1, 6):
            assert seq.rho_values(n) == pytest.approx([n / 2])

    def test_reduced_det_vs_continuant(self):
        seq = MVOPSequence(lag2(2.0), 10)
        for n in range(1, 10):
            det = np.linalg.det(seq.reduced_leading_matrix(n)).real
            assert continuant(seq.rho_values(n)) == pytest.approx(
                det, rel=1e-11)

    def test_reduced_matrix_is_similar_to_unscaled(self):
        # same determinant as I + ||P_n||^2 A* - ||P_{n-1}||^{-2} A, formed
        # directly at a degree where that is still in range
        spec = weight_spec([1.0, -0.7, 0.4], [sf.hermite(0.2), sf.hermite(0.0),
                                              sf.hermite(-0.1),
                                              sf.hermite(0.3)])
        seq = MVOPSequence(spec, 12)
        A = np.asarray(seq.A, dtype=complex)
        for n in range(1, 12):
            norms = np.diag([np.exp(s.log_norms[n]) for s in seq.scalar_seqs])
            inv = np.diag([np.exp(-s.log_norms[n - 1])
                           for s in seq.scalar_seqs])
            direct = np.eye(4) + norms @ A.conj().T - inv @ A
            got = seq.reduced_leading_matrix(n)
            assert np.linalg.det(got) == pytest.approx(np.linalg.det(direct),
                                                       rel=1e-12)
            assert np.array_equal(got != 0, direct != 0)


class TestThreeTerm:
    def test_recurrence_residual(self):
        seq = MVOPSequence(lag2(2.0), 10)
        for n in range(1, 9):
            _, _, _, res = seq.three_term_coefficients(n)
            assert res < 1e-10

    def test_laguerre_A1_frozen(self):
        # verified closed form at alpha=beta=0, a=1, n=1
        seq = MVOPSequence(lag2(), 4)
        An, _, _, _ = seq.three_term_coefficients(1)
        assert np.allclose(An, [[1, 0.4], [0, 0.4]], atol=1e-12)

    def test_out_of_range(self):
        seq = MVOPSequence(lag2(), 4)
        with pytest.raises(OutOfRange):
            seq.three_term_coefficients(0)
        with pytest.raises(OutOfRange):
            seq.three_term_coefficients(4)
