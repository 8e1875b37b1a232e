"""The matrix orthogonal sequence: construction, norms, determinants."""

import itertools
import math
import re
import time
import warnings

import mpmath
import numpy as np
import pytest
import sympy as sp

import mvop.exact_scalars as es
import mvop.mvop_core as mvop_core
import mvop.scalar_families as sf
from mvop.errors import (DegreeCap, IllConditioned, OutOfRange,
                         SingularLeading)
from mvop.darboux import builtin_n5_laguerre
from mvop.mvop_core import MVOPSequence, continuant
from mvop.weight_model import weight_spec
from oracles import (dense_norm_Q, exact_rows, moment0_sympy, nearest_scaled,
                     pairwise_quadrature, q_product, set_ratio,
                     three_solve_pass, three_term_loop, tridiagonal_from_rho)
from test_diff_operators import FAMILY_WEIGHTS


def lag2(a=1.0):
    return weight_spec([a], [sf.laguerre(0.0), sf.laguerre(0.0)])


def herm2():
    return weight_spec([1.0], [sf.hermite(0.0), sf.hermite(0.0)])


#: a 6x6 mixed Hermite-Laguerre weight whose leading coefficients K_n have
#: entries from about 1e-13 to 1e21
HHLLHL = weight_spec([0.889, 0.851, 1.993, 1.205, 1.755],
                     [sf.hermite(0.0), sf.hermite(0.0), sf.laguerre(0.5),
                      sf.laguerre(0.5), sf.hermite(0.0), sf.laguerre(0.5)])


#: exact-backend weights: mixed Laguerre, shifted Hermite, the 5x5 Laguerre
#: chain and a half-step Jacobi weight whose slots form one weight class
EXACT_WEIGHTS = {
    "lag2": weight_spec([1.5], [sf.laguerre(0.0), sf.laguerre(0.5)]),
    "her3": weight_spec([1.0, -0.5], [sf.hermite(0.5), sf.hermite(0.0),
                                      sf.hermite(-0.5)]),
    "lag5_chain": builtin_n5_laguerre(0.5, (1.0, -0.5, 2.0, 0.75))[0],
    "jac3_half_step": weight_spec([1.0, 0.5], [sf.jacobi(1.5, 1.5),
                                               sf.jacobi(0.5, 0.5),
                                               sf.jacobi(1.5, 1.5)]),
}
#: a = (1 + i/2, 2): complex A, G_n and ||Q_n||^2
COMPLEX_A = weight_spec([1 + 0.5j, 2.0], [sf.laguerre(0.0), sf.laguerre(1.0),
                                          sf.laguerre(0.5)])
EXACT_SPECS = pytest.mark.parametrize("spec", list(EXACT_WEIGHTS.values()),
                                      ids=list(EXACT_WEIGHTS))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def nearest_rows(rows, lo, hi, real):
    """The nearest doubles of the sympy rows of degrees lo..hi-1, shaped
    and typed like ``q_block(lo, hi)``."""
    out = nearest_scaled(rows[lo:hi, :hi + 2], 0.0)
    return out.real.copy() if real else out


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

    def test_blocks_trimmed_and_typed(self):
        # on both backends a block holds powers up to x^{hi+1}, bit for bit
        # those of the full-range block, and is real exactly where A is
        for backend, (a, dtype) in itertools.product(
                ("float", "exact"), ((1.5, float), (1 + 0.5j, complex))):
            seq = MVOPSequence(lag2(a), 20, backend=backend)
            for block in (seq.q_block, seq.qt_block, seq.p_block):
                full = block(0, 21)
                for lo, hi in ((0, 5), (3, 4), (7, 19), (16, 21)):
                    got = block(lo, hi)
                    assert got.dtype == dtype
                    assert got.shape == (hi - lo, hi + 2, 2, 2)
                    assert same_bits(got, full[lo:hi, :hi + 2])
                    assert not full[lo:hi, hi + 2:].any()

    def test_q_block_float_matches_exact(self):
        sf_, se = MVOPSequence(herm2(), 6), MVOPSequence(herm2(), 6,
                                                         backend="exact")
        got, want = sf_.q_block(0, 7), se.q_block(0, 7)
        assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_q_block_singular_leading(self):
        # 1 + g a = 0 in G_3 A makes K_3 singular; build_Q(3), build_QT(3)
        # and every block holding degree 3 refuse it, other degrees are
        # unaffected; the verdict is det K_n = 0 as ``leading_det`` reads it.
        # set_ratio hands the exact G_n over as sympy rationals
        for backend, g in (("float", -0.5), ("exact", sp.Rational(-1, 2))):
            seq = MVOPSequence(lag2(2.0), 8, backend=backend)
            set_ratio(seq, 3, lambda G: np.array([[0, 0], [g, 0]],
                                                 dtype=G.dtype))
            for block in (seq.q_block, seq.qt_block):
                for lo, hi in ((3, 4), (0, 9), (2, 5)):
                    with pytest.raises(SingularLeading, match="n=3"):
                        block(lo, hi)
                block(4, 9)
            for build in (seq.build_Q, seq.build_QT):
                with pytest.raises(SingularLeading, match="n=3"):
                    build(3)
                build(2)
            verdict, ns = seq._assemble(0, 9)[2], np.arange(9)
            assert (verdict == 3 * (ns == 3)).all()
            assert ((verdict == 3) == (seq.leading_det(ns)[0] == 0)).all()

    def test_q_block_wide_leading_block(self):
        # K_n of this weight holds a Laguerre 2x2 block near 1e21, and its
        # float det cancels to 0.0 from n = 17 on; the continuant of rho_n
        # is det K_n and says every K_n is regular
        seq = MVOPSequence(HHLLHL, 30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(seq.q_block(0, 31)).all()
        for n in range(1, 7):       # cond(K_n) below 1e8
            assert continuant(seq.rho_values(n)) == pytest.approx(
                np.linalg.det(seq.leading_closed_form(n)).real, rel=1e-12)

    def test_q_block_past_float_range(self):
        # Laguerre power coefficients overflow near degree 170: a typed
        # error there, no warning, and lower blocks are unaffected
        seq = MVOPSequence(lag2(), 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegreeCap, match="power coefficients"):
                seq.q_block(184, 200)
            assert np.isfinite(seq.q_block(0, 16)).all()

    def test_q_block_degree_overflow(self, monkeypatch):
        # with A^2 != 0 the x^{n+1}, x^{n+2} terms no longer cancel
        build = mvop_core.build_nilpotent
        monkeypatch.setattr(mvop_core, "build_nilpotent",
                            lambda *a, **k: build(*a, **k) + build(*a, **k).T)
        for backend in ("float", "exact"):
            seq = MVOPSequence(lag2(), 4, backend=backend)
            with pytest.raises(SingularLeading,
                               match="degree overflow at n=0"):
                seq.q_block(0, 3)
            with pytest.raises(SingularLeading, match="degree overflow"):
                seq.build_Q(2)

    @pytest.mark.parametrize("name", [*EXACT_WEIGHTS, "HHLLHL"])
    def test_continuant_verdicts(self, name):
        # every K_n is regular: det K_n, the continuant of rho_values, is
        # positive at every degree, and _assemble refuses none of them
        exact = name in EXACT_WEIGHTS
        seq = MVOPSequence(EXACT_WEIGHTS.get(name, HHLLHL), 12,
                           backend="exact" if exact else "float")
        assert not seq._assemble(0, 13)[2].any()
        for n in range(1, 13):
            det = continuant(seq.rho_values(n))
            assert (sp.N(det) if exact else det) > 0

    @EXACT_SPECS
    def test_exact_build_Q_matches_product(self, spec):
        # every coefficient of the exact Q_n, n <= 6, equals the per-degree
        # (Q_n T) T^{-1} product (simplify where expand leaves a
        # difference in the Gamma atoms of different weight classes)
        seq = MVOPSequence(spec, 6, backend="exact")
        for n in range(7):
            got, want = seq.build_Q(n), q_product(seq, n)
            assert got.degree == want.degree == n
            for g, w in zip(got.coeffs, want.coeffs):
                for d in (g - w).flat:
                    d = sp.expand(d)
                    assert d == 0 or sp.simplify(d) == 0


class TestExactCache:
    """The exact rows and norms are built once per sequence and rounded
    once, each entry to its nearest double."""

    @EXACT_SPECS
    def test_rounded_rows_match_complex_oracle(self, spec):
        seq = MVOPSequence(spec, 6, backend="exact")
        assert not seq._assemble(0, 7)[2].any()
        qt, q = exact_rows(seq, 0, 7)
        for lo, hi in ((0, 7), (2, 5), (6, 7)):
            assert same_bits(seq.q_block(lo, hi),
                             nearest_rows(q, lo, hi, real=True))
            assert same_bits(seq.qt_block(lo, hi),
                             nearest_rows(qt, lo, hi, real=True))

    @pytest.mark.parametrize("spec", [*EXACT_WEIGHTS.values(), COMPLEX_A],
                             ids=[*EXACT_WEIGHTS, "complex_a"])
    def test_ratio_table_matches_sympy(self, spec):
        # the integer G_n table against conj(a) ||p_n^{w_u}||^2 /
        # ||p_{n-1}^{w_r}||^2 in sympy, and its doubles against their
        # 50-digit nearest; rho_i = a_i G_n[u, r] is real
        seq = MVOPSequence(spec, 6, backend="exact")
        doubles = seq._float_ratios(np.arange(8))
        for n in range(1, 8):
            want = np.full((spec.N,) * 2, sp.S.Zero, dtype=object)
            for r, u in zip(*np.nonzero(seq.A)):
                want[u, r] = (sp.conjugate(seq.A[r, u])
                              * seq.scalar_seqs[u].exact_norms[n]
                              / seq.scalar_seqs[r].exact_norms[n - 1])
            got = seq.ratio_matrix(n)
            assert all(sp.simplify(g - w) == 0
                       for g, w in zip(got.flat, want.flat))
            assert all(v.is_real for v in seq.rho_values(n))
            want = nearest_scaled(want, 0.0)
            assert same_bits(doubles[n].astype(complex), want)
            assert np.isrealobj(doubles) == (spec is not COMPLEX_A)

    @EXACT_SPECS
    def test_p_block_is_nearest(self, spec):
        # the integer power table rounds to the 50-digit nearest doubles
        seq = MVOPSequence(spec, 6, backend="exact")
        N = spec.N
        rows = np.full((7, 9, N, N), sp.S.Zero, dtype=object)
        for k, s in enumerate(seq.scalar_seqs):
            for n in range(7):
                rows[n, :n + 1, k, k] = s.polynomial(n)
        got, want = seq.p_block(0, 7), nearest_rows(rows, 0, 7, True)
        assert np.array_equal(got, want)   # off the diagonal 0 * p reads -0
        diagonal = (..., range(N), range(N))
        assert same_bits(got[diagonal], want[diagonal])

    @pytest.mark.parametrize("name, i, want", [
        ("lag2", (6, 6, 1, 1), 211.5161094022512),
        ("her3", (5, 1, 1, 0), -4.867504894196281)])
    def test_two_class_rows_are_nearest(self, name, i, want):
        # 1 + 243243 sqrt(pi)/2048 and -25 exp(-1/4)/4 mix two atoms; a
        # 53-bit evalf of the sympy entry reads each one ulp off
        seq = MVOPSequence(EXACT_WEIGHTS[name], 6, backend="exact")
        assert seq.q_block(0, 7)[i] == want

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

    @pytest.mark.parametrize("spec", [*EXACT_WEIGHTS.values(), COMPLEX_A],
                             ids=[*EXACT_WEIGHTS, "complex_a"])
    def test_norm_reader_matches_complex(self, spec):
        # each entry is the nearest double of the exact one over sigma_n^2
        seq = MVOPSequence(spec, 6, backend="exact")
        for n in range(7):
            want = nearest_scaled(seq.squared_norm_Q(n),
                                  2.0 * seq.log_gram_scale(n))
            assert same_bits(seq._norm_table()[n], want)
            assert seq._norm_table()[n] is seq._norm_table()[n]
            assert not seq._norm_table()[n].flags.writeable

    @EXACT_SPECS
    def test_norm_matches_dense_products(self, spec):
        # the sparse placement against the dense N x N products: the same
        # sympy entries, whose scaled nearest doubles the reader gives;
        # float sums may round in another order, within 4 eps
        seq = MVOPSequence(spec, 6, backend="exact")
        fseq = MVOPSequence(spec, 6)
        for n in range(7):
            assert (seq.squared_norm_Q(n) == dense_norm_Q(seq, n, 0.0)).all()
            log_scale = 2.0 * seq.log_gram_scale(n)
            want = nearest_scaled(dense_norm_Q(seq, n, 0.0), log_scale)
            assert same_bits(seq._norm_table()[n], want)
            want = dense_norm_Q(fseq, n, 2.0 * fseq.log_gram_scale(n))
            assert np.abs(fseq._norm_table()[n] - want).max() <= \
                4 * np.finfo(float).eps * np.abs(want).max()

    def test_norm_reader_rounds_complex_entries(self):
        # a = 1 + i/2 makes the off-diagonal entries of ||Q_n||^2 complex
        spec = weight_spec([1 + 0.5j, 2.0], [sf.laguerre(0.0),
                                             sf.laguerre(1.0),
                                             sf.laguerre(0.5)])
        seq = MVOPSequence(spec, 6, backend="exact")
        for n in range(7):
            got = seq._norm_table()[n]
            assert np.iscomplex(got).any()
            assert same_bits(got, nearest_scaled(
                seq.squared_norm_Q(n), 2.0 * seq.log_gram_scale(n)))

    def test_three_classes_complex_a(self):
        # atoms 1, sqrt(pi) and Gamma(1/3) with a = (1 + i/2, 2): rows and
        # norms are the nearest doubles of the public readers' entries
        spec = weight_spec([1 + 0.5j, 2.0], [sf.laguerre(0.0),
                                             sf.laguerre(0.5),
                                             sf.laguerre(1 / 3)])
        seq = MVOPSequence(spec, 6, backend="exact")
        assert [es.atom_sympy(s.atom) for s in seq.scalar_seqs] == \
            [1, sp.sqrt(sp.pi), sp.gamma(sp.Rational(1, 3))]
        qt, q = exact_rows(seq, 0, 7)
        assert same_bits(seq.q_block(0, 7), nearest_rows(q, 0, 7, False))
        assert same_bits(seq.qt_block(0, 7), nearest_rows(qt, 0, 7, False))
        assert np.iscomplex(seq.q_block(0, 7)).any()
        for n in range(7):
            assert same_bits(seq._norm_table()[n], nearest_scaled(
                seq.squared_norm_Q(n), 2.0 * seq.log_gram_scale(n)))

    @pytest.mark.parametrize("name", list(EXACT_WEIGHTS))
    def test_one_class_reads_without_symbolic_work(self, name, monkeypatch):
        # every row and norm comes from rationals and one evaluation of
        # each weight class's atom: one atom for lag5_chain and
        # jac3_half_step, two for lag2 and her3
        seq = MVOPSequence(EXACT_WEIGHTS[name], 6, backend="exact")
        calls = []

        def counted(name, method):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(sp.core.evalf.EvalfMixin, "evalf",
                            counted("evalf", sp.core.evalf.EvalfMixin.evalf))
        monkeypatch.setattr(sp.Expr, "expand",
                            counted("expand", sp.Expr.expand))
        seq.q_block(0, 7)
        seq.qt_block(0, 7)
        for n in range(7):
            seq._norm_table()[n]
        assert calls.count("evalf") <= len({s.atom for s in seq.scalar_seqs})
        assert "expand" not in calls

    def test_norm_reader_past_float_range(self):
        # ||Q_0||^2 rounds to inf unscaled; the reader scales it exactly
        spec = weight_spec([2.0], [sf.hermite(0.0, scale=1e308)] * 2)
        seq = MVOPSequence(spec, 3, backend="exact")
        got = seq._norm_table()[0]
        assert np.isfinite(got).all()
        assert np.allclose(got, [[3, 0], [0, 1]], rtol=1e-12, atol=0)

    def test_rat_matches_nsimplify(self):
        # every a and family parameter the benchmark generator draws
        # (binary fractions for the exact suite, six-decimal floats
        # elsewhere), thirds, sevenths, decimals, ints, values past the
        # range where mpmath.identify finds a fraction, and values next to
        # 2^-103, below which sympy's 30-digit evaluation chops to 0
        rng = np.random.default_rng(3)
        values = ([s * v for s in (-1, 1)
                   for v in (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 1 / 3, 2 / 3,
                             4 / 3, 1 / 7, 3 / 7, 22 / 7, 0.1, 0.3, 0.7,
                             2.5e-3, 123456.789, 1e-5, 1e308, 1e23, 1e-300,
                             2 ** 0.5, math.pi, 1 / 12288, 12288.0)]
                  + [k / 2 for k in range(8)] + [2, -3, 10 ** 23, 0, -0.0]
                  + [math.ldexp(0.75, e) for e in (-102, -103, -104, -105)]
                  + [round(float(v), 6) for v in rng.uniform(-2.0, 4.0, 40)]
                  + [float(v) for v in rng.uniform(-5.0, 5.0, 20)])
        for v in values:
            want = sp.nsimplify(v, rational=True)
            assert sp.srepr(sp.Rational(*es.rat(v))) == sp.srepr(want), v
            assert es.rat(v) is es.rat(v)
        # a complex a, part by part, as the A entries take it
        for v in (1 + 0.5j, -0.25 + 1 / 3j, 2j, complex(1.5, 0.0), 3.0, 7):
            assert sp.srepr(es.a_sympy(v)) == \
                sp.srepr(sp.nsimplify(v, rational=True)), v

    def test_short_decimals_skip_identify(self):
        # a float whose repr has at most 7 significant digits and no
        # exponent reads as written: the pair of the mpmath.identify path
        # (sympy's reading) on a seeded grid of such decimals, from 1e-4
        # to 1e15 and of both signs, and in under 1 ms each
        rng = np.random.default_rng(31)
        values = ({round(float(v), k) for k in range(1, 7)
                   for v in rng.uniform(-3.0, 9.9, 6)}
                  | {round(float(v), 5) for v in rng.uniform(10.0, 25.0, 6)}
                  | {float(m) * 10 ** e if e >= 0 else int(m) / 10 ** -e
                     for m, e in zip(rng.integers(1, 10 ** 7, 12),
                                     range(-10, 9, 2))}
                  | {12.0, -0.001234, 1234567.0, 1e15, 0.1, 2.5e-3})
        for v in values:
            assert es._short_decimal(v) is not None, v
            want = es._identify(v)
            assert es.rat.__wrapped__(v) == (want.numerator,
                                             want.denominator), v
        for v in (1 / 3, 0.12345678, 1e-5, 1e16, 2 ** 0.5):
            assert es._short_decimal(v) is None, v
        # ROADMAP item 9's limit, on values past the cache
        for v in (0.123457, 1.234567, 3.14159):
            took = []
            for _ in range(3):
                t = time.perf_counter()
                es.rat.__wrapped__(v)
                took.append(time.perf_counter() - t)
            assert min(took) < 1e-3, (v, took)

    @EXACT_SPECS
    def test_log_norms_round_the_exact_norms(self, spec):
        for s in MVOPSequence(spec, 6, backend="exact").scalar_seqs:
            assert s.log_norms == [float(sp.N(sp.log(v), 50))
                                   for v in s.exact_norms]


class TestExactMoments:
    """Moments write each Gamma(x) as Gamma(f) rf(f, x - f), f in (0, 1], so
    slots of one weight class share their transcendental atoms."""

    @pytest.mark.parametrize("spec", [
        weight_spec([1.0, 0.5], [sf.jacobi(1.5, 1.5), sf.jacobi(0.5, 0.5),
                                 sf.jacobi(1.5, 1.5)]),
        weight_spec([1.0, -0.5], [sf.jacobi(1 / 3 + k, 1 / 3)
                                  for k in range(3)]),
        weight_spec([1.5, 0.75], [sf.laguerre(1 / 3 + k) for k in range(3)]),
        weight_spec([1.25], [sf.hermite(0.5), sf.hermite(0.5, scale=2.25)]),
    ], ids=["jac3_half_step", "jac3_third", "lag3_third", "her2_scaled"])
    def test_one_class_cancels_to_rationals(self, spec):
        seq = MVOPSequence(spec, 5, backend="exact")
        for n in range(6):
            entries = [*seq.ratio_matrix(n).flat, *seq.build_Q(n).coeffs.flat]
            assert all(isinstance(v, sp.Rational) for v in entries), n
        for s in seq.scalar_seqs:
            assert not any(v.has(sp.beta) for v in s.exact_norms)

    def test_two_classes_keep_their_atoms(self):
        # Laguerre 0 and 1/2: G_n carries sqrt(pi), and the moments are the
        # ones sympy's gamma gives, so the rounded rows keep their bits
        seq = MVOPSequence(weight_spec([1.5], [sf.laguerre(0.0),
                                               sf.laguerre(0.5)]), 5,
                           backend="exact")
        assert [s.exact_norms[0] for s in seq.scalar_seqs] == \
            [1, sp.gamma(sp.Rational(3, 2))]
        for n in range(1, 6):
            assert seq.ratio_matrix(n)[1, 0].has(sp.pi)

    def test_jacobi_moment_matches_beta(self):
        for al, be in ((4 / 3, 1 / 3), (1.5, 0.5), (0.25, 2.75)):
            (p, q), atom = es.moment0(sf.jacobi(al, be))
            got = sp.Rational(p, q) * es.atom_sympy(atom)
            a, b = sp.nsimplify(al, rational=True), \
                sp.nsimplify(be, rational=True)
            want = 2 ** (a + b + 1) * sp.beta(a + 1, b + 1)
            assert abs(sp.N(got - want, 60)) < sp.Float(10) ** -55
        assert es.moment0(sf.jacobi(4 / 3, 1 / 3))[1] == \
            es.moment0(sf.jacobi(1 / 3, 1 / 3))[1]

    #: Hermite with b != 0 and a scale, Laguerre in halves and thirds,
    #: Jacobi (alpha + beta = -1 and 2^f with f below 0 included), and HL
    ATOM_SPECS = [sf.hermite(0.5, scale=2.25), sf.hermite(-0.75),
                  sf.hermite(0.0), sf.hermite(0.0, scale=3.0),
                  *(sf.laguerre(k / 2) for k in range(-1, 5)),
                  *(sf.laguerre(k / 3) for k in (-2, -1, 1, 2, 4, 5)),
                  sf.jacobi(-0.5, -0.5), sf.jacobi(0.5, 0.5),
                  sf.jacobi(-0.25, -0.75), sf.jacobi(1.5, 1.5),
                  sf.jacobi(1 / 3, 1 / 3), sf.jacobi(4 / 3, 1 / 3),
                  sf.jacobi(-2 / 3, -2 / 3), sf.jacobi(0.25, 2.75),
                  sf.jacobi(0.0, 0.0), sf.jacobi(3.0, -0.5, scale=0.5)]

    @pytest.mark.parametrize("spec", ATOM_SPECS)
    def test_atoms_match_sympy(self, spec):
        # the rational and the atom are sympy's as_coeff_Mul of the sympy
        # moment, srepr for srepr, and their 113-bit values are sympy's
        # 40-digit ones rounded to 113 bits
        coeff, atom = es.moment0(spec)
        want = moment0_sympy(spec)
        wc, wa = want.as_coeff_Mul()
        assert sp.Rational(*coeff) == wc
        assert sp.srepr(es.atom_sympy(atom)) == sp.srepr(wa)
        with mpmath.workprec(113):
            assert es.atom_value(atom) == mpmath.mpf(wa.evalf(40))
            assert es.atom_value(atom, coeff) == mpmath.mpf(want.evalf(40))

    def test_atoms_group_as_sympy(self):
        # two weights share an atom exactly where their sympy moments do:
        # Hermite(0) and Laguerre(1/2) (HL) share sqrt(pi)
        atoms = [es.moment0(s)[1] for s in self.ATOM_SPECS]
        sympy_atoms = [moment0_sympy(s).as_coeff_Mul()[1]
                       for s in self.ATOM_SPECS]
        for (a, sa), (b, sb) in itertools.combinations(
                zip(atoms, sympy_atoms), 2):
            assert (a == b) == (sa == sb)
        assert es.moment0(sf.hermite(0.0))[1] == \
            es.moment0(sf.laguerre(0.5))[1]
        hl = MVOPSequence(weight_spec([1.5], [sf.hermite(0.0),
                                              sf.laguerre(0.5)]), 4,
                          backend="exact")
        assert len(hl._atoms) == 1


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

    @pytest.mark.parametrize("a, scalars, over, under", [
        (1.5, [sf.laguerre(0.0), sf.laguerre(0.5)],
         [("gram_qt", (97, 97), "<Q_97, Q_97>"),
          ("gram_qt", (96, 96, 1), "<x Q_96, Q_96>"),
          ("squared_norm_Q", (97,), "||Q_97||^2")],
         [("gram_qt", (96, 96)), ("gram_qt", (95, 95, 1)),
          ("squared_norm_Q", (96,))]),
        (1e3, [sf.hermite(0.0)] * 2,
         [("gram_qt", (193, 193), "<Q_193, Q_193>")],
         [("gram_qt", (192, 192))])], ids=["laguerre", "hermite"])
    def test_unscaled_readers_at_the_float_edge(self, a, scalars, over,
                                                under):
        # the first degree past the float range raises DegreeCap naming it,
        # with no overflow warning (<Q_97, Q_97> on the Laguerre pair has
        # log scale 702.2, where exp itself is finite); the degree before
        # stays a finite number
        seq = MVOPSequence(weight_spec([a], scalars), 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, args, what in over:
                with pytest.raises(DegreeCap, match=re.escape(what)):
                    getattr(seq, name)(*args)
            for name, args in under:
                got = getattr(seq, name)(*args)
                assert np.isfinite(got).all() and np.abs(got).max() > 1e300

    @pytest.mark.parametrize("spec, backend", [
        *((w, "float") for w in FAMILY_WEIGHTS.values()),
        (COMPLEX_A, "float"), (EXACT_WEIGHTS["her3"], "exact")],
        ids=[*FAMILY_WEIGHTS, "complex_a", "exact"])
    def test_array_read_matches_pair_reads(self, spec, backend):
        # one gram_qt call over degree arrays is the stack of its pair
        # reads, bit for bit, for a 2-D array of pairs and for the diagonal
        seq = MVOPSequence(spec, 12, backend=backend)
        n, m = np.meshgrid(np.arange(13), np.arange(13), indexing="ij")
        for shift in (0, 1):
            for scaled in (False, True):
                for ns, ms in ((n, m), (n[:, 0], m[0])):
                    got = seq.gram_qt(ns, ms, shift, scaled)
                    want = [seq.gram_qt(int(i), int(j), shift, scaled)
                            for i, j in zip(ns.flat, ms.flat)]
                    assert same_bits(got, np.reshape(want, got.shape))

    def test_array_read_names_first_pair_past_float_range(self):
        # the 2x2 Laguerre pair of the float-edge test: <Q_97, Q_97> is the
        # first diagonal block past the float range; an array read names
        # the first such pair in array order, with no overflow warning
        seq = MVOPSequence(weight_spec([1.5], [sf.laguerre(0.0),
                                               sf.laguerre(0.5)]), 200)
        ns = np.arange(90, 101)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegreeCap, match=re.escape("<Q_97, Q_97>")):
                seq.gram_qt(ns, ns)
            with pytest.raises(DegreeCap, match=re.escape("<x Q_96, Q_96>")):
                seq.gram_qt(ns, ns, 1)
            order = np.array([[95, 99], [97, 98]])
            with pytest.raises(DegreeCap, match=re.escape("<Q_99, Q_99>")):
                seq.gram_qt(order, order)
            got = seq.gram_qt(ns[:7], ns[:7])
            assert np.isfinite(got).all() and np.abs(got).max() > 1e300

    def test_gram_cross_zero(self):
        seq = MVOPSequence(herm2(), 11)
        g = seq.gram_qt(3, 7)
        norm = np.sqrt(np.linalg.norm(seq.gram_qt(3, 3))
                       * np.linalg.norm(seq.gram_qt(7, 7)))
        assert np.linalg.norm(g) <= 1e-12 * norm


class TestNearest:
    """``_exact_sum`` rounds the exact sum of m_k p_k / d_k once to the
    nearest double; a complex value takes one sum per part."""

    def test_no_double_rounding(self):
        # 1 + 2^-53 + 2^-200 lies above the tie between 1 and 1 + 2^-52;
        # a sum rounded to 113 bits first lands on the tie and then on 1
        mpf, exact_sum = mpmath.mpf, mvop_core._exact_sum
        want = 1 + 2 ** -52
        p, d = 2 ** 200 + 2 ** 147 + 1, 2 ** 200
        assert exact_sum([(mpf(1), p, d)]) == want
        assert exact_sum([(mpf(1), 1, 1), (mpf(2) ** -53, 1, 1),
                          (mpf(3), 1, 3 * 2 ** 200)]) == want
        got = complex(*(exact_sum([(mpf(1), v, d)]) for v in (d, p)))
        assert got == complex(1, 1 + 2 ** -52)

    def test_past_the_float_range(self):
        mpf, exact_sum = mpmath.mpf, mvop_core._exact_sum
        for sign in (1, -1):
            got = complex(*(exact_sum([(mpf(1), v, 1)])
                            for v in (sign * 10 ** 400, 0)))
            assert got.real == sign * math.inf and got.imag == 0
            got = exact_sum([(mpf(2) ** 2000, sign, 1)])
            assert got == sign * math.inf
        assert exact_sum([(mpf(2) ** -1100, 1, 1)]) == 0
        assert exact_sum([]) == 0


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

    @pytest.mark.parametrize(
        "spec, backend",
        [(s, b) for b in ("exact", "float") for s in EXACT_WEIGHTS.values()],
        ids=[*EXACT_WEIGHTS, *(f"{k}-float" for k in EXACT_WEIGHTS)])
    def test_exact_leading_det(self, spec, backend):
        # det K_n as d 2^e from the doubles of the G_n table against the
        # continuant of rho_values: sympy's exact one on the exact backend
        seq = MVOPSequence(spec, 6, backend=backend)
        for n in range(7):
            want = complex(continuant(seq.rho_values(n)))
            got = np.ldexp(*seq.leading_det(n))
            assert abs(got - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("name", ["lag5_chain", "jac3_half_step"])
    def test_one_class_det_without_symbolic_work(self, name, monkeypatch):
        seq = MVOPSequence(EXACT_WEIGHTS[name], 6, backend="exact")
        calls = []
        evalf = sp.core.evalf.EvalfMixin.evalf
        monkeypatch.setattr(sp.core.evalf.EvalfMixin, "evalf",
                            lambda *a, **k: calls.append(1) or evalf(*a, **k))
        monkeypatch.setattr(MVOPSequence, "_sympy",
                            lambda *a, **k: calls.append(2))
        dets = [np.ldexp(*seq.leading_det(n)) for n in range(7)]
        assert not calls
        assert all(d > 0 and np.isrealobj(d) for d in dets)

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

    H, L = sf.hermite(0.0), sf.laguerre(0.5)
    TABLE_WEIGHTS = {
        "HL": weight_spec([1.5], [H, L]),
        "LH": weight_spec([1.5], [L, H]),
        "her3": weight_spec([1.0, -0.7], [sf.hermite(0.3), sf.hermite(-0.2),
                                          sf.hermite(0.0)]),
        "HHLLHL": HHLLHL,
    }

    @pytest.mark.parametrize("name", list(TABLE_WEIGHTS))
    def test_array_reads_match_per_degree(self, name):
        # one read for all degrees slices the same G_n table as one read
        # per degree
        seq = MVOPSequence(self.TABLE_WEIGHTS[name], 40)
        ns = np.arange(41)
        M, rho = seq.reduced_leading_matrix(ns), seq.rho_values(ns)
        assert M.shape == (41, seq.weight.N, seq.weight.N)
        assert rho.shape == (seq.weight.N - 1, 41)
        for n in ns:
            assert same_bits(M[n], seq.reduced_leading_matrix(int(n)))
            assert same_bits(rho[:, n], seq.rho_values(int(n)))
        assert same_bits(seq.rho_values(np.array([41])),
                         seq.rho_values(41)[:, None])
        assert (M[0] == np.eye(seq.weight.N)).all()

    @pytest.mark.parametrize("backend", ["float", "exact"])
    def test_degrees_out_of_range(self, backend):
        # G_n and rho_n are read for 0..n_max+1, the reduced matrix for
        # 0..n_max; a negative degree never wraps around the table
        seq = MVOPSequence(lag2(2.0), 6, backend=backend)
        reads = [(seq.ratio_matrix, 7), (seq.rho_values, 7),
                 (seq.reduced_leading_matrix, 6)]
        for read, top in reads:
            read(0), read(top)
            for n in (-1, top + 1):
                with pytest.raises(OutOfRange, match=f"n={n} "):
                    read(n)
        for n in (-1, 7):
            with pytest.raises(OutOfRange, match=f"n={n} "):
                seq.reduced_leading_matrix(np.array([1, n, 2]))
        with pytest.raises(OutOfRange, match="n=8 "):
            MVOPSequence(lag2(2.0), 6).rho_values(np.array([1, 8]))

    @pytest.mark.parametrize("backend", ["float", "exact"])
    def test_table_is_read_only(self, backend):
        seq = MVOPSequence(lag2(2.0), 6, backend=backend)
        for table in seq._ratio_table():
            assert not table.flags.writeable
        before = seq.ratio_matrix(3)
        got = seq.ratio_matrix(3)
        got[1, 0] = 0
        assert (seq.ratio_matrix(3) == before).all()
        assert seq.ratio_matrix(3)[1, 0] != 0


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

    @pytest.mark.parametrize("spec, backend", [
        (lag2(2.0), "float"), (COMPLEX_A, "float"),
        (EXACT_WEIGHTS["her3"], "exact"), (COMPLEX_A, "exact")],
        ids=["real_a", "complex_a", "exact", "exact_complex_a"])
    def test_table_matches_per_degree_loop(self, spec, backend):
        # the stacked solves and residuals against one degree at a time;
        # a residual is relative to ||x Q_n||_W already, so it is compared
        # absolutely.  A real A and G_n give a real node table.
        seq = MVOPSequence(spec, 8, backend=backend)
        real = spec is not COMPLEX_A
        assert np.isrealobj(seq.gram_data()[1][1]) == real
        assert np.isrealobj(seq.gram_data()[0]) == real
        for n in range(1, 8):
            got, want = seq.three_term_coefficients(n), three_term_loop(seq, n)
            for g, w in zip(got[:3], want[:3]):
                assert g.dtype == complex
                assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max()
            assert abs(got[3] - want[3]) <= 1e-14

    @pytest.mark.parametrize("spec, n_max, backend", [
        (lag2(2.0), 150, "float"), (COMPLEX_A, 70, "float"),
        (FAMILY_WEIGHTS["hermite"], 40, "float"),
        (FAMILY_WEIGHTS["jacobi"], 80, "float"),
        (EXACT_WEIGHTS["her3"], 8, "exact")],
        ids=["lag2", "complex_a", "hermite", "jacobi", "exact"])
    def test_stacked_pass_matches_three_solves(self, spec, n_max, backend):
        # one band matmul and one solve over the stacked neighbours give
        # the bits of one matmul and one solve per neighbour, across the
        # 64-degree blocks
        seq = MVOPSequence(spec, n_max, backend=backend)
        ns, norms = np.arange(1, n_max), np.array(seq._norm_table())
        for got, want in zip(seq._three_term_pass(ns, norms),
                             three_solve_pass(seq, ns, norms)):
            assert same_bits(got, want)

    def test_table_matches_loop_off_orthogonality(self):
        # G_3 (1 + 1e-6) leaves x Q_n off the span of its neighbours near
        # n = 3: residuals far above roundoff still agree to 1e-14
        seq = MVOPSequence(lag2(2.0), 8)
        set_ratio(seq, 3, lambda G: G * (1 + 1e-6))
        res = seq.three_term_table(7)[3]
        assert res[1:4].min() > 1e-8
        for n in range(1, 8):
            assert abs(res[n - 1] - three_term_loop(seq, n)[3]) <= 1e-14

    @pytest.mark.parametrize("bad, message", [
        ({4: 0.0}, "||Q_4||^2 is singular"),
        ({0: np.nan, 2: 0.0}, "||Q_2||^2 is singular"),
        ({0: np.nan, 5: 0.0}, "||Q_0||^2 is not finite")])
    def test_ill_conditioned_names_first_degree_read(self, bad, message):
        # degrees read their neighbours n + 1, n, n - 1 in turn; the error
        # names the first bad ||Q_m||^2 in that order
        seq = MVOPSequence(lag2(2.0), 8)
        table = seq._norm_table()
        seq._norm_table = lambda: tuple(v * bad[m] if m in bad else v
                                        for m, v in enumerate(table))
        with pytest.raises(IllConditioned, match=re.escape(message)):
            seq.three_term_table(7)

    def test_reads_only_the_norms_of_its_degrees(self):
        # a bad ||Q_6||^2 is read by degree 5 only: the table up to 4 and
        # degree 2 alone stay clear of it
        seq = MVOPSequence(lag2(2.0), 8)
        table = seq._norm_table()
        seq._norm_table = lambda: tuple(v * np.nan if m == 6 else v
                                        for m, v in enumerate(table))
        assert seq.three_term_coefficients(2)[3] < 1e-10
        assert seq.three_term_table(4)[3].max() < 1e-10
        with pytest.raises(IllConditioned, match=re.escape("||Q_6||^2")):
            seq.three_term_table(5)
        with pytest.raises(IllConditioned, match=re.escape("||Q_6||^2")):
            seq.three_term_coefficients(5)

    def test_table_is_built_once(self, monkeypatch):
        # reading degree after degree passes over each degree once, and
        # the table so read is bit for bit the one read in one call
        degrees = []
        three_term = MVOPSequence._three_term_pass

        def counted(seq, ns, norms):
            degrees.extend(ns.tolist())
            return three_term(seq, ns, norms)
        monkeypatch.setattr(MVOPSequence, "_three_term_pass", counted)
        seq = MVOPSequence(lag2(1.5), 40)
        rows = [seq.three_term_coefficients(n) for n in range(1, 40)]
        assert degrees == list(range(1, 40))    # n_max - 1 degrees
        want = MVOPSequence(lag2(1.5), 40).three_term_table(39)
        for got, w in zip(seq.three_term_table(39), want):
            assert got.shape == w.shape and got.tobytes() == w.tobytes()
        for n, row in enumerate(rows, 1):
            assert all(np.asarray(g).tobytes() == w[n - 1].tobytes()
                       for g, w in zip(row, want))

    def test_ascending_reads_name_the_singular_norm(self):
        # HLH at n_max 40: ||Q_15||^2 is singular in doubles, whichever
        # way the table is read
        HLH = weight_spec([1.5, -0.7], [sf.hermite(0.0), sf.laguerre(0.5),
                                        sf.hermite(0.0)])
        message = re.escape("||Q_15||^2 is singular")
        seq = MVOPSequence(HLH, 40)
        with pytest.raises(IllConditioned, match=message):
            for n in range(1, 40):
                seq.three_term_coefficients(n)
        assert n == 14
        with pytest.raises(IllConditioned, match=message):
            MVOPSequence(HLH, 40).three_term_table(39)

    def test_out_of_range(self):
        seq = MVOPSequence(lag2(), 4)
        with pytest.raises(OutOfRange):
            seq.three_term_coefficients(0)
        with pytest.raises(OutOfRange):
            seq.three_term_coefficients(4)
