"""Scalar weight recurrences, norms, quadrature and differential operators."""

import math
import sys
import threading

import numpy as np
import pytest
import sympy as sp

import mvop.scalar_families as sf
from mvop.diff_operators import apply_scalar, entries_to_operator
from mvop.errors import IllConditioned, InvalidParam, OutOfRange, Unsupported

from oracles import (classical_exact, hermite_moments, jacobi_moments,
                     laguerre_moments, one_rule, recurrence_from_moments,
                     rule_loop, monic_from_recurrence)


class TestSpecs:
    def test_factories(self):
        assert sf.hermite(1.0).b == 1.0
        assert sf.laguerre(0.5).support == (0.0, math.inf)
        assert sf.jacobi(0.5, -0.5).support == (-1.0, 1.0)

    def test_invalid_params(self):
        with pytest.raises(InvalidParam):
            sf.laguerre(-1.0)
        with pytest.raises(InvalidParam):
            sf.jacobi(0.0, -1.5)
        with pytest.raises(InvalidParam):
            sf.hermite(0.0, scale=-1.0)

    def test_weight_value(self):
        assert sf.weight_value(sf.hermite(0.0), 0.0) == 1.0
        assert sf.weight_value(sf.laguerre(0.0), -1.0) == 0.0   # off support
        assert sf.weight_value(sf.jacobi(0.0, 0.0), 0.5) == 1.0
        # scale multiplies the density
        assert sf.weight_value(sf.laguerre(0.0, scale=4.0), 1.0) == \
            pytest.approx(4.0 * math.exp(-1.0))


class TestClassicalRecurrences:
    def test_laguerre0_frozen(self):
        seq = sf.recurrence_coefficients(sf.laguerre(0.0), 5)
        assert seq.b_coeffs[:3] == pytest.approx([1.0, 3.0, 5.0])
        assert seq.c_coeffs[:2] == pytest.approx([1.0, 4.0])
        assert seq.polynomial(2) == pytest.approx([2.0, -4.0, 1.0])

    def test_hermite0_frozen(self):
        seq = sf.recurrence_coefficients(sf.hermite(0.0), 5)
        assert seq.b_coeffs[:3] == pytest.approx([0.0, 0.0, 0.0])
        assert seq.c_coeffs[:2] == pytest.approx([0.5, 1.0])
        assert seq.polynomial(2) == pytest.approx([-0.5, 0.0, 1.0])

    def test_legendre_frozen(self):
        seq = sf.recurrence_coefficients(sf.jacobi(0.0, 0.0), 5)
        assert seq.c_coeffs[:2] == pytest.approx([1 / 3, 4 / 15])

    def test_jacobi_b0_zero_sum(self):
        # alpha + beta = 0 but alpha != beta must not collapse b_0 to zero
        seq = sf.recurrence_coefficients(sf.jacobi(0.5, -0.5), 3)
        assert seq.b_coeffs[0] == pytest.approx(-0.5)

    @pytest.mark.parametrize("spec,moments", [
        (sf.hermite(1.0), hermite_moments(1, 12)),
        (sf.laguerre(0.5), laguerre_moments(sp.Rational(1, 2), 12)),
        (sf.jacobi(0.5, -0.5), jacobi_moments(sp.Rational(1, 2),
                                              sp.Rational(-1, 2), 12)),
        (sf.jacobi(1.5, 1.5), jacobi_moments(sp.Rational(3, 2),
                                             sp.Rational(3, 2), 12)),
    ])
    def test_against_moment_oracle(self, spec, moments):
        bs, cs = recurrence_from_moments(moments)
        seq = sf.recurrence_coefficients(spec, len(bs) - 1)
        for k, b in enumerate(bs):
            assert seq.b_coeffs[k] == pytest.approx(float(b), abs=1e-12)
        for k, c in enumerate(cs):
            assert seq.c_coeffs[k] == pytest.approx(float(c), rel=1e-12)

    def test_exact_backend_matches_oracle(self):
        bs, cs = recurrence_from_moments(
            jacobi_moments(sp.Rational(1, 2), sp.Rational(1, 2), 10))
        seq = sf.recurrence_coefficients(sf.jacobi(0.5, 0.5), 4, "exact")
        for k in range(4):
            assert sp.simplify(seq.b_coeffs[k] - bs[k]) == 0
        for k in range(3):
            assert sp.simplify(seq.c_coeffs[k] - cs[k]) == 0

    def test_polynomial_out_of_range(self):
        seq = sf.recurrence_coefficients(sf.hermite(0.0), 3)
        with pytest.raises(OutOfRange):
            seq.polynomial(4)


class TestNorms:
    def test_hermite_norm_closed_form(self):
        # ||h_n||^2 = sqrt(pi) e^{b^2} n! 2^{-n}
        seq = sf.recurrence_coefficients(sf.hermite(1.0), 8)
        for n in range(9):
            want = math.sqrt(math.pi) * math.e * math.factorial(n) / 2 ** n
            assert seq.log_norms[n] == pytest.approx(math.log(want),
                                                     abs=1e-12)

    def test_laguerre_norm_closed_form(self):
        # ||l_n||^2 = n! Gamma(n + alpha + 1)
        seq = sf.recurrence_coefficients(sf.laguerre(0.5), 8)
        for n in range(9):
            want = math.lgamma(n + 1) + math.lgamma(n + 1.5)
            assert seq.log_norms[n] == pytest.approx(want, abs=1e-12)

    def test_exact_norms(self):
        seq = sf.recurrence_coefficients(sf.hermite(0.0), 3, "exact")
        assert sp.simplify(seq.exact_norms[2] - sp.sqrt(sp.pi) / 2) == 0

    @pytest.mark.parametrize("spec", [
        sf.hermite(0.5), sf.laguerre(1 / 3), sf.laguerre(0.5),
        sf.jacobi(4 / 3, 1 / 3), sf.jacobi(1.5, 0.5),
        sf.hermite(-0.75, scale=2.25), sf.jacobi(-0.5, 0.25),
        sf.jacobi(-0.5, -0.5), sf.jacobi(-0.25, -0.75)],
        ids=["hermite_half", "laguerre_third", "laguerre_half",
             "jacobi_4_3_1_3", "jacobi_3_2_1_2", "hermite_scaled",
             "jacobi_negative", "chebyshev_first", "jacobi_sum_minus_one"])
    def test_exact_integers_match_sympy_formulas(self, spec):
        # the integer recurrence gives the same sympy Rationals as the
        # closed forms in sympy arithmetic, and the same log norms bit for
        # bit (113-bit sums rounded to the nearest double)
        seq = sf.recurrence_coefficients(spec, 40, "exact")
        b, c, norms, logs = classical_exact(spec, 40)
        assert seq.b_coeffs == b and seq.c_coeffs == c
        assert seq.norm_rationals == norms
        assert all(isinstance(v, sp.Rational)
                   for v in seq.b_coeffs + seq.c_coeffs + seq.norm_rationals)
        assert [v.hex() for v in seq.log_norms] == [v.hex() for v in logs]

    def test_scale_multiplies_norms_only(self):
        plain = sf.recurrence_coefficients(sf.laguerre(1.0), 4)
        scaled = sf.recurrence_coefficients(sf.laguerre(1.0, scale=9.0), 4)
        assert scaled.b_coeffs == pytest.approx(plain.b_coeffs)
        assert scaled.c_coeffs == pytest.approx(plain.c_coeffs)
        for n in range(5):
            assert scaled.log_norms[n] - plain.log_norms[n] == \
                pytest.approx(math.log(9.0), abs=1e-12)


class TestCustomMoments:
    def test_legendre_via_moments(self):
        moms = [2.0 / (k + 1) if k % 2 == 0 else 0.0 for k in range(12)]
        seq = sf.recurrence_coefficients(sf.custom(moms, (-1, 1)), 4)
        assert seq.b_coeffs[:3] == pytest.approx([0.0, 0.0, 0.0], abs=1e-13)
        assert seq.c_coeffs[:2] == pytest.approx([1 / 3, 4 / 15])

    def test_breakdown_raises(self):
        with pytest.raises(IllConditioned):
            sf.recurrence_coefficients(
                sf.custom([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], (-1, 1)), 2)

    def test_degree_cap(self):
        moms = [2.0 / (k + 1) if k % 2 == 0 else 0.0 for k in range(60)]
        with pytest.raises(InvalidParam):
            sf.recurrence_coefficients(sf.custom(moms, (-1, 1)), 25)

    def test_exact_backend_unsupported(self):
        moms = [2.0 / (k + 1) if k % 2 == 0 else 0.0 for k in range(8)]
        with pytest.raises(Unsupported):
            sf.recurrence_coefficients(sf.custom(moms, (-1, 1)), 2, "exact")


class TestGaussRules:
    def test_hermite_one_point(self):
        nodes, weights = one_rule(sf.hermite(0.0), 1)
        assert nodes == pytest.approx([0.0], abs=1e-14)
        assert weights == pytest.approx([math.sqrt(math.pi)])

    def test_exactness_against_oracle_moments(self):
        # an m-point rule integrates x^k exactly for k <= 2m - 1
        cases = [
            (sf.hermite(1.0), hermite_moments(1, 11),
             math.sqrt(math.pi) * math.e),
            (sf.laguerre(0.5), laguerre_moments(sp.Rational(1, 2), 11),
             math.gamma(1.5)),
            (sf.jacobi(0.5, -0.5), jacobi_moments(sp.Rational(1, 2),
                                                  sp.Rational(-1, 2), 11),
             float(2 * sp.beta(sp.Rational(3, 2), sp.Rational(1, 2)))),
        ]
        for spec, moms, m0 in cases:
            nodes, weights = one_rule(spec, 6)
            for k in range(12):
                got = float(np.sum(weights * nodes ** k))
                want = m0 * float(moms[k])
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_scaled_rule(self):
        _, w1 = one_rule(sf.laguerre(0.0), 3)
        _, w2 = one_rule(sf.laguerre(0.0, scale=5.0), 3)
        assert w2 == pytest.approx(5.0 * w1)

    @pytest.mark.parametrize("spec", [sf.hermite(0.4), sf.laguerre(1.5),
                                      sf.jacobi(0.5, -0.5)])
    def test_weights_finite_up_to_node_cap(self, spec):
        # NODE_CAP = 512; Laguerre tail weights there are far below the
        # float range and must come out as 0, not NaN
        m0 = math.exp(sf.recurrence_coefficients(spec, 0).log_norms[0])
        for m in (1, 2, 7, 40, 90, 200, 512):
            nodes, weights = one_rule(spec, m)
            assert np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))
            assert np.all(weights >= 0)
            assert np.all(np.diff(nodes) > 0)
            assert np.sum(weights) == pytest.approx(m0, rel=1e-12)

    @pytest.mark.parametrize("spec", [sf.jacobi(0.5, -0.5),
                                      sf.jacobi(1.3, 0.2),
                                      sf.jacobi(0.0, 0.0, scale=2.0)])
    def test_jacobi_matches_eigenvector_weights(self, spec):
        # on a bounded support the Golub-Welsch eigenvector weights are
        # accurate, so the Christoffel weights must reproduce them
        for m in range(1, 21):
            seq = sf.recurrence_coefficients(spec, m)
            off = np.sqrt(np.asarray(seq.c_coeffs[:m - 1], dtype=float))
            J = (np.diag(np.asarray(seq.b_coeffs[:m], dtype=float))
                 + np.diag(off, 1) + np.diag(off, -1))
            want_nodes, vecs = np.linalg.eigh(J)
            want = math.exp(seq.log_norms[0]) * vecs[0] ** 2
            nodes, weights = one_rule(spec, m)
            assert np.allclose(nodes, want_nodes, rtol=0, atol=1e-14)
            assert np.allclose(weights, want, rtol=1e-13, atol=0)


    @pytest.mark.parametrize("m", [23, 302, 512])
    def test_one_pass_rules_match_single(self, m):
        # one pass over several recurrences gives each weight the nodes,
        # weights and scaled values of its own rule, bit for bit
        specs = [sf.laguerre(0.0), sf.hermite(0.3), sf.jacobi(0.5, 1.5)]
        seqs = [sf.recurrence_coefficients(s, m - 1) for s in specs]
        nodes, weights, vals, log_scale = sf.gauss_rule(seqs, m)
        assert nodes.shape == weights.shape == log_scale.shape == (3, m)
        assert vals.shape == (m, 3, m)
        for k, seq in enumerate(seqs):
            want = rule_loop(seq, m)
            for got, w in zip((nodes[k], weights[k], vals[:, k],
                               log_scale[k]), want):
                assert got.shape == w.shape
                got = np.ascontiguousarray(got)
                assert np.array_equal(got.view(np.uint64), w.view(np.uint64))


class TestPolynomialTable:
    def test_exact_rows_match_gram_schmidt(self):
        # the integer table of three sequences run together against the
        # monic polynomials of exact Gram-Schmidt on their moments; each
        # row is reduced over one positive denominator
        cases = [(sf.hermite(0.5), hermite_moments(0.5, 24)),
                 (sf.laguerre(1.5), laguerre_moments(1.5, 24)),
                 (sf.jacobi(0.5, 1.5), jacobi_moments(0.5, 1.5, 24))]
        seqs = [sf.recurrence_coefficients(spec, 12, "exact")
                for spec, _ in cases]
        num, den = sf.power_table(seqs, 12)
        assert num.shape == (14, 14, 3) and den.shape == (14, 3)
        assert not num[0].any()
        for k, (_, moments) in enumerate(cases):
            bs, cs = recurrence_from_moments(moments)
            for n in range(13):
                row, d = num[n + 1, :, k].tolist(), den[n + 1, k]
                assert all(type(v) is int for v in (*row, d))
                assert d > 0 and math.gcd(*row, d) == 1
                assert not any(row[n + 1:])
                want = monic_from_recurrence(bs, cs, n)
                assert [sp.Rational(v, d) for v in row[:n + 1]] == want
                assert seqs[k].polynomial(n) == want

    def test_shared_sequence_under_thread_contention(self):
        # 8 threads read one sequence at once with a tiny switch interval;
        # ``polynomial`` builds its power table on first read and publishes
        # it in one assignment, so a thread that races the build may build
        # it again but never reads a table that is not whole
        spec = sf.laguerre(0.5)
        want = [sf.recurrence_coefficients(spec, 30).polynomial(n)
                for n in range(31)]
        rng = np.random.default_rng(17)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        bad = []
        try:
            for trial in range(200):
                seq = sf.recurrence_coefficients(spec, 30)
                start = threading.Barrier(8)
                orders = [rng.permutation(31) for _ in range(8)]
                errors = []

                def work(order):
                    start.wait(timeout=10)
                    try:
                        for n in order:
                            if seq.polynomial(int(n)) != want[n]:
                                errors.append((trial, int(n)))
                    except Exception as exc:    # reported below, not lost
                        errors.append((trial, repr(exc)))

                threads = [threading.Thread(target=work, args=(o,))
                           for o in orders]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                bad.extend(errors)
        finally:
            sys.setswitchinterval(old)
        assert not bad, bad[:5]


class TestScalarDiffOperators:
    @pytest.mark.parametrize("spec,eig", [
        (sf.hermite(0.7), lambda n: -2 * n),
        (sf.laguerre(0.5), lambda n: -n),
        (sf.jacobi(0.5, 1.5), lambda n: -n * (n + 3)),
    ])
    def test_eigenfunction_identity(self, spec, eig):
        fs, ev = sf.scalar_diff_operator(spec)
        # the eigenvalue as plain float coefficients, ascending in n
        assert isinstance(ev, np.ndarray)
        assert ev.dtype == np.float64 and ev.shape == (3,)
        op = entries_to_operator({(0, 0): fs}, 1)
        seq = sf.recurrence_coefficients(spec, 9)
        for n in range(9):
            p = np.array(seq.polynomial(n))
            got = np.array(apply_scalar(op, p))
            want = p * eig(n)
            assert ev @ [1, n, n * n] == pytest.approx(eig(n))
            diff = np.zeros(max(len(got), len(want)), dtype=complex)
            diff[:len(got)] += got
            diff[:len(want)] -= want
            assert np.abs(diff).max() <= 1e-10 * max(np.abs(p).max(), 1.0)

    def test_custom_unsupported(self):
        with pytest.raises(Unsupported):
            sf.scalar_diff_operator(sf.custom([1.0, 0.0, 0.5], (-1, 1)))
