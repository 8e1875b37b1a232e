"""Ladder operators, shift synthesis, and Darboux-type factorizations."""

import sys

import numpy as np
import pytest
import sympy as sp

import mvop.cli as cli
import mvop.darboux as darboux
import mvop.diff_operators as diff_operators
import mvop.scalar_families as sf
from mvop.cli import RunConfig, config_from_json, run
from mvop.darboux import (LADDER_KINDS, DarbouxReport, LadderOperator,
                          apply_scalar, builtin_n5_laguerre, darboux_verify,
                          hermite_A_factorization, ladder, synthesize_shift)
from mvop.diff_operators import MatrixDiffOperator, op_apply, op_compose
from mvop.errors import CapExceeded, InvalidParam, MvopError, Unsupported
from mvop.matrix_poly import MatrixPolynomial
from mvop.mvop_core import MVOPSequence
from mvop.weight_model import build_T, weight_spec
from oracles import darboux_loop, p_product, shift_by_hand


def laguerre_seq(alpha, n_max):
    return sf.recurrence_coefficients(sf.laguerre(alpha), n_max)


def scalar_close(p, q, tol=1e-10):
    p, q = np.asarray(p, dtype=complex), np.asarray(q, dtype=complex)
    d = np.zeros(max(len(p), len(q)), dtype=complex)
    d[:len(p)] += p
    d[:len(q)] -= q
    scale = max(np.abs(p).max(), np.abs(q).max(), 1.0)
    return np.abs(d).max() <= tol * scale


class TestLadders:
    @pytest.mark.parametrize("kind,dn,da", [
        ("alpha_up", 0, 1), ("alpha_down", 0, -1),
        ("n_up", 1, 0), ("n_down", -1, 1), ("eigen", 0, 0),
    ])
    def test_shift_identity(self, kind, dn, da):
        alpha = 0.5
        L = ladder(kind, alpha)
        assert L.delta == (dn, da)
        src = laguerre_seq(alpha, 10)
        dst = laguerre_seq(alpha + da, 10)
        for n in range(9):
            if n + dn < 0:
                continue
            img = L.apply(src.polynomial(n))
            want = np.multiply(dst.polynomial(n + dn), L.factor(n))
            assert scalar_close(img, want)

    def test_factor_values(self):
        assert ladder("alpha_down", 0.5).factor(3) == pytest.approx(3.5)
        assert ladder("n_down", 0.5).factor(4) == pytest.approx(4.0)
        assert ladder("eigen", 0.5).factor(4) == pytest.approx(-4.0)

    def test_invalid_kind(self):
        with pytest.raises(InvalidParam):
            ladder("sideways", 0.5)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidParam):
            ladder("n_up", -1.5)
        with pytest.raises(InvalidParam):
            ladder("alpha_down", -0.5)   # would land at alpha = -1.5


class TestShiftSynthesis:
    @pytest.mark.parametrize("k,m", [(1, 1), (2, 0), (0, 2), (-1, -1),
                                     (-2, 1), (1, -2)])
    def test_synthesized_identity(self, k, m):
        alpha = 1.5
        tau, q = synthesize_shift(alpha, k, m)
        src = laguerre_seq(alpha, 12)
        dst = laguerre_seq(alpha + k, 12)
        for n in range(1, 9):
            if n + m < 0:
                continue
            img = apply_scalar(tau, src.polynomial(n))
            want = np.multiply(dst.polynomial(n + m), q(n))
            assert scalar_close(img, want)

    def test_rational_prefactor(self):
        # r1(n)/r2(n) = n / (n + 1)
        alpha = 0.5
        tau, q = synthesize_shift(alpha, 1, 0, r1=(0, 1), r2=(1, 1))
        src = laguerre_seq(alpha, 10)
        dst = laguerre_seq(alpha + 1, 10)
        for n in range(1, 8):
            img = apply_scalar(tau, src.polynomial(n))
            want = np.multiply(dst.polynomial(n), q(n) * n / (n + 1))
            assert scalar_close(img, want)

    @pytest.mark.parametrize("r2,root", [((0, 1), 0), ((-3, 1), 3)])
    def test_r2_root_in_checked_range(self, r2, root):
        # r2 vanishes at a checked degree: q(n) r1(n)/r2(n) = prod f_i(n)
        # there, and nothing is divided by r2
        alpha = 0.5
        tau, q = synthesize_shift(alpha, 1, 0, r2=r2)
        assert q(root) == 0.0
        src = laguerre_seq(alpha, 10)
        dst = laguerre_seq(alpha + 1, 10)
        for n in range(9):
            img = apply_scalar(tau, src.polynomial(n))
            assert scalar_close(img, dst.polynomial(n))

    @pytest.mark.parametrize("k", [-2, -1, 2, 3])
    def test_r1_root_in_checked_range(self, k):
        # r1(n) = 2 - n/2 vanishes at n = 4, where the image is what is
        # left of terms that cancel: the check measures it against those
        # terms, not against max(|image|, 1), and accepts tau
        tau, q = synthesize_shift(1.7, k, 3, r1=(2, -0.5), r2=(-3, 1))
        src = laguerre_seq(1.7, 14)
        dst = laguerre_seq(1.7 + k, 14)
        img = [apply_scalar(tau, src.polynomial(n)) for n in range(9)]
        for n in set(range(9)) - {3, 4}:   # the roots of r2 and r1
            want = q(n) * (2 - n / 2) / (n - 3)
            assert scalar_close(img[n], np.multiply(dst.polynomial(n + 3),
                                                    want))
        assert np.abs(img[4]).max() < 1e-9 * np.abs(img[5]).max()

    @pytest.mark.parametrize("r1,r2", [((), (1,)), ((1,), ())])
    def test_empty_prefactor_rejected(self, r1, r2):
        with pytest.raises(InvalidParam):
            synthesize_shift(0.5, 1, 0, r1=r1, r2=r2)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            synthesize_shift(0.5, 4, 3)

    def test_invalid_target(self):
        with pytest.raises(InvalidParam):
            synthesize_shift(0.5, -2, 0)   # alpha + k = -1.5

    @pytest.mark.parametrize("r1,r2", [((1,), (1,)), ((0, 1), (1, 1)),
                                       ((2.0, 0.5), (-3, 1))])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.7, 3.0])
    def test_walk_matches_hand_steps(self, alpha, r1, r2):
        # the walk over the ladder table gives the operator bytes and the
        # factors of the hand-written steps, and raises where they raise
        def outcome(build, k, m):
            try:
                tau, q = build(alpha, k, m, r1, r2)
            except MvopError as exc:
                return type(exc), str(exc)
            return ([tau.coeff(j).coeffs.tobytes()
                     for j in range(tau.order + 1)],
                    np.array([q(n) for n in range(12)]).tobytes())

        raised = 0
        for k in range(-3, 4):
            for m in range(-3, 4):
                got = outcome(synthesize_shift, k, m)
                assert got == outcome(shift_by_hand, k, m), (k, m)
                raised += isinstance(got[0], type)
        assert raised == 7 * sum(alpha + k <= -1 for k in range(-3, 4))


class TestVerifiersRejectWrongOperator:
    @pytest.fixture
    def perturbed_n_up(self, monkeypatch):
        # the x coefficient of f_2 in n_up, off by a relative 1e-6
        forms = darboux._ladder_forms

        def wrong(alpha):
            out = forms(alpha)
            fs, factor, delta = out["n_up"]
            out["n_up"] = ((fs[0], fs[1], [fs[2][0], fs[2][1] * (1 + 1e-6)]),
                           factor, delta)
            return out

        monkeypatch.setattr(darboux, "_ladder_forms", wrong)

    def test_ladder(self, perturbed_n_up):
        with pytest.raises(InvalidParam, match="failed its shift identity"):
            ladder("n_up", 0.5)

    @pytest.mark.parametrize("kind", LADDER_KINDS)
    def test_ladder_factor(self, monkeypatch, kind):
        # a factor off by a relative 1e-6 reads 5e-7 against the terms
        # that cancel, far above the 1e-9 gate
        forms = darboux._ladder_forms

        def wrong(alpha):
            out = forms(alpha)
            fs, factor, delta = out[kind]
            out[kind] = (fs, lambda n: factor(n) * (1 + 1e-6), delta)
            return out
        monkeypatch.setattr(darboux, "_ladder_forms", wrong)
        with pytest.raises(InvalidParam, match="failed its shift identity"):
            ladder(kind, 0.5)

    def test_shift_synthesis(self, perturbed_n_up):
        with pytest.raises(InvalidParam, match=r"shift synthesis .* failed"):
            synthesize_shift(0.5, 0, 2)

    def test_five_by_five_chain(self, perturbed_n_up):
        # the chain's D1_tilde takes its n_up entries from the ladder table
        cfg = config_from_json({
            "size": 5, "a": [1.0, -0.5, 2.0, 0.75], "n_max": 8,
            "weights": [{"family": "laguerre", "alpha": a}
                        for a in (0.5, 0.5, 1.5, 1.5, 2.5)],
            "checks": ["darboux"]})
        rep = run(cfg)["checks"]["darboux"]
        assert rep["kind"] == "laguerre_n5_chain"
        assert not rep["passed"] and rep["max_relative_residual"] > 1e-8


class TestBuiltinFiveByFive:
    def test_p_d1_tilde_equals_qt(self):
        alpha = 0.5
        spec, d1_tilde, _ = builtin_n5_laguerre(alpha)
        seq = MVOPSequence(spec, 12)
        for n in range(11):
            P = MatrixPolynomial(
                [np.diag([seq.scalar_seqs[k].polynomial(n)[j]
                          if j <= n else 0.0 for k in range(5)]).astype(complex)
                 for j in range(n + 1)], size=5)
            L = op_apply(P, d1_tilde)
            QT = seq.build_QT(n).to_float()
            scale = max(L.max_coeff_norm(), QT.max_coeff_norm())
            assert (L - QT).max_coeff_norm() <= 1e-10 * scale

    def test_product_has_diagonal_eigenfunctions(self):
        # the factored product maps each P_n to Gamma_n P_n with constant
        # Gamma_n solved from leading coefficients
        spec, _, D = builtin_n5_laguerre(0.5)
        seq = MVOPSequence(spec, 9)
        for n in range(8):
            P = MatrixPolynomial(
                [np.diag([seq.scalar_seqs[k].polynomial(n)[j]
                          for k in range(5)]).astype(complex)
                 for j in range(n + 1)], size=5)
            L = op_apply(P, D)
            G = np.linalg.solve(P.coeffs[P.degree].T, L.coeff(n).T).T
            scale = max(L.max_coeff_norm(), 1.0)
            assert (L - P.left_mul(G)).max_coeff_norm() <= 1e-10 * scale

    @pytest.mark.parametrize("alpha, a", [
        (0.5, (1.0, 1.0, 1.0, 1.0)), (1.5, (1.0, -0.5, 2.0, 0.75)),
        (0.0, (1 + 0.5j, -0.5 + 0.2j, 1.5, 0.75 - 0.3j))])
    def test_product_is_one_composition(self, alpha, a):
        # D is D1_tilde (2I - D1_tilde) composed once, bit for bit, and
        # still the product of the factors D1_tilde T^{-1} and
        # T (2I - D1_tilde)
        spec, d1_tilde, D = builtin_n5_laguerre(alpha, a)
        two_minus = MatrixDiffOperator.identity(5) * 2.0 - d1_tilde
        want = op_compose(d1_tilde, two_minus)
        assert D.order == want.order == 4
        for f, g in zip(D.f_coeffs, want.f_coeffs):
            assert f.coeffs.shape == g.coeffs.shape
            assert f.coeffs.tobytes() == g.coeffs.tobytes()
        T, T_inv = build_T(spec)
        factored = op_compose(
            op_compose(d1_tilde, MatrixDiffOperator.multiplication(T_inv)),
            op_compose(MatrixDiffOperator.multiplication(T), two_minus))
        for j in range(D.order + 1):
            diff = (factored.coeff(j) - D.coeff(j)).coeffs
            assert np.abs(diff).max(initial=0.0) <= \
                1e-15 * np.abs(D.coeff(j).coeffs).max()

    @pytest.mark.parametrize("backend, n_max, worst, worst_n", [
        ("float", 12, 1.3510435318365184e-15, 10), ("exact", 6, 0.0, None)])
    def test_chain_check_composes_nothing(self, backend, n_max, worst,
                                          worst_n, monkeypatch):
        # the darboux check of the chain reads D1_tilde straight from the
        # entry table; its report is the one it gave when D1_tilde came out
        # of the whole builder, D included
        def refuse(*args):
            raise AssertionError("op_compose called")
        monkeypatch.setattr(darboux, "op_compose", refuse)
        monkeypatch.setattr(diff_operators, "op_compose", refuse)
        alphas = (0.5, 0.5, 1.5, 1.5, 2.5)
        res = run(config_from_json({
            "size": 5, "a": [1.0, -0.5, 2.0, 0.75], "n_max": n_max,
            "weights": [{"family": "laguerre", "alpha": al} for al in alphas],
            "checks": ["darboux"], "backend": backend}))["checks"]["darboux"]
        res.pop("wall_time_s", None)
        assert res == {"passed": True, "kind": "laguerre_n5_chain",
                       "max_relative_residual": worst, "worst_n": worst_n,
                       "non_finite": False, "max_degree": min(n_max, 10)}
        spec, d1_tilde = darboux.n5_laguerre_d1_tilde(0.5)
        assert spec.N == 5 and d1_tilde.order == 2

    @staticmethod
    def chain_residual(alpha, a, n_hi):
        # max over n <= n_hi of |P_n . D1_tilde - Q_n T| / max |Q_n T|
        spec, d1_tilde = darboux.n5_laguerre_d1_tilde(alpha, a)
        seq = MVOPSequence(spec, n_hi)
        lhs = op_apply(seq.p_block(0, n_hi + 1), d1_tilde)
        rhs = seq.qt_block(0, n_hi + 1)
        lhs[:, :rhs.shape[1]] -= rhs
        return np.max(np.abs(lhs).max(axis=(1, 2, 3))
                      / np.abs(rhs).max(axis=(1, 2, 3)))

    def test_complex_a(self):
        # a complex a_i enters the four entries that carry G_n conjugated
        # (with a_i there as well the chain misses by 0.11)
        a = (1 + 0.5j, -0.5 + 0.2j, 1.5, 0.75 - 0.3j)
        assert self.chain_residual(0.5, a, 8) < 1e-14

    def test_complex_a_through_run(self):
        # the chain is the weight its builder makes, complex a included
        alphas = (0.5, 0.5, 1.5, 1.5, 2.5)
        spec = weight_spec([1 + 0.5j, -0.5, 1.5, 0.75],
                           [sf.laguerre(al) for al in alphas])
        for backend in ("float", "exact"):
            res = run(RunConfig(spec=spec, backend=backend, n_max=8,
                                checks=("darboux",)))["checks"]["darboux"]
            assert res["kind"] == "laguerre_n5_chain" and res["passed"], res
            assert res["max_relative_residual"] < 1e-14

    def test_invalid_params(self):
        for build in (builtin_n5_laguerre, darboux.n5_laguerre_d1_tilde):
            with pytest.raises(InvalidParam):
                build(-2.0)
            with pytest.raises(InvalidParam):
                build(0.5, a=(1.0, 0.0, 1.0, 1.0))


class TestHermiteA:
    def spec(self, n=2, a=(1.0,)):
        return weight_spec(list(a), [sf.hermite(0.0)] * n)

    def test_exact_factorization(self):
        spec = self.spec()
        D, D1, D2, D_swapped = hermite_A_factorization(spec, exact=True)
        P = op_compose(D1, D2)
        S = op_compose(D2, D1)
        for j in range(3):
            for target, got in ((D, P), (D_swapped, S)):
                diff = got.coeff(j) - target.coeff(j)
                for c in diff.coeffs:
                    assert all(sp.simplify(v) == 0 for v in np.ravel(c))

    def test_d1_connection(self):
        spec = self.spec()
        _, D1, _, _ = hermite_A_factorization(spec)
        seq = MVOPSequence(spec, 11)
        rep = darboux_verify(seq.p_block(0, 11), D1, seq, 10, tol=1e-10)
        assert rep.passed
        assert rep.worst_residual < 1e-10

    def test_four_by_four(self):
        spec = self.spec(4, (1.0, 0.5, 2.0))
        _, D1, _, _ = hermite_A_factorization(spec)
        seq = MVOPSequence(spec, 9)
        rep = darboux_verify(seq.p_block(0, 9), D1, seq, 8, tol=1e-9)
        assert rep.passed

    def test_unsupported(self):
        with pytest.raises(Unsupported):
            hermite_A_factorization(
                weight_spec([1.0], [sf.hermite(1.0), sf.hermite(0.0)]))
        with pytest.raises(Unsupported):
            hermite_A_factorization(
                weight_spec([1.0], [sf.laguerre(0.5)] * 2))


class TestDarbouxVerify:
    def test_zero_operator_fails(self):
        spec = weight_spec([1.0], [sf.hermite(0.0)] * 2)
        seq = MVOPSequence(spec, 5)
        Z = MatrixDiffOperator.zero(2)
        P = np.zeros((5, 5, 2, 2), dtype=complex)
        P[range(5), range(5)] = np.eye(2)           # P_n = x^n I
        rep = darboux_verify(P, Z, seq, 4)
        assert not rep.passed
        assert rep.singular_ns == list(range(5))

    def test_report_json(self):
        spec = weight_spec([1.0], [sf.hermite(0.0)] * 2)
        _, D1, _, _ = hermite_A_factorization(spec)
        seq = MVOPSequence(spec, 5)
        rep = darboux_verify(seq.p_block(0, 5), D1, seq, 4)
        js = rep.to_json()
        assert js["passed"] is True
        assert js["n_max"] == 4
        assert len(js["dets"]) == 5
        assert js["non_finite"] is False
        # no degree peaks when every residual is 0 (see ``peak``)
        assert (js["worst_n"] is None) == (js["worst_residual"] == 0)

    @staticmethod
    def assert_matches_loop(D1, seq, n_max):
        # one op_apply and one batched solve against the per-degree loop
        rep = darboux_verify(seq.p_block(0, n_max + 1), D1, seq, n_max)
        loop = darboux_loop(lambda n: p_product(seq, n), D1, seq, n_max)
        assert rep.passed and loop.passed
        assert abs(rep.worst_residual - loop.worst_residual) <= 1e-15
        assert not (rep.non_finite or loop.non_finite)
        assert rep.singular_ns == loop.singular_ns
        assert np.allclose(rep.dets, loop.dets, rtol=1e-12, atol=0)
        assert np.allclose(rep.connection, loop.connection, rtol=1e-12,
                           atol=1e-300)

    @pytest.mark.parametrize("n_max", [10, 80])
    @pytest.mark.parametrize("a", [(1.0,), (1.0, -0.5), (1.0, 0.5, 2.0)],
                             ids=["her2", "her3", "her4"])
    def test_stacked_matches_loop(self, a, n_max):
        spec = weight_spec(list(a), [sf.hermite(0.0)] * (len(a) + 1))
        _, D1, _, _ = hermite_A_factorization(spec)
        self.assert_matches_loop(D1, MVOPSequence(spec, n_max), n_max)

    @pytest.mark.parametrize("a", [(1.0, -0.5), (1.0, 0.5, 2.0),
                                   (1.0, -0.5, 2.0, 0.75)],
                             ids=["her3", "her4", "her5"])
    def test_perturbed_d1_fails(self, a):
        # every nonzero coefficient of D1, off by a relative 1e-6, reads at
        # least 5e-8 against the terms that cancel (1.4e-16 unperturbed)
        spec = weight_spec(list(a), [sf.hermite(0.0)] * (len(a) + 1))
        _, D1, _, _ = hermite_A_factorization(spec)
        seq = MVOPSequence(spec, 10)
        P = seq.p_block(0, 11)
        assert darboux_verify(P, D1, seq, 10).passed
        count = 0
        for j, f in enumerate(D1.f_coeffs):
            for idx in zip(*np.nonzero(f.coeffs)):
                fs = [g.coeffs.copy() for g in D1.f_coeffs]
                fs[j][idx] *= 1 + 1e-6
                wrong = MatrixDiffOperator([MatrixPolynomial(c) for c in fs])
                rep = darboux_verify(P, wrong, seq, 10, tol=1e-9)
                assert not rep.passed, (j, idx, rep.worst_residual)
                count += 1
        assert count >= 8

    def test_stacked_matches_loop_chain(self):
        # D1_tilde T^{-1} maps P_n to Q_n on the 5x5 chain, so A_n = I
        spec, d1_tilde, _ = builtin_n5_laguerre(0.5, (1.0, -0.5, 2.0, 0.75))
        D1 = op_compose(d1_tilde,
                        MatrixDiffOperator.multiplication(build_T(spec)[1]))
        self.assert_matches_loop(D1, MVOPSequence(spec, 60), 60)


class TestOneResidual:
    def test_every_site_reads_identity_residual(self, monkeypatch):
        # ladders, shift synthesis, the Hermite factorization and the 5x5
        # chain all measure their identity through one helper
        callers = []
        real = diff_operators.identity_residual

        def spy(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(*args, **kwargs)
        monkeypatch.setattr(darboux, "identity_residual", spy)
        monkeypatch.setattr(cli, "identity_residual", spy)
        ladder("n_up", 0.5)
        synthesize_shift(0.5, 1, 1)
        assert callers == ["_verify", "_verify"]
        chain = run(config_from_json({
            "size": 5, "a": [1.0, -0.5, 2.0, 0.75], "n_max": 6,
            "weights": [{"family": "laguerre", "alpha": al}
                        for al in (0.5, 0.5, 1.5, 1.5, 2.5)],
            "checks": ["darboux"]}))["checks"]["darboux"]
        assert chain["passed"] and callers[2:] == ["_check_darboux"]
        her = run(config_from_json({
            "size": 3, "a": [1.0, -0.5], "n_max": 6,
            "weights": [{"family": "hermite"}] * 3,
            "checks": ["darboux"]}))["checks"]["darboux"]
        assert her["passed"] and callers[3:] == ["darboux_verify"]
