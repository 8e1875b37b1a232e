"""Right-acting operators: algebra, conjugation, bispectral construction."""

import warnings

import numpy as np
import pytest
import sympy as sp

import mvop.scalar_families as sf
from mvop import diff_operators
from mvop.diff_operators import (EIGEN_BLOCK, MatrixDiffOperator,
                                 build_bispectral_operator, conjugate_by_T,
                                 eigencheck, entries_to_operator,
                                 identity_residual, op_apply, op_compose)
from mvop.darboux import hermite_A_factorization
from mvop.errors import ConditionFailed, DegreeCap, Unsupported
from mvop.matrix_poly import MatrixPolynomial
from mvop.mvop_core import MVOPSequence, peak
from mvop.weight_model import build_T, build_nilpotent, weight_spec
from oracles import (conjugate_loop, eigen_fixed_blocks, eigen_loop,
                     op_apply_loop, op_compose_loop)

#: the weights of every bispectral family: Laguerre, Hermite, Jacobi and
#: the mixed Hermite-Laguerre 2x2
FAMILY_WEIGHTS = {
    "laguerre": weight_spec([2.0], [sf.laguerre(0.0), sf.laguerre(0.5)]),
    "hermite": weight_spec([1.0, -0.7], [sf.hermite(0.2), sf.hermite(0.0),
                                         sf.hermite(0.2)]),
    "jacobi": weight_spec([1.0], [sf.jacobi(1.5, 1.5), sf.jacobi(0.5, 0.5)]),
    "hermite_laguerre": weight_spec([1.0], [sf.hermite(0.0),
                                            sf.laguerre(0.5)]),
}


def rand_op(rng, size=2, order=2, deg=2):
    return MatrixDiffOperator(
        [MatrixPolynomial([rng.standard_normal((size, size))
                           for _ in range(deg + 1)])
         for _ in range(order + 1)])


def rand_poly(rng, size=2, deg=3):
    return MatrixPolynomial([rng.standard_normal((size, size))
                             for _ in range(deg + 1)])


@pytest.fixture
def rng():
    return np.random.default_rng(17)


class TestOperatorAlgebra:
    def test_identity_op(self, rng):
        P = rand_poly(rng)
        assert ((P - op_apply(P, MatrixDiffOperator.identity(2)))
                .max_coeff_norm()) == 0

    def test_apply_is_right_linear(self, rng):
        P, Q = rand_poly(rng), rand_poly(rng)
        D = rand_op(rng)
        lhs = op_apply(P + Q, D)
        rhs = op_apply(P, D) + op_apply(Q, D)
        assert (lhs - rhs).max_coeff_norm() <= 1e-12 * lhs.max_coeff_norm()

    def test_compose_matches_sequential_apply(self, rng):
        # P . (D1 o D2) = (P . D1) . D2 for random data
        P = rand_poly(rng, deg=4)
        D1, D2 = rand_op(rng), rand_op(rng)
        lhs = op_apply(P, op_compose(D1, D2))
        rhs = op_apply(op_apply(P, D1), D2)
        assert (lhs - rhs).max_coeff_norm() <= 1e-11 * lhs.max_coeff_norm()

    def test_compose_associative(self, rng):
        D1, D2, D3 = (rand_op(rng, order=1) for _ in range(3))
        lhs = op_compose(op_compose(D1, D2), D3)
        rhs = op_compose(D1, op_compose(D2, D3))
        for j in range(max(lhs.order, rhs.order) + 1):
            d = lhs.coeff(j) - rhs.coeff(j)
            assert d.max_coeff_norm() <= 1e-11 * (lhs.coeff(j).max_coeff_norm()
                                                  or 1.0)

    @pytest.mark.parametrize("kind", ["float", "complex", "exact"])
    def test_compose_matches_polynomial_loop(self, kind, rng):
        # the stacked composition against MatrixPolynomial arithmetic one
        # term at a time: the same coefficients, bit for bit, or the same
        # sympy entries.  The T conjugation of a bispectral operator (real
        # a, complex a, exact) and random operators of unequal orders.
        a = {"float": [1.5, -0.7], "complex": [1.5 + 0.5j, -0.7],
             "exact": [1.5, -0.5]}[kind]
        spec = weight_spec(a, [sf.hermite(0.2), sf.hermite(0.0),
                               sf.hermite(0.2)])
        exact = kind == "exact"
        T, T_inv = build_T(spec, exact=exact)
        if exact:
            _, D, _, _ = hermite_A_factorization(
                weight_spec(a, [sf.hermite(0.0)] * 3), exact=True)
        else:
            D = build_bispectral_operator(spec)[0]
        pairs = [(MatrixDiffOperator.multiplication(T), D),
                 (D, MatrixDiffOperator.multiplication(T_inv)), (D, D)]
        if not exact:
            pairs += [(rand_op(rng, 3, 1, 3), rand_op(rng, 3, 2, 1)),
                      (rand_op(rng, 3, 2, 0), rand_op(rng, 3, 0, 2))]
        for D1, D2 in pairs:
            got, want = op_compose(D1, D2), op_compose_loop(D1, D2)
            assert got.exact == want.exact == exact
            assert got.order == want.order
            for g, w in zip(got.f_coeffs, want.f_coeffs):
                assert g.coeffs.shape == w.coeffs.shape
                if exact:
                    assert (g.coeffs == w.coeffs).all()
                else:
                    assert g.coeffs.dtype == w.coeffs.dtype == complex
                    assert np.array_equal(g.coeffs.view(float),
                                          w.coeffs.view(float))

    def test_multiplication_operator(self, rng):
        P = rand_poly(rng)
        M = rand_poly(rng, deg=1)
        got = op_apply(P, MatrixDiffOperator.multiplication(M))
        assert (got - P * M).max_coeff_norm() == 0

    def test_json_round_trip(self, rng):
        D = rand_op(rng)
        D2 = MatrixDiffOperator.from_json(D.to_json())
        for j in range(D.order + 1):
            assert (D.coeff(j) - D2.coeff(j)).max_coeff_norm() < 1e-14


class TestConjugation:
    def test_laguerre_2x2_display(self):
        # conjugated operator for 2x2 Laguerre(alpha), Laguerre(beta):
        # F2 = xI, F1 = [[alpha+1-x, ax(2+beta-alpha)], [0, beta+1-x]],
        # F0 = [[0, a(beta+1)], [0, 1]]
        alpha, beta, a = 0.3, 0.7, 1.3
        spec = weight_spec([a], [sf.laguerre(alpha), sf.laguerre(beta)])
        D, _ = build_bispectral_operator(spec)
        assert D.order == 2
        f2, f1, f0 = D.coeff(2), D.coeff(1), D.coeff(0)
        assert np.allclose(f2.coeff(0), 0, atol=1e-12)
        assert np.allclose(f2.coeff(1), np.eye(2), atol=1e-12)
        assert np.allclose(f1.coeff(0), [[alpha + 1, 0], [0, beta + 1]],
                           atol=1e-12)
        assert np.allclose(f1.coeff(1),
                           [[-1, a * (2 + beta - alpha)], [0, -1]],
                           atol=1e-12)
        assert np.allclose(f0.coeff(0), [[0, a * (beta + 1)], [0, 1]],
                           atol=1e-12)

    def test_hermite_2x2_display(self):
        # F2 = I, F1 = [[-2x+2b, 2ax(c-b)+2a], [0, -2x+2c]],
        # F0 = [[-2, 2ac], [0, 0]]
        b, c, a = 1.0, 0.0, 1.0
        spec = weight_spec([a], [sf.hermite(b), sf.hermite(c)])
        D, _ = build_bispectral_operator(spec)
        f2, f1, f0 = D.coeff(2), D.coeff(1), D.coeff(0)
        assert np.allclose(f2.coeff(0), np.eye(2), atol=1e-12)
        assert f2.degree == 0
        assert np.allclose(f1.coeff(0), [[2 * b, 2 * a], [0, 2 * c]],
                           atol=1e-12)
        assert np.allclose(f1.coeff(1),
                           [[-2, 2 * a * (c - b)], [0, -2]], atol=1e-12)
        assert np.allclose(f0.coeff(0), [[-2, 2 * a * c], [0, 0]], atol=1e-12)

    def test_mixed_2x2_display(self):
        # F2 = [[1, 2ax^2 - ax], [0, 2x]],
        # F1 = [[-2x, 2ax(alpha+3)], [0, 2(alpha+1-x)]],
        # F0 = [[-2, 2a(alpha+1)], [0, 0]]
        alpha, a = 0.5, 1.0
        spec = weight_spec([a], [sf.hermite(0.0), sf.laguerre(alpha)])
        D, _ = build_bispectral_operator(spec)
        f2, f1, f0 = D.coeff(2), D.coeff(1), D.coeff(0)
        assert np.allclose(f2.coeff(0), [[1, 0], [0, 0]], atol=1e-12)
        assert np.allclose(f2.coeff(1), [[0, -a], [0, 2]], atol=1e-12)
        assert np.allclose(f2.coeff(2), [[0, 2 * a], [0, 0]], atol=1e-12)
        assert np.allclose(f1.coeff(0), [[0, 0], [0, 2 * (alpha + 1)]],
                           atol=1e-12)
        assert np.allclose(f1.coeff(1),
                           [[-2, 2 * a * (alpha + 3)], [0, -2]], atol=1e-12)
        assert np.allclose(f0.coeff(0),
                           [[-2, 2 * a * (alpha + 1)], [0, 0]], atol=1e-12)

    def test_conjugation_preserves_action(self, rng):
        spec = weight_spec([1.5], [sf.laguerre(0.0), sf.laguerre(1.0)])
        from mvop.weight_model import build_T
        T, T_inv = build_T(spec)
        D = rand_op(rng, order=1, deg=1)
        C = conjugate_by_T(D, spec)
        P = rand_poly(rng, deg=3)
        lhs = op_apply(P, C)
        rhs = op_apply(P * T, D) * T_inv
        assert (lhs - rhs).max_coeff_norm() <= 1e-11 * lhs.max_coeff_norm()


class TestStackKernel:
    """op_apply on a stack of coefficient arrays against the
    per-coefficient loops of ``oracles.op_apply_loop``."""

    @pytest.mark.parametrize("name", sorted(FAMILY_WEIGHTS))
    def test_stack_matches_loop_float(self, name):
        spec = FAMILY_WEIGHTS[name]
        seq = MVOPSequence(spec, 12)
        D, _ = build_bispectral_operator(spec)
        got = op_apply(seq.q_block(0, 13), D)
        eps = np.finfo(float).eps
        for n in range(13):
            want = op_apply_loop(seq.build_Q(n), D)
            top = want.max_coeff_norm()
            for k in range(got.shape[1]):
                assert np.max(np.abs(got[n, k] - want.coeff(k))) <= \
                    16 * eps * top, (n, k)

    @pytest.mark.parametrize("name", sorted(FAMILY_WEIGHTS))
    def test_real_stack_matches_complex(self, name):
        # a real stack and an operator without imaginary parts take the
        # real kernel, which gives the numbers of the complex one
        spec = FAMILY_WEIGHTS[name]
        Q = MVOPSequence(spec, 20).q_block(0, 21)
        D, _ = build_bispectral_operator(spec)
        got, want = op_apply(Q, D), op_apply(Q.astype(complex), D)
        assert got.dtype == float and want.dtype == complex
        assert not want.imag.any()
        top = np.abs(want).max(axis=(1, 2, 3), keepdims=True)
        assert np.all(np.abs(got - want.real) <= 4 * np.finfo(float).eps
                      * top)

    def test_stack_matches_loop_exact(self):
        # exact Q_n against an operator with rational coefficients
        spec = weight_spec([1.0], [sf.hermite(0.0), sf.hermite(0.0)])
        seq = MVOPSequence(spec, 5, backend="exact")
        rng = np.random.default_rng(3)

        def rational_poly(deg):
            return MatrixPolynomial(
                [np.array([[sp.Rational(int(v), 7) for v in row]
                           for row in rng.integers(-9, 10, (2, 2))],
                          dtype=object) for _ in range(deg + 1)])
        D = MatrixDiffOperator([rational_poly(d) for d in (0, 1, 2)])
        Qs = [seq.build_Q(n) for n in range(5)]
        stack = np.zeros((5, 5, 2, 2), dtype=object)
        for n, Q in enumerate(Qs):
            stack[n, :n + 1] = Q.coeffs
        got = op_apply(stack, D)
        assert got.dtype == object
        for n, Q in enumerate(Qs):
            want = op_apply_loop(Q, D)
            assert op_apply(Q, D).exact
            for k in range(got.shape[1]):
                diff = got[n, k] - want.coeff(k)
                assert all(sp.expand(v) == 0 for v in diff.flat), (n, k)


class TestExactness:
    """An operator is exact when its coefficients are: nothing is passed
    along beside them, so nothing can disagree with them."""

    @staticmethod
    def operator():
        third = sp.Rational(1, 3)
        P = MatrixPolynomial([
            np.array([[third, 0], [0, 1]], dtype=object),
            np.array([[0, third], [0, 0]], dtype=object)])
        return MatrixDiffOperator([P, P])

    def test_compose_keeps_rationals(self):
        D = self.operator()
        assert D.exact
        DD = op_compose(D, D)
        assert DD.exact
        assert DD.coeff(0).coeffs[0][0, 0] == sp.Rational(1, 9)

    def test_sum_with_float_zero_keeps_rationals(self):
        S = MatrixDiffOperator.zero(2) + self.operator()
        assert S.exact
        assert S.coeff(0).coeffs[0][0, 0] == sp.Rational(1, 3)

    def test_conjugation_follows_operator(self):
        spec = weight_spec([0.5], [sf.hermite(0.0), sf.hermite(0.0)])
        C = conjugate_by_T(self.operator(), spec)
        assert C.exact and all(f.exact for f in C.f_coeffs)


#: Hermite(0) and Laguerre(0.5) slots in orders no single family covers
H, L = sf.hermite(0.0), sf.laguerre(0.5)
MIXED_ORDERS = {
    "LH": weight_spec([1.5], [L, H]),
    "HLH": weight_spec([1.5, -0.7], [H, L, H]),
    "LHL": weight_spec([1.5, -0.7], [L, H, L]),
    "LHHL": weight_spec([1.5, -0.7, 1.2], [L, H, H, L]),
    "LLHHL": weight_spec([1.5, -0.7, 1.2, 0.9], [L, L, H, H, L]),
    "HLHLH": weight_spec([1.5, -0.7, 1.2, 0.9], [H, L, H, L, H]),
    "HHLLHL": weight_spec([0.889, 0.851, 1.993, 1.205, 1.755],
                          [H, H, L, L, H, L]),
}


def conjugated(spec, monkeypatch):
    """The D of ``build_bispectral_operator`` and the diagonal D_tilde it
    conjugated by T."""
    seen = []

    def spy(D_tilde, s):
        seen.append(D_tilde)
        return conjugate_by_T(D_tilde, s)
    monkeypatch.setattr(diff_operators, "conjugate_by_T", spy)
    D, _ = build_bispectral_operator(spec)
    return D, seen[0]


def assert_same_bits(got, want):
    assert got.order == want.order
    for g, w in zip(got.f_coeffs, want.f_coeffs):
        assert g.coeffs.dtype == w.coeffs.dtype == complex
        assert g.coeffs.shape == w.coeffs.shape
        assert np.array_equal(g.coeffs.view(float), w.coeffs.view(float))


class TestClosedFormConjugation:
    """F_i = (T F~_i + (i + 1) A F~_{i+1}) T^{-1} against the two
    compositions with the multiplication operators for T and T^{-1}."""

    @pytest.mark.parametrize("spec", [
        *FAMILY_WEIGHTS.values(), *MIXED_ORDERS.values(),
        weight_spec([1 + 0.5j], [sf.laguerre(0.0), sf.laguerre(0.5)]),
        weight_spec([1.5 - 0.5j, 0.7j], [sf.hermite(0.2), sf.hermite(0.0),
                                         sf.hermite(0.2)])],
        ids=[*FAMILY_WEIGHTS, *MIXED_ORDERS, "complex_a_2", "complex_a_3"])
    def test_bispectral_operator_bit_identical(self, spec, monkeypatch):
        # every MIXED_ORDERS weight passes the matching walk
        # (``test_mixed_orders``), so each one is compared
        D, D_tilde = conjugated(spec, monkeypatch)
        assert D_tilde.order == D.order == 2
        assert_same_bits(D, conjugate_loop(D_tilde, spec))

    @pytest.mark.parametrize("a", [[1.5, -0.5], [1.5 + 0.5j, -0.5]],
                             ids=["real_a", "complex_a"])
    def test_exact_operator_stays_exact(self, a):
        spec = weight_spec(a, [sf.hermite(0.0)] * 3)
        _, D_herm, _, _ = hermite_A_factorization(
            weight_spec([1.5, -0.5], [sf.hermite(0.0)] * 3), exact=True)
        third = sp.Rational(1, 3)
        P = MatrixPolynomial([np.array([[third, 0, 1], [0, 1, 0],
                                        [2, 0, -third]], dtype=object),
                              np.array([[0, third, 0], [0, 0, 1],
                                        [0, 0, 0]], dtype=object)])
        for D_tilde in (D_herm, MatrixDiffOperator([P, P * 2, P])):
            got, want = (conjugate_by_T(D_tilde, spec),
                         conjugate_loop(D_tilde, spec))
            assert got.exact and want.exact
            assert got.order == want.order
            for g, w in zip(got.f_coeffs, want.f_coeffs):
                assert g.coeffs.shape == w.coeffs.shape
                assert (g.coeffs == w.coeffs).all()

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_random_operators(self, order, rng):
        for a in ([1.5, -0.7], [1.5 + 0.5j, -0.7j]):
            spec = weight_spec(a, [sf.hermite(0.0)] * 3)
            for deg in (0, 1, 3):
                D_tilde = rand_op(rng, 3, order, deg)
                got = conjugate_by_T(D_tilde, spec)
                want = conjugate_loop(D_tilde, spec)
                assert got.order == want.order
                for g, w in zip(got.f_coeffs, want.f_coeffs):
                    assert g.coeffs.shape == w.coeffs.shape
                    assert np.abs(g.coeffs - w.coeffs).max() <= \
                        1e-15 * np.abs(w.coeffs).max()


#: the five operator-sweep templates: the 5x5 Laguerre chain, a 4x4
#: Hermite(0), a 3x3 Jacobi weight meeting the matching condition, the
#: Hermite-Laguerre 2x2 and the reducible 2x2 Jacobi weight
OPERATOR_TEMPLATES = {
    "lag5_chain": weight_spec([1.5, -0.7, 1.2, 0.9],
                              [sf.laguerre(0.5 + d) for d in (0, 0, 1, 1, 2)]),
    "her4": weight_spec([1.5, -0.7, 1.2], [sf.hermite(0.0)] * 4),
    "jac3_matching": weight_spec([1.5, -0.7], [sf.jacobi(1.0, 2.0),
                                               sf.jacobi(0.5, 0.5),
                                               sf.jacobi(2.0, 1.0)]),
    "her_lag2": weight_spec([1.5], [sf.hermite(0.2), sf.laguerre(0.5)]),
    "jac2_reducible": weight_spec([1.5], [sf.jacobi(1.5, 1.5, scale=2.25),
                                          sf.jacobi(0.5, 0.5)]),
}


class TestEigenBlocks:
    """``eigencheck`` on packed chunks of at most EIGEN_BLOCK (n_max + 3)
    rows, with Lambda_n read once, against the padded fixed blocks of
    ``eigen_fixed_blocks`` bit for bit."""

    @pytest.mark.parametrize("n_max", [80, 150])
    @pytest.mark.parametrize("name", list(OPERATOR_TEMPLATES))
    def test_residuals_equal_fixed_blocks(self, name, n_max):
        spec = OPERATOR_TEMPLATES[name]
        seq = MVOPSequence(spec, n_max)
        D, lam = build_bispectral_operator(spec)
        if name == "her_lag2" and n_max == 150:
            # the mixed 2x2 leaves the float range at Q_116 (ROADMAP item
            # 3): both raise it, whichever block holds that degree
            for check in (eigencheck, eigen_fixed_blocks):
                with pytest.raises(DegreeCap, match="of Q_116 are past"):
                    check(seq, D, lam, n_max)
            return
        rep = eigencheck(seq, D, lam, n_max)
        assert rep["residuals"] == eigen_fixed_blocks(seq, D, lam, n_max)
        assert rep["max_scaled_residual"] < 1e-13

    @pytest.mark.parametrize("spec,n_max,backend", [
        (weight_spec([1 + 0.5j], [sf.laguerre(0.0), sf.laguerre(0.5)]), 80,
         "float"),
        (weight_spec([1.0, -0.5], [sf.hermite(0.0)] * 3), 150, "float"),
        (FAMILY_WEIGHTS["jacobi"], 300, "float"),
        (weight_spec([1.0, -0.5], [sf.hermite(0.0)] * 3), 7, "exact"),
        (weight_spec([1.5, -0.5], [sf.laguerre(0.0), sf.laguerre(0.5),
                                   sf.laguerre(0.0)]), 7, "exact")],
        ids=["complex_a", "her3-150", "jac2-300", "her3-exact",
             "lag3-exact"])
    def test_bits_equal_fixed_blocks(self, spec, n_max, backend,
                                     monkeypatch):
        chunks = []
        q_packed = MVOPSequence.q_packed

        def spy(seq, lo, hi):
            chunks.append((lo, hi))
            return q_packed(seq, lo, hi)
        monkeypatch.setattr(MVOPSequence, "q_packed", spy)
        seq = MVOPSequence(spec, n_max, backend=backend)
        D, lam = build_bispectral_operator(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = eigencheck(seq, D, lam, n_max)
        want = eigen_fixed_blocks(seq, D, lam, n_max)
        assert np.array(rep["residuals"]).tobytes() == \
            np.array(want).tobytes()
        assert rep["max_scaled_residual"] < 1e-13
        # several chunks from n_max 80 on (3 at 80, 5 at 150, 10 at 300)
        assert len(chunks) >= (3 if n_max >= 80 else 1)

    @pytest.mark.parametrize("n_max", [0, 1, 2, 16, 80, 150])
    def test_blocks_cover_degrees_within_budget(self, n_max, monkeypatch):
        chunks = []
        q_packed = MVOPSequence.q_packed

        def spy(seq, lo, hi):
            chunks.append((lo, hi))
            return q_packed(seq, lo, hi)
        monkeypatch.setattr(MVOPSequence, "q_packed", spy)
        spec = FAMILY_WEIGHTS["jacobi"]
        D, lam = build_bispectral_operator(spec)
        eigencheck(MVOPSequence(spec, n_max), D, lam, n_max)
        budget = EIGEN_BLOCK * (n_max + 3)

        def rows(lo, hi):   # n + 3 packed rows per degree n
            return sum(n + 3 for n in range(lo, hi))
        assert [lo for lo, _ in chunks] == [0] + [hi for _, hi in chunks[:-1]]
        assert chunks[-1][1] == n_max + 1
        assert all(lo < hi and rows(lo, hi) <= budget for lo, hi in chunks)
        # each chunk but the last is full: one more degree would not fit
        assert all(rows(lo, hi + 1) > budget for lo, hi in chunks[:-1])
        if n_max == 80:
            assert len(chunks) == 3

    def test_operator_raising_degrees_refused(self):
        # a packed Q_n has two zero powers above x^n: an F_j of degree
        # j + 3 would spill into the next degree's rows
        spec = FAMILY_WEIGHTS["jacobi"]
        D, lam = build_bispectral_operator(spec)
        x3 = MatrixPolynomial([np.zeros((2, 2))] * 3 + [np.eye(2)])
        with pytest.raises(Unsupported, match="at most 2"):
            eigencheck(MVOPSequence(spec, 5), D + MatrixDiffOperator([x3]),
                       lam, 5)

    def test_lam_called_once(self):
        spec = FAMILY_WEIGHTS["hermite"]
        D, lam = build_bispectral_operator(spec)
        calls = []

        def counted(n):
            calls.append(np.asarray(n).tolist())
            return lam(n)
        eigencheck(MVOPSequence(spec, 80), D, counted, 80)
        assert calls == [list(range(81))]


class TestBispectral:
    def test_condition_violation(self):
        # Jacobi parameters breaking the matching condition, and a Jacobi
        # slot next to a Hermite or Laguerre one: no scale on slot 2
        # matches the eigenvalues of slot 1
        for slots in ([sf.jacobi(0.5, 2.5), sf.jacobi(1.5, 1.5)],
                      [sf.hermite(0.0), sf.jacobi(0.5, 0.5)],
                      [sf.laguerre(0.5), sf.jacobi(1.5, 1.5)]):
            with pytest.raises(ConditionFailed, match="slots 1,2"):
                build_bispectral_operator(weight_spec([1.0], slots))

    def test_custom_unsupported(self):
        spec = weight_spec([1.0], [sf.custom([2, 0, 2 / 3, 0, 2 / 5, 0],
                                             (-1, 1)),
                                   sf.jacobi(0.0, 0.0)])
        with pytest.raises(Unsupported):
            build_bispectral_operator(spec)

    @pytest.mark.parametrize("name", list(MIXED_ORDERS))
    def test_mixed_orders(self, name):
        # every Hermite/Laguerre order gets an operator from the matching walk
        spec = MIXED_ORDERS[name]
        D, lam = build_bispectral_operator(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = eigencheck(MVOPSequence(spec, 41), D, lam, 40)
        assert rep["max_scaled_residual"] < 1e-13, rep["worst_n"]
        A = build_nilpotent(spec)
        for n in range(16):
            assert np.allclose(A @ lam(n + 1), lam(n) @ A, atol=1e-9)

    @pytest.mark.parametrize("spec", [
        *FAMILY_WEIGHTS.values(), MIXED_ORDERS["HLH"],
        weight_spec([1 + 0.5j], [sf.laguerre(0.0), sf.laguerre(0.5)])],
        ids=[*FAMILY_WEIGHTS, "HLH", "complex_a"])
    def test_matches_full_width_complex_loop(self, spec):
        # real, trimmed blocks and row scaling by the diagonal Lambda_n
        # against full-width complex blocks and a matmul by Lambda_n
        seq = MVOPSequence(spec, 41)
        D, lam = build_bispectral_operator(spec)
        assert seq.q_block(0, 1).dtype == (complex if seq.A.imag.any()
                                           else float)
        rep = eigencheck(seq, D, lam, 40)
        want = np.array(eigen_loop(seq, D, lam, 40))
        assert rep["worst_n"] == peak(want)[1]
        assert np.all(np.abs(np.array(rep["residuals"]) - want)
                      <= 4 * np.finfo(float).eps * want)

    @pytest.mark.parametrize("spec,lam0,lam1", [
        (weight_spec([2.0], [sf.laguerre(0.0), sf.laguerre(0.5)]),
         [0, 1], [-1, 0]),
        (weight_spec([1.0], [sf.hermite(1.0), sf.hermite(0.0)]),
         [-2, 0], [-4, -2]),
        (weight_spec([1.0], [sf.jacobi(1.5, 1.5), sf.jacobi(0.5, 0.5)]),
         [0, 3], [-5, 0]),
        (weight_spec([1.0], [sf.hermite(0.0), sf.laguerre(0.5)]),
         [-2, 0], [-4, -2]),
    ])
    def test_eigenvalues_and_residuals(self, spec, lam0, lam1):
        seq = MVOPSequence(spec, 13)
        D, lam = build_bispectral_operator(spec)
        assert np.allclose(np.diag(lam(0)).real, lam0)
        assert np.allclose(np.diag(lam(1)).real, lam1)
        rep = eigencheck(seq, D, lam, 12)
        assert rep["max_scaled_residual"] < 1e-11

    def test_eigenvalue_commutation(self):
        # the matching condition in matrix form: A Lambda_{n+1} = Lambda_n A
        specs = [
            weight_spec([1.0, 2.0], [sf.laguerre(0.5)] * 2
                        + [sf.laguerre(1.5)]),
            weight_spec([1.0], [sf.hermite(1.0), sf.hermite(0.0)]),
            weight_spec([1.0], [sf.jacobi(1.5, 1.5), sf.jacobi(0.5, 0.5)]),
            weight_spec([1.0], [sf.hermite(0.0), sf.laguerre(0.5)]),
        ]
        for spec in specs:
            A = build_nilpotent(spec)
            _, lam = build_bispectral_operator(spec)
            for n in range(16):
                assert np.allclose(A @ lam(n + 1), lam(n) @ A, atol=1e-9)

    def test_five_by_five_chain(self):
        spec = weight_spec([1.0] * 4,
                           [sf.laguerre(0.5), sf.laguerre(0.5),
                            sf.laguerre(1.5), sf.laguerre(1.5),
                            sf.laguerre(2.5)])
        seq = MVOPSequence(spec, 11)
        D, lam = build_bispectral_operator(spec)
        rep = eigencheck(seq, D, lam, 10)
        assert rep["max_scaled_residual"] < 1e-11
        assert np.allclose(np.diag(lam(2)).real, [-2, -1, -2, -1, -2])


class TestIdentityResidual:
    # D = d . x/2 - 1/2 maps x to x/2 - x/2 = 0: the terms that cancel are
    # O(1) while both sides of x . D = want are at most 1e-10
    D = entries_to_operator({(0, 0): ([-0.5], [0.0, 0.5]),
                             (1, 1): ([-0.5], [0.0, 0.5])}, 2)

    def test_cancelling_terms_set_the_scale(self):
        P = np.zeros((1, 2, 2, 2))
        P[0, 1] = np.diag([1.0, 1e6])       # row 1 a million times larger
        want = np.zeros((1, 2, 2, 2))
        want[0, 1, 0, 0] = 1e-10
        res = identity_residual(P, self.D, want)
        assert res.shape == (1,)
        # row 0 reads 1e-10 / (1 + 1e-10); a scale over the whole matrix
        # (1e6) or over the two sides alone (1e-10) would read 1e-16 or 1
        assert res[0] == pytest.approx(1e-10, rel=1e-9)
        assert identity_residual(P, self.D, want,
                                 lhs=op_apply(P, self.D)).tobytes() == \
            res.tobytes()

    def test_stacks_and_widths(self):
        # one residual per polynomial of the stack, whatever the widths of
        # P . D and want; an exact identity reads 0
        P = np.zeros((3, 4, 2, 2))
        for n in range(3):
            P[n, n + 1] = np.eye(2)                      # x^(n+1) I
        lhs = op_apply(P, self.D)
        want = lhs[:, :3].copy()
        want[1, 2, 1, 1] += 1e-8
        res = identity_residual(P, self.D, want)
        assert res[0] == 0.0 and res[2] > 0.1           # x^3 . D misses
        # x^2 . D = 2x (x/2) - x^2/2 against terms x^2 + x^2/2 + |want|
        assert res[1] == pytest.approx(1e-8 / (2 + 1e-8), rel=1e-9)
