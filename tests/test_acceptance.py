"""Acceptance gate: the eight headline guarantees of the package.

Each test prints one PASS/FAIL line for its criterion (written straight to
the terminal so it shows even under pytest capture).
"""

import math
import time

import numpy as np
import pytest
import sympy as sp

import mvop.scalar_families as sf
from mvop.darboux import (builtin_n5_laguerre, darboux_verify,
                          hermite_A_factorization)
from mvop.diff_operators import build_bispectral_operator, eigencheck, op_apply, op_compose
from mvop.irreducibility import (order_zero_symmetries, try_reduce_2x2,
                                 try_reduce_3x3_w1w3)
from mvop.matrix_poly import MatrixPolynomial
from mvop.mvop_core import MVOPSequence, continuant
from mvop.weight_model import weight_eval, weight_spec
from oracles import one_rule, p_product, tridiagonal_from_rho


def family_specs():
    return {
        "laguerre": weight_spec([2.0], [sf.laguerre(0.0), sf.laguerre(0.5)]),
        "hermite": weight_spec([1.0], [sf.hermite(1.0), sf.hermite(0.0)]),
        "gegenbauer": weight_spec([1.0], [sf.jacobi(1.5, 1.5),
                                          sf.jacobi(0.5, 0.5)]),
        "mixed": weight_spec([1.0], [sf.hermite(0.0), sf.laguerre(0.5)]),
        "laguerre5": weight_spec([1.0] * 4,
                                 [sf.laguerre(0.5), sf.laguerre(0.5),
                                  sf.laguerre(1.5), sf.laguerre(1.5),
                                  sf.laguerre(2.5)]),
    }


_SEQS = {}


def seq_for(name):
    if name not in _SEQS:
        _SEQS[name] = MVOPSequence(family_specs()[name], 17)
    return _SEQS[name]


def report(num, title, ok, detail):
    line = f"criterion {num} ({title}): {'PASS' if ok else 'FAIL'} [{detail}]"
    from conftest import CRITERION_LINES
    CRITERION_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def test_criterion_1_orthogonality():
    t0 = time.perf_counter()
    worst = 0.0
    for name in family_specs():
        rep = seq_for(name).verify_orthogonality(15, 1e-9)
        worst = max(worst, rep["max_scaled_residual"])
    dt = time.perf_counter() - t0
    report(1, "orthogonality", worst < 1e-9 and dt < 30.0,
           f"max residual {worst:.2e}, {dt:.1f} s")


def test_criterion_2_norm_identity():
    worst = 0.0
    for name in family_specs():
        seq = seq_for(name)
        for n in range(16):
            gram = seq.gram_qt(n, n)
            closed = seq.squared_norm_Q(n)
            worst = max(worst, np.linalg.norm(gram - closed)
                        / np.linalg.norm(gram))
    report(2, "norm identity", worst < 1e-9, f"max rel error {worst:.2e}")


def test_criterion_3_leading_determinant():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        N = int(rng.integers(2, 9))
        rho = rng.uniform(0.0, 10.0, N - 1)
        rho[rho == 0.0] = 10.0   # rho_i in (0, 10]
        det = np.linalg.det(tridiagonal_from_rho(rho, rng))
        worst = max(worst, abs(continuant(rho) - det) / abs(det))
    exact3 = continuant([sp.Integer(1), sp.Integer(1)])
    report(3, "leading determinant",
           worst < 1e-10 and exact3 == sp.Integer(3),
           f"max rel error {worst:.2e}, exact N=3 value {exact3}")


def test_criterion_4_bispectrality():
    expected = {
        "laguerre": lambda n: [-n, -n + 1],
        "hermite": lambda n: [-2 * n - 2, -2 * n],
        "gegenbauer": lambda n: [-n * (n + 4), -(n - 1) * (n + 3)],
        "mixed": lambda n: [-2 * n - 2, -2 * n],
        "laguerre5": lambda n: [-n, -n + 1, -n, -n + 1, -n],
    }
    worst = 0.0
    for name, lam_want in expected.items():
        seq = seq_for(name)
        D, lam = build_bispectral_operator(seq.weight)
        for n in range(16):
            assert np.allclose(np.diag(lam(n)).real, lam_want(n), atol=1e-12)
        worst = max(worst, eigencheck(seq, D, lam, 15)["max_scaled_residual"])
    report(4, "bispectrality", worst < 1e-9, f"max residual {worst:.2e}")


def _laguerre_abc(n, alpha, beta, a):
    g = math.gamma(n + beta + 1) / math.gamma(n + alpha)
    den = g * a * a * (n + 1) * (n + beta + 1) + alpha + n
    d2 = g * a * a * n + 1
    A = [[1, a * (n + alpha) * (beta - alpha + 2) / den],
         [0, (a * a * g * (n + alpha) * n + alpha + n) / den]]
    B = [[(g * a * a * (n + 1) * (2 * n + beta + 3) * (n + beta + 1)
           + (2 * n + alpha + 1) * (n + alpha)) / den,
          a * (1 + beta + n * (beta - alpha + 2)) / d2],
         [g * a * (1 + beta + n * (beta - alpha + 2)) / den,
          (g * a * a * n * (2 * n + alpha - 1) + beta + 2 * n + 1) / d2]]
    C = [[n * (g * a * a * (n + 1) * (n + beta + 1) + alpha + n) / d2, 0],
         [g * a * n * (beta - alpha + 2) / d2, n * (n + beta)]]
    return A, B, C


def _hermite_abc(n, b, c, a):
    E = math.exp(c * c - b * b)
    d1 = E * a * a * (n + 1) + 2
    d2 = E * a * a * n + 2
    A = [[1, -2 * a * b / d1], [0, d2 / d1]]
    B = [[2 * b / d1, a / d2],
         [E * a / d1, (E * a * a * n * b + 2 * c) / d2]]
    C = [[n * d1 / (2 * d2), 0], [a * E * n * (c - b) / d2, n / 2]]
    return A, B, C


def _gegenbauer_abc(n, r, a):
    a2 = a * a
    A = [[1, 0],
         [0, (n + 2 * r + 2) * (n * a2 + n + 2 * r + 1)
          / ((n + 2 * r + 1) * (n * a2 + a2 + n + 2 * r + 2))]]
    den = (n * a2 + n + 2 * r + 1) * (2 * n + 2 * r + 3) * (2 * n + 2 * r + 1)
    B = [[0, a * (2 * r + 1) * (n + 2 * r + 1) / den],
         [(2 * r + 1) * a
          / ((n + 2 * r + 1) * (n * a2 + a2 + n + 2 * r + 2)), 0]]
    C = [[n * (n + 2 * r + 1) * (n * a2 + a2 + n + 2 * r + 2) / den, 0],
         [0, (n + 2 * r) * n
          / ((2 * n + 2 * r + 1) * (2 * n + 2 * r - 1))]]
    return A, B, C


def _mixed_abc(n, alpha, a):
    M = n * 2 ** (n - 1) * math.gamma(n + alpha + 1) / math.sqrt(math.pi)
    den = 2 * M * a * a * (n + 1) * (alpha + n + 1) + n
    d2 = M * a * a + 1
    A = [[1, a * n * (2 * n + 3 + alpha) / den],
         [0, n * d2 / den]]
    B = [[2 * M * a * a * (n + 1) * (2 * n + 3 + alpha) * (alpha + n + 1)
          / den,
          (2 * alpha * n + 2 * n * n + 2 * alpha + 3 * n + 2) * a / (2 * d2)],
         [(2 * alpha * n + 2 * n * n + 2 * alpha + 3 * n + 2) * M * a / den,
          (2 * n + alpha + 1) / d2]]
    C = [[(2 * M * a * a * (n + 1) * (alpha + n + 1) + n)
          / (2 * M * a * a + 2), 0],
         [M * a * (2 * n + alpha + 1) / d2, alpha * n + n * n]]
    return A, B, C


def test_criterion_5_three_term_closed_forms():
    cases = [
        ("laguerre", lambda n: _laguerre_abc(n, 0.0, 0.5, 2.0)),
        ("hermite", lambda n: _hermite_abc(n, 1.0, 0.0, 1.0)),
        ("gegenbauer", lambda n: _gegenbauer_abc(n, 0.5, 1.0)),
        ("mixed", lambda n: _mixed_abc(n, 0.5, 1.0)),
    ]
    worst = 0.0
    for name, closed in cases:
        seq = seq_for(name)
        for n in range(1, 9):
            got = seq.three_term_coefficients(n)[:3]
            for G, Wnt in zip(got, closed(n)):
                W = np.asarray(Wnt, dtype=float)
                # zero entries are compared at 1e-3 of the matrix scale
                scale = np.maximum(np.abs(W), 1e-3 * np.max(np.abs(W)))
                worst = max(worst, float(np.max(np.abs(G.real - W) / scale)))
                worst = max(worst, float(np.max(np.abs(G.imag))))
    report(5, "three-term closed forms", worst < 1e-8,
           f"max entrywise rel error {worst:.2e}")


def test_criterion_6_darboux_identities():
    # 5x5 builtin: P_n . D1_tilde = Q_n T for n <= 10
    spec, d1_tilde, _ = builtin_n5_laguerre(0.5)
    seq = MVOPSequence(spec, 12)
    worst5 = 0.0
    for n in range(11):
        lhs = op_apply(p_product(seq, n), d1_tilde)
        rhs = seq.build_QT(n).to_float()
        worst5 = max(worst5, (lhs - rhs).max_coeff_norm()
                     / rhs.max_coeff_norm())

    # Hermite-A: exact factorization identities
    hspec = weight_spec([1.0, 0.5], [sf.hermite(0.0)] * 3)
    D, D1, D2, Dsw = hermite_A_factorization(hspec, exact=True)
    exact_ok = True
    for target, got in ((D, op_compose(D1, D2)), (Dsw, op_compose(D2, D1))):
        for j in range(max(target.order, got.order) + 1):
            diff = got.coeff(j) - target.coeff(j)
            exact_ok &= all(sp.simplify(v) == 0
                            for c in diff.coeffs for v in np.ravel(c))

    # h_n . D1 = Q_n (up to the connection coefficient) for n <= 10
    _, D1f, _, _ = hermite_A_factorization(hspec)
    hseq = MVOPSequence(hspec, 12)
    rep = darboux_verify(hseq.p_block(0, 11), D1f, hseq, 10, tol=1e-10)
    report(6, "Darboux identities",
           worst5 < 1e-10 and exact_ok and rep.passed,
           f"5x5 residual {worst5:.2e}, exact factorization {exact_ok}, "
           f"connection residual {rep.worst_residual:.2e}")


def test_criterion_7_irreducibility():
    a = 1.5
    jac = weight_spec([a], [sf.jacobi(1.0, 1.5, scale=a * a),
                            sf.jacobi(0.0, 0.5)])
    out = try_reduce_2x2(jac)
    red_ok = out is not None
    if red_ok:
        b, c, M, _ = out
        want_M = np.array([[1 / (a * (b - c)), -b / (b - c)], [1, -a * c]])
        red_ok &= bool(np.allclose(M, want_M, atol=1e-8))
        for x in np.linspace(-0.95, 0.95, 20):
            D = M @ weight_eval(jac, x) @ M.conj().T
            red_ok &= bool(np.max(np.abs(D - np.diag(np.diag(D)))) < 1e-10)

    dims_ok = (order_zero_symmetries(
        weight_spec([1.0], [sf.hermite(1.0), sf.hermite(0.0)])).dimension == 1)
    dims_ok &= (order_zero_symmetries(
        weight_spec([1.0], [sf.laguerre(0.5), sf.laguerre(1.0)])).dimension
        == 1)

    spec3 = weight_spec([1.0, 1.0], [sf.laguerre(0.5), sf.laguerre(1.5),
                                     sf.laguerre(0.5)])
    M3, _ = try_reduce_3x3_w1w3(spec3)
    ok3 = True
    for x in np.linspace(0.2, 8.0, 20):
        D = M3 @ weight_eval(spec3, x) @ M3.conj().T
        ok3 &= bool(abs(D[0, 1]) < 1e-10 and abs(D[0, 2]) < 1e-10)
        ok3 &= D[0, 0] == pytest.approx(
            2.0 * sf.weight_value(spec3.scalars[0], x), rel=1e-10)

    t0 = time.perf_counter()
    big = weight_spec([1.0] * 9,
                      [sf.laguerre(0.5 + (k + 1) // 2) for k in range(10)])
    dim10 = order_zero_symmetries(big).dimension
    dt = time.perf_counter() - t0
    report(7, "irreducibility",
           red_ok and dims_ok and ok3 and dim10 == 1 and dt < 60.0,
           f"2x2 reduce ok {red_ok}, dims ok {dims_ok}, 3x3 ok {ok3}, "
           f"10x10 dim {dim10} in {dt:.1f} s")


def _exact_ladder_ok():
    # ladder shift identities in exact arithmetic for n <= 8
    x = sp.symbols("x")
    al = sp.Rational(1, 2)
    seqs = {al + d: sf.recurrence_coefficients(
        sf.laguerre(float(al + d)), 10, "exact") for d in (0, 1)}

    def poly(alpha, n):
        return sum(c * x ** k for k, c in enumerate(seqs[alpha].polynomial(n)))

    forms = [
        # (f0, f1, f2, factor(n), dn, dalpha)
        (sp.Integer(1), sp.Integer(-1), 0, lambda n: 1, 0, 1),
        (al + 1, x, 0, lambda n: n + al + 1, 0, -1),     # down from al+1
        (-(al + 1) + x, (al + 1) - 2 * x, x, lambda n: 1, 1, 0),
        (sp.Integer(0), sp.Integer(1), 0, lambda n: n, -1, 1),
        (sp.Integer(0), (al + 1) - x, x, lambda n: -n, 0, 0),
    ]
    src_alpha = [al, al + 1, al, al, al]
    for (f0, f1, f2, fac, dn, da), a0 in zip(forms, src_alpha):
        for n in range(9):
            if n + dn < 0:
                continue
            p = poly(a0, n)
            img = sp.expand(f0 * p + f1 * sp.diff(p, x)
                            + f2 * sp.diff(p, x, 2))
            want = sp.expand(fac(n) * poly(a0 + da, n + dn))
            if sp.simplify(img - want) != 0:
                return False
    return True


def test_criterion_8_property_suites():
    rng = np.random.default_rng(8)

    def rnd():
        return MatrixPolynomial([rng.standard_normal((2, 2))
                                 for _ in range(4)])

    ring_ok = True
    for _ in range(10):
        p, q, r = rnd(), rnd(), rnd()
        lhs = (p * q) * r
        ring_ok &= ((lhs - p * (q * r)).max_coeff_norm()
                    <= 1e-12 * lhs.max_coeff_norm())
        d = (p * q).derivative()
        ring_ok &= ((d - (p.derivative() * q + p * q.derivative()))
                    .max_coeff_norm() <= 1e-12 * d.max_coeff_norm())

    # quadrature exactness: m-point rules integrate x^k for k <= 2m-1
    quad_ok = True
    nodes, weights = one_rule(sf.laguerre(0.5), 8)
    for k in range(16):
        got = float(np.sum(weights * nodes ** k))
        want = math.gamma(k + 1.5)
        quad_ok &= abs(got - want) <= 1e-12 * want

    ladder_ok = _exact_ladder_ok()

    # eigenvalue commutation A Lambda_{n+1} = Lambda_n A, n <= 15
    comm_ok = True
    from mvop.weight_model import build_nilpotent
    for name in family_specs():
        spec = family_specs()[name]
        A = build_nilpotent(spec)
        _, lam = build_bispectral_operator(spec)
        for n in range(16):
            comm_ok &= bool(np.allclose(A @ lam(n + 1), lam(n) @ A,
                                        atol=1e-12))
    report(8, "property suites",
           ring_ok and quad_ok and ladder_ok and comm_ok,
           f"ring {ring_ok}, quadrature {quad_ok}, ladders {ladder_ok}, "
           f"commutation {comm_ok}")
