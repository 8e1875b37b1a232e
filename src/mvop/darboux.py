"""Laguerre ladder operators, shift synthesis and Darboux verification.

The ladder operators are stored in calibrated normal form: each one is
normalized so that the image of the monic Laguerre polynomial is a known
scalar factor times another monic Laguerre polynomial, with the factor
checked against the scalar sequences at build time.
"""

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Optional

import numpy as np

from . import _poly
from . import scalar_families as sf
from .errors import CapExceeded, InvalidParam, Unsupported
from .matrix_poly import MatrixPolynomial, conj_transpose
from .mvop_core import MVOPSequence
from .diff_operators import MatrixDiffOperator, op_apply, op_compose
from .weight_model import WeightSpec, build_T, build_nilpotent, weight_spec

LADDER_KINDS = ("alpha_up", "alpha_down", "n_up", "n_down", "eigen")

#: practical cap on |k| + |m| in shift synthesis
SHIFT_CAP = 6

_VERIFY_TOL = 1e-9


def _scalar_operator(fs, exact=False) -> MatrixDiffOperator:
    """Size-1 operator from scalar coefficient lists f_0, f_1, ..."""
    return MatrixDiffOperator([MatrixPolynomial.from_scalar(f, exact=exact)
                               for f in fs], size=1, exact=exact)


def apply_scalar(op: MatrixDiffOperator, poly):
    """Apply a size-1 operator to a scalar coefficient list."""
    p = MatrixPolynomial.from_scalar(poly, exact=op.exact)
    return op_apply(p, op).entry(0, 0)


@dataclass(frozen=True)
class LadderOperator:
    """Operator mapping monic ell_n^(alpha) to factor(n) * ell_{n+dn}^(alpha+da)."""

    kind: str
    alpha: float
    operator: MatrixDiffOperator
    factor: Callable[[int], float]
    delta: tuple  # (dn, dalpha)

    def apply(self, poly):
        return apply_scalar(self.operator, poly)


def _ladder_forms(alpha):
    a1 = alpha + 1.0
    return {
        "alpha_up": (([1.0], [-1.0]), lambda n: 1.0, (0, 1)),
        "alpha_down": (([alpha], [0.0, 1.0]), lambda n: n + alpha, (0, -1)),
        "n_up": (([-a1, 1.0], [a1, -2.0], [0.0, 1.0]), lambda n: 1.0, (1, 0)),
        "n_down": (([0.0], [1.0]), lambda n: float(n), (-1, 1)),
        "eigen": (([0.0], [a1, -1.0], [0.0, 1.0]), lambda n: -float(n), (0, 0)),
    }


def ladder(kind: str, alpha: float, verify_to: int = 8) -> LadderOperator:
    """Calibrated Laguerre ladder operator of the given kind at parameter alpha."""
    if kind not in LADDER_KINDS:
        raise InvalidParam(f"unknown ladder kind {kind!r}")
    if alpha <= -1:
        raise InvalidParam("alpha must be > -1")
    fs, factor, delta = _ladder_forms(alpha)[kind]
    if alpha + delta[1] <= -1:
        raise InvalidParam(f"{kind} at alpha={alpha} leaves the family")
    op = LadderOperator(kind=kind, alpha=alpha,
                        operator=_scalar_operator(fs),
                        factor=factor, delta=delta)
    if verify_to >= 0:
        _verify_ladder(op, verify_to)
    return op


def _verify_ladder(op: LadderOperator, n_hi: int):
    dn, da = op.delta
    src = sf.recurrence_coefficients(sf.laguerre(op.alpha), n_hi + abs(dn) + 1)
    dst = sf.recurrence_coefficients(sf.laguerre(op.alpha + da), n_hi + abs(dn) + 1)
    for n in range(n_hi + 1):
        img = op.apply(src.polynomial(n))
        want = ([0] if n + dn < 0 else
                _poly.scale(dst.polynomial(n + dn), op.factor(n)))
        diff = _poly.sub(img, want)
        scale = max(_poly.max_abs(img), _poly.max_abs(want), 1.0)
        if _poly.max_abs(diff) > _VERIFY_TOL * scale:
            raise InvalidParam(f"ladder {op.kind} failed its shift identity "
                               f"at n={n} (residual {_poly.max_abs(diff):.2e})")


def synthesize_shift(alpha: float, k: int, m: int, r1=(1,), r2=(1,)):
    """Operator tau and polynomial q with
    ell_n^(alpha) . tau = q(n) (r1(n)/r2(n)) ell_{n+m}^(alpha+k).

    r1 and r2 are polynomials in n given as ascending coefficient lists.
    Built by composing calibrated ladders; the rational prefactor r1 is
    realized as r1(-delta_alpha) applied up front.
    """
    if abs(k) + abs(m) > SHIFT_CAP:
        raise CapExceeded(f"|k|+|m| = {abs(k) + abs(m)} exceeds {SHIFT_CAP}")
    if alpha <= -1 or alpha + k <= -1:
        raise InvalidParam("alpha and alpha+k must both be > -1")

    ops = []
    factors = []
    cur_alpha, cur_dn = float(alpha), 0
    if m >= 0:
        for _ in range(m):
            L = ladder("n_up", cur_alpha, verify_to=-1)
            ops.append(L.operator)
            cur_dn += 1
    else:
        for _ in range(-m):
            L = ladder("n_down", cur_alpha, verify_to=-1)
            ops.append(L.operator)
            factors.append(lambda n, d=cur_dn: float(n + d))
            cur_dn -= 1
            cur_alpha += 1.0
    k_rem = k - round(cur_alpha - alpha)
    while k_rem > 0:
        ops.append(ladder("alpha_up", cur_alpha, verify_to=-1).operator)
        cur_alpha += 1.0
        k_rem -= 1
    while k_rem < 0:
        ops.append(ladder("alpha_down", cur_alpha, verify_to=-1).operator)
        factors.append(lambda n, d=cur_dn, a=cur_alpha: float(n + d) + a)
        cur_alpha -= 1.0
        k_rem += 1

    tau = reduce(op_compose, ops) if ops else MatrixDiffOperator.identity(1)
    # rational prefactor: r1(n) is realized by r1(-delta_alpha) applied first
    r1 = list(r1)
    if _poly.degree(r1) > 0 or r1[0] != 1:
        eig = _ladder_forms(alpha)["eigen"][0]
        neg_eig = _scalar_operator([[-c for c in f] for f in eig])
        term = MatrixDiffOperator.identity(1)
        r1_op = MatrixDiffOperator.zero(1)
        for c in r1:
            r1_op = r1_op + term * c
            term = op_compose(term, neg_eig)
        tau = op_compose(r1_op, tau)

    def q(n, _f=tuple(factors), _r2=tuple(r2)):
        out = _poly.evaluate(list(_r2), float(n))
        for f in _f:
            out *= f(n)
        return out

    _verify_shift(alpha, k, m, tau, q, r1, list(r2))
    return tau, q


def _verify_shift(alpha, k, m, tau, q, r1, r2, n_hi=10, tol=1e-10):
    src = sf.recurrence_coefficients(sf.laguerre(alpha), n_hi + abs(m) + 1)
    dst = sf.recurrence_coefficients(sf.laguerre(alpha + k), n_hi + abs(m) + 1)
    for n in range(n_hi + 1):
        img = apply_scalar(tau, src.polynomial(n))
        fac = q(n) * _poly.evaluate(r1, float(n)) / _poly.evaluate(r2, float(n))
        want = ([0] if n + m < 0 else _poly.scale(dst.polynomial(n + m), fac))
        diff = _poly.sub(img, want)
        scale = max(_poly.max_abs(img), _poly.max_abs(want), 1.0)
        if _poly.max_abs(diff) > tol * scale:
            raise InvalidParam(f"shift synthesis (k={k}, m={m}) failed at n={n}")


def _entries_to_operator(entries: dict, size: int, exact=False) -> MatrixDiffOperator:
    """Matrix operator from a dict (i, j) -> scalar coefficient lists."""
    order = max(len(fs) for fs in entries.values()) - 1
    f_coeffs = []
    for j in range(order + 1):
        deg = max((len(fs[j]) for fs in entries.values() if j < len(fs)),
                  default=1)
        coeffs = [np.zeros((size, size), dtype=object if exact else complex)
                  for _ in range(deg)]
        for (r, c), fs in entries.items():
            if j < len(fs):
                for kk, val in enumerate(fs[j]):
                    coeffs[kk][r, c] = coeffs[kk][r, c] + val
        f_coeffs.append(MatrixPolynomial(coeffs, size=size, exact=exact))
    return MatrixDiffOperator(f_coeffs, size=size, exact=exact)


def builtin_n5_laguerre(alpha: float, a=(1.0, 1.0, 1.0, 1.0)):
    """The explicit 5x5 Laguerre chain: weight spec, the entrywise operator
    D1_tilde with P_n . D1_tilde = Q_n T, and D = (D1_tilde T^{-1})(T (2I - D1_tilde)).
    """
    if alpha <= -1:
        raise InvalidParam("alpha must be > -1")
    a1, a2, a3, a4 = (float(v) for v in a)
    if 0 in (a1, a2, a3, a4):
        raise InvalidParam("all a_i must be nonzero")
    spec = weight_spec([a1, a2, a3, a4],
                       [sf.laguerre(alpha), sf.laguerre(alpha),
                        sf.laguerre(alpha + 1), sf.laguerre(alpha + 1),
                        sf.laguerre(alpha + 2)])

    def nup(al):
        return ([-al - 1.0, 1.0], [al + 1.0, -2.0], [0.0, 1.0])

    def down2(al):           # d^2 x + d (al+1)
        return ([0.0], [al + 1.0], [0.0, 1.0])

    def down1(al):           # d x - (x - al - 1)
        return ([al + 1.0, -1.0], [0.0, 1.0])

    def smul(s, fs):
        return tuple([s * c for c in f] for f in fs)

    entries = {
        (0, 0): ([1.0],),
        (0, 1): smul(a1, nup(alpha)),
        (1, 0): smul(-a1, down2(alpha)),
        (1, 1): ([1.0],),
        (1, 2): smul(-a2, ([0.0], [1.0])),
        (2, 1): smul(-a2, down1(alpha)),
        (2, 2): ([1.0],),
        (2, 3): smul(a3, nup(alpha + 1)),
        (3, 2): smul(-a3, down2(alpha + 1)),
        (3, 3): ([1.0],),
        (3, 4): smul(-a4, ([0.0], [1.0])),
        (4, 3): smul(-a4, down1(alpha + 1)),
        (4, 4): ([1.0],),
    }
    d1_tilde = _entries_to_operator(entries, 5)

    T, T_inv = build_T(spec)
    two_minus = MatrixDiffOperator.identity(5) * 2.0 - d1_tilde
    D1 = op_compose(d1_tilde, MatrixDiffOperator.multiplication(T_inv))
    D2 = op_compose(MatrixDiffOperator.multiplication(T), two_minus)
    D = op_compose(D1, D2)
    return spec, d1_tilde, D


def hermite_A_factorization(spec: WeightSpec, exact: bool = False):
    """For all-Hermite(0) scalars: D, its factors D1 and D2, and the
    swapped product D_swapped = D2 D1 in the transformed algebra."""
    for s in spec.scalars:
        if s.family != sf.HERMITE or s.b != 0 or s.scale != 1.0:
            raise Unsupported("needs every scalar weight equal to Hermite(0)")
    N = spec.N
    A = build_nilpotent(spec, exact=exact)
    Astar = conj_transpose(A)
    AAs = A @ Astar
    AsA = Astar @ A
    if exact:
        import sympy as sp
        eye = np.array(sp.eye(N).tolist(), dtype=object)
        half = sp.Rational(1, 2)
        quarter = sp.Rational(1, 4)
        two = sp.Integer(2)
    else:
        eye = np.eye(N, dtype=complex)
        half, quarter, two = 0.5, 0.25, 2.0

    def mp(coeffs):
        return MatrixPolynomial(coeffs, size=N, exact=exact)

    D = MatrixDiffOperator([
        mp([AAs * half + eye]),
        mp([0 * eye, (AAs + AsA) * half]),
        mp([-(AAs + AsA) * quarter]),
    ], exact=exact)
    D1 = MatrixDiffOperator([
        mp([eye]),
        mp([-(A + Astar) * half, AsA * half]),
    ], exact=exact)
    D2 = MatrixDiffOperator([
        mp([AAs * half + eye]),
        mp([(A + Astar) * half, AAs * half]),
    ], exact=exact)
    D_swapped = MatrixDiffOperator([
        mp([AAs * half + eye]),
        mp([-(AAs @ A) * half, (AAs + AsA) * half]),
        mp([-(AsA + AAs) * quarter]),
    ], exact=exact)
    return D, D1, D2, D_swapped


@dataclass
class DarbouxReport:
    """Residuals and connection matrices for P_n . D1 = A_n Q_n."""

    n_max: int
    tol: float
    worst_residual: float
    connection: list = field(repr=False)   # per-n A_n
    dets: list
    singular_ns: list
    passed: bool

    def to_json(self) -> dict:
        return {"n_max": self.n_max, "tol": self.tol,
                "worst_residual": self.worst_residual,
                "dets": [[d.real, d.imag] for d in map(complex, self.dets)],
                "singular_ns": self.singular_ns, "passed": self.passed}


def darboux_verify(P, D1: MatrixDiffOperator, q_seq: MVOPSequence,
                   n_max: int, tol: float = 1e-9) -> DarbouxReport:
    """Check the connection P_n . D1 = A_n Q_n for n <= n_max.

    ``P`` stacks the power coefficients of P_0..P_{n_max}, shape (n_max +
    1, powers, N, N), for example ``q_seq.p_block(0, n_max + 1)``.  One
    ``op_apply`` gives every P_n . D1 and one ``q_block`` every Q_n; all
    A_n come from one batched solve on the leading coefficients.  The
    residual of degree n is max|L - A_n Q| / max(max|L|, max|Q|, 1e-300)
    over all coefficients; the pass verdict needs every residual under tol
    and nonsingular A_n apart from (at most) an initial finite set.
    """
    d = np.arange(n_max + 1)
    L = op_apply(np.asarray(P, dtype=complex), D1)
    Q = q_seq.q_block(0, n_max + 1)
    K, lead = Q[d, d], L[d, d]
    An = np.linalg.solve(K.swapaxes(1, 2),                 # lead = A_n K
                         lead.swapaxes(1, 2)).swapaxes(1, 2)
    R = np.zeros((n_max + 1, max(L.shape[1], Q.shape[1])) + Q.shape[2:],
                 dtype=complex)
    R[:, :L.shape[1]] += L
    R[:, :Q.shape[1]] -= An[:, None] @ Q
    scale = np.maximum(np.abs(L).max(axis=(1, 2, 3)),
                       np.abs(Q).max(axis=(1, 2, 3)))
    res = np.abs(R).max(axis=(1, 2, 3)) / np.maximum(scale, 1e-300)
    worst = float(res.max())
    dets = np.linalg.det(An).tolist()
    singular = [n for n, v in enumerate(dets) if abs(v) <= 1e-12]
    passed = (worst <= tol and len(singular) <= n_max
              and (not singular or singular[-1] < n_max))
    return DarbouxReport(n_max=n_max, tol=tol, worst_residual=worst,
                         connection=list(An), dets=dets,
                         singular_ns=singular, passed=passed)
