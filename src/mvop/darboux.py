"""Laguerre ladder operators, shift synthesis and Darboux verification.

The ladder operators are stored in calibrated normal form: each one is
normalized so that the image of the monic Laguerre polynomial is a known
scalar factor times another monic Laguerre polynomial, with the factor
checked against the scalar sequences at build time.  Every Darboux
identity, here and in ``mvop run``, reads one residual scaled by the terms
that cancel, ``diff_operators.identity_residual``: the ladders and
synthesized shifts (one stacked ``_verify`` each), P_n . D1 = A_n Q_n and
the chain's P_n . D1_tilde = Q_n T.  Each ladder is stated once, as its
``_ladder_forms`` entry (operator, factor, (dn, dalpha)): ``ladder`` reads
one entry, ``synthesize_shift`` walks a list of them, and the 5x5 chain
``n5_laguerre_d1_tilde`` takes its n_up and n_down entries from the same
table.  That builder is also the chain's only statement: ``mvop run``
treats a 5x5 weight as the chain when it equals the spec the builder
returns.  Every operator given entry by entry is built by
``diff_operators.entries_to_operator``.
"""

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Optional

import numpy as np

from . import scalar_families as sf
from .errors import CapExceeded, InvalidParam, Unsupported
from .matrix_poly import MatrixPolynomial, conj_transpose
from .mvop_core import MVOPSequence, peak
from .diff_operators import (MatrixDiffOperator, apply_scalar,
                             entries_to_operator, identity_residual, op_apply,
                             op_compose)
from .weight_model import WeightSpec, build_nilpotent, weight_spec

LADDER_KINDS = ("alpha_up", "alpha_down", "n_up", "n_down", "eigen")

#: practical cap on |k| + |m| in shift synthesis
SHIFT_CAP = 6

_VERIFY_TOL = 1e-9


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


def ladder(kind: str, alpha: float) -> LadderOperator:
    """Calibrated Laguerre ladder operator of the given kind at parameter
    alpha, checked for n <= 8."""
    if kind not in LADDER_KINDS:
        raise InvalidParam(f"unknown ladder kind {kind!r}")
    if alpha <= -1:
        raise InvalidParam("alpha must be > -1")
    fs, factor, (dn, da) = _ladder_forms(alpha)[kind]
    if alpha + da <= -1:
        raise InvalidParam(f"{kind} at alpha={alpha} leaves the family")
    op = entries_to_operator({(0, 0): fs}, 1)
    _verify(op, alpha, da, dn, factor, 8, _VERIFY_TOL,
            f"ladder {kind} failed its shift identity at n={{n}} "
            f"(residual {{r:.2e}})")
    return LadderOperator(kind=kind, alpha=alpha, operator=op,
                          factor=factor, delta=(dn, da))


def _verify(op, alpha, da, dn, factor, n_hi, tol, message):
    """Raise ``InvalidParam(message)`` unless ell_n^(alpha) . op =
    factor(n) ell_{n+dn}^(alpha+da) for n <= n_hi, with ell_m = 0 for m < 0.

    The stacked power coefficients of the source polynomials and of the
    scaled targets go through ``identity_residual`` at once; ``message`` is
    formatted with the first n whose residual r is above tol or not a
    number.
    """
    n_dst = n_hi + max(dn, 0)
    tab = sf.power_table([sf.recurrence_coefficients(sf.laguerre(a), n_dst)
                          for a in (alpha, alpha + da)], n_dst)
    n = np.arange(n_hi + 1)
    # row 0 of a power table is p_{-1} = 0
    want = (np.array([factor(k) for k in n])[:, None]
            * tab[np.maximum(n + dn + 1, 0), :, 1])
    res = identity_residual(tab[1:n_hi + 2, :, 0, None, None], op,
                            want[..., None, None])
    bad = np.flatnonzero(~(res <= tol))      # a NaN residual fails too
    if bad.size:
        raise InvalidParam(message.format(n=int(bad[0]), r=res[bad[0]]))


def synthesize_shift(alpha: float, k: int, m: int, r1=(1,), r2=(1,)):
    """Operator tau and polynomial q with
    ell_n^(alpha) . tau = q(n) (r1(n)/r2(n)) ell_{n+m}^(alpha+k).

    r1 and r2 are polynomials in n given as nonempty ascending coefficient
    lists.  tau composes |m| degree steps (n_up, or n_down, which also
    raises alpha) and then the alpha steps left to reach alpha + k; each
    step's operator, factor f_i and (dn, dalpha) are its ``_ladder_forms``
    entry at the current alpha, the factor read at degree n + dn_i, the
    degree shift so far.  The rational prefactor r1 is realized as
    r1(-delta_alpha) applied up front.  q(n) is r2(n) prod_i f_i(n + dn_i),
    so r2 cancels and the identity is checked as ell_n . tau = r1(n)
    prod_i f_i(n + dn_i) ell_{n+m}.
    """
    if abs(k) + abs(m) > SHIFT_CAP:
        raise CapExceeded(f"|k|+|m| = {abs(k) + abs(m)} exceeds {SHIFT_CAP}")
    if alpha <= -1 or alpha + k <= -1:
        raise InvalidParam("alpha and alpha+k must both be > -1")
    r1, r2 = list(r1), list(r2)
    if not r1 or not r2:
        raise InvalidParam("r1 and r2 need at least one coefficient")

    # |m| degree steps (each n_down also raises alpha), then the alpha steps
    k_rem = k - max(-m, 0)
    kinds = (["n_up"] * m + ["n_down"] * -m
             + ["alpha_up"] * k_rem + ["alpha_down"] * -k_rem)
    ops, factors = [], []
    cur_alpha, cur_dn = float(alpha), 0
    for kind in kinds:
        fs, factor, (dn, da) = _ladder_forms(cur_alpha)[kind]
        ops.append(entries_to_operator({(0, 0): fs}, 1))
        factors.append(lambda n, f=factor, d=cur_dn: f(n + d))
        cur_dn += dn
        cur_alpha += da

    tau = reduce(op_compose, ops) if ops else MatrixDiffOperator.identity(1)
    # rational prefactor: r1(n) is realized by r1(-delta_alpha) applied first
    if any(r1[1:]) or r1[0] != 1:
        eig = _ladder_forms(alpha)["eigen"][0]
        neg_eig = entries_to_operator({(0, 0): [[-c for c in f] for f in eig]},
                                      1)
        term = MatrixDiffOperator.identity(1)
        r1_op = MatrixDiffOperator.zero(1)
        for c in r1:
            r1_op = r1_op + term * c
            term = op_compose(term, neg_eig)
        tau = op_compose(r1_op, tau)

    def q(n, _r=tuple(r2), _f=tuple(factors)):
        out = float(np.polyval(_r[::-1], float(n)))
        for f in _f:
            out *= f(n)
        return out

    _verify(tau, alpha, k, m, lambda n: q(n, tuple(r1)), 10, 1e-10,
            f"shift synthesis (k={k}, m={m}) failed at n={{n}}")
    return tau, q


def n5_laguerre_d1_tilde(alpha: float, a=(1.0, 1.0, 1.0, 1.0)):
    """The explicit 5x5 Laguerre chain from its entry table: the weight spec
    and the entrywise operator D1_tilde with P_n . D1_tilde = Q_n T, with
    no operator composed (``builtin_n5_laguerre`` adds D).  ``a`` is kept
    as given; a complex a_i enters the entries (1, 0), (1, 2), (3, 2) and
    (3, 4), the ones that carry G_n, as conj(a_i)."""
    if alpha <= -1:
        raise InvalidParam("alpha must be > -1")
    a = tuple(a)
    if 0 in a:
        raise InvalidParam("all a_i must be nonzero")
    a1, a2, a3, a4 = a
    c1, c2, c3, c4 = np.conj(a)
    spec = weight_spec(a, [sf.laguerre(alpha), sf.laguerre(alpha),
                           sf.laguerre(alpha + 1), sf.laguerre(alpha + 1),
                           sf.laguerre(alpha + 2)])

    def down2(al):           # d^2 x + d (al+1)
        return ([0.0], [al + 1.0], [0.0, 1.0])

    def down1(al):           # d x - (x - al - 1)
        return ([al + 1.0, -1.0], [0.0, 1.0])

    def smul(s, fs):
        return tuple([s * c for c in f] for f in fs)

    up = [_ladder_forms(al)["n_up"][0] for al in (alpha, alpha + 1)]
    d = _ladder_forms(alpha)["n_down"][0]
    entries = {
        (0, 0): ([1.0],),
        (0, 1): smul(a1, up[0]),
        (1, 0): smul(-c1, down2(alpha)),
        (1, 1): ([1.0],),
        (1, 2): smul(-c2, d),
        (2, 1): smul(-a2, down1(alpha)),
        (2, 2): ([1.0],),
        (2, 3): smul(a3, up[1]),
        (3, 2): smul(-c3, down2(alpha + 1)),
        (3, 3): ([1.0],),
        (3, 4): smul(-c4, d),
        (4, 3): smul(-a4, down1(alpha + 1)),
        (4, 4): ([1.0],),
    }
    return spec, entries_to_operator(entries, 5)


def builtin_n5_laguerre(alpha: float, a=(1.0, 1.0, 1.0, 1.0)):
    """The explicit 5x5 Laguerre chain: weight spec, the entrywise operator
    D1_tilde with P_n . D1_tilde = Q_n T (``n5_laguerre_d1_tilde``), and D
    = (D1_tilde T^{-1})(T (2I - D1_tilde)) = D1_tilde (2I - D1_tilde)."""
    spec, d1_tilde = n5_laguerre_d1_tilde(alpha, a)
    D = op_compose(d1_tilde, MatrixDiffOperator.identity(5) * 2.0 - d1_tilde)
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
    else:
        eye = np.eye(N, dtype=complex)
        half, quarter = 0.5, 0.25

    D = MatrixDiffOperator([
        MatrixPolynomial([AAs * half + eye]),
        MatrixPolynomial([0 * eye, (AAs + AsA) * half]),
        MatrixPolynomial([-(AAs + AsA) * quarter]),
    ])
    D1 = MatrixDiffOperator([
        MatrixPolynomial([eye]),
        MatrixPolynomial([-(A + Astar) * half, AsA * half]),
    ])
    D2 = MatrixDiffOperator([
        MatrixPolynomial([AAs * half + eye]),
        MatrixPolynomial([(A + Astar) * half, AAs * half]),
    ])
    D_swapped = MatrixDiffOperator([
        MatrixPolynomial([AAs * half + eye]),
        MatrixPolynomial([-(AAs @ A) * half, (AAs + AsA) * half]),
        MatrixPolynomial([-(AsA + AAs) * quarter]),
    ])
    return D, D1, D2, D_swapped


@dataclass
class DarbouxReport:
    """Residuals and connection matrices for P_n . D1 = A_n Q_n."""

    n_max: int
    tol: float
    worst_residual: float
    worst_n: Optional[int]  # the degree of the peak (see ``peak``)
    non_finite: bool
    connection: list = field(repr=False)   # per-n A_n
    dets: list
    singular_ns: list
    passed: bool

    def to_json(self) -> dict:
        return {"n_max": self.n_max, "tol": self.tol,
                "worst_residual": self.worst_residual,
                "worst_n": self.worst_n, "non_finite": self.non_finite,
                "dets": [[d.real, d.imag] for d in map(complex, self.dets)],
                "singular_ns": self.singular_ns, "passed": self.passed}


def darboux_verify(P, D1: MatrixDiffOperator, q_seq: MVOPSequence,
                   n_max: int, tol: float = 1e-9) -> DarbouxReport:
    """Check the connection P_n . D1 = A_n Q_n for n <= n_max.

    ``P`` stacks the power coefficients of P_0..P_{n_max}, shape (n_max +
    1, powers, N, N), for example ``q_seq.p_block(0, n_max + 1)``.  One
    ``op_apply`` gives every P_n . D1 and one ``q_block`` every Q_n; all
    A_n come from one batched solve on the leading coefficients, in complex
    also for real stacks (a real LU rounds A_n otherwise).  The residual of
    degree n is the ``identity_residual`` of P_n . D1 = A_n Q_n, and the
    peak is found by ``peak``, so a non-finite residual is the worst one;
    the pass verdict needs every residual under tol and nonsingular A_n
    apart from (at most) an initial finite set.
    """
    d = np.arange(n_max + 1)
    L = op_apply(np.asarray(P), D1)
    Q = q_seq.q_block(0, n_max + 1)
    K, lead = Q[d, d], L[d, d]
    An = np.linalg.solve(K.swapaxes(1, 2).astype(complex),  # lead = A_n K
                         lead.swapaxes(1, 2)).swapaxes(1, 2)
    worst, worst_n, non_finite = peak(
        identity_residual(P, D1, An[:, None] @ Q, lhs=L))
    dets = np.linalg.det(An).tolist()
    singular = [n for n, v in enumerate(dets) if abs(v) <= 1e-12]
    passed = (worst <= tol and len(singular) <= n_max
              and (not singular or singular[-1] < n_max))
    return DarbouxReport(n_max=n_max, tol=tol, worst_residual=worst,
                         worst_n=worst_n, non_finite=non_finite,
                         connection=list(An), dets=dets,
                         singular_ns=singular, passed=passed)
