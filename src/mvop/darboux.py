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
one entry, ``synthesize_shift`` walks a list of them, and the Laguerre
chain of any size N >= 2, ``laguerre_chain``, takes each entry of its
period-2 table from the same forms.  Each template's relation on the
slots' parameters is one function of the spec, None when it holds and
otherwise the first unmet relation: ``chain_relation`` and
``hermite_relation``, read by ``mvop run`` and the builders' guards.
Every operator given entry by entry is built by
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
from .irreducibility import CLASS_TOL
from .weight_model import WeightSpec, build_nilpotent, weight_spec

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
        # x d^2 + (alpha + 1) d and x d - x + alpha, the chain's other two
        "x_down": (([0.0], [a1], [0.0, 1.0]), lambda n: float(n * (n + alpha)),
                   (-1, 0)),
        "n_up_alpha_down": (([alpha, -1.0], [0.0, 1.0]), lambda n: -1.0,
                            (1, -1)),
    }


LADDER_KINDS = tuple(_ladder_forms(0.0))


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


def laguerre_chain(alpha: float, a):
    """The Laguerre Darboux chain of size N = len(a) + 1: the weight spec,
    slot k Laguerre(alpha + floor(k/2)), and the entrywise operator
    D1_tilde with P_n . D1_tilde = Q_n T, with no operator composed.

    Every entry of D1_tilde off the unit diagonal is a ``_ladder_forms``
    entry at its row's alpha, times a_i, and the table has period 2: an
    even row k holds n_up times a_k at (k, k+1) and n_up_alpha_down times
    -a_{k-1} at (k, k-1); an odd row holds x_down times -conj(a_{k-1}) at
    (k, k-1) and n_down times -conj(a_k) at (k, k+1).  ``a`` is kept as
    given: a complex a_i enters the entries of odd rows, the ones that
    carry G_n, conjugated.
    """
    a = tuple(a)
    N = len(a) + 1
    alphas = [alpha + k // 2 for k in range(N)]
    spec = weight_spec(a, [sf.laguerre(al) for al in alphas])
    c = np.conj(a)
    entries = {(k, k): ([1.0],) for k in range(N)}

    def put(k, j, kind, s):
        fs = _ladder_forms(alphas[k])[kind][0]
        entries[k, j] = tuple([s * v for v in f] for f in fs)

    for k in range(N):
        even = k % 2 == 0
        if k > 0:
            put(k, k - 1, *(("n_up_alpha_down", -a[k - 1]) if even
                            else ("x_down", -c[k - 1])))
        if k < N - 1:
            put(k, k + 1, *(("n_up", a[k]) if even else ("n_down", -c[k])))
    return spec, entries_to_operator(entries, N)


def chain_relation(spec: WeightSpec) -> Optional[str]:
    """None when ``spec`` is the Laguerre chain ``laguerre_chain`` builds
    from its first alpha and its a: every slot Laguerre at slot 1's scale
    (which Q_n does not see) and each alpha_k within ``CLASS_TOL`` of
    alpha_1 + floor((k-1)/2), slots counted from 1.  Otherwise the first
    unmet relation, e.g. "slot 3: alpha 0.0015 is not alpha_1 + 1"."""
    first = spec.scalars[0]
    for k, s in enumerate(spec.scalars, 1):
        step = (k - 1) // 2
        if s.family != sf.LAGUERRE:
            return f"slot {k}: family {s.family} is not laguerre"
        if s.scale != first.scale:
            return f"slot {k}: scale {s.scale} is not scale_1"
        if abs(s.alpha - (first.alpha + step)) > CLASS_TOL:
            return (f"slot {k}: alpha {s.alpha} is not alpha_1"
                    + (f" + {step}" if step else ""))
    return None


def hermite_relation(spec: WeightSpec) -> Optional[str]:
    """None when every slot is Hermite(0) at scale 1, the weight of
    ``hermite_A_factorization``; otherwise the first slot that is not."""
    for k, s in enumerate(spec.scalars, 1):
        for name, want in (("family", sf.HERMITE), ("b", 0), ("scale", 1)):
            if getattr(s, name) != want:
                return f"slot {k}: {name} {getattr(s, name)} is not {want}"
    return None


def builtin_n5_laguerre(alpha: float, a=(1.0, 1.0, 1.0, 1.0)):
    """The 5x5 Laguerre chain: weight spec, the entrywise operator D1_tilde
    with P_n . D1_tilde = Q_n T (``laguerre_chain`` at N = 5), and D =
    (D1_tilde T^{-1})(T (2I - D1_tilde)) = D1_tilde (2I - D1_tilde)."""
    if len(a) != 4:
        raise InvalidParam(f"the 5x5 chain needs 4 a_i, got {len(a)}")
    spec, d1_tilde = laguerre_chain(alpha, a)
    D = op_compose(d1_tilde, MatrixDiffOperator.identity(5) * 2.0 - d1_tilde)
    return spec, d1_tilde, D


def hermite_A_factorization(spec: WeightSpec, exact: bool = False):
    """For all-Hermite(0) scalars: D, its factors D1 and D2, and the
    swapped product D_swapped = D2 D1 in the transformed algebra;
    ``Unsupported`` naming the unmet ``hermite_relation`` otherwise."""
    miss = hermite_relation(spec)
    if miss:
        raise Unsupported(miss)
    N = spec.N
    A = build_nilpotent(spec, exact=exact)
    Astar = conj_transpose(A)
    AAs = A @ Astar
    AsA = Astar @ A
    eye = np.eye(N, dtype=A.dtype)

    D = MatrixDiffOperator([
        MatrixPolynomial([AAs / 2 + eye]),
        MatrixPolynomial([0 * eye, (AAs + AsA) / 2]),
        MatrixPolynomial([-(AAs + AsA) / 4]),
    ])
    D1 = MatrixDiffOperator([
        MatrixPolynomial([eye]),
        MatrixPolynomial([-(A + Astar) / 2, AsA / 2]),
    ])
    D2 = MatrixDiffOperator([
        MatrixPolynomial([AAs / 2 + eye]),
        MatrixPolynomial([(A + Astar) / 2, AAs / 2]),
    ])
    D_swapped = MatrixDiffOperator([
        MatrixPolynomial([AAs / 2 + eye]),
        MatrixPolynomial([-(AAs @ A) / 2, (AAs + AsA) / 2]),
        MatrixPolynomial([-(AsA + AAs) / 4]),
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
    A_n come from one batched solve on the leading coefficients, real where
    both stacks are.  The residual of degree n is the
    ``identity_residual`` of P_n . D1 = A_n Q_n, and the
    peak is found by ``peak``, so a non-finite residual is the worst one;
    the pass verdict needs every residual under tol and nonsingular A_n
    apart from (at most) an initial finite set.
    """
    d = np.arange(n_max + 1)
    L = op_apply(np.asarray(P), D1)
    Q = q_seq.q_block(0, n_max + 1)
    K, lead = Q[d, d], L[d, d]
    An = np.linalg.solve(K.swapaxes(1, 2),  # lead = A_n K
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
