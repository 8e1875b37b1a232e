"""Order-zero symmetries F W(x) = W(x) F* and explicit reductions.

A constant nonsingular F commuting with the weight in this twisted sense
witnesses a congruence of W to a direct sum; the identity always works, so
a symmetry space of dimension 1 means no order-zero reduction was
detected (Tirao & Zurrian, Ramanujan J. 45, 2018).  The relation is
imposed at sample points.  Every entry of W = T diag(w_1..w_N) T* with
T = I + Ax is a combination of the functions w_k(x) x^j, j <= 2, so
span{W(x)} has dimension at most 3N: a relation that holds at points whose
W(x) span that space holds on the whole support.  Each w_k vanishes off its
own support, so the points are laid out per truncated support: 3 Chebyshev
points for every scalar weight on it, plus a share of the spare points (10
by default).  With S = sum_i W(x_i) = L L*, the Wt_i = L^-1 W(x_i) L^-*
sum to I, so F is a solution exactly when L^-1 F L is Hermitian and
commutes with every Wt_i, hence with H = sum_i r_i Wt_i: in an eigenbasis
of H it lives on pairs of equal eigenvalues (Murota, Kanno, Kojima &
Kojima, Japan J. Indust. Appl. Math. 27, 2010).  The basis is re-checked
on fresh points.
"""

from collections import Counter
from dataclasses import dataclass, field
from math import inf
from typing import Optional

import numpy as np

from . import scalar_families as sf
from .errors import InvalidParam, Unsupported
from .weight_model import WeightSpec, weight_eval

NULL_TOL = 1e-10
VALIDATE_TOL = 1e-9

#: eigenvalue pairs of H closer than PAIR_WINDOW times the spread get
#: unknowns, as eigenvectors are off by about eps spread / gap.  Over 140
#: configs (20 seeds of the benchmark's symmetry workload), equal eigenvalues
#: alone gave 12 wrong dimensions, 1e-6 residuals up to 2e-11, 0.05 1.1e-15
PAIR_WINDOW = 0.05
#: CGLS steps that take out the rounding amplified by L (3x3 Laguerre
#: weights: up to 1.0e-14 unpolished; a dense solve gives 1.7e-15 at worst)
POLISH_STEPS = 8


def _truncated_support(s: sf.ScalarWeightSpec):
    """Support of one scalar weight, with exponential tails cut where the
    density is below roughly 1e-12 of its peak."""
    lo, hi = s.support
    if lo == -inf:
        lo = (s.b if s.family == sf.HERMITE else 0.0) - 6.5
    if hi == inf:
        if s.family == sf.HERMITE:
            hi = s.b + 6.5
        else:
            hi = max(70.0, 4.0 * max(s.alpha, 0.0) + 50.0)
    return lo, hi


def _chebyshev_points(lo, hi, m, phase=0.0):
    k = np.arange(m)
    t = np.cos((k + 0.5 + phase) * np.pi / m)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * t


def _sample_points(spec: WeightSpec, n_points: int):
    """n_points Chebyshev points: 3 per scalar weight on that weight's
    truncated support, and the n_points - 3N spare points shared out
    evenly over the distinct supports."""
    counts = Counter(_truncated_support(s) for s in spec.scalars)
    share, rest = divmod(n_points - 3 * spec.N, len(counts))
    return np.concatenate([
        _chebyshev_points(lo, hi, 3 * m + share + (g < rest))
        for g, ((lo, hi), m) in enumerate(counts.items())])


@dataclass
class SymmetrySpace:
    """Real span of constant matrices F with F W(x) = W(x) F* on the support;
    one singular value per unknown, null when <= NULL_TOL * null_scale."""

    dimension: int
    basis: list = field(repr=False)
    sample_points: list = field(repr=False)
    singular_values: list = field(repr=False)
    validation_residual: float = 0.0
    null_scale: float = 1.0

    @property
    def reducible_at_order_zero(self) -> bool:
        return self.dimension >= 2

    @property
    def null_gap(self) -> float:
        """sigma_last_kept (null_scale if none) / sigma_first_null, across the
        NULL_TOL cut; a small value means the dimension was a near miss."""
        cut = len(self.singular_values) - self.dimension
        kept = self.singular_values[cut - 1] if cut else self.null_scale
        return float(kept / self.singular_values[cut])

    def to_json(self) -> dict:
        return {"dimension": self.dimension,
                "validation_residual": self.validation_residual,
                "basis": [[[[z.real, z.imag] for z in row] for row in F]
                          for F in self.basis]}


def _weight_stack(spec: WeightSpec, xs):
    """W(x)/max|W(x)| at the points where W is not negligible, as (P, N, N),
    together with those points."""
    Ws = weight_eval(spec, xs)
    top = np.max(np.abs(Ws), axis=(1, 2))
    keep = top >= 1e-280
    return Ws[keep] / top[keep, None, None], xs[keep]


def _commutator_rows(M, a, b):
    """Real rows (P N(N+1), K) of X -> [X, M_p] for the Hermitian stack M,
    X = Z + Z*, Z = c E_ab on the pairs a <= b, c = 1/2 on the diagonal and
    1/sqrt 2, i/sqrt 2 off it; [Z*, M] = -[Z, M]*, so the commutator is D - D*
    with D = c (e_a M[b, :] - M[:, a] e_b^T).  Also gives (c, a, b)."""
    P, N, _ = M.shape
    off = a < b
    c = np.concatenate([np.where(off, 2 ** -0.5, 0.5),
                        np.full(off.sum(), 2 ** -0.5 * 1j)])
    a, b = np.concatenate([a, a[off]]), np.concatenate([b, b[off]])
    k = np.arange(len(c))
    D = np.zeros((len(c), P, N, N), complex)
    D[k, :, a, :] = c[:, None, None] * M[:, b, :].swapaxes(0, 1)
    D[k, :, :, b] -= c[:, None, None] * M[:, :, a].transpose(2, 0, 1)
    i, j = np.triu_indices(N)
    C = (D[..., i, j] - D[..., j, i].conj()).reshape(len(c), -1)
    return np.concatenate([C.real, C.imag], axis=1).T, (c, a, b)


def _polish(F, Ws):
    """F after POLISH_STEPS CGLS steps on min ||T(F)||, T(F) = (F W_p -
    W_p F*)_p; the steps lie in the range of T*: G -> 2 sum_p G_p W_p for
    anti-Hermitian G, orthogonal to the symmetries."""
    def T(X):
        XW = X[:, None] @ Ws
        return XW - XW.conj().swapaxes(-1, -2)

    r = T(F)
    p = s = 2 * np.sum(r @ Ws, axis=1)
    gamma = np.sum(np.abs(s) ** 2, axis=(1, 2))
    for _ in range(POLISH_STEPS):
        q = T(p)
        alpha = gamma / np.maximum(np.sum(np.abs(q) ** 2, axis=(1, 2, 3)),
                                   1e-300)
        F, r = F - alpha[:, None, None] * p, r - alpha[:, None, None, None] * q
        s = 2 * np.sum(r @ Ws, axis=1)
        g = np.sum(np.abs(s) ** 2, axis=(1, 2))
        p, gamma = s + (g / np.maximum(gamma, 1e-300))[:, None, None] * p, g
    return F


def order_zero_symmetries(spec: WeightSpec,
                          n_points: Optional[int] = None) -> SymmetrySpace:
    """Orthonormal basis of constant solutions of F W(x) = W(x) F*."""
    N = spec.N
    min_pts = 3 * N
    if n_points is None:
        n_points = 3 * N + 10
    if n_points < min_pts:
        raise InvalidParam(f"need n_points >= {min_pts}")

    Ws, used = _weight_stack(spec, _sample_points(spec, n_points))
    if len(used) < min_pts:
        raise InvalidParam("support sampling left too few usable points")

    L = np.linalg.cholesky(Ws.sum(axis=0))
    Wt = np.linalg.solve(L, np.linalg.solve(L, Ws).conj().swapaxes(1, 2))
    # fixed, equidistributed r_i (a Weyl sequence): calls repeat exactly
    r = np.arange(1, len(Wt) + 1) * 0.6180339887498949 % 1.0 - 0.5
    lam, U = np.linalg.eigh(np.tensordot(r, Wt, 1))
    M = U.conj().T @ Wt @ U
    rows, (c, a, b) = _commutator_rows(M, *np.nonzero(np.triu(
        np.abs(lam[:, None] - lam) <= PAIR_WINDOW * np.ptp(lam))))
    _, svals, vt = np.linalg.svd(np.linalg.qr(rows, mode="r"))
    # sigma_0 alone is noise when every unknown is null
    scale = max(svals[0], np.linalg.norm(M))
    null = svals <= NULL_TOL * scale

    # F = L U (Z + Z*) U* L^-1, polished, orthonormal as real vectors
    Z = np.zeros((null.sum(), N, N), complex)
    np.add.at(Z, (slice(None), a, b), vt[null] * c)
    F = _polish(L @ U @ (Z + Z.conj().swapaxes(1, 2)) @ U.conj().T
                @ np.linalg.inv(L), Ws)
    V = np.linalg.qr(np.concatenate([F.real, F.imag], axis=1)
                     .reshape(len(F), -1).T)[0].T
    basis = [(v[:N * N] + 1j * v[N * N:]).reshape(N, N) for v in V]

    # the guard does not lean on the span bound: the relation is re-checked
    # on fresh points over the union of the supports, at least twice
    # 4N^2 + 10 of them, one basis matrix at a time
    lo, hi = zip(*(_truncated_support(s) for s in spec.scalars))
    fresh, _ = _weight_stack(spec, _chebyshev_points(
        min(lo), max(hi), 2 * max(n_points, 4 * N * N + 10), phase=0.25))
    worst = max((float(np.max(np.abs(B @ fresh - fresh @ B.conj().T),
                              initial=0.0)) for B in basis), default=0.0)
    if worst > VALIDATE_TOL:
        raise InvalidParam(f"symmetry basis failed validation ({worst:.2e}); "
                           "increase n_points")
    return SymmetrySpace(dimension=len(basis), basis=basis,
                         sample_points=used.tolist(),
                         singular_values=list(svals),
                         validation_residual=worst, null_scale=float(scale))


def _sample_inside(support, m=20):
    lo, hi = support
    lo = max(lo, -50.0) if lo != -inf else -8.0
    hi = min(hi, 50.0) if hi != inf else 8.0
    return _chebyshev_points(lo, hi, m, phase=0.1)


def try_reduce_2x2(spec: WeightSpec):
    """Scalar-sum reduction of a 2x2 weight, if w1/w2 = -a^2 (x-b)(x-c)
    with the support inside (b, c).

    Returns (b, c, M, description) with M W M* diagonal, or None.
    """
    if spec.N != 2:
        raise Unsupported("needs a 2x2 weight")
    w1, w2 = spec.scalars
    if w1.family == sf.CUSTOM or w2.family == sf.CUSTOM:
        raise Unsupported("needs classical scalar weights")
    if w1.support != w2.support:
        return None
    a = float(np.real(spec.a_params[0]))

    xs = _sample_inside(w1.support, 5)
    ratio = sf.weight_value(w1, xs) / sf.weight_value(w2, xs)
    q = np.polynomial.polynomial.polyfit(xs, ratio, 2)

    xv = _sample_inside(w1.support, 20)
    rv = sf.weight_value(w1, xv) / sf.weight_value(w2, xv)
    fit = np.polynomial.polynomial.polyval(xv, q)
    scale = np.max(np.abs(rv))
    if np.max(np.abs(fit - rv)) > 1e-10 * scale:
        return None                      # ratio is not a quadratic
    if abs(q[2] + a * a) > 1e-8 * a * a:
        return None                      # wrong leading coefficient
    roots = np.roots([q[2], q[1], q[0]])
    if np.max(np.abs(roots.imag)) > 1e-8 * (1 + np.max(np.abs(roots))):
        return None
    b, c = sorted(roots.real)
    lo, hi = w1.support
    if lo < b - 1e-9 or hi > c + 1e-9 or lo == -inf or hi == inf:
        return None                      # support not inside (b, c)

    M = np.array([[1.0 / (a * (b - c)), -b / (b - c)],
                  [1.0, -a * c]])
    D = M @ weight_eval(spec, xv) @ M.conj().T
    off = np.maximum(np.abs(D[:, 0, 1]), np.abs(D[:, 1, 0]))
    if np.any(off > 1e-10 * np.max(np.abs(D), axis=(1, 2))):
        return None
    desc = ("W congruent to diag(w2(x)(x-b)/(c-b), a^2 w2(x)(c-b)(c-x)) "
            f"with b={b:.12g}, c={c:.12g}")
    return b, c, M, desc


def try_reduce_3x3_w1w3(spec: WeightSpec):
    """Split of a 3x3 weight with w1 = w3 into a scalar plus a 2x2 block.

    Returns (M, description); M W M* = diag((a1^2+a2^2)/a2^2 w1, 2x2 block).
    """
    if spec.N != 3:
        raise Unsupported("needs a 3x3 weight")
    w1, w2, w3 = spec.scalars
    if w1 != w3:
        raise Unsupported("needs w1 = w3 (same family and parameters)")
    a1, a2 = (float(np.real(a)) for a in spec.a_params)
    s = a1 * a1 + a2 * a2
    M = np.array([[1.0, 0.0, -a1 / a2],
                  [0.0, 1.0, 0.0],
                  [a1 * a2 / s, 0.0, a2 * a2 / s]])

    lo = min(w.support[0] for w in spec.scalars)
    hi = max(w.support[1] for w in spec.scalars)
    xs = _sample_inside((lo, hi), 20)
    D = M @ weight_eval(spec, xs) @ M.conj().T
    off = np.max(np.abs(D[:, [0, 0, 1, 2], [1, 2, 0, 0]]), axis=1)
    top = np.max(np.abs(D), axis=(1, 2))
    if np.any(off > 1e-10 * top):
        raise InvalidParam("block structure failed numeric verification")
    want = s / (a2 * a2) * sf.weight_value(w1, xs)
    if np.any(np.abs(D[:, 0, 0] - want)
              > 1e-10 * np.maximum(top, np.abs(want))):
        raise InvalidParam("scalar block failed numeric verification")
    desc = ("W congruent to diag((a1^2+a2^2)/a2^2 w1(x), "
            "[[w2, a2 x w2], [a2 x w2, a2^2 x^2 w2 + a2^2/(a1^2+a2^2) w2]])")
    return M, desc
