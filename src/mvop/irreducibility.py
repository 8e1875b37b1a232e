"""Order-zero symmetries F W(x) = W(x) F* and explicit reductions.

A constant nonsingular F commuting with the weight in this twisted sense
witnesses a congruence of W to a direct sum; the identity always works, so
a symmetry space of dimension 1 means no order-zero reduction was
detected.  The defining relation is linear in (Re F, Im F) and is imposed
at sample points.  Every entry of W = T diag(w_1..w_N) T* with T = I + Ax
is a combination of the functions w_k(x) x^j, j <= 2, so span{W(x)} has
dimension at most 3N: a relation that holds at points whose W(x) span that
space holds on the whole support.  Each w_k vanishes off its own support,
and a narrow support inside a wide one would catch few points from a grid
over their union.  So the points are laid out per truncated support: 3
Chebyshev points for every scalar weight on it, plus a share of the spare
points (10 by default, 3N + 10 points in all).  The basis is re-checked on
a fresh, larger set of points spread over the union of the supports.
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

#: sample points per block of relation rows; the R factor is accumulated
#: block by block, so memory stays at a few blocks whatever n_points is
#: (N = 10 at 250 points: 298 MB process peak RSS in one QR, 88 MB in
#: blocks of 16; blocks of 4 reach 73 MB but run 1.3-1.4x longer than
#: blocks of 16 when OpenBLAS runs the QRs on two threads)
QR_BLOCK_POINTS = 16


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
    """Real span of constant matrices F with F W(x) = W(x) F* on the support."""

    dimension: int
    basis: list = field(repr=False)
    sample_points: list = field(repr=False)
    singular_values: list = field(repr=False)
    validation_residual: float = 0.0

    @property
    def reducible_at_order_zero(self) -> bool:
        return self.dimension >= 2

    @property
    def null_gap(self) -> float:
        """sigma_last_kept / sigma_first_null, the ratio across the NULL_TOL
        cut; a small value means the dimension was a near miss.  Both sides
        are non-empty: the identity is always a symmetry."""
        cut = len(self.singular_values) - self.dimension
        return float(self.singular_values[cut - 1] / self.singular_values[cut])

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


def _relation_rows(Ws: np.ndarray) -> np.ndarray:
    """Real matrix of (Re F, Im F) -> (Re G, Im G), G = FW - WF*, for every
    W in the stack Ws (P, N, N), stacked point by point: (P 2N^2, 2N^2).

    Row-major vec gives vec G = D vec F - T vec(conj F) with
    D = I (x) W^T and T = (W (x) I) K, K the commutation matrix: G_ij
    has W_lj F_il from D and -W_il conj(F_jl) from T.  With F = a + ib
    that is (D - T) a + i (D + T) b.  Columns: real parts of F
    (row-major), then imaginary parts; rows: Re G, then Im G.
    """
    P, N, _ = Ws.shape
    d = np.arange(N)
    WT = Ws.swapaxes(1, 2)
    # out[p, r, i, j, c, k, l]: part r of G_ij against part c of F_kl
    out = np.zeros((P, 2, N, N, 2, N, N))
    for c, (f, sign) in enumerate(((1.0, -1.0), (1j, 1.0))):
        for r, part in enumerate((np.real, np.imag)):
            out[:, r, d, :, c, d, :] = part(f * WT)             # D: k = i
            out[:, r, :, d, c, d, :] += sign * part(f * Ws)     # T: k = j
    return out.reshape(P * 2 * N * N, 2 * N * N)


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

    # the R factor has the singular values and right vectors of the rows:
    # R of [R_prev; rows of the next block] is R of all rows so far
    R = np.zeros((0, 2 * N * N))
    for i in range(0, len(Ws), QR_BLOCK_POINTS):
        R = np.linalg.qr(np.vstack([R, _relation_rows(
            Ws[i:i + QR_BLOCK_POINTS])]), mode="r")
    _, svals, vt = np.linalg.svd(R)
    null = svals <= NULL_TOL * svals[0]
    basis = [(v[:N * N] + 1j * v[N * N:]).reshape(N, N) for v in vt[null]]

    # the guard does not lean on the span bound: the relation is re-checked
    # on fresh points over the union of the supports, at least twice
    # 4N^2 + 10 of them
    lo, hi = zip(*(_truncated_support(s) for s in spec.scalars))
    lo, hi = min(lo), max(hi)
    fresh, _ = _weight_stack(spec, _chebyshev_points(
        lo, hi, 2 * max(n_points, 4 * N * N + 10), phase=0.25))
    worst = 0.0
    if basis and len(fresh):
        B = np.stack(basis)[:, None]                  # (d, 1, N, N)
        BH = B.conj().swapaxes(-1, -2)
        worst = float(np.max(np.abs(B @ fresh - fresh @ BH)))
    if worst > VALIDATE_TOL:
        raise InvalidParam(f"symmetry basis failed validation ({worst:.2e}); "
                           "increase n_points")
    return SymmetrySpace(dimension=len(basis), basis=basis,
                         sample_points=used.tolist(),
                         singular_values=list(svals),
                         validation_residual=worst)


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
