"""Order-zero symmetries F W(x) = W(x) F* and explicit reductions.

A constant nonsingular F commuting with the weight in this twisted sense
witnesses a congruence of W to a direct sum; the identity always works, so
a symmetry space of dimension 1 means no order-zero reduction was
detected (Tirao & Zurrian, Ramanujan J. 45, 2018).  With T = I + Ax,
W = sum_k w_k(x) t_k t_k* where t_k = e_k + x A e_k.  Slots whose weights
differ by a polynomial factor form one class with a base weight w_g:
Hermite weights with equal b, Laguerre weights with alpha equal mod 1
(w_{alpha+j} = x^j w_alpha), Jacobi weights with alpha and beta equal mod 1
(factors (1-x)^i (1+x)^j).  So W = sum_g w_g(x) Pi_g(x), where Pi_g =
sum_j x^j G_gj is a matrix polynomial, formed for all slots of a class at
once: a table of the polynomials f_k = w_k / w_g against a stack of the
three terms of each t_k t_k*.  Since the functions w_g x^j are linearly
independent, F W = W F* holds on the whole support exactly when
F G = G F* for every coefficient matrix G = G_gj, the generators of W.
With S = sum_i W(x_i) = L L* over sample points, a combination of the
generators, the Gt = L^-1 G L^-* span a space that holds I, so F is a
solution exactly when L^-1 F L is Hermitian and commutes with every Gt,
hence with H = sum_g r_g Gt_g: in an eigenbasis of H it lives on pairs of
equal eigenvalues (Murota, Kanno, Kojima & Kojima, Japan J. Indust. Appl.
Math. 27, 2010).  The basis is checked on the generators.
"""

from collections import Counter
from dataclasses import dataclass, field
from math import comb, inf

import numpy as np

from . import scalar_families as sf
from .errors import InvalidParam, Unsupported
from .weight_model import WeightSpec, build_nilpotent, weight_eval

NULL_TOL = 1e-10
VALIDATE_TOL = 1e-9
#: parameters this close to a whole step apart share a class
#: (divmod(1.1, 1.0) leaves 0.10000000000000009)
CLASS_TOL = 1e-9

#: eigenvalue pairs of H closer than PAIR_WINDOW times the spread get
#: unknowns, as eigenvectors are off by about eps spread / gap.  Over 140
#: configs (20 seeds of the benchmark's symmetry workload), equal eigenvalues
#: alone gave 12 wrong dimensions, 1e-6 residuals up to 2e-11, 0.05 1.1e-15
PAIR_WINDOW = 0.05
#: CGLS steps that take out the rounding amplified by L (residual on the
#: generators over 300 mixed 2-6 sized weights: up to 1.6e-14 unpolished,
#: 5.6e-16 polished)
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
    one singular value per unknown, null when <= NULL_TOL * null_scale.
    ``generators`` counts the coefficient matrices of W the relation was
    solved on."""

    dimension: int
    basis: list = field(repr=False)
    sample_points: list = field(repr=False)
    singular_values: list = field(repr=False)
    validation_residual: float = 0.0
    null_scale: float = 1.0
    generators: int = 0

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


def _weight_classes(spec: WeightSpec):
    """[(w_g, Pi_g)] with W(x) = sum_g w_g(x) Pi_g(x): the base weight of
    each class (scale 1, parameters at the class minimum) and the (deg + 1,
    N, N) power coefficients of Pi_g = sum_k f_k(x) t_k t_k*, f_k = w_k /
    w_g.  The f_k form one (slots, degree) table: binomial rows of (1 -
    x)^i (1 + x)^j for Jacobi, x^i for Laguerre, 1 for Hermite, times the
    slot's scale.  With c_k = A e_k, t_k t_k* = e_k e_k* + x (e_k c_k* + c_k
    e_k*) + x^2 c_k c_k*, whose three terms form one (3, slots, N, N) stack.
    Each slot's terms touch disjoint entries, so its part of Pi_g is exact,
    and the parts are summed in slot order: Pi_g comes out bit for bit as a
    slot-by-slot loop adds it (a BLAS contraction over the slots would not
    keep that where two or three slots meet on a diagonal entry).  A
    coefficient that cancels to at most NULL_TOL times its largest term
    (over the same tables) is set to 0: with w_1 = a^2 (1 - x^2) w_2 and
    a_1 = a, the x^2 terms of the two slots cancel up to rounding."""
    classes = []                # [(family, [(slot, params)])]
    for k, s in enumerate(spec.scalars):
        if s.family == sf.CUSTOM:
            raise Unsupported("symmetries need closed-form scalar weights, "
                              "not a moment-supplied one")
        p = {sf.HERMITE: (s.b,), sf.LAGUERRE: (s.alpha,),
             sf.JACOBI: (s.alpha, s.beta)}[s.family]
        for fam, slots in classes:
            d = [u - v for u, v in zip(p, slots[0][1])]
            if fam == s.family and all(
                    abs(e - (0.0 if fam == sf.HERMITE else round(e)))
                    <= CLASS_TOL for e in d):
                slots.append((k, p))
                break
        else:
            classes.append((s.family, [(k, p)]))

    A, N = build_nilpotent(spec), spec.N
    out = []
    for fam, slots in classes:
        ks = [k for k, _ in slots]
        low = [min(v) for v in zip(*(p for _, p in slots))]
        steps = [[round(u - v) for u, v in zip(p, low)] for _, p in slots]
        # f_k = w_k / w_g: one row per slot, power coefficients
        f = np.zeros((len(ks), max(map(sum, steps)) + 1))
        if fam == sf.JACOBI:            # (1 - x)^i (1 + x)^j
            f[:] = [[sum((-1) ** a * comb(i, a) * comb(j, d - a)
                         for a in range(min(i, d) + 1))
                     for d in range(len(f[0]))] for i, j in steps]
        else:                           # x^i, or 1 for Hermite
            f[range(len(ks)), [i[0] for i in steps]] = 1.0
        f *= [[spec.scalars[k].scale] for k in ks]
        # e_k e_k*, e_k c_k* + c_k e_k* and c_k c_k* of each slot, c_k = A e_k
        r, c = range(len(ks)), A[:, ks].T
        E = np.zeros((3, len(ks), N, N), complex)
        E[0, r, ks, ks] = 1.0
        E[1, r, ks, :] = c.conj()
        E[1, r, :, ks] += c
        E[2] = c[:, :, None] * c.conj()[:, None, :]
        # a slot's three terms touch disjoint entries, so its part of Pi is
        # exact; the parts are added in slot order, as a slot loop adds them
        fs = np.zeros((3, len(ks), len(f[0]) + 2))    # x^m f_k
        part = np.zeros((len(ks), len(f[0]) + 2, N, N), complex)
        for m in range(3):
            fs[m, :, m:m + len(f[0])] = f
            part += fs[m, :, :, None, None] * E[m][:, None]
        Pi = part.sum(axis=0)
        terms = np.max(np.abs(fs) * np.max(np.abs(E), axis=(2, 3))[..., None],
                       axis=(0, 1))
        Pi[np.max(np.abs(Pi), axis=(1, 2)) <= NULL_TOL * terms] = 0.0
        base = {sf.HERMITE: sf.hermite, sf.LAGUERRE: sf.laguerre,
                sf.JACOBI: sf.jacobi}[fam](*low)
        out.append((base, Pi))
    return out


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


def _twisted(F, Gs):
    """F_d G_p - G_p F_d* for the Hermitian stack Gs, with the generators
    side by side: (d, N, P, N), term (d, p) at [d, :, p, :]."""
    d, N, _ = F.shape
    X = (F @ np.concatenate(Gs, axis=1)).reshape(d, N, len(Gs), N)
    return X - X.transpose(0, 3, 2, 1).conj()


def _polish(F, Gs):
    """F after POLISH_STEPS CGLS steps on min ||T(F)||, T = ``_twisted``;
    the steps lie in the range of T*: R -> 2 sum_p R_p G_p for
    anti-Hermitian R, orthogonal to the symmetries.  The sum is one matmul
    of the side-by-side R_p against the stacked G_p."""
    Gv = Gs.reshape(-1, Gs.shape[2])

    def adjoint(r):
        return 2 * (r.reshape(len(r), len(Gv[0]), -1) @ Gv)

    def sq(X):
        v = X.reshape(len(X), -1).view(float)
        return np.einsum("ij,ij->i", v, v)

    r = _twisted(F, Gs)
    p = s = adjoint(r)
    gamma = sq(s)
    for _ in range(POLISH_STEPS):
        q = _twisted(p, Gs)
        alpha = gamma / np.maximum(sq(q), 1e-300)
        F, r = F - alpha[:, None, None] * p, r - alpha[:, None, None, None] * q
        s = adjoint(r)
        g = sq(s)
        p, gamma = s + (g / np.maximum(gamma, 1e-300))[:, None, None] * p, g
    return F


def order_zero_symmetries(spec: WeightSpec) -> SymmetrySpace:
    """Orthonormal basis of constant solutions of F W(x) = W(x) F*, solved
    on the generators of W and normalized by W summed over 3N + 10 sample
    points."""
    N = spec.N
    Gs = np.concatenate([Pi for _, Pi in _weight_classes(spec)])
    top = np.max(np.abs(Gs), axis=(1, 2))
    Gs = Gs[top > 0] / top[top > 0, None, None]
    Ws, used = _weight_stack(spec, _sample_points(spec, 3 * N + 10))
    if len(used) < 3 * N:
        raise InvalidParam("support sampling left too few usable points")

    L = np.linalg.cholesky(Ws.sum(axis=0))
    Gt = np.linalg.solve(L, np.linalg.solve(L, Gs).conj().swapaxes(1, 2))
    # fixed, equidistributed r_g (a Weyl sequence): calls repeat exactly
    r = np.arange(1, len(Gt) + 1) * 0.6180339887498949 % 1.0 - 0.5
    lam, U = np.linalg.eigh(np.tensordot(r, Gt, 1))
    M = U.conj().T @ Gt @ U
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
                @ np.linalg.inv(L), Gs)
    V = np.linalg.qr(np.concatenate([F.real, F.imag], axis=1)
                     .reshape(len(F), -1).T)[0].T
    B = (V[:, :N * N] + 1j * V[:, N * N:]).reshape(-1, N, N)

    # the relation on every generator is the relation on the whole support
    worst = float(np.max(np.abs(_twisted(B, Gs)), initial=0.0))
    if worst > VALIDATE_TOL:
        raise InvalidParam(f"symmetry basis failed on the generators of W "
                           f"({worst:.2e})")
    return SymmetrySpace(dimension=len(B), basis=list(B),
                         sample_points=used.tolist(),
                         singular_values=list(svals),
                         validation_residual=worst, null_scale=float(scale),
                         generators=len(Gs))


def _sample_inside(support, m=20):
    lo, hi = support
    lo = max(lo, -50.0) if lo != -inf else -8.0
    hi = min(hi, 50.0) if hi != inf else 8.0
    return _chebyshev_points(lo, hi, m, phase=0.1)


def _real_a(spec: WeightSpec):
    """(r, u) with W(a) = U W(r) U*, U = diag(u), for N <= 3, where each row
    of A holds at most one a_i: r_i = a_i where a_i is real and |a_i|
    otherwise, and u holds a_i / r_i on the row of a_i's entry in A (rows 0
    and 2; 1 for a real a_i) and 1 on row 1, so u is real when a is.  A
    template solved at r gives M(a) = M(r) U*."""
    a = [complex(v) for v in spec.a_params]
    r = [v.real if v.imag == 0 else abs(v) for v in a]
    u = [v / s if v.imag else 1.0 for v, s in zip(a, r)]
    return r, np.array([u[0], 1.0, *u[1:]][:spec.N])


def try_reduce_2x2(spec: WeightSpec):
    """Scalar-sum reduction of a 2x2 weight, read off its parameters.

    With w1/w2 = -a^2 (x-b)(x-c) and the support inside (b, c), W is
    congruent to a diagonal weight.  Among the classical families only
    Jacobi weights have bounded support, and a ratio of two Jacobi weights
    is such a quadratic only when w1 = a^2 (1 - x^2) w2: alpha and beta of
    w1 one step above those of w2 (within CLASS_TOL) and scales s1 = a^2
    s2 (within 1e-8 relative), with |a| in place of a complex a.  Then b =
    -1 and c = 1, and M W M* is checked diagonal at 20 sample points.

    Returns (b, c, M, description) with M W M* diagonal, or None.
    """
    if spec.N != 2:
        raise Unsupported("needs a 2x2 weight")
    w1, w2 = spec.scalars
    if w1.family == sf.CUSTOM or w2.family == sf.CUSTOM:
        raise Unsupported("needs classical scalar weights")
    (a,), u = _real_a(spec)
    if not (w1.family == w2.family == sf.JACOBI
            and abs(w1.alpha - w2.alpha - 1.0) <= CLASS_TOL
            and abs(w1.beta - w2.beta - 1.0) <= CLASS_TOL
            and abs(w1.scale / w2.scale - a * a) <= 1e-8 * a * a):
        return None
    b, c = -1.0, 1.0

    M = np.array([[1.0 / (a * (b - c)), -b / (b - c)],
                  [1.0, -a * c]]) * u.conj()
    xv = _sample_inside(w1.support, 20)
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
    (a1, a2), u = _real_a(spec)
    s = a1 * a1 + a2 * a2
    M = np.array([[1.0, 0.0, -a1 / a2],
                  [0.0, 1.0, 0.0],
                  [a1 * a2 / s, 0.0, a2 * a2 / s]]) * u.conj()

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
