"""Monic orthogonal polynomial sequences for scalar weights.

Covers the shifted Hermite, Laguerre and Jacobi families (closed-form
recurrences and norms) plus weights given by raw moments (Chebyshev
algorithm).  Gauss rules take their nodes from the eigenvalues of the
symmetric Jacobi matrix and their weights from the Christoffel function
lambda_j = 1 / sum_{k<m} phat_k(x_j)^2, with phat_k the orthonormal
polynomials evaluated by their recurrence (Gautschi, Orthogonal
Polynomials, 2004, section 3.1).  Unlike the squared first components of
the Golub-Welsch eigenvectors, these weights keep their relative accuracy
in the tails, where the eigenvector entries are only accurate in absolute
terms.

Two backends: ``float`` (binary64) and ``exact`` (sympy rationals, for
classical families with rational parameters at small degree).  Norms are
kept in log space in the float backend to dodge factorial overflow.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import inf, lgamma, log, pi
from typing import Callable, Optional

import numpy as np
import sympy as sp

from . import _poly
from .errors import IllConditioned, InvalidParam, OutOfRange, Unsupported

HERMITE = "hermite"
LAGUERRE = "laguerre"
JACOBI = "jacobi"
CUSTOM = "custom"

CLASSICAL = (HERMITE, LAGUERRE, JACOBI)

#: hard cap for moment-supplied weights; raw-moment maps are exponentially
#: ill-conditioned past this point.
CUSTOM_DEGREE_CAP = 20


@dataclass(frozen=True)
class ScalarWeightSpec:
    """One scalar weight: family, parameters and support interval.

    ``scale`` multiplies the density; it leaves the orthogonal polynomials
    untouched and scales every norm.
    """

    family: str
    b: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    moments: Optional[tuple] = None
    support: tuple = (-inf, inf)
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in CLASSICAL + (CUSTOM,):
            raise InvalidParam(f"unknown family {self.family!r}")
        if self.scale <= 0:
            raise InvalidParam("scale must be positive")
        if self.family in (LAGUERRE, JACOBI) and self.alpha <= -1:
            raise InvalidParam("alpha must be > -1")
        if self.family == JACOBI and self.beta <= -1:
            raise InvalidParam("beta must be > -1")
        if self.family == CUSTOM:
            if not self.moments:
                raise InvalidParam("custom weight needs a moment sequence")
            if self.moments[0] <= 0:
                raise InvalidParam("zeroth moment must be positive")


def hermite(b: float = 0.0, scale: float = 1.0) -> ScalarWeightSpec:
    """Shifted Hermite weight e^{-x^2+2bx} on the whole line."""
    return ScalarWeightSpec(HERMITE, b=b, support=(-inf, inf), scale=scale)


def laguerre(alpha: float, scale: float = 1.0) -> ScalarWeightSpec:
    """Laguerre weight e^{-x} x^alpha on (0, inf)."""
    return ScalarWeightSpec(LAGUERRE, alpha=alpha, support=(0.0, inf), scale=scale)


def jacobi(alpha: float, beta: float, scale: float = 1.0) -> ScalarWeightSpec:
    """Jacobi weight (1-x)^alpha (1+x)^beta on (-1, 1)."""
    return ScalarWeightSpec(JACOBI, alpha=alpha, beta=beta, support=(-1.0, 1.0),
                            scale=scale)


def custom(moments, support) -> ScalarWeightSpec:
    """Weight known only through its raw moments on the given interval."""
    return ScalarWeightSpec(CUSTOM, moments=tuple(moments),
                            support=(float(support[0]), float(support[1])))


def weight_value(spec: ScalarWeightSpec, x):
    """Density at x (a float, or elementwise over an array); zero outside
    the (open) support interval."""
    if spec.family == CUSTOM:
        raise Unsupported("no closed-form density for a moment-supplied "
                          "weight")
    x = np.asarray(x, dtype=float)
    lo, hi = spec.support
    with np.errstate(all="ignore"):         # points off the support drop out
        if spec.family == HERMITE:
            w = np.exp(-x * x + 2.0 * spec.b * x)
        elif spec.family == LAGUERRE:
            w = np.exp(-x) * x ** spec.alpha
        else:
            w = (1.0 - x) ** spec.alpha * (1.0 + x) ** spec.beta
    out = np.where((lo < x) & (x < hi), spec.scale * w, 0.0)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=1024)
def _rat(x):
    """x as a sympy Rational; every exact-backend parameter goes through
    here, and a sequence only ever meets a handful of distinct ones."""
    return sp.nsimplify(x, rational=True)


def _log_moment0(spec: ScalarWeightSpec) -> float:
    if spec.family == HERMITE:
        return log(spec.scale) + 0.5 * log(pi) + spec.b ** 2
    if spec.family == LAGUERRE:
        return log(spec.scale) + lgamma(spec.alpha + 1.0)
    if spec.family == JACOBI:
        a, b = spec.alpha, spec.beta
        return (log(spec.scale) + (a + b + 1.0) * log(2.0)
                + lgamma(a + 1.0) + lgamma(b + 1.0) - lgamma(a + b + 2.0))
    return log(spec.moments[0])


def _exact_moment0(spec: ScalarWeightSpec):
    scale = _rat(spec.scale)
    if spec.family == HERMITE:
        b = _rat(spec.b)
        return scale * sp.sqrt(sp.pi) * sp.exp(b ** 2)
    if spec.family == LAGUERRE:
        return scale * sp.gamma(_rat(spec.alpha) + 1)
    if spec.family == JACOBI:
        a, b = _rat(spec.alpha), _rat(spec.beta)
        return scale * 2 ** (a + b + 1) * sp.beta(a + 1, b + 1)
    return _rat(spec.moments[0])


def _prefactor_tag(spec: ScalarWeightSpec) -> str:
    return {HERMITE: "sqrt(pi)*exp(b^2)",
            LAGUERRE: "Gamma(alpha+1)",
            JACOBI: "2^(alpha+beta+1)*B(alpha+1,beta+1)",
            CUSTOM: "moment0"}[spec.family]


@dataclass
class MonicScalarSequence:
    """Recurrence data for p_{n+1} = (x - b_n) p_n - c_n p_{n-1}."""

    spec: ScalarWeightSpec
    backend: str
    n_max: int
    b_coeffs: list          # b_0 .. b_{n_max}
    c_coeffs: list          # c_1 .. c_{n_max}
    log_norms: list         # log ||p_n||^2, n = 0 .. n_max
    norm_prefactor: str
    exact_norms: Optional[list] = None
    _polys: list = field(default_factory=list, repr=False)

    def polynomial(self, n: int):
        """Coefficients (ascending) of the monic p_n.

        The table is extended on a local copy and published with one
        assignment, so threads sharing the sequence never see a list that
        another thread is still filling.
        """
        if n < 0 or n > self.n_max:
            raise OutOfRange(f"n={n} outside 0..{self.n_max}")
        polys = self._polys
        if len(polys) <= n:
            one = sp.Integer(1) if self.backend == "exact" else 1.0
            polys = list(polys) or [[one]]
            while len(polys) <= n:
                k = len(polys) - 1  # have p_k, build p_{k+1}
                nxt = _poly.sub(_poly.mul([-self.b_coeffs[k], 1], polys[k]),
                                _poly.scale(polys[k - 1], self.c_coeffs[k - 1])
                                if k >= 1 else [0])
                polys.append(nxt)
            self._polys = polys
        return list(polys[n])


def recurrence_coefficients(spec: ScalarWeightSpec, n_max: int,
                            backend: str = "float") -> MonicScalarSequence:
    """Three-term recurrence coefficients and log norms up to degree n_max."""
    if n_max < 0:
        raise InvalidParam("n_max must be nonnegative")
    if backend not in ("float", "exact"):
        raise InvalidParam(f"unknown backend {backend!r}")
    if spec.family == CUSTOM:
        if backend == "exact":
            raise Unsupported("exact backend needs a classical family")
        if n_max > CUSTOM_DEGREE_CAP:
            raise InvalidParam(f"moment-supplied weights are capped at "
                               f"n_max <= {CUSTOM_DEGREE_CAP}")
        b, c = _chebyshev_from_moments(spec.moments, n_max)
    else:
        b, c = _classical_recurrence(spec, n_max, backend)

    if backend == "exact":
        m0 = _exact_moment0(spec)
        exact_norms = [m0]
        for ck in c:
            exact_norms.append(sp.expand(exact_norms[-1] * ck))
        # unevaluated log: evalf rounds it as float(sp.log(v)) would,
        # without first simplifying the log of a product
        log_norms = [float(sp.log(v, evaluate=False)) for v in exact_norms]
    else:
        exact_norms = None
        log_norms = [_log_moment0(spec)]
        for ck in c:
            log_norms.append(log_norms[-1] + log(ck))
    return MonicScalarSequence(spec=spec, backend=backend, n_max=n_max,
                               b_coeffs=b, c_coeffs=c, log_norms=log_norms,
                               norm_prefactor=_prefactor_tag(spec),
                               exact_norms=exact_norms)


def _classical_recurrence(spec, n_max, backend):
    if backend == "exact":
        one = sp.Integer(1)
        b0 = _rat(spec.b)
        al = _rat(spec.alpha)
        be = _rat(spec.beta)
    else:
        one = 1.0
        b0, al, be = spec.b, spec.alpha, spec.beta
    b, c = [], []
    for n in range(n_max + 1):
        if spec.family == HERMITE:
            b.append(b0 * one)
            if n >= 1:
                c.append(n * one / 2)
        elif spec.family == LAGUERRE:
            b.append((2 * n + 1) * one + al)
            if n >= 1:
                c.append(n * (n + al) * one)
        else:  # Jacobi
            s = al + be
            if n == 0:
                # (b^2-a^2)/(s(s+2)) reduces to this; valid also when s = 0
                b.append((be - al) * one / (s + 2))
            else:
                b.append((be - al) * (be + al) * one
                         / ((2 * n + s) * (2 * n + s + 2)))
            if n >= 1:
                c.append(4 * n * (n + al) * (n + be) * (n + s) * one
                         / ((2 * n + s) ** 2 * (2 * n + s + 1) * (2 * n + s - 1)))
    return b, c


def _chebyshev_from_moments(moments, n_max):
    """Chebyshev algorithm: recurrence coefficients from raw moments.

    Follows Gautschi.  Breakdown of positivity of the diagonal sigma's
    means the Hankel matrix is numerically indefinite.
    """
    need = 2 * n_max + 2
    if len(moments) < need:
        raise InvalidParam(f"need {need} moments for n_max={n_max}, "
                           f"got {len(moments)}")
    m = [float(x) for x in moments[:need]]
    L = need
    sig_prev = [0.0] * L
    sig = list(m)
    b = [m[1] / m[0]]
    c = []
    norms = [m[0]]
    for k in range(1, n_max + 1):
        new = [0.0] * L
        for l in range(k, 2 * n_max + 2 - k):
            new[l] = (sig[l + 1] - b[k - 1] * sig[l]
                      - (c[k - 2] * sig_prev[l] if k >= 2 else 0.0))
        if not np.isfinite(new[k]) or new[k] <= 0.0 or sig[k - 1] <= 0.0:
            raise IllConditioned(f"moment map broke down at degree {k}")
        c.append(new[k] / sig[k - 1])
        b.append(new[k + 1] / new[k] - sig[k] / sig[k - 1])
        sig_prev, sig = sig, new
        norms.append(norms[-1] * c[-1])
    return b[:n_max + 1], c


def squared_norm_log(seq: MonicScalarSequence, n: int) -> float:
    """log ||p_n||^2."""
    if n < 0 or n > seq.n_max:
        raise OutOfRange(f"n={n} outside 0..{seq.n_max}")
    return seq.log_norms[n]


def squared_norm_exact(seq: MonicScalarSequence, n: int):
    """Exact ||p_n||^2 as a sympy expression (exact backend only)."""
    if seq.exact_norms is None:
        raise Unsupported("sequence was built with the float backend")
    if n < 0 or n > seq.n_max:
        raise OutOfRange(f"n={n} outside 0..{seq.n_max}")
    return seq.exact_norms[n]


#: rescale a node's recurrence values once they pass this magnitude
_RESCALE_AT = 2.0 ** 500


def orthonormal_values(seq: MonicScalarSequence, x, count: int):
    """Orthonormal phat_0..phat_{count-1} at the points x, in scaled form.

    Returns (vals, log_scale) with phat_k(x_j) = vals[k, j] *
    exp(log_scale[j]).  The recurrence phat_{k+1} = ((x - b_k) phat_k -
    sqrt(c_k) phat_{k-1}) / sqrt(c_{k+1}) is rescaled per point whenever
    a value passes 2^500, so Laguerre and Hermite values far out in the
    tails stay finite at every degree below ``NODE_CAP``; entries that
    a rescale pushes below the float range are negligible against the
    largest value at their point.
    """
    if count < 1 or count > seq.n_max + 1:
        raise OutOfRange(f"count={count} outside 1..{seq.n_max + 1}")
    x = np.asarray(x, dtype=float)
    b = np.asarray(seq.b_coeffs, dtype=float)
    rc = np.sqrt(np.asarray(seq.c_coeffs, dtype=float))    # sqrt(c_1..)
    vals = np.empty((count, len(x)))
    log_scale = np.full(len(x), -0.5 * float(seq.log_norms[0]))
    vals[0] = 1.0
    for k in range(count - 1):
        nxt = (x - b[k]) * vals[k]
        if k >= 1:
            nxt -= rc[k - 1] * vals[k - 1]
        vals[k + 1] = nxt / rc[k]
        big = np.abs(vals[k + 1]) > _RESCALE_AT
        if big.any():
            f = np.abs(vals[k + 1, big])
            vals[:k + 2, big] /= f
            log_scale[big] += np.log(f)
    return vals, log_scale


def gauss_rule(spec: ScalarWeightSpec, m: int):
    """m-point Gauss rule (nodes, weights) for the weight of ``spec``.

    Nodes are the eigenvalues of the symmetric Jacobi matrix; weights are
    the Christoffel numbers lambda_j = 1 / sum_{k<m} phat_k(x_j)^2, formed
    from scaled recurrence values, so tail weights below the float range
    come out as 0 rather than NaN.  Exact for polynomials of degree
    <= 2m - 1.
    """
    if m < 1:
        raise InvalidParam("need at least one node")
    seq = recurrence_coefficients(spec, m, backend="float")
    J = np.diag(np.asarray(seq.b_coeffs[:m], dtype=float))
    if m > 1:
        off = np.sqrt(np.asarray(seq.c_coeffs[:m - 1], dtype=float))
        J += np.diag(off, 1) + np.diag(off, -1)
    nodes = np.linalg.eigvalsh(J)
    vals, log_scale = orthonormal_values(seq, nodes, m)
    weights = np.exp(-2.0 * log_scale - np.log(np.sum(vals ** 2, axis=0)))
    return nodes, weights


@dataclass(frozen=True)
class ScalarDiffOperator:
    """Right-acting scalar operator sum_j d^j/dx^j . f_j(x), order <= 2."""

    fs: tuple  # coefficient lists for f_0, f_1, f_2

    def apply(self, p):
        out = [0]
        for j, fj in enumerate(self.fs):
            out = _poly.add(out, _poly.mul(_poly.derivative(p, j), fj))
        return out


def scalar_diff_operator(spec: ScalarWeightSpec):
    """Second-order operator with p_n as eigenfunctions, plus its eigenvalue map."""
    if spec.family == HERMITE:
        op = ScalarDiffOperator(([0], [2.0 * spec.b, -2.0], [1.0]))
        return op, lambda n: -2.0 * n
    if spec.family == LAGUERRE:
        op = ScalarDiffOperator(([0], [spec.alpha + 1.0, -1.0], [0.0, 1.0]))
        return op, lambda n: -float(n)
    if spec.family == JACOBI:
        a, b = spec.alpha, spec.beta
        op = ScalarDiffOperator(([0], [b - a, -(a + b + 2.0)], [1.0, 0.0, -1.0]))
        return op, lambda n: -n * (n + a + b + 1.0)
    raise Unsupported("no differential operator for moment-supplied weights")
