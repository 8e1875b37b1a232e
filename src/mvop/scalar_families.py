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

Two backends: ``float`` (binary64) and ``exact`` (rationals, for
classical families with rational parameters at small degree).  The exact
scalar layer lives in ``exact_scalars``, which only the exact branches
import: b_n, c_n and the norms are reduced (numerator, denominator) pairs
of Python ints, the moments' transcendental atoms are evaluated by mpmath,
and sympy is formed only by the readers that return it
(``MonicScalarSequence.b_coeffs`` and the like).  Norms are kept in log
space in the float backend to dodge factorial overflow.

Power coefficients of the monic polynomials come from one routine,
``power_table``, which runs the recurrence for a whole list of
sequences, in floats or in Python-int numerators over one denominator per
row; ``MonicScalarSequence.polynomial`` and the matrix sequences of
``mvop_core`` read its tables.  ``scalar_diff_operator`` gives each
family's second-order operator as plain coefficient lists (f_0, f_1,
f_2), which ``diff_operators.entries_to_operator`` turns into operators,
and its eigenvalue as a polynomial in n read from those lists.
"""

from dataclasses import dataclass, field
from math import gcd, inf, lcm, lgamma, log, pi
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Polynomial

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


@dataclass
class MonicScalarSequence:
    """Recurrence data for p_{n+1} = (x - b_n) p_n - c_n p_{n-1}: floats,
    or on the exact backend reduced (numerator, denominator) pairs of Python
    ints, with ||p_n||^2 = norms[n] times the moment's atom (see
    ``exact_scalars``).  The ``*_coeffs`` and norm readers give the exact
    values as sympy."""

    spec: ScalarWeightSpec
    backend: str
    n_max: int
    b: list                 # b_0 .. b_{n_max}
    c: list                 # c_1 .. c_{n_max}
    log_norms: list         # log ||p_n||^2, n = 0 .. n_max
    norms: Optional[list] = None
    atom: object = None
    _table: object = field(default=None, repr=False, compare=False)

    def _read(self, values):
        if self.backend != "exact":
            return values
        from sympy import Rational
        return [Rational(*v) for v in values]

    @property
    def b_coeffs(self) -> list:
        """b_0 .. b_{n_max}: floats, or sympy Rationals formed when read."""
        return self._read(self.b)

    @property
    def c_coeffs(self) -> list:
        """c_1 .. c_{n_max}: floats, or sympy Rationals formed when read."""
        return self._read(self.c)

    @property
    def norm_rationals(self) -> Optional[list]:
        """The exact ||p_n||^2 / atom, n = 0 .. n_max, as sympy Rationals
        (None when the sequence is float)."""
        if self.norms is not None:
            return self._read(self.norms)

    @property
    def exact_norms(self) -> Optional[list]:
        """Exact ||p_n||^2, n = 0 .. n_max, formed in sympy when read (None
        when the sequence is float)."""
        if self.norms is not None:
            from .exact_scalars import atom_sympy
            atom = atom_sympy(self.atom)
            return [q * atom for q in self.norm_rationals]

    def polynomial(self, n: int):
        """Coefficients (ascending) of the monic p_n, floats or sympy
        rationals: row n of the sequence's ``power_table``."""
        if n < 0 or n > self.n_max:
            raise OutOfRange(f"n={n} outside 0..{self.n_max}")
        tab = self._table
        if tab is None:
            tab = self._table = power_table([self], self.n_max)
        if self.backend != "exact":
            return tab[n + 1, :n + 1, 0].tolist()
        from sympy import Rational
        num, den = tab
        return [Rational(v, den[n + 1, 0]) for v in num[n + 1, :n + 1, 0]]


def power_table(seqs, n_hi: int):
    """Power coefficients of p_{-1}..p_{n_hi} of every sequence in
    ``seqs``, row 0 (p_{-1}) being zero, from the recurrence p_{n+1} = (x
    - b_n) p_n - c_n p_{n-1}.

    Float sequences give one array of shape (n_hi + 2, n_hi + 2,
    len(seqs)): entry [n + 1, p, k] is [x^p] p_n of sequence k.  Float
    coefficients past the float range (Laguerre near n = 170) are left
    infinite for the caller to refuse.

    Exact sequences (the first one decides) give (num, den): Python-int
    numerators shaped like the float table over one positive denominator
    per row and sequence, den[n + 1, k], each row reduced (the gcd of its
    numerators and its denominator is 1).  With p_n = P_n / D_n, b_n = bn
    / bd and c_n = cn / cd, a step places P_{n+1} over L = lcm(D_n bd, cd
    D_{n-1}) and divides out one gcd.  Float sequences run the recurrence
    all at once, exact ones on Python lists one at a time.
    """
    N = len(seqs)
    if seqs[0].backend == "exact":
        num = np.zeros((n_hi + 2, n_hi + 2, N), dtype=object)
        den = np.ones((n_hi + 2, N), dtype=object)
        num[1, 0] = 1
        for k, s in enumerate(seqs):
            (P, D), (back, Db) = ([1], 1), ([], 1)  # p_n = P / D, p_{n-1}
            for n in range(n_hi):
                (bn, bd), (cn, cd) = s.b[n], s.c[n - 1] if n else (0, 1)
                L = lcm(D * bd, cd * Db)
                x, f = L // D, bn * (L // (D * bd))
                g = cn * (L // (cd * Db))
                new = [0, *(v * x for v in P)]
                for i, v in enumerate(P):
                    new[i] -= f * v
                for i, v in enumerate(back):
                    new[i] -= g * v
                common = gcd(*new, L)
                (P, D), (back, Db) = ([v // common for v in new],
                                      L // common), (P, D)
                num[n + 2, :n + 2, k], den[n + 2, k] = P, D
        return num, den
    b = np.array([s.b[:n_hi] for s in seqs], dtype=float).T
    c = np.zeros((n_hi, N))
    c[1:] = np.array([s.c[:max(n_hi - 1, 0)] for s in seqs],
                     dtype=float).T
    tab = np.zeros((n_hi + 2, n_hi + 2, N))
    tab[1, 0] = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_hi):   # p_n has degree n: powers above stay 0
            p = tab[n + 1, :n + 1]
            tab[n + 2, 1:n + 2] = p
            tab[n + 2, :n + 1] -= b[n] * p
            tab[n + 2, :n] -= c[n] * tab[n, :n]
    return tab


def recurrence_coefficients(spec: ScalarWeightSpec, n_max: int,
                            backend: str = "float") -> MonicScalarSequence:
    """Three-term recurrence coefficients and log norms up to degree n_max."""
    if n_max < 0:
        raise InvalidParam("n_max must be nonnegative")
    if backend not in ("float", "exact"):
        raise InvalidParam(f"unknown backend {backend!r}")
    if backend == "exact":
        from .exact_scalars import sequence
        return sequence(spec, n_max)
    if spec.family == CUSTOM:
        if n_max > CUSTOM_DEGREE_CAP:
            raise InvalidParam(f"moment-supplied weights are capped at "
                               f"n_max <= {CUSTOM_DEGREE_CAP}")
        b, c = _chebyshev_from_moments(spec.moments, n_max)
    else:
        b, c = _classical_recurrence(spec, n_max)
    log_norms = [_log_moment0(spec)]
    for ck in c:
        log_norms.append(log_norms[-1] + log(ck))
    return MonicScalarSequence(spec=spec, backend=backend, n_max=n_max,
                               b=b, c=c, log_norms=log_norms)


def _classical_recurrence(spec, n_max):
    b0, al, be = spec.b, spec.alpha, spec.beta
    b, c = [], []
    for n in range(n_max + 1):
        if spec.family == HERMITE:
            b.append(float(b0))
            if n >= 1:
                c.append(n / 2)
        elif spec.family == LAGUERRE:
            b.append(2 * n + 1.0 + al)
            if n >= 1:
                c.append(float(n * (n + al)))
        else:  # Jacobi
            s = al + be
            if n == 0:
                # (b^2-a^2)/(s(s+2)) reduces to this; valid also when s = 0
                b.append((be - al) / (s + 2))
            else:
                b.append((be - al) * (be + al)
                         / ((2 * n + s) * (2 * n + s + 2)))
            if n == 1:  # n + s = 2n + s - 1 cancels: no 0/0 at s = -1
                c.append(4 * (1 + al) * (1 + be) / ((2 + s) ** 2 * (3 + s)))
            elif n >= 2:
                c.append(4 * n * (n + al) * (n + be) * (n + s)
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
    return b[:n_max + 1], c


#: rescale a node's recurrence values once they pass this magnitude
_RESCALE_AT = 2.0 ** 500


def gauss_rule(seqs, m: int):
    """m-point Gauss rules of the S float recurrences ``seqs``, each
    reaching degree m - 1, from one pass: (nodes, weights, vals,
    log_scale), nodes and weights of shape (S, m), and phat_k of recurrence
    s at node j as vals[k, s, j] exp(log_scale[s, j]).  Each rule is exact
    for polynomials of degree <= 2m - 1.

    Nodes are the eigenvalues of the symmetric Jacobi matrices (one
    batched ``eigvalsh``); weights are the Christoffel numbers lambda_j =
    1 / sum_{k<m} phat_k(x_j)^2.  The orthonormal recurrence phat_{k+1} =
    ((x - b_k) phat_k - sqrt(c_k) phat_{k-1}) / sqrt(c_{k+1}) runs on all
    nodes at once and is rescaled per node whenever a value passes 2^500,
    so Laguerre and Hermite values far out in the tails stay finite at
    every degree below ``NODE_CAP``; entries that a rescale pushes below
    the float range are negligible against the largest value at their
    node, and tail weights below the float range come out as 0 rather than
    NaN.  Reads each recurrence up to degree m - 1 only, so a
    moment-supplied weight needs 2m moments.
    """
    if m < 1:
        raise InvalidParam("need at least one node")
    b = np.array([s.b[:m] for s in seqs], dtype=float)
    rc = np.sqrt(np.array([s.c[:m - 1] for s in seqs], dtype=float))
    i = np.arange(m)
    J = np.zeros((len(seqs), m, m))
    J[:, i, i] = b
    J[:, i[:-1], i[1:]] = J[:, i[1:], i[:-1]] = rc
    x = np.linalg.eigvalsh(J)
    b, rc = b.T[:, :, None], rc.T[:, :, None]
    vals = np.empty((m, *x.shape))
    log_scale = np.repeat(-0.5 * np.array(
        [[float(s.log_norms[0])] for s in seqs]), m, axis=1)
    vals[0] = 1.0
    for k in range(m - 1):
        nxt = (x - b[k]) * vals[k]
        if k >= 1:
            nxt -= rc[k - 1] * vals[k - 1]
        vals[k + 1] = nxt / rc[k]
        big = np.abs(vals[k + 1]) > _RESCALE_AT
        if big.any():
            f = np.abs(vals[k + 1, big])
            vals[:k + 2, big] /= f
            log_scale[big] += np.log(f)
    weights = np.exp(-2.0 * log_scale - np.log(np.sum(vals ** 2, axis=0)))
    return x, weights, vals, log_scale


def scalar_diff_operator(spec: ScalarWeightSpec):
    """Coefficient lists (f_0, f_1, f_2) of the right-acting operator
    sum_j d^j/dx^j . f_j(x) with p_n as eigenfunctions, plus its
    eigenvalue lambda(n) = f_0[0] + (f_1[1] - f_2[2]) n + f_2[2] n^2 (the
    x^n coefficient of x^n . D) as a ``numpy.polynomial.Polynomial`` in n,
    read from the same lists."""
    if spec.family == HERMITE:
        fs = [0], [2.0 * spec.b, -2.0], [1.0]
    elif spec.family == LAGUERRE:
        fs = [0], [spec.alpha + 1.0, -1.0], [0.0, 1.0]
    elif spec.family == JACOBI:
        a, b = spec.alpha, spec.beta
        fs = [0], [b - a, -(a + b + 2.0)], [1.0, 0.0, -1.0]
    else:
        raise Unsupported("no differential operator for moment-supplied "
                          "weights")
    f22 = fs[2][2] if len(fs[2]) > 2 else 0.0
    return fs, Polynomial([fs[0][0], fs[1][1] - f22, f22])
