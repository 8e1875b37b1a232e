"""Weight matrices W = T diag(w_1..w_N) T* and the Gauss rules of their
inner product.

The inner product <P,Q> = int P W Q* dx is evaluated as <PT, QT> against
the diagonal weight: column k of the integrand sees only the scalar weight
w_k, so every integral is a polynomial against one scalar weight, and one
Gauss rule per scalar weight, with enough nodes for the highest degree a
sequence reaches, is exact for all of them.  ``InnerProductEngine`` holds
those rules, all of a sequence's taken in one pass;
``mvop_core.MVOPSequence`` evaluates every Q_n T column on them once and
forms the whole Gram block from that.  Mixed supports (e.g. a Hermite next
to a Laguerre weight) come for free since each column is integrated over
its own weight's support.
"""

from dataclasses import dataclass

import numpy as np

from . import scalar_families as sf
from .errors import DegreeCap, InvalidParam
from .matrix_poly import MatrixPolynomial

#: refuse inner products needing more Gauss nodes than this
NODE_CAP = 512


@dataclass(frozen=True)
class WeightSpec:
    """Size N, off-diagonal parameters a_1..a_{N-1}, and N scalar weights."""

    N: int
    a_params: tuple
    scalars: tuple  # N ScalarWeightSpec

    def __post_init__(self):
        if self.N < 2:
            raise InvalidParam("need size N >= 2")
        if len(self.a_params) != self.N - 1:
            raise InvalidParam(f"need {self.N - 1} off-diagonal parameters")
        if any(a == 0 for a in self.a_params):
            raise InvalidParam("all a_i must be nonzero")
        if len(self.scalars) != self.N:
            raise InvalidParam(f"need {self.N} scalar weights")


def weight_spec(a_params, scalars) -> WeightSpec:
    return WeightSpec(N=len(scalars), a_params=tuple(a_params),
                      scalars=tuple(scalars))


def build_nilpotent(spec: WeightSpec, exact: bool = False) -> np.ndarray:
    """The order-two nilpotent A with nonzeros at (2j-1,2j) and (2j+1,2j):
    float64 when every a_i is real, complex128 otherwise, or sympy entries
    (``exact_scalars.a_sympy``) when ``exact``.  Every float table built
    from A takes its dtype by numpy promotion, so a real A keeps them
    real."""
    N = spec.N
    if exact:
        import sympy as sp
        from .exact_scalars import a_sympy
        A = np.full((N, N), sp.Integer(0), dtype=object)
        a = [a_sympy(v) for v in spec.a_params]
    else:
        a = np.array([complex(v) for v in spec.a_params])
        a = a if a.imag.any() else a.real
        A = np.zeros((N, N), dtype=a.dtype)
    for j in range(1, N // 2 + 1):            # a_{2j-1} at (2j-1, 2j)
        A[2 * j - 2, 2 * j - 1] = a[2 * j - 2]
    for j in range(1, (N - 1) // 2 + 1):      # a_{2j} at (2j+1, 2j)
        A[2 * j, 2 * j - 1] = a[2 * j - 1]
    return A


def build_T(spec: WeightSpec, exact: bool = False):
    """T = I + A x and its inverse T^{-1} = I - A x (A^2 = 0)."""
    A = build_nilpotent(spec, exact=exact)
    eye = MatrixPolynomial.identity(spec.N, exact=exact)
    T = eye + MatrixPolynomial([A]).shift(1)
    T_inv = eye - MatrixPolynomial([A]).shift(1)
    return T, T_inv


def weight_eval(spec: WeightSpec, x) -> np.ndarray:
    """W(x) = T(x) diag(w_1(x), ..., w_N(x)) T(x)*; Hermitian PSD, and
    real symmetric (float64) when A is real.

    A float x gives one (N, N) matrix; an array of P points gives the
    (P, N, N) stack.  Each distinct scalar weight is evaluated once.
    """
    xs = np.asarray(x, dtype=float)
    pts = xs.reshape(-1)
    Tx = np.eye(spec.N) + build_nilpotent(spec) * pts[:, None, None]
    w = {s: sf.weight_value(s, pts) for s in dict.fromkeys(spec.scalars)}
    wd = np.stack([w[s] for s in spec.scalars], axis=-1)
    W = (Tx * wd[:, None, :]) @ Tx.conj().swapaxes(1, 2)
    return W[0] if xs.ndim == 0 else W


class InnerProductEngine:
    """Caches the Gauss rules of the scalar weights of one W.

    Rules are keyed by the scalar weight itself, so equal weights in
    different slots share one rule.  Every rule comes from the float
    recurrence of its weight: the one given for its slot where that
    reaches far enough, else one built for the rule.
    """

    def __init__(self, weight: WeightSpec, seqs=None):
        self.weight = weight
        self._seqs = seqs
        self._rules = {}

    def _recurrence(self, spec, m: int):
        if m > NODE_CAP:
            raise DegreeCap(f"Gauss rule needs {m} > {NODE_CAP} nodes")
        got = self._seqs[self.weight.scalars.index(spec)] if self._seqs \
            else None
        if got is None or got.n_max < m - 1:
            got = sf.recurrence_coefficients(spec, m - 1, backend="float")
        return got

    def rule(self, scalar_index: int, m: int):
        """(nodes, weights) of the m-point Gauss rule of w_{scalar_index+1}."""
        spec = self.weight.scalars[scalar_index]
        got = self._rules.get((spec, m))
        if got is None:
            nodes, weights, *_ = sf.gauss_rule([self._recurrence(spec, m)], m)
            got = self._rules.setdefault((spec, m), (nodes[0], weights[0]))
        return got

    def tables(self, m: int):
        """The m-point rules of every slot from one ``sf.gauss_rule`` pass
        over the distinct scalar weights: (row of each slot, nodes, vals,
        log_scale) with one row per distinct weight.  Each distinct
        weight's (nodes, weights) joins the cache ``rule`` reads, unless
        already there."""
        scalars = self.weight.scalars
        distinct = list(dict.fromkeys(scalars))
        nodes, weights, vals, log_scale = sf.gauss_rule(
            [self._recurrence(s, m) for s in distinct], m)
        for i, s in enumerate(distinct):
            self._rules.setdefault((s, m), (nodes[i], weights[i]))
        return [distinct.index(s) for s in scalars], nodes, vals, log_scale
