"""Weight matrices W = T diag(w_1..w_N) T* and the Gauss rules of their
inner product.

The inner product <P,Q> = int P W Q* dx is evaluated as <PT, QT> against
the diagonal weight: column k of the integrand sees only the scalar weight
w_k, so every integral is a polynomial against one scalar weight, and one
Gauss rule per scalar weight, with enough nodes for the highest degree a
sequence reaches, is exact for all of them.  ``InnerProductEngine`` holds
those rules; ``mvop_core.MVOPSequence`` evaluates every Q_n T column on
them once and forms the whole Gram block from that.  Mixed supports (e.g.
a Hermite next to a Laguerre weight) come for free since each column is
integrated over its own weight's support.
"""

from dataclasses import dataclass

import numpy as np
import sympy as sp

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
    """The order-two nilpotent A with nonzeros at (2j-1,2j) and (2j+1,2j)."""
    N = spec.N
    A = np.zeros((N, N), dtype=object if exact else complex)
    if exact:
        A[:] = sp.Integer(0)
    a = [sf._rat(v) if exact else complex(v) for v in spec.a_params]
    for j in range(1, N // 2 + 1):            # a_{2j-1} at (2j-1, 2j)
        A[2 * j - 2, 2 * j - 1] = a[2 * j - 2]
    for j in range(1, (N - 1) // 2 + 1):      # a_{2j} at (2j+1, 2j)
        A[2 * j, 2 * j - 1] = a[2 * j - 1]
    return A


def build_T(spec: WeightSpec, exact: bool = False):
    """T = I + A x and its inverse T^{-1} = I - A x (A^2 = 0)."""
    A = build_nilpotent(spec, exact=exact)
    eye = MatrixPolynomial.identity(spec.N, exact=exact)
    T = eye + MatrixPolynomial([A], exact=exact).shift(1)
    T_inv = eye - MatrixPolynomial([A], exact=exact).shift(1)
    return T, T_inv


def weight_eval(spec: WeightSpec, x) -> np.ndarray:
    """W(x) = T(x) diag(w_1(x), ..., w_N(x)) T(x)*; Hermitian PSD.

    A float x gives one (N, N) matrix; an array of P points gives the
    (P, N, N) stack.
    """
    xs = np.asarray(x, dtype=float)
    pts = xs.reshape(-1)
    A = build_nilpotent(spec)
    Tx = np.eye(spec.N, dtype=complex) + A * pts[:, None, None]
    wd = np.stack([sf.weight_value(s, pts) for s in spec.scalars], axis=-1)
    W = (Tx * wd[:, None, :]) @ Tx.conj().swapaxes(1, 2)
    return W[0] if xs.ndim == 0 else W


class InnerProductEngine:
    """Caches the Gauss rules of the scalar weights of one W.

    Rules are keyed by the scalar weight itself, so equal weights in
    different slots share one rule.
    """

    def __init__(self, weight: WeightSpec):
        self.weight = weight
        self._rules = {}

    def rule(self, scalar_index: int, m: int):
        """(nodes, weights) of the m-point Gauss rule of w_{scalar_index+1}."""
        if m > NODE_CAP:
            raise DegreeCap(f"Gauss rule needs {m} > {NODE_CAP} nodes")
        key = (self.weight.scalars[scalar_index], m)
        got = self._rules.get(key)
        if got is None:
            got = self._rules.setdefault(
                key, sf.gauss_rule(self.weight.scalars[scalar_index], m))
        return got
