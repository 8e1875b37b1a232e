"""Right-acting matrix differential operators D = sum_j d^j . F_j(x).

Application is P . D = sum_j (d^j P)(x) F_j(x).  ``op_apply`` takes one
MatrixPolynomial or a whole stack of coefficient arrays (..., deg + 1, N,
N) and runs the two stack routines of ``matrix_poly`` on it: ``falling``
for d^j P and ``cauchy`` for the product with the coefficient stack of
F_j, one GEMM per power of F_j whatever the number of polynomials (four to
seven for the bispectral operators, whose F_j have degree j or less); they
are real when the stack and every F_j are.  ``eigencheck`` runs it once
per block of ``MVOPSequence.q_block``, which holds only the powers its
degrees reach and is real where A is: a block of degrees lo..hi-1 holds
(hi - lo)(hi + 2) degree-powers, at most ``EIGEN_BLOCK`` (n_max + 3), so
low degrees share a block (three or four blocks at n_max 60-80).  It reads
Lambda_n for all degrees at once and forms Lambda_n Q_n by scaling rows.
Every Darboux identity reads ``identity_residual``, scaled by the terms that
cancel; ``eigencheck`` keeps max(|lhs|, |rhs|) for cost (see the comment).
numpy matmul takes the object arrays of the exact backend too, so exact
operands go through the same code, and an operator is exact when its
coefficient stacks are.

Composition satisfies P . (D1 o D2) = (P . D1) . D2.  Conjugation by T =
I + A x has a closed form: T'' = 0 gives d^j (P T) = (d^j P) T + j (d^{j-1}
P) A, and T^{-1} = I - A x because A^2 = 0, so T D~ T^{-1} has the
coefficients F_i = (T F~_i + (i + 1) A F~_{i+1}) T^{-1}, each formed by
``cauchy`` on the coefficient stacks.

Operators given entry by entry, as scalar coefficient lists (f_0, f_1,
...) per matrix entry, are built by one routine, ``entries_to_operator``:
the diagonal of the bispectral operator (scaled and shifted to match
adjacent eigenvalues in one walk over the slots, for any order of Hermite
and Laguerre slots and Jacobi chains with matching alpha + beta), the
Laguerre chain of each size and every size-1 ladder operator.  A size-1 operator acts
on a scalar polynomial through the same kernel (``apply_scalar``).
"""

from math import comb

import numpy as np

from . import scalar_families as sf
from .errors import ConditionFailed, DegreeCap, SizeMismatch, Unsupported
from .matrix_poly import MatrixPolynomial, _pad, cauchy, falling
from .mvop_core import peak
from .weight_model import WeightSpec, build_T

CONDITION_TOL = 1e-12

#: coefficients of p(n + 1) from those of p(n), ascending, degree <= 2
_STEP = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])

#: ``eigencheck`` takes at most EIGEN_BLOCK (n_max + 3) degree-powers per
#: ``q_block``, the size of a block of this many top degrees, which bounds
#: the stacked arrays: one block for all degrees of an n_max = 60-80
#: sequence took 0.8-3.0 MB more traced peak memory, and at N = 4-5 about
#: 80 % more eigen time (2-core VM)
EIGEN_BLOCK = 16


class MatrixDiffOperator:
    """Operator of order m with MatrixPolynomial coefficients F_0..F_m."""

    def __init__(self, f_coeffs):
        f_coeffs = list(f_coeffs)
        self.size = f_coeffs[0].size
        if any(f.size != self.size for f in f_coeffs):
            raise SizeMismatch("operator coefficients disagree in size")
        while len(f_coeffs) > 1 and f_coeffs[-1].is_zero():
            f_coeffs.pop()
        self.f_coeffs = f_coeffs

    @property
    def exact(self):
        """True when every coefficient is exact (see ``matrix_poly``)."""
        return all(f.exact for f in self.f_coeffs)

    @property
    def order(self):
        return len(self.f_coeffs) - 1

    def coeff(self, j) -> MatrixPolynomial:
        if 0 <= j < len(self.f_coeffs):
            return self.f_coeffs[j]
        return MatrixPolynomial.zero(self.size, self.exact)

    @classmethod
    def zero(cls, size, exact=False):
        return cls([MatrixPolynomial.zero(size, exact)])

    @classmethod
    def identity(cls, size, exact=False):
        return cls([MatrixPolynomial.identity(size, exact)])

    @classmethod
    def multiplication(cls, poly: MatrixPolynomial):
        """Order-zero operator P -> P * poly."""
        return cls([poly])

    def __add__(self, other):
        self._check(other)
        m = max(self.order, other.order)
        return MatrixDiffOperator([self.coeff(j) + other.coeff(j)
                                   for j in range(m + 1)])

    def __sub__(self, other):
        self._check(other)
        m = max(self.order, other.order)
        return MatrixDiffOperator([self.coeff(j) - other.coeff(j)
                                   for j in range(m + 1)])

    def __mul__(self, scalar):
        return MatrixDiffOperator([f * scalar for f in self.f_coeffs])

    def is_zero(self):
        return all(f.is_zero() for f in self.f_coeffs)

    def _check(self, other):
        if self.size != other.size:
            raise SizeMismatch(f"sizes {self.size} and {other.size} differ")

    def __repr__(self):
        return f"MatrixDiffOperator(size={self.size}, order={self.order})"

    def to_json(self) -> dict:
        fs = []
        for f in self.f_coeffs:
            fl = f.to_float()
            fs.append([[[ [z.real, z.imag] for z in
                          (complex(c[i, j]) for j in range(f.size))]
                        for i in range(f.size)] for c in fl.coeffs])
        return {"order": self.order, "size": self.size, "F": fs}

    @classmethod
    def from_json(cls, data: dict):
        size = data["size"]
        fs = []
        for fj in data["F"]:
            coeffs = [np.array([[complex(e[0], e[1]) for e in row]
                                for row in ck]) for ck in fj]
            fs.append(MatrixPolynomial(coeffs, size=size))
        return cls(fs)


def op_apply(P, D: MatrixDiffOperator):
    """P . D = sum_j (d^j P) F_j, for a MatrixPolynomial P or for every
    polynomial of a stack P of power coefficients at once.

    A stack has shape (..., deg + 1, N, N), powers ascending on axis -3,
    and comes back as a stack with the same leading axes and as many
    powers as the highest term needs; it is an object array (sympy
    entries) when P or D is exact, and real when P is and no F_j has an
    imaginary part.  Term j is ``cauchy(falling(P, j), F_j)``, each
    derivative one ``falling`` step from the last, and the terms add up in
    ascending j, so a stack gives the sums of the polynomial-by-polynomial
    products.
    """
    if isinstance(P, MatrixPolynomial):
        return MatrixPolynomial(op_apply(P.coeffs, D))
    *lead, width, N, _ = P.shape
    if N != D.size:
        raise SizeMismatch(f"sizes {N} and {D.size} differ")
    fs = [f.coeffs for f in D.f_coeffs[:width]]
    if P.dtype == float and not any(f.dtype == object or f.imag.any()
                                    for f in fs):
        fs = [np.ascontiguousarray(f.real) for f in fs]
    out = np.zeros((*lead, max(width - j + len(f) - 1
                               for j, f in enumerate(fs)), N, N),
                   dtype=np.result_type(P, *fs))
    # every term goes through one work array of out's shape: terms of their
    # own sizes made glibc fault in fresh pages on every call (+35 % page
    # faults, +8 % wall time on the operator-sweep workload, 2-core VM)
    term = np.empty_like(out)
    for j, f in enumerate(fs):
        P = falling(P, 1) if j else P
        out += cauchy(P, f, out=term)
    return out


def identity_residual(P, D: MatrixDiffOperator, want, lhs=None):
    """Residual of P . D = want for each polynomial of a stack of power
    coefficients (..., powers, N, N), scaled by the terms that cancel.

    Row i reads max|row i of P . D - want| over the largest entry of row i
    of op_apply(|P|, |D|) + |want|, |D| the operator of the |F_j|, so that
    neither a vanishing side nor a large one decides the verdict; the
    residual is the largest over rows.  ``lhs`` is P . D when the caller
    has it already.
    """
    if lhs is None:
        lhs = op_apply(P, D)
    size = MatrixDiffOperator([MatrixPolynomial(np.abs(f.coeffs))
                               for f in D.f_coeffs])
    width = max(lhs.shape[-3], want.shape[-3])
    lhs, want, terms = (_pad(c, width) for c in
                        (lhs, want, op_apply(np.abs(P), size)))
    res = (np.abs(lhs - want).max(axis=(-3, -1))
           / np.maximum((terms + np.abs(want)).max(axis=(-3, -1)), 1e-300))
    return res.max(axis=-1)


def op_compose(D1: MatrixDiffOperator, D2: MatrixDiffOperator) -> MatrixDiffOperator:
    """Composition with P . (D1 o D2) = (P . D1) . D2.

    H_k = sum over i + l = k, l <= j of C(j, l) (d^{j-l} F_i) G_j, each
    term ``cauchy(falling(F_i, j - l), G_j)`` on the coefficient stacks,
    added in ascending i, j, l into one zero-padded stack per H_k, which
    becomes a ``MatrixPolynomial`` once.
    """
    D1._check(D2)
    terms = [[] for _ in range(D1.order + D2.order + 1)]
    for i, fi in enumerate(D1.f_coeffs):
        for j, gj in enumerate(D2.f_coeffs):
            for l in range(j + 1):
                terms[i + l].append(cauchy(falling(fi.coeffs, j - l),
                                           gj.coeffs) * comb(j, l))
    out = []
    for ts in terms:
        h = np.zeros((max(map(len, ts)),) + ts[0].shape[1:],
                     dtype=np.result_type(*ts))
        for t in ts:
            h[:len(t)] += t
        out.append(MatrixPolynomial(h))
    return MatrixDiffOperator(out)


def entries_to_operator(entries: dict, size: int) -> MatrixDiffOperator:
    """Matrix operator from a dict (i, j) -> scalar coefficient lists
    (f_0, f_1, ...) of that entry, each ascending in powers of x."""
    order = max(len(fs) for fs in entries.values()) - 1
    f_coeffs = []
    for j in range(order + 1):
        deg = max((len(fs[j]) for fs in entries.values() if j < len(fs)),
                  default=1)
        coeffs = [np.zeros((size, size), dtype=complex) for _ in range(deg)]
        for (r, c), fs in entries.items():
            if j < len(fs):
                for k, val in enumerate(fs[j]):
                    coeffs[k][r, c] += val
        f_coeffs.append(MatrixPolynomial(coeffs, size=size))
    return MatrixDiffOperator(f_coeffs)


def apply_scalar(op: MatrixDiffOperator, poly):
    """Apply a size-1 operator to a scalar coefficient list (ascending);
    the image comes back as a list without trailing zeros."""
    C = np.asarray(poly, dtype=complex).reshape(-1, 1, 1)
    out = op_apply(C, op)[:, 0, 0].tolist()
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def conjugate_by_T(D_tilde: MatrixDiffOperator,
                   spec: WeightSpec) -> MatrixDiffOperator:
    """T D_tilde T^{-1} as a right-acting operator: P -> ((P T) . D_tilde)
    T^{-1}, in the arithmetic of D_tilde.

    T'' = 0 gives d^j (P T) = (d^j P) T + j (d^{j-1} P) A, so the
    coefficients are F_i = (T F~_i + (i + 1) A F~_{i+1}) T^{-1} with
    T^{-1} = I - A x: three ``cauchy`` products on the coefficient stacks
    per i.  The A term is scaled by i + 1 after its product, as
    ``op_compose`` with the multiplication operators for T and T^{-1}
    scales it, so both give the same doubles.
    """
    T, T_inv = (t.coeffs for t in build_T(spec, exact=D_tilde.exact))
    fs = [f.coeffs for f in D_tilde.f_coeffs]
    out = []
    for i, f in enumerate(fs):
        h = cauchy(T, f)
        if i < D_tilde.order:
            g = cauchy(T[1:], fs[i + 1]) * (i + 1)      # A = T', as a stack
            h = _pad(h, max(len(h), len(g)))
            h[:len(g)] += g
        out.append(MatrixPolynomial(cauchy(h, T_inv)))
    return MatrixDiffOperator(out)


def build_bispectral_operator(spec: WeightSpec):
    """The second-order operator D with Q_n . D = Lambda_n Q_n, plus the
    map n -> Lambda_n (real; an array of degrees gives their stack).

    D = T diag(c_k D_k + s_k) T^{-1} for the scalar operators D_k, with
    eigenvalues lambda_k(n), of ``scalar_families.scalar_diff_operator``.
    A Lambda_{n+1} = Lambda_n A asks c_k lambda_k(n) + s_k = c_{k+1}
    lambda_{k+1}(n + 1) + s_{k+1} for odd (1-based) k and the same with n
    + 1 on the left for even k: polynomials in n of degree <= 2, so one
    walk over the pairs fixes c_{k+1} and s_{k+1} from c_1 = 1 and s_1 =
    -2 on a Hermite first slot (the paper's 2x2 display), else 0.
    ``ConditionFailed`` names the first pair no nonzero c_{k+1} matches.
    """
    if any(s.family == sf.CUSTOM for s in spec.scalars):
        raise Unsupported("bispectral operators need classical scalar weights")
    scalar_ops, eigs = zip(*map(sf.scalar_diff_operator, spec.scalars))
    scales = [1.0]
    shifts = [-2.0 if spec.scalars[0].family == sf.HERMITE else 0.0]
    for k in range(1, spec.N):              # slots k, k + 1, 1-based
        left, right = eigs[k - 1], eigs[k]
        lhs = scales[-1] * (left if k % 2 else _STEP @ left)
        rhs = _STEP @ right if k % 2 else right
        top = 2 if rhs[2] else 1
        c = lhs[top] / rhs[top]
        if c == 0 or np.any(np.abs(lhs[1:] - c * rhs[1:])
                            > CONDITION_TOL * (1.0 + np.abs(lhs[1:]))):
            raise ConditionFailed(
                f"slots {k},{k + 1}: no scale matches the eigenvalues "
                f"{lhs.tolist()} and {rhs.tolist()} (ascending in n)")
        scales.append(float(c))
        shifts.append(float(lhs[0] + shifts[-1] - c * rhs[0]))

    entries = {}
    for i, (fs, sc, sh) in enumerate(zip(scalar_ops, scales, shifts)):
        entries[i, i] = [[sc * c for c in f] for f in fs]
        entries[i, i][0][0] += sh
    D = conjugate_by_T(entries_to_operator(entries, spec.N), spec)

    l0, l1, l2, c, s = np.array([[*e, sc, sh] for e, sc, sh
                                 in zip(eigs, scales, shifts)]).T

    def lam(n):
        n = np.asarray(n)[..., None]
        out = np.zeros(n.shape[:-1] + (spec.N, spec.N))
        # Horner in n
        out[..., range(spec.N), range(spec.N)] = c * ((l2 * n + l1) * n
                                                      + l0) + s
        return out

    return D, lam


def _eigen_blocks(n_max: int):
    """(lo, hi) for the ``q_block`` calls of ``eigencheck``: 0..n_max in
    order, each block as many degrees as keep its (hi - lo)(hi + 2)
    degree-powers within ``EIGEN_BLOCK`` (n_max + 3), which one degree
    always does."""
    budget = EIGEN_BLOCK * (n_max + 3)
    lo = 0
    while lo <= n_max:
        hi = lo + 1
        while hi <= n_max and (hi + 1 - lo) * (hi + 3) <= budget:
            hi += 1
        yield lo, hi
        lo = hi


def eigencheck(seq, D: MatrixDiffOperator, lam, n_max: int) -> dict:
    """Scaled residuals of Q_n . D = Lambda_n Q_n for n <= n_max, with
    the diagonal Lambda_n = lam(n) (lam takes an array of degrees, as the
    one of ``build_bispectral_operator`` does, and is called once).

    Degrees go in the blocks of ``_eigen_blocks``, one ``seq.q_block`` and
    one ``op_apply`` each, and Lambda_n Q_n scales row i of Q_n by
    Lambda_n[i, i]; the residual of degree n is max|lhs - rhs| /
    max(max|lhs|, max|rhs|, 1e-300) over all coefficients.  A non-finite
    residual is the peak and sets ``non_finite``; a finite Q_n whose Q_n .
    D or Lambda_n Q_n leaves the float range raises ``DegreeCap`` instead.
    """
    lams = np.diagonal(lam(np.arange(n_max + 1)), axis1=1, axis2=2)
    residuals = []
    for lo, hi in _eigen_blocks(n_max):
        Q = seq.q_block(lo, hi)
        with np.errstate(over="ignore", invalid="ignore"):
            lhs = op_apply(Q, D)
            rhs = lams[lo:hi, None, :, None] * Q
            # not ``identity_residual``: on the median in-process
            # operator-sweep pass (seed 4242, 2-core VM) op_apply(|Q|, |D|)
            # alone cost 17.1-19.9 -> 21.6-23.4 ms and the whole terms
            # residual 16.5-16.9 -> 29.0-34.2 ms, past the 25 % time bound
            scale = np.maximum(np.abs(lhs).max(axis=(1, 2, 3)),
                               np.abs(rhs).max(axis=(1, 2, 3)))
            lhs[:, :rhs.shape[1]] -= rhs
            res = np.abs(lhs).max(axis=(1, 2, 3)) / np.maximum(scale, 1e-300)
        # finite Q_n, non-finite residual: a product past the float range
        past = ~np.isfinite(res)
        past[past] = np.isfinite(Q[past]).all(axis=(1, 2, 3))
        if past.any():
            n = lo + int(past.argmax())
            raise DegreeCap(f"Q_{n} . D or Lambda_{n} Q_{n} is past the "
                            f"float range")
        residuals += res.tolist()
    worst, worst_n, non_finite = peak(residuals)
    return {"max_scaled_residual": worst, "worst_n": worst_n,
            "residuals": residuals, "non_finite": non_finite}
