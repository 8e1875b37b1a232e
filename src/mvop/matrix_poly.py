"""Polynomials with square complex-matrix coefficients.

A polynomial is one coefficient stack of shape (deg + 1, N, N), powers
ascending on axis 0: complex128 on the float backend, an object array of
sympy scalars on the exact backend, and only the exact branches import
sympy.  Exactness is the dtype: an object stack is exact, and arithmetic
with an exact operand gives an exact result (numpy's type promotion).

Two stack routines hold the arithmetic: ``cauchy``, the noncommutative
Cauchy product, and ``falling``, the j-th derivative.  They take stacks
with any leading axes, so ``MatrixPolynomial`` and the operator kernel
``diff_operators.op_apply`` run the same code on one polynomial or on a
whole block of them.
"""

import numpy as np

from .errors import InvalidParam, SizeMismatch


def _unmixed(x, y):
    """Refuse an exact operand (object array or sympy number) with nonzero
    floats, which numpy would round silently; Python ints mix with both."""
    x, y = np.asarray(x), np.asarray(y)
    f = y if x.dtype == object else x
    if f.dtype.kind in "fc" and object in (x.dtype, y.dtype) and f.any():
        raise InvalidParam("exact and float operands do not mix")


def cauchy(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Products A_i(x) B(x) for a stack a (..., ra, N, N) of polynomials
    and one polynomial b (rb, N, N), as a stack (..., ra + rb - 1, N, N).

    One GEMM per power of b on a reshaped to (rows, N); coefficient k adds
    a_p b_{k-p} in ascending p.  The result is an object array when either
    operand is one (see ``_unmixed``).  ``out``, if given, receives the
    product and may hold more powers, which come back zero.
    """
    _unmixed(a, b)
    *lead, rows, N, _ = a.shape
    if out is None:
        out = np.empty((*lead, rows + len(b) - 1, N, N),
                       dtype=np.result_type(a, b))
    # zeros written at once: the lazily zeroed pages of a large np.zeros
    # fault twice under += (read, then copy on write)
    out[...] = 0
    flat = a.reshape(-1, N)
    for l in reversed(range(len(b))):           # p ascending for every k
        out[..., l:l + rows, :, :] += (flat @ b[l]).reshape(*lead, rows, N, N)
    return out


def falling(a: np.ndarray, j: int) -> np.ndarray:
    """d^j/dx^j of every polynomial of the stack a (..., rows, N, N): j
    steps of dropping the constant and scaling power p by p, so rows - j
    powers remain (none when j >= rows).  The scale is the falling
    factorial p!/(p-j)!, in Python integers on object stacks."""
    for _ in range(j):
        p = np.arange(1, a.shape[-3], dtype=object if a.dtype == object
                      else float)
        a = a[..., 1:, :, :] * p[:, None, None]
    return a


def conj_transpose(a):
    """Conjugate transpose that also works on sympy object arrays."""
    if a.dtype == object:
        import sympy as sp
        return np.array([[sp.conjugate(a[j, i]) for j in range(a.shape[0])]
                         for i in range(a.shape[1])], dtype=object)
    return a.conj().T


def _zeros(rows, size, exact):
    return np.zeros((rows, size, size), dtype=object if exact else complex)


def _pad(c, rows):
    """The stack c with zero powers appended up to ``rows`` (axis -3)."""
    return np.concatenate([c, np.zeros((*c.shape[:-3], rows - c.shape[-3],
                                        *c.shape[-2:]), dtype=c.dtype)],
                          axis=-3)


class MatrixPolynomial:
    """A polynomial sum_k C_k x^k with N x N matrix coefficients, stored
    as the stack ``coeffs`` (see the module docstring).

    ``coeffs`` is anything numpy stacks into shape (deg + 1, N, N); object
    entries keep the polynomial exact, anything else becomes complex128.
    An empty stack (0, N, N) is the zero polynomial.
    """

    def __init__(self, coeffs, size=None, trim=True):
        c = np.array(coeffs)
        if c.dtype != object:
            c = c.astype(complex, copy=False)
        if (c.ndim != 3 or c.shape[1] != c.shape[2]
                or size not in (None, c.shape[1])):
            raise SizeMismatch(f"not a stack of {size or 'N'} x "
                               f"{size or 'N'} coefficients: shape {c.shape}")
        self.size = c.shape[1]
        self.coeffs = c if len(c) else _pad(c, 1)
        if trim:
            self._normalize()

    def _normalize(self):
        # only exactly-zero trailing coefficients are stripped: the nilpotent
        # structure makes the intended cancellations exact even in floats,
        # while near-zero tests would chop small-but-meaningful top
        # coefficients whenever entry magnitudes are mixed
        c = self.coeffs
        if self.exact:
            import sympy as sp
            c = np.frompyfunc(sp.expand, 1, 1)(c)
        k = len(c)
        while k > 1 and not (c[k - 1] != 0).any():
            k -= 1
        self.coeffs = c[:k]

    @property
    def exact(self):
        """True for an object stack of sympy entries."""
        return self.coeffs.dtype == object

    @classmethod
    def zero(cls, size, exact=False):
        return cls(_zeros(1, size, exact))

    @classmethod
    def identity(cls, size, exact=False):
        return cls(np.eye(size, dtype=object if exact else complex)[None])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return self.degree == 0 and not (self.coeffs != 0).any()

    def coeff(self, k):
        """Coefficient of x^k (a zero matrix past the degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return _zeros(1, self.size, self.exact)[0]

    def max_coeff_norm(self):
        """Largest entrywise absolute value over all coefficients."""
        return float(np.abs(self.coeffs.astype(complex)).max())

    def __add__(self, other):
        self._check(other)
        _unmixed(self.coeffs, other.coeffs)
        rows = max(len(self.coeffs), len(other.coeffs))
        return MatrixPolynomial(_pad(self.coeffs, rows)
                                + _pad(other.coeffs, rows))

    def __sub__(self, other):
        self._check(other)
        _unmixed(self.coeffs, other.coeffs)
        rows = max(len(self.coeffs), len(other.coeffs))
        return MatrixPolynomial(_pad(self.coeffs, rows)
                                - _pad(other.coeffs, rows))

    def __neg__(self):
        return MatrixPolynomial(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, MatrixPolynomial):
            self._check(other)
            return MatrixPolynomial(cauchy(self.coeffs, other.coeffs))
        _unmixed(self.coeffs, other)                        # scalar
        return MatrixPolynomial(self.coeffs * other)

    def left_mul(self, mat):
        """Constant matrix times the polynomial."""
        return MatrixPolynomial(np.asarray(mat) @ self.coeffs, size=self.size)

    def shift(self, k=1):
        """Multiply by x^k."""
        return MatrixPolynomial(np.concatenate(
            [_zeros(k, self.size, self.exact), self.coeffs]))

    def derivative(self, k=1):
        return MatrixPolynomial(falling(self.coeffs, k))

    def conj(self):
        """Entrywise conjugate (so that P.conj()(x) = conj(P(conj(x)))."""
        if self.exact:
            import sympy as sp
            return MatrixPolynomial(np.frompyfunc(sp.conjugate, 1, 1)(
                self.coeffs))
        return MatrixPolynomial(self.coeffs.conj())

    def to_float(self):
        return MatrixPolynomial(self.coeffs.astype(complex))

    def _check(self, other):
        if self.size != other.size:
            raise SizeMismatch(f"sizes {self.size} and {other.size} differ")

    def __repr__(self):
        return f"MatrixPolynomial(size={self.size}, degree={self.degree})"

    def dump_csv(self, path):
        """One row per power; entries column-major, complex as 're+imi'."""
        import csv      # only --csv-dir writes files; a check run loads none
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            for k, c in enumerate(self.coeffs):
                row = [k]
                for j in range(self.size):
                    for i in range(self.size):
                        z = complex(c[i, j])
                        row.append(f"{z.real:.17g}{z.imag:+.17g}i")
                w.writerow(row)
