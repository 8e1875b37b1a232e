"""Polynomials with square complex-matrix coefficients.

Coefficients are dense numpy arrays indexed by power.  The float backend
uses complex128; the exact backend uses object arrays of sympy scalars,
and only its branches import sympy.
Multiplication is the noncommutative Cauchy product.
"""

import csv

import numpy as np

from .errors import SizeMismatch

ZERO_TOL = 1e-13


def _as_coeff(mat, size, exact):
    a = np.array(mat, dtype=object if exact else complex)
    if a.shape != (size, size):
        raise SizeMismatch(f"expected {size}x{size} coefficient, got {a.shape}")
    return a


def _mat_is_zero(a, exact, tol=0.0):
    if exact:
        import sympy as sp
        return all(sp.expand(x) == 0 for x in a.flat)
    return np.max(np.abs(a)) <= tol


def conj_transpose(a):
    """Conjugate transpose that also works on sympy object arrays."""
    if a.dtype == object:
        import sympy as sp
        return np.array([[sp.conjugate(a[j, i]) for j in range(a.shape[0])]
                         for i in range(a.shape[1])], dtype=object)
    return a.conj().T


class MatrixPolynomial:
    """A polynomial sum_k C_k x^k with N x N matrix coefficients."""

    def __init__(self, coeffs, size=None, exact=False, trim=True):
        coeffs = list(coeffs)
        if not coeffs:
            if size is None:
                raise ValueError("empty coefficient list needs an explicit size")
            coeffs = [np.zeros((size, size), dtype=object if exact else complex)]
        first = np.asarray(coeffs[0])
        n = first.shape[0] if size is None else size
        self.size = n
        self.exact = exact
        self.coeffs = [_as_coeff(c, n, exact) for c in coeffs]
        if trim:
            self._normalize()

    def _normalize(self):
        # only exactly-zero trailing coefficients are stripped: the nilpotent
        # structure makes the intended cancellations exact even in floats,
        # while near-zero tests would chop small-but-meaningful top
        # coefficients whenever entry magnitudes are mixed
        if self.exact:
            import sympy as sp
            self.coeffs = [np.array([[sp.expand(x) for x in row] for row in c],
                                    dtype=object) for c in self.coeffs]
        while len(self.coeffs) > 1 and _mat_is_zero(self.coeffs[-1], self.exact):
            self.coeffs.pop()

    @classmethod
    def zero(cls, size, exact=False):
        return cls([], size=size, exact=exact)

    @classmethod
    def identity(cls, size, exact=False):
        if exact:
            import sympy as sp
            eye = np.array(sp.eye(size).tolist(), dtype=object)
        else:
            eye = np.eye(size, dtype=complex)
        return cls([eye], exact=exact)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return self.degree == 0 and _mat_is_zero(self.coeffs[0], self.exact,
                                                 0.0 if self.exact else ZERO_TOL
                                                 * (self.max_coeff_norm() or 1.0))

    def coeff(self, k):
        """Coefficient of x^k (a zero matrix past the degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return np.zeros((self.size, self.size),
                        dtype=object if self.exact else complex)

    def max_coeff_norm(self):
        """Largest entrywise absolute value over all coefficients."""
        return max(float(max(abs(complex(x)) for x in c.flat))
                   for c in self.coeffs)

    def __add__(self, other):
        self._check(other)
        d = max(self.degree, other.degree)
        return MatrixPolynomial([self.coeff(k) + other.coeff(k)
                                 for k in range(d + 1)],
                                size=self.size, exact=self.exact)

    def __sub__(self, other):
        self._check(other)
        d = max(self.degree, other.degree)
        return MatrixPolynomial([self.coeff(k) - other.coeff(k)
                                 for k in range(d + 1)],
                                size=self.size, exact=self.exact)

    def __neg__(self):
        return MatrixPolynomial([-c for c in self.coeffs],
                                size=self.size, exact=self.exact)

    def __mul__(self, other):
        if isinstance(other, MatrixPolynomial):
            self._check(other)
            out = [np.zeros((self.size, self.size),
                            dtype=object if self.exact else complex)
                   for _ in range(self.degree + other.degree + 1)]
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a @ b
            return MatrixPolynomial(out, size=self.size, exact=self.exact)
        # scalar
        return MatrixPolynomial([c * other for c in self.coeffs],
                                size=self.size, exact=self.exact)

    def left_mul(self, mat):
        """Constant matrix times the polynomial."""
        m = _as_coeff(mat, self.size, self.exact)
        return MatrixPolynomial([m @ c for c in self.coeffs],
                                size=self.size, exact=self.exact)

    def right_mul(self, mat):
        m = _as_coeff(mat, self.size, self.exact)
        return MatrixPolynomial([c @ m for c in self.coeffs],
                                size=self.size, exact=self.exact)

    def shift(self, k=1):
        """Multiply by x^k."""
        zero = np.zeros((self.size, self.size),
                        dtype=object if self.exact else complex)
        return MatrixPolynomial([zero] * k + self.coeffs,
                                size=self.size, exact=self.exact)

    def derivative(self, k=1):
        c = self.coeffs
        for _ in range(k):
            c = [i * c[i] for i in range(1, len(c))]
            if not c:
                return MatrixPolynomial.zero(self.size, self.exact)
        return MatrixPolynomial(c, size=self.size, exact=self.exact)

    def evaluate(self, x):
        acc = np.zeros((self.size, self.size),
                       dtype=object if self.exact else complex)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def conj(self):
        """Entrywise conjugate (so that P.conj()(x) = conj(P(conj(x)))."""
        if self.exact:
            import sympy as sp
            cs = [np.array([[sp.conjugate(x) for x in row] for row in c],
                           dtype=object) for c in self.coeffs]
        else:
            cs = [c.conj() for c in self.coeffs]
        return MatrixPolynomial(cs, size=self.size, exact=self.exact)

    def to_float(self):
        if not self.exact:
            return self
        cs = [np.array([[complex(x) for x in row] for row in c], dtype=complex)
              for c in self.coeffs]
        return MatrixPolynomial(cs, size=self.size, exact=False)

    def entry(self, i, j):
        """Scalar polynomial (ascending list) sitting at entry (i, j),
        without trailing zeros."""
        out = [c[i, j] for c in self.coeffs]
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    def _check(self, other):
        if self.size != other.size:
            raise SizeMismatch(f"sizes {self.size} and {other.size} differ")

    def __repr__(self):
        return f"MatrixPolynomial(size={self.size}, degree={self.degree})"

    def dump_csv(self, path):
        """One row per power; entries column-major, complex as 're+imi'."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            for k, c in enumerate(self.coeffs):
                row = [k]
                for j in range(self.size):
                    for i in range(self.size):
                        z = complex(c[i, j])
                        row.append(f"{z.real:.17g}{z.imag:+.17g}i")
                w.writerow(row)

