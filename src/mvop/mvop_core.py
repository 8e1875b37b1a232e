"""The matrix-valued orthogonal sequence Q_n built from scalar sequences.

Q_n is assembled through the identity Q_n (I + A x) = P_n + A P_{n+1}
- G_n P_{n-1}, where G_n is the norm-ratio matrix with the sparsity
pattern of A*; multiplying by I - A x then gives Q_n itself.  The ratio
entries are formed in log space (float backend) because the scalar norms
grow factorially.
"""

import threading
from dataclasses import dataclass
from math import exp

import numpy as np
import sympy as sp

from . import scalar_families as sf
from .errors import DegreeCap, OutOfRange, SingularLeading
from .matrix_poly import MatrixPolynomial, conj_transpose
from .weight_model import InnerProductEngine, WeightSpec, build_nilpotent, build_T

#: exp-overflow guard on any norm-ratio quotient
LOG_RATIO_CAP = 600.0


def continuant(rho) -> float:
    """Determinant of the unit-diagonal tridiagonal matrix with
    superdiagonal u and subdiagonal l such that -u_i l_i = rho_i.

    D_k = D_{k-1} + rho_{k-1} D_{k-2}.
    """
    d_prev, d = 1, 1
    for r in rho:
        d_prev, d = d, d + r * d_prev
    return d


def tridiagonal_from_rho(rho, rng=None):
    """A unit-diagonal tridiagonal matrix realizing the products -u_i l_i = rho_i.

    Used as the brute-force cross-check of ``continuant``; the determinant
    only depends on the products, so the split into u_i and l_i is free.
    """
    n = len(rho) + 1
    K = np.eye(n)
    for i, r in enumerate(rho):
        u = 1.0 if rng is None else rng.uniform(0.5, 2.0)
        K[i, i + 1] = u
        K[i + 1, i] = -r / u
    return K


class MVOPSequence:
    """Lazily built Q_n, P_n, norms and leading coefficients for one weight."""

    def __init__(self, weight: WeightSpec, n_max: int, backend: str = "float"):
        self.weight = weight
        self.n_max = n_max
        self.backend = backend
        self.exact = backend == "exact"
        # P_{n+1} is needed for Q_n
        self.scalar_seqs = [sf.recurrence_coefficients(s, n_max + 1, backend)
                            for s in weight.scalars]
        self.A = build_nilpotent(weight, exact=self.exact)
        self.T, self.T_inv = build_T(weight, exact=self.exact)
        self._engine = None
        self._cache_Q = {}
        self._cache_QT = {}
        self._lock = threading.Lock()

    @property
    def engine(self) -> InnerProductEngine:
        if self._engine is None:
            self._engine = InnerProductEngine(self.weight)
        return self._engine

    def _check_n(self, n, hi=None):
        hi = self.n_max if hi is None else hi
        if n < 0 or n > hi:
            raise OutOfRange(f"n={n} outside 0..{hi}")

    # -- diagonal scalar objects ------------------------------------------

    def build_P(self, n: int) -> MatrixPolynomial:
        """P_n = diag(p_n^{w_1}, ..., p_n^{w_N}), monic of degree n."""
        self._check_n(n, self.n_max + 1)
        N = self.weight.N
        polys = [seq.polynomial(n) for seq in self.scalar_seqs]
        coeffs = []
        for k in range(n + 1):
            c = np.zeros((N, N), dtype=object if self.exact else complex)
            for i, p in enumerate(polys):
                c[i, i] = p[k] if k < len(p) else 0
            coeffs.append(c)
        return MatrixPolynomial(coeffs, size=N, exact=self.exact)

    def norm_P(self, n: int) -> np.ndarray:
        """Diagonal matrix ||P_n||^2."""
        self._check_n(n, self.n_max + 1)
        N = self.weight.N
        if self.exact:
            d = [sf.squared_norm_exact(s, n) for s in self.scalar_seqs]
            out = np.zeros((N, N), dtype=object)
            out[:] = sp.Integer(0)
            for i, v in enumerate(d):
                out[i, i] = v
            return out
        return np.diag([exp(s.log_norms[n]) for s in self.scalar_seqs]).astype(complex)

    def ratio_matrix(self, n: int) -> np.ndarray:
        """G_n = ||P_n||^2 A* ||P_{n-1}||^{-2}, assembled entrywise.

        Nonzero exactly on the pattern of A*; entry (r, s) there equals
        conj(a) * ||p_n^{w_r}||^2 / ||p_{n-1}^{w_s}||^2.  Zero for n = 0
        (the paper's ||P_{-1}||^{-2} = 0 convention).
        """
        N = self.weight.N
        G = np.zeros((N, N), dtype=object if self.exact else complex)
        if self.exact:
            G[:] = sp.Integer(0)
        if n == 0:
            return G
        self._check_n(n, self.n_max + 1)
        Astar = conj_transpose(self.A)
        for r in range(N):
            for s in range(N):
                a = Astar[r, s]
                if a == 0:
                    continue
                if self.exact:
                    G[r, s] = a * (sf.squared_norm_exact(self.scalar_seqs[r], n)
                                   / sf.squared_norm_exact(self.scalar_seqs[s], n - 1))
                else:
                    lr = (self.scalar_seqs[r].log_norms[n]
                          - self.scalar_seqs[s].log_norms[n - 1])
                    if abs(lr) > LOG_RATIO_CAP:
                        raise DegreeCap(f"norm-ratio log {lr:.1f} exceeds "
                                        f"{LOG_RATIO_CAP} at n={n}")
                    G[r, s] = a * exp(lr)
        return G

    # -- the orthogonal sequence ------------------------------------------

    def build_QT(self, n: int) -> MatrixPolynomial:
        """Q_n T = P_n + A P_{n+1} - G_n P_{n-1} (degree n + 1)."""
        self._check_n(n)
        got = self._cache_QT.get(n)
        if got is not None:
            return got
        qt = self.build_P(n) + self.build_P(n + 1).left_mul(self.A)
        if n >= 1:
            qt = qt - self.build_P(n - 1).left_mul(self.ratio_matrix(n))
        with self._lock:
            self._cache_QT.setdefault(n, qt)
        return self._cache_QT[n]

    def leading_closed_form(self, n: int) -> np.ndarray:
        """K_n = I + A D - D' A + G_n A, with D = diag([x^n] p_{n+1}) and
        D' = diag([x^{n-1}] p_n).

        Stable where reading K_n off the product (Q_n T) T^{-1} is not:
        the product coefficients carry absolute roundoff on the scale of
        the largest scalar coefficient, which dwarfs K_n at large n.
        """
        self._check_n(n)
        N = self.weight.N
        if self.exact:
            eye = np.array(sp.eye(N).tolist(), dtype=object)
        else:
            eye = np.eye(N, dtype=complex)
        D = np.zeros((N, N), dtype=object if self.exact else complex)
        Dp = np.zeros((N, N), dtype=object if self.exact else complex)
        for k, seq in enumerate(self.scalar_seqs):
            D[k, k] = seq.polynomial(n + 1)[n]
            if n >= 1:
                Dp[k, k] = seq.polynomial(n)[n - 1]
        K = eye + self.A @ D - Dp @ self.A + self.ratio_matrix(n) @ self.A
        if self.exact:
            K = np.array([[sp.expand(v) for v in row] for row in K],
                         dtype=object)
        return K

    def build_Q(self, n: int) -> MatrixPolynomial:
        """Q_n = (Q_n T) T^{-1}; degree n with nonsingular leading coefficient."""
        self._check_n(n)
        got = self._cache_Q.get(n)
        if got is not None:
            return got
        q = self.build_QT(n) * self.T_inv
        if self.exact:
            if q.degree != n:
                raise SingularLeading(f"Q_{n} came out with degree {q.degree}")
            lead = q.coeffs[n]
            if sp.Matrix(lead.tolist()).det() == 0:
                raise SingularLeading(f"singular leading coefficient at n={n}")
        else:
            # degrees n+1, n+2 cancel structurally (A^2 = 0); anything left
            # there is roundoff, and the x^n coefficient is replaced by its
            # closed form, which roundoff at the top coefficient scale swamps
            top = q.max_coeff_norm()
            for k in (n + 1, n + 2):
                if np.max(np.abs(q.coeff(k))) > 1e-8 * top:
                    raise SingularLeading(f"degree overflow at n={n}")
            K = self.leading_closed_form(n)
            if abs(np.linalg.det(K)) == 0.0:
                raise SingularLeading(f"singular leading coefficient at n={n}")
            q = MatrixPolynomial([q.coeff(k) for k in range(n)] + [K],
                                 size=self.weight.N, trim=False)
        with self._lock:
            self._cache_Q.setdefault(n, q)
        return self._cache_Q[n]

    def rho_values(self, n: int):
        """rho_i = a_i^2 ||p_n^{w_{2ceil(i/2)}}||^2 / ||p_{n-1}^{w_{2floor(i/2)+1}}||^2."""
        self._check_n(n, self.n_max + 1)
        out = []
        for i in range(1, self.weight.N):
            num = 2 * ((i + 1) // 2)       # weight index, 1-based
            den = 2 * (i // 2) + 1
            if self.exact:
                a = sp.nsimplify(self.weight.a_params[i - 1], rational=True)
                out.append(a ** 2
                           * sf.squared_norm_exact(self.scalar_seqs[num - 1], n)
                           / sf.squared_norm_exact(self.scalar_seqs[den - 1], n - 1))
            else:
                a = float(self.weight.a_params[i - 1])
                lr = (self.scalar_seqs[num - 1].log_norms[n]
                      - self.scalar_seqs[den - 1].log_norms[n - 1])
                if abs(lr) > LOG_RATIO_CAP:
                    raise DegreeCap(f"rho log ratio {lr:.1f} exceeds cap")
                out.append(a * a * exp(lr))
        return out

    def reduced_leading_matrix(self, n: int) -> np.ndarray:
        """I + ||P_n||^2 A* - ||P_{n-1}||^{-2} A, for brute-force det checks."""
        self._check_n(n)
        N = self.weight.N
        eye = np.eye(N, dtype=complex)
        if n == 0:
            return eye
        norms_n = np.array([exp(s.log_norms[n]) for s in self.scalar_seqs])
        inv_prev = np.array([exp(-s.log_norms[n - 1]) for s in self.scalar_seqs])
        A = self.A.astype(complex) if not self.exact else None
        if A is None:
            A = np.array([[complex(x) for x in row] for row in self.A])
        return eye + np.diag(norms_n) @ A.conj().T - np.diag(inv_prev) @ A

    def squared_norm_Q(self, n: int) -> np.ndarray:
        """||Q_n||^2 = ||P_n||^2 + A ||P_{n+1}||^2 A* + G_n A ||P_n||^2."""
        self._check_n(n)
        A = self.A
        term = self.norm_P(n) + A @ self.norm_P(n + 1) @ conj_transpose(A)
        if n >= 1:
            term = term + self.ratio_matrix(n) @ A @ self.norm_P(n)
        return term

    # -- stable node evaluation ---------------------------------------------

    def _scalar_values(self, k: int, nodes: np.ndarray) -> np.ndarray:
        """Values of p_0..p_{n_max+1} for weight k at the nodes, computed
        by the three-term recurrence (stable where the power basis is not)."""
        seq = self.scalar_seqs[k]
        hi = self.n_max + 1
        bs = [float(b) for b in seq.b_coeffs]
        cs = [float(c) for c in seq.c_coeffs]
        vals = np.empty((hi + 1, len(nodes)))
        vals[0] = 1.0
        if hi >= 1:
            vals[1] = nodes - bs[0]
        for j in range(1, hi):
            vals[j + 1] = (nodes - bs[j]) * vals[j] - cs[j - 1] * vals[j - 1]
        return vals

    def _qt_column(self, n: int, k: int, vals: np.ndarray,
                   G: np.ndarray) -> np.ndarray:
        """Column k of (Q_n T)(x) at the nodes behind ``vals``.

        P_n is diagonal, so the column mixes only weight-k scalars:
        e_k p_n + A[:, k] p_{n+1} - G_n[:, k] p_{n-1}.
        """
        N = self.weight.N
        A = self.A if not self.exact else np.array(
            [[complex(v) for v in row] for row in self.A])
        col = np.outer(A[:, k], vals[n + 1]).astype(complex)
        col[k] += vals[n]
        if n >= 1:
            col -= np.outer(G[:, k], vals[n - 1])
        return col

    def gram_qt(self, n: int, m: int, shift: int = 0) -> np.ndarray:
        """<x^shift Q_n, Q_m>_W via per-column Gauss rules on recurrence
        values; accurate at degrees where coefficient evaluation is not."""
        self._check_n(n)
        self._check_n(m)
        N = self.weight.N
        npts = (n + m + 2 + shift) // 2 + 1
        Gn = self._ratio_float(n)
        Gm = self._ratio_float(m)
        out = np.zeros((N, N), dtype=complex)
        for k in range(N):
            nodes, weights = self.engine.rule(k, npts)
            vals = self._scalar_values(k, nodes)
            cn = self._qt_column(n, k, vals, Gn)
            if shift:
                cn = cn * nodes ** shift
            cm = self._qt_column(m, k, vals, Gm)
            out += (cn * weights) @ cm.conj().T
        return out

    def _ratio_float(self, n: int) -> np.ndarray:
        G = self.ratio_matrix(n)
        if self.exact:
            G = np.array([[complex(v) for v in row] for row in G])
        return G

    # -- verification -------------------------------------------------------

    def verify_orthogonality(self, n_max: int, tol: float) -> dict:
        """Scaled Gram residuals over all pairs n != m up to n_max."""
        self._check_n(n_max)
        self_norm = [np.linalg.norm(self.gram_qt(n, n))
                     for n in range(n_max + 1)]
        worst = 0.0
        worst_pair = None
        failures = []
        for n in range(n_max + 1):
            for m in range(n + 1, n_max + 1):
                g = self.gram_qt(n, m)
                r = np.linalg.norm(g) / np.sqrt(self_norm[n] * self_norm[m])
                if r > worst:
                    worst, worst_pair = r, (n, m)
                if r > tol:
                    failures.append((n, m, r))
        return {"max_scaled_residual": worst, "worst_pair": worst_pair,
                "tol": tol, "passed": not failures, "failures": failures}

    def three_term_coefficients(self, n: int):
        """(A_n, B_n, C_n, residual) for Q_n x = A_n Q_{n+1} + B_n Q_n + C_n Q_{n-1}.

        Computed by projection: X_n = <x Q_n, Q_m> ||Q_m||^{-2}.
        """
        if n < 1 or n > self.n_max - 1:
            raise OutOfRange(f"n={n} outside 1..{self.n_max - 1}")
        mats = []
        for m in (n + 1, n, n - 1):
            g = self.gram_qt(n, m, shift=1)
            norm = self.squared_norm_Q(m)
            if self.exact:
                norm = np.array([[complex(v) for v in row] for row in norm])
            else:
                norm = norm.astype(complex)
            mats.append(np.linalg.solve(norm.conj().T, g.conj().T).conj().T)
        An, Bn, Cn = mats
        xQ = self.build_Q(n).to_float().shift(1)
        rhs = (self.build_Q(n + 1).to_float().left_mul(An)
               + self.build_Q(n).to_float().left_mul(Bn)
               + self.build_Q(n - 1).to_float().left_mul(Cn))
        diff = xQ - rhs
        residual = diff.max_coeff_norm() / xQ.max_coeff_norm()
        return An, Bn, Cn, residual
