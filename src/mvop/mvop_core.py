"""The matrix-valued orthogonal sequence Q_n built from scalar sequences.

Q_n is assembled through the identity Q_n (I + A x) = P_n + A P_{n+1}
- G_n P_{n-1}, where G_n is the norm-ratio matrix with the sparsity
pattern of A*; multiplying by I - A x then gives Q_n itself.  The ratio
entries are formed in log space (float backend) because the scalar norms
grow factorially.

All Gram data of a sequence, <x^s Q_n, Q_m> for s = 0, 1 and n, m <=
n_max, comes from one Gauss rule per scalar weight with n_max + 2 nodes,
exact for every product of that degree.  Column k of Q_n T involves only
p_{n-1}, p_n, p_{n+1} of w_k, so the orthonormal recurrence values at the
nodes are taken once per weight and give a node table C_k[n] =
sqrt(lambda_j) (Q_n T e_k)(x_j) / sigma_n of every Q_n T column; two
matmuls per weight on the stacked table give the whole block.  sigma_n =
exp(1/2 max_k log ||p_n^{w_k}||^2) keeps both finite where the norms
themselves overflow.  ``gram_qt`` reads pairs from the block, and the
three-term recurrence residual is the W-norm of x Q_n - A_n Q_{n+1} -
B_n Q_n - C_n Q_{n-1} summed over the tables, so the orth, norm and
recurrence checks share this one quadrature path.
"""

from math import exp, sqrt

import numpy as np
import sympy as sp

from . import scalar_families as sf
from .errors import DegreeCap, InvalidParam, OutOfRange, SingularLeading
from .matrix_poly import MatrixPolynomial, conj_transpose
from .weight_model import InnerProductEngine, WeightSpec, build_nilpotent, build_T

#: exp-overflow guard on any norm-ratio quotient
LOG_RATIO_CAP = 600.0


def peak(residuals: dict):
    """(largest residual, its key, non_finite) over {key: residual}.

    The first non-finite residual is the peak, so a NaN or an overflow can
    never hide behind a finite maximum; (0.0, None, False) when no
    residual exceeds zero.
    """
    worst, where = 0.0, None
    for key, r in residuals.items():
        if not np.isfinite(r):
            return float(r), key, True
        if r > worst:
            worst, where = float(r), key
    return worst, where, False


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
    """Lazily built Q_n, P_n, norms, leading coefficients, and the Gram
    block with its node tables, for one weight."""

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
        self.engine = InnerProductEngine(weight)
        self._gram = None
        self._cache_Q = {}
        self._cache_QT = {}

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

    def norm_P(self, n: int, log_scale: float = 0.0) -> np.ndarray:
        """Diagonal matrix ||P_n||^2 / exp(log_scale), formed in log space
        by the float backend."""
        self._check_n(n, self.n_max + 1)
        N = self.weight.N
        if self.exact:
            d = [sf.squared_norm_exact(s, n) for s in self.scalar_seqs]
            out = np.zeros((N, N), dtype=object)
            out[:] = sp.Integer(0)
            for i, v in enumerate(d):
                out[i, i] = v * exp(-log_scale) if log_scale else v
            return out
        return np.diag([exp(s.log_norms[n] - log_scale)
                        for s in self.scalar_seqs]).astype(complex)

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
        return self._cache_QT.setdefault(n, qt)

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
        return self._cache_Q.setdefault(n, q)

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
        try:
            norms_n = np.array([exp(s.log_norms[n]) for s in self.scalar_seqs])
        except OverflowError:
            raise DegreeCap(f"||P_{n}||^2 is past the float range") from None
        inv_prev = np.array([exp(-s.log_norms[n - 1]) for s in self.scalar_seqs])
        A = np.asarray(self.A, dtype=complex)
        return eye + np.diag(norms_n) @ A.conj().T - np.diag(inv_prev) @ A

    def squared_norm_Q(self, n: int, log_scale: float = 0.0) -> np.ndarray:
        """||Q_n||^2 = ||P_n||^2 + A ||P_{n+1}||^2 A* + G_n A ||P_n||^2,
        divided by exp(log_scale)."""
        self._check_n(n)
        A = self.A
        term = (self.norm_P(n, log_scale)
                + A @ self.norm_P(n + 1, log_scale) @ conj_transpose(A))
        if n >= 1:
            term = term + self.ratio_matrix(n) @ A @ self.norm_P(n, log_scale)
        return term

    # -- the Gram block ------------------------------------------------------

    def log_gram_scale(self, n: int) -> float:
        """log sigma_n = 1/2 max_k log ||p_n^{w_k}||^2, the scale of degree
        n in the Gram block."""
        self._check_n(n)
        return 0.5 * max(float(s.log_norms[n]) for s in self.scalar_seqs)

    def _gram_block(self):
        """(block, tables) from one (n_max + 2)-node Gauss rule per scalar
        weight.

        ``block`` is the (2, n_max+1, N, n_max+1, N) array of <x^s Q_n,
        Q_m>_W / (sigma_n sigma_m).  ``tables`` holds, per scalar weight k,
        the nodes x_j and the (n_max+1, N, nodes) array C_k[n] =
        sqrt(lambda_j) (Q_n T e_k)(x_j) / sigma_n, so <x^s Q_n, Q_m>_W =
        sigma_n sigma_m sum_k C_k[n] diag(x^s) C_k[m]*.

        Reads the sequence and changes nothing, so threads that race to
        build it produce the same arrays.  At node x_j of weight k,
        sqrt(lambda_j) p_i(x_j) / sigma_n = u_i(x_j) ||p_i|| / sigma_n,
        where u_i(x_j) = sqrt(lambda_j) phat_i(x_j) is phat_i(x_j) over the
        norm of (phat_0..phat_{n_max+1})(x_j), lambda_j being the
        Christoffel weight; formed that way it stays finite where lambda_j
        underflows.
        """
        M, N = self.n_max, self.weight.N
        m = M + 2
        A = np.asarray(self.A, dtype=complex)
        G = np.stack([np.asarray(self.ratio_matrix(n), dtype=complex)
                      for n in range(M + 1)])
        log_sigma = np.array([self.log_gram_scale(n) for n in range(M + 1)])
        out = np.zeros((2, (M + 1) * N, (M + 1) * N), dtype=complex)
        tables = []
        for k, seq in enumerate(self.scalar_seqs):
            nodes, _ = self.engine.rule(k, m)
            vals, _ = sf.orthonormal_values(seq, nodes, m)
            u = vals / np.linalg.norm(vals, axis=0)
            half = 0.5 * np.asarray(seq.log_norms[:m], dtype=float)
            # sqrt(lambda) p_{n+d} / sigma_n at the nodes, n = 0..M
            lo = np.exp(half[:M] - log_sigma[1:])[:, None] * u[:M]
            mid = np.exp(half[:M + 1] - log_sigma)[:, None] * u[:M + 1]
            hi = np.exp(half[1:] - log_sigma)[:, None] * u[1:]
            # column k of Q_n T: e_k p_n + A[:, k] p_{n+1} - G_n[:, k] p_{n-1}
            C = A[None, :, k, None] * hi[:, None, :]
            C[:, k] += mid
            C[1:] -= G[1:, :, k, None] * lo[:, None, :]
            tables.append((nodes, C))
            F = C.reshape(-1, m)
            FH = F.conj().T
            out[0] += F @ FH
            out[1] += (F * nodes) @ FH
        return out.reshape(2, M + 1, N, M + 1, N), tables

    def gram_data(self):
        """The Gram block and the node tables (see ``_gram_block``), built
        on first use and published together in one assignment."""
        got = self._gram
        if got is None:
            got = self._gram = self._gram_block()
        return got

    def gram_qt(self, n: int, m: int, shift: int = 0,
                scaled: bool = False) -> np.ndarray:
        """<x^shift Q_n, Q_m>_W for shift 0 or 1, read from the Gram block.

        With ``scaled`` the result is divided by sigma_n sigma_m (see
        ``log_gram_scale``); residuals are formed from that form, which
        stays finite at degrees where the Gram itself overflows.
        """
        self._check_n(n)
        self._check_n(m)
        if shift not in (0, 1):
            raise InvalidParam(f"shift must be 0 or 1, got {shift}")
        g = self.gram_data()[0][shift, n, :, m, :]
        if scaled:
            return g.copy()
        log_s = self.log_gram_scale(n) + self.log_gram_scale(m)
        try:
            return g * exp(log_s)
        except OverflowError:
            raise DegreeCap(f"<Q_{n}, Q_{m}> is past the float range (log "
                            f"scale {log_s:.1f}); read it scaled") from None

    def quadrature_summary(self) -> dict:
        """Nodes per scalar weight of the Gauss rules behind the Gram block
        and the smallest Gauss weight among them."""
        m = self.n_max + 2
        smallest = min(float(np.min(self.engine.rule(k, m)[1]))
                       for k in range(self.weight.N))
        return {"gauss_nodes": m, "min_gauss_weight": smallest}

    # -- verification -------------------------------------------------------

    def verify_orthogonality(self, n_max: int, tol: float) -> dict:
        """Scaled Gram residuals over all pairs n != m up to n_max; a
        non-finite residual fails."""
        self._check_n(n_max)
        self_norm = [np.linalg.norm(self.gram_qt(n, n, scaled=True))
                     for n in range(n_max + 1)]
        residuals = {}
        for n in range(n_max + 1):
            for m in range(n + 1, n_max + 1):
                g = self.gram_qt(n, m, scaled=True)
                residuals[n, m] = (np.linalg.norm(g)
                                   / np.sqrt(self_norm[n] * self_norm[m]))
        worst, worst_pair, non_finite = peak(residuals)
        failures = [(n, m, r) for (n, m), r in residuals.items()
                    if not r <= tol]
        return {"max_scaled_residual": worst, "worst_pair": worst_pair,
                "tol": tol, "passed": not failures, "failures": failures,
                "non_finite": non_finite}

    def three_term_coefficients(self, n: int):
        """(A_n, B_n, C_n, residual) for x Q_n = A_n Q_{n+1} + B_n Q_n + C_n Q_{n-1}.

        Computed by projection: X_n = <x Q_n, Q_m> ||Q_m||^{-2}, from the
        scaled Gram block and closed-form norms, (sigma_n / sigma_m) times
        the scaled ratio.  The residual is ||R_n||_W / ||x Q_n||_W with
        R_n = x Q_n - A_n Q_{n+1} - B_n Q_n - C_n Q_{n-1} and ||P||_W^2 =
        tr <P, P>_W, summed over the node tables of ``_gram_block`` with
        every term divided by sigma_n (so A_n and C_n carry the factors
        sigma_{n+1} / sigma_n and sigma_{n-1} / sigma_n).  It is exact:
        R_n T has degree n + 2, which the n_max + 2 nodes integrate for
        every n <= n_max - 1.
        """
        if n < 1 or n > self.n_max - 1:
            raise OutOfRange(f"n={n} outside 1..{self.n_max - 1}")
        ln = self.log_gram_scale(n)
        mats, terms = [], []
        for m in (n + 1, n, n - 1):
            lm = self.log_gram_scale(m)
            g = self.gram_qt(n, m, shift=1, scaled=True) * exp(ln - lm)
            norm = np.asarray(self.squared_norm_Q(m, 2.0 * lm), dtype=complex)
            X = np.linalg.solve(norm.conj().T, g.conj().T).conj().T
            mats.append(X)
            terms.append((m, X * exp(lm - ln)))
        num = den = 0.0
        for nodes, C in self.gram_data()[1]:
            xq = C[n] * nodes
            r = xq - sum(X @ C[m] for m, X in terms)
            num += np.vdot(r, r).real
            den += np.vdot(xq, xq).real
        An, Bn, Cn = mats
        return An, Bn, Cn, sqrt(num / den)
