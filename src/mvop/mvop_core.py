"""The matrix-valued orthogonal sequence Q_n built from scalar sequences.

Q_n is assembled through the identity Q_n (I + A x) = P_n + A P_{n+1}
- G_n P_{n-1}, where G_n is the norm-ratio matrix with the sparsity
pattern of A*; multiplying by I - A x then gives Q_n itself.  The ratio
entries are formed in log space (float backend) because the scalar norms
grow factorially.  Both backends assemble a range of degrees at once from
one table of scalar power coefficients per sequence (floats, or sympy
rationals on the exact backend): ``_assemble`` reads P_{n-1}, P_n and
P_{n+1} from it, forms every Q_n T of the range as one (degrees, powers,
N, N) array, applies I - A x by one shifted matmul, puts in the
closed-form leading coefficient K_n and gives each degree a verdict
(valid, past the float range, degree overflow, singular K_n).
``q_block``, ``qt_block`` (complex), ``build_Q`` and ``build_QT``
(backend arithmetic) read rows of it and refuse the first faulty degree
of the range they ask for; ``p_block`` reads the diagonal P_n from the
same table.  The float backend assembles each requested range anew.  The
exact backend assembles degrees 0..n_max once per sequence, rounds the
rows to complex doubles once, and rounds each exact ||Q_n||^2 /
sigma_n^2 once for the norm and recurrence checks, so every check reads
the same exact quantities without building them again.

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

from math import exp, log, sqrt

import numpy as np
import sympy as sp

from . import scalar_families as sf
from .errors import DegreeCap, InvalidParam, OutOfRange, SingularLeading
from .matrix_poly import MatrixPolynomial, conj_transpose
from .weight_model import InnerProductEngine, WeightSpec, build_nilpotent, build_T

#: exp-overflow guard on any norm-ratio quotient
LOG_RATIO_CAP = 600.0

#: sp.expand of every entry of an object array; plain numbers (most exact
#: Q_n entries are 0 or a rational) are already expanded
_expand = np.frompyfunc(
    lambda v: v if isinstance(v, sp.Number) else sp.expand(v), 1, 1)

#: errors of the nonzero per-degree verdicts of ``MVOPSequence._assemble``
_FAULTS = (None,
           (DegreeCap, "coefficients of Q_{n} are past the float range"),
           (SingularLeading, "degree overflow at n={n}"),
           (SingularLeading, "singular leading coefficient at n={n}"))


def _to_complex(a) -> np.ndarray:
    """An array of sympy entries (or numbers) rounded to complex doubles.

    Real sympy entries go through float, the same doubles as complex() at
    a fraction of its cost (complex() runs evalf and then splits the
    result into real and imaginary parts); only a non-real entry raises
    the TypeError that sends the whole array through complex().
    """
    if a.dtype != object:
        return a.astype(complex, copy=False)
    try:
        return np.asarray(a, dtype=float).astype(complex)
    except TypeError:
        return np.asarray(a, dtype=complex)


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
        N = weight.N
        self._eye = (np.array(sp.eye(N).tolist(), dtype=object) if self.exact
                     else np.eye(N))
        self._gram = None
        self._ptab = None
        self._qrows = None
        self._qnorms = {}

    def _check_n(self, n, hi=None):
        hi = self.n_max if hi is None else hi
        if n < 0 or n > hi:
            raise OutOfRange(f"n={n} outside 0..{hi}")

    def _scalar_table(self) -> np.ndarray:
        """Power coefficients of every scalar polynomial: floats, or sympy
        rationals on the exact backend.

        Shape (n_max+3, n_max+3, N): entry [n + 1, p, k] is [x^p] p_n^{w_k}
        for n = -1..n_max+1, row 0 (p_{-1}) being zero.  The recurrence
        p_{n+1} = (x - b_n) p_n - c_n p_{n-1} runs on all N weights at once,
        with the operations of ``MonicScalarSequence.polynomial``.  Built
        on first use and published in one assignment; float coefficients
        past the float range (Laguerre near n = 170) are left infinite for
        ``_rows`` to refuse.
        """
        got = self._ptab
        if got is not None:
            return got
        M, N = self.n_max, self.weight.N
        dtype = object if self.exact else float
        b = np.array([s.b_coeffs[:M + 1] for s in self.scalar_seqs],
                     dtype=dtype).T
        c = np.zeros((M + 1, N), dtype=dtype)
        c[1:] = np.array([s.c_coeffs[:M] for s in self.scalar_seqs],
                         dtype=dtype).T
        tab = np.zeros((M + 3, M + 3, N), dtype=dtype)
        tab[1, 0] = 1
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(M + 1):
                p = tab[n + 1]
                tab[n + 2, 1:] = p[:-1]
                tab[n + 2] -= b[n] * p
                tab[n + 2] -= c[n] * tab[n]
        self._ptab = tab
        return tab

    # -- diagonal scalar objects ------------------------------------------

    def p_block(self, lo: int, hi: int) -> np.ndarray:
        """P_n = diag(p_n^{w_1}, ..., p_n^{w_N}) for n = lo..hi-1, read
        from the scalar table: complex power coefficients shaped like
        ``q_block``.  The table is real on both backends, and sympy
        rationals convert far faster through float than through complex."""
        self._check_range(lo, hi)
        tab = np.asarray(self._scalar_table()[lo + 1:hi + 1], dtype=float)
        return (np.eye(self.weight.N) * tab[:, :, None, :]).astype(complex)

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

    def _check_range(self, lo, hi):
        if not 0 <= lo < hi <= self.n_max + 1:
            raise OutOfRange(f"degrees {lo}..{hi - 1} outside 0..{self.n_max}")

    def _leading(self, ns, G) -> np.ndarray:
        """K_n = I + A D - D' A + G_n A for the degrees ``ns``, with D =
        diag([x^n] p_{n+1}), D' = diag([x^{n-1}] p_n) read from the scalar
        table and G the stacked G_n; a (len(ns), N, N) stack."""
        ns = np.asarray(ns)
        tab = self._scalar_table()
        top = tab[ns + 2, ns]
        below = np.where((ns >= 1)[:, None], tab[ns + 1, ns - 1], 0)
        return (self._eye + self.A * top[:, None, :]
                - below[:, :, None] * self.A + G @ self.A)

    def leading_closed_form(self, n: int) -> np.ndarray:
        """K_n = I + A D - D' A + G_n A, with D = diag([x^n] p_{n+1}) and
        D' = diag([x^{n-1}] p_n).

        Stable where reading K_n off the product (Q_n T) T^{-1} is not:
        the product coefficients carry absolute roundoff on the scale of
        the largest scalar coefficient, which dwarfs K_n at large n.
        """
        self._check_n(n)
        K = self._leading([n], self.ratio_matrix(n)[None])[0]
        return _expand(K) if self.exact else K

    def _assemble(self, lo: int, hi: int):
        """(Q_n T, Q_n, verdict) for n = lo..hi-1 in backend arithmetic:
        power coefficients of shape (hi - lo, n_max + 3, N, N), Q_n zero
        above degree n, and one verdict per degree (0 for a valid Q_n, else
        an index into ``_FAULTS``; ``_refuse`` turns it into the error).

        Q_n T = P_n + A P_{n+1} - G_n P_{n-1} for the whole range from the
        scalar table, times T^{-1} = I - A x by one shifted matmul.  Powers
        n + 1 and n + 2 of Q_n cancel structurally (A^2 = 0); anything left
        there is a degree overflow, and a singular K_n is refused too.
        Float: "left" means above 1e-8 of the largest coefficient, scalar
        coefficients past the float range raise ``DegreeCap`` at once, a
        degree whose Q_n T or Q_n coefficients leave the float range (G_n
        P_{n-1} on mixed families) gets a ``DegreeCap`` verdict, and the x^n
        coefficient is replaced by its closed form K_n (see
        ``leading_closed_form``), which roundoff at the top coefficient
        scale would swamp.  Exact: every entry that is not already a number
        is expanded, the leftover powers must expand to 0 and the sympy det
        of K_n must not be 0.
        """
        self._check_range(lo, hi)
        N, width = self.weight.N, self.n_max + 3
        tab = self._scalar_table()[:, :, None, :]
        if not self.exact:
            finite = np.isfinite(tab[lo:hi + 2]).all(axis=(1, 2, 3))
            if not finite.all():
                k = lo - 1 + int(finite.argmin())
                raise DegreeCap(f"power coefficients of p_{k} are past the "
                                f"float range")
        ns = np.arange(lo, hi)
        rows = np.arange(hi - lo)
        G = np.stack([self.ratio_matrix(n) for n in ns])
        with np.errstate(over="ignore", invalid="ignore"):
            # column k of Q_n T: e_k p_n + A[:, k] p_{n+1} - G_n[:, k] p_{n-1}
            qt = (self._eye * tab[lo + 1:hi + 1] + self.A * tab[lo + 2:hi + 2]
                  - G[:, None] * tab[lo:hi])
            q = qt.copy()
            q[:, 1:] -= (qt[:, :-1].reshape(-1, N) @ self.A).reshape(
                hi - lo, width - 1, N, N)
            K = self._leading(ns, G)
        spill = q[rows[:, None], ns[:, None] + [1, 2]]
        if self.exact:
            qt, q, K, spill = map(_expand, (qt, q, K, spill))
            finite = np.ones(hi - lo, dtype=bool)
            overflow = (spill != 0).any(axis=(1, 2, 3))
            singular = np.array([sp.Matrix(k.tolist()).det() == 0 for k in K])
        else:
            # a non-finite Q_n T coefficient leaves Q_n non-finite too
            with np.errstate(over="ignore", invalid="ignore"):
                top = np.abs(q).max(axis=(1, 2, 3))
                finite = np.isfinite(top)
                overflow = np.abs(spill).max(axis=(1, 2, 3)) > 1e-8 * top
                singular = np.abs(np.linalg.det(K)) == 0.0
        # later assignments win: non-finite, then overflow, then singular
        verdict = np.zeros(hi - lo, dtype=np.int8)
        verdict[singular] = 3
        verdict[overflow] = 2
        verdict[~finite] = 1
        q[rows, ns] = K
        q[np.arange(width)[None, :] > ns[:, None]] = 0
        return qt, q, verdict

    @staticmethod
    def _refuse(lo: int, verdict):
        """Raise the error of the first faulty degree among ``verdict``
        (degrees lo, lo + 1, ...), if any."""
        bad = np.flatnonzero(verdict)
        if bad.size:
            err, what = _FAULTS[verdict[bad[0]]]
            raise err(what.format(n=lo + int(bad[0])))

    def _rows(self, lo: int, hi: int):
        """(Q_n T, Q_n) in backend arithmetic, then (Q_n T, Q_n) in
        complex, for n = lo..hi-1; ``SingularLeading`` or ``DegreeCap`` at
        the first faulty degree of the range.

        Float rows are assembled for the range alone (whole-range float
        rows would take hundreds of MB at n_max 509) and are complex
        already.  Exact rows are assembled once for degrees 0..n_max,
        rounded to complex and published with their verdicts in one
        assignment; readers get copies of their slice.  Checks racing in
        the pool may each build them; they build equal tuples, so whichever
        lands last is as good.
        """
        self._check_range(lo, hi)
        if not self.exact:
            qt, q, verdict = self._assemble(lo, hi)
            self._refuse(lo, verdict)
            return qt, q, qt, q
        got = self._qrows
        if got is None:
            qt, q, verdict = self._assemble(0, self.n_max + 1)
            got = self._qrows = (verdict, qt, q, _to_complex(qt),
                                 _to_complex(q))
        self._refuse(lo, got[0][lo:hi])
        return tuple(a[lo:hi].copy() for a in got[1:])

    def q_block(self, lo: int, hi: int) -> np.ndarray:
        """Complex power coefficients of Q_lo..Q_{hi-1}, shape (hi - lo,
        n_max + 3, N, N), zero above each degree: the Q_n rows of
        ``_assemble``; exact rows are rounded to the nearest doubles once
        per sequence (see ``_rows``)."""
        return self._rows(lo, hi)[3]

    def qt_block(self, lo: int, hi: int) -> np.ndarray:
        """Complex power coefficients of Q_lo T..Q_{hi-1} T, shaped like
        ``q_block``: the Q_n T rows of ``_assemble``, rounded like
        ``q_block``'s on the exact backend."""
        return self._rows(lo, hi)[2]

    def build_QT(self, n: int) -> MatrixPolynomial:
        """Q_n T = P_n + A P_{n+1} - G_n P_{n-1} (degree n + 1) in backend
        arithmetic, row n of ``_assemble``."""
        qt = self._rows(n, n + 1)[0][0, :n + 2]
        return MatrixPolynomial(list(qt), size=self.weight.N,
                                exact=self.exact, trim=False)

    def build_Q(self, n: int) -> MatrixPolynomial:
        """Q_n = (Q_n T) T^{-1}, degree n with nonsingular leading
        coefficient K_n, in backend arithmetic: row n of ``_assemble``."""
        q = self._rows(n, n + 1)[1][0, :n + 1]
        return MatrixPolynomial(list(q), size=self.weight.N,
                                exact=self.exact, trim=False)

    def rho_values(self, n: int):
        """rho_i = a_i^2 ||p_n^{w_{2ceil(i/2)}}||^2 / ||p_{n-1}^{w_{2floor(i/2)+1}}||^2."""
        self._check_n(n, self.n_max + 1)
        out = []
        for i in range(1, self.weight.N):
            num = 2 * ((i + 1) // 2)       # weight index, 1-based
            den = 2 * (i // 2) + 1
            if self.exact:
                a = sf._rat(self.weight.a_params[i - 1])
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
        """I + ||P_n||^2 A* - ||P_{n-1}||^{-2} A up to a diagonal
        similarity, for brute-force det checks.

        The off-diagonal entries sit on the adjacent pairs (i, i+1)/(i+1,
        i), one from A and one from A* (see ``build_nilpotent``).  A
        diagonal similarity built from the log norms gives both entries of
        pair i the magnitude sqrt(rho_i), so only the log ratio of
        ``rho_values`` is exponentiated, halved: the matrix stays in range
        where the norms themselves overflow, and the determinant does not
        change.
        """
        self._check_n(n)
        N = self.weight.N
        M = np.eye(N, dtype=complex)
        if n == 0:
            return M
        A = np.asarray(self.A, dtype=complex)
        for i in range(N - 1):
            # r: row of the A entry of the pair, u: row of the A* entry
            r, u = (i, i + 1) if A[i, i + 1] != 0 else (i + 1, i)
            a = A[r, u]
            lr = (self.scalar_seqs[u].log_norms[n]
                  - self.scalar_seqs[r].log_norms[n - 1])
            if abs(lr) > LOG_RATIO_CAP:
                raise DegreeCap(f"rho log ratio {lr:.1f} exceeds cap")
            m = exp(0.5 * lr)
            M[r, u] = -a * m
            M[u, r] = a.conjugate() * m
        return M

    def squared_norm_Q(self, n: int, log_scale: float = 0.0) -> np.ndarray:
        """||Q_n||^2 = ||P_n||^2 + A ||P_{n+1}||^2 A* + G_n A ||P_n||^2,
        divided by exp(log_scale): complex on the float backend, sympy
        entries (built anew on each call) on the exact backend, where the
        checks read it rounded through ``_norm_Q``."""
        self._check_n(n)
        A = self.A
        term = (self.norm_P(n, log_scale)
                + A @ self.norm_P(n + 1, log_scale) @ conj_transpose(A))
        if n >= 1:
            term = term + self.ratio_matrix(n) @ A @ self.norm_P(n, log_scale)
        return term

    def _norm_Q(self, n: int) -> np.ndarray:
        """Complex ||Q_n||^2 / sigma_n^2 (log sigma_n = ``log_gram_scale``),
        as the norm and recurrence checks read it: ``squared_norm_Q``
        rounded to complex, once per degree on the exact backend and
        read-only there.  Checks racing in the pool may both build a
        degree; they store equal arrays."""
        if not self.exact:
            return self.squared_norm_Q(n, 2.0 * self.log_gram_scale(n))
        got = self._qnorms.get(n)
        if got is None:
            got = _to_complex(
                self.squared_norm_Q(n, 2.0 * self.log_gram_scale(n)))
            got.flags.writeable = False
            self._qnorms[n] = got
        return got

    # -- the Gram block ------------------------------------------------------

    def log_gram_scale(self, n: int) -> float:
        """log sigma_n = 1/2 max_k log ||p_n^{w_k}||^2, the scale of degree
        n in the Gram block."""
        self._check_n(n)
        return 0.5 * max(float(s.log_norms[n]) for s in self.scalar_seqs)

    def _gram_block(self):
        """(block, tables, log10_min_weight) from one (n_max + 2)-node
        Gauss rule per scalar weight.

        ``block`` is the (2, n_max+1, N, n_max+1, N) array of <x^s Q_n,
        Q_m>_W / (sigma_n sigma_m).  ``tables`` holds, per scalar weight k,
        the nodes x_j and the (n_max+1, N, nodes) array C_k[n] =
        sqrt(lambda_j) (Q_n T e_k)(x_j) / sigma_n, so <x^s Q_n, Q_m>_W =
        sigma_n sigma_m sum_k C_k[n] diag(x^s) C_k[m]*.  ``log10_min_weight``
        is log10 of the smallest Christoffel weight lambda_j of all rules,
        read in the scaled form, so it stays a number where lambda_j
        underflows.

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
        G = np.stack([_to_complex(self.ratio_matrix(n)) for n in range(M + 1)])
        log_sigma = np.array([self.log_gram_scale(n) for n in range(M + 1)])
        out = np.zeros((2, (M + 1) * N, (M + 1) * N), dtype=complex)
        tables = []
        log_min = np.inf
        for k, seq in enumerate(self.scalar_seqs):
            nodes, _ = self.engine.rule(k, m)
            vals, log_scale = sf.orthonormal_values(seq, nodes, m)
            norm = np.linalg.norm(vals, axis=0)
            u = vals / norm
            # log lambda_j, lambda_j = 1 / sum_i phat_i(x_j)^2
            log_lam = -2.0 * (log_scale + np.log(norm))
            log_min = min(log_min, float(log_lam.min()))
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
        return (out.reshape(2, M + 1, N, M + 1, N), tables,
                log_min / log(10.0))

    def gram_data(self):
        """The Gram block, the node tables and the log10 of the smallest
        Gauss weight (see ``_gram_block``), built on first use and
        published together in one assignment."""
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
        and the smallest Gauss weight among them, also as a log10 that
        stays finite where the weight itself underflows to 0."""
        m = self.n_max + 2
        smallest = min(float(np.min(self.engine.rule(k, m)[1]))
                       for k in range(self.weight.N))
        return {"gauss_nodes": m, "min_gauss_weight": smallest,
                "log10_min_gauss_weight": self.gram_data()[2]}

    # -- verification -------------------------------------------------------

    def verify_orthogonality(self, n_max: int, tol: float) -> dict:
        """Scaled Gram residuals ||G_nm|| / sqrt(||G_nn|| ||G_mm||) over all
        pairs n < m <= n_max, formed from the scaled block by array
        operations (the n_max + 1 diagonal blocks through ``gram_qt``); a
        non-finite residual fails."""
        self._check_n(n_max)
        k = n_max + 1
        self_norm = np.array([np.linalg.norm(self.gram_qt(n, n, scaled=True))
                              for n in range(k)])
        block = self.gram_data()[0][0, :k, :, :k, :]
        ratio = (np.linalg.norm(block, axis=(1, 3))
                 / np.sqrt(np.outer(self_norm, self_norm)))
        n_idx, m_idx = np.triu_indices(k, 1)
        residuals = dict(zip(zip(n_idx.tolist(), m_idx.tolist()),
                             ratio[n_idx, m_idx].tolist()))
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
            norm = self._norm_Q(m)
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
