"""Independent oracles used to freeze expected values in the tests.

The recurrence oracle runs Gram-Schmidt on exact moments in sympy
rationals, sharing no code with the library's recurrence generation.
The product oracles build P_n and Q_n one degree at a time from
``MonicScalarSequence.polynomial`` and MatrixPolynomial products, the
reference for the stacked construction in ``MVOPSequence``.
"""

from math import comb

import numpy as np
import sympy as sp


def hermite_moments(b, n):
    """Normalized moments m_k / m_0 of exp(-x^2 + 2bx), k = 0..n."""
    b = sp.nsimplify(b, rational=True)
    ms = [sp.Integer(1), b]
    for k in range(1, n):
        ms.append(sp.expand(b * ms[k] + sp.Rational(k, 2) * ms[k - 1]))
    return ms[:n + 1]


def laguerre_moments(alpha, n):
    """Normalized moments of x^alpha exp(-x): rising factorial (alpha+1)_k."""
    a = sp.nsimplify(alpha, rational=True)
    ms = [sp.Integer(1)]
    for k in range(n):
        ms.append(sp.expand(ms[-1] * (a + 1 + k)))
    return ms


def jacobi_moments(alpha, beta, n):
    """Normalized moments of (1-x)^alpha (1+x)^beta on (-1, 1).

    With x = 2t - 1 the k-th moment is a Beta-function combination; the
    ratios to m_0 are rational in alpha, beta.
    """
    a = sp.nsimplify(alpha, rational=True)
    b = sp.nsimplify(beta, rational=True)

    def beta_ratio(j):
        # B(b+1+j, a+1) / B(b+1, a+1)
        num = sp.Integer(1)
        den = sp.Integer(1)
        for i in range(j):
            num *= b + 1 + i
            den *= a + b + 2 + i
        return num / den

    ms = []
    for k in range(n + 1):
        s = sum(sp.Integer(comb(k, j)) * 2 ** j * (-1) ** (k - j)
                * beta_ratio(j) for j in range(k + 1))
        ms.append(sp.nsimplify(sp.together(s)))
    return ms


def recurrence_from_moments(moments):
    """Monic three-term recurrence (b_0.., c_1..) by exact Gram-Schmidt.

    Needs moments m_0..m_{2K} to produce b_0..b_{K-1} and c_1..c_{K-1}.
    """
    m = [sp.nsimplify(x, rational=False) for x in moments]
    K = (len(m) - 1) // 2

    def ip(p, q):
        # <p, q> with p, q ascending coefficient lists
        return sp.expand(sum(pi * qj * m[i + j]
                             for i, pi in enumerate(p)
                             for j, qj in enumerate(q)))

    polys = [[sp.Integer(1)]]
    bs, cs = [], []
    for k in range(K):
        p = polys[k]
        xp = [sp.Integer(0)] + list(p)
        nrm = ip(p, p)
        b = sp.simplify(ip(xp, p) / nrm)
        bs.append(b)
        nxt = [sp.expand(x - b * y) for x, y in
               zip(xp, list(p) + [sp.Integer(0)])]
        if k >= 1:
            c = sp.simplify(nrm / ip(polys[k - 1], polys[k - 1]))
            cs.append(c)
            prev = polys[k - 1]
            nxt = [sp.expand(x - c * (prev[i] if i < len(prev) else 0))
                   for i, x in enumerate(nxt)]
        polys.append(nxt)
    return bs, cs


def monic_from_recurrence(bs, cs, n):
    """Coefficient list of the monic p_n from oracle recurrence data."""
    polys = [[sp.Integer(1)], [-bs[0], sp.Integer(1)]]
    for k in range(1, n):
        p, q = polys[k], polys[k - 1]
        xp = [sp.Integer(0)] + list(p)
        nxt = [sp.expand(xp[i] - bs[k] * (p[i] if i < len(p) else 0)
                         - cs[k - 1] * (q[i] if i < len(q) else 0))
               for i in range(len(xp))]
        polys.append(nxt)
    return polys[n]


def pairwise_quadrature(weight, A, P, Q):
    """<P, Q>_W on a Gauss rule sized for this one pair: Golub-Welsch
    eigenvector weights, P and Q evaluated in the power basis, and
    W(x) = sum_k w_k t_k t_k^* with t_k = e_k + x A[:, k].

    Shares no code with the package's Gram block; fine at low degree,
    where eigenvector weights and the power basis are both accurate.
    P, Q are lists of (N, N) coefficient arrays (ascending).
    """
    from mvop.scalar_families import recurrence_coefficients
    N = weight.N
    m = (len(P) + len(Q)) // 2 + 2
    A = np.asarray(A, dtype=complex)
    G = np.zeros((N, N), dtype=complex)
    for k, s in enumerate(weight.scalars):
        seq = recurrence_coefficients(s, m)
        off = np.sqrt(np.asarray(seq.c_coeffs[:m - 1], dtype=float))
        J = (np.diag(np.asarray(seq.b_coeffs[:m], dtype=float))
             + np.diag(off, 1) + np.diag(off, -1))
        nodes, vecs = np.linalg.eigh(J)
        lam = np.exp(seq.log_norms[0]) * vecs[0] ** 2
        for x, w in zip(nodes, lam):
            t = np.eye(N)[:, k] + x * A[:, k]
            px = sum(c * x ** i for i, c in enumerate(P)) @ t
            qx = sum(c * x ** i for i, c in enumerate(Q)) @ t
            G += w * np.outer(px, qx.conj())
    return G


def op_apply_loop(P, D):
    """P . D = sum_j (d^j P) F_j, one MatrixPolynomial product per term:
    the per-polynomial reference for the stacked operator kernel."""
    from mvop.matrix_poly import MatrixPolynomial
    out = MatrixPolynomial.zero(P.size, P.exact)
    for j, fj in enumerate(D.f_coeffs):
        out = out + P.derivative(j) * fj
    return out


def tridiagonal_from_rho(rho, rng=None):
    """A unit-diagonal tridiagonal matrix realizing the products -u_i l_i = rho_i.

    The brute-force cross-check of ``continuant``; the determinant only
    depends on the products, so the split into u_i and l_i is free.
    """
    n = len(rho) + 1
    K = np.eye(n)
    for i, r in enumerate(rho):
        u = 1.0 if rng is None else rng.uniform(0.5, 2.0)
        K[i, i + 1] = u
        K[i + 1, i] = -r / u
    return K


def p_product(seq, n):
    """P_n = diag(p_n^{w_1}, ..., p_n^{w_N}) as a MatrixPolynomial in the
    sequence's arithmetic, from ``MonicScalarSequence.polynomial``."""
    from mvop.matrix_poly import MatrixPolynomial
    N = seq.weight.N
    polys = [s.polynomial(n) for s in seq.scalar_seqs]
    coeffs = []
    for k in range(n + 1):
        c = np.zeros((N, N), dtype=object if seq.exact else complex)
        for i, p in enumerate(polys):
            c[i, i] = p[k] if k < len(p) else 0
        coeffs.append(c)
    return MatrixPolynomial(coeffs, size=N, exact=seq.exact)


def q_product(seq, n):
    """Q_n = (P_n + A P_{n+1} - G_n P_{n-1}) T^{-1}, one MatrixPolynomial
    product per term, untouched at the x^n coefficient."""
    qt = p_product(seq, n) + p_product(seq, n + 1).left_mul(seq.A)
    if n >= 1:
        qt = qt - p_product(seq, n - 1).left_mul(seq.ratio_matrix(n))
    return qt * seq.T_inv


def complex_rows(rows):
    """Exact Q_n (or Q_n T) rows rounded entry by entry through complex():
    the conversion the exact ``q_block`` and ``qt_block`` used to make."""
    return np.asarray(rows, dtype=complex)


def darboux_loop(p_of, D1, q_seq, n_max, tol=1e-9):
    """P_n . D1 = A_n Q_n one degree at a time: ``p_of(n)`` is P_n as a
    MatrixPolynomial, Q_n is ``q_seq.build_Q(n)``, and A_n is solved from
    the leading coefficients.  The reference for the stacked
    ``darboux_verify``; returns its report."""
    from mvop.darboux import DarbouxReport
    from mvop.diff_operators import op_apply
    conn, dets, singular = [], [], []
    worst = 0.0
    for n in range(n_max + 1):
        P = p_of(n)
        if P.exact:
            P = P.to_float()
        L = op_apply(P, D1)
        Q = q_seq.build_Q(n).to_float()
        K = Q.coeffs[Q.degree]
        lead = L.coeff(n)
        An = np.linalg.solve(K.T, lead.T).T   # lead = An @ K
        d = complex(np.linalg.det(An))
        scale = max(L.max_coeff_norm(), Q.max_coeff_norm(), 1e-300)
        res = (L - Q.left_mul(An)).max_coeff_norm() / scale
        worst = max(worst, res)
        conn.append(An)
        dets.append(d)
        if abs(d) <= 1e-12:
            singular.append(n)
    passed = (worst <= tol and len(singular) <= n_max
              and (not singular or singular[-1] < n_max))
    return DarbouxReport(n_max=n_max, tol=tol, worst_residual=worst,
                         connection=conn, dets=dets, singular_ns=singular,
                         passed=passed)
