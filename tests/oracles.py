"""Independent oracles used to freeze expected values in the tests.

The recurrence oracle runs Gram-Schmidt on exact moments in sympy
rationals, sharing no code with the library's recurrence generation.
"""

from math import comb

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
    import numpy as np
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
