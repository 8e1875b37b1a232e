"""Independent oracles used to freeze expected values in the tests.

The recurrence oracle runs Gram-Schmidt on exact moments in sympy
rationals, sharing no code with the library's recurrence generation.
The closed-form recurrences in sympy Rational arithmetic are the reference
for the integer exact recurrences.  The per-coefficient Cauchy product and
derivative loops are the reference for the stack routines of
``matrix_poly`` and the operator kernel built on them, the term-by-term
MatrixPolynomial composition for ``op_compose``, the two compositions for
the closed-form ``conjugate_by_T``, and the full-width complex eigen loop
and the fixed 16-degree blocks for ``eigencheck``.  The product oracles
build P_n and Q_n one degree at a time from
``MonicScalarSequence.polynomial`` and
MatrixPolynomial products, the reference for the stacked construction in
``MVOPSequence``; the dense norm products are the reference for its sparse
||Q_n||^2, and the 50-digit rounding for the doubles its norm reader
gives; the three-solve pass is the reference for the stacked three-term
pass.  The dense symmetry solve is the reference for the commutant solve
in ``order_zero_symmetries``.  The hand-written ladder steps are the
reference for ``synthesize_shift``'s walk over the ladder table, the
13-entry 5x5 table for ``laguerre_chain``'s period-2 loop, and the
sampled quadratic fit of w1/w2 for the 2x2 reduction read off the Jacobi
parameters.  ``set_ratio`` is no oracle: it injects a
wrong G_n into a sequence's G_n table for the fault tests.
"""

from math import comb, exp

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


def moment0_sympy(spec):
    """The zeroth moment of a classical weight in sympy, each Gamma(x) as
    Gamma(f) rf(f, x - f), f in (0, 1]: the reference for the rational and
    the atom of ``exact_scalars.moment0``."""
    from mvop.scalar_families import HERMITE, LAGUERRE

    def gamma(x):
        f = x - sp.ceiling(x) + 1
        return sp.gamma(f) * sp.rf(f, x - f)
    scale, b0, a, b = (sp.nsimplify(v, rational=True)
                       for v in (spec.scale, spec.b, spec.alpha, spec.beta))
    if spec.family == HERMITE:
        return scale * sp.sqrt(sp.pi) * sp.exp(b0 ** 2)
    if spec.family == LAGUERRE:
        return scale * gamma(a + 1)
    return (scale * 2 ** (a + b + 1) * gamma(a + 1) * gamma(b + 1)
            / gamma(a + b + 2))


def classical_exact(spec, n_max):
    """(b_0..b_{n_max}, c_1..c_{n_max}, norm rationals, log norms) of a
    classical weight from the closed-form recurrences in sympy Rational
    arithmetic, with ||p_n||^2 = m0 c_1 ... c_n = (coefficient of m0) times
    the product times the atom, and log ||p_n||^2 = log m0 (from 40 digits)
    + log of the product, each at 113 bits and rounded to a double.  The
    Jacobi forms are written in symbols alpha, beta and then substituted, so
    that the factor 1 + alpha + beta of c_1 cancels as sympy cancels it.  The
    reference for the integer exact recurrences of ``exact_scalars``."""
    import mpmath
    from mvop.scalar_families import HERMITE, LAGUERRE
    b0, al, be = (sp.nsimplify(v, rational=True)
                  for v in (spec.b, spec.alpha, spec.beta))
    x, y = sp.symbols("alpha beta")
    one, b, c, s = sp.Integer(1), [], [], x + y
    for n in range(n_max + 1):
        if spec.family == HERMITE:
            b.append(b0 * one)
            if n >= 1:
                c.append(n * one / 2)
        elif spec.family == LAGUERRE:
            b.append((2 * n + 1) * one + al)
            if n >= 1:
                c.append(n * (n + al) * one)
        else:
            bn = ((y - x) / (s + 2) if n == 0 else
                  (y - x) * (y + x) / ((2 * n + s) * (2 * n + s + 2)))
            b.append(bn.subs({x: al, y: be}))
            if n >= 1:
                c.append((4 * n * (n + x) * (n + y) * (n + s)
                          / ((2 * n + s) ** 2 * (2 * n + s + 1)
                             * (2 * n + s - 1))).subs({x: al, y: be}))
    m0 = moment0_sympy(spec)
    coeff = m0.as_coeff_Mul()[0]
    prods = np.cumprod([one, *c])
    with mpmath.workprec(113):
        log_m0 = mpmath.log(m0.evalf(40))
        logs = [float(log_m0 + mpmath.log(r)) for r in prods]
    return b, c, [coeff * r for r in prods], logs


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


def orthonormal_loop(seq, x, count):
    """Orthonormal phat_0..phat_{count-1} of one sequence at the points x
    as (vals, log_scale), phat_k(x_j) = vals[k, j] exp(log_scale[j]): the
    recurrence run for this sequence alone, rescaling a point whenever a
    value passes 2^500.  The reference for the values ``gauss_rule``
    forms for several sequences at once, which must match it bit for
    bit."""
    x = np.asarray(x, dtype=float)
    b = np.asarray(seq.b_coeffs, dtype=float)
    rc = np.sqrt(np.asarray(seq.c_coeffs, dtype=float))
    vals = np.empty((count, len(x)))
    log_scale = np.full(len(x), -0.5 * float(seq.log_norms[0]))
    vals[0] = 1.0
    for k in range(count - 1):
        nxt = (x - b[k]) * vals[k]
        if k >= 1:
            nxt -= rc[k - 1] * vals[k - 1]
        vals[k + 1] = nxt / rc[k]
        big = np.abs(vals[k + 1]) > 2.0 ** 500
        if big.any():
            f = np.abs(vals[k + 1, big])
            vals[:k + 2, big] /= f
            log_scale[big] += np.log(f)
    return vals, log_scale


def rule_loop(seq, m):
    """(nodes, weights, vals, log_scale) of the m-point Gauss rule of one
    sequence alone: the eigenvalues of its own Jacobi matrix, the
    ``orthonormal_loop`` values there and the Christoffel weights from
    them.  The reference for the rules ``gauss_rule`` forms for several
    sequences in one pass, which must match it bit for bit."""
    off = np.sqrt(np.asarray(seq.c_coeffs[:m - 1], dtype=float))
    J = (np.diag(np.asarray(seq.b_coeffs[:m], dtype=float))
         + np.diag(off, 1) + np.diag(off, -1))
    x = np.linalg.eigvalsh(J)
    vals, log_scale = orthonormal_loop(seq, x, m)
    weights = np.exp(-2.0 * log_scale - np.log(np.sum(vals ** 2, axis=0)))
    return x, weights, vals, log_scale


def one_rule(spec, m):
    """(nodes, weights) of the m-point Gauss rule of one scalar weight:
    row 0 of a ``gauss_rule`` pass over its float recurrence alone."""
    from mvop import scalar_families as sf
    nodes, weights, *_ = sf.gauss_rule(
        [sf.recurrence_coefficients(spec, m - 1)], m)
    return nodes[0], weights[0]


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


def cauchy_loop(a, b):
    """Noncommutative Cauchy product of two lists of (N, N) coefficients,
    one matrix product per pair, added in ascending power of a: the
    reference for ``matrix_poly.cauchy``."""
    out = [np.zeros(a[0].shape, dtype=np.result_type(a[0], b[0]))
           for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai @ bj
    return out


def derivative_loop(c, k):
    """k-th derivative of a list of coefficients, one power at a time (an
    empty list past the degree): the reference for ``matrix_poly.falling``."""
    for _ in range(k):
        c = [i * c[i] for i in range(1, len(c))]
    return c


def op_compose_loop(D1, D2):
    """D1 o D2 by MatrixPolynomial arithmetic, one term at a time: H_k =
    sum over i + l = k, l <= j of C(j, l) (d^{j-l} F_i) G_j, each term
    added to H_k as a polynomial.  The reference for the stacked
    ``op_compose``."""
    from mvop.diff_operators import MatrixDiffOperator
    from mvop.matrix_poly import MatrixPolynomial
    out = [MatrixPolynomial.zero(D1.size)
           for _ in range(D1.order + D2.order + 1)]
    for i, fi in enumerate(D1.f_coeffs):
        for j, gj in enumerate(D2.f_coeffs):
            for l in range(j + 1):
                out[i + l] = out[i + l] + fi.derivative(j - l) * gj * comb(
                    j, l)
    return MatrixDiffOperator(out)


def conjugate_loop(D_tilde, spec):
    """T D_tilde T^{-1} as two compositions with the multiplication
    operators for T and T^{-1}: the reference for the closed form of
    ``conjugate_by_T``."""
    from mvop.diff_operators import MatrixDiffOperator, op_compose
    from mvop.weight_model import build_T
    T, T_inv = build_T(spec, exact=D_tilde.exact)
    return op_compose(op_compose(MatrixDiffOperator.multiplication(T),
                                 D_tilde),
                      MatrixDiffOperator.multiplication(T_inv))


def op_apply_loop(P, D):
    """P . D = sum_j (d^j P) F_j for one MatrixPolynomial P, from
    ``derivative_loop`` and ``cauchy_loop``: the per-polynomial reference
    for the stacked operator kernel."""
    from mvop.matrix_poly import MatrixPolynomial
    out = MatrixPolynomial.zero(P.size)
    for j, fj in enumerate(D.f_coeffs):
        dP = derivative_loop(list(P.coeffs), j)
        if dP:
            out = out + MatrixPolynomial(cauchy_loop(dP, list(fj.coeffs)))
    return out


def eigen_loop(seq, D, lam, n_max, block=16):
    """Residuals of Q_n . D = Lambda_n Q_n for n <= n_max as blocks of
    ``block`` degrees, each zero-padded to the full n_max + 3 powers of
    ``seq`` and taken in complex, with Lambda_n Q_n a matmul by the dense
    Lambda_n: the reference for ``eigencheck`` on real, trimmed blocks."""
    from mvop.diff_operators import op_apply
    residuals = []
    for lo in range(0, n_max + 1, block):
        hi = min(lo + block, n_max + 1)
        rows = seq.q_block(lo, hi)
        Q = np.zeros((hi - lo, seq.n_max + 3) + rows.shape[2:], dtype=complex)
        Q[:, :rows.shape[1]] = rows
        with np.errstate(over="ignore", invalid="ignore"):
            lhs = op_apply(Q, D)
            lams = np.stack([lam(n) for n in range(lo, hi)]).astype(complex)
            rhs = lams[:, None] @ Q
            scale = np.maximum(np.abs(lhs).max(axis=(1, 2, 3)),
                               np.abs(rhs).max(axis=(1, 2, 3)))
            lhs[:, :rhs.shape[1]] -= rhs
            residuals += (np.abs(lhs).max(axis=(1, 2, 3))
                          / np.maximum(scale, 1e-300)).tolist()
    return residuals


def eigen_fixed_blocks(seq, D, lam, n_max, block=16):
    """Residuals of Q_n . D = Lambda_n Q_n for n <= n_max as ``eigencheck``
    forms them (real, trimmed ``q_block`` rows, Lambda_n Q_n by row
    scaling), but in blocks of a fixed ``block`` degrees, each with its own
    lam call: the reference for its budget-sized blocks."""
    from mvop.diff_operators import op_apply
    residuals = []
    for lo in range(0, n_max + 1, block):
        hi = min(lo + block, n_max + 1)
        Q = seq.q_block(lo, hi)
        with np.errstate(over="ignore", invalid="ignore"):
            lhs = op_apply(Q, D)
            rhs = np.diagonal(lam(np.arange(lo, hi)), axis1=1,
                              axis2=2)[:, None, :, None] * Q
            scale = np.maximum(np.abs(lhs).max(axis=(1, 2, 3)),
                               np.abs(rhs).max(axis=(1, 2, 3)))
            lhs[:, :rhs.shape[1]] -= rhs
            residuals += (np.abs(lhs).max(axis=(1, 2, 3))
                          / np.maximum(scale, 1e-300)).tolist()
    return residuals


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
    return MatrixPolynomial(coeffs, size=N)


def q_product(seq, n):
    """Q_n = (P_n + A P_{n+1} - G_n P_{n-1}) T^{-1}, one MatrixPolynomial
    product per term, untouched at the x^n coefficient."""
    from mvop.weight_model import build_T
    qt = p_product(seq, n) + p_product(seq, n + 1).left_mul(seq.A)
    if n >= 1:
        qt = qt - p_product(seq, n - 1).left_mul(seq.ratio_matrix(n))
    return qt * build_T(seq.weight, exact=seq.exact)[1]


def exact_rows(seq, lo, hi):
    """(Q_n T, Q_n) for n = lo..hi-1 as sympy arrays shaped like
    ``q_block``, read through the public ``build_QT`` and ``build_Q``."""
    N = seq.weight.N
    out = []
    for build in (seq.build_QT, seq.build_Q):
        rows = np.full((hi - lo, seq.n_max + 3, N, N), sp.S.Zero,
                       dtype=object)
        for n in range(lo, hi):
            coeffs = build(n).coeffs
            rows[n - lo, :len(coeffs)] = coeffs
        out.append(rows)
    return out


def nearest_scaled(a, log_scale):
    """The sympy entries of the array ``a`` times exp(-log_scale),
    evaluated to 50 digits and rounded to the nearest complex doubles: the
    reference for the exact rows (log_scale 0) and for the exact ||Q_n||^2
    / sigma_n^2 the norm checks read."""
    def one(v):
        re, im = sp.N(v * sp.exp(-sp.Float(log_scale, 60)), 50).as_real_imag()
        return complex(float(re), float(im))
    return np.array([one(v) for v in np.ravel(a)],
                    dtype=complex).reshape(np.shape(a))


def dense_norm_Q(seq, n, log_scale):
    """||Q_n||^2 from the three dense N x N products the sparse placement
    replaced: D_n + (A D_{n+1}) A* + (G_n A) D_n, with D_m =
    diag(||p_m^{w_k}||^2); exact sympy objects on the exact backend (where
    ``log_scale`` must be 0), complex over exp(log_scale) in log space on
    the float one."""
    from mvop.matrix_poly import conj_transpose

    def norms(m):
        if not seq.exact:
            return np.diag([exp(s.log_norms[m] - log_scale)
                            for s in seq.scalar_seqs]).astype(complex)
        assert not log_scale
        D = np.full((seq.weight.N,) * 2, sp.S.Zero, dtype=object)
        for k, s in enumerate(seq.scalar_seqs):
            D[k, k] = s.exact_norms[m]
        return D

    A = seq.A
    term = norms(n) + A @ norms(n + 1) @ conj_transpose(A)
    if n >= 1:
        term = term + seq.ratio_matrix(n) @ A @ norms(n)
    return term


def three_term_loop(seq, n):
    """(A_n, B_n, C_n, residual) of x Q_n = A_n Q_{n+1} + B_n Q_n + C_n Q_{n-1}
    one degree at a time: one solve per neighbour m from the scaled
    ``gram_qt`` and ``_norm_table``, and the residual ||R_n||_W / ||x Q_n||_W
    summed weight by weight over its column range of the node table of
    ``gram_data``.  Each solve is against S ||Q_m||^2 S, S the diagonal of
    powers of two that puts each diagonal entry in [1/2, 2), multiplied
    back by S.  The reference for the stacked ``three_term_table``."""
    ln = seq.log_gram_scale(n)
    mats, terms = [], []
    for m in (n + 1, n, n - 1):
        lm = seq.log_gram_scale(m)
        g = seq.gram_qt(n, m, shift=1, scaled=True) * exp(ln - lm)
        norm = seq._norm_table()[m]
        e = np.ldexp(1.0, -(np.frexp(np.diag(norm).real)[1] // 2))
        X = np.linalg.solve((norm * e[:, None] * e).conj().T,
                            (g * e).conj().T).conj().T * e
        mats.append(X)
        terms.append((m, X * exp(lm - ln)))
    x, C = seq.gram_data()[1]
    width = len(x) // seq.weight.N
    num = den = 0.0
    for k in range(0, len(x), width):
        cols = slice(k, k + width)
        xq = C[n, :, cols] * x[cols]
        r = xq - sum(X @ C[m, :, cols] for m, X in terms)
        num += np.vdot(r, r).real
        den += np.vdot(xq, xq).real
    return (*mats, float(np.sqrt(num / den)))


def three_solve_pass(seq, ns, norms, eq):
    """(A_n, B_n, C_n, residual) of ``MVOPSequence._three_term_pass`` with
    one band matmul, one solve (against the equilibrated ``norms``, S_m =
    diag(eq[m])) and one residual matmul per neighbour m = n + 1, n, n - 1
    in turn, over blocks of 64 degrees: the reference for the stacked
    pass, which must match it bit for bit."""
    from mvop.mvop_core import frobenius
    x, C = seq.gram_data()[1]
    log_sigma = np.array([seq.log_gram_scale(n) for n in range(seq.n_max + 1)])
    mats = np.empty((3, len(ns)) + (seq.weight.N,) * 2,
                    dtype=np.result_type(C, norms))
    out = np.empty(len(ns))
    for i in range(0, len(ns), 64):
        n = ns[i:i + 64]
        r = xq = C[n] * x
        for d, X in zip((1, 0, -1), mats[:, i:i + 64]):
            s = np.exp(log_sigma[n] - log_sigma[n + d])[:, None, None]
            g = np.matmul(xq, C[n + d].conj().swapaxes(1, 2)) * s
            e = eq[n + d][:, None, :]
            adjoint = [v.conj().swapaxes(1, 2) for v in (norms[n + d], g * e)]
            X[:] = np.linalg.solve(*adjoint).conj().swapaxes(1, 2) * e
            X = X / s
            r = r - np.matmul(X, C[n + d])
        with np.errstate(over="ignore", invalid="ignore"):
            num, den = ((v * v.conj()).real.sum(axis=(1, 2))
                        for v in (r, xq))
            res = np.sqrt(num / den)
        bad = ~np.isfinite(num + den)
        if bad.any():
            res[bad] = (frobenius(r[bad], axis=(1, 2))
                        / frobenius(xq[bad], axis=(1, 2)))
        out[i:i + 64] = res
    return (*mats, out)


def set_ratio(seq, n, change):
    """Replace G_n in the G_n table of ``seq`` by change(G_n), where every
    reader (rows, norms, Gram block, det) takes it.  On the exact backend
    change takes and gives G_n as an array of sympy (Gaussian) rationals,
    and the table holds each as (re, im, den) on its first axis."""
    G, half = seq._ratio_table()
    G = G.copy()
    if not seq.exact:
        G[n] = change(G[n])
    else:
        re, im, den = G[:, n]
        want = change(np.vectorize(
            lambda p, q, d: sp.Rational(p, d) + sp.I * sp.Rational(q, d),
            otypes=[object])(re, im, den))
        for at, v in np.ndenumerate(want):
            p, q = sp.sympify(v).as_real_imag()
            d = sp.ilcm(p.q, q.q)
            G[(slice(None), n) + at] = p.p * (d // p.q), q.p * (d // q.q), d
    seq._gtab, seq._gfloat = (G, half), None


def det_loop(seq, n_max):
    """Residuals of n = 1..n_max of the float det check one degree at a
    time: the continuant of ``rho_values(n)`` as d 2^e, rescaled by powers
    of two past 2^100, against det of ``reduced_leading_matrix(n)``, or
    against its sign and log |det| where either is past the float range.
    The reference for the check's stacked form, which must match it bit
    for bit."""
    import cmath
    import math
    out = []
    for n in range(1, n_max + 1):
        M, e = seq.reduced_leading_matrix(n), 0
        d_prev = d = 1.0
        for r in seq.rho_values(n):
            d_prev, d = d, d + r * d_prev
            if abs(d) > 2.0 ** 100:
                k = math.frexp(d)[1]
                d_prev, d, e = d_prev / 2.0 ** k, d / 2.0 ** k, e + k
        fast = d * 2.0 ** e if e < 1024 else math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            brute = np.linalg.det(M).real
        if cmath.isfinite(brute) and cmath.isfinite(fast):
            out.append(abs(fast - brute) / max(abs(brute), 1e-300))
        else:
            sign, logdet = np.linalg.slogdet(M)
            out.append(abs(d / sign * math.exp(e * math.log(2) - logdet)
                           - 1))
    return out


def darboux_loop(p_of, D1, q_seq, n_max, tol=1e-9):
    """P_n . D1 = A_n Q_n one degree at a time: ``p_of(n)`` is P_n as a
    MatrixPolynomial, Q_n is ``q_seq.build_Q(n)``, and A_n is solved from
    the leading coefficients.  Row i of the residual is max|row i of L -
    A_n Q_n| over the largest entry of row i of |P_n| . |D1| + |A_n Q_n|
    (|D1| the operator of the |F_j|), and the residual of degree n the
    largest over rows.  The reference for the stacked ``darboux_verify``;
    returns its report."""
    from mvop.darboux import DarbouxReport
    from mvop.diff_operators import MatrixDiffOperator, op_apply
    from mvop.matrix_poly import MatrixPolynomial
    size = MatrixDiffOperator([MatrixPolynomial(np.abs(f.coeffs))
                               for f in D1.f_coeffs])
    conn, dets, singular, residuals = [], [], [], []
    for n in range(n_max + 1):
        P = p_of(n)
        if P.exact:
            P = P.to_float()
        L = op_apply(P, D1)
        Q = q_seq.build_Q(n).to_float()
        K = Q.coeffs[Q.degree]
        lead = L.coeff(n)
        if not (K.imag.any() or lead.imag.any()):   # real stacks, real solve
            K, lead = K.real, lead.real
        An = np.linalg.solve(K.T, lead.T).T   # lead = An @ K
        d = complex(np.linalg.det(An))
        want = Q.left_mul(An)
        diff = (L - want).coeffs
        scale = (op_apply(MatrixPolynomial(np.abs(P.coeffs)), size)
                 + MatrixPolynomial(np.abs(want.coeffs))).coeffs
        residuals.append(max(
            np.abs(diff[:, i]).max(initial=0.0)
            / max(np.abs(scale[:, i]).max(initial=0.0), 1e-300)
            for i in range(Q.size)))
        conn.append(An)
        dets.append(d)
        if abs(d) <= 1e-12:
            singular.append(n)
    worst = max(residuals)
    passed = (worst <= tol and len(singular) <= n_max
              and (not singular or singular[-1] < n_max))
    return DarbouxReport(n_max=n_max, tol=tol, worst_residual=worst,
                         worst_n=residuals.index(worst),
                         non_finite=not np.isfinite(residuals).all(),
                         connection=conn, dets=dets, singular_ns=singular,
                         passed=passed)


def relation_rows(Ws):
    """Real matrix of (Re F, Im F) -> (Re G, Im G), G = FW - WF*, for every
    W in the stack Ws (P, N, N), stacked point by point: (P 2N^2, 2N^2).

    Row-major vec gives vec G = D vec F - T vec(conj F) with
    D = I (x) W^T and T = (W (x) I) K, K the commutation matrix: G_ij
    has W_lj F_il from D and -W_il conj(F_jl) from T.  With F = a + ib
    that is (D - T) a + i (D + T) b.  Columns: real parts of F
    (row-major), then imaginary parts; rows: Re G, then Im G.
    """
    P, N, _ = Ws.shape
    d = np.arange(N)
    WT = Ws.swapaxes(1, 2)
    # out[p, r, i, j, c, k, l]: part r of G_ij against part c of F_kl
    out = np.zeros((P, 2, N, N, 2, N, N))
    for c, (f, sign) in enumerate(((1.0, -1.0), (1j, 1.0))):
        for r, part in enumerate((np.real, np.imag)):
            out[:, r, d, :, c, d, :] = part(f * WT)             # D: k = i
            out[:, r, :, d, c, d, :] += sign * part(f * Ws)     # T: k = j
    return out.reshape(P * 2 * N * N, 2 * N * N)


def dense_symmetries(spec, n_points=None):
    """Order-zero symmetries from the full relation F W = W F* in the
    2N^2 real unknowns (Re F, Im F): one QR of the Kronecker rows at the
    same sample points as ``order_zero_symmetries``, then an SVD of R.
    Returns a SymmetrySpace without validation."""
    from mvop.irreducibility import (NULL_TOL, SymmetrySpace, _sample_points,
                                     _weight_stack)
    N = spec.N
    Ws, used = _weight_stack(spec, _sample_points(
        spec, 3 * N + 10 if n_points is None else n_points))
    _, svals, vt = np.linalg.svd(np.linalg.qr(relation_rows(Ws), mode="r"))
    null = svals <= NULL_TOL * svals[0]
    basis = [(v[:N * N] + 1j * v[N * N:]).reshape(N, N) for v in vt[null]]
    return SymmetrySpace(dimension=len(basis), basis=basis,
                         sample_points=used.tolist(),
                         singular_values=list(svals), null_scale=svals[0])


def weight_classes_loop(spec):
    """[(w_g, Pi_g)] as ``_weight_classes`` gives them, built slot by slot:
    each f_k by ``polypow``/``polymul`` and each term by ``np.outer``, added
    into Pi_g in slot order."""
    import mvop.scalar_families as sf
    from mvop.irreducibility import CLASS_TOL, NULL_TOL
    from mvop.weight_model import build_nilpotent
    classes = []                # [(family, [(slot, params)])]
    for k, s in enumerate(spec.scalars):
        p = np.array({sf.HERMITE: (s.b,), sf.LAGUERRE: (s.alpha,),
                      sf.JACOBI: (s.alpha, s.beta)}[s.family])
        for fam, slots in classes:
            d = p - slots[0][1]
            if fam == s.family and np.all(np.abs(
                    d - (0.0 if fam == sf.HERMITE else np.rint(d)))
                    <= CLASS_TOL):
                slots.append((k, p))
                break
        else:
            classes.append((s.family, [(k, p)]))

    A, eye = build_nilpotent(spec), np.eye(spec.N)
    npoly = np.polynomial.polynomial
    out = []
    for fam, slots in classes:
        low = np.min([p for _, p in slots], axis=0)
        steps = [(k, np.rint(p - low).astype(int)) for k, p in slots]
        Pi = np.zeros((max(i.sum() for _, i in steps) + 3, spec.N, spec.N),
                      A.dtype)
        terms = np.zeros(len(Pi))
        for k, i in steps:
            f = spec.scalars[k].scale * (
                npoly.polymul(npoly.polypow([1, -1], i[0]),
                              npoly.polypow([1, 1], i[1]))
                if fam == sf.JACOBI else npoly.polypow([0, 1], i[0]))
            c = A[:, k]
            E = (np.outer(eye[k], eye[k]),
                 np.outer(eye[k], c.conj()) + np.outer(c, eye[k]),
                 np.outer(c, c.conj()))
            for m, Em in enumerate(E):
                Pi[m:m + len(f)] += f[:, None, None] * Em
                terms[m:m + len(f)] = np.maximum(
                    terms[m:m + len(f)], np.abs(f) * np.max(np.abs(Em)))
        Pi[np.max(np.abs(Pi), axis=(1, 2)) <= NULL_TOL * terms] = 0.0
        base = {sf.HERMITE: sf.hermite, sf.LAGUERRE: sf.laguerre,
                sf.JACOBI: sf.jacobi}[fam](*low)
        out.append((base, Pi))
    return out


def polish_loop(F, Gs, steps):
    """``steps`` CGLS steps on min ||F_d G_p - G_p F_d*|| over the
    generators Gs, with sum_p R_p G_p summed per generator and the squared
    norms taken from |.|^2: the reference for ``irreducibility._polish``."""
    def twisted(F):
        FG = F[:, None] @ Gs
        return FG - FG.conj().swapaxes(-1, -2)

    r = twisted(F)
    p = s = 2 * np.sum(r @ Gs, axis=1)
    gamma = np.sum(np.abs(s) ** 2, axis=(1, 2))
    for _ in range(steps):
        q = twisted(p)
        alpha = gamma / np.maximum(np.sum(np.abs(q) ** 2, axis=(1, 2, 3)),
                                   1e-300)
        F, r = F - alpha[:, None, None] * p, r - alpha[:, None, None, None] * q
        s = 2 * np.sum(r @ Gs, axis=1)
        g = np.sum(np.abs(s) ** 2, axis=(1, 2))
        p, gamma = s + (g / np.maximum(gamma, 1e-300))[:, None, None] * p, g
    return F


def shift_by_hand(alpha, k, m, r1=(1,), r2=(1,)):
    """(tau, q) as ``darboux.synthesize_shift`` gives them, with the ladder
    steps and their factors written out by hand: the reference for the
    walk over ``_ladder_forms``."""
    from functools import reduce

    from mvop.darboux import SHIFT_CAP, _ladder_forms, _verify
    from mvop.diff_operators import (MatrixDiffOperator,
                                     entries_to_operator, op_compose)
    from mvop.errors import CapExceeded, InvalidParam
    if abs(k) + abs(m) > SHIFT_CAP:
        raise CapExceeded(f"|k|+|m| = {abs(k) + abs(m)} exceeds {SHIFT_CAP}")
    if alpha <= -1 or alpha + k <= -1:
        raise InvalidParam("alpha and alpha+k must both be > -1")
    r1, r2 = list(r1), list(r2)
    if not r1 or not r2:
        raise InvalidParam("r1 and r2 need at least one coefficient")

    def form(kind, a):
        return entries_to_operator({(0, 0): _ladder_forms(a)[kind][0]}, 1)

    ops = []
    factors = []
    cur_alpha, cur_dn = float(alpha), 0
    if m >= 0:
        for _ in range(m):
            ops.append(form("n_up", cur_alpha))
            cur_dn += 1
    else:
        for _ in range(-m):
            ops.append(form("n_down", cur_alpha))
            factors.append(lambda n, d=cur_dn: float(n + d))
            cur_dn -= 1
            cur_alpha += 1.0
    k_rem = k - round(cur_alpha - alpha)
    while k_rem > 0:
        ops.append(form("alpha_up", cur_alpha))
        cur_alpha += 1.0
        k_rem -= 1
    while k_rem < 0:
        ops.append(form("alpha_down", cur_alpha))
        factors.append(lambda n, d=cur_dn, a=cur_alpha: float(n + d) + a)
        cur_alpha -= 1.0
        k_rem += 1

    tau = reduce(op_compose, ops) if ops else MatrixDiffOperator.identity(1)
    if any(r1[1:]) or r1[0] != 1:
        eig = _ladder_forms(alpha)["eigen"][0]
        neg_eig = entries_to_operator({(0, 0): [[-c for c in f] for f in eig]},
                                      1)
        term = MatrixDiffOperator.identity(1)
        r1_op = MatrixDiffOperator.zero(1)
        for c in r1:
            r1_op = r1_op + term * c
            term = op_compose(term, neg_eig)
        tau = op_compose(r1_op, tau)

    def q(n, _r=tuple(r2), _f=tuple(factors)):
        out = float(np.polyval(_r[::-1], float(n)))
        for f in _f:
            out *= f(n)
        return out

    _verify(tau, alpha, k, m, lambda n: q(n, tuple(r1)), 10, 1e-10,
            f"shift synthesis (k={k}, m={m}) failed at n={{n}}")
    return tau, q


def chain5_table(alpha, a=(1.0, 1.0, 1.0, 1.0)):
    """(spec, D1_tilde) of the 5x5 Laguerre chain from its 13 entries
    written out one by one, each ladder by hand: the reference for
    ``darboux.laguerre_chain`` at N = 5, bit for bit."""
    import mvop.scalar_families as sf
    from mvop.diff_operators import entries_to_operator
    from mvop.weight_model import weight_spec
    a = tuple(a)
    a1, a2, a3, a4 = a
    c1, c2, c3, c4 = np.conj(a)
    spec = weight_spec(a, [sf.laguerre(alpha), sf.laguerre(alpha),
                           sf.laguerre(alpha + 1), sf.laguerre(alpha + 1),
                           sf.laguerre(alpha + 2)])

    def up(al):              # d^2 x + d (al + 1 - 2x) + x - al - 1
        return ([-(al + 1.0), 1.0], [al + 1.0, -2.0], [0.0, 1.0])

    def down2(al):           # d^2 x + d (al + 1)
        return ([0.0], [al + 1.0], [0.0, 1.0])

    def down1(al):           # d x - (x - al - 1)
        return ([al + 1.0, -1.0], [0.0, 1.0])

    d = ([0.0], [1.0])

    def smul(s, fs):
        return tuple([s * c for c in f] for f in fs)

    entries = {
        (0, 0): ([1.0],),
        (0, 1): smul(a1, up(alpha)),
        (1, 0): smul(-c1, down2(alpha)),
        (1, 1): ([1.0],),
        (1, 2): smul(-c2, d),
        (2, 1): smul(-a2, down1(alpha)),
        (2, 2): ([1.0],),
        (2, 3): smul(a3, up(alpha + 1)),
        (3, 2): smul(-c3, down2(alpha + 1)),
        (3, 3): ([1.0],),
        (3, 4): smul(-c4, d),
        (4, 3): smul(-a4, down1(alpha + 1)),
        (4, 4): ([1.0],),
    }
    return spec, entries_to_operator(entries, 5)


def reduce_2x2_fit(spec):
    """(b, c, M) or None as ``irreducibility.try_reduce_2x2`` decides it,
    from samples of w1/w2 instead of the parameters: a quadratic fitted at
    5 points, checked at 20, its leading coefficient against -a^2 and its
    roots b < c around the support (real a only)."""
    from math import inf

    import mvop.scalar_families as sf
    from mvop.irreducibility import _sample_inside
    from mvop.weight_model import weight_eval
    w1, w2 = spec.scalars
    if w1.support != w2.support:
        return None
    a = float(np.real(spec.a_params[0]))
    npoly = np.polynomial.polynomial

    xs = _sample_inside(w1.support, 5)
    q = npoly.polyfit(xs, sf.weight_value(w1, xs) / sf.weight_value(w2, xs),
                      2)
    xv = _sample_inside(w1.support, 20)
    rv = sf.weight_value(w1, xv) / sf.weight_value(w2, xv)
    if np.max(np.abs(npoly.polyval(xv, q) - rv)) > 1e-10 * np.max(np.abs(rv)):
        return None
    if abs(q[2] + a * a) > 1e-8 * a * a:
        return None
    roots = np.roots([q[2], q[1], q[0]])
    if np.max(np.abs(roots.imag)) > 1e-8 * (1 + np.max(np.abs(roots))):
        return None
    b, c = sorted(roots.real)
    lo, hi = w1.support
    if lo < b - 1e-9 or hi > c + 1e-9 or lo == -inf or hi == inf:
        return None

    M = np.array([[1.0 / (a * (b - c)), -b / (b - c)],
                  [1.0, -a * c]])
    D = M @ weight_eval(spec, xv) @ M.conj().T
    off = np.maximum(np.abs(D[:, 0, 1]), np.abs(D[:, 1, 0]))
    if np.any(off > 1e-10 * np.max(np.abs(D), axis=(1, 2))):
        return None
    return b, c, M
