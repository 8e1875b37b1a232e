"""The matrix-valued orthogonal sequence Q_n built from scalar sequences.

Q_n is assembled through the identity Q_n (I + A x) = P_n + A P_{n+1}
- G_n P_{n-1}, where G_n is the norm-ratio matrix with the sparsity
pattern of A*; multiplying by I - A x then gives Q_n itself.  A has one
nonzero per adjacent pair, and every product with A, A* or G_n is placed
on those pairs, never formed as a dense N x N product.  The scalar norms
grow factorially, so one table of G_n for degrees 0..n_max+1 is formed
per sequence from their log ratios, and every reader slices it.
From one table of scalar power coefficients per sequence ``_assemble``
places the three terms of every Q_n T column for a range of degrees,
applies I - A x by one shifted column update per pair, which leaves the
closed-form K_n at x^n, and gives each degree a verdict (det K_n as
``leading_det`` forms it).  ``q_block``, ``qt_block``, ``build_Q`` and
``build_QT`` read its rows, ``p_block`` the diagonal P_n; on both backends
a block of degrees lo..hi-1 holds hi + 2 powers and is real exactly where A
is.  The float backend assembles each requested range anew.  The exact
backend keys every value by monomial in the moment atoms (1, sqrt(pi), ...;
see ``KEY``) and assembles degrees 0..n_max once.  Its scalar values (A, G_n,
the scalar norms, ||Q_n||^2) are Gaussian rationals held as Python-int
triples (re, im, den) (``_exact``), tables of them as one object array
sliced like the float tables, and their products and sums are integer
arithmetic on whole arrays (``_gmul``, ``_gadd``); its rows are Python-int
numerators per monomial and per real or imaginary part over one
denominator per degree and entry (``_exact_rows``), built on the integer
``scalar_families.power_table``.  A and the scalar norms come as integers
from ``exact_scalars`` (the parameters through ``a_value``), and each atom
monomial is an mpf of the atoms' 113-bit mpmath values (``_mono``).  These
keyed values have two outputs: doubles, the rows, the G_n table and the
||Q_n||^2 table each rounded once per sequence by one routine (``_round``,
through ``_exact_sum``), and sympy, formed by ``_sympy`` (and the ``A``
property) for the public readers alone, so that no check loads sympy.

All Gram data of a sequence, <x^s Q_n, Q_m> for s = 0, 1 and n, m <= n_max,
comes from one Gauss rule per scalar weight with n_max + 2 nodes, exact for
every product of that degree.  One ``scalar_families.gauss_rule`` pass over
the float recurrences of the slots (the sequence's own on the float
backend) gives every rule and the orthonormal recurrence values at its
nodes.  Column k of Q_n T involves only p_{n-1}, p_n, p_{n+1} of w_k, so
these values give one node table C[n], whose column range k is
sqrt(lambda_j) (Q_n T e_k)(x_j) / sigma_n at the nodes of w_k; one matmul
on the whole table gives the whole shift-0 block <Q_n, Q_m>, in real
arithmetic where A is real, and a shift-1 product <x Q_n, Q_m> is C[n]
diag(x_j) C[m]* from the table itself.  sigma_n = exp(1/2
max_k log ||p_n^{w_k}||^2) keeps both finite where the norms themselves
overflow.  ``gram_qt`` reads a pair, or every pair of two degree arrays
in one call, from the block or the table, and the quadrature summary of
the Gauss rules is formed once with the Gram data.  The
closed-form ||Q_n||^2 / sigma_n^2 of degrees 0..n_max is one read-only
table per sequence, formed by one pass over all degrees on both backends
(``_norm_table``), and so are the three-term coefficients of degrees
1..n_max-1 with their residuals (``three_term_table``): one pass over the
node table forms the band <x Q_n, Q_m>, m = n + 1, n, n - 1, solves it
against ||Q_m||^2, both stacked over the three neighbours, and sums the
W-norm of x Q_n - A_n Q_{n+1} - B_n Q_n - C_n Q_{n-1} over the same table,
so the orth, norm and recurrence checks share this one quadrature path,
each reading all its degrees at once.  The Gram block and det
K_n (``leading_det``, a continuant scaled by powers of two) read G_n as
doubles on both backends (``_float_ratios``): the float table itself, or
slices of the once-rounded exact one.
"""

from collections import defaultdict
from math import exp, inf, lcm, log

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import scalar_families as sf
from .errors import (DegreeCap, IllConditioned, InvalidParam, OutOfRange,
                     SingularLeading)
from .matrix_poly import MatrixPolynomial
from .weight_model import InnerProductEngine, WeightSpec, build_nilpotent

#: exp-overflow guard on any norm-ratio quotient
LOG_RATIO_CAP = 600.0

#: prod_c gamma_c^{e_c} over the atoms gamma_c of the weight classes (slots
#: whose moments share an atom) has the key sum_c e_c KEY^c, |e_c| < KEY/2
KEY = 1 << 16

#: errors of the nonzero per-degree verdicts of ``MVOPSequence._assemble``:
#: a non-finite Q_n, powers left above x^n, det K_n = 0
_FAULTS = (None,
           (DegreeCap, "coefficients of Q_{n} are past the float range"),
           (SingularLeading, "degree overflow at n={n}"),
           (SingularLeading, "singular leading coefficient at n={n}"))


def _exact(re, im, den):
    """The exact values (re + i im) / den (den > 0) of Python ints or
    object arrays of them, as one object array whose first axis holds (re,
    im, den), which slices like a float table (``_nu``, the G_n table).
    Every exact scalar of a sequence (A, the scalar norms, G_n, ||Q_n||^2)
    is such a triple, held as a tuple where it is not a table."""
    out = np.empty((3,) + np.broadcast_shapes(*map(np.shape, (re, im, den))),
                   dtype=object)
    out[0], out[1], out[2] = re, im, den
    return out


def _gmul(x, y):
    """The product of exact values (see ``_exact``), elementwise."""
    (a, b, d), (c, e, f) = x, y
    return a * c - b * e, a * e + b * c, d * f


def _gadd(x, y):
    """The sum of exact values (see ``_exact``), elementwise."""
    (a, b, d), (c, e, f) = x, y
    return a * f + c * d, b * f + e * d, d * f


def _exact_sum(terms) -> float:
    """The nearest double to sum_k m_k p_k / d_k over terms (an mpf m_k,
    Python ints p_k and d_k > 0).  With m_k = man_k 2^exp_k the sum is one
    fraction of integers, rounded once by Python's correctly rounded int
    division; +-inf past the float range."""
    ints = []   # (man_k p_k, exp_k, d_k)
    for m, p, d in terms:
        sign, man, e, _ = m._mpf_
        if p:
            ints.append(((-man if sign else man) * p, e, d))
    if len(ints) == 1:
        num, low, den = ints[0]
    elif ints:
        low = min(e for _, e, _ in ints)
        den = lcm(*(d for *_, d in ints))
        num = sum(v * (den // d) << (e - low) for v, e, d in ints)
    else:
        return 0.0
    num, den = (num << low, den) if low >= 0 else (num, den << -low)
    try:
        return num / den
    except OverflowError:
        return inf if num > 0 else -inf


def _exp(v) -> float:
    """``math.exp``, inf past the float range."""
    try:
        return exp(v)
    except OverflowError:
        return inf


def peak(residuals, first: int = 0):
    """(largest residual, its key, non_finite) over an array of residuals
    keyed first, first + 1, ...

    The first non-finite residual is the peak, so a NaN or an overflow can
    never hide behind a finite maximum; (0.0, None, False) when no
    residual exceeds zero.
    """
    r = np.asarray(residuals, dtype=float)
    bad = ~np.isfinite(r)
    i = int(bad.argmax() if bad.any() else r.argmax()) if r.size else 0
    if not r.size or not (bad[i] or r[i] > 0):
        return 0.0, None, False
    return float(r[i]), first + i, bool(bad[i])


def frobenius(X, axis):
    """Frobenius norms of X over ``axis`` that never square past the float
    range.  When a plain norm reads 1e150 or more, inf or nan, every norm
    is formed again after dividing its block by the block's largest entry:
    a norm then reads inf only when it is past the float range itself, and
    a block holding inf or nan reads inf or nan."""
    with np.errstate(all="ignore"):
        norm = np.linalg.norm(X, axis=axis)
        if np.all(norm < 1e150):
            return norm
        top = np.max(np.abs(X), axis=axis, keepdims=True)
        s = np.where(np.isfinite(top) & (top > 0), top, 1.0)
        sq = np.sum((X.real / s) ** 2 + (X.imag / s) ** 2, axis=axis,
                    keepdims=True)
        return np.squeeze(s * np.sqrt(sq), axis=axis)


def equilibrate(H):
    """(S H S, s) for a stack H of square matrices, S = diag(s) with s_i
    the power of two that puts s_i^2 |H_ii| in [1/2, 2) (1 where H_ii =
    0): a diagonal near 1, whose LU stays accurate where the diagonal
    entries of H span many orders of magnitude.  Powers of two scale
    without rounding, so S H S and every product with S are exact."""
    e = np.frexp(np.diagonal(H, axis1=-2, axis2=-1).real)[1]
    s = np.ldexp(1.0, -(e // 2))
    return H * s[..., :, None] * s[..., None, :], s


def continuant(rho):
    """Determinant of the unit-diagonal tridiagonal matrix with
    superdiagonal u and subdiagonal l such that -u_i l_i = rho_i:
    D_k = D_{k-1} + rho_{k-1} D_{k-2}, D_0 = D_{-1} = 1.  Each rho_i may be
    an array, which gives one continuant per position.
    """
    d_prev = d = 1
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
        # P_{n+1} is needed for Q_n; equal slots share one sequence
        own = {s: sf.recurrence_coefficients(s, n_max + 1, backend)
               for s in dict.fromkeys(weight.scalars)}
        self.scalar_seqs = [own[s] for s in weight.scalars]
        # doubles on both backends, real unless some a_i is complex: every
        # float table below takes its dtype from A by numpy promotion
        self._A = build_nilpotent(weight)
        # (r, u, a, conj(a)) for the nonzeros a = A[r, u] in row-major order
        # (one per adjacent pair, in pair order); exact ones are the exact
        # values of the parameter a_i, i = min(r, u), placed there
        self._pairs = [(int(r), int(u), a, a.conjugate())
                       for r, u in zip(*np.nonzero(self._A))
                       for a in [self._A[r, u]]]
        if self.exact:
            from .exact_scalars import a_value
            self._pairs = [(r, u, (re, im, den), (re, -im, den))
                           for r, u, *_ in self._pairs for re, im, den
                           in [a_value(weight.a_params[min(r, u)])]]
        # Gauss rules read the float recurrences (exact ones are not these)
        self.engine = InnerProductEngine(
            weight, None if self.exact else self.scalar_seqs)
        # log ||p_n^{w_k}||^2 as [k, n], and log sigma_n (``log_gram_scale``)
        self._log_norms = np.array([s.log_norms for s in self.scalar_seqs],
                                   dtype=float)
        self._log_sigma = 0.5 * self._log_norms[:, :n_max + 1].max(axis=0)
        # lr[n, i] = log ||p_n^{w_u}||^2 - log ||p_{n-1}^{w_r}||^2 for pair
        # i = (r, u) of ``_pairs``, n >= 1 (row 0 is 0), and whether degree
        # n holds an |lr| past ``LOG_RATIO_CAP``
        self._ru = r, u = np.array([p[:2] for p in self._pairs],
                                   dtype=int).reshape(-1, 2).T
        self._lr = np.zeros((n_max + 2, len(self._pairs)))
        self._lr[1:] = (self._log_norms[u, 1:] - self._log_norms[r, :-1]).T
        self._over = (np.abs(self._lr) > LOG_RATIO_CAP).any(axis=1)
        # slot k: atom key _ek[k]; exact ||p_n^{w_k}||^2 = _nu[:, k, n] gamma_k
        # (an exact value over slots and degrees, see ``_exact``)
        atoms = [s.atom for s in self.scalar_seqs]
        self._atoms = list(dict.fromkeys(atoms))
        self._ek = [KEY ** self._atoms.index(t) for t in atoms]
        self._nu = None
        if self.exact:
            num, den = np.array([s.norms for s in self.scalar_seqs],
                                dtype=object).transpose(2, 0, 1)
            self._nu = _exact(num, 0, den)
        self._gram = self._ptab = self._qrows = None
        self._recurrence = self._gtab = self._qtab = self._gfloat = None
        self._monos = {}

    @property
    def A(self) -> np.ndarray:
        """The nilpotent A of ``build_nilpotent``, formed when read:
        doubles, real unless some a_i is complex, or sympy entries on the
        exact backend."""
        return build_nilpotent(self.weight, exact=self.exact)

    def _check_n(self, n, hi=None):
        hi = self.n_max if hi is None else hi
        if not isinstance(n, (int, np.integer)):    # an array of degrees
            n = np.min(n) if np.min(n) < 0 else np.max(n)
        if n < 0 or n > hi:
            raise OutOfRange(f"n={n} outside 0..{hi}")

    def _scalar_table(self):
        """``scalar_families.power_table`` of the N scalar sequences up to
        p_{n_max+1}, shape (n_max+3, n_max+3, N): entry [n + 1, p, k] is
        [x^p] p_n^{w_k}, or on the exact backend (num, den) with the
        denominator den[n + 1, k] of row n of slot k.  Built on first use
        and published in one assignment; ``_assemble`` refuses float
        coefficients past the float range."""
        got = self._ptab
        if got is None:
            got = self._ptab = sf.power_table(self.scalar_seqs, self.n_max + 1)
        return got

    # -- diagonal scalar objects ------------------------------------------

    def p_block(self, lo: int, hi: int) -> np.ndarray:
        """P_n = diag(p_n^{w_1}, ..., p_n^{w_N}) for n = lo..hi-1, read
        from the scalar table: power coefficients shaped and typed like
        ``q_block``.  The table is real on both backends, and its rationals
        round to the nearest doubles by p / q (Python's correctly rounded
        int division)."""
        self._check_range(lo, hi)
        tab = self._scalar_table()
        if self.exact:
            num, den = tab
            tab = (num[lo + 1:hi + 1, :hi + 2]
                   / den[lo + 1:hi + 1, None]).astype(float)
        else:
            tab = tab[lo + 1:hi + 1, :hi + 2]
        return (np.eye(self.weight.N) * tab[:, :, None, :]).astype(
            self._A.dtype)

    def _ratio_table(self):
        """(G, half), read-only: G[..., n, :, :] = G_n for n = 0..n_max+1,
        zero at n = 0 (||P_{-1}||^{-2} = 0), entry (u, r) conj(a) exp(lr) by
        ``math.exp`` for a = A[r, u], or on the exact backend the exact
        value (``_exact``, reduced) conj(a) _nu[u, n] / _nu[r, n-1] times
        the implied gamma_u / gamma_r; half[n, i] = exp(lr[n, i] / 2), zero
        at n = 0.  Built on first use, published in one assignment."""
        got = self._gtab
        if got is None:
            (r, u), ac = self._ru, [p[3] for p in self._pairs]
            # entries past the cap are never read (``_ratios``)
            lr = np.clip(self._lr, -LOG_RATIO_CAP, LOG_RATIO_CAP)
            shape = (self.n_max + 2,) + (self.weight.N,) * 2
            if self.exact:
                G = _exact(np.zeros(shape, dtype=object), 0, 1)
                nu = self._nu
                ar, ai, ad = np.array(ac, dtype=object).reshape(-1, 3).T[
                    ..., None]
                f = nu[0, u, 1:] * nu[2, r, :-1]
                re, im, den = ar * f, ai * f, ad * nu[2, u, 1:] * nu[0, r, :-1]
                g = np.gcd(np.gcd(re, im), den)
                G[:, 1:, u, r] = _exact(re // g, im // g,
                                        den // g).swapaxes(1, 2)
            else:
                G = np.zeros(shape, dtype=self._A.dtype)
                G[1:, u, r] = np.reshape([exp(v) for v in lr[1:].flat],
                                         lr[1:].shape) * np.array(ac)
            half = np.reshape([exp(0.5 * v) for v in lr.flat], lr.shape)
            half[0] = 0.0
            G.flags.writeable = half.flags.writeable = False
            got = self._gtab = G, half
        return got

    def _ratios(self, ns, half=False) -> np.ndarray:
        """G_n (``half``: exp(lr / 2)) for the degrees ns, an int or an array
        in 0..n_max+1, sliced from ``_ratio_table`` (G[..., ns, :, :]);
        ``DegreeCap`` at the first degree of ns, and its first pair, where
        |lr| passes ``LOG_RATIO_CAP``."""
        self._check_n(ns, self.n_max + 1)
        over = self._over[ns]
        if over.any() if over.ndim else over:
            lr = self._lr[ns]
            at = np.unravel_index((np.abs(lr) > LOG_RATIO_CAP).argmax(),
                                  lr.shape)
            n = ns[at[0]] if over.ndim else ns
            raise DegreeCap(f"norm-ratio log {lr[at]:.1f} exceeds "
                            f"{LOG_RATIO_CAP} at n={n}")
        G, h = self._ratio_table()
        return h[ns] if half else G[..., ns, :, :]

    def max_abs_log_ratio(self) -> float:
        """The largest |lr| of G_0..G_{n_max}, the value that ``_ratios``
        compares with ``LOG_RATIO_CAP``: the checks report it as their
        headroom to the cap."""
        return float(np.abs(self._lr[:self.n_max + 1]).max())

    def _float_ratios(self, ns) -> np.ndarray:
        """``_ratios`` as doubles: on the exact backend, the same degrees of
        ``_rounded_ratios``."""
        G = self._ratios(ns)
        return self._rounded_ratios()[ns] if self.exact else G

    def _rounded_ratios(self):
        """The exact G_n table as doubles, each entry rounded once to its
        nearest double (``_round``) and real where A is; degrees past
        ``LOG_RATIO_CAP``, which ``_ratios`` never lets through, hold 0.
        Built on first use, read-only, published in one assignment."""
        got = self._gfloat
        if got is None:
            ok = np.flatnonzero(~self._over)
            got = np.zeros((self.n_max + 2,) + (self.weight.N,) * 2,
                           dtype=self._A.dtype)
            got[ok] = self._round(self._keyed_ratios(
                self._ratio_table()[0][:, ok]), (len(ok),))
            got.flags.writeable = False
            self._gfloat = got
        return got

    def ratio_matrix(self, n: int) -> np.ndarray:
        """G_n = ||P_n||^2 A* ||P_{n-1}||^{-2} on the pattern of A*, n <=
        n_max + 1: entry (u, r) is conj(a) ||p_n^{w_u}||^2 /
        ||p_{n-1}^{w_r}||^2 for a = A[r, u], zero for n = 0; a complex copy
        of the table, or its exact values as sympy entries (``_sympy``)."""
        G = self._ratios(n)
        if not self.exact:
            return G.astype(complex)
        out = np.full(G.shape[-2:], self._sympy([]))
        for r, u, *_ in self._pairs:
            out[u, r] = self._sympy([(self._ek[u] - self._ek[r], G[:, u, r])])
        return out

    def _mono(self, key, sympy=False):
        """The atom monomial of ``key``, cached: an mpf at 113 bits (each
        atom's ``exact_scalars.atom_value``), or a sympy expression
        (``atom_sympy``)."""
        if (key, sympy) not in self._monos:
            import mpmath
            from . import exact_scalars as es
            powers, k = [], key
            while k:    # the exponents: signed base-KEY digits
                powers.append((k + KEY // 2) % KEY - KEY // 2)
                k = (k - powers[-1]) // KEY
            if sympy:
                import sympy as sp
                self._monos[key, sympy] = sp.Mul(*[
                    es.atom_sympy(t) ** e for t, e in zip(self._atoms, powers)])
            else:
                with mpmath.workprec(113):
                    self._monos[key, sympy] = mpmath.fprod([
                        es.atom_value(t) ** e
                        for t, e in zip(self._atoms, powers)])
        return self._monos[key, sympy]

    def _sympy(self, terms):
        """sum_k v_k m_k over (key of m_k, exact value v_k, see ``_exact``)
        in ``terms`` as a sympy expression, each term written out as real +
        imaginary part."""
        import sympy as sp
        out = []
        for key, (re, im, den) in terms:
            m = self._mono(key, True)
            re, im = sp.Rational(re, den), sp.Rational(im, den)
            out += [re * m, sp.I * im * m] if im else [re * m]
        return sp.Add(*out)

    # -- the orthogonal sequence ------------------------------------------

    def _check_range(self, lo, hi):
        if not 0 <= lo < hi <= self.n_max + 1:
            raise OutOfRange(f"degrees {lo}..{hi - 1} outside 0..{self.n_max}")

    def leading_closed_form(self, n: int) -> np.ndarray:
        """K_n = I + A D - D' A + G_n A (D = diag([x^n] p_{n+1}), D' =
        diag([x^{n-1}] p_n)), the x^n coefficient of ``build_Q(n)``: each
        entry is placed from these and G_n alone, so no roundoff on the
        scale of the larger coefficients, which dwarf K_n, reaches it."""
        return self.build_Q(n).coeffs[n]

    def _assemble(self, lo: int, hi: int):
        """(Q_n T, Q_n, verdict) for n = lo..hi-1: power coefficients of
        hi + 2 powers, Q_n zero above degree n (exact: where the verdict is
        0), and one verdict per degree (0 for a valid Q_n, else an index
        into ``_FAULTS``; ``_refuse`` turns it into the error).  Float rows
        are arrays of shape (hi - lo, hi + 2, N, N), real where A is; exact
        rows are the entries of ``_exact_rows``.

        Column k of Q_n T holds e_k p_n, A[:, k] p_{n+1} and -G_n[:, k]
        p_{n-1}, placed on the pairs of A (N + 2(N - 1) entries); column u
        of Q_n = (Q_n T)(I - A x) loses x (Q_n T)[:, r] A[r, u] per pair,
        which leaves K_n (``leading_closed_form``) at x^n.  Powers n + 1
        and n + 2 cancel structurally (A^2 = 0); anything left there is a
        degree overflow, and K_n is singular where det K_n (``_scaled_det``
        of the doubles of G_n on both backends) is 0, only on a corrupted
        G_n: every valid rho_i is positive.  Float: "left" means above 1e-8
        of the largest coefficient, scalar coefficients past the float
        range raise ``DegreeCap`` at once, and a degree whose coefficients
        leave the float range (G_n P_{n-1} on mixed families) gets a
        ``DegreeCap`` verdict.  Exact: the leftover numerators must be 0.
        """
        self._check_range(lo, hi)
        # Q_n T has degree n + 1 <= hi, and x (Q_n T) is the last to place
        N, width = self.weight.N, hi + 2
        if not self.exact:
            tab = self._scalar_table()[:, :width]
            finite = np.isfinite(tab[lo:hi + 2]).all(axis=(1, 2))
            if not finite.all():
                k = lo - 1 + int(finite.argmin())
                raise DegreeCap(f"power coefficients of p_{k} are past the "
                                f"float range")
        ns = np.arange(lo, hi)
        G = self._ratios(ns)
        if self.exact:
            qt, q = self._exact_rows(lo, hi, G)
            spill = np.stack([num for num, _ in q.values()])[
                :, np.arange(hi - lo)[:, None], ns[:, None] + [1, 2]]
        else:
            qt = np.zeros((hi - lo, width, N, N), self._A.dtype)
            with np.errstate(over="ignore", invalid="ignore"):
                qt[:, :, range(N), range(N)] = tab[lo + 1:hi + 1]
                for r, u, a, _ in self._pairs:
                    qt[:, :, r, u] += tab[lo + 2:hi + 2, :, u] * a
                    qt[:, :, u, r] -= G[:, u, r, None] * tab[lo:hi, :, r]
                q = qt.copy()
                for r, u, a, _ in self._pairs:
                    q[:, 1:, :, u] -= qt[:, :-1, :, r] * a
            spill = q[np.arange(hi - lo)[:, None], ns[:, None] + [1, 2]]
        with np.errstate(over="ignore", invalid="ignore"):
            if self.exact:
                finite = np.ones(hi - lo, dtype=bool)
                overflow = spill.astype(bool).any(axis=(0, 2))
            else:   # a non-finite Q_n T coefficient leaves Q_n non-finite
                top = np.abs(q).max(axis=(1, 2, 3))
                finite = np.isfinite(top)
                overflow = np.abs(spill).max(axis=(1, 2, 3)) > 1e-8 * top
                q[np.arange(width)[None, :] > ns[:, None]] = 0
            # det K_n as ``leading_det`` forms it, over the doubles of G_n
            singular = self._scaled_det(
                self._rounded_ratios()[ns] if self.exact else G)[0] == 0
        # later assignments win: non-finite, then overflow, then singular
        verdict = np.zeros(hi - lo, dtype=np.int8)
        verdict[singular] = 3
        verdict[overflow] = 2
        verdict[~finite] = 1
        return qt, q, verdict

    def _keyed_ratios(self, G):
        """A stack of exact G_n tables (G[:, k] = G_{n_k}) as exact entries
        (see ``_exact_rows``): {(u, r, key, part): (numerators,
        denominators)}, arrays over the stack, for each pair a = A[r, u]
        and nonzero part of G_n[u, r], key the monomial of gamma_u /
        gamma_r."""
        out = {}
        for r, u, *_ in self._pairs:
            g = G[:, :, u, r]
            for part in (0, 1):
                if g[part].any():
                    out[u, r, self._ek[u] - self._ek[r], part] = g[part], g[2]
        return out

    def _exact_rows(self, lo, hi, G):
        """Exact (Q_n T, Q_n) of ``_assemble`` as entries {(i, j, key,
        part): (num, den)}: part 0 (real) or 1 (imaginary) of entry (i, j)
        at monomial ``key`` is num[n - lo, p] / den[n - lo, 0] times x^p,
        Python ints over one positive denominator per degree and entry.

        Each entry is a sum of terms c_n x^s p_{n+d}^{w_k}, c_n a rational
        that does not depend on the power: Q_n T has the terms 1 (e_k p_n),
        a (A p_{n+1}) and -G_n[u, r] (G_n P_{n-1}) of ``_assemble``, one
        per entry, and Q_n adds -a x times each term of column r of Q_n T
        to column u for every pair a = A[r, u].  A complex coefficient is
        two terms, one per part.  The terms of one entry are placed over
        the lcm of their denominators (c_n's times the scalar row's) from
        the integer ``power_table``."""
        num, den = self._scalar_table()
        width, rows = hi + 2, {}

        def row(slot, d, s):    # x^s p_{n+d}^{w_slot}, n = lo..hi-1
            if (slot, d, s) not in rows:
                rows[slot, d, s] = np.zeros((hi - lo, width), dtype=object)
                rows[slot, d, s][:, s:] = num[lo + 1 + d:hi + 1 + d,
                                              :width - s, slot]
            return rows[slot, d, s]

        def place(terms):
            groups = defaultdict(list)
            for i, j, key, part, (cn, cd), slot, d, s in terms:
                groups[i, j, key, part].append(
                    (cn, cd * den[lo + 1 + d:hi + 1 + d, slot],
                     row(slot, d, s)))
            out = {}
            for e, group in groups.items():
                L = np.lcm.reduce([t for _, t, _ in group])
                total, *rest = [r * (cn * (L // t))[:, None]
                                for cn, t, r in group]
                for v in rest:
                    total += v
                out[e] = total, L[:, None]
            return out

        # terms (i, j, key, part, (c numerators, c denominators), slot k,
        # d, s): c_n x^s p_{n+d}^{w_k} in that part of entry (i, j), with c
        # arrays over the degrees
        one = np.ones(hi - lo, dtype=object)
        qt = [(k, k, 0, 0, (one, one), k, 0, 0) for k in range(self.weight.N)]
        qt += [(r, u, 0, part, (a[part] * one, a[2] * one), u, 1, 0)
               for r, u, a, _ in self._pairs for part in (0, 1) if a[part]]
        qt += [(u, r, key, part, (-gn, gd), r, -1, 0) for (u, r, key, part),
               (gn, gd) in self._keyed_ratios(G).items()]
        q = list(qt)
        for r, u, a, _ in self._pairs:  # -a x (Q_n T)[:, r], part by part
            q += [(i, u, key, (part + pa) % 2,
                   ((1 if part and pa else -1) * cn * a[pa], cd * a[2]),
                   slot, d, 1)
                  for i, j, key, part, (cn, cd), slot, d, _ in qt if j == r
                  for pa in (0, 1) if a[pa]]
        return place(qt), place(q)

    @staticmethod
    def _refuse(lo: int, verdict):
        """Raise the error of the first faulty degree among ``verdict``
        (degrees lo, lo + 1, ...), if any."""
        bad = np.flatnonzero(verdict)
        if bad.size:
            err, what = _FAULTS[verdict[bad[0]]]
            raise err(what.format(n=lo + int(bad[0])))

    def _rows(self, lo: int, hi: int, which: int) -> np.ndarray:
        """Q_n T (which 0) or Q_n (which 1) of ``_assemble`` for n =
        lo..hi-1 as a float array of hi + 2 powers, real where A is;
        ``SingularLeading`` or ``DegreeCap`` at the first faulty degree of
        the range.  Float rows are assembled for the range alone
        (whole-range float rows would take hundreds of MB at n_max 509);
        exact rows once for degrees 0..n_max and published with their
        verdicts in one assignment (``_qrows``), and each of the two rounded
        by ``_round`` on its first read."""
        self._check_range(lo, hi)
        if not self.exact:
            *rows, verdict = self._assemble(lo, hi)
            self._refuse(lo, verdict)
            return rows[which]
        got = self._qrows
        if got is None:
            *rows, verdict = self._assemble(0, self.n_max + 1)
            got = self._qrows = (verdict, rows, [None, None])
        verdict, rows, rounded = got
        self._refuse(lo, verdict[lo:hi])
        if rounded[which] is None:
            rounded[which] = self._round(rows[which],
                                         (self.n_max + 1, self.n_max + 3))
        return rounded[which][lo:hi, :hi + 2].copy()

    def _round(self, R, lead, monos=None) -> np.ndarray:
        """The nearest doubles of the exact entries R ({(i, j, key, part):
        (numerators, denominators)} as ``_exact_rows`` gives them,
        numerators of shape ``lead``), shape lead + (N, N) and real where A
        is.  An entry that key 0 alone reaches is p / q (Python's correctly
        rounded int division), any other the exact sum over its keys,
        rounded once (``_exact_sum``).  ``monos`` ({key: an mpf per index of
        the first axis}) replaces the monomials of ``_mono``, and then every
        entry is an exact sum."""
        out = np.zeros(lead + (self.weight.N,) * 2, dtype=self._A.dtype)
        views = out.real, out.imag  # only a complex a has imaginary parts
        entries = defaultdict(list)
        reached = defaultdict(lambda: np.zeros(lead, dtype=bool))
        for (i, j, key, part), (num, den) in R.items():
            entries[i, j].append((key, part, num, den.reshape(-1)))
            if key or monos:
                reached[i, j] |= num.astype(bool)
            else:
                views[part][..., i, j] = num / den
        for (i, j), hit in reached.items():
            terms = entries[i, j]
            for at in zip(*np.nonzero(hit)):
                for part in {part for _, part, *_ in terms}:
                    views[part][at + (i, j)] = _exact_sum(
                        (monos[key][at[0]] if monos else self._mono(key),
                         num[at], den[at[0]])
                        for key, p, num, den in terms if p == part)
        return out

    def _polynomial(self, n: int, which: int) -> MatrixPolynomial:
        """Q_n T (which 0) or Q_n (which 1), of degree n + 1 - which, in
        backend arithmetic, exact entries in sympy (``_sympy``)."""
        N, width = self.weight.N, n + 2 - which
        block = self._rows(n, n + 1, which)
        if not self.exact:
            return MatrixPolynomial(block[0, :width], size=N, trim=False)
        _, rows, _ = self._qrows
        terms = defaultdict(list)   # (power, i, j): [(key, exact value)]
        for (i, j, key, part), (num, den) in rows[which].items():
            for p, v in enumerate(num[n, :width]):
                terms[p, i, j].append((key, (0, v, den[n, 0]) if part
                                       else (v, 0, den[n, 0])))
        out = np.full((width, N, N), self._sympy([]))
        for at, t in terms.items():
            out[at] = self._sympy(t)
        return MatrixPolynomial(out, size=N, trim=False)

    def q_block(self, lo: int, hi: int) -> np.ndarray:
        """Power coefficients of Q_lo..Q_{hi-1}, zero above each degree:
        the Q_n rows of ``_rows``, shape (hi - lo, hi + 2, N, N) and real
        where A is, each exact entry the nearest double (rounded once per
        sequence)."""
        return self._rows(lo, hi, 1)

    def qt_block(self, lo: int, hi: int) -> np.ndarray:
        """Power coefficients of Q_lo T..Q_{hi-1} T, shaped and typed like
        ``q_block``: the Q_n T rows of ``_rows``."""
        return self._rows(lo, hi, 0)

    def build_QT(self, n: int) -> MatrixPolynomial:
        """Q_n T = P_n + A P_{n+1} - G_n P_{n-1} (degree n + 1) in backend
        arithmetic, row n of ``_assemble``."""
        return self._polynomial(n, 0)

    def build_Q(self, n: int) -> MatrixPolynomial:
        """Q_n = (Q_n T) T^{-1}, degree n with nonsingular leading
        coefficient K_n, in backend arithmetic: row n of ``_assemble``."""
        return self._polynomial(n, 1)

    def leading_det(self, ns):
        """det K_n = d 2^e as (d, e) shaped like ns (an int or an array in
        0..n_max), on both backends: ``_scaled_det`` of the doubles of G_n
        (``_float_ratios``)."""
        self._check_n(ns)
        return self._scaled_det(self._float_ratios(ns))

    def _scaled_det(self, G):
        """(d, e) with d 2^e the ``continuant`` of rho_i = a_i G[..., u, r]
        over a stack of G_n doubles and the doubles of A, scaled by a power
        of two, which is exact, where |d| passes 2^100."""
        e = np.zeros(G.shape[:-2], dtype=int)
        d_prev = d = np.ones(G.shape[:-2])
        for r, u, *_ in self._pairs:
            d_prev, d = d, d + np.real(G[..., u, r] * self._A[r, u]) * d_prev
            if np.abs(d).max() > 2.0 ** 100:
                # rho_i d_prev stays below 2^1000
                k = np.frexp(d)[1] * (np.abs(d) > 2.0 ** 100)
                d_prev, d, e = np.ldexp(d_prev, -k), np.ldexp(d, -k), e + k
        return d, e

    def rho_values(self, n):
        """rho_i = a_i G_n[u, r] = a_i^2 ||p_n^{w_u}||^2 / ||p_{n-1}^{w_r}||^2
        for the pairs a_i = A[r, u] in pair order, n <= n_max + 1: real
        floats from the G_n table, shape (pairs,) + n.shape for an array n,
        or sympy entries from its exact values, each at the monomial key of
        gamma_u / gamma_r."""
        G = self._ratios(n)
        if self.exact:
            return [self._sympy([(self._ek[u] - self._ek[r],
                                  _gmul(G[..., u, r], a))])
                    for r, u, a, _ in self._pairs]
        return np.real([G[..., u, r] * a for r, u, a, _ in self._pairs])

    def reduced_leading_matrix(self, n) -> np.ndarray:
        """I + ||P_n||^2 A* - ||P_{n-1}||^{-2} A up to a diagonal
        similarity, for brute-force det checks; doubles on both backends,
        real where A is, shape n.shape + (N, N).

        The off-diagonal entries sit on the adjacent pairs (i, i+1)/(i+1,
        i), one from A and one from A* (see ``build_nilpotent``).  A
        diagonal similarity built from the log norms gives both entries of
        pair i the magnitude sqrt(rho_i), so only the log ratio of
        ``rho_values`` is exponentiated, halved: the matrix stays in range
        where the norms themselves overflow, and the determinant does not
        change.
        """
        self._check_n(n)
        N, (r, u) = self.weight.N, self._ru
        a, half = self._A[r, u], self._ratios(n, half=True)
        M = np.eye(N, dtype=a.dtype) * np.ones(np.shape(n) + (1, 1))
        # r: row of the A entry of the pair, u: row of the A* entry
        M[..., r, u] = -a * half
        M[..., u, r] = a.conjugate() * half
        return M

    def _norm_terms(self, ns, log_scale=0.0) -> dict:
        """||Q_n||^2 = ||P_n||^2 + A ||P_{n+1}||^2 A* + G_n A ||P_n||^2 on
        the pairs of A for the degrees ns (an array), as {(i, j): {monomial
        key: values over ns}}: exact values (re, im, den) of arrays over ns
        (see ``_exact``), or doubles over exp(log_scale), a scale per
        degree, real where A is (float).  One code path: only the product,
        the sum and its first term depend on the backend."""
        if self.exact:
            d, d1 = (self._nu[..., m] for m in (ns, ns + 1))
            mul, add, first = _gmul, _gadd, (lambda v: v)
        else:
            d, d1 = (np.exp(self._log_norms[:, m] - log_scale)
                     for m in (ns, ns + 1))
            # a float sum starts from 0, as ``sum`` does (-0.0 reads 0.0)
            mul, add, first = np.multiply, np.add, (lambda v: 0 + v)
        G = self._ratios(ns)    # G[..., n, u, r]
        ek, pairs = self._ek, self._pairs
        ada, ga = {}, {}    # the nonzeros of A D_{n+1} A* and of G_n A

        def accumulate(into, k, v):
            into[k] = add(into[k], v) if k in into else first(v)
        for r, u, a, _ in pairs:
            t = mul(d1[..., u, :], a)
            for r2, u2, a2, ac2 in pairs:
                if u2 == u:
                    accumulate(ada, (r, r2, ek[u]), mul(t, ac2))
                if r2 == r:
                    accumulate(ga, (u2, u, ek[u2] - ek[r]),
                               mul(G[..., u2, r], a))
        out = defaultdict(dict, {(k, k): {ek[k]: d[..., k, :]}
                                 for k in range(self.weight.N)})
        for (i, j, k), v in [*ada.items(),
                             *(((i, j, k + ek[j]), mul(t, d[..., j, :]))
                               for (i, j, k), t in ga.items())]:
            accumulate(out[i, j], k, v)
        return out

    def squared_norm_Q(self, n: int) -> np.ndarray:
        """||Q_n||^2 (see ``_norm_terms``): complex on the float backend,
        ``DegreeCap`` where an entry is past the float range, or each exact
        entry's exact values as sympy (``_sympy``), which the checks read
        scaled and rounded (``_norm_table``)."""
        self._check_n(n)
        out = np.full((self.weight.N,) * 2,
                      self._sympy([]) if self.exact else 0j)
        with np.errstate(over="ignore", invalid="ignore"):
            for ij, terms in self._norm_terms(np.array([n])).items():
                out[ij] = (self._sympy([(k, [x[0] for x in v])
                                        for k, v in terms.items()])
                           if self.exact
                           else sum(v[0] for v in terms.values()))
        if not (self.exact or np.isfinite(out).all()):
            raise DegreeCap(f"||Q_{n}||^2 is past the float range; read it "
                            f"scaled")
        return out

    def _norm_table(self):
        """||Q_n||^2 / sigma_n^2 for n = 0..n_max (log sigma_n =
        ``log_gram_scale``) as a tuple of read-only views, real where A is,
        from one ``_norm_terms`` pass over all degrees; built on first use
        and published in one assignment.  Each exact entry is rounded once
        per part by ``_round``, with the monomials scaled by exp(-2 log
        sigma_n) (the exponential and each product rounded to nearest at 113
        bits by ``libmp``)."""
        got = self._qtab
        if got is None:
            ns, log_scale = np.arange(self.n_max + 1), 2.0 * self._log_sigma
            entries = self._norm_terms(ns, log_scale)
            if self.exact:
                from mpmath import libmp, mp
                f = [libmp.mpf_exp(libmp.from_float(-float(v)), 113, "n")
                     for v in log_scale]
                scaled = {}
                for k in {k for terms in entries.values() for k in terms}:
                    m = self._mono(k)._mpf_
                    scaled[k] = [mp.make_mpf(libmp.mpf_mul(m, fn, 113, "n"))
                                 for fn in f]
                tab = self._round(
                    {(i, j, k, part): (v[part], v[2])
                     for (i, j), terms in entries.items()
                     for k, v in terms.items() for part in (0, 1)
                     if v[part].any()}, ns.shape, scaled)
            else:
                tab = np.zeros((len(ns),) + (self.weight.N,) * 2,
                               dtype=self._A.dtype)
                for (i, j), terms in entries.items():
                    tab[:, i, j] = sum(terms.values())
            tab.flags.writeable = False
            got = self._qtab = tuple(tab)
        return got

    # -- the Gram block ------------------------------------------------------

    def log_gram_scale(self, n: int) -> float:
        """log sigma_n = 1/2 max_k log ||p_n^{w_k}||^2, the scale of degree
        n in the Gram block."""
        self._check_n(n)
        return float(self._log_sigma[n])

    def _gram_block(self):
        """(block, (nodes, C), summary) from one (n_max + 2)-node Gauss rule
        per scalar weight, all from one ``InnerProductEngine.tables`` pass.

        ``block`` is the (n_max+1, N, n_max+1, N) array of <Q_n, Q_m>_W /
        (sigma_n sigma_m), real when A and the G_n table are.  C is the
        node table of shape (n_max+1, N, N (n_max+2)): column range k of
        C[n] is sqrt(lambda_j) (Q_n T e_k)(x_j) / sigma_n at the nodes x_j
        of weight k, which ``nodes`` lists in the same order, so <x^s Q_n,
        Q_m>_W = sigma_n sigma_m C[n] diag(nodes^s) C[m]*.  The block is
        one matmul over the whole table; shift-1 products are read from the
        table (``gram_qt``, ``_three_term_pass``).  ``summary`` is what
        ``quadrature_summary`` reports: the nodes per rule, the smallest
        Christoffel weight lambda_j of all rules (read through
        ``InnerProductEngine.rule``, once per slot), and its log10, read in
        the scaled form, so it stays a number where lambda_j underflows.

        At node x_j of weight k,
        sqrt(lambda_j) p_i(x_j) / sigma_n = u_i(x_j) ||p_i|| / sigma_n,
        where u_i(x_j) = sqrt(lambda_j) phat_i(x_j) is phat_i(x_j) over the
        norm of (phat_0..phat_{n_max+1})(x_j), lambda_j being the
        Christoffel weight; formed that way it stays finite where lambda_j
        underflows.
        """
        M, N = self.n_max, self.weight.N
        m = M + 2
        A = self._A
        G = self._float_ratios(np.arange(M + 1))
        slot, nodes, vals, log_scale = self.engine.tables(m)
        norm = np.linalg.norm(vals, axis=0)
        u = (vals / norm)[:, slot]
        # log lambda_j, lambda_j = 1 / sum_i phat_i(x_j)^2
        log_min = float((-2.0 * (log_scale + np.log(norm))).min())
        half = 0.5 * self._log_norms[:, :m, None].swapaxes(0, 1)
        sigma = self._log_sigma[:, None, None]
        # sqrt(lambda) p_{n+d} / sigma_n at the nodes, n = 0..M
        lo = np.exp(half[:M] - sigma[1:]) * u[:M]
        hi = np.exp(half[1:] - sigma) * u[1:]
        # column k of Q_n T: e_k p_n + A[:, k] p_{n+1} - G_n[:, k] p_{n-1}
        C = np.zeros((M + 1, N, N, m), dtype=A.dtype)
        C[:, range(N), range(N)] = np.exp(half[:M + 1] - sigma) * u[:M + 1]
        for r, k, *_ in self._pairs:
            C[:, r, k] = A[r, k] * hi[:, k]
            C[1:, k, r] = -G[1:, k, r, None] * lo[:, r]
        F = C.reshape((M + 1) * N, N * m)
        # the smallest weight through the rule cache the pass above filled
        smallest = min(float(np.min(self.engine.rule(k, m)[1]))
                       for k in range(N))
        return ((F @ F.conj().T).reshape(M + 1, N, M + 1, N),
                (nodes[slot].reshape(-1), C.reshape(M + 1, N, N * m)),
                {"gauss_nodes": m, "min_gauss_weight": smallest,
                 "log10_min_gauss_weight": log_min / log(10.0)})

    def gram_data(self):
        """The Gram block, the node tables and the quadrature summary (see
        ``_gram_block``), built on first use and published together in one
        assignment."""
        got = self._gram
        if got is None:
            got = self._gram = self._gram_block()
        return got

    def gram_qt(self, n, m, shift: int = 0,
                scaled: bool = False) -> np.ndarray:
        """<x^shift Q_n, Q_m>_W for shift 0 or 1, for an int n and m or for
        equal-shape int arrays of them, as the stacked (..., N, N) blocks:
        shift 0 read from the Gram block (``block[n, :, m, :]``), shift 1
        formed as C[n] diag(nodes) C[m]* from the node table by one batched
        matmul (see ``_gram_block``).

        With ``scaled`` the result is divided by sigma_n sigma_m (see
        ``log_gram_scale``); residuals are formed from that form, which
        stays finite at degrees where the Gram itself overflows.  The plain
        form multiplies by sigma_n sigma_m, each pair's ``math.exp`` of its
        log scale, and raises ``DegreeCap`` naming the first pair (in the
        order of n and m) that the product takes past the float range.
        Complex also where the block is real.
        """
        self._check_n(n)
        self._check_n(m)
        if shift not in (0, 1):
            raise InvalidParam(f"shift must be 0 or 1, got {shift}")
        if shift:
            x, C = self.gram_data()[1]
            g = np.matmul(C[n] * x, C[m].conj().swapaxes(-1, -2))
        else:
            g = self.gram_data()[0][n, :, m, :]
        g = g.astype(complex)
        if scaled:
            return g
        log_s = np.asarray(self._log_sigma[n] + self._log_sigma[m])
        # math.exp per pair, so that an array read scales each pair as its
        # own read does: np.exp rounds some arguments the other way
        scale = np.reshape([_exp(v) for v in log_s.flat], log_s.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            out = g * scale[..., None, None]
        over = (np.isfinite(g) & ~np.isfinite(out)).any(axis=(-2, -1))
        if over.any():
            at = np.unravel_index(over.argmax(), over.shape)
            n, m = (np.broadcast_to(v, over.shape)[at] for v in (n, m))
            raise DegreeCap(f"<{'x ' if shift else ''}Q_{n}, Q_{m}> is past "
                            f"the float range (log scale {log_s[at]:.1f}); "
                            f"read it scaled")
        return out

    def quadrature_summary(self) -> dict:
        """Nodes per scalar weight of the Gauss rules behind the Gram block
        and the smallest Gauss weight among them, also as a log10 that
        stays finite where the weight itself underflows to 0: formed once
        per sequence with the Gram data (``_gram_block``); a copy."""
        return dict(self.gram_data()[2])

    # -- verification -------------------------------------------------------

    def verify_orthogonality(self, n_max: int, tol: float) -> dict:
        """Scaled Gram residuals ||G_nm|| / sqrt(||G_nn||) / sqrt(||G_mm||)
        over all pairs n < m <= n_max, formed from the scaled block by array
        operations (the n_max + 1 diagonal blocks by one ``gram_qt`` read),
        with every norm taken by ``frobenius``, and their peak and failures
        found on the array; a non-finite residual fails, and a pair with a
        non-finite ||G_nn|| reads that norm."""
        self._check_n(n_max)
        k = n_max + 1
        ns = np.arange(k)
        self_norm = frobenius(self.gram_qt(ns, ns, scaled=True), axis=(1, 2))
        root = np.sqrt(self_norm)
        block = self.gram_data()[0][:k, :, :k, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = frobenius(block, axis=(1, 3)) / root[:, None] / root
        # a diagonal norm that is not finite is the residual of its pairs
        bad = ~np.isfinite(self_norm)
        ratio[bad] = self_norm[bad, None]
        ratio[:, bad] = self_norm[bad]
        n_idx, m_idx = np.triu_indices(k, 1)
        r = ratio[n_idx, m_idx]
        worst, i, non_finite = peak(r)
        fail = np.flatnonzero(~(r <= tol))
        return {"max_scaled_residual": worst,
                "worst_pair": None if i is None else (int(n_idx[i]),
                                                      int(m_idx[i])),
                "tol": tol, "passed": not fail.size,
                "failures": list(zip(n_idx[fail].tolist(),
                                     m_idx[fail].tolist(), r[fail].tolist())),
                "non_finite": non_finite}

    def three_term_table(self, hi: int):
        """(A_n, B_n, C_n, residual) for x Q_n = A_n Q_{n+1} + B_n Q_n +
        C_n Q_{n-1}, n = 1..hi: read-only slices of one table per sequence,
        built on first use and published in one assignment.

        X_n = <x Q_n, Q_m> ||Q_m||^{-2}, one stacked solve per neighbour m
        in one pass over the node table (``_three_term_pass``), against the
        norms of ``_norm_table`` read as one array, each equilibrated to
        S_m ||Q_m||^2 S_m (``equilibrate``): the diagonal entries of
        ||Q_m||^2 span many orders of magnitude at large N.  The table
        holds the degrees before the first whose m = n + 1, n or n - 1 has
        a ||Q_m||^2 that is not finite or is singular (slogdet sign 0 on
        the equilibrated adjoint the solve factors); a read past them raises
        ``IllConditioned`` naming the first such m, in that order.  The
        residual is ||R_n||_W / ||x Q_n||_W, R_n = x Q_n - A_n Q_{n+1} -
        B_n Q_n - C_n Q_{n-1}, ||P||_W^2 = tr <P, P>_W, summed over the
        node table of ``_gram_block`` in the same pass, with every term
        divided by sigma_n (so A_n and C_n carry sigma_{n+1} / sigma_n and
        sigma_{n-1} / sigma_n).  It is exact: R_n T has degree n + 2, which
        the n_max + 2 nodes integrate for every n <= n_max - 1.
        """
        if hi < 1 or hi > self.n_max - 1:
            raise OutOfRange(f"n={hi} outside 1..{self.n_max - 1}")
        got = self._recurrence
        if got is None:
            ns = np.arange(1, self.n_max)
            norms = np.array(self._norm_table())
            finite = np.isfinite(norms).all(axis=(1, 2))
            norms[~finite] = np.eye(self.weight.N)
            norms, eq = equilibrate(norms)
            singular = np.linalg.slogdet(norms.conj().swapaxes(1, 2))[0] == 0
            # fault[n - 1, i]: 0, 1 (not finite) or 2 (singular) for the
            # neighbour m = n + 1 - i of degree n
            fault = np.where(finite, 2 * singular, 1)[ns[:, None] + [1, 0, -1]]
            ns = ns[np.cumsum(fault.any(axis=1)) == 0]    # readable
            got = (*self._three_term_pass(ns, norms, eq), fault)
            for a in got:
                a.flags.writeable = False
            self._recurrence = got
        *rows, fault = got
        bad = np.flatnonzero(fault[:hi])
        if bad.size:
            n, i = divmod(int(bad[0]), 3)
            raise IllConditioned(f"||Q_{n + 2 - i}||^2 is " + (
                "not finite", "singular")[fault[n, i] - 1])
        return tuple(a[:hi] for a in rows)

    def _three_term_pass(self, ns, norms, eq):
        """(A_n, B_n, C_n, residual) of ``three_term_table`` for the
        consecutive degrees ns from the node table alone, in blocks of
        degrees, each one stacked pass over the neighbours m = n + 1, n,
        n - 1 (a view of the table, no copy): X_n ||Q_m||^2 = <x Q_n, Q_m>,
        the band (C[n] x) C[m]* by one batched matmul, is Y (S_m ||Q_m||^2
        S_m) = <x Q_n, Q_m> S_m with X_n = Y S_m, solved as its adjoint
        against the regular equilibrated ``norms`` (S_m = diag(eq[m])) by
        one stacked solve, and X_n Q_m subtracted for the residual in that
        order of m, in real arithmetic where A is real."""
        x, C = self.gram_data()[1]
        mats = np.empty((3, len(ns)) + (self.weight.N,) * 2,
                        dtype=np.result_type(C, norms))
        out = np.empty(len(ns))
        step = 64   # degrees per pass, which bounds the temporaries
        for i in range(0, len(ns), step):
            n = ns[i:i + step]
            m = n + np.array([1, 0, -1])[:, None]
            # C[m] as a view of the table: ns are consecutive degrees
            Cm = np.moveaxis(sliding_window_view(
                C[n[0] - 1:n[-1] + 2], 3, axis=0), -1, 0)[::-1]
            xq = C[n] * x
            s = np.exp(self._log_sigma[n] - self._log_sigma[m])[
                ..., None, None]
            g = np.matmul(xq, Cm.conj().swapaxes(-1, -2)) * s
            # X ||Q_m||^2 = g, solved as its adjoint against S ||Q_m||^2 S
            e = eq[m][..., None, :]
            adjoint = [v.conj().swapaxes(-1, -2) for v in (norms[m], g * e)]
            X = mats[:, i:i + step]
            X[:] = np.linalg.solve(*adjoint).conj().swapaxes(-1, -2) * e
            X = X / s
            r = xq.copy()
            for Xd, Cd in zip(X, Cm):
                r -= np.matmul(Xd, Cd)
            with np.errstate(over="ignore", invalid="ignore"):
                num, den = ((v * v.conj()).real.sum(axis=(1, 2))
                            for v in (r, xq))
                res = np.sqrt(num / den)
            # a sum past the float range: its degree again by ``frobenius``
            bad = ~np.isfinite(num + den)
            if bad.any():
                res[bad] = (frobenius(r[bad], axis=(1, 2))
                            / frobenius(xq[bad], axis=(1, 2)))
            out[i:i + step] = res
        return (*mats, out)

    def three_term_coefficients(self, n: int):
        """(A_n, B_n, C_n, residual) of degree n, the matrices complex: the
        last row of ``three_term_table(n)``, which refuses it only for a
        faulty ||Q_m||^2 with m <= n + 1."""
        *mats, res = self.three_term_table(n)
        return (*(X[-1].astype(complex) for X in mats), float(res[-1]))
