"""The exact scalar layer: parameters, moments and classical recurrences on
Python ints, with mpmath for the transcendental values.

Only the exact branches import this module, so float runs load neither it
nor mpmath, and no exact check loads sympy: sympy objects are formed only
where a public reader returns one (``atom_sympy``, ``a_sympy`` and the
sympy readers of ``scalar_families.MonicScalarSequence`` and
``mvop_core.MVOPSequence``).

- ``rat`` turns a parameter into the reduced pair (p, q) that sympy 1.14's
  ``nsimplify(x, rational=True)`` gives: ``mpmath.identify`` at 30 digits
  with tolerance 1e-15, read as sympy reads its formula, and sympy's base-10
  fallback where that finds no rational.  A short decimal (at most 7
  significant digits) is read as written, which is what those give.
- ``moment0`` writes the zeroth moment as a rational times an atom, a
  product of powers of pi^(1/2), 2^f (0 < f < 1), Gamma(f) (0 < f < 1, f !=
  1/2) and exp(q), with each Gamma(x) as Gamma(f) rf(f, x - f), f in (0, 1]:
  weights of one ``irreducibility._weight_classes`` class share their atom,
  so their moment ratios are rationals.  The atom groups its factors as
  sympy's ``as_coeff_Mul`` does, so two weights share an atom exactly where
  the sympy moments do (Hermite(0) and Laguerre(1/2) share pi^(1/2)).
- ``recurrence`` and ``sequence`` give b_n, c_n and the norms ||p_n||^2 as
  reduced (numerator, denominator) pairs, and each log norm as the 113-bit
  log of the moment plus the 113-bit log of the product c_1 ... c_n,
  rounded once to the nearest double.
"""

import ast
import operator
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, frexp, gcd, lcm

import mpmath
from mpmath import libmp

from . import scalar_families as sf
from .errors import Unsupported


@lru_cache(maxsize=1024, typed=True)
def rat(x):
    """x (an int or a float) as the reduced pair (p, q), q > 0, of sympy's
    ``nsimplify(x, rational=True)``; every exact-backend parameter goes
    through here, and a sequence only ever meets a handful of distinct
    ones (typed: 1e23 and the int it equals differ here).  An int is
    itself; a float below 2^-103 in magnitude, which sympy's 30-digit
    evaluation chops to 0, is its binary value; a short decimal is read as
    written (``_short_decimal``), anything else by ``_identify``."""
    try:
        return operator.index(x), 1
    except TypeError:
        x = float(x)
    if x == 0 or frexp(x)[1] < -103:
        return x.as_integer_ratio()
    v = _short_decimal(x) or _identify(x)
    return v.numerator, v.denominator


def _short_decimal(x):
    """The decimal repr(x) as a Fraction where it has at most 7 significant
    digits and no exponent, else None.  On every such float tried (the
    tests' seeded grid, and 2489 decimals from 1e-10 to 1e15) ``_identify``
    gives this same decimal, after about 15 ms of transforms."""
    r = repr(x)
    if "e" in r or len(r.strip("-").replace(".", "").strip("0")) > 7:
        return None
    return Fraction(r)


def _identify(x):
    """sympy's reading of a nonzero float x: the rational of
    ``mpmath.identify`` at 30 digits and tolerance 1e-15, else the base-10
    fallback."""
    with mpmath.workdps(30):
        formula = mpmath.identify(mpmath.mpf(x), tol=10 ** -15)
    v = _formula_value(formula) if formula else None
    # no rational, or 0 for a nonzero x, which sympy refuses too
    return v or _base10(x)


def _iroot(n, k):
    """The integer k-th root of n >= 0, or None where n is no k-th power."""
    r = 1 << -(-n.bit_length() // k)     # Newton's method from above
    while r:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r ** k == n else None


def _formula_value(formula):
    """The value of an ``mpmath.identify`` formula (integers, + - * / **,
    sqrt, exp and log) as sympy evaluates it, a Fraction, or None where it
    is not rational."""
    def power(v, e):
        if not v:
            return None if e < 0 else Fraction(e == 0)
        if e.denominator == 1:
            return v ** int(e)
        if v < 0:
            return None
        n, d = (_iroot(p, e.denominator) for p in v.as_integer_ratio())
        return None if None in (n, d) else Fraction(n, d) ** e.numerator

    def value(node):
        if isinstance(node, ast.Constant):
            return Fraction(node.value)
        if isinstance(node, ast.UnaryOp):
            v = value(node.operand)
            return v if v is None or isinstance(node.op, ast.UAdd) else -v
        if isinstance(node, ast.Call):
            v, name = value(node.args[0]), node.func.id
            if v is None:
                return None
            if name == "sqrt":
                return power(v, Fraction(1, 2))
            return {"exp": {0: Fraction(1)}, "log": {1: Fraction(0)}}[
                name].get(v)
        a, b = value(node.left), value(node.right)
        if a is None or b is None:
            return None
        op = type(node.op)
        if op is ast.Pow:
            return power(a, b)
        if op is ast.Div:
            return a / b if b else None
        return {ast.Add: a + b, ast.Sub: a - b, ast.Mult: a * b}[op]
    return value(ast.parse(formula, mode="eval").body)


def _base10(x):
    """sympy's base-10 fallback: with 10^k, k = int(log10 |x|) at 53 bits,
    |x| / 10^k rounded to 53 bits and then to 15 significant digits, times
    10^k, with the sign of x."""
    y = abs(x)
    with mpmath.workprec(53):
        k = int(mpmath.log(y) / mpmath.log(10))
    d = Fraction(10) ** k
    q = libmp.mpf_div(libmp.from_float(y), libmp.from_rational(
        d.numerator, d.denominator, 53, "n"), 53, "n")
    v = Fraction(libmp.to_str(q, 15)) * d
    return -v if x < 0 else v


def a_value(v):
    """An off-diagonal parameter a (int, float or complex) as the exact value
    (re + i im) / den of ``mvop_core._exact``: each part through ``rat``, as
    sympy's ``nsimplify`` converts a complex number part by part."""
    (p, q), (s, t) = rat(v.real), rat(v.imag)
    den = lcm(q, t)
    return p * (den // q), s * (den // t), den


def a_sympy(v):
    """``a_value`` as a sympy number."""
    import sympy as sp
    re, im, den = a_value(v)
    return sp.Rational(re, den) + sp.I * sp.Rational(im, den)


def moment0(spec):
    """The zeroth moment of a classical weight as (c, atom): a reduced pair
    c = (p, q) and the atom, a sorted tuple of ((name, num, den), exponent)
    with name "pi" (pi^(1/2), num/den = 1/2), "2" (2^(num/den)), "gamma"
    (Gamma(num/den)) or "exp" (exp(num/den)), and with a nonzero integer
    exponent; the empty tuple is 1.  See the module docstring."""
    coeff, factors = Fraction(*rat(spec.scale)), {}

    def power(name, arg, e=1):
        key = (name, arg.numerator, arg.denominator)
        factors[key] = factors.get(key, 0) + e

    def gamma(x, e):    # Gamma(x)^e = (Gamma(f) rf(f, x - f))^e, x > 0
        nonlocal coeff
        f = x - ceil(x) + 1
        for k in range(int(x - f)):
            coeff *= (f + k) ** e
        if f == Fraction(1, 2):
            power("pi", f, e)
        elif f != 1:
            power("gamma", f, e)
    if spec.family == sf.HERMITE:
        b = Fraction(*rat(spec.b))
        power("pi", Fraction(1, 2))
        if b:
            power("exp", b * b)
    elif spec.family == sf.LAGUERRE:
        gamma(Fraction(*rat(spec.alpha)) + 1, 1)
    elif spec.family == sf.JACOBI:
        a, b = Fraction(*rat(spec.alpha)), Fraction(*rat(spec.beta))
        y = a + b + 1   # 2^y = 2^n 2^f, 0 <= f < 1
        coeff *= Fraction(2) ** floor(y)
        if y != floor(y):
            power("2", y - floor(y))
        gamma(a + 1, 1)
        gamma(b + 1, 1)
        gamma(a + b + 2, -1)
    else:
        raise Unsupported("exact backend needs a classical family")
    atom = tuple(sorted((k, e) for k, e in factors.items() if e))
    return (coeff.numerator, coeff.denominator), atom


def _factors(atom, lib, rational):
    """The powers that make up ``atom``, in sympy or mpmath (``lib``), with
    rational(p, q) giving p / q there."""
    def base(name, r):
        return {"pi": lib.pi ** r, "2": 2 ** r}[name] if name in ("pi", "2") \
            else getattr(lib, name)(r)
    return [base(name, rational(p, q)) ** e for (name, p, q), e in atom]


@lru_cache(maxsize=256)
def atom_value(atom, coeff=(1, 1)):
    """coeff (a pair) times the atom as an mpf of 113 bits: the product at
    200 bits, rounded to the 136 bits of a 40-digit evaluation and then to
    113 bits."""
    with mpmath.workprec(200):
        v = mpmath.fprod(_factors(atom, mpmath, lambda p, q: mpmath.mpf(p) / q))
        v = v * coeff[0] / coeff[1]
    for prec in (136, 113):
        with mpmath.workprec(prec):
            v = +v
    return v


@lru_cache(maxsize=256)
def atom_sympy(atom):
    """The atom as a sympy expression."""
    import sympy as sp
    return sp.Mul(*_factors(atom, sp, sp.Rational))


def recurrence(spec, n_max):
    """b_0..b_{n_max} and c_1..c_{n_max} of
    ``scalar_families._classical_recurrence`` as reduced (numerator,
    denominator > 0) pairs of Python ints, from the ``rat`` parameters.
    Jacobi puts alpha = A / Q and beta = B / Q over Q = q_alpha q_beta, so s
    = alpha + beta = S / Q and every factor 2n + s + k is (2n Q + S + k Q) /
    Q."""
    if spec.family == sf.CUSTOM:
        raise Unsupported("exact backend needs a classical family")

    def frac(p, q):
        g = gcd(p, q) if q > 0 else -gcd(p, q)
        return p // g, q // g
    (bp, bq), (ap, aq), (ep, eq) = map(rat, (spec.b, spec.alpha, spec.beta))
    A, B, Q = ap * eq, ep * aq, aq * eq
    S = A + B
    b, c = [], []
    for n in range(n_max + 1):
        if spec.family == sf.HERMITE:
            b.append((bp, bq))
            if n >= 1:
                c.append(frac(n, 2))
        elif spec.family == sf.LAGUERRE:
            b.append(((2 * n + 1) * aq + ap, aq))
            if n >= 1:
                c.append(frac(n * (n * aq + ap), aq))
        else:  # Jacobi
            t = 2 * n * Q + S
            # (b^2-a^2)/(s(s+2)) reduces to this at n = 0; valid also at s = 0
            b.append(frac(B - A, S + 2 * Q) if n == 0
                     else frac((B - A) * (B + A), t * (t + 2 * Q)))
            if n == 1:  # n + s = 2n + s - 1 cancels: no 0/0 at s = -1
                c.append(frac(4 * Q * (Q + A) * (Q + B), t * t * (t + Q)))
            elif n >= 2:
                c.append(frac(4 * n * Q * (n * Q + A) * (n * Q + B)
                              * (n * Q + S), t * t * (t + Q) * (t - Q)))
    return b, c


def sequence(spec, n_max):
    """The exact ``scalar_families.recurrence_coefficients``: b_n, c_n and
    the norms ||p_n||^2 / atom as reduced pairs (``recurrence``,
    ``moment0``).  Each log norm is the 113-bit log m0 plus the 113-bit log
    of the product c_1 ... c_n, summed at 113 bits and rounded to the
    nearest double."""
    b, c = recurrence(spec, n_max)
    (cp, cq), atom = moment0(spec)
    log_m0 = libmp.mpf_log(atom_value(atom, (cp, cq))._mpf_, 113, "n")
    log_norms, norms, (p, q) = [], [], (1, 1)
    for cn, cd in [(1, 1), *c]:
        p, q = p * cn, q * cd
        g = gcd(p, q)
        p, q = p // g, q // g
        log_norms.append(libmp.to_float(libmp.mpf_add(log_m0, libmp.mpf_log(
            libmp.from_rational(p, q, 113, "n"), 113, "n"), 113, "n"),
            rnd="n"))
        g = gcd(cp * p, cq * q)
        norms.append((cp * p // g, cq * q // g))
    return sf.MonicScalarSequence(spec=spec, backend="exact", n_max=n_max,
                                  b=b, c=c, log_norms=log_norms, norms=norms,
                                  atom=atom)
