"""Scalar polynomial helpers.

Polynomials are plain Python lists of coefficients in ascending powers.
Entries are floats/complex in the float backend and sympy expressions in
the exact backend; every routine here only uses +, * and so works for both.
"""

import math
import sys

ZERO_TOL = 1e-13


def is_exact(coeffs) -> bool:
    """True if any coefficient is a sympy object.  Never imports sympy:
    until it is loaded (far enough to define Basic), no coefficient can
    be one."""
    basic = getattr(sys.modules.get("sympy"), "Basic", None)
    return basic is not None and any(isinstance(c, basic) for c in coeffs)


def trim(coeffs):
    """Strip trailing exactly-zero coefficients; keep at least one entry.

    Only exact zeros go: dropping merely-small trailing coefficients would
    chop the monic leading 1 whenever lower coefficients are large.
    """
    c = list(coeffs)
    if not c:
        return [0]
    if is_exact(c):
        import sympy as sp
        c = [sp.expand(x) for x in c]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def add(p, q):
    n = max(len(p), len(q))
    out = [0] * n
    for i, x in enumerate(p):
        out[i] = out[i] + x
    for i, x in enumerate(q):
        out[i] = out[i] + x
    return trim(out)


def sub(p, q):
    return add(p, [-x for x in q])


def scale(p, s):
    return trim([s * x for x in p])


def mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return trim(out)


def derivative(p, k: int = 1):
    c = list(p)
    for _ in range(k):
        c = [i * c[i] for i in range(1, len(c))]
        if not c:
            return [0]
    return trim(c)


def evaluate(p, x):
    acc = 0
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def degree(p) -> int:
    p = trim(p)
    return len(p) - 1


def max_abs(p) -> float:
    return max((abs(complex(x)) for x in p), default=0.0)


def binom(n: int, k: int) -> int:
    return math.comb(n, k)
