"""Seeded generator of `mvop run` configs for the benchmark workloads.

Each workload keeps a fixed structure (sizes, families, degrees and
checks); the seed only moves the nonzero off-diagonal parameters ``a`` and
whichever family parameters a template leaves free.  The same
``(workload, seed)`` always gives the same configs.

The four benchmark workloads hold only configs on which ``mvop run``
passes every check today.  Configs that hit a known defect of the program
(float Gauss weights at high degree on unbounded supports, the exact
``det`` crash on a 3x3 Jacobi weight) are kept in the ``known-defects``
workload, which reports them as failures; it is run by name and is not part
of the timed benchmark.

Every case is ``{"name": ..., "config": {...}, "expect": {...}}``.  The
program sees only ``config``; ``expect`` holds values the benchmark checks
the report against (today the symmetry dimension, which the weight
structure fixes for every admissible ``a``).
"""

import random

WORKLOADS = ("gram-sweep", "operator-sweep", "symmetry-wide", "exact-suite")
#: workloads that are run by name only: they fail on purpose
DIAGNOSTIC = ("known-defects",)

#: one small config every fresh process finishes before any timing; it
#: touches Gauss rules, operators and the SVD (LAPACK start-up)
WARMUP = {
    "size": 2, "a": [1.5],
    "weights": [{"family": "laguerre", "alpha": 0.0},
                {"family": "laguerre", "alpha": 0.5}],
    "n_max": 3,
    "checks": ["orth", "norm", "recurrence", "eigen", "darboux", "det",
               "reduce", "symmetries"],
}

GRAM_CHECKS = ["orth", "norm", "recurrence", "det"]
OPERATOR_CHECKS = ["eigen", "darboux", "reduce", "det"]
SYMMETRY_CHECKS = ["symmetries", "reduce", "det"]
EXACT_CHECKS = ["orth", "norm", "recurrence", "eigen", "darboux", "det",
                "reduce"]


def _a_params(rng, count):
    """Nonzero parameters with magnitude in [0.5, 2] and a random sign."""
    return [round(rng.choice((-1, 1)) * rng.uniform(0.5, 2.0), 6)
            for _ in range(count)]


def _a_rational(rng, count):
    """Nonzero parameters with short binary fractions, so that exact
    arithmetic on them stays cheap."""
    return [rng.choice((-1, 1)) * rng.choice((0.5, 0.75, 1.0, 1.25, 1.5, 2.0))
            for _ in range(count)]


def _half_step(rng):
    """0, 1/2, 1 or 3/2.  Quarter steps bring in gamma at quarter-integers,
    on which the exact det check crashes like ``jac3_exact_det`` (the same
    defect) for some seeds but not others."""
    return rng.choice((0.0, 0.5, 1.0, 1.5))


def _hermite(b):
    return {"family": "hermite", "b": b}


def _laguerre(alpha):
    return {"family": "laguerre", "alpha": alpha}


def _jacobi(alpha, beta, scale=None):
    d = {"family": "jacobi", "alpha": alpha, "beta": beta}
    if scale is not None:
        d["scale"] = scale
    return d


def _case(name, a, weights, n_max, checks, backend="float", **expect):
    cfg = {"size": len(weights), "a": a, "weights": weights,
           "n_max": n_max, "checks": list(checks)}
    if backend != "float":
        cfg["backend"] = backend
    return {"name": name, "config": cfg, "expect": expect}


def _laguerre_ladder(alpha, N):
    """alpha, alpha+1, alpha+1, alpha+2, ...: no order-zero symmetry."""
    return [_laguerre(alpha + (k + 1) // 2) for k in range(N)]


def _laguerre_chain5(alpha):
    """The explicit 5x5 Laguerre chain that has a Darboux template."""
    return [_laguerre(alpha + d) for d in (0, 0, 1, 1, 2)]


def _jacobi_matching3(rng):
    """3x3 Jacobi weight meeting the bispectral matching condition
    alpha_j + beta_j + 1 + (-1)^j = alpha_1 + beta_1."""
    s1 = round(rng.uniform(2.5, 4.0), 6)
    a1 = round(rng.uniform(0.5, s1 - 0.5), 6)
    a2 = round(rng.uniform(0.0, s1 - 2.0), 6)
    a3 = round(rng.uniform(0.5, s1 - 0.5), 6)
    return [_jacobi(a1, s1 - a1), _jacobi(a2, s1 - 2.0 - a2),
            _jacobi(a3, s1 - a3)]


def _gram_case(rng, family, N, n_max):
    a = _a_params(rng, N - 1)
    if family == "her":
        weights = [_hermite(round(rng.uniform(-0.5, 0.5), 6))
                   for _ in range(N)]
    elif family == "lag":
        weights = [_laguerre(round(rng.uniform(0.0, 1.5), 6))
                   for _ in range(N)]
    else:
        weights = [_jacobi(round(rng.uniform(-0.5, 1.5), 6),
                           round(rng.uniform(-0.5, 1.5), 6)) for _ in range(N)]
    return _case(f"{family}{N}_n{n_max}", a, weights, n_max, GRAM_CHECKS)


#: Hermite and Laguerre stay at degrees where the float Gauss weights still
#: pass (Laguerre fails from n = 24, Hermite by n = 30); their
#: ROADMAP-diagonal degrees are in ``known_defects``
GRAM_GRID = {"her": ((2, 20), (3, 20), (5, 20), (10, 10)),
             "lag": ((2, 20), (3, 20), (5, 20), (10, 10)),
             "jac": ((2, 80), (3, 40), (5, 20), (10, 10))}


def gram_sweep(rng):
    """Gram work in all three classical families, up to the ROADMAP grid
    diagonal (N, n_max) in (2, 80), (3, 40), (5, 20), (10, 10)."""
    return [_gram_case(rng, family, N, n_max)
            for family, grid in GRAM_GRID.items() for N, n_max in grid]


def operator_sweep(rng):
    """Every bispectral/Darboux/reduction template at high degree."""
    alpha = round(rng.uniform(0.0, 1.5), 6)
    a_red = _a_params(rng, 1)
    ja, jb = round(rng.uniform(0.0, 1.5), 6), round(rng.uniform(0.0, 1.5), 6)
    return [
        _case("lag5_chain_n60", _a_params(rng, 4), _laguerre_chain5(alpha),
              60, OPERATOR_CHECKS),
        _case("her4_n80", _a_params(rng, 3), [_hermite(0.0)] * 4,
              80, OPERATOR_CHECKS),
        _case("jac3_matching_n70", _a_params(rng, 2), _jacobi_matching3(rng),
              70, OPERATOR_CHECKS),
        _case("her_lag2_n80", _a_params(rng, 1),
              [_hermite(round(rng.uniform(-0.5, 0.5), 6)),
               _laguerre(round(rng.uniform(0.0, 1.5), 6))],
              80, OPERATOR_CHECKS),
        _case("jac2_reducible_n80", a_red,
              [_jacobi(ja + 1.0, jb + 1.0, scale=a_red[0] ** 2),
               _jacobi(ja, jb)], 80, OPERATOR_CHECKS),
    ]


def symmetry_wide(rng):
    """Symmetry search on wide weights; the dimensions are structural."""
    b = round(rng.uniform(-0.5, 0.5), 6)
    alpha = round(rng.uniform(0.0, 1.5), 6)
    ja, jb = round(rng.uniform(0.0, 1.5), 6), round(rng.uniform(0.0, 1.5), 6)
    cases = []
    for N, dim_equal in ((10, 5), (5, 3)):
        cases += [
            _case(f"her{N}", _a_params(rng, N - 1), [_hermite(b)] * N, 4,
                  SYMMETRY_CHECKS, symmetry_dimension=dim_equal),
            _case(f"lag{N}", _a_params(rng, N - 1),
                  _laguerre_ladder(alpha, N), 4, SYMMETRY_CHECKS,
                  symmetry_dimension=1),
            _case(f"jac{N}", _a_params(rng, N - 1), [_jacobi(ja, jb)] * N, 4,
                  SYMMETRY_CHECKS, symmetry_dimension=dim_equal),
        ]
    cases.append(_case(
        "lag3_w1w3", _a_params(rng, 2),
        [_laguerre(alpha), _laguerre(alpha + 1.0), _laguerre(alpha)], 4,
        SYMMETRY_CHECKS, symmetry_dimension=2))
    return cases


#: a 3x3 Jacobi weight meeting the matching condition, in half steps
JAC3_EXACT_SLOTS = [_jacobi(1.5, 1.5), _jacobi(0.5, 0.5), _jacobi(1.5, 1.5)]


def exact_suite(rng):
    """The sympy backend on small sizes and degrees.  Each template is drawn
    twice: the cost of exact arithmetic depends on the parameters, and a
    second draw evens out how much one draw moves the pass time."""
    cases = []
    for draw in "ab":
        alpha = _half_step(rng)
        for N, n_max in ((2, 8), (3, 7), (5, 6)):
            lag = (_laguerre_chain5(alpha) if N == 5
                   else [_laguerre(_half_step(rng)) for _ in range(N)])
            cases.append(_case(f"lag{N}_exact_{draw}", _a_rational(rng, N - 1),
                               lag, n_max, EXACT_CHECKS, backend="exact"))
            cases.append(_case(f"her{N}_exact_{draw}", _a_rational(rng, N - 1),
                               [_hermite(0.0)] * N, n_max, EXACT_CHECKS,
                               backend="exact"))
        # the det check is left out here: it crashes on the exact Jacobi
        # weights tried (see known_defects)
        cases.append(_case(f"jac3_exact_{draw}", _a_rational(rng, 2),
                           JAC3_EXACT_SLOTS, 6,
                           [c for c in EXACT_CHECKS if c != "det"],
                           backend="exact"))
    return cases


def jac3_exact_det():
    """Not seeded: with these slots and a = (1, 1/2) the det check's sympy
    comparison raises TypeError on every pass (its Beta-function terms stay
    unevaluated).  For other a it sometimes returns an unevaluated residual
    instead."""
    return _case("jac3_exact_det", [1.0, 0.5], JAC3_EXACT_SLOTS, 6,
                 EXACT_CHECKS, backend="exact")


def known_defects(rng):
    """Configs that fail today: the float path on Hermite and Laguerre at
    the ROADMAP-diagonal degrees 80 and 40, and the exact det crash.  The
    5x5 Laguerre chain adds the check-pool race, which makes a pooled pass
    raise or disagree with the serial one on some passes only."""
    return ([_gram_case(rng, family, N, n_max) for family in ("her", "lag")
             for N, n_max in ((2, 80), (3, 40))]
            + [jac3_exact_det(),
               _case("lag5_chain_n60", _a_params(rng, 4),
                     _laguerre_chain5(round(rng.uniform(0.0, 1.5), 6)), 60,
                     OPERATOR_CHECKS)])


_BUILDERS = {"gram-sweep": gram_sweep, "operator-sweep": operator_sweep,
             "symmetry-wide": symmetry_wide, "exact-suite": exact_suite,
             "known-defects": known_defects}


def generate(workload, seed):
    """The workload's cases for this seed (deterministic)."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
