"""Batch front door: JSON config in, verification report out.

``mvop run --config cfg.json`` builds the weight, runs the requested
checks and prints one status line per check; ``mvop schema`` prints the
config schema.  ``darboux`` and ``reduce`` run the first template of their
table whose relation on the slots' parameters holds, and a skip names
each template's unmet relation.  Exit codes: 0 all pass, 1 a check
failed, 2 bad config, I/O or usage.  The shell is stdlib ``argparse``,
imported by ``main`` alone, so importing this module loads numpy and
nothing else outside the standard library.
"""

import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import darboux as dx
from . import irreducibility as irr
from . import scalar_families as sf
# op_apply is unused here but stays a re-export: perfbench's tracer test
# checks that wrapping it reaches cli.op_apply
from .diff_operators import (build_bispectral_operator, eigencheck,
                             identity_residual, op_apply)  # noqa: F401
from .errors import ConfigError, MvopError, Unsupported
from .matrix_poly import MatrixPolynomial
from .mvop_core import MVOPSequence, frobenius, peak
from .weight_model import WeightSpec, weight_spec

CHECK_NAMES = ("orth", "norm", "recurrence", "eigen", "darboux",
               "det", "reduce", "symmetries")

SCHEMA = {
    "type": "object",
    "required": ["size", "a", "weights"],
    "properties": {
        "size": {"type": "integer", "minimum": 2},
        "a": {"type": "array", "items": {"type": "number"},
              "description": "N-1 nonzero off-diagonal parameters"},
        "weights": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["family"],
                "properties": {
                    "family": {"enum": ["hermite", "laguerre", "jacobi",
                                        "custom"]},
                    "b": {"type": "number"},
                    "alpha": {"type": "number"},
                    "beta": {"type": "number"},
                    "scale": {"type": "number", "exclusiveMinimum": 0},
                    "moments": {"type": "array", "items": {"type": "number"}},
                    "support": {"type": "array", "items": {"type": "number"},
                                "minItems": 2, "maxItems": 2},
                },
            },
        },
        "backend": {"enum": ["float", "exact"], "default": "float"},
        "n_max": {"type": "integer", "minimum": 1, "default": 10},
        "tol": {"type": "number", "exclusiveMinimum": 0, "default": 1e-9},
        "checks": {"type": "array", "items": {"enum": list(CHECK_NAMES)},
                   "default": ["orth", "norm"]},
    },
}


@dataclass
class RunConfig:
    spec: WeightSpec
    backend: str = "float"
    n_max: int = 10
    tol: float = 1e-9
    checks: tuple = ("orth", "norm")

    def to_json(self) -> dict:
        ws = []
        for s in self.spec.scalars:
            d = {"family": s.family}
            if s.family == sf.HERMITE:
                d["b"] = s.b
            elif s.family == sf.LAGUERRE:
                d["alpha"] = s.alpha
            elif s.family == sf.JACOBI:
                d["alpha"], d["beta"] = s.alpha, s.beta
            else:
                d["moments"] = list(s.moments)
                d["support"] = list(s.support)
            if s.scale != 1.0:
                d["scale"] = s.scale
            ws.append(d)
        # a complex a_i (given through the API) as its [re, im] pair
        a = [[v.real, v.imag] if isinstance(v, complex) else v
             for v in self.spec.a_params]
        return {"size": self.spec.N, "a": a,
                "weights": ws, "backend": self.backend, "n_max": self.n_max,
                "tol": self.tol, "checks": list(self.checks)}


def _is_number(v) -> bool:
    """A JSON number that a double holds finitely; booleans are not
    numbers."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:           # an int past the double range
        return False


def _number(d: dict, key: str, default=None, integer=False):
    """d[key] (``default`` when absent) as a float, or as an int when
    ``integer``; ``ConfigError`` when it is missing without a default or
    is not such a number."""
    if key not in d and default is None:
        raise ConfigError(f"missing field {key!r}")
    v = d.get(key, default)
    if not _is_number(v) or (integer and v != int(v)):
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{key} must be {kind}, got {v!r}")
    return int(v) if integer else float(v)


def _array(data: dict, key: str, default=None):
    """data[key] (``default`` when absent), which must be a JSON array."""
    v = data.get(key, default)
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"{key} must be an array, got {v!r}")
    return v


def _scalar_from_json(d):
    if not isinstance(d, dict):
        raise ConfigError(f"a weight must be an object, got {d!r}")
    fam = d.get("family")
    try:
        scale = _number(d, "scale", 1.0)
        if fam == "hermite":
            return sf.hermite(_number(d, "b", 0.0), scale=scale)
        if fam == "laguerre":
            return sf.laguerre(_number(d, "alpha"), scale=scale)
        if fam == "jacobi":
            return sf.jacobi(_number(d, "alpha"), _number(d, "beta"),
                             scale=scale)
        if fam == "custom":
            moments, support = _array(d, "moments"), _array(d, "support")
            if (len(support) != 2
                    or not all(map(_is_number, [*moments, *support]))):
                raise ConfigError("moments must be an array of numbers and "
                                  "support an array of two")
            return sf.custom(moments, support)
    except MvopError as exc:
        raise ConfigError(f"bad scalar weight entry {d}: {exc}") from exc
    raise ConfigError(f"unknown weight family {fam!r}")


def config_from_json(data: dict) -> RunConfig:
    """Validate a parsed JSON config; every malformed field raises
    ``ConfigError``."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("size", "a", "weights"):
        if key not in data:
            raise ConfigError(f"missing config field {key!r}")
    size = _number(data, "size", integer=True)
    a = _array(data, "a")
    if not all(_is_number(v) for v in a):
        raise ConfigError(f"a must be an array of numbers, got {a!r}")
    scalars = [_scalar_from_json(w) for w in _array(data, "weights")]
    if len(scalars) != size:
        raise ConfigError("size does not match the number of weights")
    try:
        spec = weight_spec(a, scalars)
    except MvopError as exc:
        raise ConfigError(str(exc)) from exc
    backend = data.get("backend", "float")
    if backend not in ("float", "exact"):
        raise ConfigError(f"unknown backend {backend!r}")
    checks = tuple(_array(data, "checks", ["orth", "norm"]))
    for c in checks:
        if c not in CHECK_NAMES:
            raise ConfigError(f"unknown check {c!r}")
    n_max = _number(data, "n_max", 10, integer=True)
    tol = _number(data, "tol", 1e-9)
    if n_max < 1 or tol <= 0:
        raise ConfigError("need n_max >= 1 and tol > 0")
    # run builds Q_0..Q_{n_max}, whose scalar recurrences reach n_max + 1
    # and read 2 (n_max + 1) + 2 moments
    for s in scalars:
        if s.family != sf.CUSTOM:
            continue
        if backend == "exact":
            raise ConfigError("the exact backend needs classical families, "
                              "not a custom weight")
        if n_max + 1 > sf.CUSTOM_DEGREE_CAP:
            raise ConfigError(f"custom weights need n_max <= "
                              f"{sf.CUSTOM_DEGREE_CAP - 1}, got "
                              f"n_max={n_max}")
        if len(s.moments) < 2 * n_max + 4:
            raise ConfigError(f"a custom weight needs {2 * n_max + 4} "
                              f"moments for n_max={n_max}, got "
                              f"{len(s.moments)}")
    return RunConfig(spec=spec, backend=backend, n_max=n_max, tol=tol,
                     checks=checks)


# -- individual checks -----------------------------------------------------

# A non-finite residual is reported as the peak (see ``peak``), so every
# ``worst < tol`` verdict below fails on it, and ``non_finite`` says so.

def _check_orth(seq, cfg):
    rep = seq.verify_orthogonality(cfg.n_max, cfg.tol)
    return {"passed": rep["passed"],
            "max_scaled_residual": rep["max_scaled_residual"],
            "worst_pair": rep["worst_pair"],
            "non_finite": rep["non_finite"],
            "max_abs_log_ratio": seq.max_abs_log_ratio(),
            **seq.quadrature_summary()}


def _check_norm(seq, cfg):
    # both sides divided by sigma_n^2, so neither can overflow; every
    # degree in one read of each
    ns = np.arange(cfg.n_max + 1)
    gram = seq.gram_qt(ns, ns, scaled=True)
    closed = np.array(seq._norm_table()[:len(ns)])
    g = frobenius(gram, axis=(1, 2))
    with np.errstate(invalid="ignore"):
        rel = frobenius(gram - closed, axis=(1, 2)) / g
    # a ||gram|| that is not finite is the residual
    worst, worst_n, non_finite = peak(np.where(np.isfinite(g), rel, g))
    return {"passed": worst < cfg.tol, "max_relative_error": worst,
            "worst_n": worst_n, "non_finite": non_finite,
            "max_abs_log_ratio": seq.max_abs_log_ratio(),
            **seq.quadrature_summary()}


def _check_recurrence(seq, cfg):
    res = seq.three_term_table(cfg.n_max - 1)[3] if cfg.n_max > 1 else []
    worst, worst_n, non_finite = peak(res, 1)
    return {"passed": worst < cfg.tol,
            "max_relative_residual": worst, "worst_n": worst_n,
            "non_finite": non_finite,
            "max_abs_log_ratio": seq.max_abs_log_ratio(),
            **seq.quadrature_summary()}


def _check_eigen(seq, cfg):
    D, lam = build_bispectral_operator(seq.weight)
    rep = eigencheck(seq, D, lam, cfg.n_max)
    return {"passed": rep["max_scaled_residual"] < cfg.tol,
            "max_scaled_residual": rep["max_scaled_residual"],
            "worst_n": rep["worst_n"], "non_finite": rep["non_finite"],
            "max_abs_log_ratio": seq.max_abs_log_ratio()}


def _match(table, seq, cfg):
    """The report of the first row (name, relation, run) of ``table`` whose
    relation holds for the weight (returns None); when none does, the
    check is skipped and its reason names each row's unmet relation."""
    misses = []
    for name, relation, check in table:
        miss = relation(seq.weight)
        if miss is None:
            return check(seq, cfg)
        misses.append(f"{name}: {miss}")
    raise Unsupported("; ".join(misses))


def _darboux_chain(seq, cfg):
    n_hi = min(cfg.n_max, 10)
    _, d1_tilde = dx.laguerre_chain(seq.weight.scalars[0].alpha,
                                    seq.weight.a_params)
    worst, worst_n, non_finite = peak(identity_residual(
        seq.p_block(0, n_hi + 1), d1_tilde, seq.qt_block(0, n_hi + 1)))
    return {"passed": worst < 1e-10, "kind": "laguerre_chain",
            "max_relative_residual": worst, "worst_n": worst_n,
            "non_finite": non_finite, "max_degree": n_hi}


def _darboux_hermite(seq, cfg):
    n_hi = min(cfg.n_max, 10)
    _, D1, _, _ = dx.hermite_A_factorization(seq.weight)
    rep = dx.darboux_verify(seq.p_block(0, n_hi + 1), D1, seq, n_hi,
                            tol=cfg.tol)
    return {"passed": rep.passed, "kind": "hermite_A_factorization",
            "worst_residual": rep.worst_residual, "worst_n": rep.worst_n,
            "non_finite": rep.non_finite, "singular_ns": rep.singular_ns,
            "max_degree": n_hi}


def _check_det(seq, cfg):
    # every degree at once, on both backends: det K_n = d 2^e, the
    # continuant of rho_n (``leading_det``), against the det of the reduced
    # matrix, which reads the log ratios instead; one call each
    ns = np.arange(1, cfg.n_max + 1)
    M = seq.reduced_leading_matrix(ns)
    d, e = seq.leading_det(ns)
    # a det past the float range reads inf or nan, silently: d 2^e is inf
    # from e = 1024 on, and 2^e is not formed there
    with np.errstate(over="ignore", invalid="ignore"):
        fast = np.where(e < 1024, np.ldexp(d, np.where(e < 1024, e, 0)),
                        np.inf)
        brute = np.linalg.det(M).real
        res = np.abs(fast - brute) / np.maximum(np.abs(brute), 1e-300)
    # else compare d 2^e with the sign and log |det| of M
    bad = np.flatnonzero(~(np.isfinite(brute) & np.isfinite(fast)))
    for i in bad:
        sign, logdet = np.linalg.slogdet(M[i])
        res[i] = abs(d[i] / sign * math.exp(e[i] * math.log(2) - logdet) - 1)
    worst, worst_n, non_finite = peak(res, 1)
    return {"passed": worst < 1e-10, "max_relative_error": worst,
            "worst_n": worst_n, "non_finite": non_finite,
            "max_abs_log_ratio": seq.max_abs_log_ratio()}


def _matrix(M):
    """M as nested lists: of numbers when M is real, of [re, im] pairs when
    it is complex (a complex a)."""
    if np.isrealobj(M):
        return M.tolist()
    return np.stack([M.real, M.imag], axis=-1).tolist()


def _reduce_2x2(seq, cfg):
    got = irr.try_reduce_2x2(seq.weight)
    if got is None:
        return {"passed": True, "reducible": False,
                "note": "no scalar-sum reduction: "
                        + irr.jacobi_pair_relation(seq.weight)}
    b, c, M, desc = got
    return {"passed": True, "reducible": True, "b": b, "c": c,
            "M": _matrix(M), "description": desc}


def _reduce_3x3(seq, cfg):
    M, desc = irr.try_reduce_3x3_w1w3(seq.weight)
    return {"passed": True, "reducible": True,
            "M": _matrix(M), "description": desc}


def _check_symmetries(seq, cfg):
    space = irr.order_zero_symmetries(seq.weight)
    return {"passed": True, "dimension": space.dimension,
            "reducible_at_order_zero": space.reducible_at_order_zero,
            "validation_residual": space.validation_residual,
            "sample_points": len(space.sample_points),
            "generators": space.generators,
            "unknowns": len(space.singular_values),
            "null_gap": space.null_gap}


# the templates of ``darboux`` and ``reduce``, each row (name, relation,
# run) with the relation read off the slots' parameters (see ``_match``)
_DARBOUX = (("laguerre_chain", dx.chain_relation, _darboux_chain),
            ("hermite_A_factorization", dx.hermite_relation,
             _darboux_hermite))
_REDUCE = (("2x2 scalar sum", irr.pair_relation, _reduce_2x2),
           ("3x3 w1 = w3", irr.w1w3_relation, _reduce_3x3))

_CHECKS = {"orth": _check_orth, "norm": _check_norm,
           "recurrence": _check_recurrence, "eigen": _check_eigen,
           "darboux": partial(_match, _DARBOUX), "det": _check_det,
           "reduce": partial(_match, _REDUCE), "symmetries": _check_symmetries}


def run(cfg: RunConfig, csv_dir=None) -> dict:
    """Execute the requested checks in order and assemble the report
    dict."""
    t0 = time.perf_counter()
    if csv_dir:     # an unusable directory fails before any check runs
        os.makedirs(csv_dir, exist_ok=True)
    seq = MVOPSequence(cfg.spec, cfg.n_max, backend=cfg.backend)
    checks = {}
    for name in cfg.checks:
        t = time.perf_counter()
        try:
            res = _CHECKS[name](seq, cfg)
        except Unsupported as exc:
            res = {"passed": True, "status": "skipped", "reason": str(exc)}
        except MvopError as exc:
            res = {"passed": False, "status": "error",
                   "error": f"{type(exc).__name__}: {exc}"}
        res["wall_time_s"] = time.perf_counter() - t
        checks[name] = res

    if csv_dir:
        Q = seq.q_block(0, cfg.n_max + 1)
        for n in range(cfg.n_max + 1):
            MatrixPolynomial(Q[n, :n + 1], size=cfg.spec.N,
                             trim=False).dump_csv(
                os.path.join(csv_dir, f"Q_{n}.csv"))

    return {"config": cfg.to_json(),
            "checks": checks,
            "wall_time_s": time.perf_counter() - t0,
            "passed": all(r.get("passed", False) for r in checks.values())}


def _finite(value):
    """``value`` (a report) with every non-finite float written as None, so
    that it dumps as strict JSON: the check's ``non_finite`` field already
    says where its headline residual is not a number."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _exit(code: int, message: str):
    """End ``mvop run`` with one line on stderr."""
    print(message, file=sys.stderr)
    raise SystemExit(code)


def _run_cmd(config_path, out_path, csv_dir, nmax, tol):
    """``mvop run``: the checks of one JSON config, a status line each."""
    out_dir = os.path.dirname(out_path or "")
    if out_dir and not os.path.isdir(out_dir):
        _exit(2, f"io error: no directory {out_dir!r} for --out")
    try:
        with open(config_path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        # a missing --config or a directory lands here too
        _exit(2, f"config error: {exc}")
    if isinstance(data, dict):      # the overrides go through validation
        data.update({k: v for k, v in (("n_max", nmax), ("tol", tol))
                     if v is not None})
    try:
        report = run(config_from_json(data), csv_dir=csv_dir)
    except ConfigError as exc:
        _exit(2, f"config error: {exc}")
    except MvopError as exc:
        _exit(1, f"check error: {exc}")
    except OSError as exc:          # --csv-dir could not be made or written
        _exit(2, f"io error: {exc}")

    for name, res in report["checks"].items():
        status = ("SKIP" if res.get("status") == "skipped"
                  else "PASS" if res["passed"] else "FAIL")
        detail = {k: v for k, v in res.items()
                  if isinstance(v, (int, float, str)) and k != "passed"}
        print(f"{name:12s} {status}  {detail}")
    print(f"overall: {'PASS' if report['passed'] else 'FAIL'} "
          f"({report['wall_time_s']:.2f} s)")
    if out_path:
        try:
            with open(out_path, "w") as fh:
                json.dump(_finite(report), fh, indent=2, default=str,
                          allow_nan=False)
        except OSError as exc:
            _exit(2, f"io error: {exc}")
    raise SystemExit(0 if report["passed"] else 1)


def main(argv=None):
    """The ``mvop`` console script, subcommands ``run`` and ``schema``;
    always ends in ``SystemExit``, with 2 for a usage error."""
    import argparse     # the shell only: a check run never parses options

    def not_a(test, what):
        """A path option refused at parse time when ``test`` holds."""
        def check(path):
            if test(path):
                raise argparse.ArgumentTypeError(f"{path!r} is {what}")
            return path
        return check

    ap = argparse.ArgumentParser(
        prog="mvop", description="Matrix-valued orthogonal polynomial "
                                 "construction and verification.")
    sub = ap.add_subparsers(dest="command", required=True)
    rp = sub.add_parser("run", help="run the checks requested in a JSON "
                                    "config")
    rp.add_argument("--config", required=True)
    rp.add_argument("--out", type=not_a(os.path.isdir, "a directory"))
    rp.add_argument("--csv-dir", type=not_a(os.path.isfile, "a file"))
    rp.add_argument("--nmax", type=int, help="override n_max from the config")
    rp.add_argument("--tol", type=float, help="override tol from the config")
    sub.add_parser("schema", help="print the JSON schema of run configs")
    args = ap.parse_args(argv)
    if args.command == "schema":
        print(json.dumps(SCHEMA, indent=2))
        raise SystemExit(0)
    _run_cmd(args.config, args.out, args.csv_dir, args.nmax, args.tol)


if __name__ == "__main__":
    main()
