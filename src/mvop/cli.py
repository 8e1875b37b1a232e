"""Batch front door: JSON config in, verification report out.

``mvop run --config cfg.json`` builds the weight, runs the requested
checks and prints one status line per check; ``mvop schema`` prints the
config schema.  Exit codes: 0 all pass, 1 a check failed, 2 bad config
or I/O.
"""

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import click
import numpy as np
import sympy as sp

from . import darboux as dx
from . import irreducibility as irr
from . import scalar_families as sf
from .diff_operators import build_bispectral_operator, eigencheck, op_apply
from .errors import ConfigError, MvopError, Unsupported
from .matrix_poly import MatrixPolynomial
from .mvop_core import MVOPSequence, continuant, peak
from .weight_model import WeightSpec, weight_spec

CHECK_NAMES = ("orth", "norm", "recurrence", "eigen", "darboux",
               "det", "reduce", "symmetries")

#: checks that read the sequence's Gram block and node tables
GRAM_CHECKS = ("orth", "norm", "recurrence")

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
    raw: dict = field(default_factory=dict)

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
        return {"size": self.spec.N, "a": list(self.spec.a_params),
                "weights": ws, "backend": self.backend, "n_max": self.n_max,
                "tol": self.tol, "checks": list(self.checks)}


def _scalar_from_json(d: dict):
    fam = d.get("family")
    scale = float(d.get("scale", 1.0))
    try:
        if fam == "hermite":
            return sf.hermite(float(d.get("b", 0.0)), scale=scale)
        if fam == "laguerre":
            return sf.laguerre(float(d["alpha"]), scale=scale)
        if fam == "jacobi":
            return sf.jacobi(float(d["alpha"]), float(d["beta"]), scale=scale)
        if fam == "custom":
            return sf.custom(d["moments"], d["support"])
    except (KeyError, MvopError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scalar weight entry {d}: {exc}") from exc
    raise ConfigError(f"unknown weight family {fam!r}")


def config_from_json(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("size", "a", "weights"):
        if key not in data:
            raise ConfigError(f"missing config field {key!r}")
    scalars = [_scalar_from_json(w) for w in data["weights"]]
    if len(scalars) != data["size"]:
        raise ConfigError("size does not match the number of weights")
    try:
        spec = weight_spec(data["a"], scalars)
    except MvopError as exc:
        raise ConfigError(str(exc)) from exc
    backend = data.get("backend", "float")
    if backend not in ("float", "exact"):
        raise ConfigError(f"unknown backend {backend!r}")
    checks = tuple(data.get("checks", ["orth", "norm"]))
    for c in checks:
        if c not in CHECK_NAMES:
            raise ConfigError(f"unknown check {c!r}")
    n_max = int(data.get("n_max", 10))
    tol = float(data.get("tol", 1e-9))
    if n_max < 1 or tol <= 0:
        raise ConfigError("need n_max >= 1 and tol > 0")
    return RunConfig(spec=spec, backend=backend, n_max=n_max, tol=tol,
                     checks=checks, raw=dict(data))


# -- individual checks -----------------------------------------------------

# A non-finite residual is reported as the peak (see ``peak``), so every
# ``worst < tol`` verdict below fails on it, and ``non_finite`` says so.

def _check_orth(seq, cfg):
    rep = seq.verify_orthogonality(cfg.n_max, cfg.tol)
    return {"passed": rep["passed"],
            "max_scaled_residual": rep["max_scaled_residual"],
            "worst_pair": rep["worst_pair"],
            "non_finite": rep["non_finite"], **seq.quadrature_summary()}


def _check_norm(seq, cfg):
    residuals = {}
    for n in range(cfg.n_max + 1):
        # both sides divided by sigma_n^2, so neither can overflow
        closed = seq._norm_Q(n)
        gram = seq.gram_qt(n, n, scaled=True)
        residuals[n] = np.linalg.norm(gram - closed) / np.linalg.norm(gram)
    worst, worst_n, non_finite = peak(residuals)
    return {"passed": worst < cfg.tol, "max_relative_error": worst,
            "worst_n": worst_n, "non_finite": non_finite,
            **seq.quadrature_summary()}


def _check_recurrence(seq, cfg):
    residuals = {n: seq.three_term_coefficients(n)[3]
                 for n in range(1, cfg.n_max)}
    worst, worst_n, non_finite = peak(residuals)
    return {"passed": worst < cfg.tol,
            "max_relative_residual": worst, "worst_n": worst_n,
            "non_finite": non_finite, **seq.quadrature_summary()}


def _check_eigen(seq, cfg):
    D, lam = build_bispectral_operator(seq.weight)
    rep = eigencheck(seq, D, lam, cfg.n_max)
    return {"passed": rep["max_scaled_residual"] < cfg.tol,
            "max_scaled_residual": rep["max_scaled_residual"],
            "worst_n": rep["worst_n"], "non_finite": rep["non_finite"]}


def _is_n5_laguerre_chain(spec):
    s = spec.scalars
    if spec.N != 5 or any(w.family != sf.LAGUERRE for w in s):
        return False
    a = s[0].alpha
    return ([w.alpha for w in s] == [a, a, a + 1, a + 1, a + 2]
            and all(w.scale == 1.0 for w in s))


def _check_darboux(seq, cfg):
    spec = seq.weight
    n_hi = min(cfg.n_max, 10)
    if _is_n5_laguerre_chain(spec):
        _, d1_tilde, _ = dx.builtin_n5_laguerre(spec.scalars[0].alpha,
                                                spec.a_params)
        lhs = op_apply(seq.p_block(0, n_hi + 1), d1_tilde)
        rhs = seq.qt_block(0, n_hi + 1)
        scale = np.abs(rhs).max(axis=(1, 2, 3))
        lhs[:, :rhs.shape[1]] -= rhs
        worst = float(np.max(np.abs(lhs).max(axis=(1, 2, 3)) / scale))
        return {"passed": worst < 1e-10, "kind": "laguerre_n5_chain",
                "max_relative_residual": worst}
    try:
        _, D1, _, _ = dx.hermite_A_factorization(spec)
    except Unsupported:
        return {"passed": True, "status": "skipped",
                "reason": "no Darboux template for this weight"}
    rep = dx.darboux_verify(seq.p_block(0, n_hi + 1), D1, seq, n_hi,
                            tol=cfg.tol)
    return {"passed": rep.passed, "kind": "hermite_A_factorization",
            "worst_residual": rep.worst_residual,
            "singular_ns": rep.singular_ns}


def _check_det(seq, cfg):
    residuals = {}
    for n in range(1, cfg.n_max + 1):
        fast = continuant(seq.rho_values(n))
        if seq.exact:       # Beta-function ratios can stay unevaluated
            fast = complex(sp.N(fast))
        brute = np.linalg.det(seq.reduced_leading_matrix(n)).real
        residuals[n] = abs(fast - brute) / max(abs(brute), 1e-300)
    worst, worst_n, non_finite = peak(residuals)
    return {"passed": worst < 1e-10, "max_relative_error": worst,
            "worst_n": worst_n, "non_finite": non_finite}


def _check_reduce(seq, cfg):
    spec = seq.weight
    if spec.N == 2:
        got = irr.try_reduce_2x2(spec)
        if got is None:
            return {"passed": True, "reducible": False,
                    "note": "no scalar-sum reduction detected"}
        b, c, M, desc = got
        return {"passed": True, "reducible": True, "b": b, "c": c,
                "M": [[v for v in row] for row in M.tolist()],
                "description": desc}
    if spec.N == 3 and spec.scalars[0] == spec.scalars[2]:
        M, desc = irr.try_reduce_3x3_w1w3(spec)
        return {"passed": True, "reducible": True,
                "M": [[v for v in row] for row in M.tolist()],
                "description": desc}
    return {"passed": True, "status": "skipped",
            "reason": "no reduction template for this size"}


def _check_symmetries(seq, cfg):
    space = irr.order_zero_symmetries(seq.weight)
    return {"passed": True, "dimension": space.dimension,
            "reducible_at_order_zero": space.reducible_at_order_zero,
            "validation_residual": space.validation_residual,
            "sample_points": len(space.sample_points),
            "null_gap": space.null_gap}


_CHECKS = {"orth": _check_orth, "norm": _check_norm,
           "recurrence": _check_recurrence, "eigen": _check_eigen,
           "darboux": _check_darboux, "det": _check_det,
           "reduce": _check_reduce, "symmetries": _check_symmetries}


def run(cfg: RunConfig, csv_dir=None) -> dict:
    """Execute the requested checks and assemble the report dict."""
    t0 = time.perf_counter()
    seq = MVOPSequence(cfg.spec, cfg.n_max + 1, backend=cfg.backend)
    if any(c in GRAM_CHECKS for c in cfg.checks):
        # built once here, so checks in the pool only read it
        try:
            seq.gram_data()
        except MvopError:
            pass        # each Gram check meets the error again and reports it

    def one(name):
        t = time.perf_counter()
        try:
            res = _CHECKS[name](seq, cfg)
        except Unsupported as exc:
            res = {"passed": True, "status": "skipped", "reason": str(exc)}
        except MvopError as exc:
            res = {"passed": False, "status": "error",
                   "error": f"{type(exc).__name__}: {exc}"}
        res["wall_time_s"] = time.perf_counter() - t
        return name, res

    workers = int(os.environ.get("MVOP_THREADS", "0")) or min(
        len(cfg.checks) or 1, os.cpu_count() or 1)
    if workers > 1 and len(cfg.checks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = dict(pool.map(one, cfg.checks))
    else:
        results = dict(one(c) for c in cfg.checks)

    if csv_dir:
        os.makedirs(csv_dir, exist_ok=True)
        Q = seq.q_block(0, cfg.n_max + 1)
        for n in range(cfg.n_max + 1):
            MatrixPolynomial(list(Q[n, :n + 1]), size=cfg.spec.N,
                             trim=False).dump_csv(
                os.path.join(csv_dir, f"Q_{n}.csv"))

    ordered = {c: results[c] for c in cfg.checks}
    return {"config": cfg.to_json(),
            "checks": ordered,
            "wall_time_s": time.perf_counter() - t0,
            "passed": all(r.get("passed", False) for r in ordered.values())}


@click.group()
def main():
    """Matrix-valued orthogonal polynomial construction and verification."""


@main.command("run")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", type=click.Path(dir_okay=False))
@click.option("--csv-dir", type=click.Path(file_okay=False))
@click.option("--nmax", type=int, help="override n_max from the config")
@click.option("--tol", type=float, help="override tol from the config")
def run_cmd(config_path, out_path, csv_dir, nmax, tol):
    """Run the checks requested in a JSON config."""
    try:
        with open(config_path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        click.echo(f"config error: {exc}", err=True)
        raise SystemExit(2)
    try:
        cfg = config_from_json(data)
        if nmax is not None:
            cfg.n_max = nmax
        if tol is not None:
            cfg.tol = tol
        report = run(cfg, csv_dir=csv_dir)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        raise SystemExit(2)
    except MvopError as exc:
        click.echo(f"check error: {exc}", err=True)
        raise SystemExit(1)

    for name, res in report["checks"].items():
        status = ("SKIP" if res.get("status") == "skipped"
                  else "PASS" if res["passed"] else "FAIL")
        detail = {k: v for k, v in res.items()
                  if isinstance(v, (int, float, str)) and k != "passed"}
        click.echo(f"{name:12s} {status}  {detail}")
    click.echo(f"overall: {'PASS' if report['passed'] else 'FAIL'} "
               f"({report['wall_time_s']:.2f} s)")
    if out_path:
        try:
            with open(out_path, "w") as fh:
                json.dump(report, fh, indent=2, default=str)
        except OSError as exc:
            click.echo(f"io error: {exc}", err=True)
            raise SystemExit(2)
    raise SystemExit(0 if report["passed"] else 1)


@main.command("schema")
def schema_cmd():
    """Print the JSON schema of run configs."""
    click.echo(json.dumps(SCHEMA, indent=2))


if __name__ == "__main__":
    main()
