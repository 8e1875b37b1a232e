"""Benchmark driver for `mvop run`.

    python3 perfbench/run.py --workload W|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed.  The driver generates the workload's
configs from the seed (``generate.py``), times several fresh set-up
processes, and runs the workload in one more fresh process
(``worker.py``).  It checks every verdict, prints the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``),
and ends with one JSON line: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``--workload all`` does this for every workload in turn.

The four workloads of ``generate.WORKLOADS`` pass every check today.  The
``known-defects`` workload holds configs that fail because of known defects
of the program; it reports them (``correct`` false) and is run by name
only.

End-to-end metrics:

- ``setup_s``: median over fresh processes of start, ``import mvop`` and
  the warm-up config;
- ``wall_serial_s``: median time of one pass over the workload's configs
  with ``MVOP_THREADS=1``.  Passes with the default check pool are timed on
  ``known-defects`` only: the pool races on a shared polynomial cache and
  sometimes gives wrong results on the operator and exact workloads;
- ``peak_rss_mb``: peak resident set of the workload process after the
  warm-up and its first pass;
- ``check_pass_frac``: passed over attempted checks (one attempt per check
  of each config in each pair of passes);
- ``accuracy_digits``: minimum over passed attempts of -log10 of the
  check's headline residual (capped at machine epsilon).

Times are scaled to a fixed speed of a reference kernel timed in the same
process (``REF_NOMINAL_S``): on a shared 2-core VM the CPU speed swings by
up to 2x within seconds.  The scaling removes most of that from
interpreter-bound passes; it helps SVD-bound passes less, but keeps every
time on one scale.

A check attempt fails when its verdict fails, when ``run()`` raised for its
config, when its headline residual is not a number, when a symmetry
dimension differs from the one the weight structure fixes, or when the two
passes of a pair (serial/serial, pooled/serial or untraced/traced)
disagree.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from generate import DIAGNOSTIC, WORKLOADS, generate  # noqa: E402

#: fresh set-up processes timed per run; setup_s is their median
SETUP_RUNS = 5
#: reference-kernel time (worker.make_reference) that times are scaled to:
#: raw time * REF_NOMINAL_S / reference time measured alongside it
REF_NOMINAL_S = 0.005
#: a workload whose processes take longer than this in total is abandoned
WORKLOAD_TIMEOUT_S = 170
SPANS_DIR = os.path.join(ROOT, ".perfbench_out")

END_TO_END = {
    "setup_s": "s",
    "wall_serial_s": "s",
    "peak_rss_mb": "MB",
    "check_pass_frac": "ratio",
    "accuracy_digits": "digits",
}

_TIMED = ("scalar_families.gauss_rule", "scalar_families.recurrence_coefficients",
          "scalar_families.polynomial", "weight_model.weight_eval",
          "mvop_core.gram_qt", "mvop_core.verify_orthogonality",
          "mvop_core.three_term_coefficients", "mvop_core.init",
          "mvop_core.build_Q", "mvop_core.build_QT", "matrix_poly.mul",
          "matrix_poly.left_mul", "matrix_poly.max_coeff_norm",
          "diff_operators.op_apply", "diff_operators.op_compose",
          "diff_operators.eigencheck", "darboux.darboux_verify",
          "darboux.builtin_n5_laguerre",
          "irreducibility.order_zero_symmetries", "cli.run")
_COUNTED = ("scalar_families.gauss_rule", "scalar_families.recurrence_coefficients",
            "scalar_families.polynomial", "weight_model.rule",
            "weight_model.weight_eval", "mvop_core.gram_qt",
            "mvop_core.build_Q", "mvop_core.build_QT", "matrix_poly.mul",
            "diff_operators.op_apply", "irreducibility.order_zero_symmetries")
CHECK_NAMES = ("orth", "norm", "recurrence", "eigen", "darboux", "det",
               "reduce", "symmetries")

PER_LAYER = {}
for _name in _COUNTED:
    PER_LAYER[f"{_name}.calls"] = "count"
for _name in _TIMED:
    PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER["scalar_families.gauss_rule.nodes"] = "count"
PER_LAYER["weight_model.rule.hit_ratio"] = "ratio"
PER_LAYER["irreducibility.order_zero_symmetries.rows"] = "count"
for _name in CHECK_NAMES:
    PER_LAYER[f"cli.check.{_name}.s"] = "s"
PER_LAYER["cli.check_wait_s"] = "s"
PER_LAYER["trace.overhead_frac"] = "ratio"


def worker_env():
    """Environment for every worker: the package from src/, BLAS held to
    one thread so that the check pool alone sets the thread count, a fixed
    hash seed so that sympy's term order repeats between processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("MVOP_THREADS", None)
    return env


def start_worker(args, env, deadline):
    return subprocess.run([sys.executable, os.path.join(HERE, "worker.py")]
                          + args, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(deadline - time.monotonic(), 1.0),
                          check=True, text=True)


def time_setup(env, deadline):
    """Spawn-to-exit time of one set-up process, less its reference-kernel
    runs, scaled by the reference speed it measured."""
    t0 = time.perf_counter()
    proc = start_worker(["setup"], env, deadline)
    wall = time.perf_counter() - t0
    ref = json.loads(proc.stdout.strip().splitlines()[-1])
    return (wall - ref["ref_total_s"]) * REF_NOMINAL_S / ref["ref_s"]


def _same(x, y):
    if x is None or y is None:
        return x is y
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return math.isclose(x, y, rel_tol=1e-9, abs_tol=0.0)


def judge(case, pair):
    """Failure reasons per check of one case over a pair of passes, each
    given as (kind, result)."""
    checks = case["config"]["checks"]
    reasons = {c: [] for c in checks}
    (_, first), (_, second) = pair
    for tag, res in pair:
        if "crash" in res:
            for c in checks:
                reasons[c].append(f"{tag}: run() raised {res['crash']}")
            continue
        for c in checks:
            r = res[c]
            if not r["passed"]:
                reasons[c].append(f"{tag}: verdict FAIL"
                                  + (f" ({r['error']})" if "error" in r else "")
                                  + (f" residual {r['residual']:.3g}"
                                     if "residual" in r else ""))
            if "invalid" in r:
                reasons[c].append(f"{tag}: {r['invalid']}")
            want = case["expect"].get("symmetry_dimension")
            if c == "symmetries" and want is not None \
                    and r.get("dimension") != want:
                reasons[c].append(f"{tag}: dimension {r.get('dimension')} "
                                  f"!= {want}")
    if "crash" in first or "crash" in second:
        if first.get("crash", "").split(" at ")[0] != \
                second.get("crash", "").split(" at ")[0]:
            for c in checks:
                reasons[c].append(f"{pair[0][0]} and {pair[1][0]} "
                                  "disagree on the crash")
        return reasons
    for c in checks:
        a, b = first[c], second[c]
        if (a["passed"] != b["passed"] or a["status"] != b["status"]
                or a.get("dimension") != b.get("dimension")
                or not _same(a.get("residual"), b.get("residual"))):
            reasons[c].append(f"{pair[0][0]} and {pair[1][0]} disagree: "
                              f"{a} vs {b}")
    return reasons


def pairs(count):
    """Index pairs of passes that are compared: (0, 1), (2, 3), ..., and
    the last two passes again when the count is odd."""
    out = [(i, i + 1) for i in range(0, count - 1, 2)]
    if count % 2:
        out.append((count - 2, count - 1))
    return out


def score(cases, passes):
    """attempted, failed, min accuracy digits and failure lines."""
    attempted = failed = 0
    digits = []
    lines = []
    for n, (i, j) in enumerate(pairs(len(passes))):
        first, second = passes[i], passes[j]
        for k, case in enumerate(cases):
            reasons = judge(case, ((first["kind"], first["results"][k]),
                                   (second["kind"], second["results"][k])))
            for check, why in reasons.items():
                attempted += 1
                if why:
                    failed += 1
                    lines.append(f"FAIL pair {n} {case['name']}.{check}: "
                                 + "; ".join(why))
                    continue
                for res in (first["results"][k], second["results"][k]):
                    r = res[check].get("residual")
                    if r is not None and math.isfinite(r):
                        digits.append(-math.log10(max(r, sys.float_info.epsilon)))
    return attempted, failed, (min(digits) if digits else 0.0), lines


def describe(cases, passes):
    """One line per case from the first pass: verdicts and residuals."""
    out = []
    for case, res in zip(cases, passes[0]["results"]):
        if "crash" in res:
            out.append(f"{case['name']:20s} CRASH {res['crash']}")
            continue
        parts = []
        for c, r in res.items():
            tag = ("SKIP" if r["status"] == "skipped"
                   else "PASS" if r["passed"] else "FAIL")
            extra = (f" {r['residual']:.2e}" if "residual" in r else "") + \
                    (f" dim={r['dimension']}" if "dimension" in r else "")
            parts.append(f"{c}={tag}{extra}")
        out.append(f"{case['name']:20s} " + "  ".join(parts))
    return out


def run_workload(workload, seed, seconds, trace):
    """Run one workload in fresh processes, print its report and result
    line; False when a worker failed (nothing is printed then)."""
    cases = generate(workload, seed)
    env = worker_env()
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    wargs = ["--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds)]
    try:
        if trace:
            os.makedirs(SPANS_DIR, exist_ok=True)
            spans = os.path.join(SPANS_DIR, f"spans-{workload}.jsonl")
            proc = start_worker(["trace"] + wargs + ["--spans", spans], env,
                                deadline)
        else:
            setups = [time_setup(env, deadline) for _ in range(SETUP_RUNS)]
            proc = start_worker(["measure"] + wargs, env, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return False
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    passes = data["passes"]

    attempted, failed, digits, fail_lines = score(cases, passes)
    print(f"workload {workload} seed {seed}: {len(cases)} configs, "
          f"{len(passes)} passes")
    pool = (f"check pool {data['pool_workers']} workers in pooled passes"
            if any(p["kind"] == "pooled" for p in passes)
            else "no check pool (MVOP_THREADS=1)")
    print(f"threads: {pool} (nproc {os.cpu_count()}), OpenBLAS "
          f"{data['blas_threads']}, one worker process at a time")
    for line in describe(cases, passes) + fail_lines:
        print(line)

    walls = {}
    for p in passes:
        walls.setdefault(p["kind"], []).append(p["ref_units"] * REF_NOMINAL_S)
        print(f"{p['kind']:8s} pass: {p['wall_s']:.3f} s raw, reference "
              f"{p['ref_s'] * 1e3:.2f} ms, {walls[p['kind']][-1]:.3f} s scaled")
    if trace:
        values = {name: statistics.median(layer[name] for layer in data["layers"])
                  for name in PER_LAYER if name != "trace.overhead_frac"}
        values["trace.overhead_frac"] = (statistics.median(walls["traced"])
                                         / statistics.median(walls["untraced"])
                                         - 1.0)
        units = PER_LAYER
        print(f"spans of the last traced pass: {os.path.relpath(spans, ROOT)}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_serial_s": statistics.median(walls["serial"]),
            "peak_rss_mb": data["peak_rss_mb"],
            "check_pass_frac": (attempted - failed) / attempted,
            "accuracy_digits": digits,
        }
        units = END_TO_END
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return True


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + DIAGNOSTIC + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mvop", "__init__.py")):
        print(f"error: no mvop sources under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        if not run_workload(workload, args.seed, args.seconds, args.trace):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
