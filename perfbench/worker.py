"""One fresh benchmark process.

    python3 worker.py setup
    python3 worker.py measure|trace --workload W --seed N --seconds S [--spans PATH]

Every mode imports mvop and finishes the warm-up config first.  ``setup``
then only times the reference kernel (below) and stops.  ``measure`` then
repeats pairs of passes over the workload's configs with ``MVOP_THREADS=1``;
on the ``known-defects`` workload each pair is one pass with the default
check pool and one with ``MVOP_THREADS=1``.  ``trace`` pairs an untraced
with a traced pass, both single-threaded so that call counts repeat
exactly.  Each pass calls ``config_from_json`` and ``run`` from
``mvop.cli``, the code behind ``mvop run``.  After the first two passes, a
new pass starts only while the previous pass's time still fits in
``--seconds``.  The result is one JSON line on stdout.

Before each config and after the last one, a pass also times a fixed
reference kernel that does not touch mvop.  ``run.py`` scales set-up and
pass times by it, so that the slow and fast spells of a shared CPU cancel
out.
"""

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time

from generate import DIAGNOSTIC, WARMUP, generate

#: result keys holding each check's headline residual, first match wins
HEADLINE = {
    "orth": ("max_scaled_residual",),
    "norm": ("max_relative_error",),
    "recurrence": ("max_relative_residual",),
    "eigen": ("max_scaled_residual",),
    "darboux": ("max_relative_residual", "worst_residual"),
    "det": ("max_relative_error",),
    "symmetries": ("validation_residual",),
}


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def make_reference():
    """A callable timing a fixed interpreter-plus-small-numpy kernel."""
    import numpy as np
    a = np.random.default_rng(0).standard_normal((24, 24))

    def reference_s():
        t0 = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i % 7
        for _ in range(80):
            np.linalg.solve(a, a @ a[0])
        return time.perf_counter() - t0
    return reference_s


def summarize(report):
    """Plain-JSON view of one run() report: verdict, residual, dimension."""
    out = {}
    for name, res in report["checks"].items():
        entry = {"status": res.get("status", "ok")}
        try:
            entry["passed"] = bool(res.get("passed", False))
        except TypeError:        # a sympy relation that cannot be decided
            entry["passed"] = False
            entry["invalid"] = f"undecidable verdict: {str(res['passed'])[:80]}"
        if "error" in res:
            entry["error"] = str(res["error"])
        for key in HEADLINE.get(name, ()):
            if key in res:
                try:
                    entry["residual"] = float(res[key])
                except TypeError:
                    entry["invalid"] = f"non-numeric {key}: {str(res[key])[:80]}"
                break
        if "dimension" in res:
            entry["dimension"] = int(res["dimension"])
        out[name] = entry
    return out


def run_pass(cli, cases, serial, reference_s):
    """One pass: its wall time, the mean reference time taken around its
    configs, its time in reference units (each config's time over the mean
    of the two reference times around it, summed), and the per-case reports
    (summarized after the clock stops)."""
    if serial:
        os.environ["MVOP_THREADS"] = "1"
    else:
        os.environ.pop("MVOP_THREADS", None)
    reports, refs, times = [], [reference_s()], []
    for case in cases:
        t0 = time.perf_counter()
        try:
            reports.append(cli.run(cli.config_from_json(case["config"])))
        except Exception as exc:  # counted against every check of the case
            tb = exc.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            where = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:" \
                    f"{tb.tb_lineno}"
            reports.append({"crash": f"{type(exc).__name__} at {where}: "
                                     f"{str(exc)[:120]}"})
        times.append(time.perf_counter() - t0)
        refs.append(reference_s())
    units = sum(t * 2 / (r0 + r1)
                for t, r0, r1 in zip(times, refs, refs[1:]))
    return (sum(times), sum(refs) / len(refs), units,
            [r if "crash" in r else summarize(r) for r in reports])


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure", "trace"))
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    from mvop import cli
    cli.run(cli.config_from_json(WARMUP))
    reference_s = make_reference()
    if args.mode == "setup":
        refs = [reference_s() for _ in range(3)]
        print(json.dumps({"ref_s": sum(refs) / len(refs),
                          "ref_total_s": sum(refs)}))
        return 0

    cases = generate(args.workload, args.seed)
    if args.mode == "measure":
        # the check pool shares each scalar sequence's unlocked polynomial
        # cache between threads and sometimes returns wrong results or
        # raises; it is timed and cross-checked only where failures are
        # expected
        kinds = ((("pooled", False), ("serial", True))
                 if args.workload in DIAGNOSTIC
                 else (("serial", True), ("serial", True)))
        tracer = None
    else:
        from tracing import Tracer, layer_metrics
        kinds = (("untraced", True), ("traced", True))
        tracer = Tracer()

    passes, layers = [], []
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        # kinds alternate as A B B A A B ..., so neither kind always runs
        # first in a pair
        i = len(passes)
        kind, serial = kinds[(i + i // 2) % 2]
        if kind == "traced":
            tracer.spans.clear()
            tracer.install()
            try:
                wall, ref, units, results = run_pass(cli, cases, serial,
                                                     reference_s)
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer.spans, cli.CHECK_NAMES))
        else:
            wall, ref, units, results = run_pass(cli, cases, serial,
                                                 reference_s)
        passes.append({"kind": kind, "wall_s": wall, "ref_s": ref,
                       "ref_units": units, "results": results})
        if len(passes) == 1:
            # later passes add only allocator retention, which varies
            # from run to run
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        now = time.perf_counter()
        if len(passes) >= 2 and now - start + (now - t_pass) > args.seconds:
            break

    if tracer is not None and args.spans:
        tracer.write(args.spans)
    max_checks = max(len(case["config"]["checks"]) for case in cases)
    print(json.dumps({
        "passes": passes,
        "layers": layers,
        "peak_rss_mb": peak_rss_mb,
        "blas_threads": blas_threads(),
        # the same default cli.run uses when MVOP_THREADS is unset
        "pool_workers": min(max_checks, os.cpu_count() or 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
