"""Self-tests of the benchmark: generator, tracer and metric names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import generate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def _structure(cases):
    return [(c["name"], c["config"]["size"], c["config"]["n_max"],
             c["config"]["checks"], c["config"].get("backend"),
             [w["family"] for w in c["config"]["weights"]], c["expect"])
            for c in cases]


def test_generator_is_deterministic_per_seed():
    for w in generate.WORKLOADS + generate.DIAGNOSTIC:
        assert generate.generate(w, 7) == generate.generate(w, 7)
        other = generate.generate(w, 8)
        assert other != generate.generate(w, 7)
        assert _structure(other) == _structure(generate.generate(w, 7))


def test_generated_configs_parse():
    from mvop.cli import config_from_json
    for w in generate.WORKLOADS + generate.DIAGNOSTIC:
        for case in generate.generate(w, 3):
            config_from_json(case["config"])


def _binding(owner, key):
    return owner[key] if isinstance(owner, dict) else owner.__dict__[key]


def test_tracer_wraps_reexports_and_restores_originals():
    from mvop import cli, darboux, diff_operators, irreducibility
    before = (cli.op_apply, darboux.op_apply, diff_operators.op_apply,
              irreducibility.weight_eval, dict(cli._CHECKS))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.op_apply is not before[0]
        assert cli.op_apply is darboux.op_apply is diff_operators.op_apply
        assert irreducibility.weight_eval is not before[3]
        patched = list(tracer._undo)
        cli.run(cli.config_from_json(generate.WARMUP))
    finally:
        tracer.uninstall()
    for owner, key, original in patched:
        assert _binding(owner, key) is original
    assert (cli.op_apply, darboux.op_apply, diff_operators.op_apply,
            irreducibility.weight_eval) == before[:4]
    assert cli._CHECKS == before[4]

    names = {s[0] for s in tracer.spans}
    assert {"cli.run", "diff_operators.op_apply", "weight_model.weight_eval",
            "cli.check.symmetries", "mvop_core.gram_qt"} <= names
    assert all(s[3] >= s[2] for s in tracer.spans)


def test_layer_metrics_cover_every_per_layer_name():
    from mvop import cli
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli.run(cli.config_from_json(generate.WARMUP))
    finally:
        tracer.uninstall()
    assert run.CHECK_NAMES == cli.CHECK_NAMES
    got = tracing.layer_metrics(tracer.spans, cli.CHECK_NAMES)
    want = set(run.PER_LAYER) - {"trace.overhead_frac"}
    assert want <= set(got)
    assert got["mvop_core.gram_qt.calls"] > 0
    assert 0.0 < got["weight_model.rule.hit_ratio"] < 1.0
    assert got["irreducibility.order_zero_symmetries.rows"] > 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(generate.WORKLOADS)
    assert spec["paths"] == [os.path.basename(HERE)]


def _ok(residual=1e-14):
    return {"passed": True, "status": "ok", "residual": residual}


def test_score_counts_crashes_mismatches_and_dimensions():
    case = {"name": "c", "config": {"checks": ["orth", "symmetries"]},
            "expect": {"symmetry_dimension": 2}}
    good = {"orth": _ok(), "symmetries": dict(_ok(), dimension=2)}
    wrong_dim = {"orth": _ok(), "symmetries": dict(_ok(), dimension=1)}
    moved = {"orth": _ok(2e-14), "symmetries": dict(_ok(), dimension=2)}
    crash = {"crash": "TypeError at x.py:1: boom"}

    def passes(a, b):
        return [{"kind": "pooled", "results": [a]},
                {"kind": "serial", "results": [b]}]

    assert run.score([case], passes(good, good))[:2] == (2, 0)
    assert run.score([case], passes(good, crash))[:2] == (2, 2)
    assert run.score([case], passes(good, wrong_dim))[:2] == (2, 1)
    assert run.score([case], passes(good, moved))[:2] == (2, 1)
    digits = run.score([case], passes(good, good))[2]
    assert abs(digits - 14.0) < 1e-9


def test_pairs_cover_every_pass():
    assert run.pairs(2) == [(0, 1)]
    assert run.pairs(3) == [(0, 1), (1, 2)]
    assert run.pairs(4) == [(0, 1), (2, 3)]


def test_summarize_flags_non_numeric_residuals():
    import sympy as sp
    report = {"checks": {"det": {"passed": True,
                                 "max_relative_error": sp.Symbol("x")}}}
    assert "invalid" in worker.summarize(report)["det"]
