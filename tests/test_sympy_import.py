"""sympy and mpmath stay unloaded by float runs, and sympy by exact checks.

Every other test module imports sympy itself, so these tests run their
code in fresh interpreters and read the outcome from one JSON line.
"""

import json
import os
import subprocess
import sys

import mvop

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mvop.__file__)))

#: float configs, runs and library calls that must leave sympy and mpmath
#: unloaded
FLOAT_SCRIPT = r"""
import json, sys
import mvop
import mvop.cli as cli
from click.testing import CliRunner
from mvop import darboux as dx

ALL = list(cli.CHECK_NAMES)
lag2 = {"size": 2, "a": [2.0],
        "weights": [{"family": "laguerre", "alpha": 0.0},
                    {"family": "laguerre", "alpha": 0.5}],
        "n_max": 8, "checks": ALL}
chain5 = {"size": 5, "a": [1.0, -0.5, 1.5, 0.75],
          "weights": [{"family": "laguerre", "alpha": al}
                      for al in (0.5, 0.5, 1.5, 1.5, 2.5)],
          "n_max": 8, "checks": ALL}
her3 = {"size": 3, "a": [1.0, 0.5], "weights": [{"family": "hermite"}] * 3,
        "n_max": 8, "checks": ALL}
out = {}
for name, cfg in (("lag2", lag2), ("chain5", chain5), ("her3", her3)):
    out[name] = cli.run(cli.config_from_json(cfg))["checks"]
out["ladders"] = [dx.ladder(k, 0.5).kind for k in dx.LADDER_KINDS]
tau, q = dx.synthesize_shift(0.5, 2, -1, r1=(1.0, 1.0))   # self-verifying
out["shift_q3"] = q(3)
out["schema_exit"] = CliRunner().invoke(cli.main, ["schema"]).exit_code
out["sympy_loaded"] = "sympy" in sys.modules
out["mpmath_loaded"] = "mpmath" in sys.modules
print(json.dumps(out, default=str))
"""

#: exact configs run in a fresh process: every check leaves sympy unloaded;
#: build_Q, a public sympy reader, then loads it, and the checks read the
#: same values before and after
EXACT_SCRIPT = r"""
import json, sys
import numpy as np
import mvop.cli as cli
from mvop.mvop_core import MVOPSequence

CHECKS = ["orth", "norm", "recurrence", "eigen", "darboux", "det", "reduce",
          "symmetries"]
configs = [
    {"size": 2, "a": [1.5],
     "weights": [{"family": "laguerre", "alpha": 0.0},
                 {"family": "laguerre", "alpha": 0.5}]},
    {"size": 3, "a": [1.0, -0.5], "weights": [{"family": "hermite"}] * 3},
    {"size": 3, "a": [1.0, 0.5],
     "weights": [{"family": "jacobi", "alpha": al, "beta": al}
                 for al in (1.5, 0.5, 1.5)]},
]


def reports():
    out = []
    for cfg in configs:
        cfg.update(backend="exact", n_max=5)
        checks = {}
        for name in CHECKS:     # one check at a time, sympy looked at after each
            cfg["checks"] = [name]
            res = cli.run(cli.config_from_json(cfg))["checks"][name]
            res.pop("wall_time_s")
            checks[name] = dict(res, sympy_loaded="sympy" in sys.modules)
        out.append(checks)
    return out


before = reports()
seq = MVOPSequence(cli.config_from_json(configs[0]).spec, 5, backend="exact")
rows = seq.q_block(0, 6)
unloaded = "sympy" not in sys.modules
Q2 = seq.build_Q(2)
rounded = np.array([[[complex(v) for v in row] for row in c]
                    for c in Q2.coeffs])
print(json.dumps({"before": before, "after": reports(),
                  "unloaded_before_build_Q": unloaded,
                  "loaded_by_build_Q": "sympy" in sys.modules,
                  "build_Q_rounds_to_q_block": bool(
                      np.allclose(rounded, rows[2, :3], rtol=1e-15, atol=0)),
                  "q_block_same": bool(np.array_equal(rows,
                                                      seq.q_block(0, 6)))},
                 default=str))
"""


def run_fresh(script):
    """stdout of ``script`` run by a new interpreter on this package, with
    a fixed hash seed so that sympy's term order repeats."""
    full = dict(os.environ, PYTHONHASHSEED="0")
    full["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, full.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", script], env=full,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_float_path_never_imports_sympy():
    out = run_fresh(FLOAT_SCRIPT)
    assert not out["sympy_loaded"]
    assert not out["mpmath_loaded"]
    for name in ("lag2", "chain5", "her3"):
        assert all(res["passed"] for res in out[name].values()), out[name]
    assert out["chain5"]["darboux"]["kind"] == "laguerre_n5_chain"
    assert out["her3"]["darboux"]["kind"] == "hermite_A_factorization"
    assert out["her3"]["reduce"]["reducible"]
    assert out["ladders"] == ["alpha_up", "alpha_down", "n_up", "n_down",
                              "eigen"]
    assert out["shift_q3"] != 0
    assert out["schema_exit"] == 0


def test_exact_checks_never_import_sympy():
    out = run_fresh(EXACT_SCRIPT)
    for checks in out["before"]:
        for name, res in checks.items():
            assert res["passed"], (name, res)
            assert not res["sympy_loaded"], name
    assert out["unloaded_before_build_Q"]
    assert out["loaded_by_build_Q"]
    assert out["build_Q_rounds_to_q_block"] and out["q_block_same"]
    # the same reports once sympy is loaded
    after = [{k: {kk: vv for kk, vv in v.items() if kk != "sympy_loaded"}
              for k, v in checks.items()} for checks in out["after"]]
    before = [{k: {kk: vv for kk, vv in v.items() if kk != "sympy_loaded"}
               for k, v in checks.items()} for checks in out["before"]]
    assert after == before
