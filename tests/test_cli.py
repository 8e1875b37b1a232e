"""Config parsing, the batch runner, and CLI exit codes."""

import json
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from mvop.cli import (_CHECKS, CHECK_NAMES, SCHEMA, config_from_json, main,
                      run)
from mvop.errors import ConfigError
from mvop.mvop_core import MVOPSequence, peak


def base_config(**over):
    cfg = {
        "size": 2,
        "a": [2.0],
        "weights": [{"family": "laguerre", "alpha": 0.0},
                    {"family": "laguerre", "alpha": 0.5}],
        "n_max": 6,
        "checks": ["orth", "norm", "recurrence", "eigen", "det"],
    }
    cfg.update(over)
    return cfg


class TestConfig:
    def test_round_trip(self):
        cfg = config_from_json(base_config())
        again = config_from_json(cfg.to_json())
        assert again.to_json() == cfg.to_json()

    def test_round_trip_with_scale_and_all_families(self):
        data = base_config(
            size=4, a=[1.0, -0.5, 2.0],
            weights=[{"family": "hermite", "b": 1.0},
                     {"family": "hermite", "b": 1.0, "scale": 3.0},
                     {"family": "jacobi", "alpha": 0.5, "beta": 1.5},
                     {"family": "custom",
                      "moments": [2, 0, 2 / 3, 0, 2 / 5, 0],
                      "support": [-1, 1]}],
            checks=["orth"])
        cfg = config_from_json(data)
        js = cfg.to_json()
        assert js["weights"][1]["scale"] == 3.0
        assert js["weights"][3]["family"] == "custom"

    @pytest.mark.parametrize("bad", [
        {"size": 2},                                     # missing fields
        base_config(a=[0.0]),                            # a = 0
        base_config(size=3),                             # size mismatch
        base_config(checks=["orth", "bogus"]),           # unknown check
        base_config(backend="quad"),                     # unknown backend
        base_config(n_max=0),                            # bad n_max
        base_config(weights=[{"family": "laguerre", "alpha": -2.0},
                             {"family": "laguerre", "alpha": 0.5}]),
        [1, 2, 3],                                       # not an object
    ])
    def test_rejects_bad_config(self, bad):
        with pytest.raises(ConfigError):
            config_from_json(bad)


class TestRun:
    def test_all_checks_pass(self):
        cfg = config_from_json(base_config())
        report = run(cfg)
        assert report["passed"]
        assert set(report["checks"]) == set(cfg.checks)
        for res in report["checks"].values():
            assert res["passed"]

    def test_report_is_json_serializable(self, tmp_path):
        cfg = config_from_json(base_config(checks=["orth", "reduce",
                                                   "symmetries"]))
        report = run(cfg)
        text = json.dumps(report, default=str)
        assert json.loads(text)["passed"]

    def test_jacobi_reduce_reports_b_c_M(self):
        data = base_config(
            a=[1.5],
            weights=[{"family": "jacobi", "alpha": 1.0, "beta": 1.5,
                      "scale": 2.25},
                     {"family": "jacobi", "alpha": 0.0, "beta": 0.5}],
            checks=["reduce", "symmetries"])
        report = run(config_from_json(data))
        red = report["checks"]["reduce"]
        assert red["reducible"]
        assert red["b"] == pytest.approx(-1.0, abs=1e-8)
        assert red["c"] == pytest.approx(1.0, abs=1e-8)
        assert len(red["M"]) == 2
        assert report["checks"]["symmetries"]["dimension"] == 2

    def test_symmetry_report_gives_points_and_gap(self):
        lag = [{"family": "laguerre", "alpha": al} for al in (0.5, 1.5, 0.5)]
        data = base_config(size=3, a=[1.0, 1.0], weights=lag,
                           checks=["symmetries"])
        res = run(config_from_json(data))["checks"]["symmetries"]
        assert res["dimension"] == 2
        assert res["sample_points"] == 19          # 3N + 10
        assert res["null_gap"] > 1e6

    def test_exact_jacobi_det(self):
        # the continuant keeps unevaluated Beta-function ratios here
        jac = [{"family": "jacobi", "alpha": al, "beta": al}
               for al in (1.5, 0.5, 1.5)]
        data = base_config(size=3, a=[1.0, 0.5], weights=jac, n_max=6,
                           backend="exact", checks=["det"])
        res = run(config_from_json(data))["checks"]["det"]
        assert res["passed"]
        assert res["max_relative_error"] < 1e-10

    def test_darboux_check_n5_chain(self):
        data = base_config(
            size=5, a=[1.0, 1.0, 1.0, 1.0],
            weights=[{"family": "laguerre", "alpha": 0.5},
                     {"family": "laguerre", "alpha": 0.5},
                     {"family": "laguerre", "alpha": 1.5},
                     {"family": "laguerre", "alpha": 1.5},
                     {"family": "laguerre", "alpha": 2.5}],
            checks=["darboux"])
        report = run(config_from_json(data))
        res = report["checks"]["darboux"]
        assert res["passed"]
        assert res["kind"] == "laguerre_n5_chain"

    def test_gram_data_built_once_with_pool(self, monkeypatch):
        monkeypatch.setenv("MVOP_THREADS", "2")
        calls = []
        build = MVOPSequence._gram_block

        def counted(seq):
            calls.append(1)
            return build(seq)
        monkeypatch.setattr(MVOPSequence, "_gram_block", counted)
        report = run(config_from_json(base_config(
            n_max=20, checks=["orth", "norm", "recurrence", "det"])))
        assert report["passed"]
        assert len(calls) == 1

    HER3_EXACT = base_config(
        size=3, a=[1.0, -0.5], backend="exact", n_max=5,
        weights=[{"family": "hermite", "b": 0.0}] * 3)

    def test_exact_rows_assembled_once(self, monkeypatch):
        monkeypatch.setenv("MVOP_THREADS", "1")
        calls = []
        assemble = MVOPSequence._assemble

        def counted(seq, lo, hi):
            calls.append((lo, hi))
            return assemble(seq, lo, hi)
        monkeypatch.setattr(MVOPSequence, "_assemble", counted)
        report = run(config_from_json(dict(self.HER3_EXACT,
                                           checks=["eigen", "darboux"])))
        assert report["passed"]
        assert report["checks"]["darboux"]["kind"] == \
            "hermite_A_factorization"
        assert calls == [(0, 7)]

    @pytest.mark.parametrize("threads", ["2", "4"])
    def test_exact_reports_same_with_pool(self, threads, monkeypatch):
        # pooled checks may each build the exact rows and norms, and with
        # a short switch interval they interleave inside those builds; the
        # reports must not change
        def report(threads):
            monkeypatch.setenv("MVOP_THREADS", threads)
            checks = run(config_from_json(dict(
                self.HER3_EXACT,
                checks=["eigen", "darboux", "norm", "recurrence"])))["checks"]
            for res in checks.values():
                del res["wall_time_s"]
            return checks
        serial = report("1")
        assert all(res["passed"] for res in serial.values())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = report(threads)
        finally:
            sys.setswitchinterval(interval)
        assert pooled == serial

    def test_checks_report_wall_time(self):
        report = run(config_from_json(base_config()))
        for res in report["checks"].values():
            assert 0 <= res["wall_time_s"] <= report["wall_time_s"]

    def test_csv_dump(self, tmp_path):
        cfg = config_from_json(base_config(checks=["orth"], n_max=3))
        run(cfg, csv_dir=str(tmp_path / "csv"))
        for n in range(4):
            assert (tmp_path / "csv" / f"Q_{n}.csv").exists()
        MVOPSequence(cfg.spec, 4).build_Q(2).dump_csv(tmp_path / "Q_2.csv")
        assert ((tmp_path / "csv" / "Q_2.csv").read_text()
                == (tmp_path / "Q_2.csv").read_text())


class TestHighDegree:
    """The Gram checks at the run tolerance on unbounded supports, where
    eigenvector Gauss weights failed (2x2 Laguerre from n = 26, 3x3
    Hermite by n = 40) and n = 80 overflowed."""

    WEIGHTS = {
        "lag2": ([1.5], [{"family": "laguerre", "alpha": 0.0},
                         {"family": "laguerre", "alpha": 0.5}]),
        "her3": ([1.0, -0.7], [{"family": "hermite", "b": 0.2},
                               {"family": "hermite", "b": -0.3},
                               {"family": "hermite", "b": 0.0}]),
        "lag3": ([1.0, -1.5], [{"family": "laguerre", "alpha": 0.5},
                               {"family": "laguerre", "alpha": 0.5},
                               {"family": "laguerre", "alpha": 1.5}]),
    }

    @pytest.mark.parametrize("n_max", [40, 80, 300])
    @pytest.mark.parametrize("name", ["lag2", "her3"])
    def test_gram_checks_pass(self, name, n_max, monkeypatch):
        monkeypatch.setenv("MVOP_THREADS", "1")
        a, weights = self.WEIGHTS[name]
        cfg = config_from_json(base_config(
            size=len(weights), a=a, weights=weights, n_max=n_max, tol=1e-9,
            checks=["orth", "norm", "recurrence"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no overflow or NaN warnings
            report = run(cfg)
        for check, res in report["checks"].items():
            assert res["passed"], (check, res)
            assert not res["non_finite"]
            assert res["gauss_nodes"] == n_max + 3
            # the smallest of 303 Laguerre weights is below the float range
            assert (res["min_gauss_weight"] > 0
                    or (name, n_max) == ("lag2", 300))
            # its log10 is a number either way
            log10 = res["log10_min_gauss_weight"]
            assert np.isfinite(log10)
            if res["min_gauss_weight"] > 0:
                assert log10 == pytest.approx(
                    np.log10(res["min_gauss_weight"]), abs=1e-9)

    @pytest.mark.parametrize("n_max", [150, 300])
    def test_det_passes_past_float_range(self, n_max, monkeypatch):
        # ||P_n||^2 of the Laguerre weights leaves the float range below
        # n = 150; the scaled brute-force matrix stays in range
        monkeypatch.setenv("MVOP_THREADS", "1")
        a, weights = self.WEIGHTS["lag2"]
        cfg = config_from_json(base_config(
            a=a, weights=weights, n_max=n_max,
            checks=["orth", "norm", "det"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checks = run(cfg)["checks"]
        for res in checks.values():
            assert res["passed"], res
            assert not res["non_finite"]
        assert checks["det"]["max_relative_error"] < 1e-13

    @pytest.mark.parametrize("n_max", [80, 150])
    @pytest.mark.parametrize("name", ["lag2", "her3", "lag3"])
    def test_eigen_passes(self, name, n_max, monkeypatch):
        monkeypatch.setenv("MVOP_THREADS", "1")
        a, weights = self.WEIGHTS[name]
        cfg = config_from_json(base_config(
            size=len(weights), a=a, weights=weights, n_max=n_max, tol=1e-9,
            checks=["eigen"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(cfg)["checks"]["eigen"]
        assert res["passed"], res
        assert not res["non_finite"]
        assert res["max_scaled_residual"] < 1e-13

    HERMITE_LAGUERRE = ([1.5], [{"family": "hermite", "b": 0.0},
                                {"family": "laguerre", "alpha": 0.5}])

    @pytest.mark.parametrize("n_max, passes", [(80, True), (120, False),
                                               (160, False)])
    def test_eigen_typed_error_on_mixed_families(self, n_max, passes,
                                                 monkeypatch):
        # G_n P_{n-1} leaves the float range at Q_116 of the mixed
        # Hermite-Laguerre weight: a DegreeCap there, never NaN residuals
        monkeypatch.setenv("MVOP_THREADS", "1")
        a, weights = self.HERMITE_LAGUERRE
        cfg = config_from_json(base_config(a=a, weights=weights,
                                           n_max=n_max, checks=["eigen"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(cfg)["checks"]["eigen"]
        if passes:
            assert res["passed"], res
            assert res["max_scaled_residual"] < 1e-13
        else:
            assert res["status"] == "error"
            assert res["error"].startswith("DegreeCap: coefficients of Q_116")

    def test_wrong_ratio_matrix_fails_recurrence(self):
        # Q_3 built from G_3 (1 + 1e-6) is no longer orthogonal, so x Q_n
        # leaves the span of its three neighbours
        cfg = config_from_json(base_config(n_max=6, checks=["recurrence"]))
        seq = MVOPSequence(cfg.spec, cfg.n_max + 1)
        ratio = seq.ratio_matrix
        seq.ratio_matrix = lambda n: (ratio(n) * (1 + 1e-6) if n == 3
                                      else ratio(n))
        res = _CHECKS["recurrence"](seq, cfg)
        assert not res["passed"]
        assert res["max_relative_residual"] > 1e-8


class TestNonFinite:
    def test_peak_prefers_non_finite(self):
        assert peak({}) == (0.0, None, False)
        assert peak({1: 0.1, 2: 0.5, 3: 0.2}) == (0.5, 2, False)
        worst, where, non_finite = peak({1: 0.1, 2: np.nan, 3: np.inf})
        assert np.isnan(worst) and where == 2 and non_finite

    @pytest.mark.parametrize("check", ["orth", "norm", "recurrence", "det",
                                       "eigen"])
    def test_nan_residual_fails(self, check):
        # one poisoned value at degree 2; every other residual is tiny
        cfg = config_from_json(base_config(n_max=5, checks=[check]))
        seq = MVOPSequence(cfg.spec, cfg.n_max + 1)
        nan = float("nan")
        if check in ("orth", "norm"):
            gram = seq.gram_qt
            seq.gram_qt = lambda n, m, *a, **k: (
                gram(n, m, *a, **k) * nan if (n, m) == (2, 2)
                else gram(n, m, *a, **k))
        elif check == "recurrence":
            ttc = seq.three_term_coefficients
            seq.three_term_coefficients = lambda n: (
                ttc(n)[:3] + (nan,) if n == 2 else ttc(n))
        elif check == "det":
            rho = seq.rho_values
            seq.rho_values = lambda n: [nan] if n == 2 else rho(n)
        else:
            q_block = seq.q_block

            def poisoned(lo, hi):
                q = q_block(lo, hi)
                if lo <= 2 < hi:
                    q[2 - lo] *= nan
                return q
            seq.q_block = poisoned
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = _CHECKS[check](seq, cfg)
        assert not res["passed"]
        assert res["non_finite"]


class TestCommandLine:
    def write(self, tmp_path, data):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(data))
        return str(p)

    def test_exit_zero_and_report(self, tmp_path):
        out = tmp_path / "report.json"
        res = CliRunner().invoke(main, ["run", "--config",
                                        self.write(tmp_path, base_config()),
                                        "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "overall: PASS" in res.output
        assert json.loads(out.read_text())["passed"]
        # one status line per requested check
        for name in base_config()["checks"]:
            assert any(line.startswith(name) for line
                       in res.output.splitlines())

    def test_exit_two_on_bad_config(self, tmp_path):
        res = CliRunner().invoke(main, ["run", "--config",
                                        self.write(tmp_path,
                                                   base_config(a=[0.0]))])
        assert res.exit_code == 2

    def test_exit_two_on_malformed_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        res = CliRunner().invoke(main, ["run", "--config", str(p)])
        assert res.exit_code == 2

    def test_nmax_tol_overrides(self, tmp_path):
        res = CliRunner().invoke(main, ["run", "--config",
                                        self.write(tmp_path, base_config()),
                                        "--nmax", "3", "--tol", "1e-6"])
        assert res.exit_code == 0

    def test_schema_command(self):
        res = CliRunner().invoke(main, ["schema"])
        assert res.exit_code == 0
        schema = json.loads(res.output)
        assert schema["required"] == ["size", "a", "weights"]
        assert set(schema["properties"]["checks"]["items"]["enum"]) == \
            set(CHECK_NAMES)

    def test_failing_check_exits_one(self, tmp_path, monkeypatch):
        # an unreachable tolerance forces a FAIL verdict
        res = CliRunner().invoke(main, ["run", "--config",
                                        self.write(tmp_path, base_config()),
                                        "--tol", "1e-30"])
        assert res.exit_code == 1
        assert "overall: FAIL" in res.output
