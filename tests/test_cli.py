"""Config parsing, the batch runner, and CLI exit codes."""

import json
import random
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp

import mvop.scalar_families as sf
from mvop.cli import (_CHECKS, CHECK_NAMES, SCHEMA, RunConfig,
                      config_from_json, main, run)
from mvop.errors import ConfigError
from mvop.mvop_core import MVOPSequence, peak
from mvop.weight_model import weight_spec
from oracles import det_loop, set_ratio


#: raw moments of the Legendre weight on [-1, 1]
LEGENDRE = [2 / (k + 1) if k % 2 == 0 else 0.0 for k in range(60)]


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


def invoke(capsys, *args):
    """Exit code, stdout and stderr of the console script on ``args``."""
    with pytest.raises(SystemExit) as done:
        main(list(args))
    out, err = capsys.readouterr()
    return done.value.code, out, err


def custom_config(n_moments, **over):
    """A 2x2 config with a moment-supplied Legendre weight next to the
    Jacobi weight it equals."""
    return base_config(
        weights=[{"family": "custom", "moments": LEGENDRE[:n_moments],
                  "support": [-1, 1]},
                 {"family": "jacobi", "alpha": 0.0, "beta": 0.0}], **over)


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
                     {"family": "custom", "moments": LEGENDRE[:18],
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

    JAC = {"family": "jacobi", "alpha": 1.0, "beta": 1.5, "scale": 2.25}
    REDUCE_DESC_2 = ("W congruent to diag(w2(x)(x-b)/(c-b), a^2 w2(x)(c-b)"
                     "(c-x)) with b=-1, c=1")
    REDUCE_DESC_3 = ("W congruent to diag((a1^2+a2^2)/a2^2 w1(x), [[w2, a2 x "
                     "w2], [a2 x w2, a2^2 x^2 w2 + a2^2/(a1^2+a2^2) w2]])")

    @pytest.mark.parametrize("data,want", [
        (base_config(a=[1.5], weights=[JAC, {"family": "jacobi",
                                             "alpha": 0.0, "beta": 0.5}]),
         {"passed": True, "reducible": True, "b": -1.0, "c": 1.0,
          "M": [[-1 / 3, -0.5], [1.0, -1.5]], "description": REDUCE_DESC_2}),
        (base_config(a=[1.5], weights=[JAC, {"family": "jacobi",
                                             "alpha": 0.0, "beta": 0.25}]),
         {"passed": True, "reducible": False,
          "note": "no scalar-sum reduction detected"}),
        (base_config(size=3, a=[3.0, 4.0],
                     weights=[{"family": "laguerre", "alpha": 0.5},
                              {"family": "laguerre", "alpha": 1.5},
                              {"family": "laguerre", "alpha": 0.5}]),
         {"passed": True, "reducible": True,
          "M": [[1.0, 0.0, -0.75], [0.0, 1.0, 0.0], [0.48, 0.0, 0.64]],
          "description": REDUCE_DESC_3}),
        (base_config(size=4, a=[1.0, 1.0, 1.0],
                     weights=[{"family": "hermite"}] * 4),
         {"passed": True, "status": "skipped",
          "reason": "no reduction template for this size"}),
        (custom_config(20),
         {"passed": True, "status": "skipped",
          "reason": "needs classical scalar weights"}),
    ], ids=["2x2", "2x2-none", "3x3", "4x4-skip", "custom-skip"])
    def test_reduce_report_on_every_branch(self, data, want):
        res = run(config_from_json(dict(data, checks=["reduce"])))
        got = res["checks"]["reduce"]
        got.pop("wall_time_s")
        assert got == want

    CHAIN5 = base_config(size=5, a=[1.0, -0.5, 2.0, 0.75],
                         weights=[{"family": "laguerre", "alpha": al}
                                  for al in (0.5, 0.5, 1.5, 1.5, 2.5)])

    @pytest.mark.parametrize("data,kind,residual,extra", [
        (CHAIN5, "laguerre_chain", "max_relative_residual", {}),
        (base_config(size=3, a=[1.0, -0.5],
                     weights=[{"family": "hermite"}] * 3),
         "hermite_A_factorization", "worst_residual", {"singular_ns": []}),
    ], ids=["chain", "hermite"])
    def test_darboux_report_per_template(self, data, kind, residual, extra):
        got = run(config_from_json(dict(data, checks=["darboux"])))
        got = got["checks"]["darboux"]
        got.pop("wall_time_s")
        assert got.pop(residual) < 1e-13
        assert got.pop("worst_n") in range(7)
        assert got == {"passed": True, "kind": kind, "non_finite": False,
                       "max_degree": 6, **extra}

    @pytest.mark.parametrize("data", [
        # one slot off the chain's alphas, or a scale, is no chain
        dict(CHAIN5, weights=CHAIN5["weights"][:3]
             + [{"family": "laguerre", "alpha": 2.5}] * 2),
        dict(CHAIN5, weights=CHAIN5["weights"][:4]
             + [{"family": "laguerre", "alpha": 2.5, "scale": 2.0}]),
        base_config(),
    ], ids=["chain-alpha-off", "chain-scaled", "lag2"])
    def test_darboux_report_without_template(self, data):
        got = run(config_from_json(dict(data, checks=["darboux"])))
        got = got["checks"]["darboux"]
        got.pop("wall_time_s")
        assert got == {"passed": True, "status": "skipped",
                       "reason": "no Darboux template for this weight"}

    def test_symmetry_report_gives_points_and_gap(self):
        lag = [{"family": "laguerre", "alpha": al} for al in (0.5, 1.5, 0.5)]
        data = base_config(size=3, a=[1.0, 1.0], weights=lag,
                           checks=["symmetries"])
        res = run(config_from_json(data))["checks"]["symmetries"]
        assert res["dimension"] == 2
        assert res["sample_points"] == 19          # 3N + 10
        assert res["unknowns"] == 3                # X_11, X_22, X_33
        assert res["generators"] == 4              # x^0..x^3 of one class
        assert res["null_gap"] > 1e6

    def test_symmetries_skip_custom_weight(self):
        res = run(config_from_json(custom_config(
            20, checks=["symmetries"])))["checks"]["symmetries"]
        assert res["passed"] and res["status"] == "skipped"
        assert "moment-supplied" in res["reason"]

    def test_symmetry_report_on_five_equal_slots(self):
        her = [{"family": "hermite", "b": 0.3}] * 5
        data = base_config(size=5, a=[1.0, -0.7, 1.3, 0.6], weights=her,
                           checks=["symmetries", "reduce", "det"])
        res = run(config_from_json(data))["checks"]["symmetries"]
        assert res["dimension"] == 3

    @pytest.mark.parametrize("backend", ["float", "exact"])
    def test_jacobi_alpha_plus_beta_minus_one(self, backend):
        # c_1 of Jacobi(-1/2, -1/2) once read 0/0: the factor 1 + alpha +
        # beta cancels, and every Gram and det check passes
        data = base_config(a=[1.0], n_max=8, backend=backend,
                           weights=[{"family": "jacobi", "alpha": -0.5,
                                     "beta": -0.5},
                                    {"family": "jacobi", "alpha": 0.5,
                                     "beta": 0.5}],
                           checks=["orth", "norm", "recurrence", "det"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run(config_from_json(data))
        for name, res in report["checks"].items():
            assert res["passed"] and not res["non_finite"], (name, res)

    @pytest.mark.parametrize("backend", ["float", "exact"])
    def test_recurrence_sums_stay_finite(self, backend):
        # the squared residual sums of this weight pass the float range at
        # n = 28, 29; those degrees are formed again by frobenius, so the
        # report holds a number (a FAIL: the mixed-family projection) and
        # no overflow warning escapes
        data = base_config(
            size=5, a=[1e-3, -0.7, 1.0, -0.7], n_max=30, backend=backend,
            weights=[{"family": "jacobi", "alpha": 25.0, "beta": 1.0},
                     {"family": "laguerre", "alpha": 0.0},
                     {"family": "hermite", "b": -2.0},
                     {"family": "jacobi", "alpha": 25.0, "beta": 3.0},
                     {"family": "laguerre", "alpha": 0.0}],
            checks=["orth", "norm", "recurrence", "det"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checks = run(config_from_json(data))["checks"]
        rec = checks.pop("recurrence")
        assert np.isfinite(rec["max_relative_residual"])
        assert not rec["non_finite"] and rec["worst_n"] == 29
        for name, res in checks.items():
            assert res["passed"] and not res["non_finite"], (name, res)

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
        assert res["kind"] == "laguerre_chain"
        assert res["max_degree"] == 6
        assert not res["non_finite"] and 0 <= res["worst_n"] <= 6
        res = run(config_from_json(dict(data, n_max=14)))["checks"]["darboux"]
        assert res["passed"] and res["max_degree"] == 10

    def test_gram_data_built_once(self, monkeypatch):
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

    def test_gram_checks_read_in_whole_arrays(self):
        # orth and norm read every diagonal block by one gram_qt call, and
        # the quadrature summary of the three Gram checks comes from one
        # InnerProductEngine.rule call per slot, made with the Gram data
        cfg = config_from_json(base_config(
            size=3, a=[1.5, -0.7], n_max=12,
            weights=[{"family": "laguerre", "alpha": 0.0},
                     {"family": "hermite", "b": 0.3},
                     {"family": "laguerre", "alpha": 0.0}],
            checks=["orth", "norm", "recurrence"]))
        seq = MVOPSequence(cfg.spec, cfg.n_max)
        reads, rules = [], []
        gram, rule = seq.gram_qt, seq.engine.rule
        seq.gram_qt = lambda *a, **k: reads.append(a) or gram(*a, **k)
        seq.engine.rule = lambda *a: rules.append(a) or rule(*a)
        summaries = []
        for name in cfg.checks:
            reads.clear()
            res = _CHECKS[name](seq, cfg)
            assert res["passed"], (name, res)
            assert len(reads) == (name != "recurrence"), name
            summaries.append({k: res[k] for k in (
                "gauss_nodes", "min_gauss_weight", "log10_min_gauss_weight")})
        assert rules == [(k, cfg.n_max + 2) for k in range(3)]
        assert summaries[0] == summaries[1] == summaries[2]
        assert summaries[0]["min_gauss_weight"] > 0

    def test_log_ratio_headroom(self):
        # Hermite(0), Laguerre(1/2), a = 1.5: every check that reads G_n
        # passes and reports the largest |log ratio| of G_0..G_{n_max},
        # below LOG_RATIO_CAP = 600 (``eigen`` stops at Q_115 on power
        # coefficients, so it is read at n_max 100).  A[0, 1] = a is the
        # one pair, so that log ratio is log ||p_n^{w_1}||^2 - log
        # ||p_{n-1}^{w_0}||^2
        for n_max, names in ((129, ["orth", "norm", "recurrence", "det"]),
                             (100, ["orth", "norm", "recurrence", "eigen",
                                    "det"])):
            data = base_config(
                a=[1.5], n_max=n_max,
                weights=[{"family": "hermite", "b": 0.0},
                         {"family": "laguerre", "alpha": 0.5}],
                checks=names)
            checks = run(config_from_json(data))["checks"]
            her, lag = (sf.recurrence_coefficients(s, n_max + 1).log_norms
                        for s in (sf.hermite(0.0), sf.laguerre(0.5)))
            want = max(abs(lag[n] - her[n - 1]) for n in range(1, n_max + 1))
            assert list(checks) == names
            for name, res in checks.items():
                assert res["passed"], (name, res)
                assert res["max_abs_log_ratio"] == want < 600, (name, res)

    HER3_EXACT = base_config(
        size=3, a=[1.0, -0.5], backend="exact", n_max=5,
        weights=[{"family": "hermite", "b": 0.0}] * 3)

    def test_exact_rows_assembled_once(self, monkeypatch):
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
        assert report["checks"]["darboux"]["max_degree"] == 5
        assert calls == [(0, 6)]

    @pytest.mark.parametrize("backend", ["float", "exact"])
    def test_ratio_table_once_per_sequence(self, backend):
        # every reader slices G_n from the sequence's one table, built on
        # the first read
        cfg = config_from_json(dict(self.HER3_EXACT, backend=backend))
        seq = MVOPSequence(cfg.spec, cfg.n_max, backend=backend)
        calls = []
        table = seq._ratio_table

        def counted():
            calls.append(seq._gtab is None)
            return table()
        seq._ratio_table = counted
        for name in ("orth", "norm", "recurrence", "eigen", "det"):
            assert _CHECKS[name](seq, cfg)["passed"], name
        assert calls.count(True) == 1

    def test_rounded_ratios_once_per_sequence(self):
        # the Gram block (orth, recurrence) and det K_n read the doubles of
        # the exact G_n table from one read-only table, rounded on the
        # first read
        cfg = config_from_json(dict(self.HER3_EXACT,
                                    checks=["orth", "recurrence", "det"]))
        seq = MVOPSequence(cfg.spec, cfg.n_max, backend="exact")
        calls, rounds = [], []
        table, rnd = seq._rounded_ratios, seq._round

        def counted():
            calls.append(seq._gfloat is None)
            return table()
        seq._rounded_ratios = counted
        seq._round = lambda R, lead, monos=None: (rounds.append(lead)
                                                  or rnd(R, lead, monos))
        for name in ("orth", "recurrence", "det"):
            assert _CHECKS[name](seq, cfg)["passed"], name
        assert calls == [True, False]     # the Gram block, then det
        # the G_n table once, and the norm table (recurrence) once
        assert sorted(rounds) == [(cfg.n_max + 1,), (cfg.n_max + 2,)]
        got = seq._rounded_ratios()
        assert got is seq._rounded_ratios() and not got.flags.writeable

    @pytest.mark.parametrize("backend", ["float", "exact"])
    def test_norm_table_once_per_sequence(self, backend):
        # the norm and recurrence checks read ||Q_n||^2 / sigma_n^2 from
        # one read-only table, formed by one pass over all degrees
        cfg = config_from_json(dict(self.HER3_EXACT, backend=backend))
        seq = MVOPSequence(cfg.spec, cfg.n_max, backend=backend)
        calls = []
        terms = seq._norm_terms

        def counted(ns, *args):
            calls.append(list(ns))
            return terms(ns, *args)
        seq._norm_terms = counted
        for name in ("norm", "recurrence"):
            assert _CHECKS[name](seq, cfg)["passed"], name
        assert calls == [list(range(cfg.n_max + 1))]
        table = seq._norm_table()
        assert len(table) == cfg.n_max + 1
        for n, norm in enumerate(table):
            assert not norm.flags.writeable
            with pytest.raises(ValueError):
                norm[0, 0] = 0

    @pytest.mark.parametrize("n_max", [2, 19])
    def test_custom_weight_at_its_moment_count(self, n_max):
        # 2 n_max + 4 moments and n_max 19 are enough for every Gram check
        report = run(config_from_json(custom_config(
            2 * n_max + 4, n_max=n_max,
            checks=["orth", "norm", "recurrence", "det"])))
        assert report["passed"], report["checks"]

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


#: the np.linalg routines that run a LAPACK kernel, whose complex variant
#: (zgesv, zpotrf, zheevd, ...) a complex argument selects; ``norm`` is an
#: elementwise reduction and reads ``gram_qt``, complex by contract
LAPACK = ("solve", "det", "slogdet", "inv", "cholesky", "eigh", "eigvalsh",
          "eig", "eigvals", "svd", "qr", "lstsq", "pinv", "matrix_rank")


def lag(alpha):
    return {"family": "laguerre", "alpha": alpha}


HER = {"family": "hermite"}


class TestRealArithmetic:
    """A real a gives a real A, and every table and solve follows its
    dtype: no complex array reaches a LAPACK routine.  A complex a keeps
    the complex arithmetic."""

    ALL = list(CHECK_NAMES)
    CONFIGS = {
        # the benchmark's warm-up config
        "warmup": base_config(a=[1.5], n_max=3, checks=ALL),
        "hermite": base_config(size=3, a=[1.0, -0.5], weights=[HER] * 3,
                               checks=ALL),
        "laguerre": base_config(size=3, a=[3.0, 4.0], checks=ALL,
                                weights=[lag(0.5), lag(1.5), lag(0.5)]),
        "jacobi": base_config(a=[1.5], checks=ALL, weights=[
            {"family": "jacobi", "alpha": 1.0, "beta": 1.5, "scale": 2.25},
            {"family": "jacobi", "alpha": 0.0, "beta": 0.5}]),
        "chain": base_config(size=5, a=[1.0, -0.5, 2.0, 0.75], checks=ALL,
                             n_max=10, weights=[lag(al) for al in
                                                (0.5, 0.5, 1.5, 1.5, 2.5)]),
        "her3_exact": base_config(size=3, a=[1.0, -0.5], weights=[HER] * 3,
                                  backend="exact", n_max=7, checks=ALL),
        "lag3_exact": base_config(size=3, a=[1.5, -0.5], backend="exact",
                                  n_max=7, checks=ALL,
                                  weights=[lag(0.0), lag(0.5), lag(0.0)]),
    }

    @pytest.fixture
    def lapack_dtypes(self, monkeypatch):
        # (routine, dtype) of every array handed to a LAPACK routine
        seen = []
        for name in LAPACK:
            def spy(*args, _routine=getattr(np.linalg, name), _name=name,
                    **kwargs):
                seen.extend((_name, v.dtype) for v in args
                            if isinstance(v, np.ndarray))
                return _routine(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        return seen

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_real_a_runs_real(self, name, lapack_dtypes):
        report = run(config_from_json(self.CONFIGS[name]))
        assert report["passed"], report["checks"]
        assert lapack_dtypes
        assert {dtype for _, dtype in lapack_dtypes} == {np.dtype(float)}

    def test_every_real_site_is_reached(self, lapack_dtypes):
        # the recurrence solve and its singularity test, det, the Darboux
        # connection, and the symmetry solve's Cholesky factor, solves,
        # eigenbasis and inverse
        for name in ("warmup", "hermite"):
            run(config_from_json(self.CONFIGS[name]))
        assert {routine for routine, _ in lapack_dtypes} >= {
            "solve", "slogdet", "det", "cholesky", "eigh", "inv"}

    @pytest.mark.parametrize("name", ["warmup", "hermite", "jacobi",
                                      "chain", "her3_exact"])
    def test_complex_a_runs_complex(self, name, lapack_dtypes):
        data = dict(self.CONFIGS[name])
        spec = config_from_json(data).spec
        spec = weight_spec([1 + 0.5j, *spec.a_params[1:]], spec.scalars)
        cfg = RunConfig(spec=spec, backend=data.get("backend", "float"),
                        n_max=data["n_max"], checks=tuple(data["checks"]))
        report = run(cfg)
        assert report["passed"], report["checks"]
        assert np.dtype(complex) in {dtype for _, dtype in lapack_dtypes}

    @pytest.mark.parametrize("data", [
        # the Laguerre chain at N = 40 and Laguerre(k), k = 0..19: the
        # diagonal of ||Q_m||^2 spans hundreds of orders of magnitude, and
        # the solve against it unequilibrated missed by 1e-2 and 1e-3
        base_config(size=40, a=[1.0] * 39, n_max=30, checks=["recurrence"],
                    weights=[lag(0.5 + k // 2) for k in range(40)]),
        base_config(size=20, a=[1.0] * 19, n_max=20, checks=["recurrence"],
                    weights=[lag(k) for k in range(20)])],
        ids=["chain40", "laguerre_k20"])
    def test_large_size_recurrence(self, data):
        res = run(config_from_json(data))["checks"]["recurrence"]
        assert res["passed"] and res["max_relative_residual"] <= 1e-13, res

    def test_large_size_det_without_overflow(self):
        # alternating H, L at N = 24: d 2^e past the float range read inf
        # with an overflow warning in the branch np.where discards; the
        # RuntimeWarning filter of the test run makes that an error
        data = base_config(size=24, a=[1.0] * 23, n_max=30, checks=["det"],
                           weights=[HER, lag(0.0)] * 12)
        res = run(config_from_json(data))["checks"]["det"]
        assert res["passed"] and not res["non_finite"], res
        assert res["max_relative_error"] < 1e-11


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
    def test_gram_checks_pass(self, name, n_max):
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
            assert res["gauss_nodes"] == n_max + 2
            # the smallest of 302 Laguerre weights is below the float range
            assert (res["min_gauss_weight"] > 0
                    or (name, n_max) == ("lag2", 300))
            # its log10 is a number either way
            log10 = res["log10_min_gauss_weight"]
            assert np.isfinite(log10)
            if res["min_gauss_weight"] > 0:
                assert log10 == pytest.approx(
                    np.log10(res["min_gauss_weight"]), abs=1e-9)

    @pytest.mark.parametrize("n_max", [150, 300])
    def test_det_passes_past_float_range(self, n_max):
        # ||P_n||^2 of the Laguerre weights leaves the float range below
        # n = 150; the scaled brute-force matrix stays in range
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

    @pytest.mark.parametrize("spec, n_max", [
        (weight_spec([2.0], [sf.laguerre(0.0), sf.laguerre(0.5)]), 6),
        (weight_spec([1 + 0.5j, 2.0], [sf.laguerre(al)
                                       for al in (0.0, 1.0, 0.5)]), 30),
        (weight_spec([1.5, -0.7, 1.2, 0.9],
                     [sf.hermite(0.0), sf.laguerre(0.5)] * 2
                     + [sf.hermite(0.0)]), 100)],
        ids=["lag2", "complex_a", "past_float_range"])
    def test_det_matches_per_degree_loop(self, spec, n_max):
        # all degrees at once give the per-degree residuals bit for bit
        seq = MVOPSequence(spec, n_max + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = _CHECKS["det"](seq, SimpleNamespace(n_max=n_max))
        assert (res["max_relative_error"], res["worst_n"],
                res["non_finite"]) == peak(det_loop(seq, n_max), 1)

    @pytest.mark.parametrize("backend", ["float", "exact"])
    def test_det_continuant_past_float_range(self, backend):
        # on H, L, H, L, H the continuant and the det of the reduced matrix
        # both pass the float range from n = 84 on: the continuant is
        # rescaled by powers of two and compared with log |det|, on the
        # exact backend too
        H, L = {"family": "hermite", "b": 0.0}, {"family": "laguerre",
                                                 "alpha": 0.5}
        cfg = config_from_json(base_config(
            size=5, a=[1.5, -0.7, 1.2, 0.9], weights=[H, L, H, L, H],
            n_max=100, checks=["det"], backend=backend))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(cfg)["checks"]["det"]
        assert res["passed"], res
        assert not res["non_finite"]
        assert res["worst_n"] > 83
        assert res["max_relative_error"] < 1e-12

    @pytest.mark.parametrize("n_max", [80, 150])
    @pytest.mark.parametrize("name", ["lag2", "her3", "lag3"])
    def test_eigen_passes(self, name, n_max):
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

    @pytest.mark.parametrize("order, n_max, error", [
        pytest.param("HL", 80, None, id="80-True"),
        pytest.param("HL", 115, "DegreeCap: Q_115 . D or Lambda_115 Q_115 "
                     "is past", id="115-False"),
        pytest.param("HL", 120, "DegreeCap: coefficients of Q_116",
                     id="120-False"),
        pytest.param("HL", 160, "DegreeCap: coefficients of Q_116",
                     id="160-False"),
        pytest.param("LH", 120, None, id="LH-120-True"),
        pytest.param("LH", 160, "DegreeCap: norm-ratio log -605.1 exceeds "
                     "600.0 at n=133", id="LH-160-False"),
    ])
    def test_eigen_typed_error_on_mixed_families(self, order, n_max, error):
        # Hermite first: Q_115 . D leaves the float range while Q_115 does
        # not, then G_n P_{n-1} does at Q_116; Laguerre first: the norm
        # ratio passes its cap at n = 133.  A DegreeCap, never NaN residuals
        a, weights = self.HERMITE_LAGUERRE
        weights = weights if order == "HL" else weights[::-1]
        cfg = config_from_json(base_config(a=a, weights=weights,
                                           n_max=n_max, checks=["eigen"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(cfg)["checks"]["eigen"]
        if error is None:
            assert res["passed"], res
            assert res["max_scaled_residual"] < 1e-13
        else:
            assert res["status"] == "error"
            assert res["error"].startswith(error), res["error"]

    @pytest.mark.parametrize("check", ["orth", "det"])
    def test_gram_typed_error_hermite_first(self, check):
        # Hermite first: the norm ratio passes its cap at n = 130, and
        # every reader of the G_n table names that degree and log ratio
        a, weights = self.HERMITE_LAGUERRE
        cfg = config_from_json(base_config(a=a, weights=weights,
                                           n_max=300, checks=[check]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(cfg)["checks"][check]
        assert res["status"] == "error"
        assert res["error"] == ("DegreeCap: norm-ratio log 602.3 exceeds "
                                "600.0 at n=130")

    def test_gram_checks_read_no_spare_degree(self):
        # Hermite first: n = 130 is the first degree past the log ratio
        # cap.  At n_max 129 no check reads it; at n_max 130 each names it
        a, weights = self.HERMITE_LAGUERRE
        names = ["orth", "norm", "recurrence", "det"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            below, at = (run(config_from_json(base_config(
                a=a, weights=weights, n_max=n_max, checks=names)))["checks"]
                for n_max in (129, 130))
        for name in names:
            assert below[name]["passed"], (name, below[name])
            assert not below[name]["non_finite"]
            assert at[name]["status"] == "error"
            assert at[name]["error"].endswith("at n=130"), at[name]["error"]

    def test_eigen_past_continuant_overflow(self):
        # the float continuant of rho_n (det K_n) overflows before n = 84
        # on this weight; an overflowed continuant is a regular K_n and
        # raises no warning
        h, l = self.HERMITE_LAGUERRE[1]
        cfg = config_from_json(base_config(
            size=5, a=[1.5, -0.7, 1.2, 0.9], weights=[h, l, h, l, h],
            n_max=100, checks=["eigen"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(cfg)["checks"]["eigen"]
        assert res["passed"], res
        assert res["max_scaled_residual"] < 1e-13

    @pytest.mark.parametrize("n_max", [90, 120])
    def test_gram_checks_on_mixed_families(self, n_max):
        # the scaled diagonal blocks reach 3e163 by degree 88; norms formed
        # from plain squares overflowed there and read residuals as 0 or NaN
        a, weights = self.HERMITE_LAGUERRE
        cfg = config_from_json(base_config(a=a, weights=weights, n_max=n_max,
                                           checks=["orth", "norm"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checks = run(cfg)["checks"]
        for res in checks.values():
            assert not res["non_finite"], res    # every residual is finite
            assert res["passed"], res

    def test_gram_checks_past_node_cap(self):
        # n_max 511 needs 513-node Gauss rules: each Gram check reports the
        # cap, and det, which reads no rule, still runs and passes; n_max
        # 510 reads 512-node rules, the most the cap allows, and passes
        jac = [{"family": "jacobi", "alpha": 0.5, "beta": 1.0},
               {"family": "jacobi", "alpha": 1.5, "beta": 0.0}]
        past, at = (run(config_from_json(base_config(
            a=[1.5], weights=jac, n_max=n_max,
            checks=["orth", "norm", "recurrence", "det"])))["checks"]
            for n_max in (511, 510))
        for name in ("orth", "norm", "recurrence"):
            assert past[name]["status"] == "error"
            assert past[name]["error"] == \
                "DegreeCap: Gauss rule needs 513 > 512 nodes"
            assert at[name]["passed"], (name, at[name])
            assert at[name]["gauss_nodes"] == 512
        assert past["det"]["passed"], past["det"]
        assert at["det"]["passed"], at["det"]

    @pytest.mark.parametrize("n_max", [25, 30])
    def test_exact_norms_past_the_normal_range(self, n_max):
        # log sigma_n^2 passes 708 from n = 15 on: exp(-log sigma_n^2) is
        # no longer a normal double, and the exact norms keep their digits
        cfg = config_from_json(base_config(
            a=[1.5], backend="exact", n_max=n_max,
            weights=[{"family": "hermite", "b": 0.0, "scale": 1e300}] * 2,
            checks=["norm", "recurrence"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checks = run(cfg)["checks"]
        assert checks["norm"]["passed"], checks["norm"]
        assert checks["norm"]["max_relative_error"] < 1e-12
        assert checks["recurrence"]["passed"], checks["recurrence"]
        assert checks["recurrence"]["max_relative_residual"] < 1e-12

    def test_singular_norm_is_a_typed_error(self, monkeypatch):
        # a zero ||Q_n||^2 fails the recurrence check with IllConditioned
        # and leaves the other checks to report
        monkeypatch.setattr(MVOPSequence, "_norm_table", lambda seq: (
            np.zeros((2, 2), dtype=complex),) * (seq.n_max + 1))
        checks = run(config_from_json(base_config(
            checks=["orth", "norm", "recurrence", "det"])))["checks"]
        assert checks["recurrence"]["status"] == "error"
        assert checks["recurrence"]["error"].startswith("IllConditioned")
        assert checks["orth"]["passed"] and checks["det"]["passed"]
        assert not checks["norm"]["passed"]
        assert "status" not in checks["norm"]

    def test_wrong_ratio_matrix_fails_recurrence(self):
        # Q_3 built from G_3 (1 + 1e-6) is no longer orthogonal, so x Q_n
        # leaves the span of its three neighbours; and det K_3, the
        # continuant of rho_3 from G_3, leaves the det of the reduced
        # matrix, which reads the log ratios instead
        for backend, factor in [("float", 1 + 1e-6),
                                ("exact", sp.Rational(1000001, 1000000))]:
            cfg = config_from_json(base_config(n_max=6, backend=backend))
            seq = MVOPSequence(cfg.spec, cfg.n_max, backend=backend)
            set_ratio(seq, 3, lambda G: G * factor)
            res = _CHECKS["recurrence"](seq, cfg)
            assert not res["passed"]
            assert res["max_relative_residual"] > 1e-8
            res = _CHECKS["det"](seq, cfg)
            assert not res["passed"] and res["worst_n"] == 3
            assert res["max_relative_error"] > 1e-7


def sweep(seed, count):
    """``count`` seeded (spec, n_max) pairs over the accepted domain: N = 2-6
    of Hermite, Laguerre and Jacobi slots on half steps, each a_i real,
    complex or purely imaginary, and one in ten each a 5x5 Laguerre chain,
    a reducible 2x2 Jacobi weight (scale |a|^2) or a 3x3 with w1 = w3."""
    rng = random.Random(seed)
    steps, sizes = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0), (0.5, 0.75, 1.0, 1.5, 2.0)

    def a_value():
        re, im = (rng.choice((-1, 1)) * rng.choice(sizes) for _ in range(2))
        return rng.choice((re, complex(re, im), complex(0.0, im)))

    def scalar():
        fam = rng.choice((sf.hermite, sf.laguerre, sf.jacobi))
        return fam(*(rng.choice(steps) for _ in range(1 + (fam is sf.jacobi))))

    for _ in range(count):
        u, n_max = rng.random(), rng.choice((3, 6))
        if u < 0.1:
            al = rng.choice(steps)
            scalars = [sf.laguerre(al + k // 2) for k in range(5)]
        elif u < 0.2:
            a, al, be = a_value(), rng.choice(steps), rng.choice(steps)
            yield weight_spec([a], [sf.jacobi(al + 1, be + 1,
                                              scale=abs(a) ** 2),
                                    sf.jacobi(al, be)]), n_max
            continue
        elif u < 0.3:
            w1, w2 = scalar(), scalar()
            scalars = [w1, w2, w1]
        else:
            scalars = [scalar() for _ in range(rng.randint(2, 6))]
        yield weight_spec([a_value() for _ in scalars[1:]], scalars), n_max


def edge_sweep(seed, count):
    """``count`` seeded RunConfigs at the edges of the accepted domain: N =
    2-5 of Hermite, Laguerre and Jacobi slots with parameters near -1 and
    up to 25, a_i from 1e-3 to 1e3, n_max up to 30, all eight checks and
    about one in seven on the exact backend."""
    rng = random.Random(seed)
    params = (-0.999, -0.5, 0.0, 0.5, 1.0, 3.0, 25.0, None)

    def param():
        p = rng.choice(params)
        return round(rng.uniform(-0.999, 25.0), 3) if p is None else p

    def scalar():
        fam = rng.choice(("hermite", "laguerre", "jacobi"))
        if fam == "hermite":
            return sf.hermite(rng.choice((0.0, 0.3, -2.0, 5.0)))
        if fam == "laguerre":
            return sf.laguerre(param())
        return sf.jacobi(param(), param())

    for _ in range(count):
        scalars = [scalar() for _ in range(rng.randint(2, 5))]
        a = [rng.choice((1.0, -0.7, 1e-3, 1e3, 2.5)) for _ in scalars[1:]]
        yield RunConfig(spec=weight_spec(a, scalars),
                        backend="exact" if rng.random() < 0.15 else "float",
                        n_max=rng.choice((5, 12, 30)), checks=CHECK_NAMES)


class TestSweep:
    @pytest.mark.parametrize("backend", ["float", "exact"])
    def test_every_config_reports(self, backend):
        # every check runs to a report on both backends, complex a included,
        # and the report is strict JSON; no warning escapes
        kinds = set()
        for spec, n_max in sweep(30, 60):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = run(RunConfig(spec=spec, backend=backend,
                                       n_max=n_max, checks=CHECK_NAMES))
            json.dumps(report, allow_nan=False)
            assert set(report["checks"]) == set(CHECK_NAMES)
            kinds.add(report["checks"]["darboux"].get("kind"))
            kinds.add(report["checks"]["reduce"].get("reducible"))
        # the chain and both reduce verdicts are hit
        assert kinds >= {"laguerre_chain", True, False}

    def test_domain_edges(self):
        # a FAIL or a typed error is a report too; run raises nothing, no
        # warning escapes and every report is strict JSON
        backends = set()
        for cfg in edge_sweep(7, 400):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = run(cfg)
            json.dumps(report, allow_nan=False)
            assert set(report["checks"]) == set(CHECK_NAMES)
            backends.add(cfg.backend)
        assert backends == {"float", "exact"}


class TestNonFinite:
    def test_peak_prefers_non_finite(self):
        assert peak([]) == (0.0, None, False)
        assert peak([0.1, 0.5, 0.2], 1) == (0.5, 2, False)
        worst, where, non_finite = peak([0.1, np.nan, np.inf], 1)
        assert np.isnan(worst) and where == 2 and non_finite

    @pytest.mark.parametrize("check", ["orth", "norm", "recurrence", "det",
                                       "eigen", "darboux"])
    def test_nan_residual_fails(self, check):
        # one poisoned value at degree 2; every other residual is tiny
        cfg = config_from_json(base_config(n_max=5, checks=[check]))
        if check == "darboux":  # the Hermite(0) factorization
            cfg = config_from_json(base_config(
                a=[1.0], n_max=5, checks=[check],
                weights=[{"family": "hermite", "b": 0.0}] * 2))
        seq = MVOPSequence(cfg.spec, cfg.n_max)
        nan = float("nan")
        if check in ("orth", "norm"):    # degree 2's diagonal block
            gram = seq.gram_qt

            def poisoned(n, m, *a, **k):
                g = gram(n, m, *a, **k)
                g[(np.asarray(n) == 2) & (np.asarray(m) == 2)] *= nan
                return g
            seq.gram_qt = poisoned
        elif check == "recurrence":     # the residual of n = 2
            table = seq.three_term_table
            seq.three_term_table = lambda hi: (
                *table(hi)[:3],
                np.where(np.arange(1, hi + 1) == 2, nan, table(hi)[3]))
        elif check == "det":    # rho_2, read from G_2
            set_ratio(seq, 2, lambda G: G * nan)
        elif check == "darboux":    # P_2
            p_block = seq.p_block

            def poisoned(lo, hi):
                p = p_block(lo, hi)
                p[2 - lo] *= nan
                return p
            seq.p_block = poisoned
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
        if "worst_n" in res:
            assert res["worst_n"] == 2

    def test_inf_diagonal_block_fails(self, monkeypatch):
        # an inf in G_33 must fail both Gram checks, never read as 0
        build = MVOPSequence._gram_block

        def poisoned(seq):
            block, tables, log_min = build(seq)
            block[3, 0, 3, 0] = np.inf
            return block, tables, log_min
        monkeypatch.setattr(MVOPSequence, "_gram_block", poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checks = run(config_from_json(base_config(
                checks=["orth", "norm"])))["checks"]
        for res in checks.values():
            assert not res["passed"] and res["non_finite"], res
        assert checks["orth"]["max_scaled_residual"] == np.inf
        assert checks["orth"]["worst_pair"] == (0, 3)
        assert checks["norm"]["max_relative_error"] == np.inf
        assert checks["norm"]["worst_n"] == 3

    def test_recurrence_reads_the_node_table_alone(self, monkeypatch):
        # a Gram block of NaN next to a whole node table: the three-term
        # table is bit for bit the same and recurrence passes, while orth
        # and norm, which read the block, report non-finite
        cfg = config_from_json(base_config(
            n_max=12, checks=["orth", "norm", "recurrence"]))
        want = MVOPSequence(cfg.spec, cfg.n_max).three_term_table(11)
        build = MVOPSequence._gram_block

        def poisoned(seq):
            block, tables, log_min = build(seq)
            return np.full_like(block, np.nan), tables, log_min
        monkeypatch.setattr(MVOPSequence, "_gram_block", poisoned)
        got = MVOPSequence(cfg.spec, cfg.n_max).three_term_table(11)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checks = run(cfg)["checks"]
        rec = checks.pop("recurrence")
        assert rec["passed"] and not rec["non_finite"], rec
        for res in checks.values():
            assert not res["passed"] and res["non_finite"], res

    def test_out_file_is_strict_json(self, tmp_path, monkeypatch, capsys):
        # an inf in G_33 makes orth and norm non-finite: --out writes each
        # such number as null next to non_finite: true, and a strict parser
        # reads the file
        build = MVOPSequence._gram_block

        def poisoned(seq):
            block, tables, log_min = build(seq)
            block[3, 0, 3, 0] = np.inf
            return block, tables, log_min
        monkeypatch.setattr(MVOPSequence, "_gram_block", poisoned)
        cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
        cfg.write_text(json.dumps(base_config(checks=["orth", "norm"])))
        code, stdout, err = invoke(capsys, "run", "--config", str(cfg),
                                   "--out", str(out))
        assert code == 1, stdout + err

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")
        checks = json.loads(out.read_text(), parse_constant=refuse)["checks"]
        assert checks["orth"]["max_scaled_residual"] is None
        assert checks["norm"]["max_relative_error"] is None
        assert all(res["non_finite"] for res in checks.values())


class TestCommandLine:
    def write(self, tmp_path, data):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(data))
        return str(p)

    def test_exit_zero_and_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, err = invoke(capsys, "run", "--config",
                                   self.write(tmp_path, base_config()),
                                   "--out", str(out))
        assert code == 0, stdout + err
        assert "overall: PASS" in stdout
        assert json.loads(out.read_text())["passed"]
        # one status line per requested check
        for name in base_config()["checks"]:
            assert any(line.startswith(name) for line in stdout.splitlines())

    def test_exit_two_on_bad_config(self, tmp_path, capsys):
        code, _, _ = invoke(capsys, "run", "--config",
                            self.write(tmp_path, base_config(a=[0.0])))
        assert code == 2

    def test_exit_two_on_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        code, _, _ = invoke(capsys, "run", "--config", str(p))
        assert code == 2

    # refused before any check runs
    @pytest.mark.parametrize("where", ["missing.json", "."])
    def test_config_missing_or_directory(self, tmp_path, capsys, where):
        code, stdout, err = invoke(capsys, "run", "--config",
                                   str(tmp_path / where))
        assert code == 2
        assert stdout == ""
        assert err.splitlines() == [err.strip()]
        assert err.startswith("config error: ")

    # an --out directory or a --csv-dir file: nothing is written or run
    @pytest.mark.parametrize("option, where", [("--out", "."),
                                               ("--csv-dir", "cfg.json")])
    def test_output_path_refused(self, tmp_path, capsys, option, where):
        code, stdout, err = invoke(capsys, "run", "--config",
                                   self.write(tmp_path, base_config()),
                                   option, str(tmp_path / where))
        assert code == 2
        assert "overall" not in stdout + err
        assert f"argument {option}:" in err

    # an --out in a missing directory or a --csv-dir under a file: one
    # line on stderr, and no check runs
    @pytest.mark.parametrize("option, where", [("--out", "nodir/x.json"),
                                               ("--csv-dir", "cfg.json/sub")])
    def test_output_path_unusable(self, tmp_path, capsys, monkeypatch,
                                  option, where):
        def refuse(*args):
            raise AssertionError("a check ran")
        monkeypatch.setitem(_CHECKS, "orth", refuse)
        code, stdout, err = invoke(capsys, "run", "--config",
                                   self.write(tmp_path, base_config()),
                                   option, str(tmp_path / where))
        assert code == 2
        assert stdout == ""
        assert err.startswith("io error: ")
        assert err.splitlines() == [err.strip()]
        assert not (tmp_path / "nodir").exists()

    @pytest.mark.parametrize("args", [
        ["run", "--config", "cfg.json", "--nmax", "abc"],
        ["run", "--config", "cfg.json", "--tol", "x"],
        ["run"],
        [],
        ["frobnicate"],
    ])
    def test_usage_error_exits_two(self, tmp_path, capsys, monkeypatch,
                                   args):
        monkeypatch.chdir(tmp_path)
        self.write(tmp_path, base_config())
        code, stdout, err = invoke(capsys, *args)
        assert code == 2
        assert stdout == ""
        assert err.startswith("usage: mvop")

    def test_help_exits_zero(self, capsys):
        code, stdout, _ = invoke(capsys, "--help")
        assert code == 0
        assert "run" in stdout and "schema" in stdout

    def test_csv_dump_of_wide_leading_block(self, tmp_path, capsys):
        # the float det of K_17 of this weight cancels to 0.0, which once
        # refused Q_17 here; the continuant of rho_n says K_17 is regular
        weights = [{"family": "hermite", "b": 0.0},
                   {"family": "laguerre", "alpha": 0.5}]
        cfg = base_config(size=6, a=[0.889, 0.851, 1.993, 1.205, 1.755],
                          weights=[weights[i] for i in (0, 0, 1, 1, 0, 1)],
                          n_max=17, checks=["orth", "norm", "eigen", "det"])
        code, stdout, err = invoke(capsys, "run", "--config",
                                   self.write(tmp_path, cfg),
                                   "--csv-dir", str(tmp_path / "csv"))
        assert code == 0, stdout + err
        for n in range(18):
            assert (tmp_path / "csv" / f"Q_{n}.csv").exists()

    def test_nmax_tol_overrides(self, tmp_path, capsys):
        code, _, _ = invoke(capsys, "run", "--config",
                            self.write(tmp_path, base_config()),
                            "--nmax", "3", "--tol", "1e-6")
        assert code == 0

    # the overrides are validated like the config fields they replace
    @pytest.mark.parametrize("flags", [["--nmax", "0"], ["--nmax", "-3"],
                                       ["--tol", "-1"]])
    def test_bad_overrides_exit_two(self, tmp_path, capsys, flags):
        code, stdout, err = invoke(capsys, "run", "--config",
                                   self.write(tmp_path, base_config()),
                                   *flags)
        assert code == 2
        assert "need n_max >= 1 and tol > 0" in err
        assert "overall" not in stdout + err

    @pytest.mark.parametrize("over, message", [
        ({"weights": {"family": "laguerre", "alpha": 0.0}},
         "weights must be an array"),
        ({"weights": [1, 2]}, "a weight must be an object"),
        ({"tol": "x"}, "tol must be a finite number"),
        ({"tol": float("nan")}, "tol must be a finite number"),
        ({"a": ["q"]}, "a must be an array of numbers"),
        ({"size": "2"}, "size must be an integer"),
        ({"n_max": 4.7}, "n_max must be an integer"),
        ({"n_max": True}, "n_max must be an integer"),
        ({"tol": 10 ** 400}, "tol must be a finite number"),
        ({"checks": "orth"}, "checks must be an array"),
        ({"weights": [{"family": "laguerre", "alpha": 0.0, "scale": "x"},
                      {"family": "laguerre", "alpha": 0.5}]},
         "scale must be a finite number"),
        ({"weights": [{"family": "custom", "moments": [10 ** 400, 0, 1],
                       "support": [-1, 1]},
                      {"family": "laguerre", "alpha": 0.5}]},
         "moments must be an array of numbers"),
        ({"weights": [{"family": "custom", "moments": [2, "0", 1],
                       "support": [-1, 1, 5]},
                      {"family": "laguerre", "alpha": 0.5}]},
         "support an array of two"),
        # run reads moments one degree past n_max; the message names n_max
        ({**custom_config(7), "n_max": 2},
         "a custom weight needs 8 moments for n_max=2, got 7"),
        ({**custom_config(60), "n_max": 20},
         "custom weights need n_max <= 19, got n_max=20"),
        ({**custom_config(20), "backend": "exact"},
         "the exact backend needs classical families, not a custom weight"),
    ])
    def test_malformed_field_exits_two(self, tmp_path, capsys, over,
                                       message):
        code, stdout, err = invoke(capsys, "run", "--config",
                                   self.write(tmp_path, base_config(**over)))
        assert code == 2
        assert stdout == ""
        assert err.splitlines() == [err.strip()]
        assert err.startswith("config error: ")
        assert message in err

    def test_schema_command(self, capsys):
        code, stdout, _ = invoke(capsys, "schema")
        assert code == 0
        schema = json.loads(stdout)
        assert schema["required"] == ["size", "a", "weights"]
        assert set(schema["properties"]["checks"]["items"]["enum"]) == \
            set(CHECK_NAMES)

    def test_failing_check_exits_one(self, tmp_path, capsys):
        # an unreachable tolerance forces a FAIL verdict
        code, stdout, _ = invoke(capsys, "run", "--config",
                                 self.write(tmp_path, base_config()),
                                 "--tol", "1e-30")
        assert code == 1
        assert "overall: FAIL" in stdout
