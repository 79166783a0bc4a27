"""Command-line entry points, exit codes, artifacts, config handling."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from sgdci.batching import Allocation, ideal_weights
from sgdci.calibration import QuantileCache, ScalingQuantile, weights_key
from sgdci.cli import main


def _write_linear_csv(path, n=400, d=2, seed=3):
    rng = np.random.default_rng(seed)
    x_star = np.array([0.0, 0.5])[:d]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"a_{i + 1}" for i in range(d)) + ",b\n")
        for _ in range(n):
            a = rng.standard_normal(d)
            b = float(a @ x_star + rng.standard_normal())
            fh.write(",".join(f"{v:.10g}" for v in a) + f",{b:.10g}\n")


def test_import_leaves_scipy_stats_and_linalg_unloaded():
    # scipy.stats takes most of a second to import and scipy.linalg about
    # 0.1 s; every CLI call would pay them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import sys, sgdci.cli; "
            "print('scipy.stats' in sys.modules, 'scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False False"


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--m", "8"])
    assert exc.value.code == 2


class TestCalibrate:
    ARGS = ["calibrate", "--d", "1", "--m", "8", "--alloc", "es",
            "--reps", "20000", "--seed", "5", "--no-cache"]

    def test_prints_alpha_line(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "alpha_hat=" in out
        assert "ci95=[" in out
        assert "reps=20000" in out

    def test_json_artifact_embeds_config(self, tmp_path, capsys):
        art = tmp_path / "cal.json"
        assert main(self.ARGS + ["--out", str(art)]) == 0
        doc = json.loads(art.read_text())
        cfg = doc["config"]
        assert cfg["d"] == 1 and cfg["m"] == 8 and cfg["alloc"] == "es"
        assert cfg["reps"] == 20000 and cfg["seed"] == 5
        assert doc["ci_low"] <= doc["alpha_hat"] <= doc["ci_high"]
        assert len(doc["weights"]) == 8

    def test_custom_weights_fix_batch_count(self, capsys):
        rc = main(["calibrate", "--d", "1", "--alloc", "custom",
                   "--weights", "1,1,1,1,1,1,1,1", "--reps", "20000",
                   "--no-cache"])
        assert rc == 0
        assert "m=8" in capsys.readouterr().out

    def test_missing_m_is_domain_error(self, capsys):
        rc = main(["calibrate", "--d", "1", "--reps", "20000", "--no-cache"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ValueError:")

    def test_weights_need_custom_alloc(self, capsys):
        rc = main(["calibrate", "--d", "1", "--m", "8", "--alloc", "es",
                   "--weights", "1,2", "--reps", "20000", "--no-cache"])
        assert rc == 1
        assert "--weights only applies" in capsys.readouterr().err


class TestInfer:
    def test_joint_marginal_and_both(self, tmp_path, capsys):
        data = tmp_path / "rows.csv"
        _write_linear_csv(data)
        base = ["infer", "--data", str(data), "--model", "linear",
                "--m", "8", "--alloc", "es", "--cal-reps", "20000",
                "--no-cache"]
        art = tmp_path / "doc.json"
        assert main(base + ["--mode", "both", "--out", str(art)]) == 0
        doc = json.loads(art.read_text())
        assert doc["n_rows"] == 400 and doc["T"] == 400 and doc["d"] == 2
        assert len(doc["center"]) == 2
        assert doc["config"]["model"] == "linear"
        assert doc["joint"]["scale"] > 0
        assert doc["joint"]["volume"] > 0
        assert len(doc["joint"]["shape"]) == 2
        lo, hi = doc["marginal"]["lo"], doc["marginal"]["hi"]
        assert all(a < c < b for a, b, c in
                   zip(lo, hi, [y + 1e-12 for y in doc["center"]]))

        assert main(base + ["--mode", "joint"]) == 0
        only_joint = json.loads(capsys.readouterr().out)
        assert "joint" in only_joint and "marginal" not in only_joint

        assert main(base + ["--mode", "marginal"]) == 0
        only_marg = json.loads(capsys.readouterr().out)
        assert "marginal" in only_marg and "joint" not in only_marg

    def test_burn_in_shrinks_t(self, tmp_path, capsys):
        data = tmp_path / "rows.csv"
        _write_linear_csv(data, n=300)
        rc = main(["infer", "--data", str(data), "--model", "linear",
                   "--m", "8", "--alloc", "es", "--cal-reps", "20000",
                   "--burn-in", "50", "--no-cache"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_rows"] == 300 and doc["T"] == 250

    def test_missing_file_reports_error_type(self, tmp_path, capsys):
        rc = main(["infer", "--data", str(tmp_path / "nope.csv"),
                   "--model", "linear", "--no-cache"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("FileNotFoundError:")

    def test_burn_in_cannot_eat_everything(self, tmp_path, capsys):
        data = tmp_path / "rows.csv"
        _write_linear_csv(data, n=50)
        rc = main(["infer", "--data", str(data), "--model", "linear",
                   "--m", "4", "--burn-in", "50", "--no-cache"])
        assert rc == 1
        assert "burn-in" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"reps": 16000, "seed": 9, "alloc": "es"}))
        rc = main(["calibrate", "--d", "1", "--m", "8",
                   "--config", str(cfg), "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reps=16000" in out and "seed=9" in out and "alloc=es" in out

    def test_command_line_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"reps": 16000}))
        rc = main(["calibrate", "--d", "1", "--m", "8", "--alloc", "es",
                   "--reps", "24000", "--config", str(cfg), "--no-cache"])
        assert rc == 0
        assert "reps=24000" in capsys.readouterr().out

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        # a typo, and flags that only other subcommands have
        cfg = tmp_path / "defaults.json"
        for keys in ({"repz": 16000}, {"cal_reps": 16000}, {"T": 5, "m_list": [3]}):
            cfg.write_text(json.dumps(keys))
            with pytest.raises(SystemExit) as exc:
                main(["calibrate", "--d", "1", "--m", "8",
                      "--config", str(cfg), "--no-cache"])
            assert exc.value.code == 2, keys
            err = capsys.readouterr().err
            assert "usage: sgdci calibrate" in err, keys
            assert "unknown flag" in err, keys

    def test_config_values_pass_their_flags_checks(self, tmp_path, capsys):
        # an unknown allocation or mode, and a zero thread cap, are usage
        # errors as they are on the command line
        data = tmp_path / "data.csv"
        _write_linear_csv(data)
        cfg = tmp_path / "defaults.json"
        for keys in ({"alloc": "bogus"}, {"mode": "bogus"}, {"threads": 0}):
            cfg.write_text(json.dumps(keys))
            with pytest.raises(SystemExit) as exc:
                main(["infer", "--data", str(data), "--model", "linear", "--m", "10",
                      "--cal-reps", "10000", "--config", str(cfg), "--no-cache"])
            assert exc.value.code == 2, keys
            err = capsys.readouterr().err
            assert "usage: sgdci infer" in err, keys
            assert "invalid value" in err, keys

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--d", "1", "--m", "8",
                  "--config", str(tmp_path / "absent.json"), "--no-cache"])
        assert exc.value.code == 2
        assert "usage: sgdci calibrate" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read config"),
        ("{not json", "cannot read config"),
        ("[8, 12]", "must hold a JSON object"),
        ('{"T": 5}', "unknown flag"),
    ])
    def test_config_error_names_the_nested_study(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "defaults.json"
        if content is not None:
            cfg.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "volume", "--d", "1", "--m-list", "8,12",
                  "--config", str(cfg), "--no-cache"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: sgdci experiment volume" in err
        assert message in err

    def test_config_supplies_nested_study_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"reps": 10000, "det_reps": 500, "alloc": "es"}))
        rc = main(["experiment", "volume", "--d", "1", "--m-list", "8",
                   "--config", str(cfg), "--no-cache", "--out", str(tmp_path / "v.csv")])
        assert rc == 0
        with open(tmp_path / "v.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert (row["reps"], row["det_reps"], row["allocation"]) == ("10000", "500", "es")


class TestCacheWiring:
    def _poison(self, path, d, m, delta, reps, seed):
        w = ideal_weights(m, Allocation(kind="es"))
        key = (d, m, weights_key(w), float(delta), reps, seed)
        cache = QuantileCache(path)
        cache.put(ScalingQuantile(alpha_hat=123.25, ci_low=123.0,
                                  ci_high=123.5, delta=delta, reps=reps,
                                  key=key))

    def test_cache_hit_short_circuits(self, tmp_path, capsys):
        path = str(tmp_path / "q.json")
        self._poison(path, d=1, m=8, delta=0.05, reps=20000, seed=5)
        rc = main(["calibrate", "--d", "1", "--m", "8", "--alloc", "es",
                   "--reps", "20000", "--seed", "5", "--cache", path])
        assert rc == 0
        assert "alpha_hat=123.25" in capsys.readouterr().out

    def test_no_cache_recomputes(self, tmp_path, capsys):
        path = str(tmp_path / "q.json")
        self._poison(path, d=1, m=8, delta=0.05, reps=20000, seed=5)
        rc = main(["calibrate", "--d", "1", "--m", "8", "--alloc", "es",
                   "--reps", "20000", "--seed", "5", "--cache", path,
                   "--no-cache"])
        assert rc == 0
        assert "alpha_hat=123.25" not in capsys.readouterr().out

    def test_env_var_cache_path(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "env_cache.json")
        self._poison(path, d=1, m=8, delta=0.05, reps=20000, seed=5)
        monkeypatch.setenv("SGDCI_CACHE", path)
        rc = main(["calibrate", "--d", "1", "--m", "8", "--alloc", "es",
                   "--reps", "20000", "--seed", "5"])
        assert rc == 0
        assert "alpha_hat=123.25" in capsys.readouterr().out

    def test_flag_beats_env_var(self, tmp_path, capsys, monkeypatch):
        env_path = str(tmp_path / "env_cache.json")
        flag_path = str(tmp_path / "flag_cache.json")
        self._poison(env_path, d=1, m=8, delta=0.05, reps=20000, seed=5)
        self._poison(flag_path, d=1, m=8, delta=0.05, reps=20000, seed=5)
        # overwrite the flag cache with a different value
        w = ideal_weights(8, Allocation(kind="es"))
        key = (1, 8, weights_key(w), 0.05, 20000, 5)
        QuantileCache(flag_path).put(ScalingQuantile(
            alpha_hat=77.5, ci_low=77.0, ci_high=78.0, delta=0.05,
            reps=20000, key=key))
        monkeypatch.setenv("SGDCI_CACHE", env_path)
        rc = main(["calibrate", "--d", "1", "--m", "8", "--alloc", "es",
                   "--reps", "20000", "--seed", "5", "--cache", flag_path])
        assert rc == 0
        assert "alpha_hat=77.5" in capsys.readouterr().out


class TestExperimentCommands:
    def test_coverage_smoke(self, tmp_path, capsys):
        out = tmp_path / "cov.csv"
        rc = main(["experiment", "coverage", "--model", "linear", "--d", "1",
                   "--T", "400", "--method", "bm_marginal", "--m", "8",
                   "--alloc", "es", "--reps", "6", "--seed", "2",
                   "--cal-reps", "10000", "--no-cache", "--out", str(out)])
        assert rc == 0
        assert "coverage=" in capsys.readouterr().out
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0]["status"] == "ok"

    def test_volume_smoke(self, tmp_path, capsys):
        out = tmp_path / "vol.csv"
        rc = main(["experiment", "volume", "--d", "1", "--m-list", "8,10",
                   "--alloc", "es", "--reps", "10000", "--det-reps", "2000",
                   "--seed", "3", "--no-cache", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["m"]) for r in rows] == [8, 10]

    def test_detcov_smoke(self, tmp_path, capsys):
        out = tmp_path / "det.csv"
        rc = main(["experiment", "detcov", "--model", "linear", "--d", "3",
                   "--m", "2", "--T", "300", "--reps", "5", "--seed", "4",
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "zero" in text or "det" in text
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert all(float(r["det_scaled"]) == 0.0 for r in rows)

    @pytest.mark.filterwarnings("ignore:m - d")
    def test_compare_smoke(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        rc = main(["compare", "--model", "linear", "--d", "2", "--T", "400",
                   "--m", "2", "--alloc", "es", "--reps", "4", "--seed", "5",
                   "--cal-reps", "10000", "--no-cache", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        status = {r["method"]: r["status"] for r in rows}
        assert status["bm_joint"] == "failed"
        assert status["bmi_marginal"] == "ok"

    @pytest.mark.parametrize("study", [
        ["coverage", "--method", "bm_marginal", "--cal-reps", "10000", "--no-cache"],
        ["detcov"],
    ])
    def test_negative_burn_in_is_domain_error(self, study, capsys):
        rc = main(["experiment", study[0], "--model", "linear", "--d", "1",
                   "--T", "400", "--m", "8", "--reps", "3", "--burn-in", "-5",
                   *study[1:]])
        assert rc == 1
        assert "ValueError" in capsys.readouterr().err
