"""The CLI against recorded files: every --help text, usage and config
errors, two artifacts, and --config as a second way to give every flag.

The files under golden/ were written by an earlier build of the CLI with
``python tests/test_cli_golden.py``; any change to them is a change of the
command-line surface.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from sgdci.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = [[], ["experiment"], ["calibrate"], ["infer"], ["experiment", "coverage"],
            ["experiment", "volume"], ["experiment", "detcov"], ["compare"]]

# argv (run from a scratch directory), config file content or None
USAGE_ERRORS = {
    "missing_required": (["calibrate", "--m", "8"], None),
    "bad_choice": (["infer", "--data", "x.csv", "--model", "tree"], None),
    "bad_positive_int": (["experiment", "volume", "--d", "0", "--m-list", "8"], None),
    "bad_int_list": (["experiment", "volume", "--d", "1", "--m-list", "8;12"], None),
    "bad_weights": (["calibrate", "--d", "1", "--weights", "1,x"], None),
    "unknown_flag": (["compare", "--model", "linear", "--d", "1", "--T", "9", "--m", "3",
                      "--cal-seed", "1"], None),
    "no_command": ([], None),
    "no_study": (["experiment"], None),
    "config_without_value": (["calibrate", "--d", "1", "--config"], None),
    "config_unknown_key": (["calibrate", "--d", "1", "--config", "c.json"], '{"repz": 1}'),
    "config_bad_value": (["infer", "--config", "c.json"],
                         '{"data": "x.csv", "model": "linear", "threads": 0}'),
    "config_bad_switch": (["calibrate", "--d", "1", "--config", "c.json"], '{"no_cache": 1}'),
    "config_null_required": (["experiment", "detcov", "--config", "c.json"],
                             '{"model": "linear", "d": null, "m": 2, "T": 9}'),
    "config_not_object": (["experiment", "volume", "--config", "c.json"], "[8]"),
    "config_not_json": (["compare", "--config", "c.json"], "{nope"),
    "config_absent": (["experiment", "coverage", "--config", "absent.json"], None),
}

CALIBRATE = ["calibrate", "--d", "2", "--m", "8", "--reps", "10000", "--seed", "3",
             "--threads", "1", "--no-cache", "--out", "cal.json"]
COMPARE = ["compare", "--model", "linear", "--d", "2", "--T", "400", "--m", "8",
           "--alloc", "es", "--reps", "4", "--seed", "5", "--cal-reps", "10000",
           "--threads", "1", "--no-cache", "--out", "cmp.csv"]


def _name(words):
    return "_".join(["sgdci", *words])


def help_text(words) -> str:
    """`sgdci <words> --help` at 80 columns on a 4-core host."""
    out = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            mock.patch("os.sched_getaffinity", return_value={0, 1, 2, 3}, create=True), \
            contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main([*words, "--help"])
    assert exc.value.code == 0
    return out.getvalue()


def usage_error(argv, config) -> str:
    """stderr of a usage error, run from the current directory."""
    if config is not None:
        Path("c.json").write_text(config)
    err = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return err.getvalue()


def calibrate_artifact() -> str:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(CALIBRATE) == 0
    return Path("cal.json").read_text()


def compare_artifact() -> bytes:
    """The compare CSV with its wall_time column blanked."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(COMPARE) == 0
    lines = Path("cmp.csv").read_bytes().split(b"\r\n")
    assert lines[0].endswith(b",wall_time") and lines[-1] == b""
    return b"\r\n".join([lines[0]] + [ln[:ln.rindex(b",") + 1] for ln in lines[1:-1]] + [b""])


@pytest.mark.parametrize("words", COMMANDS, ids=_name)
def test_help_matches_golden(words):
    assert help_text(words) == (GOLDEN / f"help_{_name(words)}.txt").read_text()


@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_usage_error_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert usage_error(*USAGE_ERRORS[case]) == (GOLDEN / f"error_{case}.txt").read_text()


@pytest.mark.parametrize("case", [c for c, (_, config) in USAGE_ERRORS.items()
                                  if config is not None and config.startswith("{\"")])
def test_config_error_does_not_depend_on_key_order(case, tmp_path, monkeypatch):
    # every key is checked before any of them changes the usage line
    monkeypatch.chdir(tmp_path)
    argv, config = USAGE_ERRORS[case]
    reversed_config = json.dumps(dict(reversed(json.loads(config).items())))
    assert usage_error(argv, reversed_config) == usage_error(argv, config)


def test_calibrate_artifact_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert calibrate_artifact() == (GOLDEN / "calibrate.json").read_text()


def test_calibrate_artifact_from_config_matches_golden(tmp_path, monkeypatch):
    # the artifact echoes every flag but --config, so the same values given
    # through a config file write the same bytes
    monkeypatch.chdir(tmp_path)
    cfg = {"d": 2, "m": 8, "reps": 10000, "seed": 3, "threads": 1, "no_cache": True,
           "out": "cal.json"}
    Path("c.json").write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["calibrate", "--config", "c.json"]) == 0
    assert Path("cal.json").read_text() == (GOLDEN / "calibrate.json").read_text()


def test_compare_artifact_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert compare_artifact() == (GOLDEN / "compare.csv").read_bytes()


# A non-default value for every flag: (command-line words, JSON value)
SAMPLES = {
    "d": (["3"], 3), "m": (["7"], 7), "T": (["321"], 321),
    "alloc": (["dbs"], "dbs"), "r": (["0.75"], 0.75), "weights": (["1,2.5,3"], [1, 2.5, 3]),
    "delta": (["0.1"], 0.1), "reps": (["12345"], 12345), "seed": (["7"], 7),
    "cache": (["q.json"], "q.json"), "no_cache": ([], True), "threads": (["3"], 3),
    "out": (["o.txt"], "o.txt"), "data": (["rows.csv"], "rows.csv"),
    "model": (["logistic"], "logistic"), "mode": (["both"], "both"),
    "cal_reps": (["23456"], 23456), "cal_seed": (["11"], 11),
    "step_a": (["0.25"], 0.25), "step_r": (["0.75"], 0.75), "burn_in": (["5"], 5),
    "method": (["bmi_joint"], "bmi_joint"), "m_list": (["8,12"], [8, 12]),
    "det_reps": (["777"], 777),
}

REQUIRED = {
    "calibrate": ["d"],
    "infer": ["data", "model"],
    "experiment coverage": ["model", "d", "T", "m"],
    "experiment volume": ["d", "m_list"],
    "experiment detcov": ["model", "d", "m", "T"],
    "compare": ["model", "d", "T", "m"],
}


def _flag(dest):
    return "--" + dest.replace("_", "-")


_PARSE_ARGS = argparse.ArgumentParser.parse_args


def _parsed(monkeypatch, argv) -> dict:
    """vars() of the namespace main parses from argv; the command is not run."""
    seen = []

    def capture(self, *args, **kwargs):
        ns = _PARSE_ARGS(self, *args, **kwargs)
        seen.append(dict(vars(ns)))
        ns.func = lambda ns: 0
        return ns

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    assert main(argv) == 0
    (parsed,) = seen
    return parsed


def _cli_words(dests):
    return [w for dest in dests for w in (_flag(dest), *SAMPLES[dest][0])]


@pytest.mark.parametrize("command", REQUIRED)
def test_config_equals_command_line_for_every_flag(command, tmp_path, monkeypatch):
    words, required = command.split(), REQUIRED[command]
    dests = set(_parsed(monkeypatch, words + _cli_words(required))) - {
        "command", "study", "func", "config"}
    assert set(required) <= dests <= set(SAMPLES), dests - set(SAMPLES)
    cfg = tmp_path / "c.json"
    for dest in sorted(dests):
        others = [r for r in required if r != dest]
        on_line = _parsed(monkeypatch, words + _cli_words(others + [dest]))
        cfg.write_text(json.dumps({dest: SAMPLES[dest][1]}))
        in_config = _parsed(monkeypatch, words + _cli_words(others) + ["--config", str(cfg)])
        assert on_line.pop("config") is None and in_config.pop("config") == str(cfg)
        assert in_config == on_line, dest


@pytest.mark.parametrize("words, config, line", [
    (["calibrate", "--d", "2"], {"no_cache": False, "m": None, "weights": None}, []),
    (["experiment", "volume", "--d", "2"], {"m_list": [8], "det_reps": None},
     ["--m-list", "8"]),
    (["calibrate", "--d", "2"], {"r": 1, "threads": "2"}, ["--r", "1", "--threads", "2"]),
])
def test_config_false_null_and_text_values(words, config, line, tmp_path, monkeypatch):
    # a switch set false and null for a flag whose default is None leave
    # the flag unset; a value is checked as its command-line text
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    in_config = _parsed(monkeypatch, words + ["--config", str(cfg)])
    on_line = _parsed(monkeypatch, words + line)
    assert in_config.pop("config") == str(cfg) and on_line.pop("config") is None
    assert in_config == on_line


def _record(directory):
    """Write every golden file from the CLI importable now."""
    directory.mkdir(exist_ok=True)
    for words in COMMANDS:
        (directory / f"help_{_name(words)}.txt").write_text(help_text(words))
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for case, (argv, config) in USAGE_ERRORS.items():
                (directory / f"error_{case}.txt").write_text(usage_error(argv, config))
            (directory / "calibrate.json").write_text(calibrate_artifact())
            (directory / "compare.csv").write_bytes(compare_artifact())
        finally:
            os.chdir(here)


if __name__ == "__main__":
    _record(Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else GOLDEN)
