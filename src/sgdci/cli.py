"""Command-line surface: calibration, single-dataset inference, experiments.

Exit codes: 0 on success, 1 on a domain error (the message names the error
type), 2 on a usage error. Every artifact written by a subcommand embeds
the full effective configuration, so it can be regenerated byte-for-byte
from its own header.

Every flag is declared once, in FLAGS; each subcommand in COMMANDS lists
its flags and only the keywords, such as help text or default, in which it
differs, and every parser is built from the two. A JSON config file passed
with --config supplies defaults for any flag of the invoked subcommand, a
required one included (keys use underscores, e.g. "cal_reps"), and is
checked against that subcommand's flags; flags given on the command line
win. The environment variable SGDCI_CACHE supplies a quantile cache path
when --cache is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .batching import ALLOCATION_KINDS, Allocation, BatchMeansSummary, ideal_weights, make_plan
from .calibration import (
    LimitDrawSpec,
    QuantileCache,
    estimate_alpha,
    spec_from_plan,
    submit_alpha,
)
from .errors import SgdciError
from .experiments import (
    DEFAULT_CAL_REPS,
    DEFAULT_CAL_SEED,
    DESK_REPLICATIONS,
    METHODS,
    CoverageConfig,
    run_comparison,
    run_coverage,
    run_det_study,
    run_volume_study,
    write_coverage_csv,
    write_det_csv,
    write_volume_csv,
)
from .inference import build_region, marginal_intervals, region_volume
from .models import ORACLES, ingest_csv
from .sgd import DEFAULT_A, DEFAULT_R, SgdRunConfig, StepSchedule, single_run
from .streams import _worker_count, derive_stream

CACHE_ENV = "SGDCI_CACHE"


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return v


def _comma_list(kind, noun):
    """A flag type: comma-separated text to a tuple of kind."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(p) for p in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {noun}, got {text!r}"
            ) from None
    return parse


def _alloc_from(args) -> Allocation:
    if args.alloc == "custom":
        if args.weights is None:
            raise ValueError("--alloc custom requires --weights")
        return Allocation(kind="custom", custom_weights=args.weights)
    if args.weights is not None:
        raise ValueError("--weights only applies to --alloc custom")
    return Allocation(kind=args.alloc, r=args.r)


def _cache_from(args):
    if args.no_cache:
        return None
    path = args.cache if args.cache is not None else os.environ.get(CACHE_ENV)
    return QuantileCache(path) if path else None


def _effective_config(args) -> dict:
    """Every flag's value but --config's; JSON writes a tuple as an array."""
    return {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config")}


def _write_json(path, doc) -> None:
    if path is None:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def _cmd_calibrate(args) -> None:
    alloc = _alloc_from(args)
    # custom weights fix m; a --m that disagrees is refused by ideal_weights
    m = len(args.weights) if args.m is None and alloc.kind == "custom" else args.m
    if m is None:
        raise ValueError("--m is required unless --alloc custom")
    w = ideal_weights(m, alloc)
    sq = estimate_alpha(
        LimitDrawSpec(args.d, m, tuple(w)),
        args.delta,
        args.reps,
        args.seed,
        cache=_cache_from(args),
        threads=args.threads,
    )
    print(
        f"alpha_hat={sq.alpha_hat:.6f} ci95=[{sq.ci_low:.6f}, {sq.ci_high:.6f}] "
        f"(d={args.d}, m={m}, alloc={alloc.kind}, delta={args.delta}, "
        f"reps={args.reps}, seed={args.seed})"
    )
    if args.out:
        _write_json(
            args.out,
            {
                "config": _effective_config(args),
                "alpha_hat": sq.alpha_hat,
                "ci_low": sq.ci_low,
                "ci_high": sq.ci_high,
                "weights": list(w),
            },
        )


def _cmd_infer(args) -> None:
    """The calibrations are submitted, so their arguments checked, before
    the SGD pass, and run on the pool while it steps; a failure waits for
    the submitted chunks, as in estimate_alpha."""
    rows, oracle = ingest_csv(args.data, args.model)
    n = len(rows)
    if args.burn_in >= n:
        raise ValueError(f"burn-in {args.burn_in} consumes all {n} rows")
    T = n - args.burn_in
    config = SgdRunConfig(T=T, burn_in=args.burn_in,
                          schedule=StepSchedule(a=args.step_a, r=args.step_r))
    plan = make_plan(T, args.m, _alloc_from(args))
    d = oracle.dim
    dims = {"joint": [d], "marginal": [1], "both": [d, 1]}[args.mode]
    with ThreadPoolExecutor(max_workers=_worker_count(args.threads)) as pool:
        alphas = submit_alpha(pool, [spec_from_plan(plan, k) for k in dims], args.delta,
                              args.cal_reps, args.seed, _cache_from(args))
        xi, xbar = single_run(oracle, config, derive_stream(args.seed), plan.boundaries)
        summary = BatchMeansSummary(plan=plan, xi=xi, xbar=xbar, d=d)
        doc = {
            "config": _effective_config(args),
            "n_rows": n,
            "T": T,
            "d": d,
            "center": list(summary.xbar),
        }
        if args.mode in ("joint", "both"):
            sq = alphas[0]()
            region = build_region(summary, sq)
            doc["joint"] = {
                "scale": region.scale,
                "shape": [list(row) for row in np.asarray(region.shape.entries)],
                "alpha_hat": sq.alpha_hat,
                "volume": region_volume(region),
            }
        if args.mode in ("marginal", "both"):
            sq1 = alphas[-1]()
            iv = marginal_intervals(summary, sq1)
            doc["marginal"] = {
                "lo": list(iv.lo),
                "hi": list(iv.hi),
                "sigma": list(iv.sigma),
                "alpha_hat_1d": sq1.alpha_hat,
            }
    _write_json(args.out, doc)


def _cmd_exp_coverage(args) -> None:
    cfg = CoverageConfig(
        model=args.model,
        d=args.d,
        T=args.T,
        method=args.method,
        m=args.m,
        alloc=_alloc_from(args),
        delta=args.delta,
        replications=args.reps,
        base_seed=args.seed,
        schedule=StepSchedule(a=args.step_a, r=args.step_r),
        burn_in=args.burn_in,
        cal_reps=args.cal_reps,
        cal_seed=args.cal_seed,
    )
    report = run_coverage(cfg, cache=_cache_from(args), threads=args.threads)
    print(
        f"coverage={report.coverage:.4f} +/- {report.half_width:.4f} "
        f"(hits={report.hits}, degenerate={report.degenerate}, "
        f"R={cfg.replications}, method={cfg.method})"
    )
    if args.out:
        write_coverage_csv([report], args.out)


def _cmd_exp_volume(args) -> None:
    rows = run_volume_study(
        args.d,
        args.m_list,
        _alloc_from(args),
        args.delta,
        args.reps,
        args.seed,
        det_reps=args.det_reps,
        cache=_cache_from(args),
        threads=args.threads,
    )
    for row in rows:
        print(
            f"d={row.d} m={row.m} v={row.factor.estimate:.6g} "
            f"se={row.factor.std_error:.3g}"
        )
    if args.out:
        write_volume_csv(rows, args.out)


def _cmd_exp_detcov(args) -> None:
    dets = run_det_study(
        args.d,
        args.m,
        args.T,
        args.model,
        args.reps,
        args.seed,
        alloc=_alloc_from(args),
        schedule=StepSchedule(a=args.step_a, r=args.step_r),
        burn_in=args.burn_in,
    )
    tiny = float(np.mean(dets < 1e-6))
    print(
        f"median_det={np.median(dets):.6g} frac_below_1e-6={tiny:.3f} "
        f"(d={args.d}, m={args.m}, T={args.T}, R={args.reps})"
    )
    if args.out:
        write_det_csv(
            dets, args.out, model=args.model, d=args.d, m=args.m, T=args.T,
            base_seed=args.seed,
        )


def _cmd_compare(args) -> None:
    reports = run_comparison(
        args.model,
        args.d,
        args.T,
        args.m,
        _alloc_from(args),
        args.delta,
        args.reps,
        args.seed,
        schedule=StepSchedule(a=args.step_a, r=args.step_r),
        burn_in=args.burn_in,
        cal_reps=args.cal_reps,
        cache=_cache_from(args),
        threads=args.threads,
    )
    for rep in reports:
        if hasattr(rep, "error"):
            print(f"{rep.method:>22}: failed ({rep.error})")
        else:
            print(
                f"{rep.config.method:>22}: {rep.coverage:.4f} "
                f"+/- {rep.half_width:.4f}"
            )
    if args.out:
        write_coverage_csv(reports, args.out)


# Every flag once, as argparse keywords. The --threads default, every CPU
# this process may run on, is read whenever a parser is built (see _parsers).
FLAGS = {
    "--data": {"required": True, "help": "CSV with header a_1,...,a_d,b"},
    "--model": {"choices": list(ORACLES), "required": True},
    "--d": {"type": _positive_int, "required": True},
    "--T": {"type": _positive_int, "required": True},
    "--method": {"default": "bm_joint", "choices": METHODS},
    "--m": {"type": _positive_int, "required": True},
    "--m-list": {"type": _comma_list(int, "integers"), "required": True,
                 "help": "comma-separated batch counts"},
    "--alloc": {"choices": ALLOCATION_KINDS, "default": "ibs", "help": "batch size allocation"},
    "--r": {"type": float, "default": 2.0 / 3.0, "help": "allocation exponent for ibs/dbs"},
    "--weights": {"type": _comma_list(float, "numbers"), "help": "comma-separated positive "
                  "weights for --alloc custom (normalized internally)"},
    "--delta": {"type": float, "default": 0.05},
    "--mode": {"choices": ["joint", "marginal", "both"], "default": "joint",
               "help": "which region document to produce"},
    "--reps": {"type": _positive_int, "default": DEFAULT_CAL_REPS},
    "--det-reps": {"type": _positive_int,
                   "help": "determinant draws per cell (default: --reps)"},
    "--cal-reps": {"type": _positive_int, "default": DEFAULT_CAL_REPS},
    "--seed": {"type": int, "default": 0},
    "--cal-seed": {"type": int, "default": DEFAULT_CAL_SEED},
    "--step-a": {"type": float, "default": DEFAULT_A,
                 "help": "step size prefactor a in a * t^(-r)"},
    "--step-r": {"type": float, "default": DEFAULT_R,
                 "help": "step size exponent, must lie in (1/2, 1)"},
    "--burn-in": {"type": int, "default": 0, "help": "steps discarded before averaging starts"},
    "--cache": {"help": f"quantile cache file (default: ${CACHE_ENV} if set)"},
    "--no-cache": {"action": "store_true", "help": "ignore any cache and recompute"},
    "--threads": {"type": _positive_int,
                  "help": "worker thread cap; results do not depend on it"},
    "--config": {"help": "JSON file of flag defaults"},
    "--out": {"help": "CSV artifact path"},
}

_ALLOC = ["--alloc", "--r", "--weights"]
_SCHEDULE = ["--step-a", "--step-r", "--burn-in"]
_CACHE = ["--cache", "--no-cache", "--threads"]

# Each subcommand: its handler, its help line, and its flags in --help order,
# each a FLAGS key or (key, the keywords in which this subcommand differs).
COMMANDS = {
    "calibrate": (_cmd_calibrate, "Monte Carlo calibration of the scaling quantile", [
        ("--d", {"help": "dimension"}), ("--m", {"required": False, "help": "batch count"}),
        *_ALLOC, ("--delta", {"help": "miss probability"}),
        ("--reps", {"help": "Monte Carlo draws"}), ("--seed", {"help": "base seed"}),
        *_CACHE, "--config", ("--out", {"help": "JSON artifact path"})]),
    "infer": (_cmd_infer, "confidence region from a CSV dataset", [
        "--data", "--model", ("--m", {"required": False, "default": 30, "help": "batch count"}),
        *_ALLOC, ("--delta", {"help": "miss probability"}), "--mode",
        ("--cal-reps", {"help": "calibration draws"}), ("--seed", {"help": "calibration seed"}),
        *_SCHEDULE, *_CACHE, "--config",
        ("--out", {"help": "JSON artifact path (stdout if omitted)"})]),
    "experiment coverage": (_cmd_exp_coverage, "empirical coverage of one method", [
        "--model", "--d", "--T", "--method", "--m", *_ALLOC, "--delta",
        ("--reps", {"default": DESK_REPLICATIONS, "help": "replications"}), "--seed",
        *_SCHEDULE, "--cal-reps", "--cal-seed", *_CACHE, "--config", "--out"]),
    "experiment volume": (_cmd_exp_volume, "expected volume factor across batch counts", [
        "--d", "--m-list", *_ALLOC, "--delta", ("--reps", {"help": "calibration draws per cell"}),
        "--det-reps", "--seed", *_CACHE, "--config", "--out"]),
    "experiment detcov": (_cmd_exp_detcov, "scaled covariance determinants across replications", [
        "--model", "--d", "--m", "--T", *_ALLOC,
        ("--reps", {"default": 200, "help": "replications"}), "--seed", *_SCHEDULE,
        "--config", "--out"]),
    "compare": (_cmd_compare, "all methods on one problem, shared budget", [
        "--model", "--d", "--T", "--m", *_ALLOC, "--delta",
        ("--reps", {"default": DESK_REPLICATIONS, "help": "replications per method"}), "--seed",
        *_SCHEDULE, "--cal-reps", *_CACHE, "--config", "--out"]),
}


def _parsers(command=None) -> tuple:
    """The root parser, and (subparser, its actions by dest) of command, or
    None when command is None."""
    parser = argparse.ArgumentParser(
        prog="sgdci",
        description="Confidence regions for averaged SGD via batch means",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    studies = leaf = None
    for name, (func, help_line, items) in COMMANDS.items():
        group, word = subs, name
        if name.startswith("experiment "):
            if studies is None:
                studies = subs.add_parser("experiment", help="reproduction studies"
                                          ).add_subparsers(dest="study", required=True)
            group, word = studies, name.split()[1]
        p = group.add_parser(word, help=help_line,
                             formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        actions = {}
        for item in items:
            flag, diff = (item, {}) if isinstance(item, str) else item
            kw = {**FLAGS[flag], **diff}
            if flag == "--threads":
                kw["default"] = _worker_count(None)
            action = p.add_argument(flag, **kw)
            actions[action.dest] = action
        p.set_defaults(func=func)
        if name == command:
            leaf = (p, actions)
    return parser, leaf


def build_parser() -> argparse.ArgumentParser:
    """The root parser, every subparser built from FLAGS and COMMANDS."""
    return _parsers()[0]


def _apply_config(path, parser: argparse.ArgumentParser, actions: dict) -> None:
    """Install the --config JSON object at path as defaults of parser's flags.

    Keys must name flags of the subcommand (underscore form); any other key,
    a typo or another subcommand's flag, is a usage error of that
    subcommand, so it cannot silently vanish. Each value passes its flag's
    type and choices checks as the flag's command-line text would (a list as
    comma-separated text, a switch as true or false); null keeps a flag
    whose default is None unset. A flag the config sets is no longer
    required on the command line, and command-line flags still win.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        parser.error(f"cannot read config {path}: {e}")
    if not isinstance(overrides, dict):
        parser.error(f"config {path} must hold a JSON object")
    checked = []  # every key passes before any default changes the usage line
    for key, raw in overrides.items():
        action = actions.get(key.replace("-", "_"))
        if action is None or action.dest == "config":
            parser.error(f"config {path}: unknown flag {key!r}")
        val, ok = raw, True
        if action.nargs == 0:
            ok = isinstance(raw, bool)
        elif raw is not None or action.default is not None:
            text = ",".join(map(str, raw)) if isinstance(raw, list) else str(raw)
            try:
                val = action.type(text) if action.type else text
                ok = action.choices is None or val in action.choices
            except (ValueError, argparse.ArgumentTypeError):
                ok = False
        if not ok:
            parser.error(f"config {path}: invalid value {raw!r} for {key!r}")
        checked.append((action, val))
    for action, val in checked:
        action.default = val
        action.required = action.required and val is None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the root parser has no options of its own, so argv starts with the command
    command = next((c for c in COMMANDS if c.split() == argv[:len(c.split())]), None)
    parser, leaf = _parsers(command)
    if leaf is not None:
        pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
        pre.add_argument("--config")
        try:
            path = pre.parse_known_args(argv)[0].config
        except argparse.ArgumentError:  # --config without a value: parse_args reports it
            path = None
        if path is not None:
            _apply_config(path, *leaf)
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (SgdciError, ValueError, OSError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
