"""Command-line surface: calibration, single-dataset inference, experiments.

Exit codes: 0 on success, 1 on a domain error (the message names the error
type), 2 on a usage error. Every artifact written by a subcommand embeds
the full effective configuration, so it can be regenerated byte-for-byte
from its own header.

A JSON config file passed with --config supplies defaults for any flag of
the invoked subcommand (keys use underscores, e.g. "cal_reps"); flags given
on the command line win. The environment variable SGDCI_CACHE supplies a
quantile cache path when --cache is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .batching import ALLOCATION_KINDS, Allocation, BatchMeansSummary, ideal_weights, make_plan
from .calibration import (
    LimitDrawSpec,
    QuantileCache,
    estimate_alpha,
    spec_from_plan,
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
from .streams import derive_stream

CACHE_ENV = "SGDCI_CACHE"


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return v


def _weights_list(text: str) -> tuple:
    try:
        vals = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None
    return vals


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _add_alloc_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alloc", choices=ALLOCATION_KINDS, default="ibs",
                   help="batch size allocation")
    p.add_argument("--r", type=float, default=2.0 / 3.0,
                   help="allocation exponent for ibs/dbs")
    p.add_argument("--weights", type=_weights_list, default=None,
                   help="comma-separated positive weights for --alloc custom "
                        "(normalized internally)")


def _add_cache_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache", default=None,
                   help=f"quantile cache file (default: ${CACHE_ENV} if set)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore any cache and recompute")
    p.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1,
                   help="worker thread cap; results do not depend on it")


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--step-a", type=float, default=DEFAULT_A,
                   help="step size prefactor a in a * t^(-r)")
    p.add_argument("--step-r", type=float, default=DEFAULT_R,
                   help="step size exponent, must lie in (1/2, 1)")
    p.add_argument("--burn-in", type=int, default=0,
                   help="steps discarded before averaging starts")


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
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config")}
    for k, v in cfg.items():
        if isinstance(v, tuple):
            cfg[k] = list(v)
    return cfg


def _write_json(path, doc) -> None:
    if path is None:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def _cmd_calibrate(args) -> int:
    alloc = _alloc_from(args)
    if alloc.kind == "custom":
        m = len(args.weights)
        if args.m is not None and args.m != m:
            raise ValueError(f"--m {args.m} disagrees with {m} custom weights")
    else:
        if args.m is None:
            raise ValueError("--m is required unless --alloc custom")
        m = args.m
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
    return 0


def _cmd_infer(args) -> int:
    rows, oracle = ingest_csv(args.data, args.model)
    n = len(rows)
    if args.burn_in >= n:
        raise ValueError(f"burn-in {args.burn_in} consumes all {n} rows")
    T = n - args.burn_in
    config = SgdRunConfig(T=T, burn_in=args.burn_in,
                          schedule=StepSchedule(a=args.step_a, r=args.step_r))
    plan = make_plan(T, args.m, _alloc_from(args))
    d = oracle.dim
    xi, xbar = single_run(oracle, config, derive_stream(args.seed), plan.boundaries)
    summary = BatchMeansSummary(plan=plan, xi=xi, xbar=xbar, d=d)
    cache = _cache_from(args)
    doc = {
        "config": _effective_config(args),
        "n_rows": n,
        "T": T,
        "d": d,
        "center": list(summary.xbar),
    }
    if args.mode in ("joint", "both"):
        sq = estimate_alpha(
            spec_from_plan(plan, d), args.delta, args.cal_reps, args.seed,
            cache=cache, threads=args.threads,
        )
        region = build_region(summary, sq)
        doc["joint"] = {
            "scale": region.scale,
            "shape": [list(row) for row in np.asarray(region.shape.entries)],
            "alpha_hat": sq.alpha_hat,
            "volume": region_volume(region),
        }
    if args.mode in ("marginal", "both"):
        sq1 = estimate_alpha(
            LimitDrawSpec(1, plan.m, tuple(plan.weights)), args.delta,
            args.cal_reps, args.seed,
            cache=cache, threads=args.threads,
        )
        iv = marginal_intervals(summary, sq1)
        doc["marginal"] = {
            "lo": list(iv.lo),
            "hi": list(iv.hi),
            "sigma": list(iv.sigma),
            "alpha_hat_1d": sq1.alpha_hat,
        }
    _write_json(args.out, doc)
    return 0


def _cmd_exp_coverage(args) -> int:
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
    return 0


def _cmd_exp_volume(args) -> int:
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
    return 0


def _cmd_exp_detcov(args) -> int:
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
    return 0


def _cmd_compare(args) -> int:
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
    return 0


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = argparse.ArgumentParser(
        prog="sgdci",
        description="Confidence regions for averaged SGD via batch means",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cal = sub.add_parser("calibrate", formatter_class=fmt,
                           help="Monte Carlo calibration of the scaling quantile")
    p_cal.add_argument("--d", type=_positive_int, required=True, help="dimension")
    p_cal.add_argument("--m", type=_positive_int, default=None, help="batch count")
    _add_alloc_flags(p_cal)
    p_cal.add_argument("--delta", type=float, default=0.05, help="miss probability")
    p_cal.add_argument("--reps", type=_positive_int, default=DEFAULT_CAL_REPS,
                       help="Monte Carlo draws")
    p_cal.add_argument("--seed", type=int, default=0, help="base seed")
    _add_cache_flags(p_cal)
    p_cal.add_argument("--config", default=None, help="JSON file of flag defaults")
    p_cal.add_argument("--out", default=None, help="JSON artifact path")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_inf = sub.add_parser("infer", formatter_class=fmt,
                           help="confidence region from a CSV dataset")
    p_inf.add_argument("--data", required=True, help="CSV with header a_1,...,a_d,b")
    p_inf.add_argument("--model", choices=list(ORACLES), required=True)
    p_inf.add_argument("--m", type=_positive_int, default=30, help="batch count")
    _add_alloc_flags(p_inf)
    p_inf.add_argument("--delta", type=float, default=0.05, help="miss probability")
    p_inf.add_argument("--mode", choices=["joint", "marginal", "both"],
                       default="joint", help="which region document to produce")
    p_inf.add_argument("--cal-reps", type=_positive_int, default=DEFAULT_CAL_REPS,
                       help="calibration draws")
    p_inf.add_argument("--seed", type=int, default=0, help="calibration seed")
    _add_schedule_flags(p_inf)
    _add_cache_flags(p_inf)
    p_inf.add_argument("--config", default=None, help="JSON file of flag defaults")
    p_inf.add_argument("--out", default=None,
                       help="JSON artifact path (stdout if omitted)")
    p_inf.set_defaults(func=_cmd_infer)

    p_exp = sub.add_parser("experiment", help="reproduction studies")
    exp_sub = p_exp.add_subparsers(dest="study", required=True)

    p_cov = exp_sub.add_parser("coverage", formatter_class=fmt,
                               help="empirical coverage of one method")
    p_cov.add_argument("--model", choices=list(ORACLES), required=True)
    p_cov.add_argument("--d", type=_positive_int, required=True)
    p_cov.add_argument("--T", type=_positive_int, required=True)
    p_cov.add_argument("--method", default="bm_joint", choices=METHODS)
    p_cov.add_argument("--m", type=_positive_int, required=True)
    _add_alloc_flags(p_cov)
    p_cov.add_argument("--delta", type=float, default=0.05)
    p_cov.add_argument("--reps", type=_positive_int, default=DESK_REPLICATIONS,
                       help="replications")
    p_cov.add_argument("--seed", type=int, default=0)
    _add_schedule_flags(p_cov)
    p_cov.add_argument("--cal-reps", type=_positive_int, default=DEFAULT_CAL_REPS)
    p_cov.add_argument("--cal-seed", type=int, default=DEFAULT_CAL_SEED)
    _add_cache_flags(p_cov)
    p_cov.add_argument("--config", default=None, help="JSON file of flag defaults")
    p_cov.add_argument("--out", default=None, help="CSV artifact path")
    p_cov.set_defaults(func=_cmd_exp_coverage)

    p_vol = exp_sub.add_parser("volume", formatter_class=fmt,
                               help="expected volume factor across batch counts")
    p_vol.add_argument("--d", type=_positive_int, required=True)
    p_vol.add_argument("--m-list", type=_int_list, required=True,
                       help="comma-separated batch counts")
    _add_alloc_flags(p_vol)
    p_vol.add_argument("--delta", type=float, default=0.05)
    p_vol.add_argument("--reps", type=_positive_int, default=DEFAULT_CAL_REPS,
                       help="calibration draws per cell")
    p_vol.add_argument("--det-reps", type=_positive_int, default=None,
                       help="determinant draws per cell (default: --reps)")
    p_vol.add_argument("--seed", type=int, default=0)
    _add_cache_flags(p_vol)
    p_vol.add_argument("--config", default=None, help="JSON file of flag defaults")
    p_vol.add_argument("--out", default=None, help="CSV artifact path")
    p_vol.set_defaults(func=_cmd_exp_volume)

    p_det = exp_sub.add_parser("detcov", formatter_class=fmt,
                               help="scaled covariance determinants across replications")
    p_det.add_argument("--model", choices=list(ORACLES), required=True)
    p_det.add_argument("--d", type=_positive_int, required=True)
    p_det.add_argument("--m", type=_positive_int, required=True)
    p_det.add_argument("--T", type=_positive_int, required=True)
    _add_alloc_flags(p_det)
    p_det.add_argument("--reps", type=_positive_int, default=200,
                       help="replications")
    p_det.add_argument("--seed", type=int, default=0)
    _add_schedule_flags(p_det)
    p_det.add_argument("--config", default=None, help="JSON file of flag defaults")
    p_det.add_argument("--out", default=None, help="CSV artifact path")
    p_det.set_defaults(func=_cmd_exp_detcov)

    p_cmp = sub.add_parser("compare", formatter_class=fmt,
                           help="all methods on one problem, shared budget")
    p_cmp.add_argument("--model", choices=list(ORACLES), required=True)
    p_cmp.add_argument("--d", type=_positive_int, required=True)
    p_cmp.add_argument("--T", type=_positive_int, required=True)
    p_cmp.add_argument("--m", type=_positive_int, required=True)
    _add_alloc_flags(p_cmp)
    p_cmp.add_argument("--delta", type=float, default=0.05)
    p_cmp.add_argument("--reps", type=_positive_int, default=DESK_REPLICATIONS,
                       help="replications per method")
    p_cmp.add_argument("--seed", type=int, default=0)
    _add_schedule_flags(p_cmp)
    p_cmp.add_argument("--cal-reps", type=_positive_int, default=DEFAULT_CAL_REPS)
    _add_cache_flags(p_cmp)
    p_cmp.add_argument("--config", default=None, help="JSON file of flag defaults")
    p_cmp.add_argument("--out", default=None, help="CSV artifact path")
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def _invoked_parser(parser: argparse.ArgumentParser, args) -> argparse.ArgumentParser:
    """The subcommand parser args were parsed by (e.g. that of experiment volume)."""
    while True:
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            return parser
        parser = subs[0].choices[getattr(args, subs[0].dest)]


def _apply_config_defaults(parser: argparse.ArgumentParser, args) -> None:
    """Install the --config JSON object as defaults of the flags it names.

    Keys must name flags of the invoked subcommand (underscore form); any
    other key, a typo or another subcommand's flag, is a usage error of that
    subcommand, so it cannot silently vanish. Each value passes its flag's
    type and choices checks as the flag's command-line text would (a list
    as comma-separated text, a switch as true or false); null keeps a flag
    whose default is None unset. Command-line flags still win.
    """
    parser = _invoked_parser(parser, args)
    path = args.config
    try:
        with open(path, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        parser.error(f"cannot read config {path}: {e}")
    if not isinstance(overrides, dict):
        parser.error(f"config {path} must hold a JSON object")
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    cleaned = {}
    for key, raw in overrides.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
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
        cleaned[action.dest] = val
    parser.set_defaults(**cleaned)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        _apply_config_defaults(parser, args)
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SgdciError, ValueError, OSError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
