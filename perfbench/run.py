"""sgdci benchmark: two workloads, end-to-end metrics, a per-layer trace.

    python3 perfbench/run.py --workload volume --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory. One run prepares the workload's inputs from the seed, then starts
one fresh interpreter that runs one job after another for ``--seconds``
(a closed loop: one caller, and at most nproc worker threads inside a job).
It reports the median over the jobs, and the median set-up time of that
interpreter and of a few import-only ones. With ``--trace 1`` it also runs
one traced job, the layer probe pass and ``-X importtime``, and reports the
per-layer metrics instead. Every job's outputs are checked; the last line of
standard output is the JSON result.

Other modes: ``--workload all`` runs both in turn and prints one table;
``--self-test`` shows that corrupted outputs fail their checks;
``--record-reference`` records the default-seed outputs of this commit;
``--write-benchmark-json`` writes ``BENCHMARK.json`` from the tables below.
See README.md in this directory.
"""

import os

# One BLAS thread per process: the job's own worker threads are the only
# parallelism, capped at nproc.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from layertrace import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_SECONDS = 50
CHILD_TIMEOUT_S = 170
# Fresh interpreters timed for setup_s, besides the one that runs the jobs.
SETUP_SAMPLES = 4

END_TO_END = [
    # name, unit, better, bound
    ("wall_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

HIGHER = {"calibration.cache_hits", "calibration.rng_share"}
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.wall_s", "s"), ("trace.unattributed_s", "s"), ("trace.overhead_s", "s"),
       ("streams.ns_per_normal", "ns"),
       ("calibration.draws", "count"), ("calibration.us_per_draw", "us"),
       ("calibration.rng_share", "ratio"), ("calibration.rescued_draws", "count"),
       ("calibration.chunk_mb", "MB"), ("calibration.cache_hits", "count"),
       ("calibration.cache_misses", "count"), ("calibration.cache_writes", "count"),
       ("calibration.cache_io_s", "s"), ("calibration.f_quantile_calls", "count"),
       ("calibration.f_quantile_s", "s"),
       ("inference.det_draws", "count"), ("inference.volume_factor_s", "s"),
       ("inference.us_per_det_draw", "us"), ("inference.region_s", "s"),
       ("models.rows", "count"), ("models.ingest_s", "s"), ("models.us_per_row", "us"),
       ("models.gradient_calls", "count"), ("models.gradient_s", "s"),
       ("sgd.steps", "count"), ("sgd.us_per_step", "us"),
       ("batching.feeds", "count"), ("batching.feed_s", "s"),
       ("batching.us_per_feed", "us"), ("batching.plan_s", "s"),
       ("experiments.chain_steps", "count"), ("experiments.ns_per_chain_step", "ns"),
       ("experiments.degenerate_reps", "count"), ("experiments.failed_cells", "count"),
       ("linalg.calls", "count"), ("linalg.us_per_call", "us"), ("linalg.not_pd", "count")]
    + [(f"{layer}.import_s", "s") for layer in LAYERS] + [("scipy.stats.import_s", "s")]
    + [(f"probe.alpha_us_per_draw.d{d}_m{m}", "us")
       for d, m in ((1, 10), (1, 100), (2, 40), (5, 100))]
    + [("probe.sgd_feed_us_per_step", "us"), ("probe.det_study_ns_per_chain_step.d20", "ns"),
       ("probe.quad_form_inv_us.d2", "us"), ("probe.quad_form_inv_us.d20", "us")]
)
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

WHY = {
    "volume": "cold calibration and the determinant pass of the volume factor study, "
              "noise blocks from 3 MB to 135 MB around the 105 MB L3, cache writes",
    "coverage_infer": "run_comparison (six methods, R=200) then sgdci infer on a 5e4-row "
                      "CSV: replicated and serial SGD, CSV parsing, batch means, warm cache",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("SGDCI_CACHE", None)
    return env


def spawn(args, timeout=CHILD_TIMEOUT_S, stderr_out=False):
    """Run a child interpreter; return its last stdout line parsed, or None."""
    try:
        proc = subprocess.run([sys.executable] + args, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"child {args[:2]} timed out after {timeout} s", file=sys.stderr)
        return None
    if stderr_out:
        return proc.stderr
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_job(params_path, seconds, trace):
    """The run's jobs in one fresh interpreter (one traced job with trace)."""
    return spawn([os.path.join(HERE, "job.py"), params_path, repr(time.monotonic()),
                  repr(seconds), "1" if trace else "0"])


def setup_seconds():
    """Seconds from the start of a fresh interpreter until ``import sgdci.cli``
    returns, as job.py measures it."""
    t_spawn = time.monotonic()
    t_done = spawn(["-c", "import time, sgdci.cli; print(repr(time.monotonic()))"])
    return None if t_done is None else t_done - t_spawn


def import_seconds():
    """Median cumulative import seconds per sgdci module, from -X importtime."""
    pat = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")
    samples = {}
    for _ in range(3):
        err = spawn(["-X", "importtime", "-c", "import sgdci.cli"], stderr_out=True) or ""
        for line in err.splitlines():
            mt = pat.match(line)
            if mt:
                samples.setdefault(mt.group(2), []).append(int(mt.group(1)) / 1e6)
    out = {f"{layer}.import_s": statistics.median(samples.get(f"sgdci.{layer}", [0.0]))
           for layer in LAYERS}
    out["scipy.stats.import_s"] = statistics.median(samples.get("scipy.stats", [0.0]))
    return out


def provenance(seed, threads):
    import numpy
    import scipy

    def read(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = re.search(r"^model name\s*:\s*(.*)$", cpuinfo, re.M)
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level, kind = read(f"{base}/{idx}/level"), read(f"{base}/{idx}/type")
        if level and kind:
            caches[f"L{level}" + ("d" if kind == "Data" else "i" if kind == "Instruction" else "")] = \
                read(f"{base}/{idx}/size")
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "sgdci")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model.group(1) if model else platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": BLAS_ENV,
        "worker_threads": threads,
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def median_metrics(jobs, work):
    return {
        "wall_s": statistics.median(j["wall_s"] for j in jobs),
        "work_per_s": statistics.median(work / j["wall_s"] for j in jobs),
        "cpu_s": statistics.median(j["cpu_s"] for j in jobs),
    }


def prepare(wl, seed, threads, work_root):
    """Make the workload's inputs and write the parameters its jobs read."""
    import sgdci

    work = os.path.join(work_root, wl.name)
    os.makedirs(work, exist_ok=True)
    params = wl.prepare(sgdci, seed, work, threads)
    params["workload"] = wl.name
    path = os.path.join(work, "params.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(params, fh)
    return params, path


def run_workload(name, seed, seconds, trace, work_root):
    """One benchmark run; returns (result, record)."""
    from workloads import load_reference, self_test

    wl = WORKLOADS[name]
    threads = len(os.sched_getaffinity(0))
    params, params_path = prepare(wl, seed, threads, work_root)
    ref = load_reference(wl, seed)
    missed = self_test()

    # Half the set-up samples before the jobs and half after, so that they
    # span the run as the job times do.
    setups = [setup_seconds() for _ in range(0 if trace else SETUP_SAMPLES // 2)]
    run = run_job(params_path, seconds, trace=False)
    setups += [setup_seconds() for _ in range(0 if trace else SETUP_SAMPLES - len(setups))]
    traced = run_job(params_path, 0, trace=True) if trace else None
    jobs = run["jobs"] if run else []
    if run:
        setups.append(run["setup_s"])
    setups = [x for x in setups if x is not None]

    verdicts = []
    if run is None:
        verdicts += ["job failed"] * wl.ops()
    if trace and traced is None:
        verdicts += ["traced job failed"] * wl.ops()
    for job in jobs + (traced["jobs"] if traced else []):
        if not job["warm_cache_unchanged"]:
            verdicts += ["warm cache missed: calibration ran"] * wl.ops()
        else:
            verdicts += wl.check(job["outputs"], params, ref)
    failures = sorted({v for v in verdicts if v is not None})
    n_failed = sum(v is not None for v in verdicts)
    metrics = {}
    if jobs and not trace:
        metrics = median_metrics(jobs, wl.work())
        metrics["peak_rss_mb"] = run["peak_rss_mb"]
        metrics["setup_s"] = statistics.median(setups)
    elif jobs and traced is not None:
        layers = dict(traced["layers"])
        normals = layers.pop("_calibration.normals")
        compute_s = layers.pop("_calibration.compute_s")
        probe = spawn([os.path.join(HERE, "probe.py"), str(seed)]) or {}
        floor = probe.get("streams.ns_per_normal", 0.0)
        layers["calibration.rng_share"] = normals * floor * 1e-9 / compute_s if compute_s else 0.0
        layers["trace.overhead_s"] = (traced["jobs"][0]["wall_s"]
                                      - statistics.median(j["wall_s"] for j in jobs))
        metrics = {**layers, **probe, **import_seconds()}
    wanted = [n for n, *_ in (PER_LAYER if trace else END_TO_END)]
    if set(wanted) - set(metrics):
        failures.append(f"missing metrics: {sorted(set(wanted) - set(metrics))}")
    metrics = {n: metrics[n] for n in wanted if n in metrics}

    correct = n_failed == 0 and not missed and len(failures) == 0
    result = {
        "correct": correct,
        "attempted": len(verdicts),
        "failed": n_failed,
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()},
    }
    record = {
        "workload": name, "work_unit": wl.work_unit, "work": wl.work(),
        "jobs": len(jobs), "job_wall_s": [j["wall_s"] for j in jobs],
        "setup_samples_s": setups, "trace": trace, "reference_compared": ref is not None,
        "self_test_missed": missed, "failures": failures,
        "failed_frac": n_failed / len(verdicts),
        "provenance": provenance(seed, threads),
    }
    return result, record


def show(name, result, record):
    print(f"{name}: {record['jobs']} jobs, work {record['work']:g} {record['work_unit']} per job")
    for n, m in result["metrics"].items():
        print(f"  {n:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<40} {record['failed_frac']:>14.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for reason in record["failures"]:
        print(f"  FAILED: {reason}")
    if record["self_test_missed"]:
        print(f"  SELF-TEST MISSED: {record['self_test_missed']}")


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "higher" if n in HIGHER else "lower"}
                      for n, u in PER_LAYER],
    }


def portable(params):
    """The parameters without file paths and machine settings."""
    drop = ("work", "data", "warm_cache", "warm_caches", "threads", "workload")
    return {k: portable(v) if isinstance(v, dict) else v
            for k, v in params.items() if k not in drop}


def record_reference(work_root):
    """Store one job's outputs per workload at the default seed."""
    from workloads import DEFAULT_SEED, REFERENCE_PATH

    refs = {}
    for name, wl in WORKLOADS.items():
        params, path = prepare(wl, DEFAULT_SEED, len(os.sched_getaffinity(0)), work_root)
        run = run_job(path, 0, trace=False)
        if run is None:
            return 1
        refs[name] = {"config": wl.config, "params": portable(params),
                      "outputs": run["jobs"][0]["outputs"]}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    ap.add_argument("--write-benchmark-json", action="store_true")
    args = ap.parse_args(argv)
    # On SIGTERM unwind normally, so that the running child is killed and
    # waited for and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            json.dump(benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.self_test:
        from workloads import self_test

        missed = self_test()
        print("self-test:", "every corruption detected" if not missed else f"missed {missed}")
        return 1 if missed else 0
    if not os.path.isfile(os.path.join(SRC, "sgdci", "__init__.py")):
        print(f"no sgdci package under {SRC}; nothing to benchmark", file=sys.stderr)
        return 2
    if args.workload is None and not args.record_reference:
        ap.error("--workload is required")
    sys.path.insert(0, SRC)
    work_root = os.path.join(HERE, "_work", str(os.getpid()))
    os.makedirs(work_root)
    try:
        if args.record_reference:
            return record_reference(work_root)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                          work_root)
            show(name, result, record)
            print("record " + json.dumps({**record, "metrics": result["metrics"]}))
            results[name] = result
        if len(names) == 1:
            final = results[names[0]]
        else:
            final = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{n}": m for w, r in results.items()
                            for n, m in r["metrics"].items()},
            }
        print(json.dumps(final))
        return 0
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
