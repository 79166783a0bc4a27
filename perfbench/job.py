"""The timed jobs of one benchmark run, in a fresh interpreter.

    python3 perfbench/job.py PARAMS_JSON T_SPAWN SECONDS TRACE

PARAMS_JSON is the file written by the harness's set-up and T_SPAWN is the
harness's ``time.monotonic()`` just before it started this process (the
clock is system-wide, so set-up time runs from process start until
``import sgdci.cli`` returns). The process then runs the workload's job
again and again, each timed on its own, and starts no job that would end
past SECONDS after the first one began; it runs at least one. With TRACE
1 it runs one job with the per-layer spans installed instead. The last line
of standard output is one JSON record.
"""

import json
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    """High-water RSS of this process image. ru_maxrss would also count the
    parent's RSS at the time of the fork that started this interpreter."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _one(sgdci, wl, p, index):
    warm = p.get("warm_caches", [])
    warm_before = [_read(path) for path in warm]
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    raw = wl.job(sgdci, p, index)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        # A warm cache that changed was missed, so calibration ran.
        "warm_cache_unchanged": [_read(path) for path in warm] == warm_before,
        "outputs": wl.to_json(raw, p, index),
    }


def main(argv) -> int:
    params_path, t_spawn, seconds, trace = argv[0], float(argv[1]), float(argv[2]), argv[3] == "1"
    import sgdci.cli  # noqa: F401  (the import whose cost setup_s measures)
    setup_s = time.monotonic() - t_spawn
    import sgdci

    from workloads import WORKLOADS

    with open(params_path, encoding="utf-8") as fh:
        p = json.load(fh)
    wl = WORKLOADS[p["workload"]]
    record = {"setup_s": setup_s, "jobs": [], "layers": None}
    if trace:
        from layertrace import layer_metrics, standard_tracer

        tracer = standard_tracer()
        tracer.install(sgdci)
        job = _one(sgdci, wl, p, "traced")  # names files apart from the timed jobs'
        record["jobs"].append(job)
        record["layers"] = layer_metrics(tracer, job["wall_s"])
    else:
        t0 = time.monotonic()
        while True:
            job = _one(sgdci, wl, p, len(record["jobs"]))
            record["jobs"].append(job)
            if time.monotonic() - t0 + job["wall_s"] > seconds:
                break
    record["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
