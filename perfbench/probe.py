"""Layer probe pass: single-layer spot timings through public calls.

    python3 perfbench/probe.py SEED

Each probe times one public entry point at a fixed small size, with tracing
off, the cache off and one thread, so its figure is one layer's cost per
unit of work. The figures are per-layer metrics and never gate. The last
line of standard output is one JSON object of metric name to value.
"""

import json
import statistics
import sys
import time

import numpy as np

ALPHA_CELLS = ((1, 10), (1, 100), (2, 40), (5, 100))
ALPHA_REPS = 20_000
SGD_T, SGD_D, SGD_M = 20_000, 5, 30
DET_D, DET_M, DET_T, DET_R = 20, 30, 2_000, 200
QUAD_CALLS = {2: 2_000, 20: 300}


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def rng_floor_ns(seed) -> float:
    """Nanoseconds per standard normal from the generator the package uses."""
    gen = np.random.Generator(np.random.PCG64(seed))
    buf = np.empty(1 << 21)
    times = [_timed(lambda: gen.standard_normal(out=buf)) for _ in range(7)]
    return statistics.median(times) / buf.size * 1e9


def main(seed: int) -> dict:
    from sgdci import batching, calibration, experiments, linalg, models, sgd, streams

    ibs = batching.Allocation(kind="ibs", r=2.0 / 3.0)
    out = {"streams.ns_per_normal": rng_floor_ns(seed)}

    calibration.estimate_alpha(  # fault in allocator pages before timing
        calibration.LimitDrawSpec(1, 10, tuple(batching.ideal_weights(10, ibs))),
        0.05, calibration.MIN_REPS, seed)
    for d, m in ALPHA_CELLS:
        spec = calibration.LimitDrawSpec(d, m, tuple(batching.ideal_weights(m, ibs)))
        s = _timed(lambda: calibration.estimate_alpha(spec, 0.05, ALPHA_REPS, seed, threads=1))
        out[f"probe.alpha_us_per_draw.d{d}_m{m}"] = s / ALPHA_REPS * 1e6

    oracle = models.linear_oracle(models.linspace_params(SGD_D))
    acc = batching.accumulate(batching.make_plan(SGD_T, SGD_M, ibs), SGD_D)
    s = _timed(lambda: sgd.run_sgd(oracle, sgd.SgdRunConfig(T=SGD_T),
                                   streams.derive_stream(seed), observer=acc.feed))
    acc.finalize()
    out["probe.sgd_feed_us_per_step"] = s / SGD_T * 1e6

    s = _timed(lambda: experiments.run_det_study(DET_D, DET_M, DET_T, "linear", DET_R, seed))
    out[f"probe.det_study_ns_per_chain_step.d{DET_D}"] = s / (DET_R * DET_T) * 1e9

    rng = np.random.default_rng([seed, 2])
    for d, n in QUAD_CALLS.items():
        g = rng.standard_normal((d, d))
        S = linalg.SymMatrix(g @ g.T / d + np.eye(d))
        v = rng.standard_normal(d)
        s = _timed(lambda: [linalg.quad_form_inv(S, v) for _ in range(n)])
        out[f"probe.quad_form_inv_us.d{d}"] = s / n * 1e6
    return out


if __name__ == "__main__":
    print(json.dumps(main(int(sys.argv[1]))))
