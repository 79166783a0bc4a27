"""Per-layer tracing by wrapping the public functions of each sgdci module.

The benchmark, not the package, installs the spans: every public
module-level function of ``sgdci.<layer>`` and every public method of a
class defined there is replaced by a timing wrapper, in the defining module
and in every other sgdci namespace that imported it by name. A span's self
time is its duration minus the time covered by the spans it caused, so the
self times of all main-thread spans add up exactly to the time covered by
the outermost spans; ``unattributed_s`` is the rest of the traced wall time.

Spans entered on worker threads (calibration's chunk pool) run concurrently
with a main-thread span that already covers them, so they are counted but
not timed.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict

LAYERS = (
    "streams", "models", "sgd", "batching", "linalg",
    "calibration", "inference", "baselines", "experiments", "cli",
)

# Methods outside the public-name rule that still belong to a layer's cost:
# the cache reads its file in the constructor.
EXTRA_METHODS = {("calibration", "QuantileCache"): ("__init__",)}


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)    # layer -> self seconds
        self.fn_self_s = defaultdict(float)  # "layer.qualname" -> self seconds
        self.fn_calls = defaultdict(int)     # "layer.qualname" -> calls, any thread
        self.layer_calls = defaultdict(int)  # calls entering a layer from outside it
        self.counts = defaultdict(int)       # named counters set by hooks
        self.covered_s = 0.0
        self._stack = []  # main thread only: [layer, child seconds]
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._hooks = {}

    def hook(self, name):
        """Register fn(tracer, bound_args, result, seconds) for one qualname."""
        def deco(fn):
            self._hooks[name] = fn
            return fn
        return deco

    def _wrap(self, layer, qualname, fn):
        key = f"{layer}.{qualname}"
        hook = self._hooks.get(key)
        sig = inspect.signature(fn) if hook is not None else None
        stack, lock = self._stack, self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._main:
                with lock:
                    self.fn_calls[key] += 1
                    self.layer_calls[layer] += 1
                return fn(*args, **kwargs)
            outer = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                if key == "linalg.cholesky" and type(e).__name__ == "NotPositiveDefinite":
                    self.counts["linalg.not_pd"] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                own = dt - frame[1]
                self.self_s[layer] += own
                self.fn_self_s[key] += own
                with lock:
                    self.fn_calls[key] += 1
                    if outer != layer:
                        self.layer_calls[layer] += 1
                if stack:
                    stack[-1][1] += dt
                else:
                    self.covered_s += dt
            if hook is not None:
                hook(self, sig.bind(*args, **kwargs).arguments, result, dt)
            return result

        return traced

    def install(self, package):
        """Wrap every public function and method of each layer module."""
        modules = [getattr(package, name) for name in LAYERS]
        namespaces = [package] + modules + [
            getattr(package, n) for n in dir(package)
            if inspect.ismodule(getattr(package, n))
        ]
        replaced = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    extra = EXTRA_METHODS.get((layer, name), ())
                    for mname, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and (
                            not mname.startswith("_") or mname in extra
                        ):
                            setattr(obj, mname,
                                    self._wrap(layer, f"{name}.{mname}", meth))
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in replaced:
                    setattr(ns, name, replaced[id(obj)])


def _chain_steps(cfg) -> int:
    if cfg.method.startswith("sectioning"):
        return cfg.replications * cfg.m * (cfg.burn_in + cfg.T // cfg.m)
    return cfg.replications * (cfg.burn_in + cfg.T)


def standard_tracer() -> Tracer:
    """A tracer with the counters the per-layer metrics are built from."""
    t = Tracer()
    c = t.counts
    last_get = {"hit": False}  # estimate_alpha looks up the cache at most once

    @t.hook("calibration.QuantileCache.get")
    def _(t, a, result, dt):
        last_get["hit"] = result is not None
        c["calibration.cache_hits" if last_get["hit"] else "calibration.cache_misses"] += 1

    @t.hook("calibration.QuantileCache.put")
    def _(t, a, result, dt):
        c["calibration.cache_writes"] += 1

    @t.hook("calibration.estimate_alpha")
    def _(t, a, result, dt):
        if a.get("cache") is not None and not a.get("force", False) and last_get["hit"]:
            return
        spec, reps = a["spec"], a["reps"]
        normals = spec.m * spec.d + spec.d
        c["calibration.draws"] += reps
        c["calibration.normals"] += reps * normals
        c["calibration.compute_s"] += dt
        # Draws per chunk as calibration sizes them (one noise block each).
        chunk = min(reps, max(128, min(65536, (1 << 24) // (spec.m * spec.d))))
        c["calibration.chunk_mb"] = max(c["calibration.chunk_mb"],
                                        chunk * normals * 8 / 2**20)

    @t.hook("inference.expected_volume_factor")
    def _(t, a, result, dt):
        c["inference.det_draws"] += a["reps"]

    @t.hook("models.ingest_csv")
    def _(t, a, result, dt):
        c["models.rows"] += len(result[0])

    @t.hook("sgd.run_sgd")
    def _(t, a, result, dt):
        c["sgd.steps"] += a["config"].burn_in + a["config"].T

    @t.hook("experiments.run_coverage")
    def _(t, a, result, dt):
        c["experiments.chain_steps"] += _chain_steps(a["config"])
        c["experiments.degenerate_reps"] += result.degenerate

    @t.hook("experiments.run_comparison")
    def _(t, a, result, dt):
        c["experiments.failed_cells"] += sum(
            type(r).__name__ == "FailedCell" for r in result
        )

    return t


def _per(num: float, den: float, scale: float) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(t: Tracer, wall_s: float) -> dict:
    """Per-layer figures of one traced job, keyed by metric name.

    The ten ``<layer>.self_s`` plus ``trace.unattributed_s`` add up to
    ``trace.wall_s``.
    """
    c, fs, calls = t.counts, t.fn_self_s, t.fn_calls
    out = {f"{layer}.self_s": t.self_s[layer] for layer in LAYERS}
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - t.covered_s

    draws = c["calibration.draws"]
    cache_io = sum(fs[f"calibration.QuantileCache.{n}"] for n in ("__init__", "get", "put"))
    out.update({
        "calibration.draws": draws,
        "calibration.us_per_draw": _per(c["calibration.compute_s"], draws, 1e6),
        "calibration.rescued_draws": calls["calibration.simulate_limit_draw"],
        "calibration.chunk_mb": c["calibration.chunk_mb"],
        "calibration.cache_hits": c["calibration.cache_hits"],
        "calibration.cache_misses": c["calibration.cache_misses"],
        "calibration.cache_writes": c["calibration.cache_writes"],
        "calibration.cache_io_s": cache_io,
        "calibration.f_quantile_calls": calls["calibration.f_quantile"],
        "calibration.f_quantile_s": fs["calibration.f_quantile"],
        # Inputs of calibration.rng_share, which needs the RNG floor measured
        # in another process; the caller removes them.
        "_calibration.normals": c["calibration.normals"],
        "_calibration.compute_s": c["calibration.compute_s"],
    })

    det_draws = c["inference.det_draws"]
    vf_s = fs["inference.expected_volume_factor"]
    out.update({
        "inference.det_draws": det_draws,
        "inference.volume_factor_s": vf_s,
        "inference.us_per_det_draw": _per(vf_s, det_draws, 1e6),
        "inference.region_s": sum(fs[f"inference.{n}"] for n in (
            "build_region", "marginal_intervals", "region_volume")),
    })

    rows, ingest = c["models.rows"], fs["models.ingest_csv"]
    grads = calls["models.linear_gradient"] + calls["models.logistic_gradient"]
    out.update({
        "models.rows": rows,
        "models.ingest_s": ingest,
        "models.us_per_row": _per(ingest, rows, 1e6),
        "models.gradient_calls": grads,
        "models.gradient_s": fs["models.linear_gradient"] + fs["models.logistic_gradient"],
    })

    steps = c["sgd.steps"]
    out.update({
        "sgd.steps": steps,
        "sgd.us_per_step": _per(t.self_s["sgd"], steps, 1e6),
    })

    feeds, feed_s = calls["batching.BatchAccumulator.feed"], fs["batching.BatchAccumulator.feed"]
    out.update({
        "batching.feeds": feeds,
        "batching.feed_s": feed_s,
        "batching.us_per_feed": _per(feed_s, feeds, 1e6),
        "batching.plan_s": fs["batching.make_plan"] + fs["batching.ideal_weights"],
    })

    chain = c["experiments.chain_steps"]
    out.update({
        "experiments.chain_steps": chain,
        "experiments.ns_per_chain_step": _per(t.self_s["experiments"], chain, 1e9),
        "experiments.degenerate_reps": c["experiments.degenerate_reps"],
        "experiments.failed_cells": c["experiments.failed_cells"],
    })

    lcalls = t.layer_calls["linalg"]
    out.update({
        "linalg.calls": lcalls,
        "linalg.us_per_call": _per(t.self_s["linalg"], lcalls, 1e6),
        "linalg.not_pd": c["linalg.not_pd"],
    })
    return out
