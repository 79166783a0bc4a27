"""The benchmark workloads: inputs, the timed job, and output checks.

There are two: ``volume`` and ``coverage_infer``; the latter runs the
``coverage`` and ``infer_csv`` parts below one after the other. Each has
four methods. ``prepare`` runs once per benchmark run in the harness process
and makes the inputs from the seed (a CSV, a warmed quantile cache).
``job`` is the timed part and runs in a fresh interpreter; it reaches the
package only through its public API and CLI. ``to_json`` turns the job's
result into plain data, and ``check`` returns one verdict per operation:
``None`` when the output is correct, else the reason it is not.

Sizes are fixed here and recorded with the reference outputs, so a change
of size cannot be compared against a stale reference.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

DEFAULT_SEED = 0
DELTA = 0.05
ALLOC_R = 2.0 / 3.0
CAL_REPS = 200_000
STEP_A, STEP_R = 0.5, 2.0 / 3.0
# Float reordering (threads, SIMD width, BLAS kernels) moves results by a
# few ulps; this leaves many orders of magnitude of room and still catches
# any change of algorithm or stream.
RTOL = 1e-9
# Monte Carlo error allowed before a rise of the volume factor in m counts.
VOLUME_SE_SLACK = 3.0

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


def _close(a, b, rtol=RTOL, atol=1e-12) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


def _ibs(sgdci):
    return sgdci.batching.Allocation(kind="ibs", r=ALLOC_R)


class Volume:
    """Volume factor study: cold calibration plus the determinant pass."""

    name = "volume"
    work_unit = "limit draws"
    # reps == det_reps per dimension; d=5 keeps one noise block above L3.
    reps = {1: 100_000, 2: 25_000, 5: 34_000}
    config = {"reps": reps, "m_list": "d+5,20,40,100", "alloc": "ibs",
              "r": ALLOC_R, "delta": DELTA}

    @staticmethod
    def m_list(d):
        return [d + 5, 20, 40, 100]

    def prepare(self, sgdci, seed, work, threads):
        return {"seed": seed, "threads": threads, "work": work}

    def job(self, sgdci, p, index):
        # A fresh cache file per job, so every cell calibrates and is written.
        cache = sgdci.calibration.QuantileCache(
            os.path.join(p["work"], f"volume_cache_{index}.json"))
        rows = []
        for d, reps in self.reps.items():
            rows += sgdci.experiments.run_volume_study(
                d, self.m_list(d), _ibs(sgdci), DELTA, reps, p["seed"],
                det_reps=reps, cache=cache, threads=p["threads"],
            )
        sgdci.experiments.write_volume_csv(
            rows, os.path.join(p["work"], f"volume_{index}.csv"))
        return rows

    def to_json(self, rows, p, index):
        return [{"d": r.d, "m": r.m, "v": r.factor.estimate, "se": r.factor.std_error,
                 "alpha": r.alpha.alpha_hat, "ci_low": r.alpha.ci_low,
                 "ci_high": r.alpha.ci_high, "e_det": r.factor.e_det_sqrt}
                for r in rows]

    def work(self):
        return sum(2 * reps * len(self.m_list(d)) for d, reps in self.reps.items())

    def ops(self):
        return sum(len(self.m_list(d)) for d in self.reps)

    def check(self, out, p, ref):
        cells = [(d, m) for d in self.reps for m in self.m_list(d)]
        if [(c["d"], c["m"]) for c in out] != cells:
            return ["cells missing or out of order"] * len(cells)
        bad = [None] * len(cells)
        for i, c in enumerate(out):
            if not (math.isfinite(c["v"]) and c["v"] > 0 and c["se"] >= 0):
                bad[i] = f"volume factor {c['v']} or error {c['se']} invalid"
            elif not c["ci_low"] <= c["alpha"] <= c["ci_high"]:
                bad[i] = "quantile outside its own confidence interval"
            elif ref is not None and not all(
                _close(c[k], ref[i][k]) for k in ("v", "se", "alpha", "ci_low", "ci_high", "e_det")
            ):
                bad[i] = "differs from the reference output"
        for i in range(len(out) - 1):
            a, b = out[i], out[i + 1]
            if a["d"] == b["d"] and not (
                b["v"] < a["v"] + VOLUME_SE_SLACK * math.hypot(a["se"], b["se"])
            ):
                bad[i + 1] = bad[i + 1] or f"volume factor rises from m={a['m']} to m={b['m']}"
        return bad


class InferCsv:
    """``sgdci infer`` on a CSV: parsing, serial SGD, batch means, cache reads."""

    name = "infer_csv"
    rows, d, m = 50_000, 5, 30
    config = {"rows": rows, "d": d, "m": m, "alloc": "ibs", "r": ALLOC_R,
              "delta": DELTA, "cal_reps": CAL_REPS, "step": [STEP_A, STEP_R]}

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        a = rng.standard_normal((self.rows, self.d))
        b = a @ np.linspace(0.0, 1.0, self.d) + rng.standard_normal(self.rows)
        return a, b

    def prepare(self, sgdci, seed, work, threads):
        a, b = self.inputs(seed)
        data = os.path.join(work, "infer.csv")
        header = ",".join([f"a_{k}" for k in range(1, self.d + 1)] + ["b"])
        np.savetxt(data, np.column_stack([a, b]), delimiter=",", header=header,
                   comments="", fmt="%.17g")
        # Warm the cache under the key the CLI will look up: the weights of
        # the integer plan at this T, not the continuum ibs weights.
        cache_path = os.path.join(work, "infer_cache.json")
        cal = sgdci.calibration
        cache = cal.QuantileCache(cache_path)
        plan = sgdci.batching.make_plan(self.rows, self.m, _ibs(sgdci))
        joint = cal.estimate_alpha(cal.spec_from_plan(plan, self.d), DELTA, CAL_REPS,
                                   seed, cache=cache, threads=threads)
        marg = cal.estimate_alpha(cal.LimitDrawSpec(1, plan.m, tuple(plan.weights)),
                                  DELTA, CAL_REPS, seed, cache=cache, threads=threads)
        return {"seed": seed, "threads": threads, "work": work, "data": data,
                "warm_cache": cache_path,
                "alpha": [joint.alpha_hat, joint.ci_low, joint.ci_high],
                "alpha_1d": [marg.alpha_hat, marg.ci_low, marg.ci_high],
                "replay": self.replay(sgdci, a, b)}

    def replay(self, sgdci, a, b):
        """Mean of the iterates and per-coordinate batch-means sigma, by an
        independent loop over the same rows."""
        plan = sgdci.batching.make_plan(self.rows, self.m, _ibs(sgdci))
        ends = plan.boundaries[1:]
        x = np.zeros(self.d)
        sums = np.zeros((self.m, self.d))
        k = 0
        for t in range(1, self.rows + 1):
            at = a[t - 1]
            x = x - (STEP_A * t ** (-STEP_R)) * (-2.0 * (b[t - 1] - x @ at) * at)
            if t > ends[k]:
                k += 1
            sums[k] += x
        xi = sums / np.diff(plan.boundaries)[:, None]
        xbar = sums.sum(axis=0) / self.rows
        sigma = np.sqrt(((xi - xbar) ** 2).sum(axis=0) / (self.m - 1))
        return {"center": xbar.tolist(), "sigma": sigma.tolist()}

    def argv(self, p, out):
        return ["infer", "--data", p["data"], "--model", "linear",
                "--m", str(self.m), "--alloc", "ibs", "--r", repr(ALLOC_R),
                "--mode", "both", "--delta", repr(DELTA),
                "--cal-reps", str(CAL_REPS), "--seed", str(p["seed"]),
                "--step-a", repr(STEP_A), "--step-r", repr(STEP_R),
                "--cache", p["warm_cache"], "--threads", str(p["threads"]),
                "--out", out]

    def _out(self, p, index):
        return os.path.join(p["work"], f"infer_{index}.json")

    def job(self, sgdci, p, index):
        return sgdci.cli.main(self.argv(p, self._out(p, index)))

    def to_json(self, rc, p, index):
        doc = None
        if rc == 0:
            with open(self._out(p, index), encoding="utf-8") as fh:
                doc = json.load(fh)
            doc.pop("config")  # echoes the command line, file paths included
        return {"rc": rc, "doc": doc}

    def work(self):
        return self.rows

    def ops(self):
        return 1

    def check(self, out, p, ref):
        return [self._check(out, p, ref)]

    def _check(self, out, p, ref):
        if out["rc"] != 0:
            return f"exit code {out['rc']}"
        doc = out["doc"]
        try:
            center = np.asarray(doc["center"], dtype=float)
            joint, marg = doc["joint"], doc["marginal"]
            shape = np.asarray(joint["shape"], dtype=float)
            lo, hi = np.asarray(marg["lo"]), np.asarray(marg["hi"])
            sigma = np.asarray(marg["sigma"])
            sizes = (doc["n_rows"], doc["T"], doc["d"])
            scale, alpha, alpha_1d = joint["scale"], joint["alpha_hat"], marg["alpha_hat_1d"]
            volume = joint["volume"]
        except (KeyError, TypeError, ValueError) as e:
            return f"malformed infer document: {e!r}"
        d, m = self.d, self.m
        if sizes != (self.rows, self.rows, d):
            return f"(n_rows, T, d) = {sizes}"
        if not _close(center, p["replay"]["center"]):
            return "center is not the mean of the batch means"
        if not _close(sigma, p["replay"]["sigma"], rtol=1e-7):
            return "sigma disagrees with the batch means"
        if not (_close((lo + hi) / 2, center) and _close(np.diag(shape), sigma ** 2)
                and _close((hi - lo) / 2, math.sqrt(alpha_1d / m) * sigma)):
            return "intervals, shape and sigma disagree"
        if (alpha, alpha_1d) != (p["alpha"][0], p["alpha_1d"][0]):
            return "quantiles differ from the warmed cache"
        if not (p["alpha"][1] <= alpha <= p["alpha"][2]
                and p["alpha_1d"][1] <= alpha_1d <= p["alpha_1d"][2]):
            return "quantile outside its confidence interval"
        if not _close(scale, d * (m - 1) / (m * (m - d)) * alpha):
            return "region scale disagrees with alpha"
        if not (math.isfinite(volume) and volume > 0):
            return f"region volume {volume}"
        if ref is not None and not all(
            _close(doc[k1][k2] if k2 else doc[k1], ref["doc"][k1][k2] if k2 else ref["doc"][k1])
            for k1, k2 in (("center", None), ("joint", "scale"), ("joint", "shape"),
                           ("joint", "volume"), ("marginal", "lo"), ("marginal", "hi"))
        ):
            return "differs from the reference output"
        return None


class Coverage:
    """``run_comparison``: all six methods, replicated chains, warm cache."""

    name = "coverage"
    model, d, T, m, R = "linear", 2, 20_000, 30, 200
    config = {"model": model, "d": d, "T": T, "m": m, "R": R, "alloc": "ibs",
              "r": ALLOC_R, "delta": DELTA, "cal_reps": CAL_REPS}

    def prepare(self, sgdci, seed, work, threads):
        cal = sgdci.calibration
        cache_path = os.path.join(work, "coverage_cache.json")
        cache = cal.QuantileCache(cache_path)
        plan = sgdci.batching.make_plan(self.T, self.m, _ibs(sgdci))
        cal_seed = sgdci.experiments.DEFAULT_CAL_SEED
        alphas = {}
        for method, spec in (("bm_joint", cal.spec_from_plan(plan, self.d)),
                             ("bm_marginal", cal.LimitDrawSpec(1, plan.m, tuple(plan.weights)))):
            sq = cal.estimate_alpha(spec, DELTA, CAL_REPS, cal_seed, cache=cache,
                                    threads=threads)
            alphas[method] = [sq.alpha_hat, sq.ci_low, sq.ci_high]
        return {"seed": seed, "threads": threads, "work": work,
                "warm_cache": cache_path, "alphas": alphas}

    def job(self, sgdci, p, index):
        cache = sgdci.calibration.QuantileCache(p["warm_cache"])
        reports = sgdci.experiments.run_comparison(
            self.model, self.d, self.T, self.m, _ibs(sgdci), DELTA, self.R, p["seed"],
            cal_reps=CAL_REPS, cache=cache, threads=p["threads"],
        )
        sgdci.experiments.write_coverage_csv(
            reports, os.path.join(p["work"], f"coverage_{index}.csv"))
        return reports

    def to_json(self, reports, p, index):
        out = []
        for r in reports:
            if hasattr(r, "error"):
                out.append({"method": r.method, "error": r.error})
            else:
                out.append({"method": r.config.method, "error": None,
                            "coverage": r.coverage, "hits": r.hits,
                            "degenerate": r.degenerate, "alpha": r.alpha_used})
        return out

    METHODS = ("bm_joint", "bm_marginal", "sectioning_joint",
               "sectioning_marginal", "bmi_joint", "bmi_marginal")

    def work(self):
        steps = 0
        for method in self.METHODS:
            if method.startswith("sectioning"):
                steps += self.R * self.m * (self.T // self.m)
            else:
                steps += self.R * self.T
        return steps

    def ops(self):
        return len(self.METHODS)

    def check(self, out, p, ref):
        if [c["method"] for c in out] != list(self.METHODS):
            return ["methods missing or out of order"] * len(self.METHODS)
        bad = []
        for i, c in enumerate(out):
            warm = p["alphas"].get(c["method"])
            if c["error"] is not None:
                bad.append(f"failed cell: {c['error']}")
            elif not 0.0 <= c["coverage"] <= 1.0 or c["degenerate"] > 0.01 * self.R:
                bad.append(f"coverage {c['coverage']}, degenerate {c['degenerate']}")
            elif warm is not None and c["alpha"] != warm[0]:
                bad.append("quantile differs from the warmed cache")
            elif warm is not None and not warm[1] <= c["alpha"] <= warm[2]:
                bad.append("quantile outside its confidence interval")
            elif ref is not None and not (
                abs(c["hits"] - ref[i]["hits"]) <= 1.0
                and (c["alpha"] is None) == (ref[i]["alpha"] is None)
                and (c["alpha"] is None or _close(c["alpha"], ref[i]["alpha"]))
            ):
                # One replication may flip on a statistic that ties its
                # threshold to within rounding.
                bad.append("differs from the reference output")
            else:
                bad.append(None)
        return bad


class CoverageInfer:
    """The replicated and the serial SGD paths in one job: ``run_comparison``,
    then ``sgdci infer``. Each part has its own inputs, warm cache and checks."""

    name = "coverage_infer"
    work_unit = "SGD steps"
    parts = (Coverage(), InferCsv())
    config = {part.name: part.config for part in parts}

    def prepare(self, sgdci, seed, work, threads):
        p = {part.name: part.prepare(sgdci, seed, work, threads) for part in self.parts}
        p["warm_caches"] = [q["warm_cache"] for q in p.values()]
        return p

    def job(self, sgdci, p, index):
        return [part.job(sgdci, p[part.name], index) for part in self.parts]

    def to_json(self, raws, p, index):
        return {part.name: part.to_json(raw, p[part.name], index)
                for part, raw in zip(self.parts, raws)}

    def work(self):
        # A chain-step and a CSV row are each one SGD iteration.
        return sum(part.work() for part in self.parts)

    def ops(self):
        return sum(part.ops() for part in self.parts)

    def check(self, out, p, ref):
        return [v for part in self.parts
                for v in part.check(out[part.name], p[part.name],
                                    None if ref is None else ref[part.name])]


WORKLOADS = {w.name: w for w in (Volume(), CoverageInfer())}


def load_reference(wl, seed):
    """Reference outputs at the default seed, if recorded for these sizes."""
    if seed != DEFAULT_SEED or not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        rec = json.load(fh).get(wl.name)
    if rec is None or rec["config"] != json.loads(json.dumps(wl.config)):
        return None
    return rec["outputs"]


def self_test() -> list:
    """Corrupt recorded reference outputs and confirm each check rejects them.

    Returns the names of the corruptions that went undetected (empty when the
    checks work). Needs reference.json; it uses no package code.
    """
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        refs = json.load(fh)
    missed = []

    def expect(label, name, corrupt, must_pass, use_ref):
        wl, rec = WORKLOADS[name], refs[name]
        out = json.loads(json.dumps(rec["outputs"]))
        corrupt(out)
        verdicts = wl.check(out, rec["params"], rec["outputs"] if use_ref else None)
        if all(v is None for v in verdicts) != must_pass:
            missed.append(label)

    def none(out):
        pass

    def rising(out):
        out[2]["v"] = out[1]["v"] * 1.5

    def outside_ci(out):
        out[0]["alpha"] = out[0]["ci_high"] * 1.01

    def center_moved(out):
        out["infer_csv"]["doc"]["center"][0] += 1e-6

    def nonzero_exit(out):
        out["infer_csv"].update(rc=1, doc=None)

    def failed_cell(out):
        cells = out["coverage"]
        cells[2] = {"method": cells[2]["method"], "error": "ExcessDegeneracy: injected"}

    def hits_changed(out):
        out["coverage"][0]["hits"] -= 5

    for name in WORKLOADS:
        expect(f"{name} as recorded", name, none, True, True)
    expect("volume rising in m", "volume", rising, False, False)
    expect("volume quantile outside its CI", "volume", outside_ci, False, False)
    expect("infer center moved", "coverage_infer", center_moved, False, False)
    expect("infer nonzero exit", "coverage_infer", nonzero_exit, False, False)
    expect("coverage failed cell", "coverage_infer", failed_cell, False, False)
    expect("coverage hits changed", "coverage_infer", hits_changed, False, True)
    return missed

