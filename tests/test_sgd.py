"""Step schedule and the averaged SGD driver."""

import numpy as np
import pytest
from scipy.special import expit, ndtr

from sgdci.batching import Allocation, accumulate, make_plan
from sgdci.errors import NonFiniteIterate, OracleDimensionMismatch
from sgdci.models import linear_oracle, linspace_params, logistic_oracle
from sgdci.sgd import GradientOracle, SgdRunConfig, StepSchedule, run_chains, run_sgd
from sgdci.streams import derive_stream


@pytest.mark.parametrize("bad_r", [0.5, 1.0, 0.0, 1.4])
def test_schedule_rejects_exponent_outside_open_interval(bad_r):
    with pytest.raises(ValueError):
        StepSchedule(a=0.5, r=bad_r)


def test_schedule_rejects_nonpositive_prefactor():
    with pytest.raises(ValueError):
        StepSchedule(a=0.0, r=0.6)


def test_schedule_defaults():
    s = StepSchedule()
    assert s.a == 0.5
    assert s.r == pytest.approx(2.0 / 3.0)


def _no_inputs(gen, n):
    return np.empty((n, 0))


def _noiseless(x_star):
    x_star = np.asarray(x_star, dtype=float)
    return GradientOracle(dim=x_star.shape[0], draw=_no_inputs,
                          gradient=lambda x, inputs: x - x_star)


def test_fixed_point_stays_put():
    xs = np.array([1.0, -2.0])
    seen = []
    final = run_sgd(
        _noiseless(xs),
        SgdRunConfig(T=10, x0=xs.copy()),
        derive_stream(0),
        observer=seen.append,
    )
    assert np.array_equal(final, xs)
    assert len(seen) == 10
    for it in seen:
        assert np.array_equal(it, xs)


def test_single_step_hand_value():
    # G(x) = x - 1, x0 = 0, a = 0.5: X_1 = 0 - 0.5 * (0 - 1) = 0.5
    final = run_sgd(
        _noiseless(np.array([1.0])),
        SgdRunConfig(T=1, schedule=StepSchedule(a=0.5, r=2.0 / 3.0)),
        derive_stream(0),
    )
    assert final[0] == pytest.approx(0.5)


def test_noiseless_error_nonincreasing():
    xs = np.array([2.0])
    errs = []
    run_sgd(
        _noiseless(xs),
        SgdRunConfig(T=200),
        derive_stream(0),
        observer=lambda x: errs.append(abs(float(x[0]) - 2.0)),
    )
    diffs = np.diff(errs)
    assert np.all(diffs <= 1e-15)
    assert errs[-1] < 1e-3


def test_burn_in_advances_schedule_but_hides_iterates():
    xs = np.array([1.0])
    plain, burned = [], []
    run_sgd(_noiseless(xs), SgdRunConfig(T=8), derive_stream(0), plain.append)
    run_sgd(
        _noiseless(xs), SgdRunConfig(T=5, burn_in=3), derive_stream(0), burned.append
    )
    assert len(burned) == 5
    # the burned run's first observed iterate is the plain run's fourth
    assert burned[0][0] == pytest.approx(plain[3][0])
    assert burned[-1][0] == pytest.approx(plain[7][0])


def test_run_is_deterministic_under_lineage():
    params = linspace_params(2)
    a = run_sgd(linear_oracle(params), SgdRunConfig(T=50), derive_stream(3, 1))
    b = run_sgd(linear_oracle(params), SgdRunConfig(T=50), derive_stream(3, 1))
    assert np.array_equal(a, b)


def test_oracle_shape_mismatch_detected():
    bad = GradientOracle(dim=2, draw=_no_inputs,
                         gradient=lambda x, inputs: np.zeros((len(x), 3)))
    with pytest.raises(OracleDimensionMismatch):
        run_sgd(bad, SgdRunConfig(T=1), derive_stream(0))


def test_x0_shape_mismatch_detected():
    with pytest.raises(OracleDimensionMismatch):
        run_sgd(
            _noiseless(np.array([1.0])),
            SgdRunConfig(T=1, x0=np.zeros(2)),
            derive_stream(0),
        )


def test_nonfinite_iterate_reports_step_index():
    def explode(x, inputs):
        return np.full(x.shape, np.inf)

    with pytest.raises(NonFiniteIterate) as exc:
        run_sgd(
            GradientOracle(dim=1, draw=_no_inputs, gradient=explode),
            SgdRunConfig(T=5),
            derive_stream(0),
        )
    assert exc.value.t == 1


def test_config_validation():
    with pytest.raises(ValueError):
        SgdRunConfig(T=0)
    with pytest.raises(ValueError):
        SgdRunConfig(T=5, burn_in=-1)


def test_averaged_iterate_lands_near_target():
    # end to end at the default schedule; CLT scale is ~ sqrt(tr Sigma / T)
    d, T = 2, 10**5
    params = linspace_params(d)
    plan = make_plan(T, 10, Allocation(kind="es"))
    acc = accumulate(plan, d)
    run_sgd(
        linear_oracle(params), SgdRunConfig(T=T), derive_stream(314), acc.feed
    )
    summary = acc.finalize()
    assert float(np.linalg.norm(summary.xbar - params.x_star)) < 0.05


def _reference_batch_means(model, x_star, cfg, boundaries, gen):
    """A plain per-step loop, independent of the package's driver and
    gradients: one standard_normal(d + 1) draw per step, batch sums by hand."""
    d, ends = len(x_star), boundaries[1:]
    x = np.array(cfg.x0, dtype=float)
    sums, k = np.zeros((len(ends), d)), 0
    for t in range(1, cfg.burn_in + cfg.T + 1):
        z = gen.standard_normal(d + 1)
        a = z[:d]
        if model == "linear":
            g = -2.0 * (a @ x_star + z[d] - a @ x) * a
        else:
            b = 1.0 if ndtr(z[d]) < expit(a @ x_star) else -1.0
            g = -b * expit(-b * (a @ x)) * a
        x = x - (cfg.schedule.a * t ** (-cfg.schedule.r)) * g
        if t > cfg.burn_in:
            k += t - cfg.burn_in > ends[k]
            sums[k] += x
    return sums / np.diff(boundaries)[:, None], sums.sum(axis=0) / cfg.T


class TestDriverReference:
    plan = make_plan(500, 6, Allocation(kind="ibs"))

    @pytest.mark.parametrize("model", ["linear", "logistic"])
    def test_chains_match_a_plain_loop(self, model):
        params = linspace_params(2)
        oracle = (linear_oracle if model == "linear" else logistic_oracle)(params)
        cfg = SgdRunConfig(T=self.plan.T, burn_in=23, x0=np.array([0.3, -0.4]))
        lineages = [(61, j) for j in range(3)]
        xi, xbar = run_chains(oracle, cfg, [derive_stream(*s) for s in lineages],
                              [self.plan.boundaries])[0]
        for j, s in enumerate(lineages):
            xi_ref, xbar_ref = _reference_batch_means(
                model, params.x_star, cfg, self.plan.boundaries, derive_stream(*s))
            assert np.allclose(xi[:, j], xi_ref, rtol=0, atol=1e-12)
            assert np.allclose(xbar[j], xbar_ref, rtol=0, atol=1e-12)

    def test_one_chain_equals_run_sgd_with_accumulator(self):
        oracle = logistic_oracle(linspace_params(3))
        cfg = SgdRunConfig(T=self.plan.T, burn_in=7)
        xi, xbar = run_chains(oracle, cfg, [derive_stream(62)], [self.plan.boundaries])[0]
        acc = accumulate(self.plan, 3)
        run_sgd(oracle, cfg, derive_stream(62), acc.feed)
        summary = acc.finalize()
        assert np.array_equal(xi[:, 0], summary.xi)
        assert np.array_equal(xbar[0], summary.xbar)


class TestSeveralPlans:
    """One run_chains call batches the same iterates under several plans."""

    T = 500
    plans = [
        make_plan(T, 6, Allocation(kind="ibs")).boundaries,
        make_plan(T, 12, Allocation(kind="es")).boundaries,
        make_plan(T, 5, Allocation(kind="dbs", r=0.6)).boundaries,
        [0, T],
        [0, 7, T],
    ]

    @pytest.mark.parametrize("model, burn_in", [("linear", 0), ("logistic", 0),
                                                ("linear", 23), ("logistic", 41)])
    def test_each_plan_equals_its_own_run(self, model, burn_in):
        oracle = (linear_oracle if model == "linear" else logistic_oracle)(linspace_params(2))
        cfg = SgdRunConfig(T=self.T, burn_in=burn_in)

        def gens():
            return [derive_stream(63, j) for j in range(3)]

        shared = run_chains(oracle, cfg, gens(), self.plans)
        assert len(shared) == len(self.plans)
        for bounds, (xi, xbar) in zip(self.plans, shared):
            ((xi_ref, xbar_ref),) = run_chains(oracle, cfg, gens(), [bounds])
            assert xi.shape == (len(bounds) - 1, 3, 2)
            assert np.array_equal(xi, xi_ref)
            assert np.array_equal(xbar, xbar_ref)

    @pytest.mark.parametrize("bad", [[0, 10, T - 1], [1, T], [0, T + 1]])
    def test_every_plan_must_span_the_run(self, bad):
        oracle = linear_oracle(linspace_params(2))
        with pytest.raises(ValueError, match="must run from 0 to T=500"):
            run_chains(oracle, SgdRunConfig(T=self.T), [derive_stream(64)],
                       [self.plans[0], bad])
