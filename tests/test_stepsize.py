import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asgdsim import (
    ConstantStepsize,
    DelayAdaptiveStepsize,
    InvalidSpecError,
    TheoreticalConstantStepsize,
    TuneOutcome,
    TuningFailedError,
    adaptive_eta_bounds,
    default_log_grid,
    grid_tune,
    theoretical_constant_eta,
)
from asgdsim.stepsize import MAX_GRID_POINTS


class TestConstant:
    def test_ignores_time_and_delay(self):
        ss = ConstantStepsize(0.3)
        assert ss.at(0, 0) == ss.at(100, 57) == 0.3

    def test_negative_rejected(self):
        with pytest.raises(InvalidSpecError):
            ConstantStepsize(-1e-3)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_non_finite_rejected(self, eta):
        with pytest.raises(InvalidSpecError):
            ConstantStepsize(eta)


class TestDelayAdaptive:
    def test_fresh_gradients_keep_base_stepsize(self):
        ss = DelayAdaptiveStepsize(0.5, lipschitz=2.0, concurrency=3)
        for tau in (0, 1, 2, 3):
            assert ss.at(0, tau) == 0.5

    def test_scale_mode_strictly_below_both_caps(self):
        ss = DelayAdaptiveStepsize(0.5, lipschitz=2.0, concurrency=2)
        for tau in (3, 10, 1000):
            eta_t = ss.at(0, tau)
            assert 0.0 < eta_t < min(0.5, 1.0 / (4.0 * 2.0 * tau))

    def test_scale_mode_shaves_even_small_base(self):
        # base stepsize already below 1/(4 L tau): the rule still returns
        # strictly less than it
        ss = DelayAdaptiveStepsize(1e-6, lipschitz=1.0, concurrency=1)
        assert 0.0 < ss.at(0, 5) < 1e-6

    def test_drop_mode_zeroes_stale_gradients(self):
        ss = DelayAdaptiveStepsize(0.5, lipschitz=2.0, concurrency=2, mode="drop")
        assert ss.at(0, 3) == 0.0
        assert ss.at(0, 2) == 0.5

    def test_monotone_in_delay(self):
        ss = DelayAdaptiveStepsize(0.25, lipschitz=1.5, concurrency=4)
        values = [ss.at(0, tau) for tau in range(0, 40)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_bad_mode_rejected(self):
        with pytest.raises(InvalidSpecError):
            DelayAdaptiveStepsize(0.1, 1.0, 1, mode="clip")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["eta", "lipschitz"])
    def test_non_finite_eta_or_lipschitz_rejected(self, field, bad):
        with pytest.raises(InvalidSpecError, match=field):
            DelayAdaptiveStepsize(**({"eta": 0.1, "lipschitz": 1.0, "concurrency": 1}
                                     | {field: bad}))


@settings(max_examples=100, deadline=None)
@given(
    eta=st.floats(1e-8, 10.0),
    lipschitz=st.floats(1e-3, 1e3),
    concurrency=st.integers(1, 64),
    delay=st.integers(0, 10_000),
)
def test_adaptive_rule_properties(eta, lipschitz, concurrency, delay):
    ss = DelayAdaptiveStepsize(eta, lipschitz, concurrency, "scale")
    eta_t = ss.at(0, delay)
    if delay <= concurrency:
        assert eta_t == eta
    else:
        assert 0.0 < eta_t < min(eta, 1.0 / (4.0 * lipschitz * delay))
    # never larger than the base stepsize, in either mode
    assert eta_t <= eta
    assert DelayAdaptiveStepsize(eta, lipschitz, concurrency, "drop").at(0, delay) in (0.0, eta)


class TestTheoreticalEta:
    def test_noiseless_uses_delay_branch_only(self):
        eta = theoretical_constant_eta(2.0, max_delay=9.0, concurrency=4.0)
        assert eta == pytest.approx(1.0 / (2.0 * 2.0 * 6.0), rel=1e-15)

    def test_noise_branch_can_bind(self):
        noiseless = theoretical_constant_eta(1.0, 1.0, 1.0)
        noisy = theoretical_constant_eta(1.0, 1.0, 1.0, sigma=10.0, initial_gap=1.0,
                                         horizon=10_000)
        assert noisy < noiseless
        assert noisy == pytest.approx(
            math.sqrt(1.0 / (2.0 * 1.0 * 100.0 * 10_001)), rel=1e-15)

    def test_policy_object_matches_function(self):
        ss = TheoreticalConstantStepsize(lipschitz=2.0, max_delay=9.0, concurrency=4.0)
        assert ss.eta == theoretical_constant_eta(2.0, 9.0, 4.0)
        assert ss.at(17, 200) == ss.eta

    def test_invalid_inputs_rejected(self):
        with pytest.raises(InvalidSpecError):
            theoretical_constant_eta(0.0, 1.0, 1.0)
        with pytest.raises(InvalidSpecError):
            theoretical_constant_eta(1.0, 1.0, 1.0, sigma=-1.0)


class TestAdaptiveBounds:
    def test_concurrency_bound_is_tighter(self):
        bounds = adaptive_eta_bounds(2.0, 8)
        assert bounds["plain_bound"] == pytest.approx(1.0 / 8.0)
        assert bounds["concurrency_bound"] == pytest.approx(1.0 / 64.0)
        assert bounds["eta"] == bounds["concurrency_bound"]

    def test_bounds_coincide_at_concurrency_one(self):
        bounds = adaptive_eta_bounds(3.0, 1)
        assert bounds["plain_bound"] == bounds["concurrency_bound"] == bounds["eta"]


class TestLogGrid:
    def test_default_card_and_endpoints(self):
        grid = default_log_grid()
        assert len(grid) == 29  # 7 decades, 4 points each, plus the endpoint
        assert grid[0] == pytest.approx(1e-5, rel=1e-12)
        assert grid[-1] == pytest.approx(1e2, rel=1e-12)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_density_parameter(self):
        assert len(default_log_grid(points_per_decade=1)) == 8
        assert len(default_log_grid(points_per_decade=7)) == 50

    def test_bad_range_rejected(self):
        with pytest.raises(InvalidSpecError):
            default_log_grid(low=1.0, high=0.1)

    @pytest.mark.parametrize("density,low,high", [
        (MAX_GRID_POINTS + 1, 0.5, 1.0),  # fewer points than the bound, but too dense
        (10**400, 1e-5, 1e2),  # the float product would overflow
        (MAX_GRID_POINTS, 1e-5, 1e2),
        (1, 1e-300, 1e300),  # high / low overflows
    ], ids=["too_dense", "density_past_the_floats", "too_many_points", "span_overflows"])
    def test_grid_past_the_bound_rejected(self, density, low, high):
        with pytest.raises(InvalidSpecError):
            default_log_grid(density, low, high)

    def test_grid_at_the_bound(self):
        assert len(default_log_grid(MAX_GRID_POINTS - 1, 1.0, 10.0)) == MAX_GRID_POINTS


def synthetic_runner(t_of_eta, cap=10_000):
    """Build a run(eta, budget) callback from a dict eta -> iterations."""
    calls = []

    def run(eta, budget):
        calls.append((eta, budget))
        t = t_of_eta(eta)
        limit = cap if budget is None else min(budget, cap)
        if t is None:  # diverged
            return TuneOutcome(None, math.inf, True)
        if t > limit:
            return TuneOutcome(None, 1.0 / t, False)
        return TuneOutcome(t, 1e-15, False)

    return run, calls


class TestGridTune:
    def test_picks_interior_minimum(self):
        # iteration count is U-shaped with minimum at eta = 1.0
        run, _ = synthetic_runner(lambda e: int(100 * (math.log10(e) ** 2 + 1)))
        result = grid_tune(run, [0.01, 0.1, 1.0, 10.0, 100.0])
        assert result.best_eta == 1.0
        assert result.best_metric == 100
        assert not result.best_on_grid_edge

    def test_diverging_large_stepsizes_skipped_over(self):
        run, _ = synthetic_runner(lambda e: None if e > 1.0 else int(50 / e))
        result = grid_tune(run, [0.1, 1.0, 10.0, 100.0])
        assert result.best_eta == 1.0
        points = {p.eta: p for p in result.points}
        assert points[10.0].diverged and math.isinf(points[10.0].metric)

    def test_dominance_budget_shrinks_after_first_success(self):
        run, calls = synthetic_runner(lambda e: {100.0: None, 10.0: 50, 1.0: 200}[e])
        grid_tune(run, [1.0, 10.0, 100.0])
        budgets = {eta: budget for eta, budget in calls}
        assert budgets[100.0] is None       # nothing converged yet
        assert budgets[10.0] is None        # still nothing
        assert budgets[1.0] == 49           # can only win below 50

    def test_budget_never_resurrects_a_worse_point(self):
        # the budgeted run cannot reach the target, so the first success stays
        run, _ = synthetic_runner(lambda e: 50 if e == 10.0 else 200)
        result = grid_tune(run, [0.1, 1.0, 10.0])
        assert result.best_eta == 10.0
        assert result.best_metric == 50

    def test_tie_prefers_larger_stepsize(self):
        run, _ = synthetic_runner(lambda e: 75)
        result = grid_tune(run, [0.1, 1.0, 10.0])
        assert result.best_eta == 10.0

    def test_instant_success_skips_the_rest(self):
        run, calls = synthetic_runner(lambda e: 1)
        result = grid_tune(run, [0.1, 1.0, 10.0])
        assert result.best_eta == 10.0
        assert len(calls) == 1  # budget 0 for the others means no run at all

    def test_edge_flag_raised_on_boundary_winner(self):
        run, _ = synthetic_runner(lambda e: int(10 / e))
        result = grid_tune(run, [0.1, 1.0, 10.0])
        assert result.best_eta == 10.0
        assert result.best_on_grid_edge

    def test_all_failures_raise(self):
        run, _ = synthetic_runner(lambda e: None)
        with pytest.raises(TuningFailedError) as err:
            grid_tune(run, [0.1, 1.0])
        assert len(err.value.points) == 2

    def test_min_final_error_criterion(self):
        def run(eta, budget):
            return TuneOutcome(None, abs(math.log10(eta) - 0.5), False)

        result = grid_tune(run, [0.01, 0.1, 1.0, 10.0, 100.0],
                           criterion="min_final_error")
        assert result.best_eta == 10.0  # log10 = 1.0, closest to 0.5 among the grid

    def test_min_final_error_tie_prefers_larger(self):
        def run(eta, budget):
            return TuneOutcome(None, 1.0, False)

        result = grid_tune(run, [0.1, 1.0], criterion="min_final_error")
        assert result.best_eta == 1.0

    def test_repeated_point_rejected(self):
        # a second copy would overwrite the first in the report under another budget
        run, calls = synthetic_runner(lambda e: 10)
        with pytest.raises(InvalidSpecError, match="twice"):
            grid_tune(run, [0.1, 0.3, 0.1])
        assert calls == []

    def test_unknown_criterion_rejected(self):
        run, _ = synthetic_runner(lambda e: 1)
        with pytest.raises(InvalidSpecError):
            grid_tune(run, [1.0], criterion="argmin")

    def test_result_is_json_ready(self):
        run, _ = synthetic_runner(lambda e: None if e > 1 else 40)
        result = grid_tune(run, [0.1, 1.0, 10.0])
        payload = result.to_dict()
        assert payload["best_eta"] == 1.0
        assert [p["eta"] for p in payload["points"]] == [0.1, 1.0, 10.0]
        # inf metrics serialize as None, not as a float json cannot carry
        assert payload["points"][2]["metric"] is None
