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
    select_stepsize,
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


def theory_eta(*args, **kwargs) -> float:
    return TheoreticalConstantStepsize(*args, **kwargs).eta


def written_out(lipschitz, max_delay, concurrency, sigma=0.0, initial_gap=0.0, horizon=0):
    """min(1 / (2 L sqrt(max_delay C)), sqrt(F0 / (2 L sigma^2 (T + 1)))), noiseless: the first."""
    first = 1.0 / (2.0 * lipschitz * math.sqrt(max_delay * concurrency))
    if not sigma:
        return first
    return min(first, math.sqrt(initial_gap / (2.0 * lipschitz * sigma**2 * (horizon + 1))))


class TestTheoreticalEta:
    def test_noiseless_uses_delay_branch_only(self):
        eta = theory_eta(2.0, max_delay=9.0, concurrency=4.0)
        assert eta == pytest.approx(1.0 / (2.0 * 2.0 * 6.0), rel=1e-15)

    def test_noise_branch_can_bind(self):
        noiseless = theory_eta(1.0, 1.0, 1.0)
        noisy = theory_eta(1.0, 1.0, 1.0, sigma=10.0, initial_gap=1.0, horizon=10_000)
        assert noisy < noiseless
        assert noisy == pytest.approx(
            math.sqrt(1.0 / (2.0 * 1.0 * 100.0 * 10_001)), rel=1e-15)

    @pytest.mark.parametrize("args,kwargs", [
        ((2.0, 9.0, 4.0), {}),
        ((0.7, 3.0, 5.0), {"sigma": 0.3, "initial_gap": 2.5, "horizon": 40}),  # delay branch
        ((1.0, 1.0, 1.0), {"sigma": 10.0, "initial_gap": 1.0, "horizon": 10_000}),  # noise
        ((3.5, 17.0, 2.0), {"sigma": 1e-3, "initial_gap": 1e-9, "horizon": 7}),
    ])
    def test_matches_the_written_out_formula(self, args, kwargs):
        ss = TheoreticalConstantStepsize(*args, **kwargs)
        assert ss.eta == written_out(*args, **kwargs)
        assert ss.at(17, 200) == ss.eta

    @pytest.mark.parametrize("args,kwargs,message", [
        ((0.0, 1.0, 1.0), {}, "lipschitz, max_delay and concurrency must be positive"),
        ((1.0, -1.0, 1.0), {}, "lipschitz, max_delay and concurrency must be positive"),
        ((1.0, 1.0, 1.0), {"sigma": -1.0}, "sigma, initial_gap and horizon must be non-negative"),
        ((1.0, 1.0, 1.0), {"horizon": -1}, "sigma, initial_gap and horizon must be non-negative"),
    ])
    def test_invalid_inputs_rejected(self, args, kwargs, message):
        with pytest.raises(InvalidSpecError, match=f"^{message}$"):
            theory_eta(*args, **kwargs)

    @pytest.mark.parametrize("args,kwargs", [
        ((4.0, 10.0, 10**400), {}),  # float() of the integer overflows
        ((4.0, 10.0, 10.0), {"sigma": 1e308, "initial_gap": 1.0}),  # sigma**2 overflows
        ((4.0, 10.0, 10.0), {"sigma": 1e-320, "initial_gap": 1.0}),  # sigma**2 underflows to 0
        ((4.0, 10.0, 10.0), {"sigma": 1.0, "initial_gap": 1.0, "horizon": 10**400}),
        ((4.0, 1e308, 10.0), {}),  # max_delay * concurrency overflows: eta would be 0
        ((1e-320, 10.0, 10.0), {}),  # 1 / (2 L ...) overflows: eta would be inf
        ((4.0, 10.0, 10.0), {"sigma": 1e154, "initial_gap": 1.0}),  # 2 L sigma^2 overflows
        ((4.0, 10.0, 10.0), {"sigma": 1e100, "initial_gap": 1e-300}),  # the quotient underflows
    ], ids=["concurrency_past_the_floats", "sigma_squared_overflows", "sigma_squared_underflows",
            "horizon_past_the_floats", "delay_product_overflows", "lipschitz_underflows",
            "noise_product_overflows", "noise_quotient_underflows"])
    def test_what_the_formula_cannot_compute_is_refused(self, args, kwargs):
        with pytest.raises(InvalidSpecError, match="theoretical stepsize|comes out"):
            theory_eta(*args, **kwargs)

    def test_zero_initial_gap_gives_zero_in_a_noisy_run(self):
        # the formula's own answer: a start at the optimum stays there
        assert theory_eta(4.0, 10.0, 10.0, sigma=1.0, initial_gap=0.0) == 0.0
        assert theory_eta(4.0, 10.0, 10.0, initial_gap=0.0) > 0.0


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

    def test_density_at_the_bound(self):
        # a narrow span keeps the grid to one point, so only the density bound applies
        assert default_log_grid(MAX_GRID_POINTS, 1.0, 1.0001) == [1.0]
        with pytest.raises(InvalidSpecError, match="points_per_decade"):
            default_log_grid(MAX_GRID_POINTS + 1, 1.0, 1.0001)


def synthetic_outcomes(t_of_eta, grid, cap=10_000):
    """The outcome of every point of ``grid``, from ``t_of_eta(eta)``: the iterations to
    the target, or None for a diverging point."""
    outcomes = []
    for eta in grid:
        t = t_of_eta(eta)
        if t is None:
            outcomes.append(TuneOutcome(None, math.inf, True))
        elif t > cap:
            outcomes.append(TuneOutcome(None, 1.0 / t, False))
        else:
            outcomes.append(TuneOutcome(t, 1e-15, False))
    return outcomes


def select(t_of_eta, grid, **kwargs):
    return select_stepsize(grid, synthetic_outcomes(t_of_eta, grid), **kwargs)


class TestSelectStepsize:
    """The winner from finished outcomes; the min_T_to_eps budgets that cut the
    outcomes short are ``engine._lockstep``'s, tested in ``tests/test_lockstep.py``."""

    def test_picks_interior_minimum(self):
        # iteration count is U-shaped with minimum at eta = 1.0
        result = select(lambda e: int(100 * (math.log10(e) ** 2 + 1)),
                        [0.01, 0.1, 1.0, 10.0, 100.0])
        assert result.best_eta == 1.0
        assert result.best_metric == 100
        assert not result.best_on_grid_edge

    def test_diverging_large_stepsizes_skipped_over(self):
        result = select(lambda e: None if e > 1.0 else int(50 / e), [0.1, 1.0, 10.0, 100.0])
        assert result.best_eta == 1.0
        points = {p.eta: p for p in result.points}
        assert points[10.0].diverged and math.isinf(points[10.0].metric)

    def test_a_point_that_missed_the_target_never_wins(self):
        # a smaller stepsize cut short of the target (its budget ran out) stays behind
        result = select_stepsize([10.0, 1.0, 0.1], [TuneOutcome(50, 1e-15, False),
                                                    TuneOutcome(None, 1e-3, False),
                                                    TuneOutcome(None, 1e-20, False)])
        assert (result.best_eta, result.best_metric) == (10.0, 50)

    def test_tie_prefers_larger_stepsize(self):
        assert select(lambda e: 75, [0.1, 1.0, 10.0]).best_eta == 10.0
        assert select(lambda e: 75, [10.0, 1.0, 0.1]).best_eta == 10.0  # whatever the order

    def test_cut_points_are_reported_without_metric(self):
        # cut before their first step: what the dominance budgets leave of a grid whose
        # largest point reached the target at step 1
        result = select_stepsize([10.0, 1.0, 0.1], [TuneOutcome(1, 0.5, False), None, None])
        assert (result.best_eta, result.best_metric) == (10.0, 1.0)
        for point in result.to_dict()["points"][:2]:
            assert point["metric"] is None and point["iterations_to_target"] is None
            assert point["final_error"] is None and point["diverged"] is False
        result = select_stepsize([10.0, 1.0], [None, TuneOutcome(None, 0.5, False)],
                                 criterion="min_final_error")
        assert result.best_eta == 1.0

    def test_edge_flag_raised_on_boundary_winner(self):
        result = select(lambda e: int(10 / e), [0.1, 1.0, 10.0])
        assert result.best_eta == 10.0
        assert result.best_on_grid_edge

    def test_all_failures_raise(self):
        with pytest.raises(TuningFailedError) as err:
            select(lambda e: None, [0.1, 1.0])
        assert len(err.value.points) == 2

    def test_only_cut_points_raise(self):
        with pytest.raises(TuningFailedError) as err:
            select_stepsize([1.0, 0.1], [TuneOutcome(None, 1.0, False), None])
        assert [p["eta"] for p in err.value.points] == [0.1, 1.0]

    def test_min_final_error_criterion(self):
        grid = [0.01, 0.1, 1.0, 10.0, 100.0]
        outcomes = [TuneOutcome(None, abs(math.log10(eta) - 0.5), False) for eta in grid]
        result = select_stepsize(grid, outcomes, criterion="min_final_error")
        assert result.best_eta == 10.0  # log10 = 1.0, closest to 0.5 among the grid

    def test_min_final_error_tie_prefers_larger(self):
        result = select_stepsize([0.1, 1.0], [TuneOutcome(None, 1.0, False)] * 2,
                                 criterion="min_final_error")
        assert result.best_eta == 1.0

    def test_repeated_point_rejected(self):
        # a second copy would overwrite the first in the report
        with pytest.raises(InvalidSpecError, match="twice"):
            select(lambda e: 10, [0.1, 0.3, 0.1])

    def test_unknown_criterion_rejected(self):
        with pytest.raises(InvalidSpecError):
            select(lambda e: 1, [1.0], criterion="argmin")

    def test_result_is_json_ready(self):
        result = select(lambda e: None if e > 1 else 40, [0.1, 1.0, 10.0])
        payload = result.to_dict()
        assert payload["best_eta"] == 1.0
        assert [p["eta"] for p in payload["points"]] == [0.1, 1.0, 10.0]
        # inf metrics serialize as None, not as a float json cannot carry
        assert payload["points"][2]["metric"] is None
