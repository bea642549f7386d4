import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asgdsim import InvalidSpecError
from asgdsim.speedup import (
    ENUMERATION_BUDGET,
    SpeedupInput,
    async_time,
    minibatch_time,
    minibatch_time_oracle,
    minibatch_weights,
    speedup_ratio,
)


def fleet(*groups):
    """fleet((10, 900), (60, 100)) -> 900 tens then 100 sixties."""
    deltas = []
    for delta, count in groups:
        deltas.extend([float(delta)] * count)
    return tuple(deltas)


class TestClosedForm:
    def test_large_mixed_fleet(self):
        # 900 clients at 10s, 100 at 60s, ten lanes: the async scheme
        # averages to 15 exactly, the batch maximum lands near 42.57
        inp = SpeedupInput(fleet((10, 900), (60, 100)), concurrency=10)
        assert async_time(inp) == 15.0
        assert minibatch_time(inp) == pytest.approx(42.566077995, abs=1e-6)
        assert speedup_ratio(inp) == pytest.approx(2.8377385, abs=1e-6)

    def test_single_client_degenerates(self):
        inp = SpeedupInput((3.0,), concurrency=5)
        assert async_time(inp) == 3.0
        assert minibatch_time(inp) == 3.0
        assert speedup_ratio(inp) == 1.0

    def test_concurrency_one_is_a_plain_mean(self):
        inp = SpeedupInput((1.0, 3.0, 5.0), concurrency=1)
        assert minibatch_time(inp) == pytest.approx(3.0, abs=1e-12)
        assert speedup_ratio(inp) == pytest.approx(1.0, abs=1e-12)

    def test_two_clients_two_lanes_by_hand(self):
        # max of two uniform draws from {1, 3}: 1 w.p. 1/4, 3 w.p. 3/4
        inp = SpeedupInput((1.0, 3.0), concurrency=2)
        assert minibatch_time(inp) == pytest.approx(2.5, abs=1e-12)

    def test_deltas_are_sorted_on_construction(self):
        inp = SpeedupInput((5.0, 1.0, 3.0), concurrency=2)
        assert inp.deltas == (1.0, 3.0, 5.0)

    def test_weights_sum_to_one(self):
        for n, c in [(1, 1), (3, 2), (1000, 10), (7, 40)]:
            w = minibatch_weights(n, c)
            assert w.shape == (n,)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert (w >= 0).all()

    def test_weights_match_integer_arithmetic(self):
        # small enough that i^C fits exactly; the log-space path must agree
        n, c = 6, 3
        exact = [(i**c - (i - 1) ** c) / n**c for i in range(1, n + 1)]
        assert minibatch_weights(n, c) == pytest.approx(exact, abs=1e-14)

    def test_weights_survive_huge_exponents(self):
        w = minibatch_weights(10**6, 500)
        assert np.isfinite(w).all()
        assert abs(w.sum() - 1.0) <= 1e-9


class TestValidation:
    def test_rejects_empty_fleet(self):
        with pytest.raises(InvalidSpecError):
            SpeedupInput((), concurrency=1)

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(InvalidSpecError):
            SpeedupInput((1.0, 0.0), concurrency=1)
        with pytest.raises(InvalidSpecError):
            SpeedupInput((1.0, -2.0), concurrency=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_speed(self, bad):
        with pytest.raises(InvalidSpecError):
            SpeedupInput((1.0, bad), concurrency=1)

    def test_rejects_nonpositive_concurrency(self):
        with pytest.raises(InvalidSpecError):
            SpeedupInput((1.0,), concurrency=0)

    def test_weights_validate_arguments(self):
        with pytest.raises(InvalidSpecError):
            minibatch_weights(0, 3)
        with pytest.raises(InvalidSpecError):
            minibatch_weights(3, 0)

    def test_oracle_rejects_unknown_method(self):
        inp = SpeedupInput((1.0, 2.0), concurrency=2)
        with pytest.raises(InvalidSpecError):
            minibatch_time_oracle(inp, method="quadrature")


class TestOracle:
    def test_exhaustive_matches_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            c = int(rng.integers(1, 6))
            deltas = tuple(rng.uniform(0.1, 20.0, size=n))
            inp = SpeedupInput(deltas, concurrency=c)
            oracle = minibatch_time_oracle(inp, method="exhaustive")
            assert oracle.method == "exhaustive" and not oracle.fell_back
            assert oracle.stderr == 0.0
            assert minibatch_time(inp) == pytest.approx(oracle.estimate, abs=1e-12)

    def test_monte_carlo_brackets_closed_form(self):
        inp = SpeedupInput(fleet((10, 90), (60, 10)), concurrency=10)
        oracle = minibatch_time_oracle(inp, method="monte_carlo", samples=200_000, seed=11)
        assert oracle.method == "monte_carlo"
        assert abs(oracle.estimate - minibatch_time(inp)) <= 3 * oracle.stderr

    def test_budget_overflow_falls_back(self):
        # 1000^10 draws is far past the enumeration budget
        inp = SpeedupInput(fleet((10, 900), (60, 100)), concurrency=10)
        assert inp.n_clients ** inp.concurrency > ENUMERATION_BUDGET
        oracle = minibatch_time_oracle(inp, method="exhaustive", samples=50_000, seed=5)
        assert oracle.fell_back and oracle.method == "monte_carlo"
        assert oracle.stderr > 0
        assert abs(oracle.estimate - minibatch_time(inp)) <= 4 * oracle.stderr

    def test_single_sample_stderr_is_infinite(self):
        inp = SpeedupInput((1.0, 2.0), concurrency=2)
        oracle = minibatch_time_oracle(inp, method="monte_carlo", samples=1)
        assert math.isinf(oracle.stderr)


speed_lists = st.lists(
    st.floats(min_value=0.01, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=12,
)


class TestOrderingProperties:
    @given(deltas=speed_lists, concurrency=st.integers(min_value=1, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_batch_never_beats_async(self, deltas, concurrency):
        inp = SpeedupInput(tuple(deltas), concurrency=concurrency)
        # E max of C draws dominates the mean of one draw
        assert minibatch_time(inp) >= async_time(inp) - 1e-9 * async_time(inp)

    @given(deltas=speed_lists, concurrency=st.integers(min_value=1, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_batch_time_grows_with_concurrency(self, deltas, concurrency):
        base = SpeedupInput(tuple(deltas), concurrency=concurrency)
        wider = SpeedupInput(tuple(deltas), concurrency=concurrency + 1)
        assert minibatch_time(wider) >= minibatch_time(base) - 1e-9

    @given(deltas=speed_lists, concurrency=st.integers(min_value=1, max_value=8))
    @settings(max_examples=200, deadline=None)
    def test_batch_time_bounded_by_extremes(self, deltas, concurrency):
        inp = SpeedupInput(tuple(deltas), concurrency=concurrency)
        t = minibatch_time(inp)
        assert min(deltas) - 1e-9 <= t <= max(deltas) + 1e-9
