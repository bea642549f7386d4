import dataclasses
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asgdsim import (
    ConstantStepsize,
    MaxConcurrency,
    MiniBatch,
    NoiseModel,
    StopRule,
    UndefinedStatisticError,
    constant_fleet,
    make_quadratic,
    run_homogeneous,
)
from asgdsim import metrics
from asgdsim.metrics import DelayLedger


QUAD = make_quadratic(4, 1.0, 2.0, seed=7)
NO_NOISE = NoiseModel(0.0)
X0 = np.zeros(4)


def run(workers, policy, max_iterations, **kwargs):
    return run_homogeneous(
        QUAD, NO_NOISE, workers, policy, ConstantStepsize(0.1),
        X0, StopRule(max_iterations=max_iterations), master_seed=0, **kwargs)


def hand_ledger(**overrides):
    """A small ledger worked out on paper.

    Three applied gradients with delays 0, 1, 2 from clients 0, 1, 0; two
    jobs still in flight (started at 1 and 3, clients 1 and 0), the older
    one to be applied next.  The concurrency log was chosen so the
    conservation identity holds:
    lhs = 3 + 3 + (2 + 0) + 2 = 10 = 2 + 3 + 3 + 2.
    """
    base = dict(
        applied_delays=[0, 1, 2],
        applied_clients=[0, 1, 0],
        active_start_iterations=[1, 3],
        active_clients=[1, 0],
        concurrency_log=[2, 3, 3, 2],
    )
    base.update(overrides)
    return DelayLedger(**base)


class TestLedgerValidation:
    def test_client_lists_must_line_up(self):
        with pytest.raises(ValueError):
            hand_ledger(applied_clients=[0])
        with pytest.raises(ValueError):
            hand_ledger(active_clients=[1])

    def test_concurrency_log_needs_t_plus_one_entries(self):
        with pytest.raises(ValueError):
            hand_ledger(concurrency_log=[2, 3, 3])

    def test_ledger_stores_only_its_recorded_columns(self):
        assert [f.name for f in dataclasses.fields(DelayLedger)] == [
            "applied_delays", "applied_clients", "active_start_iterations",
            "active_clients", "concurrency_log"]

    def test_iterations_and_hand_outs_come_from_the_columns(self):
        ledger = hand_ledger()
        assert ledger.total_iterations == 3
        # client 0: two applied jobs and one in flight; client 1: one of each
        assert ledger.samples_per_client == {0: 3, 1: 2}


class TestHandComputedStatistics:
    def test_reported_average_excludes_the_next_applied_job(self):
        # applied 0+1+2 plus the surviving in-flight delay 0, over 4 jobs
        assert metrics.average_delay_exact(hand_ledger()) == Fraction(3, 4)

    def test_max_delay(self):
        assert metrics.max_delay(hand_ledger()) == 2

    def test_average_concurrency(self):
        assert metrics.average_concurrency_exact(hand_ledger()) == Fraction(5, 2)
        assert metrics.max_concurrency(hand_ledger()) == 3

    def test_conservation_holds_for_the_worked_example(self):
        check = metrics.delay_conservation(hand_ledger())
        assert check == (10, 10, True)

    def test_broken_log_is_caught(self):
        bad = hand_ledger(concurrency_log=[2, 3, 3, 3])
        check = metrics.delay_conservation(bad)
        assert not check.passed and check.rhs == 11

    def test_per_client_averages(self):
        assert metrics.average_delay_per_client_exact(hand_ledger()) == {
            0: Fraction(2, 3), 1: Fraction(3, 2)}

    def test_never_sampled_client_is_absent(self):
        # client 1's jobs go to client 2, so client 1 is never handed work
        ledger = hand_ledger(applied_clients=[0, 2, 0], active_clients=[2, 0])
        assert metrics.average_delay_per_client_exact(ledger) == {
            0: Fraction(2, 3), 2: Fraction(3, 2)}


def brute_force_per_client(ledger, client):
    """The definition, spelled out: the client's applied delays plus T - s for
    each of its in-flight jobs, over the number of those jobs."""
    t = ledger.total_iterations
    delays = [d for d, c in zip(ledger.applied_delays, ledger.applied_clients) if c == client]
    delays += [t - s for s, c in zip(ledger.active_start_iterations, ledger.active_clients)
               if c == client]
    return Fraction(sum(delays), len(delays))


@st.composite
def random_ledgers(draw):
    """Ledgers as a run leaves them, over clients 0..n-1 for n up to 5: every
    hand-out is either applied or in flight, so a client with in-flight jobs
    only was sampled and a client with neither was not."""
    n = draw(st.integers(1, 5))
    t = draw(st.integers(0, 25))
    applied_clients = draw(st.lists(st.integers(0, n - 1), min_size=t, max_size=t))
    applied_delays = draw(st.lists(st.integers(0, 40), min_size=t, max_size=t))
    active = draw(st.lists(st.tuples(st.integers(0, t), st.integers(0, n - 1)), max_size=8))
    return DelayLedger(
        applied_delays=applied_delays,
        applied_clients=applied_clients,
        active_start_iterations=[s for s, _ in active],
        active_clients=[c for _, c in active],
        concurrency_log=[0] * (t + 1),  # unused by the per-client statistics
    )


class TestPerClientOnePass:
    @settings(max_examples=200, deadline=None)
    @given(random_ledgers())
    def test_matches_the_brute_force_definition(self, ledger):
        sampled = sorted(set(ledger.applied_clients) | set(ledger.active_clients))
        assert list(ledger.samples_per_client) == sampled
        per_client = metrics.average_delay_per_client_exact(ledger)
        assert list(per_client) == sampled  # clients in neither job list are absent
        assert per_client == {c: brute_force_per_client(ledger, c) for c in sampled}

    def test_excluded_next_job_still_counts_for_its_client(self):
        # both in-flight jobs are client 1's, the excluded next one (started
        # at 1) among them; it enters the per-client mean although the
        # reported average leaves it out
        ledger = hand_ledger(active_clients=[1, 1])
        assert metrics.average_delay_per_client_exact(ledger) == {
            0: Fraction(2, 2), 1: Fraction(1 + 2 + 0, 3)}


class TestDegenerateLedgers:
    def test_average_delay_needs_an_iteration(self):
        ledger = DelayLedger([], [], [0], [0], [1])
        with pytest.raises(UndefinedStatisticError):
            metrics.average_delay_exact(ledger)

    def test_max_delay_of_nothing(self):
        ledger = DelayLedger([], [], [0], [0], [1])
        with pytest.raises(UndefinedStatisticError):
            metrics.max_delay(ledger)


class TestEngineLedgers:
    """Statistics on ledgers produced by actual runs, checked against
    values derived from the schedule by hand."""

    def test_serial_run_has_zero_average_delay(self):
        trace = run(constant_fleet([1.0]), MaxConcurrency(), 10)
        ledger = trace.ledger
        assert metrics.average_delay_exact(ledger) == Fraction(0)
        assert metrics.max_delay(ledger) == 0
        check = metrics.delay_conservation(ledger)
        assert check.passed and check.lhs == 11  # T + |C_T| = 10 + 1

    def test_minibatch_two_of_four_average(self):
        # batch size 2 for 4 iterations: delays 0,1,0,1 and one leftover
        # in-flight job at delay 0 after the exclusion, so 2/5
        trace = run(constant_fleet([1.0, 1.0]), MiniBatch(), 4)
        assert metrics.average_delay_exact(trace.ledger) == Fraction(2, 5)

    def test_two_equal_workers(self):
        trace = run(constant_fleet([1.0, 1.0]), MaxConcurrency(), 6)
        ledger = trace.ledger
        # delays 0,1,1,1,1,1 applied; of the two in-flight jobs the older one
        # (next to finish) is excluded, leaving a job of delay 0, so 5/7
        assert metrics.average_delay_exact(ledger) == Fraction(5, 7)
        assert metrics.average_concurrency_exact(ledger) == Fraction(2)
        assert metrics.delay_conservation(ledger).passed

    def test_per_client_statistics_cover_sampled_clients(self):
        trace = run(constant_fleet([1.0, 3.0, 5.0]), MaxConcurrency(), 40)
        per_client = metrics.average_delay_per_client_exact(trace.ledger)
        assert set(per_client) == {0, 1, 2}
        # the slowest worker sees the largest average delay
        assert per_client[2] >= per_client[1] >= per_client[0]


class TestTraceErrors:
    def fake_trace(self, norms, final):
        return SimpleNamespace(grad_norms=np.asarray(norms, dtype=float),
                               final_grad_norm=float(final))

    def test_last_k_takes_the_tail(self):
        # the final point's norm 4.0 closes the sequence
        trace = self.fake_trace([1.0, 2.0, 3.0], 4.0)
        assert metrics.last_k_error(trace, k=1) == 4.0
        assert metrics.last_k_error(trace, k=2) == pytest.approx(3.5)
        assert metrics.last_k_error(trace, k=4) == pytest.approx(2.5)

    def test_short_trace_averages_everything_without_a_warning(self):
        trace = self.fake_trace([1.0, 2.0, 3.0], 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert metrics.last_k_error(trace, k=10) == 2.5

    def test_k_must_be_positive(self):
        with pytest.raises(UndefinedStatisticError):
            metrics.last_k_error(self.fake_trace([1.0], 1.0), k=0)


class TestSummary:
    def test_schema_and_internal_consistency(self):
        trace = run(constant_fleet([1.0, 2.0]), MaxConcurrency(), 25)
        s = metrics.summary(trace)
        assert s["iterations"] == 25
        assert s["stop_reason"] == "cap"
        assert s["delay_conservation"]["pass"] is True
        assert s["tau_avg"] == float(metrics.average_delay_exact(trace.ledger))
        num, den = s["tau_avg_exact"].split("/")
        assert Fraction(int(num), int(den)) == metrics.average_delay_exact(trace.ledger)
        assert s["tau_max"] == metrics.max_delay(trace.ledger)
        assert s["avg_concurrency"] == float(metrics.average_concurrency_exact(trace.ledger))
        assert s["tau_avg_per_client"] == {
            str(c): float(v)
            for c, v in metrics.average_delay_per_client_exact(trace.ledger).items()}
        assert s["in_flight_convention"] == "exclude-next-applied"
        assert s["gradients_started"] == (
            trace.ledger.concurrency_log[0] + int(np.sum(trace.n_assigned)))
        assert s["error_last30"] == pytest.approx(metrics.last_k_error(trace))

    def test_summary_is_json_serializable(self):
        import json

        trace = run(constant_fleet([1.0, 1.0, 1.0]), MaxConcurrency(), 12)
        json.dumps(metrics.summary(trace))
