"""The verify checks catch the bookkeeping faults that they are built to catch.

Each fault is injected here, by patching the engine, an objective or the
replay for the length of one test; nothing in the run API switches it on.
"""

import dataclasses

import pytest

from asgdsim import QuadraticObjective, engine, verify
from asgdsim.verify import (
    check_delay_conservation_fuzz,
    check_determinism,
    check_gradient_finite_differences,
)


def test_conservation_fuzz_passes_clean_schedules():
    assert check_delay_conservation_fuzz(n_configs=5).passed


def test_conservation_fuzz_catches_an_off_by_one_delay(monkeypatch):
    close = engine.Schedule.close

    def off_by_one(schedule):
        ledger = close(schedule)
        return dataclasses.replace(ledger, applied_delays=[d + 1 for d in ledger.applied_delays])

    monkeypatch.setattr(engine.Schedule, "close", off_by_one)
    result = check_delay_conservation_fuzz(n_configs=5)
    assert not result.passed
    assert "first failure at config" in result.detail


def test_finite_differences_catch_a_kernel_gradient_one_percent_too_large(monkeypatch):
    # every run steps with value_and_gradient, so that is the gradient to check
    kernel = QuadraticObjective.value_and_gradient

    def too_steep(self, x):
        value, grad = kernel(self, x)
        return value, 1.01 * grad

    monkeypatch.setattr(QuadraticObjective, "value_and_gradient", too_steep)
    assert not check_gradient_finite_differences().passed


def test_determinism_passes_a_faithful_replay():
    assert check_determinism().passed


@pytest.mark.parametrize("entry", ["run_homogeneous", "run_heterogeneous"])
def test_determinism_catches_a_replay_that_differs(monkeypatch, entry):
    run = getattr(verify, entry)
    seeds = []

    def replay_on_another_seed(*args, master_seed, **kwargs):
        seeds.append(master_seed)
        return run(*args, master_seed=master_seed + (len(seeds) == 2), **kwargs)

    monkeypatch.setattr(verify, entry, replay_on_another_seed)
    assert not check_determinism().passed
    assert len(seeds) == 2
