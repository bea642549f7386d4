"""The verify checks catch the bookkeeping faults that they are built to catch."""

from asgdsim import FaultInjection
from asgdsim.verify import check_delay_conservation_fuzz, check_determinism


def test_conservation_fuzz_passes_clean_schedules():
    assert check_delay_conservation_fuzz(n_configs=5).passed


def test_conservation_fuzz_catches_an_off_by_one_delay():
    result = check_delay_conservation_fuzz(n_configs=5,
                                           faults=FaultInjection(delay_off_by_one=True))
    assert not result.passed
    assert "first failure at config" in result.detail


def test_determinism_passes_a_faithful_replay():
    assert check_determinism().passed


def test_determinism_catches_inverted_tie_breaks():
    assert not check_determinism(faults_for_second=FaultInjection(invert_ties=True)).passed
