"""Unit tests for the exponential-backoff retry policy."""

import pytest

from repro.errors import FaultError
from repro.fault import RetryPolicy


def test_validation():
    with pytest.raises(FaultError):
        RetryPolicy(max_attempts=-1)
    with pytest.raises(FaultError):
        RetryPolicy(base_delay_ms=-0.1)
    with pytest.raises(FaultError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(FaultError):
        RetryPolicy(base_delay_ms=10.0, max_delay_ms=5.0)


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(max_attempts=8, base_delay_ms=1.0,
                         backoff_factor=2.0, max_delay_ms=10.0)
    assert policy.backoff_ms(1) == 1.0
    assert policy.backoff_ms(2) == 2.0
    assert policy.backoff_ms(3) == 4.0
    assert policy.backoff_ms(4) == 8.0
    assert policy.backoff_ms(5) == 10.0      # capped
    assert policy.backoff_ms(6) == 10.0
    with pytest.raises(FaultError):
        policy.backoff_ms(0)


def test_delays_schedule():
    policy = RetryPolicy(max_attempts=3, base_delay_ms=0.5,
                         backoff_factor=2.0)
    assert policy.delays() == (0.5, 1.0, 2.0)
    assert RetryPolicy(max_attempts=0).delays() == ()

