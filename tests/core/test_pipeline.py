"""Tests for the pipeline cost model, Eq. 1 and Lemma 1."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import (
    PAPER_FIG15_COEFFICIENTS,
    PipelineCoefficients,
    pipeline_makespan_from_stage_times,
)
from repro.errors import MiddlewareError


def coeffs(k1=0.03, k2=0.51, k3=0.09, a=100.0):
    return PipelineCoefficients(k1=k1, k2=k2, k3=k3, a=a)


# -- Equation 1 ----------------------------------------------------------------


def test_total_time_single_block_is_sequential_sum():
    c = coeffs()
    d = 1000
    expected = c.t_n(d) + c.t_c(d) + c.t_u(d)
    assert c.total_time(d, 1) == pytest.approx(expected)


def test_total_time_two_blocks_matches_eq1():
    c = coeffs()
    d, s = 1000, 2
    b = d / s
    expected = (c.t_n(b) + max(c.t_n(b), c.t_c(b))
                + max(c.t_c(b), c.t_u(b)) + c.t_u(b))
    assert c.total_time(d, s) == pytest.approx(expected)


def test_total_time_generic_eq1():
    c = coeffs()
    d, s = 1200, 6
    b = d / s
    tn, tc, tu = c.t_n(b), c.t_c(b), c.t_u(b)
    expected = tn + max(tn, tc) + (s - 2) * max(tn, tc, tu) + max(tc, tu) + tu
    assert c.total_time(d, s) == pytest.approx(expected)


def test_total_time_zero_entities():
    assert coeffs().total_time(0, 5) == 0.0


def test_total_time_validation():
    c = coeffs()
    with pytest.raises(MiddlewareError):
        c.total_time(-1, 2)
    with pytest.raises(MiddlewareError):
        c.total_time(10, 0)


def test_pipeline_beats_sequential_when_balanced():
    """Overlap always wins over the strictly serial flow (s >= 2)."""
    c = coeffs()
    d = 10_000
    for s in (2, 5, 10, 50):
        assert c.total_time(d, s) < c.sequential_time(d, s)


def test_u_shape_in_s():
    """Fig. 15: time first decreases then increases with s."""
    c = coeffs(k1=0.03, k2=0.51, k3=0.09, a=500.0)
    d = 100_000
    s_values = [1, 2, 5, 10, 50, 100, 1000, 10_000, 100_000]
    times = [c.total_time(d, min(s, d)) for s in s_values]
    best = min(range(len(times)), key=times.__getitem__)
    assert 0 < best < len(times) - 1  # interior minimum -> U shape


# -- simulated-pipeline equivalence --------------------------------------------------


def test_stage_time_simulator_matches_eq1_uniform_blocks():
    c = coeffs()
    d, s = 3000, 6
    b = d / s
    makespan = pipeline_makespan_from_stage_times(
        [c.t_n(b)] * s, [c.t_c(b)] * s, [c.t_u(b)] * s)
    assert makespan == pytest.approx(c.total_time(d, s))


def test_stage_time_simulator_empty():
    assert pipeline_makespan_from_stage_times([], [], []) == 0.0


def test_stage_time_simulator_validation():
    with pytest.raises(MiddlewareError):
        pipeline_makespan_from_stage_times([1.0], [1.0], [])


def test_stage_time_simulator_single_block():
    assert pipeline_makespan_from_stage_times([2.0], [3.0], [4.0]) == 9.0


# -- Lemma 1 ------------------------------------------------------------------------


def test_lemma1_case_k2_max_gives_q():
    c = coeffs(k1=0.03, k2=0.51, k3=0.09, a=1000.0)
    d = 1_000_000
    b_opt, t_min = c.lemma1_optimal(d)
    q = math.sqrt(c.a * d / (c.k1 + c.k3))
    assert b_opt == pytest.approx(q)
    assert t_min == pytest.approx(c.k2 * d + 2 * math.sqrt(
        (c.k1 + c.k3) * c.a * d))


def test_lemma1_case_k1_max_corner():
    c = coeffs(k1=1.0, k2=0.1, k3=0.2, a=10.0)
    d = 1_000_000
    b_opt, t_min = c.lemma1_optimal(d)
    corner = c.a / (c.k1 - c.k2)
    q = math.sqrt(c.a * d / (c.k1 + c.k3))
    assert corner < q
    assert b_opt == pytest.approx(corner)
    assert t_min == pytest.approx(c.k1 * d + (c.k1 + c.k3) * c.a / (c.k1 - c.k2))


def test_lemma1_case_k3_max_corner():
    c = coeffs(k1=0.2, k2=0.1, k3=1.0, a=10.0)
    d = 1_000_000
    b_opt, t_min = c.lemma1_optimal(d)
    corner = c.a / (c.k3 - c.k2)
    assert b_opt == pytest.approx(corner)
    assert t_min == pytest.approx(c.k3 * d + (c.k1 + c.k3) * c.a / (c.k3 - c.k2))


def test_lemma1_zero_call_cost_degenerates():
    c = coeffs(a=0.0)
    b_opt, _ = c.lemma1_optimal(1000)
    assert b_opt == 1.0


@settings(max_examples=60, deadline=None)
@given(
    k1=st.floats(0.01, 2.0),
    k2=st.floats(0.01, 2.0),
    k3=st.floats(0.01, 2.0),
    a=st.floats(0.1, 500.0),
    d=st.integers(10, 2000),
)
def test_choose_num_blocks_matches_brute_force(k1, k2, k3, a, d):
    """The integer selector finds the exhaustive-search optimum of Eq. 1."""
    c = PipelineCoefficients(k1=k1, k2=k2, k3=k3, a=a)
    s_best, t_best = c.brute_force_best(d)
    s_chosen = c.choose_num_blocks(d)
    assert c.total_time(d, s_chosen) == pytest.approx(t_best, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    k1=st.floats(0.01, 2.0),
    k2=st.floats(0.01, 2.0),
    k3=st.floats(0.01, 2.0),
    a=st.floats(0.1, 500.0),
    d=st.integers(100, 100_000),
)
def test_lemma1_is_continuous_lower_bound(k1, k2, k3, a, d):
    """The closed-form minimum never exceeds any discrete Eq. 1 value."""
    c = PipelineCoefficients(k1=k1, k2=k2, k3=k3, a=a)
    _, t_min = c.lemma1_optimal(d)
    for s in (1, 2, 3, 5, 10, 100, min(1000, d)):
        assert t_min <= c.total_time(d, s) * (1 + 1e-9)


def test_paper_fig15_coefficients_present():
    assert set(PAPER_FIG15_COEFFICIENTS) == {"sssp-bf", "pagerank", "lp"}
    sssp = PAPER_FIG15_COEFFICIENTS["sssp-bf"]
    assert (sssp.k1, sssp.k2, sssp.k3, sssp.a) == (0.03, 0.51, 0.09, 84671.0)


def test_coefficient_validation():
    with pytest.raises(MiddlewareError):
        PipelineCoefficients(k1=0.0, k2=1.0, k3=1.0, a=1.0)
    with pytest.raises(MiddlewareError):
        PipelineCoefficients(k1=1.0, k2=1.0, k3=1.0, a=-1.0)
    with pytest.raises(MiddlewareError):
        coeffs().lemma1_optimal(0)
    with pytest.raises(MiddlewareError):
        coeffs().choose_num_blocks(0)
    with pytest.raises(MiddlewareError):
        coeffs().brute_force_best(-1)
    with pytest.raises(MiddlewareError):
        coeffs().sequential_time(-1, 1)
    with pytest.raises(MiddlewareError):
        coeffs().sequential_time(1, 0)
