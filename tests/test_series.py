"""Arithmetic-tail detection, numerator extraction, and round trips."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_reference import reconstruct_series, sandwich_check
from zclkit.errors import ValidationError
from zclkit.series import (
    INCONCLUSIVE,
    NOT_ARITHMETIC_IN_WINDOW,
    RATIONAL_FORM_DETECTED,
    IntSequence,
    analyze_sequence,
    polynomial_from_series,
    polynomial_to_text,
)


def seq(offset, values):
    return IntSequence(offset, tuple(values))


# -- analyze_sequence -----------------------------------------------------------


def test_analyze_the_counterexample_sequence():
    report = analyze_sequence(seq(1, [2, 3, 4, 5]))
    assert report.verdict == RATIONAL_FORM_DETECTED
    assert (report.a, report.d) == (1, 1)
    assert report.stabilization_index == 1
    assert report.p_coeffs == (0, 2, -1)
    assert sum(report.p_coeffs) == 1


def test_analyze_constant_sequence():
    report = analyze_sequence(seq(0, [5, 5, 5, 5]))
    assert report.verdict == RATIONAL_FORM_DETECTED
    assert report.a == 0
    assert sum(report.p_coeffs) == 0


def test_analyze_alternating_sequence():
    report = analyze_sequence(seq(0, [0, 1, 0, 1, 0]))
    assert report.verdict == NOT_ARITHMETIC_IN_WINDOW
    assert report.p_coeffs is None


def test_analyze_short_window_is_inconclusive():
    report = analyze_sequence(seq(0, [1, 2, 3]))
    assert report.verdict == INCONCLUSIVE


def test_analyze_respects_min_run():
    values = [7, 9, 10, 11]  # only the last three diffs... two equal diffs
    assert analyze_sequence(seq(0, values), min_run=2).verdict == RATIONAL_FORM_DETECTED
    assert analyze_sequence(seq(0, values), min_run=3).verdict == NOT_ARITHMETIC_IN_WINDOW
    with pytest.raises(ValidationError):
        analyze_sequence(seq(0, values), min_run=1)


def test_sequence_validation():
    with pytest.raises(ValidationError):
        IntSequence(-1, (1,))
    with pytest.raises(ValidationError):
        IntSequence(0, ())
    with pytest.raises(ValidationError):
        IntSequence(0, (1.5,))
    with pytest.raises(ValidationError):
        IntSequence(0, (True,))


# -- polynomial_from_series --------------------------------------------------------


def test_numerator_of_shifted_linear_sequence():
    # t_r = r + 1 from r = 1 with t_0 = 0
    assert polynomial_from_series(seq(1, [2, 3, 4, 5]), 1, 1, 1) == [0, 2, -1]


def test_numerator_of_identity_sequence():
    coeffs = polynomial_from_series(seq(1, [1, 2, 3, 4]), 1, 0, 1)
    assert coeffs == [0, 1]
    assert sum(coeffs) == 1


def test_numerator_of_zero_sequence():
    assert polynomial_from_series(seq(0, [0, 0, 0]), 0, 0, 0) == []


def test_numerator_rejects_inconsistent_tail():
    with pytest.raises(ValidationError):
        polynomial_from_series(seq(0, [0, 1, 5]), 1, 0, 0)


@given(offset=st.integers(0, 4), head=st.lists(st.integers(-9, 9), max_size=5),
       a=st.integers(-5, 5), d=st.integers(-5, 5), tail=st.integers(0, 3))
def test_numerator_is_one_minus_x_squared_times_the_series(offset, head, a, d, tail):
    # P(x) = (1-x)^2 sum_r t_r x^r, with t_r = 0 before the offset and r*a + d
    # from stab on, multiplied out over a truncation longer than P
    stab = offset + len(head)
    values = head + [r * a + d for r in range(stab, stab + tail)]
    if not values:
        return
    n = stab + 6
    t = [0] * offset + head + [r * a + d for r in range(stab, n)]
    product = [t[k] - 2 * (t[k - 1] if k else 0) + (t[k - 2] if k > 1 else 0) for k in range(n)]
    while product and product[-1] == 0:
        product.pop()
    assert polynomial_from_series(seq(offset, values), a, d, stab) == product


# -- reconstruct_series --------------------------------------------------------------


def test_reconstruct_examples():
    assert reconstruct_series([0, 1], 5).values == (0, 1, 2, 3, 4)
    assert reconstruct_series([1], 3).values == (1, 2, 3)
    assert reconstruct_series([0, 2, -1], 5).values == (0, 2, 3, 4, 5)


def test_reconstruct_needs_positive_length():
    with pytest.raises(ValidationError):
        reconstruct_series([1], 0)


# -- sandwich_check ---------------------------------------------------------------------


def test_sandwich_tight_linear():
    assert sandwich_check(seq(1, [1, 2, 3, 4]), 1, 0)


def test_sandwich_on_the_zcl_sequence():
    assert sandwich_check(seq(2, [2, 3, 4, 5]), 1, 0)


def test_sandwich_upper_violation():
    assert not sandwich_check(seq(0, [0, 5]), 1, 0)


def test_sandwich_lower_violation():
    assert not sandwich_check(seq(0, [0, 0]), 1, 5)


# -- properties ----------------------------------------------------------------------------

coeff_lists = st.lists(st.integers(-6, 6), min_size=0, max_size=6)


@given(p=coeff_lists, extra=st.integers(0, 4))
def test_round_trip_recovers_numerator(p, extra):
    canonical = list(p)
    while canonical and canonical[-1] == 0:
        canonical.pop()
    n = len(canonical) + 3 + 1 + extra
    window = reconstruct_series(canonical, n)
    report = analyze_sequence(window, min_run=3)
    assert report.verdict == RATIONAL_FORM_DETECTED
    assert report.a == sum(canonical)
    assert list(report.p_coeffs) == canonical
    assert reconstruct_series(report.p_coeffs, n) == window


@given(p=coeff_lists)
def test_sum_of_coeffs_is_the_difference(p):
    n = len(p) + 5
    window = reconstruct_series(p, n)
    report = analyze_sequence(window)
    assert report.verdict == RATIONAL_FORM_DETECTED
    assert sum(report.p_coeffs) == report.a


@given(p=coeff_lists)
def test_detected_tail_passes_its_own_sandwich(p):
    n = len(p) + 6
    window = reconstruct_series(p, n)
    report = analyze_sequence(window)
    assert report.verdict == RATIONAL_FORM_DETECTED
    a = report.a
    stab = report.stabilization_index
    tail = IntSequence(stab, window.values[stab - window.offset:])
    c = max(v - (stab + k) * a for k, v in enumerate(tail.values))
    assert sandwich_check(tail, a, c)


def test_random_noise_with_broken_tail_is_rejected():
    rng = random.Random(99)
    for _ in range(100):
        values = [rng.randint(-9, 9) for _ in range(rng.randint(5, 10))]
        if values[-1] - values[-2] == values[-2] - values[-3]:
            values[-1] += 1 + rng.randint(0, 3)  # break the trailing run
        report = analyze_sequence(seq(0, values))
        assert report.verdict == NOT_ARITHMETIC_IN_WINDOW


# -- text form -------------------------------------------------------------------------------


def test_polynomial_text():
    assert polynomial_to_text([0, 2, -1]) == "2x - x^2"
    assert polynomial_to_text([]) == "0"
    assert polynomial_to_text([5, -5]) == "5 - 5x"
    assert polynomial_to_text([-1, 0, 3]) == "-1 + 3x^2"
