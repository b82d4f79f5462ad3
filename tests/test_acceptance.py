"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every expected number here is either computed by an independent oracle in
this file, derived by hand from the definitions, or cross-checked against
the brute-force searches; tolerances are exact (these are integers).
"""

import functools
import io
import json
import random
import time

import pytest

from dense_reference import (
    contains,
    coords,
    cup_length_oracle,
    kernel_mu,
    reconstruct_series,
    zcl_oracle,
)
from zclkit import (
    builtin_algebra,
    cup_length,
    series_pipeline,
    tensor_product,
    verify_witness,
    zcl_bounds,
    zcl_exact,
)
from zclkit.cli import run as cli_run
from zclkit.linalg import subspace_product
from zclkit.series import (
    NOT_ARITHMETIC_IN_WINDOW,
    RATIONAL_FORM_DETECTED,
    IntSequence,
    analyze_sequence,
)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({title}): FAIL")
                raise
            print(f"criterion {number} ({title}): PASS")

        return wrapper

    return decorate


@criterion(1, "counterexample cup-length")
def test_criterion_1_cup_length_of_powers(stanley):
    start = time.monotonic()
    assert cup_length(stanley).value == 1
    for r in (2, 3, 4):
        assert cup_length(stanley.tensor_power(r)).value == r
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


@criterion(2, "counterexample zcl")
def test_criterion_2_zcl_of_powers(stanley):
    start = time.monotonic()
    for r in (2, 3, 4):
        res = zcl_exact(stanley, r)
        assert res.value == r
        assert verify_witness(stanley, res.witness).ok
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    bounds = zcl_bounds(stanley, 5)
    assert bounds.method == "bounds"
    assert (bounds.lower, bounds.upper, bounds.value) == (5, 5, 5)
    assert verify_witness(stanley, bounds.witness).ok


@criterion(3, "difference-square element check")
def test_criterion_3_difference_square(stanley):
    square = stanley.tensor_power(2)
    x = square.element_from_labels({"a2⊗1": 1, "1⊗a2": -1})
    xx = x * x
    # exactly a2 x a2 with coefficient 1: index (1,1) -> 1*4 + 1 = 5
    expected = tuple(1 if k == 5 else 0 for k in range(16))
    assert coords(xx) == expected
    assert not xx.is_zero
    kernel = kernel_mu(stanley, 2)
    assert contains(kernel, coords(x))
    kernel_sq = subspace_product(kernel, kernel, square.product_items)
    assert contains(kernel_sq, coords(xx))


@criterion(4, "rationality pipeline")
def test_criterion_4_series_pipeline(stanley):
    out, err = io.StringIO(), io.StringIO()
    code = cli_run(
        ["series", "builtin:stanley-p3", "--rmax", "4", "--json"], stdout=out, stderr=err
    )
    assert code == 0, err.getvalue()
    report = json.loads(out.getvalue())
    analysis = report["result"]["analysis"]
    assert analysis["verdict"] == "rational_form_detected"
    assert analysis["p_coeffs"] == [0, 2, -1]  # P(x) = 2x - x^2
    assert analysis["p_at_one"] == 1
    assert report["result"]["cl"] == 1
    assert report["result"]["p_at_one_equals_cl"] is True
    assert analysis["p_at_one"] < 2  # strictly below the category of the source space
    library_view = series_pipeline(stanley, 4)
    assert library_view.sequence.values == (2, 3, 4, 5)
    assert library_view.certified


@criterion(5, "oracle equivalence over the corpus")
def test_criterion_5_oracle_equivalence(corpus, random_corpus, corpus_zcl_table):
    assert len(random_corpus) >= 100
    assert all(alg.dim <= 5 for alg in random_corpus)
    assert all(max(alg.degrees) <= 6 for alg in random_corpus)
    fields = {str(alg.field) for alg in random_corpus}
    assert fields == {"F2", "F3", "F5", "Q"}
    mismatches = []
    for alg, cl_value, zcl_values in corpus_zcl_table:
        if cl_value != cup_length_oracle(alg):
            mismatches.append((alg.name, "cl"))
        for r, value in zcl_values.items():
            if value != zcl_oracle(alg, r):
                mismatches.append((alg.name, f"zcl_{r}"))
    assert mismatches == []


@criterion(6, "inequality suite")
def test_criterion_6_inequalities(corpus, corpus_zcl_table):
    # zcl_r <= r*cl at every computed r; zcl_{r+1} >= zcl_r + cl on consecutive r
    for alg, cl_value, zcl_values in corpus_zcl_table:
        for r, value in zcl_values.items():
            assert value <= r * cl_value, alg.name
            if r + 1 in zcl_values:
                assert zcl_values[r + 1] >= value + cl_value, alg.name
    # cup-length additivity across tensor products, >= 100 random pairs
    rng = random.Random(20250811)
    pairs_checked = 0
    while pairs_checked < 100:
        a, b = rng.choice(corpus), rng.choice(corpus)
        if a.field != b.field or a.dim * b.dim > 25:
            continue
        both = tensor_product(a, b)
        assert cup_length(both).value == cup_length(a).value + cup_length(b).value
        pairs_checked += 1
    # the power special case at small r
    small = [alg for alg, _, _ in corpus_zcl_table if 1 < alg.dim <= 4][:5]
    for alg in small:
        base = cup_length(alg).value
        for r in (2, 3):
            assert cup_length(alg.tensor_power(r, max_dim=None)).value == r * base


@criterion(7, "series round trips")
def test_criterion_7_series_round_trips():
    rng = random.Random(20250812)
    trips = 0
    while trips < 1000:
        coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(0, 7))]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        n = len(coeffs) + 4 + rng.randint(0, 4)
        window = reconstruct_series(coeffs, n)
        report = analyze_sequence(window, min_run=3)
        assert report.verdict == RATIONAL_FORM_DETECTED
        assert report.a == sum(coeffs)
        assert list(report.p_coeffs) == coeffs
        assert reconstruct_series(report.p_coeffs, n) == window
        trips += 1
    # alternating and noise sequences must not be detected
    assert (
        analyze_sequence(IntSequence(0, (0, 1, 0, 1, 0, 1))).verdict
        == NOT_ARITHMETIC_IN_WINDOW
    )
    noise_checked = 0
    while noise_checked < 100:
        values = [rng.randint(-9, 9) for _ in range(rng.randint(5, 9))]
        if values[-1] - values[-2] == values[-2] - values[-3]:
            values[-1] += rng.randint(1, 3)
        verdict = analyze_sequence(IntSequence(0, tuple(values))).verdict
        assert verdict == NOT_ARITHMETIC_IN_WINDOW
        noise_checked += 1


@criterion(8, "sphere sanity")
def test_criterion_8_sphere_sanity():
    odd = builtin_algebra("sphere-odd:3")
    even = builtin_algebra("sphere-even:2")
    odd_zcl = zcl_exact(odd, 2)
    even_zcl = zcl_exact(even, 2)
    assert odd_zcl.value == 1 == zcl_oracle(odd, 2)
    assert even_zcl.value == 2 == zcl_oracle(even, 2)
    assert verify_witness(odd, odd_zcl.witness).ok
    assert verify_witness(even, even_zcl.witness).ok
