"""The zcl-profile-to-series pipeline on catalog algebras."""

import pytest

from zclkit import builtin_algebra, invariants, series_pipeline
from zclkit.errors import ValidationError
from zclkit.series import RATIONAL_FORM_DETECTED


def test_pipeline_rejects_tiny_windows(stanley):
    with pytest.raises(ValidationError):
        series_pipeline(stanley, 2)


def test_point_profile_is_all_zero():
    out = series_pipeline(builtin_algebra("point"), 4)
    assert out.sequence.values == (0, 0, 0, 0)
    assert out.analysis.verdict == RATIONAL_FORM_DETECTED
    assert out.analysis.p_coeffs == ()
    assert out.certified


def test_even_sphere_short_window():
    # three exact entries; a shorter evidence run is needed for a verdict
    out = series_pipeline(builtin_algebra("sphere-even:2"), 3, min_run=2)
    assert [e.value for e in out.entries] == [2, 3, 4]
    assert all(e.method == "exact" for e in out.entries)
    assert out.p_at_one == 1 == out.cl_value
    assert out.certified


def test_uncertified_entries_skip_analysis(stanley):
    out = series_pipeline(stanley, 3, max_dim=8)
    assert all(e.value is None for e in out.entries)
    assert out.sequence is None
    assert out.analysis is None
    assert not out.certified


def test_entries_fall_back_to_bounds_beyond_the_ceiling(stanley):
    out = series_pipeline(stanley, 4, max_dim=256)
    methods = [e.method for e in out.entries]
    assert methods == ["exact", "exact", "exact", "bounds"]
    assert [e.value for e in out.entries] == [2, 3, 4, 5]
    assert out.certified
    assert out.p_at_one == 1


@pytest.mark.parametrize("max_dim", [0, 1])
def test_a_tiny_ceiling_is_honoured(stanley, max_dim):
    # no tensor power fits, so every entry is an uncertified sandwich
    out = series_pipeline(stanley, 3, max_dim=max_dim)
    assert [e.method for e in out.entries] == ["bounds"] * 3
    assert all(e.value is None and e.lower == 0 for e in out.entries)
    assert not out.certified


def test_series_builds_the_cup_length_ladder_once(monkeypatch):
    # cl(A) feeds every entry's upper bound; it is computed once per algebra
    alg = builtin_algebra("stanley-p3")
    ladders = []
    walk = invariants._walk

    def recording(a, n, times, ceiling):
        ladders.append(a)
        return walk(a, n, times, ceiling)

    monkeypatch.setattr(invariants, "_walk", recording)
    out = series_pipeline(alg, 3)
    assert [e.method for e in out.entries] == ["exact"] * 3
    assert sum(a is alg for a in ladders) == 1
    assert len(ladders) == 4  # the cl ladder, then one per r = 2, 3, 4


def test_series_past_the_ceiling_extends_the_entry_before_it(monkeypatch):
    # the torus: exact walks at r = 2..6 (d^6 = 4096), then r = 7..13 from the
    # r = 4 seed already walked, one extension step per r
    alg = builtin_algebra("surface:1")
    calls = []
    walk, extend = invariants._walk, invariants.witness_extend

    def walking(a, n, times, ceiling):
        calls.append("walk")
        return walk(a, n, times, ceiling)

    def extending(a, w, chain):
        calls.append("extend")
        return extend(a, w, chain)

    monkeypatch.setattr(invariants, "_walk", walking)
    monkeypatch.setattr(invariants, "witness_extend", extending)
    out = series_pipeline(alg, 12)
    assert [e.method for e in out.entries] == ["exact"] * 5 + ["bounds"] * 7
    assert (calls.count("walk"), calls.count("extend")) == (6, 9)
