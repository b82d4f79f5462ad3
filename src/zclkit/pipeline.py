"""End-to-end run: zero-divisor cup-lengths -> sequence -> rationality data."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import Algebra
from .errors import ValidationError
from .invariants import cup_length, zcl_auto
from .series import (
    DEFAULT_MIN_RUN,
    RATIONAL_FORM_DETECTED,
    IntSequence,
    RationalityReport,
    analyze_sequence,
)


@dataclass(frozen=True)
class SeriesOutcome:
    rmax: int
    cl_value: int
    entries: tuple  # ZclResult for r = 2 .. rmax+1
    sequence: Optional[IntSequence]  # t_r = zcl_{r+1}, offset 1
    analysis: Optional[RationalityReport]

    @property
    def certified(self) -> bool:
        """All entries pinned to a value and the analyzer detected the form."""
        return (
            all(e.value is not None for e in self.entries)
            and self.analysis is not None
            and self.analysis.verdict == RATIONAL_FORM_DETECTED
        )

    @property
    def p_at_one(self) -> Optional[int]:
        if self.analysis is not None and self.analysis.a is not None:
            return self.analysis.a
        return None


def series_pipeline(
    a: Algebra,
    rmax: int,
    min_run: int = DEFAULT_MIN_RUN,
    max_dim: Optional[int] = None,
) -> SeriesOutcome:
    """Compute zcl_r for r = 2..rmax+1 and analyze t_r = zcl_{r+1}.

    Each r takes the route :func:`~zclkit.invariants.zcl_auto` picks for the
    ceiling ``max_dim``; entries keep their method tag so callers can tell
    certified values from sandwiches that did not close.
    """
    if rmax < 3:
        raise ValidationError("series pipeline needs rmax >= 3")
    cl_value = cup_length(a).value
    entries = [zcl_auto(a, r, max_dim=max_dim) for r in range(2, rmax + 2)]
    sequence = None
    analysis = None
    if all(e.value is not None for e in entries):
        sequence = IntSequence(1, tuple(e.value for e in entries))
        analysis = analyze_sequence(sequence, min_run=min_run)
    return SeriesOutcome(rmax, cl_value, tuple(entries), sequence, analysis)
