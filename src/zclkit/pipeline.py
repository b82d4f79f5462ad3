"""End-to-end run: zero-divisor cup-lengths -> sequence -> rationality data."""

from collections import namedtuple
from itertools import islice

from .algebra import DEFAULT_MAX_DIM, Algebra
from .errors import ValidationError
from .invariants import cup_length, zcl_route
from .series import (
    DEFAULT_MIN_RUN,
    RATIONAL_FORM_DETECTED,
    IntSequence,
    analyze_sequence,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional


# entries: a ZclResult for each r = 2 .. rmax+1; sequence: t_r = zcl_{r+1},
# offset 1, and analysis: its RationalityReport, both None unless every entry
# has a value
class SeriesOutcome(namedtuple("SeriesOutcome", "rmax cl_value entries sequence analysis")):
    """SeriesOutcome(rmax, cl_value, entries, sequence, analysis)"""

    __slots__ = ()

    @property
    def certified(self) -> bool:
        """All entries pinned to a value and the analyzer detected the form."""
        return (
            all(e.value is not None for e in self.entries)
            and self.analysis is not None
            and self.analysis.verdict == RATIONAL_FORM_DETECTED
        )

    @property
    def p_at_one(self) -> "Optional[int]":
        return self.analysis.a if self.analysis is not None else None


def series_pipeline(
    a: Algebra,
    rmax: int,
    min_run: int = DEFAULT_MIN_RUN,
    max_dim: "Optional[int]" = DEFAULT_MAX_DIM,
) -> SeriesOutcome:
    """Compute zcl_r for r = 2..rmax+1 and analyze t_r = zcl_{r+1}.

    The entries are the first rmax results of :func:`~zclkit.invariants.zcl_route`
    for the ceiling ``max_dim`` (None for no ceiling), past it one seed and the
    chain shared by every r; their method tags tell certified values from open sandwiches.
    """
    if rmax < 3:
        raise ValidationError("series pipeline needs rmax >= 3")
    cl_value = cup_length(a).value
    entries = tuple(islice(zcl_route(a, 2, max_dim), rmax))
    sequence = None
    analysis = None
    if all(e.value is not None for e in entries):
        sequence = IntSequence(1, tuple(e.value for e in entries))
        analysis = analyze_sequence(sequence, min_run=min_run)
    return SeriesOutcome(rmax, cl_value, entries, sequence, analysis)
