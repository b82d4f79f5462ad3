"""Eventually-arithmetic sequence detection and its rational-series form.

An integer sequence with t_r = r*a + d from some index onward is exactly
the coefficient sequence of P(x)/(1-x)^2 for an integer polynomial P with
P(1) = a.  Given a finite window this module detects the arithmetic tail,
and assembles P exactly as

    P(x) = (1-x)^2 * sum_r t_r x^r,

whose coefficients are the second differences of t_r, zero from stab + 2 on.

Verdicts only ever speak about the supplied window; nothing is
extrapolated.  The convolution that rebuilds a window from P, and the
sandwich check on a window, are test references in
``tests/dense_reference.py``.
"""

from .errors import ValidationError
from .record import Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Sequence

RATIONAL_FORM_DETECTED = "rational_form_detected"
INCONCLUSIVE = "inconclusive"
NOT_ARITHMETIC_IN_WINDOW = "not_arithmetic_in_window"

DEFAULT_MIN_RUN = 3


class IntSequence(Record):
    """Window of integer values t_r for r = offset, offset+1, ..."""

    _fields = ("offset", "values")

    def __init__(self, offset: int, values: tuple):
        if offset < 0:
            raise ValidationError("sequence offset must be nonnegative")
        if not values:
            raise ValidationError("sequence must be nonempty")
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValidationError("sequence values must be integers")
        super().__init__(offset, values)


# a: the stabilized difference, which equals P(1) on detection; d: the offset
# constant in t_r = r*a + d on the tail; stabilization_index: the first r with
# t_r = r*a + d in the window; p_coeffs: the numerator's coefficients, constant
# term first.  All four are None unless the form is detected.
class RationalityReport(Record):
    _fields = ("verdict", "a", "d", "stabilization_index", "p_coeffs", "window_used")


def analyze_sequence(t: IntSequence, min_run: int = DEFAULT_MIN_RUN) -> RationalityReport:
    """Detect a constant-difference tail backed by at least ``min_run`` steps."""
    if min_run < 2:
        raise ValidationError("min_run must be at least 2")
    values = t.values
    n = len(values)
    diffs = [values[i + 1] - values[i] for i in range(n - 1)]
    if len(diffs) < min_run:
        return RationalityReport(INCONCLUSIVE, None, None, None, None, n)
    a = diffs[-1]
    if any(d != a for d in diffs[-min_run:]):
        return RationalityReport(NOT_ARITHMETIC_IN_WINDOW, None, None, None, None, n)
    start = len(diffs)
    while start > 0 and diffs[start - 1] == a:
        start -= 1
    stab = t.offset + start
    d = values[-1] - (t.offset + n - 1) * a
    coeffs = polynomial_from_series(t, a, d, stab)
    return RationalityReport(RATIONAL_FORM_DETECTED, a, d, stab, tuple(coeffs), n)


def polynomial_from_series(t: IntSequence, a: int, d: int, stab: int) -> list:
    """Numerator P(x) of the series with window ``t`` and tail t_r = r*a + d.

    Coefficients of index r < offset are taken as zero; the tail rule must
    hold for every window entry at or after ``stab``.  Trailing zeros are
    stripped, so P = 0 comes back as [].
    """
    end = t.offset + len(t.values)
    if stab < 0 or stab > end:
        raise ValidationError("stabilization index outside the window")

    def term(r: int) -> int:
        if t.offset <= r < end:
            return t.values[r - t.offset]
        return 0

    for r in range(max(stab, t.offset), end):
        if term(r) != r * a + d:
            raise ValidationError(
                f"value at r={r} deviates from the arithmetic tail r*a + d"
            )
    # t_r for r <= stab + 1 after two zeros; its second differences are P
    u = [0, 0] + [term(r) if r < stab else r * a + d for r in range(stab + 2)]
    coeffs = [u[k + 2] - 2 * u[k + 1] + u[k] for k in range(stab + 2)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def polynomial_to_text(p_coeffs: "Sequence[int]", var: str = "x") -> str:
    """Human form of a coefficient list, constant term first."""
    if not any(p_coeffs):
        return "0"
    parts = []
    for k, c in enumerate(p_coeffs):
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            body = f"{mag}{var}" if k == 1 else f"{mag}{var}^{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
