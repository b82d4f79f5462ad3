"""A sequence analysis as ``series`` and ``analyze`` report it."""

from ..series import polynomial_to_text


def analysis_payload(report) -> dict:
    coeffs = report.p_coeffs
    return {
        "verdict": report.verdict,
        "a": report.a,
        "d": report.d,
        "stabilization_index": report.stabilization_index,
        "p_coeffs": list(coeffs) if coeffs is not None else None,
        "p_text": polynomial_to_text(coeffs) if coeffs is not None else None,
        "p_at_one": sum(coeffs) if coeffs is not None else None,
        "window_used": report.window_used,
    }
