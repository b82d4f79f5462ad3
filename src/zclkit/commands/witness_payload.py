"""A witness as ``zcl`` and ``witness`` report it: checked again from scratch."""

from .. import invariants


def witness_payload(alg, witness) -> dict:
    if witness is None:
        return None
    report = invariants.verify_witness(alg, witness)
    return {
        "r": witness.r,
        "length": len(witness.factors),
        "factors": [str(f) for f in invariants.witness_factors(alg, witness)],
        "product": str(witness.product),
        "verified": report.ok,
        "projection_checked": report.projection_checked,
        "problems": list(report.problems),
    }
