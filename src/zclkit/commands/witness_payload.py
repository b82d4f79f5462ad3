"""A witness as ``zcl`` and ``witness`` report it: checked again from scratch."""

from .. import invariants


def witness_payload(alg, witness) -> dict:
    if witness is None:
        return None
    report = invariants.verify_witness(alg, witness)
    power = alg.tensor_power(witness.r, max_dim=None)
    factors = invariants.witness_factors(alg, witness)
    return {
        "r": witness.r,
        "length": len(witness.factors),
        "factors": [invariants.row_text(power, f) for f in factors],
        "product": invariants.row_text(power, witness.product),
        "verified": report.ok,
        "projection_checked": report.projection_checked,
        "problems": list(report.problems),
    }
