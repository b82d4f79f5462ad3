"""A witness as ``zcl`` and ``witness`` report it: checked again, each factor printed as its letter."""

from .. import invariants


def witness_payload(alg, witness) -> dict:
    if witness is None:
        return None
    report = invariants.verify_witness(alg, witness)
    text = invariants.row_text
    seed_power = alg.tensor_power(witness.seed_r, max_dim=None)
    return {
        "r": witness.r,
        "seed_r": witness.seed_r,
        "length": len(witness.factors),
        "factors": [f"({text(alg, y)})^({s}) - ({text(alg, y)})^(1)" for y, s in witness.factors],
        "product": text(seed_power, witness.product),
        "verified": report.ok,
        "problems": list(report.problems),
    }
