"""A witness as ``zcl`` and ``witness`` report it: checked again, each factor printed as its letter."""

from .. import invariants
from ..errors import power_fits, refuse


def witness_payload(alg, witness, max_dim) -> dict:
    """The report of ``witness``, whose letters, one line each, number at most ``max_dim``."""
    if witness is None:
        return None
    if not power_fits(witness.length, 1, max_dim):
        refuse(f"the bounds witness at r = {witness.r} has {witness.length} letters, over", max_dim)
    report = invariants.verify_witness(alg, witness)
    text = invariants.row_text
    seed_power = alg.tensor_power(witness.seed_r, max_dim=None)
    # the letters past the seed repeat the chain's rows: each row is put into text once
    letters = [(text(alg, y), s) for y, s in witness.seed]
    chain = [text(alg, y) for y in witness.chain]
    letters += [(row, s) for s in range(witness.seed_r + 1, witness.r + 1) for row in chain]
    return {
        "r": witness.r,
        "seed_r": witness.seed_r,
        "length": witness.length,
        "factors": [f"({row})^({s}) - ({row})^(1)" for row, s in letters],
        "product": text(seed_power, witness.product),
        "verified": report.ok,
        "problems": list(report.problems),
    }
