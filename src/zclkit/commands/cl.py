"""``zclkit cl``: the cup-length with a maximal chain."""

from .. import invariants


def run(alg, args):
    res = invariants.cup_length(alg)
    payload = {
        "kind": "cl",
        "name": alg.name,
        "value": res.value,
        "chain": [invariants.row_text(alg, e) for e in res.chain],
    }
    return payload, True
