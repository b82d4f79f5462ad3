"""``zclkit zcl``: zcl_r, exactly or as a certified sandwich."""

from .. import invariants
from .witness_payload import witness_payload


def run(alg, args):
    if args.method == "exact":
        res = invariants.zcl_exact(alg, args.r, max_dim=args.max_dim)
    else:
        res = invariants.zcl_bounds(alg, args.r, max_dim=args.max_dim)
    witness = witness_payload(alg, res.witness, args.max_dim)
    payload = {
        "kind": "zcl",
        "name": alg.name,
        "r": res.r,
        "method": res.method,
        "value": res.value,
        "lower": res.lower,
        "upper": res.upper,
        "witness": witness,
    }
    return payload, res.value is not None and (witness is None or witness["verified"])
