"""``zclkit witness``: an explicit witness for zcl_r, verified."""

from .. import invariants
from .witness_payload import witness_payload


def run(alg, args):
    res = next(invariants.zcl_route(alg, args.r, args.max_dim))
    witness = witness_payload(alg, res.witness)
    payload = {
        "kind": "witness",
        "name": alg.name,
        "r": args.r,
        "method": res.method,
        "length": res.witness.length if res.witness else 0,
        "witness": witness,
    }
    return payload, witness is not None and witness["verified"]
