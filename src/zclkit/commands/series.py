"""``zclkit series``: zcl_r for r = 2..rmax+1 and the rationality data of the sequence."""

from .. import pipeline
from ..errors import power_fits, refuse
from .analysis_payload import analysis_payload


def run(alg, args):
    if not power_fits(args.rmax, 1, args.max_dim):
        refuse(f"rmax {args.rmax} exceeds", args.max_dim)
    outcome = pipeline.series_pipeline(alg, args.rmax, min_run=args.min_run, max_dim=args.max_dim)
    entries = [
        {
            "r": e.r,
            "method": e.method,
            "value": e.value,
            "lower": e.lower,
            "upper": e.upper,
        }
        for e in outcome.entries
    ]
    payload = {
        "kind": "series",
        "name": alg.name,
        "rmax": outcome.rmax,
        "cl": outcome.cl_value,
        "entries": entries,
        "sequence": (
            {"offset": outcome.sequence.offset, "values": list(outcome.sequence.values)}
            if outcome.sequence is not None
            else None
        ),
        "analysis": analysis_payload(outcome.analysis) if outcome.analysis else None,
        "p_at_one_equals_cl": (
            outcome.p_at_one == outcome.cl_value if outcome.p_at_one is not None else None
        ),
        "certified": outcome.certified,
    }
    return payload, outcome.certified
