"""``zclkit analyze``: the rationality data of a sequence given on the command line."""

from .. import series
from ..errors import ValidationError, parse_int
from .analysis_payload import analysis_payload


def run(args):
    try:
        values = tuple(parse_int(x) for x in args.seq.split(","))
    except ValueError:
        raise ValidationError(f"--seq must be comma-separated integers, got {args.seq!r}") from None
    seq = series.IntSequence(args.offset, values)
    report = series.analyze_sequence(seq, min_run=args.min_run)
    payload = {
        "kind": "analysis",
        "offset": seq.offset,
        "values": list(seq.values),
        "min_run": args.min_run,
    }
    payload.update(analysis_payload(report))
    return payload, report.verdict == series.RATIONAL_FORM_DETECTED
