"""``zclkit tensor``: write the r-th tensor power to a file."""

from .. import algfile
from ..errors import ValidationError


def run(alg, args):
    power = alg.tensor_power(args.r, max_dim=args.max_dim)
    try:
        algfile.save_algebra(power, args.out)
    except OSError as exc:
        raise ValidationError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    payload = {
        "kind": "tensor",
        "name": power.name,
        "r": args.r,
        "dim": power.dim,
        "out": str(args.out),
    }
    return payload, True
