"""``zclkit check``: the validated algebra's shape."""


def run(alg, args):
    payload = {
        "kind": "check",
        "name": alg.name,
        "field": str(alg.field),
        "dim": alg.dim,
        "degrees": list(alg.degrees),
        "unit": alg.label_of(alg.unit_index),
        "valid": True,
    }
    return payload, True
