"""``zclkit builtins``: the catalog's names."""

from ..catalog import builtin_names


def run(args):
    return {"kind": "builtins", "names": list(builtin_names())}, True
