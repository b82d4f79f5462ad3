"""JSON algebra files: the single interchange format.

Coefficients travel as strings so exact rationals and large integers never
touch a floating-point parser.  Unknown and repeated keys are rejected at
every level; the machine-readable schema ships in
``schemas/algebra.schema.json``.  The file form is
:meth:`~zclkit.algebra.AlgebraPresentation.to_dict`, written as
``json.dump(..., indent=2, ensure_ascii=False)`` writes it, plus a
newline.  Reading one back is checked in ``reader``, which
:func:`load_presentation` imports with ``json``: so ``tensor``, which only
writes, compiles neither, and ``json`` loads only with a command that
reads an algebra file.
"""

from .algebra import refuse_repeated_labels
from .errors import ValidationError
from .jsontext import quote

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .algebra import Algebra, AlgebraPresentation

# The head, one basis entry, product entry and product term of the file, as indent=2
# lays them out; the field is {"kind": "prime", "p": p} or {"kind": "rational"}
_HEAD = '{\n  "name": %s,\n  "field": {\n    "kind": %s\n  },\n  "basis": ['
_BASIS = '\n    {\n      "label": %s,\n      "degree": %d\n    }'
_PRODUCT = '\n    {\n      "left": %s,\n      "right": %s,\n      "value": [%s\n      ]\n    }'
_TERM = '\n        {\n          "coeff": "%s",\n          "basis": %s\n        }'


def load_presentation(path, data: "bytes | None" = None) -> "AlgebraPresentation":
    """Parse the algebra file at ``path``, or ``data``, its bytes as already read and hashed."""
    import json

    def unique(pairs: list) -> dict:
        """An object's members as a dict; a repeated key is an error, not the last copy."""
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            key = next(key for key in keys if keys.count(key) > 1)
            raise ValidationError(f"{path}: repeated key {key!r} in a JSON object")
        return obj

    def integer(digits: str) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than int() reads; place it as a JSON error would
            at = json.JSONDecodeError("", text, text.find(digits))
            raise ValidationError(f"{path}: the integer at line {at.lineno} column {at.colno} "
                                  f"has {len(digits)} characters, too long to read") from None

    if data is None:
        with open(path, "rb") as file:
            data = file.read()
    try:
        text = data.decode("utf-8")
        doc = json.loads(text, object_pairs_hook=unique, parse_int=integer)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise ValidationError(f"{path}: JSON nested too deeply to parse") from None
    from .reader import presentation_from_dict

    return presentation_from_dict(doc)


def save_algebra(alg: "Algebra", path) -> None:
    """Write ``alg`` to ``path`` as an algebra file, streamed entry by entry from its core table.

    Each label is quoted once, and a basis whose labels repeat is refused
    before the file is opened.  A coefficient is written by ``str``, whose
    digits, sign and slash need no escape.
    """
    field = alg.field
    kind = f'"prime",\n    "p": {field.p}' if field.p is not None else '"rational"'
    labels = [alg.label_of(i) for i in range(alg.dim)]
    refuse_repeated_labels(alg.name, labels)
    labels = list(map(quote, labels))
    core = alg._core_table()
    with open(path, "w", encoding="utf-8") as file:
        write = file.write
        write(_HEAD % (quote(alg.name), kind))
        write(",".join(_BASIS % (labels[i], alg.degree_of(i)) for i in range(alg.dim)))
        write('\n  ],\n  "products": [')
        sep = ""
        for key in sorted(core):
            row = core[key]
            if row:
                terms = ",".join(_TERM % (c, labels[k]) for k, c in row.items())
                write(sep + _PRODUCT % (labels[key[0]], labels[key[1]], terms))
                sep = ","
        write("\n  ]\n}\n" if sep else "]\n}\n")
