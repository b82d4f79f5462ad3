"""JSON algebra files: the single interchange format.

Coefficients travel as strings so exact rationals and large integers never
touch a floating-point parser.  Unknown keys are rejected at every level;
the machine-readable schema ships in ``schemas/algebra.schema.json``.  The
file form is :meth:`~zclkit.algebra.AlgebraPresentation.to_dict`, written
as ``json.dump(..., indent=2, ensure_ascii=False)`` writes it, plus a
newline.  Reading one back is checked in ``reader``, which
:func:`load_presentation` imports with ``json``: so ``tensor``, which only
writes, compiles neither, and ``json`` loads only with a command that
reads an algebra file.
"""

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

    if data is None:
        with open(path, "rb") as file:
            data = file.read()
    try:
        doc = json.loads(data.decode("utf-8"))
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

    Each label is quoted once.  A coefficient is written by
    :meth:`~zclkit.fields.Field.format`, whose digits, sign and slash need
    no escape.
    """
    field = alg.field
    kind = f'"prime",\n    "p": {field.p}' if field.is_prime_field else '"rational"'
    labels = [quote(alg.label_of(i)) for i in range(alg.dim)]
    core = alg._core_table()
    fmt = field.format
    with open(path, "w", encoding="utf-8") as file:
        write = file.write
        write(_HEAD % (quote(alg.name), kind))
        write(",".join(_BASIS % (labels[i], alg.degree_of(i)) for i in range(alg.dim)))
        write('\n  ],\n  "products": [')
        sep = ""
        for key in sorted(core):
            row = core[key]
            if row:
                terms = ",".join(_TERM % (fmt(c), labels[k]) for k, c in row.items())
                write(sep + _PRODUCT % (labels[key[0]], labels[key[1]], terms))
                sep = ","
        write("\n  ]\n}\n" if sep else "]\n}\n")
