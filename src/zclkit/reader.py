"""Reading an algebra file: its JSON document checked key by key.

Only a command whose algebra is a file loads this module, through
:func:`~zclkit.algfile.load_presentation`; a ``builtin:`` algebra never
does.  Unknown keys are rejected at every level, as ``load_presentation``
rejects repeated ones, and coefficients are strings, read by
:func:`parse_scalar` so that exact rationals and large integers never
touch a floating-point parser.
"""

from .algebra import AlgebraPresentation
from .errors import ValidationError
from .fields import Field

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .fields import Scalar


def parse_scalar(field: Field, text: str) -> "Scalar":
    """Parse ``[-]digits`` or ``[-]digits/digits`` into a canonical scalar of ``field``.

    Only ASCII digits, as ``schemas/algebra.schema.json`` requires (no
    ``+``, space or ``_``); a Unicode minus reads as ``-``.
    """
    s = text.replace("−", "-")
    num, slash, den = s.partition("/")
    if not (s.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash)):
        raise ValidationError(f"malformed scalar literal {text!r}")
    try:
        n, d = int(num), int(den or 1)
    except ValueError:  # more digits than int() reads
        raise ValidationError(f"scalar literal of {len(s)} characters, too long to read") from None
    if d == 0:
        raise ZeroDivisionError(f"zero denominator in scalar literal {text!r}")
    if not slash:
        return field.coerce(n)
    d = field.coerce(d)
    if not d:
        raise ZeroDivisionError(f"denominator of {text!r} is zero in {field}")
    return field.mul(field.coerce(n), field.inv(d))


def _require_keys(doc: dict, required, where: str, optional=()):
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: expected a JSON object")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ValidationError(f"{where}: missing keys {missing}")
    unknown = [k for k in doc if k not in required and k not in optional]
    if unknown:
        raise ValidationError(f"{where}: unknown keys {unknown}")


def field_from_dict(doc, where: str = "field") -> Field:
    _require_keys(doc, ["kind"], where, optional=["p"])
    kind = doc["kind"]
    if kind == "rational":
        if "p" in doc:
            raise ValidationError(f"{where}: 'p' is only valid for prime fields")
        return Field()
    if kind == "prime":
        if "p" not in doc:
            raise ValidationError(f"{where}: prime field needs 'p'")
        p = doc["p"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValidationError(f"{where}: 'p' must be an integer")
        return Field(p)
    raise ValidationError(f"{where}: unknown field kind {kind!r}")


def presentation_from_dict(doc) -> AlgebraPresentation:
    _require_keys(doc, ["name", "field", "basis", "products"], "algebra file")
    name = doc["name"]
    if not isinstance(name, str):
        raise ValidationError("algebra file: 'name' must be a string")
    field = field_from_dict(doc["field"])
    if not isinstance(doc["basis"], list):
        raise ValidationError("algebra file: 'basis' must be an array")
    basis = []
    for n, entry in enumerate(doc["basis"]):
        _require_keys(entry, ["label", "degree"], f"basis[{n}]")
        lbl, deg = entry["label"], entry["degree"]
        if not isinstance(lbl, str):
            raise ValidationError(f"basis[{n}]: label must be a string")
        if not isinstance(deg, int) or isinstance(deg, bool):
            raise ValidationError(f"basis[{n}]: degree must be an integer")
        basis.append((lbl, deg))
    index = {lbl: i for i, (lbl, _) in enumerate(basis)}
    if len(index) != len(basis):
        raise ValidationError("algebra file: duplicate basis labels")
    if not isinstance(doc["products"], list):
        raise ValidationError("algebra file: 'products' must be an array")
    products = {}
    for n, entry in enumerate(doc["products"]):
        where = f"products[{n}]"
        _require_keys(entry, ["left", "right", "value"], where)
        left, right = entry["left"], entry["right"]
        for lbl in (left, right):
            if not isinstance(lbl, str) or lbl not in index:
                raise ValidationError(f"{where}: unknown basis label {lbl!r}")
        i, j = index[left], index[right]
        if i > j:
            raise ValidationError(
                f"{where}: products must be listed with the earlier basis element "
                f"on the left ({right!r} precedes {left!r})"
            )
        if (i, j) in products:
            raise ValidationError(f"{where}: duplicate product entry ({left}, {right})")
        if not isinstance(entry["value"], list):
            raise ValidationError(f"{where}: 'value' must be an array")
        row = {}
        for m, term in enumerate(entry["value"]):
            _require_keys(term, ["coeff", "basis"], f"{where}.value[{m}]")
            coeff, lbl = term["coeff"], term["basis"]
            if not isinstance(coeff, str):
                raise ValidationError(
                    f"{where}.value[{m}]: coefficients must be strings, got {coeff!r}"
                )
            if not isinstance(lbl, str) or lbl not in index:
                raise ValidationError(f"{where}.value[{m}]: unknown basis label {lbl!r}")
            try:
                value = parse_scalar(field, coeff)
            except (ValidationError, ZeroDivisionError) as exc:
                raise ValidationError(f"{where}.value[{m}]: {exc}") from None
            k = index[lbl]
            row[k] = field.add(row[k], value) if k in row else value  # a repeated term sums
        products[(i, j)] = row
    return AlgebraPresentation(name, field, tuple(basis), products)
