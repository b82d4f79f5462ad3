"""Reading an algebra file: its JSON document checked key by key.

Only a command whose algebra is a file loads this module, through
:func:`~zclkit.algfile.load_presentation`; a ``builtin:`` algebra never
does.  Unknown keys are rejected at every level, as ``load_presentation``
rejects repeated ones, and coefficients are strings, read by
:func:`parse_scalar` so that exact rationals and large integers never
touch a floating-point parser.  Only the JSON form is checked here: the
presentation is built by ``AlgebraPresentation.from_labels``, and every
rule of the algebra is left to ``validate_algebra``.
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
        if doc.get("p") is None:  # Field(None) is the rationals
            raise ValidationError(f"{where}: prime field needs 'p'")
        return Field(doc["p"])
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
        if not isinstance(entry["label"], str):
            raise ValidationError(f"basis[{n}]: label must be a string")
        basis.append((entry["label"], entry["degree"]))
    if not isinstance(doc["products"], list):
        raise ValidationError("algebra file: 'products' must be an array")
    products = {}
    for n, entry in enumerate(doc["products"]):
        where = f"products[{n}]"
        _require_keys(entry, ["left", "right", "value"], where)
        left, right = entry["left"], entry["right"]
        for lbl in (left, right):
            if not isinstance(lbl, str):
                raise ValidationError(f"{where}: unknown basis label {lbl!r}")
        if (left, right) in products:
            raise ValidationError(f"{where}: duplicate product entry ({left}, {right})")
        if not isinstance(entry["value"], list):
            raise ValidationError(f"{where}: 'value' must be an array")
        row = products[(left, right)] = {}
        for m, term in enumerate(entry["value"]):
            at = f"{where}.value[{m}]"
            _require_keys(term, ["coeff", "basis"], at)
            coeff, lbl = term["coeff"], term["basis"]
            if not isinstance(coeff, str):
                raise ValidationError(f"{at}: coefficients must be strings, got {coeff!r}")
            if not isinstance(lbl, str):
                raise ValidationError(f"{at}: unknown basis label {lbl!r}")
            try:
                value = parse_scalar(field, coeff)
            except (ValidationError, ZeroDivisionError) as exc:
                raise ValidationError(f"{at}: {exc}") from None
            row[lbl] = field.add(row[lbl], value) if lbl in row else value  # a repeated term sums
    return AlgebraPresentation.from_labels(name, field, basis, products)
