"""JSON algebra files: the single interchange format.

Coefficients travel as strings so exact rationals and large integers never
touch a floating-point parser.  Unknown keys are rejected at every level;
the machine-readable schema ships in ``schemas/algebra.schema.json``.
"""

from __future__ import annotations

import json

from .algebra import Algebra, AlgebraPresentation
from .errors import ValidationError
from .fields import Field


def _require_keys(doc: dict, required, where: str, optional=()):
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: expected a JSON object")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ValidationError(f"{where}: missing keys {missing}")
    unknown = [k for k in doc if k not in required and k not in optional]
    if unknown:
        raise ValidationError(f"{where}: unknown keys {unknown}")


def field_to_dict(field: Field) -> dict:
    if field.is_prime_field:
        return {"kind": "prime", "p": field.p}
    return {"kind": "rational"}


def field_from_dict(doc, where: str = "field") -> Field:
    _require_keys(doc, ["kind"], where, optional=["p"])
    kind = doc["kind"]
    if kind == "rational":
        if "p" in doc:
            raise ValidationError(f"{where}: 'p' is only valid for prime fields")
        return Field.rationals()
    if kind == "prime":
        if "p" not in doc:
            raise ValidationError(f"{where}: prime field needs 'p'")
        p = doc["p"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValidationError(f"{where}: 'p' must be an integer")
        return Field.prime(p)
    raise ValidationError(f"{where}: unknown field kind {kind!r}")


def presentation_to_dict(pres: AlgebraPresentation) -> dict:
    field = pres.field
    labels = [lbl for lbl, _ in pres.basis]
    products = []
    for (i, j) in sorted(pres.products):
        terms = pres.products[(i, j)]
        if not terms:
            continue
        products.append(
            {
                "left": labels[i],
                "right": labels[j],
                "value": [
                    {"coeff": field.format(field.coerce(c)), "basis": labels[k]}
                    for c, k in terms
                ],
            }
        )
    return {
        "name": pres.name,
        "field": field_to_dict(field),
        "basis": [{"label": lbl, "degree": deg} for lbl, deg in pres.basis],
        "products": products,
    }


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
        terms = []
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
                value = field.parse(coeff)
            except (ValidationError, ZeroDivisionError) as exc:
                raise ValidationError(f"{where}.value[{m}]: {exc}") from None
            terms.append((value, index[lbl]))
        products[(i, j)] = tuple(terms)
    return AlgebraPresentation(name, field, tuple(basis), products)


def load_presentation(path, data: bytes | None = None) -> AlgebraPresentation:
    """Parse the algebra file at ``path``, or ``data``, its bytes as already read and hashed."""
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
    return presentation_from_dict(doc)


def save_algebra(alg: Algebra, path) -> None:
    doc = presentation_to_dict(alg.to_presentation())
    with open(path, "w", encoding="utf-8") as file:
        file.write(json.dumps(doc, indent=2, ensure_ascii=False) + "\n")
