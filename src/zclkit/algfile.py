"""JSON algebra files: the single interchange format.

Coefficients travel as strings so exact rationals and large integers never
touch a floating-point parser.  Unknown keys are rejected at every level;
the machine-readable schema ships in ``schemas/algebra.schema.json``.  The
file form is :meth:`~zclkit.algebra.AlgebraPresentation.to_dict`; reading
one back is checked in ``reader``, which :func:`load_presentation` imports,
so ``tensor``, which only writes, never compiles it.
"""

from __future__ import annotations

import json

from .errors import ValidationError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .algebra import Algebra, AlgebraPresentation


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
    from .reader import presentation_from_dict

    return presentation_from_dict(doc)


def save_algebra(alg: Algebra, path) -> None:
    """Write ``alg`` to ``path`` as an algebra file, streamed: the text is never held whole."""
    doc = alg.to_presentation().to_dict()
    with open(path, "w", encoding="utf-8") as file:
        json.dump(doc, file, indent=2, ensure_ascii=False)
        file.write("\n")
