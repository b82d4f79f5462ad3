"""Exact sparse linear algebra: the one elimination step the invariants need.

Everything is computed over a :class:`~zclkit.fields.Field` with no
floating point.  Vectors are sparse rows, dicts from column index to
nonzero coefficient, because products in tensor powers are mostly zero.
An echelon is a dict from pivot column to a row whose smallest column is
that pivot, with coefficient 1 there; :func:`reduce_into` grows it one
row at a time, which is forward Gaussian elimination.  Whether a row is
new to a span is decided here alone: a row and any nonzero multiple of it
reduce alike, so no caller needs to normalise or deduplicate first.
"""

from .fields import Field

SparseRow = dict  # column index -> nonzero coefficient


def reduce_into(field: Field, echelon: dict, row: SparseRow) -> bool:
    """Reduce a copy of ``row`` against ``echelon``; keep it if it survives.

    Returns True, after adding the normalised remainder under its leading
    column, when ``row`` is independent of the echelon's rows, else False.
    ``row`` itself is left unchanged.
    """
    mul, sub = field.mul, field.sub
    zero = field.zero
    row = dict(row)
    while row:
        lead = min(row)
        prow = echelon.get(lead)
        if prow is None:
            c = row[lead]
            if c != field.one:
                ic = field.inv(c)
                row = {k: mul(v, ic) for k, v in row.items()}
            echelon[lead] = row
            return True
        f = row[lead]
        for k, v in prow.items():
            nv = sub(row.get(k, zero), mul(f, v))
            if nv:
                row[k] = nv
            else:
                row.pop(k, None)
    return False
