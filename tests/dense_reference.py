"""Textbook dense elimination, the reference the sparse core is tested against.

Nothing here calls zclkit's elimination: :func:`rref` is Gauss-Jordan on
dense rows, and the helpers that take a :class:`~zclkit.linalg.Subspace`
only read its stored rows.  Only :func:`span` builds a subspace, through
``Subspace.from_sparse_rows``, for tests that need one from dense rows.
"""

from zclkit.errors import ValidationError
from zclkit.linalg import Subspace


def matrix(field, rows):
    """Dense rows of canonical scalars from ints, Fractions or literals."""
    return tuple(tuple(field.coerce(x) for x in row) for row in rows)


def rref(field, rows, ncols):
    """Reduced row echelon form with zero rows dropped: (rows, rank, pivots).

    For each column the first remaining row with a nonzero entry is the pivot.
    """
    rows = [list(r) for r in rows]
    if any(len(r) != ncols for r in rows):
        raise ValidationError("matrix rows must all have the same length")
    zero, one = field.zero, field.one
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        if lead != one:
            inv = field.inv(lead)
            rows[rank] = [field.mul(x, inv) for x in rows[rank]]
        for i in range(len(rows)):
            f = rows[i][col]
            if i != rank and f != zero:
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return tuple(tuple(r) for r in rows[:rank]), rank, tuple(pivots)


def null_space(field, rows, ncols):
    """Dense RREF basis of ``{v : m v = 0}`` for the matrix with these rows."""
    red, _, pivots = rref(field, rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [field.zero] * ncols
        v[f] = field.one
        for row, pc in zip(red, pivots):
            v[pc] = field.neg(row[f])
        basis.append(v)
    return rref(field, basis, ncols)[0]


def dense_rows(sub):
    """The stored basis of a subspace as dense tuples."""
    zero = sub.field.zero
    return tuple(
        tuple(row.get(j, zero) for j in range(sub.ambient_dim)) for row in sub.rows
    )


def span(field, rows, ambient_dim):
    """The subspace spanned by dense rows."""
    sparse = ({j: x for j, x in enumerate(row) if x} for row in rows)
    return Subspace.from_sparse_rows(field, sparse, ambient_dim)


def contains(sub, v):
    """Whether the dense vector ``v`` lies in ``sub``."""
    if len(v) != sub.ambient_dim:
        raise ValidationError(
            f"vector length {len(v)} does not match ambient dimension {sub.ambient_dim}"
        )
    rank = rref(sub.field, dense_rows(sub) + (tuple(v),), sub.ambient_dim)[1]
    return rank == sub.dim


def is_subspace_of(s, t):
    return all(contains(t, row) for row in dense_rows(s))
