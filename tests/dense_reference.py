"""Textbook dense references the sparse core is tested against.

Nothing here calls zclkit's elimination: :func:`rref` is Gauss-Jordan on
dense rows, and the helpers that take a :class:`~zclkit.linalg.Subspace`
only read its stored rows.  Only :func:`span` builds a subspace, through
``Subspace.from_sparse_rows``, for tests that need one from dense rows.
:func:`associativity_failures` completes a presentation's table itself and
compares both sides on every positive triple, with no call into zclkit's
algebra code.
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


def associativity_failures(pres):
    """Label triples ``(i, j, k)`` with ``(e_i e_j) e_k != e_i (e_j e_k)``.

    Every positive triple is compared, in ``(j, i, k)`` index order, on dense
    vectors.  The table is completed here from the raw presentation: the
    unit laws, summed terms, and ``e_j e_i = -e_i e_j`` when both degrees
    are odd.
    """
    field = pres.field
    labels = [lbl for lbl, _ in pres.basis]
    degrees = [deg for _, deg in pres.basis]
    dim = len(degrees)
    unit = degrees.index(0)

    def vector(terms):
        v = [field.zero] * dim
        for c, k in terms:
            v[k] = field.add(v[k], field.coerce(c))
        return v

    table = {}
    for i in range(dim):
        for j in range(dim):
            if i == unit or j == unit:
                table[i, j] = vector([(1, j if i == unit else i)])
            elif i <= j:
                table[i, j] = vector(pres.products.get((i, j), ()))
            else:
                v = vector(pres.products.get((j, i), ()))
                if degrees[i] & 1 and degrees[j] & 1:
                    v = [field.neg(x) for x in v]
                table[i, j] = v

    def combine(coeffs, column):
        out = [field.zero] * dim
        for m, c in enumerate(coeffs):
            if c == field.zero:
                continue
            for n, x in enumerate(column(m)):
                out[n] = field.add(out[n], field.mul(c, x))
        return out

    pos = [i for i in range(dim) if i != unit]
    failures = []
    for j in pos:
        for i in pos:
            for k in pos:
                lhs = combine(table[i, j], lambda m: table[m, k])
                rhs = combine(table[j, k], lambda m: table[i, m])
                if lhs != rhs:
                    failures.append((labels[i], labels[j], labels[k]))
    return failures
