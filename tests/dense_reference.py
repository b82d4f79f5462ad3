"""Textbook references the sparse core and the invariants are tested against.

:func:`rref` is Gauss-Jordan on dense rows and :func:`null_space` takes its
kernel from it.  The helpers that take a :class:`~zclkit.linalg.Subspace`
only read its stored rows; only :func:`span`, :func:`kernel_basis` and
:func:`kernel_mu` eliminate through the sparse core, for the tests that
compare it with the dense one.  The oracles search every product of their
letters, and :func:`zcl_oracle` takes its kernel from :func:`null_space`,
so it shares no elimination code with ``zcl_exact``.
:func:`associativity_failures` completes a presentation's table itself,
with no call into zclkit's algebra code.
"""

import itertools

from zclkit.algebra import DEFAULT_MAX_DIM
from zclkit.errors import ResourceLimitError, ValidationError
from zclkit.linalg import Subspace, normalize_sparse
from zclkit.series import IntSequence

DEFAULT_ORACLE_DIM = 64
DEFAULT_ORACLE_AMBIENT = 81


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


def coords(element):
    """The dense coordinate tuple of an element."""
    zero = element.algebra.field.zero
    return tuple(element.terms.get(i, zero) for i in range(element.algebra.dim))


def full_space(field, ambient_dim):
    """The whole ambient space, stored as its RREF basis of unit rows."""
    one = field.one
    rows = tuple({i: one} for i in range(ambient_dim))
    return Subspace(field, ambient_dim, rows, tuple(range(ambient_dim)))


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



def kernel_basis(field, rows, ncols):
    """Null space ``{v : m v = 0}`` of the matrix with these sparse rows."""
    reduced = Subspace.from_sparse_rows(field, rows, ncols)
    pivot_set = set(reduced.pivots)
    kernel = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        row = {f: field.one}
        for red, pc in zip(reduced.rows, reduced.pivots):
            x = red.get(f)
            if x:
                row[pc] = field.neg(x)
        kernel.append(row)
    return Subspace.from_sparse_rows(field, kernel, ncols)


def mu_matrix(power):
    """Sparse rows of the collapse map's matrix, base dim x power dim."""
    rows = [{} for _ in range(power.base.dim)]
    for col in range(power.dim):
        for k, c in power.mu_of_basis(col).items():
            rows[k][col] = c
    return rows


def kernel_mu(a, r, max_dim=DEFAULT_MAX_DIM):
    """RREF basis of the zero-divisor ideal ker(mu_r) inside the r-th power."""
    if r < 2:
        raise ValidationError("the zero-divisor ideal needs r >= 2")
    power = a.tensor_power(r, max_dim)
    return kernel_basis(a.field, mu_matrix(power), power.dim)


def collapse_matrix(alg, r):
    """The collapse map's dense matrix, multiplying basis tuples out slot by slot."""
    field = alg.field
    d = alg.dim
    columns = []
    for t in itertools.product(range(d), repeat=r):
        v = [field.zero] * d
        v[t[0]] = field.one
        for slot in t[1:]:
            out = [field.zero] * d
            for i, c in enumerate(v):
                if c:
                    for coeff, k in alg.basis_product(i, slot):
                        out[k] = field.add(out[k], field.mul(c, coeff))
            v = out
        columns.append(v)
    return [tuple(col[k] for col in columns) for k in range(d)]



def _longest_product_dp(a, letters):
    """Exhaustive search over products of the letters, memoized up to scaling."""
    if not letters:
        return 0
    field = a.field
    best = {}
    work = []
    for lit in letters:
        key, norm = normalize_sparse(field, dict(lit))
        if best.get(key, 0) < 1:
            best[key] = 1
            work.append((list(norm.items()), 1))
    while work:
        items, length = work.pop()
        for lit in letters:
            prod = a.product_items(items, lit)
            if not prod:
                continue
            key, norm = normalize_sparse(field, prod)
            if best.get(key, 0) < length + 1:
                best[key] = length + 1
                work.append((list(norm.items()), length + 1))
    return max(best.values())


def cup_length_oracle(a, max_dim=DEFAULT_ORACLE_DIM):
    """Independent brute-force cup-length; small algebras only."""
    if a.dim > max_dim:
        raise ResourceLimitError(f"oracle guard: dim {a.dim} exceeds {max_dim}")
    one = a.field.one
    letters = [[(i, one)] for i in range(a.dim) if a.degree_of(i) > 0]
    return _longest_product_dp(a, letters)


def zcl_oracle(a, r, max_ambient=DEFAULT_ORACLE_AMBIENT):
    """Independent brute force: exhaustive products of dense kernel basis rows."""
    if r < 2:
        raise ValidationError("zero-divisor cup-length needs r >= 2")
    if a.dim ** r > max_ambient:
        raise ResourceLimitError(
            f"oracle guard: ambient dimension {a.dim ** r} exceeds {max_ambient}"
        )
    power = a.tensor_power(r, max_dim=None)
    kernel = null_space(a.field, collapse_matrix(a, r), power.dim)
    letters = [[(j, x) for j, x in enumerate(row) if x] for row in kernel]
    return _longest_product_dp(power, letters)



def reconstruct_series(p_coeffs, n):
    """First n coefficients of P(x)/(1-x)^2 by exact convolution with (r+1)."""
    if n < 1:
        raise ValidationError("need at least one coefficient")
    values = []
    for r in range(n):
        acc = 0
        for k, c in enumerate(p_coeffs):
            if k > r:
                break
            acc += c * (r - k + 1)
        values.append(acc)
    return IntSequence(0, tuple(values))


def sandwich_check(t, a, c):
    """True iff t_{r-1} + a <= t_r and t_r <= r*a + c across the window."""
    for i, v in enumerate(t.values):
        r = t.offset + i
        if v > r * a + c:
            return False
        if i > 0 and t.values[i - 1] + a > v:
            return False
    return True
