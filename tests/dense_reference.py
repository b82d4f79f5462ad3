"""Textbook references the sparse core and the invariants are tested against.

:func:`rref` is Gauss-Jordan on dense rows and :func:`null_space` takes its
kernel from it.  A :class:`Subspace` is a canonical RREF basis of sparse
rows: :func:`_sparse_rref` runs zclkit's one elimination step,
:func:`~zclkit.linalg.reduce_into`, over its rows and then back-substitutes,
so comparing :func:`span` with :func:`rref` checks that step.  The helpers
that take a Subspace only read its stored rows; only :func:`span`,
:func:`kernel_basis`, :func:`kernel_mu` and :func:`subspace_product`
eliminate through the sparse core.  The oracles search every product of
their letters, and :func:`zcl_oracle` takes its kernel from
:func:`null_space`, so it shares no elimination code with ``zcl_exact``.
:func:`first_longest_word` is the lexicographic depth-first search that
``zcl_exact``'s walk must agree with, over the rows of
:func:`zero_divisor_generators`, and ``cup_length``'s chain over the
positive basis; :func:`zero_divisor_reference` is the closed form of
y^(s) - y^(1) that the slot rule is checked against;
:func:`zcl_over_all_generators` walks every b^(s) - b^(1), not only the
indecomposable b, and :func:`full_walk` is the walk over every word, with
no ceiling.  :func:`indecomposable_labels` scans for the letters with
dense ranks, against :func:`decomposables_rank`.
:func:`normalize_sparse` keys a row by the line it spans.
:func:`zcl_bounds_largest_seed` is ``zcl_bounds`` without its r = 2 seed,
and its witness is multiplied out over all r slots by :func:`witness_extend`,
the incremental product the bounds route once ran: :func:`full_witness`
gives any bounds witness that form, the oracle for the extension lemma
``verify_witness`` relies on.  :func:`witness_letters` lists every letter
of a witness, which zclkit itself expands only to print a report.
:func:`mu` is the collapse map on a row of a tensor power.
:func:`associativity_failures` completes a presentation's table itself,
with no call into zclkit's algebra code, and :func:`tensor_basis_product`
derives the Koszul sign of a tensor product by counting swaps.
:func:`index_of_tuple` is the index of a slot tuple in a tensor power.
:func:`change_of_basis` rewrites a presentation in a random basis, not
monomial, by a change within each degree and a reorder.
:func:`div` divides two scalars, which zclkit's own code never does;
:func:`check` admits only a canonical scalar of a field, :func:`labels`
lists an algebra's basis labels, and :func:`to_presentation` gives the
presentation whose file form ``save_algebra`` writes, which only tests ask
for; and :func:`element`, :func:`one_element`, :func:`basis_element`,
:func:`element_from_labels`, :func:`coords`, :func:`add`, :func:`sub`,
:func:`neg`, :func:`scale` and :func:`multiply` build, read and combine
elements, sparse rows ``{index: coeff}`` of the algebra they take, as only
the tests do; zclkit itself only multiplies them.  ``QQ``, ``GF2``, ``GF3``
and ``GF5`` are the fields the tests name.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from zclkit.algebra import AlgebraPresentation
from zclkit.errors import DEFAULT_MAX_DIM, FieldMismatchError, ResourceLimitError, ValidationError
from zclkit.fields import Field
from zclkit.invariants import (
    DEFAULT_SEED_DIM,
    Witness,
    ZclResult,
    _collapse,
    _is_row,
    _walk,
    _zero_divisor_letters,
    cup_length,
    zcl_exact,
    zero_divisor,
    zero_divisor_product,
)
from zclkit.linalg import reduce_into
from zclkit.series import IntSequence

DEFAULT_ORACLE_DIM = 64
DEFAULT_ORACLE_AMBIENT = 81

QQ = Field()
GF2 = Field(2)
GF3 = Field(3)
GF5 = Field(5)


def check(field: Field, x):
    """Return ``x`` if it is a canonical element of ``field``, else raise FieldMismatchError."""
    if field.p is not None:
        if isinstance(x, int) and not isinstance(x, bool) and 0 <= x < field.p:
            return x
        raise FieldMismatchError(
            f"{x!r} is not a canonical residue of {field} (expected int in [0, {field.p}))"
        )
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, Fraction) and x.denominator != 1:
        return x
    raise FieldMismatchError(
        f"{x!r} is not a canonical rational (expected int, or Fraction with denominator > 1)"
    )


def labels(alg):
    """The basis labels of ``alg``, in index order."""
    return tuple(alg.label_of(i) for i in range(alg.dim))


def to_presentation(alg):
    """The presentation of ``alg``: its nonzero positive (i <= j) table rows.

    Its ``to_dict`` is the file form that ``algfile.save_algebra`` streams.
    Entries bypass the pair cache, which would otherwise keep the whole table.
    """
    basis = tuple((alg.label_of(i), alg.degree_of(i)) for i in range(alg.dim))
    return AlgebraPresentation(alg.name, alg.field, basis, dict(alg._core_table()))


def index_of_tuple(power, slots):
    """The index of a tuple of r base indices in a tensor power, slot 1 most significant."""
    idx = 0
    for slot in slots:
        idx = idx * power.base.dim + slot
    return idx


def basis_element(alg, i):
    return {i: alg.field.one}


def div(field: Field, x, y):
    """x / y in ``field``, in the canonical form of its scalars."""
    if not y:
        raise ZeroDivisionError(f"division by zero in {field}")
    if field.p is None:
        q = Fraction(x) / y
        return q.numerator if q.denominator == 1 else q
    return x * pow(y, -1, field.p) % field.p


def normalize_sparse(field, row):
    """Scale a sparse row so its leading coefficient is 1; return (hashable key, row)."""
    lead = min(row)
    c = row[lead]
    if c != field.one:
        ic = field.inv(c)
        row = {k: field.mul(v, ic) for k, v in row.items()}
    return tuple(sorted(row.items())), row


def zero_divisor_generators(power):
    """Sparse rows of x^(s) - x^(1) in a tensor power, in the order of zcl_exact's letters."""
    return [zero_divisor(power, y, s) for y, s in _zero_divisor_letters(power)]


def zero_divisor_reference(power, y, s):
    """y^(s) - y^(1) in a tensor power by its closed form, for y = {base index: coeff}.

    The tuple of units with slot q set to j has index ones + (j - unit) d^(r - q);
    y has positive degree and s >= 2, so the two sides share no index.
    """
    base, r = power.base, power.r
    ones, unit, d = power.unit_index, base.unit_index, base.dim
    out = {ones + (j - unit) * d ** (r - s): c for j, c in y.items()}
    out.update((ones + (j - unit) * d ** (r - 1), base.field.neg(c)) for j, c in y.items())
    return out


def zcl_over_all_generators(a, r):
    """zcl_r from the walk over every b^(s) - b^(1), b positive and s = 2..r.

    This is the generator set before the shortcut to indecomposable b; it
    generates the kernel by the splitting argument alone.
    """
    power = a.tensor_power(r, max_dim=None)
    one = a.field.one
    letters = [({b: one}, s) for b in range(a.dim) if a.degree_of(b) for s in range(2, r + 1)]
    word, _ = _walk(
        power,
        len(letters),
        lambda p, i: zero_divisor_product(power, p, *letters[i]),
        r * cup_length(a).value,
    )
    return len(word)


def full_walk(a, n, times):
    """``_walk`` with every letter after every kept word and no ceiling.

    Level m+1 multiplies each kept word of level m by each of the n letters
    and keeps a product when it is independent of those before it; the walk
    stops at the first empty level.  It needs no commutativity and no bound
    on the length, so it checks both shortcuts of ``_walk``.
    """
    field = a.field
    level = [((), {a.unit_index: field.one})]
    while True:
        echelon, nxt = {}, []
        for word, prod in level:
            for i in range(n):
                p = times(prod, i)
                if reduce_into(field, echelon, p):
                    nxt.append((word + (i,), p))
        if not nxt:
            word, prod = level[0]
            return (word, prod) if word else ((), None)
        level = nxt


def matrix(field, rows):
    """Dense rows of canonical scalars from ints or Fractions."""
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


def _sparse_rref(rows, field):
    """RREF of sparse rows; returns (list of pivot-sorted sparse rows, pivots)."""
    mul, sub = field.mul, field.sub
    zero = field.zero
    piv = {}
    for incoming in rows:
        reduce_into(field, piv, incoming)
    # Back-substitution: a row's non-lead keys are all larger than its lead,
    # so sweeping pivot columns in descending order leaves each row fully reduced.
    for c in sorted(piv, reverse=True):
        row = piv[c]
        for c2 in [k for k in row if k != c and k in piv]:
            f = row.get(c2)
            if not f:
                continue
            for k, v in piv[c2].items():
                nv = sub(row.get(k, zero), mul(f, v))
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    pivots = sorted(piv)
    return [piv[c] for c in pivots], pivots


@dataclass(frozen=True)
class Subspace:
    """A subspace stored as its unique RREF basis of sparse rows (no zero rows)."""

    field: Field
    ambient_dim: int
    rows: tuple  # RREF rows as {column: coeff}, in pivot order
    pivots: tuple

    @property
    def dim(self):
        return len(self.rows)

    @property
    def is_zero(self):
        return not self.rows

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, (), ())

    @classmethod
    def from_sparse_rows(cls, field, rows, ambient_dim):
        reduced, pivots = _sparse_rref(rows, field)
        return cls(field, ambient_dim, tuple(reduced), tuple(pivots))


def subspace_product(s, t, product_items):
    """Span of the products of basis rows of ``s`` and ``t``.

    ``product_items`` is a bilinear map on sparse ``(index, coeff)`` item
    lists that returns a dict.  All pairwise products are collected first
    and reduced in one pass; bilinearity makes basis products span the full
    product set.
    """
    if s.ambient_dim != t.ambient_dim:
        raise ValidationError("subspace product requires matching ambient dimensions")
    field = s.field
    seen = set()
    collected = []
    for u in s.rows:
        items_u = u.items()
        for v in t.rows:
            prod = product_items(items_u, v.items())
            if not prod:
                continue
            key, norm = normalize_sparse(field, prod)
            if key not in seen:
                seen.add(key)
                collected.append(norm)
    if not collected:
        return Subspace.zero(field, s.ambient_dim)
    return Subspace.from_sparse_rows(field, collected, s.ambient_dim)


def coords(alg, row):
    """The dense coordinate tuple of a row of ``alg``."""
    zero = alg.field.zero
    return tuple(row.get(i, zero) for i in range(alg.dim))


def element(alg, coords):
    """The row of ``alg`` with the dense coordinates ``coords``."""
    coords = tuple(alg.field.coerce(c) for c in coords)
    if len(coords) != alg.dim:
        raise ValidationError(f"coordinate length {len(coords)} does not match dim {alg.dim}")
    return {i: c for i, c in enumerate(coords) if c}


def one_element(alg):
    return basis_element(alg, alg.unit_index)


def element_from_labels(alg, terms):
    """The row of ``alg`` from a {label: coeff} mapping."""
    index = {lbl: i for i, lbl in enumerate(labels(alg))}
    out = {}
    for lbl, c in terms.items():
        if lbl not in index:
            raise ValidationError(f"unknown basis label {lbl!r}")
        c = alg.field.coerce(c)
        if c:
            out[index[lbl]] = c
    return out


def _combine(u, v, op, zero):
    out = dict(u)
    for k, b in v.items():
        c = op(out.get(k, zero), b)
        if c:
            out[k] = c
        else:
            out.pop(k, None)
    return out


def add(alg, u, v):
    return _combine(u, v, alg.field.add, alg.field.zero)


def sub(alg, u, v):
    return _combine(u, v, alg.field.sub, alg.field.zero)


def neg(alg, u):
    return {k: alg.field.neg(a) for k, a in u.items()}


def scale(alg, u, c):
    """c u, for a scalar c in any form the field coerces."""
    field = alg.field
    c = field.coerce(c)
    return {k: field.mul(c, a) for k, a in u.items()} if c else {}


def multiply(alg, u, v):
    """u v through the pair table of ``alg``."""
    return alg.product_items(u.items(), v.items())


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
    unit laws, coerced terms, and ``e_j e_i = -e_i e_j`` when both degrees
    are odd.
    """
    field = pres.field
    labels = [lbl for lbl, _ in pres.basis]
    degrees = [deg for _, deg in pres.basis]
    dim = len(degrees)
    unit = degrees.index(0)

    def vector(terms):
        v = [field.zero] * dim
        for k, c in terms.items():
            v[k] = field.add(v[k], field.coerce(c))
        return v

    table = {}
    for i in range(dim):
        for j in range(dim):
            if i == unit or j == unit:
                table[i, j] = vector({j if i == unit else i: 1})
            elif i <= j:
                table[i, j] = vector(pres.products.get((i, j), {}))
            else:
                v = vector(pres.products.get((j, i), {}))
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



def decomposable_rows(pres):
    """Dense rows of a presentation's table entries e_i e_j, which span (A+)^2."""
    field, dim = pres.field, len(pres.basis)
    rows = []
    for terms in pres.products.values():
        v = [field.zero] * dim
        for k, c in terms.items():
            v[k] = field.add(v[k], field.coerce(c))
        rows.append(v)
    return rows


def decomposables_rank(pres):
    """The dense rank of the span of the table entries: dim (A+)^2."""
    return rref(pres.field, decomposable_rows(pres), len(pres.basis))[1]


def indecomposable_labels(pres):
    """Labels of the letters, found by dense rank: in basis order, each positive
    basis element independent of (A+)^2 and of the letters before it."""
    field, dim = pres.field, len(pres.basis)
    rows, rank, out = decomposable_rows(pres), decomposables_rank(pres), []
    for i, (lbl, deg) in enumerate(pres.basis):
        unit = [field.one if n == i else field.zero for n in range(dim)]
        if deg and rref(field, rows + [unit], dim)[1] > rank:
            rows.append(unit)
            rank += 1
            out.append(lbl)
    return out


def _inverse(field, m):
    """The inverse of a square matrix over ``field`` by Gauss-Jordan, or None if singular."""
    k = len(m)
    rows = [list(row) + [field.one if n == i else field.zero for n in range(k)]
            for i, row in enumerate(m)]
    for col in range(k):
        piv = next((i for i in range(col, k) if rows[i][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = field.inv(rows[col][col])
        rows[col] = [field.mul(inv, x) for x in rows[col]]
        for i in range(k):
            f = rows[i][col]
            if i != col and f:
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[col])]
    return [row[k:] for row in rows]


def change_of_basis(pres, rng, name=None):
    """``pres`` in a random basis: each degree's elements are replaced by random
    invertible combinations of them, the unit is kept, and the new basis is put in
    random order.  The table is multiplied out from the raw presentation, with the
    unit laws and the sign rule, so a presentation that validation refuses may be
    given too."""
    field = pres.field
    degrees = [deg for _, deg in pres.basis]
    new, old_in_new = [], {}  # new elements as (degree, row over the old basis); e_i over the new
    for deg in sorted(set(degrees)):
        olds = [i for i, d in enumerate(degrees) if d == deg]
        k = len(olds)
        while True:
            m = [[field.coerce(rng.randint(-2, 2)) for _ in range(k)] for _ in range(k)]
            if deg == 0:  # the unit stays as it is
                m = [[field.one if a == b else field.zero for b in range(k)] for a in range(k)]
            inv = _inverse(field, m)
            if inv is not None:
                break
        for j, i in enumerate(olds):
            old_in_new[i] = {len(new) + a: c for a, c in enumerate(inv[j]) if c}
        new += [(deg, {i: c for i, c in zip(olds, row) if c}) for row in m]
    order = list(range(len(new)))
    rng.shuffle(order)
    place = {n: p for p, n in enumerate(order)}

    def table(i, j):
        if not degrees[i] or not degrees[j]:
            return {j if not degrees[i] else i: field.one}
        row = pres.products.get((min(i, j), max(i, j)), {})
        flip = i > j and degrees[i] & 1 and degrees[j] & 1
        return {k: field.neg(field.coerce(c)) if flip else field.coerce(c) for k, c in row.items()}

    def accumulate(acc, row, scale):
        for k, c in row.items():
            acc[k] = field.add(acc.get(k, field.zero), field.mul(scale, c))

    products = {}
    for p, q in itertools.combinations_with_replacement(range(len(order)), 2):
        (dp, u), (dq, v) = new[order[p]], new[order[q]]
        if dp and dq:
            old = {}
            for i, a in u.items():
                for j, b in v.items():
                    accumulate(old, table(i, j), field.mul(a, b))
            row = {}
            for i, c in old.items():
                accumulate(row, {place[n]: x for n, x in old_in_new[i].items()}, c)
            row = {k: c for k, c in sorted(row.items()) if c}
            if row:
                products[(p, q)] = row
    basis = tuple(("1" if not new[n][0] else f"f{p}", new[n][0]) for p, n in enumerate(order))
    return AlgebraPresentation(name or pres.name, field, basis, products)


def tensor_basis_product(slots, i, j):
    """e_i e_j in slots[0] x ... x slots[-1] as {index: coeff}, from the slot tables.

    Indices are mixed radix with slot 0 most significant.  The sign comes
    from moving each v_s leftward past u_{s+1}, ..., u_r, one swap at a
    time, and counting the swaps of two odd-degree elements; the terms are
    every choice of one term from each slot product, multiplied out here.
    """
    dims = [alg.dim for alg in slots]
    tu, tv = [], []
    for d in reversed(dims):
        i, iu = divmod(i, d)
        j, jv = divmod(j, d)
        tu.insert(0, iu)
        tv.insert(0, jv)
    swaps = 0
    for s, (alg, v) in enumerate(zip(slots, tv)):
        for t in range(s + 1, len(slots)):
            if alg.degree_of(v) % 2 == 1 and slots[t].degree_of(tu[t]) % 2 == 1:
                swaps += 1
    field = slots[0].field
    sign = field.coerce(-1 if swaps % 2 else 1)
    out = {}
    tables = [alg.basis_product(u, v).items() for alg, u, v in zip(slots, tu, tv)]
    for choice in itertools.product(*tables):
        coeff, idx = sign, 0
        for d, (k, c) in zip(dims, choice):
            coeff = field.mul(coeff, c)
            idx = idx * d + k
        out[idx] = field.add(out.get(idx, field.zero), coeff)
    return {k: c for k, c in out.items() if c}


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


def mu(a, r, u):
    """The collapse map, tuple -> product of slots, on a row ``u`` of the r-th
    tensor power: a row of ``a``, and an algebra homomorphism."""
    if r < 1:
        raise ValidationError("mu requires r >= 1")
    if not _is_row(a, u, a.dim ** r):
        raise ValidationError("row does not lie in the r-th tensor power")
    return u if r == 1 else _collapse(a.tensor_power(r, max_dim=None), u)


def mu_matrix(power):
    """Sparse rows of the collapse map's matrix, base dim x power dim."""
    rows = [{} for _ in range(power.base.dim)]
    for col in range(power.dim):
        for k, c in mu(power.base, power.r, basis_element(power, col)).items():
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
                    for k, coeff in alg.basis_product(i, slot).items():
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


def first_longest_word(a, letters):
    """(word, product) of the lexicographically first nonzero word of maximal length.

    A depth-first search over words of the letters, in letter order, that
    prunes every prefix whose product is zero.  The longest extension of a
    prefix, and the first one among the longest, depend only on the line of
    the prefix's product, so they are memoized on its normalised key.
    Returns ``((), None)`` when every letter is zero.
    """
    field = a.field
    memo = {}

    def longest_suffix(prod):
        key = normalize_sparse(field, prod)[0]
        if key not in memo:
            best = ()
            for i, lit in enumerate(letters):
                nxt = a.product_items(prod.items(), lit.items())
                if nxt:
                    suffix = (i,) + longest_suffix(nxt)
                    if len(suffix) > len(best):
                        best = suffix
            memo[key] = best
        return memo[key]

    word = ()
    for i, lit in enumerate(letters):
        if lit:
            candidate = (i,) + longest_suffix(dict(lit))
            if len(candidate) > len(word):
                word = candidate
    if not word:
        return (), None
    product = dict(letters[word[0]])
    for i in word[1:]:
        product = a.product_items(product.items(), letters[i].items())
    return word, product


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


def zcl_bounds_largest_seed(a, r, max_dim=DEFAULT_MAX_DIM):
    """``zcl_bounds`` with its seed always at the largest r0 whose power fits the seed dimension.

    ``zcl_bounds`` seeds at r0 = 2 instead when zcl_2 = 2 * cl; both rules
    must give the same value, lower and upper bound.
    """
    cl = cup_length(a)
    upper = r * cl.value
    if cl.value == 0:
        return ZclResult(r, 0, "bounds", 0, 0, None)
    seed_dim = DEFAULT_SEED_DIM if max_dim is None else min(DEFAULT_SEED_DIM, max_dim)
    if a.dim ** 2 > seed_dim:
        return ZclResult(r, None, "bounds", 0, upper, None)
    r0 = 2
    while r0 < r and a.dim ** (r0 + 1) <= seed_dim:
        r0 += 1
    witness = zcl_exact(a, r0, max_dim=seed_dim).witness
    for _ in range(r - r0):
        witness = witness_extend(a, witness, cl.chain)
    lower = len(witness_letters(witness))
    return ZclResult(r, lower if lower == upper else None, "bounds", lower, upper, witness)


def witness_extend(a, w, chain):
    """The witness at w.r + 1 with its product multiplied out: w's letters, then
    (y, w.r + 1) for each y in ``chain``.  Lifting by tensor 1 is multiplicative
    with no Koszul sign, since the new slot holds the degree-0 unit, so the new
    product is w's product tensor 1 times each new factor, slot by slot."""
    big = a.tensor_power(w.r + 1, max_dim=None)
    product = {idx * a.dim + a.unit_index: c for idx, c in w.product.items()}
    for y in chain:
        product = zero_divisor_product(big, product, y, w.r + 1)
    return Witness(w.r + 1, (*witness_letters(w), *((y, w.r + 1) for y in chain)), product)


def witness_letters(w):
    """Every letter (y, s) of ``w`` in order: the seed's, then (y, s) for each
    s = seed_r + 1..r and each y in the chain."""
    return w.seed + tuple((y, s) for s in range(w.seed_r + 1, w.r + 1) for y in w.chain)


def full_witness(a, w):
    """A witness with its product over all w.r slots: the seed extended by the chain
    at each s = seed_r + 1..r, so seed_r = r and the chain is empty."""
    full = Witness(w.seed_r, w.seed, w.product)
    while full.r < w.r:
        full = witness_extend(a, full, w.chain)
    return full
