"""Graded-commutative algebra core.

An algebra is presented by a homogeneous basis with degrees and a partial
multiplication table for positive-degree pairs ``(i, j)`` with ``i <= j``;
the remaining entries are filled in by the unit laws and the sign rule
``e_j e_i = (-1)^{deg_i deg_j} e_i e_j``.  Missing entries default to zero.
Tensor powers and binary tensor products carry the induced product

    (u_1 x ... x u_r) (v_1 x ... x v_r)
        = (-1)^{sum_{s<t} |v_s||u_t|} (u_1 v_1) x ... x (u_r v_r)

on the basis of r-tuples in lexicographic order, and the collapse map
sends a basis tuple to the product of its slots.  Each rule is written
once: the sign and the term expansion in :func:`_koszul_product`, the
table of nonzero positive pairs ``i <= j`` of a tensor product in
:func:`_tensor_table`, the slot rule, the product with y^(s) - y^(1)
formed in slots s and 1 alone, in
:meth:`TensorPowerAlgebra.zero_divisor_product`, which also gives the zero
divisor y^(s) - y^(1) itself as the product with 1, and the collapse map in
:func:`mu`.  Every sparse vector, a table entry too, is an
``{index: coeff}`` dict in index order; only :meth:`Algebra.to_presentation`
turns table entries back into the ``(coeff, index)`` pairs of an
:class:`AlgebraPresentation`, the input and file format.  A tensor power past
_CHUNK_DIM dimensions multiplies basis pairs as a tensor product of
smaller powers, chunks of adjacent slots, so a pair costs a few chunk
lookups instead of one lookup per slot.  An :class:`Element` here only
multiplies; the matrix and kernel of the collapse map, dense coordinate
views of elements, their sums and scalar multiples, and a swap-counting
sign reference are test references in ``tests/dense_reference.py``.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import ResourceLimitError, ValidationError
from .fields import Field

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Mapping, Optional, Sequence

DEFAULT_MAX_DIM = 4096
_CHUNK_DIM = 256


# basis: ((label, degree), ...); products: (i, j) -> sequence of (coeff, basis index), i <= j
class AlgebraPresentation(namedtuple("AlgebraPresentation", "name field basis products")):
    """Raw input data for :func:`validate_algebra`."""

    __slots__ = ()

    @classmethod
    def from_labels(cls, name, field, basis, products=None):
        """Build a presentation keyed by labels instead of indices."""
        basis = tuple((str(lbl), int(deg)) for lbl, deg in basis)
        index = {lbl: i for i, (lbl, _) in enumerate(basis)}
        if len(index) != len(basis):
            raise ValidationError(f"algebra {name!r}: duplicate basis labels")
        table = {}
        for (left, right), terms in (products or {}).items():
            try:
                table[(index[left], index[right])] = tuple(
                    (coeff, index[lbl]) if isinstance(lbl, str) else (coeff, lbl)
                    for coeff, lbl in terms
                )
            except KeyError as exc:
                raise ValidationError(
                    f"algebra {name!r}: product references unknown label {exc.args[0]!r}"
                ) from None
        return cls(name, field, basis, table)


def _koszul_product(slots: Sequence["Algebra"], tu: Sequence[int], tv: Sequence[int]) -> dict:
    """e_u e_v in slots[0] x ... x slots[-1] for slot basis tuples u and v, as {index: coeff}.

    The sign is (-1)^{sum_{s<t} |v_s||u_t|}; indices are mixed radix, slot 0
    most significant, so the choices of slot terms, each slot in index order,
    come out in index order.  Every slot product is looked up before the
    sign, so a pair that dies in one slot costs no more.
    """
    slot_terms = []
    for alg, i, j in zip(slots, tu, tv):
        terms = alg.basis_product(i, j)
        if not terms:
            return {}
        slot_terms.append(terms.items())
    parity = odd_v = 0
    for alg, i, j in zip(slots, tu, tv):
        if odd_v and alg.degree_of(i) & 1:
            parity ^= 1
        odd_v ^= alg.degree_of(j) & 1
    field = slots[0].field
    mul = field.mul
    radices = [alg.dim for alg in slots[1:]]
    out = {}
    for (idx, coeff), *rest in itertools.product(*slot_terms):
        for radix, (k, c) in zip(radices, rest):
            coeff = mul(coeff, c)
            idx = idx * radix + k
        out[idx] = field.neg(coeff) if parity else coeff
    return out


def _tensor_table(slots: Sequence["Algebra"]) -> dict:
    """{(i, j): e_i e_j} over positive-degree i <= j of slots[0] x ... x slots[-1], nonzero only.

    A pair is nonzero exactly when it is nonzero in every slot, so only the
    tuples of nonzero slot pairs are visited, never the zero pairs.  The one
    degree-0 basis element of each slot makes the tuple of units the only
    degree-0 index of the product.
    """
    nonzero = [
        [(i, j) for i in range(alg.dim) for j in range(alg.dim) if alg.basis_product(i, j)]
        for alg in slots
    ]
    radices = [alg.dim for alg in slots[1:]]
    unit = 0
    for alg in slots:
        unit = unit * alg.dim + alg.unit_index
    table = {}
    for choice in itertools.product(*nonzero):
        (i, j), *rest = choice
        for radix, (u, v) in zip(radices, rest):
            i, j = i * radix + u, j * radix + v
        if unit != i <= j != unit:
            tu, tv = zip(*choice)
            table[(i, j)] = _koszul_product(slots, tu, tv)
    return dict(sorted(table.items()))


class Element:
    """An exact vector over an algebra's basis, stored by its nonzero terms.

    ``terms`` maps a basis index to its coefficient and never holds a zero,
    so memory and arithmetic follow the support, not the dimension: a
    zero divisor in a tensor power of dimension d^r with two terms costs two
    entries.  :meth:`items` lists the terms in index order.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "Algebra", terms: dict):
        if not isinstance(terms, dict):
            raise ValidationError("Element takes a {index: coeff} dict")
        self.algebra = algebra
        self.terms = terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def items(self) -> list:
        return sorted(self.terms.items())

    def degree(self) -> Optional[int]:
        """Common degree of the support; None for zero or mixed elements."""
        degs = {self.algebra.degree_of(i) for i in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def __mul__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        if other.algebra is not self.algebra:
            raise ValidationError("elements belong to different algebras")
        return Element(
            self.algebra, self.algebra.product_items(self.terms.items(), other.terms.items())
        )

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and other.algebra is self.algebra
            and other.terms == self.terms
        )

    def __str__(self):
        fmt = self.algebra.field.format
        parts = [f"{fmt(c)}·{self.algebra.label_of(i)}" for i, c in self.items()]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<Element {self} of {self.algebra.name}>"


class Algebra:
    """Validated algebra with a completed multiplication table.

    Subclasses set ``dim`` and ``unit_index`` and supply ``degree_of``,
    ``label_of``, ``_core_table`` and ``_compute_pair``; pair results are
    cached.  Instances are immutable after construction and safe to share.
    """

    dim: int
    unit_index: int

    def __init__(self, name: str, field: Field):
        self.name = name
        self.field = field
        self._pair_cache: dict = {}
        self._tensor_cache: dict = {}

    @property
    def degrees(self) -> tuple:
        cached = getattr(self, "_degrees", None)
        if cached is None:
            cached = tuple(self.degree_of(i) for i in range(self.dim))
            self._degrees = cached
        return cached

    @property
    def labels(self) -> tuple:
        cached = getattr(self, "_labels", None)
        if cached is None:
            cached = tuple(self.label_of(i) for i in range(self.dim))
            self._labels = cached
        return cached

    def basis_product(self, i: int, j: int) -> dict:
        """Completed table entry e_i * e_j as {index: coeff} in index order; do not mutate."""
        key = (i, j)
        terms = self._pair_cache.get(key)
        if terms is None:
            terms = self._compute_pair(i, j)
            self._pair_cache[key] = terms
        return terms

    # -- bilinear multiplication --------------------------------------------

    def product_items(self, items_u, items_v) -> dict:
        """Sparse bilinear product of (index, coeff) item lists."""
        mul = self.field.mul
        add = self.field.add
        bp = self.basis_product
        acc: dict = {}
        for i, a in items_u:
            for j, b in items_v:
                terms = bp(i, j)
                if not terms:
                    continue
                ab = mul(a, b)
                for k, c in terms.items():
                    prev = acc.get(k)
                    if prev is None:
                        acc[k] = mul(ab, c)
                    else:
                        nv = add(prev, mul(ab, c))
                        if nv:
                            acc[k] = nv
                        else:
                            del acc[k]
        return acc

    # -- element constructors ------------------------------------------------

    def basis_element(self, i: int) -> Element:
        return Element(self, {i: self.field.one})

    # -- derived algebras ----------------------------------------------------

    def tensor_power(self, r: int, max_dim: int | None = DEFAULT_MAX_DIM) -> "Algebra":
        """The r-fold tensor power, cached per r so element ownership is stable."""
        if r < 1:
            raise ValidationError("tensor power requires r >= 1")
        if r == 1:
            return self
        if max_dim is not None and self.dim ** r > max_dim:
            raise ResourceLimitError(
                f"dim {self.dim}^{r} = {self.dim ** r} exceeds the ceiling {max_dim}; "
                "raise the ceiling to opt in"
            )
        cached = self._tensor_cache.get(r)
        if cached is not None:
            return cached
        power = TensorPowerAlgebra(self, r)
        self._tensor_cache[r] = power
        return power

    def indecomposables(self) -> tuple:
        """The positive basis indices independent of (A+)^2 and of the ones before them.

        (A+)^2 is spanned by the core-table rows, so these letters span
        Q(A) = A+/(A+)^2; they do not depend on associativity.
        """
        cached = getattr(self, "_indecomposables", None)
        if cached is None:
            from .linalg import reduce_into  # here, so `tensor` does not load it

            field, echelon = self.field, {}
            for row in self._core_table().values():
                reduce_into(field, echelon, row)
            cached = self._indecomposables = tuple(
                i for i in range(self.dim)
                if self.degree_of(i) > 0 and reduce_into(field, echelon, {i: field.one})
            )
        return cached

    def to_presentation(self) -> AlgebraPresentation:
        """Positive-degree (i <= j) table entries as (coeff, index) pairs, for serialization.

        Entries bypass the pair cache, which would otherwise keep the whole table.
        """
        basis = tuple((self.label_of(i), self.degree_of(i)) for i in range(self.dim))
        products = {
            key: tuple((c, k) for k, c in row.items()) for key, row in self._core_table().items()
        }
        return AlgebraPresentation(self.name, self.field, basis, products)

    def __repr__(self):
        return f"<Algebra {self.name!r} dim={self.dim} over {self.field}>"


class TableAlgebra(Algebra):
    """Algebra backed by an explicit core table (positive pairs, i <= j)."""

    def __init__(self, name, field, labels, degrees, core):
        super().__init__(name, field)
        self._labels = tuple(labels)
        self._degrees = tuple(degrees)
        self._core = dict(core)
        self.dim = len(self._labels)
        self.unit_index = self._degrees.index(0)

    def degree_of(self, i: int) -> int:
        return self._degrees[i]

    def label_of(self, i: int) -> str:
        return self._labels[i]

    def _core_table(self):
        return self._core

    def _compute_pair(self, i, j):
        u = self.unit_index
        if i == u:
            return {j: self.field.one}
        if j == u:
            return {i: self.field.one}
        if i <= j:
            return self._core.get((i, j), {})
        terms = self.basis_product(j, i)
        if terms and self._degrees[i] & 1 and self._degrees[j] & 1:
            neg = self.field.neg
            return {k: neg(c) for k, c in terms.items()}
        return terms


class TensorPowerAlgebra(Algebra):
    """Lazy r-fold tensor power; basis tuples never materialize eagerly."""

    def __init__(self, base: Algebra, r: int):
        super().__init__(f"{base.name}^tensor{r}", base.field)
        self.base = base
        self.r = r
        self.dim = base.dim ** r
        self.unit_index = self.index_of_tuple((base.unit_index,) * r)
        # Pairs are multiplied k slots at a time, d^k <= _CHUNK_DIM: A^(x r) is the
        # Koszul tensor product of powers A^(x k), indexed by chunks of base-d digits.
        k = 1
        while k < r and base.dim ** (k + 1) <= _CHUNK_DIM:
            k += 1
        if k == r:
            self._chunks = (base,) * r
        else:
            q, rem = divmod(r, k)
            self._chunks = (base.tensor_power(k, None),) * q
            if rem:
                self._chunks += (base.tensor_power(rem, None),)
        self._radices = tuple(alg.dim for alg in self._chunks)
        # _deg[n][m]: degree of index m of A^(x n), for n <= k
        self._deg = [(0,)]
        for _ in range(k):
            self._deg.append(tuple(p + q for p in self._deg[-1] for q in base.degrees))
        self._moves: dict = {}

    def tuple_of_index(self, idx: int) -> tuple:
        d = self.base.dim
        out = []
        for _ in range(self.r):
            idx, slot = divmod(idx, d)
            out.append(slot)
        return tuple(reversed(out))

    def index_of_tuple(self, t: Sequence[int]) -> int:
        d = self.base.dim
        idx = 0
        for slot in t:
            idx = idx * d + slot
        return idx

    def degree_of(self, i: int) -> int:
        return self._low_degree(i, self.r)

    def label_of(self, i: int) -> str:
        base_lbl = self.base.label_of
        return "⊗".join(base_lbl(s) for s in self.tuple_of_index(i))

    def _core_table(self):
        return _tensor_table((self.base,) * self.r)

    def _compute_pair(self, i, j):
        return _koszul_product(self._chunks, self._split(i), self._split(j))

    def _split(self, idx: int) -> list:
        """The digits of idx in the radices of the chunks, most significant first."""
        out = []
        for radix in reversed(self._radices):
            idx, digit = divmod(idx, radix)
            out.append(digit)
        out.reverse()
        return out

    def zero_divisor(self, y: Mapping, s: int) -> dict:
        """y^(s) - y^(1) as {index: coeff}, for y = {base index: coeff} and s >= 2."""
        return self.zero_divisor_product({self.unit_index: self.field.one}, y, s)

    def zero_divisor_product(self, u: Mapping, y: Mapping, s: int) -> dict:
        """u (y^(s) - y^(1)) as {index: coeff}, for u = {index: coeff} and y, s as above.

        The slot rule: by the Koszul sign, e_t y_j^(q) is e_t with slot q
        replaced by t_q y_j, times (-1)^{|y_j| (|t_{q+1}| + ... + |t_r|)}.  So
        each term of u is multiplied in slot s and in slot 1 only, through
        the base table; no product of r slot coefficients is formed.
        """
        acc: dict = {}
        self._times_slot(acc, u, y.items(), s)
        neg = self.field.neg
        self._times_slot(acc, u, [(j, neg(c)) for j, c in y.items()], 1)
        return acc

    def _times_slot(self, acc: dict, u: Mapping, y_items, q: int) -> None:
        """Add u y^(q) into acc by the slot rule."""
        r, n = self.r, self.r - q
        d = self.base.dim
        place = d ** n
        y_items = tuple(y_items)
        moves = self._moves.get((q, y_items))
        if moves is None:
            moves = self._moves[q, y_items] = self._slot_moves(y_items, place)
        signed = n and any(self.base.degree_of(j) & 1 for j, _ in y_items)
        low_degree = self._low_degree
        mul, add = self.field.mul, self.field.add
        for idx, a in u.items():
            high, low = divmod(idx, place)
            flip = signed and low_degree(low, n) & 1
            for c, shift in moves[high % d][flip]:
                key = idx + shift
                v = mul(a, c)
                prev = acc.get(key)
                if prev is not None:
                    v = add(prev, v)
                    if not v:
                        del acc[key]
                        continue
                acc[key] = v

    def _slot_moves(self, y_items, place: int) -> list:
        """By base index t, the (coeff, index shift) of each term of e_t y, unsigned and signed."""
        odd, bp = [deg & 1 for deg in self.base.degrees], self.base.basis_product
        mul, neg = self.field.mul, self.field.neg
        moves = []
        for t in range(self.base.dim):
            terms = [
                (odd[j], mul(c, c2), (k - t) * place)
                for j, c in y_items for k, c2 in bp(t, j).items()
            ]
            moves.append((
                [(c, shift) for _, c, shift in terms],
                [(neg(c) if oj else c, shift) for oj, c, shift in terms],
            ))
        return moves

    def _low_degree(self, low: int, n: int) -> int:
        """Degree of the n lowest slots of an index, given low = index mod d^n."""
        deg = self._deg
        k = len(deg) - 1
        total = 0
        while n > k:
            low, m = divmod(low, len(deg[k]))
            total += deg[k][m]
            n -= k
        return total + deg[n][low]


# -- validation ---------------------------------------------------------------


def _check_structure(pres: AlgebraPresentation):
    name = pres.name
    if not pres.basis:
        raise ValidationError(f"algebra {name!r}: empty basis")
    labels = []
    degrees = []
    for entry in pres.basis:
        lbl, deg = entry
        if not isinstance(lbl, str) or not lbl:
            raise ValidationError(f"algebra {name!r}: basis labels must be nonempty strings")
        if not isinstance(deg, int) or isinstance(deg, bool) or deg < 0:
            raise ValidationError(f"algebra {name!r}: degree of {lbl!r} must be a nonnegative integer")
        labels.append(lbl)
        degrees.append(deg)
    if len(set(labels)) != len(labels):
        raise ValidationError(f"algebra {name!r}: duplicate basis labels")
    units = [i for i, d in enumerate(degrees) if d == 0]
    if len(units) != 1:
        found = ", ".join(labels[i] for i in units) or "none"
        raise ValidationError(
            f"algebra {name!r}: exactly one degree-0 basis element required (found: {found})"
        )
    return labels, degrees


def _check_core(pres, labels, degrees):
    name = pres.name
    dim = len(labels)
    field = pres.field
    core = {}
    for key, terms in pres.products.items():
        i, j = key
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValidationError(f"algebra {name!r}: product key {key} out of range")
        if i > j:
            raise ValidationError(
                f"algebra {name!r}: product ({labels[i]}, {labels[j]}) must be listed "
                "with the lower basis index first"
            )
        if degrees[i] == 0 or degrees[j] == 0:
            raise ValidationError(
                f"algebra {name!r}: unit products are implicit; remove entry "
                f"({labels[i]}, {labels[j]})"
            )
        merged: dict = {}
        for coeff, k in terms:
            if not (0 <= k < dim):
                raise ValidationError(f"algebra {name!r}: term index {k} out of range")
            c = field.coerce(coeff)
            prev = merged.get(k, field.zero)
            merged[k] = field.add(prev, c)
        clean = {k: c for k, c in sorted(merged.items()) if c}
        for k in clean:
            if degrees[k] != degrees[i] + degrees[j]:
                raise ValidationError(
                    f"algebra {name!r}: product {labels[i]}·{labels[j]} has a term in "
                    f"{labels[k]} of degree {degrees[k]}, expected degree "
                    f"{degrees[i] + degrees[j]}"
                )
        if clean:
            core[(i, j)] = clean
    return core


def _check_associativity(alg: TableAlgebra):
    """Raise unless (e_i e_j) e_k = e_i (e_j e_k) on every positive triple.

    A side can be nonzero only if e_i e_j has a term e_m with e_m e_k nonzero,
    or e_j e_k a term e_m with e_i e_m nonzero, so only those triples are
    compared: in (j, i, k) order, one indecomposable middle at a time.  The
    middle nucleus, {a : (x a) y = x (a y)}, holds 1 and is closed under the
    product, and the indecomposables generate A+: so they suffice (Light's test).
    Only triples with i <= k are compared: the completed table is graded
    commutative, so (e_i e_j) e_k - e_i (e_j e_k) is, up to the sign
    (-1)^{|i||j| + |i||k| + |j||k|}, the same difference for (k, j, i), and the
    first failing triple in (j, i, k) order already has i <= k.
    """
    nonzero: dict = {}  # positive i -> the positive k with e_i e_k nonzero
    for i, k in alg._core:  # e_k e_i is nonzero exactly when e_i e_k is
        nonzero.setdefault(i, set()).add(k)
        nonzero.setdefault(k, set()).add(i)
    bp = alg.basis_product
    mul, add, sub, zero = alg.field.mul, alg.field.add, alg.field.sub, alg.field.zero

    def associates(i, j, k):
        """Whether (e_i e_j) e_k - e_i (e_j e_k), summed term by term, is zero."""
        acc: dict = {}
        for m, c in bp(i, j).items():
            for n, c2 in bp(m, k).items():
                acc[n] = add(acc.get(n, zero), mul(c, c2))
        for m, c in bp(j, k).items():
            for n, c2 in bp(i, m).items():
                acc[n] = sub(acc.get(n, zero), mul(c, c2))
        return not any(acc.values())

    for j in alg.indecomposables():
        candidates = set()
        for i in nonzero.get(j, ()):
            for m in bp(i, j):
                candidates.update((i, k) for k in nonzero.get(m, ()) if i <= k)
        for k in nonzero.get(j, ()):
            for m in bp(j, k):
                candidates.update((i, k) for i in nonzero.get(m, ()) if i <= k)
        for i, k in sorted(candidates):
            if not associates(i, j, k):
                raise ValidationError(
                    f"algebra {alg.name!r}: associativity fails on "
                    f"({alg.label_of(i)}, {alg.label_of(j)}, {alg.label_of(k)})"
                )


def validate_algebra(pres: AlgebraPresentation) -> TableAlgebra:
    """Check a presentation and return the completed algebra.

    Verifies: a unique degree-0 unit, degree homogeneity of every table
    entry, graded commutativity (after sign completion this reduces to
    odd-degree squares vanishing outside characteristic 2), and
    associativity on every triple with an indecomposable middle.
    """
    labels, degrees = _check_structure(pres)
    core = _check_core(pres, labels, degrees)
    if pres.field.characteristic != 2:
        for (i, j), terms in core.items():
            if i == j and degrees[i] & 1 and terms:
                raise ValidationError(
                    f"algebra {pres.name!r}: {labels[i]} has odd degree, so its square "
                    "must vanish outside characteristic 2"
                )
    alg = TableAlgebra(pres.name, pres.field, labels, degrees, core)
    _check_associativity(alg)
    return alg


# -- tensor constructions ------------------------------------------------------


def tensor_product(a: Algebra, b: Algebra, max_dim: int | None = DEFAULT_MAX_DIM) -> TableAlgebra:
    """Binary tensor product with the sign rule (a x b)(a' x b') = ±(aa' x bb')."""
    if a.field != b.field:
        raise ValidationError("tensor product requires a common ground field")
    dim = a.dim * b.dim
    if max_dim is not None and dim > max_dim:
        raise ResourceLimitError(f"tensor product dimension {dim} exceeds ceiling {max_dim}")
    labels = [f"{a.label_of(i)}⊗{b.label_of(j)}" for i in range(a.dim) for j in range(b.dim)]
    if len(set(labels)) != len(labels):
        labels = [
            f"({a.label_of(i)})⊗({b.label_of(j)})" for i in range(a.dim) for j in range(b.dim)
        ]
    degrees = [a.degree_of(i) + b.degree_of(j) for i in range(a.dim) for j in range(b.dim)]
    core = _tensor_table((a, b))
    name = f"{a.name}⊗{b.name}"
    return TableAlgebra(name, a.field, labels, degrees, core)


# -- the collapse map ----------------------------------------------------------


def mu(a: Algebra, r: int, u: Element) -> Element:
    """Linear extension of tuple -> product of slots; an algebra homomorphism."""
    if r < 1:
        raise ValidationError("mu requires r >= 1")
    power = a.tensor_power(r, max_dim=None)
    if u.algebra is not power:
        raise ValidationError("element does not live in the r-th tensor power")
    if r == 1:
        return u
    unit, one, add = a.unit_index, a.field.one, a.field.add
    acc: dict = {}
    for idx, c in u.terms.items():
        image = ((unit, c),)
        for slot in power.tuple_of_index(idx):
            if slot != unit:  # the unit slots leave the product as it is
                image = a.product_items(image, ((slot, one),)).items()
        for k, v in image:
            if k in acc:
                v = add(acc.pop(k), v)
            if v:
                acc[k] = v
    return Element(a, acc)
