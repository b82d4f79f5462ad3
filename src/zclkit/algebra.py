"""Graded-commutative algebra core.

An algebra is presented by a homogeneous basis with degrees and a partial
multiplication table for positive-degree pairs ``(i, j)`` with ``i <= j``;
the remaining entries are filled in by the unit laws and the sign rule
``e_j e_i = (-1)^{deg_i deg_j} e_i e_j``.  Missing entries default to zero.
Tensor powers carry the induced product

    (u_1 x ... x u_r) (v_1 x ... x v_r)
        = (-1)^{sum_{s<t} |v_s||u_t|} (u_1 v_1) x ... x (u_r v_r)

on the basis of r-tuples in lexicographic order, and the collapse map
sends a basis tuple to the product of its slots.  The matrix and kernel of
that map, and dense coordinate views of elements, are test references in
``tests/dense_reference.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import ResourceLimitError, ValidationError
from .fields import Field, Scalar

DEFAULT_MAX_DIM = 4096


class Term(NamedTuple):
    coeff: Scalar
    basis: int


@dataclass
class AlgebraPresentation:
    """Raw input data for :func:`validate_algebra`."""

    name: str
    field: Field
    basis: tuple  # ((label, degree), ...)
    products: Mapping  # (i, j) -> sequence of (coeff, basis index), i <= j

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
                i, j = index[left], index[right]
            except KeyError as exc:
                raise ValidationError(
                    f"algebra {name!r}: product references unknown label {exc.args[0]!r}"
                ) from None
            table[(i, j)] = tuple(
                (coeff, index[lbl]) if isinstance(lbl, str) else (coeff, lbl)
                for coeff, lbl in terms
            )
        return cls(name, field, basis, table)


def _koszul_parity(deg_u: Sequence[int], deg_v: Sequence[int]) -> int:
    """Parity of sum_{s<t} deg_v[s] * deg_u[t]."""
    par = 0
    sv = 0
    for du, dv in zip(deg_u, deg_v):
        if du & 1 and sv:
            par ^= 1
        sv ^= dv & 1
    return par


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
            raise ValidationError("Element takes a {index: coeff} dict; use Algebra.element")
        self.algebra = algebra
        self.terms = terms

    def _match(self, other: "Element") -> None:
        if not isinstance(other, Element) or other.algebra is not self.algebra:
            raise ValidationError("elements belong to different algebras")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def items(self) -> list:
        return sorted(self.terms.items())

    @property
    def is_homogeneous(self) -> bool:
        degs = {self.algebra.degree_of(i) for i in self.terms}
        return len(degs) <= 1

    def degree(self) -> Optional[int]:
        """Common degree of the support; None for zero or mixed elements."""
        degs = {self.algebra.degree_of(i) for i in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def _combine(self, other, op) -> "Element":
        self._match(other)
        out = dict(self.terms)
        zero = self.algebra.field.zero
        for k, b in other.terms.items():
            v = op(out.get(k, zero), b)
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return Element(self.algebra, out)

    def __add__(self, other):
        return self._combine(other, self.algebra.field.add)

    def __sub__(self, other):
        return self._combine(other, self.algebra.field.sub)

    def __neg__(self):
        neg = self.algebra.field.neg
        return Element(self.algebra, {k: neg(a) for k, a in self.terms.items()})

    def scale(self, c) -> "Element":
        c = self.algebra.field.coerce(c)
        if not c:
            return Element(self.algebra, {})
        mul = self.algebra.field.mul
        return Element(self.algebra, {k: mul(c, a) for k, a in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            self._match(other)
            return Element(
                self.algebra,
                self.algebra.product_items(self.terms.items(), other.terms.items()),
            )
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

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

    Subclasses supply :meth:`_compute_pair`; results are cached per basis
    pair.  Instances are immutable after construction and safe to share.
    """

    def __init__(self, name: str, field: Field):
        self.name = name
        self.field = field
        self._pair_cache: dict = {}
        self._tensor_cache: dict = {}

    # -- basis data (overridden by lazy subclasses) -------------------------

    @property
    def dim(self) -> int:
        raise NotImplementedError

    @property
    def unit_index(self) -> int:
        raise NotImplementedError

    def degree_of(self, i: int) -> int:
        raise NotImplementedError

    def label_of(self, i: int) -> str:
        raise NotImplementedError

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

    def _compute_pair(self, i: int, j: int) -> tuple:
        raise NotImplementedError

    def basis_product(self, i: int, j: int) -> tuple:
        """Completed table entry e_i * e_j as a tuple of Terms."""
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
                for c, k in terms:
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

    def element(self, coords: Iterable) -> Element:
        coords = tuple(self.field.coerce(c) for c in coords)
        if len(coords) != self.dim:
            raise ValidationError(
                f"coordinate length {len(coords)} does not match dim {self.dim}"
            )
        return Element(self, {i: c for i, c in enumerate(coords) if c})

    def basis_element(self, i: int) -> Element:
        return Element(self, {i: self.field.one})

    def one_element(self) -> Element:
        return self.basis_element(self.unit_index)

    def element_from_labels(self, terms: Mapping) -> Element:
        """Element from a {label: coeff} mapping."""
        index = {lbl: i for i, lbl in enumerate(self.labels)}
        out = {}
        for lbl, c in terms.items():
            if lbl not in index:
                raise ValidationError(f"unknown basis label {lbl!r}")
            c = self.field.coerce(c)
            if c:
                out[index[lbl]] = c
        return Element(self, out)

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

    def to_presentation(self) -> AlgebraPresentation:
        """Positive-degree (i <= j) table entries, suitable for serialization.

        Entries bypass the pair cache: this scan visits every pair, and most
        of them are zero in a tensor power.
        """
        core = {}
        for i in range(self.dim):
            if self.degree_of(i) == 0:
                continue
            for j in range(i, self.dim):
                if self.degree_of(j) == 0:
                    continue
                terms = self._compute_pair(i, j)
                if terms:
                    core[(i, j)] = tuple(terms)
        basis = tuple((self.label_of(i), self.degree_of(i)) for i in range(self.dim))
        return AlgebraPresentation(self.name, self.field, basis, core)

    def __repr__(self):
        return f"<Algebra {self.name!r} dim={self.dim} over {self.field}>"


class TableAlgebra(Algebra):
    """Algebra backed by an explicit core table (positive pairs, i <= j)."""

    def __init__(self, name, field, labels, degrees, core):
        super().__init__(name, field)
        self._labels = tuple(labels)
        self._degrees = tuple(degrees)
        self._core = dict(core)
        self._unit = self._degrees.index(0)

    @property
    def dim(self) -> int:
        return len(self._labels)

    @property
    def unit_index(self) -> int:
        return self._unit

    def degree_of(self, i: int) -> int:
        return self._degrees[i]

    def label_of(self, i: int) -> str:
        return self._labels[i]

    def _compute_pair(self, i, j):
        u = self._unit
        one = self.field.one
        if i == u:
            return (Term(one, j),)
        if j == u:
            return (Term(one, i),)
        if i <= j:
            return tuple(self._core.get((i, j), ()))
        terms = self.basis_product(j, i)
        if terms and self._degrees[i] & 1 and self._degrees[j] & 1:
            neg = self.field.neg
            return tuple(Term(neg(c), k) for c, k in terms)
        return terms


class TensorPowerAlgebra(Algebra):
    """Lazy r-fold tensor power; basis tuples never materialize eagerly."""

    def __init__(self, base: Algebra, r: int):
        super().__init__(f"{base.name}^tensor{r}", base.field)
        self.base = base
        self.r = r
        self._dim = base.dim ** r
        self._degree_cache: dict = {}
        self._mu_cache: dict = {}

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def unit_index(self) -> int:
        return self.index_of_tuple((self.base.unit_index,) * self.r)

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
        deg = self._degree_cache.get(i)
        if deg is None:
            base_deg = self.base.degree_of
            deg = sum(base_deg(s) for s in self.tuple_of_index(i))
            self._degree_cache[i] = deg
        return deg

    def label_of(self, i: int) -> str:
        base_lbl = self.base.label_of
        return "⊗".join(base_lbl(s) for s in self.tuple_of_index(i))

    def _compute_pair(self, i, j):
        base = self.base
        tu = self.tuple_of_index(i)
        tv = self.tuple_of_index(j)
        slot_terms = []
        for a, b in zip(tu, tv):
            terms = base.basis_product(a, b)
            if not terms:
                return ()
            slot_terms.append(terms)
        deg = base.degree_of
        parity = _koszul_parity([deg(s) for s in tu], [deg(s) for s in tv])
        mul = self.field.mul
        neg = self.field.neg
        d = base.dim
        out = []
        for combo in itertools.product(*slot_terms):
            idx = 0
            coeff = combo[0][0]
            idx = idx * d + combo[0][1]
            for c, k in combo[1:]:
                coeff = mul(coeff, c)
                idx = idx * d + k
            if parity:
                coeff = neg(coeff)
            out.append(Term(coeff, idx))
        out.sort(key=lambda t: t.basis)
        return tuple(out)

    # -- the collapse (multiplication) map -----------------------------------

    def mu_of_basis(self, idx: int) -> dict:
        """Image of a basis tuple under slot-wise multiplication, as sparse items."""
        cached = self._mu_cache.get(idx)
        if cached is not None:
            return cached
        base = self.base
        one = self.field.one
        t = self.tuple_of_index(idx)
        cur = {t[0]: one}
        for slot in t[1:]:
            if not cur:
                break
            cur = base.product_items(list(cur.items()), [(slot, one)])
        self._mu_cache[idx] = cur
        return cur

    def mu_items(self, items) -> dict:
        mul = self.field.mul
        add = self.field.add
        acc: dict = {}
        for idx, c in items:
            for k, v in self.mu_of_basis(idx).items():
                prev = acc.get(k)
                nv = mul(c, v) if prev is None else add(prev, mul(c, v))
                if nv:
                    acc[k] = nv
                else:
                    acc.pop(k, None)
        return acc


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
        clean = tuple(Term(c, k) for k, c in sorted(merged.items()) if c)
        for c, k in clean:
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
    compared: in (j, i, k) order, one middle index at a time.
    """
    nonzero: dict = {}  # positive i -> the positive k with e_i e_k nonzero
    for i, k in alg._core:  # e_k e_i is nonzero exactly when e_i e_k is
        nonzero.setdefault(i, set()).add(k)
        nonzero.setdefault(k, set()).add(i)
    bp = alg.basis_product
    mul, add, zero = alg.field.mul, alg.field.add, alg.field.zero

    def combine(terms, times):
        """The sum of c * times(m) over the terms c e_m, as {index: coeff}."""
        acc: dict = {}
        for c, m in terms:
            for c2, n in times(m):
                acc[n] = add(acc.get(n, zero), mul(c, c2))
        return {n: v for n, v in acc.items() if v}

    for j in sorted(nonzero):
        candidates = set()
        for i in nonzero[j]:
            for _, m in bp(i, j):
                candidates.update((i, k) for k in nonzero.get(m, ()))
        for k in nonzero[j]:
            for _, m in bp(j, k):
                candidates.update((i, k) for i in nonzero.get(m, ()))
        for i, k in sorted(candidates):
            lhs = combine(bp(i, j), lambda m: bp(m, k))
            rhs = combine(bp(j, k), lambda m: bp(i, m))
            if lhs != rhs:
                raise ValidationError(
                    f"algebra {alg.name!r}: associativity fails on "
                    f"({alg.label_of(i)}, {alg.label_of(j)}, {alg.label_of(k)})"
                )


def validate_algebra(pres: AlgebraPresentation) -> TableAlgebra:
    """Check a presentation and return the completed algebra.

    Verifies: a unique degree-0 unit, degree homogeneity of every table
    entry, graded commutativity (after sign completion this reduces to
    odd-degree squares vanishing outside characteristic 2), and
    associativity on every basis triple where a side can be nonzero.
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
    db = b.dim
    labels = [f"{a.label_of(i)}⊗{b.label_of(j)}" for i in range(a.dim) for j in range(b.dim)]
    if len(set(labels)) != len(labels):
        labels = [
            f"({a.label_of(i)})⊗({b.label_of(j)})" for i in range(a.dim) for j in range(b.dim)
        ]
    degrees = [a.degree_of(i) + b.degree_of(j) for i in range(a.dim) for j in range(b.dim)]
    neg = a.field.neg
    mul = a.field.mul
    core = {}
    for i in range(dim):
        if degrees[i] == 0:
            continue
        i1, i2 = divmod(i, db)
        for j in range(i, dim):
            if degrees[j] == 0:
                continue
            j1, j2 = divmod(j, db)
            ta = a.basis_product(i1, j1)
            if not ta:
                continue
            tb = b.basis_product(i2, j2)
            if not tb:
                continue
            sign = b.degree_of(i2) & 1 and a.degree_of(j1) & 1
            terms = []
            for ca, ka in ta:
                for cb, kb in tb:
                    c = mul(ca, cb)
                    if sign:
                        c = neg(c)
                    terms.append(Term(c, ka * db + kb))
            terms.sort(key=lambda t: t.basis)
            core[(i, j)] = tuple(terms)
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
    return Element(a, power.mu_items(u.terms.items()))
