"""Exact sparse linear algebra: RREF, kernels, and subspace products.

Everything is computed over a :class:`~zclkit.fields.Field` with no
floating point.  Vectors are sparse rows, dicts from column index to
nonzero coefficient, because ideal-power enumeration generates large piles
of mostly-zero product rows.  A :class:`Subspace` is stored as its reduced
row echelon basis, which is unique, so two subspaces are equal exactly
when their stored rows and pivots are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import ValidationError
from .fields import Field

SparseRow = dict  # column index -> nonzero coefficient


def _sparse_rref(rows: Iterable[SparseRow], field: Field):
    """RREF of sparse rows; returns (list of pivot-sorted sparse rows, pivots)."""
    mul, sub = field.mul, field.sub
    one = field.one
    zero = field.zero
    piv: dict = {}
    for incoming in rows:
        row = dict(incoming)
        while row:
            lead = min(row)
            prow = piv.get(lead)
            if prow is None:
                c = row[lead]
                if c != one:
                    ic = field.inv(c)
                    row = {k: mul(v, ic) for k, v in row.items()}
                piv[lead] = row
                break
            f = row[lead]
            for k, v in prow.items():
                nv = sub(row.get(k, zero), mul(f, v))
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
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
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        one = field.one
        rows = tuple({i: one} for i in range(ambient_dim))
        return cls(field, ambient_dim, rows, tuple(range(ambient_dim)))

    @classmethod
    def from_sparse_rows(cls, field: Field, rows: Iterable[SparseRow], ambient_dim: int) -> "Subspace":
        reduced, pivots = _sparse_rref(rows, field)
        return cls(field, ambient_dim, tuple(reduced), tuple(pivots))


def kernel_basis(field: Field, rows: Iterable[SparseRow], ncols: int) -> Subspace:
    """Null space ``{v : m v = 0}`` of the matrix with these sparse rows."""
    reduced, pivots = _sparse_rref(rows, field)
    pivot_set = set(pivots)
    neg = field.neg
    kernel = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        row = {f: field.one}
        for red, pc in zip(reduced, pivots):
            x = red.get(f)
            if x:
                row[pc] = neg(x)
        kernel.append(row)
    return Subspace.from_sparse_rows(field, kernel, ncols)


def normalize_sparse(field: Field, row: SparseRow):
    """Scale a sparse row so its leading coefficient is 1; return (hashable key, row)."""
    lead = min(row)
    c = row[lead]
    if c != field.one:
        ic = field.inv(c)
        mul = field.mul
        row = {k: mul(v, ic) for k, v in row.items()}
    return tuple(sorted(row.items())), row


def subspace_product(s: Subspace, t: Subspace, product_items: Callable) -> Subspace:
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
