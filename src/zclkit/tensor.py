"""Tensor powers and binary tensor products, with the Koszul sign.

Loaded only where a power or a product is built: :meth:`Algebra.tensor_power`
imports it, so ``check`` never compiles it.  Tensor powers and binary tensor
products carry the induced product

    (u_1 x ... x u_r) (v_1 x ... x v_r)
        = (-1)^{sum_{s<t} |v_s||u_t|} (u_1 v_1) x ... x (u_r v_r)

on the basis of r-tuples in lexicographic order, labelled by their slot labels
joined with ⊗ (a product whose labels repeat is refused).  Each rule is written
once: the sign and the term expansion in :func:`_koszul_product`, and the
table of nonzero positive pairs ``i <= j`` of a tensor product in
:func:`_tensor_table`.  A tensor power multiplies a basis pair slot by
slot: it reads the r base digits of each index and looks each slot pair
up in the base table.  A power is a view of (base, r), built on each
call and never kept, over the :class:`PowerTables` of its base, which
every r shares.  The zero-divisor slot rule and the collapse map, which
only the invariants use, are in ``invariants``; a swap-counting sign
reference is a test reference in ``tests/dense_reference.py``.
"""

import itertools

from .algebra import DEFAULT_MAX_DIM, Algebra, TableAlgebra, refuse_repeated_labels
from .errors import ValidationError, power_fits, refuse

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Sequence

_DEGREE_TABLE_DIM = 256


def _koszul_product(slots: "Sequence[Algebra]", tu: "Sequence[int]", tv: "Sequence[int]") -> dict:
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


def _tensor_table(slots: "Sequence[Algebra]") -> dict:
    """{(i, j): e_i e_j} over positive-degree i <= j of slots[0] x ... x slots[-1], nonzero only.

    A pair is nonzero exactly when it is nonzero in every slot, so only the
    tuples of nonzero slot pairs are visited, never the zero pairs.  The one
    degree-0 basis element of each slot makes the tuple of units the only
    degree-0 index of the product.  The keys are unsorted; ``save_algebra`` sorts them.
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
    return table


class PowerTables:
    """What every tensor power of one base reads, built once per base and never per r.

    ``degrees[n]`` lists the degrees of the indices of A^(x n) for n <= ``width``,
    the most slots whose power has at most _DEGREE_TABLE_DIM dimensions, and
    ``moves`` holds the slot rule's moves by letter.
    """

    def __init__(self, base: Algebra):
        k = 1
        while 1 < base.dim ** (k + 1) <= _DEGREE_TABLE_DIM:
            k += 1
        self.width, self.moves = k, {}
        self.degrees = [tuple(map(sum, itertools.product(base.degrees, repeat=n)))
                        for n in range(k + 1)]

    def low_degree(self, low: int, n: int) -> int:
        """Degree of the n lowest slots of an index, given low = index mod d^n."""
        deg, k, total = self.degrees, self.width, 0
        while n > k:
            low, m = divmod(low, len(deg[k]))
            total += deg[k][m]
            n -= k
        return total + deg[n][low]


class TensorPowerAlgebra(Algebra):
    """Lazy r-fold tensor power: a view of (base, r) that builds no table of its own."""

    def __init__(self, base: Algebra, r: int):
        super().__init__(f"{base.name}^tensor{r}", base.field)
        self.base, self.r, self.dim = base, r, base.dim ** r
        # (1, ..., 1): the unit digit times 1 + d + ... + d^(r-1)
        self.unit_index = base.unit_index * ((self.dim - 1) // max(base.dim - 1, 1))
        if base._power_tables is None:
            base._power_tables = PowerTables(base)
        self.tables = base._power_tables

    def tuple_of_index(self, idx: int) -> tuple:
        """The r slots of idx: its r base-d digits, slot 1 the most significant."""
        d, slots = self.base.dim, []
        for _ in range(self.r):
            idx, slot = divmod(idx, d)
            slots.append(slot)
        return tuple(reversed(slots))

    def degree_of(self, i: int) -> int:
        return self.tables.low_degree(i, self.r)

    def label_of(self, i: int) -> str:
        return "⊗".join(map(self.base.label_of, self.tuple_of_index(i)))

    def _core_table(self):
        return _tensor_table((self.base,) * self.r)

    def _compute_pair(self, i, j):
        slots = (self.base,) * self.r
        return _koszul_product(slots, self.tuple_of_index(i), self.tuple_of_index(j))


def tensor_product(a: Algebra, b: Algebra, max_dim: int | None = DEFAULT_MAX_DIM) -> TableAlgebra:
    """Binary tensor product with the sign rule (a x b)(a' x b') = ±(aa' x bb')."""
    if a.field != b.field:
        raise ValidationError("tensor product requires a common ground field")
    dim = a.dim * b.dim
    if not power_fits(dim, 1, max_dim):
        refuse(f"tensor product dim {dim} exceeds", max_dim)
    name = f"{a.name}⊗{b.name}"
    labels = [f"{a.label_of(i)}⊗{b.label_of(j)}" for i in range(a.dim) for j in range(b.dim)]
    refuse_repeated_labels(name, labels)
    degrees = [a.degree_of(i) + b.degree_of(j) for i in range(a.dim) for j in range(b.dim)]
    return TableAlgebra(name, a.field, labels, degrees, _tensor_table((a, b)))
