"""Tensor powers and binary tensor products, with the Koszul sign.

Loaded only where a power or a product is built: :meth:`Algebra.tensor_power`
imports it, so ``check`` never compiles it.  Tensor powers and binary tensor
products carry the induced product

    (u_1 x ... x u_r) (v_1 x ... x v_r)
        = (-1)^{sum_{s<t} |v_s||u_t|} (u_1 v_1) x ... x (u_r v_r)

on the basis of r-tuples in lexicographic order.  Each rule is written
once: the sign and the term expansion in :func:`_koszul_product`, and the
table of nonzero positive pairs ``i <= j`` of a tensor product in
:func:`_tensor_table`.  A tensor power past _CHUNK_DIM dimensions
multiplies basis pairs as a tensor product of smaller powers, chunks of
adjacent slots, so a pair costs a few chunk lookups instead of one lookup
per slot.  The zero-divisor slot rule and the collapse map, which only the
invariants use, are in ``invariants``; a swap-counting sign reference is a
test reference in ``tests/dense_reference.py``.
"""

import itertools

from .algebra import DEFAULT_MAX_DIM, Algebra, TableAlgebra
from .errors import ResourceLimitError, ValidationError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Sequence

_CHUNK_DIM = 256


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
        self._moves: dict = {}  # the slot rule's moves, by (slot, y): see invariants
        # by chunk, the slots of each chunk index; built on first use, since the
        # bounds route builds a power for every r and reads the slots of few
        self._slot_tables = None

    def tuple_of_index(self, idx: int) -> tuple:
        """The r slots of idx: its chunk digits, each read as slots from a table per chunk."""
        tables = self._slot_tables
        if tables is None:
            base = self.base
            slots = {
                alg: tuple(itertools.product(range(base.dim), repeat=1 if alg is base else alg.r))
                for alg in set(self._chunks)
            }
            tables = self._slot_tables = tuple(slots[alg] for alg in self._chunks)
        digits = self._split(idx)
        return tuple(itertools.chain.from_iterable(map(tuple.__getitem__, tables, digits)))

    def index_of_tuple(self, t: "Sequence[int]") -> int:
        d = self.base.dim
        idx = 0
        for slot in t:
            idx = idx * d + slot
        return idx

    def degree_of(self, i: int) -> int:
        return self._low_degree(i, self.r)

    def label_of(self, i: int) -> str:
        return "⊗".join(map(self.base.label_of, self.tuple_of_index(i)))

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
