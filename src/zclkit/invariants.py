"""Cup-length and zero-divisor cup-length, with certificates.

Both invariants are nilpotency lengths of ideals computed by exact linear
algebra: the cup-length is the largest n with (A+)^n != 0 where A+ is the
span of the positive-degree basis, and the r-th zero-divisor cup-length is
the largest n with K^n != 0 where K is the kernel of the collapse map on
the r-th tensor power.  K is generated as an ideal by the set G of zero
divisors b^(s) - b^(1), for b a positive-degree basis element and s = 2..r,
where b^(s) is b in slot s and 1 in every other slot.  (Modulo G a basis
tuple a_1 x ... x a_r = a_1^(1) ... a_r^(r) becomes (a_1 ... a_r) x 1 x ... x 1;
slot 1 embeds A and the collapse map splits it, in every characteristic.)
Hence K^n = A^(x r) G^n is nonzero exactly when span(G^n) is, the ladder
span G, span(G^2), ... computes the exact value, and a greedy walk back
through it extracts an explicit witness whose factors are elements of G.

Two inequalities frame every result: zcl_r <= r * cl (the product of more
than r*cl zero divisors dies in the r-th power), and zcl_{r+1} >= zcl_r + cl,
certified constructively by extending a witness with the factors y x 1...x 1
- 1 x ... x 1 x y built from a maximal cup-length chain.

The route is decided here and nowhere else: :func:`zcl_auto` computes zcl_r
exactly while d^r fits the dimension ceiling, and otherwise by
:func:`zcl_bounds`, which seeds at the largest r0 with d^r0 within both the
ceiling and DEFAULT_SEED_DIM.  The brute-force oracles that check these
results live beside the tests, in ``tests/dense_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import DEFAULT_MAX_DIM, Algebra, Element, TensorPowerAlgebra, mu
from .errors import ValidationError, WitnessInvariantError
from .linalg import Subspace, subspace_product

DEFAULT_SEED_DIM = 256


@dataclass(frozen=True)
class ClResult:
    """Cup-length value plus a maximal chain of positive-degree basis elements."""

    value: int
    chain: tuple

    def __post_init__(self):
        if len(self.chain) != self.value:
            raise ValidationError("chain length must equal the cup-length value")


@dataclass(frozen=True)
class Witness:
    """Zero divisors whose nonzero ordered product certifies a lower bound.

    ``chain`` records the cup-length chain used by the most recent witness
    extension (None for witnesses read off directly from ideal powers); it
    feeds the degree-functional projection check in :func:`verify_witness`.
    """

    r: int
    factors: tuple
    product: Element
    chain: Optional[tuple] = None

    def __len__(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class ZclResult:
    r: int
    value: Optional[int]
    method: str  # "exact" | "bounds"
    lower: int
    upper: int
    witness: Optional[Witness]


@dataclass(frozen=True)
class WitnessReport:
    ok: bool
    problems: tuple
    projection_checked: bool = False


# -- ideal powers ---------------------------------------------------------------


def augmentation_ideal(a: Algebra) -> Subspace:
    """Span of the positive-degree basis vectors (already in RREF)."""
    pos = tuple(i for i in range(a.dim) if a.degree_of(i) > 0)
    one = a.field.one
    return Subspace(a.field, a.dim, tuple({i: one} for i in pos), pos)


def ideal_powers(a: Algebra, s: Subspace, limit: Optional[int] = None) -> list:
    """Nonzero powers [s, s^2, ...], stopping at zero or after ``limit`` entries.

    Terminates unconditionally for ideals inside the positive-degree part:
    an n-fold product has degree at least n.
    """
    if s.is_zero:
        return []
    powers = [s]
    while limit is None or len(powers) < limit:
        nxt = subspace_product(s, powers[-1], a.product_items)
        if nxt.is_zero:
            break
        powers.append(nxt)
    return powers


def _greedy_chain(a: Algebra, letters: Sequence, powers: Sequence) -> list:
    """Indices of letters whose ordered product is nonzero, one per power level.

    At each step the lexicographically first letter is kept whose partial
    product can still be completed, which is checked against the next power
    down the ladder; bilinearity guarantees such a letter exists.
    """
    n = len(powers)
    picks = []
    current = None
    for step in range(n):
        rem = n - step - 1
        chosen = None
        for li, lit in enumerate(letters):
            cand = dict(lit) if current is None else a.product_items(current, lit)
            if not cand:
                continue
            cand_items = list(cand.items())
            if rem == 0 or any(
                a.product_items(cand_items, row.items()) for row in powers[rem - 1].rows
            ):
                chosen = li
                current = cand_items
                break
        if chosen is None:
            raise WitnessInvariantError(
                "no letter extends the partial product; the power ladder is inconsistent"
            )
        picks.append(chosen)
    return picks


# -- cup-length -------------------------------------------------------------------


def cup_length(a: Algebra) -> ClResult:
    """Largest number of positive-degree elements with nonzero product."""
    pos = [i for i in range(a.dim) if a.degree_of(i) > 0]
    if not pos:
        return ClResult(0, ())
    powers = ideal_powers(a, augmentation_ideal(a))
    one = a.field.one
    letters = [[(i, one)] for i in pos]
    picks = _greedy_chain(a, letters, powers)
    chain = tuple(a.basis_element(pos[li]) for li in picks)
    return ClResult(len(powers), chain)


# -- zero-divisor cup-length --------------------------------------------------------


def _zero_divisor_generators(power: TensorPowerAlgebra) -> list:
    """Sparse rows of b^(s) - b^(1) in a tensor power, ordered by (b, s)."""
    a, r = power.base, power.r
    one = a.field.one
    minus_one = a.field.neg(one)
    units = [a.unit_index] * r
    gens = []
    for b in range(a.dim):
        if a.degree_of(b) == 0:
            continue
        first = power.index_of_tuple([b] + units[1:])
        for s in range(1, r):
            slots = list(units)
            slots[s] = b
            gens.append({power.index_of_tuple(slots): one, first: minus_one})
    return gens


def zcl_exact(a: Algebra, r: int, max_dim: Optional[int] = None) -> ZclResult:
    """Nilpotency length of the zero-divisor ideal in the r-th tensor power."""
    if r < 2:
        raise ValidationError("zero-divisor cup-length needs r >= 2")
    if max_dim is None:
        max_dim = DEFAULT_MAX_DIM
    clres = cup_length(a)
    upper = r * clres.value
    power = a.tensor_power(r, max_dim)
    gens = _zero_divisor_generators(power)
    if not gens:
        return ZclResult(r, 0, "exact", 0, upper, None)
    span = Subspace.from_sparse_rows(a.field, gens, power.dim)
    powers = ideal_powers(power, span, limit=upper)
    value = len(powers)
    letters = [list(g.items()) for g in gens]
    picks = _greedy_chain(power, letters, powers)
    factors = tuple(Element(power, dict(gens[p])) for p in picks)
    product = factors[0]
    for f in factors[1:]:
        product = product * f
    if product.is_zero:
        raise WitnessInvariantError("extracted witness has zero product")
    witness = Witness(r, factors, product)
    return ZclResult(r, value, "exact", value, upper, witness)


def zcl_bounds(a: Algebra, r: int, max_dim: Optional[int] = None) -> ZclResult:
    """Certified sandwich for zcl_r without iterating ideal powers at full size.

    Seeds an exact witness at the largest r0 <= r whose tensor power fits
    min(DEFAULT_SEED_DIM, ``max_dim``), then extends it one factor-count of
    cl(A) per step up to r.  The value is reported only when the certified
    lower bound meets the r*cl upper bound.
    """
    if r < 2:
        raise ValidationError("zero-divisor cup-length needs r >= 2")
    if max_dim is None:
        max_dim = DEFAULT_MAX_DIM
    clres = cup_length(a)
    upper = r * clres.value
    if clres.value == 0:
        return ZclResult(r, 0, "bounds", 0, 0, None)
    seed_dim = min(DEFAULT_SEED_DIM, max_dim)
    d = a.dim
    if d * d > seed_dim:
        return ZclResult(r, None, "bounds", 0, upper, None)
    r0, size = 2, d * d
    while r0 < r and size * d <= seed_dim:
        r0, size = r0 + 1, size * d
    seed = zcl_exact(a, r0, max_dim=seed_dim)
    witness = seed.witness
    for _ in range(r - r0):
        witness = witness_extend(a, witness, clres.chain)
    lower = len(witness.factors)
    value = lower if lower == upper else None
    return ZclResult(r, value, "bounds", lower, upper, witness)


def zcl_auto(a: Algebra, r: int, max_dim: Optional[int] = None) -> ZclResult:
    """zcl_r exactly while the r-th tensor power fits ``max_dim``, else by bounds."""
    if max_dim is None:
        max_dim = DEFAULT_MAX_DIM
    if a.dim ** r <= max_dim:
        return zcl_exact(a, r, max_dim=max_dim)
    return zcl_bounds(a, r, max_dim=max_dim)


def witness_extend(a: Algebra, w: Witness, chain: Sequence) -> Witness:
    """Lift a length-l witness at r to a length l + len(chain) witness at r + 1.

    Each factor x becomes x tensor 1; each chain element y contributes
    1 x ... x 1 x y - y x 1 x ... x 1, a zero divisor at r + 1.  Lifting by
    tensor 1 is multiplicative with no Koszul sign (the new slot holds the
    degree-0 unit), so the new product is the stored product tensor 1 times
    the chain factors; it must be nonzero for valid inputs.  The stored
    product is trusted here: :func:`verify_witness` recomputes it from the
    factors.
    """
    if not w.factors:
        raise ValidationError("witness extension needs at least one factor")
    chain = tuple(chain)
    if not chain:
        raise ValidationError("witness extension needs a nonempty chain")
    small = a.tensor_power(w.r, max_dim=None)
    yprod = None
    for y in chain:
        if y.algebra is not a:
            raise ValidationError("chain elements must live in the base algebra")
        if not y.is_homogeneous or (y.degree() or 0) <= 0:
            raise ValidationError("chain elements must be homogeneous of positive degree")
        yprod = y if yprod is None else yprod * y
    if yprod.is_zero:
        raise ValidationError("chain product must be nonzero")
    if w.product.algebra is not small or any(f.algebra is not small for f in w.factors):
        raise ValidationError("witness factors do not live in the stated tensor power")
    big = a.tensor_power(w.r + 1, max_dim=None)
    d = a.dim
    unit = a.unit_index

    def lift(x: Element) -> Element:
        return Element(big, {idx * d + unit: c for idx, c in x.terms.items()})

    ones = small.unit_index  # 1 x ... x 1 in the r-th power
    top = d ** w.r
    new = []
    for y in chain:
        one_y = Element(big, {ones * d + j: c for j, c in y.terms.items()})
        y_one = Element(big, {j * top + ones: c for j, c in y.terms.items()})
        new.append(one_y - y_one)
    product = lift(w.product)
    for f in new:
        product = product * f
    if product.is_zero:
        raise WitnessInvariantError(
            "extended witness product vanished; inputs violate the extension invariant"
        )
    factors = tuple(lift(f) for f in w.factors) + tuple(new)
    return Witness(w.r + 1, factors, product, chain=chain)


def verify_witness(a: Algebra, w: Witness) -> WitnessReport:
    """Re-check a witness from scratch; reports every failing piece.

    Every factor must collapse to zero, the ordered product must match the
    stored one and be nonzero, and for extended witnesses the projection
    that evaluates a degree functional on the last slot must stay nonzero.
    """
    problems = []
    if not w.factors:
        return WitnessReport(False, ("witness has no factors",))
    power = a.tensor_power(w.r, max_dim=None)
    for n, f in enumerate(w.factors):
        if f.algebra is not power:
            return WitnessReport(
                False, (f"factor {n} does not live in the {w.r}-th tensor power",)
            )
        image = mu(a, w.r, f)
        if not image.is_zero:
            problems.append(f"factor {n} is not a zero divisor (collapses to {image})")
    product = w.factors[0]
    for f in w.factors[1:]:
        product = product * f
    if product != w.product:
        problems.append("stored product differs from the recomputed one")
    if product.is_zero:
        problems.append("product of the factors is zero")
    projection_checked = False
    if w.chain and not product.is_zero:
        yprod = None
        for y in w.chain:
            yprod = y if yprod is None else yprod * y
        if yprod.is_zero or not yprod.is_homogeneous:
            problems.append("chain product is zero or inhomogeneous")
        else:
            items = yprod.items()
            cstar, lam = items[0]
            inv_lam = a.field.inv(lam)
            mul = a.field.mul
            add = a.field.add
            acc: dict = {}
            d = a.dim
            for idx, c in product.items():
                q, s = divmod(idx, d)
                if s == cstar:
                    prev = acc.get(q)
                    nv = mul(c, inv_lam) if prev is None else add(prev, mul(c, inv_lam))
                    if nv:
                        acc[q] = nv
                    else:
                        acc.pop(q, None)
            projection_checked = True
            if not acc:
                problems.append("degree-functional projection of the product vanished")
    return WitnessReport(not problems, tuple(problems), projection_checked)
