"""Cup-length and zero-divisor cup-length, with certificates.

Both invariants are nilpotency lengths of ideals computed by exact linear
algebra: the cup-length is the largest n with (A+)^n != 0 where A+ is the
span of the positive-degree basis, and the r-th zero-divisor cup-length is
the largest n with K^n != 0 where K is the kernel of the collapse map on
the r-th tensor power.  K is generated as an ideal by the set G of the
(r-1) dim Q(A) zero divisors x^(s) - x^(1), for x an indecomposable letter
(:meth:`~zclkit.algebra.Algebra.indecomposables`, a basis of
Q(A) = A+/(A+)^2) and s = 2..r, where x^(s) is x in slot s and 1 in every
other slot.  Modulo G a basis tuple a_1 x ... x a_r = a_1^(1) ... a_r^(r)
becomes (a_1 ... a_r) x 1 x ... x 1, since b^(s) = b^(1) mod G for every
positive b, by induction on degree: b is a combination of letters and of
products xy of positive basis elements of lower degree, and

    (xy)^(s) - (xy)^(1) = x^(s) (y^(s) - y^(1)) + (x^(s) - x^(1)) y^(1).

Slot 1 embeds A and the collapse map splits it, in every characteristic.
Hence K^n = A^(x r) G^n is nonzero exactly when span(G^n) is, and one
forward pass over words in G, :func:`_walk`, finds the largest such n
together with a word of that length whose product is nonzero: the
witness, the first longest nonzero word over these letters.  The pass
starts from the empty word, makes every product as (kept word) x
(letter), with the letter no earlier than the word's last one, since the
letters graded-commute, and keeps a word exactly when elimination finds
its product independent of those before it at its length; that one rule
also drops every repeat.  The cup-length is the same walk over the
indecomposable letters themselves.  cl(A) is computed once per algebra
and kept on it.

Two inequalities frame every result: zcl_r <= r * cl (the product of more
than r*cl zero divisors dies in the r-th power), and zcl_{r+1} >= zcl_r + cl,
the cohomological form of cat(X^(r-1)) <= TC_r(X).  The first is the
walk's ceiling: it stops at the first nonzero product of length r * cl.
The cup-length walk stops at the top degree over the least letter degree.
The second is a lemma, proved at :func:`verify_witness`: a nonzero word W
at r and a chain y_1 ... y_c with a nonzero product in A give the nonzero
product W (y_1^(r+1) - y_1^(1)) ... (y_c^(r+1) - y_c^(1)) at r + 1.  So a
bounds certificate, a :class:`Witness`, is a seed walked at seed_r, the
cup-length chain and r, and no product past the seed is formed.
Every zero divisor here, generator or witness factor, is its letter
(y, s), the pair :func:`zero_divisor` takes, and every product with one in
the walk is formed slot by slot by :func:`zero_divisor_product`.
:func:`verify_witness` builds the seed's factors as rows, multiplies them
again through the pair table and collapses each by :func:`_collapse`, so
each certificate checks that kernel against the Koszul product.  The slot
rule and the collapse map live here because only this module runs them.
Every element here, a chain entry, a factor or a product, is a sparse row
``{index: coeff}`` of the algebra or tensor power the caller names,
printed by :func:`row_text`; each row read from a witness or a chain must
keep :func:`_is_row`.

The route is decided here and nowhere else: :func:`zcl_route` yields zcl_r
for r, r + 1, ... exactly while d^r fits the dimension ceiling, and past it
as a sandwich certified by one seed and the chain.  It walks r = 2
whenever d^2 fits the ceiling and seeds there if zcl_2 = 2 * cl, since the
two inequalities then close the sandwich at every r: by induction
zcl_r >= zcl_2 + (r - 2) cl = r * cl.  Otherwise it seeds at the largest r0
with d^r0 also within DEFAULT_SEED_DIM, or at 2, reusing a walk it already
yielded.  Each r past that costs the same: the route builds no letter, so
it refuses none; a report that prints a witness's letters holds their
number to the ceiling (``commands/witness_payload``).  The brute-force
oracles that check these results, and the product of all the letters
of a bounds witness, live beside the tests, in ``tests/dense_reference.py``.
"""

from functools import partial, reduce

from .errors import (DEFAULT_MAX_DIM, FieldMismatchError, ValidationError,
                     WitnessInvariantError, power_fits)
from .linalg import reduce_into
from .record import Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterator, Mapping, Optional

    from .algebra import Algebra
    from .tensor import TensorPowerAlgebra

DEFAULT_SEED_DIM = 256


class ClResult(Record):
    """Cup-length value plus a maximal chain of positive-degree basis elements."""

    _fields = ("value", "chain")

    def __init__(self, value: int, chain: tuple):
        if len(chain) != value:
            raise ValidationError("chain length must equal the cup-length value")
        super().__init__(value, chain)


class Witness(Record):
    """Zero divisors whose nonzero ordered product certifies a lower bound.

    Only the certificate is stored: ``seed``, letters (y, s) walked at
    ``seed_r``, each for y^(s) - y^(1) with y a {base index: coeff} row;
    ``product``, the row of the seed_r-th power they multiply to; and
    ``chain``, cup-length chain rows of the base.  The factors are derived:
    the seed's letters, then (y, s) for s = seed_r + 1..r and each y in the
    chain; ``length`` counts them, an int of any size (``len`` would need it to
    fit an index).  An exact result has seed_r = r, chain = ().
    """

    _fields = ("r", "seed", "product", "seed_r", "chain")

    def __init__(self, r: int, seed: tuple, product: dict,
                 seed_r: "Optional[int]" = None, chain: tuple = ()):
        super().__init__(r, seed, product, r if seed_r is None else seed_r, chain)

    @property
    def length(self) -> int:
        return len(self.seed) + (self.r - self.seed_r) * len(self.chain)


# method is "exact" or "bounds"; value and witness may be None
class ZclResult(Record):
    _fields = ("r", "value", "method", "lower", "upper", "witness")


class WitnessReport(Record):
    _fields = ("ok", "problems")


# -- rows, the collapse map and the slot rule ----------------------------------------


def row_text(a: "Algebra", row: "Mapping") -> str:
    """A row of ``a`` as ``c·label`` terms in index order joined by `` + ``, or ``0``."""
    return " + ".join(f"{c}·{a.label_of(i)}" for i, c in sorted(row.items())) or "0"


def _is_row(a: "Algebra", row, dim: "Optional[int]" = None) -> bool:
    """The row rule: a dict of int (not bool) indices in range(dim or a.dim), each
    with a nonzero coefficient that ``a.field.coerce`` takes and keeps as it is."""
    dim, coerce = dim or a.dim, a.field.coerce
    try:
        return isinstance(row, dict) and all(
            j.__class__ is int and 0 <= j < dim and c and c == coerce(c) for j, c in row.items())
    except FieldMismatchError:  # no scalar of the field
        return False


def _degree(a: "Algebra", row: "Mapping") -> "Optional[int]":
    """The common degree of a row's support; None for zero or mixed rows."""
    degs = {a.degree_of(i) for i in row}
    return degs.pop() if len(degs) == 1 else None


def _fold(a: "Algebra", rows) -> dict:
    """The ordered product of a nonempty sequence of rows of ``a``, through the pair table."""
    return reduce(lambda p, q: a.product_items(p.items(), q.items()), rows)


def _collapse(power: "TensorPowerAlgebra", u: "Mapping") -> dict:
    """The collapse map, tuple -> product of slots, on a row of ``power``: a row
    of the base, multiplying out only the non-unit slots of each term."""
    a = power.base
    unit, one, add = a.unit_index, a.field.one, a.field.add
    acc: dict = {}
    for idx, c in u.items():
        image = ((unit, c),)
        for slot in power.tuple_of_index(idx):
            if slot != unit:  # the unit slots leave the product as it is
                image = a.product_items(image, ((slot, one),)).items()
        for k, v in image:
            if k in acc:
                v = add(acc.pop(k), v)
            if v:
                acc[k] = v
    return acc


def zero_divisor(power: "TensorPowerAlgebra", y: "Mapping", s: int) -> dict:
    """y^(s) - y^(1) as {index: coeff}, for y = {base index: coeff} and s >= 2."""
    return zero_divisor_product(power, {power.unit_index: power.field.one}, y, s)


def zero_divisor_product(power: "TensorPowerAlgebra", u: "Mapping", y: "Mapping", s: int) -> dict:
    """u (y^(s) - y^(1)) as {index: coeff}, for homogeneous u = {index: coeff} and y, s as above.

    The slot rule: by the Koszul sign, e_t y_j^(q) is e_t with slot q
    replaced by t_q y_j, times (-1)^{|y_j| (|t_{q+1}| + ... + |t_r|)}.  So
    each term of u is multiplied in slot s and in slot 1 only, through
    the base table; no product of r slot coefficients is formed.
    """
    acc: dict = {}
    _times_slot(power, acc, u, y.items(), s)
    neg = power.field.neg
    _times_slot(power, acc, u, [(j, neg(c)) for j, c in y.items()], 1)
    return acc


def _times_slot(power: "TensorPowerAlgebra", acc: dict, u: "Mapping", y_items, q: int) -> None:
    """Add u y^(q) into acc by the slot rule, for homogeneous u: the slots after
    q have the degree of u, read once, minus that of slots 1..q.  The moves of y
    are kept per base as slot shifts, so each is scaled to an index shift here."""
    n = power.r - q
    base, tab = power.base, power.tables
    d = base.dim
    place = d ** n
    y_items = tuple(y_items)
    moves = tab.moves.get(y_items)
    if moves is None:
        moves = tab.moves[y_items] = _slot_moves(base, y_items)
    signed = n and any(base.degree_of(j) & 1 for j, _ in y_items)
    if signed:
        udeg = power.degree_of(next(iter(u), 0))
        head = tab.degrees[q].__getitem__ if q <= tab.width else partial(tab.low_degree, n=q)
    mul, add = power.field.mul, power.field.add
    for idx, a in u.items():
        high = idx // place
        flip = signed and (udeg - head(high)) & 1
        for c, shift in moves[high % d][flip]:
            key = idx + shift * place
            v = mul(a, c)
            prev = acc.get(key)
            if prev is not None:
                v = add(prev, v)
                if not v:
                    del acc[key]
                    continue
            acc[key] = v


def _slot_moves(base: "Algebra", y_items) -> list:
    """By base index t, the (coeff, slot shift) of each term of e_t y, unsigned and signed."""
    odd, bp = [deg & 1 for deg in base.degrees], base.basis_product
    mul, neg = base.field.mul, base.field.neg
    moves = []
    for t in range(base.dim):
        terms = [(odd[j], mul(c, c2), k - t) for j, c in y_items for k, c2 in bp(t, j).items()]
        moves.append((
            [(c, shift) for _, c, shift in terms],
            [(neg(c) if oj else c, shift) for oj, c, shift in terms],
        ))
    return moves


# -- the walk over words ------------------------------------------------------------


def _walk(a: "Algebra", n: int, times, ceiling: int) -> tuple:
    """(word, product): the lexicographically first nonzero word of maximal length.

    A word is a tuple of letter indices 0..n-1, and ``times(p, i)`` is the
    product of a sparse row p of a with letter i.  The letters must be
    homogeneous and graded-commute, and ``ceiling`` must bound the length of
    every nonzero word.  Level 0 is the empty word with product 1.  Level
    m+1 multiplies each kept word W of level m, in order, by each letter
    i >= W[-1], in order, and keeps a product exactly when
    :func:`~zclkit.linalg.reduce_into` adds it to the level's echelon, that
    is, when it is independent of the products before it.  The walk stops
    at the first empty level, or at the first product kept at length
    ``ceiling``, since the level after it is empty.  The first word of the
    last nonempty level and its product are returned (``((), None)`` when
    no letter is nonzero).

    Only non-decreasing words are formed.  Letters graded-commute, and an
    odd letter squares to zero outside characteristic 2 (validation forces
    odd squares to vanish), so P_W x_i = +-P_sort(W+i) for the product P_W
    of a word W.  Inserting a letter into sorted words keeps their
    lexicographic order, and levels list their words in that order.  So if
    a sorted W is dropped, P_W is a combination of products of earlier kept
    words U, and P_W x_i one of products of the earlier sort(U+i); by
    induction in lexicographic order, the kept products of level m span
    span(letters)^m.

    The word returned is the lexicographically first nonzero word W of
    maximal length l.  W is sorted, since sorting a word keeps its product
    nonzero and does not make it later.  Every kept word is a nonzero word
    of its length.  If some prefix of W were dropped, its product would be
    a combination of products of lexicographically smaller sorted words of
    the same length; multiplying out the rest of W, one of those smaller
    words would extend to a nonzero word of length l before W, a
    contradiction.  So every prefix of W is kept and W comes first in
    level l.
    """
    field = a.field
    level = [((), {a.unit_index: field.one})]
    for length in range(1, ceiling + 1):
        echelon, nxt = {}, []
        for word, prod in level:
            for i in range(word[-1] if word else 0, n):
                p = times(prod, i)
                if reduce_into(field, echelon, p):
                    if length == ceiling:
                        return word + (i,), p
                    nxt.append((word + (i,), p))
        if not nxt:
            break
        level = nxt
    word, prod = level[0]
    return (word, prod) if word else ((), None)


# -- cup-length -------------------------------------------------------------------


def cup_length(a: "Algebra") -> ClResult:
    """Largest number of positive-degree elements with nonzero product.

    The walk's letters are :meth:`~zclkit.algebra.Algebra.indecomposables`,
    the positive basis elements independent of (A+)^2 and of the letters
    before them.  The chain is still the lexicographically first nonzero
    word of maximal length cl over all positive basis elements.  Suppose
    that word W used a dropped b = sum c_g g + delta, with letters g < b and
    delta in (A+)^2.  W with b replaced by delta lies in (A+)^(cl+1) = 0, so
    W with b replaced by some g is nonzero, and it comes before W: a
    contradiction.
    """
    cached = getattr(a, "_cup_length", None)
    if cached is None:
        one = a.field.one
        letters = a.indecomposables()
        # a word of length m has degree at least m times the least letter degree
        ceiling = max(a.degrees) // min((a.degree_of(x) for x in letters), default=1)
        word, _ = _walk(
            a,
            len(letters),
            lambda p, n: a.product_items(p.items(), ((letters[n], one),)),
            ceiling,
        )
        cached = ClResult(len(word), tuple({letters[n]: one} for n in word))
        a._cup_length = cached
    return cached


# -- zero-divisor cup-length --------------------------------------------------------


def _zero_divisor_letters(power: "TensorPowerAlgebra") -> list:
    """(y, s), y = {x: 1}, for the (r-1) dim Q(A) generators x^(s) - x^(1), by (x, s)."""
    a = power.base
    return [({x: a.field.one}, s) for x in a.indecomposables() for s in range(2, power.r + 1)]


def zcl_exact(a: "Algebra", r: int, max_dim: "Optional[int]" = DEFAULT_MAX_DIM) -> ZclResult:
    """Nilpotency length of the zero-divisor ideal in the r-th tensor power.

    The witness is the first longest nonzero word over the letters
    x^(s) - x^(1), x indecomposable, ordered by (x, s).  ``max_dim`` caps
    the tensor power's dimension; None means no ceiling.
    """
    if r < 2:
        raise ValidationError("zero-divisor cup-length needs r >= 2")
    upper = r * cup_length(a).value
    power = a.tensor_power(r, max_dim)
    letters = _zero_divisor_letters(power)
    word, product = _walk(
        power, len(letters), lambda p, i: zero_divisor_product(power, p, *letters[i]), upper
    )
    if not word:
        return ZclResult(r, 0, "exact", 0, upper, None)
    if not product:
        raise WitnessInvariantError("extracted witness has zero product")
    witness = Witness(r, tuple(letters[p] for p in word), product)
    return ZclResult(r, len(word), "exact", len(word), upper, witness)


def zcl_route(
    a: "Algebra", r: int, max_dim: "Optional[int]" = DEFAULT_MAX_DIM, exact: bool = True
) -> "Iterator[ZclResult]":
    """Yield the ZclResult for r, r + 1, ... in order, by the route described above.

    Results are exact while ``exact`` holds and d^r fits ``max_dim`` (None
    for no ceiling).  A sandwich has a value only when its lower bound
    meets r * cl, and its seed is at no r past the first one it yields.
    Past the exact walks the route yields for ever, at any r, and refuses
    nothing: a witness's letters are not formed here, whatever their number.
    """
    if r < 2:
        raise ValidationError("zero-divisor cup-length needs r >= 2")
    d = a.dim
    walked = {}
    while exact and power_fits(d, r, max_dim):
        walked[r] = res = zcl_exact(a, r, max_dim)
        yield res
        r += 1
    clres = cup_length(a)
    cl = clres.value
    if cl == 0 or not power_fits(d, 2, max_dim):
        while True:
            yield ZclResult(r, None if cl else 0, "bounds", 0, r * cl, None)
            r += 1
    r0 = 2
    seed = walked.get(r0) or zcl_exact(a, r0, max_dim)
    seed_dim = DEFAULT_SEED_DIM if max_dim is None else min(DEFAULT_SEED_DIM, max_dim)
    while seed.value != 2 * cl and r0 < r and power_fits(d, r0 + 1, seed_dim):
        r0 += 1
    if r0 > 2:
        seed = walked.get(r0) or zcl_exact(a, r0, max_dim=seed_dim)
    seed, chain = seed.witness, clres.chain
    while True:
        lower = len(seed.seed) + (r - r0) * cl
        witness = Witness(r, seed.seed, seed.product, r0, chain)
        yield ZclResult(r, lower if lower == r * cl else None, "bounds", lower, r * cl, witness)
        r += 1


def zcl_bounds(a: "Algebra", r: int, max_dim: "Optional[int]" = DEFAULT_MAX_DIM) -> ZclResult:
    """Certified sandwich for zcl_r: the first result of :func:`zcl_route` with no exact walk.

    ``max_dim`` (None for no ceiling) bounds the walk at r = 2; a seed past r = 2
    stays within DEFAULT_SEED_DIM too.  The number of the witness's letters is not
    bounded here: the report that prints them holds it to the ceiling."""
    return next(zcl_route(a, r, max_dim, exact=False))


def verify_witness(a: "Algebra", w: Witness) -> WitnessReport:
    """Re-check a witness from scratch; reports every failing piece.

    The seed and the chain must be tuples and seed_r an int, 2 <= seed_r <= r.
    Each letter (y, s) of the seed must pair a row over the base with an int
    s, 2 <= s <= seed_r, and collapse to zero at seed_r, and their ordered
    product must match the stored row and be nonzero.  The chain must hold
    rows of the base, homogeneous of positive degree, with a nonzero product.

    That is enough, by the extension lemma.  Let W != 0 at r, and let
    y_1 ... y_c be homogeneous of positive degree with y_1 ... y_c != 0 in A.
    Expand (W x 1) (y_1^(r+1) - y_1^(1)) ... (y_c^(r+1) - y_c^(1)) into the
    terms that take y_i^(r+1) from some of the factors and -y_i^(1) from the
    rest.  A^(x r+1) is A^(x r) x A, graded by the last slot, and the only
    term whose last slot has degree |y_1| + ... + |y_c| is the one that takes
    every y_i^(r+1): W x y_1 ... y_c, with no Koszul sign, since the slots it
    passes hold the degree-0 unit.  That term is nonzero, so the product is.
    Each step from seed_r to r is such an extension, and lifting by x 1 keeps
    the letters before it, so the product of all the factors is nonzero at r.
    """
    r, seed, seed_r, chain = w.r, w.seed, w.seed_r, w.chain
    if not isinstance(seed, tuple):
        return WitnessReport(False, ("the seed is not a tuple",))
    if not seed:
        return WitnessReport(False, ("the seed has no factors",))
    if not (seed_r.__class__ is int and 2 <= seed_r <= r):
        return WitnessReport(False, (f"seed_r is not an int with 2 <= seed_r <= {r}",))
    if not isinstance(chain, tuple):
        return WitnessReport(False, ("the chain is not a tuple",))
    if not all(_is_row(a, y) for y in chain):
        return WitnessReport(False, ("a chain element is not a row of the base",))
    for n, f in enumerate(seed):
        if not (isinstance(f, tuple) and len(f) == 2 and f[1].__class__ is int
                and 2 <= f[1] <= seed_r and _is_row(a, f[0])):
            problem = f"factor {n} is not a letter (y, s) over the base with 2 <= s <= {seed_r}"
            return WitnessReport(False, (problem,))
    power = a.tensor_power(seed_r, max_dim=None)
    rows = [zero_divisor(power, y, s) for y, s in seed]
    images = [_collapse(power, f) for f in rows]
    problems = [f"factor {n} is not a zero divisor (collapses to {row_text(a, image)})"
                for n, image in enumerate(images) if image]
    product = _fold(power, rows)
    if not _is_row(power, w.product):
        problems.append("stored product is not a row of the tensor power")
    if product != w.product:
        problems.append("stored product differs from the recomputed one")
    if not product:
        problems.append("product of the factors is zero")
    if any((_degree(a, y) or 0) <= 0 for y in chain):
        problems.append("a chain element is not homogeneous of positive degree")
    elif chain and not _fold(a, chain):
        problems.append("chain product is zero")
    return WitnessReport(not problems, tuple(problems))
