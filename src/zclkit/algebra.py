"""Graded-commutative algebra core: what every command on an algebra runs.

An algebra is presented by a homogeneous basis with degrees and a partial
multiplication table for positive-degree pairs ``(i, j)`` with ``i <= j``;
the remaining entries are filled in by the unit laws and the sign rule
``e_j e_i = (-1)^{deg_i deg_j} e_i e_j``.  Missing entries default to zero.
:func:`validate_algebra` checks a presentation and completes its table.
Every sparse vector, a table entry and a presentation row too, is an
``{index: coeff}`` dict; a table entry lists its terms in index order.
:meth:`AlgebraPresentation.to_dict` gives a presentation's file form;
``algfile.save_algebra`` writes that form straight from an algebra's core
table.

The rest loads only with the command that runs it: tensor powers and
products with the Koszul sign in ``tensor``, which
:meth:`Algebra.tensor_power` imports; the collapse map and the
zero-divisor slot rule in ``invariants``; reading a file in ``reader``.
"""

from .errors import DEFAULT_MAX_DIM, ValidationError, power_fits, refuse
from .linalg import reduce_into
from .record import Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .fields import Field


# basis: ((label, degree), ...); products: (i, j) -> {basis index: coeff}, i <= j
class AlgebraPresentation(Record):
    """Raw input data for :func:`validate_algebra`."""

    _fields = ("name", "field", "basis", "products")

    @classmethod
    def from_labels(cls, name, field, basis, products=None):
        """Build a presentation keyed by labels: products map (label, label) to {label: coeff}.

        Labels and degrees are taken as given; only an unknown label is refused here.
        """
        basis = tuple((lbl, deg) for lbl, deg in basis)
        index = {lbl: i for i, (lbl, _) in enumerate(basis)}
        table = {}
        for (left, right), row in (products or {}).items():
            try:
                table[(index[left], index[right])] = {index[lbl]: c for lbl, c in row.items()}
            except KeyError as exc:
                raise ValidationError(
                    f"algebra {name!r}: product references unknown label {exc.args[0]!r}"
                ) from None
        return cls(name, field, basis, table)

    def to_dict(self) -> dict:
        """The JSON object of an algebra file, as written and as the builtin digest hashes."""
        field = self.field
        kind = {"kind": "prime", "p": field.p} if field.p is not None else {"kind": "rational"}
        labels = [lbl for lbl, _ in self.basis]
        products = []
        for (i, j) in sorted(self.products):
            terms = self.products[(i, j)]
            if not terms:
                continue
            products.append(
                {
                    "left": labels[i],
                    "right": labels[j],
                    "value": [
                        {"coeff": str(field.coerce(c)), "basis": labels[k]}
                        for k, c in terms.items()
                    ],
                }
            )
        return {
            "name": self.name,
            "field": kind,
            "basis": [{"label": lbl, "degree": deg} for lbl, deg in self.basis],
            "products": products,
        }


class Algebra:
    """Validated algebra with a completed multiplication table.

    Subclasses set ``dim`` and ``unit_index`` and supply ``degree_of``,
    ``label_of``, ``_core_table`` and ``_compute_pair``; pair results are
    cached.  Instances are immutable after construction and safe to share.
    """

    dim: int
    unit_index: int

    def __init__(self, name: str, field: "Field"):
        self.name = name
        self.field = field
        self._pair_cache: dict = {}
        self._power_tables = None  # what every tensor power of self reads: see ``tensor``

    @property
    def degrees(self) -> tuple:
        cached = getattr(self, "_degrees", None)
        if cached is None:
            cached = tuple(self.degree_of(i) for i in range(self.dim))
            self._degrees = cached
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

    # -- derived algebras ----------------------------------------------------

    def tensor_power(self, r: int, max_dim: int | None = DEFAULT_MAX_DIM) -> "Algebra":
        """The r-fold tensor power: a new view of (self, r) on each call, never kept."""
        if r < 1:
            raise ValidationError("tensor power requires r >= 1")
        if r == 1:
            return self
        if not power_fits(self.dim, r, max_dim):
            # d^r is shown where str() prints it by default: up to 4300 digits
            value = f" = {self.dim ** r}" if power_fits(self.dim, r, 10 ** 4300 - 1) else ""
            refuse(f"dim {self.dim}^{r}{value} exceeds", max_dim)
        from .tensor import TensorPowerAlgebra  # here, so `check` does not load it

        return TensorPowerAlgebra(self, r)

    def indecomposables(self) -> tuple:
        """The positive basis indices independent of (A+)^2 and of the ones before them.

        (A+)^2 is spanned by the core-table rows, so these letters span
        Q(A) = A+/(A+)^2; they do not depend on associativity.
        """
        cached = getattr(self, "_indecomposables", None)
        if cached is None:
            field, echelon = self.field, {}
            for row in self._core_table().values():
                reduce_into(field, echelon, row)
            cached = self._indecomposables = tuple(
                i for i in range(self.dim)
                if self.degree_of(i) > 0 and reduce_into(field, echelon, {i: field.one})
            )
        return cached

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


# -- validation ---------------------------------------------------------------


def refuse_repeated_labels(name: str, labels: list) -> None:
    """Raise a ValidationError naming the first label that ``labels`` repeats, if any."""
    if len(set(labels)) < len(labels):
        seen: set = set()
        label = next(lbl for lbl in labels if lbl in seen or seen.add(lbl))
        raise ValidationError(f"algebra {name!r}: duplicate basis label {label!r}")


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
    refuse_repeated_labels(name, labels)
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
        for k in terms:
            if not (0 <= k < dim):
                raise ValidationError(f"algebra {name!r}: term index {k} out of range")
        clean = {k: c for k, c in sorted((k, field.coerce(c)) for k, c in terms.items()) if c}
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
