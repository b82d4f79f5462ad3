"""Expected values for the benchmark's operations, derived apart from zclkit.

Nothing here imports zclkit or compares against saved program output.  The
base algebras are re-stated from their definitions (README, PAPER.md), and
every expected number follows from a closed form or a counting argument:

* stanley-p3: basis 1, a2, a3, a11 over F_3 with every positive product
  zero, so cl = 1; the paper gives zcl_r = r, hence t_r = zcl_{r+1} = r + 1
  and sum_{r>=1} t_r x^r = (2x - x^2)/(1-x)^2, P = [0, 2, -1], P(1) = 1.
* surface:1 (the torus): a1*b1 = c = -b1*a1 over Q, so cl = 2; the torus
  has zcl_r = 2(r-1), hence t_r = 2r and P = [0, 2], P(1) = 2.
* tensor powers: the basis is the r-tuples of base indices in
  lexicographic order with slot-degree sums as degrees, and a product of
  tuples is the slot-wise product with the Koszul sign
  (-1)^{sum_{s<t} |v_s||u_t|}.  With n ordered base pairs whose product is
  nonzero, n^r tuple pairs multiply to nonzero; 2 d^r - 1 of them involve
  the unit tuple, no positive tuple squares to nonzero here, and the file
  lists each unordered pair once, so it holds (n^r - 2 d^r + 1)/2 products.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional


@dataclass(frozen=True)
class Base:
    """A builtin algebra as the benchmark knows it, independently of zclkit."""

    name: str
    labels: tuple
    degrees: tuple
    p: Optional[int]  # None for the rationals
    table: dict  # (i, j) -> (coeff, k) for every nonzero product e_i e_j
    cl: int
    zcl: Optional[Callable[[int], int]] = None  # closed form of zcl_r
    P: Optional[tuple] = None  # numerator of sum_{r>=1} zcl_{r+1} x^r

    @property
    def dim(self) -> int:
        return len(self.labels)


def _unit_table(d: int) -> dict:
    table = {(0, j): (1, j) for j in range(d)}
    table.update({(i, 0): (1, i) for i in range(d)})
    return table


def stanley_p3() -> Base:
    return Base(
        "stanley-p3",
        ("1", "a2", "a3", "a11"),
        (0, 2, 3, 11),
        3,
        _unit_table(4),
        cl=1,
        zcl=lambda r: r,
        P=(0, 2, -1),
    )


def surface(genus: int) -> Base:
    labels = ["1"]
    for i in range(1, genus + 1):
        labels += [f"a{i}", f"b{i}"]
    labels.append("c")
    d = len(labels)
    table = _unit_table(d)
    for i in range(genus):
        a, b = 1 + 2 * i, 2 + 2 * i
        table[(a, b)] = (1, d - 1)
        table[(b, a)] = (-1, d - 1)  # graded commutativity, both of degree 1
    torus = genus == 1
    return Base(
        f"surface:{genus}",
        tuple(labels),
        (0,) + (1,) * (2 * genus) + (2,),
        None,
        table,
        cl=2,
        zcl=(lambda r: 2 * (r - 1)) if torus else None,
        P=(0, 2) if torus else None,
    )


BASES = {"stanley-p3": stanley_p3, "surface:1": lambda: surface(1), "surface:2": lambda: surface(2)}


def base(name: str) -> Base:
    return BASES[name]()


# -- helpers ----------------------------------------------------------------------


def convolve(P, r: int) -> int:
    """Coefficient of x^r in P(x)/(1-x)^2, i.e. sum_k P_k (r - k + 1)."""
    return sum(c * (r - k + 1) for k, c in enumerate(P) if k <= r)


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _result(report: dict, kind: str, problems: list) -> dict:
    _expect(problems, "status", report.get("status"), 0)
    result = report.get("result") or {}
    _expect(problems, "kind", result.get("kind"), kind)
    return result


def _witness(w: Optional[dict], r: int, length: int, problems: list) -> None:
    if not isinstance(w, dict):
        problems.append("witness missing")
        return
    _expect(problems, "witness r", w.get("r"), r)
    _expect(problems, "witness length", w.get("length"), length)
    _expect(problems, "witness factor count", len(w.get("factors") or ()), length)
    _expect(problems, "witness verified", w.get("verified"), True)
    _expect(problems, "witness problems", w.get("problems"), [])


# -- per-command checks --------------------------------------------------------------


def check_series(report: dict, b: Base, rmax: int) -> list:
    problems = []
    res = _result(report, "series", problems)
    _expect(problems, "name", res.get("name"), b.name)
    _expect(problems, "rmax", res.get("rmax"), rmax)
    _expect(problems, "cl", res.get("cl"), b.cl)
    entries = res.get("entries") or []
    _expect(problems, "entry r values", [e.get("r") for e in entries], list(range(2, rmax + 2)))
    values = [e.get("value") for e in entries]
    _expect(problems, "zcl values", values, [b.zcl(r) for r in range(2, rmax + 2)])
    for e in entries:
        r, v = e.get("r"), e.get("value")
        _expect(problems, f"r={r} method", e.get("method"), "exact")
        _expect(problems, f"r={r} lower", e.get("lower"), v)
        _expect(problems, f"r={r} upper", e.get("upper"), r * b.cl)
        if not isinstance(v, int) or v > r * b.cl:
            problems.append(f"r={r}: zcl {v!r} breaks zcl_r <= r*cl = {r * b.cl}")
    for e, f in zip(entries, entries[1:]):
        if not all(isinstance(x, int) for x in (e.get("value"), f.get("value"))) or (
            f["value"] < e["value"] + b.cl
        ):
            problems.append(f"r={e.get('r')}: zcl_(r+1) >= zcl_r + cl fails")
    seq = res.get("sequence") or {}
    _expect(problems, "sequence offset", seq.get("offset"), 1)
    _expect(problems, "sequence", seq.get("values"), values)
    an = res.get("analysis") or {}
    _expect(problems, "verdict", an.get("verdict"), "rational_form_detected")
    P = an.get("p_coeffs")
    _expect(problems, "P", P, list(b.P))
    _expect(problems, "P(1)", an.get("p_at_one"), sum(b.P))
    if isinstance(P, list) and all(isinstance(c, int) for c in P):
        for k, t in enumerate(seq.get("values") or (), start=1):
            if convolve(P, k) != t:
                problems.append(f"P does not reproduce t_{k} = {t}")
    _expect(problems, "P(1) equals cl", res.get("p_at_one_equals_cl"), sum(b.P) == b.cl)
    _expect(problems, "certified", res.get("certified"), True)
    return problems


def check_zcl_bounds(report: dict, b: Base, r: int) -> list:
    problems = []
    res = _result(report, "zcl", problems)
    want = b.zcl(r)
    _expect(problems, "name", res.get("name"), b.name)
    _expect(problems, "r", res.get("r"), r)
    _expect(problems, "method", res.get("method"), "bounds")
    _expect(problems, "value", res.get("value"), want)
    _expect(problems, "lower", res.get("lower"), want)
    _expect(problems, "upper", res.get("upper"), r * b.cl)
    _witness(res.get("witness"), r, want, problems)
    return problems


def check_witness(report: dict, b: Base, r: int) -> list:
    problems = []
    res = _result(report, "witness", problems)
    want = b.zcl(r)
    _expect(problems, "name", res.get("name"), b.name)
    _expect(problems, "r", res.get("r"), r)
    _expect(problems, "length", res.get("length"), want)
    if not isinstance(res.get("length"), int) or res["length"] > r * b.cl:
        problems.append(f"witness length {res.get('length')!r} exceeds r*cl = {r * b.cl}")
    _witness(res.get("witness"), r, want, problems)
    return problems


# -- tensor powers -------------------------------------------------------------------


@dataclass(frozen=True)
class TensorShape:
    labels: list
    degrees: list
    products: dict  # (left index, right index) -> (coeff, basis index)
    nonzero_pairs: int  # n: ordered base pairs with a nonzero product


def tensor_shape(b: Base, r: int) -> TensorShape:
    """The r-th tensor power of ``b`` built from its definition."""
    d = b.dim
    tuples = list(itertools.product(range(d), repeat=r))
    labels = ["⊗".join(b.labels[s] for s in t) for t in tuples]
    degrees = [sum(b.degrees[s] for s in t) for t in tuples]

    def index(t):
        idx = 0
        for s in t:
            idx = idx * d + s
        return idx

    slot_pairs = [(i, j, c, k) for (i, j), (c, k) in b.table.items()]
    products = {}
    for combo in itertools.product(slot_pairs, repeat=r):
        u = index(x[0] for x in combo)
        v = index(x[1] for x in combo)
        if degrees[u] == 0 or degrees[v] == 0 or u > v:
            continue
        coeff = 1
        odd_v = 0  # parity of sum_{s<t} |v_s| seen so far
        sign = 0
        for i, j, c, _ in combo:
            coeff *= c
            if b.degrees[i] & 1 and odd_v:
                sign ^= 1
            odd_v ^= b.degrees[j] & 1
        products[(u, v)] = (-coeff if sign else coeff, index(x[3] for x in combo))
    return TensorShape(labels, degrees, products, len(slot_pairs))


def expected_product_count(shape: TensorShape, d: int, r: int) -> int:
    return (shape.nonzero_pairs ** r - 2 * d ** r + 1) // 2


def check_tensor_report(report: dict, b: Base, r: int, out: str) -> list:
    problems = []
    res = _result(report, "tensor", problems)
    _expect(problems, "r", res.get("r"), r)
    _expect(problems, "dim", res.get("dim"), b.dim ** r)
    _expect(problems, "out", res.get("out"), out)
    return problems


def check_tensor_file(doc: dict, b: Base, r: int, shape: TensorShape) -> list:
    """Compare a written algebra file with the tensor power built from its definition."""
    problems = []
    want_field = {"kind": "prime", "p": b.p} if b.p else {"kind": "rational"}
    _expect(problems, "field", doc.get("field"), want_field)
    basis = doc.get("basis") or []
    _expect(problems, "basis size", len(basis), b.dim ** r)
    _expect(problems, "labels", [e.get("label") for e in basis], shape.labels)
    degrees = [e.get("degree") for e in basis]
    _expect(problems, "degrees", degrees, shape.degrees)
    _expect(problems, "degree-0 entries", degrees.count(0), 1)
    entries = doc.get("products") or []
    _expect(problems, "product entries", len(entries), expected_product_count(shape, b.dim, r))
    index = {lbl: i for i, lbl in enumerate(shape.labels)}
    got = {}
    for e in entries:
        try:
            (term,) = e["value"]
            coeff = Fraction(term["coeff"])
            key = (index[e["left"]], index[e["right"]])
            got[key] = (coeff % b.p if b.p else coeff, index[term["basis"]])
        except (KeyError, TypeError, ValueError):
            problems.append(f"malformed product entry {json.dumps(e)[:120]}")
            return problems
    want = {
        key: (Fraction(c) % b.p if b.p else Fraction(c), k)
        for key, (c, k) in shape.products.items()
    }
    if got != want:
        wrong = sorted(set(got.items()) ^ set(want.items()))[:3]
        problems.append(f"product table differs from the definition, e.g. {wrong}")
    return problems


def check_check(report: dict, b: Base, r: int, shape: TensorShape) -> list:
    problems = []
    res = _result(report, "check", problems)
    _expect(problems, "valid", res.get("valid"), True)
    _expect(problems, "dim", res.get("dim"), b.dim ** r)
    _expect(problems, "degrees", res.get("degrees"), shape.degrees)
    return problems
