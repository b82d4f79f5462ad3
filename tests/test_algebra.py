"""Presentation validation, element arithmetic, tensor powers, and the collapse map."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (
    GF2,
    GF3,
    QQ,
    add,
    associativity_failures,
    basis_element,
    contains,
    coords,
    decomposable_rows,
    decomposables_rank,
    element,
    element_from_labels,
    indecomposable_labels,
    index_of_tuple,
    kernel_mu,
    mu,
    multiply,
    neg,
    one_element,
    rref,
    scale,
    sub,
    tensor_basis_product,
    to_presentation,
    zero_divisor_reference,
)
from zclkit import (
    AlgebraPresentation,
    Field,
    TensorPowerAlgebra,
    Witness,
    builtin_algebra,
    tensor_product,
    validate_algebra,
    verify_witness,
    zcl_exact,
)
from zclkit.errors import ResourceLimitError, ValidationError
from zclkit.invariants import row_text, zero_divisor, zero_divisor_product
from zclkit.reader import parse_scalar


def _pres(name, field, basis, products=None):
    return AlgebraPresentation.from_labels(name, field, basis, products)


def exterior(field=QQ, deg=1, name="ext"):
    return validate_algebra(_pres(name, field, [("1", 0), ("a", deg)]))


def truncated(field=QQ, deg=2, height=3, name="trunc"):
    basis = [("1", 0)] + [(f"x{k}", k * deg) for k in range(1, height)]
    products = {
        (f"x{i}", f"x{j}"): {f"x{i+j}": 1}
        for i in range(1, height)
        for j in range(i, height)
        if i + j < height
    }
    return validate_algebra(_pres(name, field, basis, products))


# -- validation -----------------------------------------------------------------


def test_stanley_presentation_is_valid(stanley):
    assert stanley.dim == 4
    assert stanley.degrees == (0, 2, 3, 11)
    assert stanley.field == Field(3)


def test_one_element_algebra_is_valid():
    alg = validate_algebra(_pres("k", QQ, [("1", 0)]))
    assert alg.dim == 1
    assert alg.unit_index == 0


def test_inhomogeneous_product_rejected():
    with pytest.raises(ValidationError, match="degree"):
        validate_algebra(
            _pres(
                "bad",
                GF3,
                [("1", 0), ("a2", 2), ("a3", 3), ("a11", 11)],
                {("a2", "a2"): {"a3": 1}},
            )
        )


def test_unit_must_be_unique():
    with pytest.raises(ValidationError, match="degree-0"):
        validate_algebra(_pres("two-units", QQ, [("1", 0), ("e", 0)]))
    with pytest.raises(ValidationError, match="degree-0"):
        validate_algebra(_pres("no-unit", QQ, [("a", 1)]))


def test_duplicate_labels_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        validate_algebra(AlgebraPresentation("dup", QQ, (("1", 0), ("1", 2)), {}))
    # from_labels builds the presentation; validation refuses it, naming the label
    pres = AlgebraPresentation.from_labels("dup", QQ, [("1", 0), ("x", 2), ("x", 4)])
    with pytest.raises(ValidationError) as exc:
        validate_algebra(pres)
    assert str(exc.value) == "algebra 'dup': duplicate basis label 'x'"


@pytest.mark.parametrize(
    "products",
    [{("a", "zz"): {"a": 1}}, {("a", "a"): {"zz": 1}}],
    ids=["factor", "term"],
)
def test_unknown_labels_in_products_are_rejected(products):
    with pytest.raises(ValidationError, match="unknown label 'zz'"):
        _pres("unknown", QQ, [("1", 0), ("a", 2)], products)


def test_unit_products_must_be_implicit():
    with pytest.raises(ValidationError, match="implicit"):
        validate_algebra(
            _pres("unitprod", QQ, [("1", 0), ("a", 1)], {("1", "a"): {"a": 1}})
        )


def test_core_rows_are_range_checked_coerced_and_sorted():
    basis = (("1", 0), ("a", 2), ("b", 4), ("c", 4))
    with pytest.raises(ValidationError, match=r"product key \(1, 4\) out of range"):
        validate_algebra(AlgebraPresentation("range", QQ, basis, {(1, 4): {2: 1}}))
    with pytest.raises(ValidationError, match="term index 4 out of range"):
        validate_algebra(AlgebraPresentation("range", QQ, basis, {(1, 1): {4: 1}}))
    # a row's zeros are dropped and its terms sorted by index
    alg = validate_algebra(AlgebraPresentation("rows", GF3, basis, {(1, 1): {3: 4, 2: 3}}))
    assert alg.basis_product(1, 1) == {3: 1}
    alg = validate_algebra(AlgebraPresentation("rows", GF3, basis, {(1, 1): {3: -1, 2: 1}}))
    assert list(alg.basis_product(1, 1).items()) == [(2, 1), (3, 2)]
    # an empty row is no product, in the file form too
    pres = AlgebraPresentation("rows", QQ, basis, {(1, 1): {}})
    assert pres.to_dict()["products"] == [] and validate_algebra(pres)._core == {}


def test_products_keyed_by_lower_index_first():
    pres = AlgebraPresentation(
        "swapped", QQ, (("1", 0), ("a", 1), ("b", 1), ("c", 2)), {(2, 1): {3: 1}}
    )
    with pytest.raises(ValidationError, match="lower basis index"):
        validate_algebra(pres)


def test_odd_square_must_vanish_outside_char_two():
    bad = _pres("oddsq", QQ, [("1", 0), ("a", 1), ("b", 2)], {("a", "a"): {"b": 1}})
    with pytest.raises(ValidationError, match="odd degree"):
        validate_algebra(bad)
    # same table is fine over F2
    ok = _pres("oddsq2", GF2, [("1", 0), ("a", 1), ("b", 2)], {("a", "a"): {"b": 1}})
    alg = validate_algebra(ok)
    a = element_from_labels(alg, {"a": 1})
    assert multiply(alg, a, a) == element_from_labels(alg, {"b": 1})


def test_associativity_violation_reported():
    # (x*x)*y = y*y = u but x*(x*y) = 0
    bad = _pres(
        "nonassoc",
        QQ,
        [("1", 0), ("x", 2), ("y", 4), ("u", 8)],
        {("x", "x"): {"y": 1}, ("y", "y"): {"u": 1}},
    )
    with pytest.raises(ValidationError, match=r"associativity fails on \(x, x, y\)"):
        validate_algebra(bad)


def test_mirrored_associativity_violation_reported():
    # (x*x)*y = 0 but x*(x*y) = x*z = u: only the right side is nonzero
    bad = _pres(
        "nonassoc-mirror",
        QQ,
        [("1", 0), ("x", 2), ("y", 4), ("z", 6), ("u", 8)],
        {("x", "y"): {"z": 1}, ("x", "z"): {"u": 1}},
    )
    with pytest.raises(ValidationError, match=r"associativity fails on \(x, x, y\)"):
        validate_algebra(bad)


def _perturbed(pres, rng, edits):
    """A seeded copy of a table with ``edits`` edits, each drawn at random.

    An edit changes a coefficient, drops a term, or adds a term of the right
    degree.  A drawn edit that does not apply is left out, and so is an
    added odd-degree square outside characteristic 2: homogeneity and the
    odd-square rule keep holding, so only associativity can reject the copy.
    """
    field = pres.field
    degrees = [deg for _, deg in pres.basis]
    pos = [i for i, deg in enumerate(degrees) if deg]
    products = {key: dict(row) for key, row in pres.products.items()}
    for _ in range(edits):
        kind = rng.choice(["change", "drop", "add"])
        entries = sorted(key for key, row in products.items() if row)
        if kind in ("change", "drop") and entries:
            key = rng.choice(entries)
            k = rng.choice(list(products[key]))
            if kind == "drop":
                del products[key][k]
            else:
                products[key][k] = field.add(products[key][k], field.coerce(rng.choice([1, 2, -1])))
        elif kind == "add" and pos:
            i, j = sorted((rng.choice(pos), rng.choice(pos)))
            targets = [k for k, deg in enumerate(degrees) if deg == degrees[i] + degrees[j]]
            if targets and not (i == j and degrees[i] & 1 and field.characteristic != 2):
                row = products.setdefault((i, j), {})
                k = rng.choice(targets)
                row[k] = field.add(row.get(k, field.zero), field.one)
    return AlgebraPresentation(pres.name, field, pres.basis, products)


def test_associativity_check_agrees_with_the_brute_force_oracle(corpus):
    rng = random.Random(20251018)
    tables = [to_presentation(alg) for alg in corpus]
    # Few edits of a table of dim 5 or less break associativity; the tensor
    # squares of the smallest corpus algebras leave more room for it.
    squares = [to_presentation(alg.tensor_power(2)) for alg in corpus if alg.dim <= 3]
    cases = tables + [
        _perturbed(pres, rng, rng.randint(1, 3))
        for pres, count in [(p, 2) for p in tables] + [(p, 15) for p in squares]
        for _ in range(count)
    ]
    rejected = 0
    for pres in cases:
        failures = associativity_failures(pres)
        try:
            validate_algebra(pres)
        except ValidationError as exc:
            assert failures, str(exc)
            i, j, k = failures[0]
            assert str(exc).endswith(f"associativity fails on ({i}, {j}, {k})")
            # the check orients each triple with its first index at most its last
            labels = [lbl for lbl, _ in pres.basis]
            assert labels.index(i) <= labels.index(k), (pres.name, i, j, k)
            # only indecomposable middles are compared
            assert j in indecomposable_labels(pres), (pres.name, j)
            rejected += 1
        else:
            assert not failures, (pres.name, failures[:3])
    assert rejected >= 50


def test_indecomposables_span_q_of_a(corpus):
    # the letters of cup_length, zcl_exact and validation are a basis of A+ modulo (A+)^2
    squares = [alg.tensor_power(2) for alg in corpus if alg.dim <= 3]
    for alg in corpus + squares:
        pres = to_presentation(alg)
        letters = alg.indecomposables()
        positive = alg.dim - 1
        assert len(letters) == positive - decomposables_rank(pres), alg.name
        units = [[int(n == i) for n in range(alg.dim)] for i in letters]
        assert rref(alg.field, decomposable_rows(pres) + units, alg.dim)[1] == positive, alg.name
        assert [alg.label_of(i) for i in letters] == indecomposable_labels(pres), alg.name


def test_zero_coefficients_are_dropped():
    alg = validate_algebra(
        _pres("dropzero", GF3, [("1", 0), ("a", 1), ("b", 2)], {("a", "a"): {"b": 3}})
    )
    a = element_from_labels(alg, {"a": 1})
    assert not multiply(alg, a, a)


# -- multiplication ----------------------------------------------------------------


def test_unit_law(stanley):
    one = one_element(stanley)
    for i in range(stanley.dim):
        e = basis_element(stanley, i)
        assert multiply(stanley, one, e) == e
        assert multiply(stanley, e, one) == e


def test_stanley_generators_annihilate(stanley):
    a2 = element_from_labels(stanley, {"a2": 1})
    a3 = element_from_labels(stanley, {"a3": 1})
    assert not multiply(stanley, a2, a3)
    assert not multiply(stanley, a2, a2)


def test_odd_generator_squares_to_zero_over_q():
    alg = exterior()
    a = element_from_labels(alg, {"a": 1})
    assert not multiply(alg, a, a)


def test_graded_commutativity_signs():
    alg = validate_algebra(
        _pres("two-odds", QQ, [("1", 0), ("a", 1), ("b", 1), ("c", 2)], {("a", "b"): {"c": 1}})
    )
    a = element_from_labels(alg, {"a": 1})
    b = element_from_labels(alg, {"b": 1})
    c = element_from_labels(alg, {"c": 1})
    assert multiply(alg, a, b) == c
    assert multiply(alg, b, a) == neg(alg, c)


def test_element_mismatch_rejected(stanley):
    # a row names no algebra: the collapse map and the witness checker range-check
    # its indices against the algebra the caller names
    cube, w = stanley.tensor_power(3), zcl_exact(stanley, 2).witness
    with pytest.raises(ValidationError, match="does not lie in the r-th tensor power"):
        mu(stanley, 2, basis_element(cube, cube.dim - 1))
    y = basis_element(cube, cube.dim - 1)
    report = verify_witness(stanley, Witness(3, w.seed, w.product, 2, (y,)))
    assert report.problems == ("a chain element is not a row of the base",)


def test_scalar_action(stanley):
    a2 = element_from_labels(stanley, {"a2": 1})
    assert scale(stanley, a2, 2) == add(stanley, a2, a2)
    assert not scale(stanley, a2, 3)


# -- tensor powers -------------------------------------------------------------------


def test_tensor_power_r1_is_the_algebra(stanley):
    assert stanley.tensor_power(1) is stanley


def test_tensor_power_requires_positive_r(stanley):
    with pytest.raises(ValidationError):
        stanley.tensor_power(0)


def test_tensor_power_ceiling(stanley):
    with pytest.raises(ResourceLimitError):
        stanley.tensor_power(7)  # 4^7 = 16384 > 4096
    big = stanley.tensor_power(7, max_dim=None)
    assert big.dim == 4 ** 7


def test_tensor_power_dimensions(stanley):
    for r in (2, 3):
        assert stanley.tensor_power(r).dim == 4 ** r


def test_koszul_signs_on_odd_generator():
    alg = exterior()
    sq = alg.tensor_power(2)
    a1 = element_from_labels(sq, {"a⊗1": 1})
    one_a = element_from_labels(sq, {"1⊗a": 1})
    aa = element_from_labels(sq, {"a⊗a": 1})
    assert multiply(sq, one_a, a1) == neg(sq, aa)
    assert multiply(sq, a1, one_a) == aa


def test_stanley_difference_square(stanley):
    sq = stanley.tensor_power(2)
    x = element_from_labels(sq, {"a2⊗1": 1, "1⊗a2": -1})
    target = element_from_labels(sq, {"a2⊗a2": -2})
    assert multiply(sq, x, x) == target  # -2 = 1 mod 3
    assert coords(sq, multiply(sq, x, x))[5] == 1


def test_difference_square_over_rationals():
    alg = validate_algebra(_pres("even-sphere", QQ, [("1", 0), ("a", 2)]))
    sq = alg.tensor_power(2)
    x = element_from_labels(sq, {"a⊗1": 1, "1⊗a": -1})
    assert multiply(sq, x, x) == element_from_labels(sq, {"a⊗a": -2})


def test_tuple_index_round_trip(stanley):
    cube = stanley.tensor_power(3)
    for idx in range(cube.dim):
        t = cube.tuple_of_index(idx)
        assert index_of_tuple(cube, t) == idx
    assert cube.label_of(index_of_tuple(cube, (1, 0, 2))) == "a2⊗1⊗a3"


def test_slots_and_labels_follow_the_order_of_the_slot_tuples(builtin_corpus):
    # index n of A^(x r) is the n-th slot tuple in the order itertools.product lists
    # them, slot 1 most significant: on every builtin power within 4096 dimensions
    enumerated = 0
    for alg in builtin_corpus:
        for r in itertools.takewhile(lambda r: alg.dim ** r <= 4096, range(2, 13)):
            power = alg.tensor_power(r)
            tuples = itertools.product(range(alg.dim), repeat=r)
            for idx, slots in enumerate(tuples):
                assert power.tuple_of_index(idx) == slots, (alg.name, r, idx)
                assert power.label_of(idx) == "⊗".join(map(alg.label_of, slots))
            assert power.tuple_of_index(power.unit_index) == (alg.unit_index,) * r
            enumerated += power.dim
    assert enumerated > 20_000
    # past enumeration, tuple_of_index and index_of_tuple still invert each other
    rng = random.Random(31)
    for name, r in (("stanley-p3", 9), ("surface:1", 7), ("sphere-odd:1", 40)):
        alg = builtin_algebra(name)
        power = alg.tensor_power(r, max_dim=None)
        indices = [0, power.unit_index, power.dim - 1]
        for idx in indices + [rng.randrange(power.dim) for _ in range(300)]:
            assert index_of_tuple(power, power.tuple_of_index(idx)) == idx, (name, r, idx)


def test_tensor_power_output_validates(random_corpus):
    rng = random.Random(5)
    small = [a for a in random_corpus if 1 < a.dim <= 4][:6]
    for alg in small:
        for r in (2, 3):
            power = alg.tensor_power(r, max_dim=None)
            revalidated = validate_algebra(to_presentation(power))
            assert revalidated.dim == power.dim
            # spot-check some products agree after the round trip
            for _ in range(20):
                i = rng.randrange(power.dim)
                j = rng.randrange(power.dim)
                assert revalidated.basis_product(i, j) == power.basis_product(i, j)


def test_to_presentation_leaves_the_pair_cache_empty(corpus):
    # a scan of every positive pair must not keep them all, zeros included
    for alg in [a for a in corpus if 1 < a.dim <= 4][:6]:
        cube = TensorPowerAlgebra(alg, 3)
        pres = to_presentation(cube)
        assert cube._pair_cache == {}, alg.name
        pos = [i for i in range(cube.dim) if cube.degree_of(i) > 0]
        expected = {
            (i, j): cube.basis_product(i, j)
            for i in pos
            for j in pos
            if i <= j and cube.basis_product(i, j)
        }
        assert pres.products == expected, alg.name


def test_power_signs_match_iterated_binary_products(random_corpus):
    # A^(x3) with the closed r-factor sign must equal A x (A x A) slot by slot;
    # the lexicographic layouts give the same index arithmetic on both sides.
    small = [a for a in random_corpus if 1 < a.dim <= 3][:4]
    for alg in small:
        cube = alg.tensor_power(3, max_dim=None)
        nested = tensor_product(alg, tensor_product(alg, alg, max_dim=None), max_dim=None)
        assert nested.dim == cube.dim
        for i in range(cube.dim):
            for j in range(cube.dim):
                assert nested.basis_product(i, j) == cube.basis_product(i, j), (
                    alg.name,
                    i,
                    j,
                )


def test_tensor_signs_match_a_swap_counting_reference(corpus):
    # every product of A^(x3) and of A x B against signs counted swap by swap
    small = [a for a in corpus if 1 < a.dim <= 4][:8]
    cases = [(a.tensor_power(3, max_dim=None), (a,) * 3) for a in small]
    cases += [
        (tensor_product(a, b), (a, b)) for a in small for b in small if a.field == b.field
    ]
    for alg, slots in cases:
        for i in range(alg.dim):
            for j in range(alg.dim):
                terms = alg.basis_product(i, j)
                assert list(terms) == sorted(terms)
                assert terms == tensor_basis_product(slots, i, j), (alg.name, i, j)
    assert any(d % 2 for a in small for d in a.degrees)  # odd slots: signs occur
    ext = exterior()
    assert tensor_basis_product((ext, ext), 1, 2) == {3: QQ.coerce(-1)}  # (1x a)(a x1)


def test_zero_divisor_product_matches_two_references(corpus):
    # the slot rule against the pair table and against signs counted swap by swap,
    # on homogeneous u: the rule reads its signs from the degree of u
    rng = random.Random(20261018)
    fields, odd_letters, checked = set(), 0, 0
    for alg in corpus:
        field, one = alg.field, alg.field.one
        scalars = [c for c in map(field.coerce, (1, -1, 2, 3)) if c]
        if field.p is None:
            scalars.append(parse_scalar(field, "1/2"))
        for r in range(2, 5):
            if alg.dim ** r > 256:
                break
            power, slots = alg.tensor_power(r, max_dim=None), (alg,) * r
            by_degree = {}
            for i in range(power.dim):
                by_degree.setdefault(power.degree_of(i), []).append(i)
            for _ in range(3):
                part = by_degree[rng.choice(sorted(by_degree))]
                support = rng.sample(part, min(len(part), rng.randint(1, 8)))
                u = {i: rng.choice(scalars) for i in support}
                for b in (b for b in range(alg.dim) if alg.degree_of(b) > 0):
                    y = {b: rng.choice(scalars)}
                    for s in range(2, r + 1):
                        got = zero_divisor_product(power, u, y, s)
                        z = zero_divisor_reference(power, y, s)
                        assert zero_divisor(power, y, s) == z, (alg.name, r, b, s)
                        assert got == power.product_items(u.items(), z.items()), (alg.name, r, b, s)
                        expected = {}
                        for i, a in u.items():
                            for j, c in z.items():
                                for k, v in tensor_basis_product(slots, i, j).items():
                                    term = field.mul(field.mul(a, c), v)
                                    expected[k] = field.add(expected.get(k, field.zero), term)
                        assert got == {k: v for k, v in expected.items() if v}, (alg.name, r, b, s)
                        odd_letters += alg.degree_of(b) % 2
                        checked += 1
            fields.add(str(field))
    assert {"F2", "F3", "Q"} <= fields
    assert odd_letters > 1000 and checked > 4000


def test_deep_tensor_power_matches_swap_counting():
    # past 256 dimensions a pair's signs still follow the slots, and the slot rule
    # agrees with the pair table
    rng = random.Random(7)
    ext, mixed = exterior(), tensor_product(exterior(deg=1), exterior(deg=2, name="b"))
    for alg, r in ((ext, 17), (mixed, 9), (builtin_algebra("surface:1"), 9)):
        power, slots = alg.tensor_power(r, max_dim=None), (alg,) * r
        unit = alg.unit_index
        nonzero = 0
        for _ in range(300):
            i = rng.randrange(power.dim)
            tv = [rng.randrange(alg.dim) if rng.random() < 0.3 else unit for _ in range(r)]
            j = index_of_tuple(power, tv)
            terms = power.basis_product(i, j)
            assert terms == tensor_basis_product(slots, i, j), (alg.name, i, j)
            nonzero += bool(terms)
        assert nonzero > 30, alg.name
        # the slot rule reads the degrees of more slots than one degree table holds;
        # u is homogeneous, its terms the reorderings of one random tuple
        t = list(power.tuple_of_index(rng.randrange(power.dim)))
        u = {}
        for _ in range(20):
            rng.shuffle(t)
            u[index_of_tuple(power, t)] = alg.field.one
        for b in (b for b in range(alg.dim) if alg.degree_of(b) > 0):
            for s in (2, r // 2, r):
                z = zero_divisor_reference(power, {b: alg.field.one}, s)
                expected = power.product_items(u.items(), z.items())
                assert zero_divisor_product(power, u, {b: alg.field.one}, s) == expected


def test_deep_tensor_power_degrees_sum_the_slots():
    # degree_of reads the degree tables of the index's low slots, width slots at a time
    rng = random.Random(11)
    ext, mixed = exterior(), tensor_product(exterior(deg=1), exterior(deg=2, name="b"))
    for alg, r in ((ext, 17), (mixed, 9), (builtin_algebra("surface:1"), 9)):
        power = alg.tensor_power(r, max_dim=None)
        for i in [0, power.dim - 1] + [rng.randrange(power.dim) for _ in range(300)]:
            expected = sum(alg.degree_of(s) for s in power.tuple_of_index(i))
            assert power.degree_of(i) == expected, (alg.name, i)


# -- the collapse map ------------------------------------------------------------------


def test_mu_unit_factors(stanley):
    cube = stanley.tensor_power(3)
    u = element_from_labels(cube, {"a2⊗1⊗1": 1})
    assert mu(stanley, 3, u) == element_from_labels(stanley, {"a2": 1})


def test_mu_kills_differences(stanley):
    sq = stanley.tensor_power(2)
    x = element_from_labels(sq, {"a2⊗1": 1, "1⊗a2": -1})
    assert not mu(stanley, 2, x)


def test_mu_of_pure_tensor_is_table_product(stanley):
    sq = stanley.tensor_power(2)
    u = element_from_labels(sq, {"a2⊗a2": 1})
    assert not mu(stanley, 2, u)  # a2 squared vanishes


def test_mu_layout_mismatch(stanley):
    cube = stanley.tensor_power(3)
    with pytest.raises(ValidationError):
        mu(stanley, 2, basis_element(cube, 16))  # past the square's last index, 15


def test_mu_at_r_one_is_the_identity(stanley):
    u = element_from_labels(stanley, {"a2": 1, "a11": 2})
    assert mu(stanley, 1, u) == u
    with pytest.raises(ValidationError, match="mu requires r >= 1"):
        mu(stanley, 0, u)


def test_mu_is_an_algebra_homomorphism(random_corpus):
    rng = random.Random(23)
    small = [a for a in random_corpus if a.dim <= 4][:8]
    for alg in small:
        power = alg.tensor_power(2, max_dim=None)
        for _ in range(10):
            u = element(power, [rng.randint(-2, 2) for _ in range(power.dim)])
            v = element(power, [rng.randint(-2, 2) for _ in range(power.dim)])
            assert mu(alg, 2, multiply(power, u, v)) == multiply(alg, mu(alg, 2, u), mu(alg, 2, v))


# -- sparse elements against a dense reference --------------------------------------


def _dense_mul(alg, u, v):
    """Coordinate lists multiplied through the completed table, one pair at a time."""
    f = alg.field
    out = [f.zero] * alg.dim
    for i, a in enumerate(u):
        if not a:
            continue
        for j, b in enumerate(v):
            if not b:
                continue
            for k, c in alg.basis_product(i, j).items():
                out[k] = f.add(out[k], f.mul(f.mul(a, b), c))
    return out


def _dense_mu(power, u):
    """Each basis tuple collapsed as the dense product of its slots."""
    base = power.base
    f = base.field

    def unit_vector(k):
        return [f.one if n == k else f.zero for n in range(base.dim)]

    out = [f.zero] * base.dim
    for idx, c in enumerate(u):
        if not c:
            continue
        slots = power.tuple_of_index(idx)
        image = unit_vector(slots[0])
        for s in slots[1:]:
            image = _dense_mul(base, image, unit_vector(s))
        out = [f.add(o, f.mul(c, x)) for o, x in zip(out, image)]
    return out


@pytest.fixture(scope="session")
def small_powers(corpus):
    """(algebra, r) for every corpus algebra and every r >= 1 with dim**r <= 81."""
    return [(alg, r) for alg in corpus for r in range(1, 7) if alg.dim ** r <= 81]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sparse_elements_match_a_dense_reference(small_powers, data):
    alg, r = data.draw(st.sampled_from(small_powers))
    power = alg.tensor_power(r, max_dim=81)
    f = power.field
    coeffs = st.lists(
        st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=power.dim, max_size=power.dim
    )
    u = [f.coerce(x) for x in data.draw(coeffs)]
    v = [f.coerce(x) for x in data.draw(coeffs)]
    c = f.coerce(data.draw(st.integers(-2, 2)))
    x, y = element(power, u), element(power, v)

    assert coords(power, x) == tuple(u)
    assert sorted(x.items()) == [(i, a) for i, a in enumerate(u) if a]
    assert (x == y) == (u == v)
    assert x == element(power, u)
    expected = {
        "add": (add(power, x, y), [f.add(a, b) for a, b in zip(u, v)]),
        "sub": (sub(power, x, y), [f.sub(a, b) for a, b in zip(u, v)]),
        "neg": (neg(power, x), [f.neg(a) for a in u]),
        "scale": (scale(power, x, c), [f.mul(c, a) for a in u]),
        "zero scale": (scale(power, x, 0), [f.zero] * power.dim),
        "mul": (multiply(power, x, y), _dense_mul(power, u, v)),
        "self sub": (sub(power, x, x), [f.zero] * power.dim),
    }
    for op, (got, want) in expected.items():
        assert coords(power, got) == tuple(want), op
        assert sorted(got.items()) == [(i, a) for i, a in enumerate(want) if a], op
        assert all(got.values()), f"{op} kept a zero term"
    assert row_text(power, x) == (
        " + ".join(f"{a}·{power.label_of(i)}" for i, a in enumerate(u) if a) or "0"
    )
    if r > 1:
        image = mu(alg, r, x)
        assert coords(alg, image) == tuple(_dense_mu(power, u))
        assert all(image.values())


def test_degree_additivity(corpus):
    for alg in corpus[:20]:
        for i in range(alg.dim):
            for j in range(alg.dim):
                prod = multiply(alg, basis_element(alg, i), basis_element(alg, j))
                degrees = {alg.degree_of(k) for k in prod}
                assert degrees <= {alg.degree_of(i) + alg.degree_of(j)}


def test_kernel_mu_dimension(stanley):
    assert kernel_mu(stanley, 2).dim == 16 - 4


def test_kernel_mu_exterior():
    alg = exterior()
    ker = kernel_mu(alg, 2)
    assert ker.dim == 2
    sq = alg.tensor_power(2)
    x = element_from_labels(sq, {"a⊗1": 1, "1⊗a": -1})
    assert contains(ker, coords(sq, x))


def test_difference_always_in_kernel(corpus):
    for alg in corpus[:15]:
        if alg.dim < 2:
            continue
        sq = alg.tensor_power(2, max_dim=None)
        ker = kernel_mu(alg, 2, max_dim=None)
        unit = alg.unit_index
        for i in range(alg.dim):
            if alg.degree_of(i) == 0:
                continue
            x = [alg.field.zero] * sq.dim
            x[index_of_tuple(sq, (i, unit))] = alg.field.one
            x[index_of_tuple(sq, (unit, i))] = alg.field.neg(alg.field.one)
            assert contains(ker, tuple(x))


def test_kernel_mu_requires_r_at_least_two(stanley):
    with pytest.raises(ValidationError):
        kernel_mu(stanley, 1)


# -- binary tensor product ---------------------------------------------------------------


def test_tensor_product_of_odd_lines_is_torus_like():
    left = exterior(name="L")
    right = exterior(name="R")
    prod = tensor_product(left, right)
    assert prod.dim == 4
    a = element_from_labels(prod, {"a⊗1": 1})
    b = element_from_labels(prod, {"1⊗a": 1})
    ab = multiply(prod, a, b)
    assert ab
    assert multiply(prod, b, a) == neg(prod, ab)
    revalidated = validate_algebra(to_presentation(prod))
    assert revalidated.dim == 4


def test_tensor_product_needs_common_field():
    with pytest.raises(ValidationError):
        tensor_product(exterior(QQ), exterior(GF3, name="ext3"))


def test_tensor_product_refuses_past_the_ceiling_in_the_common_words(stanley):
    message = "tensor product dim 16 exceeds the ceiling 8; raise the ceiling to opt in"
    with pytest.raises(ResourceLimitError) as exc:
        tensor_product(stanley, stanley, max_dim=8)
    assert str(exc.value) == message
    assert tensor_product(stanley, stanley, max_dim=16).dim == 16


def test_tensor_product_refuses_labels_that_collide():
    # slot labels are joined with ⊗, so "1" then "1⊗1" and "1⊗1" then "1" are one label
    clash = validate_algebra(AlgebraPresentation("clash", QQ, (("1", 0), ("1⊗1", 2)), {}))
    with pytest.raises(ValidationError) as exc:
        tensor_product(clash, clash)
    assert str(exc.value) == "algebra 'clash⊗clash': duplicate basis label '1⊗1⊗1'"
