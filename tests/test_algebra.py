"""Presentation validation, element arithmetic, tensor powers, and the collapse map."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import associativity_failures, contains, coords, kernel_mu
from zclkit import (
    AlgebraPresentation,
    Element,
    Field,
    TensorPowerAlgebra,
    builtin_algebra,
    mu,
    tensor_product,
    validate_algebra,
)
from zclkit.errors import ResourceLimitError, ValidationError
from zclkit.fields import GF2, GF3, QQ


def _pres(name, field, basis, products=None):
    return AlgebraPresentation.from_labels(name, field, basis, products)


def exterior(field=QQ, deg=1, name="ext"):
    return validate_algebra(_pres(name, field, [("1", 0), ("a", deg)]))


def truncated(field=QQ, deg=2, height=3, name="trunc"):
    basis = [("1", 0)] + [(f"x{k}", k * deg) for k in range(1, height)]
    products = {
        (f"x{i}", f"x{j}"): [(1, f"x{i+j}")]
        for i in range(1, height)
        for j in range(i, height)
        if i + j < height
    }
    return validate_algebra(_pres(name, field, basis, products))


# -- validation -----------------------------------------------------------------


def test_stanley_presentation_is_valid(stanley):
    assert stanley.dim == 4
    assert stanley.degrees == (0, 2, 3, 11)
    assert stanley.field == Field.prime(3)


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
                {("a2", "a2"): [(1, "a3")]},
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


def test_unit_products_must_be_implicit():
    with pytest.raises(ValidationError, match="implicit"):
        validate_algebra(
            _pres("unitprod", QQ, [("1", 0), ("a", 1)], {("1", "a"): [(1, "a")]})
        )


def test_products_keyed_by_lower_index_first():
    pres = AlgebraPresentation(
        "swapped", QQ, (("1", 0), ("a", 1), ("b", 1), ("c", 2)), {(2, 1): ((1, 3),)}
    )
    with pytest.raises(ValidationError, match="lower basis index"):
        validate_algebra(pres)


def test_odd_square_must_vanish_outside_char_two():
    bad = _pres("oddsq", QQ, [("1", 0), ("a", 1), ("b", 2)], {("a", "a"): [(1, "b")]})
    with pytest.raises(ValidationError, match="odd degree"):
        validate_algebra(bad)
    # same table is fine over F2
    ok = _pres("oddsq2", GF2, [("1", 0), ("a", 1), ("b", 2)], {("a", "a"): [(1, "b")]})
    alg = validate_algebra(ok)
    a = alg.element_from_labels({"a": 1})
    assert (a * a) == alg.element_from_labels({"b": 1})


def test_associativity_violation_reported():
    # (x*x)*y = y*y = u but x*(x*y) = 0
    bad = _pres(
        "nonassoc",
        QQ,
        [("1", 0), ("x", 2), ("y", 4), ("u", 8)],
        {("x", "x"): [(1, "y")], ("y", "y"): [(1, "u")]},
    )
    with pytest.raises(ValidationError, match=r"associativity fails on \(x, x, y\)"):
        validate_algebra(bad)


def test_mirrored_associativity_violation_reported():
    # (x*x)*y = 0 but x*(x*y) = x*z = u: only the right side is nonzero
    bad = _pres(
        "nonassoc-mirror",
        QQ,
        [("1", 0), ("x", 2), ("y", 4), ("z", 6), ("u", 8)],
        {("x", "y"): [(1, "z")], ("x", "z"): [(1, "u")]},
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
    products = {key: list(terms) for key, terms in pres.products.items()}
    for _ in range(edits):
        kind = rng.choice(["change", "drop", "add"])
        entries = sorted(key for key, terms in products.items() if terms)
        if kind in ("change", "drop") and entries:
            key = rng.choice(entries)
            n = rng.randrange(len(products[key]))
            if kind == "drop":
                del products[key][n]
            else:
                c, k = products[key][n]
                products[key][n] = (field.add(c, field.coerce(rng.choice([1, 2, -1]))), k)
        elif kind == "add" and pos:
            i, j = sorted((rng.choice(pos), rng.choice(pos)))
            targets = [k for k, deg in enumerate(degrees) if deg == degrees[i] + degrees[j]]
            if targets and not (i == j and degrees[i] & 1 and field.characteristic != 2):
                products.setdefault((i, j), []).append((field.one, rng.choice(targets)))
    return AlgebraPresentation(pres.name, field, pres.basis, products)


def test_associativity_check_agrees_with_the_brute_force_oracle(corpus):
    rng = random.Random(20251018)
    tables = [alg.to_presentation() for alg in corpus]
    # Few edits of a table of dim 5 or less break associativity; the tensor
    # squares of the smallest corpus algebras leave more room for it.
    squares = [alg.tensor_power(2).to_presentation() for alg in corpus if alg.dim <= 3]
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
            rejected += 1
        else:
            assert not failures, (pres.name, failures[:3])
    assert rejected >= 50


def test_zero_coefficients_are_dropped():
    alg = validate_algebra(
        _pres("dropzero", GF3, [("1", 0), ("a", 1), ("b", 2)], {("a", "a"): [(3, "b")]})
    )
    a = alg.element_from_labels({"a": 1})
    assert (a * a).is_zero


# -- multiplication ----------------------------------------------------------------


def test_unit_law(stanley):
    one = stanley.one_element()
    for i in range(stanley.dim):
        e = stanley.basis_element(i)
        assert one * e == e
        assert e * one == e


def test_stanley_generators_annihilate(stanley):
    a2 = stanley.element_from_labels({"a2": 1})
    a3 = stanley.element_from_labels({"a3": 1})
    assert (a2 * a3).is_zero
    assert (a2 * a2).is_zero


def test_odd_generator_squares_to_zero_over_q():
    alg = exterior()
    a = alg.element_from_labels({"a": 1})
    assert (a * a).is_zero


def test_graded_commutativity_signs():
    alg = validate_algebra(
        _pres("two-odds", QQ, [("1", 0), ("a", 1), ("b", 1), ("c", 2)], {("a", "b"): [(1, "c")]})
    )
    a = alg.element_from_labels({"a": 1})
    b = alg.element_from_labels({"b": 1})
    c = alg.element_from_labels({"c": 1})
    assert a * b == c
    assert b * a == -c


def test_element_mismatch_rejected(stanley):
    other = exterior()
    with pytest.raises(ValidationError):
        stanley.one_element() * other.one_element()


def test_scalar_action(stanley):
    a2 = stanley.element_from_labels({"a2": 1})
    assert 2 * a2 == a2 + a2
    assert (3 * a2).is_zero


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
    a1 = sq.element_from_labels({"a⊗1": 1})
    one_a = sq.element_from_labels({"1⊗a": 1})
    aa = sq.element_from_labels({"a⊗a": 1})
    assert one_a * a1 == -aa
    assert a1 * one_a == aa


def test_stanley_difference_square(stanley):
    sq = stanley.tensor_power(2)
    x = sq.element_from_labels({"a2⊗1": 1, "1⊗a2": -1})
    target = sq.element_from_labels({"a2⊗a2": -2})
    assert x * x == target  # -2 = 1 mod 3
    assert coords(x * x)[5] == 1


def test_difference_square_over_rationals():
    alg = validate_algebra(_pres("even-sphere", QQ, [("1", 0), ("a", 2)]))
    sq = alg.tensor_power(2)
    x = sq.element_from_labels({"a⊗1": 1, "1⊗a": -1})
    assert x * x == sq.element_from_labels({"a⊗a": -2})


def test_tuple_index_round_trip(stanley):
    cube = stanley.tensor_power(3)
    for idx in range(cube.dim):
        t = cube.tuple_of_index(idx)
        assert cube.index_of_tuple(t) == idx
    assert cube.label_of(cube.index_of_tuple((1, 0, 2))) == "a2⊗1⊗a3"


def test_tensor_power_output_validates(random_corpus):
    rng = random.Random(5)
    small = [a for a in random_corpus if 1 < a.dim <= 4][:6]
    for alg in small:
        for r in (2, 3):
            power = alg.tensor_power(r, max_dim=None)
            revalidated = validate_algebra(power.to_presentation())
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
        pres = cube.to_presentation()
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


# -- the collapse map ------------------------------------------------------------------


def test_mu_unit_factors(stanley):
    cube = stanley.tensor_power(3)
    u = cube.element_from_labels({"a2⊗1⊗1": 1})
    assert mu(stanley, 3, u) == stanley.element_from_labels({"a2": 1})


def test_mu_kills_differences(stanley):
    sq = stanley.tensor_power(2)
    x = sq.element_from_labels({"a2⊗1": 1, "1⊗a2": -1})
    assert mu(stanley, 2, x).is_zero


def test_mu_of_pure_tensor_is_table_product(stanley):
    sq = stanley.tensor_power(2)
    u = sq.element_from_labels({"a2⊗a2": 1})
    assert mu(stanley, 2, u).is_zero  # a2 squared vanishes


def test_mu_layout_mismatch(stanley):
    sq = stanley.tensor_power(2)
    with pytest.raises(ValidationError):
        mu(stanley, 3, sq.one_element())


def test_mu_is_an_algebra_homomorphism(random_corpus):
    rng = random.Random(23)
    small = [a for a in random_corpus if a.dim <= 4][:8]
    for alg in small:
        power = alg.tensor_power(2, max_dim=None)
        for _ in range(10):
            u = power.element([rng.randint(-2, 2) for _ in range(power.dim)])
            v = power.element([rng.randint(-2, 2) for _ in range(power.dim)])
            assert mu(alg, 2, u * v) == mu(alg, 2, u) * mu(alg, 2, v)


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
            for c, k in alg.basis_product(i, j):
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
    x, y = power.element(u), power.element(v)

    assert coords(x) == tuple(u)
    assert x.items() == [(i, a) for i, a in enumerate(u) if a]
    assert x.is_zero == (not any(u))
    assert (x == y) == (u == v)
    assert x == power.element(u)
    expected = {
        "add": (x + y, [f.add(a, b) for a, b in zip(u, v)]),
        "sub": (x - y, [f.sub(a, b) for a, b in zip(u, v)]),
        "neg": (-x, [f.neg(a) for a in u]),
        "scale": (x.scale(c), [f.mul(c, a) for a in u]),
        "rscale": (c * x, [f.mul(c, a) for a in u]),
        "zero scale": (x.scale(0), [f.zero] * power.dim),
        "mul": (x * y, _dense_mul(power, u, v)),
        "self sub": (x - x, [f.zero] * power.dim),
    }
    for op, (got, want) in expected.items():
        assert coords(got) == tuple(want), op
        assert got.items() == [(i, a) for i, a in enumerate(want) if a], op
        assert all(got.terms.values()), f"{op} kept a zero term"
        assert got.is_zero == (not any(want)), op
    assert str(x) == (
        " + ".join(f"{f.format(a)}·{power.label_of(i)}" for i, a in enumerate(u) if a) or "0"
    )
    if r > 1:
        image = mu(alg, r, x)
        assert coords(image) == tuple(_dense_mu(power, u))
        assert all(image.terms.values())


def test_element_rejects_a_coordinate_tuple(stanley):
    # the constructor takes terms; dense coordinates go through Algebra.element
    dense = coords(stanley.one_element())
    with pytest.raises(ValidationError):
        Element(stanley, dense)
    assert stanley.element(dense) == Element(stanley, {stanley.unit_index: stanley.field.one})


def test_degree_additivity(corpus):
    for alg in corpus[:20]:
        for i in range(alg.dim):
            for j in range(alg.dim):
                prod = alg.basis_element(i) * alg.basis_element(j)
                if prod.is_zero:
                    continue
                assert prod.degree() == alg.degree_of(i) + alg.degree_of(j)


def test_kernel_mu_dimension(stanley):
    assert kernel_mu(stanley, 2).dim == 16 - 4


def test_kernel_mu_exterior():
    alg = exterior()
    ker = kernel_mu(alg, 2)
    assert ker.dim == 2
    sq = alg.tensor_power(2)
    x = sq.element_from_labels({"a⊗1": 1, "1⊗a": -1})
    assert contains(ker, coords(x))


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
            x[sq.index_of_tuple((i, unit))] = alg.field.one
            x[sq.index_of_tuple((unit, i))] = alg.field.neg(alg.field.one)
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
    a = prod.element_from_labels({"a⊗1": 1})
    b = prod.element_from_labels({"1⊗a": 1})
    ab = a * b
    assert not ab.is_zero
    assert b * a == -ab
    revalidated = validate_algebra(prod.to_presentation())
    assert revalidated.dim == 4


def test_tensor_product_needs_common_field():
    with pytest.raises(ValidationError):
        tensor_product(exterior(QQ), exterior(GF3, name="ext3"))
