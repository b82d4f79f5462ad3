"""Row reduction, kernels, and subspace products over exact fields.

The sparse core is checked against the dense elimination ``rref`` in
``dense_reference``, which shares no code with it.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (
    GF2,
    GF3,
    GF5,
    QQ,
    Subspace,
    contains,
    dense_rows,
    full_space,
    is_subspace_of,
    kernel_basis,
    matrix,
    rref,
    span,
    subspace_product,
)
from zclkit.errors import ValidationError

ALL_FIELDS = [GF2, GF3, GF5, QQ]


def sparse(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def componentwise(field):
    """A bilinear map without any algebra machinery: (u*v)_i = u_i v_i."""
    mul = field.mul

    def product_items(iu, iv):
        dv = dict(iv)
        out = {}
        for i, a in iu:
            if i in dv:
                out[i] = mul(a, dv[i])
        return out

    return product_items


def componentwise_dense(field, u, v):
    return tuple(field.mul(a, b) for a, b in zip(u, v))


# -- rref -------------------------------------------------------------------


def test_rref_identity_is_fixed():
    m = matrix(QQ, [[1, 0], [0, 1]])
    red, rank, pivots = rref(QQ, m, 2)
    assert red == m
    assert rank == 2
    assert pivots == (0, 1)


def test_rref_proportional_rows_collapse():
    red, rank, pivots = rref(QQ, matrix(QQ, [[1, 2], [2, 4]]), 2)
    assert [list(r) for r in red] == [[1, 2]]
    assert rank == 1
    assert pivots == (0,)


def test_rref_mod_three_hand_elimination():
    # [[1,1],[1,2]]: subtract rows, rescale; invertible mod 3
    red, rank, pivots = rref(GF3, matrix(GF3, [[1, 1], [1, 2]]), 2)
    assert [list(r) for r in red] == [[1, 0], [0, 1]]
    assert rank == 2


def test_matrix_must_be_rectangular():
    with pytest.raises(ValidationError):
        rref(QQ, ((Fraction(1),), (Fraction(1), Fraction(2))), 1)


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def random_matrix(draw):
    field = draw(st.sampled_from(ALL_FIELDS))
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    rows = draw(
        st.lists(
            st.lists(small_entries, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return field, matrix(field, rows), ncols


@given(m=random_matrix())
def test_rref_is_idempotent(m):
    field, rows, ncols = m
    red, rank, pivots = rref(field, rows, ncols)
    again, rank2, pivots2 = rref(field, red, ncols)
    assert again == red
    assert (rank2, pivots2) == (rank, pivots)


@given(m=random_matrix())
def test_rank_nullity(m):
    field, rows, ncols = m
    _, rank, _ = rref(field, rows, ncols)
    assert rank + kernel_basis(field, sparse(rows), ncols).dim == ncols


@given(m=random_matrix())
def test_kernel_vectors_annihilate(m):
    field, rows, ncols = m
    ker = kernel_basis(field, sparse(rows), ncols)
    zero = field.zero
    mul, add = field.mul, field.add
    for v in dense_rows(ker):
        for row in rows:
            acc = zero
            for a, b in zip(row, v):
                acc = add(acc, mul(a, b))
            assert acc == zero


@given(m=random_matrix())
def test_span_matches_dense_rref(m):
    # the sparse elimination engine must reproduce the unique RREF
    field, rows, ncols = m
    red, rank, pivots = rref(field, rows, ncols)
    sub = span(field, rows, ncols)
    assert dense_rows(sub) == red
    assert sub.pivots == pivots


# -- kernels ------------------------------------------------------------------


def test_kernel_of_zero_map_is_everything():
    ker = kernel_basis(QQ, sparse(matrix(QQ, [[0, 0, 0]])), 3)
    assert ker.dim == 3
    assert ker == full_space(QQ, 3)


def test_kernel_of_identity_is_zero():
    ker = kernel_basis(QQ, sparse(matrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])), 3)
    assert ker.dim == 0
    assert ker.is_zero


# -- membership ----------------------------------------------------------------


def test_every_subspace_contains_zero():
    sub = span(GF2, [(1, 0)], 2)
    assert contains(sub, (0, 0))


def test_full_space_contains_everything():
    full = full_space(GF3, 3)
    assert contains(full, (1, 2, 0))


def test_line_misses_other_axis():
    sub = span(GF2, [(1, 0)], 2)
    assert not contains(sub, (0, 1))


def test_contains_checks_dimension():
    sub = full_space(QQ, 2)
    with pytest.raises(ValidationError):
        contains(sub, (Fraction(1),))


# -- subspace products ------------------------------------------------------------


def test_product_with_zero_subspace_is_zero():
    s = full_space(QQ, 3)
    z = Subspace.zero(QQ, 3)
    assert subspace_product(s, z, componentwise(QQ)).is_zero
    assert subspace_product(z, s, componentwise(QQ)).is_zero


def test_product_requires_matching_ambient():
    with pytest.raises(ValidationError):
        subspace_product(full_space(QQ, 2), full_space(QQ, 3), componentwise(QQ))


def _random_subspace(rng, field, ambient, max_rows=3):
    rows = [
        [field.coerce(rng.randint(-3, 3)) for _ in range(ambient)]
        for _ in range(rng.randint(1, max_rows))
    ]
    return span(field, rows, ambient)


def test_product_monotone_in_first_argument():
    rng = random.Random(7)
    for field in ALL_FIELDS:
        for _ in range(15):
            ambient = rng.randint(2, 5)
            s = _random_subspace(rng, field, ambient)
            t = _random_subspace(rng, field, ambient)
            bigger_rows = list(dense_rows(s)) + [
                tuple(field.coerce(rng.randint(-3, 3)) for _ in range(ambient))
            ]
            s_big = span(field, bigger_rows, ambient)
            small = subspace_product(s, t, componentwise(field))
            big = subspace_product(s_big, t, componentwise(field))
            assert is_subspace_of(small, big)


def test_product_independent_of_spanning_set():
    rng = random.Random(11)
    for field in ALL_FIELDS:
        for _ in range(15):
            ambient = rng.randint(2, 5)
            s = _random_subspace(rng, field, ambient)
            t = _random_subspace(rng, field, ambient)
            # re-mix s's basis by random row operations (span unchanged)
            mixed = [list(row) for row in dense_rows(s)]
            for _ in range(4):
                a, b = rng.randrange(len(mixed)), rng.randrange(len(mixed))
                if a == b:
                    continue
                f = field.coerce(rng.randint(-2, 2))
                mixed[a] = [
                    field.add(x, field.mul(f, y)) for x, y in zip(mixed[a], mixed[b])
                ]
            s_mixed = span(field, mixed, ambient)
            assert s_mixed == s
            left = subspace_product(s, t, componentwise(field))
            right = subspace_product(s_mixed, t, componentwise(field))
            assert left == right


def test_product_matches_the_dense_span_of_dense_products():
    rng = random.Random(13)
    for field in ALL_FIELDS:
        for _ in range(10):
            ambient = rng.randint(2, 5)
            s = _random_subspace(rng, field, ambient)
            t = _random_subspace(rng, field, ambient)
            products = [
                componentwise_dense(field, u, w) for u in dense_rows(s) for w in dense_rows(t)
            ]
            red, _, pivots = rref(field, products, ambient)
            sparse_product = subspace_product(s, t, componentwise(field))
            assert dense_rows(sparse_product) == red
            assert sparse_product.pivots == pivots
