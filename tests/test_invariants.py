"""Cup-length, zero-divisor cup-length, witnesses, and their cross-checks."""

import gc
import itertools
import json
import os
import pickle
import random
import resource
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from functools import partial, reduce
from pathlib import Path

import pytest

import zclkit
from dense_reference import (
    GF3,
    QQ,
    Subspace,
    add,
    basis_element,
    change_of_basis,
    collapse_matrix,
    cup_length_oracle,
    dense_rows,
    element,
    element_from_labels,
    first_longest_word,
    full_space,
    full_walk,
    full_witness,
    kernel_mu,
    mu,
    multiply,
    null_space,
    one_element,
    scale,
    subspace_product,
    witness_extend,
    witness_letters,
    zcl_bounds_largest_seed,
    zcl_oracle,
    zcl_over_all_generators,
    zero_divisor_generators,
    zero_divisor_reference,
)
from zclkit import (
    AlgebraPresentation,
    builtin_algebra,
    cup_length,
    series_pipeline,
    tensor_product,
    validate_algebra,
    verify_witness,
    zcl_bounds,
    zcl_exact,
)
from zclkit.errors import ResourceLimitError, ValidationError
from zclkit.fields import Field
from zclkit import invariants
from zclkit.algebra import DEFAULT_MAX_DIM, Algebra
from zclkit.tensor import PowerTables, TensorPowerAlgebra
from zclkit.invariants import (
    Witness,
    WitnessReport,
    _walk,
    _zero_divisor_letters,
    row_text,
    zcl_route,
    zero_divisor,
    zero_divisor_product,
)


def _alg(name, field, basis, products=None):
    return validate_algebra(AlgebraPresentation.from_labels(name, field, basis, products))


def point():
    return _alg("k", QQ, [("1", 0)])


def exterior_line():
    return _alg("ext", QQ, [("1", 0), ("a", 1)])


def truncated_height3():
    return _alg(
        "t3", QQ, [("1", 0), ("x", 2), ("xx", 4)], {("x", "x"): {"xx": 1}}
    )


def even_sphere():
    return _alg("s2", QQ, [("1", 0), ("a", 2)])


# -- cup-length ------------------------------------------------------------------


def test_cup_length_stanley(stanley):
    res = cup_length(stanley)
    assert res.value == 1
    assert len(res.chain) == 1
    assert res.chain[0]


def test_cup_length_point():
    res = cup_length(point())
    assert res.value == 0
    assert res.chain == ()


def test_cup_length_truncated_polynomial():
    # x*x = xx is nonzero, x*x*x dies
    assert cup_length(truncated_height3()).value == 2


def test_cup_length_chain_product_is_nonzero(corpus):
    for alg in corpus[:30]:
        res = cup_length(alg)
        if res.value == 0:
            continue
        prod = res.chain[0]
        for e in res.chain[1:]:
            prod = multiply(alg, prod, e)
        assert prod
        assert all(alg.degree_of(i) > 0 for e in res.chain for i in e)


def test_cup_length_oracle_examples(stanley):
    assert cup_length_oracle(stanley) == 1
    assert cup_length_oracle(point()) == 0
    two_odds = _alg(
        "ext2", QQ, [("1", 0), ("a", 1), ("b", 1), ("ab", 2)], {("a", "b"): {"ab": 1}}
    )
    assert cup_length_oracle(two_odds) == 2


def test_cup_length_oracle_guard():
    big = builtin_algebra("stanley-p3").tensor_power(4)
    with pytest.raises(ResourceLimitError):
        cup_length_oracle(big)


def test_cup_length_matches_oracle_on_corpus_prefix(corpus):
    for alg in corpus[:40]:
        assert cup_length(alg).value == cup_length_oracle(alg)


# -- zcl exact ---------------------------------------------------------------------


def test_zcl_exact_stanley_r2(stanley):
    res = zcl_exact(stanley, 2)
    assert (res.value, res.method, res.lower, res.upper) == (2, "exact", 2, 2)
    assert len(witness_letters(res.witness)) == 2


def test_zcl_exact_stanley_r3(stanley):
    assert zcl_exact(stanley, 3).value == 3


def test_zcl_exact_exterior_kernel_squares_to_zero():
    # kernel basis {a x 1 - 1 x a, a x a}; all pairwise products vanish
    assert zcl_exact(exterior_line(), 2).value == 1


def test_zcl_exact_point_is_zero():
    res = zcl_exact(point(), 2)
    assert (res.value, res.upper, res.witness) == (0, 0, None)


def test_zcl_exact_requires_r_at_least_two(stanley):
    with pytest.raises(ValidationError):
        zcl_exact(stanley, 1)
    with pytest.raises(ValidationError, match="needs r >= 2"):
        next(zcl_route(stanley, 1))


def test_zcl_exact_respects_ceiling(stanley):
    with pytest.raises(ResourceLimitError):
        zcl_exact(stanley, 4, max_dim=100)


# -- zcl bounds ---------------------------------------------------------------------


def test_zcl_bounds_stanley_r7(stanley):
    res = zcl_bounds(stanley, 7)
    assert (res.lower, res.upper, res.value, res.method) == (7, 7, 7, "bounds")
    assert len(witness_letters(res.witness)) == 7
    assert verify_witness(stanley, res.witness).ok


def test_a_witness_length_past_an_index_is_a_plain_int():
    # 2 * 10^19 - 2 letters: len() would raise OverflowError, the length does not
    res = zcl_bounds(builtin_algebra("surface:1"), 10 ** 19, max_dim=None)
    assert res.witness.length == res.lower == 2 * 10 ** 19 - 2
    assert res.witness


def test_zcl_bounds_point():
    res = zcl_bounds(point(), 5)
    assert (res.lower, res.upper, res.value) == (0, 0, 0)


def test_zcl_bounds_even_truncated_r2():
    res = zcl_bounds(even_sphere(), 2)
    assert (res.lower, res.upper, res.value) == (2, 2, 2)


def test_zcl_bounds_without_feasible_seed(stanley):
    res = zcl_bounds(stanley, 3, max_dim=8)
    assert res.value is None
    assert (res.lower, res.upper) == (0, 3)
    assert res.witness is None
    start = time.monotonic()  # the seed search must not raise d to every s <= r
    far = zcl_bounds(stanley, 60_000, max_dim=8)
    assert (far.lower, far.upper, far.value) == (0, 60_000, None)
    assert time.monotonic() - start < 1.0


def test_zcl_bounds_matches_exact_where_both_run(corpus):
    for alg in corpus[:20]:
        if alg.dim < 2 or alg.dim ** 2 > 81:
            continue
        exact = zcl_exact(alg, 2, max_dim=81)
        bounds = zcl_bounds(alg, 2)
        assert bounds.lower <= exact.value <= bounds.upper


# -- the extension lemma: a bounds witness is its seed and its chain --------------------


def test_witness_extend_stanley(stanley):
    # the reference extension of the r = 2 seed is the bounds witness at r = 3
    # multiplied out
    seed = zcl_exact(stanley, 2)
    chain = cup_length(stanley).chain
    extended = witness_extend(stanley, seed.witness, chain)
    assert extended.r == 3
    assert len(witness_letters(extended)) == 3
    assert extended.product
    assert verify_witness(stanley, extended).ok
    w = zcl_bounds(stanley, 3).witness
    assert (w.r, w.seed_r, w.chain, w.product) == (3, 2, chain, seed.witness.product)
    assert full_witness(stanley, w) == extended


def test_verify_witness_rejects_empty_witness(stanley):
    # an exact witness of no letters, and a chain on an empty seed
    sq, chain = stanley.tensor_power(2), cup_length(stanley).chain
    for empty in (Witness(2, (), one_element(sq)), Witness(3, (), one_element(sq), 2, chain)):
        assert verify_witness(stanley, empty) == WitnessReport(
            False, ("the seed has no factors",)), empty.r


def test_verify_witness_names_each_forged_certificate(stanley):
    # the rejections of the extension step, now forged bounds certificates at r = 3
    # on the r = 2 seed; a chain row of another algebra is test_element_mismatch_rejected
    seed = zcl_exact(stanley, 2).witness
    good = zcl_bounds(stanley, 3).witness
    assert verify_witness(stanley, good) == WitnessReport(True, ())
    a2, a3 = (element_from_labels(stanley, {lbl: 1}) for lbl in ("a2", "a3"))
    sq = stanley.tensor_power(2)

    def on_chain(chain):
        return Witness(3, seed.seed, seed.product, 2, chain)

    for w, problems in (
        (on_chain((a2, a3)), ("chain product is zero",)),
        (on_chain((one_element(stanley),)), (
            "a chain element is not homogeneous of positive degree",)),
        (on_chain((add(stanley, a2, a3),)), (
            "a chain element is not homogeneous of positive degree",)),
        (on_chain(({1: 3},)), ("a chain element is not a row of the base",)),
        (Witness(3, good.seed, scale(sq, seed.product, 2), 2, good.chain), (
            "stored product differs from the recomputed one",)),
        (Witness(3, good.seed, {16: 1}, 2, good.chain), (
            "stored product is not a row of the tensor power",
            "stored product differs from the recomputed one",
        )),
        (Witness(3, good.seed, {}, 2, good.chain), (
            "stored product differs from the recomputed one",)),
        # a seed letter past seed_r
        (Witness(3, good.seed + ((a2, 3),), seed.product, 2, good.chain), (
            "factor 2 is not a letter (y, s) over the base with 2 <= s <= 2",)),
    ):
        assert verify_witness(stanley, w) == WitnessReport(False, problems), w
    for seed_r in (1, 4, True, "2", 2.0):
        w = Witness(3, good.seed, seed.product, seed_r, good.chain)
        assert verify_witness(stanley, w) == WitnessReport(
            False, ("seed_r is not an int with 2 <= seed_r <= 3",)), seed_r


def test_witness_extend_even_truncated_cube():
    # base k[x]/(x^3): r=2 witness (xbar, xbar), xbar = x^(2) - x^(1), chain (x);
    # the reference extension lands in the dim-27 cube
    alg = truncated_height3()
    sq = alg.tensor_power(2)
    x = element_from_labels(alg, {"x": 1})
    xbar = element_from_labels(sq, {"1⊗x": 1, "x⊗1": -1})
    square = multiply(sq, xbar, xbar)
    assert square
    seed = Witness(2, ((x, 2), (x, 2)), square)
    extended = witness_extend(alg, seed, (x,))
    assert extended.r == 3
    assert witness_letters(extended) == ((x, 2), (x, 2), (x, 3))
    cube = alg.tensor_power(3)
    assert cube.dim == 27
    rows = tuple(zero_divisor(cube, y, s) for y, s in witness_letters(extended))
    assert rows == (
        element_from_labels(cube, {"1⊗x⊗1": 1, "x⊗1⊗1": -1}),
    ) * 2 + (element_from_labels(cube, {"1⊗1⊗x": 1, "x⊗1⊗1": -1}),)
    assert extended.product == multiply(cube, multiply(cube, rows[0], rows[1]), rows[2])
    assert verify_witness(alg, extended).ok
    # and as a certificate, the seed and the chain
    bounds = Witness(3, seed.seed, square, 2, (x,))
    assert (witness_letters(bounds), bounds.length, verify_witness(alg, bounds).ok) == (
        witness_letters(extended), 3, True)
    assert full_witness(alg, bounds) == extended


def test_the_extension_lemma_against_the_full_product(corpus):
    # each bounds witness past its seed, on every builtin and corpus algebra with
    # cl > 0 and at each r with d^r <= 4096, multiplied out by the reference
    # extension: its product is nonzero, the pair-table fold of its factors' rows
    # agrees with it, and its length is at most zcl_r.  An algebra whose table
    # repeats one already checked, up to labels, is checked once.
    checked, seen = 0, set()
    for alg in corpus:
        table = tuple(tuple(alg.basis_product(i, j).items())
                      for i in range(alg.dim) for j in range(alg.dim))
        if cup_length(alg).value == 0 or (alg.field, alg.degrees, table) in seen:
            continue
        seen.add((alg.field, alg.degrees, table))
        for r in range(3, 13):
            if alg.dim ** r > DEFAULT_MAX_DIM:
                break
            w = zcl_bounds(alg, r).witness
            if w.seed_r == r:
                continue
            full = full_witness(alg, w)
            assert witness_letters(full) == witness_letters(w) and full.product, (alg.name, r)
            power = alg.tensor_power(r, max_dim=None)
            rows = [zero_divisor(power, y, s) for y, s in witness_letters(w)]
            assert reduce(partial(multiply, power), rows) == full.product, (alg.name, r)
            assert w.length <= zcl_exact(alg, r).value, (alg.name, r)
            checked += 1
    assert checked > 200


# -- witness verification ----------------------------------------------------------------


def test_verify_witness_accepts_exact_output(stanley):
    res = zcl_exact(stanley, 2)
    report = verify_witness(stanley, res.witness)
    assert report.ok
    assert report.problems == ()


def test_verify_witness_rejects_tampered_factor(monkeypatch, stanley):
    w = zcl_exact(stanley, 2).witness
    (y, _), unit = w.seed[0], stanley.unit_index
    # a slot outside 2..r, or a row off the base basis, is not a letter
    for letter in ((y, 1), (y, 3), ({stanley.dim: 1}, 2)):
        report = verify_witness(stanley, Witness(2, (w.seed[0], letter), w.product))
        assert not report.ok
        assert report.problems == (
            "factor 1 is not a letter (y, s) over the base with 2 <= s <= 2",
        )
    # the unit as y is the zero factor 1 - 1
    report = verify_witness(stanley, Witness(2, (w.seed[0], ({unit: 1}, 2)), w.product))
    assert not report.ok
    assert "product of the factors is zero" in report.problems
    assert "stored product differs from the recomputed one" in report.problems
    # a factor built wrong is caught by the collapse map
    monkeypatch.setattr(invariants, "zero_divisor", lambda power, y, s: {power.unit_index: 1})
    report = verify_witness(stanley, w)
    assert not report.ok
    assert any("factor 0 is not a zero divisor" in p for p in report.problems)


def test_verify_witness_rejects_wrong_product(stanley):
    res = zcl_exact(stanley, 2)
    sq = stanley.tensor_power(2)
    forged = Witness(2, res.witness.seed, one_element(sq))
    report = verify_witness(stanley, forged)
    assert not report.ok
    assert any("differs" in p for p in report.problems)


def test_projection_of_extended_witness_matches_parent_up_to_sign(stanley):
    seed = zcl_exact(stanley, 2)
    chain = cup_length(stanley).chain
    extended = witness_extend(stanley, seed.witness, chain)
    # collapse the last slot with the functional dual to the chain product
    yprod = chain[0]
    for y in chain[1:]:
        yprod = multiply(stanley, yprod, y)
    cstar, lam = min(yprod.items())
    field = stanley.field
    inv_lam = field.inv(lam)
    d = stanley.dim
    sq = stanley.tensor_power(2)
    collapsed = [field.zero] * sq.dim
    for idx, c in extended.product.items():
        q, s = divmod(idx, d)
        if s == cstar:
            collapsed[q] = field.add(collapsed[q], field.mul(c, inv_lam))
    projected = element(sq, collapsed)
    # the lemma at verify_witness: the part of the product whose last slot has the
    # chain's degree is the parent tensor the chain product, with no sign
    assert projected == seed.witness.product
    assert projected


def test_verify_witness_checks_the_chain_of_an_extension(stanley):
    seed = zcl_exact(stanley, 2).witness
    good = zcl_bounds(stanley, 4).witness
    assert (good.seed_r, len(witness_letters(good)), verify_witness(stanley, good)) == (
        2, 4, WitnessReport(True, ()))
    a2, a11 = (element_from_labels(stanley, {lbl: 1}) for lbl in ("a2", "a11"))
    # a2 a2 = 0 in A: the chain would claim 6 > 4 cl factors at r = 4
    for chain, problem in (
        ((a2, a2), "chain product is zero"),
        ((add(stanley, a2, a11),), "a chain element is not homogeneous of positive degree"),
    ):
        forged = Witness(4, seed.seed, seed.product, 2, chain)
        assert verify_witness(stanley, forged) == WitnessReport(False, (problem,)), chain


def test_every_returned_witness_verifies(corpus):
    checked = 0
    for alg in corpus[:25]:
        if alg.dim < 2 or alg.dim ** 2 > 81:
            continue
        res = zcl_exact(alg, 2, max_dim=81)
        if res.witness is None:
            continue
        assert verify_witness(alg, res.witness).ok
        checked += 1
        bounds = zcl_bounds(alg, 3)
        if bounds.witness is not None:
            assert verify_witness(alg, bounds.witness).ok
    assert checked > 5


def _product_from_scratch(a, w):
    """The ordered product of w's factors, each built by its closed form."""
    power = a.tensor_power(w.r, max_dim=None)
    product = one_element(power)
    for y, s in witness_letters(w):
        product = multiply(power, product, zero_divisor_reference(power, y, s))
    return product


def test_incremental_extension_matches_the_product_from_scratch(corpus):
    # witness_extend multiplies only the new factors onto the lifted stored product
    checked = 0
    for alg in corpus:
        if alg.dim ** 2 > 81:
            continue
        clres = cup_length(alg)
        if clres.value == 0:
            continue
        w = seed = zcl_exact(alg, 2, max_dim=81).witness
        while w.r < 8:
            w = witness_extend(alg, w, clres.chain)
            assert w.product == _product_from_scratch(alg, w), (alg.name, w.r)
            assert verify_witness(alg, w).ok, (alg.name, w.r)
        assert w.length == seed.length + 6 * clres.value
        checked += 1
    assert checked > 50


def test_extended_witness_built_on_a_forgery_is_rejected(stanley):
    seed = zcl_exact(stanley, 2).witness
    good = zcl_bounds(stanley, 3).witness
    forged = Witness(3, good.seed, scale(stanley.tensor_power(2), seed.product, 2), 2,
                     good.chain)
    report = verify_witness(stanley, forged)
    assert not report.ok
    assert any("differs" in p for p in report.problems)
    (y, _), unit = good.seed[-1], stanley.unit_index
    # the seed's last letter moved to a slot past seed_r, or made the unit
    for letter, problem in (
        ((y, 3), "factor 1 is not a letter (y, s) over the base with 2 <= s <= 2"),
        (({unit: 1}, 2), "product of the factors is zero"),
    ):
        tampered = Witness(3, good.seed[:-1] + (letter,), good.product, 2, good.chain)
        report = verify_witness(stanley, tampered)
        assert not report.ok
        assert problem in report.problems, letter


# -- the row rule: int indices in range, each with a nonzero canonical coefficient -------


@pytest.mark.parametrize("name, letter", [
    ("surface:1", ({1: 0}, 2)),  # a zero factor
    ("stanley-p3", ({1: 3}, 2)),  # 3 is 0 in F_3
    ("stanley-p3", ({1: -1}, 2)),  # F_3 writes -1 as 2
    ("stanley-p3", ({1: Fraction(1, 2)}, 2)),  # no scalar of F_3
    ("surface:1", ({1: "1"}, 2)),  # no scalar at all
    ("surface:1", ({True: 1}, 2)),  # a bool is no index
    ("surface:1", ({99: 1}, 2)),  # off the base
    ("surface:1", ("x", 2)),  # no row
    ("surface:1", ({1: 1}, "2")),  # no slot
    ("surface:1", ({1: 1}, 2, 3)),  # no pair
])
def test_a_letter_that_breaks_the_row_rule_is_not_a_letter(name, letter):
    report = verify_witness(builtin_algebra(name), Witness(2, (letter,), {1: 0, 4: 0}))
    assert report == WitnessReport(
        False, ("factor 0 is not a letter (y, s) over the base with 2 <= s <= 2",)
    )


def test_a_stored_product_that_breaks_the_row_rule_is_refused():
    torus = builtin_algebra("surface:1")
    w = zcl_exact(torus, 2).witness
    free = next(i for i in range(16) if i not in w.product)
    for product in ({**w.product, free: 0}, {**w.product, 16: 1}, {True: 1}, {free: "1"}):
        report = verify_witness(torus, Witness(2, w.seed, product))
        assert report == WitnessReport(False, (
            "stored product is not a row of the tensor power",
            "stored product differs from the recomputed one",
        )), product


def test_a_chain_that_breaks_the_row_rule_is_refused():
    # the torus at r = 5 seeds at r = 4 (dim 256): one step of two chain letters
    torus = builtin_algebra("surface:1")
    w = zcl_bounds(torus, 5).witness
    assert (w.seed_r, len(w.chain), verify_witness(torus, w).ok) == (4, 2, True)
    y0 = w.chain[0]
    for y in ({99: 1}, {1: 0}, {1: "1"}, {True: 1}, "x"):
        # a zero row {1: 0} would add a zero factor
        forged = Witness(5, w.seed, w.product, 4, (y0, y))
        assert verify_witness(torus, forged) == WitnessReport(
            False, ("a chain element is not a row of the base",)), y
    forged = Witness(5, w.seed, w.product, 4, list(w.chain))
    assert verify_witness(torus, forged) == WitnessReport(False, ("the chain is not a tuple",))
    # and so is the seed, of an exact witness too, which has no chain
    exact = zcl_exact(torus, 3).witness
    for forged in (Witness(5, list(w.seed), w.product, 4, w.chain),
                   Witness(3, list(exact.seed), exact.product)):
        assert verify_witness(torus, forged) == WitnessReport(
            False, ("the seed is not a tuple",)), forged.r
    free = next(i for i in range(256) if i not in w.product)
    for product in ({**w.product, free: 0}, {256: 1}, {True: 1}, {free: "1"}):
        assert verify_witness(torus, Witness(5, w.seed, product, 4, w.chain)) == WitnessReport(
            False, (
                "stored product is not a row of the tensor power",
                "stored product differs from the recomputed one",
            )), product


def test_every_witness_factor_is_a_letter(corpus):
    # a factor is stored as its letter (y, s); its vector is y^(s) - y^(1) by the
    # closed form, and it collapses to zero
    checked = 0
    for alg in corpus:
        witnesses = [zcl_exact(alg, r, max_dim=256).witness
                     for r in range(2, 11) if alg.dim ** r <= 256]
        witnesses += [zcl_bounds(alg, r).witness for r in range(2, 11)]
        witnesses += [res.witness for res in itertools.islice(zcl_route(alg, 2, max_dim=256), 9)]
        for w in filter(None, witnesses):
            power = alg.tensor_power(w.r, max_dim=None)
            assert verify_witness(alg, w).ok, (alg.name, w.r)
            for y, s in witness_letters(w):
                assert type(y) is dict and y and all(alg.degree_of(j) > 0 for j in y)
                assert type(s) is int and 2 <= s <= w.r, (alg.name, w.r, s)
                f = zero_divisor(power, y, s)
                assert f == zero_divisor_reference(power, y, s), (alg.name, w.r, s)
                assert not mu(alg, w.r, f), (alg.name, w.r, s)
                checked += 1
    assert checked > 19_000


def test_a_route_witness_stores_only_its_seed(corpus):
    # past its seed the route keeps one tuple of the seed's letters, shared by every r;
    # the letters past it are derived, and len counts them without building them
    bounds = 0
    for alg in corpus:
        seeds = set()
        for res in itertools.islice(zcl_route(alg, 2, max_dim=256), 12):
            w = res.witness
            if w is None:
                continue
            assert w.length == len(witness_letters(w)) == res.lower, (alg.name, w.r)
            assert witness_letters(w)[:len(w.seed)] == w.seed, (alg.name, w.r)
            assert all(s <= w.seed_r for _, s in w.seed), (alg.name, w.r)
            if w.seed_r < w.r:
                seeds.add(id(w.seed))
                bounds += 1
        assert len(seeds) <= 1, alg.name
    assert bounds > 500


def test_slot_one_factor_of_an_extension_reads_no_degree_per_term(monkeypatch):
    # the slot-1 sign of each term is the degree of u, read once, minus that of
    # slot 1, read from a table; no walk over the other slots per term
    alg = builtin_algebra("surface:1")
    w = full_witness(alg, zcl_bounds(alg, 12).witness)
    big = alg.tensor_power(13, max_dim=None)
    d, unit = alg.dim, alg.unit_index
    u = {idx * d + unit: c for idx, c in w.product.items()}
    y = {x: alg.field.one for x in alg.indecomposables()[:1]}
    assert alg.degree_of(next(iter(y))) % 2 and len(u) == 144
    calls = []
    low_degree = PowerTables.low_degree

    def counting(self, low, n):
        calls.append(n)
        return low_degree(self, low, n)

    monkeypatch.setattr(PowerTables, "low_degree", counting)
    got = zero_divisor_product(big, u, y, 13)
    assert len(calls) <= 2, len(calls)
    z = zero_divisor_reference(big, y, 13)
    assert got == big.product_items(u.items(), z.items())


def _kept_sizes(alg):
    """The length of every dict, list and tuple kept on alg and on its power tables."""
    holders = {"base": alg, "tables": alg._power_tables}
    return {
        (name, key): len(value)
        for name, holder in holders.items()
        for key, value in vars(holder).items()
        if isinstance(value, (dict, list, tuple))
    }


def test_no_power_past_the_seed_outlives_the_bounds_route(monkeypatch):
    # past its seed the route multiplies nothing, so it builds no power past 256
    # dimensions at any r; tensor_power keeps no view, so no power of any dimension
    # outlives the route, and nothing kept grows with r
    views = []
    init = TensorPowerAlgebra.__init__

    def recording(self, base, r):
        init(self, base, r)
        views.append((self.dim, weakref.ref(self)))

    monkeypatch.setattr(TensorPowerAlgebra, "__init__", recording)
    alg = builtin_algebra("stanley-p3")
    first = zcl_bounds(alg, 100)
    assert first.value == 100 and verify_witness(alg, first.witness).ok
    kept = _kept_sizes(alg)
    res = zcl_bounds(alg, 800)
    assert res.value == 800 and res.witness.r == 800
    assert verify_witness(alg, res.witness).ok
    del res
    gc.collect()
    assert views and max(dim for dim, _ in views) <= 256
    assert not [dim for dim, view in views if view() is not None]
    grown = {key: n for key, n in _kept_sizes(alg).items() if n > kept.get(key, 0)}
    assert not grown, grown


def test_bounds_route_walks_r2_whenever_its_square_fits_the_ceiling():
    # surface:8 has d^2 = 324, past the seed dimension 256 but within the ceiling:
    # zcl_2 = 4 = 2 cl, so zcl_r = 2r at every r
    alg = builtin_algebra("surface:8")
    assert alg.dim ** 2 == 324 and cup_length(alg).value == 2
    outcome = series_pipeline(alg, 4)
    assert outcome.certified
    assert outcome.sequence.values == (4, 6, 8, 10)
    assert [e.method for e in outcome.entries] == ["exact"] + ["bounds"] * 3
    res = next(zcl_route(alg, 3))
    assert (res.method, res.value, res.lower, res.upper) == ("bounds", 6, 6, 6)
    assert res.witness.length == 6 and verify_witness(alg, res.witness).ok
    assert zcl_bounds(alg, 5, max_dim=None).value == 10
    # a ceiling under d^2 still leaves only r * cl
    res = zcl_bounds(alg, 5, max_dim=300)
    assert (res.method, res.lower, res.upper, res.witness) == ("bounds", 0, 10, None)


# -- the bounds route at large r ----------------------------------------------------------


def test_bounds_route_at_r_100_in_under_a_second():
    # dense elements would need 4^r coordinates here; an address-space cap
    # 1 GiB above the current size turns such a regression into a MemoryError
    # instead of letting it take the machine's memory
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as statm:
        size = int(statm.read().split()[0]) * resource.getpagesize()
    cap = size + (1 << 30)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        alg = builtin_algebra("stanley-p3")
        start = time.perf_counter()
        res = zcl_bounds(alg, 100)
        report = verify_witness(alg, res.witness)
        elapsed = time.perf_counter() - start
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    assert (res.value, res.lower, res.upper) == (100, 100, 100)
    assert report.ok
    assert elapsed < 1.0


def test_torus_bounds_at_r_40_verified_in_under_three_seconds():
    # the route multiplies nothing past its seed at r = 4, and the check multiplies
    # only the seed's 6 factors again, on a product with 4^2 terms
    alg = builtin_algebra("surface:1")
    start = time.perf_counter()
    res = zcl_bounds(alg, 40)
    report = verify_witness(alg, res.witness)
    elapsed = time.perf_counter() - start
    assert (res.value, res.lower, res.upper) == (None, 78, 80)
    assert (res.witness.seed_r, len(res.witness.product)) == (4, 4 ** 2)
    assert report.ok
    assert elapsed < 3.0, f"took {elapsed:.1f}s"


# Linux keeps a process's peak RSS across fork and exec, so a child forked from
# the test process would report the test process's peak; a small launcher
# starts the command instead and reports the command's own rusage.  Its limits
# (inherited by the command) stop a regressed command from running away.
_PEAK_RSS_LAUNCHER = """
import json, os, resource, subprocess, sys
resource.setrlimit(resource.RLIMIT_CPU, (60, 60))
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
out = proc.stdout.read()
_, status, usage = os.wait4(proc.pid, 0)
print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss, out.decode()]))
"""


def test_bounds_route_at_r_100_stays_under_100_mb():
    src = str(Path(zclkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["zcl", "builtin:stanley-p3", "--method", "bounds", "--r", "100", "--json"]
    launched = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER, sys.executable, "-m", "zclkit.cli", *argv],
        stdout=subprocess.PIPE,
        env=env,
        timeout=120,
        check=True,
    )
    code, peak_kb, out = json.loads(launched.stdout)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["value"] == 100
    assert result["witness"]["verified"]
    assert peak_kb < 100 * 1024  # ru_maxrss is in kilobytes on Linux


@pytest.mark.parametrize(
    "name, max_dim, exact, certified",
    [
        pytest.param("stanley-p3", 256, 3, True, id="stanley-p3"),
        pytest.param("surface:1", DEFAULT_MAX_DIM, 5, False, id="surface:1"),
        pytest.param("sphere-odd:3", DEFAULT_MAX_DIM, 11, False, id="sphere-odd:3"),
    ],
)
def test_series_past_the_ceiling_to_r_30_is_certified(name, max_dim, exact, certified):
    # each entry past the ceiling extends the one before it by cl factors, and is
    # the sandwich zcl_bounds certifies from scratch, witness included
    alg = builtin_algebra(name)
    cl = cup_length(alg).value
    outcome = series_pipeline(alg, 30, max_dim=max_dim)
    assert outcome.certified is certified
    assert [e.method for e in outcome.entries] == ["exact"] * exact + ["bounds"] * (30 - exact)
    for prev, e in zip((None,) + outcome.entries, outcome.entries):
        if e.method == "exact":
            assert e == zcl_exact(alg, e.r, max_dim=max_dim)
            continue
        assert e == zcl_bounds(alg, e.r, max_dim=max_dim)
        if prev.method == "bounds":
            assert e.lower == prev.lower + cl
    assert verify_witness(alg, outcome.entries[-1].witness).ok
    if certified:
        assert outcome.sequence.values == tuple(range(2, 32))
        assert outcome.p_at_one == 1


def test_witness_past_the_ceiling_walks_only_its_seeds(monkeypatch):
    # zcl_2 = 2 < 2 cl on the torus, so r = 7 walks r = 2, then seeds at r = 4
    # (dim 256) and extends; the walks at r = 5 and 6 are never made
    alg = builtin_algebra("surface:1")
    cup_length(alg)
    walked = []
    walk = invariants._walk

    def recording(a, n, times, ceiling):
        walked.append(a.r)
        return walk(a, n, times, ceiling)

    monkeypatch.setattr(invariants, "_walk", recording)
    res = next(zcl_route(alg, 7))
    assert walked == [2, 4]
    assert (res.method, res.lower, res.upper) == ("bounds", 12, 14)


def test_exterior_kernel_squares_to_zero_as_a_subspace():
    alg = exterior_line()
    square = alg.tensor_power(2)
    kernel = kernel_mu(alg, 2)
    assert kernel.dim == 2
    product = subspace_product(kernel, kernel, square.product_items)
    assert product.is_zero


def test_builtin_cup_lengths():
    assert cup_length(builtin_algebra("point")).value == 0
    assert cup_length(builtin_algebra("surface:1")).value == 2
    assert cup_length(builtin_algebra("surface:3")).value == 2
    assert cup_length(builtin_algebra("sphere-odd:5")).value == 1


# -- brute-force agreement -----------------------------------------------------------------


def test_zcl_oracle_guard(stanley):
    with pytest.raises(ResourceLimitError):
        zcl_oracle(stanley, 4)


def test_max_dim_none_means_no_ceiling(monkeypatch, stanley):
    # None reaches tensor_power, which reads it as no ceiling
    ceilings = []
    tensor_power = Algebra.tensor_power

    def recording(self, r, max_dim=DEFAULT_MAX_DIM):
        ceilings.append(max_dim)
        return tensor_power(self, r, max_dim)

    monkeypatch.setattr(Algebra, "tensor_power", recording)
    assert zcl_exact(stanley, 2, max_dim=None).value == 2
    assert ceilings == [None]
    # and the route is exact however large d^r is
    routes = []
    monkeypatch.setattr(invariants, "zcl_exact", lambda a, r, max_dim: routes.append((r, max_dim)))
    route = zcl_route(stanley, 7, max_dim=None)
    for _ in range(3):
        next(route)
    assert routes == [(7, None), (8, None), (9, None)]


def test_zcl_exact_matches_oracle_small(stanley):
    assert zcl_exact(stanley, 2).value == zcl_oracle(stanley, 2)
    assert zcl_exact(exterior_line(), 2).value == zcl_oracle(exterior_line(), 2)
    assert zcl_exact(even_sphere(), 3).value == zcl_oracle(even_sphere(), 3)


def test_zero_divisor_generators_generate_the_kernel(corpus):
    # zcl_exact relies on ker(mu_r) being the ideal generated by x^(s) - x^(1),
    # x indecomposable
    checked = 0
    for alg in corpus:
        for r in range(2, 7):
            if alg.dim ** r > 81:
                break
            power = alg.tensor_power(r, max_dim=None)
            rows = zero_divisor_generators(power)
            assert len(rows) == (r - 1) * len(alg.indecomposables()), (alg.name, r)
            gens = Subspace.from_sparse_rows(alg.field, rows, power.dim)
            ideal = subspace_product(
                full_space(alg.field, power.dim), gens, power.product_items
            )
            assert ideal.dim == power.dim - alg.dim, (alg.name, r)
            assert ideal == kernel_mu(alg, r, max_dim=None), (alg.name, r)
            checked += 1
    assert checked > 300


def test_indecomposable_generators_give_the_zcl_of_all_generators(corpus_zcl_table):
    # the walk over every b^(s) - b^(1), b positive, is the oracle for the shortcut
    checked = 0
    for alg, _, values in corpus_zcl_table:
        for r, value in values.items():
            assert zcl_over_all_generators(alg, r) == value, (alg.name, r)
            checked += 1
    assert checked > 300


def test_a_random_change_of_basis_keeps_cl_zcl_and_acceptance(changed_bases):
    # a basis that is not monomial: an indecomposable element may lie in the support
    # of a product, so a letter rule read off the supports would walk too few letters
    checked = 0
    for alg, cl_value, values, pres in changed_bases:
        changed = validate_algebra(pres)
        assert sorted(changed.degrees) == sorted(alg.degrees), alg.name
        assert len(changed.indecomposables()) == len(alg.indecomposables()), alg.name
        assert cup_length(changed).value == cl_value, alg.name
        for r, value in values.items():
            res = zcl_exact(changed, r, max_dim=81)
            assert res.value == value, (alg.name, r)
            assert res.witness is None or verify_witness(changed, res.witness).ok, (alg.name, r)
            checked += 1
    assert checked > 300
    # a table that is not associative stays refused in any basis: (xy)y = w, x(yy) = 0
    bad = AlgebraPresentation("bad", QQ, (("1", 0), ("x", 2), ("y", 2), ("z", 4), ("w", 6)),
                              {(1, 2): {3: 1}, (2, 3): {4: 1}})
    for pres in (bad, change_of_basis(bad, random.Random(1))):
        with pytest.raises(ValidationError, match="associativ"):
            validate_algebra(pres)


def _table_times(a, letters):
    """The walk's ``times`` for letters given as sparse rows, through a's table."""
    return lambda p, i: a.product_items(p.items(), letters[i].items())


def test_walk_picks_the_first_longest_word(corpus):
    # the forward pass over non-decreasing words, stopped at its ceiling, agrees
    # with a depth-first search over all words
    checked = 0
    for alg in corpus:
        one = alg.field.one
        pos = [i for i in range(alg.dim) if alg.degree_of(i) > 0]
        letters = [{i: one} for i in pos]
        ceiling = max(alg.degrees) // min((alg.degree_of(i) for i in pos), default=1)
        walked = _walk(alg, len(letters), _table_times(alg, letters), ceiling)
        assert walked == first_longest_word(alg, letters), alg.name
        for r in range(2, 7):
            if alg.dim ** r > 81:
                break
            power = alg.tensor_power(r, max_dim=None)
            gens = zero_divisor_generators(power)
            ceiling = r * cup_length(alg).value
            walked = _walk(power, len(gens), _table_times(power, gens), ceiling)
            assert walked == first_longest_word(power, gens), (alg.name, r)
            checked += 1
    assert checked > 300


def test_walk_matches_the_walk_over_every_word(corpus):
    # zcl_exact and cup_length return what the walk with every letter after
    # every kept word, and no ceiling, returns
    checked = 0
    for alg in corpus:
        one = alg.field.one
        letters = alg.indecomposables()
        word, _ = full_walk(
            alg, len(letters), lambda p, n: alg.product_items(p.items(), ((letters[n], one),))
        )
        chain = tuple(basis_element(alg, letters[n]) for n in word)
        assert cup_length(alg).chain == chain, alg.name
        for r in range(2, 9):
            if alg.dim ** r > 256:
                break
            power = alg.tensor_power(r, max_dim=None)
            gens = _zero_divisor_letters(power)
            word, product = full_walk(
                power, len(gens), lambda p, i: zero_divisor_product(power, p, *gens[i])
            )
            res = zcl_exact(alg, r, max_dim=256)
            assert res.value == len(word), (alg.name, r)
            if word:
                assert witness_letters(res.witness) == tuple(gens[i] for i in word), (alg.name, r)
                assert verify_witness(alg, res.witness).ok, (alg.name, r)
                assert res.witness.product == product, (alg.name, r)
            else:
                assert res.witness is None, (alg.name, r)
            checked += 1
    assert checked == 478


def _count_walk_products(monkeypatch) -> list:
    """Make every walk count the products it forms into the returned one-item list."""
    count = [0]
    walk = invariants._walk

    def counting(a, n, times, ceiling):
        def counted(p, i):
            count[0] += 1
            return times(p, i)

        return walk(a, n, counted, ceiling)

    monkeypatch.setattr(invariants, "_walk", counting)
    return count


@pytest.mark.parametrize(
    "name, r, products",
    [("surface:1", 4, 126), ("stanley-p3", 4, 200), ("surface:1", 6, 2046)],
)
def test_walk_forms_only_the_products_it_needs(monkeypatch, name, r, products):
    # non-decreasing words and the r*cl ceiling; the walk over every word forms
    # 384, 1,872 and 10,240 products here.  Products are counted, not timed.
    alg = builtin_algebra(name)
    cup_length(alg)  # cached, so only the zcl walk is counted below
    count = _count_walk_products(monkeypatch)
    zcl_exact(alg, r)
    assert count == [products]


def test_cup_length_chain_is_the_first_longest_word_over_every_letter(corpus):
    # cup_length walks only the letters independent modulo (A+)^2; its chain is
    # still the first longest word over all positive basis elements
    def check(alg):
        one = alg.field.one
        pos = [i for i in range(alg.dim) if alg.degree_of(i) > 0]
        word, _ = first_longest_word(alg, [{i: one} for i in pos])
        assert cup_length(alg).chain == tuple(basis_element(alg, pos[n]) for n in word), alg.name

    checked = 0
    for n, alg in enumerate(corpus):
        check(alg)
        for r in range(2, 7):
            if alg.dim ** r > 81:
                break
            check(alg.tensor_power(r, max_dim=None))
            checked += 1
        other = next((b for b in corpus[n + 1:] if b.field == alg.field), None)
        if other is not None:
            check(tensor_product(alg, other))
            checked += 1
    assert checked > 400


def test_kernel_mu_matches_the_dense_null_space(corpus):
    # the sparse kernel_mu against an elimination it shares no code with
    checked = 0
    for alg in corpus:
        for r in range(2, 7):
            if alg.dim ** r > 81:
                break
            expected = null_space(alg.field, collapse_matrix(alg, r), alg.dim ** r)
            assert dense_rows(kernel_mu(alg, r, max_dim=None)) == expected, (alg.name, r)
            checked += 1
    assert checked > 300


def test_fields_and_algebras_survive_pickling():
    for field in (GF3, QQ):
        copy = pickle.loads(pickle.dumps(field))
        assert copy == field and str(copy) == str(field)
        assert copy.mul(copy.one, copy.neg(copy.one)) == field.neg(field.one)
    assert pickle.loads(pickle.dumps(Field(7))).sub(2, 5) == 4

    def summary(alg):
        cl = cup_length(alg)
        res = zcl_exact(alg, 2)
        sq = alg.tensor_power(2)
        witness = [(row_text(alg, y), s) for y, s in witness_letters(res.witness)]
        witness.append(row_text(sq, res.witness.product))
        return cl.value, [row_text(alg, e) for e in cl.chain], res.value, res.upper, witness

    alg = builtin_algebra("surface:1")
    fresh = pickle.loads(pickle.dumps(alg))
    expected = summary(alg)
    warmed = pickle.loads(pickle.dumps(alg))  # caches filled by the run above
    assert summary(fresh) == expected == summary(warmed)
    assert verify_witness(warmed, zcl_exact(warmed, 2).witness).ok


def test_zcl_bounds_seed_rule_keeps_every_bound(corpus):
    # the r = 2 seed when zcl_2 = 2 cl, else the largest one: the same sandwich as
    # always seeding at the largest r0, with a witness that verifies
    seeded_at_two = checked = 0
    for alg in corpus:
        cl = cup_length(alg).value
        if cl == 0:
            continue
        two = alg.dim ** 2 <= invariants.DEFAULT_SEED_DIM and zcl_exact(alg, 2).value == 2 * cl
        seeded_at_two += two
        for r in range(2, 11):
            res = zcl_bounds(alg, r)
            ref = zcl_bounds_largest_seed(alg, r)
            assert (res.value, res.lower, res.upper) == (ref.value, ref.lower, ref.upper), (
                alg.name, r)
            if two:
                assert res.value == r * cl, (alg.name, r)
            if res.witness is not None:
                assert verify_witness(alg, res.witness).ok, (alg.name, r)
            checked += 1
    assert (seeded_at_two, checked) == (53, 116 * 9)


def test_zcl_bounds_seeds_stanley_at_r2(monkeypatch, stanley):
    # zcl_2 = 2 = 2 cl on stanley-p3, so the walk runs at r = 2 (dim 16), not at r = 4
    cup_length(stanley)
    count = _count_walk_products(monkeypatch)
    res = zcl_bounds(stanley, 9)
    assert count == [4]
    ref = zcl_bounds_largest_seed(stanley, 9)
    assert count == [4 + 200]
    assert (res.value, res.lower, res.upper) == (ref.value, ref.lower, ref.upper) == (9, 9, 9)
    assert witness_letters(res.witness) == witness_letters(ref.witness)
