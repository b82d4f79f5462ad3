"""Cup-length, zero-divisor cup-length, witnesses, and their cross-checks."""

import json
import os
import pickle
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import zclkit
from dense_reference import (
    collapse_matrix,
    cup_length_oracle,
    dense_rows,
    full_space,
    kernel_mu,
    null_space,
    zcl_oracle,
)
from zclkit import (
    AlgebraPresentation,
    builtin_algebra,
    cup_length,
    series_pipeline,
    validate_algebra,
    verify_witness,
    witness_extend,
    zcl_bounds,
    zcl_exact,
)
from zclkit.errors import ResourceLimitError, ValidationError, WitnessInvariantError
from zclkit.fields import GF3, QQ, Field
from zclkit.invariants import Witness, _zero_divisor_generators
from zclkit.linalg import Subspace, subspace_product


def _alg(name, field, basis, products=None):
    return validate_algebra(AlgebraPresentation.from_labels(name, field, basis, products))


def point():
    return _alg("k", QQ, [("1", 0)])


def exterior_line():
    return _alg("ext", QQ, [("1", 0), ("a", 1)])


def truncated_height3():
    return _alg(
        "t3", QQ, [("1", 0), ("x", 2), ("xx", 4)], {("x", "x"): [(1, "xx")]}
    )


def even_sphere():
    return _alg("s2", QQ, [("1", 0), ("a", 2)])


# -- cup-length ------------------------------------------------------------------


def test_cup_length_stanley(stanley):
    res = cup_length(stanley)
    assert res.value == 1
    assert len(res.chain) == 1
    assert not res.chain[0].is_zero


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
            prod = prod * e
        assert not prod.is_zero
        assert all(e.degree() > 0 for e in res.chain)


def test_cup_length_oracle_examples(stanley):
    assert cup_length_oracle(stanley) == 1
    assert cup_length_oracle(point()) == 0
    two_odds = _alg(
        "ext2", QQ, [("1", 0), ("a", 1), ("b", 1), ("ab", 2)], {("a", "b"): [(1, "ab")]}
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
    assert len(res.witness.factors) == 2


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


def test_zcl_exact_respects_ceiling(stanley):
    with pytest.raises(ResourceLimitError):
        zcl_exact(stanley, 4, max_dim=100)


# -- zcl bounds ---------------------------------------------------------------------


def test_zcl_bounds_stanley_r7(stanley):
    res = zcl_bounds(stanley, 7)
    assert (res.lower, res.upper, res.value, res.method) == (7, 7, 7, "bounds")
    assert len(res.witness.factors) == 7
    assert verify_witness(stanley, res.witness).ok


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


# -- witness extension -----------------------------------------------------------------


def test_witness_extend_stanley(stanley):
    seed = zcl_exact(stanley, 2)
    chain = cup_length(stanley).chain
    extended = witness_extend(stanley, seed.witness, chain)
    assert extended.r == 3
    assert len(extended.factors) == 3
    assert not extended.product.is_zero
    assert verify_witness(stanley, extended).ok


def test_witness_extend_rejects_empty_chain(stanley):
    seed = zcl_exact(stanley, 2)
    with pytest.raises(ValidationError):
        witness_extend(stanley, seed.witness, ())


def test_witness_extend_rejects_empty_witness(stanley):
    sq = stanley.tensor_power(2)
    empty = Witness(2, (), sq.one_element())
    with pytest.raises(ValidationError):
        witness_extend(stanley, empty, cup_length(stanley).chain)


def test_witness_extend_even_truncated_cube():
    # base k[a]/(a^3): r=2 witness (abar, abar), chain (a); lands in the dim-27 cube
    alg = truncated_height3()
    sq = alg.tensor_power(2)
    abar = sq.element_from_labels({"x⊗1": 1, "1⊗x": -1})
    square = abar * abar
    assert not square.is_zero
    seed = Witness(2, (abar, abar), square)
    chain = (alg.element_from_labels({"x": 1}),)
    extended = witness_extend(alg, seed, chain)
    assert extended.r == 3
    assert extended.factors[0].algebra.dim == 27
    assert len(extended.factors) == 3
    assert not extended.product.is_zero
    assert verify_witness(alg, extended).ok


# -- witness verification ----------------------------------------------------------------


def test_verify_witness_accepts_exact_output(stanley):
    res = zcl_exact(stanley, 2)
    report = verify_witness(stanley, res.witness)
    assert report.ok
    assert report.problems == ()


def test_verify_witness_rejects_tampered_factor(stanley):
    res = zcl_exact(stanley, 2)
    sq = stanley.tensor_power(2)
    tampered = Witness(
        2, (res.witness.factors[0], sq.one_element()), res.witness.product
    )
    report = verify_witness(stanley, tampered)
    assert not report.ok
    assert any("zero divisor" in p for p in report.problems)


def test_verify_witness_rejects_wrong_product(stanley):
    res = zcl_exact(stanley, 2)
    sq = stanley.tensor_power(2)
    forged = Witness(2, res.witness.factors, sq.one_element())
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
        yprod = yprod * y
    cstar, lam = yprod.items()[0]
    field = stanley.field
    inv_lam = field.inv(lam)
    d = stanley.dim
    sq = stanley.tensor_power(2)
    collapsed = [field.zero] * sq.dim
    for idx, c in extended.product.items():
        q, s = divmod(idx, d)
        if s == cstar:
            collapsed[q] = field.add(collapsed[q], field.mul(c, inv_lam))
    projected = sq.element(collapsed)
    assert projected == seed.witness.product or projected == -seed.witness.product
    assert not projected.is_zero


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


def _product_from_scratch(w):
    product = w.factors[0]
    for f in w.factors[1:]:
        product = product * f
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
            assert w.product == _product_from_scratch(w), (alg.name, w.r)
            assert verify_witness(alg, w).ok, (alg.name, w.r)
        assert len(w) == len(seed) + 6 * clres.value
        checked += 1
    assert checked > 50


def test_extended_witness_built_on_a_forgery_is_rejected(stanley):
    seed = zcl_exact(stanley, 2).witness
    chain = cup_length(stanley).chain
    forged = Witness(2, seed.factors, seed.product.scale(2))
    report = verify_witness(stanley, witness_extend(stanley, forged, chain))
    assert not report.ok
    assert any("differs" in p for p in report.problems)
    good = witness_extend(stanley, seed, chain)
    cube = stanley.tensor_power(3)
    tampered = Witness(3, (cube.one_element(),) + good.factors[1:], good.product, good.chain)
    report = verify_witness(stanley, tampered)
    assert not report.ok
    assert any("zero divisor" in p for p in report.problems)


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
    assert report.ok and report.projection_checked
    assert elapsed < 1.0


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


def test_series_past_the_ceiling_to_r_30_is_certified(stanley):
    outcome = series_pipeline(stanley, 30, max_dim=256)
    assert outcome.certified
    assert outcome.sequence.values == tuple(range(2, 32))
    assert outcome.p_at_one == 1
    assert [e.method for e in outcome.entries] == ["exact"] * 3 + ["bounds"] * 27
    for e in outcome.entries:
        if e.method == "exact":
            assert e == zcl_exact(stanley, e.r, max_dim=256)
        else:
            assert e == zcl_bounds(stanley, e.r, max_dim=256)


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


def test_zcl_exact_matches_oracle_small(stanley):
    assert zcl_exact(stanley, 2).value == zcl_oracle(stanley, 2)
    assert zcl_exact(exterior_line(), 2).value == zcl_oracle(exterior_line(), 2)
    assert zcl_exact(even_sphere(), 3).value == zcl_oracle(even_sphere(), 3)


def test_zero_divisor_generators_generate_the_kernel(corpus):
    # zcl_exact relies on ker(mu_r) being the ideal generated by b^(s) - b^(1)
    checked = 0
    for alg in corpus:
        for r in range(2, 7):
            if alg.dim ** r > 81:
                break
            power = alg.tensor_power(r, max_dim=None)
            gens = Subspace.from_sparse_rows(
                alg.field, _zero_divisor_generators(power), power.dim
            )
            ideal = subspace_product(
                full_space(alg.field, power.dim), gens, power.product_items
            )
            assert ideal.dim == power.dim - alg.dim, (alg.name, r)
            assert ideal == kernel_mu(alg, r, max_dim=None), (alg.name, r)
            checked += 1
    assert checked > 300


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
    assert pickle.loads(pickle.dumps(Field.prime(7))).sub(2, 5) == 4

    def summary(alg):
        cl = cup_length(alg)
        res = zcl_exact(alg, 2)
        witness = [str(f) for f in res.witness.factors] + [str(res.witness.product)]
        return cl.value, [str(e) for e in cl.chain], res.value, res.upper, witness

    alg = builtin_algebra("surface:1")
    fresh = pickle.loads(pickle.dumps(alg))
    expected = summary(alg)
    warmed = pickle.loads(pickle.dumps(alg))  # caches filled by the run above
    assert summary(fresh) == expected == summary(warmed)
    assert verify_witness(warmed, zcl_exact(warmed, 2).witness).ok
