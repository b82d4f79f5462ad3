"""Shared fixtures: the builtin instances and a seeded corpus of random algebras.

Corpus entries are built from constructions that are associative by design
(zero-product tables, truncated polynomial or exterior generators, dual
pairs, degree-truncated tensor products) and every one is still pushed
through full validation; the invariants under test never feed back into
the generator.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

import zclkit
from zclkit import (
    AlgebraPresentation,
    Field,
    builtin_algebra,
    cup_length,
    tensor_product,
    validate_algebra,
    zcl_exact,
)

CORPUS_SEED = 20250810
CORPUS_SIZE = 110
MAX_CORPUS_DIM = 5
MAX_CORPUS_DEG = 6

FIELDS = [Field(2), Field(3), Field(5), Field()]

BUILTIN_INSTANCES = (
    "point",
    "stanley-p3",
    "sphere-odd:1",
    "sphere-odd:3",
    "sphere-even:2",
    "surface:1",
    "surface:2",
)


def _zero_table(rng: random.Random, field: Field, tag: str) -> AlgebraPresentation:
    k = rng.randint(1, MAX_CORPUS_DIM - 1)
    basis = [("1", 0)] + [
        (f"g{n}", rng.randint(1, MAX_CORPUS_DEG)) for n in range(1, k + 1)
    ]
    return AlgebraPresentation.from_labels(tag, field, basis)


def _truncated_generator(rng: random.Random, field: Field, tag: str) -> AlgebraPresentation:
    if field.characteristic == 2:
        deg = rng.randint(1, 3)
        height = rng.randint(2, min(MAX_CORPUS_DIM, MAX_CORPUS_DEG // deg + 1))
    else:
        deg = rng.randint(1, MAX_CORPUS_DEG)
        if deg % 2:
            height = 2  # odd degree: an exterior generator squares to zero
        else:
            height = rng.randint(2, min(MAX_CORPUS_DIM, MAX_CORPUS_DEG // deg + 1))
    basis = [("1", 0)] + [(f"x{k}", k * deg) for k in range(1, height)]
    products = {}
    for i in range(1, height):
        for j in range(i, height):
            if i + j < height:
                products[(f"x{i}", f"x{j}")] = {f"x{i+j}": 1}
    return AlgebraPresentation.from_labels(tag, field, basis, products)


def _dual_pair(rng: random.Random, field: Field, tag: str) -> AlgebraPresentation:
    da, db = rng.randint(1, 3), rng.randint(1, 3)
    basis = [("1", 0), ("a", da), ("b", db), ("c", da + db)]
    products = {("a", "b"): {"c": 1}}
    return AlgebraPresentation.from_labels(tag, field, basis, products)


def _degree_truncate(alg, tag: str, max_dim: int, max_deg: int) -> AlgebraPresentation:
    """Quotient by everything above a degree cap chosen so dim stays small."""
    degrees = alg.degrees
    best = 0
    for cap in sorted({d for d in degrees if d <= max_deg}):
        if sum(1 for d in degrees if d <= cap) <= max_dim:
            best = max(best, cap)
    keep = [i for i, d in enumerate(degrees) if d <= best]
    remap = {old: new for new, old in enumerate(keep)}
    basis = [(alg.label_of(i), alg.degree_of(i)) for i in keep]
    products = {}
    for a, i in enumerate(keep):
        if alg.degree_of(i) == 0:
            continue
        for j in keep[a:]:
            if alg.degree_of(j) == 0:
                continue
            row = {remap[k]: c for k, c in alg.basis_product(i, j).items() if k in remap}
            if row:
                products[(remap[i], remap[j])] = row
    return AlgebraPresentation(tag, alg.field, tuple(basis), products)


def make_random_presentation(rng: random.Random, tag: str) -> AlgebraPresentation:
    field = rng.choice(FIELDS)
    kind = rng.choice(["zero", "trunc", "dual", "tensor"])
    if kind == "zero":
        return _zero_table(rng, field, tag)
    if kind == "trunc":
        return _truncated_generator(rng, field, tag)
    if kind == "dual":
        return _dual_pair(rng, field, tag)
    left = validate_algebra(_truncated_generator(rng, field, f"{tag}L"))
    right = validate_algebra(
        rng.choice([_truncated_generator, _zero_table])(rng, field, f"{tag}R")
    )
    combined = tensor_product(left, right)
    return _degree_truncate(combined, tag, MAX_CORPUS_DIM, MAX_CORPUS_DEG)


def make_random_corpus(count: int = CORPUS_SIZE, seed: int = CORPUS_SEED):
    rng = random.Random(seed)
    algebras = []
    for n in range(count):
        pres = make_random_presentation(rng, f"rand-{n:03d}")
        alg = validate_algebra(pres)
        assert alg.dim <= MAX_CORPUS_DIM
        assert max(alg.degrees) <= MAX_CORPUS_DEG
        algebras.append(alg)
    return algebras


@pytest.fixture(scope="session")
def child_env():
    """Environment for a child interpreter: this source tree first on the path, no ceiling.

    Output is block-buffered, as it is by default into a file or a pipe, so a
    report that is not flushed before the process ends is lost.
    """
    src = str(Path(zclkit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("ZCLKIT_MAX_DIM", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def stanley():
    return builtin_algebra("stanley-p3")


@pytest.fixture(scope="session")
def builtin_corpus():
    return [builtin_algebra(name) for name in BUILTIN_INSTANCES]


@pytest.fixture(scope="session")
def random_corpus():
    return make_random_corpus()


@pytest.fixture(scope="session")
def corpus(builtin_corpus, random_corpus):
    return builtin_corpus + random_corpus


@pytest.fixture(scope="session")
def corpus_zcl_table(corpus):
    """Exact zcl values for every corpus algebra at each r with dim**r <= 81."""
    table = []
    for alg in corpus:
        cl_value = cup_length(alg).value
        rs = [r for r in range(2, 7) if alg.dim ** r <= 81]
        values = {r: zcl_exact(alg, r, max_dim=81).value for r in rs}
        table.append((alg, cl_value, values))
    return table
