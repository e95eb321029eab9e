"""Seeded random generators for nests, operators, and subspaces.

Everything takes an explicit random.Random so callers stay reproducible.
"""

from __future__ import annotations

import random

from .algebra import AlgebraBasis, _operators
from .fields import Field
from .matrices import Matrix, integer_product
from .nests import Nest, new_nest
from .subspaces import Subspace, span_of


def random_scalar(field: Field, rng: random.Random):
    """Uniform in GF(p), or an integer in [-3, 3] over Q, as an int."""
    return rng.randint(-3, 3) if field.p is None else rng.randrange(field.p)


def random_vector(field: Field, n: int, rng: random.Random, nonzero: bool = False) -> tuple:
    while True:
        v = tuple(random_scalar(field, rng) for _ in range(n))
        if not nonzero or any(v):
            return v


def random_matrix(field: Field, rows: int, cols: int, rng: random.Random) -> Matrix:
    return Matrix(field, tuple(tuple(random_scalar(field, rng) for _ in range(cols)) for _ in range(rows)))


def random_subspace(field: Field, n: int, rng: random.Random, dim: int | None = None) -> Subspace:
    """A random subspace; with dim given, keeps sampling until it is hit."""
    if dim is None:
        dim = rng.randint(0, n)
    while True:
        vectors = [random_vector(field, n, rng) for _ in range(dim)]
        s = span_of(vectors, field, n)
        if s.dim == dim:
            return s


def random_flag_vectors(field: Field, n: int, rng: random.Random) -> list[tuple]:
    """n linearly independent vectors, drawn with small entries."""
    vectors: list[tuple] = []
    current = span_of([], field, n)
    while len(vectors) < n:
        v = random_vector(field, n, rng, nonzero=True)
        if not current.contains(v):
            vectors.append(v)
            current = span_of(vectors, field, n)
    return vectors


def random_nest(field: Field, n: int, rng: random.Random, members: int | None = None) -> Nest:
    """A nest built on a random full flag with a random set of cut points."""
    vectors = random_flag_vectors(field, n, rng)
    max_cuts = n - 1
    if members is None:
        members = rng.randint(0, max_cuts)
    members = min(members, max_cuts)
    cuts = sorted(rng.sample(range(1, n), members)) if members else []
    chain = [span_of(vectors[:c], field, n) for c in cuts]
    return new_nest(field, n, chain)


def random_span_element(basis: AlgebraBasis, rng: random.Random, nonzero: bool = False) -> Matrix:
    """A random combination of the basis with small coefficients, drawn in
    basis order and formed as one integer product of the coefficient row
    with the basis' `scaled` ints (not its operators), over the scale."""
    f, n = basis.nest.field, basis.nest.ambient_dim
    ints, scale = basis.scaled
    while True:
        coeffs = [random_scalar(f, rng) for _ in ints]
        [row] = integer_product(f, [coeffs], ints, n * n)
        [t] = _operators(f, [row], [scale], (n, n))
        if not nonzero or not t.is_zero():
            return t
        if not ints:
            raise ValueError("the zero space has no nonzero element")
