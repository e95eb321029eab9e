"""Seeded input generation for the benchmark, with its own small exact
linear algebra (Fractions over Q, ints mod p) so that the inputs do not
come from the code under test.

A flag is an invertible matrix S whose columns s_1..s_n give the nest
members span(s_1..s_c) at the cut points c of a composition.  In the
basis S every operator of the nest algebra is block upper triangular,
which is what the benchmark's independent checks rely on.
"""

from __future__ import annotations

import random
from fractions import Fraction

NONZERO_SMALL = (-3, -2, -1, 1, 2, 3)


def compositions(n: int):
    """All ordered tuples of positive ints summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def cuts(parts) -> list[int]:
    """Dimensions of the proper members of the nest with these atoms."""
    out, c = [], 0
    for a in parts[:-1]:
        c += a
        out.append(c)
    return out


def atom_dims(parts) -> tuple[int, int]:
    """(dim of the algebra, dim of the strict ideal) from the atom sizes."""
    alg = sum(parts[i] * parts[j] for i in range(len(parts)) for j in range(i, len(parts)))
    strict = sum(parts[i] * parts[j] for i in range(len(parts)) for j in range(i + 1, len(parts)))
    return alg, strict


def norm(x, p):
    return Fraction(x) if p is None else x % p


def inverse(rows, p=None):
    """Inverse of a square matrix by Gauss-Jordan, or None if singular."""
    n = len(rows)
    aug = [[norm(x, p) for x in row] + [norm(int(i == j), p) for j in range(n)]
           for i, row in enumerate(rows)]
    for c in range(n):
        pr = next((i for i in range(c, n) if aug[i][c]), None)
        if pr is None:
            return None
        aug[c], aug[pr] = aug[pr], aug[c]
        inv = 1 / aug[c][c] if p is None else pow(aug[c][c], -1, p)
        aug[c] = [norm(x * inv, p) for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [norm(x - f * y, p) for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def rank(rows, p=None) -> int:
    """Rank by forward elimination."""
    m = [[norm(x, p) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c] if p is None else pow(m[r][c], -1, p)
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [norm(x - f * y, p) for x, y in zip(m[i], m[r])]
        r += 1
    return r


def matmul(a, b, p=None):
    cols = list(zip(*b))
    return [[norm(sum(x * y for x, y in zip(row, col)), p) for col in cols] for row in a]


def random_flag(rng: random.Random, n: int, p=None):
    """(S, S^-1): over Q entries are drawn from NONZERO_SMALL, over GF(p)
    uniformly; redrawn until S is invertible."""
    while True:
        if p is None:
            s = [[rng.choice(NONZERO_SMALL) for _ in range(n)] for _ in range(n)]
        else:
            s = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        s_inv = inverse(s, p)
        if s_inv is not None:
            return [[norm(x, p) for x in row] for row in s], s_inv


def block_upper(rng: random.Random, parts, p=None, strict=False):
    """A random matrix that is (strictly) block upper triangular for the atoms."""
    level = [k for k, a in enumerate(parts) for _ in range(a)]
    n = len(level)

    def entry(i, j):
        if level[i] > level[j] or (strict and level[i] == level[j]):
            return norm(0, p)
        return norm(rng.randint(-2, 2), p) if p is None else rng.randrange(p)

    return [[entry(i, j) for j in range(n)] for i in range(n)]


def conjugate(s, b, s_inv, p=None):
    """S B S^-1: an operator of the nest on S whose S-coordinates are B."""
    return matmul(matmul(s, b, p), s_inv, p)


def columns(s, upto: int):
    """The first `upto` columns of S as vectors."""
    return [tuple(row[j] for row in s) for j in range(upto)]


def scalar_json(x, p=None):
    """A scalar in the CLI's JSON form: 'n' or 'n/d' strings over Q, ints mod p."""
    if p is not None:
        return int(x)
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def matrix_json(rows, p=None):
    return [[scalar_json(x, p) for x in row] for row in rows]


def nest_spec(s, parts, p=None, name=None) -> dict:
    """A CLI nest spec for the nest with these atoms on the flag S."""
    doc = {
        "field": "Q" if p is None else {"p": p},
        "dim": len(s),
        "chain": [matrix_json(columns(s, c), p) for c in cuts(parts)],
    }
    if name is not None:
        doc["name"] = name
    return doc
