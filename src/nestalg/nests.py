"""Finite chains of subspaces ordered by inclusion, with {0} and the whole space."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .fields import Field
from .matrices import Matrix, Vector, int_row, integer_inverse
from .subspaces import Subspace, enumerate_subspaces, full, span_of, zero_subspace


class IncomparableError(ValueError):
    """Two candidate members are not nested either way."""

    def __init__(self, a: Subspace, b: Subspace):
        self.a = a
        self.b = b
        super().__init__(
            f"members are incomparable: span{a.basis.to_nested()} vs span{b.basis.to_nested()}"
        )


@dataclass(frozen=True)
class Nest:
    """A maximal-information chain: {0} = chain[0] < ... < chain[-1] = F^n."""

    field: Field
    ambient_dim: int
    chain: tuple[Subspace, ...]

    @property
    def atoms(self) -> tuple[int, ...]:
        """Dimension jumps between consecutive members."""
        return tuple(b.dim - a.dim for a, b in zip(self.chain, self.chain[1:]))

    @cached_property
    def frame(self) -> tuple[list, list, tuple[int, ...]]:
        """A basis of F^n adapted to the chain, as (columns of S, rows of
        S^-1, block), the columns and rows as ints.  The columns of S are,
        member by member, the RREF basis rows of each nonzero member whose
        pivot is not a pivot of its predecessor, as the member's
        `int_rows`; the rows of S^-1 are those of the inverse of that
        scaled S, each times a nonzero int (`integer_inverse`).  Over GF(p)
        both are residues, unscaled.  block[c] is the atom of column c, so
        member k is spanned by the columns with block < k.  The scalings
        turn S^-1 T S into D_r (S^-1 T S) D_c for nonzero diagonal D_r and
        D_c, which keeps its zero pattern."""
        columns: list[Vector] = []
        block: list[int] = []
        for k, (pred, member) in enumerate(zip(self.chain, self.chain[1:])):
            fresh = [v for v, pc in zip(member.int_rows, member.pivots) if pc not in pred.pivots]
            columns += fresh
            block += [k] * len(fresh)
        f, n = self.field, self.ambient_dim
        aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(zip(*columns))]
        return columns, [row[n:] for row in integer_inverse(f, aug)], tuple(block)

    def __repr__(self) -> str:
        dims = [s.dim for s in self.chain]
        return f"Nest({self.field!r}^{self.ambient_dim}, dims {dims})"

    def __contains__(self, s: Subspace) -> bool:
        return s in self.chain

    def principal(self, x) -> Subspace:
        """Smallest member containing x; x must be nonzero."""
        return self.chain[self._principal_index(x)]

    def principal_pred(self, x) -> Subspace:
        """Largest member not containing x, the predecessor of principal(x)."""
        return self.chain[self._principal_index(x) - 1]

    def dual(self) -> Nest:
        """The chain of annihilators in the coordinate dual, reversed."""
        members = [s.annihilator() for s in reversed(self.chain)]
        return Nest(self.field, self.ambient_dim, tuple(members))

    def _principal_index(self, x) -> int:
        """The index of the smallest member holding the nonzero vector x of
        F^n, read as one int row (`int_row`); at least 1, as chain[0] = {0},
        and found, as the top member holds every vector."""
        x = int_row(self.field, x)[0]
        if len(x) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        if not any(x):
            raise ValueError("the zero vector has no principal member")
        return next(i for i, member in enumerate(self.chain) if member.contains_ints(x))


def new_nest(field: Field, ambient_dim: int, members) -> Nest:
    """Build a nest from arbitrary members: dedupe, sort, add {0} and F^n.

    Raises IncomparableError when two members fail to nest.
    """
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be at least 1")
    members = list(members)
    if any(s.field != field or s.ambient_dim != ambient_dim for s in members):
        raise ValueError("member has wrong field or ambient dimension")
    bounds = [zero_subspace(field, ambient_dim), full(field, ambient_dim)]
    seen = sorted(dict.fromkeys([*members, *bounds]), key=lambda s: s.dim)
    for a, b in zip(seen, seen[1:]):
        if not a.leq(b):
            raise IncomparableError(a, b)
    return Nest(field, ambient_dim, tuple(seen))


def trivial_nest(field: Field, ambient_dim: int) -> Nest:
    return new_nest(field, ambient_dim, [])


def coordinate_nest(field: Field, parts: tuple[int, ...]) -> Nest:
    """The coordinate chain whose dimension jumps are the given composition."""
    if not parts or any(p < 1 for p in parts):
        raise ValueError("parts must be positive")
    n = sum(parts)
    ident = Matrix.identity(field, n).ints
    return new_nest(field, n, [span_of(ident[:c], field, n) for c in itertools.accumulate(parts[:-1])])


def flag_nest(field: Field, n: int) -> Nest:
    """The full coordinate flag: every jump has dimension one."""
    return coordinate_nest(field, (1,) * n)


def iter_compositions(n: int) -> list[tuple[int, ...]]:
    """All ordered tuples of positive ints summing to n (2^(n-1) of them),
    in lexicographic order: one per set of cut points in 1..n-1."""
    if n < 1:
        raise ValueError("n must be positive")
    cuts = (c for k in range(n) for c in itertools.combinations(range(1, n), k))
    return sorted(tuple(b - a for a, b in zip((0, *c), (*c, n))) for c in cuts)


def ordinal_sum(first: Nest, second: Nest) -> Nest:
    """Stack two nests: members of the first, then first's whole space + members
    of the second, inside F^(n1+n2)."""
    if first.field != second.field:
        raise ValueError("field mismatch")
    f = first.field
    n1, n2 = first.ambient_dim, second.ambient_dim
    n = n1 + n2
    zeros1, zeros2 = (0,) * n1, (0,) * n2
    members = [span_of([row + zeros2 for row in s.int_rows], f, n) for s in first.chain]
    top1 = [row + zeros2 for row in Matrix.identity(f, n1).ints]
    members += [span_of(top1 + [zeros1 + row for row in s.int_rows], f, n) for s in second.chain[1:]]
    return new_nest(f, n, members)


def iter_nests(field: Field, ambient_dim: int):
    """All nests of GF(p)^n, one per chain of proper nonzero subspaces.

    Inherits the enumeration bound of enumerate_subspaces.
    """
    proper = [
        s for s in enumerate_subspaces(field, ambient_dim) if 0 < s.dim < ambient_dim
    ]

    def extend(prefix: list[Subspace], start: int):
        yield new_nest(field, ambient_dim, prefix)
        for i in range(start, len(proper)):
            s = proper[i]
            if not prefix or (prefix[-1].dim < s.dim and prefix[-1].leq(s)):
                yield from extend(prefix + [s], i + 1)

    yield from extend([], 0)
