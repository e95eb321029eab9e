"""Finite chains of subspaces ordered by inclusion, with {0} and the whole space."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fields import Field
from .matrices import Vector, coerce_vector, integer_inverse, integer_vector, is_zero_vector
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
        return tuple(
            self.chain[i + 1].dim - self.chain[i].dim for i in range(len(self.chain) - 1)
        )

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
        x = self._check_vector(x)
        for member in self.chain:
            if member.contains_ints(x):
                return member
        raise AssertionError("unreachable: the top member contains every vector")

    def principal_pred(self, x) -> Subspace:
        """Largest member not containing x, the predecessor of principal(x)."""
        x = self._check_vector(x)
        for pred, member in zip(self.chain, self.chain[1:]):
            if member.contains_ints(x):
                return pred
        raise AssertionError("unreachable: the top member contains every vector")

    def dual(self) -> Nest:
        """The chain of annihilators in the coordinate dual, reversed."""
        members = [s.annihilator() for s in reversed(self.chain)]
        return Nest(self.field, self.ambient_dim, tuple(members))

    def _check_vector(self, x) -> list:
        """The nonzero vector x of F^n as one int row (`integer_vector`)."""
        f, n = self.field, self.ambient_dim
        x = coerce_vector(f, x)
        if len(x) != n:
            raise ValueError("vector length mismatch")
        if is_zero_vector(x):
            raise ValueError("the zero vector has no principal member")
        return integer_vector(f, x)[0]


def new_nest(field: Field, ambient_dim: int, members) -> Nest:
    """Build a nest from arbitrary members: dedupe, sort, add {0} and F^n.

    Raises IncomparableError when two members fail to nest.
    """
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be at least 1")
    seen: list[Subspace] = []
    for s in members:
        if s.field != field or s.ambient_dim != ambient_dim:
            raise ValueError("member has wrong field or ambient dimension")
        if s not in seen:
            seen.append(s)
    bottom = zero_subspace(field, ambient_dim)
    top = full(field, ambient_dim)
    for s in (bottom, top):
        if s not in seen:
            seen.append(s)
    seen.sort(key=lambda s: s.dim)
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
    members = []
    cut = 0
    ident = full(field, n).basis.entries
    for p in parts[:-1]:
        cut += p
        members.append(span_of(ident[:cut], field, n))
    return new_nest(field, n, members)


def flag_nest(field: Field, n: int) -> Nest:
    """The full coordinate flag: every jump has dimension one."""
    return coordinate_nest(field, (1,) * n)


def iter_compositions(n: int):
    """All ordered tuples of positive ints summing to n (2^(n-1) of them)."""
    if n < 1:
        raise ValueError("n must be positive")

    def rec(remaining: int):
        if remaining == 0:
            yield ()
            return
        for first in range(1, remaining + 1):
            for rest in rec(remaining - first):
                yield (first,) + rest

    yield from rec(n)


def ordinal_sum(first: Nest, second: Nest) -> Nest:
    """Stack two nests: members of the first, then first's whole space + members
    of the second, inside F^(n1+n2)."""
    if first.field != second.field:
        raise ValueError("field mismatch")
    f = first.field
    n1, n2 = first.ambient_dim, second.ambient_dim
    n = n1 + n2
    zeros1 = tuple(f.zero() for _ in range(n1))
    zeros2 = tuple(f.zero() for _ in range(n2))
    members = []
    for s in first.chain:
        members.append(span_of([row + zeros2 for row in s.basis.entries], f, n))
    top1 = [row + zeros2 for row in full(f, n1).basis.entries]
    for s in second.chain[1:]:
        members.append(span_of(top1 + [zeros1 + row for row in s.basis.entries], f, n))
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
