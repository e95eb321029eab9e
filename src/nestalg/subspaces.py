"""Subspaces of F^n with lattice operations and annihilators in the dual."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lcm

from .fields import Field, Scalar
from .matrices import Matrix, Vector, echelon, int_row, integer_kernel, leads, solve


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^ambient_dim, stored by its canonical RREF basis.

    The basis matrix has no zero rows, so structurally equal subspaces
    compare equal and dim == basis.rows.  The lattice operations and the
    membership tests run on `int_rows`, the basis' stored int rows.
    """

    field: Field
    ambient_dim: int
    basis: Matrix

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.field!r}^{self.ambient_dim})"

    @cached_property
    def int_rows(self) -> tuple:
        """The basis rows as ints, as the basis stores them: over QQ row i
        over its denominator L_i in lowest terms is row i times L_i, a
        primitive row with leading entry L_i; over GF(p) the residue rows."""
        return self.basis.ints

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """Pivot column of each basis row, computed on first use."""
        return tuple(next(j for j, x in enumerate(row) if x) for row in self.int_rows)

    def contains(self, v) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        return self.contains_ints(int_row(self.field, v)[0])

    def contains_ints(self, v) -> bool:
        """Does the subspace hold the vector with int row v: over QQ any
        nonzero int multiple of it, over GF(p) its residues?"""
        return not any(self._residual(v)[0])

    def _residual(self, v) -> tuple[list, int]:
        """(r, L): r = L v - sum of v[p_i] (L / L_i) R_i over the `int_rows`
        R_i with pivot p_i and leading entry L_i, for L the lcm of the L_i.
        r is L times the residual of v against the canonical rows, zero
        exactly when v lies in the subspace.  Pivot columns are clear in
        the other rows, so v[p_i] is r's entry at p_i, over L, until row i
        is subtracted.  Over GF(p) every L_i is 1 and r is reduced mod p."""
        rows, pivots = self.int_rows, self.pivots
        scale = lcm(*[row[pc] for row, pc in zip(rows, pivots)])
        r = [scale * x for x in v] if scale != 1 else list(v)
        for row, pc in zip(rows, pivots):
            c = v[pc]
            if c:
                c *= scale // row[pc]
                r = [a - c * b for a, b in zip(r, row)]
        p = self.field.p
        return (r if p is None else [x % p for x in r]), scale

    def reduce(self, v) -> Vector:
        """Residual of v after eliminating against the RREF basis rows: zero
        exactly when v lies in the subspace (`_residual`, divided out), as a
        `Vector`."""
        ints, den = int_row(self.field, v)
        r, scale = self._residual(ints)
        return Vector._ints(self.field, [r], [den * scale], self.ambient_dim)

    @cached_property
    def elements(self) -> frozenset:
        """All p**dim vectors of the subspace over GF(p), computed on first use."""
        if self.field.is_rationals:
            raise ValueError("a subspace over the rationals cannot be enumerated")
        coeffs = tuple(itertools.product(self.field.elements(), repeat=self.dim))
        return frozenset((Matrix._of(self.field, coeffs, self.dim) @ self.basis).entries)

    def leq(self, other: Subspace) -> bool:
        self._check_peer(other)
        if self.dim > other.dim:
            return False
        return all(other.contains_ints(row) for row in self.int_rows)

    def meet(self, other: Subspace) -> Subspace:
        """Intersection: the kernel of the stacked annihilator rows."""
        self._check_peer(other)
        f, n = self.field, self.ambient_dim
        constraints = [*self._annihilator.int_rows, *other._annihilator.int_rows]
        return _from_int_rows(f, n, integer_kernel(f, constraints, n))

    def join(self, other: Subspace) -> Subspace:
        self._check_peer(other)
        f, n = self.field, self.ambient_dim
        return _from_int_rows(f, n, *echelon(f, [*self.int_rows, *other.int_rows], n))

    def annihilator(self) -> Subspace:
        """{phi in the dual : phi vanishes on this subspace}, computed on
        first use.  The result is a fresh subspace that does not know its
        own annihilator, so a double annihilator is always computed."""
        return self._annihilator

    @cached_property
    def _annihilator(self) -> Subspace:
        f, n = self.field, self.ambient_dim
        return _from_int_rows(f, n, integer_kernel(f, self.int_rows, n))

    def _check_peer(self, other: Subspace) -> None:
        if other.field != self.field or other.ambient_dim != self.ambient_dim:
            raise ValueError("subspaces live in different ambient spaces")


def _from_int_rows(field: Field, ambient_dim: int, rows, pivots=None) -> Subspace:
    """The subspace whose canonical rows are positive multiples of the int
    rows, as `echelon` and `integer_kernel` give them (over GF(p) the
    canonical residue rows themselves): each row over its leading entry,
    in lowest terms, is its canonical row."""
    dens = leads(rows) if field.p is None else None  # over GF(p) the leads are 1
    s = Subspace(field, ambient_dim, Matrix._ints(field, rows, dens, ambient_dim))
    if pivots is not None:
        s.__dict__["pivots"] = tuple(pivots)
    return s


def span_of(vectors, field: Field, ambient_dim: int) -> Subspace:
    """Span of the given vectors; the empty list spans {0}."""
    rows = [int_row(field, v)[0] for v in vectors]
    for r in rows:
        if len(r) != ambient_dim:
            raise ValueError("vector length mismatch")
    return _from_int_rows(field, ambient_dim, *echelon(field, rows, ambient_dim))


@lru_cache(maxsize=None)  # one {0} and one F^n per (field, n), shared by every nest
def zero_subspace(field: Field, ambient_dim: int) -> Subspace:
    return Subspace(field, ambient_dim, Matrix.zeros(field, 0, ambient_dim))


@lru_cache(maxsize=None)
def full(field: Field, ambient_dim: int) -> Subspace:
    return Subspace(field, ambient_dim, Matrix.identity(field, ambient_dim))


def complement_within(inner: Subspace, outer: Subspace) -> Subspace:
    """A complement C of inner within outer (inner + C = outer, direct).

    Deterministic: outer's RREF basis rows are scanned in order and kept
    greedily whenever they grow the span.
    """
    if not inner.leq(outer):
        raise ValueError("inner is not contained in outer")
    chosen, span = [], inner
    for row in outer.int_rows:
        if not span.contains_ints(row):
            chosen.append(row)
            span = span_of([*inner.int_rows, *chosen], inner.field, inner.ambient_dim)
    return span_of(chosen, inner.field, inner.ambient_dim)


@dataclass(frozen=True)
class Functional:
    """A linear functional on F^ambient_dim, stored by its coefficient row,
    a `Vector` (read from scalars on construction)."""

    field: Field
    ambient_dim: int
    coeffs: Vector

    def __post_init__(self):
        object.__setattr__(self, "coeffs", Vector(self.field, self.coeffs))

    def __call__(self, v) -> Scalar:
        return self.coeffs.apply(v)[0]

    def is_zero(self) -> bool:
        return self.coeffs.is_zero()

    def kernel(self) -> Subspace:
        f, n = self.field, self.ambient_dim
        return _from_int_rows(f, n, integer_kernel(f, self.coeffs.ints, n))


def separating_functional(x, w: Subspace) -> Functional:
    """A functional with phi(x) = 1 vanishing on w; requires x outside w.

    Deterministic: the defining system is solved with free dual
    coordinates set to zero (`solve`); it has no solution for x in w.
    """
    f, n = w.field, w.ambient_dim
    x = Vector(f, x)
    if len(x) != n:
        raise ValueError("vector length mismatch")
    phi = solve(Matrix._wrap(f, w.int_rows + x.ints, w.basis.dens + x.dens, n), (0,) * w.dim + (1,))
    if phi is None:
        raise ValueError("x lies in w, no separating functional exists")
    return Functional(f, n, phi)


@lru_cache(maxsize=None)
def _enumerate_subspaces(p: int, ambient_dim: int) -> tuple[Subspace, ...]:
    field = Field(p)
    elements = field.elements()
    out = []
    for k in range(ambient_dim + 1):
        for pivots in itertools.combinations(range(ambient_dim), k):
            free_slots = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, ambient_dim)
                if c not in pivots
            ]
            for values in itertools.product(elements, repeat=len(free_slots)):
                rows = [[int(c == pc) for c in range(ambient_dim)] for pc in pivots]
                for (r, c), val in zip(free_slots, values):
                    rows[r][c] = val
                out.append(Subspace(field, ambient_dim, Matrix(field, rows, cols=ambient_dim)))
    out.sort(key=lambda s: (s.dim, s.basis.entries))
    return tuple(out)


@lru_cache(maxsize=None)
def pair_tables(p: int, ambient_dim: int) -> tuple[tuple, tuple]:
    """Bitmasks over the pairs (k, y), bit k * p^n + j for the k-th distinct
    basis row v_k of the subspaces of GF(p)^n and the j-th vector y in
    product order; call enumerate_subspaces first for its bound check.
    `rows[i]` maps a vector r to the pairs with y_i = r . v_k mod p, so the
    AND over i of rows[i][t_i] is the pairs (k, t v_k) of the operator with
    rows t_i.  `excluded[pair]` masks, by enumeration index, the subspaces
    that have v_k as a basis row but do not contain y."""
    subspaces = _enumerate_subspaces(p, ambient_dim)
    basis_rows = tuple(dict.fromkeys(v for s in subspaces for v in s.basis.entries))
    vectors = tuple(itertools.product(range(p), repeat=ambient_dim))
    width = len(vectors)
    # level[i][c]: the vectors y with y_i = c, as a mask of width p^n
    level = [[sum(1 << j for j, y in enumerate(vectors) if y[i] == c) for c in range(p)]
             for i in range(ambient_dim)]
    images = {r: [sum(a * b for a, b in zip(r, v)) % p for v in basis_rows] for r in vectors}
    rows = tuple({r: sum(at[c] << k * width for k, c in enumerate(image))
                  for r, image in images.items()} for at in level)
    excluded = [0] * (len(basis_rows) * width)
    for bit, s in enumerate(subspaces):
        outside = [j for j, y in enumerate(vectors) if y not in s.elements]
        for pair in (basis_rows.index(v) * width + j for v in s.basis.entries for j in outside):
            excluded[pair] |= 1 << bit
    return rows, tuple(excluded)


def enumerate_subspaces(field: Field, ambient_dim: int) -> tuple[Subspace, ...]:
    """All subspaces of GF(p)^n in canonical order (dim, then basis entries).

    Enumerates reduced echelon bases directly, so each subspace appears
    exactly once.  Bounded to p in {2, 3} and n <= 4.
    """
    check_enumeration_bound(field, ambient_dim)
    return _enumerate_subspaces(field.p, ambient_dim)


def check_enumeration_bound(field: Field, ambient_dim: int) -> None:
    """Raise ValueError unless enumerate_subspaces accepts (field, ambient_dim)."""
    if field.is_rationals:
        raise ValueError("subspace enumeration needs a finite field")
    if field.p not in (2, 3) or ambient_dim > 4:
        raise ValueError("enumeration bound exceeded: need p in {2,3} and dim <= 4")
