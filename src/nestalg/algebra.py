"""Operators leaving every member of a nest invariant: bases, rank-one
calculus, idempotent and rank decompositions, and reflexivity checks."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from math import lcm
from operator import and_, getitem, or_

from .fields import Field
from .matrices import (
    Matrix,
    Vector,
    _residues,
    common_integer_rows,
    dots,
    echelon,
    int_row,
    integer_kernel,
    integer_product,
    integer_vectorize,
    leads,
    outer,
    solve,
)
from .nests import Nest
from .subspaces import (
    Functional,
    Subspace,
    _from_int_rows,
    check_enumeration_bound,
    enumerate_subspaces,
    pair_tables,
    separating_functional,
    span_of,
)

FULL = "full"
STRICT = "strict"
RADICAL = "radical"


@dataclass(frozen=True)
class AlgebraBasis:
    """A canonical basis of a space of operators attached to a nest.

    A basis the library builds (`_emit`) holds only its `scaled` ints; its
    operators, `basis`, are built from them the first time it is read."""

    nest: Nest
    kind: str
    basis: tuple[Matrix, ...]

    def __getattr__(self, name):
        # Reached only for an attribute the instance lacks: the `basis` of an
        # emitted basis, the `scaled` rows over the scale.
        if name != "basis" or "scaled" not in self.__dict__:
            raise AttributeError(name)
        ints, scale = self.scaled
        n = self.nest.ambient_dim
        basis = self.__dict__["basis"] = _operators(self.nest.field, ints, [scale] * len(ints), (n, n))
        return basis

    @property
    def dim(self) -> int:
        """The row count of `scaled`, read with no Fraction built."""
        return len(self.scaled[0])

    @cached_property
    def vectorized(self) -> Matrix:
        """The vectorized basis operators (`integer_vectorize`) as the rows
        of one matrix, in basis order, built on first use."""
        rows, dens = zip(*map(integer_vectorize, self.basis)) if self.basis else ((), ())
        return Matrix._ints(self.nest.field, rows, dens, self.nest.ambient_dim ** 2)

    @cached_property
    def scaled(self) -> tuple[list, int]:
        """(ints, scale): `vectorized` times one nonzero int scale, as ints
        (over GF(p) the residues, scale 1).  Carried by the bases the library
        builds (`_emit`); any other basis derives them from its `vectorized`."""
        return common_integer_rows(self.vectorized)

    @cached_property
    def span(self) -> Subspace:
        """The span in F^(n^2) of the basis, built on first use by one
        `echelon` of the `scaled` ints, so membership holds for any basis."""
        f, size = self.nest.field, self.nest.ambient_dim ** 2
        return _from_int_rows(f, size, *echelon(f, self.scaled[0], size))

    def contains(self, t: Matrix) -> bool:
        """Is t in the span (`Subspace.contains_ints` of its
        `integer_vectorize`)?"""
        _check_operator(self.nest, t)
        return self.span.contains_ints(integer_vectorize(t)[0])


def _emit(nest: Nest, kind: str, ints) -> AlgebraBasis:
    """The basis whose rows are the int rows ints, each divided by its
    leading entry, holding only `scaled`: over QQ each row times L / lead for
    the lcm L of the leads, the scale; over GF(p) ints themselves, which
    must be canonical residue rows (leading entry 1), as `echelon` and
    `integer_kernel` give them.  The dataclass __init__ is bypassed, so
    that `basis` stays unset until it is read."""
    rows, scale = ints, 1
    if nest.field.p is None:
        lead = leads(ints)
        scale = lcm(*lead)
        rows = [r if a == scale else [x * (scale // a) for x in r] for r, a in zip(ints, lead)]
    basis = object.__new__(AlgebraBasis)
    basis.__dict__.update(nest=nest, kind=kind, scaled=(rows, scale))
    return basis


class MembershipError(ValueError):
    """An operator fails a membership precondition; carries the chain member
    whose basis vector it moves out of bounds, that vector and the field."""

    def __init__(self, kind: str, member: Subspace, vector):
        self.member = member
        self.vector = vector
        self.field = member.field
        moved = ", ".join(map(str, Vector(member.field, vector).to_nested()[0]))
        space = "algebra" if kind == FULL else "strict ideal"
        super().__init__(
            f"operator is not in the {space}: it moves the basis vector "
            f"({moved}) of the chain member of dimension {member.dim} out of bounds"
        )


def _forbidden(kind: str, row_block: int, col_block: int) -> bool:
    """Must entry (r, c) of S^-1 T S vanish, given block[r] and block[c]
    (`Nest.frame`)?  T leaves every member invariant (FULL) iff it vanishes
    where block[r] > block[c], and maps every nonzero member into its
    predecessor (STRICT) iff it vanishes where block[r] >= block[c]."""
    return row_block > col_block if kind == FULL else row_block >= col_block


def _constraint_kernel(nest: Nest, kind: str) -> AlgebraBasis:
    """The canonical basis of the operators T of the kind: S^-1 T S is zero
    at every `_forbidden` entry (r, c), for S of `Nest.frame`.  Each kind
    solves the smaller of its two systems, both of sum_(i<j) a_i a_j rows.
    FULL: the kernel of one int row per forbidden entry (block[r] >
    block[c]) on the n^2 entries of T, row-major: a_i * v_j against T_ij,
    for row a of S^-1 and column v of S, a nonzero multiple of the entry's.
    STRICT: one `echelon` of the generators S E_rc S^-1 at the other entries
    (block[r] < block[c]): v_i * a_j for column v = r of S and row a = c of
    S^-1.  The entries are independent coordinates of T, so the rows of
    either system are as many as their rank."""
    f, n = nest.field, nest.ambient_dim
    columns, inv_rows, block = nest.frame
    pairs = [(r, c) for r in range(n) for c in range(n)]
    if kind == FULL:
        rows = [[a * v for a in inv_rows[r] for v in columns[c]]
                for r, c in pairs if _forbidden(kind, block[r], block[c])]
        return _emit(nest, kind, integer_kernel(f, rows, n * n))
    gens = [[v * a for v in columns[r] for a in inv_rows[c]]
            for r, c in pairs if not _forbidden(kind, block[r], block[c])]
    return _emit(nest, kind, echelon(f, gens, n * n)[0])


def _frame_entries(nest: Nest, ints, keep):
    """Yield (block[r], block[c], row) per position (r, c) with keep(block[r],
    block[c]), row-major: row k is u_r t_k v_c, t_k with int row ints[k], for
    u_r, v_c row r of S^-1 and column c of S (`Nest.frame`), up to a nonzero
    factor of (r, c), mod p.  Sums skip zeros, t_k indexed by position: one
    lookup a position on a coordinate frame; other u_r sum u_r t_k once."""
    n, d, p = nest.ambient_dim, len(ints), nest.field.p
    columns, inv_rows, block = nest.frame
    at = [[] for _ in range(n * n)]
    for k, v in enumerate(ints):
        for q in itertools.compress(range(n * n), v):
            at[q].append((k, v[q]))
    vs = [[(j, b) for j, b in enumerate(v) if b] for v in columns]
    for r, u in enumerate(inv_rows):
        cs = [c for c in range(n) if keep(block[r], block[c])]
        terms = [(i * n, a) for i, a in enumerate(u) if a] if cs else ()
        if len(terms) == 1:
            by_col = at[terms[0][0] : terms[0][0] + n]
        elif terms:
            sums = [{} for _ in range(n)]
            for i, a in terms:
                for j, m in enumerate(sums):
                    for k, x in at[i + j]:
                        m[k] = m.get(k, 0) + a * x
            by_col = [list(m.items()) for m in sums]
        for c in cs:
            acc = [0] * d
            for j, b in vs[c]:
                for k, x in by_col[j]:
                    acc[k] += b * x
            yield block[r], block[c], acc if p is None else [x % p for x in acc]


def _first_violation(nest: Nest, kind: str, conjugate) -> int | None:
    """None if the S^-1 t S of `_conjugate` vanishes at every `_forbidden`
    entry, else the least block[c] = k over its nonzero forbidden entries
    (r, c): member k + 1 is the first that t moves out of bounds, out of
    itself (FULL) or of its predecessor (STRICT)."""
    block = nest.frame[2]
    nonzero = ((r, c) for r, row in enumerate(conjugate) for c, x in enumerate(row) if x)
    return min((block[c] for r, c in nonzero if _forbidden(kind, block[r], block[c])), default=None)


def _vanishes(nest: Nest, ints, kind: str) -> bool:
    """Is every S^-1 t S, for t of ints (`_frame_entries`), zero at each
    `_forbidden` entry: is each t in the algebra (FULL) or J (STRICT)?"""
    return not any(any(row) for *_, row in _frame_entries(nest, ints, partial(_forbidden, kind)))


def _operators(field: Field, rows, dens, shape: tuple[int, int]) -> tuple[Matrix, ...]:
    """The operators of the given shape whose row-major entries are the int
    rows over the positive dens (over GF(p) residues), the inverse of
    `integer_vectorize`."""
    r, c = shape
    return tuple(
        Matrix._ints(field, [v[i * c : i * c + c] for i in range(r)], [den] * r, c)
        for v, den in zip(rows, dens)
    )


def alg_basis(nest: Nest) -> AlgebraBasis:
    """Canonical basis of the algebra of all operators preserving the chain."""
    return _constraint_kernel(nest, FULL)


def _conjugate(nest: Nest, t: Matrix) -> list:
    """S^-1 t S up to nonzero diagonal scalings D_r (.) D_c, as int rows, for
    t checked against the nest: t over one scale @ S, then S^-1 @ that, two
    dense products, which for one operator beat `_frame_entries`."""
    _check_operator(nest, t)
    f, n = nest.field, nest.ambient_dim
    columns, inv_rows, _ = nest.frame
    right = integer_product(f, common_integer_rows(t)[0], list(zip(*columns)), n)
    return integer_product(f, inv_rows, right, n)


def _violation(nest: Nest, t: Matrix, kind: str, conjugate=None):
    """None if t lies in the algebra (FULL) or the strict ideal (STRICT),
    else (member, basis vector of it that t moves out of bounds) for the
    first member whose constraint t breaks (`_first_violation`, on t's
    `_conjugate`, passed by a caller that holds it)."""
    if conjugate is None:
        conjugate = _conjugate(nest, t)
    k = _first_violation(nest, kind, conjugate)
    return None if k is None else (nest.chain[k + 1], _moved_vector(nest, t, kind, k))


def _moved_vector(nest: Nest, t: Matrix, kind: str, k: int) -> Vector:
    """The first basis row v of member k + 1 with t v outside that member
    (FULL) or outside member k (STRICT), tested on the int image of its
    `int_rows` under t over one scale."""
    source = nest.chain[k + 1]
    target = source if kind == FULL else nest.chain[k]
    ts = common_integer_rows(t)[0]
    i = next(i for i, v in enumerate(source.int_rows) if not target.contains_ints(dots(ts, v)))
    return source.basis.row(i)


def in_alg_witness(nest: Nest, t: Matrix):
    """None if t preserves every member, else (member, vector) violating it."""
    return _violation(nest, t, FULL)


def in_alg(nest: Nest, t: Matrix) -> bool:
    return in_alg_witness(nest, t) is None


def _require_member(nest: Nest, t: Matrix, kind: str = FULL, conjugate=None) -> None:
    """Raise MembershipError unless t lies in the algebra (or the strict
    ideal); `conjugate` as for `_violation`."""
    witness = _violation(nest, t, kind, conjugate)
    if witness is not None:
        raise MembershipError(kind, *witness)


def _check_operator(nest: Nest, t: Matrix) -> None:
    if t.field != nest.field:
        raise ValueError("operator field mismatch")
    if (t.rows, t.cols) != (nest.ambient_dim, nest.ambient_dim):
        raise ValueError("operator must be square of the ambient dimension")


@dataclass(frozen=True)
class RankOneOp:
    """The operator v -> phi(v) x for nonzero x and phi (x a `Vector` from `rank_one`).

    Slotted by its own __slots__ rather than slots=True, which replaces the
    class: the frozen __setattr__ then refers to the replaced class and
    raises TypeError, not FrozenInstanceError, for a name that is not a
    field."""

    __slots__ = ("x", "phi", "matrix")
    x: Vector
    phi: Functional
    matrix: Matrix

    @property
    def is_idempotent(self) -> bool:
        """phi(x) = 1, read on the ints of phi(x)."""
        return self.phi.coeffs.apply(self.x) == Vector(self.phi.field, (1,))


def rank_one(x, phi: Functional) -> RankOneOp:
    f = phi.field
    x = Vector(f, x)
    if len(x) != phi.ambient_dim:
        raise ValueError("vector and functional sizes differ")
    if x.is_zero() or phi.is_zero():
        raise ValueError("rank-one factors must be nonzero")
    return RankOneOp(x, phi, outer(f, x, phi.coeffs))


def rank_one_in_alg(nest: Nest, r: RankOneOp) -> bool:
    """Membership test for a rank-one operator: `in_alg` of its matrix,
    which holds iff phi kills the predecessor of x's principal member: its
    S^-1 (x (x) phi) S = (S^-1 x) (x) (phi S) vanishes where block[r] >
    block[c] iff no nonzero (S^-1 x)_r lies in a later block than a nonzero
    (phi S)_c."""
    f = nest.field
    if r.matrix.field != f or r.phi.ambient_dim != nest.ambient_dim:
        raise ValueError("rank-one operator does not match the nest")
    columns, inv_rows, block = nest.frame
    u, v = _residues(f, [dots(inv_rows, int_row(f, r.x)[0]), dots(columns, r.phi.coeffs.ints[0])])
    last = max(itertools.compress(block, u), default=0)
    return last <= min(itertools.compress(block, v), default=len(block))


def transporter(nest: Nest, x, y) -> RankOneOp:
    """A rank-one member R of the algebra with R x = y.

    Exists whenever y lies in the principal member of x (both nonzero):
    R = y (x) phi with phi(x) = 1 and phi vanishing on the predecessor of
    y's principal member.
    """
    x, y = Vector(nest.field, x), Vector(nest.field, y)
    if x.is_zero() or y.is_zero():
        raise ValueError("transporter needs nonzero vectors")
    if not nest.principal(x).contains(y):
        raise ValueError("y lies outside the principal member of x")
    return rank_one(y, separating_functional(x, nest.principal_pred(y)))


def idempotent_onto(nest: Nest, m: Subspace) -> tuple[Matrix, list[RankOneOp]]:
    """An idempotent P in the algebra with range m, split into rank-one parts.

    The RREF basis rows y_k of m are taken from the last to the first.  P,
    so far an idempotent onto the span `rest` of the rows after y_k, gains
    the rank-one (y_k - P y_k) (x) phi where phi kills both the principal
    predecessor and rest (`solve` on their rows, stacked).  The parts
    multiply to zero pairwise and sum to P, kept as int rows over one scale
    s: for y_k = Y / L, x = (s Y - P Y) / (s L).
    """
    if m.field != nest.field or m.ambient_dim != nest.ambient_dim:
        raise ValueError("subspace does not match the nest")
    if m.dim == 0:
        raise ValueError("no idempotent with zero range")
    f, n, rest = nest.field, nest.ambient_dim, m.basis
    ps, s = [[0] * n] * n, 1  # P = ps / s
    parts = []
    for k in reversed(range(m.dim)):
        y = rest.ints[k]
        x = Vector._ints(f, _residues(f, [[s * a - b for a, b in zip(y, dots(ps, y))]]), [s * rest.dens[k]], n)
        pred = nest.principal_pred(x).basis
        ints, dens = pred.ints + rest.ints[k + 1 :] + x.ints, pred.dens + rest.dens[k + 1 :] + x.dens
        phi = solve(Matrix._wrap(f, ints, dens, n), (0,) * (len(ints) - 1) + (1,))
        parts.append(rank_one(x, Functional(f, n, phi)))
        # P + x (x) phi over the lcm t of s and ab
        (xs,), (fs,), ab = x.ints, phi.ints, x.dens[0] * phi.dens[0]
        t = lcm(s, ab)
        ps = _residues(f, [[a * (t // s) + xi * b * (t // ab) for a, b in zip(row, fs)]
                           for row, xi in zip(ps, xs)])
        s = t
    return Matrix._ints(f, ps, [s] * n, n), parts


def range_of(t: Matrix) -> Subspace:
    """Column space of t: one `echelon` of the columns of t's rows over one
    scale (`common_integer_rows`)."""
    f = t.field
    return _from_int_rows(f, t.rows, *echelon(f, list(zip(*common_integer_rows(t)[0])), t.rows))


def rank_decompose(nest: Nest, t: Matrix) -> list[Matrix]:
    """Write a nonzero member t of the algebra as rank(t) rank-one members.

    Summands are P_k t for the rank-one parts P_k = x_k (x) phi_k of an
    idempotent onto range(t), one per dimension of the range.  None is zero:
    x_k lies in range(t) and phi_k(x_k) = 1, so phi_k does not vanish on it.
    """
    _require_member(nest, t)
    if t.is_zero():
        raise ValueError("the zero operator has no rank decomposition")
    _, parts = idempotent_onto(nest, range_of(t))
    return [p.matrix @ t for p in parts]


def strict_approximant(nest: Nest, t: Matrix, vectors) -> Matrix:
    """A sum of rank-ones t P_k of the algebra agreeing with t on span(vectors)."""
    _require_member(nest, t)
    f = nest.field
    spn = span_of(list(vectors), f, nest.ambient_dim)
    if spn.dim == 0:
        return Matrix.zeros(f, nest.ambient_dim, nest.ambient_dim)
    p, _ = idempotent_onto(nest, spn)
    return t @ p


def invariant_lattice(ops, field: Field, ambient_dim: int) -> list[Subspace]:
    """All subspaces of GF(p)^n invariant under every given operator.

    A filter over enumerate_subspaces, so its bound applies (p in {2,3},
    n <= 4), and no product is formed.  The pairs (k, t v_k) of an operator
    t, for the distinct enumerated basis rows v_k, are one bitmask: the AND
    of the tabulated masks of its rows (`pair_tables`).  Each pair of the
    union of these masks rules out, by its tabulated `excluded` mask, the
    subspaces with basis row v_k that miss t v_k; the rest are kept.
    """
    n = ambient_dim
    ops = tuple(ops)
    kinds = {(id(t.field), t.rows, t.cols): t.field for t in ops}  # one Field.__eq__ per kind
    if any(g != field or (r, c) != (n, n) for (_, r, c), g in kinds.items()):
        raise ValueError("operators must match the given field and shape")
    subspaces = enumerate_subspaces(field, n)
    rows, excluded = pair_tables(field.p, n)
    union = reduce(or_, [reduce(and_, map(getitem, rows, t.ints)) for t in ops], 0)
    # the set bits of the union, read from its binary digits, lowest first
    mask = reduce(or_, [excluded[i] for i, d in enumerate(reversed(bin(union))) if d == "1"], 0)
    return [s for bit, s in enumerate(subspaces) if not mask >> bit & 1]


@lru_cache(maxsize=None)
def _rank_one_table(p: int, n: int) -> dict:
    """x -> {phi: the RankOneOp x (x) phi} over the nonzero vectors of
    GF(p)^n, both in product order.  Built once per (p, n) and shared:
    every part of a RankOneOp is immutable."""
    f, ones = Field(p), (1,) * n
    vectors = {v: Vector._wrap(f, (v,), (1,), n)
               for v in itertools.product(range(p), repeat=n) if any(v)}
    factors = {phi: (Functional(f, n, vector), [tuple([c * a % p for a in phi]) for c in range(p)])
               for phi, vector in vectors.items()}
    return {x: {phi: RankOneOp(v, functional, Matrix._wrap(f, tuple([rows[c] for c in x]), ones, n))
                for phi, (functional, rows) in factors.items()}
            for x, v in vectors.items()}


def all_rank_ones_in_alg(nest: Nest) -> list[RankOneOp]:
    """Every rank-one member of the algebra over a small finite field, one
    per (x, phi) pair of nonzero vectors (scalar multiples included), x
    outer and phi inner: phi must kill the principal predecessor of x.
    Bounded as enumerate_subspaces is (p in {2,3}, n <= 4).

    The functionals killing a proper member are the nonzero elements of its
    annihilator (every nonzero vector kills {0}), sorted into the order of
    itertools.product, and x's principal member is the first proper member
    whose elements hold x (F^n if none).  The operators are read from the
    table of every x (x) phi (`_rank_one_table`) into a fresh list."""
    f, n = nest.field, nest.ambient_dim
    check_enumeration_bound(f, n)
    table = _rank_one_table(f.p, n)
    proper = nest.chain[1:-1]
    killing = [list(table)] + [sorted(v for v in m.annihilator().elements if any(v)) for m in proper]
    out = []
    for x, row in table.items():
        pred = next((i for i, m in enumerate(proper) if x in m.elements), len(proper))
        out += map(row.__getitem__, killing[pred])
    return out


def reflexivity_witness(nest: Nest, m: Subspace) -> tuple[RankOneOp, Vector]:
    """For m outside the chain, a rank-one member R and x in m with R x not in m.

    x is the first basis row of m whose principal member leaves m, and R is
    `transporter(nest, x, y)` for the first basis row y of that member
    outside m, so R x = y lies outside m.  Some row always qualifies: were
    every row's principal member inside m, the largest of them would hold
    all rows, hence contain m, and so equal m, a member of the chain.
    """
    if m.field != nest.field or m.ambient_dim != nest.ambient_dim:
        raise ValueError("subspace does not match the nest")
    if m in nest.chain:
        raise ValueError("m is a member of the nest")
    if m.dim == 0:
        raise ValueError("the zero subspace admits no witness")
    for x in map(m.basis.row, range(m.dim)):
        member = nest.principal(x).basis
        for y in map(member.row, range(member.rows)):
            if not m.contains(y):
                return transporter(nest, x, y), x
    raise AssertionError("unreachable: every basis row of m has its principal member in m")


def matrix_span_basis(mats, field: Field, shape: tuple[int, int]) -> tuple[Matrix, ...]:
    """Canonical basis of the span of the given operators (vectorized RREF)."""
    stacked = []
    for m in mats:
        if m.field != field or (m.rows, m.cols) != shape:
            raise ValueError("operators must match the given field and shape")
        stacked.append(integer_vectorize(m)[0])
    red, _ = echelon(field, stacked, shape[0] * shape[1])
    return _operators(field, red, leads(red), shape)

