"""Symbolic chains of support subspaces of the finitely-supported sequences.

Members of these infinite chains are described by their index sets
(initial segments, tails, nothing, everything) rather than by bases, so
annihilators, unions, and completeness questions reduce to decidable
bookkeeping on the descriptors.  The one genuinely infinite phenomenon,
a dual chain missing its least upper bound, is certified by an explicit
functional with constant tail.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import QQ, Field, Scalar
from .matrices import Matrix
from .nests import Nest, new_nest
from .radical import quasi_inverse
from .subspaces import span_of

EMPTY = "empty"
INITIAL = "initial"
TAIL = "tail"
ALL = "all"

OMEGA = "omega"
OMEGA_STAR = "omega-star"
ZIGZAG = "zigzag"


@dataclass(frozen=True)
class SupportSet:
    """An index set of one of four shapes: {}, {1..n}, {n+1,..}, or all of N."""

    kind: str
    index: int | None = None

    def __post_init__(self):
        if self.kind in (EMPTY, ALL):
            if self.index is not None:
                raise ValueError(f"{self.kind} takes no index")
        elif self.kind in (INITIAL, TAIL):
            if self.index is None or self.index < 1:
                raise ValueError(f"{self.kind} needs an index >= 1")
        else:
            raise ValueError(f"unknown support-set kind {self.kind!r}")

    def __repr__(self) -> str:
        if self.kind == INITIAL:
            return f"{{1..{self.index}}}"
        if self.kind == TAIL:
            return f"{{{self.index + 1}..}}"
        return "{}" if self.kind == EMPTY else "N"

    def contains_index(self, k: int) -> bool:
        if k < 1:
            raise ValueError("indices start at 1")
        if self.kind == EMPTY:
            return False
        if self.kind == ALL:
            return True
        if self.kind == INITIAL:
            return k <= self.index
        return k > self.index

    def is_subset(self, other: SupportSet) -> bool:
        if self.kind == EMPTY or other.kind == ALL:
            return True
        if other.kind == EMPTY:
            return self.kind == EMPTY
        if self.kind == ALL:
            return False
        if self.kind == INITIAL:
            return other.kind == INITIAL and self.index <= other.index
        if other.kind == TAIL:
            return self.index >= other.index
        return False  # a tail never fits in an initial segment

    def complement(self) -> SupportSet:
        if self.kind == EMPTY:
            return SupportSet(ALL)
        if self.kind == ALL:
            return SupportSet(EMPTY)
        if self.kind == INITIAL:
            return SupportSet(TAIL, self.index)
        return SupportSet(INITIAL, self.index)

    def union(self, other: SupportSet):
        """Union when it has one of the four shapes, else None."""
        if self.is_subset(other):
            return other
        if other.is_subset(self):
            return self
        if self.kind == INITIAL and other.kind == TAIL and other.index <= self.index:
            return SupportSet(ALL)
        if self.kind == TAIL and other.kind == INITIAL and self.index <= other.index:
            return SupportSet(ALL)
        return None

    def intersect(self, other: SupportSet):
        """Intersection when it has one of the four shapes, else None."""
        if self.is_subset(other):
            return self
        if other.is_subset(self):
            return other
    # the remaining case is a proper initial/tail overlap, a bounded gap
        if {self.kind, other.kind} == {INITIAL, TAIL}:
            ini = self if self.kind == INITIAL else other
            tl = other if ini is self else self
            if tl.index >= ini.index:
                return SupportSet(EMPTY)
        return None


def support_annihilator(s: SupportSet) -> SupportSet:
    """Index set of the annihilator of a support subspace: the complement.

    A functional kills every sequence supported in S exactly when its own
    support avoids S.
    """
    return s.complement()


def initial(n: int) -> SupportSet:
    return SupportSet(EMPTY) if n == 0 else SupportSet(INITIAL, n)


def tail_from(n: int) -> SupportSet:
    """Indices strictly beyond n; n = 0 gives everything."""
    return SupportSet(ALL) if n == 0 else SupportSet(TAIL, n)


@dataclass(frozen=True)
class TailFunctional:
    """A functional on the sequence space: finitely many exceptional values,
    one constant value on the rest of the coordinates."""

    exceptional: tuple[tuple[int, Scalar], ...]
    tail_value: Scalar
    field: Field = QQ

    @staticmethod
    def make(exceptional: dict, tail_value, field: Field = QQ) -> TailFunctional:
        fixed = tuple(sorted((int(k), field.coerce(v)) for k, v in exceptional.items()))
        for k, _ in fixed:
            if k < 1:
                raise ValueError("indices start at 1")
        return TailFunctional(fixed, field.coerce(tail_value), field)

    def evaluate(self, k: int) -> Scalar:
        """Value on the k-th coordinate vector."""
        if k < 1:
            raise ValueError("indices start at 1")
        for idx, val in self.exceptional:
            if idx == k:
                return val
        return self.tail_value

    def is_zero(self) -> bool:
        return not self.tail_value and all(not v for _, v in self.exceptional)

    def supported_within(self, s: SupportSet) -> bool:
        """Does the support of this functional sit inside the index set s?"""
        if self.tail_value:
            # cofinite support: needs s to contain a whole tail
            if s.kind not in (ALL, TAIL):
                return False
            if s.kind == TAIL:
                for k in range(1, s.index + 1):
                    if self.evaluate(k):
                        return False
            return True
        return all(s.contains_index(k) for k, v in self.exceptional if v)


@dataclass(frozen=True)
class SupportNest:
    """One of the catalog chains, or a dual of one, described symbolically.

    order_type names the shape of the indexed part: 'omega' for an
    ascending family of initial segments, 'omega-star' for a descending
    family of tails, 'zigzag' for the stacked pair with no chain condition.
    depth counts how many duals were taken: members at depth 0 live in the
    finitely-supported sequences, deeper members in full sequence duals.
    """

    order_type: str
    depth: int = 0

    def __post_init__(self):
        if self.order_type not in (OMEGA, OMEGA_STAR, ZIGZAG):
            raise ValueError(f"unknown order type {self.order_type!r}")
        if self.order_type == ZIGZAG and self.depth:
            raise ValueError("the zigzag chain has no dual in the catalog")

    def member(self, i: int) -> SupportSet:
        """The i-th indexed member (the bounds {0} and the whole space aside)."""
        if self.order_type == ZIGZAG:
            raise ValueError("zigzag members are pairs, not single support sets")
        if i < 1:
            raise ValueError("member indices start at 1")
        return initial(i) if self.ascending_initials else tail_from(i)

    @property
    def ascending_initials(self) -> bool:
        """Whether the indexed members are initial segments growing with i."""
        if self.order_type == ZIGZAG:
            raise ValueError("zigzag has two indexed families")
        return (self.order_type == OMEGA) == (self.depth % 2 == 0)

    @property
    def is_well_ordered(self) -> bool:
        return self.order_type != ZIGZAG and self.ascending_initials

    @property
    def has_acc(self) -> bool:
        return self.order_type != ZIGZAG and not self.ascending_initials

    @property
    def has_dcc(self) -> bool:
        return self.is_well_ordered

    @property
    def is_complete(self) -> bool:
        """Closed under arbitrary meets and joins of members.

        A descending tail family always closes up ({0} catches the meets);
        an ascending initial family closes only in the finitely-supported
        space itself, where the union of all initial segments is everything.
        In any dual the union misses the functionals with infinite support;
        the zigzag inherits that gap through its ascending half.
        """
        if self.order_type == ZIGZAG:
            return False
        if self.ascending_initials:
            return self.depth == 0
        return True


def omega_nest() -> SupportNest:
    return SupportNest(OMEGA)


def omega_star_nest() -> SupportNest:
    return SupportNest(OMEGA_STAR)


def zigzag_nest() -> SupportNest:
    return SupportNest(ZIGZAG)


CATALOG = {
    "c00-omega": omega_nest,
    "c00-omega-star": omega_star_nest,
    "c00-zigzag": zigzag_nest,
}


@dataclass(frozen=True)
class DualSupportResult:
    dual: SupportNest
    complete: bool
    witness: TailFunctional | None


def dual_support_nest(n: SupportNest) -> DualSupportResult:
    """The chain of annihilators, with a completeness verdict.

    When the input is not well ordered the dual misses the join of the
    annihilator family, and the returned witness functional separates that
    join from every family member: it lies in the annihilator of the meet
    of the originals but in no single annihilator.
    """
    if n.order_type == ZIGZAG:
        raise ValueError("unsupported order type for dualization: zigzag")
    dual = SupportNest(n.order_type, n.depth + 1)
    complete = dual.is_complete
    witness = None
    if not complete:
        witness = TailFunctional.make({}, 1)
    return DualSupportResult(dual=dual, complete=complete, witness=witness)


def chain_union(n: SupportNest, indices) -> SupportSet | None:
    """Union of the indexed members; None when no member realizes it.

    indices is either the string 'all' or an iterable of positive ints.
    """
    if n.order_type == ZIGZAG:
        raise ValueError("unsupported order type for unions: zigzag")
    if indices == "all":
        if n.ascending_initials:
            # every finitely-supported vector lands in some initial segment,
            # but in a dual the union misses the infinitely-supported part
            return SupportSet(ALL) if n.depth == 0 else None
        return n.member(1)
    idx = sorted(set(int(i) for i in indices))
    if not idx or idx[0] < 1:
        raise ValueError("need positive member indices")
    return n.member(idx[-1]) if n.ascending_initials else n.member(idx[0])


def family_meet(n: SupportNest, indices) -> SupportSet:
    """Intersection of the indexed members (always realized by a descriptor)."""
    if n.order_type == ZIGZAG:
        raise ValueError("unsupported order type for meets: zigzag")
    if indices == "all":
        return initial(1) if n.ascending_initials else SupportSet(EMPTY)
    idx = sorted(set(int(i) for i in indices))
    if not idx or idx[0] < 1:
        raise ValueError("need positive member indices")
    return n.member(idx[0]) if n.ascending_initials else n.member(idx[-1])


def principal_support(n: SupportNest, x) -> tuple[SupportSet, SupportSet]:
    """Smallest member containing the vector and the largest member missing it.

    x gives coordinates of a finitely-supported vector: a mapping
    index -> value or a sequence starting at index 1.
    """
    if n.depth != 0 or n.order_type == ZIGZAG:
        raise ValueError("principal members are computed on the primal catalog chains")
    if hasattr(x, "items"):
        support = sorted(int(k) for k, v in x.items() if v)
    else:
        support = [i for i, v in enumerate(x, start=1) if v]
    if not support:
        raise ValueError("the zero vector has no principal member")
    if min(support) < 1:
        raise ValueError("indices start at 1")
    if n.order_type == OMEGA:
        top = max(support)
        return initial(top), initial(top - 1)
    low = min(support)
    if low == 1:
        return SupportSet(ALL), tail_from(1)
    return tail_from(low - 1), tail_from(low)


@dataclass(frozen=True)
class ComponentVerdict:
    name: str
    order_type: str
    well_ordered: bool
    radical_equals_strict: bool
    justification: str


@dataclass(frozen=True)
class ZigzagReport:
    """Radical analysis of the stacked chain with no chain condition."""

    order_type_name: str
    well_ordered: bool
    has_acc: bool
    has_dcc: bool
    components: tuple[ComponentVerdict, ComponentVerdict]
    radical_equals_strict: bool
    justification: str


def zigzag_report() -> ZigzagReport:
    """The zigzag chain stacks the dual of the omega chain on the dual of the
    omega-star chain.  The first factor carries a grading that certifies its
    radical equals the strictly-shifting ideal; the second factor is well
    ordered, which gives the same equality; stacking preserves it."""
    z = zigzag_nest()
    first = dual_support_nest(omega_nest()).dual
    second = dual_support_nest(omega_star_nest()).dual
    comp1 = ComponentVerdict(
        name="dual-of-omega",
        order_type=first.order_type,
        well_ordered=first.is_well_ordered,
        radical_equals_strict=True,
        justification="graded-dual",
    )
    comp2 = ComponentVerdict(
        name="dual-of-omega-star",
        order_type=second.order_type,
        well_ordered=second.is_well_ordered,
        radical_equals_strict=True,
        justification="well-ordered",
    )
    return ZigzagReport(
        order_type_name="1+omega*+omega+1",
        well_ordered=z.is_well_ordered,
        has_acc=z.has_acc,
        has_dcc=z.has_dcc,
        components=(comp1, comp2),
        radical_equals_strict=True,
        justification="ordinal-sum",
    )


def truncation_nest(field: Field, m: int) -> Nest:
    """The finite nest seen by the first m dual coordinates of the omega chain:
    {0} < span{e_m} < span{e_{m-1}, e_m} < ... < F^m.

    Its algebra is exactly the lower-triangular matrices, and its strict
    ideal the strictly lower-triangular ones.
    """
    if m < 1:
        raise ValueError("truncation level must be at least 1")
    rows = Matrix.identity(field, m).entries
    members = [span_of(rows[k:], field, m) for k in range(1, m)]
    return new_nest(field, m, members)


def graded_quasi_inverse(t: Matrix, a: Matrix, m: int) -> Matrix:
    """Exact inverse of 1 - a t on the level-m truncation of the dual chain.

    t must strictly lower the grade (strictly lower triangular here) and a
    must preserve it (lower triangular); these are the strictly-shifting
    ideal and the algebra of `truncation_nest(QQ, m)`, so the terminating
    series of `quasi_inverse` applies, and its membership checks reject
    other inputs with a MembershipError.
    """
    if not t.field.is_rationals or not a.field.is_rationals:
        raise ValueError("truncations are computed over the rationals")
    if (t.rows, t.cols) != (m, m) or (a.rows, a.cols) != (m, m):
        raise ValueError(f"expected {m}x{m} matrices")
    return quasi_inverse(truncation_nest(QQ, m), a, t)
