"""Subspace lattice, annihilators, functionals, and exhaustive enumeration.

Enumeration counts are checked against the Gaussian binomial formula,
computed here directly from its product form.
"""

import itertools
import random
from fractions import Fraction

import pytest

from nestalg.fields import GF, GF2, GF3, QQ
from nestalg.subspaces import (
    Functional,
    complement_within,
    enumerate_subspaces,
    full,
    separating_functional,
    span_of,
    zero_subspace,
)

FIELDS = (QQ, GF2, GF3)


def rand_subspace(field, n, rng):
    dim = rng.randint(0, n)
    vectors = [
        tuple(field.coerce(rng.randint(-3, 3)) for _ in range(n)) for _ in range(dim)
    ]
    return span_of(vectors, field, n)


def gaussian_binomial(n, k, q):
    num, den = 1, 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def test_span_canonical_basis():
    s = span_of([(Fraction(2), Fraction(4)), (Fraction(1), Fraction(3))], QQ, 2)
    assert s.basis.entries == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    s = span_of([(Fraction(2), Fraction(4))], QQ, 2)
    assert s.basis.entries == ((Fraction(1), Fraction(2)),)
    assert span_of([], QQ, 2) == zero_subspace(QQ, 2)


def test_contains_and_leq():
    line = span_of([(1, 2, 0)], GF3, 3)
    plane = span_of([(1, 2, 0), (0, 0, 1)], GF3, 3)
    assert line.leq(plane) and not plane.leq(line)
    assert plane.contains((1, 2, 1))
    assert not line.contains((0, 0, 1))
    assert zero_subspace(GF3, 3).leq(line)
    assert plane.leq(full(GF3, 3))


def test_contains_matches_span_dimension():
    # v lies in s exactly when adding it to the basis leaves the dimension alone
    rng = random.Random(26)
    for field in FIELDS:
        for _ in range(60):
            n = rng.randint(1, 4)
            s = rand_subspace(field, n, rng)
            coeffs = [rng.randint(-3, 3) for _ in s.basis.entries]
            combo = [sum(c * row[j] for c, row in zip(coeffs, s.basis.entries)) for j in range(n)]
            if rng.random() < 0.5:
                combo[rng.randrange(n)] += rng.randint(1, 3)
            v = tuple(field.coerce(x) for x in combo)
            expected = span_of(list(s.basis.entries) + [v], field, n).dim == s.dim
            assert s.contains(v) == expected


def test_lattice_laws_random():
    rng = random.Random(21)
    for field in FIELDS:
        for _ in range(40):
            n = rng.randint(1, 4)
            a, b, c = (rand_subspace(field, n, rng) for _ in range(3))
            assert a.meet(b) == b.meet(a)
            assert a.join(b) == b.join(a)
            assert a.meet(b.meet(c)) == a.meet(b).meet(c)
            assert a.join(b.join(c)) == a.join(b).join(c)
            assert a.join(a.meet(b)) == a
            assert a.meet(a.join(b)) == a
            assert a.meet(b).leq(a) and a.leq(a.join(b))
            # modular law, which subspace lattices satisfy
            if a.leq(c):
                assert a.join(b.meet(c)) == a.join(b).meet(c)


def test_meet_join_membership_semantics():
    rng = random.Random(22)
    for _ in range(30):
        n = rng.randint(1, 3)
        a = rand_subspace(GF2, n, rng)
        b = rand_subspace(GF2, n, rng)
        meet, join = a.meet(b), a.join(b)
        for v in itertools.product((0, 1), repeat=n):
            assert meet.contains(v) == (a.contains(v) and b.contains(v))
            if a.contains(v) or b.contains(v):
                assert join.contains(v)


def test_annihilator_laws():
    rng = random.Random(23)
    for field in FIELDS:
        for _ in range(40):
            n = rng.randint(1, 4)
            a = rand_subspace(field, n, rng)
            b = rand_subspace(field, n, rng)
            assert a.annihilator().dim == n - a.dim
            assert a.annihilator().annihilator() == a
            if a.leq(b):
                assert b.annihilator().leq(a.annihilator())
            # every annihilator functional kills every vector of a
            for phi in a.annihilator().basis.entries:
                for v in a.basis.entries:
                    s = field.zero()
                    for p, x in zip(phi, v):
                        s = field.add(s, field.mul(p, x))
                    assert s == field.zero()
    assert zero_subspace(QQ, 3).annihilator() == full(QQ, 3)
    assert full(QQ, 3).annihilator() == zero_subspace(QQ, 3)


def test_annihilator_is_cached_and_double_annihilator_computed():
    rng = random.Random(24)
    for field in FIELDS:
        for _ in range(10):
            a = rand_subspace(field, rng.randint(0, 4), rng)
            ann = a.annihilator()
            assert a.annihilator() is ann
            double = ann.annihilator()
            # equal to a, yet computed afresh rather than handed back
            assert double == a and double is not a
    for s in enumerate_subspaces(GF2, 3):
        assert s.annihilator() is s.annihilator()


def test_annihilator_exchanges_meet_and_join_exhaustive_gf2_3():
    subs = enumerate_subspaces(GF2, 3)
    for fam in itertools.chain(
        itertools.combinations(subs, 2), itertools.combinations(subs, 3)
    ):
        meet, join = fam[0], fam[0]
        ann_meet, ann_join = fam[0].annihilator(), fam[0].annihilator()
        for s in fam[1:]:
            meet = meet.meet(s)
            join = join.join(s)
            ann_meet = ann_meet.meet(s.annihilator())
            ann_join = ann_join.join(s.annihilator())
        assert ann_meet == join.annihilator()
        assert ann_join == meet.annihilator()


def test_complement_within():
    rng = random.Random(24)
    for field in FIELDS:
        for _ in range(30):
            n = rng.randint(1, 4)
            outer = rand_subspace(field, n, rng)
            inner_dim = rng.randint(0, outer.dim)
            inner = span_of(outer.basis.entries[:inner_dim], field, n)
            comp = complement_within(inner, outer)
            assert inner.meet(comp).dim == 0
            assert inner.join(comp) == outer
            assert comp.dim == outer.dim - inner.dim
    with pytest.raises(ValueError):
        complement_within(full(QQ, 2), span_of([(1, 0)], QQ, 2))


def test_functional_evaluation():
    phi = Functional(QQ, 3, (Fraction(1), Fraction(-2), Fraction(0)))
    assert phi((Fraction(3), Fraction(1), Fraction(5))) == Fraction(1)
    assert not phi.is_zero()
    assert phi.kernel().dim == 2
    assert Functional(QQ, 2, (Fraction(0), Fraction(0))).is_zero()


def test_separating_functional():
    rng = random.Random(25)
    for field in FIELDS:
        for _ in range(30):
            n = rng.randint(1, 4)
            w = rand_subspace(field, n, rng)
            if w.dim == n:
                continue
            # pick x outside w deterministically from the standard basis fallback
            x = None
            for cand in complement_within(w, full(field, n)).basis.entries:
                x = cand
                break
            phi = separating_functional(x, w)
            assert phi(x) == field.one()
            for v in w.basis.entries:
                assert phi(v) == field.zero()
    with pytest.raises(ValueError):
        separating_functional((Fraction(1), Fraction(0)), full(QQ, 2))


def test_enumerate_counts_match_gaussian_binomials():
    for field, n in ((GF2, 1), (GF2, 2), (GF2, 3), (GF2, 4), (GF3, 2), (GF3, 3), (GF3, 4)):
        subs = enumerate_subspaces(field, n)
        expected = sum(gaussian_binomial(n, k, field.p) for k in range(n + 1))
        assert len(subs) == expected
        assert len(set(subs)) == expected
        by_dim = {}
        for s in subs:
            by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
        for k in range(n + 1):
            assert by_dim.get(k, 0) == gaussian_binomial(n, k, field.p)
    assert len(enumerate_subspaces(GF2, 3)) == 16
    assert len(enumerate_subspaces(GF2, 4)) == 67
    assert len(enumerate_subspaces(GF3, 4)) == 212


def test_enumerate_is_deterministic_and_canonical():
    subs = enumerate_subspaces(GF2, 3)
    again = enumerate_subspaces(GF2, 3)
    assert subs == again
    dims = [s.dim for s in subs]
    assert dims == sorted(dims)
    for s in subs:
        assert span_of(s.basis.entries, GF2, 3) == s


def test_enumerate_membership_exhaustive_gf2_2():
    subs = enumerate_subspaces(GF2, 2)
    # every vector set closed under addition and scaling appears exactly once
    all_vectors = list(itertools.product((0, 1), repeat=2))
    seen = set()
    for s in subs:
        members = frozenset(v for v in all_vectors if s.contains(v))
        assert members not in seen
        seen.add(members)
        assert len(members) == 2 ** s.dim


def test_elements_match_contains_exhaustive():
    for field in (GF2, GF3):
        for n in range(4):
            vectors = list(itertools.product(range(field.p), repeat=n))
            for s in enumerate_subspaces(field, n):
                assert len(s.elements) == field.p ** s.dim
                for v in vectors:
                    assert (v in s.elements) == s.contains(v)


def test_elements_refuse_rationals():
    with pytest.raises(ValueError):
        span_of([(1, 2)], QQ, 2).elements


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        enumerate_subspaces(GF2, 5)
    with pytest.raises(ValueError):
        enumerate_subspaces(GF(5), 2)
    with pytest.raises(ValueError):
        enumerate_subspaces(QQ, 2)


def test_vector_length_checked():
    s = span_of([(1, 1)], GF2, 2)
    with pytest.raises(ValueError):
        s.contains((1, 0, 0))
    with pytest.raises(ValueError):
        s.leq(span_of([(1, 0, 0)], GF2, 3))
