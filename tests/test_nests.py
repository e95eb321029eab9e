"""Chains of subspaces: construction, principal members, duals, ordinal sums."""

import random
from fractions import Fraction

import pytest

from nestalg.fields import GF2, GF3, QQ
from nestalg.nests import (
    IncomparableError,
    coordinate_nest,
    flag_nest,
    iter_compositions,
    iter_nests,
    new_nest,
    ordinal_sum,
    trivial_nest,
)
from nestalg.sampling import random_nest, random_vector
from nestalg.subspaces import full, span_of, zero_subspace

E1 = (Fraction(1), Fraction(0), Fraction(0))
E2 = (Fraction(0), Fraction(1), Fraction(0))
E3 = (Fraction(0), Fraction(0), Fraction(1))


def test_new_nest_adds_bounds_and_sorts():
    m = span_of([E1], QQ, 3)
    top = span_of([E1, E2], QQ, 3)
    nest = new_nest(QQ, 3, [top, m])
    assert [s.dim for s in nest.chain] == [0, 1, 2, 3]
    assert nest.chain[0] == zero_subspace(QQ, 3)
    assert nest.chain[-1] == full(QQ, 3)


def test_new_nest_dedupes():
    m = span_of([E1], QQ, 3)
    same = span_of([(Fraction(2), Fraction(0), Fraction(0))], QQ, 3)
    nest = new_nest(QQ, 3, [m, same, zero_subspace(QQ, 3)])
    assert [s.dim for s in nest.chain] == [0, 1, 3]


def test_new_nest_shares_its_bounds():
    # one {0} and one F^n per (field, n), whatever the members, also when a
    # member equals one of them, and the same ones iter_nests uses
    m = span_of([E1], QQ, 3)
    nests = [new_nest(QQ, 3, []), new_nest(QQ, 3, [m]), new_nest(QQ, 3, [full(QQ, 3), m])]
    assert all(nest.chain[-1] is nests[0].chain[-1] for nest in nests)
    assert all(nest.chain[0] is nests[0].chain[0] for nest in nests)
    assert nests[0].chain[-1] == full(QQ, 3) and nests[0].chain[0] == zero_subspace(QQ, 3)
    first = next(iter_nests(GF2, 2))
    assert first.chain[-1] is trivial_nest(GF2, 2).chain[-1]
    assert new_nest(QQ, 2, []).chain[-1] is not nests[0].chain[-1]


def test_new_nest_rejects_incomparable():
    a = span_of([E1], QQ, 3)
    b = span_of([E2], QQ, 3)
    with pytest.raises(IncomparableError) as exc:
        new_nest(QQ, 3, [a, b])
    assert exc.value.a in (a, b) and exc.value.b in (a, b)
    assert "incomparable" in str(exc.value)


def test_new_nest_rejects_bad_ambient():
    with pytest.raises(ValueError):
        new_nest(QQ, 0, [])


def test_constructors():
    assert [s.dim for s in trivial_nest(QQ, 4).chain] == [0, 4]
    assert [s.dim for s in flag_nest(GF2, 3).chain] == [0, 1, 2, 3]
    assert [s.dim for s in coordinate_nest(QQ, (2, 1, 3)).chain] == [0, 2, 3, 6]
    assert coordinate_nest(QQ, (2, 1, 3)).atoms == (2, 1, 3)
    assert flag_nest(QQ, 3).atoms == (1, 1, 1)
    assert trivial_nest(QQ, 4).atoms == (4,)
    with pytest.raises(ValueError):
        coordinate_nest(QQ, ())
    with pytest.raises(ValueError):
        coordinate_nest(QQ, (2, 0))


def test_principal_members_flag():
    nest = flag_nest(QQ, 3)
    assert nest.principal(E2).dim == 2
    assert nest.principal_pred(E2).dim == 1
    mixed = tuple(QQ.add(a, b) for a, b in zip(E1, E3))
    assert nest.principal(mixed).dim == 3
    assert nest.principal_pred(mixed).dim == 2
    with pytest.raises(ValueError):
        nest.principal((Fraction(0), Fraction(0), Fraction(0)))


def test_principal_is_smallest_containing_member():
    rng = random.Random(31)
    for field in (QQ, GF2, GF3):
        for _ in range(25):
            n = rng.randint(1, 5)
            nest = random_nest(field, n, rng)
            x = random_vector(field, n, rng, nonzero=True)
            p = nest.principal(x)
            assert p.contains(x)
            for s in nest.chain:
                if s.contains(x):
                    assert p.leq(s)
            pred = nest.principal_pred(x)
            assert not pred.contains(x)
            assert nest.chain[nest.chain.index(p) - 1] == pred


def join_irreducibles_reference(nest):
    """Every nonzero member with its first basis vector outside its
    predecessor, a witness x whose principal member it is."""
    out = []
    for pred, member in zip(nest.chain, nest.chain[1:]):
        out.append((member, next(row for row in member.basis.entries if not pred.contains(row))))
    return out


def test_join_irreducibles():
    nest = coordinate_nest(QQ, (2, 2))
    irr = join_irreducibles_reference(nest)
    assert [m.dim for m, _ in irr] == [2, 4]
    for member, witness in irr:
        assert member.contains(witness)
        assert nest.principal(witness) == member
        idx = nest.chain.index(member)
        assert not nest.chain[idx - 1].contains(witness)


def test_join_irreducibles_cover_all_nonzero_members():
    rng = random.Random(32)
    for _ in range(20):
        nest = random_nest(QQ, rng.randint(1, 5), rng)
        irr = join_irreducibles_reference(nest)
        assert [m for m, _ in irr] == list(nest.chain[1:])
        assert all(nest.principal(x) == m for m, x in irr)


def test_dual_reverses_chain():
    rng = random.Random(33)
    for field in (QQ, GF2):
        for _ in range(25):
            n = rng.randint(1, 5)
            nest = random_nest(field, n, rng)
            d = nest.dual()
            assert d.dual() == nest
            assert [s.dim for s in d.chain] == [n - s.dim for s in reversed(nest.chain)]
            k = len(nest.chain)
            for i in range(k):
                assert d.chain[k - 1 - i] == nest.chain[i].annihilator()


def test_ordinal_sum_small():
    nest = ordinal_sum(flag_nest(QQ, 1), flag_nest(QQ, 1))
    assert nest == flag_nest(QQ, 2)
    a = coordinate_nest(QQ, (2,))
    b = coordinate_nest(QQ, (1, 1))
    summed = ordinal_sum(a, b)
    assert summed.atoms == (2, 1, 1)
    assert [s.dim for s in summed.chain] == [0, 2, 3, 4]
    with pytest.raises(ValueError):
        ordinal_sum(flag_nest(QQ, 2), flag_nest(GF2, 2))


def test_ordinal_sum_embeds_both_chains():
    rng = random.Random(34)
    for _ in range(15):
        first = random_nest(QQ, rng.randint(1, 3), rng)
        second = random_nest(QQ, rng.randint(1, 3), rng)
        summed = ordinal_sum(first, second)
        n1 = first.ambient_dim
        assert len(summed.chain) == len(first.chain) + len(second.chain) - 1
        # lower part: first's members padded by zeros
        for i, s in enumerate(first.chain):
            assert summed.chain[i].dim == s.dim
        # upper part: full first block plus second's members
        for j, s in enumerate(second.chain):
            assert summed.chain[len(first.chain) - 1 + j].dim == n1 + s.dim


def test_iter_compositions():
    assert list(iter_compositions(1)) == [(1,)]
    comps = list(iter_compositions(4))
    assert len(comps) == 8
    assert len(set(comps)) == 8
    assert all(sum(c) == 4 for c in comps)
    assert all(all(p >= 1 for p in c) for c in comps)
    with pytest.raises(ValueError):
        list(iter_compositions(0))


def test_iter_nests_counts():
    # chain counts over GF(2): 1, 1+3, 1+14+21, 1+65+315+315
    assert sum(1 for _ in iter_nests(GF2, 1)) == 1
    assert sum(1 for _ in iter_nests(GF2, 2)) == 4
    assert sum(1 for _ in iter_nests(GF2, 3)) == 36
    assert sum(1 for _ in iter_nests(GF2, 4)) == 696


def test_iter_nests_distinct_and_valid():
    seen = set()
    for nest in iter_nests(GF2, 3):
        assert nest.chain not in seen
        seen.add(nest.chain)
        for a, b in zip(nest.chain, nest.chain[1:]):
            assert a.leq(b) and a.dim < b.dim
    assert len(seen) == 36


def test_iter_nests_share_their_members():
    # one {0} and one F^n for the whole sweep, as for the enumerated members,
    # in nests equal to those new_nest builds from the same members
    nests = list(iter_nests(GF3, 2))
    assert len({id(n.chain[0]) for n in nests}) == len({id(n.chain[-1]) for n in nests}) == 1
    for nest in nests:
        assert nest == new_nest(GF3, 2, nest.chain[1:-1])


def test_membership_and_index():
    nest = flag_nest(QQ, 3)
    m = span_of([E1], QQ, 3)
    assert m in nest
    assert nest.chain.index(m) == 1
    assert span_of([E2], QQ, 3) not in nest
