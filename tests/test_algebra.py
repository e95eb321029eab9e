"""Operator algebra of a chain: bases, rank-one calculus, decompositions."""

import itertools
import random
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from nestalg.algebra import (
    FULL,
    STRICT,
    AlgebraBasis,
    MembershipError,
    RankOneOp,
    _forbidden,
    _rank_one_table,
    alg_basis,
    all_rank_ones_in_alg,
    idempotent_onto,
    in_alg,
    in_alg_witness,
    invariant_lattice,
    matrix_span_basis,
    range_of,
    rank_decompose,
    rank_one,
    rank_one_in_alg,
    reflexivity_witness,
    strict_approximant,
    transporter,
)
from nestalg.fields import GF2, GF3, QQ, Field
from nestalg.matrices import Matrix, dot, is_zero_vector, kernel_basis
from nestalg.nests import coordinate_nest, flag_nest, iter_nests, new_nest, trivial_nest
from nestalg.radical import in_strict_ideal_witness, strict_ideal_basis
from nestalg.sampling import (
    random_matrix,
    random_nest,
    random_scalar,
    random_span_element,
    random_subspace,
    random_vector,
)
from nestalg.subspaces import (
    Functional,
    complement_within,
    enumerate_subspaces,
    separating_functional,
    span_of,
    zero_subspace,
)

Q = Fraction


def qmat(rows):
    return Matrix(QQ, tuple(tuple(Q(x) for x in row) for row in rows))


def test_alg_basis_dimensions():
    # dim Alg = sum over atom pairs i <= j of d_i d_j
    assert alg_basis(trivial_nest(QQ, 2)).dim == 4
    assert alg_basis(flag_nest(QQ, 3)).dim == 6
    assert alg_basis(coordinate_nest(QQ, (2, 1))).dim == 7
    assert alg_basis(flag_nest(GF2, 4)).dim == 10


def test_alg_contains_identity_and_is_closed():
    rng = random.Random(41)
    for field in (QQ, GF2):
        for _ in range(10):
            nest = random_nest(field, rng.randint(1, 4), rng)
            basis = alg_basis(nest)
            ident = Matrix.identity(field, nest.ambient_dim)
            assert basis.contains(ident)
            a = random_span_element(basis, rng)
            b = random_span_element(basis, rng)
            assert in_alg(nest, a @ b)


def span_element_reference(basis, rng, nonzero=False):
    """random_span_element as a loop of matrix sums, drawing one coefficient
    per basis operator and attempt; the reference for the batched product."""
    nest = basis.nest
    acc = Matrix.zeros(nest.field, nest.ambient_dim, nest.ambient_dim)
    attempts = 0
    while True:
        attempts += 1
        for b in basis.basis:
            c = random_scalar(nest.field, rng)
            if c:
                acc = acc + b.scale(c)
        if not nonzero or not acc.is_zero():
            return acc, attempts
        if not basis.basis:
            raise ValueError("the zero space has no nonzero element")


def test_random_span_element_matches_reference_loop():
    rng = random.Random(47)
    retried = set()
    for field in (QQ, GF2):
        for k in range(30):
            nest = random_nest(field, rng.randint(1, 4), rng)
            basis = alg_basis(nest) if k % 3 else strict_ideal_basis(nest)
            for nonzero in (False, True):
                seed = rng.random()
                mine, ref = random.Random(seed), random.Random(seed)
                if nonzero and not basis.basis:
                    with pytest.raises(ValueError):
                        random_span_element(basis, mine, nonzero=True)
                    with pytest.raises(ValueError):
                        span_element_reference(basis, ref, nonzero=True)
                else:
                    t = random_span_element(basis, mine, nonzero)
                    want, attempts = span_element_reference(basis, ref, nonzero)
                    assert t == want and (t.rows, t.cols) == (want.rows, want.cols)
                    if attempts > 1:
                        retried.add(field)
                assert mine.getstate() == ref.getstate()
    # a one-operator strict ideal, where a zero draw forces the nonzero retry
    for field in (QQ, GF2):
        basis = strict_ideal_basis(flag_nest(field, 2))
        assert basis.dim == 1
        for seed in range(20):
            mine, ref = random.Random(seed), random.Random(seed)
            t = random_span_element(basis, mine, nonzero=True)
            want, attempts = span_element_reference(basis, ref, nonzero=True)
            assert t == want and not t.is_zero()
            assert mine.getstate() == ref.getstate()
            if attempts > 1:
                retried.add(field)
    assert retried == {QQ, GF2}
    # the zero space: the zero operator, or ValueError when nonzero is asked
    empty = strict_ideal_basis(trivial_nest(QQ, 3))
    assert empty.dim == 0
    rng = random.Random(0)
    state = rng.getstate()
    assert random_span_element(empty, rng) == Matrix.zeros(QQ, 3, 3)
    with pytest.raises(ValueError):
        random_span_element(empty, rng, nonzero=True)
    assert rng.getstate() == state


def test_in_alg_witness_names_violation():
    nest = flag_nest(QQ, 2)
    e21 = qmat([[0, 0], [1, 0]])
    witness = in_alg_witness(nest, e21)
    assert witness is not None
    member, v = witness
    assert member == span_of([(Q(1), Q(0))], QQ, 2)
    assert not member.contains(e21.apply(v))
    assert in_alg_witness(nest, qmat([[0, 1], [0, 0]])) is None


def test_rank_one_product_rule():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(1, 4)
        x1 = random_vector(QQ, n, rng, nonzero=True)
        x2 = random_vector(QQ, n, rng, nonzero=True)
        phi1 = Functional(QQ, n, random_vector(QQ, n, rng, nonzero=True))
        phi2 = Functional(QQ, n, random_vector(QQ, n, rng, nonzero=True))
        r1 = rank_one(x1, phi1)
        r2 = rank_one(x2, phi2)
        product = r1.matrix @ r2.matrix
        c = phi1(x2)
        if c:
            assert product == rank_one(x1, phi2).matrix.scale(c)
        else:
            assert product.is_zero()


def test_rank_one_idempotent_criterion():
    x = (Q(1), Q(1))
    assert rank_one(x, Functional(QQ, 2, (Q(1), Q(0)))).is_idempotent
    assert not rank_one(x, Functional(QQ, 2, (Q(2), Q(0)))).is_idempotent
    r = rank_one(x, Functional(QQ, 2, (Q(1), Q(0))))
    assert r.matrix @ r.matrix == r.matrix
    with pytest.raises(ValueError):
        rank_one((Q(0), Q(0)), Functional(QQ, 2, (Q(1), Q(0))))
    with pytest.raises(ValueError):
        rank_one(x, Functional(QQ, 2, (Q(0), Q(0))))


def test_rank_one_membership_matches_full_test():
    # every nonzero (x, phi) pair over GF(3)^2 on a non-coordinate chain
    m = span_of([(1, 1)], GF3, 2)
    nest = new_nest(GF3, 2, [m])
    vectors = [v for v in itertools.product(range(3), repeat=2) if any(v)]
    checked = 0
    for x in vectors:
        for coeffs in vectors:
            r = rank_one(x, Functional(GF3, 2, coeffs))
            assert rank_one_in_alg(nest, r) == in_alg(nest, r.matrix)
            checked += 1
    assert checked == 64


def test_transporter_frozen():
    nest = flag_nest(QQ, 2)
    r = transporter(nest, (Q(0), Q(1)), (Q(1), Q(0)))
    assert r.matrix == qmat([[0, 1], [0, 0]])


def test_transporter_properties():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(1, 4)
        nest = random_nest(QQ, n, rng)
        x = random_vector(QQ, n, rng, nonzero=True)
        principal = nest.principal(x)
        y = principal.basis.entries[rng.randrange(principal.dim)]
        r = transporter(nest, x, y)
        assert r.matrix.apply(x) == y
        assert rank_one_in_alg(nest, r)
        assert in_alg(nest, r.matrix)


def test_transporter_rejects_unreachable_target():
    nest = flag_nest(QQ, 2)
    with pytest.raises(ValueError):
        transporter(nest, (Q(1), Q(0)), (Q(0), Q(1)))


def test_idempotent_onto_frozen():
    nest = flag_nest(QQ, 3)
    p, parts = idempotent_onto(nest, span_of([(1, 0, 0)], QQ, 3))
    assert p == qmat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert len(parts) == 1
    p, parts = idempotent_onto(nest, span_of([(1, 0, 0), (0, 1, 0), (0, 0, 1)], QQ, 3))
    assert p == Matrix.identity(QQ, 3)
    assert len(parts) == 3


def test_idempotent_onto_properties():
    rng = random.Random(44)
    for field in (QQ, GF2):
        for _ in range(25):
            n = rng.randint(1, 5)
            nest = random_nest(field, n, rng)
            m = random_subspace(field, n, rng)
            if m.dim == 0:
                continue
            p, parts = idempotent_onto(nest, m)
            assert p @ p == p
            assert range_of(p) == m
            assert in_alg(nest, p)
            assert sum((q.matrix for q in parts), Matrix.zeros(field, n, n)) == p
            for q in parts:
                assert q.is_idempotent
                assert rank_one_in_alg(nest, q)
            for i, a in enumerate(parts):
                for j, b in enumerate(parts):
                    if i != j:
                        assert (a.matrix @ b.matrix).is_zero()


def idempotent_onto_reference(nest, m):
    """The recursive construction: peel the first basis vector y of m, build
    P# on complement_within(span{y}, m), then add (y - P# y) (x) phi with phi
    killing both the principal predecessor and ran P#."""
    f = nest.field
    if m.dim == 1:
        x = m.basis.entries[0]
        part = rank_one(x, separating_functional(x, nest.principal_pred(x)))
        return part.matrix, [part]
    y = m.basis.entries[0]
    rest = complement_within(span_of([y], f, m.ambient_dim), m)
    p_rest, parts = idempotent_onto_reference(nest, rest)
    x = tuple(f.sub(a, b) for a, b in zip(y, p_rest.apply(y)))
    part = rank_one(x, separating_functional(x, nest.principal_pred(x).join(rest)))
    return p_rest + part.matrix, parts + [part]


def test_idempotent_onto_matches_recursive_reference():
    # the same P and the same parts, in order, on 600 seeded (nest, subspace) cases
    rng = random.Random(45)
    cases = 0
    while cases < 600:
        field = (QQ, GF2, GF3)[cases % 3]
        n = rng.randint(1, 6)
        nest = random_nest(field, n, rng)
        m = random_subspace(field, n, rng)
        if m.dim == 0:
            continue
        assert idempotent_onto(nest, m) == idempotent_onto_reference(nest, m)
        cases += 1


def test_rank_decompose_frozen():
    nest = flag_nest(QQ, 3)
    t = qmat([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
    summands = rank_decompose(nest, t)
    assert len(summands) == 2
    total = Matrix.zeros(QQ, 3, 3)
    for s in summands:
        assert range_of(s).dim == 1
        assert in_alg(nest, s)
        total = total + s
    assert total == t
    assert len(rank_decompose(nest, Matrix.identity(QQ, 3))) == 3


def test_rank_decompose_rejects_bad_input():
    nest = flag_nest(QQ, 2)
    with pytest.raises(ValueError):
        rank_decompose(nest, Matrix.zeros(QQ, 2, 2))
    with pytest.raises(MembershipError) as err:
        rank_decompose(nest, qmat([[0, 0], [1, 0]]))
    assert err.value.member == span_of([(1, 0)], QQ, 2)
    assert err.value.vector == (Q(1), Q(0))
    assert err.value.field == QQ
    assert "(1, 0)" in str(err.value)


def test_rank_decompose_random():
    rng = random.Random(45)
    for field in (QQ, GF2):
        for _ in range(25):
            n = rng.randint(1, 5)
            nest = random_nest(field, n, rng)
            t = random_span_element(alg_basis(nest), rng, nonzero=True)
            summands = rank_decompose(nest, t)
            assert len(summands) == range_of(t).dim
            total = Matrix.zeros(field, n, n)
            for s in summands:
                assert range_of(s).dim == 1
                assert in_alg(nest, s)
                total = total + s
            assert total == t


def test_strict_approximant():
    rng = random.Random(46)
    for _ in range(25):
        n = rng.randint(1, 5)
        nest = random_nest(QQ, n, rng)
        t = random_span_element(alg_basis(nest), rng)
        vectors = [random_vector(QQ, n, rng) for _ in range(rng.randint(0, n))]
        approx = strict_approximant(nest, t, vectors)
        assert in_alg(nest, approx)
        spn = span_of(vectors, QQ, n)
        assert range_of(approx).dim <= spn.dim
        for v in vectors:
            assert approx.apply(v) == t.apply(v)
    empty = strict_approximant(flag_nest(QQ, 2), Matrix.identity(QQ, 2), [])
    assert empty.is_zero()


def test_invariant_lattice_recovers_chain():
    for nest in (flag_nest(GF2, 3), trivial_nest(GF2, 3), coordinate_nest(GF2, (2, 1))):
        full_route = invariant_lattice(
            alg_basis(nest).basis, GF2, nest.ambient_dim
        )
        assert tuple(full_route) == nest.chain
        rank_one_route = invariant_lattice(
            [r.matrix for r in all_rank_ones_in_alg(nest)], GF2, nest.ambient_dim
        )
        assert tuple(rank_one_route) == nest.chain


def span_lattice_reference(ops, field, n):
    """The span-basis route to the invariant lattice: the operators are
    reduced to a basis of their span, whose transposes, side by side, map
    the distinct basis rows of the enumerated subspaces in one product."""
    ops = matrix_span_basis(ops, field, (n, n))
    subspaces = enumerate_subspaces(field, n)
    rows = tuple(dict.fromkeys(v for s in subspaces for v in s.basis.entries))
    side_by_side = tuple(tuple([r[j] for t in ops for r in t.entries]) for j in range(n))
    products = Matrix._of(field, rows, n) @ Matrix._of(field, side_by_side, n * len(ops))
    images = {
        v: {w[k : k + n] for k in range(0, len(w), n)} for v, w in zip(rows, products.entries)
    }
    return [s for s in subspaces if all(images[v] <= s.elements for v in s.basis.entries)]


def raw_lattice_reference(ops, field, n):
    # s is invariant exactly when the images of its basis, computed here on
    # raw ints, add nothing to its span
    expected = []
    for s in enumerate_subspaces(field, n):
        basis = list(s.basis.entries)
        images = [
            tuple(sum(a * b for a, b in zip(row, v)) for row in t.entries)
            for t in ops
            for v in basis
        ]
        if span_of(basis + images, field, n).dim == s.dim:
            expected.append(s)
    return expected


def lattice_op_sets(field, n, rng):
    """Operator sets of up to 40 operators: empty, the zero operator, random
    ones, ones whose rows come from a pool of three (shared rows), algebra
    elements and rank-ones of a random nest (nontrivial lattices), each of
    the last three also with duplicates and the zero operator added."""
    zero = Matrix.zeros(field, n, n)
    yield []
    yield [zero]
    for k in (1, 2, 5):
        yield [random_matrix(field, n, n, rng) for _ in range(k)]
    pool = [random_vector(field, n, rng) for _ in range(3)]
    shared = [Matrix(field, tuple(rng.choice(pool) for _ in range(n))) for _ in range(30)]
    nest = random_nest(field, n, rng)
    alg = alg_basis(nest)
    members = [random_span_element(alg, rng) for _ in range(rng.randint(1, 30))]
    ones = [r.matrix for r in all_rank_ones_in_alg(nest)[:30]]
    for ops in (shared, members, ones):
        yield ops
        yield (ops + ops[:9] + [zero])[:40]


def test_invariant_lattice_matches_span_reference():
    # operator sets with repeated and shared operator rows, which the lattice
    # maps once each
    rng = random.Random(49)
    for field, top in ((GF2, 4), (GF3, 3)):
        for n in range(1, top + 1):
            for ops in lattice_op_sets(field, n, rng):
                expected = span_lattice_reference(ops, field, n)
                assert raw_lattice_reference(ops, field, n) == expected
                assert invariant_lattice(ops, field, n) == expected
    assert invariant_lattice([], GF2, 2) == list(enumerate_subspaces(GF2, 2))


def test_invariant_lattice_matches_raw_reference_on_gf3_4():
    # GF(3)^4 has 212 subspaces, so the exclusion masks are wider than a
    # machine word: 30 seeded chains, with algebra elements or rank-ones
    # (alternately) as lattice_op_sets draws them
    rng = random.Random(53)
    for k in range(30):
        *_, members, _, ones, _ = lattice_op_sets(GF3, 4, rng)
        ops = ones if k % 2 else members
        assert invariant_lattice(ops, GF3, 4) == raw_lattice_reference(ops, GF3, 4)


def test_invariant_lattice_takes_any_iterable():
    nest = flag_nest(GF3, 3)
    ops = [r.matrix for r in all_rank_ones_in_alg(nest)]
    assert invariant_lattice(iter(ops), GF3, 3) == invariant_lattice(ops, GF3, 3)
    assert invariant_lattice((t for t in ops), GF3, 3) == list(nest.chain)


def test_invariant_lattice_rejects_mismatched_operators():
    # checked before any work: an operator of another field or shape,
    # anywhere in the set, raises
    good = Matrix.identity(GF2, 3)
    for bad in (Matrix.identity(GF3, 3), Matrix.identity(GF2, 2), Matrix.zeros(GF2, 3, 2)):
        with pytest.raises(ValueError, match="must match the given field and shape"):
            invariant_lattice([good, bad], GF2, 3)
        with pytest.raises(ValueError, match="must match the given field and shape"):
            invariant_lattice(iter([bad]), GF2, 3)


def test_invariant_lattice_rejects_rationals():
    with pytest.raises(ValueError):
        invariant_lattice([Matrix.identity(QQ, 2)], QQ, 2)


def test_all_rank_ones_count():
    assert len(all_rank_ones_in_alg(flag_nest(GF2, 2))) == 5


def test_rank_ones_and_matrices_reject_assignment():
    r = all_rank_ones_in_alg(flag_nest(GF2, 2))[0]
    for name in ("x", "phi", "matrix", "extra"):
        with pytest.raises(FrozenInstanceError):
            setattr(r, name, None)
    m = Matrix._of(GF2, ((1, 0), (0, 1)), 2)
    for name in ("field", "rows", "cols", "entries", "extra"):
        with pytest.raises(AttributeError):
            setattr(m, name, None)
    assert m == Matrix.identity(GF2, 2)


def test_all_rank_ones_exhaustive():
    # agreement with a brute-force scan of all nonzero (x, phi) pairs
    nest = coordinate_nest(GF2, (1, 1))
    found = {
        (r.x, r.phi.coeffs) for r in all_rank_ones_in_alg(nest)
    }
    vectors = [v for v in itertools.product(range(2), repeat=2) if any(v)]
    expected = set()
    for x in vectors:
        for coeffs in vectors:
            r = rank_one(x, Functional(GF2, 2, coeffs))
            if in_alg(nest, r.matrix):
                expected.add((x, coeffs))
    assert found == expected


def test_all_rank_ones_match_ordered_scan():
    # the same RankOneOps in the same order as a scan of every (x, phi)
    # pair, x outer and phi inner, through rank_one and the full membership test
    for field, n in ((GF2, 3), (GF3, 2)):
        vectors = [v for v in itertools.product(range(field.p), repeat=n) if any(v)]
        for nest in iter_nests(field, n):
            expected = []
            for x in vectors:
                for coeffs in vectors:
                    r = rank_one(x, Functional(field, n, coeffs))
                    if in_alg(nest, r.matrix):
                        expected.append(r)
            assert all_rank_ones_in_alg(nest) == expected


def scan_rank_ones_reference(nest):
    """Rank-ones by per-vector scans: the functionals killing each member are
    found by dot products with its basis rows, and x's principal predecessor
    by Nest.principal_pred."""
    f, n, p = nest.field, nest.ambient_dim, nest.field.p
    vectors = [v for v in itertools.product(f.elements(), repeat=n) if any(v)]
    killing = {
        m: [v for v in vectors if all(not dot(f, v, row) for row in m.basis.entries)]
        for m in nest.chain[:-1]
    }
    out = []
    for x in vectors:
        for phi in killing[nest.principal_pred(x)]:
            rows = tuple(tuple(c * a % p for a in phi) for c in x)
            out.append(RankOneOp(x, Functional(f, n, phi), Matrix(f, rows)))
    return out


def test_all_rank_ones_match_scan_reference():
    # every chain of GF(2)^4 and GF(3)^3: the same RankOneOps in the same order
    for field, n in ((GF2, 4), (GF3, 3)):
        for nest in iter_nests(field, n):
            assert all_rank_ones_in_alg(nest) == scan_rank_ones_reference(nest)


def test_all_rank_ones_match_scan_reference_on_sampled_gf3_4():
    # 100 of the 3,851 chains of GF(3)^4, beyond the exhaustive sweep above
    for nest in random.Random(46).sample(list(iter_nests(GF3, 4)), 100):
        assert all_rank_ones_in_alg(nest) == scan_rank_ones_reference(nest)


def test_reflexivity_caches_nothing_on_the_bounding_members():
    # {0} and F^n are fresh objects in every nest: caching their elements or
    # annihilator there would be kept alive per nest, for no reuse
    nest = flag_nest(GF2, 3)
    ones = all_rank_ones_in_alg(nest)
    invariant_lattice(alg_basis(nest).basis, GF2, 3)
    invariant_lattice([r.matrix for r in ones], GF2, 3)
    for member in (nest.chain[0], nest.chain[-1]):
        assert "elements" not in member.__dict__
        assert "_annihilator" not in member.__dict__


def test_all_rank_ones_return_a_fresh_list():
    # the operators are shared across calls, the list is not: a caller that
    # mutates its result leaves the next call unchanged
    for field, n in ((GF2, 4), (GF3, 3)):
        rng = random.Random(n)
        for nest in (flag_nest(field, n), trivial_nest(field, n), random_nest(field, n, rng)):
            ones = all_rank_ones_in_alg(nest)
            ones.reverse()
            ones[0] = None
            del ones[1:]
            assert all_rank_ones_in_alg(nest) == scan_rank_ones_reference(nest)


def test_all_rank_ones_check_the_bound_before_building_a_table():
    # GF(5)^2 and GF(2)^5 lie outside the bound of invariant_lattice: refused
    # at once, with no table built or cached
    cached = _rank_one_table.cache_info().currsize
    for nest in (flag_nest(Field(5), 2), flag_nest(GF2, 5)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="enumeration bound"):
            all_rank_ones_in_alg(nest)
        assert time.perf_counter() - start < 1.0
    assert _rank_one_table.cache_info().currsize == cached


def test_invariant_lattice_of_one_rank_one_in_closed_form():
    # M is invariant under x (x) phi iff x lies in M or phi vanishes on M,
    # decided here on each subspace's basis rows, with no table
    for field, n in ((GF2, 3), (GF3, 2)):
        vectors = [v for v in itertools.product(range(field.p), repeat=n) if any(v)]
        subspaces = enumerate_subspaces(field, n)
        for x in vectors:
            for coeffs in vectors:
                phi = Functional(field, n, coeffs)
                expected = [
                    m for m in subspaces
                    if m.contains(x) or not any(phi(v) for v in m.basis.entries)
                ]
                assert invariant_lattice([rank_one(x, phi).matrix], field, n) == expected


def reference_pairs(nest, kind):
    """The (source, target) pairs with T source in target that define the
    algebra (every member invariant) or the strict ideal (every nonzero
    member into its predecessor)."""
    chain = nest.chain
    return [(m, m) for m in chain[1:-1]] if kind == FULL else list(zip(chain[1:], chain))


def violation_scan_reference(nest, t, kind):
    """Membership by scanning every pair: None, or (source, first basis row
    of the first failing source that t moves out of its target)."""
    for source, target in reference_pairs(nest, kind):
        for v in source.basis.entries:
            if not target.contains(t.apply(v)):
                return source, v
    return None


def test_constraint_rows_match_rank():
    # the rows a_i * v_j for every annihilator row a of each target and
    # every basis row v of its source cut out the canonical bases, whose
    # codimension is the number of forbidden entries of the frame
    rng = random.Random(53)
    for field in (QQ, GF2, GF3):
        for _ in range(8):
            nest = random_nest(field, rng.randint(1, 5), rng)
            n = nest.ambient_dim
            for kind, basis in ((FULL, alg_basis(nest)), (STRICT, strict_ideal_basis(nest))):
                full_rows = tuple(
                    tuple(field.mul(a[i], v[j]) for i in range(n) for j in range(n))
                    for source, target in reference_pairs(nest, kind)
                    for a in target.annihilator().basis.entries
                    for v in source.basis.entries
                )
                assert kernel_basis(Matrix(field, full_rows, cols=n * n)) == basis.vectorized
                block = nest.frame[2]
                assert sum(_forbidden(kind, a, b) for a in block for b in block) == n * n - basis.dim


def test_witnesses_match_scan_reference():
    # random operators, span elements of both bases, those elements with one
    # entry perturbed, and algebra elements of each truncation chain[:k] of
    # the nest, which keep the first k - 1 members: the frame's verdict and
    # witness are the scan's
    rng = random.Random(61)
    for field in (QQ, GF2, GF3):
        for _ in range(15):
            nest = random_nest(field, rng.randint(1, 5), rng)
            n = nest.ambient_dim
            ops = [random_matrix(field, n, n, rng)]
            for basis in (alg_basis(nest), strict_ideal_basis(nest)):
                t = random_span_element(basis, rng)
                bump = [[field.zero()] * n for _ in range(n)]
                bump[rng.randrange(n)][rng.randrange(n)] = field.one()
                ops += [t, t + Matrix(field, bump)]
            for k in range(1, len(nest.chain) - 1):
                ops.append(random_span_element(alg_basis(new_nest(field, n, nest.chain[1:k])), rng))
            for t in ops:
                assert in_alg_witness(nest, t) == violation_scan_reference(nest, t, FULL)
                assert in_strict_ideal_witness(nest, t) == violation_scan_reference(nest, t, STRICT)


def test_reflexivity_witness_frozen():
    nest = flag_nest(QQ, 2)
    outside = span_of([(0, 1)], QQ, 2)
    r, x = reflexivity_witness(nest, outside)
    assert x == (Q(0), Q(1))
    assert r.matrix == qmat([[0, 1], [0, 0]])
    assert outside.contains(x)
    assert not outside.contains(r.matrix.apply(x))


def test_reflexivity_witness_random():
    rng = random.Random(47)
    produced = 0
    while produced < 20:
        n = rng.randint(2, 5)
        nest = random_nest(QQ, n, rng)
        m = random_subspace(QQ, n, rng)
        if m.dim == 0 or m in nest.chain:
            continue
        r, x = reflexivity_witness(nest, m)
        assert rank_one_in_alg(nest, r)
        assert m.contains(x)
        assert not m.contains(r.matrix.apply(x))
        produced += 1


def test_reflexivity_witness_rejects_members():
    nest = flag_nest(QQ, 2)
    with pytest.raises(ValueError):
        reflexivity_witness(nest, span_of([(1, 0)], QQ, 2))
    with pytest.raises(ValueError):
        reflexivity_witness(nest, zero_subspace(QQ, 2))


def witness_search_reference(nest, m):
    """The earlier witness search: basis rows of m, then their pairwise sums,
    each transporter re-checked to move its x out of m."""
    f = nest.field
    rows = m.basis.entries
    candidates = list(rows)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            candidates.append(tuple(f.add(a, b) for a, b in zip(rows[i], rows[j])))
    for x in candidates:
        for y in nest.principal(x).basis.entries:
            if not m.contains(y):
                r = transporter(nest, x, y)
                if not m.contains(r.matrix.apply(x)):
                    return r, x
    raise ValueError("no witness found")


def test_reflexivity_witness_matches_reference_search():
    pairs = 0
    for field, top in ((GF2, 3), (GF3, 3)):
        for n in range(1, top + 1):
            subspaces = enumerate_subspaces(field, n)
            for nest in iter_nests(field, n):
                for m in subspaces:
                    if m not in nest.chain:
                        assert reflexivity_witness(nest, m) == witness_search_reference(nest, m)
                        pairs += 1
    assert pairs == 2397
    rng = random.Random(48)
    subspaces = enumerate_subspaces(GF2, 4)
    for _ in range(200):
        nest = random_nest(GF2, 4, rng)
        for m in subspaces:
            if m not in nest.chain:
                assert reflexivity_witness(nest, m) == witness_search_reference(nest, m)


def test_matrix_span_helpers():
    e11 = qmat([[1, 0], [0, 0]])
    e12 = qmat([[0, 1], [0, 0]])
    basis = matrix_span_basis([e11, e12, e11 + e12], QQ, (2, 2))
    assert len(basis) == 2
    assert matrix_span_basis([], QQ, (2, 2)) == ()
    # AlgebraBasis.span: membership by a zero residual against the canonical rows
    for field in (QQ, GF2):
        nest = flag_nest(field, 2)
        e11, e12, e21 = (Matrix(field, m) for m in ([[1, 0], [0, 0]], [[0, 1], [0, 0]],
                                                    [[0, 0], [1, 0]]))
        ident = Matrix.identity(field, 2)
        alg = alg_basis(nest)
        strict = AlgebraBasis(nest, STRICT, (e12,))
        assert alg.span.basis.entries == tuple(b.vectorize() for b in alg.basis)
        for member in (e11 + e12.scale(3), ident):
            assert is_zero_vector(alg.span.reduce(member.vectorize()))
            assert alg.contains(member)
        assert alg.span.reduce(e21.vectorize()) == (0, 0, 1, 0)
        assert not alg.contains(e21)
        assert strict.span.reduce(ident.vectorize()) == (1, 0, 0, 1)
        assert strict.contains(e12.scale(3)) and not strict.contains(e11)
        assert not AlgebraBasis(nest, STRICT, ()).contains(e12)


@pytest.mark.parametrize("make", [
    lambda: Matrix(QQ, [[1, 2, 0, 4]]),  # a row with the four entries of a 2 x 2 operator
    lambda: Matrix.identity(GF2, 2),  # an operator over another field
    lambda: Matrix.identity(QQ, 3),  # an operator of another size
], ids=["row-of-four", "other-field", "three-by-three"])
def test_contains_rejects_operators_of_another_field_or_shape(make):
    # AlgebraBasis.contains refuses what in_alg refuses, before any residual
    nest = flag_nest(QQ, 2)
    alg, t = alg_basis(nest), make()
    with pytest.raises(ValueError):
        in_alg(nest, t)
    with pytest.raises(ValueError):
        alg.contains(t)
    assert alg.contains(Matrix.identity(QQ, 2))
