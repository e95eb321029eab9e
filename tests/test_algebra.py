"""Operator algebra of a chain: bases, rank-one calculus, decompositions."""

import itertools
import random
from fractions import Fraction

import pytest

from nestalg.algebra import (
    FULL,
    STRICT,
    AlgebraBasis,
    MembershipError,
    _constraint_rows,
    _pairs,
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
from nestalg.fields import GF2, GF3, QQ
from nestalg.matrices import Matrix, is_zero_vector, kernel_basis
from nestalg.nests import coordinate_nest, flag_nest, iter_nests, new_nest, trivial_nest
from nestalg.sampling import (
    random_matrix,
    random_nest,
    random_span_element,
    random_subspace,
    random_vector,
)
from nestalg.subspaces import Functional, enumerate_subspaces, span_of, zero_subspace

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


def test_invariant_lattice_matches_span_reference():
    # operator sets from no nest: s is invariant exactly when the images of
    # its basis, computed here on raw ints, add nothing to its span
    rng = random.Random(49)
    for field in (GF2, GF3):
        for n in (1, 2, 3):
            for k in (0, 1, 1, 2, 2):
                ops = [random_matrix(field, n, n, rng) for _ in range(k)]
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
                assert invariant_lattice(ops, field, n) == expected


def test_invariant_lattice_rejects_rationals():
    with pytest.raises(ValueError):
        invariant_lattice([Matrix.identity(QQ, 2)], QQ, 2)


def test_all_rank_ones_count():
    assert len(all_rank_ones_in_alg(flag_nest(GF2, 2))) == 5


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


def test_constraint_rows_match_rank():
    # one constraint row per unit of rank, and the same canonical basis as
    # the rows taken from every basis row of each source
    rng = random.Random(53)
    for field in (QQ, GF2, GF3):
        for _ in range(8):
            nest = random_nest(field, rng.randint(1, 5), rng)
            n = nest.ambient_dim
            for kind in (FULL, STRICT):
                pairs = _pairs(nest, kind)
                rows = _constraint_rows(nest, pairs)
                full_rows = tuple(
                    tuple(field.mul(a[i], v[j]) for i in range(n) for j in range(n))
                    for source, target in pairs
                    for a in target.annihilator().basis.entries
                    for v in source.basis.entries
                )
                want = kernel_basis(Matrix(field, full_rows, cols=n * n))
                assert kernel_basis(Matrix(field, rows, cols=n * n)) == want
                assert len(rows) == n * n - want.rows


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
