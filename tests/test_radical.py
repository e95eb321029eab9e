"""Strictly-shifting ideal, radical oracle, quasi-inverses, exclusion witnesses."""

import random
from fractions import Fraction

import pytest

from nestalg import algebra, radical
from nestalg.algebra import FULL, STRICT, AlgebraBasis, alg_basis, in_alg, matrix_span_basis, rank_one
from nestalg.fields import GF, GF2, GF3, QQ
from nestalg.matrices import Matrix, kernel_basis, try_invert
from nestalg.nests import coordinate_nest, flag_nest, iter_nests, ordinal_sum, trivial_nest
from nestalg.radical import (
    ideal_nilpotency_index,
    in_strict_ideal,
    in_strict_ideal_witness,
    nilpotency_index,
    ordsum_analyze,
    quasi_inverse,
    radical_basis_oracle,
    radical_exclusion_witness,
    radical_report,
    strict_ideal_basis,
)
from nestalg.sampling import random_matrix, random_nest, random_span_element

Q = Fraction


def qmat(rows):
    return Matrix(QQ, tuple(tuple(Q(x) for x in row) for row in rows))


def test_strict_ideal_dimensions():
    # dim = sum over atom pairs i < j of d_i d_j
    assert strict_ideal_basis(flag_nest(QQ, 3)).dim == 3
    assert strict_ideal_basis(trivial_nest(QQ, 4)).dim == 0
    assert strict_ideal_basis(coordinate_nest(QQ, (2, 2))).dim == 4
    assert strict_ideal_basis(coordinate_nest(GF2, (1, 2))).dim == 2


def test_strict_ideal_membership():
    nest = flag_nest(QQ, 3)
    assert in_strict_ideal(nest, qmat([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    assert not in_strict_ideal(nest, qmat([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))
    assert not in_strict_ideal(nest, Matrix.identity(QQ, 3))
    witness = in_strict_ideal_witness(nest, Matrix.identity(QQ, 3))
    assert witness is not None
    member, v = witness
    assert member.contains(v)


def test_nilpotency_index():
    nest = flag_nest(QQ, 3)
    t = qmat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert nilpotency_index(nest, t) == 3
    assert nilpotency_index(nest, Matrix.zeros(QQ, 3, 3)) == 1
    assert nilpotency_index(nest, Matrix.identity(QQ, 3)) is None


def test_ideal_nilpotency_index_frozen():
    assert ideal_nilpotency_index(strict_ideal_basis(flag_nest(QQ, 3))) == 3
    assert ideal_nilpotency_index(strict_ideal_basis(trivial_nest(QQ, 2))) == 1
    assert ideal_nilpotency_index(strict_ideal_basis(coordinate_nest(QQ, (2, 2)))) == 2


def test_ideal_nilpotency_bounded_by_atoms():
    rng = random.Random(51)
    for field in (QQ, GF2):
        for _ in range(15):
            nest = random_nest(field, rng.randint(1, 5), rng)
            assert ideal_nilpotency_index(strict_ideal_basis(nest)) <= len(nest.atoms)


def _index_by_product_spans(nest, basis):
    """Reference: span J, J^2, ... as n^2-column operator spans until zero."""
    shape = (nest.ambient_dim, nest.ambient_dim)
    k = 1
    current = matrix_span_basis(basis, nest.field, shape)
    while current:
        k += 1
        current = matrix_span_basis([c @ b for c in current for b in basis], nest.field, shape)
    return k


def test_ideal_nilpotency_index_matches_product_spans():
    rng = random.Random(56)
    for field in (QQ, GF2, GF3):
        for _ in range(12):
            nest = random_nest(field, rng.randint(1, 5), rng)
            index = ideal_nilpotency_index(strict_ideal_basis(nest))
            assert index == _index_by_product_spans(nest, strict_ideal_basis(nest).basis)
            assert index == len(nest.atoms)


def test_nilpotency_index_of_rejects_non_nilpotent_spans():
    nest = flag_nest(QQ, 3)
    ident = Matrix.identity(QQ, 3)
    with pytest.raises(AssertionError, match="not nilpotent"):
        ideal_nilpotency_index(AlgebraBasis(nest, STRICT, (ident,)))
    # J F^n shrinks once, then stays at span{e1}
    stalls = (qmat([[1, 0, 0], [0, 0, 0], [0, 0, 0]]), qmat([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    with pytest.raises(AssertionError, match="not nilpotent"):
        ideal_nilpotency_index(AlgebraBasis(nest, STRICT, stalls))


def test_nilpotency_index_of_empty_basis():
    # the zero ideal of a one-atom nest: J F^n = 0 already, index 1
    for field in (QQ, GF2):
        nest = trivial_nest(field, 3)
        assert len(nest.atoms) == 1
        assert ideal_nilpotency_index(AlgebraBasis(nest, STRICT, ())) == 1
        assert ideal_nilpotency_index(strict_ideal_basis(nest)) == 1


def _radical_by_scale_and_add(alg):
    """Reference: the trace-form kernel from traces of products, each radical
    element summed as coordinate times basis element."""
    n = alg.nest.ambient_dim
    gram = Matrix(QQ, [[(a @ b).trace() for b in alg.basis] for a in alg.basis])
    mats = []
    for row in kernel_basis(gram).entries:
        acc = Matrix.zeros(QQ, n, n)
        for c, b in zip(row, alg.basis):
            acc = acc + b.scale(c)
        mats.append(acc)
    return matrix_span_basis(mats, QQ, (n, n))


def test_radical_oracle_matches_scale_and_add():
    rng = random.Random(57)
    for _ in range(12):
        nest = random_nest(QQ, rng.randint(1, 5), rng)
        rad = radical_basis_oracle(alg_basis(nest)).basis
        assert rad == _radical_by_scale_and_add(alg_basis(nest))
        assert rad == strict_ideal_basis(nest).basis  # both canonical


def test_quasi_inverse_frozen():
    nest = flag_nest(QQ, 2)
    t = qmat([[0, 1], [0, 0]])
    s = quasi_inverse(nest, Matrix.identity(QQ, 2), t)
    assert s == qmat([[1, 1], [0, 1]])


def test_quasi_inverse_properties():
    rng = random.Random(52)
    ran = 0
    while ran < 25:
        n = rng.randint(1, 5)
        nest = random_nest(QQ, n, rng)
        strict = strict_ideal_basis(nest)
        if strict.dim == 0:
            continue
        a = random_span_element(alg_basis(nest), rng)
        t = random_span_element(strict, rng)
        s = quasi_inverse(nest, a, t)
        ident = Matrix.identity(QQ, n)
        assert s @ (ident - a @ t) == ident
        assert (ident - a @ t) @ s == ident
        assert in_alg(nest, s)
        ran += 1


def test_quasi_inverse_preconditions():
    nest = flag_nest(QQ, 2)
    ident = Matrix.identity(QQ, 2)
    with pytest.raises(ValueError):
        quasi_inverse(nest, ident, ident)  # identity does not strictly shift
    with pytest.raises(ValueError):
        quasi_inverse(nest, qmat([[0, 0], [1, 0]]), qmat([[0, 1], [0, 0]]))


def test_radical_oracle_matches_ideal():
    nest = flag_nest(QQ, 3)
    rad = radical_basis_oracle(alg_basis(nest))
    strict = strict_ideal_basis(nest)
    assert rad.dim == 3
    assert rad.basis == strict.basis  # both canonical


def test_radical_oracle_needs_the_algebra_basis():
    nest = flag_nest(QQ, 3)
    for wrong in (strict_ideal_basis(nest), radical_basis_oracle(alg_basis(nest))):
        with pytest.raises(ValueError, match="algebra basis"):
            radical_basis_oracle(wrong)


def test_radical_layer_runs_through_public_functions(monkeypatch):
    calls = {"index": [], "oracle": []}
    real_index, real_oracle = radical.ideal_nilpotency_index, radical.radical_basis_oracle

    def index(ideal):
        calls["index"].append(ideal)
        return real_index(ideal)

    def oracle(alg):
        calls["oracle"].append(alg)
        return real_oracle(alg)

    monkeypatch.setattr(radical, "ideal_nilpotency_index", index)
    monkeypatch.setattr(radical, "radical_basis_oracle", oracle)
    nest = flag_nest(QQ, 3)
    rep = radical_report(nest)
    assert calls["index"] == [rep.strict_basis]
    assert calls["oracle"] == [alg_basis(nest)]
    calls["oracle"].clear()
    first, second = flag_nest(QQ, 2), trivial_nest(QQ, 1)
    ordsum_analyze(first, second, [Matrix.identity(QQ, 3)])
    summed = ordinal_sum(first, second)
    assert calls["oracle"] == [alg_basis(first), alg_basis(second), alg_basis(summed)]
    assert len(calls["index"]) == 1


def test_exclusion_witness_frozen():
    nest = flag_nest(QQ, 2)
    t = Matrix.identity(QQ, 2)
    x, phi = radical_exclusion_witness(nest, t)
    assert x == (Q(1), Q(0))
    assert phi.coeffs == (Q(1), Q(0))
    r = rank_one(x, phi)
    blocker = Matrix.identity(QQ, 2) - (r.matrix @ t)
    assert try_invert(blocker) is None
    assert all(c == 0 for c in blocker.apply(x))


def test_exclusion_witness_properties():
    rng = random.Random(53)
    produced = 0
    while produced < 25:
        n = rng.randint(2, 5)
        nest = random_nest(QQ, n, rng)
        t = random_span_element(alg_basis(nest), rng, nonzero=True)
        if in_strict_ideal(nest, t):
            continue
        x, phi = radical_exclusion_witness(nest, t)
        r = rank_one(x, phi)
        assert in_alg(nest, r.matrix)
        blocker = Matrix.identity(QQ, n) - (r.matrix @ t)
        assert try_invert(blocker) is None
        assert all(c == 0 for c in blocker.apply(x))
        produced += 1


def test_exclusion_witness_rejects_strict_members():
    nest = flag_nest(QQ, 2)
    with pytest.raises(ValueError):
        radical_exclusion_witness(nest, qmat([[0, 1], [0, 0]]))


def test_radical_report_frozen():
    rep = radical_report(flag_nest(QQ, 3))
    assert (rep.alg_dim, rep.strict_basis.dim, rep.radical_basis.dim) == (6, 3, 3)
    assert rep.equal and rep.quotient_check
    assert rep.nilpotency_index == 3
    assert rep.semisimple_quotient_dim == 3

    rep = radical_report(trivial_nest(QQ, 4))
    assert (rep.alg_dim, rep.strict_basis.dim) == (16, 0)
    assert rep.semisimple_quotient_dim == 16
    assert rep.nilpotency_index == 1

    rep = radical_report(coordinate_nest(QQ, (2, 2)))
    assert (rep.alg_dim, rep.strict_basis.dim) == (12, 4)
    assert rep.semisimple_quotient_dim == 8
    assert rep.nilpotency_index == 2


def test_radical_report_builds_each_basis_once(monkeypatch):
    # One constraint elimination for the algebra, one for the strict ideal.
    calls = []
    original = algebra._constraint_kernel

    def counting(nest, pairs):
        calls.append(nest)
        return original(nest, pairs)

    monkeypatch.setattr(algebra, "_constraint_kernel", counting)
    monkeypatch.setattr(radical, "_constraint_kernel", counting)
    for nest in (flag_nest(QQ, 3), coordinate_nest(QQ, (2, 1, 2)), coordinate_nest(GF2, (1, 2))):
        calls.clear()
        rep = radical_report(nest)
        assert len(calls) == 2
        # a caller's prebuilt algebra basis is used as is
        alg = alg_basis(nest)
        calls.clear()
        assert radical_report(nest, alg) == rep
        assert len(calls) == 1
        with pytest.raises(ValueError):
            radical_report(nest, strict_ideal_basis(nest))
        with pytest.raises(ValueError):
            radical_report(trivial_nest(nest.field, nest.ambient_dim), alg)


def test_radical_report_finite_field_trace_form_is_ideal():
    # rad <= T (trace-form kernel) and J <= rad in every characteristic, so
    # the computed T = J certifies rad = J over GF(p) too.  Every chain of
    # GF(2)^n, n <= 3, and of GF(3)^2, plus random nests with p <= n.
    corpus = [nest for n in range(1, 4) for nest in iter_nests(GF2, n)]
    corpus += list(iter_nests(GF3, 2))
    rng = random.Random(61)
    for p in (5, 7):
        corpus += [random_nest(GF(p), n, rng) for n in (p, p, p + 1, p + 1)]
    for nest in corpus:
        rep = radical_report(nest)
        assert rep.equal and rep.quotient_check
        assert rep.radical_basis.basis == rep.strict_basis.basis


def test_trace_form_radical_is_canonical():
    # the oracle's radical is the canonical basis of its own span
    rng = random.Random(62)
    for field in (QQ, GF2, GF3):
        for _ in range(8):
            alg = alg_basis(random_nest(field, rng.randint(1, 5), rng))
            rad = radical_basis_oracle(alg)
            n = alg.nest.ambient_dim
            assert rad.basis == matrix_span_basis(rad.basis, field, (n, n))


def test_trace_form_radical_ignores_the_algebra_basis_order():
    # kernel coordinates times an algebra basis out of RREF (reversed, or
    # b0 + b1, b1, ...) are no RREF; the radical is still the canonical
    # strict ideal, and the report finds the two equal
    rng = random.Random(63)
    for field in (QQ, GF2):
        for nest in (flag_nest(field, 3), coordinate_nest(field, (2, 1)), random_nest(field, 4, rng)):
            strict = strict_ideal_basis(nest).basis
            b = alg_basis(nest).basis
            for basis in (tuple(reversed(b)), (b[0] + b[1],) + b[1:]):
                hand = AlgebraBasis(nest, FULL, basis)
                assert radical_basis_oracle(hand).basis == strict
                rep = radical_report(nest, hand)
                assert rep.equal and rep.radical_basis.basis == strict


def test_radical_report_random_agreement():
    rng = random.Random(54)
    for _ in range(10):
        nest = random_nest(QQ, rng.randint(1, 5), rng)
        rep = radical_report(nest)
        assert rep.equal and rep.quotient_check
        assert rep.nilpotency_index <= len(nest.atoms)


def test_ordsum_block_rules():
    first = flag_nest(QQ, 2)
    second = flag_nest(QQ, 2)
    in_all = qmat(
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 0, 2]]
    )
    [rep] = ordsum_analyze(first, second, [in_all])
    assert rep.alg_predicted and rep.alg_direct
    assert not rep.strict_predicted
    assert rep.consistent

    lower_left = qmat(
        [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]
    )
    [rep] = ordsum_analyze(first, second, [lower_left])
    assert not rep.alg_predicted and not rep.alg_direct
    assert rep.consistent

    strictly = qmat(
        [[0, 1, 5, 5], [0, 0, 5, 5], [0, 0, 0, 1], [0, 0, 0, 0]]
    )
    [rep] = ordsum_analyze(first, second, [strictly])
    assert rep.strict_predicted and rep.strict_direct
    assert rep.radical_predicted and rep.radical_direct
    assert rep.consistent


def test_ordsum_blocks_split_correctly():
    first = flag_nest(QQ, 2)
    second = flag_nest(QQ, 2)
    t = qmat([[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13, 14, 15, 16]])
    [rep] = ordsum_analyze(first, second, [t])
    a1, b, c, a2 = rep.blocks
    assert a1 == qmat([[1, 2], [5, 6]])
    assert b == qmat([[3, 4], [7, 8]])
    assert c == qmat([[9, 10], [13, 14]])
    assert a2 == qmat([[11, 12], [15, 16]])
    assert rep.sum_nest == ordinal_sum(first, second)


def test_ordsum_random_consistency():
    rng = random.Random(55)
    for field in (QQ, GF2):
        for _ in range(15):
            first = random_nest(field, rng.randint(1, 3), rng)
            second = random_nest(field, rng.randint(1, 3), rng)
            n = first.ambient_dim + second.ambient_dim
            t = random_matrix(field, n, n, rng)
            [rep] = ordsum_analyze(first, second, [t])
            assert rep.consistent
            # membership in the summed algebra also via its own basis
            summed = ordinal_sum(first, second)
            assert rep.alg_direct == in_alg(summed, t)


def test_ordsum_analyze_validates_every_operator_first(monkeypatch):
    calls = []
    real = radical.radical_basis_oracle

    def counting(nest):
        calls.append(nest)
        return real(nest)

    monkeypatch.setattr(radical, "radical_basis_oracle", counting)
    first = flag_nest(QQ, 2)
    good = Matrix.identity(QQ, 4)
    for bad in (Matrix.identity(QQ, 3), Matrix.identity(GF2, 4)):
        with pytest.raises(ValueError, match="operator"):
            ordsum_analyze(first, first, [good, bad])
    assert calls == []
    reports = ordsum_analyze(first, first, [good, good, good])
    assert len(reports) == 3 and len(calls) == 3  # the three radicals, once per pair
    assert ordsum_analyze(first, first, []) == []


def test_ordsum_analyze_takes_the_built_sum_basis():
    rng = random.Random(61)
    for field in (QQ, GF2):
        first, second = random_nest(field, 2, rng), random_nest(field, 3, rng)
        summed = ordinal_sum(first, second)
        alg = alg_basis(summed)
        ops = [random_matrix(field, 5, 5, rng), random_span_element(alg, rng)]
        assert ordsum_analyze(first, second, ops, alg) == ordsum_analyze(first, second, ops)
        for wrong in (alg_basis(first), strict_ideal_basis(summed)):
            with pytest.raises(ValueError, match="alg"):
                ordsum_analyze(first, second, ops, wrong)
