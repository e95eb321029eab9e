"""The integer elimination path against Fraction references.

Over Q the constraint kernels, the nilpotency index, the trace-form
oracle, the subspace lattice and the exclusion witnesses run on int rows,
each a nonzero multiple of the row it stands for, and build Fractions only
for the canonical rows they return.  The references here are the same
computations on Fraction matrices.
"""

import dataclasses
import random
from fractions import Fraction
from math import lcm

import pytest

from nestalg import algebra, matrices, radical, subspaces, verify
from nestalg.algebra import (
    FULL,
    STRICT,
    AlgebraBasis,
    MembershipError,
    _constraint_kernel,
    _forbidden,
    alg_basis,
    in_alg,
    in_alg_witness,
    idempotent_onto,
    matrix_span_basis,
    rank_decompose,
    rank_one,
    rank_one_in_alg,
    strict_approximant,
)
from nestalg.fields import GF, GF2, GF3, QQ
from nestalg.matrices import (
    Matrix,
    common_integer_rows,
    echelon,
    integer_kernel,
    integer_product,
    integer_rows,
    kernel_basis,
    rref,
    solve,
    try_invert,
)
from nestalg.nests import flag_nest, new_nest, trivial_nest
from nestalg.radical import (
    ideal_nilpotency_index,
    in_strict_ideal,
    in_strict_ideal_witness,
    ordsum_analyze,
    quasi_inverse,
    radical_basis_oracle,
    radical_exclusion_witness,
    radical_report,
    strict_ideal_basis,
)
from nestalg.sampling import random_matrix, random_nest, random_scalar, random_span_element
from nestalg.subspaces import Functional, full, separating_functional, span_of


def rand_fraction(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 6))


def fraction_frame(nest):
    """S and S^-1 as Fraction matrices, S with the fresh member rows of
    `Nest.frame` as its columns."""
    columns = []
    for pred, member in zip(nest.chain, nest.chain[1:]):
        columns += [v for v, pc in zip(member.basis.entries, member.pivots) if pc not in pred.pivots]
    s = Matrix(nest.field, columns).transpose()
    return s, try_invert(s)


def fractional_nest(rng, n):
    """A nest of Q^n on a flag of vectors with fractional entries, at a
    random set of cuts, whose frame has a non-integral S^-1."""
    while True:
        vectors = [tuple(rand_fraction(rng) for _ in range(n)) for _ in range(n)]
        if span_of(vectors, QQ, n).dim < n:
            continue
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        nest = new_nest(QQ, n, [span_of(vectors[:c], QQ, n) for c in cuts])
        _, s_inv = fraction_frame(nest)
        if any(x.denominator != 1 for row in s_inv.entries for x in row):
            return nest


def sample_nests(seed):
    """Fractional nests of Q^n for n <= 6, and random nests of GF(2) and GF(3)."""
    rng = random.Random(seed)
    nests = [fractional_nest(rng, n) for n in (2, 3, 3, 4, 4, 5, 5, 6)]
    nests += [random_nest(field, rng.randint(1, 5), rng) for field in (GF2, GF3) for _ in range(4)]
    return rng, nests


def multiple_of(ints, row) -> bool:
    """Is the int row a nonzero multiple of the row of field elements?  Over
    GF(p) the residues must be the row itself."""
    if not any(row):
        return not any(ints)
    if isinstance(row[0], int):
        return tuple(ints) == tuple(row)
    j = next(j for j, x in enumerate(row) if x)
    scale = Fraction(ints[j]) / row[j]
    return scale != 0 and all(Fraction(a) == scale * b for a, b in zip(ints, row))


def constraint_kernel_reference(nest, kind):
    """The vectorized operators T with S^-1 T S zero at every forbidden
    entry, from Fraction rows a_i * v_j."""
    f, n = nest.field, nest.ambient_dim
    s, s_inv = fraction_frame(nest)
    block = nest.frame[2]
    columns = s.transpose().entries
    rows = tuple(
        tuple(f.mul(a, v) for a in s_inv.entries[r] for v in columns[c])
        for r in range(n)
        for c in range(n)
        if _forbidden(kind, block[r], block[c])
    )
    return kernel_basis(Matrix(f, rows, cols=n * n))


def index_reference(ideal):
    """The nilpotency index by Fraction product spans, or None when J^k F^n
    stalls at a nonzero space."""
    f, n, basis = ideal.nest.field, ideal.nest.ambient_dim, ideal.basis
    transposes = Matrix._of(f, tuple(r for b in basis for r in b.entries), n).transpose()
    space = full(f, n)
    for k in range(1, n + 1):
        products = (space.basis @ transposes).entries
        image = span_of([w[j : j + n] for w in products for j in range(0, len(w), n)], f, n)
        if image.dim == 0:
            return k
        if image == space:
            return None
        space = image
    return None


def oracle_reference(alg):
    """The trace-form kernel by Fraction products: the Gram matrix of
    tr(a_i a_j), its kernel, and the kernel coordinates times the basis."""
    f, n = alg.nest.field, alg.nest.ambient_dim
    stacked = alg.vectorized
    vec_transposes = tuple(b.transpose().vectorize() for b in alg.basis)
    gram = stacked @ Matrix._of(f, vec_transposes, n * n).transpose()
    return (kernel_basis(gram) @ stacked).entries


def test_fractional_nests_have_non_integral_inverse_frames():
    _, nests = sample_nests(71)
    for nest in nests:
        s, s_inv = fraction_frame(nest)
        columns, inv_rows, _ = nest.frame
        assert all(type(x) is int for row in (*columns, *inv_rows) for x in row)
        assert all(multiple_of(c, v) for c, v in zip(columns, s.transpose().entries))
        assert all(multiple_of(a, row) for a, row in zip(inv_rows, s_inv.entries))


def test_constraint_kernels_match_fraction_reference():
    # the trivial nest has no strict-ideal generators, the full flag the most;
    # over GF(3) and GF(5) a generator's products of residues need reducing
    rng, nests = sample_nests(72)
    nests += [make(field, 4) for make in (trivial_nest, flag_nest) for field in (QQ, GF2, GF3)]
    nests += [random_nest(field, 4, rng) for field in (GF3, GF(5)) for _ in range(8)]
    for nest in nests:
        for kind in (FULL, STRICT):
            got = Matrix._of(nest.field, tuple(t.vectorize() for t in _constraint_kernel(nest, kind).basis),
                             nest.ambient_dim ** 2)
            assert got == constraint_kernel_reference(nest, kind)


def test_nilpotency_index_matches_fraction_reference():
    rng, nests = sample_nests(73)
    for nest in nests:
        strict = strict_ideal_basis(nest)
        ideals = [strict, radical_basis_oracle(alg_basis(nest)), alg_basis(nest)]
        for _ in range(3):
            part = rng.sample(strict.basis, rng.randint(0, strict.dim))
            ideals.append(AlgebraBasis(nest, STRICT, tuple(part)))
        ideals.append(AlgebraBasis(nest, STRICT, (random_span_element(strict, rng),)))
        for ideal in ideals:
            want = index_reference(ideal)
            try:
                got = ideal_nilpotency_index(ideal)
            except AssertionError:
                got = None
            assert got == want
        assert ideal_nilpotency_index(strict) == len(nest.atoms)


def test_radical_oracle_matches_fraction_reference():
    _, nests = sample_nests(74)
    for nest in nests:
        alg = alg_basis(nest)
        rad = radical_basis_oracle(alg)
        assert tuple(t.vectorize() for t in rad.basis) == oracle_reference(alg)
        assert rad.basis == strict_ideal_basis(nest).basis


def _oracle_corpus(seed):
    """Nests of two or more atoms: fractional over Q, random over GF(2) and GF(3)."""
    rng, nests = sample_nests(seed)
    nests += [flag_nest(field, 3) for field in (QQ, GF2, GF3)]
    return rng, [nest for nest in nests if len(nest.atoms) > 1]


def test_trace_form_oracle_rejects_an_operator_outside_the_algebra():
    rng, nests = _oracle_corpus(75)
    for nest in nests:
        n, basis = nest.ambient_dim, alg_basis(nest).basis
        t = random_matrix(nest.field, n, n, rng)
        while in_alg(nest, t):
            t = random_matrix(nest.field, n, n, rng)
        for k in (0, len(basis) - 1):
            hand = AlgebraBasis(nest, FULL, basis[:k] + (t,) + basis[k + 1 :])
            with pytest.raises(ValueError, match="inside the algebra"):
                radical_basis_oracle(hand)


def test_trace_form_oracle_never_returns_a_wrong_radical_for_a_dropped_row():
    # Dropping a row leaves a span that, with J, either still gives the whole
    # algebra, and then its trace-form kernel is its meet with J, or misses a
    # diagonal-block direction, and then the oracle refuses it.
    _, nests = _oracle_corpus(76)
    refused = 0
    for nest in nests:
        f, n = nest.field, nest.ambient_dim
        basis, strict = alg_basis(nest).basis, strict_ideal_basis(nest).basis
        for k in range(len(basis)):
            hand = AlgebraBasis(nest, FULL, basis[:k] + basis[k + 1 :])
            if len(matrix_span_basis(hand.basis + strict, f, (n, n))) < len(basis):
                with pytest.raises(ValueError, match="diagonal blocks"):
                    radical_basis_oracle(hand)
                refused += 1
                continue
            rad = radical_basis_oracle(hand).basis
            want = [Matrix._of(f, tuple(tuple(row[i : i + n]) for i in range(0, n * n, n)), n)
                    for row in oracle_reference(hand)]
            assert rad == matrix_span_basis(want, f, (n, n))
            assert all(in_strict_ideal(nest, t) for t in rad)
    assert refused > 0


def _count_echelons(monkeypatch):
    calls = []
    real = matrices.echelon

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (matrices, algebra, radical, subspaces):
        monkeypatch.setattr(module, "echelon", counted)
    return calls


def test_nilpotency_index_is_certified_on_the_frame(monkeypatch):
    # J^m = 0 from the shift check and J^(m-1) != 0 from a witness chain, with
    # no elimination, on fractional frames over Q and on GF(2), GF(3), GF(5)
    rng = random.Random(77)
    nests = [fractional_nest(rng, n) for n in (2, 3, 4, 5, 6, 6)]
    nests += [random_nest(field, rng.randint(1, 6), rng) for field in (GF2, GF3, GF(5)) for _ in range(6)]
    nests += [flag_nest(field, 6) for field in (QQ, GF2)]
    stricts = [strict_ideal_basis(nest) for nest in nests]
    calls = _count_echelons(monkeypatch)
    for nest, strict in zip(nests, stricts):
        assert ideal_nilpotency_index(strict) == len(nest.atoms)
    assert calls == []


def test_nilpotency_index_of_a_span_too_small_for_a_witness_takes_the_loop(monkeypatch):
    # one strict operator of a 3-flag shifts the chain, but no product of two
    # of its operators leaves the last column nonzero: the range loop decides
    for field in (QQ, GF2, GF3):
        nest = flag_nest(field, 3)
        for t in strict_ideal_basis(nest).basis:
            ideal = AlgebraBasis(nest, STRICT, (t,))
            want = index_reference(ideal)
            calls = _count_echelons(monkeypatch)
            assert ideal_nilpotency_index(ideal) == want == 2
            assert calls
            monkeypatch.undo()


def test_report_and_draws_build_no_algebra_operators():
    # the report and the draws read the algebra's ints only; its Fraction
    # operators are built on the first read of `basis`, and are canonical
    rng = random.Random(79)
    nests = [fractional_nest(rng, n) for n in (3, 4, 5)] + [random_nest(GF3, n, rng) for n in (2, 3, 4)]
    for nest in nests:
        alg = alg_basis(nest)
        rep = radical_report(nest, alg)
        random_span_element(alg, rng)
        random_span_element(alg, rng, nonzero=True)
        assert rep.alg_dim == alg.dim and rep.equal
        assert "basis" not in vars(alg)
        n = nest.ambient_dim
        got = Matrix._of(nest.field, tuple(t.vectorize() for t in alg.basis), n * n)
        assert got == constraint_kernel_reference(nest, FULL)
        assert "basis" in vars(alg)


def test_integer_product_is_a_multiple_of_the_entrywise_sum():
    rng = random.Random(75)
    for _ in range(60):
        rows, inner, cols = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a = Matrix(QQ, [[rand_fraction(rng) for _ in range(inner)] for _ in range(rows)], cols=inner)
        b = Matrix(QQ, [[rand_fraction(rng) for _ in range(cols)] for _ in range(inner)], cols=cols)
        got = integer_product(QQ, integer_rows(a), common_integer_rows(b)[0], cols)
        want = [
            [sum((a.entries[i][k] * b.entries[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
            for i in range(rows)
        ]
        assert len(got) == rows
        assert all(type(x) is int for row in got for x in row)
        assert all(multiple_of(g, w) for g, w in zip(got, want))
    for field in (GF2, GF3, GF(7)):
        for _ in range(20):
            rows, inner, cols = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
            a = [[rng.randrange(field.p) for _ in range(inner)] for _ in range(rows)]
            b = [[rng.randrange(field.p) for _ in range(cols)] for _ in range(inner)]
            want = [
                tuple(sum(a[i][k] * b[k][j] for k in range(inner)) % field.p for j in range(cols))
                for i in range(rows)
            ]
            assert integer_product(field, a, b, cols) == want


def test_echelon_and_integer_kernel_are_multiples_of_the_canonical_rows():
    rng = random.Random(76)
    for _ in range(60):
        rows, cols = rng.randint(0, 5), rng.randint(0, 6)
        m = Matrix(QQ, [[rand_fraction(rng) for _ in range(cols)] for _ in range(rows)], cols=cols)
        scales = [rng.choice((-3, 2, 5)) for _ in range(rows)]
        scaled = [[x * c for x in row] for row, c in zip(integer_rows(m), scales)]
        red, pivots = echelon(QQ, scaled, cols)
        canon = rref(m)
        assert tuple(pivots) == canon.pivots
        assert all(multiple_of(r, c) for r, c in zip(red, canon.matrix.entries))
        kernel = integer_kernel(QQ, scaled, cols)
        assert len(kernel) == kernel_basis(m).rows
        assert all(multiple_of(k, c) for k, c in zip(kernel, kernel_basis(m).entries))


def test_echelon_reduces_rows_mod_p_and_signs_rows_over_q():
    rng = random.Random(77)
    for p in (3, 5):
        field = GF(p)
        for _ in range(40):
            rows, cols = rng.randint(0, 5), rng.randint(0, 6)
            ints = [[rng.randint(-30, 30) for _ in range(cols)] for _ in range(rows)]
            ints.append([p * rng.randint(-4, 4) for _ in range(cols)])  # 0 mod p
            residues = [[x % p for x in row] for row in ints]
            assert echelon(field, ints, cols) == echelon(field, residues, cols)
            assert len(echelon(field, ints, cols)[0]) == rref(Matrix(field, residues, cols=cols)).rank
    for _ in range(60):
        rows, cols = rng.randint(0, 5), rng.randint(0, 6)
        ints = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        red, pivots = echelon(QQ, ints, cols)
        assert all(row[pc] > 0 for row, pc in zip(red, pivots))


def assert_carries_scaled_rows(basis):
    """basis.scaled is (ints, scale): ints equal to scale times the rows of
    basis.vectorized exactly, with scale 1 over GF(p)."""
    ints, scale = basis.scaled
    assert type(scale) is int and scale != 0
    assert len(ints) == basis.dim
    assert all(type(x) is int for row in ints for x in row)
    want = basis.vectorized.entries
    if basis.nest.field == QQ:
        assert [[Fraction(x) for x in row] for row in ints] == [[scale * x for x in row] for row in want]
    else:
        assert scale == 1 and tuple(map(tuple, ints)) == want


def test_emitted_bases_carry_their_scaled_rows():
    rng = random.Random(78)
    _, nests = sample_nests(78)
    nests += [random_nest(field, rng.randint(1, 6), rng) for field in (QQ, GF2, GF3) for _ in range(4)]
    for nest in nests:
        alg = alg_basis(nest)
        for basis in (alg, strict_ideal_basis(nest), radical_basis_oracle(alg)):
            # carried from the elimination, not derived on first use
            assert "scaled" in vars(basis)
            assert_carries_scaled_rows(basis)
            # a draw is the coefficient row times the basis, by Fraction sums
            seed = rng.random()
            t = random_span_element(basis, random.Random(seed))
            draw = random.Random(seed)
            want = Matrix.zeros(nest.field, nest.ambient_dim, nest.ambient_dim)
            for b in basis.basis:
                want = want + b.scale(random_scalar(nest.field, draw))
            assert t == want


def test_hand_built_bases_derive_scaled_rows_from_their_own_operators():
    # E11 + E12, E11, E22 span the algebra of the flag of Q^2 out of RREF;
    # a half of each, and a canonical basis with a non-member swapped in
    for field in (QQ, GF2, GF3):
        nest = flag_nest(field, 2)
        e11, e12, e22 = (Matrix(field, m) for m in ([[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 1]]))
        lower = Matrix(field, [[0, 0], [1, 0]])
        alg = alg_basis(nest)
        bases = [AlgebraBasis(nest, FULL, (e11 + e12, e11, e22)),
                 AlgebraBasis(nest, FULL, alg.basis[:-1] + (lower,)),
                 AlgebraBasis(nest, STRICT, ())]
        if field == QQ:
            halves = AlgebraBasis(nest, FULL, tuple(b.scale(Fraction(1, 2)) for b in bases[0].basis))
            bases.append(halves)
        for basis in bases:
            assert "scaled" not in vars(basis)
            assert_carries_scaled_rows(basis)
            assert basis.span == span_of(basis.vectorized.entries, field, 4)
        assert bases[0].span == alg.span and bases[1].span != alg.span
    assert halves.scaled == ([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], 2)


def _q_matrices(obj):
    """Every Matrix over Q reachable from obj through dataclass fields (of
    subspaces, nests, bases, reports), tuples and lists."""
    if isinstance(obj, Matrix):
        if obj.field == QQ:
            yield obj
    elif dataclasses.is_dataclass(obj):
        for fld in dataclasses.fields(obj):
            yield from _q_matrices(getattr(obj, fld.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _q_matrices(item)


def test_every_returned_q_matrix_holds_fractions():
    # an int entry would leave the report bytes unchanged, so look at types
    rng, nests = sample_nests(77)
    results = []
    for nest in nests[:8]:
        n = nest.ambient_dim
        alg, strict = alg_basis(nest), strict_ideal_basis(nest)
        s, _ = fraction_frame(nest)
        t = random_span_element(alg, rng, nonzero=True)
        member = nest.chain[-2] if nest.chain[-2].dim else nest.chain[-1]
        results += [alg, strict, radical_basis_oracle(alg), radical_report(nest), nest.dual()]
        results += [kernel_basis(s), rref(s).matrix, try_invert(s), s @ s, idempotent_onto(nest, member)]
        results += [rank_decompose(nest, t), strict_approximant(nest, t, s.entries[:1])]
        results += [quasi_inverse(nest, t, random_span_element(strict, rng)), member.annihilator()]
        results += [ordsum_analyze(nest, nest, [Matrix.identity(QQ, 2 * n)])]
        results.append(Matrix._of(QQ, (solve(s, s.entries[0]),), n))
    matrices = list(_q_matrices(results))
    assert len(matrices) > 100
    for m in matrices:
        assert all(type(x) is Fraction for row in m.entries for x in row), m


def fraction_rref(field, rows, n):
    """The canonical RREF rows of the rows of field elements, by
    Gauss-Jordan on field elements."""
    rows = [list(row) for row in rows]
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [field.sub(x, field.mul(row[c], y)) for x, y in zip(row, rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows[:r])


def fraction_kernel(field, rows, n):
    """The canonical RREF rows of {v : m v = 0} for m with these rows: the
    free-variable vectors of m's RREF, then their own RREF."""
    red = fraction_rref(field, rows, n)
    pivots = [next(j for j, x in enumerate(row) if x) for row in red]
    vectors = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [field.zero()] * n
        v[fc] = field.one()
        for row, pc in zip(red, pivots):
            v[pc] = field.neg(row[fc])
        vectors.append(v)
    return fraction_rref(field, vectors, n)


def random_rows(field, n, rng):
    """Up to n + 1 random rows, over Q with fractional entries, sometimes
    with a dependent row."""
    def entry():
        return rand_fraction(rng) if field == QQ else rng.randrange(field.p)

    rows = [tuple(entry() for _ in range(n)) for _ in range(rng.randint(0, n))]
    if rows and rng.random() < 0.3:
        rows.append(tuple(field.add(x, field.mul(2, y)) for x, y in zip(rows[0], rows[-1])))
    return rows


def test_subspace_lattice_matches_fraction_reference():
    rng = random.Random(80)
    for field in (QQ, GF2, GF3):
        for _ in range(80):
            n = rng.randint(1, 5)
            va, vb = random_rows(field, n, rng), random_rows(field, n, rng)
            a, b = span_of(va, field, n), span_of(vb, field, n)

            def holds(s, v):
                return len(fraction_rref(field, s.basis.entries + (tuple(v),), n)) == s.dim

            assert a.basis.entries == fraction_rref(field, va, n)
            assert a.join(b).basis.entries == fraction_rref(field, va + vb, n)
            ann_a = fraction_kernel(field, a.basis.entries, n)
            ann_b = fraction_kernel(field, b.basis.entries, n)
            assert a.annihilator().basis.entries == ann_a
            assert a.meet(b).basis.entries == fraction_kernel(field, ann_a + ann_b, n)
            for s, t in ((a, b), (b, a), (a.meet(b), a), (b, a.join(b)), (a, a)):
                assert s.leq(t) == all(holds(t, v) for v in s.basis.entries)
            combo = tuple(field.add(x, y) for x, y in zip(*a.basis.entries[:2])) if a.dim > 1 else None
            for v in [*vb, *random_rows(field, n, rng), *filter(None, [combo])]:
                assert a.contains(v) == holds(a, v)
            for s in (a, b, a.join(b), a.meet(b), a.annihilator()):
                rows = s.basis.entries
                if field == QQ:
                    assert all(type(x) is Fraction for row in rows for x in row)
                    dens = [lcm(*[x.denominator for x in row]) for row in rows]
                    assert [list(r) for r in s.int_rows] == [
                        [int(x * d) for x in row] for row, d in zip(rows, dens)
                    ]
                else:
                    assert tuple(map(tuple, s.int_rows)) == rows


def exclusion_witness_reference(nest, t):
    """The construction on three conjugations: the algebra's membership,
    the strict ideal's violation, and x's principal predecessor by a scan
    of the members."""
    outside = in_alg_witness(nest, t)
    if outside is not None:
        raise MembershipError(FULL, *outside)
    violation = in_strict_ideal_witness(nest, t)
    if violation is None:
        raise ValueError("t strictly shifts the chain")
    _, x = violation
    return x, separating_functional(t.apply(x), nest.principal_pred(x))


def test_exclusion_witness_matches_three_conjugation_reference():
    rng, nests = sample_nests(81)
    nests += [random_nest(field, rng.randint(2, 5), rng) for field in (GF(5), QQ) for _ in range(3)]
    found = 0
    for nest in nests:
        f, n = nest.field, nest.ambient_dim
        alg, strict = alg_basis(nest), strict_ideal_basis(nest)
        for _ in range(4):
            t = random_span_element(alg, rng, nonzero=True)
            if in_strict_ideal_witness(nest, t) is None:
                continue
            x, phi = radical_exclusion_witness(nest, t)
            want_x, want_phi = exclusion_witness_reference(nest, t)
            assert (x, phi.coeffs) == (want_x, want_phi.coeffs)
            found += 1
        with pytest.raises(ValueError) as exc:
            radical_exclusion_witness(nest, random_span_element(strict, rng))
        assert not isinstance(exc.value, MembershipError)
        if alg.dim == n * n:
            continue
        t = random_matrix(f, n, n, rng)
        while in_alg_witness(nest, t) is None:
            t = random_matrix(f, n, n, rng)
        with pytest.raises(MembershipError) as exc:
            radical_exclusion_witness(nest, t)
        with pytest.raises(MembershipError) as want:
            exclusion_witness_reference(nest, t)
        assert (exc.value.member, exc.value.vector) == (want.value.member, want.value.vector)
    assert found > 20


def test_exclusion_check_matches_the_fraction_blocker():
    # 1 - R t by Fraction products and an inverse, for witnesses and for
    # random pairs (x, phi), whose 1 - R t is mostly invertible
    rng, nests = sample_nests(82)
    outcomes = set()
    for nest in nests:
        f, n = nest.field, nest.ambient_dim
        alg = alg_basis(nest)
        for _ in range(4):
            t = random_span_element(alg, rng, nonzero=True)
            x = tuple(random_scalar(f, rng) for _ in range(n))
            phi = Functional(f, n, tuple(random_scalar(f, rng) for _ in range(n)))
            pairs = [(x, phi)] if any(x) and not phi.is_zero() else []
            if in_strict_ideal_witness(nest, t) is not None:
                pairs.append(radical_exclusion_witness(nest, t))
            for x, phi in pairs:
                ck = verify._Check()
                singular = verify.check_exclusion_witness(ck, nest, t, x, phi, None)
                r = rank_one(x, phi)
                blocker = Matrix.identity(f, n) - r.matrix @ t
                verdicts = {v["property"]: v["pass"] for v in ck.verdicts()}
                assert singular == verdicts["witness-blocks-invertibility"]
                assert singular == (try_invert(blocker) is None)
                assert verdicts["witness-kills-x"] == all(not v for v in blocker.apply(x))
                assert verdicts["witness-rank-one-in-algebra"] == rank_one_in_alg(nest, r)
                outcomes.add((singular, verdicts["witness-rank-one-in-algebra"]))
    assert outcomes >= {(True, True), (False, False)}
