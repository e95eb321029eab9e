"""Exact linear algebra: fields, rref, kernels, solving, inversion.

Inversion and rank are cross-checked against a permutation-expansion
determinant written here from scratch, exhaustively over GF(2) in low
dimensions and on random samples elsewhere.
"""

import itertools
import random
from fractions import Fraction

import pytest

from nestalg import matrices
from nestalg.fields import GF, GF2, GF3, MAX_MODULUS, QQ, Field
from nestalg.matrices import (
    Matrix,
    RrefResult,
    dot,
    kernel_basis,
    outer,
    rref,
    solve,
    try_invert,
)

FIELDS = (QQ, GF2, GF3)


def qmat(rows):
    return Matrix(QQ, tuple(tuple(Fraction(x) for x in r) for r in rows))


def rand_matrix(field, rows, cols, rng):
    if field.is_rationals:
        return Matrix(
            field,
            tuple(tuple(Fraction(rng.randint(-4, 4)) for _ in range(cols)) for _ in range(rows)),
        )
    return Matrix(
        field,
        tuple(tuple(rng.randrange(field.p) for _ in range(cols)) for _ in range(rows)),
    )


def det_oracle(m):
    """Permutation expansion; independent of the elimination code."""
    assert m.rows == m.cols
    f = m.field
    total = f.zero()
    for perm in itertools.permutations(range(m.rows)):
        inversions = sum(
            1 for i in range(m.rows) for j in range(i + 1, m.rows) if perm[i] > perm[j]
        )
        term = f.one()
        for i, j in enumerate(perm):
            term = f.mul(term, m.entries[i][j])
        total = f.add(total, term if inversions % 2 == 0 else f.neg(term))
    return total


def rref_reference(m):
    """Gauss-Jordan elimination through the field's own operations; the
    reference for both back ends of rref."""
    f = m.field
    rows = [list(row) for row in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = f.inv(rows[r][c])
        if inv != f.one():
            rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    reduced = Matrix(f, tuple(tuple(row) for row in rows), cols=ncols)
    return RrefResult(reduced, tuple(pivots), len(pivots))


# field arithmetic


def test_field_basics():
    assert QQ.coerce("3/4") == Fraction(3, 4)
    assert QQ.coerce(-2) == Fraction(-2)
    assert GF2.coerce(7) == 1
    assert GF3.coerce(-1) == 2
    assert GF3.inv(2) == 2
    assert QQ.format_scalar(Fraction(5)) == "5"
    assert QQ.format_scalar(Fraction(-5, 7)) == "-5/7"
    assert GF3.format_scalar(2) == 2


def test_field_rejects_composite_modulus():
    # 561, 1105 and 1729 are Carmichael numbers; the last three are strong
    # pseudoprimes to every prime base up to 23, 37 and 41 respectively.
    for n in (6, 561, 1105, 1729, 3825123056546413051, 318665857834031151167461, MAX_MODULUS):
        with pytest.raises(ValueError):
            GF(n)


def test_field_primality_matches_trial_division():
    for n in range(2, 3000):
        prime = all(n % d for d in range(2, int(n**0.5) + 1))
        if prime:
            assert Field(n).p == n
        else:
            with pytest.raises(ValueError):
                Field(n)


def test_field_accepts_large_prime_modulus():
    f = Field(10**18 + 3)
    assert f.mul(f.inv(12345), 12345) == 1


def test_field_rejects_booleans():
    for field in FIELDS:
        with pytest.raises(TypeError):
            field.coerce(True)
        with pytest.raises(ValueError):
            field.parse_scalar(False)


def test_gf_elements():
    assert list(GF3.elements()) == [0, 1, 2]
    with pytest.raises(ValueError):
        QQ.elements()


def test_field_axioms_sampled():
    rng = random.Random(11)
    for field in FIELDS:
        for _ in range(50):
            a = field.coerce(rng.randint(-9, 9))
            b = field.coerce(rng.randint(-9, 9))
            c = field.coerce(rng.randint(-9, 9))
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
            if b:
                assert field.mul(b, field.inv(b)) == field.one()


# frozen elimination examples


def test_rref_known_values():
    r = rref(qmat([[0, 2, 4], [1, 3, 5]]))
    assert r.matrix == qmat([[1, 0, -1], [0, 1, 2]])
    assert r.pivots == (0, 1)
    assert r.rank == 2

    r = rref(qmat([[1, 2], [2, 4]]))
    assert r.matrix == qmat([[1, 2], [0, 0]])
    assert r.pivots == (0,)
    assert r.rank == 1


def test_kernel_known_values():
    k = kernel_basis(qmat([[1, 2], [2, 4]]))
    assert k.entries == ((Fraction(1), Fraction(-1, 2)),)

    k = kernel_basis(Matrix(GF2, ((1, 1, 0), (0, 1, 1))))
    assert k.entries == ((1, 1, 1),)

    k = kernel_basis(Matrix.identity(QQ, 3))
    assert k.rows == 0 and k.cols == 3


def test_solve_known_values():
    assert solve(qmat([[1, 0], [1, 0]]), (Fraction(1), Fraction(2))) is None
    assert solve(qmat([[2, 0], [0, 4]]), (Fraction(3), Fraction(8))) == (
        Fraction(3, 2),
        Fraction(2),
    )
    # no equations: the deterministic solution is all zeros
    empty = Matrix(QQ, (), cols=2)
    assert solve(empty, ()) == (Fraction(0), Fraction(0))


def test_try_invert_known_values():
    assert try_invert(qmat([[1, 1], [0, 1]])) == qmat([[1, -1], [0, 1]])
    assert try_invert(qmat([[1, 2], [2, 4]])) is None
    g5 = GF(5)
    assert try_invert(Matrix(g5, ((2, 0), (0, 3)))) == Matrix(g5, ((3, 0), (0, 2)))
    for field in (QQ, GF2):
        assert try_invert(Matrix(field, (), cols=0)) == Matrix.zeros(field, 0, 0)


# elimination properties against the determinant oracle


def test_invert_exhaustive_gf2_n_le_3():
    for n in (1, 2, 3):
        for bits in itertools.product((0, 1), repeat=n * n):
            m = Matrix(GF2, tuple(tuple(bits[i * n : (i + 1) * n]) for i in range(n)))
            inv = try_invert(m)
            if det_oracle(m) == 0:
                assert inv is None
            else:
                assert inv is not None
                assert m @ inv == Matrix.identity(GF2, n)
                assert inv @ m == Matrix.identity(GF2, n)


def test_invert_random_vs_determinant():
    rng = random.Random(5)
    for field in FIELDS:
        for n in (2, 3, 4):
            for _ in range(20):
                m = rand_matrix(field, n, n, rng)
                inv = try_invert(m)
                d = det_oracle(m)
                assert (inv is None) == (d == field.zero()), m.to_nested()
                if inv is not None:
                    assert m @ inv == Matrix.identity(field, n)
                    assert inv @ m == Matrix.identity(field, n)


def test_rank_matches_determinant_on_square():
    rng = random.Random(6)
    for field in FIELDS:
        for _ in range(25):
            n = rng.randint(1, 4)
            m = rand_matrix(field, n, n, rng)
            full = rref(m).rank == n
            assert full == (det_oracle(m) != field.zero())


def test_rref_properties_random():
    rng = random.Random(7)
    for field in FIELDS:
        for _ in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = rand_matrix(field, rows, cols, rng)
            r = rref(m)
            assert r.matrix.rows == rows and r.matrix.cols == cols
            assert rref(r.matrix).matrix == r.matrix
            assert list(r.pivots) == sorted(r.pivots)
            assert r.rank == len(r.pivots) <= min(rows, cols)
            for i, pc in enumerate(r.pivots):
                col = [r.matrix.entries[k][pc] for k in range(rows)]
                assert col[i] == field.one()
                assert all(not col[k] for k in range(rows) if k != i)
            # row space unchanged: stacking m on its rref gains no rank
            stacked = Matrix(field, m.entries + r.matrix.entries)
            assert rref(stacked).rank == r.rank


def rand_fraction(rng, zero_share):
    if rng.random() < zero_share:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def rand_fraction_matrix(rows, cols, rng, zero_share=0.3):
    entries = tuple(tuple(rand_fraction(rng, zero_share) for _ in range(cols)) for _ in range(rows))
    return Matrix(QQ, entries, cols=cols)


def test_rref_integer_rows_match_generic_loop():
    # Over QQ rref eliminates on integer rows; the field-generic loop is
    # the reference for matrices, pivots and the Fraction type of entries.
    rng = random.Random(12)
    cases = [rand_fraction_matrix(r, c, rng) for r, c in ((0, 3), (3, 0), (0, 0))]
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 8)
        m = rand_fraction_matrix(rows, cols, rng)
        k = rng.randint(1, 3)
        low = rand_fraction_matrix(rows, k, rng) @ rand_fraction_matrix(k, cols, rng)
        zero_row = (Fraction(0),) * cols
        padded = Matrix(QQ, (zero_row,) + low.entries + (zero_row,))
        b = tuple(rand_fraction(rng, 0.3) for _ in range(rows))
        solve_aug = Matrix(QQ, tuple(row + (bv,) for row, bv in zip(m.entries, b)))
        square = rand_fraction_matrix(rows, rows, rng)
        ident = Matrix.identity(QQ, rows)
        invert_aug = Matrix(QQ, tuple(r + i for r, i in zip(square.entries, ident.entries)))
        cases += [m, low, padded, solve_aug, invert_aug]
    for m in cases:
        got, want = rref(m), rref_reference(m)
        assert got.matrix == want.matrix
        assert (got.pivots, got.rank) == (want.pivots, want.rank)
        assert (got.matrix.rows, got.matrix.cols) == (m.rows, m.cols)
        assert all(type(x) is Fraction for row in got.matrix.entries for x in row)


def test_rref_mod_p_matches_generic_loop():
    # Over GF(p) rref eliminates on plain ints; the field-generic loop is the
    # reference, on the shapes rref, solve and try_invert hand it.
    rng = random.Random(14)
    for field in (GF2, GF3, GF(7)):
        cases = [Matrix.zeros(field, r, c) for r, c in ((0, 3), (3, 0), (0, 0), (2, 3))]
        for _ in range(60):
            rows, cols = rng.randint(1, 6), rng.randint(1, 8)
            m = rand_matrix(field, rows, cols, rng)
            k = rng.randint(1, 3)
            low = rand_matrix(field, rows, k, rng) @ rand_matrix(field, k, cols, rng)
            zero_row = (0,) * cols
            padded = Matrix(field, (zero_row,) + low.entries + (zero_row,))
            b = tuple(rng.randrange(field.p) for _ in range(rows))
            solve_aug = Matrix(field, tuple(row + (bv,) for row, bv in zip(m.entries, b)))
            square = rand_matrix(field, rows, rows, rng)
            ident = Matrix.identity(field, rows)
            invert_aug = Matrix(field, tuple(r + i for r, i in zip(square.entries, ident.entries)))
            cases += [m, low, padded, solve_aug, invert_aug]
        for m in cases:
            got, want = rref(m), rref_reference(m)
            assert got.matrix == want.matrix
            assert (got.pivots, got.rank) == (want.pivots, want.rank)
            assert (got.matrix.rows, got.matrix.cols) == (m.rows, m.cols)
            assert all(type(x) is int for row in got.matrix.entries for x in row)


def test_product_matches_entrywise_sum():
    # Over QQ products run on integer rows; the entrywise Fraction sum is the reference.
    rng = random.Random(13)
    for _ in range(60):
        rows, inner, cols = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a = rand_fraction_matrix(rows, inner, rng, zero_share=0.5)
        b = rand_fraction_matrix(inner, cols, rng, zero_share=0.5)
        got = a @ b
        want = tuple(
            tuple(
                sum((a.entries[i][k] * b.entries[k][j] for k in range(inner)), Fraction(0))
                for j in range(cols)
            )
            for i in range(rows)
        )
        assert got.entries == want and (got.rows, got.cols) == (rows, cols)
        assert all(type(x) is Fraction for row in got.entries for x in row)


def test_kernel_properties_random():
    rng = random.Random(8)
    for field in FIELDS:
        for _ in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = rand_matrix(field, rows, cols, rng)
            k = kernel_basis(m)
            assert k.cols == cols
            assert k.rows == cols - rref(m).rank
            for v in k.entries:
                assert all(not x for x in m.apply(v))
            # canonical: the kernel basis is its own rref
            if k.rows:
                assert rref(k).matrix == k
                assert rref(k).rank == k.rows


def kernel_reference(m):
    """Kernel by two eliminations: the free-variable vectors of rref(m),
    then their own rref; the reference for kernel_basis."""
    f = m.field
    red = rref(m)
    vectors = []
    for fc in (c for c in range(m.cols) if c not in red.pivots):
        v = [f.zero()] * m.cols
        v[fc] = f.one()
        for i, pc in enumerate(red.pivots):
            v[pc] = f.neg(red.matrix.entries[i][fc])
        vectors.append(tuple(v))
    canon = rref(Matrix(f, tuple(vectors), cols=m.cols))
    return Matrix(f, canon.matrix.entries[: canon.rank], cols=m.cols)


def test_kernel_matches_two_pass_reference(monkeypatch):
    # One elimination of the column-reversed matrix gives the kernel's RREF
    # directly; the two-pass construction is the reference.
    rng = random.Random(15)
    for field in (QQ, GF2, GF3, GF(7)):
        cases = [Matrix.zeros(field, r, c) for r, c in ((0, 0), (0, 4), (3, 0), (3, 4))]
        cases += [Matrix.identity(field, n) for n in (1, 4)]
        for _ in range(80):
            rows, cols = rng.randint(1, 6), rng.randint(1, 7)
            m = rand_matrix(field, rows, cols, rng)
            k = rng.randint(1, 3)
            low = rand_matrix(field, rows, k, rng) @ rand_matrix(field, k, cols, rng)
            cases += [m, low]
        for m in cases:
            got = kernel_basis(m)
            want = kernel_reference(m)
            assert got == want and (got.rows, got.cols) == (want.rows, m.cols)
            assert [list(map(type, r)) for r in got.entries] == [
                list(map(type, r)) for r in want.entries
            ]

    # one elimination per kernel: a single call of the integer core
    calls = []
    real = matrices.echelon
    monkeypatch.setattr(matrices, "echelon", lambda *a: calls.append(a) or real(*a))
    for m in (rand_matrix(QQ, 3, 5, rng), rand_matrix(GF3, 4, 4, rng), Matrix.zeros(GF2, 0, 3)):
        calls.clear()
        kernel_basis(m)
        assert len(calls) == 1


def test_solve_properties_random():
    rng = random.Random(9)
    for field in FIELDS:
        for _ in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = rand_matrix(field, rows, cols, rng)
            x = tuple(field.coerce(rng.randint(-3, 3)) for _ in range(cols))
            b = m.apply(x)
            sol = solve(m, b)
            assert sol is not None
            assert m.apply(sol) == b


def test_solve_detects_inconsistency_exhaustive_gf2():
    rng = random.Random(10)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 3)
        m = rand_matrix(GF2, rows, cols, rng)
        b = tuple(rng.randrange(2) for _ in range(rows))
        sol = solve(m, b)
        brute = [
            x
            for x in itertools.product((0, 1), repeat=cols)
            if m.apply(x) == b
        ]
        assert (sol is None) == (not brute)
        if sol is not None:
            assert m.apply(sol) == b


# matrix algebra plumbing


def test_matrix_ops():
    a = qmat([[1, 2], [3, 4]])
    b = qmat([[0, 1], [1, 0]])
    assert a + b == qmat([[1, 3], [4, 4]])
    assert a - a == Matrix.zeros(QQ, 2, 2)
    assert a @ b == qmat([[2, 1], [4, 3]])
    assert a.scale(Fraction(2)) == qmat([[2, 4], [6, 8]])
    assert a.transpose() == qmat([[1, 3], [2, 4]])
    assert a.trace() == Fraction(5)
    assert a.apply((Fraction(1), Fraction(1))) == (Fraction(3), Fraction(7))
    assert a.column(1) == (Fraction(2), Fraction(4))
    assert a.vectorize() == (Fraction(1), Fraction(2), Fraction(3), Fraction(4))


def test_empty_matrix_keeps_cols():
    empty = Matrix(QQ, (), cols=3)
    assert empty.cols == 3
    assert empty.transpose().rows == 3
    assert kernel_basis(empty).rows == 3
    with pytest.raises(ValueError):
        Matrix(QQ, ((Fraction(1), Fraction(2)),), cols=3)


def transpose_reference(m):
    """The transpose through the public, coercing constructor."""
    if not m.entries:
        return Matrix.zeros(m.field, m.cols, 0)
    return Matrix(m.field, tuple(zip(*m.entries)), cols=m.rows)


def shape_of(m):
    return m.rows, m.cols, m.entries, [type(x) for row in m.entries for x in row]


def test_transpose_matches_coercing_reference(monkeypatch):
    # equal shapes, entries and entry types on Q and GF(p), the empty shapes
    # included; an involution; and no entry passes through Field.coerce
    rng = random.Random(61)
    mats = []
    for field in FIELDS + (GF(7),):
        mats += [Matrix(field, (), cols=3), Matrix(field, ((), (), ()))]
        mats += [rand_matrix(field, rng.randint(1, 5), rng.randint(1, 5), rng) for _ in range(30)]
    mats += [rand_fraction_matrix(rng.randint(1, 5), rng.randint(1, 5), rng) for _ in range(30)]
    expected = [shape_of(transpose_reference(m)) for m in mats]

    def refuse(self, value):
        raise AssertionError("transpose coerced an entry")

    monkeypatch.setattr(Field, "coerce", refuse)
    for m, want in zip(mats, expected):
        t = m.transpose()
        assert shape_of(t) == want
        assert shape_of(t.transpose()) == shape_of(m)
    assert shape_of(mats[0].transpose())[:3] == (3, 0, ((), (), ()))
    assert shape_of(mats[1].transpose())[:3] == (0, 3, ())


def test_shape_and_field_mismatch():
    a = qmat([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        a @ qmat([[1, 2, 3]])
    with pytest.raises(ValueError):
        a + Matrix(GF2, ((1, 0), (0, 1)))


def test_outer_and_dot():
    x = (Fraction(1), Fraction(2))
    phi = (Fraction(3), Fraction(4))
    m = outer(QQ, x, phi)
    assert m == qmat([[3, 4], [6, 8]])
    for v in [(Fraction(1), Fraction(0)), (Fraction(2), Fraction(-1))]:
        scaled = tuple(QQ.mul(dot(QQ, phi, v), c) for c in x)
        assert m.apply(v) == scaled
