"""`Matrix` on int rows against plain Fraction references.

A matrix stores each row as ints over one positive denominator in lowest
terms; over QQ its Fraction `entries` are built only when read.  The
references here do the same arithmetic entry by entry on Fractions (on
residues over GF(p)) and never look at the stored form.
"""

import random
from fractions import Fraction

import pytest

from nestalg import verify
from nestalg.algebra import alg_basis, idempotent_onto, rank_decompose, strict_approximant
from nestalg.fields import GF, GF2, GF3, QQ
from nestalg.matrices import Matrix, outer
from nestalg.radical import radical_exclusion_witness, radical_report
from nestalg.sampling import random_nest, random_span_element
from nestalg.serialize import matrix_to_json, radical_report_to_json, rank_one_to_json

BIG = 10**60 + 7  # a 61-digit prime, so entries over it stay unreduced


def q_entry(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9))
    if kind == 2:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    if kind == 3:
        return Fraction(rng.randint(-(10**60), 10**60), rng.choice((1, BIG, 10**59 * 6)))
    return Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**30))


def entry(field, rng):
    return q_entry(rng) if field == QQ else rng.randrange(field.p)


def rows_of(field, rng, r, c):
    """r x c entries, with a zero row now and then."""
    rows = [tuple(entry(field, rng) for _ in range(c)) for _ in range(r)]
    if rows and rng.random() < 0.2:
        rows[rng.randrange(r)] = (field.zero(),) * c
    return rows


# -- the Fraction (residue) reference ---------------------------------------


def ref(field, x):
    return x % field.p if field.p is not None else Fraction(x)


def ref_add(field, a, b, sign=1):
    return [tuple(ref(field, x + sign * y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)]


def ref_matmul(field, a, b, cols):
    return [tuple(ref(field, sum((row[k] * b[k][j] for k in range(len(b))), 0)) for j in range(cols))
            for row in a]


def ref_scale(field, a, c):
    return [tuple(ref(field, c * x) for x in row) for row in a]


def ref_apply(field, a, v):
    return tuple(ref(field, sum((x * y for x, y in zip(row, v)), 0)) for row in a)


def ref_text(field, x):
    if field.p is not None:
        return x
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def plain(m):
    """m's entries as the reference holds them."""
    return [tuple(row) for row in m.entries]


FIELDS = (QQ, GF2, GF3, GF(5))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_arithmetic_matches_the_fraction_reference(field):
    rng = random.Random(91 + (field.p or 0))
    for _ in range(60):
        r, k, c = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a_rows, b_rows = rows_of(field, rng, r, k), rows_of(field, rng, r, k)
        d_rows = rows_of(field, rng, k, c)
        a, b, d = Matrix(field, a_rows, cols=k), Matrix(field, b_rows, cols=k), Matrix(field, d_rows, cols=c)
        assert plain(a) == [tuple(ref(field, x) for x in row) for row in a_rows]
        assert plain(a + b) == ref_add(field, a_rows, b_rows)
        assert plain(a - b) == ref_add(field, a_rows, b_rows, -1)
        assert plain(-a) == ref_scale(field, a_rows, -1)
        assert plain(a @ d) == ref_matmul(field, a_rows, d_rows, c)
        assert (a @ d).cols == c
        c0 = entry(field, rng)
        assert plain(a.scale(c0)) == ref_scale(field, a_rows, c0)
        v = tuple(entry(field, rng) for _ in range(k))
        assert a.apply(v) == ref_apply(field, a_rows, v)
        assert plain(a.transpose()) == [tuple(ref(field, row[i]) for row in a_rows) for i in range(k)]
        assert (a.transpose().rows, a.transpose().cols) == (k, r)
        assert a.is_zero() == all(not x for row in a_rows for x in row)
        assert (a - a).is_zero() and a.scale(0) == Matrix.zeros(field, r, k)
        assert a.to_nested() == [[ref_text(field, ref(field, x)) for x in row] for row in a_rows]
        x = tuple(entry(field, rng) for _ in range(r))
        phi = tuple(entry(field, rng) for _ in range(k))
        assert plain(outer(field, x, phi)) == [tuple(ref(field, xi * y) for y in phi) for xi in x]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_equality_and_hash_follow_the_entries(field):
    rng = random.Random(92 + (field.p or 0))
    for _ in range(80):
        r, c = rng.randint(0, 3), rng.randint(0, 3)
        a_rows = rows_of(field, rng, r, c)
        b_rows = [list(row) for row in a_rows]
        if r and c and rng.random() < 0.5:
            i, j = rng.randrange(r), rng.randrange(c)
            b_rows[i][j] = entry(field, rng)
        a, b = Matrix(field, a_rows, cols=c), Matrix(field, b_rows, cols=c)
        same = plain(a) == plain(b)
        assert (a == b) == same
        if same:
            assert hash(a) == hash(b)
    assert Matrix(field, [], cols=2) != Matrix(field, [], cols=3)


def test_ints_fractions_and_strings_give_one_matrix():
    rng = random.Random(93)
    for _ in range(60):
        r, c = rng.randint(1, 3), rng.randint(1, 4)
        fracs = rows_of(QQ, rng, r, c)
        # the strings unreduced, over a common multiple of the denominator
        texts = []
        for row in fracs:
            k = rng.randint(1, 7)
            texts.append([f"{x.numerator * k}/{x.denominator * k}" for x in row])
        m = Matrix(QQ, fracs)
        for other in (Matrix(QQ, texts), Matrix(QQ, [[ref_text(QQ, x) for x in row] for row in fracs])):
            assert other == m and hash(other) == hash(m)
        if all(x.denominator == 1 for row in fracs for x in row):
            ints = Matrix(QQ, [[int(x) for x in row] for row in fracs])
            assert ints == m and hash(ints) == hash(m)
    half = [[Fraction(1, 2), 0], [Fraction(-3, 4), 5]]
    variants = [half, [["1/2", "0/5"], ["-6/8", "5"]], [["2/4", 0], ["-3/4", "10/2"]]]
    mats = [Matrix(QQ, rows) for rows in variants]
    assert len(set(mats)) == 1 and mats[0].to_nested() == [["1/2", "0"], ["-3/4", "5"]]
    for field in (GF2, GF3, GF(5)):
        a = Matrix(field, [[7, -1], [field.p, 2]])
        b = Matrix(field, [["7", "-1"], [str(field.p), "2"]])
        c = Matrix(field, [[Fraction(7), Fraction(-1)], [Fraction(field.p), Fraction(2)]])
        assert a == b == c and hash(a) == hash(b) == hash(c)


def entries_built(m) -> bool:
    """Is the `entries` slot set, read past Matrix.__getattr__?"""
    try:
        Matrix.__dict__["entries"].__get__(m, Matrix)
    except AttributeError:
        return False
    return True


def test_entries_are_a_view_over_q_and_stored_over_gf_p():
    for field in (GF2, GF3, GF(5)):
        m = Matrix(field, [[1, 2], [3, 4]])
        assert entries_built(m) and m.entries == m.ints
        assert entries_built(m @ m) and entries_built(m + m) and entries_built(m.transpose())
    m = Matrix(QQ, [["1/2", "3"], ["-4/6", "0"]])
    products = (m @ m, m + m, m - m, m.scale("2/3"), m.transpose(), outer(QQ, (1, 2), (Fraction(1, 3), 0)))
    assert not any(entries_built(t) for t in (m, *products))
    assert m.to_nested() == [["1/2", "3"], ["-2/3", "0"]] and not entries_built(m)
    assert m.entries == ((Fraction(1, 2), Fraction(3)), (Fraction(-2, 3), Fraction(0)))
    assert entries_built(m)


def test_decompose_and_radical_work_leaves_operator_entries_unbuilt():
    # the steps of the `decompose` and `radical` requests, on Q nests
    rng = random.Random(94)
    for n in (2, 3, 4, 5):
        nest = random_nest(QQ, n, rng, members=rng.randint(1, n - 1))
        alg = alg_basis(nest)
        t = random_span_element(alg, rng, nonzero=True)
        ck = verify._Check()
        summands = rank_decompose(nest, t)
        verify.check_rank_decomposition(ck, nest, t, summands, None)
        member = nest.chain[-2]
        p, parts = idempotent_onto(nest, member)
        verify.check_idempotent(ck, nest, member, p, parts, None)
        vectors = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(2)]
        approx = strict_approximant(nest, t, vectors)
        verify.check_approximant(ck, nest, t, vectors, approx, None)
        docs = [matrix_to_json(m) for m in (t, *summands, p, approx)] + [rank_one_to_json(r) for r in parts]
        operators = [t, *summands, p, approx, *(r.matrix for r in parts)]
        rep = radical_report(nest, alg)
        verify.check_radical_report(ck, rep, None)
        docs.append(radical_report_to_json(rep))
        operators += [*rep.strict_basis.basis, *rep.radical_basis.basis]
        for _ in range(5):
            s = random_span_element(alg, rng, nonzero=True)
            try:
                x, phi = radical_exclusion_witness(nest, s)
            except ValueError:
                continue
            verify.check_exclusion_witness(ck, nest, s, x, phi, None)
            docs.append(matrix_to_json(s))
            operators.append(s)
        assert all(v["pass"] for v in ck.verdicts())
        assert docs and not any(entries_built(m) for m in operators)
        assert "basis" not in vars(alg)
