"""Acceptance checks: one test per criterion, one printed line per verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; each test also enforces its own wall-clock budget.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from nestalg.algebra import (
    alg_basis,
    all_rank_ones_in_alg,
    idempotent_onto,
    in_alg,
    invariant_lattice,
    range_of,
    rank_decompose,
    rank_one,
    rank_one_in_alg,
)
from nestalg.c00 import (
    chain_union,
    dual_support_nest,
    family_meet,
    graded_quasi_inverse,
    omega_nest,
    omega_star_nest,
    support_annihilator,
    truncation_nest,
)
from nestalg.fields import GF2, QQ
from nestalg.matrices import Matrix, try_invert
from nestalg.nests import coordinate_nest, flag_nest, iter_compositions, iter_nests
from nestalg.radical import (
    in_strict_ideal,
    ordsum_analyze,
    quasi_inverse,
    radical_exclusion_witness,
    radical_report,
    strict_ideal_basis,
)
from nestalg.sampling import (
    random_nest,
    random_scalar,
    random_span_element,
    random_subspace,
)
from nestalg.subspaces import enumerate_subspaces

Q = Fraction


@contextmanager
def criterion(number: int, label: str, budget: float):
    start = time.monotonic()
    ok = False
    try:
        yield
        elapsed = time.monotonic() - start
        assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget:.0f}s"
        ok = True
    finally:
        elapsed = time.monotonic() - start
        status = "PASS" if ok else "FAIL"
        print(f"criterion {number:2d} {status} {label} ({elapsed:.2f}s / {budget:.0f}s)")


def test_criterion_01_reflexivity_exhaustive():
    with criterion(1, "chain recovery from algebra and rank-ones, GF(2)^n n<=4", 30.0):
        counts = []
        for n in range(1, 5):
            count = 0
            for nest in iter_nests(GF2, n):
                full_ops = alg_basis(nest).basis
                assert tuple(invariant_lattice(full_ops, GF2, n)) == nest.chain
                generators = [r.matrix for r in all_rank_ones_in_alg(nest)]
                assert tuple(invariant_lattice(generators, GF2, n)) == nest.chain
                count += 1
            counts.append(count)
        assert counts == [1, 4, 36, 696]


def test_criterion_02_rank_decomposition():
    with criterion(2, "200 rank decompositions across >=10 nests", 10.0):
        rng = random.Random(102)
        nests = []
        seen = set()
        for field in (QQ, GF2):
            built = 0
            while built < 6:
                nest = random_nest(field, rng.randint(2, 6), rng)
                if (field, nest.chain) in seen:
                    continue
                seen.add((field, nest.chain))
                nests.append((nest, alg_basis(nest)))
                built += 1
        assert len(nests) >= 10
        for k in range(200):
            nest, basis = nests[k % len(nests)]
            t = random_span_element(basis, rng, nonzero=True)
            summands = rank_decompose(nest, t)
            assert len(summands) == range_of(t).dim
            total = Matrix.zeros(nest.field, nest.ambient_dim, nest.ambient_dim)
            for s in summands:
                assert range_of(s).dim == 1
                assert in_alg(nest, s)
                total = total + s
            assert total == t


def test_criterion_03_idempotent_construction():
    with criterion(3, "200 idempotents with rank-one parts", 10.0):
        rng = random.Random(103)
        produced = 0
        while produced < 200:
            field = QQ if produced % 2 == 0 else GF2
            n = rng.randint(2, 6)
            nest = random_nest(field, n, rng)
            m = random_subspace(field, n, rng)
            if m.dim == 0:
                continue
            p, parts = idempotent_onto(nest, m)
            assert p @ p == p
            assert range_of(p) == m
            assert len(parts) == m.dim
            for part in parts:
                assert part.is_idempotent
                assert rank_one_in_alg(nest, part)
            for i, a in enumerate(parts):
                for j, b in enumerate(parts):
                    if i != j:
                        assert (a.matrix @ b.matrix).is_zero()
            produced += 1


def test_criterion_04_radical_equality():
    with criterion(4, "radical = strictly-shifting ideal across the corpus", 60.0):
        corpus = [
            coordinate_nest(QQ, comp)
            for n in range(1, 7)
            for comp in iter_compositions(n)
        ]
        assert len(corpus) == 63
        rng = random.Random(104)
        added = 0
        while added < 50:
            nest = random_nest(QQ, rng.randint(2, 8), rng)
            if nest == coordinate_nest(QQ, nest.atoms):
                continue
            corpus.append(nest)
            added += 1
        for nest in corpus:
            rep = radical_report(nest)
            atoms = nest.atoms
            k = len(atoms)
            assert rep.equal
            assert rep.strict_basis.dim == sum(
                atoms[i] * atoms[j] for i in range(k) for j in range(i + 1, k)
            )
            assert rep.semisimple_quotient_dim == sum(d * d for d in atoms)


def test_criterion_05_radical_exclusion_witnesses():
    with criterion(5, "100 exclusion witnesses exactly singular", 5.0):
        rng = random.Random(105)
        produced = 0
        while produced < 100:
            n = rng.randint(2, 6)
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


def test_criterion_06_quasi_inverses():
    with criterion(6, "200 exact quasi-inverses, series within the atom count", 5.0):
        rng = random.Random(106)
        pool = []
        while len(pool) < 12:
            n = rng.randint(2, 6)
            nest = random_nest(QQ, n, rng)
            strict = strict_ideal_basis(nest)
            if strict.dim == 0:
                continue
            pool.append((nest, alg_basis(nest), strict))
        for k in range(200):
            nest, basis, strict = pool[k % len(pool)]
            n = nest.ambient_dim
            a = random_span_element(basis, rng)
            t = random_span_element(strict, rng)
            s = quasi_inverse(nest, a, t)
            ident = Matrix.identity(QQ, n)
            assert s @ (ident - a @ t) == ident
            assert (ident - a @ t) @ s == ident
            assert in_alg(nest, s)
            at = a @ t
            steps = 1
            while not at.is_zero():
                assert steps <= len(nest.atoms)
                at = at @ (a @ t)
                steps += 1


def test_criterion_07_dual_nests():
    with criterion(7, "dual identities: 100 random chains + exhaustive GF(2)^3", 10.0):
        rng = random.Random(107)
        for _ in range(100):
            nest = random_nest(QQ, 4, rng)
            d = nest.dual()
            assert d.dual() == nest
            k = len(nest.chain)
            for i, s in enumerate(nest.chain):
                assert d.chain[k - 1 - i] == s.annihilator()
        subs = enumerate_subspaces(GF2, 3)
        for a, b in itertools.combinations(subs, 2):
            assert a.join(b).annihilator() == a.annihilator().meet(b.annihilator())
            assert a.meet(b).annihilator() == a.annihilator().join(b.annihilator())
        for a, b, c in itertools.combinations(subs, 3):
            join3 = a.join(b).join(c)
            meet3 = a.meet(b).meet(c)
            assert join3.annihilator() == (
                a.annihilator().meet(b.annihilator()).meet(c.annihilator())
            )
            assert meet3.annihilator() == (
                a.annihilator().join(b.annihilator()).join(c.annihilator())
            )


def test_criterion_08_sequence_space_catalog():
    with criterion(8, "symbolic dual completeness verdicts with witness", 1.0):
        ascending = dual_support_nest(omega_nest())
        assert ascending.complete
        assert ascending.witness is None

        star = omega_star_nest()
        res = dual_support_nest(star)
        assert not res.complete
        w = res.witness
        assert w is not None and not w.is_zero()
        # the witness annihilates the meet of the whole family ...
        meet_all = family_meet(star, "all")
        assert w.supported_within(support_annihilator(meet_all))
        # ... but lies in no single member's annihilator
        for i in range(1, 41):
            assert not w.supported_within(support_annihilator(star.member(i)))
        # and no member of the dual realizes the union of the annihilators
        assert chain_union(res.dual, "all") is None


def _stack_blocks(field, a1, b, c, a2):
    rows = []
    for i in range(a1.rows):
        rows.append(tuple(a1.entries[i]) + tuple(b.entries[i]))
    for i in range(a2.rows):
        rows.append(tuple(c.entries[i]) + tuple(a2.entries[i]))
    return Matrix(field, tuple(rows))


def test_criterion_09_ordinal_sums():
    with criterion(9, "block membership rules match direct computation", 10.0):
        rng = random.Random(109)
        pairs = [(flag_nest(QQ, 2), flag_nest(QQ, 2))]
        while len(pairs) < 21:
            pairs.append(
                (
                    random_nest(QQ, rng.randint(1, 3), rng),
                    random_nest(QQ, rng.randint(1, 3), rng),
                )
            )
        for first, second in pairs:
            n1, n2 = first.ambient_dim, second.ambient_dim
            n = n1 + n2
            zero_c = Matrix.zeros(QQ, n2, n1)
            rand_b = Matrix(
                QQ,
                tuple(
                    tuple(random_scalar(QQ, rng) for _ in range(n2))
                    for _ in range(n1)
                ),
            )
            samples = [
                Matrix(
                    QQ,
                    tuple(
                        tuple(random_scalar(QQ, rng) for _ in range(n))
                        for _ in range(n)
                    ),
                ),
                _stack_blocks(
                    QQ,
                    random_span_element(alg_basis(first), rng),
                    rand_b,
                    zero_c,
                    random_span_element(alg_basis(second), rng),
                ),
                _stack_blocks(
                    QQ,
                    random_span_element(strict_ideal_basis(first), rng)
                    if strict_ideal_basis(first).dim
                    else Matrix.zeros(QQ, n1, n1),
                    rand_b,
                    zero_c,
                    random_span_element(strict_ideal_basis(second), rng)
                    if strict_ideal_basis(second).dim
                    else Matrix.zeros(QQ, n2, n2),
                ),
            ]
            for rep in ordsum_analyze(first, second, samples):
                assert rep.alg_predicted == rep.alg_direct
                assert rep.strict_predicted == rep.strict_direct
                assert rep.radical_predicted == rep.radical_direct
        # the canonical pair really exercises the positive branch
        [flag_pair] = ordsum_analyze(
            flag_nest(QQ, 2),
            flag_nest(QQ, 2),
            [
                _stack_blocks(
                    QQ,
                    Matrix.identity(QQ, 2),
                    Matrix.zeros(QQ, 2, 2),
                    Matrix.zeros(QQ, 2, 2),
                    Matrix.identity(QQ, 2),
                )
            ],
        )
        assert flag_pair.alg_predicted and flag_pair.alg_direct


def test_criterion_10_truncation_family():
    with criterion(10, "graded truncations: containment, inverse, radical", 10.0):
        rng = random.Random(110)
        for m in range(2, 9):
            nest = truncation_nest(QQ, m)
            rep = radical_report(nest)
            assert rep.equal and rep.quotient_check

            t = Matrix(
                QQ,
                tuple(
                    tuple(
                        random_scalar(QQ, rng) if j < i else Q(0) for j in range(m)
                    )
                    for i in range(m)
                ),
            )
            a = Matrix(
                QQ,
                tuple(
                    tuple(
                        random_scalar(QQ, rng) if j <= i else Q(0) for j in range(m)
                    )
                    for i in range(m)
                ),
            )
            at = a @ t
            power = Matrix.identity(QQ, m)
            for k in range(1, m + 1):
                power = power @ at
                # image sits k levels down the chain
                assert range_of(power).leq(nest.chain[m - k])
            assert power.is_zero()

            s = graded_quasi_inverse(t, a, m)
            direct = try_invert(Matrix.identity(QQ, m) - at)
            assert direct is not None
            assert s == direct
