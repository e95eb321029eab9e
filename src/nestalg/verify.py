"""Self-checking suites behind the `verify` command.

Each suite returns a list of verdict dicts {property, pass, cases, ...};
results are deterministic functions of (seed, cases, max_dim).  Failures
carry a JSON-ready witness of the first failing case instead of raising.

The per-object checks are plain `check_*` functions that record into a
`_Check`; the CLI runs the same functions on the objects of each request,
so a property has one name and one definition everywhere.
"""

from __future__ import annotations

import functools
import itertools
import random

from . import c00
from .algebra import (
    FULL,
    STRICT,
    MembershipError,
    _vanishes,
    alg_basis,
    all_rank_ones_in_alg,
    idempotent_onto,
    in_alg,
    invariant_lattice,
    range_of,
    rank_decompose,
    rank_one,
    rank_one_in_alg,
    strict_approximant,
)
from .fields import GF2, QQ
from .matrices import Matrix, Vector, rref, try_invert
from .nests import coordinate_nest, flag_nest, iter_compositions, iter_nests, ordinal_sum
from .radical import (
    nilpotency_index,
    ordsum_analyze,
    quasi_inverse,
    radical_exclusion_witness,
    radical_report,
    strict_ideal_basis,
)
from .sampling import (
    random_matrix,
    random_nest,
    random_span_element,
    random_subspace,
    random_vector,
)
from .serialize import (
    matrix_to_json,
    nest_to_json,
    subspace_to_json,
    tail_functional_to_json,
)
from .subspaces import enumerate_subspaces

SUITES = ("lattice", "reflexivity", "decompose", "radical", "dual", "ordsum", "c00")


class _Check:
    """Collects pass/fail per property, keeping the first failure witness."""

    def __init__(self):
        self.results: dict[str, list] = {}
        self.attached: dict[str, dict] = {}

    def record(self, prop: str, ok: bool, witness=None):
        """Count a case of prop.  The witness, or a function that builds it,
        called only then, is kept for the first failure; later cases still
        count."""
        entry = self.results.setdefault(prop, [0, True, None])
        entry[0] += 1
        if not ok and entry[1]:
            entry[1] = False
            entry[2] = witness() if callable(witness) else witness

    def attach(self, prop: str, **extra):
        """Extra keys for a verdict, e.g. a certifying object on a pass."""
        self.attached.setdefault(prop, {}).update(extra)

    def verdicts(self) -> list[dict]:
        out = []
        for prop, (cases, ok, ce) in self.results.items():
            v = {"property": prop, "pass": ok, "cases": cases}
            if ce is not None:
                v["witness"] = ce
            v.update(self.attached.get(prop, {}))
            out.append(v)
        return out


def lattice_suite(seed: int = 0, cases: int = 100, max_dim: int = 5) -> list[dict]:
    """Meet/join laws, order axioms, and annihilator algebra on random triples."""
    rng = random.Random(seed)
    ck = _Check()
    for k in range(cases):
        field = QQ if k % 2 else GF2
        n = rng.randint(1, max_dim)
        a = random_subspace(field, n, rng)
        b = random_subspace(field, n, rng)
        c = random_subspace(field, n, rng)

        def ce():
            return {"ambient": n, "a": subspace_to_json(a), "b": subspace_to_json(b)}

        ck.record("meet-commutes", a.meet(b) == b.meet(a), ce)
        ck.record("join-commutes", a.join(b) == b.join(a), ce)
        ck.record("meet-associates", a.meet(b.meet(c)) == a.meet(b).meet(c), ce)
        ck.record("join-associates", a.join(b.join(c)) == a.join(b).join(c), ce)
        ck.record("absorption", a.join(a.meet(b)) == a and a.meet(a.join(b)) == a, ce)
        ck.record("meet-is-glb", a.meet(b).leq(a) and a.meet(b).leq(b), ce)
        ck.record("join-is-lub", a.leq(a.join(b)) and b.leq(a.join(b)), ce)
        ck.record(
            "leq-antisymmetric",
            (not (a.leq(b) and b.leq(a))) or a == b,
            ce,
        )
        ck.record(
            "leq-transitive",
            (not (a.leq(b) and b.leq(c))) or a.leq(c),
            ce,
        )
        ck.record("double-annihilator", a.annihilator().annihilator() == a, ce)
        ck.record(
            "annihilator-reverses",
            (not a.leq(b)) or b.annihilator().leq(a.annihilator()),
            ce,
        )
        ck.record(
            "annihilator-dim",
            a.annihilator().dim == n - a.dim,
            ce,
        )
    return ck.verdicts()


def reflexivity_suite(max_dim: int = 4) -> list[dict]:
    """Exhaustive over all chains of GF(2)^n, n <= max_dim: the subspaces
    invariant under the algebra (or just its rank-one members) are exactly
    the chain."""
    ck = _Check()
    max_dim = min(max_dim, 4)
    for n in range(1, max_dim + 1):
        for nest in iter_nests(GF2, n):
            check_reflexivity_lattice(ck, nest, nest_to_json(nest))
    return ck.verdicts()


def check_reflexivity_lattice(ck: _Check, nest, ce) -> tuple[list, list, int]:
    """The invariant lattices of the algebra and of its rank-one members
    (`invariant_lattice`, `all_rank_ones_in_alg`) over a small finite field
    are the chain.  Returns both lattices and the number of rank-ones."""
    f, n = nest.field, nest.ambient_dim
    lat_alg = invariant_lattice(alg_basis(nest).basis, f, n)
    ones = all_rank_ones_in_alg(nest)
    lat_ones = invariant_lattice([r.matrix for r in ones], f, n)
    chain = list(nest.chain)
    ck.record("chain-recovered-from-algebra", lat_alg == chain, ce)
    ck.record("chain-recovered-from-rank-ones", lat_ones == chain, ce)
    return lat_alg, lat_ones, len(ones)


def _strict_dim(atoms) -> int:
    """Dimension of the strictly-shifting ideal: the sum of a_i a_j over i < j."""
    return sum(a * b for i, a in enumerate(atoms) for b in atoms[i + 1 :])


def check_alg_basis(ck: _Check, nest, alg, strict, ce) -> None:
    """The bases of the algebra and of its strictly-shifting ideal
    (`alg_basis`, `strict_ideal_basis`), decided in the chain-adapted frame
    S of `Nest.frame`.  Each dimension verdict needs as many independent
    rows (`_independent`) as the formula gives; both membership verdicts
    are one `_vanishes` each.  Closure follows, with no product, when
    `algebra-dimension` and `basis-members-in-algebra` hold: alg.basis is
    then a basis of the algebra, which is closed (in the frame it is the
    span of the E_rc with block[r] <= block[c], and E_rc E_cd = E_rd).
    Else the scan `_closure_escape` decides it and names the escaping pair."""
    atoms = nest.atoms
    alg_dim_ok = alg.dim == _strict_dim(atoms) + sum(a * a for a in atoms) and _independent(alg)
    ck.record("algebra-dimension", alg_dim_ok, ce)
    strict_dim_ok = strict.dim == _strict_dim(atoms) and _independent(strict)
    ck.record("strict-ideal-dimension", strict_dim_ok, ce)
    members_ok = _vanishes(nest, alg.scaled[0], FULL)
    ck.record("basis-members-in-algebra", members_ok, ce)
    ck.record("strict-members-shift", _vanishes(nest, strict.scaled[0], STRICT), ce)
    escape = None if alg_dim_ok and members_ok else _closure_escape(alg)
    ck.record("closed-under-product", escape is None, {"nest": ce, "product": escape})


def _independent(basis) -> bool:
    """Are the rows of basis.scaled independent?  Distinct leading positions
    prove it with no arithmetic, as for every basis the library emits;
    otherwise the rank of `AlgebraBasis.span`, one `echelon`, decides."""
    rows = basis.scaled[0]
    leads = {next((j for j, x in enumerate(row) if x), None) for row in rows}
    return (None not in leads and len(leads) == len(rows)) or basis.span.dim == len(rows)


def _closure_escape(alg) -> list[int] | None:
    """The first pair [i, j], in row-major order, with alg.basis[i] @
    alg.basis[j] outside the span of alg.basis, or None when the span is
    closed.  A plain scan of the d^2 products: it runs only when
    `check_alg_basis` cannot prove closure, which no correct basis gives."""
    pairs = itertools.product(enumerate(alg.basis), repeat=2)
    return next(([i, j] for (i, a), (j, b) in pairs if not alg.contains(a @ b)), None)


def decompose_suite(seed: int = 0, cases: int = 100, max_dim: int = 6) -> list[dict]:
    """Random idempotents, rank decompositions, and strict approximants."""
    rng = random.Random(seed)
    ck = _Check()
    for k in range(cases):
        field = QQ if k % 2 else GF2
        n = rng.randint(1, max_dim)
        nest = random_nest(field, n, rng)
        m = random_subspace(field, n, rng, dim=rng.randint(1, n))

        def ce():
            return {"nest": nest_to_json(nest), "subspace": subspace_to_json(m)}

        p, parts = idempotent_onto(nest, m)
        check_idempotent(ck, nest, m, p, parts, ce)
    done = 0
    while done < cases:
        field = QQ if done % 2 else GF2
        n = rng.randint(2, max_dim)
        nest = random_nest(field, n, rng)
        t = random_span_element(alg_basis(nest), rng)
        if t.is_zero():
            continue
        done += 1

        def ce():
            return {"nest": nest_to_json(nest), "t": matrix_to_json(t)}

        check_rank_decomposition(ck, nest, t, rank_decompose(nest, t), ce)
        vectors = [random_vector(field, n, rng) for _ in range(rng.randint(0, n))]
        approx = strict_approximant(nest, t, vectors)
        check_approximant(ck, nest, t, vectors, approx, ce)
    return ck.verdicts()


def check_idempotent(ck: _Check, nest, m, p, parts, ce) -> None:
    """An idempotent onto m and its rank-one parts (`idempotent_onto`)."""
    ck.record("idempotent-squares", p @ p == p, ce)
    ck.record("idempotent-range", range_of(p) == m, ce)
    ck.record("one-part-per-dimension", len(parts) == m.dim, ce)
    pairs = itertools.permutations(parts, 2)
    ck.record("parts-annihilate-pairwise", all((a.matrix @ b.matrix).is_zero() for a, b in pairs), ce)
    ck.record("parts-in-algebra", all(rank_one_in_alg(nest, r) for r in parts), ce)


def check_rank_decomposition(ck: _Check, nest, t, summands, ce) -> None:
    """Rank-one summands of t (`rank_decompose`)."""
    total = sum(summands, Matrix.zeros(nest.field, nest.ambient_dim, nest.ambient_dim))
    ck.record("summands-count-rank", len(summands) == rref(t).rank, ce)
    ck.record("summands-are-rank-one", all(rref(s).rank == 1 for s in summands), ce)
    ck.record("summands-in-algebra", all(in_alg(nest, s) for s in summands), ce)
    ck.record("summands-sum-exactly", total == t, ce)


def check_approximant(ck: _Check, nest, t, vectors, approx, ce) -> None:
    """A member of the algebra agreeing with t on the vectors (`strict_approximant`)."""
    ck.record(
        "approximant-agrees-on-span",
        all(approx.apply(v) == t.apply(v) for v in vectors),
        ce,
    )
    ck.record("approximant-in-algebra", in_alg(nest, approx), ce)


def radical_suite(seed: int = 0, cases: int = 50, max_dim: int = 8) -> list[dict]:
    """Trace-form radical vs the strictly-shifting ideal, plus witnesses."""
    rng = random.Random(seed)
    ck = _Check()
    corpus = []
    for n in range(1, min(max_dim, 6) + 1):
        for parts in iter_compositions(n):
            corpus.append(coordinate_nest(QQ, parts))
    for _ in range(cases):
        n = rng.randint(2, max(2, max_dim))
        corpus.append(random_nest(QQ, n, rng, members=rng.randint(1, n - 1)))
    for nest in corpus:
        check_radical_report(ck, radical_report(nest), nest_to_json(nest))
    # witnesses that non-shifting operators escape the radical
    found = 0
    while found < min(cases, 25):
        n = rng.randint(2, 5)
        nest = random_nest(QQ, n, rng)
        t = random_span_element(alg_basis(nest), rng)
        try:
            x, phi = radical_exclusion_witness(nest, t)
        except MembershipError:
            raise
        except ValueError:  # t strictly shifts the chain
            continue
        found += 1
        ce = {"nest": nest_to_json(nest), "t": matrix_to_json(t)}
        check_exclusion_witness(ck, nest, t, x, phi, ce)
    # quasi-inverses terminate and invert exactly
    for k in range(min(cases, 25)):
        field = QQ if k % 2 else GF2
        n = rng.randint(2, 5)
        nest = random_nest(field, n, rng)
        a = random_span_element(alg_basis(nest), rng)
        t = random_span_element(strict_ideal_basis(nest), rng)
        s = quasi_inverse(nest, a, t)
        one = Matrix.identity(field, n)
        ce = {"nest": nest_to_json(nest), "a": matrix_to_json(a), "t": matrix_to_json(t)}
        ck.record(
            "quasi-inverse-two-sided",
            s @ (one - a @ t) == one and (one - a @ t) @ s == one,
            ce,
        )
        ck.record("quasi-inverse-in-algebra", in_alg(nest, s), ce)
        idx = nilpotency_index(nest, a @ t)
        ck.record("series-length-at-most-atoms", idx is not None and idx <= len(nest.atoms), ce)
    return ck.verdicts()


def check_radical_report(ck: _Check, rep, ce) -> None:
    """The structural cross-checks of a `radical_report`.  A radical T that
    differs from the ideal J is witnessed by the first basis operator of J
    outside T, or else of T outside J."""
    atoms = rep.nest.atoms
    j, t = rep.strict_basis, rep.radical_basis
    witness = ce if rep.equal else next(
        (
            {"nest": ce, "operator": matrix_to_json(b), "missing_from": missing}
            for basis, other, missing in ((j, t, "radical"), (t, j, "ideal"))
            for b in basis.basis
            if not other.contains(b)
        ),
        ce,
    )
    ck.record("radical-matches-ideal", rep.equal, witness)
    ck.record("quotient-dimension", rep.quotient_check, ce)
    ck.record("ideal-dimension", rep.strict_basis.dim == _strict_dim(atoms), ce)
    ck.record("index-at-most-atoms", rep.nilpotency_index <= len(atoms), ce)


def check_exclusion_witness(ck: _Check, nest, t, x, phi, ce) -> bool:
    """R = x (x) phi from `radical_exclusion_witness` lies in the algebra and
    makes 1 - R t singular by killing x.  Returns whether 1 - R t is singular.

    1 - R t = 1 - x (x) psi for the row psi = phi t, so det(1 - R t) = 1 -
    psi(x) and (1 - R t) x = (1 - psi(x)) x: for the nonzero x of `rank_one`
    both verdicts hold exactly when phi(t x) = 1, read on the ints (`apply`)."""
    r = rank_one(x, phi)
    singular = phi.coeffs.apply(t.apply(r.x)) == Vector(nest.field, (1,))
    ck.record("witness-rank-one-in-algebra", rank_one_in_alg(nest, r), ce)
    ck.record("witness-blocks-invertibility", singular, ce)
    ck.record("witness-kills-x", singular, ce)
    return singular


def dual_suite(seed: int = 0, cases: int = 100) -> list[dict]:
    """Double duals, anti-isomorphism, and the finite annihilator identities."""
    rng = random.Random(seed)
    ck = _Check()
    for _ in range(cases):
        nest = random_nest(QQ, 4, rng)
        check_dual(ck, nest, nest.dual(), nest_to_json(nest))
    subs = enumerate_subspaces(GF2, 3)
    index = {s: i for i, s in enumerate(subs)}
    # Every operand and result is one of the 16 subspaces, so the families
    # run on their indices: each distinct meet, join and annihilator is
    # computed once by the library, then read from the cache of `once`.
    @functools.cache
    def once(op, *operands):
        first, *rest = [subs[i] for i in operands]
        return index[getattr(first, op)(*rest)]

    # (meet, join, meet of annihilators, join of annihilators) of each
    # member and pair; a triple extends its leading pair's by one member
    folds = {(i,): (i, i, once("annihilator", i), once("annihilator", i)) for i in range(len(subs))}
    for fam in itertools.chain(
        itertools.combinations(range(len(subs)), 2), itertools.combinations(range(len(subs)), 3)
    ):
        meets, joins, ann_meet, ann_join = folds[fam[:-1]]
        s = fam[-1]
        ann = once("annihilator", s)
        meets, joins = once("meet", meets, s), once("join", joins, s)
        ann_meet, ann_join = once("meet", ann_meet, ann), once("join", ann_join, ann)
        if len(fam) == 2:
            folds[fam] = meets, joins, ann_meet, ann_join

        def ce():
            return {"family": [subspace_to_json(subs[i]) for i in fam]}

        ck.record("annihilator-of-join", ann_meet == once("annihilator", joins), ce)
        ck.record("annihilator-of-meet", ann_join == once("annihilator", meets), ce)
    return ck.verdicts()


def check_dual(ck: _Check, nest, d, ce) -> None:
    """The annihilator chain d of a nest (`Nest.dual`)."""
    ck.record("double-dual-identity", d.dual() == nest, ce)
    ck.record("atoms-reverse", d.atoms == tuple(reversed(nest.atoms)), ce)
    k = len(nest.chain)
    ok = all(
        nest.chain[i].leq(nest.chain[j]) == d.chain[k - 1 - j].leq(d.chain[k - 1 - i])
        for i, j in itertools.product(range(k), repeat=2)
    )
    ck.record("anti-isomorphism", ok, ce)


def ordsum_suite(seed: int = 0, cases: int = 20) -> list[dict]:
    """Block membership rules against direct computation on stacked nests."""
    rng = random.Random(seed)
    ck = _Check()
    pairs = [(flag_nest(QQ, 2), flag_nest(QQ, 2))]
    for _ in range(cases):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        pairs.append((random_nest(QQ, n1, rng), random_nest(QQ, n2, rng)))
    for first, second in pairs:
        n = first.ambient_dim + second.ambient_dim
        summed = ordinal_sum(first, second)
        ce = {"first": nest_to_json(first), "second": nest_to_json(second)}
        check_ordinal_sum(ck, first, second, summed, ce)
        alg = alg_basis(summed)
        ops = [
            random_matrix(QQ, n, n, rng),
            random_span_element(alg, rng),
            random_span_element(strict_ideal_basis(summed), rng),
        ]
        for t, rep in zip(ops, ordsum_analyze(first, second, ops, alg)):
            check_ordsum_analysis(ck, rep, {**ce, "t": matrix_to_json(t)})
    return ck.verdicts()


def check_ordinal_sum(ck: _Check, first, second, summed, ce) -> None:
    """The stacked nest `ordinal_sum(first, second)`."""
    ck.record("sum-member-count", len(summed.chain) == len(first.chain) + len(second.chain) - 1, ce)
    ck.record("sum-atoms-concatenate", summed.atoms == first.atoms + second.atoms, ce)


def check_ordsum_analysis(ck: _Check, rep, ce) -> None:
    """Block rules against direct membership (`ordsum_analyze`) for the
    algebra, the strictly-shifting ideal and the trace-form radical, on
    every field."""
    ck.record("alg-rule-matches", rep.alg_predicted == rep.alg_direct, ce)
    ck.record("strict-rule-matches", rep.strict_predicted == rep.strict_direct, ce)
    ck.record("radical-rule-matches", rep.radical_predicted == rep.radical_direct, ce)


def c00_suite() -> list[dict]:
    """Symbolic catalog: annihilators, completeness witness, truncations."""
    ck = _Check()
    omega = c00.omega_nest()
    omega_star = c00.omega_star_nest()

    for s in [c00.SupportSet(c00.EMPTY), c00.initial(3), c00.tail_from(5), c00.SupportSet(c00.ALL)]:
        ck.record(
            "annihilator-involution",
            c00.support_annihilator(c00.support_annihilator(s)) == s,
            {"set": repr(s)},
        )

    dual_omega = c00.dual_support_nest(omega)
    ck.record("omega-dual-complete", dual_omega.complete and dual_omega.witness is None, None)
    ck.record(
        "omega-dual-members-are-tails",
        all(dual_omega.dual.member(i) == c00.tail_from(i) for i in range(1, 6)),
        None,
    )
    dual_star = c00.dual_support_nest(omega_star)
    ck.record("omega-star-dual-incomplete", not dual_star.complete, None)
    w = dual_star.witness
    ck.record("witness-present", w is not None, None)
    if w is not None:
        ck.attach("omega-star-dual-incomplete", witness=tail_functional_to_json(w))
        check_dual_witness(ck, omega_star, w, None)
    dd = c00.dual_support_nest(dual_omega.dual)
    ck.record(
        "double-dual-order-isomorphic",
        all(dd.dual.member(i) == omega.member(i) for i in range(1, 6)),
        None,
    )

    ck.record("union-of-all-initials", c00.chain_union(omega, "all") == c00.SupportSet(c00.ALL), None)
    ck.record("union-of-all-tails", c00.chain_union(omega_star, "all") == c00.tail_from(1), None)
    ck.record("union-missing-in-dual", c00.chain_union(dual_star.dual, "all") is None, None)
    ck.record("finite-union", c00.chain_union(omega, [2, 5, 3]) == c00.initial(5), None)

    for nest in (omega, omega_star):
        d = c00.dual_support_nest(nest)
        ce = {"nest": nest.order_type}
        ck.record(
            "dual-members-are-annihilators",
            all(
                d.dual.member(i) == c00.support_annihilator(nest.member(i))
                for i in range(1, 9)
            ),
            ce,
        )
        # meet of all annihilators = annihilator of the union, always
        u = c00.chain_union(nest, "all")
        ck.record(
            "meet-of-annihilators-exact",
            u is not None
            and c00.family_meet(d.dual, "all") == c00.support_annihilator(u),
            ce,
        )
        # union of all annihilators sits inside the annihilator of the meet,
        # with equality exactly when the dual chain is complete
        du = c00.chain_union(d.dual, "all")
        target = c00.support_annihilator(c00.family_meet(nest, "all"))
        ck.record(
            "union-of-annihilators-included",
            du is None or du.is_subset(target),
            ce,
        )
        ck.record(
            "strictness-matches-completeness",
            (du == target) == d.complete,
            ce,
        )
        for indices in ([1], [2, 4], [1, 3, 7]):
            members = [nest.member(i) for i in indices]
            acc = functools.reduce(c00.SupportSet.intersect, map(c00.support_annihilator, members))
            ck.record(
                "finite-meet-of-annihilators",
                acc == c00.support_annihilator(c00.chain_union(nest, indices)),
                {"nest": nest.order_type, "indices": str(indices)},
            )

    ck.record(
        "principal-of-e3",
        c00.principal_support(omega, {3: 1}) == (c00.initial(3), c00.initial(2)),
        None,
    )
    ck.record(
        "principal-of-e1-plus-e5",
        c00.principal_support(omega, {1: 1, 5: 1}) == (c00.initial(5), c00.initial(4)),
        None,
    )
    ck.record(
        "principal-star-of-e1",
        c00.principal_support(omega_star, {1: 1})
        == (c00.SupportSet(c00.ALL), c00.tail_from(1)),
        None,
    )

    check_zigzag(ck, c00.zigzag_report(), None)

    rng = random.Random(7)
    for m in range(2, 9):
        nest = c00.truncation_nest(QQ, m)
        rep = radical_report(nest)
        ck.record("truncation-radical-equal", rep.equal, {"level": m})
        strict = strict_ideal_basis(nest)
        t = random_span_element(strict, rng)
        a = random_span_element(alg_basis(nest), rng)
        power = Matrix.identity(QQ, m)
        graded_ok = True
        for k in range(1, m + 1):
            power = power @ (a @ t)
            # grade-k image: first k dual coordinates die
            graded_ok = graded_ok and all(
                not power.ints[i][j] for i in range(min(k, m)) for j in range(m)
            )
        ck.record("truncation-grading", graded_ok, {"level": m})
        s = c00.graded_quasi_inverse(t, a, m)
        direct = try_invert(Matrix.identity(QQ, m) - a @ t)
        ck.record("truncation-series-inverts", s == direct, {"level": m})
    return ck.verdicts()


def check_dual_witness(ck: _Check, nest, w, ce) -> None:
    """The functional w that `c00.dual_support_nest` returns when the dual of
    nest misses its least upper bound."""
    ck.record(
        "witness-hits-every-coordinate",
        all(w.evaluate(k) == 1 for k in range(1, 21)),
        ce,
    )
    # the witness annihilates the meet of the original family but no
    # single annihilator contains it, so the union inclusion is strict
    meet = c00.family_meet(nest, "all")
    ck.record("family-meet-is-empty", meet == c00.SupportSet(c00.EMPTY), ce)
    ck.record(
        "witness-in-annihilator-of-meet",
        w.supported_within(c00.support_annihilator(meet)),
        ce,
    )
    ck.record(
        "witness-misses-each-member-annihilator",
        all(
            not w.supported_within(c00.support_annihilator(nest.member(n)))
            for n in range(1, 21)
        ),
        ce,
    )


def check_zigzag(ck: _Check, z, ce) -> None:
    """The shape and radical conclusion of `c00.zigzag_report`."""
    ck.record(
        "zigzag-shape",
        (not z.well_ordered) and (not z.has_acc) and (not z.has_dcc),
        ce,
    )
    ck.record(
        "zigzag-radical-conclusion",
        z.radical_equals_strict
        and all(comp.radical_equals_strict for comp in z.components),
        ce,
    )


def run_suite(name: str, seed: int = 0, cases: int = 100, max_dim: int = 4) -> list[dict]:
    if name == "lattice":
        return lattice_suite(seed=seed, cases=cases, max_dim=max(2, max_dim))
    if name == "reflexivity":
        return reflexivity_suite(max_dim=max_dim)
    if name == "decompose":
        return decompose_suite(seed=seed, cases=cases, max_dim=max(2, max_dim))
    if name == "radical":
        return radical_suite(seed=seed, cases=min(cases, 50), max_dim=max(2, min(max_dim, 8)))
    if name == "dual":
        return dual_suite(seed=seed, cases=cases)
    if name == "ordsum":
        return ordsum_suite(seed=seed, cases=min(cases, 20))
    if name == "c00":
        return c00_suite()
    raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'")
