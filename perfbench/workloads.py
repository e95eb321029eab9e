"""The benchmark's workloads.

Each workload builds its inputs from the seed in `setup`, then exposes a
fixed list of operations `(label, thunk)`.  A round runs every operation
once; the runner repeats whole rounds.  `failed` says whether one result
breaks the operation's contract (an exception always does), and `check`
verifies the results of one round independently of nestalg.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import gen


def _checks():
    """The checks module, imported only when checking: it loads sympy, which
    would otherwise count in the measured process's memory."""
    import checks

    return checks


def _matrices(mats) -> list:
    return [[list(row) for row in m.entries] for m in mats]


class _Workload:
    """Defaults: only an exception fails an operation, and the traced run
    gets no workload-specific counters."""

    def failed(self, label, result) -> bool:
        return False

    def round_counters(self, results: dict) -> dict:
        return {}


# ---------------------------------------------------------------------------
# radical-q


# Atoms of the non-coordinate nests; the seed draws only their flags.
# Dimensions 5-8, each nest under about a second, so that the seed's
# effect on coefficient growth averages out over the set.
RADICAL_SHAPES = [
    (1, 1, 1, 1, 1), (2, 1, 2), (1, 2, 2), (3, 2),
    (2, 2, 2), (3, 3),
    (2, 5),
    (7, 1),
]


COORD_MAX_DIM = 6


class RadicalQ(_Workload):
    """radical_report over every coordinate nest of Q^n, n <= 6, plus
    nests of dimension 5-8 on seeded integer flags."""

    name = "radical-q"

    def setup(self, na, seed: int, workdir: Path) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.na = na
        QQ = na.fields.QQ
        self.items = {}
        for n in range(1, COORD_MAX_DIM + 1):
            for parts in gen.compositions(n):
                ident = [[int(i == j) for j in range(n)] for i in range(n)]
                nest = na.nests.coordinate_nest(QQ, parts)
                self.items[f"coord{parts}"] = (parts, ident, ident, nest)
        for k, parts in enumerate(RADICAL_SHAPES):
            n = sum(parts)
            s, s_inv = gen.random_flag(rng, n)
            members = [na.subspaces.span_of(gen.columns(s, c), QQ, n) for c in gen.cuts(parts)]
            nest = na.nests.new_nest(QQ, n, members)
            self.items[f"flag{k}{parts}"] = (parts, s, s_inv, nest)
        self.ops = [(label, partial(self._report, item[3])) for label, item in self.items.items()]

    def _report(self, nest):
        return self.na.radical.radical_report(nest)

    def check(self, results: dict) -> list[str]:
        checks = _checks()
        problems = []
        for label, rep in results.items():
            parts, s, _, nest = self.items[label]
            data = {
                "alg_dim": rep.alg_dim,
                "nilpotency_index": rep.nilpotency_index,
                "equal": rep.equal,
                "strict_basis": _matrices(rep.strict_basis.basis),
                "radical_basis": _matrices(rep.radical_basis.basis),
            }
            alg = _matrices(self.na.algebra.alg_basis(nest).basis)
            found = checks.radical_problems(data, parts, s, checks.inverse(s), alg)
            problems += [f"{label}: {p}" for p in found]
        return problems


# ---------------------------------------------------------------------------
# reflexivity-gf2


REFLEXIVITY_MAX_DIM = 4


class ReflexivityGF2(_Workload):
    """Every chain of GF(2)^n, n <= 4: the chain recovered from its algebra
    and from its rank-one members.  The seed only orders the chains."""

    name = "reflexivity-gf2"

    def setup(self, na, seed: int, workdir: Path) -> None:
        self.na = na
        gf2 = na.fields.GF2
        nests = [nest for n in range(1, REFLEXIVITY_MAX_DIM + 1)
                 for nest in na.nests.iter_nests(gf2, n)]
        random.Random(f"{self.name}:{seed}").shuffle(nests)
        self.nests = {f"chain{k}": nest for k, nest in enumerate(nests)}
        self.ops = [(label, partial(self._recover, nest)) for label, nest in self.nests.items()]

    def _recover(self, nest):
        algebra = self.na.algebra
        f, n = nest.field, nest.ambient_dim
        alg = algebra.alg_basis(nest)
        ones = algebra.all_rank_ones_in_alg(nest)
        lat_alg = algebra.invariant_lattice(alg.basis, f, n)
        lat_ones = algebra.invariant_lattice([r.matrix for r in ones], f, n)
        return alg.dim, len(ones), lat_alg, lat_ones

    def check(self, results: dict) -> list[str]:
        checks = _checks()

        def plain(subspaces):
            return [(s.dim, s.basis.entries) for s in subspaces]

        counts: dict[int, int] = {}
        rows = []
        for label, nest in self.nests.items():
            counts[nest.ambient_dim] = counts.get(nest.ambient_dim, 0) + 1
            alg_dim, ones, lat_alg, lat_ones = results[label]
            rows.append((plain(nest.chain), alg_dim, ones, plain(lat_alg), plain(lat_ones)))
        distinct = len({tuple(r[0]) for r in rows})
        problems = [] if distinct == len(rows) else [f"only {distinct} of {len(rows)} chains distinct"]
        return problems + checks.reflexivity_problems(counts, rows)


# ---------------------------------------------------------------------------
# cli-mixed

# (field modulus or None for Q, atoms) of the seeded nests, CLI_COPIES
# flags each.  Over Q they stop at n = 5: at n = 6 the closure check of
# alg-basis (d^2 products) makes a few requests dominate the stream.
CLI_SHAPES = [
    (None, (1, 1, 1)), (None, (2, 2)), (None, (1, 1, 2)), (None, (2, 3)),
    (2, (1, 2)), (2, (2, 1, 1)), (2, (1, 1, 1, 2)), (2, (3, 3)),
]
CLI_COPIES = 3
VERIFY_REQUESTS = [
    ["verify", "dual", "--cases", "2"],
    ["verify", "lattice", "--cases", "10", "--max-dim", "3"],
    ["verify", "decompose", "--cases", "3", "--max-dim", "3"],
    ["verify", "ordsum", "--cases", "2"],
    ["verify", "reflexivity", "--max-dim", "2"],
    ["verify", "radical", "--cases", "2", "--max-dim", "3"],
]
C00_NAMES = ["c00-omega", "c00-omega-star", "c00-zigzag", "all"]
# Requests sent a second time at the end of the stream; the two reports
# must be byte-identical.
REPEATED = ["alg-basis-q-n5-23-0", "radical-gf2-n4-211-0", "verify lattice --cases 10 --max-dim 3",
            "c00-all"]
# Inputs whose contract is a structured exit 2 (bad input).  They do not
# depend on the seed.
Q3 = {"field": "Q", "dim": 3}
BAD_INPUTS = {
    "incomparable": dict(Q3, chain=[[["1", "0", "0"]], [["0", "1", "0"]]]),
    "short-vector": dict(Q3, chain=[[["1", "0"]]]),
    "not-prime": {"field": {"p": 4}, "dim": 2, "chain": []},
}
# Requests that break the exit-code contract today; they stay in the stream
# and count as failed until the program handles them.
FAULT_INPUTS = {
    "ordsum-array-matrix": (
        ["ordsum"],
        {"first": dict(Q3, chain=[]), "second": dict(Q3, chain=[])},
        [["0"] * 6 for _ in range(6)],
    ),
    "reflexivity-subspace-int": (["reflexivity"], dict(Q3, chain=[]), {"subspace": 5}),
    "check-bool-scalar": (["check"], dict(Q3, chain=[[[True, "0", "0"]]]), None),
}


@dataclass
class _Request:
    label: str
    argv: list
    expect: int  # the exit code the contract asks for
    kind: str  # which check reads the report
    info: dict = field(default_factory=dict)


class CliMixed(_Workload):
    """A fixed stream of in-process `nestalg.cli.main(argv)` requests over
    spec and payload files written at set-up."""

    name = "cli-mixed"

    def setup(self, na, seed: int, workdir: Path) -> None:
        self.cli = importlib.import_module("nestalg.cli")
        self.dir = workdir
        self.requests: dict[str, _Request] = {}
        rng = random.Random(f"{self.name}:{seed}")
        for p, parts in CLI_SHAPES:
            for copy in range(CLI_COPIES):
                self._nest_requests(rng, p, parts, copy)
        self._ordsum_requests(rng)
        for name in C00_NAMES:
            self._add(f"c00-{name}", ["c00", "--name", name], 0, "plain")
        for argv in VERIFY_REQUESTS:
            self._add(" ".join(argv), argv, 0, "verify")
        self._bad_requests()
        for label, (argv, spec, payload) in FAULT_INPUTS.items():
            argv = argv + ["--input", self._write(f"{label}.json", spec)]
            if payload is not None:
                argv += ["--matrix", self._write(f"{label}-m.json", payload)]
            self._add(f"fault-{label}", argv, 2, "error")
        for label in REPEATED:
            r = self.requests[label]
            self._add(f"repeat-{label}", r.argv, r.expect, "repeat", {"of": label})
        self.ops = [(r.label, partial(self._call, r.argv)) for r in self.requests.values()]

    # -- set-up helpers ----------------------------------------------------

    def _write(self, name: str, doc) -> str:
        path = self.dir / name
        path.write_text(json.dumps(doc))
        return str(path)

    def _add(self, label, argv, expect, kind, info=None) -> None:
        self.requests[label] = _Request(label, argv, expect, kind, info or {})

    def _nest_requests(self, rng, p, parts, copy) -> None:
        n = sum(parts)
        tag = f"{'q' if p is None else f'gf{p}'}-n{n}-{''.join(map(str, parts))}-{copy}"
        s, s_inv = gen.random_flag(rng, n, p)
        spec = self._write(f"{tag}.json", gen.nest_spec(s, parts, p, tag))
        info = {"p": p, "parts": parts, "s": s, "s_inv": s_inv}
        for cmd in ("check", "alg-basis", "radical", "dual"):
            self._add(f"{cmd}-{tag}", [cmd, "--input", spec], 0, cmd, info)

        t = self._member(rng, s, s_inv, parts, p)
        doc = {"matrix": gen.matrix_json(t, p)}
        self._add(f"rank-{tag}", ["decompose", "--input", spec, "--matrix",
                                  self._write(f"{tag}-rank.json", doc)], 0, "rank",
                  dict(info, t=t))

        vectors = self._vectors(rng, n, rng.randint(1, n - 1), p)
        doc = {"subspace": gen.matrix_json(vectors, p)}
        self._add(f"idempotent-{tag}", ["decompose", "--input", spec, "--matrix",
                                        self._write(f"{tag}-idem.json", doc)], 0,
                  "idempotent", dict(info, vectors=vectors))

        t = self._member(rng, s, s_inv, parts, p)
        vectors = self._vectors(rng, n, 2, p)
        doc = {"matrix": gen.matrix_json(t, p), "vectors": gen.matrix_json(vectors, p)}
        self._add(f"approximant-{tag}", ["decompose", "--input", spec, "--matrix",
                                         self._write(f"{tag}-approx.json", doc)], 0,
                  "approximant", dict(info, t=t, vectors=vectors))

        if p is not None and n <= 4:
            self._add(f"reflexivity-{tag}", ["reflexivity", "--input", spec], 0, "full", info)
        else:
            vectors = self._outside_chain(rng, s, parts, p)
            doc = {"subspace": gen.matrix_json(vectors, p)}
            self._add(f"witness-{tag}", ["reflexivity", "--input", spec, "--matrix",
                                         self._write(f"{tag}-witness.json", doc)], 0,
                      "witness", dict(info, vectors=vectors))

    def _member(self, rng, s, s_inv, parts, p):
        while True:
            t = gen.conjugate(s, gen.block_upper(rng, parts, p), s_inv, p)
            if any(x for row in t for x in row):
                return t

    def _vectors(self, rng, n, k, p):
        while True:
            if p is None:
                vs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            else:
                vs = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
            if gen.rank(vs, p) > 0:
                return vs

    def _outside_chain(self, rng, s, parts, p):
        n = len(s)
        while True:
            vs = self._vectors(rng, n, rng.randint(1, n - 1), p)
            d = gen.rank(vs, p)
            member = d in gen.cuts(parts) and gen.rank(vs + gen.columns(s, d), p) == d
            if not member:
                return vs

    def _ordsum_requests(self, rng) -> None:
        for p, first, second in ((None, (1, 1), (1, 2)), (2, (2, 1), (1, 1))):
            tag = f"{'q' if p is None else f'gf{p}'}-{''.join(map(str, first + second))}"
            n1, n2 = sum(first), sum(second)
            s1, s1_inv = gen.random_flag(rng, n1, p)
            s2, s2_inv = gen.random_flag(rng, n2, p)
            pair = {"first": gen.nest_spec(s1, first, p), "second": gen.nest_spec(s2, second, p)}
            spec = self._write(f"ordsum-{tag}.json", pair)
            parts = first + second
            a1 = self._member(rng, s1, s1_inv, first, p)
            a2 = self._member(rng, s2, s2_inv, second, p)
            b = self._vectors(rng, n2, n1, p)
            t = [a1[i] + b[i] for i in range(n1)] + [[0] * n1 + a2[i] for i in range(n2)]
            doc = {"matrix": gen.matrix_json(t, p)}
            info = {"parts": parts}
            self._add(f"ordsum-{tag}", ["ordsum", "--input", spec], 0, "ordsum", info)
            self._add(f"ordsum-op-{tag}", ["ordsum", "--input", spec, "--matrix",
                                           self._write(f"ordsum-{tag}-op.json", doc)],
                      0, "ordsum", info)

    def _bad_requests(self) -> None:
        for label, spec in BAD_INPUTS.items():
            path = self._write(f"bad-{label}.json", spec)
            self._add(f"bad-{label}", ["check", "--input", path], 2, "error")
        malformed = self.dir / "bad-malformed.json"
        malformed.write_text('{"field": "Q", "dim": 3, "chain": [')
        self._add("bad-malformed", ["check", "--input", str(malformed)], 2, "error")
        self._add("bad-c00-name", ["c00", "--name", "c00-nope"], 2, "error")
        q = next(r for r in self.requests.values() if r.kind == "rank" and r.info["p"] is None)
        spec = q.argv[q.argv.index("--input") + 1]
        self._add("bad-reflexivity-q", ["reflexivity", "--input", spec], 2, "error")
        info = q.info
        n = len(info["s"])
        low = [[int(i == j or (i == n - 1 and j == 0)) for j in range(n)] for i in range(n)]
        t = gen.conjugate(info["s"], low, info["s_inv"])
        path = self._write("bad-outside.json", {"matrix": gen.matrix_json(t)})
        self._add("bad-outside-algebra", ["decompose", "--input", spec, "--matrix", path],
                  2, "error")

    # -- running and checking ----------------------------------------------

    def _call(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()

    def failed(self, label, result) -> bool:
        return result[0] != self.requests[label].expect

    def round_counters(self, results: dict) -> dict:
        return {"cli.report_bytes": sum(len(text.encode()) for _, text in results.values())}

    def check(self, results: dict) -> list[str]:
        problems = []
        for label, (code, text) in results.items():
            req = self.requests[label]
            try:
                found = self._check_one(req, json.loads(text), results)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                found = [f"unreadable report: {exc!r}"]
            problems += [f"{label}: {p}" for p in found]
        return problems

    def _check_one(self, req, doc, results) -> list[str]:
        checks = _checks()
        if req.kind == "repeat":
            first = results.get(req.info["of"])
            same = first is not None and first[1] == results[req.label][1]
            return [] if same else ["repeated request gave a different report"]
        if req.expect == 2:
            return [] if isinstance(doc.get("error"), dict) and "type" in doc["error"] else [
                "bad input without a structured error"]
        failing = [v["property"] for v in doc["verdicts"] if v["pass"] is not True]
        if failing:
            return [f"verdicts fail: {failing}"]
        res = doc["results"]
        if req.kind == "plain":
            return []
        if req.kind == "verify":
            return [] if res["failures"] == 0 else [f"{res['failures']} suite failures"]
        if req.kind == "ordsum":
            found = [] if res["atoms"] == list(req.info["parts"]) else ["atoms do not concatenate"]
            if "--matrix" in req.argv:
                a = res["analysis"]
                if not (a["alg"]["predicted"] and a["alg"]["direct"] and a["consistent"]):
                    found.append("block-upper operator not recognised in the algebra")
            return found
        i = req.info
        p, parts, s, s_inv = i["p"], i["parts"], i["s"], i["s_inv"]
        n = len(s)
        dims = [0] + gen.cuts(parts) + [n]
        alg_dim, strict_dim = gen.atom_dims(parts)

        def mat(rows):
            return checks.parse_matrix(rows, p)

        if req.kind == "check":
            return [] if res["atoms"] == list(parts) and res["member_dims"] == dims else [
                "atoms or member dims differ from the spec"]
        if req.kind == "alg-basis":
            return (checks.basis_problems([mat(b) for b in res["algebra"]["basis"]], alg_dim,
                                          s, s_inv, parts, False, p, "algebra basis")
                    + checks.basis_problems([mat(b) for b in res["strict_ideal"]["basis"]],
                                            strict_dim, s, s_inv, parts, True, p,
                                            "strict ideal basis"))
        if req.kind == "radical":
            r = res["report"]
            data = dict(r, strict_basis=[mat(b) for b in r["strict_basis"]],
                        radical_basis=[mat(b) for b in r["radical_basis"]])
            return checks.radical_problems(data, parts, s, s_inv, p=p)
        if req.kind == "dual":
            orig = [gen.columns(s, d) for d in dims]
            dual = [mat(m) for m in res["dual"]["chain"]]
            return checks.dual_problems(orig, dual, n, p)
        if req.kind == "rank":
            return checks.rank_decompose_problems([mat(m) for m in res["summands"]], i["t"], p)
        if req.kind == "idempotent":
            proj = mat(res["projection"])
            return checks.idempotent_problems(proj, mat(i["vectors"]), p)
        if req.kind == "approximant":
            approx = mat(res["approximant"])
            found = checks.block_problems([approx], s, s_inv, parts, False, p, "approximant")
            for v in i["vectors"]:
                col = [[gen.norm(x, p)] for x in v]
                if gen.matmul(approx, col, p) != gen.matmul(i["t"], col, p):
                    found.append("approximant disagrees with the operator on a given vector")
            return found
        if req.kind == "witness":
            w = mat(res["witness"]["matrix"])
            x = mat([res["moved_vector"]])[0]
            image = mat([res["image"]])[0]
            return (checks.witness_problems(w, x, image, mat(i["vectors"]), p)
                    + checks.block_problems([w], s, s_inv, parts, False, p, "witness"))
        if req.kind == "full":
            found = []
            for key in ("chain_dims", "invariant_dims_algebra", "invariant_dims_rank_ones"):
                if res[key] != dims:
                    found.append(f"{key} {res[key]} != {dims}")
            if res["rank_one_generators"] != checks.rank_one_count(dims, p):
                found.append("wrong number of rank-one generators")
            return found
        return [f"no check for kind {req.kind}"]


WORKLOADS = {w.name: w for w in (RadicalQ, ReflexivityGF2, CliMixed)}
