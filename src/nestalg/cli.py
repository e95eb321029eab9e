"""Command-line front end: parse nest specs from JSON, run the computations
and verification suites, emit JSON reports.

Reports have the shape {command, inputs, results, verdicts}; inputs carries
sha256 digests of the input files plus the parameters that influence the
output, so a report is reproducible byte for byte.  Every decomposition a
report emits is re-verified inside the same report.

Exit codes: 0 when every verdict passes, 1 when some property fails,
2 for unusable input (malformed JSON, non-chains, operators outside the
algebra, bounds exceeded).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

from . import c00
from .algebra import (
    alg_basis,
    all_rank_ones_in_alg,
    idempotent_onto,
    in_alg_witness,
    invariant_lattice,
    matrix_span_basis,
    range_of,
    rank_decompose,
    rank_one,
    rank_one_in_alg,
    reflexivity_witness,
    strict_approximant,
)
from .fields import QQ
from .matrices import Matrix, rref, try_invert
from .nests import IncomparableError, ordinal_sum
from .radical import (
    in_strict_ideal,
    ordsum_analyze,
    radical_exclusion_witness,
    radical_report,
    strict_ideal_basis,
)
from .sampling import random_span_element
from .serialize import (
    SpecError,
    algebra_basis_to_json,
    field_to_json,
    matrix_from_json,
    matrix_to_json,
    nest_from_json,
    nest_to_json,
    ordsum_report_to_json,
    radical_report_to_json,
    rank_one_to_json,
    subspace_to_json,
    support_nest_to_json,
    tail_functional_to_json,
    vector_from_json,
    vector_to_json,
    zigzag_report_to_json,
)
from .subspaces import check_enumeration_bound, span_of
from .verify import SUITES, run_suite


class MembershipError(ValueError):
    """An operator input violates a membership precondition; carries the
    offending chain member and moved vector for the error report."""

    def __init__(self, label: str, kind: str, member, vector, field):
        self.label = label
        self.kind = kind
        self.member = member
        self.vector = vector
        self.field = field
        super().__init__(
            f"{label}: operator is not {kind}: moves a basis vector of a chain member out of bounds"
        )


def _read_json_file(path: str, label: str):
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise SpecError(label, f"cannot read {path}: {exc}") from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{label}:{exc.lineno}:{exc.colno}", exc.msg) from None
    return doc, digest


def _require_in_alg(nest, t: Matrix, label: str) -> None:
    w = in_alg_witness(nest, t)
    if w is not None:
        member, v = w
        raise MembershipError(label, "in the algebra", member, v, nest.field)


def _matrix_arg(docs, nest, key: str = "matrix") -> Matrix:
    doc = docs.get("matrix")
    if doc is None:
        raise SpecError("matrix", "this command needs --matrix FILE")
    if not isinstance(doc, dict) or key not in doc:
        raise SpecError("matrix", f"expected an object with key {key!r}")
    n = nest.ambient_dim
    return matrix_from_json(nest.field, doc[key], f"matrix.{key}", n, n)


def _nest_arg(docs, path: str = "input"):
    doc = docs.get("input")
    if doc is None:
        raise SpecError("input", "this command needs --input FILE with a nest spec")
    return nest_from_json(doc, path)


def cmd_check(args, docs, inputs):
    doc = docs.get("input")
    nest, name = _nest_arg(docs)
    warnings = []
    spans = []
    for i, vectors in enumerate(doc["chain"]):
        rows = [
            vector_from_json(nest.field, v, nest.ambient_dim, f"input.chain[{i}][{j}]")
            for j, v in enumerate(vectors)
        ]
        spans.append(span_of(rows, nest.field, nest.ambient_dim))
    seen = {}
    for i, s in enumerate(spans):
        if s in seen:
            warnings.append(f"chain[{i}] duplicates chain[{seen[s]}]; deduplicated")
        else:
            seen[s] = i
    results = {
        "name": name,
        "field": field_to_json(nest.field),
        "dim": nest.ambient_dim,
        "members": len(nest.chain),
        "member_dims": [s.dim for s in nest.chain],
        "atoms": list(nest.atoms),
        "warnings": warnings,
    }
    verdicts = [{"property": "valid-nest", "pass": True, "cases": 1}]
    return results, verdicts


def cmd_alg_basis(args, docs, inputs):
    nest, _ = _nest_arg(docs)
    alg = alg_basis(nest)
    strict = strict_ideal_basis(nest)
    atoms = nest.atoms
    alg_dim = sum(
        atoms[i] * atoms[j] for i in range(len(atoms)) for j in range(i, len(atoms))
    )
    strict_dim = sum(
        atoms[i] * atoms[j] for i in range(len(atoms)) for j in range(i + 1, len(atoms))
    )
    n = nest.ambient_dim
    products = [a @ b for a in alg.basis for b in alg.basis]
    closed = len(matrix_span_basis(list(alg.basis) + products, nest.field, (n, n))) == alg.dim
    results = {
        "algebra": algebra_basis_to_json(alg),
        "strict_ideal": algebra_basis_to_json(strict),
    }
    verdicts = [
        {"property": "algebra-dimension", "pass": alg.dim == alg_dim, "cases": 1},
        {"property": "strict-ideal-dimension", "pass": strict.dim == strict_dim, "cases": 1},
        {
            "property": "basis-members-in-algebra",
            "pass": all(in_alg_witness(nest, b) is None for b in alg.basis),
            "cases": alg.dim,
        },
        {
            "property": "strict-members-shift",
            "pass": all(in_strict_ideal(nest, b) for b in strict.basis),
            "cases": strict.dim,
        },
        {"property": "closed-under-product", "pass": closed, "cases": len(products)},
    ]
    return results, verdicts


def _decompose_rank(nest, t):
    _require_in_alg(nest, t, "matrix.matrix")
    if t.is_zero():
        raise SpecError("matrix.matrix", "the zero operator has no rank decomposition")
    summands = rank_decompose(nest, t)
    total = Matrix.zeros(nest.field, nest.ambient_dim, nest.ambient_dim)
    for s in summands:
        total = total + s
    results = {
        "mode": "rank",
        "rank": rref(t).rank,
        "summands": [matrix_to_json(s) for s in summands],
    }
    verdicts = [
        {
            "property": "summand-count-equals-rank",
            "pass": len(summands) == rref(t).rank,
            "cases": 1,
        },
        {
            "property": "summands-are-rank-one",
            "pass": all(rref(s).rank == 1 for s in summands),
            "cases": len(summands),
        },
        {
            "property": "summands-in-algebra",
            "pass": all(in_alg_witness(nest, s) is None for s in summands),
            "cases": len(summands),
        },
        {"property": "sum-reconstructs-operator", "pass": total == t, "cases": 1},
    ]
    return results, verdicts


def _decompose_idempotent(nest, docs):
    doc = docs["matrix"]
    rows = doc["subspace"]
    if not isinstance(rows, list):
        raise SpecError("matrix.subspace", "expected an array of basis vectors")
    vectors = [
        vector_from_json(nest.field, v, nest.ambient_dim, f"matrix.subspace[{j}]")
        for j, v in enumerate(rows)
    ]
    m = span_of(vectors, nest.field, nest.ambient_dim)
    if m.dim == 0:
        raise SpecError("matrix.subspace", "no idempotent with zero range")
    p, parts = idempotent_onto(nest, m)
    results = {
        "mode": "idempotent",
        "subspace": subspace_to_json(m),
        "projection": matrix_to_json(p),
        "parts": [rank_one_to_json(r) for r in parts],
    }
    verdicts = [
        {"property": "squares-to-itself", "pass": p @ p == p, "cases": 1},
        {"property": "range-is-subspace", "pass": range_of(p) == m, "cases": 1},
        {"property": "one-part-per-dimension", "pass": len(parts) == m.dim, "cases": 1},
        {
            "property": "parts-pairwise-annihilate",
            "pass": all(
                (a.matrix @ b.matrix).is_zero()
                for i, a in enumerate(parts)
                for j, b in enumerate(parts)
                if i != j
            ),
            "cases": len(parts) * max(0, len(parts) - 1),
        },
        {
            "property": "parts-in-algebra",
            "pass": all(rank_one_in_alg(nest, r) for r in parts),
            "cases": len(parts),
        },
    ]
    return results, verdicts


def _decompose_approximant(nest, docs):
    doc = docs["matrix"]
    t = _matrix_arg(docs, nest)
    _require_in_alg(nest, t, "matrix.matrix")
    raw = doc.get("vectors", [])
    if not isinstance(raw, list):
        raise SpecError("matrix.vectors", "expected an array of vectors")
    vectors = [
        vector_from_json(nest.field, v, nest.ambient_dim, f"matrix.vectors[{j}]")
        for j, v in enumerate(raw)
    ]
    spn = span_of(vectors, nest.field, nest.ambient_dim)
    s = strict_approximant(nest, t, vectors)
    results = {
        "mode": "approximant",
        "span_dim": spn.dim,
        "approximant": matrix_to_json(s),
    }
    verdicts = [
        {
            "property": "agrees-on-span",
            "pass": all(s.apply(v) == t.apply(v) for v in vectors),
            "cases": len(vectors),
        },
        {
            "property": "approximant-in-algebra",
            "pass": in_alg_witness(nest, s) is None,
            "cases": 1,
        },
        {
            "property": "rank-at-most-span",
            "pass": rref(s).rank <= spn.dim,
            "cases": 1,
        },
    ]
    return results, verdicts


def cmd_decompose(args, docs, inputs):
    nest, _ = _nest_arg(docs)
    doc = docs.get("matrix")
    if doc is None or not isinstance(doc, dict):
        raise SpecError("matrix", "this command needs --matrix FILE with a JSON object")
    mode = args.mode
    if mode is None:
        if "subspace" in doc:
            mode = "idempotent"
        elif "vectors" in doc:
            mode = "approximant"
        else:
            mode = "rank"
    inputs["mode"] = mode
    if mode == "rank":
        return _decompose_rank(nest, _matrix_arg(docs, nest))
    if mode == "idempotent":
        if "subspace" not in doc:
            raise SpecError("matrix", "idempotent mode expects {\"subspace\": [vectors]}")
        return _decompose_idempotent(nest, docs)
    return _decompose_approximant(nest, docs)


def cmd_radical(args, docs, inputs):
    nest, _ = _nest_arg(docs)
    rep = radical_report(nest)
    results = {"report": radical_report_to_json(rep)}
    verdicts = [
        {"property": "radical-matches-strict-ideal", "pass": rep.equal, "cases": 1},
        {"property": "quotient-dimension", "pass": rep.quotient_check, "cases": 1},
        {
            "property": "ideal-nilpotency-bounded",
            "pass": rep.nilpotency_index <= max(1, len(nest.atoms)),
            "cases": 1,
        },
    ]
    rng = random.Random(args.seed)
    alg = alg_basis(nest)
    wanted = max(1, min(args.cases, 5))
    witnesses = []
    ok_all = True
    attempts = 0
    while len(witnesses) < wanted and attempts < 100 * wanted:
        attempts += 1
        t = random_span_element(alg, rng, nonzero=True)
        if in_strict_ideal(nest, t):
            continue
        x, phi = radical_exclusion_witness(nest, t)
        r = rank_one(x, phi)
        blocker = Matrix.identity(nest.field, nest.ambient_dim) - (r.matrix @ t)
        singular = try_invert(blocker) is None
        killed = all(not v for v in blocker.apply(x))
        ok_all = ok_all and singular and killed and rank_one_in_alg(nest, r)
        witnesses.append(
            {
                "t": matrix_to_json(t),
                "x": vector_to_json(nest.field, x),
                "phi": vector_to_json(nest.field, phi.coeffs),
                "singular": singular,
            }
        )
    results["exclusion_witnesses"] = witnesses
    verdicts.append(
        {
            "property": "exclusion-witnesses-singular",
            "pass": ok_all and len(witnesses) == wanted,
            "cases": len(witnesses),
        }
    )
    return results, verdicts


def cmd_dual(args, docs, inputs):
    nest, _ = _nest_arg(docs)
    d = nest.dual()
    k = len(nest.chain)
    anti = all(
        nest.chain[i].leq(nest.chain[j]) == d.chain[k - 1 - j].leq(d.chain[k - 1 - i])
        for i in range(k)
        for j in range(k)
    )
    results = {"dual": nest_to_json(d)}
    verdicts = [
        {"property": "double-dual-identity", "pass": d.dual() == nest, "cases": 1},
        {"property": "anti-isomorphism", "pass": anti, "cases": k * k},
        {
            "property": "dimensions-complement",
            "pass": [s.dim for s in d.chain]
            == [nest.ambient_dim - s.dim for s in reversed(nest.chain)],
            "cases": k,
        },
    ]
    return results, verdicts


def cmd_reflexivity(args, docs, inputs):
    nest, _ = _nest_arg(docs)
    if docs.get("matrix") is not None:
        doc = docs["matrix"]
        if not isinstance(doc, dict) or not isinstance(doc.get("subspace"), list):
            raise SpecError("matrix", "witness mode expects {\"subspace\": [vectors]}")
        rows = doc["subspace"]
        vectors = [
            vector_from_json(nest.field, v, nest.ambient_dim, f"matrix.subspace[{j}]")
            for j, v in enumerate(rows)
        ]
        m = span_of(vectors, nest.field, nest.ambient_dim)
        op, x = reflexivity_witness(nest, m)
        image = op.matrix.apply(x)
        results = {
            "mode": "witness",
            "subspace": subspace_to_json(m),
            "witness": rank_one_to_json(op),
            "moved_vector": vector_to_json(nest.field, x),
            "image": vector_to_json(nest.field, image),
        }
        verdicts = [
            {
                "property": "witness-in-algebra",
                "pass": rank_one_in_alg(nest, op),
                "cases": 1,
            },
            {
                "property": "witness-moves-subspace",
                "pass": m.contains(x) and not m.contains(image),
                "cases": 1,
            },
        ]
        return results, verdicts
    if nest.field.is_rationals:
        raise SpecError(
            "input.field",
            "exhaustive reflexivity needs a finite field; over Q pass --matrix "
            "with {\"subspace\": [vectors]} to get a witness for one subspace",
        )
    check_enumeration_bound(nest.field, nest.ambient_dim)
    alg = alg_basis(nest)
    ones = all_rank_ones_in_alg(nest)
    lat_alg = invariant_lattice(alg.basis, nest.field, nest.ambient_dim)
    lat_ones = invariant_lattice([r.matrix for r in ones], nest.field, nest.ambient_dim)
    chain = list(nest.chain)
    results = {
        "mode": "full",
        "chain_dims": [s.dim for s in chain],
        "invariant_dims_algebra": [s.dim for s in lat_alg],
        "invariant_dims_rank_ones": [s.dim for s in lat_ones],
        "rank_one_generators": len(ones),
    }
    verdicts = [
        {
            "property": "chain-recovered-from-algebra",
            "pass": lat_alg == chain,
            "cases": len(lat_alg),
        },
        {
            "property": "chain-recovered-from-rank-ones",
            "pass": lat_ones == chain,
            "cases": len(lat_ones),
        },
    ]
    return results, verdicts


def cmd_ordsum(args, docs, inputs):
    doc = docs.get("input")
    if not isinstance(doc, dict) or "first" not in doc or "second" not in doc:
        raise SpecError("input", "expected {\"first\": <nest>, \"second\": <nest>}")
    first, _ = nest_from_json(doc["first"], "input.first")
    second, _ = nest_from_json(doc["second"], "input.second")
    summed = ordinal_sum(first, second)
    results = {"sum": nest_to_json(summed), "atoms": list(summed.atoms)}
    verdicts = [
        {
            "property": "member-count",
            "pass": len(summed.chain) == len(first.chain) + len(second.chain) - 1,
            "cases": 1,
        },
        {
            "property": "atoms-concatenate",
            "pass": summed.atoms == first.atoms + second.atoms,
            "cases": 1,
        },
    ]
    if docs.get("matrix") is not None:
        t = _matrix_arg(docs, summed)
        rep = ordsum_analyze(first, second, t)
        results["analysis"] = ordsum_report_to_json(rep)
        verdicts.append(
            {
                "property": "membership-rules-match-direct",
                "pass": rep.consistent,
                "cases": 1,
            }
        )
    return results, verdicts


def _c00_one(name: str):
    nest = c00.CATALOG[name]()
    results = {"descriptor": support_nest_to_json(nest)}
    verdicts = []
    if name == "c00-zigzag":
        results["report"] = zigzag_report_to_json(c00.zigzag_report())
        rep = c00.zigzag_report()
        verdicts.append(
            {
                "property": "zigzag-no-chain-conditions",
                "pass": not rep.has_acc and not rep.has_dcc and not rep.well_ordered,
                "cases": 1,
            }
        )
        verdicts.append(
            {
                "property": "zigzag-radical-equals-strict",
                "pass": rep.radical_equals_strict
                and all(comp.radical_equals_strict for comp in rep.components),
                "cases": 1 + len(rep.components),
            }
        )
        return results, verdicts
    d = c00.dual_support_nest(nest)
    results["dual"] = support_nest_to_json(d.dual)
    results["dual_complete"] = d.complete
    verdicts.append(
        {
            "property": "dual-complete-iff-well-ordered",
            "pass": d.complete == nest.is_well_ordered,
            "cases": 1,
        }
    )
    if d.witness is not None:
        results["witness"] = tail_functional_to_json(d.witness)
        meet = c00.family_meet(nest, "all")
        inside = d.witness.supported_within(c00.support_annihilator(meet))
        outside = all(
            not d.witness.supported_within(c00.support_annihilator(nest.member(k)))
            for k in range(1, 21)
        )
        verdicts.append(
            {
                "property": "witness-separates-union",
                "pass": inside and outside,
                "cases": 21,
            }
        )
    return results, verdicts


def cmd_c00(args, docs, inputs):
    name = args.name
    inputs["name"] = name
    names = list(c00.CATALOG) if name == "all" else [name]
    for n in names:
        if n not in c00.CATALOG:
            raise SpecError(
                "name", f"unknown catalog nest {n!r}; choose from {', '.join(c00.CATALOG)}"
            )
    results = {}
    verdicts = []
    for n in names:
        r, vs = _c00_one(n)
        results[n] = r
        for v in vs:
            verdicts.append({"chain": n, **v})
    return results, verdicts


def cmd_verify(args, docs, inputs):
    suite = args.suite
    inputs["suite"] = suite
    names = list(SUITES) if suite == "all" else [suite]
    verdicts = []
    for name in names:
        for v in run_suite(name, seed=args.seed, cases=args.cases, max_dim=args.max_dim):
            verdicts.append({"suite": name, **v})
    failures = [v for v in verdicts if not v["pass"]]
    results = {
        "suites": names,
        "properties": len(verdicts),
        "failures": len(failures),
    }
    return results, verdicts


HANDLERS = {
    "check": cmd_check,
    "alg-basis": cmd_alg_basis,
    "decompose": cmd_decompose,
    "radical": cmd_radical,
    "dual": cmd_dual,
    "reflexivity": cmd_reflexivity,
    "ordsum": cmd_ordsum,
    "c00": cmd_c00,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestalg",
        description="Exact nest-algebra computations with self-verifying JSON reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", help="JSON input file (nest spec unless noted)")
        p.add_argument("--matrix", help="JSON file with the operator or subspace payload")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--seed", type=int, default=0, help="seed for any sampling (default 0)")
        p.add_argument("--cases", type=int, default=100, help="sample count for randomized checks")
        p.add_argument("--max-dim", type=int, default=4, dest="max_dim",
                       help="dimension bound for exhaustive sweeps")
        p.add_argument("--format", choices=["json"], default="json",
                       help="report format (json only)")
        return p

    add("check", "validate a nest spec and print its shape")
    add("alg-basis", "basis of the algebra and of its strictly-shifting ideal")
    p = add("decompose", "rank-one decompositions: rank, idempotent, or approximant mode")
    p.add_argument("--mode", choices=["rank", "idempotent", "approximant"],
                   help="decomposition mode (default: inferred from the payload keys)")
    add("radical", "radical report with sampled exclusion witnesses")
    add("dual", "annihilator chain and its verification")
    add("reflexivity", "recover the chain from its algebra, or witness a non-member")
    add("ordsum", "stack two nests and check the block membership rules")
    p = add("c00", "symbolic sequence-space catalog reports")
    p.add_argument("--name", default="all",
                   help="catalog chain name (default: all of them)")
    p = add("verify", "run a property suite")
    p.add_argument("suite", choices=list(SUITES) + ["all"],
                   help="which suite to run")
    return parser


def _emit(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


def _error_payload(exc: Exception) -> dict:
    if isinstance(exc, IncomparableError):
        return {
            "type": "incomparable",
            "message": str(exc),
            "first": matrix_to_json(exc.a.basis),
            "second": matrix_to_json(exc.b.basis),
        }
    if isinstance(exc, MembershipError):
        return {
            "type": "membership",
            "message": str(exc),
            "violated_member": matrix_to_json(exc.member.basis),
            "vector": vector_to_json(exc.field, exc.vector),
        }
    if isinstance(exc, SpecError):
        return {"type": "input", "path": exc.path, "message": str(exc)}
    return {"type": "input", "message": str(exc)}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    inputs: dict = {"seed": args.seed, "cases": args.cases, "max_dim": args.max_dim}
    docs: dict = {}
    try:
        if getattr(args, "input", None):
            docs["input"], inputs["input"] = _read_json_file(args.input, "input")
        if getattr(args, "matrix", None):
            docs["matrix"], inputs["matrix"] = _read_json_file(args.matrix, "matrix")
        results, verdicts = HANDLERS[args.command](args, docs, inputs)
    except (SpecError, IncomparableError, MembershipError, ValueError) as exc:
        report = {
            "command": args.command,
            "inputs": inputs,
            "error": _error_payload(exc),
        }
        _emit(report, args.output)
        return 2
    report = {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "verdicts": verdicts,
    }
    _emit(report, args.output)
    return 0 if all(v["pass"] for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
