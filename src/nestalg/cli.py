"""Command-line front end: parse nest specs from JSON, run the computations
and verification suites, emit JSON reports.

Reports have the shape {command, inputs, results, verdicts}; inputs carries
sha256 digests of the input files plus the parameters that influence the
output, so a report is reproducible byte for byte.  Every decomposition a
report emits is re-verified inside the same report, by the `check_*`
functions of the verify suites wherever a suite checks the same property,
so a failing verdict carries a witness of the request.

Exit codes: 0 when every verdict passes, 1 when some property fails,
2 for unusable input (malformed JSON, non-chains, operators outside the
algebra, bounds exceeded).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import c00, verify
from .algebra import (
    MembershipError,
    alg_basis,
    idempotent_onto,
    rank_decompose,
    rank_one_in_alg,
    reflexivity_witness,
    strict_approximant,
)
from .matrices import Matrix, rref
from .nests import IncomparableError, new_nest, ordinal_sum
from .radical import (
    ordsum_analyze,
    radical_exclusion_witness,
    radical_report,
    strict_ideal_basis,
)
from .sampling import random_span_element
from .serialize import (
    SpecError,
    algebra_basis_to_json,
    chain_from_json,
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
    vectors_from_json,
    vector_to_json,
    zigzag_report_to_json,
)
from .subspaces import check_enumeration_bound, span_of


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


def _matrix_arg(docs, nest) -> Matrix:
    if "matrix" not in docs:
        raise SpecError("matrix", "this command needs --matrix FILE")
    doc = docs["matrix"]
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise SpecError("matrix", "expected an object with key 'matrix'")
    n = nest.ambient_dim
    return matrix_from_json(nest.field, doc["matrix"], "matrix.matrix", n, n)


def _subspace_arg(docs, nest):
    """The span of the vectors of a {"subspace": [vectors]} --matrix payload."""
    doc = docs["matrix"]
    if not isinstance(doc, dict) or not isinstance(doc.get("subspace"), list):
        raise SpecError("matrix", "expected {\"subspace\": [vectors]}")
    n = nest.ambient_dim
    vectors = vectors_from_json(nest.field, doc["subspace"], n, "matrix.subspace")
    return span_of(vectors, nest.field, n)


def _input_doc(docs):
    if "input" not in docs:
        raise SpecError("input", "this command needs --input FILE with a nest spec")
    return docs["input"]


def _nest_arg(docs):
    return nest_from_json(_input_doc(docs), "input")


def cmd_check(args, docs, inputs):
    field, n, members, name = chain_from_json(_input_doc(docs), "input")
    nest = new_nest(field, n, members)
    warnings = [
        f"chain[{i}] duplicates chain[{members.index(s)}]; deduplicated"
        for i, s in enumerate(members)
        if members.index(s) < i
    ]
    results = {
        "name": name,
        "field": field_to_json(nest.field),
        "dim": n,
        "members": len(nest.chain),
        "member_dims": [s.dim for s in nest.chain],
        "atoms": list(nest.atoms),
        "warnings": warnings,
    }
    chain = nest.chain
    ck = verify._Check()
    ck.record(
        "valid-nest",
        chain[0].dim == 0
        and chain[-1].dim == n
        and all(a.dim < b.dim and a.leq(b) for a, b in zip(chain, chain[1:])),
        nest_to_json(nest),
    )
    return results, ck.verdicts()


def cmd_alg_basis(args, docs, inputs):
    nest, _ = _nest_arg(docs)
    alg = alg_basis(nest)
    strict = strict_ideal_basis(nest)
    results = {
        "algebra": algebra_basis_to_json(alg),
        "strict_ideal": algebra_basis_to_json(strict),
    }
    ck = verify._Check()
    verify.check_alg_basis(ck, nest, alg, strict, nest_to_json(nest))
    return results, ck.verdicts()


def _decompose_rank(nest, t):
    if t.is_zero():
        raise SpecError("matrix.matrix", "the zero operator has no rank decomposition")
    summands = rank_decompose(nest, t)
    results = {
        "mode": "rank",
        "rank": rref(t).rank,
        "summands": [matrix_to_json(s) for s in summands],
    }
    ck = verify._Check()
    ce = {"nest": nest_to_json(nest), "t": matrix_to_json(t)}
    verify.check_rank_decomposition(ck, nest, t, summands, ce)
    return results, ck.verdicts()


def _decompose_idempotent(nest, docs):
    m = _subspace_arg(docs, nest)
    if m.dim == 0:
        raise SpecError("matrix.subspace", "no idempotent with zero range")
    p, parts = idempotent_onto(nest, m)
    results = {
        "mode": "idempotent",
        "subspace": subspace_to_json(m),
        "projection": matrix_to_json(p),
        "parts": [rank_one_to_json(r) for r in parts],
    }
    ck = verify._Check()
    ce = {"nest": nest_to_json(nest), "subspace": results["subspace"]}
    verify.check_idempotent(ck, nest, m, p, parts, ce)
    return results, ck.verdicts()


def _decompose_approximant(nest, docs):
    t = _matrix_arg(docs, nest)
    raw = docs["matrix"].get("vectors", [])
    if not isinstance(raw, list):
        raise SpecError("matrix.vectors", "expected an array of vectors")
    vectors = vectors_from_json(nest.field, raw, nest.ambient_dim, "matrix.vectors")
    spn = span_of(vectors, nest.field, nest.ambient_dim)
    s = strict_approximant(nest, t, vectors)
    results = {
        "mode": "approximant",
        "span_dim": spn.dim,
        "approximant": matrix_to_json(s),
    }
    ck = verify._Check()
    ce = {"nest": nest_to_json(nest), "t": matrix_to_json(t)}
    verify.check_approximant(ck, nest, t, vectors, s, ce)
    ck.record("rank-at-most-span", rref(s).rank <= spn.dim, ce)
    return results, ck.verdicts()


def cmd_decompose(args, docs, inputs):
    nest, _ = _nest_arg(docs)
    if "matrix" not in docs:
        raise SpecError("matrix", "this command needs --matrix FILE with a JSON object")
    doc = docs["matrix"]
    if not isinstance(doc, dict):
        raise SpecError("matrix", "expected a JSON object")
    inferred = "idempotent" if "subspace" in doc else "approximant" if "vectors" in doc else "rank"
    mode = inputs["mode"] = args.mode or inferred
    if mode == "rank":
        return _decompose_rank(nest, _matrix_arg(docs, nest))
    if mode == "idempotent":
        return _decompose_idempotent(nest, docs)
    return _decompose_approximant(nest, docs)


def cmd_radical(args, docs, inputs):
    nest, _ = _nest_arg(docs)
    alg = alg_basis(nest)
    rep = radical_report(nest, alg)
    ce = nest_to_json(nest)
    ck = verify._Check()
    verify.check_radical_report(ck, rep, ce)
    rng = random.Random(args.seed)
    wanted = min(args.cases, 5)
    witnesses = []
    attempts = 0
    while len(witnesses) < wanted and attempts < 100 * wanted:
        attempts += 1
        t = random_span_element(alg, rng, nonzero=True)
        try:
            x, phi = radical_exclusion_witness(nest, t)
        except MembershipError:
            raise
        except ValueError:  # t strictly shifts the chain
            continue
        t_doc = matrix_to_json(t)
        singular = verify.check_exclusion_witness(ck, nest, t, x, phi, {"nest": ce, "t": t_doc})
        witnesses.append(
            {
                "t": t_doc,
                "x": vector_to_json(nest.field, x),
                "phi": vector_to_json(nest.field, phi.coeffs),
                "singular": singular,
            }
        )
    ck.record("exclusion-witness-count", len(witnesses) == wanted, ce)
    results = {"report": radical_report_to_json(rep), "exclusion_witnesses": witnesses}
    return results, ck.verdicts()


def cmd_dual(args, docs, inputs):
    nest, _ = _nest_arg(docs)
    d = nest.dual()
    ck = verify._Check()
    verify.check_dual(ck, nest, d, nest_to_json(nest))
    return {"dual": nest_to_json(d)}, ck.verdicts()


def cmd_reflexivity(args, docs, inputs):
    nest, _ = _nest_arg(docs)
    ck = verify._Check()
    if "matrix" in docs:
        m = _subspace_arg(docs, nest)
        if m in nest.chain:
            raise SpecError("matrix.subspace", "the subspace is a member of the chain: no witness")
        op, x = reflexivity_witness(nest, m)
        image = op.matrix.apply(x)
        results = {
            "mode": "witness",
            "subspace": subspace_to_json(m),
            "witness": rank_one_to_json(op),
            "moved_vector": vector_to_json(nest.field, x),
            "image": vector_to_json(nest.field, image),
        }
        ce = {"nest": nest_to_json(nest), "subspace": results["subspace"]}
        ck.record("witness-in-algebra", rank_one_in_alg(nest, op), ce)
        ck.record("witness-moves-subspace", m.contains(x) and not m.contains(image), ce)
        return results, ck.verdicts()
    if nest.field.is_rationals:
        raise SpecError(
            "input.field",
            "exhaustive reflexivity needs a finite field; over Q pass --matrix "
            "with {\"subspace\": [vectors]} to get a witness for one subspace",
        )
    check_enumeration_bound(nest.field, nest.ambient_dim)
    lat_alg, lat_ones, count = verify.check_reflexivity_lattice(ck, nest, nest_to_json(nest))
    results = {
        "mode": "full",
        "chain_dims": [s.dim for s in nest.chain],
        "invariant_dims_algebra": [s.dim for s in lat_alg],
        "invariant_dims_rank_ones": [s.dim for s in lat_ones],
        "rank_one_generators": count,
    }
    return results, ck.verdicts()


def cmd_ordsum(args, docs, inputs):
    doc = _input_doc(docs)
    if not isinstance(doc, dict) or "first" not in doc or "second" not in doc:
        raise SpecError("input", "expected {\"first\": <nest>, \"second\": <nest>}")
    first, _ = nest_from_json(doc["first"], "input.first")
    second, _ = nest_from_json(doc["second"], "input.second")
    if second.field != first.field:
        raise SpecError(
            "input.second.field", f"field {second.field!r} differs from the first's {first.field!r}"
        )
    summed = ordinal_sum(first, second)
    results = {"sum": nest_to_json(summed), "atoms": list(summed.atoms)}
    ck = verify._Check()
    ce = {"first": nest_to_json(first), "second": nest_to_json(second)}
    verify.check_ordinal_sum(ck, first, second, summed, ce)
    if "matrix" in docs:
        t = _matrix_arg(docs, summed)
        [rep] = ordsum_analyze(first, second, [t])
        results["analysis"] = ordsum_report_to_json(rep)
        verify.check_ordsum_analysis(ck, rep, {**ce, "t": matrix_to_json(t)})
    return results, ck.verdicts()


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
        nest = c00.CATALOG[n]()
        res = results[n] = {"descriptor": support_nest_to_json(nest)}
        ck = verify._Check()
        ce = {"nest": nest.order_type}
        if nest.order_type == c00.ZIGZAG:
            z = c00.zigzag_report()
            res["report"] = zigzag_report_to_json(z)
            verify.check_zigzag(ck, z, ce)
        else:
            d = c00.dual_support_nest(nest)
            res["dual"] = support_nest_to_json(d.dual)
            res["dual_complete"] = d.complete
            ck.record("dual-complete-iff-well-ordered", d.complete == nest.is_well_ordered, ce)
            if d.witness is not None:
                res["witness"] = tail_functional_to_json(d.witness)
                verify.check_dual_witness(ck, nest, d.witness, ce)
        verdicts += [{"chain": n, **v} for v in ck.verdicts()]
    return results, verdicts


def cmd_verify(args, docs, inputs):
    suite = args.suite
    inputs["suite"] = suite
    names = list(verify.SUITES) if suite == "all" else [suite]
    verdicts = []
    for name in names:
        for v in verify.run_suite(name, seed=args.seed, cases=args.cases, max_dim=args.max_dim):
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared: do not modify it."""
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
        p.add_argument("--cases", type=int, default=100,
                       help="sample count for randomized checks (radical: exclusion "
                       "witnesses, at most 5)")
        p.add_argument("--max-dim", type=int, default=4, dest="max_dim",
                       help="dimension bound for exhaustive sweeps")
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
    p.add_argument("suite", choices=list(verify.SUITES) + ["all"],
                   help="which suite to run")
    return parser


def _emit(doc: dict, output) -> None:
    """Write the report to the opened --output file, else to stdout, one
    top-level key at a time, as `json.dumps(doc, indent=2)` and a newline
    would (doc is a report, never empty).  A reader that closed stdout early
    does not change the exit code: stdout is pointed at the null device so
    the interpreter's last flush is quiet."""
    if output is not None:
        with output:
            _write_report(doc, output)
        return
    try:
        _write_report(doc, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _write_report(doc: dict, stream) -> None:
    sep = "{\n  "
    for key, value in doc.items():
        stream.write(f"{sep}{encode_basestring_ascii(key)}: {_json(value, '  ')}")
        sep = ",\n  "
    stream.write("\n}\n")


def _json(value, pad: str) -> str:
    """The JSON text of value as `json.dumps(value, indent=2)` writes it at
    the indent pad, ASCII only.  A list of strings or of ints, the rows of
    a report's matrices, is joined in one call."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        kinds = set(map(type, value))
        if kinds == {str}:
            body = sep.join(map(encode_basestring_ascii, value))
        elif kinds == {int}:
            body = sep.join(map(int.__repr__, value))
        else:
            body = sep.join([_json(v, inner) for v in value])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        body = f",\n{inner}".join(
            [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()]
        )
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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
    output = None
    try:
        if args.output:  # opened before any work, so an unwritable path is bad input
            try:
                output = open(args.output, "w")
            except OSError as exc:
                raise SpecError("output", f"cannot write {args.output}: {exc}") from None
        for name in ("cases", "max_dim"):
            if inputs[name] < 0:
                raise SpecError(name, f"must be nonnegative, got {inputs[name]}")
        if getattr(args, "input", None):
            docs["input"], inputs["input"] = _read_json_file(args.input, "input")
        if getattr(args, "matrix", None):
            docs["matrix"], inputs["matrix"] = _read_json_file(args.matrix, "matrix")
        results, verdicts = HANDLERS[args.command](args, docs, inputs)
    except ValueError as exc:  # SpecError, IncomparableError and MembershipError among them
        report = {
            "command": args.command,
            "inputs": inputs,
            "error": _error_payload(exc),
        }
        _emit(report, output)
        return 2
    report = {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "verdicts": verdicts,
    }
    _emit(report, output)
    return 0 if all(v["pass"] for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
