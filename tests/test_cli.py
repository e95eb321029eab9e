"""End-to-end runs of the command-line interface."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nestalg import algebra, cli, matrices, radical, subspaces, verify
from nestalg.algebra import (
    FULL,
    STRICT,
    AlgebraBasis,
    alg_basis,
    idempotent_onto,
    in_alg,
    rank_decompose,
)
from nestalg.fields import GF2, GF3, QQ
from nestalg.matrices import Matrix
from nestalg.nests import flag_nest, ordinal_sum
from nestalg.radical import in_strict_ideal, ordsum_analyze, strict_ideal_basis
from nestalg.sampling import random_matrix, random_nest, random_span_element
from nestalg.serialize import matrix_to_json, nest_from_json, nest_to_json
from nestalg.subspaces import span_of

FLAG3 = {
    "field": "Q",
    "dim": 3,
    "name": "flag-q3",
    "chain": [
        [["1", "0", "0"]],
        [["1", "0", "0"], ["0", "1", "0"]],
    ],
}


def run_cli(*argv, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "nestalg", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def load_report(proc):
    return json.loads(proc.stdout)


def run_main(*argv):
    """cli.main in process: (exit code, parsed report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, json.loads(buf.getvalue())


def test_check_valid_nest(tmp_path):
    proc = run_cli("check", "--input", write(tmp_path, "nest.json", FLAG3))
    assert proc.returncode == 0
    report = load_report(proc)
    assert report["command"] == "check"
    assert report["results"]["atoms"] == [1, 1, 1]
    assert report["results"]["member_dims"] == [0, 1, 2, 3]
    assert report["results"]["name"] == "flag-q3"
    assert report["results"]["warnings"] == []
    assert all(v["pass"] for v in report["verdicts"])


def test_check_warns_on_duplicates(tmp_path):
    doc = {
        "field": "Q",
        "dim": 2,
        "chain": [[["1", "0"]], [["2", "0"]]],
    }
    proc = run_cli("check", "--input", write(tmp_path, "dup.json", doc))
    assert proc.returncode == 0
    report = load_report(proc)
    assert report["results"]["warnings"] == [
        "chain[1] duplicates chain[0]; deduplicated"
    ]
    assert report["results"]["members"] == 3


def test_check_incomparable_members(tmp_path):
    doc = {
        "field": "Q",
        "dim": 2,
        "chain": [[["1", "0"]], [["0", "1"]]],
    }
    proc = run_cli("check", "--input", write(tmp_path, "bad.json", doc))
    assert proc.returncode == 2
    report = load_report(proc)
    assert report["error"]["type"] == "incomparable"
    assert "first" in report["error"] and "second" in report["error"]


def test_malformed_json_names_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"field": "Q",\n "dim": }')
    proc = run_cli("check", "--input", str(path))
    assert proc.returncode == 2
    report = load_report(proc)
    assert report["error"]["type"] == "input"
    assert report["error"]["path"].startswith("input:2:")


def test_alg_basis(tmp_path):
    proc = run_cli("alg-basis", "--input", write(tmp_path, "nest.json", FLAG3))
    assert proc.returncode == 0
    report = load_report(proc)
    assert report["results"]["algebra"]["dim"] == 6
    assert report["results"]["strict_ideal"]["dim"] == 3
    assert all(v["pass"] for v in report["verdicts"])


def test_decompose_rank(tmp_path):
    op = {"matrix": [["0", "1", "1"], ["0", "0", "1"], ["0", "0", "0"]]}
    proc = run_cli(
        "decompose",
        "--input", write(tmp_path, "nest.json", FLAG3),
        "--matrix", write(tmp_path, "op.json", op),
    )
    assert proc.returncode == 0
    report = load_report(proc)
    assert report["inputs"]["mode"] == "rank"
    assert len(report["results"]["summands"]) == 2
    assert all(v["pass"] for v in report["verdicts"])
    names = {v["property"] for v in report["verdicts"]}
    assert "summands-count-rank" in names
    assert "summands-sum-exactly" in names


def test_decompose_rejects_outsider(tmp_path):
    op = {"matrix": [["0", "0", "0"], ["1", "0", "0"], ["0", "0", "0"]]}
    proc = run_cli(
        "decompose",
        "--input", write(tmp_path, "nest.json", FLAG3),
        "--matrix", write(tmp_path, "op.json", op),
    )
    assert proc.returncode == 2
    report = load_report(proc)
    assert report["error"]["type"] == "membership"
    assert report["error"]["violated_member"] == [["1", "0", "0"]]
    assert report["error"]["vector"] == ["1", "0", "0"]


def test_decompose_idempotent_mode(tmp_path):
    sub = {"subspace": [["1", "0", "0"], ["0", "1", "0"]]}
    proc = run_cli(
        "decompose",
        "--input", write(tmp_path, "nest.json", FLAG3),
        "--matrix", write(tmp_path, "sub.json", sub),
    )
    assert proc.returncode == 0
    report = load_report(proc)
    assert report["inputs"]["mode"] == "idempotent"
    assert len(report["results"]["parts"]) == 2
    assert all(v["pass"] for v in report["verdicts"])


def test_radical_over_gf2(tmp_path):
    doc = {
        "field": {"p": 2},
        "dim": 3,
        "chain": [[["1", "0", "0"]]],
    }
    proc = run_cli("radical", "--input", write(tmp_path, "nest.json", doc))
    assert proc.returncode == 0
    report = load_report(proc)
    assert report["results"]["report"]["equal"] is True
    verdicts = {v["property"]: v["pass"] for v in report["verdicts"]}
    assert verdicts["radical-matches-ideal"] is True
    assert all(verdicts.values())


def test_radical_over_q_with_witnesses(tmp_path):
    proc = run_cli(
        "radical",
        "--input", write(tmp_path, "nest.json", FLAG3),
        "--cases", "3",
    )
    assert proc.returncode == 0
    report = load_report(proc)
    assert report["results"]["report"]["alg_dim"] == 6
    assert report["results"]["exclusion_witnesses"]
    for w in report["results"]["exclusion_witnesses"]:
        assert w["singular"] is True


@pytest.mark.parametrize("cases, wanted", [(0, 0), (3, 3), (7, 5)])
def test_radical_witness_count_follows_cases(tmp_path, cases, wanted):
    spec = write(tmp_path, "nest.json", FLAG3)
    code, report = run_main("radical", "--input", spec, "--cases", str(cases))
    assert code == 0
    assert report["inputs"]["cases"] == cases
    assert len(report["results"]["exclusion_witnesses"]) == wanted
    verdicts = {v["property"]: v for v in report["verdicts"]}
    assert verdicts["exclusion-witness-count"]["pass"] is True
    assert verdicts["exclusion-witness-count"]["cases"] == 1
    assert ("witness-kills-x" in verdicts) == (wanted > 0)
    if wanted:
        assert verdicts["witness-kills-x"]["cases"] == wanted


def test_reflexivity_finite_field(tmp_path):
    doc = {
        "field": {"p": 2},
        "dim": 3,
        "chain": [[["1", "0", "0"]], [["1", "0", "0"], ["0", "1", "0"]]],
    }
    proc = run_cli("reflexivity", "--input", write(tmp_path, "nest.json", doc))
    assert proc.returncode == 0
    report = load_report(proc)
    assert all(v["pass"] for v in report["verdicts"])
    names = {v["property"] for v in report["verdicts"]}
    assert "chain-recovered-from-algebra" in names


def test_reflexivity_rationals_needs_subspace(tmp_path):
    proc = run_cli("reflexivity", "--input", write(tmp_path, "nest.json", FLAG3))
    assert proc.returncode == 2
    report = load_report(proc)
    assert "witness" in report["error"]["message"]

    sub = {"subspace": [["0", "1", "0"]]}
    proc = run_cli(
        "reflexivity",
        "--input", write(tmp_path, "nest.json", FLAG3),
        "--matrix", write(tmp_path, "sub.json", sub),
    )
    assert proc.returncode == 0
    report = load_report(proc)
    assert all(v["pass"] for v in report["verdicts"])
    assert "witness" in report["results"]


def test_reflexivity_checks_enumeration_bound_first(tmp_path):
    doc = {"field": {"p": 101}, "dim": 3, "chain": [[[1, 0, 0]]]}
    proc = run_cli("reflexivity", "--input", write(tmp_path, "nest.json", doc), timeout=30)
    assert proc.returncode == 2
    assert "enumeration bound" in load_report(proc)["error"]["message"]


def test_reflexivity_rejects_non_list_subspace(tmp_path):
    proc = run_cli(
        "reflexivity",
        "--input", write(tmp_path, "nest.json", FLAG3),
        "--matrix", write(tmp_path, "sub.json", {"subspace": 5}),
    )
    assert proc.returncode == 2
    assert load_report(proc)["error"]["path"] == "matrix"


@pytest.mark.parametrize("scalar", [True, "1/0"])
def test_check_rejects_boolean_scalar(tmp_path, scalar):
    doc = dict(FLAG3, chain=[[[scalar, "0", "0"]]])
    proc = run_cli("check", "--input", write(tmp_path, "nest.json", doc))
    assert proc.returncode == 2
    assert load_report(proc)["error"]["path"] == "input.chain[0][0][0]"


def test_check_rejects_exponent_scalar_fast(tmp_path):
    # Fraction("1e9999999") alone takes seconds; the grammar n or n/d refuses it at once
    doc = dict(FLAG3, chain=[[["1e9999999", "0", "0"]]])
    proc = run_cli("check", "--input", write(tmp_path, "nest.json", doc), timeout=2)
    assert proc.returncode == 2
    assert load_report(proc)["error"]["path"] == "input.chain[0][0][0]"
    # a decimal is outside the grammar too
    decimal = dict(FLAG3, chain=[[["1.5", "0", "0"]]])
    code, report = run_main("check", "--input", write(tmp_path, "dec.json", decimal))
    assert code == 2 and report["error"]["path"] == "input.chain[0][0][0]"
    doc = dict(FLAG3, chain=[[["3/4", "-5/7", "+2"]]])
    code, report = run_main("check", "--input", write(tmp_path, "signed.json", doc))
    assert code == 0
    nest, _ = nest_from_json(doc)
    assert nest.chain[1].contains([Fraction(3, 4), Fraction(-5, 7), 2])


def test_format_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_check_large_prime_modulus(tmp_path):
    p = 10**18 + 3
    doc = {"field": {"p": p}, "dim": 2, "chain": [[[1, 0]]]}
    proc = run_cli("check", "--input", write(tmp_path, "big.json", doc), timeout=30)
    assert proc.returncode == 0
    assert load_report(proc)["results"]["field"] == {"p": p}
    doc["field"] = {"p": 561}
    proc = run_cli("check", "--input", write(tmp_path, "carmichael.json", doc), timeout=30)
    assert proc.returncode == 2
    assert load_report(proc)["error"]["path"] == "input.field.p"


def test_ordsum(tmp_path):
    pair = {
        "first": {"field": "Q", "dim": 2, "chain": [[["1", "0"]]]},
        "second": {"field": "Q", "dim": 2, "chain": [[["1", "0"]]]},
    }
    op = {
        "matrix": [
            ["1", "1", "0", "0"],
            ["0", "1", "0", "0"],
            ["0", "0", "1", "1"],
            ["0", "0", "0", "1"],
        ]
    }
    proc = run_cli(
        "ordsum",
        "--input", write(tmp_path, "pair.json", pair),
        "--matrix", write(tmp_path, "op.json", op),
    )
    assert proc.returncode == 0
    report = load_report(proc)
    assert report["results"]["atoms"] == [1, 1, 1, 1]
    assert all(v["pass"] for v in report["verdicts"])


GF2_LINE = {"field": {"p": 2}, "dim": 2, "chain": [[["1", "0"]]]}
GF2_OP = [["0", "1", "0", "1"], ["0", "0", "1", "0"], ["0", "0", "0", "1"], ["0", "0", "0", "0"]]


def test_ordsum_over_gf2_checks_the_radical_rule(tmp_path):
    code, report = run_main(
        "ordsum",
        "--input", write(tmp_path, "pair.json", {"first": GF2_LINE, "second": GF2_LINE}),
        "--matrix", write(tmp_path, "op.json", {"matrix": GF2_OP}),
    )
    assert code == 0
    assert report["results"]["analysis"]["radical"] == {"predicted": True, "direct": True}
    verdicts = {v["property"]: v["pass"] for v in report["verdicts"]}
    assert verdicts["radical-rule-matches"] is True
    assert all(verdicts.values())


def test_reflexivity_rejects_chain_member_subspace(tmp_path):
    # a chain member, the zero member included, has no witness: bad input
    # at the subspace's path, not an internal error
    nest = write(tmp_path, "nest.json", FLAG3)
    for vectors in ([], [["1", "0", "0"]], [["0", "1", "0"], ["2", "0", "0"]]):
        code, report = run_main("reflexivity", "--input", nest,
                                "--matrix", write(tmp_path, "sub.json", {"subspace": vectors}))
        assert code == 2
        assert report["error"]["path"] == "matrix.subspace"
        assert "member of the chain" in report["error"]["message"]


def test_ordsum_rejects_mixed_fields(tmp_path):
    pair = {"first": {"field": "Q", "dim": 2, "chain": []}, "second": GF2_LINE}
    code, report = run_main("ordsum", "--input", write(tmp_path, "pair.json", pair))
    assert code == 2
    assert report["error"]["path"] == "input.second.field"
    assert "GF(2)" in report["error"]["message"] and "QQ" in report["error"]["message"]


def test_ordsum_rejects_array_matrix(tmp_path):
    pair = {
        "first": {"field": "Q", "dim": 2, "chain": []},
        "second": {"field": "Q", "dim": 2, "chain": []},
    }
    proc = run_cli(
        "ordsum",
        "--input", write(tmp_path, "pair.json", pair),
        "--matrix", write(tmp_path, "op.json", [["0"] * 4 for _ in range(4)]),
    )
    assert proc.returncode == 2
    assert load_report(proc)["error"]["path"] == "matrix"


def test_null_matrix_payload_is_bad_input(tmp_path):
    # a --matrix file holding JSON null is a payload, not a missing flag
    null = write(tmp_path, "null.json", None)
    pair = {"first": GF2_LINE, "second": GF2_LINE}
    for command, doc in (("reflexivity", GF2_LINE), ("ordsum", pair)):
        code, report = run_main(command, "--input", write(tmp_path, "in.json", doc),
                                "--matrix", null)
        assert code == 2
        assert report["error"]["path"] == "matrix"


@pytest.mark.parametrize(
    "argv, path, message",
    [
        (("check", "--input", "null.json"), "input", "expected an object"),
        (("ordsum",), "input", "this command needs --input FILE"),
        (("decompose", "--input", "line.json", "--matrix", "null.json"), "matrix",
         "expected a JSON object"),
    ],
    ids=["check-null-input", "ordsum-no-input", "decompose-null-matrix"],
)
def test_payload_faults_are_not_missing_flags(tmp_path, argv, path, message):
    # a flag is missing only when its key is absent; a present payload,
    # JSON null included, is reported by its decoder
    files = {"null.json": write(tmp_path, "null.json", None),
             "line.json": write(tmp_path, "line.json", GF2_LINE)}
    code, report = run_main(*(files.get(a, a) for a in argv))
    assert code == 2
    assert report["error"]["path"] == path
    assert message in report["error"]["message"]


def test_dual(tmp_path):
    proc = run_cli("dual", "--input", write(tmp_path, "nest.json", FLAG3))
    assert proc.returncode == 0
    report = load_report(proc)
    assert all(v["pass"] for v in report["verdicts"])
    assert report["results"]["dual"]["dim"] == 3


def test_c00_witness(tmp_path):
    proc = run_cli("c00", "--name", "c00-omega-star")
    assert proc.returncode == 0
    report = load_report(proc)
    chain = report["results"]["c00-omega-star"]
    assert chain["dual_complete"] is False
    assert chain["witness"]["tail_value"] == "1"
    assert all(v["pass"] for v in report["verdicts"])


def test_c00_unknown_name():
    proc = run_cli("c00", "--name", "c00-nope")
    assert proc.returncode == 2
    report = load_report(proc)
    assert "c00-omega" in report["error"]["message"]


def test_verify_suite_runs():
    proc = run_cli("verify", "lattice", "--cases", "5", "--max-dim", "3")
    assert proc.returncode == 0
    report = load_report(proc)
    assert report["results"]["failures"] == 0
    assert all(v["suite"] == "lattice" for v in report["verdicts"])


def test_verify_unknown_suite():
    proc = run_cli("verify", "nope")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_reports_are_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        proc = run_cli(
            "verify", "lattice",
            "--seed", "7", "--cases", "10", "--max-dim", "3",
            "--output", str(out),
        )
        assert proc.returncode == 0
        assert proc.stdout == ""
    assert out1.read_bytes() == out2.read_bytes()


def test_parser_is_built_once_and_reused(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    spec = write(tmp_path, "nest.json", FLAG3)
    with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
        cli.main(["alg-basis", "--no-such-flag"])
    code, report = run_main("alg-basis", "--input", spec)
    fresh = run_cli("alg-basis", "--input", spec)
    assert code == fresh.returncode == 0
    assert report == load_report(fresh)


def test_output_flag_writes_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(
        "check",
        "--input", write(tmp_path, "nest.json", FLAG3),
        "--output", str(out),
    )
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["command"] == "check"


def test_report_writer_matches_json_dumps(tmp_path, monkeypatch, capsys):
    # every report kind, error reports among them, then documents with
    # empty and nested containers, tuples and text that is not ASCII
    docs = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda doc, output: docs.append(doc) or emit(doc, output))
    spec = write(tmp_path, "nest.json", FLAG3)
    gf2 = write(tmp_path, "gf2.json", {"field": {"p": 2}, "dim": 3, "chain": [[[1, 1, 0]]]})
    upper = [["1", "2", "0"], ["0", "1/2", "0"], ["0", "0", "0"]]
    rank = write(tmp_path, "rank.json", {"matrix": upper})
    sub = write(tmp_path, "sub.json", {"subspace": [["1", "1", "0"]]})
    approx = write(tmp_path, "approx.json", {"matrix": upper, "vectors": [["1", "0", "1"]]})
    outside = write(tmp_path, "outside.json", {"matrix": [["0", "0", "0"], ["1", "0", "0"], ["0", "0", "0"]]})
    pair = write(tmp_path, "pair.json", {"first": FLAG3, "second": FLAG3})
    op = write(tmp_path, "op.json", {"matrix": [[str(int(i == j)) for j in range(6)] for i in range(6)]})
    incomparable = write(tmp_path, "bad.json", {"field": "Q", "dim": 2, "chain": [[["1", "0"]], [["0", "1"]]]})
    requests = [
        ["check", "--input", spec], ["alg-basis", "--input", spec], ["dual", "--input", spec],
        ["radical", "--input", spec, "--cases", "3"], ["radical", "--input", gf2, "--cases", "0"],
        ["decompose", "--input", spec, "--matrix", rank],
        ["decompose", "--input", spec, "--matrix", sub],
        ["decompose", "--input", spec, "--matrix", approx],
        ["reflexivity", "--input", gf2], ["reflexivity", "--input", spec, "--matrix", sub],
        ["ordsum", "--input", pair], ["ordsum", "--input", pair, "--matrix", op],
        ["c00"], ["verify", "dual", "--cases", "2"],
        ["decompose", "--input", spec, "--matrix", outside], ["check", "--input", incomparable],
        ["check", "--input", str(tmp_path / "missing.json")], ["c00", "--name", "nope"],
    ]
    for argv in requests:
        cli.main(argv)
        assert capsys.readouterr().out == json.dumps(docs[-1], indent=2) + "\n", argv
    assert {d["error"]["type"] for d in docs if "error" in d} == {"membership", "incomparable", "input"}
    for doc in (
        {"command": "x", "a": [], "b": {}, "c": [[], {}, [[]], ()], "d": {"e": {}, "f": [{}]}},
        {"s": "na\u00efve \u2014 \"q\"\n\t\\", "n": [None, True, False, 0, -12, 10**30, "1/2"]},
        {"rows": ((1, 2), ["3", "-4/5"], [1, "1"], [True, 1], [[1], 2])},
    ):
        cli._emit(doc, None)
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


def test_closed_stdout_keeps_the_report_exit_code():
    # the reader has closed the pipe before the report is written: no
    # traceback, and the exit code is the report's own
    for argv, code in ((["verify", "dual", "--cases", "2"], 0),
                       (["verify", "dual", "--cases", "-1"], 2)):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "nestalg", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (code, "")


def test_unwritable_output_is_bad_input(tmp_path, monkeypatch):
    target = tmp_path / "missing" / "r.json"
    proc = run_cli("verify", "dual", "--cases", "2", "--output", str(target))
    assert (proc.returncode, proc.stderr) == (2, "")
    error = load_report(proc)["error"]
    assert (error["type"], error["path"]) == ("input", "output")
    assert not target.parent.exists()

    # rejected before the command's work
    def no_work(*args, **kwargs):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(verify, "run_suite", no_work)
    code, report = run_main("verify", "dual", "--output", str(target))
    assert (code, report["error"]["path"]) == (2, "output")


@pytest.mark.parametrize("flag, name", [("--cases", "cases"), ("--max-dim", "max_dim")])
def test_negative_counts_are_bad_input(flag, name):
    proc = run_cli("verify", "lattice", flag, "-1")
    assert proc.returncode == 2
    error = load_report(proc)["error"]
    assert (error["type"], error["path"]) == ("input", name)
    code, report = run_main("verify", "lattice", flag, "0")
    assert code == 0 and report["results"]["failures"] == 0


RANK_OP = [["0", "1", "1"], ["0", "0", "1"], ["0", "0", "0"]]


def test_failing_verdict_carries_witness(tmp_path, monkeypatch):
    real = cli.rank_decompose
    monkeypatch.setattr(cli, "rank_decompose", lambda nest, t: real(nest, t)[:-1])
    code, report = run_main(
        "decompose",
        "--input", write(tmp_path, "nest.json", FLAG3),
        "--matrix", write(tmp_path, "op.json", {"matrix": RANK_OP}),
    )
    assert code == 1
    failing = [v for v in report["verdicts"] if not v["pass"]]
    assert {v["property"] for v in failing} == {"summands-count-rank", "summands-sum-exactly"}
    for v in failing:
        assert v["witness"]["t"] == RANK_OP
        assert v["witness"]["nest"]["dim"] == 3


def test_gf2_radical_verdict_is_computed(tmp_path, monkeypatch):
    real = radical.radical_basis_oracle

    def dropping(alg):
        rad = real(alg)
        return type(rad)(rad.nest, rad.kind, rad.basis[1:])

    monkeypatch.setattr(radical, "radical_basis_oracle", dropping)
    doc = {"field": {"p": 2}, "dim": 3, "chain": [[["1", "0", "0"]]]}
    nest, _ = nest_from_json(doc)
    assert radical.radical_report(nest).equal is False
    code, report = run_main("radical", "--input", write(tmp_path, "nest.json", doc))
    assert code == 1
    failing = [v for v in report["verdicts"] if not v["pass"]]
    assert [v["property"] for v in failing] == ["radical-matches-ideal"]
    witness = failing[0]["witness"]
    assert witness["nest"]["field"] == {"p": 2}
    assert witness["nest"]["dim"] == 3
    # the operator the tampered radical lost, named as missing from it
    assert witness["operator"] == matrix_to_json(real(alg_basis(nest)).basis[0])
    assert witness["missing_from"] == "radical"


def checker_names(check, *objects):
    ck = verify._Check()
    check(ck, *objects, None)
    return list(ck.results)


def test_cli_property_names_are_the_suites(tmp_path):
    nest, _ = nest_from_json(FLAG3)
    spec = write(tmp_path, "nest.json", FLAG3)
    t = Matrix(QQ, RANK_OP)
    _, report = run_main("decompose", "--input", spec,
                         "--matrix", write(tmp_path, "op.json", {"matrix": RANK_OP}))
    names = checker_names(verify.check_rank_decomposition, nest, t, rank_decompose(nest, t))
    assert [v["property"] for v in report["verdicts"]] == names

    rows = [["1", "0", "0"], ["0", "1", "0"]]
    m = span_of([[1, 0, 0], [0, 1, 0]], QQ, 3)
    _, report = run_main("decompose", "--input", spec,
                         "--matrix", write(tmp_path, "sub.json", {"subspace": rows}))
    names = checker_names(verify.check_idempotent, nest, m, *idempotent_onto(nest, m))
    assert [v["property"] for v in report["verdicts"]] == names

    _, report = run_main("dual", "--input", spec)
    assert [v["property"] for v in report["verdicts"]] == checker_names(
        verify.check_dual, nest, nest.dual())

    _, report = run_main("alg-basis", "--input", spec)
    assert [v["property"] for v in report["verdicts"]] == checker_names(
        verify.check_alg_basis, nest, alg_basis(nest), strict_ideal_basis(nest))

    q_line = {"field": "Q", "dim": 2, "chain": [[["1", "0"]]]}
    q_op = [["1", "1", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "1"], ["0", "0", "0", "1"]]
    for field, line, op in ((QQ, q_line, q_op), (GF2, GF2_LINE, GF2_OP)):
        first, _ = nest_from_json(line)
        pair = {"first": line, "second": line}
        _, report = run_main("ordsum", "--input", write(tmp_path, "pair.json", pair),
                             "--matrix", write(tmp_path, "op4.json", {"matrix": op}))
        [rep] = ordsum_analyze(first, first, [Matrix(field, op)])
        names = (checker_names(verify.check_ordinal_sum, first, first, ordinal_sum(first, first))
                 + checker_names(verify.check_ordsum_analysis, rep))
        assert [v["property"] for v in report["verdicts"]] == names
        assert "radical-rule-matches" in names

    suites = {v["property"] for name in ("decompose", "dual", "ordsum")
              for v in verify.run_suite(name, seed=1, cases=2, max_dim=3)}
    assert set(names) <= suites


def first_escape_reference(alg):
    """The closure witness by one `a @ b` per pair in row-major order: the
    reference for the batched products of check_alg_basis."""
    pairs = itertools.product(enumerate(alg.basis), repeat=2)
    return next(([i, j] for (i, a), (j, b) in pairs if not alg.contains(a @ b)), None)


def test_closed_under_product_is_computed():
    # a tampered basis of the right dimension, not closed: E11 (E12 + E21) = E12
    for field, n in ((QQ, 2), (GF2, 2), (GF2, 3)):
        nest = flag_nest(field, n)
        unit = {(i, j): Matrix(field, [[int((r, c) == (i, j)) for c in range(n)]
                                       for r in range(n)]) for i in range(n) for j in range(n)}
        good = alg_basis(nest)
        tampered = AlgebraBasis(nest, FULL, tuple(
            unit[0, 1] + unit[1, 0] if b == unit[0, 1] else b for b in good.basis))
        assert tampered.dim == good.dim
        ck = verify._Check()
        verify.check_alg_basis(ck, nest, tampered, strict_ideal_basis(nest), None)
        closed = next(v for v in ck.verdicts() if v["property"] == "closed-under-product")
        assert not closed["pass"]
        i, j = closed["witness"]["product"]
        assert not tampered.contains(tampered.basis[i] @ tampered.basis[j])
        assert (i, j) == (0, 1)
        ck = verify._Check()
        verify.check_alg_basis(ck, nest, good, strict_ideal_basis(nest), None)
        assert all(v["pass"] for v in ck.verdicts())

    # tampered bases of a random flag of Q^3 and of GF(2)^3: one entry
    # perturbed, or one operator swapped for a non-member; the batched
    # closure check fails with the pair a per-pair scan finds first
    rng = random.Random(5)
    escapes = {False: 0, True: 0}
    swaps = 0
    for field in (QQ, GF2):
        nest = random_nest(field, 3, rng, members=2)
        good = alg_basis(nest)
        outside = next(t for t in iter(lambda: random_matrix(field, 3, 3, rng), None)
                       if not in_alg(nest, t))
        swaps += good.dim
        for k in range(good.dim):
            r, c = rng.randrange(3), rng.randrange(3)
            rows = [list(row) for row in good.basis[k].entries]
            rows[r][c] = field.add(rows[r][c], field.one())
            perturbed = Matrix(field, rows)
            for swap in (perturbed, outside):
                tampered = AlgebraBasis(nest, FULL, good.basis[:k] + (swap,) + good.basis[k + 1:])
                ck = verify._Check()
                verify.check_alg_basis(ck, nest, tampered, strict_ideal_basis(nest), None)
                closed = next(v for v in ck.verdicts() if v["property"] == "closed-under-product")
                want = first_escape_reference(tampered)
                assert closed["pass"] == (want is None)
                if want is not None:
                    assert closed["witness"]["product"] == want
                    escapes[swap is outside] += 1
    # every swap for a non-member fails, and so do most perturbations
    assert escapes[True] == swaps and 2 * escapes[False] > swaps


def test_basis_not_in_rref_spans_the_algebra():
    # E11 + E12, E11, E22 span the algebra of the flag of Q^2 without being
    # in RREF: membership and closure go through one elimination of the span
    nest = flag_nest(QQ, 2)
    e11, e12, e22 = (Matrix(QQ, m) for m in ([[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 1]]))
    basis = AlgebraBasis(nest, FULL, (e11 + e12, e11, e22))
    assert basis.contains(e12)
    assert basis.span == alg_basis(nest).span
    ck = verify._Check()
    verify.check_alg_basis(ck, nest, basis, strict_ideal_basis(nest), None)
    assert all(v["pass"] for v in ck.verdicts())


def test_dependent_basis_of_the_right_size_fails_the_dimension_verdict():
    # three operators spanning two of the three dimensions of the algebra of
    # a flag of F^2: a repeated operator, a zero operator, and a pair that is
    # not closed ((E11 + E12) E22 = E12)
    for field in (QQ, GF2):
        nest = flag_nest(field, 2)
        e11, e12, e22 = (Matrix(field, m) for m in ([[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 1]]))
        zero = Matrix.zeros(field, 2, 2)
        strict = strict_ideal_basis(nest)
        for ops, closure in (((e11, e12, e11), None), ((e11, e12, zero), None),
                             ((e11 + e12, e22, e22), [0, 1])):
            alg = AlgebraBasis(nest, FULL, ops)
            ck = verify._Check()
            verify.check_alg_basis(ck, nest, alg, strict, None)
            passes = {v["property"]: v for v in ck.verdicts()}
            assert not passes["algebra-dimension"]["pass"]
            assert passes["basis-members-in-algebra"]["pass"]
            assert passes["closed-under-product"]["pass"] == (closure is None)
            assert passes["closed-under-product"].get("witness", {}).get("product") == closure
            assert first_escape_reference(alg) == closure
        # the zero operator alone has the size of the strict ideal, span{E12}
        ck = verify._Check()
        verify.check_alg_basis(ck, nest, alg_basis(nest), AlgebraBasis(nest, STRICT, (zero,)), None)
        passes = {v["property"]: v["pass"] for v in ck.verdicts()}
        assert not passes["strict-ideal-dimension"] and passes["closed-under-product"]


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=repr)
def test_alg_basis_verdicts_run_no_elimination(monkeypatch, field):
    # the library's bases pass on their dimension and membership facts alone
    calls = []
    for module in (matrices, subspaces, algebra, radical, verify):
        if hasattr(module, "echelon"):
            real = getattr(module, "echelon")
            monkeypatch.setattr(module, "echelon", lambda *a, real=real: calls.append(a) or real(*a))
    rng = random.Random(4)
    for nest in (flag_nest(field, 3), random_nest(field, 4, rng), random_nest(field, 3, rng, members=1)):
        alg, strict = alg_basis(nest), strict_ideal_basis(nest)
        calls.clear()
        ck = verify._Check()
        verify.check_alg_basis(ck, nest, alg, strict, None)
        assert all(v["pass"] for v in ck.verdicts())
        assert calls == []


def membership_verdicts(nest, alg, strict):
    ck = verify._Check()
    verify.check_alg_basis(ck, nest, alg, strict, None)
    passes = {v["property"]: v["pass"] for v in ck.verdicts()}
    return passes["basis-members-in-algebra"], passes["strict-members-shift"]


def test_membership_verdicts_are_computed():
    nest = flag_nest(QQ, 3)
    alg, strict = alg_basis(nest), strict_ideal_basis(nest)
    lower = Matrix(QQ, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    ident = Matrix.identity(QQ, 3)
    assert membership_verdicts(nest, alg, strict) == (True, True)
    swapped = AlgebraBasis(nest, FULL, alg.basis[:-1] + (lower,))
    assert membership_verdicts(nest, swapped, strict) == (False, True)
    swapped = AlgebraBasis(nest, STRICT, (ident,) + strict.basis[1:])
    assert membership_verdicts(nest, alg, swapped) == (True, False)

    # on seeded random nests, each verdict is the per-member test of its basis
    rng = random.Random(11)
    outcomes = set()
    for field in (QQ, GF2):
        for _ in range(6):
            nest = random_nest(field, 3, rng)
            alg, strict = alg_basis(nest), strict_ideal_basis(nest)
            for _ in range(4):
                swap = rng.choice([random_matrix(field, 3, 3, rng), random_span_element(alg, rng),
                                   random_span_element(strict, rng)])
                k, m = rng.randrange(alg.dim), rng.randrange(max(strict.dim, 1))
                tampered_alg = AlgebraBasis(nest, FULL, alg.basis[:k] + (swap,) + alg.basis[k + 1:])
                tampered_strict = AlgebraBasis(nest, STRICT, strict.basis[:m] + (swap,)
                                               + strict.basis[m + 1:])
                want = (all(in_alg(nest, b) for b in tampered_alg.basis),
                        all(in_strict_ideal(nest, b) for b in tampered_strict.basis))
                assert membership_verdicts(nest, tampered_alg, tampered_strict) == want
                outcomes.add(want)
    assert outcomes == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("spec", ["trivial-q20", "random-q10"])
def test_alg_basis_scales(tmp_path, spec):
    # about 0.5 s each on a 2-vCPU host, and 10 to 30 s with a closure check
    # of d^2 residuals; the timeout leaves room for a slow host
    doc = ({"field": "Q", "dim": 20, "chain": []} if spec == "trivial-q20"
           else nest_to_json(random_nest(QQ, 10, random.Random(3))))
    proc = run_cli("alg-basis", "--input", write(tmp_path, "nest.json", doc), timeout=10)
    assert proc.returncode == 0
    assert all(v["pass"] for v in load_report(proc)["verdicts"])


def test_alg_basis_reports_are_pinned(tmp_path):
    # `verify all` never calls check_alg_basis, so these pin its report bytes
    specs = {
        "0391508075e87052a8d1b26d56d156df0cb7a7ca8b0228a0446eea00de7019df": flag_nest(QQ, 4),
        "1f937039a804f07fe25081be734271159bfa49ec7a1e5baf236462019f4e5bab":
            random_nest(QQ, 6, random.Random(3)),
        "5718abb13e4270f9589393bc508104a5d1098c5c07a7e673ef23cdc17d37b423":
            random_nest(GF2, 4, random.Random(3)),
    }
    for digest, nest in specs.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["alg-basis", "--input", write(tmp_path, "nest.json", nest_to_json(nest))])
        assert code == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_radical_and_decompose_reports_are_pinned(tmp_path):
    # `verify all` never prints exclusion witnesses or membership errors
    q5 = random_nest(QQ, 5, random.Random(3))
    t = random_span_element(alg_basis(q5), random.Random(3), nonzero=True)
    q4 = {"field": "Q", "dim": 4,
          "chain": [[["1", "1", "0", "0"]], [["1", "1", "0", "0"], ["0", "0", "1", "2"]]]}
    e43 = [["0"] * 4, ["0"] * 4, ["0"] * 4, ["0", "0", "1", "0"]]  # keeps member 1, not 2
    runs = {
        "238b48171e82bb0c3908294357e36ec6ab42cb150df913d856f98010df436bad": (0, (
            "radical", "--input",
            write(tmp_path, "q6.json", nest_to_json(random_nest(QQ, 6, random.Random(3)))))),
        "93170b8b1b0c405524832cfa9c505cb6f96be60c24c8190ff8636b0a13e2b5b2": (0, (
            "decompose", "--input", write(tmp_path, "q5.json", nest_to_json(q5)),
            "--matrix", write(tmp_path, "t.json", {"matrix": matrix_to_json(t)}))),
        "2a0a7888b138edeae1b4a0668daafd8ea5aa256c9d7ac75e27cc9a626f61e5de": (2, (
            "decompose", "--input", write(tmp_path, "q4.json", q4),
            "--matrix", write(tmp_path, "e43.json", {"matrix": e43}))),
    }
    for digest, (want, argv) in runs.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        assert code == want
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_verify_report_is_pinned():
    proc = run_cli("verify", "all", "--seed", "7", "--cases", "5", "--max-dim", "3")
    assert proc.returncode == 0
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "5f7ddddf0bf247f8e8ee35bc4184ebe6804d14a75883574bc7dca280453621c9"


JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                              max_size=3),
    max_leaves=6,
)


def maybe_junk(draw, doc):
    """Some documents get one top-level value replaced by junk."""
    if draw(st.sampled_from([False, False, True])):
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JUNK)
    return doc


def entries(field):
    return st.integers(0, 1) if field != "Q" else st.sampled_from(["0", "1", "-1", "1/2"])


@st.composite
def nest_specs(draw, field, dim):
    """Members are prefixes of one list of vectors, so they nest."""
    vectors = draw(st.lists(st.lists(entries(field), min_size=dim, max_size=dim),
                            min_size=1, max_size=dim))
    cuts = draw(st.lists(st.integers(1, len(vectors)), max_size=dim))
    chain = [vectors[:k] for k in cuts]
    return maybe_junk(draw, {"field": field, "dim": dim, "chain": chain})


@st.composite
def payloads(draw, field, dim):
    vec = st.lists(entries(field), min_size=dim, max_size=dim)
    zero, one = ("0", "1") if field == "Q" else (0, 1)
    identity = [[one if i == j else zero for j in range(dim)] for i in range(dim)]
    matrix = st.just(identity) | st.lists(vec, min_size=dim, max_size=dim)
    keys = draw(st.sampled_from([("matrix",), ("subspace",), ("matrix", "vectors"), ("vectors",)]))
    doc = {k: draw(matrix if k == "matrix" else st.lists(vec, min_size=1, max_size=dim))
           for k in keys}
    return maybe_junk(draw, doc)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(
    command=st.sampled_from(["check", "alg-basis", "decompose", "radical", "dual",
                             "reflexivity", "ordsum", "c00"]),
    field=st.sampled_from(["Q", {"p": 2}, {"p": 3}]),
    dim=st.integers(1, 3),
    cases=st.integers(-1, 3),
    name=st.sampled_from(["all", "c00-omega-star", "c00-zigzag", "nope"]),
    data=st.data(),
)
def test_main_exit_contract_fuzz(tmp_path, command, field, dim, cases, name, data):
    doc = data.draw(nest_specs(field, dim))
    if command == "ordsum":
        doc = {"first": doc, "second": data.draw(nest_specs(field, 1))}
        dim += 1
    argv = [command, "--input", write(tmp_path, "in.json", doc), "--cases", str(cases)]
    payload = data.draw(payloads(field, dim) | st.none())
    if payload is not None:
        argv += ["--matrix", write(tmp_path, "m.json", payload)]
    if command == "c00":
        argv = ["c00", "--name", name]
    code, report = run_main(*argv)
    assert code in (0, 1, 2)
    assert ("error" in report) == (code == 2)
    if code != 2:
        assert (code == 0) == all(v["pass"] for v in report["verdicts"])


def test_bad_scalar_error_report_is_short(tmp_path):
    doc = dict(FLAG3, chain=[[["1", "x" * 100000, "0"]]])
    proc = run_cli("check", "--input", write(tmp_path, "long.json", doc), timeout=10)
    assert proc.returncode == 2
    assert len(proc.stdout.encode()) < 1024
    error = load_report(proc)["error"]
    assert error["type"] == "input" and error["path"] == "input.chain[0][0][1]"
    assert "(100000 chars)" in error["message"]


def test_import_leaves_c00_and_radical_for_first_use():
    # the core imports alone; the lazy names resolve to the modules' own objects
    code = (
        "import sys, nestalg\n"
        "assert not {'nestalg.c00', 'nestalg.radical'} & set(sys.modules)\n"
        "from nestalg import CATALOG, radical_report\n"
        "assert nestalg.c00.CATALOG is CATALOG\n"
        "assert nestalg.radical.radical_report is radical_report\n"
        "assert not hasattr(nestalg, 'no_such_name')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
