"""End-to-end runs of the command-line interface."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nestalg import cli, radical, verify
from nestalg.algebra import FULL, AlgebraBasis, alg_basis, idempotent_onto, rank_decompose
from nestalg.fields import GF2, QQ
from nestalg.matrices import Matrix
from nestalg.nests import flag_nest, ordinal_sum
from nestalg.radical import ordsum_analyze, strict_ideal_basis
from nestalg.serialize import matrix_to_json, nest_from_json
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


def test_check_rejects_boolean_scalar(tmp_path):
    doc = dict(FLAG3, chain=[[[True, "0", "0"]]])
    proc = run_cli("check", "--input", write(tmp_path, "nest.json", doc))
    assert proc.returncode == 2
    assert load_report(proc)["error"]["path"] == "input.chain[0][0][0]"


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
    real = radical._trace_form_radical

    def dropping(alg):
        rad = real(alg)
        return type(rad)(rad.nest, rad.kind, rad.basis[1:])

    monkeypatch.setattr(radical, "_trace_form_radical", dropping)
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
