"""End-to-end runs of the command-line interface."""

import json
import subprocess
import sys

import pytest

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
    assert "summand-count-equals-rank" in names
    assert "sum-reconstructs-operator" in names


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
    assert report["results"]["report"]["oracle_used"] is False
    assert report["results"]["report"]["equal"] is True
    assert all(v["pass"] for v in report["verdicts"])


def test_radical_over_q_with_witnesses(tmp_path):
    proc = run_cli(
        "radical",
        "--input", write(tmp_path, "nest.json", FLAG3),
        "--cases", "3",
    )
    assert proc.returncode == 0
    report = load_report(proc)
    assert report["results"]["report"]["oracle_used"] is True
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
