"""Self-tests of the benchmark: every independent check rejects a corrupted
result, the tracer patches and restores nestalg cleanly, and each workload
runs end to end at a small size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def na():
    return run.fresh_import()


def _plain(mats):
    return [[list(row) for row in m.entries] for m in mats]


@pytest.fixture(scope="module")
def flag_report(na):
    """A radical report on a seeded flag, as the radical-q check sees it."""
    parts = (2, 1, 2)
    s, s_inv = gen.random_flag(random.Random(3), 5)
    members = [na.subspaces.span_of(gen.columns(s, c), na.fields.QQ, 5) for c in gen.cuts(parts)]
    nest = na.nests.new_nest(na.fields.QQ, 5, members)
    rep = na.radical.radical_report(nest)
    data = {
        "alg_dim": rep.alg_dim,
        "nilpotency_index": rep.nilpotency_index,
        "equal": rep.equal,
        "strict_basis": _plain(rep.strict_basis.basis),
        "radical_basis": _plain(rep.radical_basis.basis),
    }
    return data, parts, s, s_inv, _plain(na.algebra.alg_basis(nest).basis)


def test_radical_check_accepts_the_real_report(flag_report):
    data, parts, s, s_inv, alg = flag_report
    assert checks.radical_problems(data, parts, s, checks.inverse(s), alg) == []


@pytest.mark.parametrize("corrupt", [
    "drop-strict", "drop-alg", "dependent", "not-strict", "not-in-algebra", "index", "unequal",
])
def test_radical_check_rejects_corruption(flag_report, corrupt):
    data, parts, s, s_inv, alg = flag_report
    data = dict(data, strict_basis=list(data["strict_basis"]))
    alg = list(alg)
    ident = [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
    if corrupt == "drop-strict":
        data["strict_basis"].pop()
    elif corrupt == "drop-alg":
        alg.pop(0)
    elif corrupt == "dependent":
        data["strict_basis"][-1] = data["strict_basis"][0]
    elif corrupt == "not-strict":
        data["strict_basis"][0] = ident
    elif corrupt == "not-in-algebra":
        lower = gen.conjugate(s, [[int(i == 4 and j == 0) for j in range(5)] for i in range(5)], s_inv)
        alg[0] = lower
    elif corrupt == "index":
        data["nilpotency_index"] += 1
    else:
        data["equal"] = False
    assert checks.radical_problems(data, parts, s, s_inv, alg)


def test_chain_counts_are_gaussian():
    assert [checks.chain_count(n) for n in range(1, 5)] == [1, 4, 36, 696]


def test_reflexivity_check_rejects_corruption(na):
    nests = list(na.nests.iter_nests(na.fields.GF2, 3))
    rows = []
    for nest in nests:
        chain = [(m.dim, m.basis.entries) for m in nest.chain]
        dims = [d for d, _ in chain]
        parts = tuple(b - a for a, b in zip(dims, dims[1:]))
        rows.append((chain, gen.atom_dims(parts)[0], checks.rank_one_count(dims), chain, chain))
    assert checks.reflexivity_problems({3: len(nests)}, rows) == []
    assert checks.reflexivity_problems({3: len(nests) - 1}, rows)
    chain, alg_dim, ones, lat, _ = rows[5]
    assert checks.reflexivity_problems({3: 36}, [(chain, alg_dim, ones, lat[:-1], lat)])
    assert checks.reflexivity_problems({3: 36}, [(chain, alg_dim, ones, lat, lat[1:])])
    assert checks.reflexivity_problems({3: 36}, [(chain, alg_dim, ones + 1, lat, lat)])


def test_rank_one_count_matches_enumeration(na):
    nest = na.nests.coordinate_nest(na.fields.GF2, (1, 2))
    assert len(na.algebra.all_rank_ones_in_alg(nest)) == checks.rank_one_count([0, 1, 3])


def test_decomposition_checks_reject_corruption():
    q = Fraction
    proj = [[q(1), q(1)], [q(0), q(0)]]  # idempotent onto span(e1)
    assert checks.idempotent_problems(proj, [[1, 0]]) == []
    assert checks.idempotent_problems([[q(2), q(2)], [q(0), q(0)]], [[1, 0]])  # P^2 != P
    assert checks.idempotent_problems(proj, [[0, 1]])  # wrong range
    t = [[q(1), q(2)], [q(0), q(3)]]
    summands = [[[q(1), q(2)], [q(0), q(0)]], [[q(0), q(0)], [q(0), q(3)]]]
    assert checks.rank_decompose_problems(summands, t) == []
    assert checks.rank_decompose_problems(summands[:1], t)  # dropped summand
    assert checks.rank_decompose_problems([t], t)  # rank-2 summand


def test_witness_and_dual_checks_reject_corruption():
    w = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]  # e1 (x) e1 over GF(2)
    sub = [[1, 1, 0]]
    assert checks.witness_problems(w, [1, 1, 0], [1, 0, 0], sub, 2) == []
    assert checks.witness_problems(w, [1, 1, 0], [1, 1, 0], sub, 2)  # image is not W x
    assert checks.witness_problems(w, [1, 0, 0], [1, 0, 0], sub, 2)  # x outside m
    orig = [[], [[1, 0]], [[1, 0], [0, 1]]]
    dual = [[], [[0, 1]], [[1, 0], [0, 1]]]
    assert checks.dual_problems(orig, dual, 2, 2) == []
    assert checks.dual_problems(orig, [[], [[1, 0]], [[1, 0], [0, 1]]], 2, 2)


def test_cli_checks_reject_corruption(na, tmp_path):
    w = workloads.CliMixed()
    w.setup(na, 1, tmp_path)
    results = {label: thunk() for label, thunk in w.ops if not label.startswith("fault-")}
    assert w.check(results) == []
    label = "idempotent-q-n3-111-0"
    doc = json.loads(results[label][1])
    proj = doc["results"]["projection"]
    doc["results"]["projection"] = [[str(2 * Fraction(x)) for x in row] for row in proj]
    bad = dict(results, **{label: (0, json.dumps(doc))})
    assert any(p.startswith(label) for p in w.check(bad))
    repeat = f"repeat-{workloads.REPEATED[0]}"
    bad = dict(results, **{repeat: (0, results[repeat][1] + " ")})
    assert any(p.startswith(repeat) for p in w.check(bad))
    bad = dict(results, **{"bad-incomparable": (2, json.dumps({"command": "check"}))})
    assert any(p.startswith("bad-incomparable") for p in w.check(bad))


def test_tracer_restores_every_patch(na):
    cli = __import__("nestalg.cli").cli
    before = {m: dict(vars(mod)) for m, mod in sys.modules.items() if m.startswith("nestalg.")}
    handlers = dict(cli.HANDLERS)
    matmul = na.matrices.Matrix.__matmul__
    t = tracer.Tracer()
    t.install()
    assert na.matrices.Matrix.__matmul__ is not matmul
    assert cli.alg_basis is not before["nestalg.algebra"]["alg_basis"]
    t.remove()
    assert na.matrices.Matrix.__matmul__ is matmul
    assert cli.HANDLERS == handlers
    for m, saved in before.items():
        assert {k: v for k, v in vars(sys.modules[m]).items() if k in saved} == saved


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(x) for x in tracer.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "run_s", "op_p50_ms",
                                                      "peak_rss_mb"}


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "cli-mixed", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def _smoke(monkeypatch, capsys, workload, trace):
    monkeypatch.setattr(workloads, "COORD_MAX_DIM", 3)
    monkeypatch.setattr(workloads, "RADICAL_SHAPES", [(2, 1, 2)])
    monkeypatch.setattr(workloads, "REFLEXIVITY_MAX_DIM", 3)
    monkeypatch.setattr(workloads, "CLI_COPIES", 1)
    monkeypatch.setattr(run, "SETUPS", 2)
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.1",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] is True
    return result


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_each_workload(monkeypatch, capsys, workload):
    result = _smoke(monkeypatch, capsys, workload, 0)
    assert set(result["metrics"]) == {"setup_s", "run_s", "op_p50_ms", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "cli-mixed":  # the known faults, once per round
        assert result["failed"] > 0 and result["failed"] % len(workloads.FAULT_INPUTS) == 0
    else:
        assert result["failed"] == 0


def test_smoke_traced_run_emits_every_layer_metric(monkeypatch, capsys):
    result = _smoke(monkeypatch, capsys, "cli-mixed", 1)
    assert list(result["metrics"]) == [name for name, _, _ in tracer.PER_LAYER]
    assert result["metrics"]["cli.main.self_s"]["value"] > 0
    header, cols = tracer.load_dump(run.OUT / "trace-cli-mixed-s5.bin")
    assert header["spans"] == len(cols["start"]) > 0
