"""Vectors, functionals and rank-one parts on int rows.

`Vector` stores a vector as a one-row Matrix of ints over one denominator
and reads as its row of scalars only when something asks.  The decompose
requests, the radical's exclusion witnesses and the reflexivity witness
then run from the decoded spec to the written report with no Fraction,
and their JSON still equals what the Fraction references give.
"""

import json
import random
from fractions import Fraction

from test_algebra import idempotent_onto_reference, witness_search_reference
from test_integer_path import exclusion_witness_reference, fractional_nest

from nestalg import cli
from nestalg.algebra import idempotent_onto
from nestalg.fields import GF, GF2, GF3, QQ
from nestalg.matrices import Matrix, Vector
from nestalg.sampling import random_nest, random_subspace
from nestalg.serialize import matrix_from_json, nest_to_json, rank_one_to_json, subspace_to_json

# The fractional Q^5 spec and payloads of the CI's pinned reports.
Q5_FRAC = {"field": "Q", "dim": 5, "chain": [
    [["2", "-1/3", "0", "5", "1"]],
    [["2", "-1/3", "0", "5", "1"], ["0", "1/2", "3", "0", "-2/7"]],
]}
Q5_T = [["1", "-1", "2", "-1", "3"], ["2", "3", "2", "2", "-235/18"],
        ["1", "-3", "3", "1337/30", "-1355/6"], ["0", "3", "-2", "1397/120", "-451/8"],
        ["2", "-3", "-2", "2789/2520", "-5225/504"]]
Q5_SUBSPACE = [["1", "1/2", "0", "0", "1"], ["0", "0", "1", "-3", "0"]]
Q5_VECTORS = [["1", "0", "-1/2", "0", "2"], ["0", "3", "1", "1/4", "0"]]


def write(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, argv) -> tuple[int, dict]:
    out = tmp_path / "report.json"
    code = cli.main([*argv, "--output", str(out)])
    return code, json.loads(out.read_text())


def test_cli_requests_on_a_fractional_frame_build_no_fraction(tmp_path, monkeypatch):
    spec = write(tmp_path, "nest.json", Q5_FRAC)
    payloads = {
        "rank": {"matrix": Q5_T},
        "idempotent": {"subspace": Q5_SUBSPACE},
        "approximant": {"matrix": Q5_T, "vectors": Q5_VECTORS},
    }
    requests = [["decompose", "--input", spec, "--matrix", write(tmp_path, f"{k}.json", v)]
                for k, v in payloads.items()]
    requests += [["radical", "--input", spec],
                 ["reflexivity", "--input", spec, "--matrix", write(tmp_path, "m.json", payloads["idempotent"])]]
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if hasattr(Fraction, "_from_coprime_ints"):
        coprime = Fraction._from_coprime_ints
        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(lambda cls, n, d: built.append((n, d)) or coprime(n, d)))
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2) and built  # the counter sees them
    built.clear()
    reports = [run(tmp_path, argv) for argv in requests]
    assert built == []
    assert [code for code, _ in reports] == [0] * 5
    assert [r["results"].get("mode") for _, r in reports] == ["rank", "idempotent", "approximant", None, "witness"]
    assert len(reports[3][1]["results"]["exclusion_witnesses"]) == 5


def texts(field, values) -> list:
    """The JSON scalars of a row of field elements, one Fraction at a time."""
    return [field.format_scalar(a) for a in values]


def fraction_json(r) -> dict:
    """`rank_one_to_json` of a RankOneOp as the Fraction view writes it."""
    f = r.matrix.field
    return {
        "x": texts(f, r.x),
        "phi": texts(f, r.phi.coeffs),
        "matrix": [texts(f, row) for row in r.matrix.entries],
        "idempotent": r.phi(r.x) == f.one(),
    }


def sample_nests(seed):
    """Fractional Q^n nests with negative entries, n <= 6, and random nests
    of GF(2), GF(3) and GF(5)."""
    rng = random.Random(seed)
    nests = [fractional_nest(rng, n) for n in (2, 3, 4, 5, 6)]
    nests += [random_nest(field, rng.randint(2, 6), rng) for field in (GF2, GF3, GF(5)) for _ in range(3)]
    return rng, nests


def test_idempotent_parts_write_the_fraction_references_json():
    rng, nests = sample_nests(290)
    parts_seen = 0
    for nest in nests:
        f, n = nest.field, nest.ambient_dim
        for _ in range(3):
            m = random_subspace(f, n, rng, dim=rng.randint(1, n))
            _, parts = idempotent_onto(nest, m)
            _, want = idempotent_onto_reference(nest, m)
            assert [rank_one_to_json(r) for r in parts] == [fraction_json(r) for r in want]
            assert all(doc["idempotent"] for doc in map(rank_one_to_json, parts))
            parts_seen += len(parts)
    assert parts_seen > 50


def test_cli_witnesses_write_the_fraction_references_json(tmp_path):
    rng, nests = sample_nests(291)
    witnesses = moved = 0
    for i, nest in enumerate(nests):
        f, n = nest.field, nest.ambient_dim
        spec = write(tmp_path, f"nest{i}.json", nest_to_json(nest))
        code, report = run(tmp_path, ["radical", "--input", spec, "--seed", str(i)])
        assert code == 0
        for w in report["results"]["exclusion_witnesses"]:
            x, phi = exclusion_witness_reference(nest, matrix_from_json(f, w["t"], "t", n, n))
            assert (w["x"], w["phi"]) == (texts(f, x), texts(f, phi.coeffs))
            witnesses += 1
        m = random_subspace(f, n, rng, dim=rng.randint(1, n - 1))
        if m in nest.chain:
            continue
        payload = write(tmp_path, f"m{i}.json", {"subspace": subspace_to_json(m)["basis"]})
        code, report = run(tmp_path, ["reflexivity", "--input", spec, "--matrix", payload])
        assert code == 0
        r, x = witness_search_reference(nest, m)
        results = report["results"]
        assert results["witness"] == fraction_json(r)
        assert results["moved_vector"] == texts(f, x)
        assert results["image"] == texts(f, r.matrix.apply(x))
        moved += 1
    assert witnesses > 40 and moved > 5


def test_vectors_read_as_their_rows_of_scalars():
    v = Vector(QQ, ("1/2", 0, Fraction(-3, 4)))
    assert (v.ints, v.dens) == (((2, 0, -3),), (4,))
    assert v == (Fraction(1, 2), 0, Fraction(-3, 4)) and v == Vector(QQ, v) and len(v) == 3
    assert {v: 1}[(Fraction(1, 2), 0, Fraction(-3, 4))] == 1 and list(v) == list(v.entries[0])
    assert v != Matrix(QQ, [v]) and Vector(GF(5), (7, -1)) == (2, 4)
    assert (v - v).is_zero() and type(v.scale(2)) is Vector and v.scale(2) == (1, 0, Fraction(-3, 2))
