"""JSON round trips and input validation errors."""

from fractions import Fraction

import pytest

from nestalg.algebra import alg_basis, rank_one
from nestalg.c00 import (
    TailFunctional,
    omega_nest,
    zigzag_report,
)
from nestalg.fields import GF2, GF3, QQ
from nestalg.matrices import Matrix
from nestalg.nests import flag_nest
from nestalg.radical import ordsum_analyze, radical_report
from nestalg.serialize import (
    SpecError,
    algebra_basis_to_json,
    field_from_json,
    field_to_json,
    matrix_from_json,
    matrix_to_json,
    nest_from_json,
    nest_to_json,
    ordsum_report_to_json,
    radical_report_to_json,
    rank_one_to_json,
    scalar_from_json,
    subspace_to_json,
    support_nest_to_json,
    tail_functional_to_json,
    vector_from_json,
    vector_to_json,
    zigzag_report_to_json,
)
from nestalg.subspaces import Functional, span_of

Q = Fraction


def test_field_round_trip():
    assert field_to_json(QQ) == "Q"
    assert field_to_json(GF3) == {"p": 3}
    assert field_from_json("Q") == QQ
    assert field_from_json({"p": 2}) == GF2


def test_field_errors():
    with pytest.raises(SpecError) as exc:
        field_from_json({"p": 4})
    assert "field.p" in str(exc.value)
    with pytest.raises(SpecError):
        field_from_json({"p": "2"})
    with pytest.raises(SpecError):
        field_from_json({"p": True})
    with pytest.raises(SpecError):
        field_from_json("R")


def test_scalar_round_trip():
    assert QQ.format_scalar(Q(5)) == "5"
    assert QQ.format_scalar(Q(-5, 7)) == "-5/7"
    assert GF3.format_scalar(2) == 2
    assert scalar_from_json(QQ, "-5/7", "x") == Q(-5, 7)
    assert scalar_from_json(QQ, 3, "x") == Q(3)
    assert scalar_from_json(GF3, 5, "x") == 2
    with pytest.raises(SpecError) as exc:
        scalar_from_json(QQ, "one", "doc.value")
    assert str(exc.value).startswith("doc.value")
    with pytest.raises(SpecError):
        scalar_from_json(GF2, "1/2", "x")


def test_vector_round_trip():
    v = (Q(1, 2), Q(-3))
    doc = vector_to_json(QQ, v)
    assert doc == ["1/2", "-3"]
    assert vector_from_json(QQ, doc, 2, "v") == v
    with pytest.raises(SpecError) as exc:
        vector_from_json(QQ, doc, 3, "v")
    assert "expected 3 entries" in str(exc.value)
    with pytest.raises(SpecError):
        vector_from_json(QQ, "nope", 2, "v")


def test_matrix_round_trip():
    m = Matrix(QQ, ((Q(1), Q(1, 3)), (Q(0), Q(-2))))
    doc = matrix_to_json(m)
    assert matrix_from_json(QQ, doc, "m") == m
    gf = Matrix(GF3, ((1, 2), (0, 1)))
    assert matrix_from_json(GF3, matrix_to_json(gf), "m") == gf
    with pytest.raises(SpecError):
        matrix_from_json(QQ, [[1, 2], [3]], "m")
    with pytest.raises(SpecError):
        matrix_from_json(QQ, [], "m")
    with pytest.raises(SpecError):
        matrix_from_json(QQ, [[1]], "m", rows=2)


def test_subspace_round_trip():
    s = span_of([(Q(1), Q(2), Q(0)), (Q(0), Q(0), Q(1))], QQ, 3)
    doc = subspace_to_json(s)
    assert doc["ambient"] == 3


def test_nest_round_trip():
    nest = flag_nest(QQ, 3)
    doc = nest_to_json(nest, name="flag")
    assert doc["name"] == "flag"
    assert doc["dim"] == 3
    back, name = nest_from_json(doc)
    assert back == nest
    assert name == "flag"
    gf = flag_nest(GF3, 2)
    back, name = nest_from_json(nest_to_json(gf))
    assert back == gf and name is None


def test_nest_errors_name_paths():
    with pytest.raises(SpecError) as exc:
        nest_from_json({"field": "Q", "dim": 2})
    assert "missing key 'chain'" in str(exc.value)
    with pytest.raises(SpecError) as exc:
        nest_from_json({"field": "Q", "dim": 0, "chain": []})
    assert "nest.dim" in str(exc.value)
    with pytest.raises(SpecError) as exc:
        nest_from_json({"field": "Q", "dim": True, "chain": [[["1"]]]})
    assert "nest.dim" in str(exc.value)
    with pytest.raises(SpecError) as exc:
        nest_from_json(
            {"field": "Q", "dim": 2, "chain": [[["1", "0", "0"]]]}, path="input"
        )
    assert str(exc.value).startswith("input.chain[0][0]")
    with pytest.raises(SpecError) as exc:
        nest_from_json({"field": "Q", "dim": 2, "chain": [], "name": 7})
    assert "nest.name" in str(exc.value)
    with pytest.raises(SpecError):
        nest_from_json("not an object")


def test_rank_one_shape():
    r = rank_one((Q(1), Q(0)), Functional(QQ, 2, (Q(1), Q(0))))
    doc = rank_one_to_json(r)
    assert set(doc) == {"x", "phi", "matrix", "idempotent"}
    assert doc["idempotent"] is True
    assert doc["x"] == ["1", "0"]


def test_algebra_basis_shape():
    doc = algebra_basis_to_json(alg_basis(flag_nest(QQ, 2)))
    assert doc["kind"] == "full"
    assert doc["dim"] == 3
    assert len(doc["basis"]) == 3


def test_radical_report_shape():
    doc = radical_report_to_json(radical_report(flag_nest(QQ, 3)))
    assert doc["alg_dim"] == 6
    assert doc["strict_dim"] == 3 and doc["radical_dim"] == 3
    assert doc["equal"] is True
    assert doc["nilpotency_index"] == 3
    assert doc["semisimple_quotient_dim"] == 3
    assert len(doc["strict_basis"]) == 3


def test_ordsum_report_shape():
    t = Matrix.identity(QQ, 4)
    [rep] = ordsum_analyze(flag_nest(QQ, 2), flag_nest(QQ, 2), [t])
    doc = ordsum_report_to_json(rep)
    assert set(doc["blocks"]) == {"a1", "b", "c", "a2"}
    assert doc["alg"] == {"predicted": True, "direct": True}
    assert doc["consistent"] is True
    assert doc["radical"] == {"predicted": False, "direct": False}
    [gf_rep] = ordsum_analyze(flag_nest(GF2, 1), flag_nest(GF2, 1), [Matrix.identity(GF2, 2)])
    gf_doc = ordsum_report_to_json(gf_rep)
    assert gf_doc["radical"] == {"predicted": False, "direct": False}
    assert gf_doc["consistent"] is True


def test_support_serializers():
    doc = support_nest_to_json(omega_nest())
    assert doc == {
        "order_type": "omega",
        "depth": 0,
        "well_ordered": True,
        "complete": True,
        "acc": False,
        "dcc": True,
    }
    phi = TailFunctional.make({2: Q(1, 2)}, 1)
    assert tail_functional_to_json(phi) == {
        "exceptional": {"2": "1/2"},
        "tail_value": "1",
    }


def test_zigzag_report_shape():
    doc = zigzag_report_to_json(zigzag_report())
    assert doc["order_type"] == "1+omega*+omega+1"
    assert doc["radical_equals_strict"] is True
    assert [c["name"] for c in doc["components"]] == [
        "dual-of-omega",
        "dual-of-omega-star",
    ]
