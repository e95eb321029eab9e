"""JSON encoding and validated decoding for the core types.

Rationals travel as strings ('3', '-5/7'), GF(p) scalars as plain ints in
[0, p); matrices are row-major nested arrays.  Matrix rows and chain
members decode straight into int rows (`matrices.int_row`) and matrices
encode from them (`Matrix.to_nested`), with no Fraction built.  Decoding
errors carry the JSON path of the offending value.
"""

from __future__ import annotations

from .algebra import AlgebraBasis, RankOneOp
from .c00 import SupportNest, TailFunctional, ZigzagReport
from .fields import QQ, Field
from .matrices import Matrix, Vector, int_row
from .nests import Nest, new_nest
from .radical import OrdinalSumReport, RadicalReport
from .subspaces import Subspace, span_of


class SpecError(ValueError):
    """Malformed input document; str(err) names the JSON path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def field_to_json(field: Field):
    return "Q" if field.is_rationals else {"p": field.p}


def field_from_json(obj, path: str = "field") -> Field:
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"p"}:
        p = obj["p"]
        if type(p) is not int:  # a JSON true decodes to a bool, which is an int
            raise SpecError(f"{path}.p", "modulus must be an integer")
        try:
            return Field(p)
        except ValueError as exc:
            raise SpecError(f"{path}.p", str(exc)) from None
    raise SpecError(path, "expected \"Q\" or {\"p\": <prime>}")


def scalar_from_json(field: Field, obj, path: str):
    try:
        return field.parse_scalar(obj)
    except ValueError as exc:
        raise SpecError(path, str(exc)) from None


def vector_from_json(field: Field, obj, length: int, path: str) -> Vector:
    ints, den = row_from_json(field, obj, length, path)
    return Vector._wrap(field, (ints,), (den,), length)


def row_from_json(field: Field, obj, length: int, path: str) -> tuple[tuple, int]:
    """The vector obj as one int row over its denominator (`int_row`); a
    bad scalar is reported at its own path, found by a second pass."""
    if not isinstance(obj, list):
        raise SpecError(path, "expected an array of scalars")
    if len(obj) != length:
        raise SpecError(path, f"expected {length} entries, got {len(obj)}")
    try:
        return int_row(field, obj)
    except (TypeError, ValueError, ZeroDivisionError):
        for i, x in enumerate(obj):
            scalar_from_json(field, x, f"{path}[{i}]")
        raise


def rows_from_json(field: Field, rows: list, length: int, path: str) -> list:
    """The int row of each vector of a JSON array (`row_from_json`), at path[i]."""
    return [row_from_json(field, v, length, f"{path}[{i}]")[0] for i, v in enumerate(rows)]


def vector_to_json(field: Field, v) -> list:
    """The JSON row of a vector (`Matrix.to_nested` of its `Vector`)."""
    return Vector(field, v).to_nested()[0]


def matrix_from_json(field: Field, obj, path: str, rows: int | None = None, cols: int | None = None) -> Matrix:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise SpecError(path, "expected an array of scalar rows")
    if rows is not None and len(obj) != rows:
        raise SpecError(path, f"expected {rows} rows, got {len(obj)}")
    width = cols
    if width is None:
        if not obj:
            raise SpecError(path, "empty matrix needs an explicit shape")
        width = len(obj[0])
    pairs = [row_from_json(field, v, width, f"{path}[{i}]") for i, v in enumerate(obj)]
    return Matrix._wrap(field, tuple([row for row, _ in pairs]), tuple([den for _, den in pairs]), width)


def matrix_to_json(m: Matrix) -> list:
    return m.to_nested()


def subspace_to_json(s: Subspace) -> dict:
    return {"ambient": s.ambient_dim, "basis": matrix_to_json(s.basis)}


def nest_to_json(nest: Nest, name: str | None = None) -> dict:
    doc = {
        "field": field_to_json(nest.field),
        "dim": nest.ambient_dim,
        "chain": [matrix_to_json(s.basis) for s in nest.chain],
    }
    if name is not None:
        doc["name"] = name
    return doc


def nest_from_json(obj, path: str = "") -> tuple[Nest, str | None]:
    field, dim, members, name = chain_from_json(obj, path)
    return new_nest(field, dim, members), name


def chain_from_json(obj, path: str = "") -> tuple[Field, int, list[Subspace], str | None]:
    """Decode a nest spec up to its members, in input order and before
    new_nest deduplicates them: (field, dim, members, name)."""
    prefix = path or "nest"
    if not isinstance(obj, dict):
        raise SpecError(prefix, "expected an object")
    for key in ("field", "dim", "chain"):
        if key not in obj:
            raise SpecError(prefix, f"missing key {key!r}")
    field = field_from_json(obj["field"], f"{prefix}.field")
    dim = obj["dim"]
    if type(dim) is not int or dim < 1:
        raise SpecError(f"{prefix}.dim", "expected a positive integer")
    chain_obj = obj["chain"]
    if not isinstance(chain_obj, list):
        raise SpecError(f"{prefix}.chain", "expected an array of members")
    members = []
    for i, vectors in enumerate(chain_obj):
        if not isinstance(vectors, list):
            raise SpecError(f"{prefix}.chain[{i}]", "expected an array of basis vectors")
        members.append(span_of(rows_from_json(field, vectors, dim, f"{prefix}.chain[{i}]"), field, dim))
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise SpecError(f"{prefix}.name", "expected a string")
    return field, dim, members, name


def rank_one_to_json(r: RankOneOp) -> dict:
    f = r.matrix.field
    return {
        "x": vector_to_json(f, r.x),
        "phi": vector_to_json(f, r.phi.coeffs),
        "matrix": matrix_to_json(r.matrix),
        "idempotent": r.is_idempotent,
    }


def algebra_basis_to_json(b: AlgebraBasis) -> dict:
    return {
        "kind": b.kind,
        "dim": b.dim,
        "basis": [matrix_to_json(m) for m in b.basis],
    }


def radical_report_to_json(r: RadicalReport) -> dict:
    return {
        "alg_dim": r.alg_dim,
        "strict_dim": r.strict_basis.dim,
        "radical_dim": r.radical_basis.dim,
        "equal": r.equal,
        "nilpotency_index": r.nilpotency_index,
        "semisimple_quotient_dim": r.semisimple_quotient_dim,
        "quotient_check": r.quotient_check,
        "strict_basis": [matrix_to_json(m) for m in r.strict_basis.basis],
        "radical_basis": [matrix_to_json(m) for m in r.radical_basis.basis],
    }


def ordsum_report_to_json(r: OrdinalSumReport) -> dict:
    a1, b, c, a2 = r.blocks
    return {
        "blocks": {
            "a1": matrix_to_json(a1),
            "b": matrix_to_json(b),
            "c": matrix_to_json(c),
            "a2": matrix_to_json(a2),
        },
        "alg": {"predicted": r.alg_predicted, "direct": r.alg_direct},
        "strict": {"predicted": r.strict_predicted, "direct": r.strict_direct},
        "consistent": r.consistent,
        "radical": {"predicted": r.radical_predicted, "direct": r.radical_direct},
    }


def support_nest_to_json(n: SupportNest) -> dict:
    return {
        "order_type": n.order_type,
        "depth": n.depth,
        "well_ordered": n.is_well_ordered,
        "complete": n.is_complete,
        "acc": n.has_acc,
        "dcc": n.has_dcc,
    }


def tail_functional_to_json(phi: TailFunctional) -> dict:
    f = phi.field
    return {
        "exceptional": {str(k): f.format_scalar(v) for k, v in phi.exceptional},
        "tail_value": f.format_scalar(phi.tail_value),
    }


def zigzag_report_to_json(r: ZigzagReport) -> dict:
    return {
        "order_type": r.order_type_name,
        "well_ordered": r.well_ordered,
        "acc": r.has_acc,
        "dcc": r.has_dcc,
        "radical_equals_strict": r.radical_equals_strict,
        "justification": r.justification,
        "components": [
            {
                "name": c.name,
                "order_type": c.order_type,
                "well_ordered": c.well_ordered,
                "radical_equals_strict": c.radical_equals_strict,
                "justification": c.justification,
            }
            for c in r.components
        ],
    }
