"""Outside-in tracing of nestalg's layers.

The tracer wraps the public functions of each module of `nestalg` at run
time, from the benchmark's own code: nothing in the library changes.  A
module-level function is replaced in its defining module and in every
nestalg module that imported it by name; a method is replaced on its
class.  Each call records a span (name, start, end, parent) in flat
arrays, and a few wrappers also add to counters.  After the run the
spans give each name's self time: its span time minus the time covered
by its child spans and by the tracer's own bookkeeping after them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

# (span name, module, attribute); "Class.method" patches a method on its class.
TARGETS = [
    ("matrices.rref", "matrices", "rref"),
    ("matrices.kernel_basis", "matrices", "kernel_basis"),
    ("matrices.solve", "matrices", "solve"),
    ("matrices.try_invert", "matrices", "try_invert"),
    ("matrices.matmul", "matrices", "Matrix.__matmul__"),
    ("subspaces.span_of", "subspaces", "span_of"),
    ("subspaces.contains", "subspaces", "Subspace.contains"),
    ("subspaces.meet", "subspaces", "Subspace.meet"),
    ("subspaces.annihilator", "subspaces", "Subspace.annihilator"),
    ("subspaces.complement_within", "subspaces", "complement_within"),
    ("subspaces.separating_functional", "subspaces", "separating_functional"),
    ("subspaces.enumerate_subspaces", "subspaces", "enumerate_subspaces"),
    ("nests.new_nest", "nests", "new_nest"),
    ("nests.principal_pred", "nests", "Nest.principal_pred"),
    ("nests.dual", "nests", "Nest.dual"),
    ("algebra.alg_basis", "algebra", "alg_basis"),
    ("algebra.in_alg_witness", "algebra", "in_alg_witness"),
    ("algebra.idempotent_onto", "algebra", "idempotent_onto"),
    ("algebra.rank_decompose", "algebra", "rank_decompose"),
    ("algebra.invariant_lattice", "algebra", "invariant_lattice"),
    ("algebra.all_rank_ones_in_alg", "algebra", "all_rank_ones_in_alg"),
    ("algebra.reflexivity_witness", "algebra", "reflexivity_witness"),
    ("algebra.matrix_span_basis", "algebra", "matrix_span_basis"),
    ("radical.strict_ideal_basis", "radical", "strict_ideal_basis"),
    ("radical.ideal_nilpotency_index", "radical", "ideal_nilpotency_index"),
    ("radical.radical_basis_oracle", "radical", "radical_basis_oracle"),
    ("radical.quasi_inverse", "radical", "quasi_inverse"),
    ("radical.radical_exclusion_witness", "radical", "radical_exclusion_witness"),
    ("radical.ordsum_analyze", "radical", "ordsum_analyze"),
    ("c00.zigzag_report", "c00", "zigzag_report"),
    ("c00.dual_support_nest", "c00", "dual_support_nest"),
    ("cli.main", "cli", "main"),
    ("verify.run_suite", "verify", "run_suite"),
]
# serialize.decode / serialize.encode cover every *_from_json / *_to_json
# function of the module except the per-scalar decoder; cli.handler covers
# every entry of cli.HANDLERS.
SCALAR_DECODER = "scalar_from_json"

COUNT = ("count", "lower")
SELF = ("s", "lower")


def _per_layer_spec() -> list[tuple[str, str, str]]:
    spec = []

    def calls_and_self(prefix, names):
        for n in names:
            spec.append((f"{prefix}.{n}.calls", *COUNT))
            spec.append((f"{prefix}.{n}.self_s", *SELF))

    calls_and_self("matrices", ["rref", "kernel_basis", "solve", "try_invert", "matmul"])
    spec += [
        ("matrices.rref.cells", *COUNT),
        ("matrices.rref.rank_ratio", "ratio", "higher"),
        ("fields.coeff_bits_max", "bits", "lower"),
    ]
    calls_and_self("subspaces", ["span_of", "contains", "meet", "annihilator",
                                 "complement_within", "separating_functional",
                                 "enumerate_subspaces"])
    calls_and_self("nests", ["new_nest", "principal_pred", "dual"])
    calls_and_self("algebra", ["alg_basis", "in_alg_witness", "idempotent_onto",
                               "rank_decompose", "invariant_lattice", "all_rank_ones_in_alg",
                               "reflexivity_witness", "matrix_span_basis"])
    spec += [
        ("algebra.invariant_lattice.subspaces", *COUNT),
        ("algebra.all_rank_ones_in_alg.generated", *COUNT),
    ]
    calls_and_self("radical", ["strict_ideal_basis", "ideal_nilpotency_index",
                               "radical_basis_oracle", "quasi_inverse",
                               "radical_exclusion_witness", "ordsum_analyze"])
    spec += [
        ("radical.ideal_nilpotency_index.products", *COUNT),
        ("radical.ideal_nilpotency_index.kept_ratio", "ratio", "higher"),
    ]
    calls_and_self("c00", ["zigzag_report", "dual_support_nest"])
    calls_and_self("serialize", ["decode", "encode"])
    spec += [
        ("cli.main.self_s", *SELF),
        ("cli.handler.self_s", *SELF),
        ("cli.report_bytes", "bytes", "lower"),
    ]
    calls_and_self("verify", ["run_suite"])
    spec.append(("trace.overhead_s", *SELF))
    return spec


PER_LAYER = _per_layer_spec()


def subspace_count(p: int, n: int) -> int:
    """Number of subspaces of GF(p)^n: the sum of Gaussian binomials."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (n - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return int(x).bit_length()


class Tracer:
    """Spans and counters for one traced run; install() patches, remove() undoes."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.post = array("d")  # bookkeeping time right after the span
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []
        self._in_index = 0
        self._index_first = False
        # Counters added after a successful call: span name -> hook(args, result).
        self._after = {
            "matrices.rref": self._count_rref,
            "matrices.matmul": self._count_product,
            "algebra.matrix_span_basis": self._count_kept,
            "algebra.invariant_lattice": self._count_subspaces,
            "algebra.all_rank_ones_in_alg": self._count_rank_ones,
        }

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        mods = {k.split(".", 1)[1]: m for k, m in sys.modules.items()
                if k.startswith("nestalg.")}
        for span, modname, attr in TARGETS:
            mod = mods.get(modname)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._wrap(span, getattr(cls, meth)))
            else:
                self._patch_function(mods, mod, attr, span)
        ser = mods.get("serialize")
        if ser is not None:
            for attr, fn in list(vars(ser).items()):
                if not callable(fn) or attr == SCALAR_DECODER:
                    continue
                if attr.endswith("_from_json"):
                    self._patch_function(mods, ser, attr, "serialize.decode")
                elif attr.endswith("_to_json"):
                    self._patch_function(mods, ser, attr, "serialize.encode")
        cli = mods.get("cli")
        if cli is not None:
            for key, fn in list(cli.HANDLERS.items()):
                self._set(cli.HANDLERS, key, self._wrap("cli.handler", fn), item=True)

    def remove(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def _patch_function(self, mods, mod, attr, span) -> None:
        original = getattr(mod, attr)
        wrapper = self._wrap(span, original)
        for m in mods.values():
            for k, v in list(vars(m).items()):
                if v is original:
                    self._set(m, k, wrapper)

    def _set(self, owner, key, value, item=False) -> None:
        if item:
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def _wrap(self, span: str, fn):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        after = self._after.get(span)
        scoped = span == "radical.ideal_nilpotency_index"
        names, parents, starts, ends, posts = self.name, self.parent, self.start, self.end, self.post
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            posts.append(0.0)
            stack.append(idx)
            if scoped:
                self._in_index += 1
                self._index_first = True
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
                if scoped:
                    self._in_index -= 1
            if after is not None:
                after(args, result)
                posts[idx] = clock() - t1
            return result

        return wrapper

    # -- counters -------------------------------------------------------------

    def _count_rref(self, args, result) -> None:
        m = args[0]
        c = self.counters
        c["rref.cells"] += m.rows * m.cols
        c["rref.rows"] += m.rows
        c["rref.rank"] += result.rank
        bits = max((_bits(x) for row in result.matrix.entries for x in row if x), default=0)
        if bits > c["coeff_bits_max"]:
            c["coeff_bits_max"] = bits

    def _count_product(self, args, result) -> None:
        if self._in_index:
            self.counters["index.products"] += 1

    def _count_kept(self, args, result) -> None:
        if self._in_index:
            if self._index_first:  # the span of the ideal's own basis, not of products
                self._index_first = False
            else:
                self.counters["index.kept"] += len(result)

    def _count_subspaces(self, args, result) -> None:
        _, field, n = args
        self.counters["lattice.subspaces"] += subspace_count(field.p, n)

    def _count_rank_ones(self, args, result) -> None:
        self.counters["rank_ones.generated"] += len(result)

    # -- results ----------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time and call count per span name."""
        n = len(self.start)
        cover = [0.0] * n
        starts, ends, posts, parents = self.start, self.end, self.post, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                cover[p] += ends[i] - starts[i] + posts[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.name[i]]
            self_s[name] += ends[i] - starts[i] - cover[i]
            calls[name] += 1
        return self_s, calls

    def metrics(self, rounds: int, overhead_s: float, extra: dict[str, float],
                speed: float = 1.0) -> dict:
        """Every per-layer metric, per traced round; absent layers read 0.
        Self times are multiplied by `speed`, the run's speed-probe factor."""
        self_s, calls = self.self_times()
        c = self.counters
        derived = {
            "matrices.rref.cells": c["rref.cells"] / rounds,
            "matrices.rref.rank_ratio": c["rref.rank"] / c["rref.rows"] if c["rref.rows"] else 0.0,
            "fields.coeff_bits_max": c["coeff_bits_max"],
            "algebra.invariant_lattice.subspaces": c["lattice.subspaces"] / rounds,
            "algebra.all_rank_ones_in_alg.generated": c["rank_ones.generated"] / rounds,
            "radical.ideal_nilpotency_index.products": c["index.products"] / rounds,
            "radical.ideal_nilpotency_index.kept_ratio":
                c["index.kept"] / c["index.products"] if c["index.products"] else 0.0,
            "trace.overhead_s": overhead_s,
        }
        derived.update({k: v / rounds for k, v in extra.items()})
        out = {}
        for name, unit, _ in PER_LAYER:
            if name in derived:
                value = derived[name]
            elif name.endswith(".calls"):
                value = calls.get(name[: -len(".calls")], 0) / rounds
            else:
                value = self_s.get(name[: -len(".self_s")], 0.0) * speed / rounds
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self, path) -> None:
        """Write the spans and counters: one JSON header line, then the
        columns name, parent (int64), start, end, post (float64) back to back."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": ["name:q", "parent:q", "start:d", "end:d", "post:d"],
            "counters": dict(self.counters),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name, self.parent, self.start, self.end, self.post):
                col.tofile(fh)


def load_dump(path) -> tuple[dict, dict[str, array]]:
    """Read a file written by Tracer.dump back into its header and columns."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for spec in header["columns"]:
            key, code = spec.split(":")
            col = array(code)
            col.fromfile(fh, header["spans"])
            cols[key] = col
    return header, cols
