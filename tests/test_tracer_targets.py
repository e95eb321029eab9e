"""The benchmark tracer's targets must name code that exists in nestalg.

perfbench/tracer.py patches `nestalg.<module>.<attr>` by name at run time; a
renamed or deleted target breaks the traced run.  The tracer's source is
read and executed as a fresh module: nothing is installed, run or written.
"""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_targets_resolve():
    tracer = load_tracer()
    assert tracer.TARGETS
    for span, modname, attr in tracer.TARGETS:
        owner = importlib.import_module(f"nestalg.{modname}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"{span}: nestalg.{modname}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), span
