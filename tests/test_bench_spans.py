"""The benchmark's span tracer wraps memslab functions by module attribute.

A refactor that renames or stops importing one of those bindings would only
break ``bench/run.py --trace 1``; this test catches it without running the
benchmark.  It reads bench/spans.py and changes nothing under bench/.
"""

import importlib
import runpy
from pathlib import Path

import pytest

SPANS = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "spans.py"))["SPANS"]
BINDINGS = sorted({binding for bindings in SPANS.values() for binding in bindings})


@pytest.mark.parametrize("module, attr", BINDINGS, ids=[f"{m}.{a}" for m, a in BINDINGS])
def test_span_binding_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"memslab.{module}"), attr, None))
