"""The benchmark's span tracer wraps memslab functions by module attribute.

A refactor that renames or stops importing one of those bindings would only
break ``bench/run.py --trace 1``; this test catches it without running the
benchmark.  It reads bench/spans.py and changes nothing under bench/.
"""

import importlib
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS = runpy.run_path(str(ROOT / "bench" / "spans.py"))["SPANS"]
BINDINGS = sorted({binding for bindings in SPANS.values() for binding in bindings})


@pytest.mark.parametrize("module, attr", BINDINGS, ids=[f"{m}.{a}" for m, a in BINDINGS])
def test_span_binding_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"memslab.{module}"), attr, None))


def test_uncalled_imports_are_span_bindings():
    """An import marked "# not called here" exists only for a span binding, so it goes when the binding goes."""
    marked = [f"{path.stem}.{name.strip()}" for path in sorted((ROOT / "src" / "memslab").glob("*.py"))
              for names in re.findall(r"^from \.\w+ import ([\w, ]+?)\s+# not called here", path.read_text(), re.M)
              for name in names.split(",")]
    assert marked  # the pattern still finds the marked imports
    assert [name for name in marked if name not in {f"{m}.{a}" for m, a in BINDINGS}] == []
