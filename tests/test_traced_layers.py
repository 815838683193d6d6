"""The benchmark's tracer wraps library functions by module and name.

A refactor that renames or removes one of them fails here instead of
breaking traced benchmark runs.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_layers_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [name for name, (module, attr) in spans.TRACED.items()
               if not callable(getattr(module, attr, None))]
    assert not missing, missing
