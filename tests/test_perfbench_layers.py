"""Every public function of a traced module has a layer in ``perfbench/spans.py``.

The benchmark's tracer wraps each public function of its ``TRACED_MODULES``
and books its self time to ``layer_of`` the function's name, which must be
one of ``LAYERS``; a function outside them stops every traced run with a
``KeyError``.  This reads ``spans.py`` without changing or caching it.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def traced_functions(short: str) -> list[str]:
    """The names the tracer wraps in ``surface_cones.<short>``, by the rule of its ``_plan``."""
    module = importlib.import_module(f"surface_cones.{short}")
    return [
        f"{short}.{attr}"
        for attr, fn in sorted(vars(module).items())
        if not attr.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
    ]


def test_every_traced_function_has_a_layer():
    spans = load_spans()
    names = [name for short in spans.TRACED_MODULES for name in traced_functions(short)]
    assert len(names) > 50
    assert [name for name in names if spans.layer_of(name) not in spans.LAYERS] == []
