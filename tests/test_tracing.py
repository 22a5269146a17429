"""The benchmark's tracer still finds every pipeline call it wraps.

``perfbench/tracing.py`` patches module attributes by name, so renaming one
of them in the package breaks only the traced benchmark run.  This test
loads that file read-only and resolves every entry of its patch table.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_attribute_resolves_to_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    table = tracing._patch_table()
    assert table
    for module, attr, name, after in table:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"
        assert after is None or callable(after)
