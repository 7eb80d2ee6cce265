"""Every function the benchmark's tracer wraps by name still exists.

``perfbench/tracing.py`` wraps gklab functions from outside the library,
looking each up with ``getattr``; a deleted or renamed function would break
``perfbench/run.py --trace 1``.  The tracer's source is read from its file
and run as a fresh module; nothing under ``perfbench/`` is written.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    """The tracer module, compiled from its source (no bytecode is written)."""
    module = types.ModuleType("_perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


def test_wrapped_functions_exist():
    wrapped = _load_tracing().wrapped_functions()
    assert wrapped
    missing = [f"{mod}.{fn}" for mod, fn, _ in wrapped
               if not callable(getattr(importlib.import_module(f"gklab.{mod}"),
                                       fn, None))]
    assert missing == []
