"""The functions the benchmark's tracer wraps still exist where it looks for them.

`perfbench/tracing.py` skips a target it cannot find, so a renamed or moved
function would silently drop out of the per-layer metrics.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look their module up
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    return [(module, attr) for module, attr, _ in tracing.SPANNED + tracing.TALLIED]


@pytest.mark.parametrize("module,attr", _targets(), ids=lambda v: v)
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
