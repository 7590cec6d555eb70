"""The traced benchmark wraps package functions by name; every name it lists
must exist, or ``perfbench/run.py --trace 1`` fails on a renamed function."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "layer,name", [(layer, fn) for layer, fns in _targets().items() for fn in fns]
)
def test_traced_target_resolves(layer, name):
    module = importlib.import_module(f"qunravel.{layer}")
    assert callable(getattr(module, name))
