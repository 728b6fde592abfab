import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attrs in module.TARGETS.items() for attr in attrs]


@pytest.mark.parametrize("mod, attr", _targets())
def test_benchmark_trace_target_resolves(mod, attr):
    # the benchmark tracer wraps these by name; a rename must fail here too
    obj = importlib.import_module(f"pairlrt.{mod}")
    if "." in attr:
        cls_name, prop = attr.split(".")
        assert isinstance(vars(getattr(obj, cls_name))[prop], property)
    else:
        assert callable(getattr(obj, attr))
