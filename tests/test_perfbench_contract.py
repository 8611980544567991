"""The benchmark tracer wraps package functions by module attribute name.

A renamed or deleted attribute would make the traced benchmark run fail, so
every (module, attribute) pair it wraps must resolve to a callable.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer._SPANS
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in tracer._SPANS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
