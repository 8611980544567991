"""The field-by-field summary that ``tools/compare_outputs.py`` prints for a CSV that differs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_largest_relative_difference_over_numeric_fields():
    tool = load_tool()
    parent = b"# time = 1.0e-01\n# config = abc\nx,n\n5.0e-01,2.0e+00\n1.0e+00,nan\n"
    change = b"# time = 1.0e-01\n# config = abc\nx,n\n5.0e-01,2.000002e+00\n1.0e+00,nan\n"
    assert tool.max_relative_difference(parent, change) == "max relative difference 1.000e-06"
    # the preamble's values count too; two NaNs agree, a NaN against a number does not
    moved = parent.replace(b"time = 1.0e-01", b"time = 2.0e-01")
    assert tool.max_relative_difference(parent, moved) == "max relative difference 5.000e-01"
    assert tool.max_relative_difference(parent, parent.replace(b"nan", b"1.0")).endswith(" inf")
    assert tool.max_relative_difference(parent, parent + b"0,0\n") == "line counts differ (5 vs 6)"
    assert tool.max_relative_difference(parent, parent.replace(b"x,n", b"x,n,c")) == (
        "field counts differ"
    )
