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
    assert tool.max_relative_difference(parent, change) == (
        "max relative difference 1.000e-06 in column n"
    )
    # the preamble's values count too, named by their key; two NaNs agree,
    # a NaN against a number does not
    moved = parent.replace(b"time = 1.0e-01", b"time = 2.0e-01")
    assert tool.max_relative_difference(parent, moved) == (
        "max relative difference 5.000e-01 in column time"
    )
    assert tool.max_relative_difference(parent, parent.replace(b"nan", b"1.0")) == (
        "max relative difference inf in column n"
    )
    assert tool.max_relative_difference(parent, parent + b"0,0\n") == "line counts differ (5 vs 6)"
    assert tool.max_relative_difference(parent, parent.replace(b"x,n", b"x,n,c")) == (
        "field counts differ"
    )


def test_largest_difference_names_its_column():
    tool = load_tool()
    parent = b"# config = abc\nt,mass,energy\n0.0,1.0,2.0\n0.1,1.0,4.0\n"
    # mass moves by 1e-9 relative in row 1 and energy by 2.5e-7 in row 2: the
    # larger move names the column, whatever comes first
    change = b"# config = abc\nt,mass,energy\n0.0,1.000000001,2.0\n0.1,1.0,4.000001\n"
    assert tool.max_relative_difference(parent, change) == (
        "max relative difference 2.500e-07 in column energy"
    )
    # every field of a preamble value counts, named by the line's key
    listed = parent.replace(b"# config = abc", b"# gammas = 5.0,10.0")
    assert tool.max_relative_difference(listed, listed.replace(b"10.0", b"12.5")) == (
        "max relative difference 2.000e-01 in column gammas"
    )
    # a text field that differs moves nothing and names no column
    relabelled = parent.replace(b"config = abc", b"config = abd")
    assert tool.max_relative_difference(parent, relabelled) == "max relative difference 0.000e+00"


def test_difference_is_relative_to_its_column():
    tool = load_tool()
    # a vacuum-front cell at 5.8e-296 on one side and 0 on the other moves by
    # 5.8e-296 of the column's largest value, not by 1.0; the cell of n that
    # moved by 7.5e-12 then names the largest difference
    parent = b"# config = abc\nx,n\n5.0e-01,1.0e+00\n6.0e-01,5.8e-296\n"
    front = parent.replace(b"5.8e-296", b"0.0e+00")
    assert tool.max_relative_difference(parent, front) == (
        "max relative difference 5.800e-296 in column n"
    )
    moved = front.replace(b"1.0e+00", b"1.0000000000075e+00")
    assert tool.max_relative_difference(parent, moved) == (
        "max relative difference 7.500e-12 in column n"
    )


def test_first_differing_console_line():
    tool = load_tool()
    parent = b"config  abc\nH7      not checkable (sigma = 0 not admissible)\n"
    change = b"config  abc\nH7      not checkable (e^(-G0 T) underflows)\n"
    assert tool.first_line_difference(parent, change) == (
        "line 2: 'H7      not checkable (sigma = 0 not admissible)' -> "
        "'H7      not checkable (e^(-G0 T) underflows)'"
    )
    assert tool.first_line_difference(parent, parent + b"x\n") == "line 3: '<none>' -> 'x'"


def test_check_case_returns_its_console_output(tmp_path):
    tool = load_tool()
    case = next(c for c in tool.CASES if c[0] == "check_h7_sigma_underflow")
    code, outputs = tool.run_case(str(TOOL.parents[1]), case, str(tmp_path))
    assert code == 0
    assert sorted(outputs) == ["stderr", "stdout"]
    assert outputs["stderr"] == (
        b"warning: H7 not checkable (e^(-G0 T) underflows to 0 at G0 T = 1000)\n"
    )
    assert b"H7      not checkable (e^(-G0 T) underflows to 0 at G0 T = 1000)\n" in outputs["stdout"]
