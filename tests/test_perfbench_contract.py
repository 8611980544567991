"""Contracts between the package and the benchmark.

The benchmark tracer wraps package functions by module attribute name.  A
renamed or deleted attribute would make the traced benchmark run fail, so
every (module, attribute) pair it wraps must resolve to a callable.

The benchmark also measures set-up time and peak memory, which grow with
every heavy module the package imports.
"""

import importlib.util
import subprocess
import sys
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


def test_stepper_reaches_linalg_through_the_module():
    # the tracer wraps linalg.pcg_solve and linalg.thomas_solve; a name bound
    # in stepper itself would bypass the wrapper and the solves would go
    # unattributed
    from tissuesim import stepper

    assert [name for name in ("pcg_solve", "thomas_solve") if hasattr(stepper, name)] == []


def test_import_loads_no_scipy_fft_or_sparse():
    # numpy.fft comes with numpy; scipy.fft and scipy.sparse would add
    # set-up time and several MB of resident memory to every run
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import tissuesim; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[:2] in (['scipy', 'fft'], ['scipy', 'sparse'])))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
