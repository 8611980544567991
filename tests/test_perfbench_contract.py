"""Contracts between the package and the benchmark.

The benchmark tracer wraps package functions by module attribute name.  A
renamed or deleted attribute would make the traced benchmark run fail, so
every (module, attribute) pair it wraps must resolve to a callable, and a
traced run must count each step and each attempt in the layer that made it.

The benchmark also measures set-up time and peak memory, which grow with
every heavy module the package imports.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
CONFIGS = ROOT / "configs"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_attribute_resolves():
    tracer = load_tracer()
    assert tracer._SPANS
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in tracer._SPANS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_traced_run_attributes_every_attempt():
    # each step asks suggest_dt once, and each attempt runs the density
    # solve, the fraction update and the nutrient solve once
    from tissuesim import harness
    from tissuesim.config import parse_config

    tracer = load_tracer().Tracer()
    cfg = parse_config((CONFIGS / "growth_1d.cfg").read_text())
    tracer.install()
    try:
        res = harness.run(cfg)
    finally:
        unrestored = tracer.uninstall()
    assert unrestored == []
    assert res.ok
    counts = tracer.counts
    assert counts["stepper.steps"] == res.steps > 0
    assert counts["stepper.attempts"] == res.steps
    assert counts["stepper.suggest_dt.calls"] == res.steps
    for phase in ("density_solve", "fraction_update", "nutrient_solve"):
        assert counts[f"stepper.{phase}.calls"] == counts["stepper.attempts"]


def test_stepper_reaches_linalg_through_the_module():
    # the tracer wraps linalg.pcg_solve and linalg.thomas_solve; a name bound
    # in stepper itself would bypass the wrapper and the solves would go
    # unattributed
    from tissuesim import stepper

    assert [name for name in ("pcg_solve", "thomas_solve") if hasattr(stepper, name)] == []


def test_thomas_solve_calls_count_the_1d_linear_systems(monkeypatch):
    # the benchmark's linalg.thomas_solve.calls counts 1D linear systems:
    # exactly one per Newton system and one per nutrient solve
    from tissuesim import harness, linalg, stepper
    from tissuesim.config import parse_config

    calls = {"thomas_solve": 0, "_solve_newton_system": 0, "nutrient_solve": 0}

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    spy(linalg, "thomas_solve")
    spy(stepper, "_solve_newton_system")
    spy(stepper, "nutrient_solve")
    cfg = parse_config((CONFIGS / "growth_1d.cfg").read_text()).with_overrides(time__T_final=0.05)
    res = harness.run(cfg)
    assert res.ok and res.rejected_attempts == 0
    assert calls["_solve_newton_system"] == res.newton_iters - res.steps > res.steps > 0
    assert calls["nutrient_solve"] == res.steps
    assert calls["thomas_solve"] == calls["_solve_newton_system"] + calls["nutrient_solve"]


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


def test_run_loads_no_openssl_or_difflib(tmp_path):
    # hashlib maps OpenSSL's libcrypto (about 3.5 MB of a 1D run's peak
    # memory) and difflib is needed only for a misspelled key; neither may
    # be loaded by the import or by a run
    from tissuesim.config import parse_config, serialize_config

    cfg = parse_config((CONFIGS / "growth_1d.cfg").read_text()).with_overrides(time__T_final=0.05)
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text(serialize_config(cfg))
    src = ROOT / "src"
    probe = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import tissuesim; "
        "heavy = lambda: sorted({'hashlib', '_hashlib', 'difflib'} & sys.modules.keys()); "
        "after_import = heavy(); from tissuesim import cli; "
        f"code = cli.main(['run', '--config', {str(cfg_path)!r}, '--out', {str(tmp_path / 'out')!r}]); "
        "print(after_import, code, heavy())"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[] 0 []"
