"""Run the shipped campaigns on two source trees and compare their CSVs byte for byte.

Usage:

    python3 tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout of this repository.  Every case below runs once per
root, as ``python -m tissuesim`` with ``PYTHONPATH=<root>/src`` and
``OPENBLAS_NUM_THREADS=1``, on a config built from that root's ``configs/``
plus the case's overrides.  Both sides of a case write to the same ``--out``
directory, one after the other, so the config hashes stamped into the CSVs
match.  A ``check`` case, which prints no timings, also compares its
standard output and standard error byte for byte.  The script lists every
CSV or console stream whose bytes differ (or that only one side wrote) and
every case whose exit codes differ, and exits 1 if there is any; it exits 0
when all of them are byte-identical.  For a CSV whose bytes differ
it also prints the largest relative difference |a - b| / max(|a|, |b|) over
the numeric fields at the same place in both files, and the column it is
in, so a change that moves values within a tolerance can quote how far they
moved and where.  It needs only the standard library and the packages
tissuesim itself imports.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import tempfile

GROWTH_2D = {
    "grid.dim": "2",
    "grid.cells_x": "128",
    "grid.cells_y": "128",
    "grid.extent_y": "1.0",
    "initial.center_y": "0.5",
    "time.T_final": "0.1",
}

# saturating is the only preset that is not affine in d, so the only one
# whose rounded values over [0, L] could peak away from an endpoint;
# psi_alpha = 2 exceeds the shipped supply rate a = 1
SATURATING = {
    "model.G_preset": "saturating",
    "model.K1_preset": "saturating",
    "model.psi_preset": "saturating",
    "model.psi_alpha": "2",
}

# a patch n0 = 1 on vacuum at gamma = 160 under constant growth, the
# Hele-Shaw test case: the only input known to reach the density Newton's
# undamped fallback (2 fallbacks in 25 steps)
STIFF_2D = {
    **GROWTH_2D,
    "time.T_final": "0.5",
    "model.gamma": "160",
    "model.G_preset": "constant",
    "model.G_alpha": "1",
    "model.K1_preset": "constant",
    "model.K1_alpha": "0",
    "model.K2_alpha": "0",
    "initial.profile": "step",
    "initial.n0": "0",
    "initial.height": "1",
    "initial.width": "0.4",
    "initial.c0": "0",
    "initial.lift": "none",
}

# the eps study on a 32 x 32 grid: the 2D fraction viscosity
EPS_STUDY_2D = {
    "grid.dim": "2",
    "grid.cells_x": "32",
    "grid.cells_y": "32",
    "grid.extent_y": "1",
    "initial.center_y": "0.5",
}

# the sweep data on a 96 x 96 grid at gamma = 640 with the 1/gamma lift:
# one attempt's density Newton system overflows and is rejected
STIFF_2D_WELL_PREPARED = {
    "grid.dim": "2",
    "grid.cells_x": "96",
    "grid.cells_y": "96",
    "grid.extent_y": "1",
    "initial.center_y": "0.5",
    "initial.height": "0.9",
    "initial.lift": "gamma",
    "model.gamma": "640",
}

# (case name, subcommand, shipped config, overrides)
CASES = (
    ("run_growth_1d", "run", "growth_1d.cfg", {}),
    ("sweep_shipped", "sweep", "sweep.cfg", {}),
    ("sweep_stiff", "sweep", "sweep.cfg", {"sweep.gammas": "5,10,20,40,80,160,320,640"}),
    # the viscous sweep: set_up resolves ell_cut = 0 to the inactive-cutoff
    # bound, and the window integrals read the params each state carries
    ("sweep_viscous", "sweep", "sweep.cfg", {"model.eps_reg": "0.01"}),
    ("eps_study", "eps-study", "eps_study.cfg", {}),
    ("eps_study_2d", "eps-study", "eps_study.cfg", EPS_STUDY_2D),
    # 400 cells at eps = 2, 1, 0.5: density Newton systems whose |A| |x| far
    # exceeds their right side, the test case of the direct-solve residual bound
    ("eps_study_fine", "eps-study", "eps_study.cfg", {"grid.cells_x": "400", "eps.values": "2,1,0.5"}),
    ("bench", "bench", "barenblatt.cfg", {}),
    ("growth_2d", "run", "growth_1d.cfg", GROWTH_2D),
    ("stiff_2d", "run", "growth_1d.cfg", STIFF_2D),
    ("inject_c_bounds", "run", "growth_1d.cfg", {"debug.inject": "c_bounds"}),
    # the same injection in 2D stops after one step; its final snapshot holds
    # the negative n1 cell -1.0000516102593125e-01 (a 2D snapshot's sign path)
    ("inject_c_bounds_2d", "run", "growth_1d.cfg", {**GROWTH_2D, "debug.inject": "c_bounds"}),
    # each run of these campaigns stops after its first step
    ("inject_c_bounds_sweep", "sweep", "sweep.cfg", {"debug.inject": "c_bounds"}),
    ("inject_c_bounds_eps_study", "eps-study", "eps_study.cfg", {"debug.inject": "c_bounds"}),
    ("inject_c_bounds_bench", "bench", "barenblatt.cfg", {"debug.inject": "c_bounds"}),
    # a cutoff level below the inactive-cutoff bound, where run warns: the
    # only case whose cutoff clamps the flux potential, density residual and
    # Jacobian (3830 activations in 149 steps)
    ("run_low_cutoff", "run", "growth_1d.cfg",
     {"model.eps_reg": "0.01", "initial.lift": "eps", "model.ell_cut": "0.6"}),
    ("run_saturating", "run", "growth_1d.cfg", SATURATING),
    ("sweep_saturating", "sweep", "sweep.cfg", SATURATING),
    # the eps CSV's barrier column prints M0 at full precision
    ("eps_study_saturating", "eps-study", "eps_study.cfg", SATURATING),
    ("stiff_2d_well_prepared", "run", "sweep.cfg", STIFF_2D_WELL_PREPARED),
    # criterion 11's well-prepared data at the two stiffest gammas: 8 and 6
    # rejected attempts, each an undamped Newton step that blows the residual up
    ("sweep_well_prepared", "sweep", "sweep.cfg",
     {"initial.height": "0.9", "sweep.gammas": "320,640"}),
    # the 100, 200 and 400 cell grids take 26, 52 and 105 steps: only the finest stops
    ("bench_stopped_grid", "bench", "barenblatt.cfg", {"time.max_steps": "60"}),
    # a decreasing gamma list, which the schema rejects
    ("check_sweep_gammas_decreasing", "check", "sweep.cfg", {"sweep.gammas": "10,5"}),
    # a misspelled key, the only input that makes the parser load difflib
    ("check_unknown_key", "check", "sweep.cfg", {"time.T_fianl": "0.5"}),
    # a sweep window that starts past the horizon, which the schema rejects
    ("check_sweep_tau_past_horizon", "check", "sweep.cfg", {"sweep.tau": "5"}),
    # G0 T = 1000: e^(-G0 T), and with it the automatic sigma, underflows to 0
    ("check_h7_sigma_underflow", "check", "growth_1d.cfg",
     {"model.G_preset": "constant", "model.G_alpha": "1000", "time.T_final": "1"}),
    # five set-ups whose e^(rate t) bound factors saturate, each of which once
    # exited 1 with a traceback.  G0 T = 720: e^(G0 T) in the H7 allowance
    # overflows; "H7      FAIL (sigma = 1.01612e-313, ratio = inf)"
    ("check_h7_overflow", "check", "growth_1d.cfg",
     {"model.G_preset": "constant", "model.G_alpha": "720", "time.T_final": "1"}),
    # G0 T = 744.5: e^(-G0 T) = 4.9e-324, half of which rounds to 0;
    # "H7      not checkable (0.5 e^(-G0 T) underflows to 0 at G0 T = 744.5)"
    ("check_h7_sigma_rounds_to_zero", "check", "growth_1d.cfg",
     {"model.G_preset": "constant", "model.G_alpha": "744.5", "time.T_final": "1"}),
    # e^(G0 T) max n0 overflows; "H7      FAIL (sigma = 4.9648e-153, ratio = inf)"
    ("check_h7_allowance_overflow", "check", "growth_1d.cfg",
     {"model.G_alpha": "700", "initial.n0": "1e300"}),
    # G0 T = -750: e^(-G0 T) overflows, and the automatic sigma is the largest
    # float; "H7      pass (sigma = 1.79769e+308, ratio = 0)", with no warning
    ("check_negative_growth", "check", "growth_1d.cfg",
     {"model.G_preset": "constant", "model.G_alpha": "-1500"}),
    # e^(G0 t) of the weak-maximum-principle cap overflows at t = 709.8;
    # "run <hash>: 15841 steps to t = 720, mass 0.722222222222"
    ("run_cap_overflow", "run", "growth_1d.cfg",
     {"grid.cells_x": "20", "initial.profile": "uniform", "initial.n0": "0.5",
      "initial.c0": "1", "model.sigma": "1", "model.G_preset": "constant",
      "model.G_alpha": "1", "model.D": "1", "model.K1_preset": "constant",
      "model.K1_alpha": "10", "model.K2_alpha": "0", "time.T_final": "720",
      "time.snapshot_stride": "1000"}),
)


def config_text(path: str, overrides: dict[str, str]) -> str:
    """The ``key = value`` lines of a config file with ``overrides`` applied."""
    entries = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            text = line.split("#", 1)[0].strip()
            if text:
                key, value = (part.strip() for part in text.split("=", 1))
                entries[key] = value
    entries.update(overrides)
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


def run_case(root: str, case: tuple, work: str) -> tuple[int, dict[str, bytes]]:
    """Run one case on one root; return its exit code and the bytes of each CSV it wrote.

    A ``check`` case also returns its console output, as ``stdout`` and ``stderr``.
    """
    name, sub, config, overrides = case
    cfg_path = os.path.join(work, f"{name}.cfg")
    with open(cfg_path, "w", encoding="utf-8") as f:
        f.write(config_text(os.path.join(root, "configs", config), overrides))
    out = os.path.join(work, name)
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS="1")
    console = subprocess.PIPE if sub == "check" else subprocess.DEVNULL
    proc = subprocess.run(
        [sys.executable, "-m", "tissuesim", sub, "--config", cfg_path, "--out", out],
        env=env, cwd=work, stdout=console, stderr=console,
    )
    files = {"stdout": proc.stdout, "stderr": proc.stderr} if sub == "check" else {}
    if os.path.isdir(out):
        for entry in sorted(os.listdir(out)):
            if entry.endswith(".csv"):
                with open(os.path.join(out, entry), "rb") as f:
                    files[entry] = f.read()
    shutil.rmtree(out, ignore_errors=True)
    return proc.returncode, files


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _fields(line: str) -> list[str]:
    """The comma-separated fields of a CSV line; of a preamble line, those of its value."""
    return (line.split("=", 1)[-1] if line.startswith("#") else line).split(",")


def max_relative_difference(a: bytes, b: bytes) -> str:
    """The largest relative difference over the numeric fields of two CSVs, and its column, as text.

    Fields pair up by line and column; ``# key = value`` preamble lines
    compare their values.  Two NaNs agree; a field that is a number on one
    side only, a NaN against a number, or unequal infinities count as inf.
    The column is the header's name of the field, or the key of a preamble
    line; the first field to reach the largest difference names it.  Files
    whose line or field counts differ cannot be paired field by field.
    """
    lines_a, lines_b = a.decode().splitlines(), b.decode().splitlines()
    if len(lines_a) != len(lines_b):
        return f"line counts differ ({len(lines_a)} vs {len(lines_b)})"
    worst, where = 0.0, None
    header = None  # the first line that is not a preamble line names the columns
    for line_a, line_b in zip(lines_a, lines_b):
        fields_a, fields_b = _fields(line_a), _fields(line_b)
        if len(fields_a) != len(fields_b):
            return "field counts differ"
        if line_a.startswith("#"):
            names = [line_a[1:].split("=", 1)[0].strip()] * len(fields_a)
        elif header is None:
            header = names = fields_a
        else:
            names = header
        for name, text_a, text_b in zip(names, fields_a, fields_b):
            if text_a == text_b:
                continue
            x, y = _number(text_a), _number(text_b)
            if x is None and y is None:
                continue
            if x is None or y is None or math.isnan(x) != math.isnan(y):
                moved = math.inf
            elif x != y:
                scale = max(abs(x), abs(y))
                moved = abs(x - y) / scale if math.isfinite(scale) else math.inf
            else:
                continue
            if moved > worst:
                worst, where = moved, name
    return f"max relative difference {worst:.3e}" + (f" in column {where}" if where else "")


def first_line_difference(a: bytes, b: bytes) -> str:
    """The first line of two console outputs that differs, as ``parent -> change`` text."""
    lines_a, lines_b = a.decode().splitlines(), b.decode().splitlines()
    for i in range(max(len(lines_a), len(lines_b))):
        line_a = lines_a[i] if i < len(lines_a) else "<none>"
        line_b = lines_b[i] if i < len(lines_b) else "<none>"
        if line_a != line_b:
            return f"line {i + 1}: {line_a!r} -> {line_b!r}"
    return "line endings differ"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_outputs.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    parent, change = (os.path.abspath(a) for a in argv)
    differ = []
    compared = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as work:
        for case in CASES:
            name = case[0]
            code_a, files_a = run_case(parent, case, work)
            code_b, files_b = run_case(change, case, work)
            if code_a != code_b:
                differ.append(f"{name}: exit code {code_a} -> {code_b}")
            for entry in sorted(files_a.keys() | files_b.keys()):
                compared += 1
                a, b = files_a.get(entry), files_b.get(entry)
                if a is None or b is None:
                    differ.append(f"{name}/{entry}: only in {'change' if a is None else 'parent'}")
                elif a != b:
                    summary = (first_line_difference(a, b) if entry in ("stdout", "stderr")
                               else max_relative_difference(a, b))
                    differ.append(f"{name}/{entry}: bytes differ, {summary}")
            print(f"{name}: exit {code_a}/{code_b}, {len(files_a | files_b)} outputs")
    for line in differ:
        print(f"DIFFERS {line}")
    print(f"{compared} outputs compared, {len(differ)} differences")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
