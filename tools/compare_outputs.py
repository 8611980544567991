"""Run the shipped campaigns on two source trees and compare their CSVs byte for byte.

Usage:

    python3 tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout of this repository.  Every case below runs once per
root, as ``python -m tissuesim`` with ``PYTHONPATH=<root>/src`` and
``OPENBLAS_NUM_THREADS=1``, on a config built from that root's ``configs/``
plus the case's overrides.  Both sides of a case write to the same ``--out``
directory, one after the other, so the config hashes stamped into the CSVs
match.  The script lists every CSV whose bytes differ (or that only one side
wrote) and every case whose exit codes differ, and exits 1 if there is any;
it exits 0 when all CSVs are byte-identical.  For a CSV whose bytes differ
it also prints the largest relative difference |a - b| / max(|a|, |b|) over
the numeric fields at the same place in both files, so a change that moves
values within a tolerance can quote how far they moved.  It needs only the
standard library and the packages tissuesim itself imports.
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

# (case name, subcommand, shipped config, overrides)
CASES = (
    ("run_growth_1d", "run", "growth_1d.cfg", {}),
    ("sweep_shipped", "sweep", "sweep.cfg", {}),
    ("sweep_stiff", "sweep", "sweep.cfg", {"sweep.gammas": "5,10,20,40,80,160,320,640"}),
    ("eps_study", "eps-study", "eps_study.cfg", {}),
    ("bench", "bench", "barenblatt.cfg", {}),
    ("growth_2d", "run", "growth_1d.cfg", GROWTH_2D),
    ("inject_c_bounds", "run", "growth_1d.cfg", {"debug.inject": "c_bounds"}),
    # each run of these campaigns stops after its first step
    ("inject_c_bounds_sweep", "sweep", "sweep.cfg", {"debug.inject": "c_bounds"}),
    ("inject_c_bounds_eps_study", "eps-study", "eps_study.cfg", {"debug.inject": "c_bounds"}),
    ("inject_c_bounds_bench", "bench", "barenblatt.cfg", {"debug.inject": "c_bounds"}),
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
    """Run one case on one root; return its exit code and the bytes of each CSV it wrote."""
    name, sub, config, overrides = case
    cfg_path = os.path.join(work, f"{name}.cfg")
    with open(cfg_path, "w", encoding="utf-8") as f:
        f.write(config_text(os.path.join(root, "configs", config), overrides))
    out = os.path.join(work, name)
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "tissuesim", sub, "--config", cfg_path, "--out", out],
        env=env, cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    files = {}
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
    """The largest relative difference over the numeric fields of two CSVs, as text.

    Fields pair up by line and column; ``# key = value`` preamble lines
    compare their values.  Two NaNs agree; a field that is a number on one
    side only, a NaN against a number, or unequal infinities count as inf.
    Files whose line or field counts differ cannot be paired field by field.
    """
    lines_a, lines_b = a.decode().splitlines(), b.decode().splitlines()
    if len(lines_a) != len(lines_b):
        return f"line counts differ ({len(lines_a)} vs {len(lines_b)})"
    worst = 0.0
    for line_a, line_b in zip(lines_a, lines_b):
        fields_a, fields_b = _fields(line_a), _fields(line_b)
        if len(fields_a) != len(fields_b):
            return "field counts differ"
        for text_a, text_b in zip(fields_a, fields_b):
            if text_a == text_b:
                continue
            x, y = _number(text_a), _number(text_b)
            if x is None and y is None:
                continue
            if x is None or y is None or math.isnan(x) != math.isnan(y):
                worst = math.inf
            elif x != y:
                scale = max(abs(x), abs(y))
                worst = max(worst, abs(x - y) / scale if math.isfinite(scale) else math.inf)
    return f"max relative difference {worst:.3e}"


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
                    differ.append(f"{name}/{entry}: bytes differ, {max_relative_difference(a, b)}")
            print(f"{name}: exit {code_a}/{code_b}, {len(files_a | files_b)} CSVs")
    for line in differ:
        print(f"DIFFERS {line}")
    print(f"{compared} CSVs compared, {len(differ)} differences")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
