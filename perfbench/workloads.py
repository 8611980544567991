"""The three campaigns: generated configs, seed perturbation, output checks.

Each workload starts from a shipped config under ``configs/``, applies fixed
overrides, then perturbs the initial bump by the seed.  Seed 0 keeps the
shipped bump exactly.  Any other seed names a family of variants; variant k
moves

  * the centre by at most +-CENTER_SHIFT (absolute),
  * the height and the width by at most a factor 1 +- SCALE_SHIFT,

drawn from ``random.Random(f"{seed}:{k}")``.  Any shift that breaks the
mirror symmetry of the shipped bump changes the Newton and CG iteration
counts by several per cent from variant to variant, so an untimed run steps
through the variants and its median averages over them.  The program only
ever sees the generated config file.

The checks read the CSVs the run wrote and test physical properties of the
campaign, not exact values, so rounding-level or dt-controller changes pass.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

CENTER_SHIFT = 0.005
SCALE_SHIFT = 0.01

# the stiff-limit acceptance asserts decreasing Cauchy distances up to here
CAUCHY_GAMMA_MAX = 80.0


def read_config(path: str) -> dict[str, str]:
    """``section.key = value`` lines of a config file, in file order."""
    entries = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            text = line.split("#", 1)[0].strip()
            if text:
                key, value = (part.strip() for part in text.split("=", 1))
                entries[key] = value
    return entries


def generate_config(
    workload: Workload, configs_dir: str, seed: int, variant: int = 0
) -> dict[str, str]:
    cfg = read_config(os.path.join(configs_dir, workload.base_config))
    cfg.update(workload.overrides)
    if seed != 0:
        rng = random.Random(f"{seed}:{variant}")
        cfg["initial.center"] = repr(float(cfg["initial.center"]) + rng.uniform(-CENTER_SHIFT, CENTER_SHIFT))
        for key in ("initial.height", "initial.width"):
            cfg[key] = repr(float(cfg[key]) * (1.0 + rng.uniform(-SCALE_SHIFT, SCALE_SHIFT)))
    return cfg


def write_config(cfg: dict[str, str], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(f"{key} = {value}\n" for key, value in cfg.items())


def _rows(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def _strictly_decreasing(values: list[float]) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def check_sweep_stiff(out: str, prefix: str) -> tuple[list[str], dict]:
    rows = _rows(os.path.join(out, f"{prefix}_sweep.csv"))
    problems = []
    if len(rows) != 8 or any(r["ok"] != "1" for r in rows):
        problems.append(f"expected 8 ok sweep entries, got {[r['ok'] for r in rows]}")
        return problems, {}
    gammas = [float(r["gamma"]) for r in rows]
    seg = [float(r["seg_integral"]) for r in rows]
    energy = [float(r["energy"]) for r in rows]
    dist = [float(r["dist_to_next"]) for r in rows[:-1]]
    if not _strictly_decreasing(seg):
        problems.append(f"segregation not strictly decreasing: {seg}")
    if not all(e <= energy[0] for e in energy):
        problems.append(f"energy exceeds its gamma = {gammas[0]:g} value: {energy}")
    cauchy = [d for d, g in zip(dist, gammas[1:]) if g <= CAUCHY_GAMMA_MAX]
    if not _strictly_decreasing(cauchy):
        problems.append(f"Cauchy distances up to gamma {CAUCHY_GAMMA_MAX:g} not decreasing: {cauchy}")
    # past gamma = 80 the distances grow on this mesh; recorded, not asserted
    beyond = {
        f"{a:g}-{b:g}": d for d, a, b in zip(dist, gammas, gammas[1:]) if b > CAUCHY_GAMMA_MAX
    }
    return problems, {"cauchy_distances_past_gamma_80": beyond}


def check_eps_study(out: str, prefix: str) -> tuple[list[str], dict]:
    rows = _rows(os.path.join(out, f"{prefix}_eps.csv"))
    problems = []
    if not rows or any(r["ok"] != "1" for r in rows):
        problems.append(f"eps entries not all ok: {[r['ok'] for r in rows]}")
        return problems, {}
    dist = [float(r["distance"]) for r in rows]
    activations = [int(r["cutoff_activations"]) for r in rows]
    if not _strictly_decreasing(dist):
        problems.append(f"eps distances not strictly decreasing: {dist}")
    if any(activations):
        problems.append(f"cutoff activations {activations}, expected none")
    return problems, {}


def check_growth_2d(out: str, prefix: str) -> tuple[list[str], dict]:
    problems = []
    mass = [float(r["mass"]) for r in _rows(os.path.join(out, f"{prefix}_timeseries.csv"))]
    if not mass or not all(math.isfinite(m) and m > 0.0 for m in mass):
        problems.append(f"mass not finite and positive: {mass}")
    for name in ("initial", "final"):
        rows = len(_rows(os.path.join(out, f"{prefix}_{name}.csv")))
        if rows != 128 * 128:
            problems.append(f"{name} snapshot has {rows} rows, expected {128 * 128}")
    return problems, {}


@dataclass(frozen=True)
class Workload:
    subcommand: str
    base_config: str                 # file name under configs/
    check: Callable[[str, str], tuple[list[str], dict]]
    overrides: dict = field(default_factory=dict)


WORKLOADS = {
    # the paper's stiff limit: 1D Newton, tridiagonal solves, ledger and
    # Cauchy distances over eight histories; no CG and no rejected attempts
    "sweep_stiff": Workload(
        "sweep", "sweep.cfg", check_sweep_stiff, {"sweep.gammas": "5,10,20,40,80,160,320,640"}
    ),
    # the regularized path, where the fraction budget rejects most attempts
    "eps_study": Workload("eps-study", "eps_study.cfg", check_eps_study),
    # the only 2D linear-algebra path (CG) and the largest snapshots
    "growth_2d": Workload(
        "run",
        "growth_1d.cfg",
        check_growth_2d,
        {
            "grid.dim": "2",
            "grid.cells_x": "128",
            "grid.cells_y": "128",
            "grid.extent_y": "1.0",
            "initial.center_y": "0.5",
            "time.T_final": "0.1",
        },
    ),
}


def check_outputs(workload: Workload, out: str, prefix: str) -> tuple[list[str], dict]:
    """Problems found in a run's CSVs (empty when it passed), plus findings."""
    try:
        return workload.check(out, prefix)
    except (OSError, KeyError, ValueError) as exc:
        return [f"cannot read outputs: {exc!r}"], {}
