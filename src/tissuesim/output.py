"""CSV serialization of snapshots, timeseries and campaign reports.

All files are plain CSV with a small ``# key = value`` preamble, columns in a
fixed order, 17-significant-digit scientific notation and LF line endings, so
that two identical runs produce byte-identical files and golden-file diffs
stay meaningful.  Writes go to a temporary name in the target directory and
are renamed into place; no output file is ever left half-written.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import tempfile
from collections.abc import Iterable

import numpy as np

from .diagnostics import EnergyLedger, LedgerRow
from .grid import Grid
from .harness import BenchReport, EpsEntry, SweepReport
from .stepper import State, positive_power

_LEDGER_COLUMNS = tuple(f.name for f in dataclasses.fields(LedgerRow))


def fmt(x) -> str:
    """Full-precision scientific notation (17 significant digits)."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.16e}"


def _atomic_write(path: str, lines: Iterable[str]) -> None:
    """Write each of ``lines`` followed by LF; a line may itself span several rows."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w", newline="\n") as f:
            for line in lines:
                f.write(line)
                f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _grid_descriptor(grid: Grid) -> str:
    cells = "x".join(str(c) for c in grid.cells)
    extents = "x".join(repr(e) for e in grid.extents)
    return f"{grid.dim}D {cells} cells on {extents}"


#: cells formatted per block by ``write_snapshot``; bounds its temporary strings
_SNAPSHOT_BLOCK = 256


def write_snapshot(path: str, state: State, cfg_hash: str) -> None:
    """One row per cell, in C order of the cell index: coordinates, n, n1, n2, c, d, p, v.

    Values are formatted a block of cells at a time, each distinct bit
    pattern of the block once, with the ``%.16e`` format that ``fmt`` uses,
    so the text is the same as ``fmt`` on every value; comparing bit
    patterns keeps -0.0, NaN payloads and subnormals apart.  Each block's
    columns are formed from slices of the state's arrays and written before
    the next block is formatted, so no whole-grid temporary is made.
    """
    grid = state.grid
    coord_names = ("x", "y")[: grid.dim]
    header = [
        f"# time = {fmt(state.t)}",
        f"# gamma = {fmt(state.gamma)}",
        f"# grid = {_grid_descriptor(grid)}",
        f"# config = {cfg_hash}",
        ",".join(coord_names + ("n", "n1", "n2", "c", "d", "p", "v")),
    ]
    centers = [grid.centers(axis) for axis in range(grid.dim)]
    n, c, d, v = (x.ravel() for x in (state.n, state.c, state.d, state.v))

    def blocks():
        for start in range(0, grid.num_cells, _SNAPSHOT_BLOCK):
            stop = min(start + _SNAPSHOT_BLOCK, grid.num_cells)
            index = np.unravel_index(np.arange(start, stop), grid.shape)
            nb, cb = n[start:stop], c[start:stop]
            # n1 = (1 - c) n, n2 = c n and p = (n+)^gamma
            columns = [x[i] for x, i in zip(centers, index)] + [
                nb, (1.0 - cb) * nb, cb * nb, cb, d[start:stop],
                positive_power(nb, state.gamma), v[start:stop],
            ]
            block = np.stack(columns, axis=1)
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            text = ("%.16e\n" * bits.size) % tuple(bits.view(float).tolist())
            values = np.array(text.split("\n")[:-1], dtype=object)[inverse.reshape(block.shape)]
            yield "\n".join(map(",".join, values.tolist()))

    _atomic_write(path, itertools.chain(header, blocks()))


def write_timeseries(path: str, ledger: EnergyLedger, cfg_hash: str) -> None:
    lines = [f"# config = {cfg_hash}", ",".join(_LEDGER_COLUMNS)]
    for row in ledger.rows:
        lines.append(",".join(fmt(getattr(row, col)) for col in _LEDGER_COLUMNS))
    _atomic_write(path, lines)


def write_sweep_report(path: str, report: SweepReport) -> None:
    """Per-gamma aggregates plus the consecutive-pair v distances.

    The two distances of row i pair different runs: ``fraction_gap`` is the
    c distance between gamma_{i-1} and gamma_i (nan on the first row), while
    ``dist_to_next`` is the v distance between gamma_i and gamma_{i+1} (nan on
    the last row).

    Wall-clock timings are intentionally not serialized (they would break
    byte-identical reruns); callers print them to the console instead.
    """
    lines = [
        f"# tau = {fmt(report.tau)}",
        f"# delta = {fmt(report.delta)}",
        "gamma,config,ok,h7_pass,h7_ratio,energy,excess_max,seg_integral,"
        "comp_integral,fraction_gap,dist_to_next",
    ]
    for i, e in enumerate(report.entries):
        dist = report.distances[i] if i < len(report.distances) else float("nan")
        h7 = "" if e.run.h7_pass is None else ("1" if e.run.h7_pass else "0")
        lines.append(",".join([
            fmt(e.gamma), e.run.cfg_hash, "1" if e.run.ok else "0", h7, fmt(e.run.h7_ratio),
            fmt(e.energy), fmt(e.excess_max), fmt(e.seg_integral),
            fmt(e.comp_integral), fmt(e.fraction_gap), fmt(dist),
        ]))
    _atomic_write(path, lines)


def write_eps_report(path: str, entries: list[EpsEntry]) -> None:
    lines = ["eps,config,ok,distance,cutoff_activations,min_density,barrier"]
    for e in entries:
        lines.append(",".join([
            fmt(e.eps), e.run.cfg_hash, "1" if e.run.ok else "0", fmt(e.distance),
            str(e.run.total_cutoff_activations), fmt(e.min_density), fmt(e.barrier),
        ]))
    _atomic_write(path, lines)


def write_bench_report(path: str, report: BenchReport) -> None:
    lines = [
        f"# gamma = {fmt(report.gamma)}",
        "cells,h,l1_error,rel_error,order,mass_drift",
    ]
    for r in report.rows:
        lines.append(",".join([
            str(r.cells), fmt(r.h), fmt(r.l1_error), fmt(r.rel_error),
            fmt(r.order), fmt(r.mass_drift),
        ]))
    _atomic_write(path, lines)
