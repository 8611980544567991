"""CSV serialization of snapshots, timeseries and campaign reports.

Every file is written by one table writer: a small ``# key = value``
preamble, a header naming the columns in a fixed order, and one line per
row, with LF line endings.  ``fmt`` formats every cell: None as an empty
cell, text as it is, a bool as 1 or 0, an int in decimal and any other
number in 17-significant-digit scientific notation, so that two identical
runs produce byte-identical files and golden-file diffs stay meaningful.
Writes go to a temporary name in the target directory and are renamed into
place; no output file is ever left half-written.
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
    """One CSV cell: None empty, text as it is, bool 1/0, int in decimal, a float to 17 digits."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.16e}"


def _write_table(path: str, preamble: dict, columns: Iterable[str], rows: Iterable) -> None:
    """The one table writer: ``# key = value`` per preamble item, the header, then each row.

    Every preamble value and row cell goes through ``fmt``; a row of one
    text cell passes through as it is, so it may hold several lines.
    """
    lines = itertools.chain(
        (f"# {key} = {fmt(value)}" for key, value in preamble.items()),
        [",".join(columns)],
        (",".join(map(fmt, row)) for row in rows),
    )
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
    columns are formed from slices of the state's arrays, and its lines go
    to the table writer as one text cell before the next block is
    formatted, so no whole-grid temporary is made.
    """
    grid = state.grid
    preamble = {"time": state.t, "gamma": state.params.gamma, "grid": _grid_descriptor(grid),
                "config": cfg_hash}
    columns = ("x", "y")[: grid.dim] + ("n", "n1", "n2", "c", "d", "p", "v")
    centers = [grid.centers(axis) for axis in range(grid.dim)]
    n, c, d, v = (x.ravel() for x in (state.n, state.c, state.d, state.v))

    def blocks():
        for start in range(0, grid.num_cells, _SNAPSHOT_BLOCK):
            stop = min(start + _SNAPSHOT_BLOCK, grid.num_cells)
            index = np.unravel_index(np.arange(start, stop), grid.shape)
            nb, cb = n[start:stop], c[start:stop]
            # n1 = (1 - c) n, n2 = c n and p = (n+)^gamma
            fields = [x[i] for x, i in zip(centers, index)] + [
                nb, (1.0 - cb) * nb, cb * nb, cb, d[start:stop],
                positive_power(nb, state.params.gamma), v[start:stop],
            ]
            block = np.stack(fields, axis=1)
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            text = ("%.16e\n" * bits.size) % tuple(bits.view(float).tolist())
            values = np.array(text.split("\n")[:-1], dtype=object)[inverse.reshape(block.shape)]
            yield ("\n".join(map(",".join, values.tolist())),)

    _write_table(path, preamble, columns, blocks())


def write_timeseries(path: str, ledger: EnergyLedger, cfg_hash: str) -> None:
    rows = ([getattr(row, col) for col in _LEDGER_COLUMNS] for row in ledger.rows)
    _write_table(path, {"config": cfg_hash}, _LEDGER_COLUMNS, rows)


def write_sweep_report(path: str, report: SweepReport) -> None:
    """Per-gamma aggregates plus the consecutive-pair v distances.

    The two distances of row i pair different runs: ``fraction_gap`` is the
    c distance between gamma_{i-1} and gamma_i (nan on the first row), while
    ``dist_to_next`` is the v distance between gamma_i and gamma_{i+1} (nan on
    the last row).

    Wall-clock timings are intentionally not serialized (they would break
    byte-identical reruns); callers print them to the console instead.
    """
    columns = ("gamma", "config", "ok", "h7_pass", "h7_ratio", "energy", "excess_max",
               "seg_integral", "comp_integral", "fraction_gap", "dist_to_next")
    distances = itertools.chain(report.distances, itertools.repeat(float("nan")))
    rows = ([e.gamma, e.run.cfg_hash, e.run.ok, e.run.h7_pass, e.run.h7_ratio, e.energy,
             e.excess_max, e.seg_integral, e.comp_integral, e.fraction_gap, dist]
            for e, dist in zip(report.entries, distances))
    _write_table(path, {"tau": report.tau, "delta": report.delta}, columns, rows)


def write_eps_report(path: str, entries: list[EpsEntry]) -> None:
    columns = ("eps", "config", "ok", "distance", "cutoff_activations", "min_density", "barrier")
    rows = ([e.eps, e.run.cfg_hash, e.run.ok, e.distance, e.run.total_cutoff_activations,
             e.min_density, e.barrier] for e in entries)
    _write_table(path, {}, columns, rows)


def write_bench_report(path: str, report: BenchReport) -> None:
    columns = ("cells", "h", "l1_error", "rel_error", "order", "mass_drift")
    rows = ([r.cells, r.h, r.l1_error, r.rel_error, r.order, r.mass_drift] for r in report.rows)
    _write_table(path, {"gamma": report.gamma}, columns, rows)
