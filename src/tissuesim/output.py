"""CSV serialization of snapshots, timeseries and campaign reports.

Every file is written by one table writer: a small ``# key = value``
preamble, a header naming the columns in a fixed order, and one line per
row, with LF line endings.  ``fmt`` formats every cell: None as an empty
cell, text as it is, a bool as 1 or 0, an int in decimal and any other
number in 17-significant-digit scientific notation, so that two identical
runs produce byte-identical files and golden-file diffs stay meaningful.
Writes go to a temporary name in the target directory and are renamed into
place; no output file is ever left half-written.

Snapshots, the largest files, have their float cells formatted by a numpy
kernel in blocks of cells rather than by ``fmt`` one at a time.  It finds
each value's 17-digit decimal significand exactly with integer arithmetic
(in the spirit of Ryu, Adams 2018) and writes the same bytes as ``fmt``;
the few values it cannot round from its 64 fraction bits, exact ties among
them, and NaNs and infinities go through ``fmt``.  Its lookup tables are
built by the first snapshot write, not at import.
"""

from __future__ import annotations

import dataclasses
import functools
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

    Every preamble value and row cell goes through ``fmt``, and each line
    is written as UTF-8 bytes to a binary file; a row given as ``bytes``
    is written as it is, so it may hold several lines.
    """
    lines = itertools.chain(
        (f"# {key} = {fmt(value)}".encode() for key, value in preamble.items()),
        [",".join(columns).encode()],
        (row if isinstance(row, bytes) else ",".join(map(fmt, row)).encode() for row in rows),
    )
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as f:
            for line in lines:
                f.write(line)
                f.write(b"\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _grid_descriptor(grid: Grid) -> str:
    cells = "x".join(str(c) for c in grid.cells)
    extents = "x".join(repr(e) for e in grid.extents)
    return f"{grid.dim}D {cells} cells on {extents}"


#: the decimal exponents the kernel's tables cover: those of every finite
#: double (-324..308), and one more each way
_E_MIN, _E_MAX = -325, 309
_LOW32 = 0xFFFFFFFF


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """The kernel's tables, built by the first snapshot write, never at import.

    Entry e - _E_MIN of ``limbs`` (one row per 32-bit limb, low first) and
    of ``exp2`` is the 96-bit t = round(10^k 2^-s) in [2^95, 2^96) and s,
    for k = 16 - e, so 10^k = t 2^s within 2^-96 relative.  The text tables
    hold ASCII bytes in memory order: ``heads[10 s + d]`` is a space, ``-``
    if s else a space, the digit d and the point; ``digits[i]`` is the four
    digits of i < 10^4, zero-padded; ``exponents[e - _E_MIN]`` is ``e``,
    the sign of e, |e| in three digits or in two after a space, a comma and
    two spaces.
    """
    e = np.arange(_E_MIN, _E_MAX + 1)
    k = 16 - e
    p = np.full(k.size, 10, dtype=object) ** np.abs(k)  # exact integers 10^|k|
    bits = np.frompyfunc(int.bit_length, 1, 1)(p)
    # floor(2^97 10^k / 2^floor(log2 10^k)) in [2^96, 2^97), then halved to nearest
    twice = np.where(k >= 0, (p << 97) >> bits, (np.ones(k.size, dtype=object) << (bits + 96)) // p)
    t = (twice + 1) >> 1
    limbs = np.stack([(t >> shift) & _LOW32 for shift in (0, 32, 64)]).astype(np.uint64)
    exp2 = np.where(k >= 0, bits - 96, -bits - 95).astype(np.int64)

    ascii_digits = np.arange(10, dtype=np.uint8) + ord("0")
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        digits[..., place] = ascii_digits.reshape((10,) + (1,) * (3 - place))
    digits = digits.reshape(10000, 4)
    heads = np.empty((2, 10, 4), np.uint8)
    heads[:] = np.frombuffer(b"  0.", np.uint8)
    heads[1, :, 1] = ord("-")
    heads[:, :, 2] = ascii_digits
    exponents = np.empty((e.size, 8), np.uint8)
    exponents[:] = np.frombuffer(b"e+000,  ", np.uint8)
    exponents[e < 0, 1] = ord("-")
    exponents[:, 2:5] = digits[np.abs(e), 1:]
    exponents[np.abs(e) < 100, 2] = ord(" ")
    tables = (limbs, exp2, heads.view(np.uint32).ravel(), digits.view(np.uint32).ravel(),
              exponents.view(np.uint64).ravel())
    for table in tables:
        table.flags.writeable = False  # every caller shares them
    return tables


def _halves(product: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and the high 32 bits of each uint64."""
    return product & _LOW32, product >> 32


def _scaled(m: np.ndarray, q: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(x 10^(16 - e)) and the 64 bits after its binary point, for x = m 2^q, m < 2^53.

    x 10^(16 - e) = m t 2^(q + s) with t and s from the table; m is shifted
    left so that this is (m t) / 2^99.  c1, c2 and c3 sum the 32-bit halves
    of the partial products at bits 32, 64 and 96, unnormalized; bits below
    32 are never read.  The table's error moves the 64 fraction bits by
    less than 2^25 when e is the decimal exponent of x, and the floor lies
    in [10^16, 10^17) then.
    """
    limbs, exp2 = _format_tables()[:2]
    t0, t1, t2 = limbs.take(e - _E_MIN, axis=1)
    shift = exp2[e - _E_MIN]
    shift += q
    shift += 99
    m0, m1 = _halves(m << shift.view(np.uint64))
    c1 = m0 * t0 >> 32
    lo, c2 = _halves(m0 * t1)
    c1 += lo
    lo, c3 = _halves(m0 * t2)
    c2 += lo
    lo, hi = _halves(m1 * t0)
    c1 += lo
    c2 += hi
    lo, hi = _halves(m1 * t1)
    c2 += lo
    c3 += hi
    lo, hi = _halves(m1 * t2)
    c3 += lo
    fraction = (c1 >> 3) + (c2 << 29) + (c3 << 61)
    c3 += (c2 + (c1 >> 32)) >> 32
    c3 += hi << 32  # now (m t) >> 96, below 2^64
    return c3 >> 3, fraction


def _binary(x: np.ndarray, nonzero: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """m, q and e with |x| = m 2^q exactly, m a 53-bit integer, and e = floor(log10 |x|) or one off.

    Zero and non-finite values are taken as 1.  ``frexp`` splits
    subnormals exactly too.
    """
    a = np.where(nonzero, np.abs(x), 1.0)
    mantissa, q = np.frexp(a)
    mantissa *= 2.0**53
    q -= 53
    return mantissa.astype(np.uint64), q, np.floor(np.log10(a)).astype(np.int64)


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each value's 17-digit significand and decimal exponent, and the indices left to ``fmt``.

    The exponent from ``log10`` is corrected by one where ``_scaled``'s
    floor leaves [10^16, 10^17).  The significand is the floor rounded up
    when the fraction is at least one half, with a carry into the next
    decade.  A fraction within 2^27 of one half, which every exact tie is,
    cannot be rounded from 64 bits; such a value, like a NaN or an
    infinity, is left to ``fmt``.  Zero has significand and exponent 0.
    """
    finite = np.isfinite(x)
    nonzero = finite & (x != 0.0)
    m, q, e = _binary(x, nonzero)
    dec, fraction = _scaled(m, q, e)
    off = np.flatnonzero(dec - 10**16 >= 9 * 10**16)
    if off.size:
        e[off] += np.where(dec[off] < 10**16, -1, 1)
        dec[off], fraction[off] = _scaled(m[off], q[off], e[off])
    fallback = np.flatnonzero(~finite | (fraction - (2**63 - 2**27) <= 2**28))
    dec += fraction >> 63
    carry = dec == 10**17
    dec[carry] = 10**16
    e += carry
    dec *= nonzero
    e *= nonzero
    return dec, e, fallback


def _split(v: np.ndarray, unit: int) -> tuple[np.ndarray, np.ndarray]:
    """``divmod(v, unit)`` of a uint64 array."""
    quotient = v // unit
    return quotient, v - quotient * unit


def _slots(block: np.ndarray) -> np.ndarray:
    """One 32-byte slot per value of the block, in C order, holding its text padded with spaces.

    ``_decimal`` gives each value's digits.  A slot holds sign, lead digit
    and point; four groups of four digits; four spaces; ``e``, the
    exponent and the separator in eight bytes; each part is looked up in a
    table.  A byte no value uses, such as a positive value's sign or the
    exponent's hundreds digit below 100, is a space.  A value left to
    ``fmt`` has its text copied into its slot.
    """
    _, _, heads, digits, exponents = _format_tables()
    x = block.ravel()
    dec, e, fallback = _decimal(x)
    slots = np.empty((x.size, 32), np.uint8)
    words = slots.view(np.uint32)
    lead, rest = _split(dec, 10**16)
    words[:, 0] = heads[lead.view(np.int64) + 10 * np.signbit(x)]
    upper, lower = _split(rest, 10**8)
    for column, group in enumerate(_split(upper, 10**4) + _split(lower, 10**4), start=1):
        words[:, column] = digits[group.view(np.int64)]
    words[:, 5] = 0x20202020  # four spaces
    slots.view(np.uint64)[:, 3] = exponents[e - _E_MIN]
    slots.reshape(*block.shape, 32)[:, -1, 29] = ord("\n")
    for i in fallback:
        slots[i, :29] = np.frombuffer(fmt(x[i]).ljust(29).encode(), np.uint8)
    return slots


def _block_text(block: np.ndarray) -> bytes:
    """``fmt``'s text of every value of a 2D block, as ASCII bytes: cells joined by commas, rows by LF.

    One boolean compress drops the spaces of ``_slots``, and the last LF is
    left to the table writer.
    """
    slots = _slots(block)
    return slots[slots != ord(" ")][:-1].tobytes()


#: cells per block of ``write_snapshot``.  The kernel's temporaries grow with
#: it: for a 2D snapshot (9 columns) the tracemalloc peak of a write is about
#: 0.41 MB at 256 cells and 0.80 MB at 512, which writes about 20 % faster
_SNAPSHOT_BLOCK = 256


def write_snapshot(path: str, state: State, cfg_hash: str) -> None:
    """One row per cell, in C order of the cell index: coordinates, n, n1, n2, c, d, p, v.

    Every value's text is ``fmt``'s, byte for byte, but a numpy kernel
    (``_block_text``) writes it without a Python format per value: each
    value's correctly rounded 17-digit significand comes from integer
    arithmetic against a table of 96-bit powers of ten, and its text from
    4-digit lookups into fixed 32-byte slots.  NaNs, infinities and the
    values whose fraction lies within 2^27 of one half at the 17th digit
    (every exact decimal tie among them) go through ``fmt`` itself; none
    of the 128 x 128 growth run's values does.  The kernel's tables are built by
    the first call, not at import.  The kernel takes a block of cells at a
    time: each block's columns are formed from slices of the state's
    arrays, and its lines go to the table writer as one row of bytes before
    the next block is formed, so no whole-grid temporary is made.
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
            yield _block_text(np.stack(fields, axis=1))

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
