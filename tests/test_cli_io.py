import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tissuesim import harness, output
from tissuesim.cli import main
from tissuesim.config import default_config, parse_config, serialize_config
from tissuesim.diagnostics import EnergyLedger, LedgerRow, make_ledger_row
from tissuesim.errors import ConfigError
from tissuesim.grid import Grid
from tissuesim.harness import (
    BenchReport, BenchRow, EpsEntry, SweepEntry, SweepReport, make_params, run, set_up,
)
from tissuesim.output import (
    fmt, write_bench_report, write_eps_report, write_snapshot, write_sweep_report,
    write_timeseries,
)
from tissuesim.stepper import State, StepReport, positive_power


BASE_TEXT = """
grid.cells_x = 24
model.gamma = 3
initial.profile = bump
initial.n0 = 0.1
initial.height = 0.8
initial.c0 = 0.1
time.T_final = 0.05
time.snapshot_stride = 4
"""

# the three campaigns' configs, each built on BASE_TEXT but the benchmark's
SWEEP_TEXT = BASE_TEXT + "sweep.gammas = 3,6\nsweep.tau = 0.01\nsweep.compare_times = 9\n"
EPS_TEXT = BASE_TEXT.replace("grid.cells_x = 24", "grid.cells_x = 20") + "eps.values = 0.05,0.01\n"
BENCH_TEXT = """
grid.extent_x = 4.0
grid.cells_x = 40
model.gamma = 2
model.G_preset = constant
model.G_alpha = 0.0
model.K1_preset = constant
model.K1_alpha = 0.0
initial.profile = barenblatt
initial.n0 = 0.0
initial.c0 = 0.0
initial.center = 2.0
initial.t0 = 0.1
initial.bb_const = 0.4
time.T_final = 0.2
bench.grids = 40,80
"""
CAMPAIGN_TEXTS = {"sweep": SWEEP_TEXT, "eps-study": EPS_TEXT, "bench": BENCH_TEXT}


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def growth_state():
    """A growth-like 128 x 128 state: the 2D growth data three steps on (t = 0.002)."""
    cfg = parse_config((Path(__file__).parent.parent / "configs" / "growth_1d.cfg").read_text())
    return run(set_up(cfg.with_overrides(**{
        "grid.dim": 2, "grid.cells_x": 128, "grid.cells_y": 128, "grid.extent_y": 1.0,
        "initial.center_y": 0.5, "time.T_final": 0.002,
    }))).final_state


class TestWriters:
    def make_state(self, cells=4):
        grid = Grid(dim=1, extents=(1.0,), cells=(cells,))
        n = np.linspace(0.1, 0.7, cells)
        c = np.linspace(0.0, 0.6, cells)
        d = np.full(cells, 0.4)
        params = make_params(default_config().with_overrides(model__gamma=4.0))
        return State(t=0.25, grid=grid, n=n, c=c, d=d, params=params)

    def test_snapshot_rows_and_species_identity(self, tmp_path):
        s = self.make_state(4)
        path = str(tmp_path / "snap.csv")
        write_snapshot(path, s, "abc123")
        lines = Path(path).read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        header, rows = data[0], data[1:]
        assert header.split(",") == ["x", "n", "n1", "n2", "c", "d", "p", "v"]
        assert len(rows) == 4
        for row in rows:
            vals = dict(zip(header.split(","), map(float, row.split(","))))
            assert vals["n1"] + vals["n2"] == pytest.approx(vals["n"], abs=1e-14)

    @pytest.mark.parametrize("cells", [(20,), (1100,), (41, 29)], ids=["1d", "1d-blocks", "2d"])
    def test_snapshot_matches_cellwise_format(self, tmp_path, cells):
        # the snapshot writer must give fmt's text for every value, in C
        # cell order, byte for byte; 1100 and 41 x 29 cells span two
        # blocks.  The special values include both zeros, nan with two
        # payloads and both signs, infinities and subnormals; n is constant
        # on most cells and repeats values of c
        grid = Grid(dim=len(cells), extents=(1.0,) * len(cells), cells=cells)
        rng = np.random.default_rng(3)
        payload_nan, negative_nan = np.array([0x7FF8000000000001, -0x0008000000000000]).view(float)
        special = np.array([np.nan, payload_nan, negative_nan, np.inf, -np.inf, -0.0, 0.0, -0.0,
                            0.0, 5e-324, -2.5e-310, 5e-324, 1e308])
        c = rng.random(grid.num_cells)
        n = np.full(grid.num_cells, 0.25)
        n[: grid.num_cells // 4] = c[: grid.num_cells // 4]
        n[: special.size] = special
        n[-3:] = (-0.0, 0.0, 5e-324)
        s = State(t=0.125, grid=grid, n=n.reshape(cells), c=c.reshape(cells),
                  d=np.full(cells, 0.5),
                  params=make_params(default_config().with_overrides(model__gamma=3.0)))
        path = tmp_path / "snap.csv"
        with np.errstate(invalid="ignore", over="ignore"):
            write_snapshot(str(path), s, "abc123")
            fields = [*grid.coordinate_fields(), s.n, (1.0 - s.c) * s.n, s.c * s.n, s.c, s.d,
                      positive_power(s.n, s.params.gamma), s.v]
        extents = "x".join(["1.0"] * grid.dim)
        header = [
            "# time = 1.2500000000000000e-01",
            "# gamma = 3.0000000000000000e+00",
            f"# grid = {grid.dim}D {'x'.join(map(str, cells))} cells on {extents}",
            "# config = abc123",
            ",".join(("x", "y")[: grid.dim] + ("n", "n1", "n2", "c", "d", "p", "v")),
        ]
        rows = [",".join(fmt(f[idx]) for f in fields) for idx in np.ndindex(*cells)]
        text = path.read_bytes().decode()
        assert path.read_bytes() == "".join(line + "\n" for line in header + rows).encode()
        for token in ("nan", "-inf", "-0.0000000000000000e+00", "4.9406564584124654e-324"):
            assert token in text

    def test_snapshot_text_of_every_kind_of_double_is_fmt(self, tmp_path):
        # a seeded property test of the snapshot writer: 114 201 drawn values
        # in n, c and d, and the n1, n2, p and v formed from them, each
        # against fmt cell by cell
        rng = np.random.default_rng(32)

        def signed(values):
            return np.concatenate([values, -values])

        def odd(low, high, size):
            return rng.integers(low, high, size) | 1

        sign_bit = np.uint64(1 << 63)
        # random bit patterns over every binade (NaNs and infinities among them)
        patterns = rng.integers(0, 2**64, 60_000, dtype=np.uint64).view(float)
        subnormals = (rng.integers(1, 2**52, 10_000, dtype=np.uint64)
                      | rng.integers(0, 2, 10_000, dtype=np.uint64) * sign_bit).view(float)
        payloads = rng.integers(1, 2**52, 200, dtype=np.uint64) | np.uint64(0x7FF << 52)
        nans = np.concatenate([payloads, payloads | sign_bit]).view(float)
        # 10^k and both neighbours; 14 of these 10^k lie just below 10^k, so
        # their 17-digit significand carries into the next decade
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        assert Fraction(1e-305) < Fraction(1, 10**305) and fmt(1e-305) == "1.0000000000000000e-305"
        neighbours = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        # exact decimal ties: o/4 in [1e15, 2^51), o/8 in [1e14, 1e15) and
        # o/16 in [1e13, 1e14), o odd, end in ...5 at the 18th digit; fmt
        # rounds them half to even
        assert fmt(2000000000000000.25) == "2.0000000000000002e+15"
        ties = np.concatenate([odd(4 * 10**15, 2**53, 5000) / 4, odd(8 * 10**14, 8 * 10**15, 5000) / 8,
                               odd(16 * 10**13, 16 * 10**14, 5000) / 16, [2000000000000000.25]])
        values = np.concatenate([
            patterns, subnormals, nans, signed(neighbours), signed(ties), rng.random(10_000),
            [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.7976931348623157e308],
        ])
        cells = -(-values.size // 3)
        values = rng.permutation(np.resize(values, 3 * cells)).reshape(3, cells)
        assert values.size >= 100_000
        grid = Grid(dim=1, extents=(1.0,), cells=(cells,))
        s = State(t=0.5, grid=grid, n=values[0], c=values[1], d=values[2],
                  params=make_params(default_config().with_overrides(model__gamma=3.0)))
        path = tmp_path / "snap.csv"
        with np.errstate(invalid="ignore", over="ignore"):
            write_snapshot(str(path), s, "abc123")
            fields = [grid.centers(), s.n, (1.0 - s.c) * s.n, s.c * s.n, s.c, s.d,
                      positive_power(s.n, s.params.gamma), s.v]
        rows = [",".join(map(fmt, row)) for row in zip(*(f.tolist() for f in fields))]
        assert path.read_text().splitlines()[5:] == rows

    def test_snapshot_of_a_growth_state_formats_no_cell_alone(self, tmp_path, monkeypatch,
                                                                growth_state):
        # a silent fall back to formatting one value at a time would call
        # fmt per cell; only the preamble's time and gamma may go through it
        calls = []

        def spy(x):
            calls.append(x)
            return fmt(x)

        assert all(np.isfinite(x).all() for x in (growth_state.n, growth_state.c, growth_state.d))
        monkeypatch.setattr(output, "fmt", spy)
        write_snapshot(str(tmp_path / "snap.csv"), growth_state, "abc123")
        assert [x for x in calls if not isinstance(x, str)] == [
            growth_state.t, growth_state.params.gamma,
        ]

    def test_snapshot_of_a_growth_state_stays_within_its_memory(self, tmp_path, growth_state):
        # the writer's temporaries are bounded by its blocks.  When each
        # distinct value of a block was formatted through Python strings, the
        # tracemalloc peak of this write was 505 309 to 505 443 bytes over
        # three writes; the kernel's is about 408 600.  The first write builds
        # the kernel's tables, so it is not the one measured
        path = str(tmp_path / "snap.csv")
        write_snapshot(path, growth_state, "abc123")
        tracemalloc.start()
        try:
            write_snapshot(path, growth_state, "abc123")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 505_309

    def test_import_builds_no_formatter_table(self):
        code = "import tissuesim.cli, tissuesim.output as o; print(o._format_tables.cache_info().currsize)"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True)
        assert out.stdout == "0\n"

    def test_empty_history_header_only(self, tmp_path):
        path = str(tmp_path / "ts.csv")
        write_timeseries(path, EnergyLedger(rows=[]), "abc123")
        lines = Path(path).read_text().splitlines()
        assert lines[0].startswith("# config")
        assert lines[1].startswith("t,mass")
        assert len(lines) == 2

    def test_full_precision_and_lf_endings(self, tmp_path):
        s = self.make_state(4)
        ledger = EnergyLedger(rows=[make_ledger_row(s, 0.05, StepReport(dt_used=0.01))])
        path = str(tmp_path / "ts.csv")
        write_timeseries(path, ledger, "abc123")
        raw = Path(path).read_bytes()
        assert b"\r" not in raw
        text = raw.decode()
        assert "e-" in text or "e+" in text  # scientific notation

    def test_existing_file_replaced_atomically(self, tmp_path):
        path = str(tmp_path / "snap.csv")
        write_snapshot(path, self.make_state(4), "first")
        write_snapshot(path, self.make_state(4), "second")
        assert "second" in Path(path).read_text()
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
        assert leftovers == []


class TestWriterText:
    """Each table writer's exact text for a small record: nan, -0.0, a
    subnormal, an unset h7_pass, a failed run, int columns and a config hash."""

    HASH = "0123456789ab"

    def run_of(self, ok, h7_pass=None, h7_ratio=math.nan, cutoffs=0):
        # the fields of a RunResult that the writers read
        return SimpleNamespace(cfg_hash=self.HASH, ok=ok, h7_pass=h7_pass, h7_ratio=h7_ratio,
                               total_cutoff_activations=cutoffs)

    def written(self, tmp_path, write, *args):
        path = tmp_path / "table.csv"
        write(str(path), *args)
        return path.read_bytes().decode()

    def test_timeseries(self, tmp_path):
        cycle = [0.125, 1.0, -0.0, 2.5e-310, 1e300, math.nan, 0.1]
        values = {name: cycle[i % len(cycle)] for i, name in enumerate(LedgerRow.__dataclass_fields__)}
        values.update(newton_iters=7, clamped_cells=0, cutoff_activations=12)
        text = self.written(tmp_path, write_timeseries, EnergyLedger(rows=[LedgerRow(**values)]),
                            self.HASH)
        cells = ("1.2500000000000000e-01,1.0000000000000000e+00,-0.0000000000000000e+00,"
                 "2.5000000000000171e-310,1.0000000000000001e+300,nan,1.0000000000000001e-01,")
        assert text == (
            "# config = 0123456789ab\n"
            "t,mass,n_min,n_max,c_min,c_max,d_min,d_max,v_sq,grad_v_sq,t_v_sq,t_grad_v_sq,"
            "entropy_rate,excess,segregation,comp_resid,comp_t2,dt_used,newton_iters,"
            "clamped_cells,cutoff_activations\n"
            + cells * 2 + "1.2500000000000000e-01,1.0000000000000000e+00,"
            "-0.0000000000000000e+00,2.5000000000000171e-310,7,0,12\n"
        )

    def test_sweep_report(self, tmp_path):
        report = SweepReport(tau=0.05, delta=0.1, distances=[0.0625], entries=[
            SweepEntry(gamma=5.0, run=self.run_of(False), energy=0.25, excess_max=0.0,
                       seg_integral=math.nan, comp_integral=1e-20, fraction_gap=math.nan),
            SweepEntry(gamma=40.0, run=self.run_of(True, True, 0.5), energy=1.0 / 3.0,
                       excess_max=-0.0, seg_integral=2.0, comp_integral=3e-5, fraction_gap=0.125),
        ])
        assert self.written(tmp_path, write_sweep_report, report) == (
            "# tau = 5.0000000000000003e-02\n"
            "# delta = 1.0000000000000001e-01\n"
            "gamma,config,ok,h7_pass,h7_ratio,energy,excess_max,seg_integral,comp_integral,"
            "fraction_gap,dist_to_next\n"
            "5.0000000000000000e+00,0123456789ab,0,,nan,2.5000000000000000e-01,"
            "0.0000000000000000e+00,nan,9.9999999999999995e-21,nan,6.2500000000000000e-02\n"
            "4.0000000000000000e+01,0123456789ab,1,1,5.0000000000000000e-01,"
            "3.3333333333333331e-01,-0.0000000000000000e+00,2.0000000000000000e+00,"
            "3.0000000000000001e-05,1.2500000000000000e-01,nan\n"
        )

    def test_eps_report(self, tmp_path):
        entries = [
            EpsEntry(eps=0.1, run=self.run_of(False, cutoffs=3), distance=math.nan,
                     min_density=0.0, barrier=2.5),
            EpsEntry(eps=0.01, run=self.run_of(True), distance=1e-3, min_density=1e-14,
                     barrier=math.nan),
        ]
        assert self.written(tmp_path, write_eps_report, entries) == (
            "eps,config,ok,distance,cutoff_activations,min_density,barrier\n"
            "1.0000000000000001e-01,0123456789ab,0,nan,3,0.0000000000000000e+00,"
            "2.5000000000000000e+00\n"
            "1.0000000000000000e-02,0123456789ab,1,1.0000000000000000e-03,0,"
            "1.0000000000000000e-14,nan\n"
        )

    def test_bench_report(self, tmp_path):
        report = BenchReport(gamma=2.0, rows=[
            BenchRow(cells=100, run=self.run_of(False), h=0.04, l1_error=math.nan,
                     rel_error=math.nan, order=math.nan, mass_drift=math.nan),
            BenchRow(cells=200, run=self.run_of(True), h=0.02, l1_error=1e-3, rel_error=2e-3,
                     order=1.5, mass_drift=0.0),
        ])
        assert self.written(tmp_path, write_bench_report, report) == (
            "# gamma = 2.0000000000000000e+00\n"
            "cells,h,l1_error,rel_error,order,mass_drift\n"
            "100,4.0000000000000001e-02,nan,nan,nan,nan\n"
            "200,2.0000000000000000e-02,1.0000000000000000e-03,2.0000000000000000e-03,"
            "1.5000000000000000e+00,0.0000000000000000e+00\n"
        )

    def test_fmt_cells(self):
        assert [fmt(x) for x in (None, "abc", True, False, 12, 0.5)] == [
            "", "abc", "1", "0", "12", "5.0000000000000000e-01"]


class TestDeterminism:
    def test_sweep_report_byte_identical(self, tmp_path):
        from tissuesim.harness import gamma_sweep
        from tissuesim.output import write_sweep_report

        cfg = parse_config(SWEEP_TEXT)
        paths = []
        for name in ("s1.csv", "s2.csv"):
            report = gamma_sweep(cfg)
            path = tmp_path / name
            write_sweep_report(str(path), report)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_repeated_runs_byte_identical(self, tmp_path):
        cfg = parse_config(BASE_TEXT)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            res = run(set_up(cfg))
            from tissuesim.output import write_snapshot as ws, write_timeseries as wt
            wt(str(out / "ts.csv"), res.ledger, res.cfg_hash)
            ws(str(out / "final.csv"), res.final_state, res.cfg_hash)
        assert (out_a / "ts.csv").read_bytes() == (out_b / "ts.csv").read_bytes()
        assert (out_a / "final.csv").read_bytes() == (out_b / "final.csv").read_bytes()


class TestCli:
    def test_check_prints_constants(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, BASE_TEXT)
        code = main(["check", "--config", cfg_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "L " in out and "G0" in out and "M0" in out and "H7" in out

    @pytest.mark.parametrize("text, warned, h7", [
        # G0 = 1 and T = 0.05 admit sigma < e^-0.05 = 0.951 only
        (BASE_TEXT + "model.sigma = 0.99\n",
         "warning: H7 not checkable (sigma = 0.99 not admissible)",
         "H7      not checkable (sigma = 0.99 not admissible)"),
        # every cell of a uniform n0 = 1 lies above sigma: ratio e^0.05
        (BASE_TEXT.replace("= bump", "= uniform").replace("n0 = 0.1", "n0 = 1"),
         "warning: H7 FAIL (sigma = 0.475615, ratio = 1.05127)",
         "H7      FAIL (sigma = 0.475615, ratio = 1.05127)"),
        # a given cutoff level below max(L, e^(2 M0 T) max n0)
        (BASE_TEXT + "model.eps_reg = 0.01\ninitial.lift = eps\nmodel.ell_cut = 0.6\n",
         "warning: cutoff level 0.6 is below the inactive-cutoff bound",
         "H7      pass"),
    ], ids=["inadmissible_sigma", "h7_failure", "low_cutoff"])
    def test_check_prints_every_warning_run_prints(self, tmp_path, capsys, text, warned, h7):
        cfg_path = write_cfg(tmp_path, text + f"output.dir = {tmp_path}/out\n")
        assert main(["check", "--config", cfg_path]) == 0
        out, check_err = capsys.readouterr()
        assert h7 in out
        assert main(["run", "--config", cfg_path]) == 0
        run_warnings = [line for line in capsys.readouterr().err.splitlines()
                        if line.startswith("warning: ")]
        assert any(line.startswith(warned) for line in run_warnings)
        assert run_warnings == [line for line in check_err.splitlines()
                                if line.startswith("warning: ")]

    # constant G = 1000 over T = 1: G0 T = M0 T = 1000
    STIFF_GROWTH_TEXT = (BASE_TEXT.replace("time.T_final = 0.05", "time.T_final = 1")
                         + "model.G_preset = constant\nmodel.G_alpha = 1000\n")

    def test_check_names_an_underflowing_automatic_sigma(self, tmp_path, capsys):
        # e^(-1000) underflows to 0, and with it the automatic sigma 0.5 e^(-G0 T)
        assert main(["check", "--config", write_cfg(tmp_path, self.STIFF_GROWTH_TEXT)]) == 0
        out, err = capsys.readouterr()
        assert err == "warning: H7 not checkable (e^(-G0 T) underflows to 0 at G0 T = 1000)\n"
        assert "H7      not checkable (e^(-G0 T) underflows to 0 at G0 T = 1000)\n" in out

    GROWTH_1D = parse_config((Path(__file__).parent.parent / "configs" / "growth_1d.cfg").read_text())
    CONSTANT_G = {"model.G_preset": "constant", "time.T_final": 1}

    # growth_1d.cfg with overrides: set-ups whose e^(rate T) bound factors
    # overflow or underflow still get one H7 text, on stdout and, unless it
    # is a pass, as the warning
    @pytest.mark.parametrize("overrides, h7", [
        # e^(G0 T) = e^720 in the allowance overflows, while e^(-G0 T) is subnormal
        ({**CONSTANT_G, "model.G_alpha": 720}, "FAIL (sigma = 1.01612e-313, ratio = inf)"),
        # e^(-G0 T) = 4.9e-324 is not 0, but the automatic sigma, half of it, is
        ({**CONSTANT_G, "model.G_alpha": 744.5},
         "not checkable (0.5 e^(-G0 T) underflows to 0 at G0 T = 744.5)"),
        # e^(G0 T) max n0 overflows although e^(G0 T) alone does not
        ({"model.G_alpha": 700, "initial.n0": 1e300}, "FAIL (sigma = 4.9648e-153, ratio = inf)"),
        # e^(-G0 T) = e^750 overflows, and the automatic sigma is the largest float
        ({"model.G_preset": "constant", "model.G_alpha": -1500},
         "pass (sigma = 1.79769e+308, ratio = 0)"),
    ], ids=["allowance_factor_overflow", "sigma_rounds_to_zero", "allowance_overflow",
            "negative_growth"])
    def test_check_gives_an_extreme_set_up_one_h7_text(self, tmp_path, capsys, overrides, h7):
        text = serialize_config(self.GROWTH_1D.with_overrides(**overrides))
        assert main(["check", "--config", write_cfg(tmp_path, text)]) == 0
        out, err = capsys.readouterr()
        assert f"\nH7      {h7}\n" in out
        assert err == ("" if h7.startswith("pass") else f"warning: H7 {h7}\n")

    @pytest.mark.parametrize("sigma, h7", [
        (0, "pass (sigma = 1.79769e+308, ratio = 0)"),
        (1e300, "pass (sigma = 1e+300, ratio = 0)"),
    ], ids=["automatic", "given"])
    def test_check_passes_h7_where_every_finite_sigma_is_admissible(
        self, tmp_path, capsys, sigma, h7
    ):
        # G0 T = -750: e^(-G0 T) overflows, so every finite sigma lies below
        # it; the automatic sigma, whose 0.5 e^(-G0 T) overflows too, gets a
        # verdict as a given one does, and neither warns
        cfg = self.GROWTH_1D.with_overrides(
            model__G_preset="constant", model__G_alpha=-1500, model__sigma=sigma)
        assert main(["check", "--config", write_cfg(tmp_path, serialize_config(cfg))]) == 0
        out, err = capsys.readouterr()
        assert f"\nH7      {h7}\n" in out
        assert err == ""

    # values around where e^x over- and underflows (x = 709.8 and -745.1), and the extremes
    EXTREMES = (0, 1e-300, 0.5, 1, 700, 709.9, 720, 744.5, 745, 750, 1e300,
                -1e-300, -1, -750, -1500, -1e300)
    DRAWN_KEYS = ("model.G_alpha", "model.D", "model.a", "model.psi_alpha", "model.d_b",
                  "initial.n0", "time.T_final", "model.sigma", "model.eps_reg", "model.gamma")

    def test_check_exits_0_or_4_on_every_extreme_config(self, tmp_path, capsys):
        # a fixed draw of 200 schema-valid configs on 16 cells; an uncaught
        # exception, or a numpy warning (an error under pytest), fails the test
        rng = random.Random(30)
        base = self.GROWTH_1D.with_overrides(grid__cells_x=16)
        path, codes = tmp_path / "case.cfg", []
        while len(codes) < 200:
            keys = rng.sample(self.DRAWN_KEYS, rng.randint(1, 5))
            overrides = {key: rng.choice(self.EXTREMES) for key in keys}
            overrides["model.G_preset"] = rng.choice(("linear", "saturating", "constant"))
            try:
                cfg = base.with_overrides(**overrides)
            except ConfigError:
                continue
            path.write_text(serialize_config(cfg))
            codes.append(main(["check", "--config", str(path)]))
        capsys.readouterr()
        assert set(codes) == {0, 4}

    def test_eps_study_exits_on_a_set_up_error_before_the_reference_steps(
        self, tmp_path, capsys, monkeypatch
    ):
        # each eps run's inactive-cutoff bound e^(2 M0 T) max n0 overflows;
        # the eps = 0 reference, which has no such bound, would march for minutes
        def no_step(*args):
            raise AssertionError("the eps = 0 reference took a step")

        monkeypatch.setattr(harness, "step", no_step)
        text = self.STIFF_GROWTH_TEXT + f"eps.values = 0.01\noutput.dir = {tmp_path}/out\n"
        assert main(["eps-study", "--config", write_cfg(tmp_path, text)]) == 4
        assert ("config error: the inactive-cutoff bound e^(2 M0 T) max n0 overflows at "
                "M0 T = 1000") in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_missing_config_flag_is_config_error(self, capsys):
        code = main(["run"])
        err = capsys.readouterr().err
        assert code == 4
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate", "--config", "x"]) == 4

    def test_bad_config_file_reports_all_errors(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "model.gamma = 0.5\nmodel.gama = 2\n")
        code = main(["run", "--config", path])
        err = capsys.readouterr().err
        assert code == 4
        assert "gamma must be >= 1" in err
        assert "did you mean" in err

    @pytest.mark.parametrize("text, named", [
        ("model.G_alpha = nan\n", "model.G_alpha: must be a finite number"),
        ("model.gamma = inf\n", "model.gamma: must be a finite number"),
        ("time.newton_tol = inf\n", "time.newton_tol: must be a finite number"),
        ("initial.center = nan\n", "initial.center: must be a finite number"),
        # finite data whose rate K1(L) = 1e309 overflows
        ("model.K1_alpha = 1e308\nmodel.d_b = 10\n", "rate K1 is not finite"),
        # finite data whose viscous cutoff bound e^(2 M0 T) = e^2000 overflows
        ("model.eps_reg = 0.01\ninitial.lift = eps\nmodel.G_preset = constant\n"
         "model.G_alpha = 1000\ntime.T_final = 1\n",
         "the inactive-cutoff bound e^(2 M0 T) max n0 overflows at M0 T = 1000"),
    ])
    def test_non_finite_input_is_config_error_in_check_and_run(self, tmp_path, capsys, text, named):
        cfg_path = write_cfg(tmp_path, text + f"output.dir = {tmp_path}/out\n")
        for sub in ("check", "run"):
            assert main([sub, "--config", cfg_path]) == 4
            assert named in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("text, named", [
        ("time.T_final = -1\nsweep.tau = 2\n", ["time.T_final: must be >= 0"]),
        ("model.a = abc\nmodel.psi_preset = saturating\nmodel.psi_alpha = 0.5\n",
         ["model.a: expected float"]),
        ("time.T_fianl = 3\ntime.T_final = 0.5\nsweep.tau = 2\n",
         ["unknown key 'time.T_fianl'", "sweep.tau: must lie in (0, T_final) = (0, 0.5)"]),
    ])
    def test_check_reports_each_error_once(self, tmp_path, capsys, text, named):
        assert main(["check", "--config", write_cfg(tmp_path, text)]) == 4
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == len(named)
        for line, expected in zip(errors, named):
            assert expected in line

    def test_overflowing_critical_level_is_named(self, tmp_path, capsys):
        # a / psi_alpha = 1e310 overflows: psi does reach a, at a level past the largest float
        cfg_path = write_cfg(tmp_path, "model.a = 1e300\nmodel.psi_alpha = 1e-10\n"
                             f"output.dir = {tmp_path}/out\n")
        for sub in ("check", "run"):
            assert main([sub, "--config", cfg_path]) == 4
            err = capsys.readouterr().err
            assert "where psi reaches the supply rate a = 1e+300, overflows" in err
            assert "never reaches" not in err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("sub, key, value", [
        ("sweep", "sweep.gammas", "5"),
        ("sweep", "sweep.gammas", "10,5"),
        ("sweep", "sweep.gammas", "0.5,2"),
        ("eps-study", "eps.values", ""),
        ("eps-study", "eps.values", "0.1,0"),
        ("eps-study", "eps.values", "0.01,0.1"),
        ("bench", "bench.grids", ""),
        ("bench", "bench.grids", "200,100"),
        ("bench", "bench.grids", "2,4"),
    ])
    def test_check_and_campaign_reject_the_same_list(self, tmp_path, capsys, sub, key, value):
        text = re.sub(rf"^{re.escape(key)} = .*\n", "", CAMPAIGN_TEXTS[sub], flags=re.M)
        text += f"output.dir = {tmp_path}/out\n{key} = {value}\n"
        cfg_path = write_cfg(tmp_path, text)
        errors = []
        for command in ("check", sub):
            assert main([command, "--config", cfg_path]) == 4
            errors.append(capsys.readouterr().err)
        line = len(text.splitlines())
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"config error: line {line}: {key}: needs at least")
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("argv, message", [
        (["run", "--config"], "--config needs a path"),
        (["run", "--config", "x.cfg", "--out"], "--out needs a directory"),
        (["check", "--gamma", "2", "--gamma"], "--gamma needs a value"),
    ])
    def test_flag_without_its_value(self, capsys, argv, message):
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}\nusage:")

    def test_run_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, BASE_TEXT + f"output.dir = {tmp_path}/out\n")
        code = main(["run", "--config", cfg_path])
        assert code == 0
        assert os.path.exists(tmp_path / "out" / "run_timeseries.csv")
        assert os.path.exists(tmp_path / "out" / "run_final.csv")
        assert os.path.exists(tmp_path / "out" / "run_initial.csv")

    def test_injected_ceiling_violation_exits_2(self, tmp_path, capsys):
        cfg_path = write_cfg(
            tmp_path, BASE_TEXT + f"output.dir = {tmp_path}/out\ndebug.inject = d_ceiling\n"
        )
        code = main(["run", "--config", cfg_path])
        err = capsys.readouterr().err
        assert code == 2
        assert "nutrient ceiling" in err

    def test_stopped_run_writes_the_state_it_stopped_at(self, tmp_path, capsys):
        # growth_1d writes every 5th step; the fault stops the run after step 1
        text = (Path(__file__).parent.parent / "configs" / "growth_1d.cfg").read_text()
        cfg_path = write_cfg(tmp_path, text + "debug.inject = c_bounds\n")
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        final = (tmp_path / "out" / "growth_final.csv").read_text().splitlines()
        t_final = float(final[0].split("=")[1])
        assert t_final > 0.0
        assert f"1 steps to t = {t_final:.6g}," in capsys.readouterr().out
        header = final[4].split(",")
        assert float(final[5].split(",")[header.index("c")]) == 1.5
        series = [l for l in (tmp_path / "out" / "growth_timeseries.csv").read_text().splitlines()
                  if not l.startswith("#")]
        assert len(series) == 3   # header, t = 0 and step 1
        assert float(dict(zip(series[0].split(","), series[-1].split(",")))["t"]) == t_final

    def test_injected_violation_permissive_passes(self, tmp_path, capsys):
        cfg_path = write_cfg(
            tmp_path, BASE_TEXT + f"output.dir = {tmp_path}/out2\ndebug.inject = d_ceiling\n"
        )
        code = main(["run", "--config", cfg_path, "--permissive"])
        assert code == 0

    def test_gamma_override(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, BASE_TEXT)
        code = main(["check", "--config", cfg_path, "--gamma", "12"])
        assert code == 0

    def test_gamma_override_invalid(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, BASE_TEXT)
        code = main(["check", "--config", cfg_path, "--gamma", "0.2"])
        assert code == 4

    def test_nonexistent_config_path(self, capsys):
        assert main(["run", "--config", "/nonexistent/x.cfg"]) == 4

    def test_unwritable_output_is_io_failure(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cfg_path = write_cfg(tmp_path, BASE_TEXT + f"output.dir = {blocker}/sub\n")
        code = main(["run", "--config", cfg_path])
        assert code == 3

    def test_solver_failure_exits_3_with_partial_outputs(self, tmp_path, capsys):
        cfg_path = write_cfg(
            tmp_path,
            BASE_TEXT + f"output.dir = {tmp_path}/pf\ntime.max_steps = 2\n",
        )
        code = main(["run", "--config", cfg_path])
        err = capsys.readouterr().err
        assert code == 3
        assert "solver failure" in err
        # partial outputs are still flushed
        assert os.path.exists(tmp_path / "pf" / "run_timeseries.csv")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, SWEEP_TEXT + f"output.dir = {tmp_path}/sw\n")
        code = main(["sweep", "--config", cfg_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "gamma 3" in out and "gamma 6" in out
        assert os.path.exists(tmp_path / "sw" / "run_sweep.csv")
        assert os.path.exists(tmp_path / "sw" / "run_gamma3_timeseries.csv")

    def test_eps_subcommand(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, EPS_TEXT + f"output.dir = {tmp_path}/ep\n")
        code = main(["eps-study", "--config", cfg_path])
        out = capsys.readouterr().out
        assert code == 0
        assert os.path.exists(tmp_path / "ep" / "run_eps.csv")
        for eps in ("0.05", "0.01"):
            assert re.search(rf"^eps {eps}: .*, \d+ steps, \d+ rejected attempts$", out, re.M)

    def test_bench_subcommand(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, BENCH_TEXT + f"output.dir = {tmp_path}/bb\n")
        code = main(["bench", "--config", cfg_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "order" in out
        assert os.path.exists(tmp_path / "bb" / "run_bench.csv")

    @pytest.mark.parametrize("sub", list(CAMPAIGN_TEXTS))
    def test_campaign_stopped_by_a_violation_exits_3(self, tmp_path, capsys, sub):
        # run exits 2 on an invariant violation; a campaign exits 3 when any
        # of its runs stops, and only run reads --permissive
        text = CAMPAIGN_TEXTS[sub] + f"output.dir = {tmp_path}/out\ndebug.inject = c_bounds\n"
        cfg_path = write_cfg(tmp_path, text)
        assert main([sub, "--config", cfg_path]) == 3
        assert main([sub, "--config", cfg_path, "--permissive"]) == 3

    def test_stopped_bench_grid_writes_its_nan_row(self, tmp_path, capsys):
        # 40 cells need fewer steps than 80; at max_steps between them only the finer grid stops
        shipped = write_cfg(tmp_path, BENCH_TEXT + f"output.dir = {tmp_path}/full\n", "a.cfg")
        assert main(["bench", "--config", shipped]) == 0
        stopped = write_cfg(
            tmp_path, BENCH_TEXT + f"output.dir = {tmp_path}/cut\ntime.max_steps = 8\n", "b.cfg"
        )
        assert main(["bench", "--config", stopped]) == 3
        out = capsys.readouterr().out
        assert "N 80: L1 error nan" in out and "[FAILED: max_steps = 8 reached" in out
        full = (tmp_path / "full" / "run_bench.csv").read_text().splitlines()
        cut = (tmp_path / "cut" / "run_bench.csv").read_text().splitlines()
        assert cut[:3] == full[:3]   # preamble, header and the 40-cell row
        cells, h, *errors = cut[3].split(",")
        assert (cells, h) == tuple(full[3].split(",")[:2])
        assert errors == [fmt(float("nan"))] * 4

    @pytest.mark.parametrize("sub, line", [
        ("sweep", "[FAILED: {}]\n"),
        ("eps-study", "solver failure: reference run failed: {}\n"),
        ("bench", "[FAILED: {}]\n"),
    ], ids=list(CAMPAIGN_TEXTS))
    def test_campaign_failure_names_the_violated_bound(self, tmp_path, capsys, sub, line):
        text = CAMPAIGN_TEXTS[sub] + f"output.dir = {tmp_path}/out\ndebug.inject = c_bounds\n"
        main([sub, "--config", write_cfg(tmp_path, text)])
        captured = capsys.readouterr()
        bound = "fraction upper bound at cell (0,) by 5.000e-01"
        assert line.format(bound) in captured.out + captured.err
