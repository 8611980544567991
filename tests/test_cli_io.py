import os
import re
from pathlib import Path

import numpy as np
import pytest

from tissuesim.cli import main
from tissuesim.config import default_config, parse_config
from tissuesim.diagnostics import EnergyLedger, make_ledger_row
from tissuesim.grid import Grid
from tissuesim.harness import make_params, run
from tissuesim.output import fmt, write_snapshot, write_timeseries
from tissuesim.stepper import State


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


class TestWriters:
    def make_state(self, cells=4):
        grid = Grid(dim=1, extents=(1.0,), cells=(cells,))
        n = np.linspace(0.1, 0.7, cells)
        c = np.linspace(0.0, 0.6, cells)
        d = np.full(cells, 0.4)
        return State(t=0.25, grid=grid, n=n, c=c, d=d, gamma=4.0)

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
        # formatting each distinct bit pattern of a block once must give
        # fmt's text for every value, in C cell order, byte for byte; 1100
        # and 41 x 29 cells span two blocks.  The special values include
        # both zeros, nan with two payloads and both signs, infinities and
        # subnormals; n is constant on most cells and repeats values of c
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
                  d=np.full(cells, 0.5), gamma=3.0)
        path = tmp_path / "snap.csv"
        with np.errstate(invalid="ignore", over="ignore"):
            write_snapshot(str(path), s, "abc123")
            fields = [*grid.coordinate_fields(), s.n, s.n1, s.n2, s.c, s.d, s.p, s.v]
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

    def test_empty_history_header_only(self, tmp_path):
        path = str(tmp_path / "ts.csv")
        write_timeseries(path, EnergyLedger(rows=[]), "abc123")
        lines = Path(path).read_text().splitlines()
        assert lines[0].startswith("# config")
        assert lines[1].startswith("t,mass")
        assert len(lines) == 2

    def test_full_precision_and_lf_endings(self, tmp_path):
        s = self.make_state(4)
        params = make_params(default_config())
        ledger = EnergyLedger(rows=[make_ledger_row(s, params, 0.05, 0.01)])
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
            res = run(cfg)
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

    def test_check_and_run_agree_on_an_inadmissible_sigma(self, tmp_path, capsys):
        # G0 = 1 and T = 0.05 admit sigma < e^-0.05 = 0.951 only
        cfg_path = write_cfg(
            tmp_path, BASE_TEXT + f"model.sigma = 0.99\noutput.dir = {tmp_path}/out\n"
        )
        assert main(["check", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "H7      not checkable (sigma = 0.99 not admissible)" in out
        assert main(["run", "--config", cfg_path]) == 0
        err = capsys.readouterr().err
        assert "warning: sigma = 0.99 is not admissible (needs < e^(-G0 T) = 0.951)" in err

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

    @pytest.mark.parametrize("sub, line", [
        ("sweep", "[FAILED: {}]\n"),
        ("eps-study", "solver failure: reference run failed: {}\n"),
        ("bench", "solver failure: benchmark run at N = 40 failed: {}\n"),
    ], ids=list(CAMPAIGN_TEXTS))
    def test_campaign_failure_names_the_violated_bound(self, tmp_path, capsys, sub, line):
        text = CAMPAIGN_TEXTS[sub] + f"output.dir = {tmp_path}/out\ndebug.inject = c_bounds\n"
        main([sub, "--config", write_cfg(tmp_path, text)])
        captured = capsys.readouterr()
        bound = "fraction upper bound at cell (0,) by 5.000e-01"
        assert line.format(bound) in captured.out + captured.err
