import gc
import math
import time
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tissuesim import harness, linalg, stepper
from tissuesim.config import parse_config
from tissuesim.errors import ConfigError
from tissuesim.diagnostics import (
    FieldSamples,
    aronson_benilan_gap,
    check_all,
    excess_measure,
    free_boundary,
    grad_squared_integral,
    reaction_free,
)
from tissuesim.grid import face_gradient
from tissuesim.model import BOUND_INFLATION
from tissuesim.output import write_snapshot
from tissuesim.harness import (
    barenblatt_benchmark,
    barenblatt_profile,
    eps_study,
    gamma_sweep,
    initial_fields,
    make_params,
    run,
    space_time_distance,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SWEEP_CONFIG = CONFIGS / "sweep.cfg"

INERT_TEXT = """
grid.cells_x = 16
model.G_preset = constant
model.G_alpha = 0.0
model.K1_preset = constant
model.K1_alpha = 0.0
model.K2_preset = constant
model.K2_alpha = 0.0
model.d_b = 0.0
initial.profile = uniform
initial.n0 = 0.4
initial.c0 = 0.0
initial.d0 = 0.0
time.T_final = 0.2
"""

BUMP_TEXT = """
grid.cells_x = 64
model.gamma = 4
initial.profile = bump
initial.n0 = 0.05
initial.height = 0.9
initial.width = 0.4
initial.c0 = 0.2
time.T_final = 0.2
time.snapshot_stride = 4
"""


class TestRun:
    def test_zero_horizon_single_snapshot(self):
        cfg = parse_config(INERT_TEXT.replace("time.T_final = 0.2", "time.T_final = 0.0"))
        states = []
        res = run(cfg, on_state=states.append)
        assert res.ok
        assert len(states) == 1
        assert res.initial_state is res.final_state is states[0]
        assert len(res.ledger.rows) == 1

    def test_inert_run_is_static(self):
        cfg = parse_config(INERT_TEXT)
        res = run(cfg)
        assert res.ok
        first, last = res.initial_state, res.final_state
        assert np.allclose(last.n, first.n, atol=1e-13)
        assert np.allclose(last.c, first.c, atol=1e-13)
        assert np.allclose(last.d, first.d, atol=1e-13)
        assert last.t == pytest.approx(0.2)

    def test_snapshots_at_stride_and_final(self):
        # the stride thins the ledger rows; the final state is the last row's
        cfg = parse_config(BUMP_TEXT)
        states = []
        res = run(cfg, on_state=states.append)
        assert res.ok
        assert res.initial_state is states[0] and res.initial_state.t == 0.0
        assert res.final_state is states[-1] and res.final_state.t == pytest.approx(0.2)
        recorded = states[::4] + ([states[-1]] if (len(states) - 1) % 4 else [])
        assert [row.t for row in res.ledger.rows] == [s.t for s in recorded]
        assert len(res.ledger.rows) >= 3

    def test_run_keeps_no_intermediate_state(self):
        refs = []
        res = run(parse_config(BUMP_TEXT), on_state=lambda s: refs.append(weakref.ref(s)))
        gc.collect()
        alive = [r() for r in refs if r() is not None]
        assert len(refs) > 4 + 1   # longer than one stride
        assert len(alive) == 2
        assert alive[0] is res.initial_state and alive[1] is res.final_state

    def test_stopped_run_final_state_is_last_ledger_row(self):
        # the fault stops the run after step 1, before the first stride-5
        # row; the state it stopped at still gets a row, with step 1's report
        text = BUMP_TEXT.replace("time.snapshot_stride = 4", "time.snapshot_stride = 5")
        res = run(parse_config(text + "debug.inject = c_bounds\n"))
        assert res.violations and res.steps == 1
        assert len(res.ledger.rows) == 2
        assert res.final_state.t == res.ledger.rows[-1].t > 0.0
        assert res.final_state.c[0] == 1.5
        assert res.ledger.rows[-1].newton_iters == res.newton_iters
        assert res.ledger.rows[-1].dt_used == res.final_state.t

    def test_max_steps_admits_exactly_the_needed_steps(self):
        needed = run(parse_config(BUMP_TEXT)).steps
        res = run(parse_config(BUMP_TEXT + f"time.max_steps = {needed}\n"))
        assert res.ok and res.steps == needed
        assert res.final_state.t == pytest.approx(0.2)

    def test_max_steps_stops_one_short(self):
        # one step short of T_final: the run fails after max_steps steps and
        # its outputs end at the state it reached
        full = []
        run(parse_config(BUMP_TEXT), on_state=full.append)
        needed = len(full) - 1
        states = []
        res = run(parse_config(BUMP_TEXT + f"time.max_steps = {needed - 1}\n"),
                  on_state=states.append)
        assert "max_steps" in res.failure
        assert res.steps == needed - 1 and len(states) == needed
        assert res.final_state is states[-1]
        assert res.ledger.rows[-1].t == res.final_state.t == full[-2].t < 0.2
        assert np.array_equal(res.final_state.n, full[-2].n)

    @pytest.mark.parametrize("overrides, steps", [
        ({"time__T_final": 0.05}, 48),
        ({"time__T_final": 0.0}, 0),
        # the fault breaks the fraction bound after step 1, which stops the run
        ({"debug__inject": "c_bounds"}, 1),
    ])
    def test_invariants_checked_once_per_state(self, monkeypatch, overrides, steps):
        # every state, the initial one included, is checked once, against the
        # bound data the run reports
        checked = []

        def spy(state, consts, tolcfg):
            checked.append((state, tolcfg))
            return check_all(state, consts, tolcfg)

        monkeypatch.setattr(harness, "check_all", spy)
        cfg = parse_config((CONFIGS / "growth_1d.cfg").read_text()).with_overrides(**overrides)
        res = run(cfg)
        assert res.steps == steps
        assert len(checked) == steps + 1
        assert checked[0][0] is res.initial_state and checked[-1][0] is res.final_state
        assert all(tolcfg is res.bounds for _, tolcfg in checked)

    def test_h7_recorded(self):
        cfg = parse_config(BUMP_TEXT)
        res = run(cfg)
        assert res.h7_pass is not None
        assert math.isfinite(res.h7_ratio)

    def test_gamma_lift_applied(self):
        cfg = parse_config(BUMP_TEXT + "initial.lift = gamma\n")
        res = run(cfg)
        n0 = res.initial_state.n
        assert n0.min() >= 1.0 / 4.0 - 1e-12  # background 0.05 is below the 1/gamma lift

    def test_every_state_carries_the_resolved_params(self):
        # with eps > 0, ell_cut = 0 asks set_up for the inactive-cutoff bound
        # max(L, e^(2 M0 T) max n0), slightly inflated; the initial state and
        # every accepted state carry the one params object with that level
        cfg = parse_config(BUMP_TEXT + "model.eps_reg = 0.05\ninitial.lift = eps\n")
        assert cfg["model.ell_cut"] == 0.0
        states = []
        res = run(cfg, on_state=states.append)
        assert res.ok and len(states) == res.steps + 1 > 1
        consts, params = res.consts, states[0].params
        bound = max(consts.L, math.exp(2.0 * consts.M0 * params.T_final) * states[0].n.max())
        assert params.ell_cut == bound * (1.0 + BOUND_INFLATION) > 0.0
        assert params == replace(make_params(cfg), ell_cut=params.ell_cut)
        assert states[0] is res.initial_state
        assert all(s.params is params for s in states + [res.final_state])

    def test_performance_smoke(self):
        cfg = parse_config(BUMP_TEXT.replace("grid.cells_x = 64", "grid.cells_x = 200"))
        t0 = time.perf_counter()
        res = run(cfg)
        assert res.ok
        assert time.perf_counter() - t0 < 10.0


@pytest.fixture
def no_run(monkeypatch):
    """Fail the test if a campaign starts a run."""
    def fail(*args, **kwargs):
        pytest.fail("a run started before the campaign's arguments were checked")

    monkeypatch.setattr(harness, "run", fail)


class TestSweep:
    def test_duplicate_gammas_give_zero_distance(self):
        cfg = parse_config(BUMP_TEXT + "sweep.gammas = 5,5\nsweep.tau = 0.02\n")
        report = gamma_sweep(cfg)
        assert report.distances[0] == 0.0
        assert report.entries[0].energy == report.entries[1].energy

    # the schema checks the gamma list, so no sweep can be built on a bad one
    GAMMAS_RULE = "sweep.gammas: needs at least 2 values, each >= 1, nondecreasing"

    def test_requires_two_gammas(self):
        with pytest.raises(ConfigError, match=self.GAMMAS_RULE):
            parse_config(BUMP_TEXT).with_overrides(sweep__gammas=(5.0,))

    def test_rejects_decreasing(self):
        with pytest.raises(ConfigError, match=self.GAMMAS_RULE):
            parse_config(BUMP_TEXT).with_overrides(sweep__gammas=(10.0, 5.0))

    def test_zero_horizon_is_rejected_before_any_run(self, no_run):
        # the schema keeps a given tau below T_final; at T_final = 0 the
        # automatic tau 0.1 T_final is 0, which only the sweep can reject
        cfg = parse_config(BUMP_TEXT.replace("time.T_final = 0.2", "time.T_final = 0.0"))
        with pytest.raises(ConfigError, match=r"sweep.tau: must lie in \(0, T_final\)"):
            gamma_sweep(cfg)

    def test_rejects_gamma_below_one(self):
        with pytest.raises(ConfigError, match=self.GAMMAS_RULE):
            parse_config(BUMP_TEXT).with_overrides(sweep__gammas=(0.5, 2.0))

    def test_zero_tau_means_a_tenth_of_the_horizon(self):
        cfg = parse_config(INERT_TEXT + "sweep.gammas = 2,3\n")
        assert cfg["sweep.tau"] == 0.0
        assert gamma_sweep(cfg).tau == pytest.approx(0.02)

    def test_delta_follows_the_base_config(self):
        # the reported delta is the one the excess measure {n >= 1 + delta} used
        shipped = parse_config(SWEEP_CONFIG.read_text())
        excess = {}
        for delta in (0.05, 0.4):
            base = shipped.with_overrides(
                initial__height=1.5, time__T_final=0.01, time__snapshot_stride=1,
                sweep__delta=delta, sweep__tau=0.001,
            )
            report = gamma_sweep(base.with_overrides(sweep__gammas=(1.0, 2.0)))
            assert report.delta == delta
            for entry in report.entries:
                states = []
                run(base.with_overrides(model__gamma=entry.gamma, initial__lift="gamma"),
                    on_state=states.append)
                late = [s for s in states if s.t >= 0.001 - 1e-14]
                assert entry.excess_max == max(excess_measure(s, delta) for s in late)
            excess[delta] = [e.excess_max for e in report.entries]
        assert excess[0.05] == pytest.approx([0.805, 0.28], abs=1e-12)
        assert excess[0.4] == pytest.approx([0.355, 0.14], abs=1e-12)

    def test_v_is_computed_at_most_once_per_state(self, monkeypatch, tmp_path):
        # the ledger rows, the window integrals, the samples and a snapshot
        # write of one state all read the one v it computed
        powers = []   # (base, exponent) of every stepper power; keeps the bases alive
        states = []
        real_power, real_run = stepper.positive_power, harness.run

        def power_spy(x, e):
            powers.append((x, e))
            return real_power(x, e)

        def run_spy(cfg, permissive=False, on_state=None):
            def both(state):
                states.append(state)
                on_state(state)

            return real_run(cfg, permissive, both)

        monkeypatch.setattr(stepper, "positive_power", power_spy)
        monkeypatch.setattr(harness, "run", run_spy)
        cfg = parse_config(BUMP_TEXT + "sweep.gammas = 4,8\nsweep.tau = 0.02\n")
        report = gamma_sweep(cfg)
        assert all(e.run.ok for e in report.entries)
        write_snapshot(str(tmp_path / "last.csv"), states[-1], "x")
        computed = Counter((id(x), e) for x, e in powers)
        per_state = [computed[id(s.n), s.params.gamma + 1.0] for s in states]
        assert len(states) > 2 * 10
        assert per_state[-1] == 1 and max(per_state) == 1

    def test_report_has_one_entry_per_gamma(self):
        cfg = parse_config(BUMP_TEXT + "sweep.gammas = 4,8,16\nsweep.tau = 0.02\n")
        report = gamma_sweep(cfg)
        assert [e.gamma for e in report.entries] == [4.0, 8.0, 16.0]
        assert len(report.distances) == 2
        assert all(e.run.ledger.rows for e in report.entries)


class TestEpsStudy:
    # the schema checks the eps list, so no study can be built on a bad one
    EPS_RULE = "eps.values: needs at least 1 value, each > 0, nonincreasing"

    def test_rejects_increasing(self):
        with pytest.raises(ConfigError, match=self.EPS_RULE):
            parse_config(BUMP_TEXT).with_overrides(eps__values=(0.01, 0.1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError, match=self.EPS_RULE):
            parse_config(BUMP_TEXT).with_overrides(eps__values=(0.1, 0.0))

    def test_rejects_empty(self):
        with pytest.raises(ConfigError, match=self.EPS_RULE):
            parse_config(BUMP_TEXT).with_overrides(eps__values="")

    def test_single_eps_runs(self):
        cfg = parse_config(BUMP_TEXT.replace("grid.cells_x = 64", "grid.cells_x = 32"))
        entries = eps_study(cfg.with_overrides(eps__values=(0.05,)))
        assert len(entries) == 1
        assert entries[0].run.ok
        assert entries[0].distance > 0.0

    def test_rejected_attempts_total(self, monkeypatch):
        # the spy hands step 5x the suggested dt, so the fraction budget
        # rejects attempts; the run sums the accepted steps' retries
        reports = []
        real_step = harness.step

        def spy(state, consts, settings, dt_hint):
            hint = min(5.0 * dt_hint, state.params.T_final - state.t)
            new_state, report = real_step(state, consts, settings, hint)
            reports.append(report)
            return new_state, report

        monkeypatch.setattr(harness, "step", spy)
        res = run(parse_config(BUMP_TEXT + "model.eps_reg = 0.05\ninitial.lift = eps\n"))
        assert res.ok
        assert len(reports) == res.steps
        assert res.rejected_attempts == sum(r.retries for r in reports) > 0

    def test_duplicated_eps_gives_identical_distances(self):
        cfg = parse_config(BUMP_TEXT.replace("grid.cells_x = 64", "grid.cells_x = 32"))
        entries = eps_study(cfg.with_overrides(eps__values=(0.05, 0.05)))
        assert entries[0].distance == entries[1].distance


class TestBenchmark:
    BENCH_TEXT = """
grid.extent_x = 4.0
grid.cells_x = 50
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
time.T_final = 0.25
bench.grids = 50,100
"""

    def test_error_decreases_with_refinement(self):
        cfg = parse_config(self.BENCH_TEXT)
        rep = barenblatt_benchmark(cfg)
        assert rep.rows[1].l1_error < rep.rows[0].l1_error

    def test_rejects_nonincreasing_grids(self):
        with pytest.raises(ConfigError, match="line 16: bench.grids: needs at least 1 grid"):
            parse_config(self.BENCH_TEXT.replace("bench.grids = 50,100", "bench.grids = 100,50"))

    def test_rejects_reactions(self, no_run):
        cfg = parse_config(self.BENCH_TEXT.replace("model.G_alpha = 0.0", "model.G_alpha = 1.0"))
        with pytest.raises(ConfigError, match="reaction-free"):
            barenblatt_benchmark(cfg)

    def test_rejects_other_profiles(self, no_run):
        cfg = parse_config(self.BENCH_TEXT.replace("profile = barenblatt", "profile = bump"))
        with pytest.raises(ConfigError, match="initial.profile: the benchmark needs barenblatt"):
            barenblatt_benchmark(cfg)

    def test_profile_mass_independent_of_age(self):
        # the self-similar profile conserves mass in its own time variable
        x = np.linspace(-3, 3, 4001)
        dx = x[1] - x[0]
        # sampling error at the sqrt-shaped front limits the comparison
        m1 = barenblatt_profile(x, 0.1, 2.0, 0.4).sum() * dx
        m2 = barenblatt_profile(x, 0.5, 2.0, 0.4).sum() * dx
        assert m1 == pytest.approx(m2, rel=1e-4)

    def test_profile_satisfies_pme_finite_differences(self):
        # independent check that du/ds = (u^m)_xx for the closed form
        gamma, const = 2.0, 0.4
        m = gamma + 1.0
        x = np.linspace(-2, 2, 2001)
        dx = x[1] - x[0]
        s, ds = 0.3, 1e-6
        u0 = barenblatt_profile(x, s - ds, gamma, const)
        u1 = barenblatt_profile(x, s + ds, gamma, const)
        dudt = (u1 - u0) / (2 * ds)
        u = barenblatt_profile(x, s, gamma, const)
        um = u**m
        lap = np.zeros_like(u)
        lap[1:-1] = (um[:-2] - 2 * um[1:-1] + um[2:]) / dx**2
        interior = np.abs(x) < 1.0  # away from the front where u is smooth
        assert np.allclose(dudt[interior], lap[interior], atol=2e-4)

    def test_reaction_free_flag_feeds_monotonicity_gap(self):
        cfg = parse_config(self.BENCH_TEXT)
        params = make_params(cfg)
        states = []
        assert run(cfg, on_state=states.append).ok
        assert reaction_free(params, cfg["initial.c0"])
        assert aronson_benilan_gap(states) > -1.0


def entropy_dissipation(cfg):
    """Trapezoid integral over [0, T] of integral |grad n^((gamma+1)/2)|^2,
    through every accepted state of the run."""
    times, rates = [], []

    def on_state(s):
        half_power = np.maximum(s.n, 0.0) ** ((s.params.gamma + 1.0) / 2.0)
        times.append(s.t)
        rates.append(grad_squared_integral(face_gradient(s.grid, half_power), s.grid.cell_volume))

    assert run(cfg, on_state=on_state).ok
    return float(np.trapezoid(rates, times))


class TestQuadratureRobustness:
    STRIDES = (1, 10, 50)

    def test_sweep_independent_of_snapshot_stride(self):
        # every time quantity comes from every accepted step, never from the
        # snapshots, so the stride cannot move any of them by a single bit
        shipped = parse_config(SWEEP_CONFIG.read_text())
        fields = ("energy", "seg_integral", "comp_integral", "excess_max", "fraction_gap")
        results = []
        for stride in self.STRIDES:
            base = shipped.with_overrides(time__snapshot_stride=stride)
            report = gamma_sweep(
                base.with_overrides(sweep__gammas=(5.0, 80.0, 640.0), sweep__tau=0.05)
            )
            assert all(e.run.ok for e in report.entries)
            results.append((
                [[getattr(e, name) for name in fields] for e in report.entries],
                report.distances,
            ))
        assert all(np.isfinite(results[0][1]))
        for other in results[1:]:
            assert np.array_equal(np.array(other[0]), np.array(results[0][0]), equal_nan=True)
            assert other[1] == results[0][1]

    def test_eps_study_independent_of_snapshot_stride(self):
        shipped = parse_config((CONFIGS / "eps_study.cfg").read_text())
        results = []
        for stride in self.STRIDES:
            base = shipped.with_overrides(time__snapshot_stride=stride)
            entries = eps_study(base)
            assert all(e.run.ok for e in entries)
            results.append([(e.distance, e.min_density) for e in entries])
        assert results[1] == results[0]
        assert results[2] == results[0]

    def test_entropy_cauchy_under_dt_refinement(self):
        base = parse_config(BUMP_TEXT + "time.dt_max = 0.004\n").with_overrides(
            time__snapshot_stride=2
        )
        halved = base.with_overrides(time__dt_max=0.002)
        e1 = entropy_dissipation(base)
        e2 = entropy_dissipation(halved)
        assert e1 == pytest.approx(e2, rel=0.05)

    def test_entropy_regularized_within_factor_two(self):
        plain = parse_config(BUMP_TEXT)
        reg = plain.with_overrides(model__eps_reg=0.001, initial__lift="eps")
        e_plain = entropy_dissipation(plain)
        e_reg = entropy_dissipation(reg)
        assert 0.5 * e_plain <= e_reg <= 2.0 * e_plain


class TestFreeBoundaryTracking:
    def test_expanding_patch_interface_monotone(self):
        # pure porous-medium spreading: the right-hand front only moves out
        text = """
grid.extent_x = 4.0
grid.cells_x = 200
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
time.T_final = 0.5
time.snapshot_stride = 10
"""
        states = []
        assert run(parse_config(text), on_state=states.append).ok
        threshold = 1e-4
        fronts = []
        for state in states:
            crossings = free_boundary(state, threshold)
            if len(crossings):
                fronts.append(crossings[-1])
        assert len(fronts) >= 4
        assert all(b >= a - 1e-9 for a, b in zip(fronts, fronts[1:]))
        assert fronts[-1] > fronts[0]


class TestTwoDimensional:
    TEXT_2D = """
grid.dim = 2
grid.cells_x = 20
grid.cells_y = 20
model.gamma = 6
initial.profile = bump
initial.n0 = 0.05
initial.height = 1.1
initial.width = 0.4
initial.center = 0.5
initial.center_y = 0.5
initial.c0 = 0.2
initial.lift = gamma
time.T_final = 0.1
time.snapshot_stride = 5
"""

    def test_full_physics_2d_run(self):
        res = run(parse_config(self.TEXT_2D))
        assert res.ok, res.failure or res.violations
        row = res.ledger.rows[-1]
        assert row.c_min >= -1e-12 and row.c_max <= 1.0 + 1e-12
        assert row.d_min >= -1e-10 and row.d_max <= res.consts.L + 1e-10

    def test_mass_conserved_2d_reaction_free(self):
        text = self.TEXT_2D + (
            "model.G_preset = constant\nmodel.G_alpha = 0.0\n"
            "model.K1_preset = constant\nmodel.K1_alpha = 0.0\n"
        )
        text = text.replace("initial.c0 = 0.2", "initial.c0 = 0.0")
        text = text.replace("initial.lift = gamma", "initial.lift = none")
        res = run(parse_config(text))
        assert res.ok
        m0 = res.ledger.rows[0].mass
        mT = res.ledger.rows[-1].mass
        assert abs(mT - m0) <= 1e-11 * m0

    def test_iteration_totals(self, monkeypatch):
        # every density CG iteration of the run plus one per direct nutrient solve
        text = self.TEXT_2D.replace("= 20", "= 16")
        cg_iters, reports = [], []
        pcg, density_solve = linalg.pcg_solve, stepper.density_solve

        def pcg_spy(*args):
            result = pcg(*args)
            cg_iters.append(result.iterations)
            return result

        def density_spy(*args):
            n_new, report = density_solve(*args)
            reports.append(report)
            return n_new, report

        monkeypatch.setattr(linalg, "pcg_solve", pcg_spy)
        monkeypatch.setattr(stepper, "density_solve", density_spy)
        res = run(parse_config(text))
        assert res.ok
        # no attempt was rejected, so every solve belongs to an accepted step
        assert len(reports) == res.steps > 0
        assert res.newton_iters == sum(r.newton_iters for r in reports)
        assert res.linear_iters == sum(cg_iters) + res.steps
        assert sum(cg_iters) > 0

    def test_2d_deterministic(self):
        a = run(parse_config(self.TEXT_2D))
        b = run(parse_config(self.TEXT_2D))
        assert np.array_equal(a.final_state.n, b.final_state.n)


class TestDistances:
    def test_distance_of_run_with_itself_is_zero(self):
        cfg = parse_config(BUMP_TEXT)
        times = np.linspace(0.05, 0.2, 17)
        a, b = FieldSamples(times), FieldSamples(times)
        res = run(cfg, on_state=a.add)
        run(cfg, on_state=b.add)
        d = space_time_distance(times, a.v, b.v, res.final_state.grid.cell_volume)
        assert d == 0.0

    def test_initial_fields_profiles(self):
        cfg = parse_config(BUMP_TEXT)
        params = make_params(cfg)
        from tissuesim.harness import build_grid

        grid = build_grid(cfg)
        n, c, d = initial_fields(cfg, grid, params)
        # the bump center sits on a cell face; the peak sample is just inside
        assert 0.94 < n.max() <= 0.95
        assert np.all(c == 0.2)
        assert np.all(d == 1.0)
