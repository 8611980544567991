import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tissuesim import harness, stepper
from tissuesim.config import parse_config
from tissuesim.diagnostics import check_all
from tissuesim.errors import SolverFailure
from tissuesim.grid import Grid, laplacian_neumann
from tissuesim.harness import (
    barenblatt_benchmark,
    build_grid,
    gamma_sweep,
    initial_fields,
    make_params,
    make_settings,
    run,
    set_up,
)
from tissuesim.model import (
    ModelParams,
    RateFunction,
    RateFunctions,
    derive_constants,
)
from tissuesim.stepper import (
    SolverSettings,
    State,
    density_solve,
    fraction_update,
    nutrient_solve,
    positive_power,
    step,
    suggest_dt,
)

from reference_ops import (
    explicit_fraction,
    integrate,
    jacobi_pcg,
    laplacian_dirichlet,
    symmetrized_newton_matrix,
    tridiag_matvec,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
EPS_STUDY_CONFIG = CONFIGS / "eps_study.cfg"
GROWTH_CONFIG = CONFIGS / "growth_1d.cfg"


def rates(g=("constant", 0.0), k1=("constant", 0.0), k2=("constant", 0.0),
          psi=("linear", 1.0)):
    return RateFunctions(
        G=RateFunction(g[0], alpha=g[1]),
        K1=RateFunction(k1[0], alpha=k1[1]),
        K2=RateFunction(k2[0], alpha=k2[1]),
        psi=RateFunction(psi[0], alpha=psi[1]),
    )


def uniform_state(grid, params, n=1.0, c=0.0, d=0.0, t=0.0):
    return State(
        t=t,
        grid=grid,
        n=np.full(grid.shape, n),
        c=np.full(grid.shape, c),
        d=np.full(grid.shape, d),
        params=params,
    )


def with_params(state, **changes):
    """``state`` under its parameters with ``changes`` applied."""
    return replace(state, params=replace(state.params, **changes))


def small_grid(cells=3, extent=1.0):
    return Grid(dim=1, extents=(extent,), cells=(cells,))


SETTINGS = SolverSettings()


def viscous_only(k1=0.0):
    # uniform n: no transport, and no reactions unless k1 > 0; the implicit
    # viscosity takes no share of the fraction budget, which is dt K1 alone
    grid = small_grid(10)
    params = ModelParams(rates=rates(k1=("constant", k1)), D=1e-30, gamma=2.0, d_b=0.0,
                         T_final=10.0, eps_reg=0.01, ell_cut=10.0)
    params = replace(params, consts=derive_constants(params, np.full(grid.shape, 0.0)))
    return uniform_state(grid, params, n=0.5, c=0.2), params


class TestState:
    @pytest.mark.parametrize("name", ["n", "c", "d"])
    def test_mis_shaped_array_rejected(self, name):
        grid = small_grid(8)
        arrays = {"n": np.ones(8), "c": np.zeros(8), "d": np.zeros(8)}
        arrays[name] = np.zeros(7)
        with pytest.raises(ValueError, match=name):
            State(t=0.0, grid=grid, params=ModelParams(rates=rates(), gamma=2.0), **arrays)

    def test_v_is_read_only_and_kept(self):
        s = uniform_state(small_grid(5), ModelParams(rates=rates(), gamma=3.0), n=0.5)
        v = s.v
        assert v is s.v
        assert np.array_equal(v, np.full(5, 0.5**4))
        with pytest.raises(ValueError):
            v[0] = 1.0
        with pytest.raises(AttributeError):
            s.v = np.zeros(5)
        assert np.array_equal(s.v, np.full(5, 0.5**4))

    def test_replaced_state_computes_its_own_v(self):
        s = uniform_state(small_grid(5), ModelParams(rates=rates(), gamma=3.0), n=0.5)
        assert s.v[0] == 0.5**4
        moved = replace(s, n=np.full(5, 2.0))
        assert np.array_equal(moved.v, np.full(5, 16.0))


class TestDensitySolve:
    def test_uniform_no_reaction_is_fixed_point(self):
        grid = small_grid(5)
        params = ModelParams(rates=rates(), gamma=2.0, d_b=0.0)
        s = uniform_state(grid, params, n=0.7)
        n_new, report = density_solve(s, 0.1, SETTINGS)
        assert np.allclose(n_new, 0.7, atol=1e-14)
        assert report.newton_iters == 1

    def test_scalar_growth_ode_oracle(self):
        # uniform data kills the Laplacian, each cell is the scalar ODE
        # n' = g n; backward Euler gives n_new = n_old / (1 - g dt)
        g_rate = 0.8
        dt = 0.05
        grid = small_grid(3)
        params = ModelParams(rates=rates(g=("constant", g_rate)), gamma=3.0, d_b=0.0)
        s = uniform_state(grid, params, n=0.5)
        n_new, _ = density_solve(s, dt, SETTINGS)
        oracle = 0.5 / (1.0 - g_rate * dt)
        assert np.allclose(n_new, oracle, rtol=1e-12)

    def test_multistep_growth_tracks_exponential(self):
        g_rate = 1.0
        grid = small_grid(3)
        params = ModelParams(rates=rates(g=("constant", g_rate)), gamma=2.0, d_b=0.0,
                             T_final=1.0)
        s = uniform_state(grid, params, n=0.1)
        dt = 0.005
        while s.t < 1.0 - 1e-12:
            n_new, _ = density_solve(s, dt, SETTINGS)
            s = replace(s, t=s.t + dt, n=n_new)
        exact = 0.1 * math.exp(1.0)
        # backward Euler overshoots growth at O(dt)
        assert s.n[0] == pytest.approx(exact, rel=5e-3)

    def test_mass_conserved_without_reactions(self):
        rng = np.random.default_rng(0)
        grid = small_grid(50)
        params = ModelParams(rates=rates(), gamma=4.0, d_b=0.0)
        n0 = 0.5 + 0.4 * np.sin(2 * np.pi * grid.centers(0)) + 0.05 * rng.random(50)
        s = State(t=0.0, grid=grid, n=n0, c=np.zeros(grid.shape), d=np.zeros(grid.shape),
                  params=params)
        mass0 = integrate(grid, n0)
        n_new, _ = density_solve(s, 0.01, SETTINGS)
        assert abs(integrate(grid, n_new) - mass0) <= 1e-12 * mass0

    def test_nonconvergence_raises(self):
        grid = small_grid(16)
        params = ModelParams(rates=rates(g=("constant", 5.0)), gamma=2.0, d_b=0.0)
        s = uniform_state(grid, params, n=1.0)
        # g*dt > 1 makes backward Euler growth infeasible; Newton cannot converge
        with pytest.raises(SolverFailure):
            density_solve(s, 0.5, SolverSettings(newton_max=8))

    def test_undamped_fallback_counted(self, monkeypatch):
        # an ascent direction on the first iteration defeats all 8 halvings,
        # so the loop falls back to the full step once and then converges
        g_rate, dt = 0.8, 0.05
        grid = small_grid(3)
        params = ModelParams(rates=rates(g=("constant", g_rate)), gamma=3.0, d_b=0.0)
        s = uniform_state(grid, params, n=0.5)
        _, plain = density_solve(s, dt, SETTINGS)
        assert plain.newton_fallbacks == 0

        real = stepper._BandOperator.solve
        calls = []

        def first_flipped(*args):
            delta, lin = real(*args)
            calls.append(delta)
            return (-delta if len(calls) == 1 else delta), lin

        monkeypatch.setattr(stepper._BandOperator, "solve", first_flipped)
        n_new, report = density_solve(s, dt, SETTINGS)
        assert report.newton_fallbacks == 1
        assert np.allclose(n_new, 0.5 / (1.0 - g_rate * dt), rtol=1e-12)

    def growth_setup(self):
        grid = small_grid(3)
        params = ModelParams(rates=rates(g=("constant", 0.8)), gamma=3.0, d_b=0.0, T_final=1.0)
        return uniform_state(grid, params, n=0.5), params

    def test_second_fallback_is_a_solver_failure(self, monkeypatch):
        s, params = self.growth_setup()
        flip_first_directions(monkeypatch, 2)
        with pytest.raises(SolverFailure, match="undamped step twice"):
            density_solve(s, 0.05, SETTINGS)

    def test_step_halves_dt_after_a_second_fallback(self, monkeypatch):
        s, params = self.growth_setup()
        s = with_params(s, consts=derive_constants(params, s.d))
        flip_first_directions(monkeypatch, 2)
        _, report = step(s, SETTINGS, 0.05)
        assert report.retries == 1
        assert report.rejections[0].startswith("density Newton fell back")
        assert report.dt_used == 0.025
        assert report.newton_fallbacks == 0

    def test_blown_up_fallback_is_rejected_at_once(self, monkeypatch):
        # a direction 1000 times the Newton step overshoots at every one of
        # the 8 step lengths, and its full step grows the residual about
        # 1000-fold, past FALLBACK_GROWTH: the first fallback rejects the
        # attempt and names both residuals
        s, params = self.growth_setup()
        real = stepper._BandOperator.solve
        calls = []

        def overshoot(*args):
            delta, lin = real(*args)
            calls.append(delta)
            return 1e3 * delta, lin

        monkeypatch.setattr(stepper._BandOperator, "solve", overshoot)
        with pytest.raises(SolverFailure) as err:
            density_solve(s, 0.05, SETTINGS)
        before, after = map(float, re.fullmatch(
            r"density Newton's undamped step grew the residual from (\S+) to (\S+)", str(err.value)
        ).groups())
        assert after > stepper.FALLBACK_GROWTH * before
        assert len(calls) == 1

    @pytest.mark.parametrize("shape", [(40,), (12, 10)], ids=["1d", "2d"])
    @pytest.mark.parametrize("times_floor", [100.0, 0.5])
    def test_stop_test_against_the_rounding_floor(self, shape, times_floor):
        # newton_tol far below the floor leaves the floor as the only stop
        # test.  dt is scaled so that the first residual, -dt rhs(n_old),
        # is the given multiple of the floor: at 100 times it, Newton must
        # iterate; at half of it, the start is accepted as it is
        s, _ = floor_case(shape, eps=0.05)

        def multiple(dt):
            start = stepper._NewtonSystem(s, dt, 0.0).evaluate(s.n)
            assert start.norm <= stepper.FLOOR_CHECK  # so its floor is formed
            return start.norm / start.floor

        dt = 1e-12 * times_floor / multiple(1e-12)
        assert multiple(dt) == pytest.approx(times_floor, rel=1e-6)
        _, report = density_solve(s, dt, SolverSettings(newton_tol=1e-300))
        assert (report.newton_iters > 1) == (times_floor > 1.0)
        assert report.newton_fallbacks == 0

    @pytest.mark.parametrize("shape, dt", [((400,), 0.05), ((64, 64), 0.5)], ids=["1d", "2d"])
    def test_solve_stalled_at_the_rounding_floor_is_accepted(self, monkeypatch, shape, dt):
        # dt eps / h^2 = 1.6e4 (1D) and 4.1e3 (2D): the residual cannot be
        # evaluated to newton_tol = 1e-10, and the absolute test alone falls
        # back to an undamped step twice.  The floor of the accepted
        # iterate, the last one evaluated, accepts it, with no fallback
        s, params = floor_case(shape, eps=2.0)
        evaluated = evaluations(monkeypatch)
        _, report = density_solve(s, dt, SETTINGS)
        assert report.newton_fallbacks == 0
        assert evaluated[-1].norm == report.newton_residual
        assert SETTINGS.newton_tol < report.newton_residual <= evaluated[-1].floor


def evaluations(monkeypatch):
    """Record every ``_Iterate`` that ``stepper._NewtonSystem.evaluate`` returns, in order."""
    real = stepper._NewtonSystem.evaluate
    seen = []

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(stepper._NewtonSystem, "evaluate", spy)
    return seen


def floor_case(shape, eps):
    """A viscous bump on a 1D or 2D unit grid, the data of the rounding-floor tests."""
    grid = Grid(dim=len(shape), extents=(1.0,) * len(shape), cells=shape)
    r2 = sum((x - 0.5) ** 2 for x in grid.coordinate_fields())
    params = ModelParams(
        rates=rates(g=("linear", 1.0), k1=("linear", 0.5), k2=("constant", 0.5)),
        D=1.0, gamma=3.0, d_b=1.0, eps_reg=eps, ell_cut=10.0,
    )
    s = State(t=0.0, grid=grid, n=eps + 0.05 + 0.9 * np.exp(-30 * r2),
              c=np.full(grid.shape, 0.2), d=np.full(grid.shape, 0.9), params=params)
    return s, params


def flip_first_directions(monkeypatch, count):
    """Reverse the first ``count`` Newton directions, turning each into an ascent direction."""
    calls = []

    def flipping(real):
        def flipped(*args):
            delta, lin = real(*args)
            calls.append(delta)
            return (-delta if len(calls) <= count else delta), lin

        return flipped

    for operator in (stepper._BandOperator, stepper._DensityOperator):
        monkeypatch.setattr(operator, "solve", flipping(operator.solve))


def reference_density_solve(state, dt, settings):
    """The Newton loop that recomputes each residual at its top, kept as the reference.

    It evaluates the right side of an accepted iterate again at the top of
    the next iteration, and of the converged iterate once more for the
    conservative update; ``density_solve`` must give the same bits.
    """
    n_old = state.n
    system = stepper._NewtonSystem(state, dt, 0.0)
    report = stepper.StepReport(dt_used=dt)
    n_k = n_old.copy()
    for it in range(settings.newton_max + 1):
        evaluated = system.evaluate(n_k)
        f = n_k - n_old - dt * evaluated.rhs
        res_norm = float(np.max(np.abs(f)))
        report.newton_iters = it + 1
        report.newton_residual = res_norm
        if res_norm <= settings.newton_tol:
            break
        assert it < settings.newton_max
        a, r = system.jacobian(evaluated)
        delta, _ = system.op.solve(a, r, -f, settings.linear_tol)
        step_len = 1.0
        accepted = None
        for _ in range(8):
            trial = np.maximum(n_k + step_len * delta, 0.0)
            rhs_trial = system.evaluate(trial).rhs
            f_trial = trial - n_old - dt * rhs_trial
            trial_norm = float(np.max(np.abs(f_trial)))
            if math.isfinite(trial_norm) and trial_norm < res_norm:
                accepted = trial
                break
            step_len *= 0.5
        if accepted is None:
            accepted = np.maximum(n_k + delta, 0.0)
        n_k = accepted
    rhs = system.evaluate(n_k).rhs
    return np.maximum(n_old + dt * rhs, 0.0), report


def bump_1d(cells=40, gamma=3.0, eps=0.0, ell=0.0, c_jump=False):
    grid = small_grid(cells)
    x = grid.centers(0)
    params = ModelParams(
        rates=rates(g=("linear", 1.0), k1=("linear", 0.5), k2=("constant", 0.5)),
        D=1.0, gamma=gamma, d_b=1.0, eps_reg=eps, ell_cut=ell,
    )
    c = np.where(x < 0.5, 0.6, 0.2) if c_jump else np.full(cells, 0.2)
    s = State(t=0.0, grid=grid, n=0.05 + eps + 0.9 * np.exp(-30 * (x - 0.5) ** 2),
              c=c, d=np.full(grid.shape, 0.9), params=params)
    return s, params


class TestNewtonLoop:
    @pytest.mark.parametrize("flipped", [0, 1])
    def test_each_iterate_evaluated_once(self, monkeypatch, flipped):
        # one call for the start and one per line-search trial: none for an
        # accepted iterate's residual and none for the conservative update
        s, params = bump_1d()
        flip_first_directions(monkeypatch, flipped)
        evaluated = evaluations(monkeypatch)
        _, report = density_solve(s, 0.01, SETTINGS)
        seen = [it.n for it in evaluated]
        assert report.newton_iters >= 4
        assert report.newton_fallbacks == flipped
        # every direction takes its full step at once, except a flipped one,
        # which tries all 8 step lengths before falling back
        assert len(seen) == report.newton_iters + 7 * flipped
        assert np.array_equal(seen[0], s.n)
        for i, a in enumerate(seen):
            assert not any(np.array_equal(a, b) for b in seen[i + 1:])

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("ell_cut, unclamped", [("0", True), ("0.6", False)],
                             ids=["inactive_cutoff", "low_cutoff"])
    def test_each_evaluation_raises_its_iterate_to_gamma_plus_one_once(
        self, monkeypatch, dim, ell_cut, unclamped
    ):
        # growth_1d with the eps lift: ell_cut = 0 resolves to the inactive
        # bound, and 0.6 lies below it, so the cutoff clamps every iterate.
        # The potential of an iterate is its only power gamma + 1; its
        # residual floor reuses it
        cfg = parse_config(GROWTH_CONFIG.read_text()).with_overrides(
            model__eps_reg=0.01, initial__lift="eps", model__ell_cut=ell_cut)
        if dim == 2:
            cfg = cfg.with_overrides(grid__dim=2, grid__cells_x=16, grid__cells_y=16)
        start = set_up(cfg)
        s = start.initial_state
        params = s.params
        dt = suggest_dt(s, SETTINGS)
        events = []
        real_power = stepper.positive_power

        def power_spy(x, e):
            if e == params.gamma + 1.0:
                events.append("power")
            return real_power(x, e)

        evaluated = evaluations(monkeypatch)
        real_evaluate = stepper._NewtonSystem.evaluate

        def evaluate_spy(*args):
            events.append("evaluate")
            return real_evaluate(*args)

        monkeypatch.setattr(stepper._NewtonSystem, "evaluate", evaluate_spy)
        monkeypatch.setattr(stepper, "positive_power", power_spy)
        _, report = density_solve(s, dt, SolverSettings(newton_tol=0.0))
        assert report.newton_iters > 1
        assert events == ["evaluate", "power"] * len(evaluated)
        assert {it.unclamped for it in evaluated} == {unclamped}
        # with no tolerance the floor stops the solve, formed from the same power
        assert report.newton_residual <= evaluated[-1].floor

    @pytest.mark.parametrize("flipped", [0, 1])
    @pytest.mark.parametrize(
        "eps, ell", [(0.0, 0.0), (0.05, 10.0), (0.05, 0.4)], ids=["plain", "regularized", "clamped"]
    )
    def test_1d_matches_reference_loop_bitwise(self, monkeypatch, eps, ell, flipped):
        s, params = bump_1d(eps=eps, ell=ell, c_jump=eps > 0.0)
        for dt in (0.002, 0.02):
            flip_first_directions(monkeypatch, flipped)
            n_new, report = density_solve(s, dt, SETTINGS)
            monkeypatch.undo()
            flip_first_directions(monkeypatch, flipped)
            n_ref, ref = reference_density_solve(s, dt, SETTINGS)
            monkeypatch.undo()
            assert np.array_equal(n_new, n_ref)
            assert report.newton_iters == ref.newton_iters > 1
            assert report.newton_residual == ref.newton_residual
            assert report.newton_fallbacks == flipped

    def state_2d(self):
        # h_x = 1/12 differs from h_y = 0.07
        grid = Grid(dim=2, extents=(1.0, 0.7), cells=(12, 10))
        x, y = np.meshgrid(grid.centers(0), grid.centers(1), indexing="ij")
        n0 = 0.2 + 0.9 * np.exp(-((x - 0.45) ** 2 + (y - 0.4) ** 2) / 0.05)
        params = ModelParams(rates=rates(g=("linear", 1.0)), D=1.0, gamma=3.0, d_b=1.0)
        s = State(t=0.0, grid=grid, n=n0, c=np.where(x > 0.5, 0.5, 0.2),
                  d=np.full(grid.shape, 0.9), params=params)
        return s, params

    def dense_newton(self, s, dt, settings):
        """Undamped Newton with every system solved by dense elimination."""
        grid = s.grid
        n_old = s.n
        system = stepper._NewtonSystem(s, dt, 0.0)
        lap = np.column_stack([
            laplacian_neumann(grid, e.reshape(grid.shape)).ravel()
            for e in np.eye(grid.num_cells)
        ])
        n_k = n_old.copy()
        for _ in range(settings.newton_max):
            evaluated = system.evaluate(n_k)
            f = n_k - n_old - dt * evaluated.rhs
            if np.max(np.abs(f)) <= settings.newton_tol:
                break
            a, r = system.jacobian(evaluated)
            jac = np.eye(grid.num_cells) - dt * (lap * a.ravel() + np.diag(r.ravel()))
            n_k = n_k + np.linalg.solve(jac, -f.ravel()).reshape(grid.shape)
        rhs = system.evaluate(n_k).rhs
        return np.maximum(n_old + dt * rhs, 0.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_record_and_one_operator_per_solve(self, monkeypatch, dim):
        # every Newton system of a solve goes through the one operator its record built
        s = bump_1d()[0] if dim == 1 else self.state_2d()[0]
        built = []
        for cls in (stepper._NewtonSystem, stepper._BandOperator, stepper._DensityOperator):
            def counted(obj, *args, init=cls.__init__, name=cls.__name__):
                built.append(name)
                init(obj, *args)

            monkeypatch.setattr(cls, "__init__", counted)
        for _ in range(2):
            _, report = density_solve(s, 0.01, SETTINGS)
            assert report.newton_iters > 2
        operator = "_BandOperator" if dim == 1 else "_DensityOperator"
        assert built == ["_NewtonSystem", operator] * 2

    @pytest.mark.parametrize("linear_tol", [1e-10, 1e-5])
    def test_2d_forcing_term(self, monkeypatch, linear_tol):
        s, params = self.state_2d()
        settings = SolverSettings(linear_tol=linear_tol)
        res_norms, tols = [], []
        solve_system = stepper._DensityOperator.solve

        def system_spy(op, a, r, rhs, tol):
            res_norms.append(float(np.max(np.abs(rhs))))
            tols.append(tol)
            return solve_system(op, a, r, rhs, tol)

        monkeypatch.setattr(stepper._DensityOperator, "solve", system_spy)
        safeguard = 0.5 * settings.newton_tol
        for dt in (0.01, 0.012):
            res_norms.clear()
            tols.clear()
            n_new, report = density_solve(s, dt, settings)
            assert len(tols) == len(res_norms) == report.newton_iters - 1
            assert tols == [max(linear_tol, min(0.1, max(f, safeguard / f))) for f in res_norms]
            # the cap and the residual itself occur
            assert tols[0] == 0.1 and linear_tol < tols[-2] < 0.1
            if dt == 0.01:
                # the last residual, 8.7e-6, lies above sqrt(newton_tol / 2): the
                # safeguard is idle, and the looser floor binds
                assert (tols[-1] == linear_tol) == (linear_tol == 1e-5)
            else:
                # the last residual, 9.0e-10, is solved no further than newton_tol needs
                assert tols[-1] == safeguard / res_norms[-1] > max(linear_tol, res_norms[-1])
            assert report.newton_residual <= settings.newton_tol
            assert report.newton_fallbacks == 0
            ref = self.dense_newton(s, dt, settings)
            assert np.max(np.abs(n_new - ref)) <= 1e-9 * np.max(np.abs(ref))


class TestDensityJacobian:
    def test_vacuum_cells_get_the_same_rate_on_both_paths(self):
        # the clamp path (ell = 0.4 < max n) and the no-clamp path (ell = 10)
        # must agree wherever no clamp acts, vacuum cells included; d = 0.25
        # lies inside both bands, so G(cutoff(d)) = 0.25 on both
        grid = small_grid(6)
        n = np.array([0.0, 0.0, 0.5, 1.0, 0.5, 0.0])
        r_at = {}
        for ell in (10.0, 0.4):
            params = ModelParams(rates=rates(g=("linear", 1.0)), D=1.0, gamma=2.0, d_b=1.0,
                                 eps_reg=0.01, ell_cut=ell)
            s = State(t=0.0, grid=grid, n=n, c=np.full(grid.shape, 0.5),
                      d=np.full(grid.shape, 0.25),
                      params=params)
            system = stepper._NewtonSystem(s, 0.01, 0.0)
            evaluated = system.evaluate(n)
            assert evaluated.unclamped == (ell == 10.0)
            _, r_at[ell] = system.jacobian(evaluated)
        vacuum = n == 0.0
        assert np.array_equal(r_at[10.0][vacuum], np.full(3, 0.25 - 0.5))
        assert np.array_equal(r_at[0.4][vacuum], r_at[10.0][vacuum])


POWER_EXPONENTS = [1.0, 1.5, 3.0, 6.0, 81.0, 161.0, 320.5, 641.0]


def underflow_floor(e):
    """The value below which (x+)^e is under 2^-1100, or the smallest subnormal."""
    return 2.0 ** -min(1100.0 / e, 1074.0)


def power_inputs(e, shape, below):
    """Random values in [floor, 2], plus, with ``below``, every special value.

    The specials are 0, -0.0, negatives, nan, +-inf, subnormals and the
    neighbours of the underflow floor; without ``below`` only +inf, the
    floor itself and its upper neighbour join the random values, so the
    minimum stays at the floor.
    """
    rng = np.random.default_rng(int(e * 10))
    floor = underflow_floor(e)
    x = rng.uniform(floor, 2.0, shape).ravel()
    special = [np.inf, floor, np.nextafter(floor, np.inf)]
    if below:
        special += [0.0, -0.0, -1.5, -np.inf, np.nan, 5e-324, 2.2e-310, 1e-300,
                    np.nextafter(floor, 0.0), 0.5 * floor]
    x[: len(special)] = special
    rng.shuffle(x)
    return x.reshape(shape), floor


class TestPositivePower:
    @pytest.mark.parametrize("shape", [(400,), (23, 17)], ids=["1d", "2d"])
    @pytest.mark.parametrize("below", [False, True], ids=["fast", "masked"])
    @pytest.mark.parametrize("e", POWER_EXPONENTS)
    def test_bitwise_equal_to_clamped_pow(self, e, shape, below):
        x, floor = power_inputs(e, shape, below)
        assert (x.min() >= floor) != below
        with np.errstate(invalid="ignore"):
            expected = np.maximum(x, 0.0) ** e
        got = positive_power(x, e)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        assert np.array_equal(np.isnan(got), np.isnan(x))


def reference_newton_tridiag(grid, a, r, dt):
    """The 1D Newton matrix in band form, its diagonal built with a degree array."""
    h2 = grid.h[0] ** 2
    nc = grid.cells[0]
    deg = np.full(nc, 2.0)
    deg[0] = deg[-1] = 1.0
    diag = 1.0 + dt * deg * a / h2 - dt * r
    return -dt * a[:-1] / h2, diag, -dt * a[1:] / h2


class TestNewtonSystem1D:
    @pytest.mark.parametrize("cells", [3, 7, 400])
    def test_tridiag_matches_reference_bitwise(self, monkeypatch, cells):
        grid = Grid(dim=1, extents=(1.3,), cells=(cells,))
        rng = np.random.default_rng(cells)
        a = rng.uniform(0.0, 3.0, cells)
        a[::3] = 0.0   # vacuum cells, whose couplings are -0.0
        r = rng.uniform(-1.0, 1.0, cells)
        rhs = rng.standard_normal(cells)
        seen = []
        real = stepper.linalg.thomas_solve

        def spy(lower, diag, upper, b):
            seen.append((lower, diag, upper))
            return real(lower, diag, upper, b)

        monkeypatch.setattr(stepper.linalg, "thomas_solve", spy)
        for dt in (1e-3, 0.07):
            delta, lin = stepper._BandOperator(grid, dt).solve(a, r, rhs, 1e-10)
            assert lin == 1
            m = seen[-1]
            for got, want in zip(m, reference_newton_tridiag(grid, a, r, dt)):
                assert got.tobytes() == want.tobytes()
            assert np.max(np.abs(tridiag_matvec(*m, delta) - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def deleted_1d_newton_solve(grid, a, r, dt, rhs):
    """The 1D Newton solve as it was assembled for each system before ``_BandOperator``."""
    h2 = grid.h[0] ** 2
    diag = np.full(grid.cells[0], 2.0 * dt)
    diag[0] = diag[-1] = dt
    diag *= a
    diag /= h2
    diag += 1.0
    diag -= dt * r
    w = np.multiply(a, -dt)
    w /= h2
    return stepper.linalg.thomas_solve(w[:-1], diag, w[1:], rhs)


class TestBandOperator:
    @pytest.mark.parametrize("cells", [3, 7, 400])
    def test_solve_matches_the_per_system_assembly_bitwise(self, cells):
        # one operator per dt serves several systems, as in a density solve
        grid = Grid(dim=1, extents=(0.9,), cells=(cells,))
        rng = np.random.default_rng(cells + 1)
        for dt in (1e-3, 0.07):
            op = stepper._BandOperator(grid, dt)
            for _ in range(3):
                a = rng.uniform(0.0, 3.0, cells)
                a[::4] = 0.0
                r = rng.uniform(-1.0, 1.0, cells)
                rhs = rng.standard_normal(cells)
                delta, lin = op.solve(a, r, rhs, 0.1)
                assert lin == 1
                assert delta.tobytes() == deleted_1d_newton_solve(grid, a, r, dt, rhs).tobytes()


def split_colours(op, values):
    """A grid-shaped cell array on the operator's layout, as its (red, black) halves."""
    full = np.zeros(op.t.shape)
    op.cells(full)[...] = values
    return full[0::2].copy(), full[1::2].copy()


def ghost_masks(op):
    """(red, black) masks of the ghost entries of the operator's layout."""
    full = np.ones(op.t.shape, dtype=bool)
    op.cells(full)[...] = False
    return full[0::2], full[1::2]


class TestDensityOperator:
    @staticmethod
    def system(cells, extents, seed=4, dt=0.01):
        grid = Grid(dim=2, extents=extents, cells=cells)
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.05, 3.0, grid.shape)
        r = rng.uniform(-1.0, 1.0, grid.shape)
        op = stepper._DensityOperator(grid, dt)
        op.assemble(a, 1.0 - dt * r)
        return grid, a, r, dt, op

    @staticmethod
    def dense_blocks(grid, a, r, dt, op):
        """The scaled dense matrix's coupling block C (red rows, black columns),
        and the half-length positions of the red and the black cells."""
        m = symmetrized_newton_matrix(grid, a, r, dt)
        inv_sqrt_d = 1.0 / np.sqrt(np.diag(m))
        scaled = inv_sqrt_d[:, None] * m * inv_sqrt_d[None, :]
        i, j = np.indices(grid.shape)
        flat = (i * op.stride + j).ravel()
        red, black = flat % 2 == 0, flat % 2 == 1
        assert np.array_equal(red, ((i + j) % 2 == 0).ravel())
        # no two cells of one colour couple, and the diagonal is one
        for colour in (red, black):
            assert np.allclose(scaled[np.ix_(colour, colour)], np.eye(colour.sum()),
                               rtol=0.0, atol=1e-15)
        return -scaled[np.ix_(red, black)], flat[red] // 2, flat[black] // 2

    # square with h_x = h_y, non-square with h_x != h_y, 3-cell axes, odd ny
    # (row stride ny + 2) and an odd number of layout entries (3x3, 3x7, 7x3)
    GRIDS = [((8, 8), (1.0, 1.0)), ((6, 9), (1.0, 0.7)), ((3, 3), (0.3, 0.9)),
             ((3, 7), (1.0, 1.0)), ((7, 3), (0.5, 2.0))]

    @pytest.mark.parametrize("cells, extents", GRIDS)
    def test_schur_matvec_equals_the_dense_schur_complement(self, cells, extents):
        grid, a, r, dt, op = self.system(cells, extents)
        c, red_at, black_at = self.dense_blocks(grid, a, r, dt, op)
        schur = np.eye(c.shape[1]) - c.T @ c
        assert op.stride % 2 == 1 and op.stride - cells[1] in (1, 2)
        diagonal = np.diag(symmetrized_newton_matrix(grid, a, r, dt)).reshape(cells)
        _, d_black = split_colours(op, diagonal)
        assert np.allclose(op.weights[black_at], d_black[black_at], rtol=1e-14, atol=0.0)
        red_ghost, black_ghost = ghost_masks(op)
        rng = np.random.default_rng(5)
        out = np.full(op.weights.shape, np.nan)
        for _ in range(3):
            _, y = split_colours(op, rng.standard_normal(grid.shape))
            op.matvec(y, out)
            want = schur @ y[black_at]
            assert np.max(np.abs(out[black_at] - want)) <= 1e-14 * np.max(np.abs(want))
            assert np.all(out[black_ghost] == 0.0)
        # the zeros either side of the product buffer stay zero
        q = op.q
        assert np.all(op.product[:q + 1] == 0.0) and np.all(op.product[-(q + 1):] == 0.0)
        assert np.all(op.t[0::2][red_ghost] == 0.0) and np.all(op.t[1::2][black_ghost] == 0.0)

    @pytest.mark.parametrize("cells, extents", GRIDS)
    def test_c_and_its_transpose(self, cells, extents):
        # C against the dense coupling block, and C^T its transpose entry
        # for entry, ghost rows and columns zero
        grid, a, r, dt, op = self.system(cells, extents)
        c, red_at, black_at = self.dense_blocks(grid, a, r, dt, op)
        half = op.weights.shape[0]

        def dense_of(apply):
            cols = []
            for e in np.eye(half):
                out = np.full(half, np.nan)
                apply(e, out)
                cols.append(out)
            return np.column_stack(cols)

        c_op, ct_op = dense_of(op.apply_c), dense_of(op.apply_ct)
        assert np.allclose(c_op[np.ix_(red_at, black_at)], c, rtol=1e-14, atol=0.0)
        assert np.allclose(ct_op, c_op.T, rtol=1e-15, atol=0.0)
        red_ghost, black_ghost = ghost_masks(op)
        assert np.all(c_op[red_ghost] == 0.0) and np.all(c_op[:, black_ghost] == 0.0)
        assert np.all(ct_op[black_ghost] == 0.0) and np.all(ct_op[:, red_ghost] == 0.0)

    @pytest.mark.parametrize("cells, extents", GRIDS[:2])
    def test_newton_system_matches_reference_jacobi_pcg(self, cells, extents):
        # the 2D Newton solve against Jacobi-PCG on the unscaled S J S^-1
        grid, a, r, dt, op = self.system(cells, extents, seed=9, dt=0.05)
        m = symmetrized_newton_matrix(grid, a, r, dt)
        sqrt_a = np.sqrt(a)
        rhs = np.random.default_rng(6).standard_normal(grid.shape)
        red_ghost, black_ghost = ghost_masks(op)
        for tol in (0.1, 1e-4, 1e-10):
            delta, iters = op.solve(a, r, rhs, tol)
            # every CG vector and the back-substituted solution keep their ghosts zero
            assert np.all(op.work[:, black_ghost] == 0.0) and np.all(op.reduced_rhs[black_ghost] == 0.0)
            assert np.all(op.x[0::2][red_ghost] == 0.0) and np.all(op.x[1::2][black_ghost] == 0.0)
            x_ref, iters_ref = jacobi_pcg(lambda y: m @ y, np.diag(m), (sqrt_a * rhs).ravel(), tol, 500)
            # the reduced system takes no more iterations than the full one
            assert iters <= iters_ref
            # the exit residual of the symmetrized system meets the 2-norm test
            b = (sqrt_a * rhs).ravel()
            x = (sqrt_a * delta).ravel()
            assert np.linalg.norm(m @ x - b) <= tol * np.linalg.norm(b)
            err = np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref)
            assert err <= 2.0 * np.linalg.cond(m) * tol

    def test_newton_system_allocations_do_not_grow_with_cg_iterations(self, monkeypatch):
        # the CG vectors, stencil buffers and scales belong to the operator
        # that a density solve builds once, so between two matvecs CG
        # allocates nothing cell-sized, and a Newton system makes the same
        # few cell-sized allocations (its set-up temporaries, numpy's buffers
        # for the strided cell views, and delta) at any iteration count.  The
        # tracemalloc peak over each stretch between matvec calls counts the
        # cell-sized arrays alive at once in it.
        grid = Grid(dim=2, extents=(1.0, 1.0), cells=(64, 64))
        rng = np.random.default_rng(1)
        a = rng.uniform(0.05, 3.0, grid.shape)
        r = rng.uniform(-1.0, 1.0, grid.shape)
        rhs = rng.standard_normal(grid.shape)
        cell_bytes = 8 * grid.num_cells
        op = stepper._DensityOperator(grid, 0.01)
        pcg = stepper.linalg.pcg_solve
        counted = []

        def tick():
            current, peak = tracemalloc.get_traced_memory()
            counted.append((peak - tick.base) // cell_bytes)
            tracemalloc.reset_peak()
            tick.base = current

        def pcg_spy(matvec, *args):
            def ticking(y, out):
                tick()
                matvec(y, out)

            return pcg(ticking, *args)

        monkeypatch.setattr(stepper.linalg, "pcg_solve", pcg_spy)
        totals = {}
        for tol in (1e-2, 1e-10):
            counted.clear()
            tracemalloc.start()
            try:
                tick.base = tracemalloc.get_traced_memory()[0]
                delta, iters = op.solve(a, r, rhs, tol)
                tick()
            finally:
                tracemalloc.stop()
            assert len(counted) == iters + 1
            assert sum(counted[1:-1]) == 0   # nothing cell-sized inside the CG loop
            totals[iters] = sum(counted)
        (few, few_total), (many, many_total) = sorted(totals.items())
        assert many >= 5 * few
        assert few_total == many_total <= 8


class TestFractionUpdate:
    def test_zero_fraction_stays_without_transitions(self):
        grid = small_grid(8)
        params = ModelParams(rates=rates(k2=("constant", 3.0)), gamma=2.0, d_b=0.0)
        s = uniform_state(grid, params, n=0.5, c=0.0, d=0.3)
        c_new = fraction_update(s, s.n, 0.05)
        assert np.all(c_new == 0.0)

    def test_full_fraction_stays_without_back_transition(self):
        # at c = 1 both K2 and the crowding death term vanish
        grid = small_grid(8)
        params = ModelParams(rates=rates(k1=("constant", 2.0)), gamma=2.0, d_b=0.0)
        s = uniform_state(grid, params, n=0.5, c=1.0, d=0.3)
        c_new = fraction_update(s, s.n, 0.05)
        assert np.allclose(c_new, 1.0, atol=1e-15)

    def test_single_step_reaction_oracle(self):
        # zero velocity, K1 = K2 = 1, D ~ 0: c' = 1 - 2c, c(0) = 0,
        # one explicit step of dt = 0.1 gives exactly 0.1
        grid = small_grid(3)
        params = ModelParams(
            rates=rates(k1=("constant", 1.0), k2=("constant", 1.0)),
            D=1e-30, gamma=2.0, d_b=0.0,
        )
        s = uniform_state(grid, params, n=0.5, c=0.0)
        c_new = fraction_update(s, s.n, 0.1)
        assert c_new[0] == pytest.approx(0.1, abs=1e-15)

    def test_many_steps_track_relaxation_odes(self):
        # c' = 1 - 2c -> c(t) = (1 - e^(-2t))/2; explicit Euler with dt = 0.01
        grid = small_grid(3)
        params = ModelParams(
            rates=rates(k1=("constant", 1.0), k2=("constant", 1.0)),
            D=1e-30, gamma=2.0, d_b=0.0,
        )
        s = uniform_state(grid, params, n=0.5, c=0.0)
        dt = 0.01
        for _ in range(100):
            c_new = fraction_update(s, s.n, dt)
            s = replace(s, t=s.t + dt, c=c_new)
        exact = 0.5 * (1.0 - math.exp(-2.0))
        assert s.c[0] == pytest.approx(exact, abs=5e-3)

    def test_viscosity_whose_dt_eps_underflows_to_0_is_skipped(self):
        # dt eps = 1e-30 * 1e-300 is 0 in floating point, so (I - dt eps lap) is the identity
        grid = small_grid(8)
        plain = ModelParams(rates=rates(k1=("constant", 1.0)), gamma=2.0, d_b=0.0)
        s = replace(uniform_state(grid, plain, n=0.5), c=np.linspace(0.1, 0.9, 8))
        viscous = fraction_update(with_params(s, eps_reg=1e-300, ell_cut=10.0), s.n, 1e-30)
        assert viscous.tobytes() == fraction_update(s, s.n, 1e-30).tobytes()

    def test_budget_violation_raises(self):
        grid = small_grid(3)
        params = ModelParams(rates=rates(k1=("constant", 30.0)), gamma=2.0, d_b=0.0)
        s = uniform_state(grid, params, n=0.5, c=0.2, d=1.0)
        with pytest.raises(SolverFailure):
            fraction_update(s, s.n, 0.1)  # dt*(K1+K2+D) = 3.1 > 1

    def test_nan_density_fails_the_budget(self):
        # a NaN in n_new makes the budget NaN, which must not pass for <= 1
        grid = small_grid(8)
        params = ModelParams(rates=rates(), gamma=2.0, d_b=0.0)
        s = uniform_state(grid, params, n=0.5, c=0.2)
        n_new = s.n.copy()
        n_new[3] = math.nan
        with pytest.raises(SolverFailure, match="budget nan exceeds 1"):
            fraction_update(s, n_new, 0.01)

    def test_advection_stays_in_bounds(self):
        # a sharp fraction front advected by a strong pressure gradient
        grid = small_grid(50)
        params = ModelParams(rates=rates(), gamma=2.0, d_b=0.0)
        x = grid.centers(0)
        n = 1.0 - 0.8 * x
        c = (x < 0.5).astype(float)
        s = State(t=0.0, grid=grid, n=n, c=c, d=np.zeros(grid.shape), params=params)
        dt = 0.25 * grid.h[0] / 2.0
        c_new = fraction_update(s, n, dt)
        assert c_new.min() >= -1e-12
        assert c_new.max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("c0", [0.2, 0.7])
    @pytest.mark.parametrize("cells", [
        {"grid.cells_x": 200},
        {"grid.dim": 2, "grid.cells_x": 64, "grid.cells_y": 48, "grid.extent_y": 1.0},
    ], ids=["200", "64x48"])
    def test_uniform_fraction_is_a_fixed_point_of_the_transport(self, c0, cells):
        # the lifted growth_1d bump moves the fraction at a nonzero velocity;
        # a uniform c has no jump at any face, so the update is bit for bit
        # the reaction-only one of a uniform density, which has no velocity
        cfg = parse_config(GROWTH_CONFIG.read_text()).with_overrides(**cells, **{"initial.c0": c0})
        grid, params = build_grid(cfg), make_params(cfg)
        n, c, d = initial_fields(cfg, grid, params)
        params = replace(params, consts=derive_constants(params, d))
        s = State(t=0.0, grid=grid, n=n + 1.0 / params.gamma, c=c, d=d, params=params)
        u = stepper._face_velocities(grid, s.n, params.gamma, 0.0)
        assert min(float(np.max(np.abs(ui))) for ui in u) > 1.0
        dt = suggest_dt(s, SETTINGS)
        still = fraction_update(s, np.full(grid.shape, 0.5), dt)
        assert np.all(still != c0)  # the reaction acts
        assert fraction_update(s, s.n, dt).tobytes() == still.tobytes()

    @pytest.mark.parametrize("grid", [
        Grid(dim=2, extents=(1.4, 0.5), cells=(7, 5)),
        Grid(dim=2, extents=(3.0, 1.125), cells=(12, 9)),
    ], ids=["7x5", "12x9"])
    def test_2d_explicit_part_matches_a_per_cell_loop(self, grid):
        # h_x is twice h_y, so an axis that took the other's width would
        # show; the density peaks inside, so each axis has faces of both signs
        params = ModelParams(rates=rates(k1=("linear", 0.5), k2=("constant", 0.5)),
                             D=1.0, gamma=3.0, d_b=1.0)
        rng = np.random.default_rng(11)
        x, y = grid.coordinate_fields()
        n = 1.2 - 0.2 * (x - 0.4 * grid.extents[0]) ** 2 - (y - 0.6 * grid.extents[1]) ** 2
        n += rng.uniform(0.0, 0.01, grid.shape)
        c = rng.uniform(0.0, 1.0, grid.shape)
        d = rng.uniform(0.0, 1.0, grid.shape)
        s = State(t=0.0, grid=grid, n=n, c=c, d=d, params=params)
        u = stepper._face_velocities(grid, n, params.gamma, 0.0)
        assert all(np.any(ui > 0.0) and np.any(ui < 0.0) for ui in u)
        k1, k2, rate_sum = stepper._fraction_rates(s)
        dt = 0.9 / float(np.max(stepper._fraction_budget(grid, 1.0, rate_sum, u)))
        expected = explicit_fraction(grid, n, c, k1, k2, params.D, dt, params.gamma)
        np.testing.assert_allclose(fraction_update(s, n, dt), expected, rtol=0.0, atol=1e-15)

    @given(
        c_vals=arrays(float, 16, elements=st.floats(0.0, 1.0)),
        n_vals=arrays(float, 16, elements=st.floats(0.0, 1.5)),
        d_val=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_region_random_data(self, c_vals, n_vals, d_val):
        # whatever the transport field and nutrient level, a budget-respecting
        # explicit step never leaves [0, 1]
        grid = small_grid(16)
        params = ModelParams(
            rates=rates(k1=("linear", 0.5), k2=("constant", 0.5)),
            D=1.0, gamma=2.0, d_b=1.0,
        )
        s = State(
            t=0.0,
            grid=grid,
            n=n_vals,
            c=c_vals,
            d=np.full(grid.shape, d_val),
            params=params,
        )
        dt = 0.2 * grid.h[0] / max(1.0, 2.0 * float(np.max(n_vals)) ** 2)
        try:
            c_new = fraction_update(s, s.n, dt)
        except SolverFailure:
            return  # budget rejected the step; nothing to assert
        assert c_new.min() >= -1e-12
        assert c_new.max() <= 1.0 + 1e-12


VISCOUS_GRIDS = [
    Grid(dim=1, extents=(1.0,), cells=(40,)),
    Grid(dim=1, extents=(1.0,), cells=(3,)),
    Grid(dim=2, extents=(1.0, 0.8), cells=(16, 12)),
    Grid(dim=2, extents=(1.0, 1.0), cells=(7, 3)),
]


@pytest.mark.parametrize("grid", VISCOUS_GRIDS, ids=["x".join(map(str, g.cells)) for g in VISCOUS_GRIDS])
class TestImplicitViscosity:
    """(I - dt eps lap_N) c_new = c* at dt 100 times the old limit h^2 / (2 eps dim).

    A uniform density carries no transport and no drift, and without
    reactions the explicit part c* is the fraction itself.
    """

    EPS = 0.05
    PARAMS = ModelParams(rates=rates(), D=0.0, gamma=2.0, d_b=0.0, eps_reg=EPS, ell_cut=10.0)

    @classmethod
    def state(cls, grid, c):
        return State(t=0.0, grid=grid, n=np.full(grid.shape, 0.5), c=c,
                     d=np.zeros(grid.shape), params=cls.PARAMS)

    def update(self, grid, seed):
        c = np.random.default_rng(seed).uniform(0.0, 1.0, grid.shape)
        s = self.state(grid, c)
        dt = 100.0 * min(grid.h) ** 2 / (2.0 * self.EPS * grid.dim)
        return c, fraction_update(s, s.n, dt), dt

    def test_solves_the_backward_euler_system(self, grid):
        c_star, c_new, dt = self.update(grid, 1)
        residual = c_new - dt * self.EPS * laplacian_neumann(grid, c_new) - c_star
        assert np.abs(residual).max() <= 1e-13

    def test_conserves_the_fraction_sum(self, grid):
        c_star, c_new, _ = self.update(grid, 2)
        assert float(np.sum(c_new)) == pytest.approx(float(np.sum(c_star)), rel=1e-14)

    def test_stays_within_the_explicit_part(self, grid):
        c_star, c_new, _ = self.update(grid, 3)
        assert c_star.min() <= c_new.min() and c_new.max() <= c_star.max()
        assert np.ptp(c_new) < np.ptp(c_star)  # and it smooths

    @pytest.mark.parametrize("c_value", [1.0, 0.7])
    def test_uniform_fraction_stays_exact(self, grid, c_value):
        # the solve alone leaves a uniform c = 1 at 1 + 4e-16 on 10 cells, and
        # the cutoff count would take (1 - c) n < 0 for an activation; the
        # clip to [min c*, max c*] keeps c exact
        s = self.state(grid, np.full(grid.shape, c_value))
        for dt in (0.01, 1.0, 10.0):
            assert np.all(fraction_update(s, s.n, dt) == c_value)

    def test_plain_scheme_takes_no_line_solve(self, grid):
        s = self.state(grid, np.full(grid.shape, 0.2))
        with mock.patch.object(stepper, "_line_solve", wraps=stepper._line_solve) as spy:
            fraction_update(with_params(s, eps_reg=0.0), s.n, 0.01)
            assert spy.call_count == 0
            fraction_update(s, s.n, 0.01)
            assert spy.call_count == 1


class TestLineSolve:
    """The 2D ``_line_solve``: a division in the product sine or cosine basis."""

    GRID = Grid(dim=2, extents=(1.2, 0.5), cells=(6, 5))  # h_x = 0.2, h_y = 0.1

    @pytest.mark.parametrize("dirichlet", [True, False], ids=["dirichlet", "no-flux"])
    def test_matches_dense_solve(self, dirichlet):
        grid, shift = self.GRID, 3.0
        lap = (lambda v: laplacian_dirichlet(grid, v, 0.0)) if dirichlet else (
            lambda v: laplacian_neumann(grid, v))
        cols = [lap(e.reshape(grid.shape)).ravel() for e in np.eye(grid.num_cells)]
        matrix = shift * np.eye(grid.num_cells) - np.column_stack(cols)
        rhs = np.random.default_rng(4).standard_normal(grid.shape)
        expected = np.linalg.solve(matrix, rhs.ravel()).reshape(grid.shape)
        x = stepper._line_solve(grid, shift, rhs, dirichlet)
        assert np.max(np.abs(x - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_large_entries_pass_the_backward_error_test(self):
        # no-flux walls at a small shift: x carries the mean of rhs / shift,
        # and the residual, a few roundings of |A| |x|, exceeds 1e-12 (|rhs| + |x|)
        grid = Grid(dim=2, extents=(1.0, 0.7), cells=(32, 35))
        rhs = np.random.default_rng(3).standard_normal(grid.shape)
        x = stepper._line_solve(grid, 1e-3, rhs, False)
        resid = np.max(np.abs(1e-3 * x - laplacian_neumann(grid, x) - rhs))
        assert resid > 1e-12 * (np.max(np.abs(rhs)) + np.max(np.abs(x)))

    def test_nan_on_the_right_side_raises(self):
        rhs = np.ones(self.GRID.shape)
        rhs[2, 3] = np.nan
        with pytest.raises(SolverFailure, match="non-finite"):
            stepper._line_solve(self.GRID, 3.0, rhs, True)


class TestNutrientSolve:
    def test_boundary_steady_state(self):
        grid = small_grid(8)
        params = ModelParams(rates=rates(), gamma=2.0, d_b=0.7)
        params = replace(params, consts=derive_constants(params, np.full(grid.shape, 0.7)))
        s = uniform_state(grid, params, n=0.0, d=0.7)
        d_new, clamped, _ = nutrient_solve(s, s.n, s.c, 0.1)
        assert np.allclose(d_new, 0.7, atol=1e-12)
        assert clamped == 0

    def test_relaxation_toward_boundary_value(self):
        grid = small_grid(16)
        params = ModelParams(rates=rates(), gamma=2.0, d_b=1.0)
        params = replace(params, consts=derive_constants(params, np.full(grid.shape, 0.2)))
        s = uniform_state(grid, params, n=0.0, d=0.2)
        d_new, _, _ = nutrient_solve(s, s.n, s.c, 0.05)
        assert np.all(d_new > 0.2 - 1e-12)
        assert np.all(d_new < 1.0 + 1e-12)
        # interior cells move strictly toward the boundary value
        assert d_new[8] > 0.2

    def test_scalar_backward_euler_oracle_in_huge_cell_limit(self):
        # psi(d_old) n = 1, no supply, dt = 0.1, d_old = 1: the center cell of a
        # huge grid sees (1/dt)(d - 1) = -1 -> d = 0.9 up to a vanishing
        # diffusion correction
        grid = Grid(dim=1, extents=(3e6,), cells=(3,))
        params = ModelParams(rates=rates(psi=("linear", 1.0)), a=1.0, b=1.0,
                             gamma=2.0, d_b=1.0)
        params = replace(params, consts=derive_constants(params, np.full(grid.shape, 1.0)))
        s = uniform_state(grid, params, n=1.0, c=0.0, d=1.0)
        d_new, _, _ = nutrient_solve(s, s.n, s.c, 0.1)
        assert d_new[1] == pytest.approx(0.9, abs=1e-9)

    def test_clamping_counted(self):
        # a savage explicit sink pulls d below zero; the clamp catches it
        grid = small_grid(8)
        params = ModelParams(rates=rates(psi=("linear", 5.0)), a=5.0, gamma=2.0, d_b=1.0)
        params = replace(params, consts=derive_constants(params, np.full(grid.shape, 1.0)))
        s = uniform_state(grid, params, n=10.0, c=0.0, d=1.0)
        d_new, clamped, _ = nutrient_solve(s, s.n, s.c, 1.0)
        assert clamped > 0
        assert d_new.min() >= 0.0

    @pytest.mark.parametrize("grid", [
        Grid(dim=1, extents=(1.3,), cells=(9,)),
        Grid(dim=2, extents=(1.0, 2.2), cells=(7, 11)),
    ], ids=["1d", "2d"])
    def test_matches_dense_solve(self, grid):
        # (b/dt) d - lap_D d = (b/dt) d_old - psi(d_old) n + a c n, assembled
        # column by column from the grid's Dirichlet Laplacian
        rng = np.random.default_rng(17)
        params = ModelParams(rates=rates(psi=("linear", 1.0)), a=1.0, b=1.0, gamma=2.0, d_b=0.6)
        field = lambda lo, hi: rng.uniform(lo, hi, grid.shape)
        s = State(t=0.0, grid=grid, n=field(0.2, 1.0), c=field(0.0, 1.0), d=field(0.3, 0.7),
                  params=params)
        s = with_params(s, consts=derive_constants(params, s.d))
        dt = 0.05
        d_new, clamped, lin = nutrient_solve(s, s.n, s.c, dt)

        cols = [laplacian_dirichlet(grid, e.reshape(grid.shape), 0.0).ravel()
                for e in np.eye(grid.num_cells)]
        matrix = params.b / dt * np.eye(grid.num_cells) - np.column_stack(cols)
        ghost = laplacian_dirichlet(grid, np.zeros(grid.shape), params.d_b)
        source = -s.d * s.n + params.a * s.c * s.n
        rhs = params.b / dt * s.d + source + ghost
        expected = np.linalg.solve(matrix, rhs.ravel()).reshape(grid.shape)
        assert clamped == 0 and lin == 1
        assert np.max(np.abs(d_new - expected)) <= 1e-12


class TestSuggestDt:
    def test_reaction_bound_only(self):
        # K1 + K2 + D = 4 with zero velocity and safety 0.5 -> dt = 0.125
        grid = small_grid(4)
        params = ModelParams(
            rates=rates(k1=("constant", 2.0), k2=("constant", 1.0)),
            D=1.0, gamma=2.0, d_b=0.0, T_final=100.0,
        )
        params = replace(params, consts=derive_constants(params, np.full(grid.shape, 0.0)))
        s = uniform_state(grid, params, n=0.4)
        assert suggest_dt(s, SETTINGS) == pytest.approx(0.125)

    def test_horizon_clipping(self):
        grid = small_grid(4)
        params = ModelParams(rates=rates(), D=1.0, gamma=2.0, d_b=0.0, T_final=1.0)
        params = replace(params, consts=derive_constants(params, np.full(grid.shape, 0.0)))
        s = uniform_state(grid, params, n=0.4, t=1.0 - 1e-9)
        assert suggest_dt(s, SETTINGS) == pytest.approx(1e-9)

    def test_velocity_bound_arithmetic(self):
        # |u| = 2 at gamma = 1, h = 0.1, large reaction headroom, safety 0.9
        grid = Grid(dim=1, extents=(0.3,), cells=(3,))
        params = ModelParams(rates=rates(), D=1.0, gamma=1.0, d_b=0.0, T_final=100.0)
        params = replace(params, consts=derive_constants(params, np.full(grid.shape, 0.0)))
        s = State(
            t=0.0,
            grid=grid,
            n=np.array([0.4, 0.2, 0.2]),
            c=np.zeros(grid.shape),
            d=np.zeros(grid.shape),
            params=params,
        )
        assert suggest_dt(s, SolverSettings(safety=0.9)) == pytest.approx(0.045)

    def test_viscous_bound_arithmetic(self):
        # the implicit viscosity sets no bound: with no transport and no
        # reactions the whole horizon is suggested, with eps as without it,
        # at 20 times the old explicit limit h^2 / (2 eps) = 0.5
        s, params = viscous_only()
        dt = suggest_dt(s, SETTINGS)
        assert dt == 10.0 == suggest_dt(with_params(s, eps_reg=0.0), SETTINGS)
        s2, report = step(s, SETTINGS, dt)
        assert report.retries == 0 and report.dt_used == dt
        assert np.all(s2.c == 0.2)  # a uniform fraction stays uniform, in [0, 1]


class TestStep:
    def make_inert(self, cells=6):
        grid = small_grid(cells)
        params = ModelParams(rates=rates(), D=1.0, a=1.0, gamma=2.0, d_b=0.0, T_final=1.0)
        return grid, replace(params, consts=derive_constants(params, np.full(grid.shape, 0.0)))

    def test_global_fixed_point(self):
        grid, params = self.make_inert()
        s = uniform_state(grid, params, n=0.6, c=0.0, d=0.0)
        s2, report = step(s, SETTINGS, 0.05)
        assert s2.t == pytest.approx(0.05)
        assert np.allclose(s2.n, 0.6, atol=1e-14)
        assert np.all(s2.c == 0.0)
        assert np.allclose(s2.d, 0.0, atol=1e-14)
        assert check_all(s2) == []

    def test_mass_constant_without_reactions(self):
        grid, params = self.make_inert(cells=40)
        x = grid.centers(0)
        n0 = np.maximum(1.0 - 4.0 * (x - 0.5) ** 2, 0.0)
        s = State(t=0.0, grid=grid, n=n0, c=np.zeros(grid.shape), d=np.zeros(grid.shape),
                  params=params)
        mass0 = integrate(grid, n0)
        for _ in range(5):
            dt = suggest_dt(s, SETTINGS)
            s, _ = step(s, SETTINGS, dt)
        assert abs(integrate(grid, s.n) - mass0) <= 1e-12 * mass0

    def test_retry_halves_dt_until_feasible(self):
        grid = small_grid(6)
        params = ModelParams(
            rates=rates(k1=("constant", 4.0)), D=1.0, gamma=2.0, d_b=0.0, T_final=1.0,
        )
        params = replace(params, consts=derive_constants(params, np.full(grid.shape, 0.0)))
        s = uniform_state(grid, params, n=0.5, c=0.2)
        # dt * (K1 + K2 + D) = 1.5 > 1 violates the budget; one halving fixes it
        s2, report = step(s, SETTINGS, 0.3)
        assert report.retries == 1
        assert report.rejections[0].startswith("fraction update monotonicity budget")
        assert report.dt_used == pytest.approx(0.15)

    def test_exhausted_retries_raise(self):
        grid = small_grid(6)
        params = ModelParams(
            rates=rates(k1=("constant", 4.0)), D=1.0, gamma=2.0, d_b=0.0, T_final=1.0,
        )
        params = replace(params, consts=derive_constants(params, np.full(grid.shape, 0.0)))
        s = uniform_state(grid, params, n=0.5, c=0.2)
        with pytest.raises(SolverFailure):
            step(s, SolverSettings(retry_max=0), 0.3)

    def test_viscous_budget_forces_halvings(self):
        s, params = viscous_only(k1=2.0)
        k = 3  # budgets 6.4, 3.2, 1.6, then 0.8 at dt = 0.4
        s2, report = step(s, SolverSettings(retry_max=k), 3.2)
        assert report.retries == k == len(report.rejections)
        assert all(r.startswith("fraction update monotonicity budget") for r in report.rejections)
        assert report.dt_used == 0.4
        assert np.all((s2.c >= 0.0) & (s2.c <= 1.0))
        # the viscosity adds nothing to the budget: the plain scheme is
        # rejected alike, and without the reaction the full step is taken
        _, plain = step(with_params(s, eps_reg=0.0), SolverSettings(retry_max=k), 3.2)
        assert plain.rejections == report.rejections
        s_inert, params_inert = viscous_only()
        _, inert = step(s_inert, SETTINGS, 3.2)
        assert inert.retries == 0 and inert.rejections == []

    @pytest.mark.parametrize("hint, k", [(0.4, 0), (3.2, 3)])
    def test_one_budget_evaluation_per_attempt(self, hint, k):
        # each attempt sums the fraction budget once, in fraction_update
        s, params = viscous_only(k1=2.0)
        with mock.patch.object(stepper, "_fraction_budget", wraps=stepper._fraction_budget) as spy:
            _, report = step(s, SETTINGS, hint)
        assert report.retries == k
        assert spy.call_count == k + 1

    def test_viscous_budget_exhausts_retries(self):
        s, params = viscous_only(k1=2.0)
        with pytest.raises(SolverFailure, match="after 2 dt halvings"):
            step(s, SolverSettings(retry_max=2), 3.2)

    def test_step_needs_resolved_constants(self):
        grid, params = self.make_inert()
        s = uniform_state(grid, replace(params, consts=None), n=0.6)
        with pytest.raises(ValueError, match="params.consts"):
            step(s, SETTINGS, 0.05)

    def test_determinism(self):
        grid, params = self.make_inert(cells=20)
        x = grid.centers(0)
        n0 = 0.5 + 0.3 * np.cos(2 * np.pi * x)
        s = State(t=0.0, grid=grid, n=n0, c=np.full(grid.shape, 0.25), d=np.zeros(grid.shape),
                  params=params)
        a, _ = step(s, SETTINGS, 0.01)
        b, _ = step(s, SETTINGS, 0.01)
        assert np.array_equal(a.n, b.n)
        assert np.array_equal(a.c, b.c)
        assert np.array_equal(a.d, b.d)

    def test_mass_balance_identity_with_reactions(self):
        # discrete weak-form balance: the mass gained in a density step equals
        # dt times the integral of the reaction, to Newton tolerance
        grid = small_grid(30)
        params = ModelParams(
            rates=rates(g=("linear", 1.0), k1=("linear", 0.5), k2=("constant", 0.5)),
            D=1.0, a=1.0, gamma=3.0, d_b=1.0, T_final=1.0,
        )
        x = grid.centers(0)
        s = State(
            t=0.0,
            grid=grid,
            n=0.4 + 0.5 * np.exp(-30 * (x - 0.5) ** 2),
            c=np.full(grid.shape, 0.25),
            d=np.full(grid.shape, 0.9),
            params=params,
        )
        dt = 0.01
        tight = SolverSettings(newton_tol=1e-12)
        n_new, _ = density_solve(s, dt, tight)
        g_of_d = np.asarray(params.rates.G(s.d))
        reaction = (g_of_d - params.D * s.c) * n_new
        gained = integrate(grid, n_new) - integrate(grid, s.n)
        source = dt * float(np.sum(reaction)) * grid.cell_volume
        assert abs(gained - source) <= 100 * tight.newton_tol


class TestRegularizedStep:
    def make_setup(self, eps, ell=None):
        grid = small_grid(24)
        params = ModelParams(
            rates=rates(g=("linear", 0.5), k1=("linear", 0.3), k2=("constant", 0.2)),
            D=1.0, a=1.0, gamma=3.0, d_b=1.0, T_final=0.1,
            eps_reg=eps, ell_cut=(ell if ell is not None else 0.0),
        )
        consts = derive_constants(params, np.full(grid.shape, 1.0))
        if ell is None:
            auto = max(consts.L, math.exp(2 * consts.M0 * 0.1) * 1.0)
            params = ModelParams(
                rates=params.rates, D=params.D, a=params.a, b=params.b,
                gamma=params.gamma, eps_reg=eps, ell_cut=auto * 1.01,
                d_b=params.d_b, T_final=params.T_final,
            )
        params = replace(params, consts=consts)
        x = grid.centers(0)
        n0 = 0.3 + 0.4 * np.exp(-20 * (x - 0.5) ** 2) + eps
        s = State(t=0.0, grid=grid, n=n0, c=np.full(grid.shape, 0.2), d=np.full(grid.shape, 1.0),
                  params=params)
        return s, params

    def test_inactive_cutoff_counts_zero(self):
        s, params = self.make_setup(0.05)
        _, report = step(s, SETTINGS, 0.01)
        assert report.cutoff_activations == 0

    def test_low_cutoff_level_activates(self):
        s, params = self.make_setup(0.05, ell=0.4)  # below max n ~ 0.75
        _, report = step(s, SETTINGS, 0.01)
        assert report.cutoff_activations > 0

    def test_step_rejects_unresolved_cutoff(self):
        s, params = self.make_setup(0.05)
        with pytest.raises(ValueError, match="ell_cut"):
            step(with_params(s, ell_cut=0.0), SETTINGS, 0.01)

    def test_viscosity_spreads_the_fraction(self):
        s, params = self.make_setup(0.1)
        c = s.c.copy()
        c[:12] = 0.6
        s = replace(s, t=0.0, c=c)
        s2, _ = step(s, SETTINGS, 0.001)
        assert s2.c.max() <= 0.6 + 1e-12
        assert s2.c.min() >= 0.0
        # the jump at the interface is smoothed
        jump_before = abs(c[12] - c[11])
        jump_after = abs(s2.c[12] - s2.c[11])
        assert jump_after < jump_before


def eps_study_start(eps, cells=100):
    """The eps study's initial state and parameters, resolved by harness.set_up."""
    cfg = parse_config(EPS_STUDY_CONFIG.read_text()).with_overrides(grid__cells_x=cells)
    if eps > 0.0:
        cfg = cfg.with_overrides(model__eps_reg=eps, initial__lift="eps")
    start = set_up(cfg)
    return start.initial_state, start.initial_state.params, make_settings(cfg)


def old_suggest_dt(state, safety):
    """The controller before the fraction budget bound: CFL and reaction bounds only."""
    params, consts = state.params, state.params.consts
    u = stepper._face_velocities(state.grid, state.n, params.gamma, 0.0)
    speed = max([0.0, *(float(np.max(np.abs(ui))) for ui in u if ui.size)])
    dt_adv = min(state.grid.h) / speed if speed > 0.0 else math.inf
    rate_sum = consts.K1_max + consts.K2_max + params.D
    dt_react = 1.0 / rate_sum if rate_sum > 0.0 else math.inf
    dt = safety * min(dt_adv, dt_react)
    remaining = params.T_final - state.t
    if remaining > 0.0:
        dt = min(dt, remaining)
    return dt


def budget_limit(state):
    """1 / max beta: the largest dt the full fraction budget accepts at the current state."""
    params = state.params
    u = stepper._face_velocities(state.grid, state.n, params.gamma, params.eps_reg)
    rate_sum = stepper._fraction_rates(state)[2]
    return 1.0 / float(np.max(stepper._fraction_budget(state.grid, 1.0, rate_sum, u)))


#: where the refined eps = 0.1 studies failed with the CFL and reaction hint
LATE_T = 0.214


@pytest.fixture(scope="module")
def eps_late_state():
    """The 100-cell eps = 0.1 study's state at LATE_T."""
    cfg = parse_config(EPS_STUDY_CONFIG.read_text()).with_overrides(
        model__eps_reg=0.1, initial__lift="eps", time__T_final=LATE_T
    )
    res = run(set_up(cfg))
    assert res.ok
    return res.final_state


def controller_case(eps, cells, late_state=None):
    """The eps study on ``cells`` cells, at its start or at ``late_state`` put on its grid."""
    state, params, settings = eps_study_start(eps, cells)
    if late_state is not None:
        x, x_late = state.grid.centers(0), late_state.grid.centers(0)

        def on_grid(f):
            return np.interp(x, x_late, f)

        state = State(t=late_state.t, grid=state.grid, n=on_grid(late_state.n),
                      c=on_grid(late_state.c), d=on_grid(late_state.d), params=params)
    return state, params, settings


@pytest.mark.parametrize("late", [False, True], ids=["start", "late"])
@pytest.mark.parametrize("cells", [100, 200, 400])
@pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
class TestDtController:
    @pytest.fixture
    def case(self, eps, cells, late, eps_late_state):
        return controller_case(eps, cells, eps_late_state if late else None)

    def test_suggested_dt_meets_the_budget(self, case):
        state, params, settings = case
        dt = suggest_dt(state, settings)
        u = stepper._face_velocities(state.grid, state.n, params.gamma, params.eps_reg)
        rate_sum = stepper._fraction_rates(state)[2]
        budget = stepper._fraction_budget(state.grid, dt, rate_sum, u)
        assert float(np.max(budget)) <= 1.0 + stepper.CFL_SLACK

    def test_step_takes_the_suggested_dt(self, case):
        state, params, settings = case
        dt = suggest_dt(state, settings)
        _, report = step(state, settings, dt)
        assert report.retries == 0 and report.rejections == []
        assert report.dt_used == dt


def test_refined_late_state_is_out_of_reach_of_halving(eps_late_state):
    # on 400 cells the CFL and reaction hint is more than 2^retry_max times
    # the explicit viscous limit h^2 / (2 eps), so step failed from it while
    # the viscosity was explicit.  It is implicit now: the whole budget
    # accepts that hint, the controller suggests it, and step takes it
    state, params, settings = controller_case(0.1, 400, eps_late_state)
    old = old_suggest_dt(state, settings.safety)
    h = state.grid.h[0]
    assert old > 2**settings.retry_max * h**2 / (2.0 * params.eps_reg)
    assert old <= budget_limit(state)
    assert suggest_dt(state, settings) == old
    _, report = step(state, settings, old)
    assert report.retries == 0 and report.dt_used == old


def test_2d_newton_overflow_is_a_rejection(monkeypatch):
    # the stiff 2D sweep data at gamma = 640: one attempt's undamped Newton
    # step grows the residual by about 1e228, which the bounded fallback
    # rejects before the next Newton system can overflow |S rhs|.  The suite
    # turns warnings into errors, so an overflow warning would fail this run.
    cfg = parse_config((CONFIGS / "sweep.cfg").read_text()).with_overrides(**{
        "grid.dim": 2, "grid.cells_x": 96, "grid.cells_y": 96, "grid.extent_y": 1.0,
        "initial.center_y": 0.5, "initial.height": 0.9, "initial.lift": "gamma",
        "model.gamma": 640.0,
    })
    rejections = []
    real_step = harness.step

    def spy(*args):
        new_state, report = real_step(*args)
        rejections.extend(report.rejections)
        return new_state, report

    monkeypatch.setattr(harness, "step", spy)
    res = run(set_up(cfg))
    assert res.ok
    assert (res.steps, res.rejected_attempts) == (4, 3)
    grew = [m for m in rejections if "undamped step grew the residual" in m]
    assert len(grew) == 1 and re.search(r"from 2\.9\d+e-01 to 2\.6\d+e\+228$", grew[0])


def test_2d_newton_system_overflow_is_a_solver_failure():
    # a right side whose |S rhs| overflows raises before any operator work
    grid = Grid(dim=2, extents=(1.0, 1.0), cells=(6, 5))
    big = np.full(grid.shape, 1e200)
    with pytest.raises(SolverFailure, match="Newton system overflows"):
        stepper._DensityOperator(grid, 0.01).solve(big, np.zeros(grid.shape), big, 1e-10)


def test_2d_suggested_dt_meets_the_budget():
    # a pressure valley n^gamma = 0.3 + |x - x_c| + |y - y_c| with its floor
    # at a cell centre: |u| = 1 on every face, and the floor cell takes
    # inflow through all four faces, so the advective budget binds below
    # the safety-scaled CFL bound h / (2 max|u|)
    grid = Grid(dim=2, extents=(1.0, 0.8), cells=(16, 12))
    params = ModelParams(
        rates=rates(g=("linear", 0.5), k1=("linear", 0.3), k2=("constant", 0.2)),
        D=1.0, a=1.0, gamma=3.0, d_b=1.0, T_final=0.1, eps_reg=0.05, ell_cut=2.0,
    )
    params = replace(params, consts=derive_constants(params, np.full(grid.shape, 1.0)))
    x, y = grid.coordinate_fields()
    n = (0.3 + np.abs(x - grid.centers(0)[8]) + np.abs(y - grid.centers(1)[6])) ** (1.0 / 3.0)
    s = State(t=0.0, grid=grid, n=n, c=np.full(grid.shape, 0.2), d=np.full(grid.shape, 1.0),
              params=params)
    dt = suggest_dt(s, SETTINGS)
    assert dt == pytest.approx(budget_limit(s), rel=1e-12)  # the budget binds
    assert dt < 0.5 * old_suggest_dt(s, SETTINGS.safety)
    # the viscous drift's inflow is part of it
    assert dt < suggest_dt(with_params(s, eps_reg=0.0), SETTINGS)
    _, report = step(s, SETTINGS, dt)
    assert report.retries == 0


def test_plain_suggestion_is_the_old_formula(monkeypatch):
    # at eps = 0 the budget bound never binds on the shipped configs: the
    # suggested dt is the CFL and reaction formula, bit for bit
    seen = []

    def spy(state, settings):
        dt = suggest_dt(state, settings)
        assert dt == old_suggest_dt(state, settings.safety)
        seen.append(dt)
        return dt

    def read(name):
        return parse_config((CONFIGS / name).read_text())

    monkeypatch.setattr(harness, "suggest_dt", spy)
    assert run(set_up(read("growth_1d.cfg"))).ok
    assert run(set_up(read("eps_study.cfg"))).ok  # the study's eps = 0 reference
    assert all(e.run.ok for e in gamma_sweep(read("sweep.cfg")).entries)
    barenblatt_benchmark(read("barenblatt.cfg"))
    assert len(seen) > 100
