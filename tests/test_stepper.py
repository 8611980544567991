import math
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
from tissuesim.diagnostics import TolConfig, check_all
from tissuesim.errors import SolverFailure
from tissuesim.grid import Grid, laplacian_neumann
from tissuesim.harness import (
    apply_lift,
    barenblatt_benchmark,
    build_grid,
    gamma_sweep,
    initial_fields,
    make_params,
    make_settings,
    run,
)
from tissuesim.model import (
    BOUND_INFLATION,
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
    integrate,
    jacobi_pcg,
    laplacian_dirichlet,
    symmetrized_newton_matrix,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
EPS_STUDY_CONFIG = CONFIGS / "eps_study.cfg"


def rates(g=("constant", 0.0), k1=("constant", 0.0), k2=("constant", 0.0),
          psi=("linear", 1.0)):
    return RateFunctions(
        G=RateFunction(g[0], alpha=g[1]),
        K1=RateFunction(k1[0], alpha=k1[1]),
        K2=RateFunction(k2[0], alpha=k2[1]),
        psi=RateFunction(psi[0], alpha=psi[1]),
    )


def uniform_state(grid, n=1.0, c=0.0, d=0.0, gamma=2.0, t=0.0):
    return State(
        t=t,
        grid=grid,
        n=np.full(grid.shape, n),
        c=np.full(grid.shape, c),
        d=np.full(grid.shape, d),
        gamma=gamma,
    )


def small_grid(cells=3, extent=1.0):
    return Grid(dim=1, extents=(extent,), cells=(cells,))


SETTINGS = SolverSettings()


def viscous_only():
    # uniform n: no transport and no reactions, so the budget is the
    # viscous 2 dt eps / h^2 = 2 dt alone
    grid = small_grid(10)
    params = ModelParams(rates=rates(), D=1e-30, gamma=2.0, d_b=0.0, T_final=10.0,
                         eps_reg=0.01, ell_cut=10.0)
    consts = derive_constants(params, np.full(grid.shape, 0.0))
    return uniform_state(grid, n=0.5, c=0.2), params, consts


class TestState:
    @pytest.mark.parametrize("name", ["n", "c", "d"])
    def test_mis_shaped_array_rejected(self, name):
        grid = small_grid(8)
        arrays = {"n": np.ones(8), "c": np.zeros(8), "d": np.zeros(8)}
        arrays[name] = np.zeros(7)
        with pytest.raises(ValueError, match=name):
            State(t=0.0, grid=grid, gamma=2.0, **arrays)

    def test_v_is_read_only_and_kept(self):
        s = uniform_state(small_grid(5), n=0.5, gamma=3.0)
        v = s.v
        assert v is s.v
        assert np.array_equal(v, np.full(5, 0.5**4))
        with pytest.raises(ValueError):
            v[0] = 1.0
        with pytest.raises(AttributeError):
            s.v = np.zeros(5)
        assert np.array_equal(s.v, np.full(5, 0.5**4))

    def test_replaced_state_computes_its_own_v(self):
        s = uniform_state(small_grid(5), n=0.5, gamma=3.0)
        assert s.v[0] == 0.5**4
        moved = replace(s, n=np.full(5, 2.0))
        assert np.array_equal(moved.v, np.full(5, 16.0))


class TestDensitySolve:
    def test_uniform_no_reaction_is_fixed_point(self):
        grid = small_grid(5)
        params = ModelParams(rates=rates(), gamma=2.0, d_b=0.0)
        s = uniform_state(grid, n=0.7)
        n_new, report = density_solve(s, 0.1, params, SETTINGS)
        assert np.allclose(n_new, 0.7, atol=1e-14)
        assert report.newton_iters == 1

    def test_scalar_growth_ode_oracle(self):
        # uniform data kills the Laplacian, each cell is the scalar ODE
        # n' = g n; backward Euler gives n_new = n_old / (1 - g dt)
        g_rate = 0.8
        dt = 0.05
        grid = small_grid(3)
        params = ModelParams(rates=rates(g=("constant", g_rate)), gamma=3.0, d_b=0.0)
        s = uniform_state(grid, n=0.5, gamma=3.0)
        n_new, _ = density_solve(s, dt, params, SETTINGS)
        oracle = 0.5 / (1.0 - g_rate * dt)
        assert np.allclose(n_new, oracle, rtol=1e-12)

    def test_multistep_growth_tracks_exponential(self):
        g_rate = 1.0
        grid = small_grid(3)
        params = ModelParams(rates=rates(g=("constant", g_rate)), gamma=2.0, d_b=0.0,
                             T_final=1.0)
        s = uniform_state(grid, n=0.1)
        dt = 0.005
        while s.t < 1.0 - 1e-12:
            n_new, _ = density_solve(s, dt, params, SETTINGS)
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
                  gamma=4.0)
        mass0 = integrate(grid, n0)
        n_new, _ = density_solve(s, 0.01, params, SETTINGS)
        assert abs(integrate(grid, n_new) - mass0) <= 1e-12 * mass0

    def test_nonconvergence_raises(self):
        grid = small_grid(16)
        params = ModelParams(rates=rates(g=("constant", 5.0)), gamma=2.0, d_b=0.0)
        s = uniform_state(grid, n=1.0)
        # g*dt > 1 makes backward Euler growth infeasible; Newton cannot converge
        with pytest.raises(SolverFailure):
            density_solve(s, 0.5, params, SolverSettings(newton_max=8))

    def test_undamped_fallback_counted(self, monkeypatch):
        # an ascent direction on the first iteration defeats all 8 halvings,
        # so the loop falls back to the full step once and then converges
        g_rate, dt = 0.8, 0.05
        grid = small_grid(3)
        params = ModelParams(rates=rates(g=("constant", g_rate)), gamma=3.0, d_b=0.0)
        s = uniform_state(grid, n=0.5, gamma=3.0)
        _, plain = density_solve(s, dt, params, SETTINGS)
        assert plain.newton_fallbacks == 0

        real = stepper._solve_newton_system
        calls = []

        def first_flipped(*args):
            delta, lin = real(*args)
            calls.append(delta)
            return (-delta if len(calls) == 1 else delta), lin

        monkeypatch.setattr(stepper, "_solve_newton_system", first_flipped)
        n_new, report = density_solve(s, dt, params, SETTINGS)
        assert report.newton_fallbacks == 1
        assert np.allclose(n_new, 0.5 / (1.0 - g_rate * dt), rtol=1e-12)

    def growth_setup(self):
        grid = small_grid(3)
        params = ModelParams(rates=rates(g=("constant", 0.8)), gamma=3.0, d_b=0.0, T_final=1.0)
        return uniform_state(grid, n=0.5, gamma=3.0), params

    def test_second_fallback_is_a_solver_failure(self, monkeypatch):
        s, params = self.growth_setup()
        flip_first_directions(monkeypatch, 2)
        with pytest.raises(SolverFailure, match="undamped step twice"):
            density_solve(s, 0.05, params, SETTINGS)

    def test_step_halves_dt_after_a_second_fallback(self, monkeypatch):
        s, params = self.growth_setup()
        consts = derive_constants(params, s.d)
        flip_first_directions(monkeypatch, 2)
        _, report = step(s, params, consts, SETTINGS, 0.05)
        assert report.retries == 1
        assert report.rejections[0].startswith("density Newton fell back")
        assert report.dt_used == 0.025
        assert report.newton_fallbacks == 0


def flip_first_directions(monkeypatch, count):
    """Reverse the first ``count`` Newton directions, turning each into an ascent direction."""
    real = stepper._solve_newton_system
    calls = []

    def flipped(*args):
        delta, lin = real(*args)
        calls.append(delta)
        return (-delta if len(calls) <= count else delta), lin

    monkeypatch.setattr(stepper, "_solve_newton_system", flipped)


def reference_density_solve(state, dt, params, settings):
    """The Newton loop that recomputes each residual at its top, kept as the reference.

    It evaluates the right side of an accepted iterate again at the top of
    the next iteration, and of the converged iterate once more for the
    conservative update; ``density_solve`` must give the same bits.
    """
    grid = state.grid
    n_old = state.n
    co = stepper._coefficients(state, params)
    op = stepper._DensityOperator(grid) if grid.dim == 2 else None
    report = stepper.StepReport(dt_used=dt)
    n_k = n_old.copy()
    for it in range(settings.newton_max + 1):
        f = n_k - n_old - dt * stepper._density_rhs(n_k, grid, params, co)
        res_norm = float(np.max(np.abs(f)))
        report.newton_iters = it + 1
        report.newton_residual = res_norm
        if res_norm <= settings.newton_tol:
            break
        assert it < settings.newton_max
        a, r = stepper._density_jacobian(n_k, params, co)
        delta, _ = stepper._solve_newton_system(
            grid, a, r, dt, -f, settings.linear_tol, stepper.LINEAR_MAX, op
        )
        step_len = 1.0
        accepted = None
        for _ in range(8):
            trial = np.maximum(n_k + step_len * delta, 0.0)
            f_trial = trial - n_old - dt * stepper._density_rhs(trial, grid, params, co)
            trial_norm = float(np.max(np.abs(f_trial)))
            if math.isfinite(trial_norm) and trial_norm < res_norm:
                accepted = trial
                break
            step_len *= 0.5
        if accepted is None:
            accepted = np.maximum(n_k + delta, 0.0)
        n_k = accepted
    n_new = np.maximum(n_old + dt * stepper._density_rhs(n_k, grid, params, co), 0.0)
    return n_new, report


def bump_1d(cells=40, gamma=3.0, eps=0.0, ell=0.0, c_jump=False):
    grid = small_grid(cells)
    x = grid.centers(0)
    params = ModelParams(
        rates=rates(g=("linear", 1.0), k1=("linear", 0.5), k2=("constant", 0.5)),
        D=1.0, gamma=gamma, d_b=1.0, eps_reg=eps, ell_cut=ell,
    )
    c = np.where(x < 0.5, 0.6, 0.2) if c_jump else np.full(cells, 0.2)
    s = State(t=0.0, grid=grid, n=0.05 + eps + 0.9 * np.exp(-30 * (x - 0.5) ** 2),
              c=c, d=np.full(grid.shape, 0.9), gamma=gamma)
    return s, params


class TestNewtonLoop:
    def count_rhs_calls(self, monkeypatch):
        real = stepper._density_rhs
        seen = []

        def spy(n, *args):
            seen.append(n.copy())
            return real(n, *args)

        monkeypatch.setattr(stepper, "_density_rhs", spy)
        return seen

    @pytest.mark.parametrize("flipped", [0, 1])
    def test_each_iterate_evaluated_once(self, monkeypatch, flipped):
        # one call for the start and one per line-search trial: none for an
        # accepted iterate's residual and none for the conservative update
        s, params = bump_1d()
        flip_first_directions(monkeypatch, flipped)
        seen = self.count_rhs_calls(monkeypatch)
        _, report = density_solve(s, 0.01, params, SETTINGS)
        assert report.newton_iters >= 4
        assert report.newton_fallbacks == flipped
        # every direction takes its full step at once, except a flipped one,
        # which tries all 8 step lengths before falling back
        assert len(seen) == report.newton_iters + 7 * flipped
        assert np.array_equal(seen[0], s.n)
        for i, a in enumerate(seen):
            assert not any(np.array_equal(a, b) for b in seen[i + 1:])

    @pytest.mark.parametrize("flipped", [0, 1])
    @pytest.mark.parametrize(
        "eps, ell", [(0.0, 0.0), (0.05, 10.0), (0.05, 0.4)], ids=["plain", "regularized", "clamped"]
    )
    def test_1d_matches_reference_loop_bitwise(self, monkeypatch, eps, ell, flipped):
        s, params = bump_1d(eps=eps, ell=ell, c_jump=eps > 0.0)
        for dt in (0.002, 0.02):
            flip_first_directions(monkeypatch, flipped)
            n_new, report = density_solve(s, dt, params, SETTINGS)
            monkeypatch.undo()
            flip_first_directions(monkeypatch, flipped)
            n_ref, ref = reference_density_solve(s, dt, params, SETTINGS)
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
                  d=np.full(grid.shape, 0.9), gamma=3.0)
        return s, params

    def dense_newton(self, s, dt, params, settings):
        """Undamped Newton with every system solved by dense elimination."""
        grid = s.grid
        n_old = s.n
        co = stepper._coefficients(s, params)
        lap = np.column_stack([
            laplacian_neumann(grid, e.reshape(grid.shape)).ravel()
            for e in np.eye(grid.num_cells)
        ])
        n_k = n_old.copy()
        for _ in range(settings.newton_max):
            f = n_k - n_old - dt * stepper._density_rhs(n_k, grid, params, co)
            if np.max(np.abs(f)) <= settings.newton_tol:
                break
            a, r = stepper._density_jacobian(n_k, params, co)
            jac = np.eye(grid.num_cells) - dt * (lap * a.ravel() + np.diag(r.ravel()))
            n_k = n_k + np.linalg.solve(jac, -f.ravel()).reshape(grid.shape)
        return np.maximum(n_old + dt * stepper._density_rhs(n_k, grid, params, co), 0.0)

    @pytest.mark.parametrize("linear_tol", [1e-10, 1e-5])
    def test_2d_forcing_term(self, monkeypatch, linear_tol):
        s, params = self.state_2d()
        settings = SolverSettings(linear_tol=linear_tol)
        res_norms, tols = [], []
        solve_system = stepper._solve_newton_system

        def system_spy(grid, a, r, dt, rhs, tol, *rest):
            res_norms.append(float(np.max(np.abs(rhs))))
            tols.append(tol)
            return solve_system(grid, a, r, dt, rhs, tol, *rest)

        monkeypatch.setattr(stepper, "_solve_newton_system", system_spy)
        n_new, report = density_solve(s, 0.01, params, settings)
        assert len(tols) == len(res_norms) == report.newton_iters - 1
        assert tols == [max(linear_tol, min(0.1, f)) for f in res_norms]
        # the cap, the residual itself and, with the looser floor, the floor all occur
        assert tols[0] == 0.1 and linear_tol < tols[-2] < 0.1
        assert (tols[-1] == linear_tol) == (linear_tol == 1e-5)
        assert report.newton_residual <= settings.newton_tol
        assert report.newton_fallbacks == 0
        ref = self.dense_newton(s, 0.01, params, settings)
        assert np.max(np.abs(n_new - ref)) <= 1e-9 * np.max(np.abs(ref))


class TestDensityJacobian:
    def test_vacuum_cells_get_the_same_rate_on_both_paths(self):
        # the clamp path (ell = 0.4 < max n) and the no-clamp path (ell = 10)
        # must agree wherever no clamp acts, vacuum cells included; d = 0.25
        # lies inside both bands, so G(cutoff(d)) = 0.25 on both
        grid = small_grid(6)
        n = np.array([0.0, 0.0, 0.5, 1.0, 0.5, 0.0])
        s = State(t=0.0, grid=grid, n=n, c=np.full(grid.shape, 0.5),
                  d=np.full(grid.shape, 0.25),
                  gamma=2.0)
        r_at = {}
        for ell in (10.0, 0.4):
            params = ModelParams(rates=rates(g=("linear", 1.0)), D=1.0, gamma=2.0, d_b=1.0,
                                 eps_reg=0.01, ell_cut=ell)
            co = stepper._coefficients(s, params)
            assert co.unclamped(float(n.max())) == (ell == 10.0)
            _, r_at[ell] = stepper._density_jacobian(n, params, co)
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
    """The 1D Newton matrix as built with a degree array and two zero-filled off-diagonals."""
    h2 = grid.h[0] ** 2
    nc = grid.cells[0]
    deg = np.full(nc, 2.0)
    deg[0] = deg[-1] = 1.0
    diag = 1.0 + dt * deg * a / h2 - dt * r
    lower = np.zeros(nc)
    upper = np.zeros(nc)
    lower[1:] = -dt * a[:-1] / h2
    upper[:-1] = -dt * a[1:] / h2
    return lower, diag, upper


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

        def spy(m, b):
            seen.append(m)
            return real(m, b)

        monkeypatch.setattr(stepper.linalg, "thomas_solve", spy)
        for dt in (1e-3, 0.07):
            delta, lin = stepper._solve_newton_system(grid, a, r, dt, rhs, 1e-10, 100, None)
            assert lin == 1
            m = seen[-1]
            lower, diag, upper = reference_newton_tridiag(grid, a, r, dt)
            for got, want in ((m.lower, lower), (m.diag, diag), (m.upper, upper)):
                assert got.tobytes() == want.tobytes()
            assert np.max(np.abs(m.matvec(delta) - rhs)) <= 1e-12 * np.max(np.abs(rhs))


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
        op = stepper._DensityOperator(grid)
        op.assemble(a, 1.0 - dt * r, dt)
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
            delta, iters = stepper._solve_newton_system(grid, a, r, dt, rhs, tol, 500, op)
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
        op = stepper._DensityOperator(grid)
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
                delta, iters = stepper._solve_newton_system(grid, a, r, 0.01, rhs, tol, 500, op)
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
        s = uniform_state(grid, n=0.5, c=0.0, d=0.3)
        c_new = fraction_update(s, s.n, 0.05, params)
        assert np.all(c_new == 0.0)

    def test_full_fraction_stays_without_back_transition(self):
        # at c = 1 both K2 and the crowding death term vanish
        grid = small_grid(8)
        params = ModelParams(rates=rates(k1=("constant", 2.0)), gamma=2.0, d_b=0.0)
        s = uniform_state(grid, n=0.5, c=1.0, d=0.3)
        c_new = fraction_update(s, s.n, 0.05, params)
        assert np.allclose(c_new, 1.0, atol=1e-15)

    def test_single_step_reaction_oracle(self):
        # zero velocity, K1 = K2 = 1, D ~ 0: c' = 1 - 2c, c(0) = 0,
        # one explicit step of dt = 0.1 gives exactly 0.1
        grid = small_grid(3)
        params = ModelParams(
            rates=rates(k1=("constant", 1.0), k2=("constant", 1.0)),
            D=1e-30, gamma=2.0, d_b=0.0,
        )
        s = uniform_state(grid, n=0.5, c=0.0)
        c_new = fraction_update(s, s.n, 0.1, params)
        assert c_new[0] == pytest.approx(0.1, abs=1e-15)

    def test_many_steps_track_relaxation_odes(self):
        # c' = 1 - 2c -> c(t) = (1 - e^(-2t))/2; explicit Euler with dt = 0.01
        grid = small_grid(3)
        params = ModelParams(
            rates=rates(k1=("constant", 1.0), k2=("constant", 1.0)),
            D=1e-30, gamma=2.0, d_b=0.0,
        )
        s = uniform_state(grid, n=0.5, c=0.0)
        dt = 0.01
        for _ in range(100):
            c_new = fraction_update(s, s.n, dt, params)
            s = replace(s, t=s.t + dt, c=c_new)
        exact = 0.5 * (1.0 - math.exp(-2.0))
        assert s.c[0] == pytest.approx(exact, abs=5e-3)

    def test_budget_violation_raises(self):
        grid = small_grid(3)
        params = ModelParams(rates=rates(k1=("constant", 30.0)), gamma=2.0, d_b=0.0)
        s = uniform_state(grid, n=0.5, c=0.2, d=1.0)
        with pytest.raises(SolverFailure):
            fraction_update(s, s.n, 0.1, params)  # dt*(K1+K2+D) = 3.1 > 1

    def test_advection_stays_in_bounds(self):
        # a sharp fraction front advected by a strong pressure gradient
        grid = small_grid(50)
        params = ModelParams(rates=rates(), gamma=2.0, d_b=0.0)
        x = grid.centers(0)
        n = 1.0 - 0.8 * x
        c = (x < 0.5).astype(float)
        s = State(t=0.0, grid=grid, n=n, c=c, d=np.zeros(grid.shape), gamma=2.0)
        dt = 0.25 * grid.h[0] / 2.0
        c_new = fraction_update(s, n, dt, params)
        assert c_new.min() >= -1e-12
        assert c_new.max() <= 1.0 + 1e-12

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
            gamma=2.0,
        )
        dt = 0.2 * grid.h[0] / max(1.0, 2.0 * float(np.max(n_vals)) ** 2)
        try:
            c_new = fraction_update(s, s.n, dt, params)
        except SolverFailure:
            return  # budget rejected the step; nothing to assert
        assert c_new.min() >= -1e-12
        assert c_new.max() <= 1.0 + 1e-12


class TestNutrientSolve:
    def test_boundary_steady_state(self):
        grid = small_grid(8)
        params = ModelParams(rates=rates(), gamma=2.0, d_b=0.7)
        consts = derive_constants(params, np.full(grid.shape, 0.7))
        s = uniform_state(grid, n=0.0, d=0.7)
        d_new, clamped, _ = nutrient_solve(s, s.n, s.c, 0.1, params, consts)
        assert np.allclose(d_new, 0.7, atol=1e-12)
        assert clamped == 0

    def test_relaxation_toward_boundary_value(self):
        grid = small_grid(16)
        params = ModelParams(rates=rates(), gamma=2.0, d_b=1.0)
        consts = derive_constants(params, np.full(grid.shape, 0.2))
        s = uniform_state(grid, n=0.0, d=0.2)
        d_new, _, _ = nutrient_solve(s, s.n, s.c, 0.05, params, consts)
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
        consts = derive_constants(params, np.full(grid.shape, 1.0))
        s = uniform_state(grid, n=1.0, c=0.0, d=1.0)
        d_new, _, _ = nutrient_solve(s, s.n, s.c, 0.1, params, consts)
        assert d_new[1] == pytest.approx(0.9, abs=1e-9)

    def test_clamping_counted(self):
        # a savage explicit sink pulls d below zero; the clamp catches it
        grid = small_grid(8)
        params = ModelParams(rates=rates(psi=("linear", 5.0)), a=5.0, gamma=2.0, d_b=1.0)
        consts = derive_constants(params, np.full(grid.shape, 1.0))
        s = uniform_state(grid, n=10.0, c=0.0, d=1.0)
        d_new, clamped, _ = nutrient_solve(s, s.n, s.c, 1.0, params, consts)
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
                  gamma=2.0)
        consts = derive_constants(params, s.d)
        dt = 0.05
        d_new, clamped, lin = nutrient_solve(s, s.n, s.c, dt, params, consts)

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
        consts = derive_constants(params, np.full(grid.shape, 0.0))
        s = uniform_state(grid, n=0.4)
        assert suggest_dt(s, params, consts, 0.5) == pytest.approx(0.125)

    def test_horizon_clipping(self):
        grid = small_grid(4)
        params = ModelParams(rates=rates(), D=1.0, gamma=2.0, d_b=0.0, T_final=1.0)
        consts = derive_constants(params, np.full(grid.shape, 0.0))
        s = uniform_state(grid, n=0.4, t=1.0 - 1e-9)
        assert suggest_dt(s, params, consts, 0.5) == pytest.approx(1e-9)

    def test_velocity_bound_arithmetic(self):
        # |u| = 2 at gamma = 1, h = 0.1, large reaction headroom, safety 0.9
        grid = Grid(dim=1, extents=(0.3,), cells=(3,))
        params = ModelParams(rates=rates(), D=1.0, gamma=1.0, d_b=0.0, T_final=100.0)
        consts = derive_constants(params, np.full(grid.shape, 0.0))
        s = State(
            t=0.0,
            grid=grid,
            n=np.array([0.4, 0.2, 0.2]),
            c=np.zeros(grid.shape),
            d=np.zeros(grid.shape),
            gamma=1.0,
        )
        assert suggest_dt(s, params, consts, 0.9) == pytest.approx(0.045)

    def test_viscous_bound_arithmetic(self):
        # the budget 2 dt binds at dt = 1/2, where the CFL and reaction
        # bounds allow the whole horizon
        s, params, consts = viscous_only()
        dt = suggest_dt(s, params, consts, 0.5)
        assert dt == pytest.approx(0.5, rel=1e-12)
        assert suggest_dt(s, replace(params, eps_reg=0.0), consts, 0.5) == 10.0
        _, report = step(s, params, consts, SETTINGS, dt)
        assert report.retries == 0 and report.dt_used == dt


class TestStep:
    def make_inert(self, cells=6):
        grid = small_grid(cells)
        params = ModelParams(rates=rates(), D=1.0, a=1.0, gamma=2.0, d_b=0.0, T_final=1.0)
        consts = derive_constants(params, np.full(grid.shape, 0.0))
        return grid, params, consts

    def test_global_fixed_point(self):
        grid, params, consts = self.make_inert()
        s = uniform_state(grid, n=0.6, c=0.0, d=0.0)
        s2, report = step(s, params, consts, SETTINGS, 0.05)
        assert s2.t == pytest.approx(0.05)
        assert np.allclose(s2.n, 0.6, atol=1e-14)
        assert np.all(s2.c == 0.0)
        assert np.allclose(s2.d, 0.0, atol=1e-14)
        assert check_all(s2, consts, TolConfig()) == []

    def test_mass_constant_without_reactions(self):
        grid, params, consts = self.make_inert(cells=40)
        x = grid.centers(0)
        n0 = np.maximum(1.0 - 4.0 * (x - 0.5) ** 2, 0.0)
        s = State(t=0.0, grid=grid, n=n0, c=np.zeros(grid.shape), d=np.zeros(grid.shape), gamma=2.0)
        mass0 = integrate(grid, n0)
        for _ in range(5):
            dt = suggest_dt(s, params, consts, 0.5)
            s, _ = step(s, params, consts, SETTINGS, dt)
        assert abs(integrate(grid, s.n) - mass0) <= 1e-12 * mass0

    def test_retry_halves_dt_until_feasible(self):
        grid = small_grid(6)
        params = ModelParams(
            rates=rates(k1=("constant", 4.0)), D=1.0, gamma=2.0, d_b=0.0, T_final=1.0,
        )
        consts = derive_constants(params, np.full(grid.shape, 0.0))
        s = uniform_state(grid, n=0.5, c=0.2)
        # dt * (K1 + K2 + D) = 1.5 > 1 violates the budget; one halving fixes it
        s2, report = step(s, params, consts, SETTINGS, 0.3)
        assert report.retries == 1
        assert report.rejections[0].startswith("fraction update monotonicity budget")
        assert report.dt_used == pytest.approx(0.15)

    def test_exhausted_retries_raise(self):
        grid = small_grid(6)
        params = ModelParams(
            rates=rates(k1=("constant", 4.0)), D=1.0, gamma=2.0, d_b=0.0, T_final=1.0,
        )
        consts = derive_constants(params, np.full(grid.shape, 0.0))
        s = uniform_state(grid, n=0.5, c=0.2)
        with pytest.raises(SolverFailure):
            step(s, params, consts, SolverSettings(retry_max=0), 0.3)

    def test_viscous_budget_forces_halvings(self):
        s, params, consts = viscous_only()
        k = 3  # budgets 6.4, 3.2, 1.6, then 0.8 at dt = 0.4
        _, report = step(s, params, consts, SolverSettings(retry_max=k), 3.2)
        assert report.retries == k == len(report.rejections)
        assert all(r.startswith("fraction update monotonicity budget") for r in report.rejections)
        assert report.dt_used == 0.4
        # the plain scheme has no viscous term and takes the full step
        _, plain = step(s, replace(params, eps_reg=0.0), consts, SETTINGS, 3.2)
        assert plain.retries == 0 and plain.rejections == []

    @pytest.mark.parametrize("hint, k", [(0.4, 0), (3.2, 3)])
    def test_one_budget_evaluation_per_attempt(self, hint, k):
        # each attempt sums the fraction budget once, in fraction_update
        s, params, consts = viscous_only()
        with mock.patch.object(stepper, "_fraction_budget", wraps=stepper._fraction_budget) as spy:
            _, report = step(s, params, consts, SETTINGS, hint)
        assert report.retries == k
        assert spy.call_count == k + 1

    def test_viscous_budget_exhausts_retries(self):
        s, params, consts = viscous_only()
        with pytest.raises(SolverFailure, match="after 2 dt halvings"):
            step(s, params, consts, SolverSettings(retry_max=2), 3.2)

    def test_determinism(self):
        grid, params, consts = self.make_inert(cells=20)
        x = grid.centers(0)
        n0 = 0.5 + 0.3 * np.cos(2 * np.pi * x)
        s = State(t=0.0, grid=grid, n=n0, c=np.full(grid.shape, 0.25), d=np.zeros(grid.shape), gamma=2.0)
        a, _ = step(s, params, consts, SETTINGS, 0.01)
        b, _ = step(s, params, consts, SETTINGS, 0.01)
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
            gamma=3.0,
        )
        dt = 0.01
        tight = SolverSettings(newton_tol=1e-12)
        n_new, _ = density_solve(s, dt, params, tight)
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
        x = grid.centers(0)
        n0 = 0.3 + 0.4 * np.exp(-20 * (x - 0.5) ** 2) + eps
        s = State(t=0.0, grid=grid, n=n0, c=np.full(grid.shape, 0.2), d=np.full(grid.shape, 1.0), gamma=3.0)
        return s, params, consts

    def test_inactive_cutoff_counts_zero(self):
        s, params, consts = self.make_setup(0.05)
        _, report = step(s, params, consts, SETTINGS, 0.01)
        assert report.cutoff_activations == 0

    def test_low_cutoff_level_activates(self):
        s, params, consts = self.make_setup(0.05, ell=0.4)  # below max n ~ 0.75
        _, report = step(s, params, consts, SETTINGS, 0.01)
        assert report.cutoff_activations > 0

    def test_step_rejects_unresolved_cutoff(self):
        s, params, consts = self.make_setup(0.05)
        with pytest.raises(ValueError, match="ell_cut"):
            step(s, replace(params, ell_cut=0.0), consts, SETTINGS, 0.01)

    def test_viscosity_spreads_the_fraction(self):
        s, params, consts = self.make_setup(0.1)
        c = s.c.copy()
        c[:12] = 0.6
        s = replace(s, t=0.0, c=c)
        s2, _ = step(s, params, consts, SETTINGS, 0.001)
        assert s2.c.max() <= 0.6 + 1e-12
        assert s2.c.min() >= 0.0
        # the jump at the interface is smoothed
        jump_before = abs(c[12] - c[11])
        jump_after = abs(s2.c[12] - s2.c[11])
        assert jump_after < jump_before


def eps_study_start(eps, cells=100):
    """The eps study's initial state and parameters, resolved as harness.run does."""
    cfg = parse_config(EPS_STUDY_CONFIG.read_text()).with_overrides(grid__cells_x=cells)
    if eps > 0.0:
        cfg = cfg.with_overrides(model__eps_reg=eps, initial__lift="eps")
    grid = build_grid(cfg)
    params = make_params(cfg)
    n0, c0, d0 = initial_fields(cfg, grid, params)
    consts = derive_constants(params, d0)
    if eps > 0.0:
        n0, c0 = apply_lift(n0, c0, eps)
        ell = max(consts.L, math.exp(2.0 * consts.M0 * params.T_final) * float(n0.max()))
        params = replace(params, ell_cut=ell * (1.0 + BOUND_INFLATION))
    state = State(t=0.0, grid=grid, n=n0, c=c0, d=d0, gamma=params.gamma)
    return state, params, consts, make_settings(cfg)


def old_suggest_dt(state, params, consts, safety):
    """The controller before the fraction budget bound: CFL and reaction bounds only."""
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


def budget_limit(state, params):
    """1 / max beta: the largest dt the full fraction budget accepts at the current state."""
    u = stepper._face_velocities(state.grid, state.n, params.gamma, params.eps_reg)
    rate_sum = stepper._fraction_rates(state, params)[2]
    return 1.0 / float(np.max(stepper._fraction_budget(state.grid, 1.0, params, rate_sum, u)))


#: where the refined eps = 0.1 studies failed with the CFL and reaction hint
LATE_T = 0.214


@pytest.fixture(scope="module")
def eps_late_state():
    """The 100-cell eps = 0.1 study's state at LATE_T."""
    cfg = parse_config(EPS_STUDY_CONFIG.read_text()).with_overrides(
        model__eps_reg=0.1, initial__lift="eps", time__T_final=LATE_T
    )
    res = run(cfg)
    assert res.ok
    return res.final_state


def controller_case(eps, cells, late_state=None):
    """The eps study on ``cells`` cells, at its start or at ``late_state`` put on its grid."""
    state, params, consts, settings = eps_study_start(eps, cells)
    if late_state is not None:
        x, x_late = state.grid.centers(0), late_state.grid.centers(0)

        def on_grid(f):
            return np.interp(x, x_late, f)

        state = State(t=late_state.t, grid=state.grid, n=on_grid(late_state.n),
                      c=on_grid(late_state.c), d=on_grid(late_state.d), gamma=params.gamma)
    return state, params, consts, settings


@pytest.mark.parametrize("late", [False, True], ids=["start", "late"])
@pytest.mark.parametrize("cells", [100, 200, 400])
@pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
class TestDtController:
    @pytest.fixture
    def case(self, eps, cells, late, eps_late_state):
        return controller_case(eps, cells, eps_late_state if late else None)

    def test_suggested_dt_meets_the_budget(self, case):
        state, params, consts, settings = case
        dt = suggest_dt(state, params, consts, settings.safety)
        u = stepper._face_velocities(state.grid, state.n, params.gamma, params.eps_reg)
        rate_sum = stepper._fraction_rates(state, params)[2]
        stepper._enforce_budget(stepper._fraction_budget(state.grid, dt, params, rate_sum, u))

    def test_step_takes_the_suggested_dt(self, case):
        state, params, consts, settings = case
        dt = suggest_dt(state, params, consts, settings.safety)
        _, report = step(state, params, consts, settings, dt)
        assert report.retries == 0 and report.rejections == []
        assert report.dt_used == dt


def test_refined_late_state_is_out_of_reach_of_halving(eps_late_state):
    # on 400 cells the CFL and reaction hint halved retry_max times still
    # exceeds the budget, so step fails from it; the suggested dt needs no halving
    state, params, consts, settings = controller_case(0.1, 400, eps_late_state)
    old = old_suggest_dt(state, params, consts, settings.safety)
    assert old > 2**settings.retry_max * budget_limit(state, params)
    with pytest.raises(SolverFailure, match=f"after {settings.retry_max} dt halvings"):
        step(state, params, consts, settings, old)
    dt = suggest_dt(state, params, consts, settings.safety)
    _, report = step(state, params, consts, settings, dt)
    assert report.retries == 0


def test_2d_suggested_dt_meets_the_budget():
    grid = Grid(dim=2, extents=(1.0, 0.8), cells=(16, 12))
    params = ModelParams(
        rates=rates(g=("linear", 0.5), k1=("linear", 0.3), k2=("constant", 0.2)),
        D=1.0, a=1.0, gamma=3.0, d_b=1.0, T_final=0.1, eps_reg=0.05, ell_cut=2.0,
    )
    consts = derive_constants(params, np.full(grid.shape, 1.0))
    x, y = grid.coordinate_fields()
    n = 0.3 + 0.6 * np.exp(-20 * ((x - 0.5) ** 2 + (y - 0.4) ** 2))
    s = State(t=0.0, grid=grid, n=n, c=np.full(grid.shape, 0.2), d=np.full(grid.shape, 1.0), gamma=3.0)
    dt = suggest_dt(s, params, consts, SETTINGS.safety)
    assert dt == pytest.approx(budget_limit(s, params), rel=1e-12)  # the budget binds
    _, report = step(s, params, consts, SETTINGS, dt)
    assert report.retries == 0


def test_plain_suggestion_is_the_old_formula(monkeypatch):
    # at eps = 0 the budget bound never binds on the shipped configs: the
    # suggested dt is the CFL and reaction formula, bit for bit
    seen = []

    def spy(state, params, consts, safety):
        dt = suggest_dt(state, params, consts, safety)
        assert dt == old_suggest_dt(state, params, consts, safety)
        seen.append(dt)
        return dt

    def read(name):
        return parse_config((CONFIGS / name).read_text())

    monkeypatch.setattr(harness, "suggest_dt", spy)
    assert run(read("growth_1d.cfg")).ok
    assert run(read("eps_study.cfg")).ok  # the study's eps = 0 reference
    assert all(e.ok for e in gamma_sweep(read("sweep.cfg")).entries)
    barenblatt_benchmark(read("barenblatt.cfg"))
    assert len(seen) > 100
