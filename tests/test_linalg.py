import importlib.machinery
import importlib.util
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tissuesim import linalg
from tissuesim.config import parse_config, serialize_config
from tissuesim.errors import SolverFailure
from tissuesim.grid import Grid, laplacian_neumann
from tissuesim.linalg import line_basis, pcg_solve, thomas_solve

from reference_ops import dense, is_symmetric, jacobi_pcg, laplacian_dirichlet, tridiag_matvec


def identity_tridiag(n):
    """(lower, diag, upper) of the n x n identity, off-diagonals of length n - 1."""
    return np.zeros(n - 1), np.ones(n), np.zeros(n - 1)


class TestThomas:
    def test_identity_returns_rhs(self):
        rhs = np.array([1.0, -2.0, 3.0, 0.5])
        x = thomas_solve(*identity_tridiag(4), rhs)
        assert np.allclose(x, rhs, atol=1e-14)

    def test_small_symmetric_system(self):
        # [[2,1],[1,2]] x = [3,3] -> x = [1,1]
        x = thomas_solve(np.array([1.0]), np.array([2.0, 2.0]), np.array([1.0]),
                         np.array([3.0, 3.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_random_diagonally_dominant_residual(self):
        rng = np.random.default_rng(42)
        n = 100
        lower = rng.uniform(-1, 1, n - 1)
        upper = rng.uniform(-1, 1, n - 1)
        diag = 3.0 + rng.uniform(0, 1, n)
        rhs = rng.standard_normal(n)
        x = thomas_solve(lower, diag, upper, rhs)
        resid = np.max(np.abs(tridiag_matvec(lower, diag, upper, x) - rhs))
        scale = np.max(np.abs(rhs)) + np.max(np.abs(x))
        assert resid <= 1e-12 * scale

    def test_singular_system_raises(self):
        with pytest.raises(SolverFailure):
            thomas_solve(np.zeros(2), np.zeros(3), np.zeros(2), np.ones(3))

    def test_non_finite_input_is_solver_failure(self):
        with pytest.raises(SolverFailure), np.errstate(invalid="ignore"):
            thomas_solve(np.zeros(2), np.array([1.0, np.inf, 1.0]), np.zeros(2), np.ones(3))
        with pytest.raises(SolverFailure):
            thomas_solve(*identity_tridiag(3), np.array([1.0, np.nan, 1.0]))

    def test_determinism(self):
        rng = np.random.default_rng(1)
        n = 50
        m = (rng.uniform(-1, 1, n - 1), 4.0 + rng.uniform(0, 1, n), rng.uniform(-1, 1, n - 1))
        rhs = rng.standard_normal(n)
        x1 = thomas_solve(*m, rhs)
        x2 = thomas_solve(*m, rhs)
        assert np.array_equal(x1, x2)

    @given(seed=st.integers(0, 10_000), n=st.integers(3, 40))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_solver(self, seed, n):
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-1, 1, n - 1)
        upper = rng.uniform(-1, 1, n - 1)
        diag = 3.0 + rng.uniform(0, 1, n)
        rhs = rng.standard_normal(n)
        dense = np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)
        expected = np.linalg.solve(dense, rhs)
        assert np.allclose(thomas_solve(lower, diag, upper, rhs), expected, atol=1e-10)

    @staticmethod
    def stiff_system(n=200, coupling=1e6):
        """I - coupling lap_N on n unit cells, with a random right side: |A| |x| >> |rhs|."""
        deg = np.full(n, 2.0)
        deg[0] = deg[-1] = 1.0
        off = np.full(n - 1, -coupling)
        rhs = np.random.default_rng(5).standard_normal(n)
        return off, 1.0 + coupling * deg, off, rhs

    def test_large_entries_pass_the_backward_error_test(self):
        # a bound of 1e-12 (|rhs| + |x|) has no |A| term and rejects this
        # solve, whose residual is a few roundings of |A| |x|
        lower, diag, upper, rhs = self.stiff_system()
        x = thomas_solve(lower, diag, upper, rhs)
        resid = np.max(np.abs(tridiag_matvec(lower, diag, upper, x) - rhs))
        assert resid > 1e-12 * (np.max(np.abs(rhs)) + np.max(np.abs(x)))
        a_norm = np.max(np.abs(diag) + np.abs(np.r_[upper, 0.0]) + np.abs(np.r_[0.0, lower]))
        assert resid <= 1e-14 * a_norm * np.max(np.abs(x))

    def test_perturbed_solution_fails(self, monkeypatch):
        # a solution off by 1e-8 relative is no backward-stable solve
        system = self.stiff_system()
        noise = 1.0 + 1e-8 * np.random.default_rng(6).standard_normal(len(system[1]))
        real = linalg._dgtsv()

        def perturbed(*args):
            *bands, x, info = real(*args)
            return (*bands, x * noise, info)

        monkeypatch.setattr(linalg, "_dgtsv", lambda: perturbed)
        with pytest.raises(SolverFailure, match="tridiagonal residual"):
            thomas_solve(*system)

    def test_mismatched_lengths_are_value_errors(self):
        # gtsv's band form: off-diagonals of length n - 1, the right side of length n
        lower, diag, upper = identity_tridiag(4)
        for args in ((np.zeros(4), diag, upper, np.ones(4)),
                     (lower, diag, np.zeros(2), np.ones(4)),
                     (lower, diag, upper, np.ones(3))):
            with pytest.raises(ValueError):
                thomas_solve(*args)


def dominant_tridiag(rng, n):
    return rng.uniform(-1, 1, n - 1), 3.0 + rng.uniform(0, 1, n), rng.uniform(-1, 1, n - 1)


ROOT = Path(__file__).resolve().parents[1]

#: the scipy modules and numpy.fft that a probe process has loaded
LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.fft'))"

#: growth_1d on 32 x 32 cells with the fraction viscosity: both 2D line solves
GROWTH_2D_SMALL = {"grid.dim": 2, "grid.cells_x": 32, "grid.cells_y": 32, "grid.extent_y": 1.0,
                   "initial.center_y": 0.5, "model.eps_reg": 0.01}


def run_probe(code):
    probe = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); " + code
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return out.stdout.strip()


def short_run_config(tmp_path, overrides):
    """A growth_1d config file to T = 0.02 with the given overrides."""
    cfg = parse_config((ROOT / "configs" / "growth_1d.cfg").read_text())
    path = tmp_path / "short.cfg"
    path.write_text(serialize_config(cfg.with_overrides(**overrides, **{"time.T_final": 0.02})))
    return path


def run_and_list_modules(tmp_path, overrides):
    cfg = short_run_config(tmp_path, overrides)
    out = run_probe(
        "import tissuesim; from tissuesim import cli; "
        f"code = cli.main(['run', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]); "
        f"print(code, {LOADED})"
    )
    return out.splitlines()[-1]


class TestLapackLoader:
    def test_import_loads_no_scipy_or_fft(self):
        # the scipy package import costs more start-up than all of tissuesim,
        # and its LAPACK extension maps OpenBLAS and libgfortran
        assert run_probe(f"import tissuesim; print({LOADED})") == "[]"

    def test_2d_run_loads_no_scipy_or_fft(self, tmp_path):
        assert run_and_list_modules(tmp_path, GROWTH_2D_SMALL) == "0 []"

    def test_1d_run_loads_only_the_lapack_extension(self, tmp_path):
        assert run_and_list_modules(tmp_path, {}) == "0 ['scipy.linalg._flapack']"

    def test_scipy_linalg_imports_after_tissuesim(self):
        out = run_probe(
            "import numpy as np; import tissuesim; from tissuesim import linalg; "
            "m = (np.ones(2), np.full(3, 4.0), np.ones(2)); "
            "rhs = np.array([1.0, 2.0, 3.0]); x = linalg.thomas_solve(*m, rhs); "
            "import scipy.linalg; "
            "banded = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]]); "
            "print(linalg._dgtsv() is scipy.linalg.lapack.dgtsv, "
            "np.array_equal(scipy.linalg.solve_banded((1, 1), banded, rhs), x))"
        )
        assert out == "True True"

    @pytest.mark.parametrize("blocks", [1, 8])
    def test_bit_identical_to_scipy_dgtsv(self, blocks):
        from scipy.linalg.lapack import dgtsv

        rng = np.random.default_rng(blocks)
        lower, diag, upper = dominant_tridiag(rng, 400)
        # independent systems stacked end to end: no coupling across block edges
        lower[400 // blocks - 1::400 // blocks] = 0.0
        upper[400 // blocks - 1::400 // blocks] = 0.0
        rhs = rng.standard_normal(400)
        *_, expected, info = dgtsv(lower, diag, upper, rhs)
        assert info == 0
        assert thomas_solve(lower, diag, upper, rhs).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("installed", [True, False])
    def test_missing_extension_is_import_error(self, monkeypatch, tmp_path, installed):
        spec = importlib.machinery.ModuleSpec("scipy", None, origin=str(tmp_path / "__init__.py"))
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec if installed else None)
        match = re.escape(str(tmp_path / "linalg")) if installed else "scipy is not installed"
        with pytest.raises(ImportError, match=match):
            linalg._load_flapack()


def dst2_matrix(n):
    """Dense orthonormal DST-II: row k - 1 is mode k = 1..n."""
    k = np.arange(1, n + 1)[:, None]
    j = np.arange(n)[None, :]
    out = np.sqrt(2.0 / n) * np.sin(np.pi * k * (j + 0.5) / n)
    out[-1] /= np.sqrt(2.0)
    return out


def dct2_matrix(n):
    """Dense orthonormal DCT-II: row k is mode k = 0..n-1."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    out = np.sqrt(2.0 / n) * np.cos(np.pi * k * (j + 0.5) / n)
    out[0] /= np.sqrt(2.0)
    return out


def check_basis(n, dirichlet, dense_matrix):
    basis, _ = line_basis(n, 0.3, dirichlet)
    assert np.allclose(basis, dense_matrix(n), rtol=0.0, atol=1e-14)
    assert np.allclose(basis @ basis.T, np.eye(n), rtol=0.0, atol=1e-14)


def check_round_trip(dirichlet):
    # the basis along the last axis, then its transpose back
    basis, _ = line_basis(11, 0.3, dirichlet)
    v = np.random.default_rng(7).standard_normal((5, 11))
    assert np.allclose((v @ basis.T) @ basis, v, rtol=0.0, atol=1e-14)


def check_diagonalizes(n, dirichlet, dense_matrix, minus_laplacian):
    # -lap of mode k along one axis is 4/h^2 sin^2(pi k / 2n) times the mode
    h = 0.3
    g = Grid(dim=1, extents=(n * h,), cells=(n,))
    modes, lam = line_basis(n, h, dirichlet)
    k = np.arange(1, n + 1) if dirichlet else np.arange(n)
    assert np.allclose(lam, 4.0 / h**2 * np.sin(np.pi * k / (2 * n)) ** 2, rtol=1e-14, atol=0.0)
    applied = np.array([minus_laplacian(g, mode) for mode in dense_matrix(n)])
    assert np.allclose(applied, lam[:, None] * modes, rtol=0.0, atol=1e-12 * lam.max())


class TestSineTransform:
    """``line_basis`` with Dirichlet walls: the orthonormal DST-II."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 13, 128])
    def test_matches_dense_orthonormal_dst2(self, n):
        check_basis(n, True, dst2_matrix)

    def test_round_trip_along_last_axis(self):
        check_round_trip(True)

    def test_diagonalizes_dirichlet_laplacian(self):
        for n in (3, 7, 9, 128):
            check_diagonalizes(n, True, dst2_matrix, lambda g, v: -laplacian_dirichlet(g, v, 0.0))


class TestCosineTransform:
    """``line_basis`` with no-flux walls: the orthonormal DCT-II."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 13, 128])
    def test_matches_dense_orthonormal_dct2(self, n):
        check_basis(n, False, dct2_matrix)

    def test_round_trip_along_last_axis(self):
        check_round_trip(False)

    @pytest.mark.parametrize("n", [3, 7, 8, 9, 128])
    def test_diagonalizes_neumann_laplacian(self, n):
        # the constant mode k = 0 has eigenvalue 0
        check_diagonalizes(n, False, dct2_matrix, lambda g, v: -laplacian_neumann(g, v))
        assert line_basis(n, 0.3, False)[1][0] == 0.0


def test_line_basis_is_cached_and_read_only():
    basis, lam = line_basis(9, 0.3, True)
    assert line_basis(9, 0.3, True)[0] is basis
    with pytest.raises(ValueError):
        basis[0, 0] = 1.0
    with pytest.raises(ValueError):
        lam[0] = 1.0


def test_2d_run_is_bit_identical_across_blas_threads(tmp_path):
    # the 2D line solves go through BLAS matrix products
    cfg = short_run_config(tmp_path, GROWTH_2D_SMALL)
    out = tmp_path / "out"
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(ROOT / "src")}
        subprocess.run([sys.executable, "-m", "tissuesim", "run", "--config", str(cfg), "--out", str(out)],
                       env=env, capture_output=True, check=True)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
        shutil.rmtree(out)
    assert outputs[0] and outputs[0] == outputs[1]


def helmholtz_op(grid, shift):
    """(shift*I - laplacian_dirichlet) as its matvec (x -> A x) and its diagonal."""

    def matvec(x_flat):
        x = x_flat.reshape(grid.shape)
        out = shift * x - laplacian_dirichlet(grid, x, 0.0)
        return out.ravel()

    degx = np.full(grid.shape, 2.0)
    degx[0, :] = degx[-1, :] = 3.0
    degy = np.full(grid.shape, 2.0)
    degy[:, 0] = degy[:, -1] = 3.0
    diag = shift + degx / grid.h[0] ** 2 + degy / grid.h[1] ** 2
    return matvec, diag.ravel()


def jacobi_scaled(matvec, diagonal):
    """``pcg_solve``'s operator for the system (matvec, diagonal): D^-1/2 A D^-1/2 x into out."""
    inv_sqrt = 1.0 / np.sqrt(diagonal)

    def scaled(y, out):
        out[:] = inv_sqrt * matvec(inv_sqrt * y)

    return scaled, diagonal


def work_for(rhs):
    """A fresh (5, n) work array for ``pcg_solve`` on the right side ``rhs``."""
    return np.empty((5, len(rhs)))


def bound_for(weights, rhs, tol):
    """``pcg_solve``'s stopping bound for the relative tolerance tol: tol sqrt(sum weights rhs^2)."""
    return tol * math.sqrt(float(np.dot(weights * rhs, rhs)))


def solve_scaled(matvec, diagonal, rhs, tol, max_iters):
    """Solve A x = rhs through ``pcg_solve`` on the Jacobi-scaled operator to the
    2-norm residual tol |rhs|; (x, iterations)."""
    inv_sqrt = 1.0 / np.sqrt(diagonal)
    bound = tol * float(np.linalg.norm(rhs))
    res = pcg_solve(*jacobi_scaled(matvec, diagonal), inv_sqrt * rhs, bound, max_iters, work_for(rhs))
    return inv_sqrt * res.x, res.iterations


class TestPcg:
    def test_zero_rhs_zero_iterations(self):
        g = Grid(dim=2, extents=(1.0, 1.0), cells=(8, 8))
        rhs = np.zeros(64)
        for bound in (0.0, 1e-12):
            work = np.full((5, 64), np.nan)
            res = pcg_solve(*jacobi_scaled(*helmholtz_op(g, 1.0)), rhs, bound, 100, work)
            assert res.iterations == 0
            assert np.all(res.x == 0.0)

    def test_initial_residual_within_the_bound_zero_iterations(self):
        # the test is made before the first iteration: a right side whose
        # weighted norm already meets the bound returns x = 0 without a matvec
        g = Grid(dim=2, extents=(1.0, 1.0), cells=(8, 8))
        scaled, weights = jacobi_scaled(*helmholtz_op(g, 1.0))
        rhs = np.random.default_rng(4).standard_normal(64)
        rhs_norm = bound_for(weights, rhs, 1.0)
        calls = []

        def counted(y, out):
            calls.append(1)
            scaled(y, out)

        res = pcg_solve(counted, weights, rhs, rhs_norm, 100, work_for(rhs))
        assert res.iterations == 0 and calls == []
        assert np.all(res.x == 0.0)
        res = pcg_solve(counted, weights, rhs, 0.999 * rhs_norm, 100, work_for(rhs))
        assert res.iterations == len(calls) >= 1

    def test_identity_converges_in_one(self):
        rhs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])

        def identity(y, out):
            out[:] = y

        res = pcg_solve(identity, np.ones(5), rhs, 1e-12 * np.linalg.norm(rhs), 10, work_for(rhs))
        assert res.iterations <= 1
        assert np.allclose(res.x, rhs, atol=1e-12)

    def test_helmholtz_matches_direct_solve_on_separable_problem(self):
        # cross-solver oracle: the 2D Dirichlet Helmholtz problem against a
        # dense solve of the same operator
        nx, ny = 64, 5
        g = Grid(dim=2, extents=(1.0, 1.0), cells=(nx, ny))
        matvec, diagonal = helmholtz_op(g, 10.0)
        rng = np.random.default_rng(3)
        rhs = rng.standard_normal((nx, ny)).ravel()
        x, _ = solve_scaled(matvec, diagonal, rhs, tol=1e-12, max_iters=2000)
        x_direct = np.linalg.solve(dense(matvec, g.num_cells), rhs)
        assert np.allclose(x, x_direct, atol=1e-8)

    def test_helmholtz_1d_line_cross_check(self):
        # same operator assembled as a tridiagonal system in 1D
        n = 64
        g1 = Grid(dim=1, extents=(1.0,), cells=(n,))
        shift = 25.0
        h2 = g1.h[0] ** 2
        diag = np.full(n, shift + 2.0 / h2)
        diag[0] = diag[-1] = shift + 3.0 / h2
        off = np.full(n - 1, -1.0 / h2)
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal(n)
        x_direct = thomas_solve(off, diag, off, rhs)

        def matvec(x):
            return shift * x - laplacian_dirichlet(g1, x, 0.0)

        x, _ = solve_scaled(matvec, diag, rhs, tol=1e-13, max_iters=1000)
        assert np.allclose(x, x_direct, atol=1e-8)

    @pytest.mark.parametrize("cells, shift, tol", [
        ((12, 12), 9.0, 1e-10), ((16, 7), 1e-3, 1e-6), ((20, 20), 0.5, 0.1),
    ])
    def test_matches_reference_jacobi_pcg(self, cells, shift, tol):
        # CG on D^-1/2 A D^-1/2 is Jacobi-PCG on A in exact arithmetic; its
        # stopping test is the 2-norm test on A's residual
        g = Grid(dim=2, extents=(1.0, 0.8), cells=cells)
        matvec, diagonal = helmholtz_op(g, shift)
        rng = np.random.default_rng(cells[1])
        rhs = rng.standard_normal(g.num_cells)
        x, iters = solve_scaled(matvec, diagonal, rhs, tol, 2000)
        x_ref, iters_ref = jacobi_pcg(matvec, diagonal, rhs, tol, 2000)
        assert abs(iters - iters_ref) <= 1 and iters > 1
        assert np.linalg.norm(matvec(x) - rhs) <= tol * np.linalg.norm(rhs)
        x_direct = np.linalg.solve(dense(matvec, g.num_cells), rhs)
        cond = np.linalg.cond(dense(matvec, g.num_cells))
        for sol in (x, x_ref):
            assert np.linalg.norm(sol - x_direct) <= cond * tol * np.linalg.norm(x_direct)

    def test_exit_residual_meets_the_weighted_test(self):
        # the last residual of the scaled system, weighted by the diagonal,
        # is within tol of the weighted right side; one iteration earlier it was not
        g = Grid(dim=2, extents=(1.0, 1.0), cells=(10, 14))
        matvec, diagonal = helmholtz_op(g, 2.0)
        scaled, weights = jacobi_scaled(matvec, diagonal)
        rhs = np.random.default_rng(8).standard_normal(g.num_cells)
        tol = 1e-7
        weighted_norm = lambda v: math.sqrt(float(np.dot(weights * v, v)))
        bound = bound_for(weights, rhs, tol)
        res = pcg_solve(scaled, weights, rhs, bound, 500, work_for(rhs))
        ax = np.empty(g.num_cells)
        scaled(res.x, ax)
        assert weighted_norm(rhs - ax) <= bound
        with pytest.raises(SolverFailure, match="stagnated"):
            pcg_solve(scaled, weights, rhs, bound, res.iterations - 1, work_for(rhs))

    def test_work_array_holds_the_solution(self):
        g = Grid(dim=2, extents=(1.0, 1.0), cells=(9, 9))
        scaled, weights = jacobi_scaled(*helmholtz_op(g, 3.0))
        rhs = np.random.default_rng(2).standard_normal(g.num_cells)
        work = np.full((5, g.num_cells), np.nan)
        bound = bound_for(weights, rhs, 1e-10)
        fresh = pcg_solve(scaled, weights, rhs, bound, 500, np.zeros((5, g.num_cells)))
        reused = pcg_solve(scaled, weights, rhs, bound, 500, work)
        assert np.shares_memory(reused.x, work[0])
        assert np.array_equal(reused.x, fresh.x) and reused.iterations == fresh.iterations

    def test_stagnation_raises(self):
        g = Grid(dim=2, extents=(1.0, 1.0), cells=(16, 16))
        rhs = np.ones(g.num_cells)
        scaled, weights = jacobi_scaled(*helmholtz_op(g, 1e-6))
        with pytest.raises(SolverFailure):
            pcg_solve(scaled, weights, rhs, bound_for(weights, rhs, 1e-14), 2, work_for(rhs))

    def test_symmetry_probe(self):
        g = Grid(dim=2, extents=(1.0, 1.0), cells=(10, 10))
        matvec, _ = helmholtz_op(g, 4.0)
        assert is_symmetric(matvec, g.num_cells)

        def lopsided(x):
            y = x.copy()
            y[0] += x[-1]
            return y

        assert not is_symmetric(lopsided, g.num_cells)

    def test_determinism(self):
        g = Grid(dim=2, extents=(1.0, 1.0), cells=(12, 12))
        op = jacobi_scaled(*helmholtz_op(g, 9.0))
        rng = np.random.default_rng(13)
        rhs = rng.standard_normal(g.num_cells)
        bound = bound_for(op[1], rhs, 1e-12)
        r1 = pcg_solve(*op, rhs, bound, 500, work_for(rhs))
        r2 = pcg_solve(*op, rhs, bound, 500, work_for(rhs))
        assert np.array_equal(r1.x, r2.x)
        assert r1.iterations == r2.iterations
