import importlib.machinery
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tissuesim import linalg
from tissuesim.errors import SolverFailure
from tissuesim.grid import Field, Grid
from tissuesim.linalg import (
    TriDiag,
    dirichlet_eigenvalues,
    inverse_sine_transform,
    pcg_solve,
    sine_transform,
    thomas_solve,
)

from reference_ops import is_symmetric, laplacian_dirichlet


def identity_tridiag(n):
    return TriDiag(lower=np.zeros(n), diag=np.ones(n), upper=np.zeros(n))


class TestThomas:
    def test_identity_returns_rhs(self):
        rhs = np.array([1.0, -2.0, 3.0, 0.5])
        x = thomas_solve(identity_tridiag(4), rhs)
        assert np.allclose(x, rhs, atol=1e-14)

    def test_small_symmetric_system(self):
        # [[2,1],[1,2]] x = [3,3] -> x = [1,1]
        m = TriDiag(lower=np.array([0.0, 1.0]), diag=np.array([2.0, 2.0]),
                    upper=np.array([1.0, 0.0]))
        x = thomas_solve(m, np.array([3.0, 3.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_random_diagonally_dominant_residual(self):
        rng = np.random.default_rng(42)
        n = 100
        lower = rng.uniform(-1, 1, n)
        upper = rng.uniform(-1, 1, n)
        lower[0] = upper[-1] = 0.0
        diag = 3.0 + rng.uniform(0, 1, n)
        m = TriDiag(lower=lower, diag=diag, upper=upper)
        rhs = rng.standard_normal(n)
        x = thomas_solve(m, rhs)
        resid = np.max(np.abs(m.matvec(x) - rhs))
        scale = np.max(np.abs(rhs)) + np.max(np.abs(x))
        assert resid <= 1e-12 * scale

    def test_singular_system_raises(self):
        m = TriDiag(lower=np.zeros(3), diag=np.zeros(3), upper=np.zeros(3))
        with pytest.raises(SolverFailure):
            thomas_solve(m, np.ones(3))

    def test_non_finite_input_is_solver_failure(self):
        m = TriDiag(lower=np.zeros(3), diag=np.array([1.0, np.inf, 1.0]), upper=np.zeros(3))
        with pytest.raises(SolverFailure), np.errstate(invalid="ignore"):
            thomas_solve(m, np.ones(3))
        with pytest.raises(SolverFailure):
            thomas_solve(identity_tridiag(3), np.array([1.0, np.nan, 1.0]))

    def test_determinism(self):
        rng = np.random.default_rng(1)
        n = 50
        m = TriDiag(lower=rng.uniform(-1, 1, n), diag=4.0 + rng.uniform(0, 1, n),
                    upper=rng.uniform(-1, 1, n))
        rhs = rng.standard_normal(n)
        x1 = thomas_solve(m, rhs)
        x2 = thomas_solve(m, rhs)
        assert np.array_equal(x1, x2)

    @given(seed=st.integers(0, 10_000), n=st.integers(3, 40))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_solver(self, seed, n):
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-1, 1, n)
        upper = rng.uniform(-1, 1, n)
        lower[0] = upper[-1] = 0.0
        diag = 3.0 + rng.uniform(0, 1, n)
        m = TriDiag(lower=lower, diag=diag, upper=upper)
        rhs = rng.standard_normal(n)
        dense = np.diag(diag) + np.diag(upper[:-1], 1) + np.diag(lower[1:], -1)
        expected = np.linalg.solve(dense, rhs)
        assert np.allclose(thomas_solve(m, rhs), expected, atol=1e-10)


def dominant_tridiag(rng, n):
    lower = rng.uniform(-1, 1, n)
    upper = rng.uniform(-1, 1, n)
    lower[0] = upper[-1] = 0.0
    return TriDiag(lower=lower, diag=3.0 + rng.uniform(0, 1, n), upper=upper)


def run_probe(code):
    src = Path(__file__).resolve().parents[1] / "src"
    probe = f"import sys; sys.path.insert(0, {str(src)!r}); " + code
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return out.stdout.strip()


class TestLapackLoader:
    def test_import_loads_only_the_lapack_extension(self):
        # the scipy package import costs more start-up than all of tissuesim
        out = run_probe(
            "import tissuesim; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        assert out == "['scipy.linalg._flapack']"

    def test_scipy_linalg_imports_after_tissuesim(self):
        out = run_probe(
            "import numpy as np; import tissuesim; import scipy.linalg; "
            "from tissuesim.linalg import TriDiag, dgtsv, thomas_solve; "
            "m = TriDiag(np.array([0.0, 1.0, 1.0]), np.full(3, 4.0), np.array([1.0, 1.0, 0.0])); "
            "rhs = np.array([1.0, 2.0, 3.0]); "
            "banded = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]]); "
            "print(dgtsv is scipy.linalg.lapack.dgtsv, "
            "np.array_equal(scipy.linalg.solve_banded((1, 1), banded, rhs), thomas_solve(m, rhs)))"
        )
        assert out == "True True"

    @pytest.mark.parametrize("blocks", [1, 8])
    def test_bit_identical_to_scipy_dgtsv(self, blocks):
        from scipy.linalg.lapack import dgtsv

        rng = np.random.default_rng(blocks)
        m = dominant_tridiag(rng, 400)
        # independent systems stacked end to end: no coupling across block edges
        m.lower[::400 // blocks] = 0.0
        m.upper[400 // blocks - 1::400 // blocks] = 0.0
        rhs = rng.standard_normal(400)
        *_, expected, info = dgtsv(m.lower[1:], m.diag, m.upper[:-1], rhs)
        assert info == 0
        assert thomas_solve(m, rhs).tobytes() == expected.tobytes()

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


class TestSineTransform:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 13])
    def test_matches_dense_orthonormal_dst2(self, n):
        s = dst2_matrix(n)
        assert np.allclose(s @ s.T, np.eye(n), atol=1e-14)
        v = np.random.default_rng(n).standard_normal((4, n))
        assert np.allclose(sine_transform(v), v @ s.T, atol=1e-13)
        assert np.allclose(inverse_sine_transform(v), v @ s, atol=1e-13)

    def test_round_trip_along_last_axis(self):
        v = np.random.default_rng(7).standard_normal((5, 11))
        assert np.allclose(inverse_sine_transform(sine_transform(v)), v, atol=1e-14)

    def test_diagonalizes_dirichlet_laplacian(self):
        # -lap_D of mode k along one axis is 4/h^2 sin^2(pi k / 2n) times the mode
        n, h = 9, 0.3
        g = Grid(dim=1, extents=(n * h,), cells=(n,))
        modes = dst2_matrix(n)
        lam = dirichlet_eigenvalues(n, h)
        assert np.allclose(lam, 4.0 / h**2 * np.sin(np.pi * np.arange(1, n + 1) / (2 * n)) ** 2)
        for k in range(1, n + 1):
            applied = -laplacian_dirichlet(Field(g, modes[k - 1]), 0.0)
            assert np.allclose(applied, lam[k - 1] * modes[k - 1], atol=1e-12)


def helmholtz_op(grid, shift):
    """(shift*I - laplacian_dirichlet) as its matvec and its diagonal."""

    def matvec(x_flat):
        x = x_flat.reshape(grid.shape)
        out = shift * x - laplacian_dirichlet(Field(grid, x), 0.0)
        return out.ravel()

    degx = np.full(grid.shape, 2.0)
    degx[0, :] = degx[-1, :] = 3.0
    degy = np.full(grid.shape, 2.0)
    degy[:, 0] = degy[:, -1] = 3.0
    diag = shift + degx / grid.h[0] ** 2 + degy / grid.h[1] ** 2
    return matvec, diag.ravel()


class TestPcg:
    def test_zero_rhs_zero_iterations(self):
        g = Grid(dim=2, extents=(1.0, 1.0), cells=(8, 8))
        res = pcg_solve(*helmholtz_op(g, 1.0), np.zeros(64), tol=1e-12, max_iters=100)
        assert res.iterations == 0
        assert np.all(res.x == 0.0)

    def test_identity_converges_in_one(self):
        rhs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        res = pcg_solve(lambda x: x.copy(), np.ones(5), rhs, tol=1e-12, max_iters=10)
        assert res.iterations <= 1
        assert np.allclose(res.x, rhs, atol=1e-12)

    def test_helmholtz_matches_direct_solve_on_separable_problem(self):
        # cross-solver oracle: a 1D-in-x problem embedded in 2D must match the
        # tridiagonal solve on each grid line
        nx, ny = 64, 5
        g = Grid(dim=2, extents=(1.0, 1.0), cells=(nx, ny))
        shift = 10.0
        matvec, diagonal = helmholtz_op(g, shift)

        # rhs varying only in x, Neumann-like in y is impossible with Dirichlet
        # walls, so solve the full 2D problem and compare against a dense solve
        rng = np.random.default_rng(3)
        rhs = rng.standard_normal((nx, ny))
        res = pcg_solve(matvec, diagonal, rhs.ravel(), tol=1e-12, max_iters=2000)

        dense = np.zeros((g.num_cells, g.num_cells))
        eye = np.eye(g.num_cells)
        for j in range(g.num_cells):
            dense[:, j] = matvec(eye[:, j])
        x_direct = np.linalg.solve(dense, rhs.ravel())
        assert np.allclose(res.x, x_direct, atol=1e-8)

    def test_helmholtz_1d_line_cross_check(self):
        # same operator assembled as a tridiagonal system in 1D
        n = 64
        g1 = Grid(dim=1, extents=(1.0,), cells=(n,))
        shift = 25.0
        h2 = g1.h[0] ** 2
        diag = np.full(n, shift + 2.0 / h2)
        diag[0] = diag[-1] = shift + 3.0 / h2
        lower = np.full(n, -1.0 / h2)
        upper = np.full(n, -1.0 / h2)
        lower[0] = upper[-1] = 0.0
        m = TriDiag(lower=lower, diag=diag, upper=upper)
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal(n)
        x_direct = thomas_solve(m, rhs)

        def matvec(x):
            out = shift * x - laplacian_dirichlet(Field(g1, x), 0.0)
            return out

        dg = np.full(n, shift + 2.0 / h2)
        dg[0] = dg[-1] = shift + 3.0 / h2
        res = pcg_solve(matvec, dg, rhs, tol=1e-13, max_iters=1000)
        assert np.allclose(res.x, x_direct, atol=1e-8)

    def test_stagnation_raises(self):
        g = Grid(dim=2, extents=(1.0, 1.0), cells=(16, 16))
        rhs = np.ones(g.num_cells)
        with pytest.raises(SolverFailure):
            pcg_solve(*helmholtz_op(g, 1e-6), rhs, tol=1e-14, max_iters=2)

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
        op = helmholtz_op(g, 9.0)
        rng = np.random.default_rng(13)
        rhs = rng.standard_normal(g.num_cells)
        r1 = pcg_solve(*op, rhs, tol=1e-12, max_iters=500)
        r2 = pcg_solve(*op, rhs, tol=1e-12, max_iters=500)
        assert np.array_equal(r1.x, r2.x)
        assert r1.iterations == r2.iterations
