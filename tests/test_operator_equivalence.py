"""The dimension-generic operators against their former per-dimension bodies.

Each ``reference_*`` function below is the operator as it was written before
``Grid.sides`` existed, with one branch for 1D and one for x and y.  The
generic operators must give the same bytes and the same shapes on random
data, on 1D and 2D grids.
"""

import numpy as np
import pytest

from tissuesim.config import parse_config
from tissuesim.diagnostics import _line_crossings, cellwise_grad_squared, free_boundary
from tissuesim.grid import Grid, divergence, face_gradient, laplacian_neumann
from tissuesim.harness import (
    _radial_sq,
    _window_mask,
    barenblatt_profile,
    build_grid,
    initial_fields,
    make_params,
)
from tissuesim.stepper import State, _fraction_budget, _with_viscous_drift

from reference_ops import laplacian_dirichlet

GRIDS = [
    Grid(dim=1, extents=(1.0,), cells=(3,)),
    Grid(dim=1, extents=(2.5,), cells=(7,)),
    Grid(dim=1, extents=(1.0,), cells=(400,)),
    Grid(dim=2, extents=(1.0, 1.0), cells=(3, 3)),
    Grid(dim=2, extents=(1.0, 1.0), cells=(6, 5)),
    Grid(dim=2, extents=(1.0, 0.8), cells=(17, 11)),
]
GRID_IDS = ["x".join(map(str, g.cells)) for g in GRIDS]


def assert_same(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def assert_same_tuple(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert_same(a, e)


def random_field(grid, seed):
    return np.random.default_rng(seed).uniform(-1.0, 2.0, grid.shape)


def random_faces(grid, seed):
    """One random array per axis, shaped like that axis's interior faces."""
    rng = np.random.default_rng(seed)
    return tuple(rng.normal(size=q.shape) for q in face_gradient(grid, np.zeros(grid.shape)))


# ---------------------------------------------------------------------------
# references: the per-dimension bodies the generic operators replaced


def reference_face_gradient(g, v):
    if g.dim == 1:
        return ((v[1:] - v[:-1]) / g.h[0],)
    gx = (v[1:, :] - v[:-1, :]) / g.h[0]
    gy = (v[:, 1:] - v[:, :-1]) / g.h[1]
    return gx, gy


def reference_divergence(grid, fluxes):
    out = np.zeros(grid.shape)
    if grid.dim == 1:
        q = fluxes[0]
        out[:-1] += q / grid.h[0]
        out[1:] -= q / grid.h[0]
        return out
    qx, qy = fluxes
    out[:-1, :] += qx / grid.h[0]
    out[1:, :] -= qx / grid.h[0]
    out[:, :-1] += qy / grid.h[1]
    out[:, 1:] -= qy / grid.h[1]
    return out


def reference_laplacian_dirichlet(g, v, boundary_value):
    out = reference_divergence(g, reference_face_gradient(g, v))
    if g.dim == 1:
        h = g.h[0]
        out = out.copy()
        out[0] += 2.0 * (boundary_value - v[0]) / h**2
        out[-1] += 2.0 * (boundary_value - v[-1]) / h**2
        return out
    hx, hy = g.h
    out = out.copy()
    out[0, :] += 2.0 * (boundary_value - v[0, :]) / hx**2
    out[-1, :] += 2.0 * (boundary_value - v[-1, :]) / hx**2
    out[:, 0] += 2.0 * (boundary_value - v[:, 0]) / hy**2
    out[:, -1] += 2.0 * (boundary_value - v[:, -1]) / hy**2
    return out


def reference_coordinate_fields(grid):
    if grid.dim == 1:
        return (grid.centers(0),)
    x = grid.centers(0)[:, None] + np.zeros(grid.cells)
    y = grid.centers(1)[None, :] + np.zeros(grid.cells)
    return x, y


def reference_cellwise_grad_squared(grid, v):
    out = np.zeros(grid.shape)
    grads = reference_face_gradient(grid, v)
    if grid.dim == 1:
        g2 = grads[0] ** 2
        out[:-1] += 0.5 * g2
        out[1:] += 0.5 * g2
        return out
    gx2, gy2 = grads[0] ** 2, grads[1] ** 2
    out[:-1, :] += 0.5 * gx2
    out[1:, :] += 0.5 * gx2
    out[:, :-1] += 0.5 * gy2
    out[:, 1:] += 0.5 * gy2
    return out


def reference_fraction_budget(grid, dt, rate_sum, u):
    budget = np.zeros(grid.shape)
    for axis, ui in enumerate(u):
        h = grid.h[axis]
        inflow_lo = np.maximum(ui, 0.0)
        inflow_hi = np.maximum(-ui, 0.0)
        if grid.dim == 1:
            budget[1:] += dt / h * inflow_lo
            budget[:-1] += dt / h * inflow_hi
        elif axis == 0:
            budget[1:, :] += dt / h * inflow_lo
            budget[:-1, :] += dt / h * inflow_hi
        else:
            budget[:, 1:] += dt / h * inflow_lo
            budget[:, :-1] += dt / h * inflow_hi
    budget += dt * rate_sum
    return budget


def reference_window_mask(cfg, grid):
    half = cfg["initial.width"] / 2.0
    coords = reference_coordinate_fields(grid)
    inside = np.abs(coords[0] - cfg["initial.center"]) <= half
    if grid.dim == 2:
        inside = inside & (np.abs(coords[1] - cfg["initial.center_y"]) <= half)
    return inside


def reference_radial_sq(cfg, grid):
    half = cfg["initial.width"] / 2.0
    coords = reference_coordinate_fields(grid)
    r2 = ((coords[0] - cfg["initial.center"]) / half) ** 2
    if grid.dim == 2:
        r2 = r2 + ((coords[1] - cfg["initial.center_y"]) / half) ** 2
    return r2


def reference_barenblatt_field(cfg, grid, params):
    coords = reference_coordinate_fields(grid)
    if grid.dim == 1:
        return barenblatt_profile(
            coords[0], cfg["initial.t0"], params.gamma, cfg["initial.bb_const"],
            center=cfg["initial.center"], dim=1,
        )
    r2 = (coords[0] - cfg["initial.center"]) ** 2 + (coords[1] - cfg["initial.center_y"]) ** 2
    return barenblatt_profile(
        np.sqrt(r2), cfg["initial.t0"], params.gamma, cfg["initial.bb_const"],
        center=0.0, dim=2,
    )


def reference_free_boundary_2d(state, threshold):
    grid = state.grid
    v = state.v
    out = []
    xs, ys = grid.centers(0), grid.centers(1)
    for j in range(grid.cells[1]):
        for pos in _line_crossings(v[:, j], xs, threshold):
            out.append((0, j, pos))
    for i in range(grid.cells[0]):
        for pos in _line_crossings(v[i, :], ys, threshold):
            out.append((1, i, pos))
    return out


# ---------------------------------------------------------------------------


class TestSides:
    def test_1d(self):
        grid = Grid(dim=1, extents=(1.0,), cells=(5,))
        assert grid.sides == (((slice(None, -1),), (slice(1, None),)),)

    def test_2d(self):
        grid = Grid(dim=2, extents=(1.0, 2.0), cells=(4, 6))
        assert grid.sides == (
            ((slice(None, -1), slice(None)), (slice(1, None), slice(None))),
            ((slice(None), slice(None, -1)), (slice(None), slice(1, None))),
        )

    def test_grids_still_compare_and_hash_by_their_data(self):
        a = Grid(dim=2, extents=(1.0, 2.0), cells=(4, 6))
        b = Grid(dim=2, extents=(1.0, 2.0), cells=(4, 6))
        assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestGridOperators:
    def test_face_gradient(self, grid):
        f = random_field(grid, 1)
        assert_same_tuple(face_gradient(grid, f), reference_face_gradient(grid, f))

    def test_divergence(self, grid):
        q = random_faces(grid, 2)
        assert_same(divergence(grid, q), reference_divergence(grid, q))

    @pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
    def test_laplacian_neumann_is_the_composed_operator(self, grid, ties):
        # with ties, neighbouring cells often hold equal values or +-0.0, so
        # zero face fluxes meet and the sign of every zero must match too
        f = random_field(grid, 4)
        if ties:
            choice = np.random.default_rng(5).integers(0, 4, grid.shape)
            f = np.array([-0.0, 0.0, 1.0, -2.5])[choice]
        assert_same(laplacian_neumann(grid, f), divergence(grid, face_gradient(grid, f)))

    @pytest.mark.parametrize("boundary_value", [0.0, 0.7])
    def test_laplacian_dirichlet(self, grid, boundary_value):
        f = random_field(grid, 3)
        assert_same(laplacian_dirichlet(grid, f, boundary_value),
                    reference_laplacian_dirichlet(grid, f, boundary_value))

    def test_coordinate_fields(self, grid):
        assert_same_tuple(grid.coordinate_fields(), reference_coordinate_fields(grid))

    def test_cellwise_grad_squared(self, grid):
        f = random_field(grid, 4)
        assert_same(cellwise_grad_squared(grid, face_gradient(grid, f)),
                    reference_cellwise_grad_squared(grid, f))

    @pytest.mark.parametrize("eps_reg", [0.0, 0.01])
    def test_fraction_budget(self, grid, eps_reg):
        # with viscosity the face velocities carry the drift -2 eps grad(ln n),
        # whose inflow the budget counts like any other
        n = np.random.default_rng(7).uniform(0.1, 2.0, grid.shape)
        u = _with_viscous_drift(grid, random_faces(grid, 5), n, eps_reg)
        rate_sum = np.random.default_rng(6).uniform(0.0, 3.0, grid.shape)
        assert_same(_fraction_budget(grid, 0.013, rate_sum, u),
                    reference_fraction_budget(grid, 0.013, rate_sum, u))


def initial_config(grid, profile, seed):
    """A config on ``grid``'s cells and extents with a random off-centre patch."""
    rng = np.random.default_rng(seed)
    lines = [f"grid.dim = {grid.dim}", f"initial.profile = {profile}", "initial.n0 = 0.0"]
    for axis, key in zip(range(grid.dim), ("x", "y")):
        lines.append(f"grid.cells_{key} = {grid.cells[axis]}")
        lines.append(f"grid.extent_{key} = {grid.extents[axis]!r}")
    lines.append(f"initial.center = {rng.uniform(0.2, 0.8) * grid.extents[0]!r}")
    if grid.dim == 2:
        lines.append(f"initial.center_y = {rng.uniform(0.2, 0.8) * grid.extents[1]!r}")
    lines.append(f"initial.width = {rng.uniform(0.3, 0.6) * min(grid.extents)!r}")
    cfg = parse_config("\n".join(lines))
    assert build_grid(cfg) == grid
    return cfg


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestInitialProfiles:
    def test_window_mask(self, grid):
        cfg = initial_config(grid, "step", 7)
        assert_same(_window_mask(cfg, grid), reference_window_mask(cfg, grid))

    def test_radial_sq(self, grid):
        cfg = initial_config(grid, "bump", 8)
        assert_same(_radial_sq(cfg, grid), reference_radial_sq(cfg, grid))

    def test_barenblatt_field(self, grid):
        cfg = initial_config(grid, "barenblatt", 9)
        params = make_params(cfg)
        n, _, _ = initial_fields(cfg, grid, params)
        assert_same(n, reference_barenblatt_field(cfg, grid, params))


class TestFreeBoundary2D:
    @pytest.mark.parametrize("cells", [(17, 11), (6, 9)])
    def test_scan_matches_the_per_axis_loops(self, cells):
        grid = Grid(dim=2, extents=(1.0, 0.8), cells=cells)
        n = np.random.default_rng(10).uniform(0.0, 1.0, grid.shape)
        zeros = np.zeros(grid.shape)
        params = make_params(parse_config("model.gamma = 1\n"))
        state = State(t=0.0, grid=grid, n=n, c=zeros, d=zeros, params=params)
        found = free_boundary(state, 0.25)
        expected = reference_free_boundary_2d(state, 0.25)
        assert len(found) == len(expected) > 0
        assert {axis for axis, _, _ in found} == {0, 1}
        for (axis, k, pos), (axis_e, k_e, pos_e) in zip(found, expected):
            assert (axis, k) == (axis_e, k_e)
            assert_same(pos, pos_e)
