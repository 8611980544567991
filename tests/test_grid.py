import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tissuesim.grid import Grid, divergence, face_gradient, laplacian_neumann

from reference_ops import integrate, laplacian_dirichlet, upwind_face_value


def grid1d(cells=8, extent=1.0):
    return Grid(dim=1, extents=(extent,), cells=(cells,))


def grid2d(cells=(6, 5), extents=(1.0, 1.0)):
    return Grid(dim=2, extents=extents, cells=cells)


class TestGridConstruction:
    def test_spacing_is_extent_over_cells(self):
        g = grid1d(cells=10, extent=2.5)
        assert g.h[0] == 2.5 / 10

    def test_rejects_too_few_cells(self):
        with pytest.raises(ValueError):
            Grid(dim=1, extents=(1.0,), cells=(2,))

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            Grid(dim=3, extents=(1.0, 1.0, 1.0), cells=(4, 4, 4))

    def test_cell_volume_2d(self):
        g = grid2d(cells=(4, 8), extents=(1.0, 2.0))
        assert g.cell_volume == pytest.approx((1.0 / 4) * (2.0 / 8))


class TestFaceGradient:
    def test_constant_field_zero_gradient(self):
        g = grid1d(16)
        f = np.full(g.shape, 3.7)
        assert np.all(face_gradient(g, f)[0] == 0.0)

    def test_linear_field_exact(self):
        g = grid1d(64)
        f = g.centers(0)
        gx = face_gradient(g, f)[0]
        assert np.allclose(gx, 1.0, rtol=0, atol=1e-13)

    def test_two_cell_difference(self):
        # values [0, 3] across one face at spacing 0.5 -> gradient 6
        g = grid1d(cells=4, extent=2.0)
        f = np.array([0.0, 3.0, 3.0, 3.0])
        assert face_gradient(g, f)[0][0] == pytest.approx(6.0)

    def test_2d_linear_exact_both_axes(self):
        g = grid2d()
        x, y = g.coordinate_fields()
        f = 2.0 * x - 3.0 * y
        gx, gy = face_gradient(g, f)
        assert np.allclose(gx, 2.0, atol=1e-13)
        assert np.allclose(gy, -3.0, atol=1e-13)


class TestDivergence:
    def test_zero_flux_zero_divergence(self):
        g = grid1d(8)
        out = divergence(g, (np.zeros(7),))
        assert np.all(out == 0.0)

    def test_single_face_flux_pattern(self):
        # 3 cells, interior-face flux [q, 0] -> divergence (q/h, -q/h, 0)
        g = grid1d(cells=3, extent=3.0)
        q = 2.0
        out = divergence(g, (np.array([q, 0.0]),))
        assert out == pytest.approx([q / 1.0, -q / 1.0, 0.0])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=7, max_size=7))
    @settings(max_examples=100)
    def test_gauss_identity_1d(self, flux):
        g = grid1d(8)
        out = divergence(g, (np.array(flux),))
        total = float(np.sum(out)) * g.cell_volume
        assert abs(total) <= 1e-9 * (1.0 + np.max(np.abs(flux)))

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=5 * 5, max_size=5 * 5),
        st.lists(st.floats(-1e3, 1e3), min_size=6 * 4, max_size=6 * 4),
    )
    @settings(max_examples=50)
    def test_gauss_identity_2d(self, fx, fy):
        g = grid2d(cells=(6, 5))
        qx = np.array(fx).reshape(5, 5)
        qy = np.array(fy).reshape(6, 4)
        out = divergence(g, (qx, qy))
        total = float(np.sum(out)) * g.cell_volume
        assert abs(total) <= 1e-10 * (1.0 + np.abs(qx).max() + np.abs(qy).max())


class TestLaplacians:
    def test_neumann_constant_is_zero(self):
        g = grid1d(12)
        assert np.all(laplacian_neumann(g, np.full(g.shape, 5.0)) == 0.0)

    def test_dirichlet_constant_matching_boundary_is_zero(self):
        g = grid1d(12)
        out = laplacian_dirichlet(g, np.full(g.shape, 1.25), 1.25)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_neumann_conservation_any_field(self):
        rng = np.random.default_rng(7)
        g = grid1d(33)
        f = rng.standard_normal(33)
        out = laplacian_neumann(g, f)
        assert abs(np.sum(out) * g.cell_volume) <= 1e-12

    @given(st.lists(st.floats(-100.0, 100.0), min_size=9, max_size=9))
    @settings(max_examples=100)
    def test_neumann_conservation_property(self, vals):
        g = grid1d(9)
        out = laplacian_neumann(g, np.array(vals))
        scale = 1.0 + np.max(np.abs(vals)) / g.h[0] ** 2
        assert abs(np.sum(out) * g.cell_volume) <= 1e-12 * scale

    def test_quadratic_interior_second_derivative(self):
        # f(x) = x^2 has laplacian 2; interior cells of a fine grid recover it
        g = grid1d(cells=200, extent=1.0)
        x = g.centers(0)
        f = x**2
        out = laplacian_neumann(g, f)
        interior = out[1:-1]
        assert np.allclose(interior, 2.0, atol=1e-8)

    def test_dirichlet_quadratic_interior(self):
        # f(x) = x(1-x): laplacian -2, f = 0 at both walls; the boundary-cell
        # stencil is only solve-accurate, so the pointwise oracle is interior
        g = grid1d(cells=100, extent=1.0)
        x = g.centers(0)
        f = x * (1.0 - x)
        out = laplacian_dirichlet(g, f, 0.0)
        assert np.allclose(out[1:-1], -2.0, atol=1e-9)

    def test_2d_five_point_quadratic(self):
        g = grid2d(cells=(40, 40))
        x, y = g.coordinate_fields()
        f = x**2 + y**2
        out = laplacian_neumann(g, f)
        assert np.allclose(out[1:-1, 1:-1], 4.0, atol=1e-8)


def per_axis_laplacian_neumann(grid, v):
    """The no-flux Laplacian formed per axis on the grid's face slices, the reference of the flat form."""
    out = np.zeros(grid.shape)
    for (lo, hi), h in zip(grid.sides, grid.h):
        q = v[hi] - v[lo]
        q /= h
        q /= h
        out[lo] += q
        out[hi] -= q
    return out


@pytest.mark.parametrize(
    "grid",
    [grid1d(40, 1.3), grid2d((16, 16)), grid2d((9, 14), (1.0, 0.7)), grid2d((14, 3), (0.4, 2.5))],
    ids=["1d", "square", "wide", "narrow"],
)
def test_flat_neumann_laplacian_is_the_per_axis_form_bit_for_bit(grid):
    # with +-0.0 and ties among random values, zero differences and zero
    # sums meet in every pass; the sign of each zero must match as well
    rng = np.random.default_rng(grid.num_cells)
    v = rng.standard_normal(grid.shape)
    v[rng.random(grid.shape) < 0.25] = 0.0
    v[rng.random(grid.shape) < 0.25] = -0.0
    v[rng.random(grid.shape) < 0.2] = 1.5
    for values in (v, np.full(grid.shape, -0.0)):
        got, want = laplacian_neumann(grid, values), per_axis_laplacian_neumann(grid, values)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestIntegrate:
    def test_unit_constant(self):
        g = grid1d(50)
        assert integrate(g, np.full(g.shape, 1.0)) == pytest.approx(1.0)

    def test_zero(self):
        g = grid1d(5)
        assert integrate(g, np.zeros(g.shape)) == 0.0

    def test_midpoint_exact_for_linear(self):
        g = grid1d(cells=1000, extent=1.0)
        f = g.centers(0)
        assert integrate(g, f) == pytest.approx(0.5, abs=1e-14)


class TestUpwind:
    def test_positive_velocity_takes_left(self):
        g = grid1d(4)
        c = np.array([0.2, 0.4, 0.6, 0.8])
        assert upwind_face_value(g, c, 1.0, 1) == 0.4

    def test_negative_velocity_takes_right(self):
        g = grid1d(4)
        c = np.array([0.2, 0.4, 0.6, 0.8])
        assert upwind_face_value(g, c, -1.0, 1) == 0.6

    def test_tie_takes_mean(self):
        g = grid1d(4)
        c = np.array([0.2, 0.2, 0.4, 0.8])
        assert upwind_face_value(g, c, 0.0, 1) == pytest.approx(0.3)

