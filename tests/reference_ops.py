"""Test references: operators that the package itself does not need.

The tests check the package against these; nothing under ``src/`` calls
them.
"""

import math

import numpy as np

from tissuesim.errors import SolverFailure
from tissuesim.grid import laplacian_neumann


def integrate(grid, v):
    """Midpoint-rule integral: sum of the cell values ``v`` times the cell volume."""
    return float(np.sum(v)) * grid.cell_volume


def tridiag_matvec(lower, diag, upper, x):
    """The product of the tridiagonal matrix in gtsv's band form with ``x``."""
    y = diag * x
    y[:-1] += upper * x[1:]
    y[1:] += lower * x[:-1]
    return y


def laplacian_dirichlet(grid, values, boundary_value):
    """Laplacian with Dirichlet data via linearly extrapolated ghost cells.

    The ghost value 2*boundary_value - interior puts the boundary value on
    the face, giving second-order accuracy at the wall.
    """
    out = laplacian_neumann(grid, values)
    # Neumann part has zero boundary-face flux; add the Dirichlet correction
    # (ghost - interior)/h = 2*(boundary_value - interior)/h per boundary face.
    for axis, h in enumerate(grid.h):
        walls = np.swapaxes(out, 0, axis)
        v = np.swapaxes(values, 0, axis)
        walls[0] += 2.0 * (boundary_value - v[0]) / h**2
        walls[-1] += 2.0 * (boundary_value - v[-1]) / h**2
    return out


def upwind_face_value(grid, c, velocity_at_face, face, axis=0):
    """Upwind value of the cell values ``c`` at a single interior face.

    In 1D ``face`` is an int: face ``i`` separates cells ``i`` and ``i+1``.
    In 2D ``face`` is an ``(i, j)`` index into the face array along ``axis``.
    """
    if grid.dim == 1:
        left = c[face]
        right = c[face + 1]
    else:
        i, j = face
        if axis == 0:
            left, right = c[i, j], c[i + 1, j]
        else:
            left, right = c[i, j], c[i, j + 1]
    if velocity_at_face > 0.0:
        return float(left)
    if velocity_at_face < 0.0:
        return float(right)
    return float(0.5 * (left + right))


def explicit_fraction(grid, n, c, k1, k2, D, dt, gamma):
    """The explicit part of the fraction update, one cell of a 2D grid at a time.

    The velocity of a face is -(p_hi - p_lo) / h with p = (n+)^gamma.  Each
    of a cell's faces adds |u| (c_cell - c_up) / h to its advection, c_up
    the face's upwind value, so the term vanishes on the face's upstream
    cell.
    """
    nx, ny = grid.shape
    p = [[max(float(n[i, j]), 0.0) ** gamma for j in range(ny)] for i in range(nx)]
    out = np.empty(grid.shape)
    for i in range(nx):
        for j in range(ny):
            faces = []  # (velocity, face index, axis, width) of each interior face of the cell
            for axis, (lo, hi), h in ((0, ((i - 1, j), (i, j)), grid.h[0]),
                                      (0, ((i, j), (i + 1, j)), grid.h[0]),
                                      (1, ((i, j - 1), (i, j)), grid.h[1]),
                                      (1, ((i, j), (i, j + 1)), grid.h[1])):
                if min(lo) >= 0 and hi[0] < nx and hi[1] < ny:
                    faces.append((-(p[hi[0]][hi[1]] - p[lo[0]][lo[1]]) / h, lo, axis, h))
            ci = float(c[i, j])
            adv = 0.0
            for velocity, face, axis, h in faces:
                adv += abs(velocity) * (ci - upwind_face_value(grid, c, velocity, face, axis)) / h
            reaction = k1[i, j] * (1.0 - ci) - k2[i, j] * ci - D * ci * (1.0 - ci)
            out[i, j] = ci + dt * (-adv + reaction)
    return out


def is_symmetric(matvec, size, rel_tol=1e-10, probes=3):
    """Probe <Ax, y> == <x, Ay> for the matvec A on vectors of ``size`` with
    a fixed-seed random pair."""
    rng = np.random.default_rng(0)
    for _ in range(probes):
        x = rng.standard_normal(size)
        y = rng.standard_normal(size)
        ax_y = float(np.dot(matvec(x), y))
        x_ay = float(np.dot(x, matvec(y)))
        scale = max(abs(ax_y), abs(x_ay), 1e-300)
        if abs(ax_y - x_ay) > rel_tol * scale:
            return False
    return True


def dense(matvec, size):
    """The dense matrix of a matvec that returns A x, column by column."""
    return np.column_stack([matvec(e) for e in np.eye(size)])


def symmetrized_newton_matrix(grid, a, r, dt):
    """Dense S J S^-1 = diag(1 - dt r) - dt S lap S, S = diag(sqrt(a)), on flattened 2D cells,
    composed from ``laplacian_neumann``."""
    sqrt_a = np.sqrt(a)

    def matvec(y):
        y = y.reshape(grid.shape)
        return ((1.0 - dt * r) * y - dt * sqrt_a * laplacian_neumann(grid, sqrt_a * y)).ravel()

    return dense(matvec, grid.num_cells)


def jacobi_pcg(matvec, diagonal, rhs, tol, max_iters):
    """Jacobi-preconditioned CG on the SPD operator ``matvec`` (x -> A x).

    Converges when the 2-norm residual drops below tol * |rhs|; returns
    (x, iterations) and raises SolverFailure on stagnation at max_iters.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    rhs_norm = float(np.linalg.norm(rhs))
    x = np.zeros(n)
    if rhs_norm == 0.0:
        return x, 0
    inv_diag = 1.0 / diagonal
    r = rhs.copy()
    z = inv_diag * r
    p = z.copy()
    scaled = np.empty(n)
    rz = float(np.dot(r, z))
    for k in range(1, max_iters + 1):
        ap = matvec(p)
        denom = float(np.dot(p, ap))
        if denom <= 0.0:
            raise SolverFailure("conjugate gradient hit a non-positive curvature direction")
        alpha = rz / denom
        x += np.multiply(p, alpha, out=scaled)
        r -= np.multiply(ap, alpha, out=scaled)
        np.multiply(inv_diag, r, out=z)
        rz_new = float(np.dot(r, z))
        if math.sqrt(float(np.dot(r, r))) <= tol * rhs_norm:
            return x, k
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise SolverFailure(f"conjugate gradient stagnated after {max_iters} iterations")
