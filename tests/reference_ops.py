"""Test references: operators that the package itself does not need.

The tests check the package against these; nothing under ``src/`` calls
them.
"""

import numpy as np

from tissuesim.grid import laplacian_neumann


def integrate(f):
    """Midpoint-rule integral: sum of cell values times cell volume."""
    return float(np.sum(f.values)) * f.grid.cell_volume


def laplacian_dirichlet(f, boundary_value):
    """Laplacian with Dirichlet data via linearly extrapolated ghost cells.

    The ghost value 2*boundary_value - interior puts the boundary value on
    the face, giving second-order accuracy at the wall.
    """
    out = laplacian_neumann(f)
    # Neumann part has zero boundary-face flux; add the Dirichlet correction
    # (ghost - interior)/h = 2*(boundary_value - interior)/h per boundary face.
    for axis, h in enumerate(f.grid.h):
        walls = np.swapaxes(out, 0, axis)
        v = np.swapaxes(f.values, 0, axis)
        walls[0] += 2.0 * (boundary_value - v[0]) / h**2
        walls[-1] += 2.0 * (boundary_value - v[-1]) / h**2
    return out


def upwind_face_value(c, velocity_at_face, face, axis=0):
    """Upwind value of ``c`` at a single interior face.

    In 1D ``face`` is an int: face ``i`` separates cells ``i`` and ``i+1``.
    In 2D ``face`` is an ``(i, j)`` index into the face array along ``axis``.
    """
    if c.grid.dim == 1:
        left = c.values[face]
        right = c.values[face + 1]
    else:
        i, j = face
        if axis == 0:
            left, right = c.values[i, j], c.values[i + 1, j]
        else:
            left, right = c.values[i, j], c.values[i, j + 1]
    if velocity_at_face > 0.0:
        return float(left)
    if velocity_at_face < 0.0:
        return float(right)
    return float(0.5 * (left + right))


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
