"""Uniform cell-centered meshes (1D interval / 2D rectangle) and discrete calculus.

Conventions:
  * fields live at cell centers, one value per cell;
  * fluxes and gradients live on interior faces, one array per axis;
  * boundary faces carry zero flux (no-flux boundary for the cell equations);
    the nutrient solve applies its Dirichlet data itself;
  * ``Grid.sides[axis]`` is the pair ``(lo, hi)`` of index tuples that pick
    the cells below and above each interior face of that axis, so face k of
    a face array sits between ``values[lo][k]`` and ``values[hi][k]``.  In 1D
    that is ``((slice(None, -1),), (slice(1, None),))``.

Each operator is written once for any dimension, as a loop over the axes'
sides in axis order (x before y).  All operators are pure functions of their
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform structured mesh on an interval or axis-aligned rectangle."""

    dim: int
    extents: tuple[float, ...]
    cells: tuple[int, ...]
    h: tuple[float, ...] = field(init=False)
    # derived from cells; slices are unhashable before Python 3.12
    sides: tuple[tuple[tuple[slice, ...], tuple[slice, ...]], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"grid dim must be 1 or 2, got {self.dim}")
        if len(self.extents) != self.dim or len(self.cells) != self.dim:
            raise ValueError("extents/cells length must match dim")
        for n in self.cells:
            if n < 3:
                raise ValueError(f"need at least 3 cells per axis, got {n}")
        for e in self.extents:
            if not (e > 0.0):
                raise ValueError(f"extents must be positive, got {e}")
        object.__setattr__(
            self, "h", tuple(e / n for e, n in zip(self.extents, self.cells))
        )
        whole = (slice(None),) * self.dim
        object.__setattr__(self, "sides", tuple(
            tuple(whole[:axis] + (cut,) + whole[axis + 1:] for cut in (slice(None, -1), slice(1, None)))
            for axis in range(self.dim)
        ))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.cells))

    @property
    def cell_volume(self) -> float:
        vol = 1.0
        for hi in self.h:
            vol *= hi
        return vol

    def centers(self, axis: int = 0) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        n = self.cells[axis]
        h = self.h[axis]
        return (np.arange(n) + 0.5) * h

    def coordinate_fields(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinates, broadcast to the full cell shape."""
        return tuple(np.meshgrid(*(self.centers(a) for a in range(self.dim)), indexing="ij"))


def face_gradient(grid: Grid, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """Two-point gradient of the cell values ``v`` on interior faces, one array per axis.

    1D: shape (nx-1,).  2D: x-faces (nx-1, ny) and y-faces (nx, ny-1).
    Boundary faces are excluded (no-flux).
    """
    return tuple((v[hi] - v[lo]) / h for (lo, hi), h in zip(grid.sides, grid.h))


def divergence(grid: Grid, fluxes: tuple[np.ndarray, ...]) -> np.ndarray:
    """Per-cell divergence of interior-face fluxes; boundary flux is zero.

    The cell-volume-weighted sum of the result telescopes to zero, which is
    what makes the implicit density update conservative.
    """
    out = np.zeros(grid.shape)
    for q, (lo, hi), h in zip(fluxes, grid.sides, grid.h):
        out[lo] += q / h
        out[hi] -= q / h
    return out


def laplacian_neumann(grid: Grid, v: np.ndarray) -> np.ndarray:
    """No-flux Laplacian of the cell values ``v``: divergence of the interior face gradients.

    It is ``divergence(grid, face_gradient(grid, v))`` with the same roundings,
    each face difference divided by h twice, formed once per face: every
    face flux enters its two cells with opposite signs, which keeps the
    discrete conservation identity exact.
    """
    out = np.zeros(grid.shape)
    for (lo, hi), h in zip(grid.sides, grid.h):
        q = v[hi] - v[lo]
        q /= h
        q /= h
        out[lo] += q
        out[hi] -= q
    return out

