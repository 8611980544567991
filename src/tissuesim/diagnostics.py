"""Analysis quantities over recorded states.

Everything here is pure post-processing: the incompressible-limit study
hinges on a handful of integral quantities (time-weighted energy of
v = n^(gamma+1), the excess measure of {n >= 1+delta}, the segregation
product |1-n| v, and the complementarity residual |v (lap v + R)|) plus a
few solver-verification checks (porous-medium time-monotonicity gap, bounds).

``v_integrals`` computes the integrands for the ledger rows and the time
quadratures alike.  ``WindowIntegrals`` and ``FieldSamples`` are fed every
accepted state of a run, so no time quantity depends on the snapshot stride.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .grid import Grid, divergence, face_gradient
from .model import DerivedConstants, ModelParams
from .stepper import State


def grad_squared_integral(grads: tuple[np.ndarray, ...], cell_volume: float) -> float:
    """Integral of |grad f|^2 from its face gradients, one cell volume per face."""
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g)) * cell_volume
    return total


def cellwise_grad_squared(grid: Grid, grads: tuple[np.ndarray, ...]) -> np.ndarray:
    """|grad f|^2 averaged onto cells; boundary faces contribute zero (no-flux)."""
    out = np.zeros(grid.shape)
    for g, (lo, hi) in zip(grads, grid.sides):
        g2 = g ** 2
        out[lo] += 0.5 * g2
        out[hi] += 0.5 * g2
    return out


class VIntegrals(NamedTuple):
    v_sq: float            # integral of v^2
    grad_v_sq: float       # integral of |grad v|^2
    segregation: float     # integral of |1 - n| v: must vanish in the stiff limit
    comp_resid: float      # integral of |div(v_face grad v) - |grad v|^2 + v R|


def v_integrals(state: State, params: ModelParams) -> VIntegrals:
    """The integrals of v = n^(gamma+1), from one v and one face gradient of it.

    The residual takes v lap v in the product form div(v grad v) - |grad v|^2,
    as the limit problem defines it (and best-behaved near the front).
    """
    grid, vol, v_field = state.grid, state.grid.cell_volume, state.v
    v, grads = v_field.values, face_gradient(v_field)
    v_face = tuple(0.5 * (v[lo] + v[hi]) for lo, hi in grid.sides)
    div_term = divergence(grid, tuple(vf * g for vf, g in zip(v_face, grads)))
    growth = np.asarray(params.rates.G(state.d.values), dtype=float)
    reaction = growth * state.n.values - params.D * state.c.values * state.n.values
    cellwise = div_term - cellwise_grad_squared(grid, grads) + v * reaction
    return VIntegrals(
        v_sq=float(np.sum(v**2)) * vol,
        grad_v_sq=grad_squared_integral(grads, vol),
        segregation=float(np.sum(np.abs(1.0 - state.n.values) * v)) * vol,
        comp_resid=float(np.sum(np.abs(cellwise))) * vol,
    )


@dataclass(frozen=True)
class LedgerRow:
    """Per-snapshot record of every quantity the analysis controls."""

    t: float
    mass: float
    n_min: float
    n_max: float
    c_min: float
    c_max: float
    d_min: float
    d_max: float
    v_sq: float            # integral of v^2
    grad_v_sq: float       # integral of |grad v|^2
    t_v_sq: float          # t-weighted energy increment t * integral v^2
    t_grad_v_sq: float     # t * integral |grad v|^2
    entropy_rate: float    # integral |grad n^((gamma+1)/2)|^2
    excess: float          # measure of {n >= 1 + delta}
    segregation: float     # integral |1 - n| v
    comp_resid: float      # integral |v (lap v + R)| in product form
    comp_t2: float         # t^2-weighted complementarity residual
    dt_used: float
    newton_iters: int
    clamped_cells: int
    cutoff_activations: int


@dataclass
class EnergyLedger:
    rows: list[LedgerRow] = field(default_factory=list)

    def finite_problems(self) -> list[str]:
        out = []
        for i, row in enumerate(self.rows):
            for name in ("mass", "v_sq", "grad_v_sq", "entropy_rate", "excess",
                         "segregation", "comp_resid"):
                val = getattr(row, name)
                if not math.isfinite(val):
                    out.append(f"ledger row {i}: {name} is {val}")
        return out


def make_ledger_row(
    state: State,
    params: ModelParams,
    delta: float,
    dt_used: float,
    newton_iters: int = 0,
    clamped_cells: int = 0,
    cutoff_activations: int = 0,
) -> LedgerRow:
    vi = v_integrals(state, params)
    half_power = state.n.with_values(
        np.maximum(state.n.values, 0.0) ** ((state.gamma + 1.0) / 2.0)
    )
    return LedgerRow(
        t=state.t,
        mass=float(np.sum(state.n.values)) * state.grid.cell_volume,
        n_min=state.n.min(),
        n_max=state.n.max(),
        c_min=state.c.min(),
        c_max=state.c.max(),
        d_min=state.d.min(),
        d_max=state.d.max(),
        v_sq=vi.v_sq,
        grad_v_sq=vi.grad_v_sq,
        t_v_sq=state.t * vi.v_sq,
        t_grad_v_sq=state.t * vi.grad_v_sq,
        entropy_rate=grad_squared_integral(face_gradient(half_power), state.grid.cell_volume),
        excess=excess_measure(state, delta),
        segregation=vi.segregation,
        comp_resid=vi.comp_resid,
        comp_t2=state.t**2 * vi.comp_resid,
        dt_used=dt_used,
        newton_iters=newton_iters,
        clamped_cells=clamped_cells,
        cutoff_activations=cutoff_activations,
    )


def excess_measure(state: State, delta: float) -> float:
    """Total volume of cells where n >= 1 + delta."""
    if not (delta > 0.0):
        raise ValueError(f"delta must be positive, got {delta}")
    return float(np.count_nonzero(state.n.values >= 1.0 + delta)) * state.grid.cell_volume


class WindowIntegrals:
    """Trapezoid integrals over [tau, t] through the accepted states added so far.

    ``energy``, ``seg_integral`` and ``comp_integral`` integrate
    t (integral v^2 + integral |grad v|^2), integral |1 - n| v and t^2 times
    the complementarity residual.  The step that crosses tau is split there,
    its integrands interpolated linearly; states before it are never
    evaluated.  ``excess_max`` is the largest excess at t >= tau.  All four
    are nan until a state at or past tau arrives.
    """

    def __init__(self, tau: float, params: ModelParams, delta: float):
        self.tau, self.params, self.delta = tau, params, delta
        self.energy = self.seg_integral = self.comp_integral = self.excess_max = math.nan
        self._before: State | None = None    # the last state before tau
        self._last: tuple | None = None      # (t, integrands) of the last node
        self._sums = np.zeros(3)

    def _integrands(self, state: State) -> np.ndarray:
        t, vi = state.t, v_integrals(state, self.params)
        return np.array([t * vi.v_sq + t * vi.grad_v_sq, vi.segregation, t**2 * vi.comp_resid])

    def add(self, state: State) -> None:
        t1 = state.t
        if t1 < self.tau:
            self._before = state
            return
        f1 = self._integrands(state)
        excess = excess_measure(state, self.delta)
        if self._last is None:
            self.excess_max, self._last = excess, (t1, f1)
            if self._before is not None and t1 > self.tau:
                t0 = self._before.t
                w = (self.tau - t0) / (t1 - t0)
                self._last = (self.tau, (1.0 - w) * self._integrands(self._before) + w * f1)
        t0, f0 = self._last
        self._sums += 0.5 * (t1 - t0) * (f0 + f1)
        self.energy, self.seg_integral, self.comp_integral = (float(x) for x in self._sums)
        self.excess_max = max(self.excess_max, excess)
        self._last = (t1, f1)


class FieldSamples:
    """v and c of a run at fixed times, from its accepted states.

    Each sample interpolates linearly between the two accepted states around
    its time, so v is computed only for those states.  Times up to the first
    state take its fields; times past the last state hold the last state's.
    """

    def __init__(self, times: np.ndarray):
        self.times = np.asarray(times, dtype=float)
        self._filled = 0     # the samples before this index are set
        self._prev: State | None = None

    def add(self, state: State) -> None:
        lo, prev = self._filled, self._prev
        if prev is None:
            self._v = np.empty((len(self.times),) + state.grid.shape)
            self._c = np.empty_like(self._v)
        self._prev = state
        if lo == len(self.times) or state.t < self.times[lo]:
            return
        end = int(np.searchsorted(self.times, state.t, side="right"))
        v1, c1 = state.v.values, state.c.values
        if prev is None:
            self._v[:end], self._c[:end] = v1, c1
        else:
            w = (self.times[lo:end] - prev.t) / (state.t - prev.t)
            w = w.reshape((-1,) + (1,) * v1.ndim)
            self._v[lo:end] = (1.0 - w) * prev.v.values + w * v1
            self._c[lo:end] = (1.0 - w) * prev.c.values + w * c1
        self._filled = end

    def _hold_last(self) -> None:
        if self._filled < len(self.times):
            self._v[self._filled:] = self._prev.v.values
            self._c[self._filled:] = self._prev.c.values

    @property
    def v(self) -> np.ndarray:
        self._hold_last()
        return self._v

    @property
    def c(self) -> np.ndarray:
        self._hold_last()
        return self._c


def space_time_distance(
    times: np.ndarray, a: np.ndarray, b: np.ndarray, cell_volume: float
) -> float:
    """L2(Omega x [times[0], times[-1]]) distance of two fields sampled at ``times``."""
    if a.shape != b.shape:
        raise ValueError("runs live on different grids")
    sq = np.array([float(np.sum((a[i] - b[i]) ** 2)) * cell_volume for i in range(len(times))])
    return math.sqrt(float(np.trapezoid(sq, times)))


def reaction_free(params: ModelParams, c0) -> bool:
    """No growth and no n1 -> n2 transition from a start without n2: the
    density then solves the pure porous medium equation."""
    return params.rates.G.is_zero and params.rates.K1.is_zero and not np.any(c0)


def aronson_benilan_gap(states, params: ModelParams) -> float:
    """Min over cells and consecutive state pairs of (dn/dt + n / (gamma t)).

    ``states`` are consecutive accepted states of one run, the initial one
    first (``run(cfg, on_state=states.append)``).  Only meaningful for
    reaction-free runs (the pure porous medium equation); nonnegative there
    up to discretization error.  A pair whose earlier state has t < 10 dt,
    dt = t1 - t0, is excluded to keep the 1/t weight from amplifying
    startup error.
    """
    if not reaction_free(params, states[0].c.values):
        raise ValueError("the porous-medium monotonicity gap requires a reaction-free run")
    gap = math.inf
    for s0, s1 in zip(states, states[1:]):
        dt = s1.t - s0.t
        if s0.t <= 0.0 or s0.t < 10.0 * dt:
            continue
        rate = (s1.n.values - s0.n.values) / dt
        bound = s0.n.values / (params.gamma * s0.t)
        gap = min(gap, float(np.min(rate + bound)))
    return gap


def free_boundary(state: State, threshold: float):
    """Linear-interpolated crossings of v = threshold.

    1D: sorted array of crossing coordinates.  2D: list of
    (axis, line_index, coordinate) tuples, the lines along x (by their y
    index) first, then the lines along y (by their x index).
    """
    if not (threshold > 0.0):
        raise ValueError(f"threshold must be positive, got {threshold}")
    grid = state.grid
    v = state.v.values
    if grid.dim == 1:
        return _line_crossings(v, grid.centers(0), threshold)
    out = []
    for axis in range(grid.dim):
        coords = grid.centers(axis)
        for k, line in enumerate(np.moveaxis(v, axis, -1)):
            out.extend((axis, k, pos) for pos in _line_crossings(line, coords, threshold))
    return out


def _line_crossings(vals: np.ndarray, coords: np.ndarray, threshold: float) -> np.ndarray:
    """Sorted cell centres where vals equals threshold, plus the linear
    interpolant of each sign change of vals - threshold between neighbours."""
    s = vals - threshold
    i = np.flatnonzero(s[:-1] * s[1:] < 0.0)
    w = s[i] / (s[i] - s[i + 1])
    interpolated = coords[i] + w * (coords[i + 1] - coords[i])
    return np.sort(np.concatenate((coords[s == 0.0], interpolated)))


@dataclass(frozen=True)
class TolConfig:
    """Tolerances and optional bound data for the invariant sweep."""

    c_tol: float = 1e-12
    d_tol: float = 1e-10
    n_tol: float = 0.0
    cap_base: float | None = None   # max of lifted initial density (weak max principle)
    min_floor: float | None = None  # eps * exp(-M0 T) barrier for regularized runs


@dataclass(frozen=True)
class Violation:
    invariant: str
    cell: tuple
    magnitude: float

    def __str__(self) -> str:
        return f"{self.invariant} at cell {self.cell} by {self.magnitude:.3e}"


def _worst_cell(mask_values: np.ndarray) -> tuple:
    idx = np.unravel_index(int(np.argmax(mask_values)), mask_values.shape)
    return tuple(int(i) for i in idx)


def check_all(state: State, consts: DerivedConstants, tolcfg: TolConfig) -> list[Violation]:
    """Bound and maximum-principle checks; empty list on success.

    Each bound is tested on one min or max of its field.  Rounded addition
    and subtraction are monotone, so the largest excess over the cells is
    the excess of that extreme; the full per-cell excess is built only for a
    violated bound, to locate its worst cell.
    """
    out = []
    n, c, d = state.n.values, state.c.values, state.d.values
    n_min = n.min()
    c_high = 1.0 + tolcfg.c_tol
    d_high = consts.L + tolcfg.d_tol
    # (invariant, largest excess, per-cell excess): a bound is violated when the excess is positive
    bounds = [
        ("density nonnegativity", -(n_min + tolcfg.n_tol), lambda: -(n + tolcfg.n_tol)),
        ("fraction lower bound", -(c.min() + tolcfg.c_tol), lambda: -(c + tolcfg.c_tol)),
        ("fraction upper bound", c.max() - c_high, lambda: c - c_high),
        ("nutrient floor", -(d.min() + tolcfg.d_tol), lambda: -(d + tolcfg.d_tol)),
        ("nutrient ceiling", d.max() - d_high, lambda: d - d_high),
    ]
    if tolcfg.cap_base is not None:
        cap = math.exp(consts.G0 * state.t) * tolcfg.cap_base * (1.0 + 1e-6)
        bounds.append(("weak maximum principle", n.max() - cap, lambda: n - cap))
    if tolcfg.min_floor is not None:
        floor = tolcfg.min_floor - 1e-12
        bounds.append(("lower barrier", floor - n_min, lambda: floor - n))
    for name, excess, per_cell in bounds:
        if excess > 0.0:
            out.append(Violation(name, _worst_cell(per_cell()), float(excess)))
    return out
