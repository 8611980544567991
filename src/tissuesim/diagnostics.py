"""Analysis quantities over recorded states.

Everything here is pure post-processing: the incompressible-limit study
hinges on a handful of integral quantities (time-weighted energy of
v = n^(gamma+1), the excess measure of {n >= 1+delta}, the segregation
product |1-n| v, and the complementarity residual |v (lap v + R)|) plus a
few solver-verification checks (entropy dissipation, the porous-medium
time-monotonicity gap, bound checks).

Quadratures in time use the trapezoid rule over the ledger's columns at the
snapshot times, so each integrand is computed once, in ``make_ledger_row``;
energy windows that start between snapshots interpolate the integrand
linearly at the window edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Field, Grid, divergence, face_gradient
from .model import DerivedConstants, ModelParams
from .stepper import State


def grad_squared_integral(f: Field) -> float:
    """Integral of |grad f|^2 with face gradients, one cell volume per face."""
    total = 0.0
    vol = f.grid.cell_volume
    for g in face_gradient(f):
        total += float(np.sum(g * g)) * vol
    return total


def cellwise_grad_squared(f: Field) -> np.ndarray:
    """|grad f|^2 averaged onto cells; boundary faces contribute zero (no-flux)."""
    out = np.zeros(f.grid.shape)
    for g, (lo, hi) in zip(face_gradient(f), f.grid.sides):
        g2 = g ** 2
        out[lo] += 0.5 * g2
        out[hi] += 0.5 * g2
    return out


@dataclass(frozen=True)
class RunHistory:
    """Snapshots of one run plus the metadata diagnostics need."""

    grid: Grid
    gamma: float
    snapshots: tuple[State, ...]
    snapshot_dts: tuple[float, ...]     # dt of the step landing on each snapshot
    reaction_free: bool = False

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


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

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])

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
    v = state.v
    v_sq = float(np.sum(v.values**2)) * state.grid.cell_volume
    gv_sq = grad_squared_integral(v)
    half_power = state.n.with_values(
        np.maximum(state.n.values, 0.0) ** ((state.gamma + 1.0) / 2.0)
    )
    comp = complementarity_residual(state, params)
    return LedgerRow(
        t=state.t,
        mass=float(np.sum(state.n.values)) * state.grid.cell_volume,
        n_min=state.n.min(),
        n_max=state.n.max(),
        c_min=state.c.min(),
        c_max=state.c.max(),
        d_min=state.d.min(),
        d_max=state.d.max(),
        v_sq=v_sq,
        grad_v_sq=gv_sq,
        t_v_sq=state.t * v_sq,
        t_grad_v_sq=state.t * gv_sq,
        entropy_rate=grad_squared_integral(half_power),
        excess=excess_measure(state, delta),
        segregation=segregation_product(state),
        comp_resid=comp,
        comp_t2=state.t**2 * comp,
        dt_used=dt_used,
        newton_iters=newton_iters,
        clamped_cells=clamped_cells,
        cutoff_activations=cutoff_activations,
    )


def _windowed_trapezoid(times: np.ndarray, values: np.ndarray, lo: float, hi: float) -> float:
    """Trapezoid integral of a sampled function over [lo, hi].

    The left edge interpolates linearly when lo falls between samples.
    """
    mask = (times >= lo - 1e-14) & (times <= hi + 1e-14)
    ts = list(times[mask])
    vs = list(values[mask])
    if ts and ts[0] > lo + 1e-14:
        k = int(np.searchsorted(times, lo))
        if k > 0:
            t0, t1 = times[k - 1], times[k]
            w = (lo - t0) / (t1 - t0)
            ts.insert(0, lo)
            vs.insert(0, (1.0 - w) * values[k - 1] + w * values[k])
    if len(ts) < 2:
        raise ValueError("need at least 2 snapshots inside the time window")
    return float(np.trapezoid(np.asarray(vs), np.asarray(ts)))


def weighted_energy(ledger: EnergyLedger, tau: float) -> float:
    """Time-quadrature of t * (integral v^2 + integral |grad v|^2) over [tau, T].

    Integrates the ledger's ``t_v_sq + t_grad_v_sq`` columns.  This is the
    quantity whose uniform-in-gamma boundedness drives the stiff-pressure
    limit; it must stay O(1) along a gamma sweep.
    """
    times = ledger.column("t")
    if len(times) < 2:
        raise ValueError("need at least 2 ledger rows")
    t_end = float(times[-1])
    if not (0.0 <= tau < t_end):
        raise ValueError(f"tau must lie in [0, T), got {tau} with T = {t_end}")
    integrand = ledger.column("t_v_sq") + ledger.column("t_grad_v_sq")
    return _windowed_trapezoid(times, integrand, tau, t_end)


def complementarity_residual(state: State, params: ModelParams) -> float:
    """Integral of |div(v_face grad v) - |grad v|^2 + v R| in product form.

    The product form div(v grad v) - |grad v|^2 is how v lap v is defined in
    the limit problem; discretely it is also the best-behaved form near the
    front.  Vanishes identically when v does.
    """
    grid = state.grid
    v = state.v
    grads = face_gradient(v)
    v_face = tuple(0.5 * (v.values[lo] + v.values[hi]) for lo, hi in grid.sides)
    div_term = divergence(grid, tuple(vf * g for vf, g in zip(v_face, grads)))
    grad_sq = cellwise_grad_squared(v)
    g = np.asarray(params.rates.G(state.d.values), dtype=float)
    reaction = g * state.n.values - params.D * state.c.values * state.n.values
    cellwise = div_term - grad_sq + v.values * reaction
    return float(np.sum(np.abs(cellwise))) * grid.cell_volume


def excess_measure(state: State, delta: float) -> float:
    """Total volume of cells where n >= 1 + delta."""
    if not (delta > 0.0):
        raise ValueError(f"delta must be positive, got {delta}")
    return float(np.count_nonzero(state.n.values >= 1.0 + delta)) * state.grid.cell_volume


def segregation_product(state: State) -> float:
    """Integral of |1 - n| v: must vanish in the stiff limit."""
    v = state.v.values
    return float(np.sum(np.abs(1.0 - state.n.values) * v)) * state.grid.cell_volume


def entropy_dissipation(ledger: EnergyLedger) -> float:
    """Time-quadrature of the ledger's ``entropy_rate`` column over the whole run.

    The column is integral |grad n^((gamma+1)/2)|^2 at each ledger time.
    """
    times = ledger.column("t")
    if len(times) < 2:
        raise ValueError("need at least 2 ledger rows")
    return float(np.trapezoid(ledger.column("entropy_rate"), times))


def aronson_benilan_gap(history: RunHistory) -> float:
    """Min over cells and snapshot pairs of (dn/dt + n / (gamma t)).

    Only meaningful for reaction-free runs (the pure porous medium equation);
    nonnegative there up to discretization error.  Early snapshots with
    t < 10 * dt are excluded to keep the 1/t weight from amplifying startup
    error.
    """
    if not history.reaction_free:
        raise ValueError("the porous-medium monotonicity gap requires a reaction-free run")
    gamma = history.gamma
    gap = math.inf
    snaps = history.snapshots
    for k in range(len(snaps) - 1):
        s0, s1 = snaps[k], snaps[k + 1]
        dt_here = history.snapshot_dts[min(k + 1, len(history.snapshot_dts) - 1)]
        if s0.t <= 0.0 or s0.t < 10.0 * dt_here:
            continue
        dt_pair = s1.t - s0.t
        if dt_pair <= 0.0:
            continue
        rate = (s1.n.values - s0.n.values) / dt_pair
        bound = s0.n.values / (gamma * s0.t)
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
