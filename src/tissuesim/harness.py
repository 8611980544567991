"""Experiment campaigns: single runs, gamma sweeps, eps refinement, benchmarks.

The gamma sweep is the computational counterpart of the stiff-pressure limit
study: identical data, increasing pressure exponent, and a report of the
quantities the limit analysis controls (time-weighted energy, excess measure,
segregation product, complementarity residual, pairwise Cauchy distances of
v = n^(gamma+1)).

The Barenblatt benchmark exercises the reaction-free reduction of the density
equation, dn/dt = gamma/(gamma+1) * lap(n^(gamma+1)), against the closed-form
self-similar source solution (the classical convergence oracle for porous
medium solvers).

``set_up`` fixes everything a run needs before its first step, warnings
included; its initial state carries the run's one ``ModelParams``, cutoff
level resolved, and every later state carries them on.  ``run`` marches
from it, with ``suggest_dt`` proposing each dt, and ``tissuesim check``
prints from it.

Every campaign (``gamma_sweep``, ``eps_study``, ``barenblatt_benchmark``)
takes the ``RunConfig`` and reads its own keys (``sweep.*``, ``eps.values``,
``bench.grids``), whose lists and ``sweep.tau`` the schema has checked;
its own checks (a sweep at T_final = 0, whose automatic tau is 0, and the
benchmark's data) raise ``ConfigError`` before any run.
Each entry or row holds its ``RunResult``, whose ``failure_text`` says why
it stopped; only the eps = 0 reference of the eps study aborts its campaign.
"""

from __future__ import annotations

import math
import sys
import time as _time
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .config import RunConfig, config_hash
from .diagnostics import (
    EnergyLedger,
    FieldSamples,
    TolConfig,
    WindowIntegrals,
    check_all,
    make_ledger_row,
    reaction_free,
    space_time_distance,
)
from .errors import ConfigError, SolverFailure
from .grid import Grid
from .model import (
    BOUND_INFLATION,
    DerivedConstants,
    ModelParams,
    RateFunction,
    RateFunctions,
    check_h7,
    derive_constants,
    saturating_exp,
)
from .stepper import SolverSettings, State, StepReport, step, suggest_dt

# perfbench/tracer.py wraps harness.regularized_step and harness.weighted_energy
# by name; run calls step, and the sweep builds WindowIntegrals
regularized_step = step
weighted_energy = WindowIntegrals


def make_params(cfg: RunConfig) -> ModelParams:
    def rate(prefix: str) -> RateFunction:
        return RateFunction(
            kind=cfg[f"model.{prefix}_preset"],
            alpha=cfg[f"model.{prefix}_alpha"],
            beta=cfg[f"model.{prefix}_beta"],
        )

    rates = RateFunctions(G=rate("G"), K1=rate("K1"), K2=rate("K2"), psi=rate("psi"))
    return ModelParams(
        rates=rates,
        D=cfg["model.D"],
        a=cfg["model.a"],
        b=cfg["model.b"],
        gamma=cfg["model.gamma"],
        eps_reg=cfg["model.eps_reg"],
        ell_cut=cfg["model.ell_cut"],
        d_b=cfg["model.d_b"],
        T_final=cfg["time.T_final"],
    )


def make_settings(cfg: RunConfig) -> SolverSettings:
    return SolverSettings(
        newton_tol=cfg["time.newton_tol"],
        linear_tol=cfg["time.linear_tol"],
        newton_max=cfg["time.max_iters"],
        retry_max=cfg["time.retry_max"],
        safety=cfg["time.safety"],
        dt_max=cfg["time.dt_max"] if cfg["time.dt_max"] > 0.0 else math.inf,
    )


def build_grid(cfg: RunConfig) -> Grid:
    dim = cfg["grid.dim"]
    axes = ("x", "y")[:dim]
    return Grid(
        dim=dim,
        extents=tuple(cfg[f"grid.extent_{a}"] for a in axes),
        cells=tuple(cfg[f"grid.cells_{a}"] for a in axes),
    )


def barenblatt_profile(
    x: np.ndarray, s: float, gamma: float, const: float, center: float = 0.0, dim: int = 1
) -> np.ndarray:
    """Self-similar source solution of du/ds = lap(u^m) with m = gamma + 1.

    u(x, s) = s^-alpha * (const - k |x|^2 s^(-2 beta))_+^(1/(m-1)), with
    alpha = N / (N (m - 1) + 2), beta = alpha / N, k = alpha (m-1) / (2 m N).
    The simulated equation carries the extra factor gamma/(gamma+1) on the
    Laplacian, so callers evaluate this at the rescaled time s0 + t*gamma/(gamma+1).
    """
    m = gamma + 1.0
    n_dim = float(dim)
    alpha = n_dim / (n_dim * (m - 1.0) + 2.0)
    beta = alpha / n_dim
    k = alpha * (m - 1.0) / (2.0 * m * n_dim)
    r2 = np.asarray(x - center, dtype=float) ** 2
    core = const - k * r2 * s ** (-2.0 * beta)
    return s ** (-alpha) * np.maximum(core, 0.0) ** (1.0 / (m - 1.0))


def initial_fields(
    cfg: RunConfig, grid: Grid, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unlifted initial cell arrays (n, c, d) per the configured profile."""
    profile = cfg["initial.profile"]
    n0 = cfg["initial.n0"]
    if profile == "uniform":
        n = np.full(grid.shape, n0)
    elif profile == "step":
        n = np.full(grid.shape, n0)
        inside = _window_mask(cfg, grid)
        n[inside] = cfg["initial.height"]
    elif profile == "bump":
        n = np.full(grid.shape, n0)
        r2 = _radial_sq(cfg, grid)
        inside = r2 < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            shape = np.where(inside, np.exp(1.0 - 1.0 / np.maximum(1.0 - r2, 1e-300)), 0.0)
        n = n + cfg["initial.height"] * shape
    else:  # barenblatt
        r = np.sqrt(sum(o ** 2 for o in _offsets(cfg, grid)))
        n = barenblatt_profile(
            r, cfg["initial.t0"], params.gamma, cfg["initial.bb_const"], dim=grid.dim
        )
    c = np.full(grid.shape, cfg["initial.c0"])
    d = np.full(grid.shape, cfg["initial.d0"])
    return n, c, d


def _offsets(cfg: RunConfig, grid: Grid) -> tuple[np.ndarray, ...]:
    """Per-axis offsets of the cell centres from the configured centre."""
    center = (cfg["initial.center"], cfg["initial.center_y"])
    return tuple(x - x0 for x, x0 in zip(grid.coordinate_fields(), center))


def _window_mask(cfg: RunConfig, grid: Grid) -> np.ndarray:
    half = cfg["initial.width"] / 2.0
    return np.all([np.abs(o) <= half for o in _offsets(cfg, grid)], axis=0)


def _radial_sq(cfg: RunConfig, grid: Grid) -> np.ndarray:
    half = cfg["initial.width"] / 2.0
    return sum((o / half) ** 2 for o in _offsets(cfg, grid))


def apply_lift(n: np.ndarray, c: np.ndarray, amount: float) -> tuple[np.ndarray, np.ndarray]:
    """Vacuum lift n -> n + amount keeping the species mass n2 unchanged."""
    lifted = n + amount
    return lifted, c * n / lifted


@dataclass
class RunResult:
    initial_state: State
    final_state: State        # the state of the last ledger row
    ledger: EnergyLedger
    consts: DerivedConstants
    cfg_hash: str
    bounds: TolConfig         # the optional bound data the run checks
    h7: str                   # the H7 verdict: pass (...), FAIL (...) or not checkable (...)
    h7_pass: bool | None = None
    h7_ratio: float = math.nan
    warnings: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    failure: str | None = None
    steps: int = 0
    total_cutoff_activations: int = 0
    # StepReport counts summed over the accepted steps; in no CSV
    newton_iters: int = 0
    linear_iters: int = 0
    rejected_attempts: int = 0
    wall_clock: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failure is None and not self.violations

    @property
    def failure_text(self) -> str | None:
        """Why the run stopped: the solver failure, else the violations, else None."""
        if self.failure is not None:
            return self.failure
        return "; ".join(self.violations) if self.violations else None


def _inject_fault(state: State, mode: str, consts: DerivedConstants) -> State:
    if mode == "d_ceiling":
        d = state.d.copy()
        d.flat[0] = consts.L + 1.0
        return replace(state, d=d)
    if mode == "c_bounds":
        c = state.c.copy()
        c.flat[0] = 1.5
        return replace(state, c=c)
    return state


def set_up(cfg: RunConfig) -> RunResult:
    """What ``run`` fixes before its first step: a ``RunResult`` with no step or ledger row.

    It holds the grid and the lifted initial state, the derived constants,
    the verdict of the initial-mass hypothesis H7 on the unlifted n0 (a
    warning too unless it is pass), the bound data its run checks and every
    set-up warning.  sigma is ``model.sigma``, or 0.5 e^(-G0 T) when that is
    0, the largest float where that overflows; H7 is checked only for a
    nonzero sigma below e^(-G0 T).  Every e^(rate T) factor saturates
    (``saturating_exp``).  The initial state carries the run's parameters
    with the resolved cutoff level: with eps > 0, ``model.ell_cut = 0``
    becomes the inactive-cutoff bound max(L, e^(2 M0 T) max n0), slightly
    inflated, and a given level below that bound is kept with a warning; a
    bound that overflows raises ``ConfigError``.
    """
    grid = build_grid(cfg)
    params = make_params(cfg)
    n0, c0, d0 = initial_fields(cfg, grid, params)
    consts = derive_constants(params, d0)

    T = params.T_final
    sigma_max = saturating_exp(-consts.G0 * T)
    sigma = cfg["model.sigma"] or min(0.5 * sigma_max, sys.float_info.max)
    h7_pass, h7_ratio = None, math.nan
    if sigma == 0.0:  # the automatic sigma, of an e^(-G0 T) below twice the smallest float
        factor = "e^(-G0 T)" if sigma_max == 0.0 else "0.5 e^(-G0 T)"
        h7 = f"not checkable ({factor} underflows to 0 at G0 T = {consts.G0 * T:.6g})"
    elif sigma < sigma_max:
        h7_pass, h7_ratio = check_h7(grid, n0, sigma, consts.G0, T)
        h7 = f"{'pass' if h7_pass else 'FAIL'} (sigma = {sigma:.6g}, ratio = {h7_ratio:.6g})"
    else:
        h7 = f"not checkable (sigma = {sigma:.6g} not admissible)"
    warnings = [] if h7_pass else [f"H7 {h7}"]

    lift = cfg["initial.lift"]
    if lift == "gamma":
        n0, c0 = apply_lift(n0, c0, 1.0 / params.gamma)
    elif lift == "eps":
        n0, c0 = apply_lift(n0, c0, params.eps_reg)

    # the schema admits the eps lift only with eps > 0
    bounds = TolConfig(
        cap_base=float(n0.max()) if lift == "gamma" else None,
        min_floor=params.eps_reg * saturating_exp(-consts.M0 * T) if lift == "eps" else None,
    )

    if params.eps_reg > 0.0:  # e^(2 M0 T) = inf times max n0 = 0 is nan, which max skips
        ell_floor = max(consts.L, saturating_exp(2.0 * consts.M0 * T) * float(n0.max()))
        if ell_floor == math.inf:
            raise ConfigError([
                f"the inactive-cutoff bound e^(2 M0 T) max n0 overflows at M0 T = {consts.M0 * T:.6g}"
            ])
        if params.ell_cut == 0.0:
            params = replace(params, ell_cut=ell_floor * (1.0 + BOUND_INFLATION))
        elif params.ell_cut < ell_floor:
            warnings.append(
                f"cutoff level {params.ell_cut:.6g} is below the inactive-cutoff bound "
                f"{ell_floor:.6g}; clamping may distort the solution"
            )

    state = State(t=0.0, grid=grid, n=n0, c=c0, d=d0, params=params)
    return RunResult(
        initial_state=state,
        final_state=state,
        ledger=EnergyLedger(),
        consts=consts,
        cfg_hash=config_hash(cfg),
        bounds=bounds,
        h7=h7,
        h7_pass=h7_pass,
        h7_ratio=h7_ratio,
        warnings=warnings,
    )


def run(cfg: RunConfig, permissive: bool = False, on_state=None) -> RunResult:
    """Drive the stepper from ``set_up``'s initial state to T_final, recording the ledger.

    ``on_state``, when given, is called with the initial (lifted) state and
    then with every accepted state, whatever the snapshot stride; ``run``
    itself keeps only the initial state and the state of the last ledger row.
    ``check_all`` checks the invariants of every state, the initial one
    included, before the step from it.  Solver failures and invariant
    violations (stored as their messages) stop the run but still return the
    partial result so callers can flush outputs; ``RunResult.ok`` tells them
    apart from a clean finish.  A run that needs more than
    ``time.max_steps`` steps fails after that many.  A stopped run's last
    accepted state gets a ledger row of its own if its step was off the
    stride, so the outputs end with the state the run stopped at.
    """
    t_start = _time.perf_counter()
    result = set_up(cfg)
    settings = make_settings(cfg)
    consts, ledger = result.consts, result.ledger
    delta = cfg["sweep.delta"]

    def record(state: State, report: StepReport) -> None:
        result.final_state = state
        ledger.rows.append(make_ledger_row(state, delta, report))

    state = result.initial_state
    record(state, StepReport())
    if on_state is not None:
        on_state(state)

    T = state.params.T_final
    stride = cfg["time.snapshot_stride"]
    inject = cfg["debug.inject"]
    max_steps = cfg["time.max_steps"]
    steps = 0
    try:
        while True:
            found = check_all(state, consts, result.bounds)
            if found:
                result.violations = [str(v) for v in found]
                if not permissive:
                    break
            if state.t >= T - 1e-14:
                break
            if steps == max_steps:
                raise SolverFailure(f"max_steps = {max_steps} reached before T_final")
            state, report = step(state, consts, settings, suggest_dt(state, consts, settings))
            steps += 1
            result.total_cutoff_activations += report.cutoff_activations
            result.newton_iters += report.newton_iters
            result.linear_iters += report.linear_iters
            result.rejected_attempts += report.retries
            if inject != "none" and steps == 1:
                state = _inject_fault(state, inject, consts)
            if on_state is not None:
                on_state(state)
            if (steps % stride == 0) or state.t >= T - 1e-14:
                record(state, report)
    except SolverFailure as exc:
        result.failure = str(exc)
    if result.final_state is not state:  # stopped off the stride
        record(state, report)

    result.steps = steps
    bad_rows = ledger.finite_problems()
    if bad_rows:
        result.violations = result.violations + bad_rows
    result.wall_clock = _time.perf_counter() - t_start
    return result


def _sampled_run(
    cfg: RunConfig, times: np.ndarray, extra: Callable[[State], None]
) -> tuple[RunResult, FieldSamples]:
    """Run ``cfg``, feeding every accepted state to ``extra`` and to samples at ``times``."""
    samples = FieldSamples(times)

    def on_state(state: State) -> None:
        extra(state)
        samples.add(state)

    # run is looked up at call time, so a wrapper set on harness.run sees every campaign run
    return run(cfg, on_state=on_state), samples


# ---------------------------------------------------------------------------
# gamma sweep


@dataclass
class SweepEntry:
    gamma: float
    run: RunResult
    energy: float
    excess_max: float
    seg_integral: float
    comp_integral: float
    # L2 distance of c to the previous gamma's run over Omega x [tau, T]
    # (space_time_distance), nan for the first gamma
    fraction_gap: float


@dataclass
class SweepReport:
    tau: float
    delta: float
    entries: list[SweepEntry]
    distances: list[float]    # consecutive-pair L2 distances of v over Omega x [tau, T]


def gamma_sweep(cfg: RunConfig) -> SweepReport:
    """Run each of ``sweep.gammas`` on identical data (with the 1/gamma vacuum lift).

    Per-run diagnostics integrate over t >= tau through every accepted
    step; consecutive runs are compared through the space-time distance of
    v, sampled at ``sweep.compare_times`` fixed times, so only the previous
    run's samples are held.  ``sweep.tau = 0`` means 0.1 T_final.  A failed
    run marks its entry and leaves the others alone.
    """
    gammas = cfg["sweep.gammas"]
    T = cfg["time.T_final"]
    tau = cfg["sweep.tau"] or 0.1 * T
    if not tau > 0.0:  # the schema keeps a given tau below T_final; 0.1 T is 0 at T = 0
        raise ConfigError([f"sweep.tau: must lie in (0, T_final) = (0, {T}), got {tau}"])

    delta = cfg["sweep.delta"]
    times = np.linspace(tau, T, cfg["sweep.compare_times"])
    entries: list[SweepEntry] = []
    distances: list[float] = []
    prev: FieldSamples | None = None   # the previous gamma's samples, if it finished cleanly
    for gamma in gammas:
        cfg_g = cfg.with_overrides(model__gamma=gamma, initial__lift="gamma")
        integrals = WindowIntegrals(tau, delta)
        res, samples = _sampled_run(cfg_g, times, integrals.add)
        dist = gap = math.nan
        if prev is not None and res.ok:
            volume = res.final_state.grid.cell_volume
            dist = space_time_distance(times, prev.v, samples.v, volume)
            # fraction-convergence evidence for the open ratio question: recorded, never asserted
            gap = space_time_distance(times, prev.c, samples.c, volume)
        if entries:
            distances.append(dist)
        entries.append(SweepEntry(
            gamma=gamma,
            run=res,
            energy=integrals.energy,
            excess_max=integrals.excess_max,
            seg_integral=integrals.seg_integral,
            comp_integral=integrals.comp_integral,
            fraction_gap=gap,
        ))
        prev = samples if res.ok else None
    return SweepReport(tau=tau, delta=delta, entries=entries, distances=distances)


# ---------------------------------------------------------------------------
# eps refinement study

#: fixed times over [0, T] at which the eps study samples v
EPS_COMPARE_TIMES = 33


@dataclass
class EpsEntry:
    eps: float
    run: RunResult
    distance: float           # |(n_eps)^(gamma+1) - (n_0)^(gamma+1)| over Omega x (0,T)
    min_density: float
    barrier: float


def eps_study(cfg: RunConfig) -> list[EpsEntry]:
    """Viscous-scheme consistency: distances of each of ``eps.values`` to the eps = 0 run.

    Every eps run is set up before the reference takes a step, so a set-up
    ``ConfigError`` stops the study at once.  A stopped eps run gets a nan
    distance.  A stopped eps = 0 reference raises SolverFailure, since
    without it no distance exists.
    """
    eps_list = cfg["eps.values"]
    eps_cfgs = [cfg.with_overrides(model__eps_reg=eps, initial__lift="eps") for eps in eps_list]
    for eps_cfg in eps_cfgs:
        set_up(eps_cfg)
    T = cfg["time.T_final"]
    times = np.linspace(0.0, T, EPS_COMPARE_TIMES)
    ref_cfg = cfg.with_overrides(model__eps_reg=0.0, initial__lift="none")
    ref_samples = FieldSamples(times)
    ref = run(ref_cfg, on_state=ref_samples.add)
    if not ref.ok:
        raise SolverFailure(f"reference run failed: {ref.failure_text}")
    volume = ref.final_state.grid.cell_volume

    entries: list[EpsEntry] = []
    for eps, eps_cfg in zip(eps_list, eps_cfgs):
        lows: list[float] = []    # min n of every accepted state
        res, samples = _sampled_run(eps_cfg, times,
                                    lambda state: lows.append(float(state.n.min())))
        dist = space_time_distance(times, samples.v, ref_samples.v, volume) if res.ok else math.nan
        entries.append(EpsEntry(
            eps=eps,
            run=res,
            distance=dist,
            min_density=min(lows),
            barrier=res.bounds.min_floor,
        ))
    return entries


# ---------------------------------------------------------------------------
# Barenblatt benchmark


@dataclass
class BenchRow:
    cells: int
    run: RunResult
    h: float
    l1_error: float           # nan for a stopped run, as are the three below
    rel_error: float          # relative to the initial mass
    order: float              # observed order vs the previous grid, nan for the first
    mass_drift: float         # |mass(T) - mass(0)| / mass(0)


@dataclass
class BenchReport:
    gamma: float
    rows: list[BenchRow]


def barenblatt_benchmark(cfg: RunConfig) -> BenchReport:
    """Grid-refinement study against the closed-form self-similar solution.

    A stopped run's row has nan errors, so its order and the next one are nan.
    """
    if cfg["initial.profile"] != "barenblatt":
        raise ConfigError(["initial.profile: the benchmark needs barenblatt"])
    if not reaction_free(make_params(cfg), cfg["initial.c0"]):
        raise ConfigError([
            "the benchmark needs a reaction-free config: zero growth preset, "
            "zero K1 preset, and c0 = 0"
        ])

    gamma = cfg["model.gamma"]
    s_exact = cfg["initial.t0"] + cfg["time.T_final"] * gamma / (gamma + 1.0)
    rows: list[BenchRow] = []
    prev_err = prev_h = math.nan
    for n_cells in cfg["bench.grids"]:
        res = run(cfg.with_overrides(grid__cells_x=n_cells))
        final = res.final_state
        grid = final.grid
        err = rel = drift = math.nan
        if res.ok:
            exact = barenblatt_profile(
                grid.centers(0), s_exact, gamma, cfg["initial.bb_const"],
                center=cfg["initial.center"], dim=1,
            )
            err = float(np.sum(np.abs(final.n - exact))) * grid.cell_volume
            mass0 = res.ledger.rows[0].mass
            rel = err / mass0
            drift = abs(res.ledger.rows[-1].mass - mass0) / mass0
        order = math.nan
        if err > 0.0 and prev_err > 0.0:
            order = math.log(prev_err / err) / math.log(prev_h / grid.h[0])
        rows.append(BenchRow(
            cells=n_cells, run=res, h=grid.h[0], l1_error=err, rel_error=rel,
            order=order, mass_drift=drift,
        ))
        prev_err, prev_h = err, grid.h[0]
    return BenchReport(gamma=gamma, rows=rows)
