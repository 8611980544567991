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

Every campaign (``gamma_sweep``, ``eps_study``, ``barenblatt_benchmark``)
takes the ``RunConfig`` and reads its own keys (``sweep.*``, ``eps.values``,
``bench.grids``), checking them before any run.  ``run`` never raises for a
stopped run; each campaign reports why one stopped as
``RunResult.failure_text``.
"""

from __future__ import annotations

import math
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
    validate_rates,
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
    params = ModelParams(
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
    problems = params.validate()
    if problems:
        raise ConfigError(problems)
    return params


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


def check_initial_mass(
    cfg: RunConfig, consts: DerivedConstants, grid: Grid, n0: np.ndarray
) -> tuple[float, bool | None, float]:
    """The initial-mass hypothesis H7 on the unlifted n0: (sigma, pass, ratio).

    sigma is ``model.sigma``, or 0.5 e^(-G0 T) when that is 0.  H7 is
    checked only for an admissible sigma < e^(-G0 T); otherwise the result
    is (sigma, None, nan).
    """
    T = cfg["time.T_final"]
    sigma = cfg["model.sigma"]
    if sigma == 0.0:
        sigma = 0.5 * math.exp(-consts.G0 * T)
    if sigma < math.exp(-consts.G0 * T):
        h7_pass, h7_ratio = check_h7(grid, n0, sigma, consts.G0, T)
        return sigma, h7_pass, h7_ratio
    return sigma, None, math.nan


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


def run(cfg: RunConfig, permissive: bool = False, on_state=None) -> RunResult:
    """Drive the stepper to T_final, recording the ledger.

    ``on_state``, when given, is called with the initial (lifted) state and
    then with every accepted state, whatever the snapshot stride; ``run``
    itself keeps only the initial state and the state of the last ledger row.
    ``check_all`` checks the invariants of the initial state and of the
    state after every step.  Solver failures and invariant violations
    (stored as their messages) stop the run but still return the partial
    result so callers can flush outputs; ``RunResult.ok`` tells them apart
    from a clean finish.  A run that needs more than ``time.max_steps``
    steps fails after that many.  A stopped run's last accepted state gets a
    ledger row of its own if its step was off the stride, so the outputs end
    with the state the run stopped at.
    """
    t_start = _time.perf_counter()
    grid = build_grid(cfg)
    params = make_params(cfg)
    settings = make_settings(cfg)
    n0, c0, d0 = initial_fields(cfg, grid, params)
    consts = derive_constants(params, d0)
    problems = validate_rates(params, consts)
    if problems:
        raise ConfigError(problems)

    warnings: list[str] = []
    T = params.T_final

    sigma, h7_pass, h7_ratio = check_initial_mass(cfg, consts, grid, n0)
    if h7_pass is None:
        warnings.append(
            f"sigma = {sigma:.3g} is not admissible (needs < e^(-G0 T) = "
            f"{math.exp(-consts.G0 * T):.3g}); hypothesis not checked"
        )
    elif not h7_pass:
        warnings.append(
            f"initial-mass hypothesis fails: superlevel ratio {h7_ratio:.3g} > 1 "
            f"(sigma = {sigma:.3g})"
        )

    lift = cfg["initial.lift"]
    if lift == "gamma":
        n0, c0 = apply_lift(n0, c0, 1.0 / params.gamma)
    elif lift == "eps":
        n0, c0 = apply_lift(n0, c0, params.eps_reg)

    tolcfg = TolConfig(
        cap_base=float(n0.max()) if lift == "gamma" else None,
        min_floor=(
            params.eps_reg * math.exp(-consts.M0 * T)
            if (params.eps_reg > 0.0 and lift == "eps")
            else None
        ),
    )

    if params.eps_reg > 0.0:
        ell_floor = max(consts.L, math.exp(2.0 * consts.M0 * T) * float(n0.max()))
        if params.ell_cut == 0.0:
            params = replace(params, ell_cut=ell_floor * (1.0 + BOUND_INFLATION))
        elif params.ell_cut < ell_floor:
            warnings.append(
                f"cutoff level {params.ell_cut:.6g} is below the inactive-cutoff bound "
                f"{ell_floor:.6g}; clamping may distort the solution"
            )

    state = State(t=0.0, grid=grid, n=n0, c=c0, d=d0, gamma=params.gamma)
    ledger = EnergyLedger()
    delta = cfg["sweep.delta"]
    ledger.rows.append(make_ledger_row(state, params, delta, 0.0))
    if on_state is not None:
        on_state(state)

    result = RunResult(
        initial_state=state,
        final_state=state,
        ledger=ledger,
        consts=consts,
        cfg_hash=config_hash(cfg),
        h7_pass=h7_pass,
        h7_ratio=h7_ratio,
        warnings=warnings,
    )

    initial_violations = check_all(state, consts, tolcfg)
    if initial_violations:
        result.violations = [str(v) for v in initial_violations]
        if not permissive:
            result.wall_clock = _time.perf_counter() - t_start
            return result

    def record(state: State, report: StepReport) -> None:
        result.final_state = state
        ledger.rows.append(
            make_ledger_row(
                state, params, delta, report.dt_used,
                newton_iters=report.newton_iters,
                clamped_cells=report.clamped_cells,
                cutoff_activations=report.cutoff_activations,
            )
        )

    stride = cfg["time.snapshot_stride"]
    inject = cfg["debug.inject"]
    max_steps = cfg["time.max_steps"]
    steps = 0
    try:
        while state.t < T - 1e-14:
            if steps == max_steps:
                raise SolverFailure(f"max_steps = {max_steps} reached before T_final")
            dt_hint = min(suggest_dt(state, params, consts, settings.safety), settings.dt_max)
            state, report = step(state, params, consts, settings, dt_hint)
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
            found = check_all(state, consts, tolcfg)
            if found:
                result.violations = [str(v) for v in found]
                if not permissive:
                    break
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
    cfg_hash: str
    ok: bool
    h7_pass: bool | None
    h7_ratio: float
    energy: float
    excess_max: float
    seg_integral: float
    comp_integral: float
    # L2 distance of c to the previous gamma's run over Omega x [tau, T]
    # (space_time_distance), nan for the first gamma
    fraction_gap: float
    wall_clock: float
    failure: str | None


@dataclass
class SweepReport:
    tau: float
    delta: float
    entries: list[SweepEntry]
    distances: list[float]    # consecutive-pair L2 distances of v over Omega x [tau, T]
    ledgers: list[EnergyLedger]  # per-gamma rows


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
    tau = cfg["sweep.tau"]
    if tau == 0.0:
        tau = 0.1 * T
    if len(gammas) < 2:
        raise ValueError("a sweep needs at least 2 gamma values")
    if any(g < 1.0 for g in gammas):
        raise ValueError("all gamma values must be >= 1")
    if any(b < a for a, b in zip(gammas, gammas[1:])):
        raise ValueError("gamma values must be nondecreasing")
    if not (0.0 < tau < T):
        raise ValueError(f"tau must lie in (0, T_final) = (0, {T}), got {tau}")

    delta = cfg["sweep.delta"]
    times = np.linspace(tau, T, cfg["sweep.compare_times"])
    entries: list[SweepEntry] = []
    ledgers: list[EnergyLedger] = []
    distances: list[float] = []
    prev: FieldSamples | None = None   # the previous gamma's samples, if it finished cleanly
    for gamma in gammas:
        cfg_g = cfg.with_overrides(model__gamma=gamma, initial__lift="gamma")
        integrals = WindowIntegrals(tau, make_params(cfg_g), delta)
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
            cfg_hash=res.cfg_hash,
            ok=res.ok,
            h7_pass=res.h7_pass,
            h7_ratio=res.h7_ratio,
            energy=integrals.energy,
            excess_max=integrals.excess_max,
            seg_integral=integrals.seg_integral,
            comp_integral=integrals.comp_integral,
            fraction_gap=gap,
            wall_clock=res.wall_clock,
            failure=res.failure_text,
        ))
        ledgers.append(res.ledger)
        prev = samples if res.ok else None
    return SweepReport(tau=tau, delta=delta, entries=entries, distances=distances, ledgers=ledgers)


# ---------------------------------------------------------------------------
# eps refinement study

#: fixed times over [0, T] at which the eps study samples v
EPS_COMPARE_TIMES = 33


@dataclass
class EpsEntry:
    eps: float
    cfg_hash: str
    ok: bool
    distance: float           # |(n_eps)^(gamma+1) - (n_0)^(gamma+1)| over Omega x (0,T)
    cutoff_activations: int
    min_density: float
    barrier: float
    failure: str | None
    # from the entry's RunResult; in no CSV
    steps: int
    rejected_attempts: int


@dataclass
class EpsReport:
    entries: list[EpsEntry]


def eps_study(cfg: RunConfig) -> EpsReport:
    """Viscous-scheme consistency: distances of each of ``eps.values`` to the eps = 0 run."""
    eps_list = cfg["eps.values"]
    if not eps_list:
        raise ValueError("eps list must not be empty")
    if any(e <= 0.0 for e in eps_list):
        raise ValueError("all eps values must be positive")
    if any(b > a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps values must be nonincreasing")

    T = cfg["time.T_final"]
    times = np.linspace(0.0, T, EPS_COMPARE_TIMES)
    ref_cfg = cfg.with_overrides(model__eps_reg=0.0, initial__lift="none")
    ref_samples = FieldSamples(times)
    ref = run(ref_cfg, on_state=ref_samples.add)
    if not ref.ok:
        raise SolverFailure(f"reference run failed: {ref.failure_text}")
    volume = ref.final_state.grid.cell_volume

    entries: list[EpsEntry] = []
    for eps in eps_list:
        lows: list[float] = []    # min n of every accepted state
        res, samples = _sampled_run(
            cfg.with_overrides(model__eps_reg=eps, initial__lift="eps"), times,
            lambda state: lows.append(float(state.n.min())),
        )
        dist = space_time_distance(times, samples.v, ref_samples.v, volume) if res.ok else math.nan
        entries.append(EpsEntry(
            eps=eps,
            cfg_hash=res.cfg_hash,
            ok=res.ok,
            distance=dist,
            cutoff_activations=res.total_cutoff_activations,
            min_density=min(lows),
            barrier=eps * math.exp(-res.consts.M0 * T),
            failure=res.failure_text,
            steps=res.steps,
            rejected_attempts=res.rejected_attempts,
        ))
    return EpsReport(entries=entries)


# ---------------------------------------------------------------------------
# Barenblatt benchmark


@dataclass
class BenchRow:
    cells: int
    h: float
    l1_error: float
    rel_error: float          # relative to the initial mass
    order: float              # observed order vs the previous grid, nan for first
    mass_drift: float         # |mass(T) - mass(0)| / mass(0)


@dataclass
class BenchReport:
    gamma: float
    rows: list[BenchRow]


def barenblatt_benchmark(cfg: RunConfig) -> BenchReport:
    """Grid-refinement study against the closed-form self-similar solution."""
    grids = list(cfg["bench.grids"])
    if any(b <= a for a, b in zip(grids, grids[1:])) or len(grids) < 1:
        raise ValueError("bench grids must be strictly increasing")
    if cfg["initial.profile"] != "barenblatt":
        raise ValueError("the benchmark needs initial.profile = barenblatt")
    params_probe = make_params(cfg)
    if not reaction_free(params_probe, cfg["initial.c0"]):
        raise ValueError(
            "the benchmark needs a reaction-free config: zero growth preset, "
            "zero K1 preset, and c0 = 0"
        )

    gamma = cfg["model.gamma"]
    T = cfg["time.T_final"]
    t0 = cfg["initial.t0"]
    const = cfg["initial.bb_const"]
    center = cfg["initial.center"]
    rows: list[BenchRow] = []
    prev_err = None
    prev_h = None
    for n_cells in grids:
        cfg_n = cfg.with_overrides(grid__cells_x=n_cells)
        res = run(cfg_n)
        if not res.ok:
            raise SolverFailure(f"benchmark run at N = {n_cells} failed: {res.failure_text}")
        final = res.final_state
        grid = final.grid
        s_exact = t0 + T * gamma / (gamma + 1.0)
        exact = barenblatt_profile(grid.centers(0), s_exact, gamma, const, center=center, dim=1)
        err = float(np.sum(np.abs(final.n - exact))) * grid.cell_volume
        mass0 = res.ledger.rows[0].mass
        mass_t = res.ledger.rows[-1].mass
        order = math.nan
        if prev_err is not None and err > 0.0 and prev_err > 0.0:
            order = math.log(prev_err / err) / math.log(prev_h / grid.h[0])
        rows.append(BenchRow(
            cells=n_cells,
            h=grid.h[0],
            l1_error=err,
            rel_error=err / mass0,
            order=order,
            mass_drift=abs(mass_t - mass0) / mass0,
        ))
        prev_err, prev_h = err, grid.h[0]
    return BenchReport(gamma=gamma, rows=rows)
