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
"""

from __future__ import annotations

import math
import time as _time
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
from .grid import Field, Grid
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
from .stepper import SolverSettings, State, step, suggest_dt

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


def initial_fields(cfg: RunConfig, grid: Grid, params: ModelParams) -> tuple[Field, Field, Field]:
    """Unlifted initial (n, c, d) per the configured profile."""
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
    return Field(grid, n), Field(grid, c), Field(grid, d)


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


def apply_lift(n: Field, c: Field, amount: float) -> tuple[Field, Field]:
    """Vacuum lift n -> n + amount keeping the species mass n2 unchanged."""
    lifted = n.values + amount
    c_new = c.values * n.values / lifted
    return n.with_values(lifted), c.with_values(c_new)


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


def check_initial_mass(
    cfg: RunConfig, consts: DerivedConstants, n0: Field
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
        h7_pass, h7_ratio = check_h7(n0, sigma, consts.G0, T)
        return sigma, h7_pass, h7_ratio
    return sigma, None, math.nan


def _inject_fault(state: State, mode: str, consts: DerivedConstants) -> State:
    if mode == "d_ceiling":
        d = state.d.values.copy()
        d.flat[0] = consts.L + 1.0
        return replace(state, d=state.d.with_values(d))
    if mode == "c_bounds":
        c = state.c.values.copy()
        c.flat[0] = 1.5
        return replace(state, c=state.c.with_values(c))
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
    from a clean finish.
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

    sigma, h7_pass, h7_ratio = check_initial_mass(cfg, consts, n0)
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
        cap_base=float(n0.values.max()) if lift == "gamma" else None,
        min_floor=(
            params.eps_reg * math.exp(-consts.M0 * T)
            if (params.eps_reg > 0.0 and lift == "eps")
            else None
        ),
    )

    if params.eps_reg > 0.0:
        ell_floor = max(consts.L, math.exp(2.0 * consts.M0 * T) * float(n0.values.max()))
        if params.ell_cut == 0.0:
            params = replace(params, ell_cut=ell_floor * (1.0 + BOUND_INFLATION))
        elif params.ell_cut < ell_floor:
            warnings.append(
                f"cutoff level {params.ell_cut:.6g} is below the inactive-cutoff bound "
                f"{ell_floor:.6g}; clamping may distort the solution"
            )

    state = State(t=0.0, n=n0, c=c0, d=d0, gamma=params.gamma)
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

    stride = cfg["time.snapshot_stride"]
    inject = cfg["debug.inject"]
    max_steps = cfg["time.max_steps"]
    steps = 0
    try:
        while state.t < T - 1e-14:
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
                result.final_state = state
                ledger.rows.append(
                    make_ledger_row(
                        state, params, delta, report.dt_used,
                        newton_iters=report.newton_iters,
                        clamped_cells=report.clamped_cells,
                        cutoff_activations=report.cutoff_activations,
                    )
                )
            found = check_all(state, consts, tolcfg)
            if found:
                result.violations = [str(v) for v in found]
                if not permissive:
                    break
            if steps > max_steps:
                raise SolverFailure(f"exceeded max_steps = {max_steps}")
    except SolverFailure as exc:
        result.failure = str(exc)

    result.steps = steps
    bad_rows = ledger.finite_problems()
    if bad_rows:
        result.violations = result.violations + bad_rows
    result.wall_clock = _time.perf_counter() - t_start
    return result


# ---------------------------------------------------------------------------
# gamma sweep


@dataclass(frozen=True)
class SweepConfig:
    gammas: tuple[float, ...]
    base: RunConfig
    tau: float
    compare_times: int = 33

    def __post_init__(self):
        if len(self.gammas) < 2:
            raise ValueError("a sweep needs at least 2 gamma values")
        gs = self.gammas
        if any(g < 1.0 for g in gs):
            raise ValueError("all gamma values must be >= 1")
        if any(b < a for a, b in zip(gs, gs[1:])):
            raise ValueError("gamma values must be nondecreasing")
        T = self.base["time.T_final"]
        if not (0.0 < self.tau < T):
            raise ValueError(f"tau must lie in (0, T_final) = (0, {T}), got {self.tau}")


def sweep_config_from(cfg: RunConfig) -> SweepConfig:
    tau = cfg["sweep.tau"]
    if tau == 0.0:
        tau = 0.1 * cfg["time.T_final"]
    return SweepConfig(
        gammas=tuple(cfg["sweep.gammas"]),
        base=cfg,
        tau=tau,
        compare_times=cfg["sweep.compare_times"],
    )


@dataclass
class SweepEntry:
    gamma: float
    cfg_hash: str
    ok: bool
    h7_pass: bool | None
    h7_ratio: float
    energy: float = math.nan
    excess_max: float = math.nan
    seg_integral: float = math.nan
    comp_integral: float = math.nan
    # L2 distance of c to the previous gamma's run over Omega x [tau, T]
    # (space_time_distance), nan for the first gamma
    fraction_gap: float = math.nan
    wall_clock: float = 0.0
    failure: str | None = None


@dataclass
class SweepReport:
    tau: float
    delta: float
    entries: list[SweepEntry]
    distances: list[float]    # consecutive-pair L2 distances of v over Omega x [tau, T]
    ledgers: list[EnergyLedger | None] = field(default_factory=list)  # per-gamma rows


def gamma_sweep(sc: SweepConfig) -> SweepReport:
    """Run each gamma on identical data (with the 1/gamma vacuum lift).

    Per-run diagnostics integrate over t >= tau through every accepted
    step; consecutive runs are compared through the space-time distance of
    v, sampled at fixed times, so only the previous run's samples are held.
    A failed run marks its entry and leaves the others alone.
    """
    T = sc.base["time.T_final"]
    delta = sc.base["sweep.delta"]
    times = np.linspace(sc.tau, T, sc.compare_times)
    entries: list[SweepEntry] = []
    ledgers: list[EnergyLedger | None] = []
    distances: list[float] = []
    prev: FieldSamples | None = None   # the previous gamma's samples, if it finished cleanly
    for gamma in sc.gammas:
        cfg_g = sc.base.with_overrides(model__gamma=gamma, initial__lift="gamma")
        samples = FieldSamples(times)
        try:
            integrals = WindowIntegrals(sc.tau, make_params(cfg_g), delta)

            def on_state(state: State) -> None:
                integrals.add(state)
                samples.add(state)

            res = run(cfg_g, on_state=on_state)
        except (SolverFailure, ConfigError) as exc:
            res = None
            entry = SweepEntry(
                gamma=gamma, cfg_hash=config_hash(cfg_g), ok=False,
                h7_pass=None, h7_ratio=math.nan, failure=str(exc),
            )
            ledgers.append(None)
        else:
            entry = SweepEntry(
                gamma=gamma,
                cfg_hash=res.cfg_hash,
                ok=res.ok,
                h7_pass=res.h7_pass,
                h7_ratio=res.h7_ratio,
                energy=integrals.energy,
                excess_max=integrals.excess_max,
                seg_integral=integrals.seg_integral,
                comp_integral=integrals.comp_integral,
                wall_clock=res.wall_clock,
                failure=res.failure if res.failure else (
                    "; ".join(res.violations) if res.violations else None
                ),
            )
            ledgers.append(res.ledger)
            if not res.ok:
                res = None
        if entries:
            dist = math.nan
            if prev is not None and res is not None:
                volume = res.final_state.grid.cell_volume
                dist = space_time_distance(times, prev.v, samples.v, volume)
                # fraction-convergence evidence for the open ratio question: recorded, never asserted
                entry.fraction_gap = space_time_distance(times, prev.c, samples.c, volume)
            distances.append(dist)
        entries.append(entry)
        prev = samples if res is not None else None
    return SweepReport(
        tau=sc.tau, delta=delta, entries=entries, distances=distances,
        ledgers=ledgers,
    )


# ---------------------------------------------------------------------------
# eps refinement study


@dataclass
class EpsEntry:
    eps: float
    cfg_hash: str
    ok: bool
    distance: float           # |(n_eps)^(gamma+1) - (n_0)^(gamma+1)| over Omega x (0,T)
    cutoff_activations: int
    min_density: float
    barrier: float
    failure: str | None = None
    # from the entry's RunResult; in no CSV
    steps: int = 0
    rejected_attempts: int = 0


@dataclass
class EpsReport:
    entries: list[EpsEntry]


def eps_study(eps_list, base_cfg: RunConfig, compare_times: int = 33) -> EpsReport:
    """Viscous-scheme consistency: distances to the eps = 0 reference run."""
    eps_list = list(eps_list)
    if not eps_list:
        raise ValueError("eps list must not be empty")
    if any(e <= 0.0 for e in eps_list):
        raise ValueError("all eps values must be positive")
    if any(b > a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps values must be nonincreasing")

    T = base_cfg["time.T_final"]
    times = np.linspace(0.0, T, compare_times)
    ref_cfg = base_cfg.with_overrides(model__eps_reg=0.0, initial__lift="none")
    ref_samples = FieldSamples(times)
    ref = run(ref_cfg, on_state=ref_samples.add)
    if not ref.ok:
        raise SolverFailure(f"reference run failed: {ref.failure or ref.violations}")
    volume = ref.final_state.grid.cell_volume

    entries: list[EpsEntry] = []
    for eps in eps_list:
        cfg_e = base_cfg.with_overrides(model__eps_reg=eps, initial__lift="eps")
        samples = FieldSamples(times)
        lows: list[float] = []    # min n of every accepted state

        def on_state(state: State) -> None:
            samples.add(state)
            lows.append(state.n.min())

        try:
            res = run(cfg_e, on_state=on_state)
        except SolverFailure as exc:
            entries.append(EpsEntry(
                eps=eps, cfg_hash=config_hash(cfg_e), ok=False, distance=math.nan,
                cutoff_activations=0, min_density=math.nan, barrier=math.nan,
                failure=str(exc),
            ))
            continue
        dist = space_time_distance(times, samples.v, ref_samples.v, volume) if res.ok else math.nan
        barrier = eps * math.exp(-res.consts.M0 * T)
        entries.append(EpsEntry(
            eps=eps,
            cfg_hash=res.cfg_hash,
            ok=res.ok,
            distance=dist,
            cutoff_activations=res.total_cutoff_activations,
            min_density=min(lows),
            barrier=barrier,
            failure=res.failure if res.failure else (
                "; ".join(res.violations) if res.violations else None
            ),
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
            raise SolverFailure(f"benchmark run at N = {n_cells} failed: {res.failure}")
        final = res.final_state
        grid = final.grid
        s_exact = t0 + T * gamma / (gamma + 1.0)
        exact = barenblatt_profile(grid.centers(0), s_exact, gamma, const, center=center, dim=1)
        err = float(np.sum(np.abs(final.n.values - exact))) * grid.cell_volume
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
