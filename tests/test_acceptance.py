"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria recap (tolerances pinned here, nothing deferred):
  01 mass conservation without reactions, 1e-10 relative, < 10 s
  02 self-similar convergence: observed L1 order >= 0.8, finest error <= 2e-3
     relative to initial mass, < 1 min
  03 weak maximum principle cap e^(G0 t)(max n0 + 1/gamma)(1 + 1e-6)
  04 fraction within [-1e-12, 1+1e-12], nutrient within [-1e-10, L+1e-10]
  05 time-weighted energy uniform over gamma: E(gamma) <= 3 E(5), < 5 min
  06 excess(80) <= 0.2 excess(5); segregation nonincreasing with 20% slack;
     complementarity(80) < complementarity(5)
  07 pairwise v-distances strictly decreasing along the doubling sweep
  08 eps-study distances strictly decreasing; zero cutoff activations (1D
     and 32x32 2D)
  09 porous-medium monotonicity gap >= -10 (h^2 + dt)
  10 byte-identical reruns (1D and 32x32 2D); 4-cell/3-step match with an
     independent brute-force fixed-point re-implementation to 1e-8
  11 unweighted energy U(tau) on 400 and 800 cells, gamma = 5..640: for
     ill-prepared data log U(0) rises by at least log(max n0) / 2 per unit
     gamma from gamma = 20 on; U(1e-4 T) <= its gamma = 5 value and strictly
     decreasing from gamma = 80 on; for well-prepared data U(0) <= its
     gamma = 5 value
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from tissuesim.config import parse_config
from tissuesim.diagnostics import aronson_benilan_gap, v_integrals
from tissuesim.grid import Grid
from tissuesim.harness import (
    barenblatt_benchmark,
    eps_study,
    gamma_sweep,
    run,
    set_up,
)
from tissuesim.model import ModelParams, RateFunction, RateFunctions, derive_constants
from tissuesim.output import write_snapshot, write_timeseries
from tissuesim.stepper import SolverSettings, State, step


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


MASS_TEXT = """
grid.extent_x = 1.0
grid.cells_x = 200
model.gamma = 5
model.G_preset = constant
model.G_alpha = 0.0
model.K1_preset = constant
model.K1_alpha = 0.0
initial.profile = bump
initial.n0 = 0.0
initial.height = 1.0
initial.width = 0.5
initial.center = 0.5
initial.c0 = 0.0
time.T_final = 1.0
"""

BENCH_TEXT = """
grid.extent_x = 4.0
grid.cells_x = 100
model.gamma = 2
model.G_preset = constant
model.G_alpha = 0.0
model.K1_preset = constant
model.K1_alpha = 0.0
initial.profile = barenblatt
initial.n0 = 0.0
initial.c0 = 0.0
initial.center = 2.0
initial.t0 = 0.1
initial.bb_const = 0.4
time.T_final = 0.5
time.snapshot_stride = 5
bench.grids = 100,200,400
"""

FULL_TEXT = """
grid.extent_x = 1.0
grid.cells_x = 200
model.gamma = 5
initial.profile = bump
initial.n0 = 0.0
initial.height = 1.2
initial.width = 0.3
initial.center = 0.5
initial.c0 = 0.2
initial.lift = gamma
time.T_final = 0.5
time.snapshot_stride = 5
"""

SWEEP_TEXT = """
grid.extent_x = 1.0
grid.cells_x = 400
initial.profile = bump
initial.n0 = 0.0
initial.height = 1.2
initial.width = 0.3
initial.center = 0.5
initial.c0 = 0.2
time.T_final = 0.5
time.snapshot_stride = 10
sweep.gammas = 5,10,20,40,80
sweep.tau = 0.05
sweep.delta = 0.05
"""

EPS_TEXT = """
grid.cells_x = 100
model.gamma = 3
initial.profile = bump
initial.n0 = 0.1
initial.height = 0.8
initial.width = 0.4
initial.c0 = 0.2
time.T_final = 0.25
time.snapshot_stride = 5
"""


@pytest.fixture(scope="module")
def mass_run():
    t0 = time.perf_counter()
    res = run(set_up(parse_config(MASS_TEXT)))
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def bench_report():
    t0 = time.perf_counter()
    rep = barenblatt_benchmark(parse_config(BENCH_TEXT))
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def maxprin_runs():
    out = {}
    for gamma in (5.0, 40.0):
        out[gamma] = run(set_up(parse_config(FULL_TEXT).with_overrides(model__gamma=gamma)))
    return out


@pytest.fixture(scope="module")
def sweep():
    cfg = parse_config(SWEEP_TEXT)
    t0 = time.perf_counter()
    rep = gamma_sweep(cfg)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def eps_report():
    return eps_study(parse_config(EPS_TEXT).with_overrides(eps__values=(0.1, 0.01, 0.001)))


@pytest.fixture(scope="module")
def eps_report_2d():
    cfg = parse_config(EPS_TEXT).with_overrides(
        eps__values=(0.1, 0.01, 0.001), grid__dim=2, grid__cells_x=32, grid__cells_y=32,
        grid__extent_y=1.0, initial__center_y=0.5,
    )
    return eps_study(cfg)


@pytest.fixture(scope="module")
def barenblatt_run():
    states = []
    cfg = parse_config(BENCH_TEXT).with_overrides(grid__cells_x=200)
    res = run(set_up(cfg), on_state=states.append)
    return res, states


def test_01_mass_conservation(mass_run):
    res, wall = mass_run
    assert res.ok, res.failure or res.violations
    m0 = res.ledger.rows[0].mass
    mT = res.ledger.rows[-1].mass
    drift = abs(mT - m0) / m0
    ok = drift <= 1e-10 and wall < 10.0
    _report(1, ok, f"reaction-free mass drift {drift:.3e} (tol 1e-10), wall {wall:.2f}s")


def test_02_barenblatt_convergence(bench_report):
    rep, wall = bench_report
    orders = [r.order for r in rep.rows[1:]]
    finest = rep.rows[-1].rel_error
    ok = all(o >= 0.8 for o in orders) and finest <= 2e-3 and wall < 60.0
    _report(
        2, ok,
        f"L1 orders {['%.3f' % o for o in orders]} (need >= 0.8), finest rel error "
        f"{finest:.3e} (tol 2e-3), wall {wall:.1f}s",
    )


def test_03_weak_maximum_principle(maxprin_runs):
    worst = -math.inf
    for gamma, res in maxprin_runs.items():
        assert res.ok, res.failure or res.violations
        cap_base = res.ledger.rows[0].n_max  # max of the lifted initial data
        for row in res.ledger.rows:
            cap = math.exp(res.initial_state.params.consts.G0 * row.t) * cap_base * (1.0 + 1e-6)
            worst = max(worst, row.n_max - cap)
    ok = worst <= 0.0
    _report(3, ok, f"max density stays under e^(G0 t)(max n0 + 1/gamma): margin {-worst:.3e}")


def test_04_bound_suite(mass_run, maxprin_runs, sweep, barenblatt_run):
    ledgers = [mass_run[0].ledger, barenblatt_run[0].ledger]
    consts_l = [mass_run[0].initial_state.params.consts.L,
                barenblatt_run[0].initial_state.params.consts.L]
    for res in maxprin_runs.values():
        ledgers.append(res.ledger)
        consts_l.append(res.initial_state.params.consts.L)
    sweep_rep, _ = sweep
    for e in sweep_rep.entries:
        ledgers.append(e.run.ledger)
        consts_l.append(1.0)  # sweep setup has L = 1
    worst_c = 0.0
    worst_d = 0.0
    for led, L in zip(ledgers, consts_l):
        for row in led.rows:
            worst_c = max(worst_c, -row.c_min, row.c_max - 1.0)
            worst_d = max(worst_d, -row.d_min, row.d_max - L)
    ok = worst_c <= 1e-12 and worst_d <= 1e-10
    _report(
        4, ok,
        f"fraction excursion {worst_c:.3e} (tol 1e-12), nutrient excursion "
        f"{worst_d:.3e} (tol 1e-10) over {sum(len(l.rows) for l in ledgers)} snapshots",
    )


def test_05_uniform_weighted_energy(sweep):
    rep, wall = sweep
    assert all(e.run.ok for e in rep.entries), [e.run.failure_text for e in rep.entries]
    energies = {e.gamma: e.energy for e in rep.entries}
    base = energies[5.0]
    ratios = {g: e / base for g, e in energies.items()}
    ok = all(r <= 3.0 for r in ratios.values()) and wall < 300.0
    _report(
        5, ok,
        "energy ratios vs gamma=5: "
        + ", ".join(f"{g:g}: {r:.3f}" for g, r in sorted(ratios.items()))
        + f" (cap 3.0), wall {wall:.1f}s",
    )


def test_06_limit_characterization(sweep):
    rep, _ = sweep
    by_gamma = {e.gamma: e for e in rep.entries}
    ex5, ex80 = by_gamma[5.0].excess_max, by_gamma[80.0].excess_max
    excess_ok = ex80 <= 0.2 * ex5 if ex5 > 0 else ex80 == 0.0
    segs = [e.seg_integral for e in rep.entries]
    seg_ok = all(b <= 1.2 * a for a, b in zip(segs, segs[1:])) and segs[-1] < segs[0]
    comp_ok = by_gamma[80.0].comp_integral < by_gamma[5.0].comp_integral
    ok = excess_ok and seg_ok and comp_ok
    _report(
        6, ok,
        f"excess {ex5:.3e} -> {ex80:.3e}; segregation {segs[0]:.3e} -> {segs[-1]:.3e} "
        f"(slack-monotone {seg_ok}); complementarity {by_gamma[5.0].comp_integral:.3e} -> "
        f"{by_gamma[80.0].comp_integral:.3e}",
    )


def test_07_cauchy_proxy(sweep):
    rep, _ = sweep
    d = rep.distances  # pairs (5,10), (10,20), (20,40), (40,80)
    ok = all(b < a for a, b in zip(d, d[1:]))
    _report(7, ok, "pairwise v-distances " + " > ".join(f"{x:.3e}" for x in d))


def _check_eps_consistency(entries, where):
    assert all(e.run.ok for e in entries), [e.run.failure_text for e in entries]
    dists = [e.distance for e in entries]
    activations = [e.run.total_cutoff_activations for e in entries]
    barrier_ok = all(e.min_density >= e.barrier - 1e-12 for e in entries)
    ok = (
        all(b < a for a, b in zip(dists, dists[1:]))
        and all(a == 0 for a in activations)
        and barrier_ok
    )
    _report(
        8, ok,
        f"{where}viscosity distances " + " > ".join(f"{x:.3e}" for x in dists)
        + f", cutoff activations {activations}, barrier respected {barrier_ok}",
    )


def test_08_eps_consistency(eps_report):
    _check_eps_consistency(eps_report, "")


def test_08_eps_consistency_2d(eps_report_2d):
    _check_eps_consistency(eps_report_2d, "32x32 2D: ")


def test_09_porous_medium_monotonicity(barenblatt_run):
    res, states = barenblatt_run
    assert res.ok, res.failure or res.violations
    gap = aronson_benilan_gap(states)
    h = states[0].grid.h[0]
    dt_med = float(np.median(np.diff([s.t for s in states])))
    tol = -10.0 * (h * h + dt_med)
    ok = gap >= tol
    _report(
        9, ok,
        f"monotonicity gap {gap:.3e} >= {tol:.3e} over {len(states)} accepted states",
    )


GROWTH_2D_TEXT = """
grid.dim = 2
grid.cells_x = 32
grid.cells_y = 32
model.gamma = 3
initial.profile = bump
initial.n0 = 0.1
initial.height = 0.8
initial.width = 0.4
initial.c0 = 0.2
time.T_final = 0.25
time.snapshot_stride = 5
"""


def _rerun_payloads(text, tmp_path_factory):
    """Timeseries and final-snapshot bytes of two identical runs of one config."""
    cfg = parse_config(text)
    payloads = []
    for name in ("a", "b"):
        out = tmp_path_factory.mktemp(name)
        res = run(set_up(cfg))
        assert res.ok
        ts = out / "timeseries.csv"
        snap = out / "final.csv"
        write_timeseries(str(ts), res.ledger, res.cfg_hash)
        write_snapshot(str(snap), res.final_state, res.cfg_hash)
        payloads.append((ts.read_bytes(), snap.read_bytes()))
    return payloads


def test_10a_byte_identical_reruns(tmp_path_factory):
    payloads = _rerun_payloads(EPS_TEXT, tmp_path_factory)
    ok = payloads[0] == payloads[1]
    _report(10, ok, "repeated identical runs produce byte-identical CSV outputs")


def test_10a_byte_identical_reruns_2d(tmp_path_factory):
    payloads = _rerun_payloads(GROWTH_2D_TEXT, tmp_path_factory)
    ok = payloads[0] == payloads[1]
    _report(10, ok, "repeated identical 32x32 2D runs produce byte-identical CSV outputs")


# --- criterion 10b: independent brute-force re-implementation ----------------
#
# Plain-python fixed-point iteration of the same discrete equations:
# backward-Euler density update (flux potential form), explicit upwind
# fraction transport, dense-solve semi-implicit nutrient step.


def _brute_lap_neumann(values, h):
    n = len(values)
    out = [0.0] * n
    for i in range(n):
        left = (values[i - 1] - values[i]) / h / h if i > 0 else 0.0
        right = (values[i + 1] - values[i]) / h / h if i < n - 1 else 0.0
        out[i] = left + right
    return out


def _brute_density(n_old, r_lin, gamma, dt, h, iters=500):
    kappa = gamma / (gamma + 1.0)
    m = list(n_old)
    for _ in range(iters):
        pot = [kappa * max(v, 0.0) ** (gamma + 1.0) for v in m]
        lap = _brute_lap_neumann(pot, h)
        m_next = [n_old[i] + dt * (lap[i] + r_lin[i] * m[i]) for i in range(len(m))]
        if max(abs(a - b) for a, b in zip(m, m_next)) < 1e-15:
            m = m_next
            break
        m = m_next
    pot = [kappa * max(v, 0.0) ** (gamma + 1.0) for v in m]
    lap = _brute_lap_neumann(pot, h)
    return [max(n_old[i] + dt * (lap[i] + r_lin[i] * m[i]), 0.0) for i in range(len(m))]


def _brute_fraction(c, n_new, d, dt, h, gamma, rates, D):
    n_cells = len(c)
    p = [max(v, 0.0) ** gamma for v in n_new]
    u = [-(p[i + 1] - p[i]) / h for i in range(n_cells - 1)]
    out = []
    for i in range(n_cells):
        u_left = u[i - 1] if i > 0 else 0.0
        u_right = u[i] if i < n_cells - 1 else 0.0
        adv = 0.0
        if u_left > 0.0:
            adv += u_left * (c[i] - c[i - 1]) / h
        if u_right < 0.0:
            adv += u_right * (c[i + 1] - c[i]) / h
        _, k1, k2, _ = rates(d[i])
        reaction = k1 * (1.0 - c[i]) - k2 * c[i] - D * c[i] * (1.0 - c[i])
        out.append(c[i] + dt * (-adv + reaction))
    return out


def _brute_nutrient(d_old, n_new, c_new, dt, h, rates, a_rate, b_const, d_b, ceiling):
    n_cells = len(d_old)
    big = np.zeros((n_cells, n_cells))
    rhs = np.zeros(n_cells)
    for i in range(n_cells):
        big[i, i] = b_const / dt + (2.0 if 0 < i < n_cells - 1 else 3.0) / h**2
        if i > 0:
            big[i, i - 1] = -1.0 / h**2
        if i < n_cells - 1:
            big[i, i + 1] = -1.0 / h**2
        _, _, _, psi = rates(d_old[i])
        rhs[i] = b_const / dt * d_old[i] - psi * n_new[i] + a_rate * c_new[i] * n_new[i]
    rhs[0] += 2.0 * d_b / h**2
    rhs[-1] += 2.0 * d_b / h**2
    sol = np.linalg.solve(big, rhs)
    return [min(max(float(v), 0.0), ceiling) for v in sol]


def test_10b_brute_force_oracle():
    gamma = 3.0
    dt = 0.002
    grid = Grid(dim=1, extents=(1.0,), cells=(4,))
    h = grid.h[0]
    rates = RateFunctions(
        G=RateFunction("linear", alpha=1.0),
        K1=RateFunction("linear", alpha=0.5),
        K2=RateFunction("constant", alpha=0.5),
        psi=RateFunction("linear", alpha=1.0),
    )
    params = ModelParams(rates=rates, D=1.0, a=1.0, b=1.0, gamma=gamma, d_b=1.0,
                         T_final=1.0)
    n0 = [0.8, 1.0, 0.6, 0.4]
    c0 = [0.2, 0.3, 0.1, 0.0]
    d0 = [1.0, 0.9, 0.8, 1.0]
    consts = derive_constants(params, np.array(d0))
    params = replace(params, consts=consts)
    settings = SolverSettings(newton_tol=1e-13)

    state = State(
        t=0.0,
        grid=grid,
        n=np.array(n0),
        c=np.array(c0),
        d=np.array(d0),
        params=params,
    )
    for _ in range(3):
        state, report = step(state, settings, dt)
        assert report.retries == 0 and report.dt_used == dt

    def rate_eval(dv):
        return (
            1.0 * dv,          # G linear
            0.5 * dv,          # K1 linear
            0.5,               # K2 constant
            1.0 * dv,          # psi linear
        )

    bn, bc, bd = list(n0), list(c0), list(d0)
    for _ in range(3):
        g_of_d = [rate_eval(v)[0] for v in bd]
        r_lin = [g_of_d[i] - params.D * bc[i] for i in range(4)]
        n_new = _brute_density(bn, r_lin, gamma, dt, h)
        c_new = _brute_fraction(bc, n_new, bd, dt, h, gamma, rate_eval, params.D)
        d_new = _brute_nutrient(bd, n_new, c_new, dt, h, rate_eval, params.a,
                                params.b, params.d_b, consts.L)
        bn, bc, bd = n_new, c_new, d_new

    diff = max(
        float(np.max(np.abs(state.n - np.array(bn)))),
        float(np.max(np.abs(state.c - np.array(bc)))),
        float(np.max(np.abs(state.d - np.array(bd)))),
    )
    ok = diff <= 1e-8
    _report(10, ok, f"4-cell/3-step brute-force max-norm difference {diff:.3e} (tol 1e-8)")


# --- criterion 11: the energy estimate holds away from t = 0 -----------------
#
# The time-weighted energy E of criterion 05 stays bounded in gamma because
# the weight t hides the initial layer.  The unweighted energy
# U(tau) = sum of dt_k * integral |grad v^(k+1)|^2 over the steps with
# t_k >= tau is the right-endpoint sum that backward Euler's discrete energy
# identity controls.  For ill-prepared data (max n0 = 1.2 > 1) the layer at
# t = 0 carries v ~ 1.2^(gamma+1), so U(0) grows exponentially in gamma,
# while U(tau) for any fixed tau > 0 stays bounded.

U_GAMMAS = (5.0, 20.0, 80.0, 320.0, 640.0)
ILL_HEIGHT = 1.2        # SWEEP_TEXT's bump
WELL_HEIGHT = 0.9


def _unweighted_energy(cfg, tau):
    """(U(0), U(tau)) of one run, from every accepted state."""
    t_start = None          # start time of the step that reached the state
    total = late = 0.0

    def on_state(state):
        nonlocal t_start, total, late
        if t_start is not None:
            term = (state.t - t_start) * v_integrals(state).grad_v_sq
            total += term
            if t_start >= tau:
                late += term
        t_start = state.t

    res = run(set_up(cfg), on_state=on_state)
    assert res.ok, res.failure_text
    return total, late


@pytest.fixture(scope="module", params=[400, 800])
def unweighted_energy(request):
    """U(0) and U(1e-4 T) along U_GAMMAS per bump height, on ``request.param`` cells."""
    base = parse_config(SWEEP_TEXT).with_overrides(
        grid__cells_x=request.param, initial__lift="gamma"
    )
    tau = 1e-4 * base["time.T_final"]
    out = {}
    for height in (ILL_HEIGHT, WELL_HEIGHT):
        runs = [
            _unweighted_energy(base.with_overrides(model__gamma=g, initial__height=height), tau)
            for g in U_GAMMAS
        ]
        out[height] = tuple(zip(*runs))   # (U(0) per gamma, U(tau) per gamma)
    return request.param, out


def test_11_initial_layer_energy_grows_exponentially(unweighted_energy):
    cells, u = unweighted_energy
    logs = [math.log(x) for x in u[ILL_HEIGHT][0]]
    # from gamma = 20 on the layer outweighs the O(1) energy of the flow
    floor = 0.5 * math.log(ILL_HEIGHT)
    slopes = [(b - a) / (g1 - g0) for a, b, g0, g1 in zip(logs, logs[1:], U_GAMMAS, U_GAMMAS[1:])]
    ok = slopes[0] > 0.0 and all(s >= floor for s in slopes[1:])
    _report(
        11, ok,
        f"{cells} cells, ill-prepared: log U(0) "
        + ", ".join(f"{g:g}: {x:.3g}" for g, x in zip(U_GAMMAS, logs))
        + f"; slopes {['%.3f' % s for s in slopes]} (need >= {floor:.3f} from gamma = 20)",
    )


def test_11_energy_bounded_away_from_zero(unweighted_energy):
    cells, u = unweighted_energy
    late = u[ILL_HEIGHT][1]
    falling = [x for g, x in zip(U_GAMMAS, late) if g >= 80.0]
    ok = max(late) <= late[0] and all(b < a for a, b in zip(falling, falling[1:]))
    _report(
        11, ok,
        f"{cells} cells, ill-prepared: U(1e-4 T) "
        + ", ".join(f"{g:g}: {x:.3e}" for g, x in zip(U_GAMMAS, late))
        + " (bounded by gamma = 5, strictly falling from gamma = 80)",
    )


def test_11_well_prepared_energy_bounded(unweighted_energy):
    cells, u = unweighted_energy
    total = u[WELL_HEIGHT][0]
    ok = max(total) <= total[0]
    _report(
        11, ok,
        f"{cells} cells, well-prepared: U(0) "
        + ", ".join(f"{g:g}: {x:.3e}" for g, x in zip(U_GAMMAS, total))
        + " (bounded by gamma = 5)",
    )
