import math
from dataclasses import replace

import numpy as np
import pytest

from tissuesim import diagnostics, stepper
from tissuesim.diagnostics import (
    FieldSamples,
    LedgerRow,
    Violation,
    WindowIntegrals,
    aronson_benilan_gap,
    check_all,
    excess_measure,
    free_boundary,
    make_ledger_row,
    space_time_distance,
    v_integrals,
)
from tissuesim.diagnostics import _line_crossings
from tissuesim.grid import Grid, divergence, face_gradient
from tissuesim.model import DerivedConstants, ModelParams, RateFunction, RateFunctions
from tissuesim.stepper import State, StepReport


def make_params(g_alpha=0.0, gamma=5.0):
    return ModelParams(
        rates=RateFunctions(
            G=RateFunction("constant", alpha=g_alpha),
            K1=RateFunction("constant", alpha=0.0),
            K2=RateFunction("constant", alpha=0.0),
            psi=RateFunction("linear", alpha=1.0),
        ),
        gamma=gamma,
        d_b=0.0,
    )


def make_state(n_values, t=0.0, gamma=2.0, c=0.0, d=0.0, extent=1.0, g_alpha=0.0):
    n_values = np.asarray(n_values, dtype=float)
    grid = Grid(dim=1, extents=(extent,), cells=(len(n_values),))
    return State(
        t=t,
        grid=grid,
        n=n_values,
        c=np.full(grid.shape, float(c)),
        d=np.full(grid.shape, float(d)),
        params=make_params(g_alpha, gamma),
    )


def with_consts(state, **bound_data):
    """``state`` under ``CONSTS`` with ``bound_data`` (cap_base, min_floor) set."""
    return replace(state, params=replace(state.params, consts=replace(CONSTS, **bound_data)))


def at_time(state, t):
    return replace(state, t=t)


def window(states, tau, delta=0.05):
    acc = WindowIntegrals(tau, delta)
    for s in states:
        acc.add(s)
    return acc


CONSTS = DerivedConstants(L=1.0, G0=1.0, M0=1.0, d_crit=1.0, K1_max=0.0, K2_max=0.0)


class TestWeightedEnergy:
    def test_zero_density_gives_zero(self):
        s = make_state(np.zeros(8))
        acc = window([at_time(s, t) for t in (0.0, 0.5, 1.0)], 0.25)
        assert acc.energy == 0.0

    def test_static_unit_density_closed_form(self):
        # v = 1, grad v = 0 on the unit domain: integral over [0.5, 1] of t dt = 0.375;
        # tau falls exactly on an accepted time
        s = make_state(np.ones(16))
        acc = window([at_time(s, t) for t in (0.0, 0.25, 0.5, 0.75, 1.0)], 0.5)
        assert acc.energy == pytest.approx(0.375, rel=1e-12)

    def test_window_edge_interpolation(self):
        # tau inside a step: the integrand t*1 is linear, the split step stays exact
        s = make_state(np.ones(16))
        acc = window([at_time(s, t) for t in (0.0, 0.4, 0.8, 1.0)], 0.5)
        assert acc.energy == pytest.approx(0.375, rel=1e-12)

    def test_additive_over_windows(self):
        # [tau1, tau2] + [tau2, T] = [tau1, T] for every integral, with tau1
        # inside a step and tau2 on an accepted time; n changes along the run
        rng = np.random.default_rng(2)
        base = make_state(0.5 + 0.3 * rng.random(12), c=0.3, d=0.4, g_alpha=0.7)
        states = [
            replace(base, t=t, n=base.n * (1.0 + t))
            for t in np.linspace(0, 1, 21)
        ]

        def integrals(tau, upto):
            acc = WindowIntegrals(tau, 0.05)
            for s in states[:upto]:
                acc.add(s)
            return np.array([acc.energy, acc.seg_integral, acc.comp_integral])

        whole = integrals(0.23, 21)
        left = integrals(0.23, 11)       # the state at t = 0.5 ends the window
        right = integrals(0.5, 21)
        assert np.all(whole > 0.0)
        assert whole == pytest.approx(left + right, rel=1e-12)

    def test_too_few_snapshots_rejected(self):
        # no state at or past tau: every window quantity is nan
        s = make_state(np.ones(8))
        acc = window([s], 0.5)
        assert all(math.isnan(x) for x in
                   (acc.energy, acc.seg_integral, acc.comp_integral, acc.excess_max))


class TestWindowIntegrals:
    def test_segregation_of_a_static_state(self):
        # |1 - 0.5| * 0.5^2 = 0.125 at every time, over [0.5, 1]
        s = make_state(np.full(8, 0.5), gamma=1.0)
        acc = window([at_time(s, t) for t in (0.0, 0.3, 0.7, 1.0)], 0.5)
        assert acc.seg_integral == pytest.approx(0.125 * 0.5, rel=1e-12)

    def test_linear_integrand_split_inside_a_step(self):
        # a static state makes the energy integrand linear in t and the
        # segregation integrand constant; the split step keeps both exact
        rng = np.random.default_rng(5)
        s = make_state(0.2 + 0.5 * rng.random(10), gamma=1.5)
        vi = v_integrals(s)
        rate = vi.v_sq + vi.grad_v_sq
        for tau in (0.1, 0.35, 0.6):
            acc = window([at_time(s, t) for t in (0.0, 0.2, 0.5, 0.9)], tau)
            assert acc.energy == pytest.approx(rate * (0.9**2 - tau**2) / 2.0, rel=1e-12)
            assert acc.seg_integral == pytest.approx(vi.segregation * (0.9 - tau), rel=1e-12)

    def test_excess_max_over_states_from_tau(self):
        low = make_state(np.full(10, 1.01))
        high = make_state(np.full(10, 1.2))
        states = [at_time(high, 0.0), at_time(low, 0.4), at_time(low, 0.6), at_time(low, 1.0)]
        assert window(states, 0.5).excess_max == 0.0
        assert window(states, 0.4).excess_max == 0.0
        assert window(states, 0.0).excess_max == pytest.approx(1.0)

    def test_integrands_only_from_tau(self, monkeypatch):
        # the states before the crossing step are never evaluated
        seen = []
        real = diagnostics.v_integrals

        def spy(state):
            seen.append(state.t)
            return real(state)

        monkeypatch.setattr(diagnostics, "v_integrals", spy)
        s = make_state(np.full(8, 0.6))
        window([at_time(s, t) for t in (0.0, 0.1, 0.2, 0.3, 0.4)], 0.25)
        assert sorted(seen) == [0.2, 0.3, 0.4]

    def test_tau_zero_starts_at_the_initial_state(self):
        s = make_state(np.ones(16))
        acc = window([at_time(s, t) for t in (0.0, 0.5, 1.0)], 0.0)
        assert acc.energy == pytest.approx(0.5, rel=1e-12)


class TestFieldSamples:
    @staticmethod
    def states(seed, times, shape=(9,)):
        rng = np.random.default_rng(seed)
        grid = Grid(dim=len(shape), extents=(1.0,) * len(shape), cells=shape)
        return [
            State(t=t, grid=grid, n=0.2 + rng.random(shape), c=rng.random(shape),
                  d=np.zeros(shape), params=make_params(gamma=3.0))
            for t in times
        ]

    @pytest.mark.parametrize("shape", [(9,), (5, 4)])
    def test_accepted_time_is_that_state_bit_for_bit(self, shape):
        states = self.states(0, [0.0, 0.13, 0.4, 0.71, 1.0], shape)
        samples = FieldSamples(np.array([0.0, 0.13, 0.4, 1.0]))
        for s in states:
            samples.add(s)
        for i, k in enumerate((0, 1, 2, 4)):
            assert samples.v[i].tobytes() == states[k].v.tobytes()
            assert samples.c[i].tobytes() == states[k].c.tobytes()

    def test_linear_between_the_states_around_each_time(self):
        states = self.states(1, [0.0, 0.2, 0.6, 1.0])
        samples = FieldSamples(np.array([0.1, 0.5, 0.9]))
        for s in states:
            samples.add(s)
        for i, (t, k) in enumerate(((0.1, 0), (0.5, 1), (0.9, 2))):
            a, b = states[k], states[k + 1]
            w = (t - a.t) / (b.t - a.t)
            assert np.allclose(samples.v[i], (1 - w) * a.v + w * b.v, rtol=1e-14)
            assert np.allclose(samples.c[i], (1 - w) * a.c + w * b.c, rtol=1e-14)

    def test_holds_the_last_state(self):
        states = self.states(2, [0.0, 0.3, 0.5])
        samples = FieldSamples(np.array([0.2, 0.8, 1.0]))
        for s in states:
            samples.add(s)
        assert np.array_equal(samples.v[1], states[-1].v)
        assert np.array_equal(samples.c[2], states[-1].c)

    def test_computes_v_only_around_the_sample_times(self, monkeypatch):
        states = self.states(3, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
        bases = []   # every array raised to a power, kept alive so identity is unambiguous
        real = stepper.positive_power

        def spy(x, e):
            bases.append(x)
            return real(x, e)

        monkeypatch.setattr(stepper, "positive_power", spy)
        samples = FieldSamples(np.array([0.25, 0.28]))
        for s in states:
            samples.add(s)
        assert samples.v.shape == (2, 9)
        assert len(bases) == 2
        assert sorted(s.t for s in states if any(x is s.n for x in bases)) == [0.2, 0.3]


class TestSpaceTimeDistance:
    def test_identical_samples_give_zero(self):
        rng = np.random.default_rng(4)
        a = rng.random((5, 7))
        assert space_time_distance(np.linspace(0.0, 1.0, 5), a, a.copy(), 0.1) == 0.0

    def test_constant_difference_closed_form(self):
        a = np.zeros((3, 4))
        b = np.full((3, 4), 2.0)
        # 4 cells of volume 0.25 with (2 - 0)^2 each, over [0, 0.5]: sqrt(4 * 0.5)
        assert space_time_distance(np.array([0.0, 0.25, 0.5]), a, b, 0.25) == pytest.approx(
            math.sqrt(2.0), rel=1e-14)

    def test_rejects_different_grids(self):
        with pytest.raises(ValueError):
            space_time_distance(np.array([0.0, 1.0]), np.zeros((2, 3)), np.zeros((2, 4)), 1.0)


def reference_make_ledger_row(state, delta, dt_used):
    """``make_ledger_row`` as it was before the v integrals shared one helper:
    each integral computes v, and its face gradient, on its own."""

    grid, params = state.grid, state.params

    def grad_squared_integral(f):
        total = 0.0
        vol = grid.cell_volume
        for g in face_gradient(grid, f):
            total += float(np.sum(g * g)) * vol
        return total

    def cellwise_grad_squared(f):
        out = np.zeros(grid.shape)
        for g, (lo, hi) in zip(face_gradient(grid, f), grid.sides):
            g2 = g ** 2
            out[lo] += 0.5 * g2
            out[hi] += 0.5 * g2
        return out

    def complementarity_residual(state, params):
        v = state.v
        grads = face_gradient(grid, v)
        v_face = tuple(0.5 * (v[lo] + v[hi]) for lo, hi in grid.sides)
        div_term = divergence(grid, tuple(vf * g for vf, g in zip(v_face, grads)))
        grad_sq = cellwise_grad_squared(v)
        g = np.asarray(params.rates.G(state.d), dtype=float)
        reaction = g * state.n - params.D * state.c * state.n
        cellwise = div_term - grad_sq + v * reaction
        return float(np.sum(np.abs(cellwise))) * grid.cell_volume

    def segregation_product(state):
        return float(np.sum(np.abs(1.0 - state.n) * state.v)) * grid.cell_volume

    v = state.v
    v_sq = float(np.sum(v**2)) * grid.cell_volume
    gv_sq = grad_squared_integral(v)
    half_power = np.maximum(state.n, 0.0) ** ((params.gamma + 1.0) / 2.0)
    comp = complementarity_residual(state, params)
    return LedgerRow(
        t=state.t,
        mass=float(np.sum(state.n)) * grid.cell_volume,
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
        newton_iters=0,
        clamped_cells=0,
        cutoff_activations=0,
    )


class TestLedgerRow:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("shape", [(3,), (400,), (6, 5), (17, 11)])
    def test_matches_reference_bitwise(self, seed, shape):
        rng = np.random.default_rng(seed)
        grid = Grid(dim=len(shape), extents=(1.0, 0.8)[:len(shape)], cells=shape)
        # the draws in the order the fields once took them: t, n, c, d, gamma, G
        t = rng.uniform(0.0, 2.0)
        n, c, d = rng.uniform(0.0, 1.3, shape), rng.random(shape), rng.random(shape)
        gamma = float(rng.choice([1.0, 3.0, 40.0]))
        params = make_params(g_alpha=rng.uniform(0.0, 2.0), gamma=gamma)
        state = State(t=t, grid=grid, n=n, c=c, d=d, params=params)
        got = make_ledger_row(state, 0.05, StepReport(dt_used=1e-3))
        want = reference_make_ledger_row(state, 0.05, 1e-3)
        for name in LedgerRow.__dataclass_fields__:
            a, b = getattr(got, name), getattr(want, name)
            assert np.float64(a).tobytes() == np.float64(b).tobytes(), name


class TestComplementarity:
    def test_vanishing_v_means_zero(self):
        # n below 1 with a large exponent: v ~ 0 and every term carries v
        s = make_state(np.full(32, 0.5), gamma=40.0, g_alpha=1.0)
        assert v_integrals(s).comp_resid <= 0.5**41 * 10

    def test_saturated_static_reaction_free_is_zero(self):
        s = make_state(np.ones(32), gamma=5.0, g_alpha=0.0)
        assert v_integrals(s).comp_resid == pytest.approx(0.0, abs=1e-14)

    def test_pure_functions_do_not_mutate(self):
        vals = 0.4 + 0.2 * np.sin(np.linspace(0, 6, 24))
        s = make_state(vals.copy(), gamma=3.0, g_alpha=0.5)
        v_integrals(s)
        assert np.array_equal(s.n, vals)

    def test_identically_zero_v_gives_exact_zero(self):
        # every term carries a factor of v or grad v
        s = make_state(np.zeros(16), gamma=7.0, d=0.4, g_alpha=2.0)
        assert v_integrals(s).comp_resid == 0.0


class TestExcessMeasure:
    def test_below_threshold_zero(self):
        s = make_state(np.full(10, 0.5))
        assert excess_measure(s, 0.1) == 0.0

    def test_uniform_excess_whole_domain(self):
        s = make_state(np.full(10, 1.2))
        assert excess_measure(s, 0.1) == pytest.approx(1.0)

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(3)
        s = make_state(1.0 + 0.2 * rng.random(64))
        deltas = [0.01, 0.05, 0.1, 0.15]
        values = [excess_measure(s, d) for d in deltas]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_delta(self):
        s = make_state(np.ones(8))
        with pytest.raises(ValueError):
            excess_measure(s, 0.0)


class TestSegregation:
    def test_zero_v(self):
        s = make_state(np.zeros(8))
        assert v_integrals(s).segregation == 0.0

    def test_saturated_density(self):
        s = make_state(np.ones(8))
        assert v_integrals(s).segregation == 0.0

    def test_intermediate_positive(self):
        s = make_state(np.full(8, 0.5), gamma=1.0)
        # |1 - 0.5| * 0.5^2 = 0.125
        assert v_integrals(s).segregation == pytest.approx(0.125)


class TestEntropyDissipation:
    # the ledger's entropy_rate column: integral |grad n^((gamma+1)/2)|^2
    def test_static_uniform_zero(self):
        s = make_state(np.full(8, 0.7))
        assert make_ledger_row(s, 0.05, StepReport()).entropy_rate == 0.0

    def test_nonuniform_positive(self):
        s = make_state(0.5 + 0.3 * np.sin(np.linspace(0, 3, 16)))
        assert make_ledger_row(s, 0.05, StepReport()).entropy_rate > 0.0


class TestAronsonBenilan:
    def test_static_gap_is_density_over_gamma_t(self):
        s = make_state(np.full(8, 0.6), gamma=2.0)
        states = [at_time(s, t) for t in (0.0, 0.05, 1.0, 1.05, 1.1)]
        # rate = 0, the binding term is n/(gamma t) at the earlier state of
        # each admitted pair; the pair from t = 0 and the pair from
        # t = 0.05 < 10 * 0.95 are skipped, and the minimum is at the
        # largest admitted t = 1.05
        got = aronson_benilan_gap(states)
        assert got == pytest.approx(0.6 / (2.0 * 1.05))

    def test_reactions_present_rejected(self):
        s = make_state(np.full(8, 0.6), g_alpha=1.0)
        states = [at_time(s, t) for t in (0.0, 1.0, 1.01)]
        with pytest.raises(ValueError):
            aronson_benilan_gap(states)
        # the autophagic species dies at rate D c, so c > 0 at the start is a reaction too
        with_n2 = [at_time(make_state(np.full(8, 0.6), c=0.1), t) for t in (0.0, 1.0, 1.01)]
        with pytest.raises(ValueError):
            aronson_benilan_gap(with_n2)

    def test_early_snapshots_excluded(self):
        s = make_state(np.full(8, 0.6), gamma=2.0)
        states = [at_time(s, t) for t in (0.0, 0.5, 1.0)]
        # the pair from t = 0 and the pair from t = 0.5 < 10 * 0.5 are both
        # excluded, leaving an empty scan
        assert aronson_benilan_gap(states) == math.inf


class TestFreeBoundary:
    def test_zero_v_empty(self):
        s = make_state(np.zeros(16))
        assert len(free_boundary(s, 0.5)) == 0

    def test_tent_profile_crossings(self):
        # v = max(0, 1 - |x|) on [-2, 2]: crossings of 0.5 at x = -0.5 and 0.5
        grid = Grid(dim=1, extents=(4.0,), cells=(400,))
        x = grid.centers(0) - 2.0
        v_target = np.maximum(0.0, 1.0 - np.abs(x))
        n = v_target ** (1.0 / 2.0)  # gamma = 1: v = n^2
        s = State(t=0.0, grid=grid, n=n, c=np.zeros(grid.shape), d=np.zeros(grid.shape),
                  params=make_params(gamma=1.0))
        crossings = free_boundary(s, 0.5) - 2.0
        assert len(crossings) == 2
        assert crossings[0] == pytest.approx(-0.5, abs=1e-9)
        assert crossings[1] == pytest.approx(0.5, abs=1e-9)

    def test_2d_scan(self):
        grid = Grid(dim=2, extents=(1.0, 1.0), cells=(16, 4))
        x = grid.coordinate_fields()[0]
        n = np.where(x < 0.5, 1.0, 0.0)
        s = State(t=0.0, grid=grid, n=n, c=np.zeros(grid.shape),
                  d=np.zeros(grid.shape), params=make_params(gamma=1.0))
        found = free_boundary(s, 0.25)
        rows = [f for f in found if f[0] == 0]
        assert len(rows) == 4  # one crossing per y-line
        for _, _, pos in rows:
            assert pos == pytest.approx(0.5, abs=grid.h[0])

    def test_requires_positive_threshold(self):
        s = make_state(np.ones(8))
        with pytest.raises(ValueError):
            free_boundary(s, 0.0)


def reference_line_crossings(vals, coords, threshold):
    """The per-cell loop that ``_line_crossings`` replaced."""
    s = vals - threshold
    crossings = []
    for i in range(len(vals) - 1):
        if s[i] == 0.0:
            crossings.append(float(coords[i]))
        elif s[i] * s[i + 1] < 0.0:
            w = s[i] / (s[i] - s[i + 1])
            crossings.append(float(coords[i] + w * (coords[i + 1] - coords[i])))
    if len(vals) and s[-1] == 0.0:
        crossings.append(float(coords[-1]))
    return np.array(sorted(crossings))


class TestLineCrossings:
    @staticmethod
    def assert_matches_reference(vals, coords, threshold):
        got = _line_crossings(vals, coords, threshold)
        want = reference_line_crossings(vals, coords, threshold)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_random_profiles(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        coords = np.sort(rng.uniform(-1.0, 1.0, n))
        self.assert_matches_reference(rng.standard_normal(n), coords, 0.3)

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_hits_on_the_threshold(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 60))
        coords = np.cumsum(rng.uniform(0.1, 1.0, n))
        vals = rng.choice([0.25, 0.5, 0.5, 0.75], n)
        vals[-1] = 0.5  # a hit on the last cell
        self.assert_matches_reference(vals, coords, 0.5)

    @pytest.mark.parametrize("threshold", [0.0, 0.5])
    def test_all_zero_input(self, threshold):
        coords = np.linspace(0.0, 1.0, 17)
        self.assert_matches_reference(np.zeros(17), coords, threshold)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_cells(self, n):
        self.assert_matches_reference(np.full(n, 0.5), np.arange(n, dtype=float), 0.5)


class TestCheckAll:
    def test_valid_state_empty(self):
        s = make_state(np.full(8, 0.5), c=0.3, d=0.8)
        assert check_all(with_consts(s)) == []

    def test_nutrient_ceiling_violation_named(self):
        s = make_state(np.full(8, 0.5), c=0.3, d=0.0)
        d = s.d.copy()
        d[3] = CONSTS.L + 1.0
        bad = replace(s, d=d)
        found = check_all(with_consts(bad))
        assert len(found) == 1
        assert "nutrient ceiling" in found[0].invariant
        assert found[0].cell == (3,)

    def test_fraction_violation_named(self):
        s = make_state(np.full(8, 0.5), c=0.0, d=0.5)
        c = s.c.copy()
        c[5] = 1.5
        bad = replace(s, c=c)
        found = check_all(with_consts(bad))
        assert len(found) == 1
        assert "fraction upper" in found[0].invariant

    def test_weak_max_principle_checked_when_cap_given(self):
        s = make_state(np.full(8, 3.0), t=0.0)
        found = check_all(with_consts(s, cap_base=1.0))
        assert any("maximum principle" in v.invariant for v in found)

    def test_weak_max_cap_grows_with_time(self):
        s = make_state(np.full(8, 2.0), t=1.0)  # cap = e^1 * 1.0 = 2.718
        assert check_all(with_consts(s, cap_base=1.0)) == []

    def test_weak_max_cap_that_overflows_checks_nothing(self):
        s = make_state(np.full(8, 2.0), t=800.0)  # cap = e^800 * 1.0 overflows to inf
        assert check_all(with_consts(s, cap_base=1.0)) == []

    @pytest.mark.parametrize("field, invariants", [
        ("n", ("density nonnegativity",)),
        ("c", ("fraction lower bound", "fraction upper bound")),
        ("d", ("nutrient floor", "nutrient ceiling")),
    ])
    def test_nan_violates_every_bound_of_its_field(self, field, invariants):
        s = make_state(np.full(8, 0.5), c=0.3, d=0.8)
        values = getattr(s, field).copy()
        values[2] = math.nan
        found = check_all(with_consts(replace(s, **{field: values})))
        assert tuple(v.invariant for v in found) == invariants
        assert all(v.cell == (2,) and math.isnan(v.magnitude) for v in found)

    def test_lower_barrier(self):
        s = make_state(np.full(8, 1e-6))
        found = check_all(with_consts(s, min_floor=1e-3))
        assert any("barrier" in v.invariant for v in found)

    @staticmethod
    def reference_check(state):
        """Cell-by-cell form of every bound: the full excess array, then its max."""
        n, c, d, consts = state.n, state.c, state.d, state.params.consts
        excesses = [
            ("density nonnegativity", -n),
            ("fraction lower bound", -(c + diagnostics.C_TOL)),
            ("fraction upper bound", c - (1.0 + diagnostics.C_TOL)),
            ("nutrient floor", -(d + diagnostics.D_TOL)),
            ("nutrient ceiling", d - (consts.L + diagnostics.D_TOL)),
        ]
        if consts.cap_base is not None:
            cap = math.exp(consts.G0 * state.t) * consts.cap_base * (1.0 + 1e-6)
            excesses.append(("weak maximum principle", n - cap))
        if consts.min_floor is not None:
            excesses.append(("lower barrier", (consts.min_floor - 1e-12) - n))
        out = []
        for name, excess in excesses:
            if np.max(excess) > 0.0:
                cell = np.unravel_index(int(np.argmax(excess)), excess.shape)
                out.append(Violation(name, tuple(int(i) for i in cell), float(np.max(excess))))
        return out

    def test_matches_cellwise_reference(self):
        # values straddle every bound by a few ulps, with repeated extremes
        for seed in range(40):
            rng = np.random.default_rng(seed)
            shape = (5, 4) if seed % 2 else (12,)
            grid = Grid(dim=len(shape), extents=(1.0,) * len(shape), cells=shape)

            def near(values):
                picks = rng.choice(values, grid.num_cells)
                picks = picks * (1.0 + rng.integers(-3, 4, grid.num_cells) * 2.0**-52)
                return np.where(rng.random(grid.num_cells) < 0.02, -picks, picks).reshape(shape)

            n = near([0.0, 1e-12, 2e-3, 0.9, 2.5, 3.0])
            c = near([0.0, 1e-12, 0.5, 1.0, 1.0 + 1e-12])
            d = near([0.0, 1e-10, 0.5, CONSTS.L, CONSTS.L + 1e-10])
            s = State(t=0.3 * (seed % 3), grid=grid, n=n, c=c, d=d, params=make_params(gamma=2.0))
            for checked in (with_consts(s), with_consts(s, cap_base=1.0, min_floor=2e-3)):
                assert check_all(checked) == self.reference_check(checked)
