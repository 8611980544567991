import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tissuesim.config import default_config
from tissuesim.errors import ConfigError
from tissuesim.grid import Grid
from tissuesim.harness import make_params
from tissuesim.model import (
    PRESETS,
    ModelParams,
    RateFunction,
    RateFunctions,
    check_h7,
    cutoff,
    derive_constants,
)


def make_rates(psi_slope=1.0, g_kind="linear", g_alpha=1.0):
    return RateFunctions(
        G=RateFunction(g_kind, alpha=g_alpha),
        K1=RateFunction("linear", alpha=0.5),
        K2=RateFunction("constant", alpha=0.5),
        psi=RateFunction("linear", alpha=psi_slope),
    )


def unit_grid(cells=8):
    return Grid(dim=1, extents=(1.0,), cells=(cells,))


def uniform_field(value, cells=8):
    return np.full(unit_grid(cells).shape, float(value))


class TestEvalRates:
    def test_linear_psi_hits_supply_at_critical_level(self):
        # slope a/d_crit means psi(d_crit) = a by construction
        a, d_crit = 2.0, 0.8
        rates = make_rates(psi_slope=a / d_crit)
        assert rates.psi(d_crit) == pytest.approx(a)
        assert rates.psi.critical_level(a) == pytest.approx(d_crit)

    def test_psi_zero_at_zero_every_preset(self):
        for rf in (RateFunction("linear", 2.0), RateFunction("saturating", 2.0, 0.5)):
            assert rf(0.0) == 0.0

    def test_constant_growth(self):
        rates = make_rates(g_kind="constant", g_alpha=0.25)
        assert rates.G(17.0) == 0.25

    def test_nonfinite_rejected(self):
        # an infinite initial nutrient puts L at inf, where the linear G is inf
        d0 = uniform_field(0.0)
        d0[0] = np.inf
        with pytest.raises(ConfigError, match="rate G is not finite"):
            derive_constants(ModelParams(rates=make_rates()), d0)

    def test_vectorized(self):
        rates = make_rates()
        d = np.array([0.0, 0.5, 1.0])
        assert np.allclose(rates.G(d), [0.0, 0.5, 1.0])
        assert np.allclose(rates.K2(d), 0.5)

    def test_saturating_critical_level(self):
        psi = RateFunction("saturating", alpha=3.0, beta=2.0)
        d = psi.critical_level(1.0)  # 3 d / (2 + d) = 1 -> d = 1
        assert d == pytest.approx(1.0)
        assert math.isnan(RateFunction("saturating", alpha=0.5).critical_level(1.0))


class TestDeriveConstants:
    def test_ceiling_is_max_of_three(self):
        # d_b = 0.5, max d0 = 0.3, d_crit = 1.0 -> L = 1.0
        params = ModelParams(rates=make_rates(psi_slope=1.0), a=1.0, d_b=0.5)
        consts = derive_constants(params, uniform_field(0.3))
        assert consts.d_crit == pytest.approx(1.0)
        assert consts.L == pytest.approx(1.0)

    def test_monotone_growth_max_at_endpoint(self):
        params = ModelParams(rates=make_rates(g_alpha=2.0), d_b=1.0)
        consts = derive_constants(params, uniform_field(0.0))
        assert consts.L == pytest.approx(1.0)
        assert consts.G0 == pytest.approx(2.0)

    def test_m0_with_constant_growth(self):
        # G = 1, D = 3 -> M0 = max(1, |1 - 3|) = 2
        params = ModelParams(rates=make_rates(g_kind="constant", g_alpha=1.0), D=3.0)
        consts = derive_constants(params, uniform_field(0.0))
        assert consts.M0 == pytest.approx(2.0)

    def test_monotone_in_boundary_value(self):
        lo = derive_constants(ModelParams(rates=make_rates(), d_b=0.5), uniform_field(0.0))
        hi = derive_constants(ModelParams(rates=make_rates(), d_b=2.5), uniform_field(0.0))
        assert hi.L >= lo.L

    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    @settings(max_examples=50)
    def test_ceiling_monotone_in_boundary_value_property(self, db1, db2):
        lo, hi = sorted((db1, db2))
        d0 = uniform_field(0.3)
        c_lo = derive_constants(ModelParams(rates=make_rates(), d_b=lo), d0)
        c_hi = derive_constants(ModelParams(rates=make_rates(), d_b=hi), d0)
        assert c_hi.L >= c_lo.L

    def test_no_critical_level_is_config_error(self):
        rates = RateFunctions(
            G=RateFunction("linear"),
            K1=RateFunction("linear", 0.5),
            K2=RateFunction("constant", 0.5),
            psi=RateFunction("saturating", alpha=0.5),  # sup 0.5 < a = 1
        )
        with pytest.raises(ConfigError):
            derive_constants(ModelParams(rates=rates, a=1.0), uniform_field(0.0))

    @pytest.mark.parametrize("psi", [
        RateFunction("linear", alpha=1e-10),                     # a / alpha = 1e310
        RateFunction("saturating", alpha=2e300, beta=1e10),      # a beta = 1e310
    ], ids=["linear", "saturating"])
    def test_overflowing_critical_level_named(self, psi):
        rates = RateFunctions(G=RateFunction("linear"), K1=RateFunction("linear", 0.5),
                              K2=RateFunction("constant", 0.5), psi=psi)
        with pytest.raises(ConfigError, match="supply rate a = 1e\\+300, overflows"):
            derive_constants(ModelParams(rates=rates, a=1e300), uniform_field(0.0))

    @pytest.mark.parametrize("name", ["G", "K1", "K2", "psi"])
    def test_overflowing_rate_named(self, name):
        # d_b = 10 puts L at 10, where alpha = 1e308 times d overflows
        table = dict(G=RateFunction("linear"), K1=RateFunction("linear", 0.5),
                     K2=RateFunction("constant", 0.5), psi=RateFunction("linear"))
        table[name] = RateFunction("linear", alpha=1e308)
        params = ModelParams(rates=RateFunctions(**table), d_b=10.0)
        with pytest.raises(ConfigError, match=f"rate {name} is not finite"):
            derive_constants(params, uniform_field(0.0))

    def test_overflowing_net_rate_named(self):
        # G and D are finite, but G - D = -1e308 - 1e308 overflows, and so would M0
        params = ModelParams(rates=make_rates(g_kind="constant", g_alpha=-1e308), D=1e308)
        with pytest.raises(ConfigError, match="rate G - D is not finite"):
            derive_constants(params, uniform_field(0.0))

    @pytest.mark.parametrize("kind", PRESETS)
    @pytest.mark.parametrize("alpha, beta, d_b", [
        (1.0, 1.0, 1.0), (-2.5, 0.3, 4.0), (7.0, 1e-3, 0.2), (0.25, 50.0, 12.0),
    ])
    def test_endpoint_maxima_equal_dense_sampling(self, kind, alpha, beta, d_b):
        # every preset is monotone, so the maxima over 10 000 samples of
        # [0, L] equal the maxima over its endpoints, bit for bit
        rate = RateFunction(kind, alpha=alpha, beta=beta)
        rates = RateFunctions(G=rate, K1=RateFunction(kind, abs(alpha), beta),
                              K2=RateFunction(kind, abs(alpha), beta),
                              psi=RateFunction("saturating", alpha=3.0, beta=beta))
        params = ModelParams(rates=rates, D=1.5, d_b=d_b)
        consts = derive_constants(params, uniform_field(0.3))
        s = np.linspace(0.0, consts.L, 10_000)
        g = np.asarray(rates.G(s), dtype=float)
        assert consts.G0 == g.max()
        assert consts.M0 == max(np.abs(g).max(), np.abs(g - params.D).max())
        assert consts.K1_max == np.asarray(rates.K1(s), dtype=float).max()
        assert consts.K2_max == np.asarray(rates.K2(s), dtype=float).max()


class TestModelParamsValidation:
    # ModelParams has no validator of its own: the config schema is the only
    # check, so these go through the path a run takes, config -> make_params
    def test_gamma_below_one_rejected(self):
        with pytest.raises(ConfigError) as err:
            make_params(default_config().with_overrides(model__gamma=0.5))
        assert any("gamma" in e for e in err.value.errors)

    def test_defaults_valid(self):
        params = make_params(default_config())
        assert params.gamma >= 1.0 and params.D > 0.0
        consts = derive_constants(params, uniform_field(0.5))
        assert all(math.isfinite(v) for v in (consts.G0, consts.M0, consts.K1_max, consts.K2_max))


class TestCutoff:
    def test_clamp_above(self):
        assert cutoff(3.0, 2.0) == 2.0

    def test_clamp_below(self):
        assert cutoff(-1.0, 2.0) == 0.0

    def test_identity_band(self):
        assert cutoff(1.5, 2.0) == 1.5

    def test_requires_positive_level(self):
        with pytest.raises(ValueError):
            cutoff(1.0, 0.0)

    @given(st.floats(-1e6, 1e6), st.floats(1e-6, 1e6))
    @settings(max_examples=200)
    def test_idempotent(self, s, ell):
        once = cutoff(s, ell)
        assert cutoff(once, ell) == once

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(1e-6, 1e6))
    @settings(max_examples=200)
    def test_monotone(self, s1, s2, ell):
        lo, hi = min(s1, s2), max(s1, s2)
        assert cutoff(lo, ell) <= cutoff(hi, ell)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(1e-6, 1e6))
    @settings(max_examples=200)
    def test_lipschitz_one(self, s1, s2, ell):
        assert abs(cutoff(s1, ell) - cutoff(s2, ell)) <= abs(s1 - s2) * (1 + 1e-12)


class TestH7:
    def test_whole_domain_violation(self):
        # n0 = 2 everywhere: superlevel set is all of Omega, allowed is smaller
        n0 = uniform_field(2.0)
        ok, ratio = check_h7(unit_grid(), n0, sigma=0.5, G0=0.0, T=1.0)
        assert not ok
        assert ratio > 1.0

    def test_zero_data_passes_with_zero_measure(self):
        ok, ratio = check_h7(unit_grid(), uniform_field(0.0), sigma=0.5, G0=1.0, T=0.1)
        assert ok
        assert ratio == 0.0

    def test_left_tenth_arithmetic_oracle(self):
        # n0 = 0.9 on the left 10% of the unit interval, G0*T = 0.5, sigma = 0.5.
        # Independent oracle: measured = 0.1, allowed = 1/(e^0.5 * 0.9) = 0.67420...,
        # ratio = 0.1 * e^0.5 * 0.9 = 0.148336...; passes.
        n0 = np.zeros(100)
        n0[:10] = 0.9
        ok, ratio = check_h7(unit_grid(100), n0, sigma=0.5, G0=0.5, T=1.0)
        oracle_ratio = 0.1 * math.exp(0.5) * 0.9
        assert ok
        assert ratio == pytest.approx(oracle_ratio, rel=1e-12)

    def test_sigma_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            check_h7(unit_grid(), uniform_field(0.1), sigma=1.5, G0=1.0, T=1.0)
        with pytest.raises(ValueError):
            check_h7(unit_grid(), uniform_field(0.1), sigma=0.0, G0=1.0, T=1.0)
