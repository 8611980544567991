import copy
import hashlib
import math
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tissuesim.config import (
    _SCHEMA,
    config_hash,
    default_config,
    parse_config,
    serialize_config,
)
from tissuesim.errors import ConfigError


class TestParse:
    def test_empty_text_gives_defaults(self):
        cfg = default_config()
        assert cfg["model.gamma"] == 5.0
        assert cfg["model.D"] == 1.0
        assert cfg["time.newton_tol"] == 1e-10
        assert cfg["time.safety"] == 0.5
        assert cfg["grid.dim"] == 1

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nmodel.gamma = 7 # trailing\n")
        assert cfg["model.gamma"] == 7.0

    def test_gamma_constraint_cited(self):
        with pytest.raises(ConfigError) as err:
            parse_config("model.gamma = 0.5\n")
        assert any("gamma must be >= 1" in e for e in err.value.errors)

    def test_unknown_key_suggests_closest(self):
        with pytest.raises(ConfigError) as err:
            parse_config("model.gama = 2\n")
        msg = "\n".join(err.value.errors)
        assert "unknown key" in msg
        assert "model.gamma" in msg

    def test_all_errors_collected_with_line_numbers(self):
        text = "model.gamma = 0.5\nbogus.key = 1\ngrid.cells_x = 2\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        errors = err.value.errors
        assert len(errors) == 3
        assert errors[0].startswith("line 1")
        assert errors[1].startswith("line 2")
        assert errors[2].startswith("line 3")

    def test_type_mismatch_reported(self):
        with pytest.raises(ConfigError) as err:
            parse_config("grid.cells_x = many\n")
        assert any("expected int" in e for e in err.value.errors)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("model.gamma = 2\nmodel.gamma = 3\n")
        assert any("duplicate" in e for e in err.value.errors)

    def test_missing_equals_reported(self):
        with pytest.raises(ConfigError) as err:
            parse_config("model.gamma 2\n")
        assert any("expected" in e for e in err.value.errors)

    def test_saturating_psi_below_supply_rejected(self):
        text = "model.psi_preset = saturating\nmodel.psi_alpha = 0.5\nmodel.a = 1.0\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("psi_alpha" in e for e in err.value.errors)

    def test_negative_transition_rate_reported_once(self):
        # the schema rejects the value, so the table keeps the default and
        # no cross-key check sees it
        for preset in ("constant", "linear"):
            with pytest.raises(ConfigError) as err:
                parse_config(f"model.K1_preset = {preset}\nmodel.K1_alpha = -1\n")
            assert err.value.errors == [
                "line 2: model.K1_alpha: transition rates must be >= 0"
            ]
        with pytest.raises(ConfigError) as err:
            default_config().with_overrides(model__K1_preset="linear", model__K1_alpha=-1)
        assert err.value.errors == ["model.K1_alpha: transition rates must be >= 0"]

    def test_nonpositive_death_rate_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("model.D = 0\n")
        assert err.value.errors == ["line 1: model.D: death rate D must be positive"]

    @pytest.mark.parametrize(
        "name", [k.name for k in _SCHEMA if k.type in ("float", "float_list")]
    )
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_number_rejected_with_key_and_line(self, name, value):
        with pytest.raises(ConfigError) as err:
            parse_config(f"# comment\n{name} = {value}\n")
        assert err.value.errors == [f"line 2: {name}: must be a finite number, got '{value}'"]

    def test_overflowing_and_listed_non_finite_numbers_rejected(self):
        text = "model.gamma = 1e400\nsweep.gammas = 5, nan, 20\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.errors == [
            "line 1: model.gamma: must be a finite number, got '1e400'",
            "line 2: sweep.gammas: must be a finite number, got '5, nan, 20'",
        ]
        with pytest.raises(ConfigError) as err:
            default_config().with_overrides(model__gamma=math.inf)
        assert err.value.errors == ["model.gamma: must be a finite number, got 'inf'"]

    def test_tau_must_be_inside_horizon(self):
        # sweep.tau = 0 means 0.1 T_final; any other tau must lie below T_final
        rule = "sweep.tau: must lie in (0, T_final) = (0, 0.2), got {}"
        for tau in (0.5, 0.2):
            with pytest.raises(ConfigError) as err:
                parse_config(f"time.T_final = 0.2\nsweep.tau = {tau}\n")
            assert err.value.errors == [rule.format(tau)]
            with pytest.raises(ConfigError) as err:
                parse_config("time.T_final = 0.2\n").with_overrides(sweep__tau=tau)
            assert err.value.errors == [rule.format(tau)]
        for tau in (0.0, 0.19):
            assert parse_config(f"time.T_final = 0.2\nsweep.tau = {tau}\n")["sweep.tau"] == tau

    @pytest.mark.parametrize("given, expected", [
        # the failed T_final silences the tau rule, which would cite the default T_final
        ({"time.T_final": "-1", "sweep.tau": "2"}, ["{}time.T_final: must be >= 0"]),
        # the failed a silences the psi rule, which would cite the default a
        ({"model.a": "abc", "model.psi_preset": "saturating", "model.psi_alpha": "0.5"},
         ["{}model.a: expected float, got 'abc'"]),
        # a misspelled key reads no rule, so the tau rule still runs
        ({"time.T_fianl": "3", "time.T_final": "0.5", "sweep.tau": "2"},
         ["{}unknown key 'time.T_fianl' (did you mean 'time.T_final'?)",
          "sweep.tau: must lie in (0, T_final) = (0, 0.5), got 2.0"]),
        # a key that failed silences no rule that does not read it
        ({"model.gamma": "0.5", "model.eps_reg": "0", "initial.lift": "eps"},
         ["{}model.gamma: pressure exponent gamma must be >= 1",
          "initial.lift: eps lift needs model.eps_reg > 0"]),
    ])
    def test_failed_key_silences_only_the_rules_that_read_it(self, given, expected):
        text = "".join(f"{name} = {value}\n" for name, value in given.items())
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.errors == [e.format("line 1: ") for e in expected]
        with pytest.raises(ConfigError) as err:
            default_config().with_overrides(**given)
        assert err.value.errors == [e.format("") for e in expected]

    def test_list_values(self):
        cfg = parse_config("sweep.gammas = 5, 10, 20\nbench.grids = 50,100\n")
        assert cfg["sweep.gammas"] == (5.0, 10.0, 20.0)
        assert cfg["bench.grids"] == (50, 100)


class TestRoundTrip:
    def test_default_round_trip(self):
        cfg = default_config()
        assert parse_config(serialize_config(cfg)) == cfg

    @given(
        gamma=st.floats(1.0, 200.0, allow_nan=False),
        cells=st.integers(3, 999),
        tol=st.floats(1e-14, 1e-2, allow_nan=False),
        safety=st.floats(0.01, 1.0, allow_nan=False),
        d_b=st.floats(0.0, 10.0, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_round_trip_random_valid(self, gamma, cells, tol, safety, d_b):
        text = (
            f"model.gamma = {gamma!r}\n"
            f"grid.cells_x = {cells}\n"
            f"time.newton_tol = {tol!r}\n"
            f"time.safety = {safety!r}\n"
            f"model.d_b = {d_b!r}\n"
        )
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    @pytest.mark.parametrize(
        "name", ["default", "growth_1d", "sweep", "eps_study", "barenblatt"]
    )
    def test_hash_is_hashlib_sha256_prefix(self, name):
        # the built-in SHA-256 gives every output file the digest hashlib would
        configs = Path(__file__).resolve().parents[1] / "configs"
        text = "" if name == "default" else (configs / f"{name}.cfg").read_text()
        cfg = parse_config(text)
        reference = hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()[:12]
        assert config_hash(cfg) == reference

    def test_hash_differs_on_changed_key(self):
        a = default_config()
        b = a.with_overrides(model__gamma=6.0)
        assert config_hash(a) != config_hash(b)

    def test_overrides_validate(self):
        with pytest.raises(ConfigError):
            default_config().with_overrides(model__gamma=0.25)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda cfg: pickle.loads(pickle.dumps(cfg))])
    def test_copies_keep_values_lookups_and_hash(self, clone):
        cfg = default_config().with_overrides(model__gamma=6.0)
        twin = clone(cfg)
        assert twin == cfg and hash(twin) == hash(cfg)
        assert twin["model.gamma"] == 6.0 and config_hash(twin) == config_hash(cfg)
