import pytest
from hypothesis import given, settings, strategies as st

from tissuesim.config import (
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

    def test_hash_differs_on_changed_key(self):
        a = default_config()
        b = a.with_overrides(model__gamma=6.0)
        assert config_hash(a) != config_hash(b)

    def test_overrides_validate(self):
        with pytest.raises(ConfigError):
            default_config().with_overrides(model__gamma=0.25)
