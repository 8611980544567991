"""Run configuration: parsing, validation, serialization, hashing.

The config grammar is line based::

    # comment
    section.key = value

Every key is validated against the schema below; unknown keys are hard
errors (with a closest-match suggestion), and all problems are reported
together with their line numbers rather than stopping at the first one.

``parse_config(serialize_config(cfg))`` is the identity on valid configs;
the canonical serialization is also what gets hashed into the config hash
stamped on every output file.
"""

from __future__ import annotations

import difflib
import hashlib
from dataclasses import dataclass

from .errors import ConfigError
from .model import PRESETS

_PROFILES = ("uniform", "step", "bump", "barenblatt")
_LIFTS = ("none", "gamma", "eps")
_INJECTS = ("none", "d_ceiling", "c_bounds")


def _positive(x):
    return x > 0


def _nonnegative(x):
    return x >= 0


@dataclass(frozen=True)
class _Key:
    name: str
    type: str                  # int | float | str | float_list | int_list
    default: object
    check: object = None       # predicate on the parsed value
    check_msg: str = ""
    choices: tuple = ()


_SCHEMA: list[_Key] = [
    _Key("grid.dim", "int", 1, lambda v: v in (1, 2), "must be 1 or 2"),
    _Key("grid.extent_x", "float", 1.0, _positive, "must be positive"),
    _Key("grid.extent_y", "float", 1.0, _positive, "must be positive"),
    _Key("grid.cells_x", "int", 64, lambda v: v >= 3, "needs at least 3 cells"),
    _Key("grid.cells_y", "int", 8, lambda v: v >= 3, "needs at least 3 cells"),

    _Key("model.gamma", "float", 5.0, lambda v: v >= 1.0,
         "pressure exponent gamma must be >= 1"),
    _Key("model.D", "float", 1.0, _positive, "death rate D must be positive"),
    _Key("model.a", "float", 1.0, _positive, "supply rate a must be positive"),
    _Key("model.b", "float", 1.0, _positive, "time constant b must be positive"),
    _Key("model.eps_reg", "float", 0.0, _nonnegative, "must be >= 0"),
    _Key("model.ell_cut", "float", 0.0, _nonnegative, "must be >= 0 (0 = auto)"),
    _Key("model.d_b", "float", 1.0, _nonnegative, "boundary nutrient must be >= 0"),
    _Key("model.sigma", "float", 0.0, _nonnegative, "must be >= 0 (0 = auto)"),

    _Key("model.G_preset", "str", "linear", choices=PRESETS),
    _Key("model.G_alpha", "float", 1.0),
    _Key("model.G_beta", "float", 1.0, _positive, "must be positive"),
    _Key("model.K1_preset", "str", "linear", choices=PRESETS),
    _Key("model.K1_alpha", "float", 0.5, _nonnegative, "transition rates must be >= 0"),
    _Key("model.K1_beta", "float", 1.0, _positive, "must be positive"),
    _Key("model.K2_preset", "str", "constant", choices=PRESETS),
    _Key("model.K2_alpha", "float", 0.5, _nonnegative, "transition rates must be >= 0"),
    _Key("model.K2_beta", "float", 1.0, _positive, "must be positive"),
    _Key("model.psi_preset", "str", "linear", choices=("linear", "saturating")),
    _Key("model.psi_alpha", "float", 1.0, _positive, "consumption slope must be positive"),
    _Key("model.psi_beta", "float", 1.0, _positive, "must be positive"),

    _Key("initial.profile", "str", "uniform", choices=_PROFILES),
    _Key("initial.n0", "float", 0.5, _nonnegative, "must be >= 0"),
    _Key("initial.c0", "float", 0.0, lambda v: 0.0 <= v <= 1.0, "fraction must be in [0, 1]"),
    _Key("initial.d0", "float", 1.0, _nonnegative, "must be >= 0"),
    _Key("initial.height", "float", 1.0, _nonnegative, "must be >= 0"),
    _Key("initial.center", "float", 0.5),
    _Key("initial.center_y", "float", 0.5),
    _Key("initial.width", "float", 0.3, _positive, "must be positive"),
    _Key("initial.t0", "float", 0.01, _positive, "profile age must be positive"),
    _Key("initial.bb_const", "float", 0.1, _positive, "must be positive"),
    _Key("initial.lift", "str", "none", choices=_LIFTS),

    _Key("time.T_final", "float", 1.0, _nonnegative, "must be >= 0"),
    _Key("time.safety", "float", 0.5, lambda v: 0.0 < v <= 1.0, "must be in (0, 1]"),
    _Key("time.newton_tol", "float", 1e-10, _positive, "must be positive"),
    _Key("time.linear_tol", "float", 1e-10, _positive, "must be positive"),
    _Key("time.max_iters", "int", 50, lambda v: v >= 1, "must be >= 1"),
    _Key("time.retry_max", "int", 8, _nonnegative, "must be >= 0"),
    _Key("time.snapshot_stride", "int", 10, lambda v: v >= 1, "must be >= 1"),
    _Key("time.dt_max", "float", 0.0, _nonnegative, "must be >= 0 (0 = no cap)"),
    _Key("time.max_steps", "int", 2_000_000, lambda v: v >= 1, "must be >= 1"),

    _Key("output.dir", "str", "out"),
    _Key("output.prefix", "str", "run"),
    _Key("output.formats", "str", "csv", choices=("csv",)),

    _Key("sweep.gammas", "float_list", (5.0, 10.0, 20.0, 40.0, 80.0)),
    _Key("sweep.tau", "float", 0.0, _nonnegative, "must be >= 0 (0 = 0.1*T_final)"),
    _Key("sweep.delta", "float", 0.05, _positive, "must be positive"),
    _Key("sweep.compare_times", "int", 33, lambda v: v >= 2, "must be >= 2"),

    _Key("eps.values", "float_list", (0.1, 0.01, 0.001)),

    _Key("bench.grids", "int_list", (100, 200, 400)),

    _Key("debug.inject", "str", "none", choices=_INJECTS),
]

_BY_NAME = {k.name: k for k in _SCHEMA}


@dataclass(frozen=True)
class RunConfig:
    """A fully validated configuration (every schema key has a value)."""

    values: tuple  # canonical (name, value) pairs in schema order

    def __getitem__(self, name: str):
        return dict(self.values)[name]

    def with_overrides(self, **dotted) -> "RunConfig":
        """Return a copy with the given keys replaced.

        Write a dotted key with ``__`` for the dot (``model__gamma=7``) or
        unpack a dict (``**{"model.gamma": 7}``).
        """
        updates = {}
        for k, v in dotted.items():
            updates[k.replace("__", ".")] = v
        table = dict(self.values)
        errors = []
        for name, raw in updates.items():
            if name not in _BY_NAME:
                errors.append(f"unknown key '{name}'")
                continue
            key = _BY_NAME[name]
            val, err = _coerce(key, raw if isinstance(raw, str) else _render(key, raw))
            if err:
                errors.append(f"{name}: {err}")
            else:
                table[name] = val
        if errors:
            raise ConfigError(errors)
        cfg = RunConfig(values=tuple((k.name, table[k.name]) for k in _SCHEMA))
        problems = _cross_validate(cfg)
        if problems:
            raise ConfigError(problems)
        return cfg


def _coerce(key: _Key, text: str):
    """Parse one raw value per the key's declared type; returns (value, error)."""
    text = text.strip()
    try:
        if key.type == "int":
            val = int(text)
        elif key.type == "float":
            val = float(text)
        elif key.type == "str":
            val = text
        elif key.type == "float_list":
            val = tuple(float(p) for p in text.split(",") if p.strip() != "")
        elif key.type == "int_list":
            val = tuple(int(p) for p in text.split(",") if p.strip() != "")
        else:  # pragma: no cover - schema bug
            raise AssertionError(key.type)
    except ValueError:
        return None, f"expected {key.type}, got '{text}'"
    if key.choices and val not in key.choices:
        return None, f"must be one of {', '.join(map(str, key.choices))}; got '{val}'"
    if key.check is not None and not key.check(val):
        return None, key.check_msg or "invalid value"
    return val, None


def _render(key: _Key, value) -> str:
    if key.type in ("float_list", "int_list"):
        return ",".join(repr(v) if key.type == "float_list" else str(v) for v in value)
    if key.type == "float":
        return repr(float(value))
    return str(value)


def _cross_validate(cfg: RunConfig) -> list[str]:
    """Checks spanning several keys (rate-table consistency mostly)."""
    problems = []
    a = cfg["model.a"]
    psi_preset = cfg["model.psi_preset"]
    psi_alpha = cfg["model.psi_alpha"]
    if psi_preset == "saturating" and psi_alpha <= a:
        problems.append(
            "model.psi_alpha: a saturating consumption rate never reaches the supply "
            f"rate a = {a!r} unless psi_alpha > a; no critical concentration exists"
        )
    if cfg["initial.profile"] == "barenblatt" and cfg["initial.c0"] != 0.0:
        problems.append("initial.c0: the self-similar benchmark profile requires c0 = 0")
    if cfg["model.eps_reg"] == 0.0 and cfg["initial.lift"] == "eps":
        problems.append("initial.lift: eps lift needs model.eps_reg > 0")
    return problems


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config; raises ConfigError with every problem."""
    table = {k.name: k.default for k in _SCHEMA}
    errors = []
    seen = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'section.key = value', got '{line}'")
            continue
        name, _, raw_value = line.partition("=")
        name = name.strip()
        if name not in _BY_NAME:
            hint = difflib.get_close_matches(name, _BY_NAME.keys(), n=1)
            suffix = f" (did you mean '{hint[0]}'?)" if hint else ""
            errors.append(f"line {lineno}: unknown key '{name}'{suffix}")
            continue
        if name in seen:
            errors.append(f"line {lineno}: duplicate key '{name}'")
            continue
        seen.add(name)
        value, err = _coerce(_BY_NAME[name], raw_value)
        if err:
            errors.append(f"line {lineno}: {name}: {err}")
            continue
        table[name] = value
    cfg = RunConfig(values=tuple((k.name, table[k.name]) for k in _SCHEMA))
    errors.extend(_cross_validate(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def default_config() -> RunConfig:
    return parse_config("")


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form: every key in schema order, one per line."""
    lines = []
    section = None
    for key in _SCHEMA:
        sec = key.name.split(".", 1)[0]
        if sec != section:
            if section is not None:
                lines.append("")
            section = sec
        lines.append(f"{key.name} = {_render(key, cfg[key.name])}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    """Short stable digest of the canonical serialization."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()[:12]
