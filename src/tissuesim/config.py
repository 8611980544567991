"""Run configuration: parsing, validation, serialization, hashing.

The config grammar is line based::

    # comment
    section.key = value

One builder serves a text and ``RunConfig.with_overrides``: every key is
validated against the schema below, then the cross-key rules run, and all
problems are reported together (from a text, with line numbers; an unknown
key gets a closest-match suggestion).  A cross-key rule runs only when
every key it reads parsed, so it never cites a default for a failed value.
Every number must be finite: ``inf``, ``nan`` and values such as ``1e400``
that overflow are rejected.  The schema is the only check on a run's input;
the model layer relies on it for the structural hypotheses on the rates
(K1, K2 >= 0, psi nondecreasing with psi(0) = 0), and the campaigns for
their lists (``sweep.gammas``, ``eps.values``, ``bench.grids``) and the
sweep's window start (``sweep.tau`` is 0 or below ``time.T_final``); they
keep only the checks that depend on the subcommand or on ``T_final = 0``.

``parse_config(serialize_config(cfg))`` is the identity on valid configs.
The config hash stamped on every output file is the first 12 hex digits of
the SHA-256 of the canonical serialization, from CPython's built-in module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

try:  # CPython's built-in SHA-256, which loads no OpenSSL
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    from _sha256 import sha256  # Python <= 3.11

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

    _Key("sweep.gammas", "float_list", (5.0, 10.0, 20.0, 40.0, 80.0),
         lambda v: len(v) >= 2 and v[0] >= 1.0 and all(a <= b for a, b in zip(v, v[1:])),
         "needs at least 2 values, each >= 1, nondecreasing"),
    _Key("sweep.tau", "float", 0.0, _nonnegative, "must be >= 0 (0 = 0.1*T_final)"),
    _Key("sweep.delta", "float", 0.05, _positive, "must be positive"),
    _Key("sweep.compare_times", "int", 33, lambda v: v >= 2, "must be >= 2"),

    _Key("eps.values", "float_list", (0.1, 0.01, 0.001),
         lambda v: len(v) >= 1 and v[-1] > 0.0 and all(a >= b for a, b in zip(v, v[1:])),
         "needs at least 1 value, each > 0, nonincreasing"),

    _Key("bench.grids", "int_list", (100, 200, 400),
         lambda v: len(v) >= 1 and v[0] >= 3 and all(a < b for a, b in zip(v, v[1:])),
         "needs at least 1 grid, each of at least 3 cells, strictly increasing"),

    _Key("debug.inject", "str", "none", choices=_INJECTS),
]

_BY_NAME = {k.name: k for k in _SCHEMA}
_POSITION = {k.name: i for i, k in enumerate(_SCHEMA)}  # where a RunConfig keeps each key


@dataclass(frozen=True)
class RunConfig:
    """A fully validated configuration (every schema key has a value)."""

    values: tuple  # canonical (name, value) pairs in schema order

    def __getitem__(self, name: str):
        return self.values[_POSITION[name]][1]

    def with_overrides(self, **dotted) -> "RunConfig":
        """Return a copy with the given keys replaced.

        Write a dotted key with ``__`` for the dot (``model__gamma=7``) or
        unpack a dict (``**{"model.gamma": 7}``).
        """
        entries = (("", name.replace("__", "."), raw) for name, raw in dotted.items())
        return _build(dict(self.values), entries, [])


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
    floats = val if key.type == "float_list" else (val,) if key.type == "float" else ()
    if not all(map(math.isfinite, floats)):
        return None, f"must be a finite number, got '{text}'"
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


# (keys read, when the rule fails, its message formatted with their values)
_RULES = (
    (("model.a", "model.psi_preset", "model.psi_alpha"),
     lambda a, psi, alpha: psi == "saturating" and alpha <= a,
     "model.psi_alpha: a saturating consumption rate never reaches the supply rate "
     "a = {0!r} unless psi_alpha > a; no critical concentration exists"),
    (("initial.profile", "initial.c0"), lambda profile, c0: profile == "barenblatt" and c0 != 0.0,
     "initial.c0: the self-similar benchmark profile requires c0 = 0"),
    (("model.eps_reg", "initial.lift"), lambda eps, lift: eps == 0.0 and lift == "eps",
     "initial.lift: eps lift needs model.eps_reg > 0"),
    (("time.T_final", "sweep.tau"),
     lambda T, tau: tau != 0.0 and not tau < T,  # tau = 0 means 0.1 T_final
     "sweep.tau: must lie in (0, T_final) = (0, {0}), got {1}"),
)


def _cross_validate(table: dict, failed: set) -> list[str]:
    """The message of each cross-key rule that fails, of the rules that read no failed key."""
    problems = []
    for names, fails, message in _RULES:
        values = [table[name] for name in names]
        if failed.isdisjoint(names) and fails(*values):
            problems.append(message.format(*values))
    return problems


def _build(table: dict, entries, errors: list[str]) -> RunConfig:
    """``_coerce`` each (label, name, value) of ``entries`` into ``table``, then cross-validate.

    ``entries`` may append its own errors as it goes, so each keeps its
    place.  A failed key silences only the cross-key rules that read it.
    """
    failed, seen = set(), set()
    for label, name, raw in entries:
        key = _BY_NAME.get(name)
        if key is None:
            import difflib  # only a misspelled key pays for it
            hint = difflib.get_close_matches(name, _BY_NAME.keys(), n=1)
            suffix = f" (did you mean '{hint[0]}'?)" if hint else ""
            errors.append(f"{label}unknown key '{name}'{suffix}")
        elif name in seen:
            errors.append(f"{label}duplicate key '{name}'")
        else:
            seen.add(name)
            value, err = _coerce(key, raw if isinstance(raw, str) else _render(key, raw))
            if err:
                errors.append(f"{label}{name}: {err}")
                failed.add(name)
            else:
                table[name] = value
    errors.extend(_cross_validate(table, failed))
    if errors:
        raise ConfigError(errors)
    return RunConfig(values=tuple((k.name, table[k.name]) for k in _SCHEMA))


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config; raises ConfigError with every problem."""
    errors = []

    def entries():
        for lineno, raw_line in enumerate(text.splitlines(), start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                errors.append(f"line {lineno}: expected 'section.key = value', got '{line}'")
                continue
            name, _, raw_value = line.partition("=")
            yield f"line {lineno}: ", name.strip(), raw_value

    return _build({k.name: k.default for k in _SCHEMA}, entries(), errors)


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
    """The first 12 hex digits of the SHA-256 of the canonical serialization."""
    return sha256(serialize_config(cfg).encode("utf-8")).hexdigest()[:12]
