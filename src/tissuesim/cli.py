"""Command-line surface.

Subcommands:
  run        integrate one configuration to T_final, write snapshots + timeseries
  sweep      gamma sweep with the stiff-limit diagnostics
  eps-study  viscous-scheme refinement against the eps = 0 reference
  bench      self-similar-solution convergence benchmark
  check      validate a config and run ``run``'s set-up: print its derived
             constants and H7 verdict, and its warnings on stderr; take no step

Exit codes: 0 success, 2 invariant violation in ``run`` (without
--permissive), 3 solver or I/O failure, 4 configuration error.  ``sweep``,
``eps-study`` and ``bench`` exit 3 when any of their runs stops, also on an
invariant violation, and still write their CSV with that run's row marked,
unless the eps study's eps = 0 reference stopped.  --permissive is accepted
by every subcommand but only ``run`` reads it.
"""

from __future__ import annotations

import math
import os
import sys

from . import output
from .config import parse_config
from .errors import ConfigError, SolverFailure
from .harness import barenblatt_benchmark, eps_study, gamma_sweep, run, set_up

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4

_USAGE = """\
usage: tissuesim <subcommand> --config PATH [--out DIR] [--gamma N] [--permissive]

subcommands:
  run         integrate the configured problem and write CSV outputs
  sweep       run the configured gamma sweep
  eps-study   run the viscous-regularization refinement study
  bench       run the self-similar convergence benchmark
  check       validate the config and print derived constants
"""


# flags that take the next argument, with what they take
_VALUE_FLAGS = {"--config": "a path", "--out": "a directory", "--gamma": "a value"}


def _parse_argv(argv):
    if not argv:
        raise ConfigError(["missing subcommand"])
    sub = argv[0]
    if sub in ("-h", "--help"):
        return None
    if sub not in ("run", "sweep", "eps-study", "bench", "check"):
        raise ConfigError([f"unknown subcommand '{sub}'"])
    opts = {"config": None, "out": None, "gamma": None, "permissive": False}
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg in _VALUE_FLAGS:
            i += 1
            if i >= len(argv):
                raise ConfigError([f"{arg} needs {_VALUE_FLAGS[arg]}"])
            opts[arg[2:]] = argv[i]
        elif arg == "--permissive":
            opts["permissive"] = True
        else:
            raise ConfigError([f"unknown flag '{arg}'"])
        i += 1
    if opts["config"] is None:
        raise ConfigError(["--config PATH is required"])
    return sub, opts


def _load_config(opts):
    path = opts["config"]
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError([f"cannot read config '{path}': {exc}"]) from exc
    cfg = parse_config(text)
    if opts["gamma"] is not None:
        cfg = cfg.with_overrides(model__gamma=opts["gamma"])
    if opts["out"] is not None:
        cfg = cfg.with_overrides(output__dir=opts["out"])
    return cfg


def _out_path(cfg, name: str) -> str:
    return os.path.join(cfg["output.dir"], f"{cfg['output.prefix']}_{name}")


def _cmd_check(cfg) -> int:
    result = set_up(cfg)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    consts = result.consts
    print(f"config  {result.cfg_hash}")
    print(f"L       {consts.L:.12g}")
    print(f"G0      {consts.G0:.12g}")
    print(f"M0      {consts.M0:.12g}")
    print(f"d_crit  {consts.d_crit:.12g}")
    print(f"H7      {result.h7}")
    return EXIT_OK


def _flush_run_outputs(cfg, result) -> None:
    h = result.cfg_hash
    output.write_timeseries(_out_path(cfg, "timeseries.csv"), result.ledger, h)
    output.write_snapshot(_out_path(cfg, "final.csv"), result.final_state, h)
    output.write_snapshot(_out_path(cfg, "initial.csv"), result.initial_state, h)


def _cmd_run(cfg, permissive: bool) -> int:
    result = run(cfg, permissive=permissive)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    _flush_run_outputs(cfg, result)
    print(
        f"run {result.cfg_hash}: {result.steps} steps to t = {result.final_state.t:.6g}, "
        f"mass {result.ledger.rows[-1].mass:.12g}, wall {result.wall_clock:.2f}s"
    )
    if result.failure is not None:
        print(f"solver failure: {result.failure}", file=sys.stderr)
        return EXIT_SOLVER
    if result.violations and not permissive:
        for v in result.violations:
            print(f"invariant violation: {v}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _failed(result) -> str:
    return "" if result.ok else f"  [FAILED: {result.failure_text}]"


def _campaign_exit(records) -> int:
    return EXIT_SOLVER if any(not r.run.ok for r in records) else EXIT_OK


def _cmd_sweep(cfg) -> int:
    report = gamma_sweep(cfg)
    output.write_sweep_report(_out_path(cfg, "sweep.csv"), report)
    for e in report.entries:
        output.write_timeseries(
            _out_path(cfg, f"gamma{e.gamma:g}_timeseries.csv"), e.run.ledger, e.run.cfg_hash
        )
    for e in report.entries:
        print(
            f"gamma {e.gamma:g}: energy {e.energy:.6g}, excess {e.excess_max:.6g}, "
            f"segregation {e.seg_integral:.6g}, wall {e.run.wall_clock:.2f}s"
            + _failed(e.run)
        )
    return _campaign_exit(report.entries)


def _cmd_eps(cfg) -> int:
    entries = eps_study(cfg)
    output.write_eps_report(_out_path(cfg, "eps.csv"), entries)
    for e in entries:
        print(
            f"eps {e.eps:g}: distance {e.distance:.6g}, "
            f"cutoff activations {e.run.total_cutoff_activations}, "
            f"{e.run.steps} steps, {e.run.rejected_attempts} rejected attempts"
            + _failed(e.run)
        )
    return _campaign_exit(entries)


def _cmd_bench(cfg) -> int:
    report = barenblatt_benchmark(cfg)
    output.write_bench_report(_out_path(cfg, "bench.csv"), report)
    for r in report.rows:
        order = "-" if math.isnan(r.order) else f"{r.order:.3f}"
        print(
            f"N {r.cells}: L1 error {r.l1_error:.6e} (rel {r.rel_error:.3e}), "
            f"order {order}, mass drift {r.mass_drift:.3e}"
            + _failed(r.run)
        )
    return _campaign_exit(report.rows)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parsed = _parse_argv(argv)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"error: {e}", file=sys.stderr)
        print(_USAGE, file=sys.stderr)
        return EXIT_CONFIG
    if parsed is None:
        print(_USAGE)
        return EXIT_OK
    sub, opts = parsed
    try:
        cfg = _load_config(opts)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if sub == "check":
            return _cmd_check(cfg)
        if sub == "run":
            return _cmd_run(cfg, permissive=opts["permissive"])
        if sub == "sweep":
            return _cmd_sweep(cfg)
        if sub == "eps-study":
            return _cmd_eps(cfg)
        return _cmd_bench(cfg)
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
