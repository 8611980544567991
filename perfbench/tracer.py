"""Spans and counters recorded around tissuesim's public functions.

The tracer wraps each function at the module attribute its caller looks up
(``harness.step`` rather than ``stepper.step``, because ``harness`` imported
the name), so the package itself is not modified.  Spans are kept on a stack
in memory: a span's self time is its duration minus the time of the wrapped
spans it encloses.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from tissuesim import cli, harness, linalg, output, stepper
from tissuesim.errors import SolverFailure

# (module, attribute, span name).  cli and harness each hold their own
# reference to run(); both are wrapped under one span name.
_SPANS = (
    (cli, "parse_config", "config.parse_config"),
    (cli, "run", "harness.run"),
    (harness, "run", "harness.run"),
    (harness, "step", "stepper.step"),
    (harness, "regularized_step", "stepper.step"),
    (harness, "suggest_dt", "stepper.suggest_dt"),
    (stepper, "density_solve", "stepper.density_solve"),
    (stepper, "fraction_update", "stepper.fraction_update"),
    (stepper, "nutrient_solve", "stepper.nutrient_solve"),
    (linalg, "thomas_solve", "linalg.thomas_solve"),
    (linalg, "pcg_solve", "linalg.pcg_solve"),
    (harness, "make_ledger_row", "diagnostics.make_ledger_row"),
    (harness, "check_all", "diagnostics.check_all"),
    (harness, "weighted_energy", "diagnostics.weighted_energy"),
    (harness, "space_time_distance", "harness.space_time_distance"),
    (output, "write_snapshot", "output.write"),
    (output, "write_timeseries", "output.write"),
    (output, "write_sweep_report", "output.write"),
    (output, "write_eps_report", "output.write"),
    (output, "write_bench_report", "output.write"),
)

# sub-steps of one step attempt; a SolverFailure leaving one rejects the attempt
_ATTEMPT_PHASES = {
    "stepper.density_solve": "stepper.rejects.density",
    "stepper.fraction_update": "stepper.rejects.fraction",
    "stepper.nutrient_solve": "stepper.rejects.nutrient",
}


# a CG solve is attributed to the sub-step that encloses it
_PCG_SPANS = {
    "stepper.density_solve": "linalg.pcg_solve.density",
    "stepper.nutrient_solve": "linalg.pcg_solve.nutrient",
}


class Tracer:
    """Installs the wrappers, accumulates per-span totals, restores on exit."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.seconds = defaultdict(float)
        self._stack = []          # [span name, start, seconds covered by child spans]
        self._saved = []          # (module, attribute, original)
        self._attempt_start = None

    def install(self) -> None:
        # every total exists from the start, so a layer never called reads 0
        spans = {name for _, _, name in _SPANS if name != "linalg.pcg_solve"}
        for span in spans | set(_PCG_SPANS.values()):
            self.counts[f"{span}.calls"] = 0
            self.seconds[f"{span}.s"] = 0.0
            self.seconds[f"{span}.self_s"] = 0.0
        for key in ("stepper.steps", "stepper.attempts", "stepper.newton_iters", "output.bytes",
                    *_ATTEMPT_PHASES.values(), *(f"{s}.iters" for s in _PCG_SPANS.values())):
            self.counts[key] = 0
        self.seconds["stepper.wasted_s"] = 0.0
        for module, attr, name in _SPANS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> list[str]:
        """Put every original back; return the attributes that did not restore."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        return [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._saved
            if getattr(module, attr) is not original
        ]

    def _enclosing(self, *names: str) -> str | None:
        for frame in reversed(self._stack):
            if frame[0] in names:
                return frame[0]
        return None

    def _wrap(self, fn, name: str):
        def wrapper(*args, **kwargs):
            span = name
            if name == "linalg.pcg_solve":
                span = _PCG_SPANS.get(self._enclosing(*_PCG_SPANS), "linalg.pcg_solve.other")
            start = time.perf_counter()
            if name == "stepper.density_solve":
                self.counts["stepper.attempts"] += 1
                self._attempt_start = start
            frame = [span, start, 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except SolverFailure:
                if name in _ATTEMPT_PHASES and self._attempt_start is not None:
                    self.counts[_ATTEMPT_PHASES[name]] += 1
                    self.seconds["stepper.wasted_s"] += time.perf_counter() - self._attempt_start
                    self._attempt_start = None
                raise
            finally:
                self._stack.pop()
                elapsed = time.perf_counter() - start
                self.counts[f"{span}.calls"] += 1
                self.seconds[f"{span}.s"] += elapsed
                self.seconds[f"{span}.self_s"] += elapsed - frame[2]
                if self._stack:
                    self._stack[-1][2] += elapsed
            self._record_result(name, span, args, result)
            return result

        return wrapper

    def _record_result(self, name: str, span: str, args, result) -> None:
        if name == "stepper.step":
            self.counts["stepper.steps"] += 1
        elif name == "stepper.density_solve":
            self.counts["stepper.newton_iters"] += result[1].newton_iters
        elif name == "linalg.pcg_solve":
            self.counts[f"{span}.iters"] += result.iterations
        elif name == "output.write":
            self.counts["output.bytes"] += os.path.getsize(args[0])
