"""Benchmark of the tissuesim campaigns (see README.md next to this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # every metric, every workload

Run from the repository root.  Each sample is one fresh child process that
imports tissuesim from ``src/`` and makes one ``tissuesim.cli.main`` call on a
config generated from the seed, writing into a fresh directory under
``.perfbench_work/``.  Samples repeat for about S seconds.  ``--trace 0``
reports the end-to-end metrics of untraced samples; ``--trace 1`` alternates
traced and untraced samples and reports the per-layer metrics, after
checking that the traced counts repeat exactly.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The metric
names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS, check_outputs, generate_config, write_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: a run must exit within 180 s: its samples get at most this much, the
#: import probe at most PROBE_LIMIT_S
HARD_LIMIT_S = 150.0
PROBE_LIMIT_S = 20.0
MIN_SAMPLES = 3        # untraced samples per --trace 0 run
MIN_TRACED = 2         # traced samples per --trace 1 run, so counts can be compared


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, configs or spec)."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # pinned: the default thread count makes the 2D solves slower and noisier
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def probe() -> dict:
    """Import tissuesim once (compiling its bytecode) and return the versions."""
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, "--probe"], env=child_env(), capture_output=True,
            text=True, timeout=PROBE_LIMIT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("importing tissuesim timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"cannot import tissuesim from {ROOT}/src:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def one_sample(name: str, work: str, cfg: dict, traced: bool, timeout: float) -> dict:
    """Run one child on `cfg`; return its measurements plus ok/problems/findings."""
    workload = WORKLOADS[name]
    run_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=work)
    config_path = os.path.join(run_dir, f"{name}.cfg")
    write_config(cfg, config_path)
    out = os.path.join(run_dir, "out")
    result_path = os.path.join(run_dir, "result.json")
    log_path = os.path.join(run_dir, "log.txt")
    sample = {"traced": traced, "ok": False, "problems": [], "findings": {}}
    try:
        spawned_at = time.monotonic()
        argv = [
            sys.executable, CHILD, repr(spawned_at), result_path, "1" if traced else "0", "--",
            workload.subcommand, "--config", config_path, "--out", out,
        ]
        with open(log_path, "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(
                    argv, env=child_env(), stdout=log, stderr=subprocess.STDOUT, timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                sample["problems"].append(f"timed out after {timeout:.0f} s")
                sample["timed_out"] = True
                return sample
        sample["elapsed_s"] = time.monotonic() - spawned_at
        if proc.returncode != 0 or not os.path.exists(result_path):
            with open(log_path, encoding="utf-8") as log:
                tail = log.read()[-2000:]
            sample["problems"].append(f"child exited with code {proc.returncode}: {tail}")
            return sample
        with open(result_path, encoding="utf-8") as f:
            sample.update(json.load(f))
        if sample["exit_code"] != 0:
            sample["problems"].append(f"tissuesim exited with code {sample['exit_code']}")
        else:
            problems, findings = check_outputs(workload, out, cfg["output.prefix"])
            sample["problems"].extend(problems)
            sample["findings"] = findings
        if sample.get("unrestored"):
            sample["problems"].append(f"wrappers not restored: {sample['unrestored']}")
        sample["ok"] = not sample["problems"]
        return sample
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def collect(name: str, work: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Samples for about `seconds` seconds.

    Untraced runs step through the seed's variants, one per sample.  Traced
    runs alternate traced and untraced samples, all on variant 0, so that
    the traced counts must repeat exactly.
    """
    configs = os.path.join(ROOT, "configs")
    start = time.monotonic()
    samples: list[dict] = []
    while True:
        n_traced = sum(s["traced"] for s in samples)
        traced = trace and n_traced <= len(samples) - n_traced
        cfg = generate_config(WORKLOADS[name], configs, seed, 0 if trace else len(samples))
        left = HARD_LIMIT_S - (time.monotonic() - start)
        sample = one_sample(name, work, cfg, traced, left)
        samples.append(sample)
        if sample.get("timed_out"):
            return samples
        n_traced = sum(s["traced"] for s in samples)
        n_plain = len(samples) - n_traced
        enough = (n_traced >= MIN_TRACED and n_plain >= 1) if trace else n_plain >= MIN_SAMPLES
        next_s = statistics.median(s.get("elapsed_s", 0.0) for s in samples)
        if enough and time.monotonic() - start + next_s > seconds:
            return samples


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(plain: list[dict]) -> dict:
    return {key: _median(plain, key) for key in ("wall_s", "setup_s", "peak_rss_mb")}


def per_layer(traced: list[dict], plain: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer values of the traced samples, and count mismatches between them."""
    counts = traced[0]["counts"]
    problems = [
        f"traced count {key} differs across reruns: {[s['counts'].get(key) for s in traced]}"
        for key in sorted(set().union(*(s["counts"] for s in traced)))
        if any(s["counts"].get(key) != counts.get(key) for s in traced)
    ]
    values = {
        key: statistics.median(s["seconds"].get(key, 0.0) for s in traced)
        for key in traced[0]["seconds"]
    }
    values.update(counts)
    values["stepper.accept_ratio"] = counts["stepper.steps"] / counts["stepper.attempts"]
    values["trace.wall_s"] = _median(traced, "wall_s")
    values["trace.overhead_s"] = values["trace.wall_s"] - _median(plain, "wall_s")
    return values, problems


def measure(
    name: str, work: str, seed: int, seconds: float, trace: bool, spec: dict, env: dict
) -> dict:
    """One benchmark run: the report printed before the result, and the result."""
    samples = collect(name, work, seed, seconds, trace)
    good = [s for s in samples if s["ok"]]
    plain = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    problems = [p for s in samples for p in s["problems"]]
    if not plain or (trace and not traced):
        raise BenchError(f"{name}: no successful sample; problems: {problems}")
    if trace:
        values, count_problems = per_layer(traced, plain)
        problems += count_problems
        declared = spec["per_layer"]
    else:
        values = end_to_end(plain)
        declared = spec["end_to_end"]
    failed = sum(not s["ok"] for s in samples)
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "env": env,
        "samples": {
            "plain": len(plain),
            "traced": len(traced),
            "wall_s": sorted(s["wall_s"] for s in plain),
            "setup_s": sorted(s["setup_s"] for s in plain),
        },
        "failed_frac": failed / len(samples),
        "problems": problems,
        "findings": samples[-1]["findings"],
    }
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"{name}: metrics declared in BENCHMARK.json but not measured: {missing}")
    result = {
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    return {"report": report, "result": result}


def measure_all(work: str, seconds: float, spec: dict, env: dict) -> dict:
    """Every workload untraced and traced; prints a table of every metric."""
    metrics = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        for trace in (False, True):
            run = measure(name, work, 0, seconds, trace, spec, env)
            print(json.dumps(run["report"]), flush=True)
            attempted += run["result"]["attempted"]
            failed += run["result"]["failed"]
            correct &= run["result"]["correct"]
            for metric, entry in run["result"]["metrics"].items():
                metrics[f"{name}.{metric}"] = entry
    for key, entry in metrics.items():
        print(f"{key:<50} {entry['value']:>16.6g} {entry['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        for needed in ("src", "configs"):
            if not os.path.isdir(os.path.join(ROOT, needed)):
                raise BenchError(f"no {needed}/ directory under {ROOT}")
        env = probe()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        if args.workload == "all":
            result = measure_all(work, seconds, spec, env)
        else:
            run = measure(args.workload, work, args.seed, seconds, bool(args.trace), spec, env)
            print(json.dumps(run["report"]), flush=True)
            result = run["result"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
