"""One timed workload run: import tissuesim, call cli.main once, report.

Usage (started by run.py with PYTHONPATH pointing at the package sources):

    python child.py SPAWNED_AT RESULT_JSON TRACE -- <tissuesim cli arguments>
    python child.py --probe

SPAWNED_AT is the parent's time.monotonic() just before the process was
started; CLOCK_MONOTONIC is shared by all processes, so the difference to
the moment cli.main is entered is the set-up time of this process.
``--probe`` imports the package and prints the library versions as JSON.
"""

import json
import os
import resource
import sys
import time


def _versions() -> dict:
    import numpy
    import scipy

    def blas(show_config):
        deps = show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv: list[str]) -> int:
    if argv == ["--probe"]:
        import tissuesim.cli  # noqa: F401  (fails when the sources are missing)

        print(json.dumps(_versions()))
        return 0
    spawned_at, result_path, trace = float(argv[0]), argv[1], argv[2] == "1"
    cli_args = argv[argv.index("--") + 1:]

    from tissuesim import cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - spawned_at
    start = time.perf_counter()
    code = cli.main(cli_args)
    wall_s = time.perf_counter() - start
    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["counts"] = dict(tracer.counts)
        result["seconds"] = dict(tracer.seconds)
        result["unrestored"] = tracer.uninstall()
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
