"""One measured process of the benchmark: set-up probe or one simulate call.

Run from the benchmark, never by hand:

    python3 bench/child.py setup CONFIG
    python3 bench/child.py simulate CONFIG [--trace]

``setup`` imports beamtrack from the checkout's ``src/`` and loads the
config, which is what a fresh ``beamtrack simulate`` pays before any run.
``simulate`` then calls ``beamtrack.cli.cmd_simulate`` on the config and
prints, as its last line, one JSON object with the call's wall time, the
CPU time of this process and of the workers it reaped during the call, and
the peak resident set of either.  With ``--trace`` it adds the span scopes
of ``tracing``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    peak_kib = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return peak_kib / 1024.0


def _stop_resource_tracker() -> None:
    """Ends and reaps the resource tracker that a spawned pool starts, if any.

    Left alone it outlives this process, and the benchmark waits for every
    process of a round to end.  The method is private, hence the guard.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "simulate"))
    parser.add_argument("config")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from beamtrack import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"beamtrack imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    cli.load_cli_config(args.config)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
    cpu_before = _cpu_seconds()
    start = time.perf_counter()
    exit_code = cli.cmd_simulate(args.config)
    wall = time.perf_counter() - start
    result = {
        "exit_code": exit_code,
        "wall_s": wall,
        "cpu_s": _cpu_seconds() - cpu_before,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        result["batch"] = tracer.scope.to_dict()
        result["runs"] = tracer.runs
    _stop_resource_tracker()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
