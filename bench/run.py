"""Benchmark of beamtrack: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload reference-batch --seed 0 --seconds 40 --trace 0

One operation is one Monte Carlo run; it fails if it diverges or if its
``simulate`` call exits non-zero.  A round is one ``beamtrack simulate``
call on the workload's config, made in a fresh interpreter (``child.py``) so
that its CPU time and peak memory are its own.  Every round of a
measurement repeats the same config and seed, and rounds continue until the
next one would end after ``--seconds``.  Before each round a second fresh
interpreter only imports beamtrack and loads the config; its wall time is a
set-up sample.  Every round's files are checked (``checks.py``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: the medians over rounds of ``setup_s``, ``wall_s``,
``cpu_s`` and ``peak_rss_mb``.  With ``--trace 1`` rounds alternate between
untraced and traced (``tracing.py``), and the metrics are the per-layer ones
of the traced rounds, with per-run medians, plus the tracing overhead.
Progress and the accuracy figures go to standard error.

Exit codes: 0 done, 1 an output check failed, 2 no beamtrack source beside
the benchmark or bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from tracing import RUN_SPAN

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
OUT = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150.0
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4  # with --trace 1: two untraced, two traced
MIN_SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    """Config keys over the ScenarioConfig defaults, and the process environment.

    ``env`` is set on top of the caller's environment, from which the
    benchmark first removes BEAMTRACK_THREADS and the BLAS thread-count
    variables: unset, run_many spawns one worker per CPU, each with
    single-threaded BLAS, and an in-process batch gets the BLAS library's
    default thread count.
    """

    settings: dict
    env: dict


IN_PROCESS = {"BEAMTRACK_THREADS": "1"}
ONE_BLAS_THREAD = {name: "1" for name in BLAS_THREAD_VARS}

# Why these three: see README.md.  Each round is sized to take a few
# seconds on two CPUs, so a 40 s measurement holds several rounds.
WORKLOADS = {
    # The reference experiment: every layer busy; spawned-pool path; CSV-heavy.
    "reference-batch": Workload({"num_runs": 2}, env={}),
    # One fine step per sounding: tracker and beam design dominate, on the
    # in-process path with the library's default BLAS threads.
    "sounding-dense": Workload(
        {"fine_step": 1e-4, "frame_length": 2e-3, "num_runs": 1}, env=IN_PROCESS
    ),
    # 1,000 fine steps per sounding: the fine-grid metric loop dominates.
    # BLAS is pinned to one thread so that the tracker's small products stay
    # the minor share they are without oversubscription.
    "metric-dense": Workload(
        {"fine_step": 1e-7, "frame_length": 1e-3, "num_runs": 1},
        env={**IN_PROCESS, **ONE_BLAS_THREAD},
    ),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Spans timed per run, and the spans whose per-run call counts are reported.
PER_RUN_TIMES = (
    RUN_SPAN,
    "simulate.beamformers_from_estimate",
    "dynamics.build_transition",
    "dynamics.advance_truth",
    "channel.channel_matrix",
    "channel.real_channel_vectors",
    "tracker.update",
    "tracker.channel_statistics",
    "tracker.sigma_points",
    "tracker.predict",
    "beams.design_beams",
    "beams.unconstrained_optimal_directions",
    "beams.beams_from_directions",
    "sounding.build_plan",
    "sounding.observe",
    "numerics.matrix_sqrt_psd",
    "numerics.rank_one_factor",
)
PER_RUN_CALLS = (
    "simulate.beamformers_from_estimate",
    "dynamics.build_transition",
    "dynamics.advance_truth",
    "channel.channel_matrix",
    "tracker.update",
    "tracker.channel_statistics",
    "tracker.sigma_points",
    "beams.design_beams",
    "numerics.matrix_sqrt_psd",
)
# run_frame's direct children that make up the fine-grid metric loop.
FINE_GRID_SPANS = (
    "channel.channel_matrix",
    "dynamics.build_transition",
    "dynamics.advance_truth",
    "simulate.beamformers_from_estimate",
)


def _end_group(pgid: int, grace_s: float = 5.0) -> None:
    """Waits for every process left in a child's group, then kills the rest."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            return
        time.sleep(0.01)


def _run_child(args: list, env: dict) -> tuple[int, str, str, float]:
    """Runs child.py in its own process group; returns (code, out, err, seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {CHILD_TIMEOUT_S:.0f} s"
    finally:
        elapsed = time.perf_counter() - start
        _end_group(proc.pid)
    return proc.returncode, out, err, elapsed


def child_env(workload: Workload) -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in BLAS_THREAD_VARS and key != "BEAMTRACK_THREADS"
    }
    return {**env, **workload.env}


def write_config(path: Path, settings: dict, out_dir: Path) -> None:
    lines = [f"{key} = {value!r}" for key, value in settings.items()]
    lines.append(f"output_dir = {out_dir}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Measurement:
    """Rounds of one workload and what they showed."""

    def __init__(self, name: str, seed: int, trace: bool):
        self.name = name
        self.workload = WORKLOADS[name]
        self.settings = {**self.workload.settings, "seed": seed}
        self.trace = trace
        self.env = child_env(self.workload)
        self.dir = OUT / f"{name}-{os.getpid()}"
        self.config = self.dir / "bench.cfg"
        self.out_dir = self.dir / "out"
        self.setup_s: list[float] = []
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.accuracy: dict = {}

    def probe_setup(self) -> None:
        code, _, err, seconds = _run_child(["setup", str(self.config)], self.env)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {err.strip()}")
        self.setup_s.append(seconds)

    def round(self, traced: bool) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        args = ["simulate", str(self.config)] + (["--trace"] if traced else [])
        code, out, err, _ = _run_child(args, self.env)
        runs = self.settings["num_runs"]
        self.attempted += runs
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if code == 0 and lines else None
        if result is None or result["exit_code"] != 0:
            self.failed += runs
            print(f"{self.name}: simulate failed: {err.strip()[-500:]}", file=sys.stderr)
            return
        outcome = checks.check(self.out_dir, self.settings)
        self.failed += outcome.diverged
        self.problems += outcome.problems
        self.accuracy = self.accuracy or outcome.accuracy
        result["bytes_written"] = sum(p.stat().st_size for p in self.out_dir.iterdir())
        (self.traced if traced else self.untraced).append(result)
        print(
            f"{self.name}: {'traced ' if traced else ''}round {result['wall_s']:.3f} s wall,"
            f" {result['cpu_s']:.3f} s CPU, {result['peak_rss_mb']:.1f} MB",
            file=sys.stderr,
        )

    def run(self, seconds: float) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        write_config(self.config, self.settings, self.out_dir)
        start = time.perf_counter()
        longest = 0.0
        index = 0
        while True:
            began = time.perf_counter()
            self.probe_setup()
            self.round(traced=self.trace and index % 2 == 1)
            index += 1
            longest = max(longest, time.perf_counter() - began)
            least = MIN_TRACED_ROUNDS if self.trace else MIN_ROUNDS
            if index >= least and time.perf_counter() - start + longest > seconds:
                break
        while len(self.setup_s) < MIN_SETUP_SAMPLES:
            self.probe_setup()

    def end_to_end(self) -> dict:
        values = {"setup_s": statistics.median(self.setup_s)}
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            values[key] = statistics.median(r[key] for r in self.untraced)
        return {
            key: {"value": value, "unit": END_TO_END_UNITS[key]}
            for key, value in values.items()
        }

    def per_layer(self) -> dict:
        runs = [run for result in self.traced for run in result["runs"]]
        metrics = {}

        def put(name, unit, values):
            metrics[name] = {"value": statistics.median(values), "unit": unit}

        for span in PER_RUN_TIMES:
            put(f"{span}_s", "s", [run["time"].get(span, 0.0) for run in runs])
        for span in PER_RUN_CALLS:
            put(f"{span}.calls", "count", [run["calls"].get(span, 0) for run in runs])
        put("simulate.self_s", "s", [run["self_time"][RUN_SPAN] for run in runs])
        put(
            "simulate.tracker_beams_share",
            "ratio",
            [_share(run, lambda s: s.startswith(("tracker.", "beams."))) for run in runs],
        )
        put(
            "simulate.fine_grid_share",
            "ratio",
            [
                _share(run, lambda s: s in FINE_GRID_SPANS)
                + run["self_time"][RUN_SPAN] / run["time"][RUN_SPAN]
                for run in runs
            ],
        )
        put(
            "simulate.run_many.busy_ratio",
            "ratio",
            [
                sum(run["time"][RUN_SPAN] for run in result["runs"])
                / (
                    result["batch"]["counts"]["simulate.run_many.workers"]
                    * result["batch"]["time"]["simulate.run_many"]
                )
                for result in self.traced
            ],
        )
        put(
            "channel.real_channel_vectors.rows",
            "count",
            [run["counts"].get("channel.real_channel_vectors.rows", 0) for run in runs],
        )
        put(
            "tracker.update.partial_steps",
            "count",
            [
                run["child_calls"].get("tracker.update>tracker.sigma_points", 0)
                / run["calls"]["tracker.update"]
                for run in runs
            ],
        )
        put(
            "beams.signal_directions_ratio",
            "ratio",
            [
                run["counts"]["beams.signal_directions"] / run["counts"]["beams.direction_slots"]
                for run in runs
            ],
        )
        put(
            "beams.fallback_ratio",
            "ratio",
            [
                run["counts"].get("beams.fallbacks", 0) / run["calls"]["beams.design_beams"]
                for run in runs
            ],
        )
        put(
            "cli.emit_s",
            "s",
            [
                r["batch"]["time"]["cli.cmd_simulate"] - r["batch"]["time"]["simulate.run_many"]
                for r in self.traced
            ],
        )
        put("cli.bytes_written", "bytes", [r["bytes_written"] for r in self.traced])
        overhead = statistics.median(r["wall_s"] for r in self.traced) - statistics.median(
            r["wall_s"] for r in self.untraced
        )
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        return metrics


def _share(run: dict, selected) -> float:
    """Share of run_frame's time spent in the direct child spans selected."""
    covered = sum(
        seconds
        for edge, seconds in run["child_time"].items()
        if edge.startswith(RUN_SPAN + ">") and selected(edge.split(">", 1)[1])
    )
    return covered / run["time"][RUN_SPAN]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "beamtrack" / "__init__.py").is_file():
        print(f"error: no beamtrack source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    measurement = Measurement(args.workload, args.seed, bool(args.trace))
    try:
        measurement.run(args.seconds)
    finally:
        shutil.rmtree(measurement.dir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass
    if measurement.accuracy:
        print(f"{args.workload}: accuracy {json.dumps(measurement.accuracy)}", file=sys.stderr)
    for problem in measurement.problems:
        print(f"{args.workload}: check failed: {problem}", file=sys.stderr)
    measured = bool(measurement.untraced) and (bool(measurement.traced) or not args.trace)
    correct = measured and not measurement.problems
    metrics = {}
    if measured:
        metrics = measurement.per_layer() if args.trace else measurement.end_to_end()
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": measurement.attempted,
                "failed": measurement.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
