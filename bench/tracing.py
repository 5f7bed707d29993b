"""Per-layer spans for the benchmark, taken by wrapping beamtrack's functions.

``install()`` replaces each function named in ``TRACED`` with a timing
wrapper, in every ``beamtrack`` module that holds it (modules import each
other's functions by name, so patching the defining module alone would miss
most calls).  Spans nest: each knows its parent, and a span's self time is
its duration minus the time its child spans cover.

Spans are summed per scope rather than logged one by one.  Each Monte Carlo
run (one ``run_frame`` call) gets its own scope, which travels back on the
run's record as the attribute ``bench_trace``; calls outside any run, such
as ``cmd_simulate`` and ``run_many``, land in the batch scope, and
``run_many`` gathers the run scopes of the records it returns.

``run_many`` spawns its workers from a fresh interpreter, so patches made in
the parent do not reach them.  ``simulate.run_frame`` is therefore replaced
by ``traced_run_frame``, a module-level function that pickles by reference
to this module: a worker that unpickles it imports this module and installs
the tracer in its own process on the first call.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# (module, function) pairs timed as spans, bottom layer first.
TRACED = (
    ("numerics", "matrix_sqrt_psd"),
    ("numerics", "rank_one_factor"),
    ("channel", "channel_matrix"),
    ("channel", "real_channel_vectors"),
    ("dynamics", "build_transition"),
    ("dynamics", "advance_truth"),
    ("sounding", "build_plan"),
    ("sounding", "observe"),
    ("tracker", "sigma_points"),
    ("tracker", "channel_statistics"),
    ("tracker", "predict"),
    ("tracker", "update"),
    ("beams", "design_beams"),
    ("beams", "unconstrained_optimal_directions"),
    ("beams", "beams_from_directions"),
    ("simulate", "beamformers_from_estimate"),
    ("simulate", "run_many"),
    ("cli", "cmd_simulate"),
)
RUN_SPAN = "simulate.run_frame"


class Scope:
    """Summed spans and counters of one run, or of the batch around the runs."""

    def __init__(self):
        self.time = defaultdict(float)  # span name -> total seconds
        self.calls = defaultdict(int)  # span name -> call count
        self.self_time = defaultdict(float)  # span name -> seconds outside child spans
        self.child_time = defaultdict(float)  # "parent>child" -> seconds
        self.child_calls = defaultdict(int)  # "parent>child" -> call count
        self.counts = defaultdict(float)  # named counters

    def to_dict(self) -> dict:
        return {key: dict(value) for key, value in vars(self).items()}


class Tracer:
    """Open-span stack, the scope closing spans are summed into, and run scopes."""

    def __init__(self):
        self.stack: list[list] = []  # [name, seconds covered by child spans]
        self.scope = Scope()
        self.runs: list[dict] = []  # scopes of the runs run_many returned

    def span(self, name: str, fn, observe=None):
        """Wraps fn so that each call is timed as span ``name``.

        ``observe(tracer, args, result)``, if given, updates counters from a
        call that returned.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            frame = [name, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                self._close(name, elapsed, frame[1], parent)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def _close(self, name, elapsed, covered, parent):
        scope = self.scope
        scope.time[name] += elapsed
        scope.calls[name] += 1
        scope.self_time[name] += elapsed - covered
        if parent is not None:
            parent[1] += elapsed
            edge = f"{parent[0]}>{name}"
            scope.child_time[edge] += elapsed
            scope.child_calls[edge] += 1


def _count_rows(tracer, args, result):
    tracer.scope.counts["channel.real_channel_vectors.rows"] += result.shape[0]


def _count_design(tracer, args, result):
    from beamtrack.beams import signal_rank

    counts = tracer.scope.counts
    counts["beams.direction_slots"] += result.F.shape[1] * result.Z.shape[1]
    counts["beams.signal_directions"] += signal_rank(result.eigenvalues)
    counts["beams.fallbacks"] += bool(result.used_fallback)


def _collect_runs(tracer, args, records):
    cfg = args[0]
    env = os.environ.get("BEAMTRACK_THREADS", "")
    workers = int(env) if env.strip() else (os.cpu_count() or 1)
    tracer.scope.counts["simulate.run_many.workers"] = max(1, min(workers, cfg.num_runs))
    tracer.runs.extend(rec.bench_trace for rec in records)


OBSERVERS = {
    "channel.real_channel_vectors": _count_rows,
    "beams.design_beams": _count_design,
    "simulate.run_many": _collect_runs,
}

_TRACER: Tracer | None = None  # one per process; spawned workers install their own
_TRACED_RUN_FRAME = None


def install() -> Tracer:
    """Patches every traced function in this process; idempotent."""
    global _TRACER, _TRACED_RUN_FRAME
    if _TRACER is not None:
        return _TRACER
    import beamtrack.cli  # noqa: F401  (imports every layer)
    import beamtrack.simulate

    tracer = Tracer()
    modules = [mod for key, mod in sys.modules.items() if key.startswith("beamtrack")]
    for module_name, fn_name in TRACED:
        original = getattr(sys.modules[f"beamtrack.{module_name}"], fn_name)
        name = f"{module_name}.{fn_name}"
        _replace(modules, original, tracer.span(name, original, OBSERVERS.get(name)))
    _TRACED_RUN_FRAME = tracer.span(RUN_SPAN, beamtrack.simulate.run_frame)
    _replace(modules, beamtrack.simulate.run_frame, traced_run_frame)
    _TRACER = tracer
    return tracer


def _replace(modules, original, replacement):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def traced_run_frame(cfg, run_index=0):
    """``run_frame`` in a scope of its own, which it returns on the record."""
    tracer = install()
    batch, tracer.scope = tracer.scope, Scope()
    try:
        record = _TRACED_RUN_FRAME(cfg, run_index)
        run_scope = tracer.scope
    finally:
        tracer.scope = batch
    record.bench_trace = run_scope.to_dict()
    return record
