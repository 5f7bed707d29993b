"""Command-line front end: config parsing, experiment execution, file emission.

Two subcommands:

* ``simulate`` runs the Monte Carlo experiment described by a flat
  ``key=value`` config file (keys match :class:`ScenarioConfig` field names,
  plus ``output_dir``/``formats``/``arms``/``quantiles`` for output routing)
  and writes ``paths.csv``, ``esnr.csv``, and ``summary.json``.  ``--set
  key=value`` overrides take final precedence.  Identical config and seed
  give byte-identical CSV output.  The CSVs are written run by run, one
  bounded block of fine steps at a time, so writing them needs no more
  memory for a large batch than for a small one.
* ``selftest`` runs the numeric invariant suite (sigma-moment
  reconstruction, unscented-equals-Kalman on a linear map, Kronecker factor
  recovery) and prints a pass/fail table.  These are the checks of
  acceptance criteria 1, 2 and 4, which call the same functions.

All internal math stays in linear units; dB conversion happens only at
emission.  Orchestration is single-threaded — run-level parallelism is
delegated to :func:`run_many`, capped by the BEAMTRACK_THREADS env var.

Exit codes: simulate — 0 success, 1 config error, 2 runtime error or every
run diverged; selftest — 0 all checks pass, 3 any check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .beams import baseline_beams, kronecker_beams
from .channel import ChannelState
from .dynamics import DynamicsModel, build_transition
from .errors import BadConfig, BeamtrackError
from .numerics import KroneckerFactorDims
from .simulate import RunRecord, ScenarioConfig, aggregate_runs, run_many
from .sounding import Observation, build_plan
from .tracker import (
    SigmaSet,
    TrackerState,
    UkfParams,
    predict,
    sigma_points,
    update,
)

CSV_SCHEMA = "# beamtrack-csv v1"
ARMS = ("tracked", "one_shot", "predicted")
OUTPUT_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class CliConfig:
    """Experiment configuration plus output routing.

    Attributes:
        scenario: The experiment itself.
        output_dir: Directory receiving the result files (created if absent).
        formats: Which outputs to write: "csv" (paths.csv, esnr.csv) and/or
            "json" (summary.json).
        arms: Which metric arms to emit: tracked / one_shot / predicted.
        quantiles: Quantile levels reported in summary.json.
    """

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    output_dir: str = "."
    formats: tuple = OUTPUT_FORMATS
    arms: tuple = ARMS
    quantiles: tuple = (0.25, 0.5, 0.75)

    def __post_init__(self):
        if not self.arms:
            raise BadConfig("at least one arm must be selected")
        for name in ("formats", "arms", "quantiles"):
            entries = getattr(self, name)
            if len(set(entries)) < len(entries):
                raise BadConfig(f"{name} lists an entry more than once: {entries}")
        for arm in self.arms:
            if arm not in ARMS:
                raise BadConfig(f"unknown arm {arm!r}; choose from {ARMS}")
        for fmt in self.formats:
            if fmt not in OUTPUT_FORMATS:
                raise BadConfig(
                    f"unknown output format {fmt!r}; choose from {OUTPUT_FORMATS}"
                )
        for q in self.quantiles:
            if not 0.0 < q < 1.0:
                raise BadConfig(f"quantile levels must lie in (0, 1), got {q}")


# --- config file parsing -------------------------------------------------

_SCENARIO_DEFAULTS = vars(ScenarioConfig())
# Every config key's default; the key's text converts to the default's type.
_DEFAULTS = {**vars(CliConfig()), **_SCENARIO_DEFAULTS}
del _DEFAULTS["scenario"]


def _split_csv(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _kind(value):
    """int, float or str, whichever value is an instance of; None otherwise."""
    if not isinstance(value, bool):
        for kind in (int, float, str):
            if isinstance(value, kind):
                return kind
    return None


def _convert_value(name: str, text: str):
    """Converts one raw config string to the type of its key's default.

    The kinds are optional int (a None default), int, float, str, and tuples
    of float or of str.  Any other kind is rejected rather than guessed at:
    ``bool("false")`` is True.
    """
    default = _DEFAULTS[name]
    try:
        if default is None:  # optional int (first-period beam counts)
            return None if text.strip().lower() in ("", "none") else int(text)
        kind = _kind(default)
        if kind is not None:
            return kind(text.strip())
        if isinstance(default, tuple) and {_kind(d) for d in default} in ({float}, {str}):
            return tuple(_kind(default[0])(part) for part in _split_csv(text))
    except ValueError as exc:
        raise BadConfig(f"invalid value for {name}: {text!r}") from exc
    raise BadConfig(f"config key {name} is not settable from text")


def _parse_kv(item: str, source: str) -> tuple[str, str]:
    key, sep, value = item.partition("=")
    if not sep or not key.strip():
        raise BadConfig(f"{source}: expected key=value, got {item!r}")
    return key.strip(), value.strip()


def read_config_file(path: str) -> dict:
    """Parses a flat key=value config file; blank lines and # comments skip."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise BadConfig(f"cannot read config file {path}: {exc}") from exc
    pairs = {}
    for num, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, value = _parse_kv(line, source=f"{path}:{num}")
        pairs[key] = value
    return pairs


def build_cli_config(pairs: dict) -> CliConfig:
    """Typed CliConfig from raw key=value string pairs; unknown keys reject."""
    scenario_kwargs, cli_kwargs = {}, {}
    for key, value in pairs.items():
        if key not in _DEFAULTS:
            raise BadConfig(f"unknown config key: {key}")
        kwargs = scenario_kwargs if key in _SCENARIO_DEFAULTS else cli_kwargs
        kwargs[key] = _convert_value(key, value)
    return CliConfig(scenario=ScenarioConfig(**scenario_kwargs), **cli_kwargs)


def load_cli_config(config_path: str | None, overrides=()) -> CliConfig:
    """Reads the optional config file, then applies --set overrides on top."""
    pairs = read_config_file(config_path) if config_path is not None else {}
    for item in overrides:
        key, value = _parse_kv(item, source="--set")
        pairs[key] = value
    return build_cli_config(pairs)


# --- result emission ------------------------------------------------------

def _format_table(data: np.ndarray, fmt: list) -> str:
    """The text ``np.savetxt(fh, data, fmt=fmt, delimiter=",")`` writes.

    One %-format over the whole table instead of one per row.  A column
    with fewer distinct values than half its rows (a run index, a time
    repeated per path, an estimate held over a period) has each distinct
    value formatted once and its text substituted with %s.  Values are told
    apart by their bit patterns, so -0.0 and 0.0 keep their own text.
    """
    rows, cols = data.shape
    cells = np.empty((rows, cols), dtype=object)
    row_fmt = []
    for j, spec in enumerate(fmt):
        column = data[:, j]
        _, first, inverse = np.unique(
            column.view(np.int64), return_index=True, return_inverse=True
        )
        if 2 * first.size < rows:
            text = np.array([spec % value for value in column[first].tolist()], dtype=object)
            cells[:, j] = text[inverse]
            row_fmt.append("%s")
        else:
            cells[:, j] = column
            row_fmt.append(spec)
    row = ",".join(row_fmt) + "\n"
    return (row * rows) % tuple(cells.ravel().tolist())


# Fine steps of one run formatted and written together.  Emission builds
# no table larger than one block, so its memory is bounded whatever the run
# length or batch size.
_EMIT_STEPS = 1024


def _write_csv(
    path: str, columns: list, blocks: Iterable[np.ndarray], fmt: list
) -> None:
    """Writes the schema and header lines, then each row block in turn."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_SCHEMA + "\n")
        fh.write(",".join(columns) + "\n")
        for block in blocks:
            fh.write(_format_table(block, fmt))


def _step_blocks(records: list) -> Iterator[tuple[int, RunRecord, slice]]:
    """(run index, record, slice of fine steps) for each block, in run order."""
    for run, rec in enumerate(records):
        for start in range(0, rec.times.size, _EMIT_STEPS):
            yield run, rec, slice(start, start + _EMIT_STEPS)


def _paths_blocks(records: list) -> Iterator[np.ndarray]:
    for run, rec, steps in _step_blocks(records):
        times = rec.times[steps]
        L = rec.true_tx.shape[1]
        yield np.column_stack(
            [
                np.full(times.size * L, run),
                np.repeat(times, L),
                np.tile(np.arange(L), times.size),
                rec.true_tx[steps].ravel(),
                rec.est_tx[steps].ravel(),
                rec.true_rx[steps].ravel(),
                rec.est_rx[steps].ravel(),
            ]
        )


def _db(ratio: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return 10.0 * np.log10(ratio)


_ARM_COLUMNS = {
    "tracked": ("loss_tracked_db", "tracked_loss"),
    "one_shot": ("loss_oneshot_db", "oneshot_loss"),
    "predicted": ("pred_gain_db", "prediction_gain"),
}


def _esnr_blocks(records: list, names: list) -> Iterator[np.ndarray]:
    for run, rec, steps in _step_blocks(records):
        times = rec.times[steps]
        yield np.column_stack(
            [np.full(times.size, run), times]
            + [_db(getattr(rec, name)[steps]) for name in names]
        )


def _write_summary(path: str, cfg: CliConfig, summary: dict) -> None:
    """Writes the config and the ``aggregate_runs`` summary of cfg.arms, in dB."""
    arms = {}
    for arm in cfg.arms:
        stats = summary[_ARM_COLUMNS[arm][1]]
        key = "median_gain_db" if arm == "predicted" else "median_loss_db"
        arms[arm] = {
            key: float(_db(stats["median"])),
            "quantiles_db": {
                str(q): float(_db(v)) for q, v in zip(cfg.quantiles, stats["quantiles"])
            },
        }
    config = dataclasses.asdict(cfg)
    config.update(config.pop("scenario"))
    document = {
        "schema": "beamtrack-summary v1",
        "config": config,
        "num_runs": summary["num_runs"],
        "num_diverged": summary["num_diverged"],
        "seeds": [[cfg.scenario.seed, i] for i in range(summary["num_runs"])],
        "arms": arms,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(cfg: CliConfig, records: list, summary: dict) -> list:
    """Writes the selected result files; returns their names.

    ``summary`` is ``aggregate_runs`` of the records at cfg.quantiles.

    The CSVs are streamed: each run's rows are formatted and written one
    block of ``_EMIT_STEPS`` fine steps at a time, in run order, so no table
    of a whole run or batch is ever built.  Every cell's text is its format
    spec applied to its value, whichever block holds it, so the files are
    byte-identical to formatting the whole table at once.
    """
    written = []
    if "csv" in cfg.formats:
        _write_csv(
            os.path.join(cfg.output_dir, "paths.csv"),
            ["run", "t_s", "path", "true_aod_v", "est_aod_v", "true_aoa_v", "est_aoa_v"],
            _paths_blocks(records),
            ["%d", "%.10e", "%d", "%.10e", "%.10e", "%.10e", "%.10e"],
        )
        written.append("paths.csv")
        arms = [_ARM_COLUMNS[arm] for arm in ARMS if arm in cfg.arms]
        columns = ["run", "t_s"] + [column for column, _ in arms]
        _write_csv(
            os.path.join(cfg.output_dir, "esnr.csv"),
            columns,
            _esnr_blocks(records, [name for _, name in arms]),
            ["%d", "%.10e"] + ["%.10e"] * (len(columns) - 2),
        )
        written.append("esnr.csv")
    if "json" in cfg.formats:
        _write_summary(os.path.join(cfg.output_dir, "summary.json"), cfg, summary)
        written.append("summary.json")
    return written


# --- subcommands ----------------------------------------------------------

def cmd_simulate(config_path: str | None = None, overrides=()) -> int:
    """Runs the experiment and writes result files; returns the exit code."""
    try:
        cfg = load_cli_config(config_path, overrides)
        os.makedirs(cfg.output_dir, exist_ok=True)
        if not os.access(cfg.output_dir, os.W_OK):
            raise BadConfig(f"output_dir is not writable: {cfg.output_dir}")
    except (BeamtrackError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    start = time.perf_counter()
    try:
        records = run_many(cfg.scenario)
        summary = aggregate_runs(records, cfg.quantiles)  # EmptyInput if all diverged
        written = _emit(cfg, records, summary)
    except (BeamtrackError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    listing = ", ".join(written) if written else "no files (empty formats)"
    print(
        f"wrote {listing} in {cfg.output_dir} "
        f"({len(records)} runs, {summary['num_diverged']} diverged, {elapsed:.1f}s)"
    )
    return 0


def _faulted(sigma: SigmaSet, fault: float) -> SigmaSet:
    """The sigma set with ``fault`` added to both zeroth weights."""
    bump = np.zeros_like(sigma.w_mean)
    bump[0] = fault
    return SigmaSet(sigma.points, sigma.w_mean + bump, sigma.w_cov + bump)


def check_sigma_moments(fault: float = 0.0) -> float:
    """Max reconstruction error of 50 seeded dim-24 means and covariances.

    The textbook reconstruction runs on the set's points and weights cast to
    ``np.longdouble``.  At the default eta the centre weight is about -1e6,
    so in float64 the check's own cancellation costs about six digits and
    would hide the error of the set itself.
    """
    params = UkfParams()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(200 + seed)
        n = 24
        x = rng.standard_normal(n)
        A = rng.standard_normal((n, n))
        R = A @ A.T / n
        sigma = _faulted(sigma_points(x, R, params), fault)
        points = sigma.points.astype(np.longdouble)
        w_mean, w_cov = sigma.w_mean.astype(np.longdouble), sigma.w_cov.astype(np.longdouble)
        mean = w_mean @ points
        dev = points - mean
        cov = (dev * w_cov[:, None]).T @ dev
        worst = max(
            worst,
            float(np.max(np.abs(mean - x))),
            float(np.max(np.abs(cov - R))),
        )
    return worst


def _kalman_update(x, R, H, y_vec, noise_var):
    S = H @ R @ H.T + noise_var * np.eye(H.shape[0])
    K = np.linalg.solve(S, H @ R).T
    return x + K @ (y_vec - H @ x), R - K @ H @ R


def check_ukf_matches_kf(fault: float = 0.0) -> float:
    """Max deviation from the exact Kalman filter on a linear map, 100 steps."""
    rng = np.random.default_rng(101)
    dft2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    plan = build_plan(dft2.astype(complex), dft2.astype(complex))
    C = rng.standard_normal((8, 6))
    H = plan.G_real @ C
    measure = lambda X: X @ H.T  # noqa: E731 - tiny linear surrogate
    rho = 10.0
    model = DynamicsModel(L=1, beta=0.905, T_S=1e-4)
    tp = build_transition(model, 1e-4)
    params = UkfParams()

    ts = TrackerState(ChannelState(1, np.zeros(6)), np.eye(6))
    x_kf, R_kf = np.zeros(6), np.eye(6)
    worst = 0.0
    for _ in range(100):
        ts = predict(ts, tp)
        x_kf, R_kf = tp.A @ x_kf, tp.A @ R_kf @ tp.A.T + tp.Q
        y_vec = rng.standard_normal(8)
        obs = Observation(y_real=y_vec, snr_rho=rho)
        sigma = _faulted(sigma_points(ts.x_hat.x, ts.R, params), fault)
        ts = update(ts, measure, obs, params, sigma=sigma)
        x_kf, R_kf = _kalman_update(x_kf, R_kf, H, y_vec, 1.0 / (2.0 * rho))
        worst = max(
            worst,
            float(np.max(np.abs(ts.x_hat.x - x_kf))),
            float(np.max(np.abs(ts.R - R_kf))),
        )
    return worst


def check_kronecker_recovery(fault: float = 0.0) -> float:
    """Worst per-column correlation shortfall when factoring exact products."""
    del fault  # weights do not enter this check
    worst = 0.0
    for seed, shape in enumerate([(16, 4, 16, 4), (16, 6, 16, 6), (8, 3, 4, 2)] * 5):
        dims = KroneckerFactorDims(*shape)
        rng = np.random.default_rng(400 + seed)
        F0 = baseline_beams("random_unit", dims.m1, dims.n1, rng)
        Z0 = baseline_beams("random_unit", dims.m2, dims.n2, rng)
        out = kronecker_beams(np.kron(F0.conj(), Z0), dims)
        for j in range(dims.n1):
            worst = max(worst, 1.0 - abs(out.F[:, j].conj() @ F0[:, j]))
        for j in range(dims.n2):
            worst = max(worst, 1.0 - abs(out.Z[:, j].conj() @ Z0[:, j]))
    return worst


_SELFTEST_CHECKS = (
    ("sigma moments reconstruct mean and covariance", check_sigma_moments, 1e-9),
    ("unscented update equals Kalman on linear map", check_ukf_matches_kf, 1e-8),
    ("Kronecker factor recovery from exact products", check_kronecker_recovery, 1e-9),
)


def cmd_selftest(inject_fault: bool = False) -> int:
    """Runs the numeric invariant suite; exit 0 iff every check passes."""
    fault = 1e-3 if inject_fault else 0.0
    start = time.perf_counter()
    failures = 0
    print(f"{'check':<48}{'max error':>12}{'tolerance':>12}  result")
    for name, check, tol in _SELFTEST_CHECKS:
        try:
            err = check(fault)
        except BeamtrackError:  # e.g. update rejects faulted sigma weights
            err = float("inf")
        ok = err <= tol
        failures += not ok
        print(f"{name:<48}{err:>12.2e}{tol:>12.0e}  {'pass' if ok else 'FAIL'}")
    elapsed = time.perf_counter() - start
    total = len(_SELFTEST_CHECKS)
    print(f"selftest: {total - failures}/{total} checks passed ({elapsed:.1f}s)")
    return 3 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamtrack",
        description="Channel-tracking Monte Carlo experiments and numeric selftest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sim = sub.add_parser(
        "simulate", help="run the experiment and write paths.csv/esnr.csv/summary.json"
    )
    sim.add_argument("--config", metavar="PATH", help="flat key=value config file")
    sim.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable; applied after --config)",
    )
    st = sub.add_parser("selftest", help="run the numeric invariant suite")
    st.add_argument(
        "--inject-fault",
        action="store_true",
        help="perturb internal weights to verify the suite detects faults",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return cmd_simulate(args.config, args.overrides)
    return cmd_selftest(inject_fault=args.inject_fault)


if __name__ == "__main__":
    sys.exit(main())
