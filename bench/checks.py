"""Checks of one ``beamtrack simulate`` output directory.

The checks test properties the method must have on every batch, not stored
output, so any seed can be checked:

* both CSVs start with the schema line and hold runs x fine steps rows
  (x L for ``paths.csv``), in run order;
* every loss of a run that did not diverge is finite and at most 0 dB within
  round-off, since the captured fraction of the spectral gain cannot exceed
  one;
* ``pred_gain_db`` is exactly 0 at every sounding instant, where the
  prediction horizon is zero;
* the per-arm medians in ``summary.json`` equal a recomputation from
  ``esnr.csv``.

A run diverged when its rows hold NaN; the count must equal ``num_diverged``
in ``summary.json``.  Diverged runs are failed operations, not faults of the
output, and are left out of the value checks.

``accuracy()`` gives the tracking-quality figures of a batch: median
position error, tracked against one-shot loss, prediction gain and lost
paths.  They are statistics of a few runs, which the known lost-path mode of
the tracker moves from seed to seed, so they are reported, not checked.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CSV_SCHEMA = "# beamtrack-csv v1"
PATHS_COLUMNS = "run,t_s,path,true_aod_v,est_aod_v,true_aoa_v,est_aoa_v"
ESNR_COLUMNS = "run,t_s,loss_tracked_db,loss_oneshot_db,pred_gain_db"
# Largest loss accepted as "at most 0 dB": round-off in the captured
# fraction (~1e-15 relative) plus the 11 significant digits of the CSV.
LOSS_TOLERANCE_DB = 1e-9
# Agreement of summary.json medians with the recomputation, in dB.
MEDIAN_TOLERANCE_DB = 1e-6


@dataclass
class Outcome:
    """What one output directory shows."""

    runs: int = 0
    diverged: int = 0
    problems: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)


@dataclass
class Output:
    """The parsed files of one output directory."""

    config: dict
    summary: dict
    esnr: np.ndarray
    paths: np.ndarray

    @property
    def n_fine(self) -> int:
        return round(self.config["frame_length"] / self.config["fine_step"])

    @property
    def per_obs(self) -> int:
        return round(self.config["T_S"] / self.config["fine_step"])


def _read_csv(path: Path, columns: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        schema = fh.readline().rstrip("\n")
        header = fh.readline().rstrip("\n")
        if schema != CSV_SCHEMA:
            raise ValueError(f"{path.name}: schema line {schema!r}, expected {CSV_SCHEMA!r}")
        if header != columns:
            raise ValueError(f"{path.name}: header {header!r}, expected {columns!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != columns.count(",") + 1:
        raise ValueError(f"{path.name}: {data.shape[1]} columns, expected {columns}")
    return data


def load(out_dir: Path) -> Output:
    """Reads summary.json, esnr.csv and paths.csv; raises ValueError if malformed."""
    out_dir = Path(out_dir)
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    return Output(
        config=summary["config"],
        summary=summary,
        esnr=_read_csv(out_dir / "esnr.csv", ESNR_COLUMNS),
        paths=_read_csv(out_dir / "paths.csv", PATHS_COLUMNS),
    )


def _db_median(values_db: np.ndarray) -> float:
    """dB of the median of the linear values, as summary.json computes it."""
    return 10.0 * math.log10(float(np.median(10.0 ** (values_db / 10.0))))


def check(out_dir: Path, expected: dict) -> Outcome:
    """Checks one output directory against the settings the benchmark wrote.

    ``expected`` maps config keys to the values the benchmark asked for;
    each must appear unchanged in summary.json's config.
    """
    try:
        out = load(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return Outcome(problems=[f"unreadable output: {exc}"])
    problems = []
    for key, value in expected.items():
        if out.config.get(key) != value:
            problems.append(f"summary config {key}={out.config.get(key)!r}, asked {value!r}")
    runs = int(out.summary["num_runs"])
    diverged = int(out.summary["num_diverged"])
    L, n_fine = int(out.config["L"]), out.n_fine
    outcome = Outcome(runs=runs, diverged=diverged, problems=problems)

    run_ids = np.repeat(np.arange(runs), n_fine)
    if out.esnr.shape[0] != runs * n_fine or np.any(out.esnr[:, 0] != run_ids):
        problems.append(f"esnr.csv has {out.esnr.shape[0]} rows, expected {runs * n_fine} in run order")
    if out.paths.shape[0] != runs * n_fine * L or np.any(out.paths[:, 0] != np.repeat(run_ids, L)):
        problems.append(f"paths.csv has {out.paths.shape[0]} rows, expected {runs * n_fine * L} in run order")
    if problems:
        return outcome

    esnr = out.esnr.reshape(runs, n_fine, -1)
    broken = ~np.all(np.isfinite(esnr[:, :, 2:]), axis=(1, 2))
    if int(broken.sum()) != diverged:
        problems.append(
            f"{int(broken.sum())} runs hold NaN or infinite values, summary.json says {diverged} diverged"
        )
    clean = esnr[~broken]
    if np.any(clean[:, :, 2:4] > LOSS_TOLERANCE_DB):
        worst = float(np.max(clean[:, :, 2:4]))
        problems.append(f"a loss of {worst:.3e} dB exceeds 0 dB")
    sounding = clean[:, :: out.per_obs, 4]
    if np.any(sounding != 0.0):
        problems.append("pred_gain_db is not exactly 0 at a sounding instant")
    arms = out.summary["arms"]
    for arm, column, key in (
        ("tracked", 2, "median_loss_db"),
        ("one_shot", 3, "median_loss_db"),
        ("predicted", 4, "median_gain_db"),
    ):
        if not len(clean):
            break
        own = _db_median(clean[:, :, column].ravel())
        reported = arms[arm][key]
        if not abs(own - reported) <= MEDIAN_TOLERANCE_DB:
            problems.append(f"summary {arm} {key} {reported!r} but esnr.csv gives {own!r}")
    if not problems and len(clean):
        paths = out.paths.reshape(runs, n_fine, L, -1)[~broken]
        outcome.accuracy = accuracy(clean, paths, out)
    return outcome


def accuracy(esnr: np.ndarray, paths: np.ndarray, out: Output) -> dict:
    """Tracking-quality figures of the clean runs (reported, not checked).

    ``esnr`` is (runs, n_fine, 5) and ``paths`` (runs, n_fine, L, 7).
    """
    cfg = out.config
    times = esnr[0, :, 1]
    second_half = times >= cfg["frame_length"] / 2.0
    tx_error = np.abs(paths[:, :, :, 4] - paths[:, :, :, 3])
    after_first = times >= cfg["T_S"]
    between = np.arange(out.n_fine) % out.per_obs != 0
    spread = math.sqrt(cfg["init_pos_var"])
    gain = esnr[:, between, 4]
    return {
        "position_error_median": float(np.median(tx_error[:, second_half])),
        "initial_spread": spread,
        "tracked_db": _db_median(esnr[:, after_first, 2].ravel()),
        "one_shot_db": _db_median(esnr[:, after_first, 3].ravel()),
        "prediction_gain_median": float(np.median(10.0 ** (gain / 10.0))) if gain.size else None,
        "lost_paths": int(np.sum(tx_error[:, -1] > spread)),
        "paths": int(tx_error.shape[0] * tx_error.shape[2]),
    }
