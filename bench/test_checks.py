"""The benchmark's output checks accept real output and reject corrupted output.

A small batch is simulated once; each test corrupts a copy of its files.
"""

import json
import math
import shutil

import numpy as np
import pytest

import checks
from beamtrack.cli import cmd_simulate

SETTINGS = {
    "L": 1,
    "M_T": 4,
    "M_R": 4,
    "N_T": 2,
    "N_R": 2,
    "fine_step": 2.5e-5,
    "frame_length": 5e-4,
    "num_runs": 2,
    "seed": 3,
}
EXPECTED = {"fine_step": 2.5e-5, "frame_length": 5e-4, "num_runs": 2, "seed": 3}
N_FINE = 20


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("simulated")
    overrides = [f"{key}={value}" for key, value in SETTINGS.items()]
    overrides.append(f"output_dir={out_dir}")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("BEAMTRACK_THREADS", "1")
        assert cmd_simulate(None, overrides) == 0
    return out_dir


@pytest.fixture
def output(simulated, tmp_path):
    out_dir = tmp_path / "out"
    shutil.copytree(simulated, out_dir)
    return out_dir


def _edit_rows(path, edit):
    """Rewrites a CSV after edit(rows), rows being its data lines split on commas."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    rows = edit(rows)
    path.write_text("\n".join(lines[:2] + [",".join(row) for row in rows]) + "\n")


def _edit_summary(path, edit):
    summary = json.loads(path.read_text())
    edit(summary)
    path.write_text(json.dumps(summary))


def _problems(out_dir):
    return checks.check(out_dir, EXPECTED).problems


def test_real_output_passes(output):
    outcome = checks.check(output, EXPECTED)
    assert outcome.problems == []
    assert (outcome.runs, outcome.diverged) == (2, 0)
    assert set(outcome.accuracy) >= {"position_error_median", "tracked_db", "lost_paths"}


def test_loss_above_zero_db_is_rejected(output):
    def edit(rows):
        rows[7][2] = "5.0000000000e-01"
        return rows

    _edit_rows(output / "esnr.csv", edit)
    assert any("exceeds 0 dB" in p for p in _problems(output))


@pytest.mark.parametrize("name", ["esnr.csv", "paths.csv"])
def test_missing_rows_are_rejected(output, name):
    _edit_rows(output / name, lambda rows: rows[:-1])
    assert any(f"{name} has" in p for p in _problems(output))


def test_nan_is_rejected(output):
    def edit(rows):
        rows[3][3] = "nan"
        return rows

    _edit_rows(output / "esnr.csv", edit)
    assert any("NaN" in p for p in _problems(output))


def test_disagreeing_summary_median_is_rejected(output):
    def edit(summary):
        summary["arms"]["one_shot"]["median_loss_db"] += 1e-3

    _edit_summary(output / "summary.json", edit)
    assert any("summary one_shot" in p for p in _problems(output))


def test_nonzero_prediction_gain_at_a_sounding_is_rejected(output):
    def edit(rows):
        rows[N_FINE][4] = "1.0000000000e-06"  # first row of run 1, a sounding
        return rows

    _edit_rows(output / "esnr.csv", edit)
    assert any("pred_gain_db" in p for p in _problems(output))


def test_wrong_schema_line_is_rejected(output):
    path = output / "paths.csv"
    path.write_text(path.read_text().replace(checks.CSV_SCHEMA, "# beamtrack-csv v0", 1))
    assert any("schema" in p for p in _problems(output))


def test_config_other_than_asked_is_rejected(output):
    assert checks.check(output, {**EXPECTED, "num_runs": 3}).problems


def test_diverged_run_counts_as_failed(output):
    """A run cut short by divergence: NaN rows, num_diverged, clean-run medians."""
    kept = {}

    def edit(rows):
        for row in rows[N_FINE + 5 :]:
            row[2:] = ["nan"] * 3
        kept["esnr"] = np.array(rows[:N_FINE], dtype=float)
        return rows

    _edit_rows(output / "esnr.csv", edit)

    def edit_summary(summary):
        summary["num_diverged"] = 1
        for arm, column, key in (
            ("tracked", 2, "median_loss_db"),
            ("one_shot", 3, "median_loss_db"),
            ("predicted", 4, "median_gain_db"),
        ):
            linear = 10.0 ** (kept["esnr"][:, column] / 10.0)
            summary["arms"][arm][key] = 10.0 * math.log10(np.median(linear))

    _edit_summary(output / "summary.json", edit_summary)
    outcome = checks.check(output, EXPECTED)
    assert outcome.problems == []
    assert (outcome.runs, outcome.diverged) == (2, 1)
    assert outcome.accuracy["paths"] == 1
