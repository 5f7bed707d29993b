"""Tests for the command-line front end: parsing, emission, exit codes."""

import io
import json
import os
import tracemalloc

import numpy as np
import pytest

from beamtrack import cli
from beamtrack.cli import (
    _EMIT_STEPS,
    CliConfig,
    _emit,
    _format_table,
    build_cli_config,
    cmd_selftest,
    cmd_simulate,
    load_cli_config,
    main,
    seed_checks,
)
from beamtrack.errors import BadConfig, ZeroChannel
from beamtrack.simulate import RunRecord, ScenarioConfig, aggregate_runs, run_frame, run_many

SMALL = [
    "L=1",
    "M_T=4",
    "M_R=4",
    "N_T=2",
    "N_R=2",
    "frame_length=5e-4",
    "fine_step=1e-5",
    "num_runs=2",
    "seed=7",
]


def small_overrides(out_dir, *extra):
    return SMALL + [f"output_dir={out_dir}", *extra]


class TestConfigParsing:
    def test_no_inputs_gives_defaults(self):
        cfg = load_cli_config(None)
        assert cfg == CliConfig()
        assert cfg.scenario == ScenarioConfig()

    def test_file_then_overrides_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed=3\nnum_runs=5\n")
        cfg = load_cli_config(str(cfg_file), ["num_runs=9"])
        assert cfg.scenario.seed == 3
        assert cfg.scenario.num_runs == 9

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# experiment\n\nseed=4\n  # trailing comment line\n")
        assert load_cli_config(str(cfg_file)).scenario.seed == 4

    def test_tuple_and_optional_fields(self):
        cfg = build_cli_config({"q_upsilon": "1e-3, 5.0"})
        assert cfg.scenario.q_upsilon == (1e-3, 5.0)

    def test_cli_keys(self):
        cfg = build_cli_config(
            {
                "output_dir": "out",
                "formats": "json",
                "arms": "tracked,predicted",
                "quantiles": "0.1,0.9",
            }
        )
        assert cfg.output_dir == "out"
        assert cfg.formats == ("json",)
        assert cfg.arms == ("tracked", "predicted")
        assert cfg.quantiles == (0.1, 0.9)

    def test_unknown_key_rejected(self):
        with pytest.raises(BadConfig):
            build_cli_config({"antennas": "16"})

    def test_bad_value_rejected(self):
        with pytest.raises(BadConfig):
            build_cli_config({"num_runs": "many"})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(BadConfig):
            load_cli_config(str(tmp_path / "absent.cfg"))

    def test_malformed_override_rejected(self):
        with pytest.raises(BadConfig):
            load_cli_config(None, ["seed"])

    def test_at_least_one_arm(self):
        with pytest.raises(BadConfig):
            CliConfig(arms=())

    def test_unknown_arm_and_format(self):
        with pytest.raises(BadConfig):
            CliConfig(arms=("sideways",))
        with pytest.raises(BadConfig):
            CliConfig(formats=("yaml",))
        with pytest.raises(BadConfig, match="more than once"):
            CliConfig(arms=("tracked", "predicted", "tracked"))
        with pytest.raises(BadConfig, match="more than once"):
            CliConfig(formats=("csv", "csv"))

    def test_quantiles_in_open_interval(self):
        with pytest.raises(BadConfig):
            CliConfig(quantiles=(0.5, 1.0))
        with pytest.raises(BadConfig, match="more than once"):
            CliConfig(quantiles=(0.5, 0.5, 0.25))


class TestValueConversion:
    """A key's text converts to the type of its default, whichever config holds it."""

    def test_str_default_takes_the_text(self, monkeypatch):
        monkeypatch.setitem(cli._DEFAULTS, "policy", "adaptive")
        assert cli._convert_value("policy", " random ") == "random"

    @pytest.mark.parametrize("default", [True, (), (1.0, "a"), [1.0]])
    def test_other_kinds_rejected(self, monkeypatch, default):
        monkeypatch.setitem(cli._DEFAULTS, "key", default)
        with pytest.raises(BadConfig, match="not settable"):
            cli._convert_value("key", "1")


class TestSimulateCommand:
    def test_success_writes_all_outputs(self, tmp_path):
        assert cmd_simulate(None, small_overrides(tmp_path)) == 0
        for name in ("paths.csv", "esnr.csv", "summary.json"):
            assert (tmp_path / name).exists()

    def test_csv_schema_header(self, tmp_path):
        cmd_simulate(None, small_overrides(tmp_path))
        for name in ("paths.csv", "esnr.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "# beamtrack-csv v1"
        header = (tmp_path / "paths.csv").read_text().splitlines()[1]
        assert header == "run,t_s,path,true_aod_v,est_aod_v,true_aoa_v,est_aoa_v"
        header = (tmp_path / "esnr.csv").read_text().splitlines()[1]
        assert header == "run,t_s,loss_tracked_db,loss_oneshot_db,pred_gain_db"

    def test_row_counts(self, tmp_path):
        cmd_simulate(None, small_overrides(tmp_path))
        n_fine, L, runs = 50, 1, 2
        paths = (tmp_path / "paths.csv").read_text().splitlines()
        assert len(paths) == 2 + runs * n_fine * L
        esnr = (tmp_path / "esnr.csv").read_text().splitlines()
        assert len(esnr) == 2 + runs * n_fine

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cmd_simulate(None, small_overrides(a)) == 0
        assert cmd_simulate(None, small_overrides(b)) == 0
        for name in ("paths.csv", "esnr.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_db_conversion_only_at_emission(self, tmp_path):
        cmd_simulate(None, small_overrides(tmp_path))
        cfg = load_cli_config(None, small_overrides(tmp_path))
        rec = run_frame(cfg.scenario, 0)
        table = np.loadtxt(tmp_path / "esnr.csv", delimiter=",", skiprows=2)
        run0 = table[table[:, 0] == 0]
        np.testing.assert_allclose(
            run0[:, 2], 10.0 * np.log10(rec.tracked_loss), rtol=1e-8
        )
        np.testing.assert_allclose(
            run0[:, 4], 10.0 * np.log10(rec.prediction_gain), rtol=1e-8
        )

    def test_paths_csv_matches_run_record(self, tmp_path):
        cmd_simulate(None, small_overrides(tmp_path))
        cfg = load_cli_config(None, small_overrides(tmp_path))
        rec = run_frame(cfg.scenario, 1)
        table = np.loadtxt(tmp_path / "paths.csv", delimiter=",", skiprows=2)
        run1 = table[table[:, 0] == 1]
        np.testing.assert_allclose(run1[:, 3], rec.true_tx.ravel(), rtol=1e-8)
        np.testing.assert_allclose(run1[:, 4], rec.est_tx.ravel(), rtol=1e-8)

    def test_arm_selection_drops_columns(self, tmp_path):
        cmd_simulate(None, small_overrides(tmp_path, "arms=tracked"))
        header = (tmp_path / "esnr.csv").read_text().splitlines()[1]
        assert header == "run,t_s,loss_tracked_db"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert list(summary["arms"]) == ["tracked"]

    def test_json_only_format(self, tmp_path):
        cmd_simulate(None, small_overrides(tmp_path, "formats=json"))
        assert not (tmp_path / "paths.csv").exists()
        assert not (tmp_path / "esnr.csv").exists()
        assert (tmp_path / "summary.json").exists()

    def test_summary_echoes_every_parameter(self, tmp_path):
        cmd_simulate(None, small_overrides(tmp_path))
        summary = json.loads((tmp_path / "summary.json").read_text())
        import dataclasses

        for field in dataclasses.fields(ScenarioConfig):
            assert field.name in summary["config"]
        for key in ("output_dir", "formats", "arms", "quantiles"):
            assert key in summary["config"]
        assert summary["config"]["seed"] == 7
        assert summary["seeds"] == [[7, 0], [7, 1]]

    @pytest.mark.parametrize("content", [None, b"L=2\n\xff\n"], ids=["absent", "not-utf8"])
    def test_unreadable_config_file_exits_1_with_no_output(self, tmp_path, capsys, content):
        config = tmp_path / "run.cfg"
        if content is not None:
            config.write_bytes(content)
        out = tmp_path / "results"
        code = cmd_simulate(str(config), [f"output_dir={out}"])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file") and err.count("\n") == 1

    def test_bad_override_exits_1(self, tmp_path, capsys):
        assert cmd_simulate(None, small_overrides(tmp_path, "L=zero")) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting",
        [
            "fine_step=nan",
            "T_S=inf",
            "rho_db=nan",
            "rho_db=1e10",
            "rho_db=160",
            "rho_db=300",
            "rho_db=-3090",
            "beta=1.5",
            "beta=1e-170",
            "q_upsilon=1,2,3",
            "d_over_lambda=0",
            "init_pos_var=inf",
            "sigma_vdot=nan",
            "seed=-1",
            "quantiles=0.5,0.5,0.25",
            "first_N_T=4",
        ],
    )
    def test_bad_scenario_value_exits_1_before_writing(self, tmp_path, capsys, setting):
        out = tmp_path / "results"
        assert cmd_simulate(None, SMALL + [f"output_dir={out}", setting]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unusable_output_dir_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = cmd_simulate(None, SMALL + [f"output_dir={blocker}/sub"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_all_runs_diverged_exits_2(self, tmp_path, capsys):
        code = cmd_simulate(
            None, small_overrides(tmp_path, "q_upsilon=1e30,1e30", "num_runs=1")
        )
        assert code == 2
        assert "diverged" in capsys.readouterr().err
        for name in ("paths.csv", "esnr.csv", "summary.json"):
            assert not (tmp_path / name).exists()

    def test_non_integer_thread_count_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BEAMTRACK_THREADS", "two")
        assert cmd_simulate(None, small_overrides(tmp_path)) == 2
        expected = "runtime error: BEAMTRACK_THREADS='two' is not an integer\n"
        assert capsys.readouterr().err == expected

    def test_main_dispatch(self, tmp_path):
        argv = ["simulate"] + [f"--set={kv}" for kv in small_overrides(tmp_path)]
        assert main(argv) == 0


class TestFormatTable:
    def test_bytes_equal_savetxt(self):
        rng = np.random.default_rng(5)
        n = 50
        data = np.column_stack(
            [
                np.repeat([0, 1], n // 2),
                np.arange(n) * 1e-5,
                np.tile(np.arange(5), n // 5),
                rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3)),
            ]
        )
        data[3, 3:] = np.nan  # a diverged run's rows
        data[4, 3] = -np.inf
        data[5, 4] = -0.0
        fmt = ["%d", "%.10e", "%d", "%.10e", "%.10e", "%.10e"]
        want = io.StringIO()
        np.savetxt(want, data, fmt=fmt, delimiter=",")
        assert _format_table(data, fmt) == want.getvalue()

    def test_repeated_values_keep_their_own_text(self):
        # Columns with few distinct values take the format-once path; 0.0
        # and -0.0 compare equal but print differently.
        held = np.array([0.0, -0.0, np.nan, -np.inf, 1.5e-7])
        data = np.column_stack(
            [np.repeat(held, 8), np.tile(held, 8), np.arange(40) * 0.25]
        )
        fmt = ["%.10e", "%.3f", "%d"]
        want = io.StringIO()
        np.savetxt(want, data, fmt=fmt, delimiter=",")
        assert _format_table(data, fmt) == want.getvalue()

    def test_empty_table(self):
        assert _format_table(np.zeros((0, 2)), ["%d", "%.10e"]) == ""


def synthetic_records(runs, n_fine, L, seed=0):
    """Clean run records with random trajectories, for emission tests."""
    rng = np.random.default_rng(seed)
    period = np.arange(n_fine) // 100  # 100 fine steps per sounding
    n_obs = period[-1] + 1
    return [
        RunRecord(
            times=np.arange(n_fine) * 1e-6,
            true_tx=rng.standard_normal((n_fine, L)),
            est_tx=rng.standard_normal((n_obs, L))[period],  # held over each period
            true_rx=rng.standard_normal((n_fine, L)),
            est_rx=rng.standard_normal((n_fine, L)),
            tracked_loss=rng.uniform(0.1, 1.0, n_fine),
            oneshot_loss=rng.uniform(0.1, 1.0, n_fine),
            prediction_gain=rng.uniform(0.5, 2.0, n_fine),
            obs_times=np.arange(n_obs) * 1e-4,
            trace_wr=rng.uniform(size=n_obs),
            innovation_norms=rng.uniform(size=n_obs),
        )
        for _ in range(runs)
    ]


class TestStreamedEmission:
    def test_bytes_equal_whole_table_text(self, tmp_path):
        n_fine, L = 2 * _EMIT_STEPS + 37, 2
        records = synthetic_records(3, n_fine, L)
        diverged = records[1]
        diverged.diverged = True
        for name in ("true_tx", "est_tx", "true_rx", "est_rx"):
            getattr(diverged, name)[n_fine - 500 :] = np.nan
        for name in ("tracked_loss", "oneshot_loss", "prediction_gain"):
            getattr(diverged, name)[n_fine - 500 :] = np.nan
        records[0].est_tx[_EMIT_STEPS - 5 : _EMIT_STEPS + 60] = -0.0
        records[2].tracked_loss[7] = 0.0  # -inf dB

        cfg = CliConfig(
            output_dir=str(tmp_path), formats=("csv",), arms=("tracked", "predicted")
        )
        summary = aggregate_runs(records, cfg.quantiles)
        assert _emit(cfg, records, summary) == ["paths.csv", "esnr.csv"]
        assert not (tmp_path / "summary.json").exists()

        def whole_file(columns, table, fmt):
            text = io.StringIO()
            text.write("# beamtrack-csv v1\n" + ",".join(columns) + "\n")
            np.savetxt(text, table, fmt=fmt, delimiter=",")
            return text.getvalue().encode()

        paths = np.vstack(
            [
                np.column_stack(
                    [
                        np.full(n_fine * L, run),
                        np.repeat(rec.times, L),
                        np.tile(np.arange(L), n_fine),
                        rec.true_tx.ravel(),
                        rec.est_tx.ravel(),
                        rec.true_rx.ravel(),
                        rec.est_rx.ravel(),
                    ]
                )
                for run, rec in enumerate(records)
            ]
        )
        columns = ["run", "t_s", "path", "true_aod_v", "est_aod_v"]
        columns += ["true_aoa_v", "est_aoa_v"]
        fmt = ["%d", "%.10e", "%d"] + ["%.10e"] * 4
        assert (tmp_path / "paths.csv").read_bytes() == whole_file(columns, paths, fmt)

        with np.errstate(divide="ignore"):
            esnr = np.vstack(
                [
                    np.column_stack(
                        [
                            np.full(n_fine, run),
                            rec.times,
                            10.0 * np.log10(rec.tracked_loss),
                            10.0 * np.log10(rec.prediction_gain),
                        ]
                    )
                    for run, rec in enumerate(records)
                ]
            )
        assert np.isneginf(esnr).sum() == 1
        columns = ["run", "t_s", "loss_tracked_db", "pred_gain_db"]
        fmt = ["%d"] + ["%.10e"] * 3
        assert (tmp_path / "esnr.csv").read_bytes() == whole_file(columns, esnr, fmt)

    def test_peak_memory_does_not_grow_with_batch(self, tmp_path):
        # Traced allocations only: the records and their summary exist before
        # tracing starts, and a first untraced call settles one-time costs
        # such as imports.
        small, large = synthetic_records(2, 2000, 4), synthetic_records(16, 2000, 4)
        (tmp_path / "warm").mkdir()
        warm = CliConfig(output_dir=str(tmp_path / "warm"))
        _emit(warm, small, aggregate_runs(small, warm.quantiles))
        peaks = []
        for name, records in (("small", small), ("large", large)):
            (tmp_path / name).mkdir()
            cfg = CliConfig(output_dir=str(tmp_path / name))
            summary = aggregate_runs(records, cfg.quantiles)
            tracemalloc.start()
            try:
                _emit(cfg, records, summary)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks


class TestSelftestCommand:
    def test_clean_build_passes(self, capsys):
        assert cmd_selftest() == 0
        out = capsys.readouterr().out
        assert "3/3 checks passed" in out
        assert "FAIL" not in out

    def test_injected_fault_detected(self, capsys):
        assert cmd_selftest(inject_fault=True) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_main_dispatch(self):
        assert main(["selftest"]) == 0
        assert main(["selftest", "--inject-fault"]) == 3


SWEEP = ["L=2", "M_T=8", "M_R=8", "N_T=3", "N_R=3", "fine_step=1e-5", "num_runs=2"]


class TestSweepCommand:
    def test_checks_are_the_acceptance_formulas(self):
        cfg = load_cli_config(None, SWEEP + ["seed=3"]).scenario
        records = run_many(cfg, max_workers=1)
        records[1].diverged = True  # left out of checks 6-8, counted for locking
        records[1].est_tx[-7:] = np.nan
        got = seed_checks(cfg, records)
        clean = records[:1]
        # Checks 6-8 as tests/test_acceptance.py writes them.
        late = [r.times >= 1e-3 for r in clean]
        error = np.concatenate(
            [np.abs(r.est_tx[t] - r.true_tx[t]).ravel() for r, t in zip(clean, late)]
        )
        tracked = np.concatenate([r.tracked_loss[r.times > 5e-4] for r in clean])
        oneshot = np.concatenate([r.oneshot_loss[r.times > 5e-4] for r in clean])
        per = cfg.steps_per_period
        gain = np.concatenate(
            [r.prediction_gain[np.arange(r.times.shape[0]) % per != 0] for r in clean]
        )
        assert got["check6"] == float(np.nanmedian(error))
        assert got["tracked_db"] == 10.0 * np.log10(np.nanmedian(tracked))
        assert got["oneshot_db"] == 10.0 * np.log10(np.nanmedian(oneshot))
        assert got["check8"] == float(np.nanmedian(gain))
        # Locked: within half a beamwidth, 1/M_T, at the last step with an estimate.
        last = [np.abs(records[0].est_tx[-1] - records[0].true_tx[-1]),
                np.abs(records[1].est_tx[-8] - records[1].true_tx[-8])]
        assert got["locked"] == int(np.sum(np.concatenate(last) < 1.0 / 8))
        assert (got["paths"], got["diverged"], got["seed"]) == (4, [1], 3)

    def test_prints_each_seed_and_the_means(self, capsys, monkeypatch):
        monkeypatch.setenv("BEAMTRACK_THREADS", "1")
        assert main(["sweep", "--seeds", "3-4", *(f"--set={s}" for s in SWEEP)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[1:4]] == ["3", "4", "mean"]
        assert lines[-1].startswith("sweep: 2 seeds")

    @pytest.mark.parametrize("seeds", ["4-3", "x", "-1", "1-"])
    def test_bad_seed_range_exits_1(self, seeds, capsys):
        assert main(["sweep", "--seeds", seeds]) == 1
        assert "seeds" in capsys.readouterr().err

    def test_bad_override_exits_1(self, capsys):
        assert main(["sweep", "--seeds", "0", "--set", "L=0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_runtime_error_stops_the_sweep_and_exits_2(self, capsys, monkeypatch):
        real_run_many = cli.run_many

        def run_many(cfg):
            if cfg.seed == 4:
                raise ZeroChannel("the true channel matrix is identically zero")
            return real_run_many(cfg, max_workers=1)

        monkeypatch.setattr(cli, "run_many", run_many)
        assert main(["sweep", "--seeds", "3-5", *(f"--set={s}" for s in SWEEP)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "runtime error at seed 4: the true channel matrix is identically zero"
        ]
        lines = captured.out.splitlines()
        assert [line.split()[0] for line in lines[1:]] == ["3"]
