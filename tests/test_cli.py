"""Data ingestion, experiment configs, file formats, and the four CLI
subcommands (run in-process through ``main``)."""

import dataclasses
import json
import math

import numpy as np
import pytest

import nansde as nd
from nansde import integrator, ioutil, training
from nansde.cli import (
    ingest_csv,
    load_checkpoint,
    load_experiment_config,
    main,
)
from nansde.errors import DataError, IngestError
from conftest import ell_values, positive_observed_path


def write_series_csv(path, values, times=None, header=None):
    lines = [] if header is None else [header]
    for i, v in enumerate(values):
        if times is None:
            lines.append(ioutil.fmt(v))
        else:
            lines.append(f"{ioutil.fmt(times[i])},{ioutil.fmt(v)}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def series_csv(tmp_path):
    observed = positive_observed_path(69, scale=0.05, seed=123)
    csv = tmp_path / "series.csv"
    write_series_csv(csv, observed.values)
    return csv, observed


def fast_config(csv, out_dir, **overrides):
    cfg = {
        "data": str(csv), "seed": 4, "out_dir": str(out_dir),
        "init_seed": 104, "m": 8, "max_iters": 3, "early_stop_patience": 3,
        "widths": [1, 3, 1], "eval_m": 8, "r2_pred": 8,
    }
    cfg.update(overrides)
    return {key: value for key, value in cfg.items() if value is not None}  # None drops a key


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def test_ingest_two_column_csv_with_header(tmp_path):
    values = 2.0 + np.sin(np.linspace(0.0, 3.0, 70))
    csv = tmp_path / "prices.csv"
    write_series_csv(csv, values, times=np.arange(70.0), header="day,price")
    ds = ingest_csv(csv)
    assert ds.name == "prices"
    assert np.array_equal(ds.path.values, values)  # positive: no shift
    assert ds.shift == 0.0
    # original timestamps are replaced by the model's uniform unit grid
    assert ds.path.grid == nd.unit_grid(69)
    assert ds.path.grid.dt == pytest.approx(1.0 / 69.0, rel=1e-15)

    # the time cell is still parsed and checked
    lines = csv.read_text().splitlines()
    lines[6] = "noon," + lines[6].split(",")[1]
    csv.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestError) as exc:
        ingest_csv(csv)
    assert exc.value.line == 7

    # and the times must increase: falling or repeated times are rejected
    write_series_csv(csv, values, times=np.arange(69.0, -1.0, -1.0), header="t,value")
    with pytest.raises(IngestError, match="line 3: time 68 is not above the previous") as exc:
        ingest_csv(csv)
    assert exc.value.line == 3
    times = np.arange(70.0)
    times[40] = times[39]
    write_series_csv(csv, values, times=times)
    with pytest.raises(IngestError) as exc:
        ingest_csv(csv)
    assert exc.value.line == 41

    # a header has no numeric cell: a malformed first data row is an error,
    # not a header whose point is dropped
    write_series_csv(csv, values, times=np.arange(70.0))
    lines = csv.read_text().splitlines()
    lines[0] = "0,1.0x"
    csv.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestError, match="line 1") as exc:
        ingest_csv(csv)
    assert exc.value.line == 1
    write_series_csv(csv, values, times=np.arange(70.0), header="t,value")
    assert np.array_equal(ingest_csv(csv).path.values, values)


@pytest.mark.parametrize("row, time", [(0, "-inf"), (0, "nan"), (0, "inf"), (69, "inf"),
                                       (30, "nan")])
def test_ingest_rejects_a_non_finite_time_on_its_own_line(tmp_path, row, time):
    # -inf first and inf last would pass the increasing-time check, and a
    # NaN or inf first time would be blamed on the line after it.
    csv = tmp_path / "prices.csv"
    write_series_csv(csv, 2.0 + np.sin(np.linspace(0.0, 3.0, 70)), times=np.arange(70.0),
                     header="t,value")
    lines = csv.read_text().splitlines()
    lines[row + 1] = f"{time}," + lines[row + 1].split(",")[1]
    csv.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestError, match=f"line {row + 2}: time {time} is not finite$") as exc:
        ingest_csv(csv)
    assert exc.value.line == row + 2


def test_ingest_warns_on_an_uneven_time_column(tmp_path):
    # Increasing but unevenly spaced times still give way to the uniform
    # grid, and the dataset says so; an even column, generate-fbm's k dt
    # column and a column with no times say nothing.
    values = 2.0 + np.sin(np.linspace(0.0, 3.0, 70))
    csv = tmp_path / "prices.csv"
    times = np.arange(70.0)
    times[40:] += 0.5
    write_series_csv(csv, values, times=times, header="t,value")
    ds = ingest_csv(csv)
    assert ds.path.grid == nd.unit_grid(69)
    # One step of 1.5 against a mean of 69.5 / 69: 0.489 of the mean off it.
    assert ds.warnings == (f"{csv}: time steps differ from their mean by up to 0.489 of it "
                           "(tolerance 1e-06); the series is placed on a uniform grid",)

    times[40:] -= 0.5 - 1e-5  # a relative gap of 1e-5 / 1 is still above 1e-6
    write_series_csv(csv, values, times=times)
    assert len(ingest_csv(csv).warnings) == 1
    times[40:] -= 1e-5 - 1e-7
    write_series_csv(csv, values, times=times)
    assert ingest_csv(csv).warnings == ()
    write_series_csv(csv, values)
    assert ingest_csv(csv).warnings == ()

    fbm = tmp_path / "fbm.csv"
    assert main(["generate-fbm", "--hurst", "0.3", "--n-steps", "3000", "--seed", "5",
                 "--out", str(fbm)]) == 0
    assert ingest_csv(fbm).warnings == ()


def test_ingest_single_column_and_shift(tmp_path):
    values = np.sin(np.linspace(0.0, 3.0, 70)) - 0.5  # dips below zero
    csv = tmp_path / "raw.csv"
    write_series_csv(csv, values)
    ds = ingest_csv(csv)
    assert ds.shift == 1.0 - values.min()
    assert np.all(ds.path.values > 0.0)
    assert ds.path.values.min() == pytest.approx(1.0, rel=1e-15)
    assert np.array_equal(ds.path.values, values + ds.shift)  # parsing is exact
    assert ds.path.values - ds.shift == pytest.approx(values, abs=1e-12)

    write_series_csv(csv, values, header="value")
    assert np.array_equal(ingest_csv(csv).path.values, ds.path.values)


def test_ingest_reports_malformed_line(tmp_path):
    values = [str(v) for v in np.linspace(1.0, 2.0, 70)]
    values[4] = "not-a-number"
    csv = tmp_path / "bad.csv"
    csv.write_text("\n".join(values) + "\n")
    with pytest.raises(IngestError) as exc:
        ingest_csv(csv)
    assert exc.value.line == 5

    values[4] = "1.0,2.0,3.0"
    csv.write_text("\n".join(values) + "\n")
    with pytest.raises(IngestError) as exc:
        ingest_csv(csv)
    assert exc.value.line == 5


def test_ingest_rejects_short_and_degenerate_files(tmp_path):
    csv = tmp_path / "short.csv"
    write_series_csv(csv, [1.0, 2.0, 3.0])
    with pytest.raises(DataError, match="too short"):
        ingest_csv(csv)

    csv.write_text("t,value\n")
    with pytest.raises(IngestError, match="only a header"):
        ingest_csv(csv)

    csv.write_text("")
    with pytest.raises(IngestError, match="no data"):
        ingest_csv(csv)

    values = list(np.linspace(1.0, 2.0, 70))
    values[10] = math.nan
    write_series_csv(csv, values)
    with pytest.raises(IngestError, match="non-finite"):
        ingest_csv(csv)

    with pytest.raises(IngestError, match="cannot read"):
        ingest_csv(tmp_path / "missing.csv")


# ---------------------------------------------------------------------------
# Experiment config
# ---------------------------------------------------------------------------


def test_config_defaults_and_seed_fallbacks(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"data": "d.csv", "seed": 11, "out_dir": "o"}))
    cfg = load_experiment_config(cfg_path)
    assert cfg.init_seed == 11 and cfg.eval_seed == 11
    assert cfg.widths == (1, 20, 1)
    assert cfg.train.m == 128 and cfg.train.max_iters == 1000
    assert cfg.clamp_ell2 is False
    assert cfg.train.seed == nd.NoiseSeed(11, 0)
    assert cfg.train.lr == 0.004


def test_config_rejects_unknown_and_missing_keys(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"data": "d", "seed": 1, "out_dir": "o",
                                    "learning_rate": 0.1}))
    with pytest.raises(DataError, match="learning_rate"):
        load_experiment_config(cfg_path)

    cfg_path.write_text(json.dumps({"data": "d", "seed": 1}))
    with pytest.raises(DataError, match="out_dir"):
        load_experiment_config(cfg_path)

    cfg_path.write_text("{not json")
    with pytest.raises(DataError, match="not valid JSON"):
        load_experiment_config(cfg_path)

    cfg_path.write_text(json.dumps({"data": "d", "seed": 1, "out_dir": "o",
                                    "widths": 20}))
    with pytest.raises(DataError, match="widths"):
        load_experiment_config(cfg_path)

    with pytest.raises(DataError, match="cannot read"):
        load_experiment_config(tmp_path / "missing.json")


@pytest.mark.parametrize("bad", [
    {"m": 1},
    {"m": "8"},
    {"max_iters": 50, "early_stop_patience": None},  # default patience 200 > 50
    {"lr": 0.0},
    {"kde_floor": -1.0},
    {"widths": [1, 0, 1]},
    {"eval_m": 0},
    {"eval_lags": -2},
    {"eval_bins": 1},
    {"r2_pred": 0},
    {"m": 8.5},
    {"seed": "x"},
    {"clamp_ell2": "yes"},
    {"lr": True},
    {"widths": [1, 2.7, 1]},
    {"lr": float("nan")},  # json.dumps writes NaN and Infinity, which JSON lacks
    {"kde_floor": float("inf")},
    {"widths": [1, 20, 3]},  # the state networks are scalar-in/scalar-out
    {"widths": [2, 20, 1]},
])
def test_bad_config_values_fail_before_any_work(tmp_path, series_csv, capsys, bad):
    csv, _ = series_csv
    out_dir = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fast_config(csv, out_dir, **bad)))
    with pytest.raises(DataError, match="config"):
        load_experiment_config(cfg_path)
    for command in ("train", "compare"):
        assert main([command, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config {cfg_path}: ")
        assert not out_dir.exists()


@pytest.mark.parametrize("key, number", [("kde_floor", "1e999"), ("lr", "1e999"),
                                         ("adam_eps", "-1e999")])
def test_an_overflowing_config_number_fails_before_any_work(tmp_path, series_csv, capsys,
                                                             key, number):
    # json.loads reads 1e999 as inf; it is no more a finite number than Infinity.
    csv, _ = series_csv
    out_dir = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    text = json.dumps(fast_config(csv, out_dir, **{key: 0.125}))
    cfg_path.write_text(text.replace(f'"{key}": 0.125', f'"{key}": {number}'))
    assert number in cfg_path.read_text()
    with pytest.raises(DataError, match=f"config .*: {number} is not a finite number"):
        load_experiment_config(cfg_path)
    for command in ("train", "compare"):
        assert main([command, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config {cfg_path}: ")
        assert not out_dir.exists()


@pytest.mark.parametrize("key", ["lr", "kde_floor"])
def test_a_config_integer_too_large_for_a_float_fails_before_any_work(tmp_path, series_csv,
                                                                       capsys, key):
    # json.loads reads 1 followed by 400 zeros as an exact int; a float key
    # would turn it into an OverflowError mid-training.
    csv, _ = series_csv
    out_dir = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    text = json.dumps(fast_config(csv, out_dir, **{key: 0.125}))
    cfg_path.write_text(text.replace(f'"{key}": 0.125', f'"{key}": 1{"0" * 400}'))
    with pytest.raises(DataError, match=f"config .*: {key} must be a finite number, "
                                        "got an integer of 401 digits$"):
        load_experiment_config(cfg_path)
    for command in ("train", "compare"):
        assert main([command, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config {cfg_path}: {key} ")
        assert not out_dir.exists()


# Every flat key of the config file with its default value.
DEFAULT_SETTINGS = {
    "widths": [1, 20, 1], "m": 128, "lr": 0.004, "max_iters": 1000,
    "early_stop_patience": 200, "kde_floor": 1e-12, "adam_beta1": 0.9,
    "adam_beta2": 0.999, "adam_eps": 1e-8, "clamp_ell2": False, "eval_m": 128,
    "eval_lags": 0, "eval_bins": 50, "r2_pred": 64,
}


def test_manifests_echo_every_flat_setting(tmp_path, series_csv, capsys):
    csv, _ = series_csv
    overrides = {"m": 8, "max_iters": 2, "early_stop_patience": 2, "widths": [1, 3, 1],
                 "eval_m": 8, "r2_pred": 8}
    expected = {**DEFAULT_SETTINGS, "data": str(csv), "seed": 4, "init_seed": 4,
                "eval_seed": 4, **overrides}
    cfg_path = tmp_path / "cfg.json"

    run_dir = tmp_path / "run"
    cfg_path.write_text(json.dumps({"data": str(csv), "seed": 4, "out_dir": str(run_dir),
                                    **overrides}))
    assert main(["train", "--config", str(cfg_path)]) == 0
    settings = json.loads((run_dir / "manifest.json").read_text())["settings"]
    assert len(settings) == 19
    assert settings == {**expected, "out_dir": str(run_dir)}

    cmp_dir = tmp_path / "cmp"
    cfg_path.write_text(json.dumps({"data": str(csv), "seed": 4, "out_dir": str(cmp_dir),
                                    **overrides}))
    assert main(["compare", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    top = json.loads((cmp_dir / "manifest.json").read_text())["settings"]
    assert top == {**expected, "out_dir": str(cmp_dir)}
    for label, clamp in (("nansde", False), ("sde", True)):
        leg = json.loads((cmp_dir / label / "manifest.json").read_text())["settings"]
        assert leg == {**expected, "out_dir": str(cmp_dir / label), "clamp_ell2": clamp}


# ---------------------------------------------------------------------------
# File format helpers
# ---------------------------------------------------------------------------


def test_fmt_round_trips_doubles():
    for x in (1.0 / 3.0, math.pi, 1e-300, -2.5e17, 0.1 + 0.2):
        assert float(ioutil.fmt(x)) == x


def test_atomic_write_creates_parents_and_leaves_no_temp(tmp_path):
    target = tmp_path / "deep" / "nested" / "out.txt"
    ioutil.atomic_write_text(target, "payload\n")
    assert target.read_text() == "payload\n"
    assert list(target.parent.glob("*.tmp")) == []


def test_loss_csv_tracks_running_minimum():
    # the capped row's lower loss is not a best: the column keeps 1
    records = [nd.IterationRecord(loss, 8, 8, False, False, 0) for loss in (3.0, 1.0, 2.0)]
    records.append(nd.IterationRecord(0.5, 5, 8, True, False, 0))
    text = ioutil.loss_csv_text(records)
    lines = text.splitlines()
    assert lines[0] == "iter,loss,best_loss"
    assert lines[1].startswith("0,3,")
    assert lines[2] == "1,1,1"
    assert lines[3] == "2,2,1"
    assert lines[4] == "3,0.5,1"


def test_detail_text_sorts_keys_and_formats_floats():
    text = ioutil.detail_text({"b": 0.5, "a": 3, "c": "run"})
    assert text == "a 3\nb 0.5\nc run\n"


# ---------------------------------------------------------------------------
# generate-fbm
# ---------------------------------------------------------------------------


def test_generate_fbm_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "fbm.csv"
    argv = ["generate-fbm", "--hurst", "0.2", "--n-steps", "100",
            "--n-paths", "3", "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    assert "wrote 3 path(s)" in capsys.readouterr().out

    lines = out.read_text().splitlines()
    assert lines[0] == "t,path_0,path_1,path_2"
    assert len(lines) == 102  # header + n_steps + 1 points
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert all(float(c) == 0.0 for c in first[1:])  # paths start at zero

    manifest = json.loads((tmp_path / "fbm.csv.manifest.json").read_text())
    assert manifest.keys() == {"format", "command", "settings"}
    assert manifest["format"] == "nansde-run v1"
    assert manifest["command"] == "generate-fbm"
    assert manifest["settings"] == {"hurst": 0.2, "n_steps": 100, "n_paths": 3, "seed": 5,
                                    "out": str(out)}

    # the written columns are exactly the library's fBm draws
    grid = nd.unit_grid(100)
    cfg = nd.FbmConfig(0.2, grid)
    col1 = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert np.array_equal(col1, nd.fbm_path(cfg, nd.NoiseSeed(5, 1)).values)

    before = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == before  # rerun is byte-identical


def test_generate_fbm_rejects_out_of_range_hurst(tmp_path):
    argv = ["generate-fbm", "--hurst", "1.5", "--seed", "0",
            "--out", str(tmp_path / "x.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_complete_artifacts(tmp_path, series_csv, capsys):
    csv, observed = series_csv
    run_dir = tmp_path / "run"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fast_config(csv, run_dir)))
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert "best loss" in capsys.readouterr().out

    for name in ("drift", "diffusion", "ell1", "ell2"):
        assert (run_dir / f"{name}.txt").exists()
    loss_lines = (run_dir / "loss.csv").read_text().splitlines()
    assert loss_lines[0] == "iter,loss,best_loss"
    assert len(loss_lines) == 4  # header + max_iters rows

    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["format"] == "nansde-run v1"
    assert manifest["command"] == "train"
    assert manifest["dataset"]["n_points"] == 70
    assert manifest["dataset"]["shift"] == "0"
    assert manifest["settings"]["seed"] == 4
    assert manifest["settings"]["widths"] == [1, 3, 1]
    assert manifest["model"]["clamp_ell2"] is False
    assert manifest["results"]["iterations"] == 3
    assert 0 <= manifest["results"]["best_iteration"] < 3
    assert manifest["results"]["best_loss"] == loss_lines[-1].split(",")[2]

    # the checkpoint reloads to exactly the model fit() would return
    ds = ingest_csv(csv)
    reloaded = load_checkpoint(run_dir, ds)
    cfg = load_experiment_config(cfg_path)
    best, _ = nd.fit(ds.path, cfg.train, cfg.init_seed,
                     widths=cfg.widths, clamp_ell2=cfg.clamp_ell2)
    for name in ("drift", "diffusion", "ell1", "ell2"):
        for a, b in zip(reloaded.net(name).arrays(), best.net(name).arrays()):
            assert np.array_equal(a, b)

    # rerunning into the same directory reproduces every byte
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    assert main(["train", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    after = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    assert after == before


def test_an_aborted_train_writes_its_best_so_far_artifacts(tmp_path, series_csv, capsys,
                                                          monkeypatch):
    # After two iterations the guard drops below every state, so iteration 2
    # has no usable path and aborts the fit.
    csv, _ = series_csv
    run_dir = tmp_path / "run"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fast_config(csv, run_dir, max_iters=5, early_stop_patience=5)))
    step = training.train_step

    def guarded_step(state, observed, cfg):
        if len(state.records) == 2:
            monkeypatch.setattr(integrator, "DIVERGENCE_GUARD", 1e-300)
        return step(state, observed, cfg)

    monkeypatch.setattr(training, "train_step", guarded_step)
    assert main(["train", "--config", str(cfg_path)]) == 1
    error = "iteration 2: only 0 of 8 generated paths usable (need at least 2)"
    assert capsys.readouterr().err == f"error: {error}\n"

    loss_lines = (run_dir / "loss.csv").read_text().splitlines()
    assert len(loss_lines) == 3  # header + the two finished iterations
    results = json.loads((run_dir / "manifest.json").read_text())["results"]
    assert results["status"] == "aborted" and results["error"] == error
    assert results["iterations"] == 2
    assert results["best_loss"] == loss_lines[1 + results["best_iteration"]].split(",")[1]

    # the checkpoint is the best model of the same two iterations run to the end
    monkeypatch.undo()
    ds = ingest_csv(csv)
    cfg = load_experiment_config(cfg_path)
    two = dataclasses.replace(cfg.train, max_iters=2, early_stop_patience=2)
    best, state = nd.fit(ds.path, two, cfg.init_seed, widths=cfg.widths)
    assert state.best_iteration == results["best_iteration"]
    reloaded = load_checkpoint(run_dir, ds)
    for name in ("drift", "diffusion", "ell1", "ell2"):
        for a, b in zip(reloaded.net(name).arrays(), best.net(name).arrays()):
            assert np.array_equal(a, b)


def test_load_checkpoint_rejects_incomplete_directories(tmp_path, series_csv):
    csv, _ = series_csv
    ds = ingest_csv(csv)
    with pytest.raises(DataError, match="manifest"):
        load_checkpoint(tmp_path / "nowhere", ds)

    run_dir = tmp_path / "broken"
    run_dir.mkdir()
    ioutil.write_manifest(run_dir / "manifest.json",
                          {"format": "nansde-run v1", "model": {"clamp_ell2": False}})
    with pytest.raises(DataError, match="drift"):
        load_checkpoint(run_dir, ds)

    ioutil.write_manifest(run_dir / "manifest.json", {"format": "other"})
    with pytest.raises(DataError, match="manifest format"):
        load_checkpoint(run_dir, ds)

    (run_dir / "manifest.json").write_text("{not json")
    with pytest.raises(DataError, match="not valid JSON"):
        load_checkpoint(run_dir, ds)

    for manifest in ({"format": "nansde-run v1"},
                     {"format": "nansde-run v1", "model": {"clamp_ell2": "yes"}}):
        ioutil.write_manifest(run_dir / "manifest.json", manifest)
        with pytest.raises(DataError, match="clamp_ell2 must be true or false"):
            load_checkpoint(run_dir, ds)


def _replace_line(path, index, text):
    lines = path.read_text().splitlines()
    lines[index] = text
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("damage, culprit, message", [
    (lambda d: _replace_line(d / "drift.txt", 2, "garbage"),
     "drift.txt", "checkpoint missing 'weight 0' at line 3"),
    (lambda d: (d / "ell1.txt").write_text(
        "\n".join((d / "ell1.txt").read_text().splitlines()[:4]) + "\n"),
     "ell1.txt", "checkpoint truncated in weight 0"),
    (lambda d: (d / "ell2.txt").write_text(nd.params_to_text(nd.init_params((1, 3, 2), 1))),
     None, "ell2 network must be scalar-in/scalar-out"),
    (lambda d: (d / "diffusion.txt").write_text(nd.params_to_text(nd.init_params((1, 5, 1), 1))),
     None, "drift and diffusion networks must have equal widths"),
    (lambda d: (d / "ell1.txt").write_text(nd.params_to_text(nd.init_params((1, 5, 1), 1))),
     "ell1.txt", "widths [1, 5, 1] differ from the manifest's model.widths [1, 3, 1]"),
    (lambda d: [(d / f"{name}.txt").write_text(nd.params_to_text(nd.init_params((1, 5, 1), 1)))
                for name in ("drift", "diffusion", "ell1", "ell2")],
     "drift.txt", "widths [1, 5, 1] differ from the manifest's model.widths [1, 3, 1]"),
])
def test_evaluate_reports_a_malformed_checkpoint_without_a_traceback(
        tmp_path, series_csv, capsys, damage, culprit, message):
    csv, _ = series_csv
    run_dir = tmp_path / "run"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fast_config(csv, run_dir, max_iters=1, early_stop_patience=1)))
    assert main(["train", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    damage(run_dir)
    rc = main(["evaluate", "--checkpoint", str(run_dir), "--data", str(csv),
               "--seed", "7", "--out", str(tmp_path / "ev")])
    assert rc == 1
    named = run_dir if culprit is None else run_dir / culprit
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: {message}") and err.count("\n") == 1
    assert not (tmp_path / "ev").exists()


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_writes_report_and_details(tmp_path, series_csv, capsys):
    csv, _ = series_csv
    run_dir = tmp_path / "run"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fast_config(csv, run_dir)))
    assert main(["train", "--config", str(cfg_path)]) == 0

    eval_dir = tmp_path / "ev"
    argv = ["evaluate", "--checkpoint", str(run_dir), "--data", str(csv),
            "--seed", "7", "--eval-m", "8", "--r2-pred", "8",
            "--out", str(eval_dir)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "hurst" in out and "tv" in out

    report_lines = (eval_dir / "report.csv").read_text().splitlines()
    assert report_lines[0] == (
        "model,hurst_mean,hurst_std,tv,acf,weighted_acf,r2,n_paths,n_lags,n_bins"
    )
    assert len(report_lines) == 2
    cells = report_lines[1].split(",")
    assert cells[0] == "run"
    assert 0.0 <= float(cells[3]) <= 1.0  # tv
    assert cells[7] == "8"  # n_paths
    assert cells[8] == str(nd.default_lag_count(69))
    assert cells[9] == "52"

    detail_lines = (eval_dir / "detail.txt").read_text().splitlines()
    keys = [line.split(" ")[0] for line in detail_lines]
    assert keys == sorted(keys)
    assert "hurst_median" in keys and "n_return_paths" in keys

    manifest = json.loads((eval_dir / "manifest.json").read_text())
    assert manifest.keys() == {"format", "command", "settings", "dataset", "warnings"}
    assert manifest["format"] == "nansde-run v1"
    assert manifest["command"] == "evaluate"
    settings = {"checkpoint": str(run_dir), "data": str(csv), "seed": 7, "eval_m": 8,
                "lags": 0, "bins": 50, "r2_pred": 8, "out": str(eval_dir)}
    assert manifest["settings"] == settings

    before = (eval_dir / "report.csv").read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert (eval_dir / "report.csv").read_bytes() == before

    # every flag left out is recorded at its default
    bare_dir = tmp_path / "bare"
    assert main(["evaluate", "--checkpoint", str(run_dir), "--data", str(csv),
                 "--seed", "7", "--out", str(bare_dir)]) == 0
    capsys.readouterr()
    bare = json.loads((bare_dir / "manifest.json").read_text())["settings"]
    assert bare == {**settings, "eval_m": 128, "r2_pred": 64, "out": str(bare_dir)}


def test_evaluate_records_its_dataset_and_warns_on_a_reanchor(tmp_path, series_csv, capsys):
    # load_checkpoint takes the grid and start value from the evaluated
    # series; the manifest says which series that was, and what differs
    # from the one the checkpoint was trained on.
    csv, observed = series_csv
    run_dir = tmp_path / "run"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fast_config(csv, run_dir, max_iters=1, early_stop_patience=1)))
    assert main(["train", "--config", str(cfg_path)]) == 0
    trained = json.loads((run_dir / "manifest.json").read_text())["dataset"]
    capsys.readouterr()

    def evaluate(data, name):
        argv = ["evaluate", "--checkpoint", str(run_dir), "--data", str(data), "--seed", "7",
                "--eval-m", "4", "--r2-pred", "4", "--out", str(tmp_path / name)]
        assert main(argv) == 0
        return json.loads((tmp_path / name / "manifest.json").read_text()), capsys.readouterr().err

    manifest, err = evaluate(csv, "same")
    assert manifest["dataset"] == trained
    assert manifest["warnings"] == [] and err == ""

    # Ten more points, shifted below zero: both n_points and shift differ.
    other = tmp_path / "other.csv"
    write_series_csv(other, np.concatenate([observed.values, observed.values[-10:]]) - 2.0)
    manifest, err = evaluate(other, "other")
    shift = ioutil.fmt(1.0 - (observed.values.min() - 2.0))
    assert manifest["dataset"] == {"name": "other", "n_points": 80, "shift": shift,
                                   "x0": ioutil.fmt(observed.values[0] - 2.0 + float(shift))}
    assert manifest["warnings"] == [
        "checkpoint trained on a series with n_points 70, evaluated on n_points 80",
        f"checkpoint trained on a series with shift 0, evaluated on shift {shift}",
    ]
    assert err == "".join(f"warning: {line}\n" for line in manifest["warnings"])

    # A checkpoint manifest without a dataset block gets only the new keys.
    written = json.loads((run_dir / "manifest.json").read_text())
    del written["dataset"]
    ioutil.write_manifest(run_dir / "manifest.json", written)
    manifest, err = evaluate(other, "bare")
    assert manifest["dataset"]["n_points"] == 80
    assert manifest["warnings"] == [] and err == ""


def test_evaluate_warns_on_an_aborted_fits_checkpoint(tmp_path, series_csv, capsys):
    # An aborted train leaves its best-so-far networks with "status":
    # "aborted" and the error in its manifest's results (the test above
    # writes one).  evaluate scores such a checkpoint, and says so first.
    csv, observed = series_csv
    run_dir = tmp_path / "run"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fast_config(csv, run_dir, max_iters=1, early_stop_patience=1)))
    assert main(["train", "--config", str(cfg_path)]) == 0
    error = "iteration 2: only 0 of 8 generated paths usable (need at least 2)"
    written = json.loads((run_dir / "manifest.json").read_text())
    written["results"].update(status="aborted", error=error)
    ioutil.write_manifest(run_dir / "manifest.json", written)
    other = tmp_path / "other.csv"
    write_series_csv(other, np.concatenate([observed.values, observed.values[-10:]]))
    capsys.readouterr()

    eval_dir = tmp_path / "ev"
    assert main(["evaluate", "--checkpoint", str(run_dir), "--data", str(other), "--seed", "7",
                 "--eval-m", "4", "--r2-pred", "4", "--out", str(eval_dir)]) == 0
    warnings = json.loads((eval_dir / "manifest.json").read_text())["warnings"]
    assert warnings == [
        f"checkpoint is an aborted fit's best so far: {error}",
        "checkpoint trained on a series with n_points 70, evaluated on n_points 80",
    ]
    assert capsys.readouterr().err == "".join(f"warning: {line}\n" for line in warnings)


def test_evaluate_checks_lags_against_the_series_before_any_work(tmp_path, series_csv, capsys):
    # The same bound as compare's eval_lags: 70 points score at most 67 lags.
    csv, _ = series_csv
    run_dir = tmp_path / "run"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fast_config(csv, run_dir, max_iters=1, early_stop_patience=1)))
    assert main(["train", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    eval_dir = tmp_path / "ev"
    argv = ["evaluate", "--checkpoint", str(run_dir), "--data", str(csv), "--seed", "7",
            "--eval-m", "4", "--r2-pred", "4", "--out", str(eval_dir)]
    assert main(argv + ["--lags", "68"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --lags 68 above the 67 lags a series of 70 points has\n"
    assert captured.out == ""
    assert not eval_dir.exists()

    assert main(argv + ["--lags", "67"]) == 0
    capsys.readouterr()
    assert (eval_dir / "report.csv").read_text().splitlines()[1].split(",")[8] == "67"


def test_cli_errors_exit_with_code_one(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "missing.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"data": str(tmp_path / "none.csv"),
                                    "seed": 1, "out_dir": str(tmp_path / "o")}))
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "error:" in capsys.readouterr().err

    rc = main(["evaluate", "--checkpoint", str(tmp_path / "nope"),
               "--data", str(tmp_path / "none.csv"), "--seed", "0",
               "--out", str(tmp_path / "ev")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    # evaluate's counts are checked as they are parsed
    for flag, value in (("--lags", "-2"), ("--bins", "1"), ("--eval-m", "0")):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--checkpoint", str(tmp_path / "nope"),
                  "--data", str(tmp_path / "none.csv"), "--seed", "0",
                  "--out", str(tmp_path / "ev"), flag, value])
        assert exc.value.code == 2
    assert not (tmp_path / "ev").exists()


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_trains_both_variants(tmp_path, series_csv, capsys):
    csv, _ = series_csv
    cmp_dir = tmp_path / "cmp"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fast_config(csv, cmp_dir)))
    assert main(["compare", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "nansde:" in out and "sde:" in out

    lines = (cmp_dir / "comparison.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "nansde"
    assert lines[2].split(",")[0] == "sde"

    nansde_manifest = json.loads((cmp_dir / "nansde" / "manifest.json").read_text())
    sde_manifest = json.loads((cmp_dir / "sde" / "manifest.json").read_text())
    assert nansde_manifest["settings"]["clamp_ell2"] is False
    assert sde_manifest["settings"]["clamp_ell2"] is True
    assert sde_manifest["model"]["clamp_ell2"] is True

    detail = (cmp_dir / "comparison_detail.txt").read_text().splitlines()
    assert any(line.startswith("nansde.hurst_median ") for line in detail)
    assert any(line.startswith("sde.hurst_median ") for line in detail)

    top = json.loads((cmp_dir / "manifest.json").read_text())
    assert top["command"] == "compare" and "results" not in top

    # the sde leg reloads with the clamp intact and zero kernel values
    ds = ingest_csv(csv)
    sde_model = load_checkpoint(cmp_dir / "sde", ds)
    assert sde_model.clamp_ell2 is True
    _, ell2 = ell_values(sde_model, ds.path.grid.step_times())
    assert np.array_equal(ell2, np.zeros(69))


def test_an_aborted_compare_leg_writes_a_top_level_record(tmp_path, series_csv, capsys,
                                                         monkeypatch):
    # The nansde leg finishes; the sde leg's fit aborts at its iteration 2,
    # after its guard drops below every state.  Both legs' own files exist,
    # there is no comparison, and the top-level manifest names the leg.
    csv, _ = series_csv
    cmp_dir = tmp_path / "cmp"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fast_config(csv, cmp_dir)))
    step = training.train_step

    def guarded_step(state, observed, cfg):
        if state.model.clamp_ell2 and len(state.records) == 2:
            monkeypatch.setattr(integrator, "DIVERGENCE_GUARD", 1e-300)
        return step(state, observed, cfg)

    monkeypatch.setattr(training, "train_step", guarded_step)
    assert main(["compare", "--config", str(cfg_path)]) == 1
    error = "iteration 2: only 0 of 8 generated paths usable (need at least 2)"
    assert capsys.readouterr().err == f"error: {error}\n"

    legs = {leg: json.loads((cmp_dir / leg / "manifest.json").read_text())["results"]
            for leg in ("nansde", "sde")}
    assert "status" not in legs["nansde"] and legs["sde"]["status"] == "aborted"
    assert not (cmp_dir / "comparison.csv").exists()
    top = json.loads((cmp_dir / "manifest.json").read_text())
    assert top["command"] == "compare"
    assert top["results"] == {"status": "aborted", "leg": "sde", "error": error}


def test_an_uneven_time_column_is_a_warning_in_every_manifest(tmp_path, series_csv, capsys):
    # train, each compare leg and evaluate print the ingestion warning and
    # put it first in their manifest's warnings; the even series of the
    # other tests leaves their manifests as they were.
    _, observed = series_csv
    csv = tmp_path / "uneven.csv"
    times = np.arange(70.0)
    times[40:] += 0.5
    write_series_csv(csv, observed.values, times=times)
    (warning,) = ingest_csv(csv).warnings
    run_dir, cmp_dir = tmp_path / "run", tmp_path / "cmp"
    for out_dir, command in ((run_dir, "train"), (cmp_dir, "compare")):
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(fast_config(csv, out_dir, max_iters=1,
                                                   early_stop_patience=1)))
        assert main([command, "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().err.startswith(f"warning: {warning}\n")
    for leg in (run_dir, cmp_dir / "nansde", cmp_dir / "sde"):
        assert json.loads((leg / "manifest.json").read_text())["results"]["warnings"][0] == warning

    assert main(["evaluate", "--checkpoint", str(run_dir), "--data", str(csv), "--seed", "7",
                 "--eval-m", "4", "--r2-pred", "4", "--out", str(tmp_path / "ev")]) == 0
    assert capsys.readouterr().err == f"warning: {warning}\n"
    assert json.loads((tmp_path / "ev" / "manifest.json").read_text())["warnings"] == [warning]


def test_compare_checks_eval_lags_against_the_series_before_training(
    tmp_path, series_csv, capsys
):
    # 70 points give 69 returns: at lag 68 each window holds one return,
    # so no series has a correlation there
    csv, _ = series_csv
    out_dir = tmp_path / "cmp"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fast_config(csv, out_dir, eval_lags=68)))
    assert main(["compare", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: config {cfg_path}: eval_lags 68 above the 67 lags a series of 70 points has\n"
    )
    assert not out_dir.exists()
