import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import beamspace_noma
import oracles
from beamspace_noma import (BeamGrouping, ChannelParams, LinkBudget, LinkGains, OptimizerConfig,
                            PowerModel, Precoder, PrecodingError, SystemConfig,
                            beamspace_mimo_single_user_batch, build_config,
                            equivalent_channel_strongest, equivalent_channel_svd,
                            lens_transform_matrix, load_config_file, make_equivalent,
                            proposition1_check, run_trial, sample_realization, sum_rate, sweep,
                            to_beamspace, trial_rng)
from beamspace_noma.cli import main as cli_main
from beamspace_noma.config import parse_int_list, parse_snr_spec
from beamspace_noma.runner import (CSV_COLUMNS, ExperimentRecord, summarize, trial_link,
                                    write_csv)


def _small_config(tmp_path, **kw):
    base = dict(n_antennas=16, n_users=4, trials=3, seed=5, snr_db=[10.0],
                out=str(tmp_path / "run"), max_iters=5)
    base.update(kw)
    return SystemConfig(**base)


def test_run_trial_single_record(tmp_path):
    config = _small_config(tmp_path, schemes=["noma"], trials=1)
    records = run_trial(config, 0)
    assert len(records) == 1
    rec = records[0]
    assert rec.scheme == "noma" and rec.k == 4 and not rec.dropped
    assert rec.n_rf >= 1 and math.isfinite(rec.sum_rate)


def _record_draws(monkeypatch):
    """Collect every channel matrix `run_trial` draws."""
    from beamspace_noma import runner

    draws = []
    real_sample = runner.sample_realization

    def sample(params, rng):
        realization = real_sample(params, rng)
        draws.append(realization.matrix.copy())
        return realization

    monkeypatch.setattr(runner, "sample_realization", sample)
    return draws


def test_run_trial_is_deterministic(tmp_path, monkeypatch):
    config = _small_config(tmp_path)
    draws = _record_draws(monkeypatch)
    a = run_trial(config, 2)
    b = run_trial(config, 2)
    assert [r.__dict__ for r in a] == [r.__dict__ for r in b]
    run_trial(config, 3)
    assert len(draws) == 3
    assert draws[0].tobytes() == draws[1].tobytes()
    assert not np.array_equal(draws[0], draws[2])


def test_run_trial_cartesian_count(tmp_path, monkeypatch):
    config = _small_config(tmp_path, snr_db=[0.0, 10.0, 20.0])
    draws = _record_draws(monkeypatch)
    records = run_trial(config, 0)
    assert len(records) == 12  # 4 schemes x 3 SNR points
    assert len(draws) == 1  # paired sampling: one realization serves every record


def test_sweep_snr_csv_schema_and_summary(tmp_path):
    config = _small_config(tmp_path, snr_db=[5.0, 15.0])
    result = sweep(config, "snr")
    with open(result.csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) - 1 == 2 * 4 * 3  # snr x schemes x trials
    # summary must be recomputable from the raw CSV to 1e-12
    by_cell = {}
    for row in rows[1:]:
        rec = dict(zip(CSV_COLUMNS, row))
        if rec["dropped"] == "1":
            continue
        key = (float(rec["snr_db"]), int(rec["k"]), rec["scheme"])
        by_cell.setdefault(key, []).append(
            (float(rec["sum_rate_bpshz"]), float(rec["energy_eff_bpshzw"])))
    summary = json.load(open(result.json_path))["summary"]
    assert len(summary) == 2 * 4
    for cell in summary:
        vals = by_cell[(cell["snr_db"], cell["k"], cell["scheme"])]
        se = np.array([v[0] for v in vals])
        ee = np.array([v[1] for v in vals])
        assert cell["mean_se"] == pytest.approx(se.mean(), abs=1e-12)
        assert cell["stderr_se"] == pytest.approx(se.std(ddof=1) / math.sqrt(len(se)), abs=1e-12)
        assert cell["mean_ee"] == pytest.approx(ee.mean(), abs=1e-12)
        assert cell["dropped"] == 0 and cell["trials"] == 3


def test_sweep_users_mode(tmp_path):
    config = _small_config(tmp_path, users_sweep=[2, 4, 6], schemes=["noma", "oma"])
    result = sweep(config, "users")
    ks = sorted({cell["k"] for cell in result.summary})
    assert ks == [2, 4, 6]
    for scheme in ("noma", "oma"):
        assert sum(cell["scheme"] == scheme for cell in result.summary) == 3


def test_sweep_convergence_mode(tmp_path):
    config = _small_config(tmp_path, schemes=["noma"], max_iters=7)
    result = sweep(config, "convergence")
    payload = json.load(open(result.json_path))
    trace = payload["convergence_trace"]
    assert len(trace) == 7
    assert np.all(np.diff(trace) >= -1e-8)


def test_sweep_fairness_mode(tmp_path):
    config = _small_config(tmp_path, n_antennas=32, n_users=6, schemes=["noma"],
                           snr_db=[20.0], min_rate=1.0, max_iters=20, trials=4)
    result = sweep(config, "fairness")
    payload = json.load(open(result.json_path))
    assert payload["min_rate"] == 1.0
    entries = payload["fairness"]
    assert entries
    for entry in entries:
        if entry["feasible"]:
            assert min(entry["user_rates"]) >= 1.0 - 1e-6


def test_sweep_is_byte_deterministic(tmp_path):
    config_a = _small_config(tmp_path, out=str(tmp_path / "a"))
    config_b = _small_config(tmp_path, out=str(tmp_path / "b"))
    ra = sweep(config_a, "snr")
    rb = sweep(config_b, "snr")
    assert open(ra.csv_path, "rb").read() == open(rb.csv_path, "rb").read()


def test_worker_pool_matches_sequential(tmp_path):
    # one pool serves every trial of every user-count cell in a users sweep
    for mode, kw in [("snr", {}), ("users", {"users_sweep": [2, 4], "trials": 2})]:
        seq = sweep(_small_config(tmp_path, out=str(tmp_path / f"{mode}-seq"), **kw), mode)
        par = sweep(_small_config(tmp_path, out=str(tmp_path / f"{mode}-par"), workers=2, **kw),
                    mode)
        assert open(seq.csv_path, "rb").read() == open(par.csv_path, "rb").read()
        assert open(seq.json_path, "rb").read() == open(par.json_path, "rb").read()


def test_cli_import_leaves_out_the_process_pool():
    # only a run with workers > 1 loads concurrent.futures.process and multiprocessing
    src = os.path.dirname(os.path.dirname(beamspace_noma.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, beamspace_noma.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


def _assert_json_is_reference(result, config, mode):
    want = json.dumps(oracles.reference_payload(config, mode, result.records, result.summary),
                      indent=2) + "\n"
    with open(result.json_path, encoding="utf-8") as fh:
        assert fh.read() == want


@pytest.mark.parametrize("mode", ["snr", "users", "convergence", "fairness"])
def test_sweep_writes_the_reference_json_bytes(tmp_path, mode):
    # at 0 dB two of these four traces stagnate before max_iters and are padded
    config = _small_config(tmp_path, n_antennas=8, n_users=2, users_sweep=[1, 2], trials=4,
                           snr_db=[0.0, 10.0], max_iters=30,
                           min_rate=1.0 if mode == "fairness" else 0.0)
    result = sweep(config, mode)
    if mode == "convergence":
        lengths = [len(r.trace) for r in result.records if r.scheme == "noma"]
        assert min(lengths) < config.max_iters == max(lengths)
    _assert_json_is_reference(result, config, mode)


@pytest.mark.parametrize("failed_build", [True, False])
def test_convergence_json_without_a_kept_trace_has_no_trace_key(tmp_path, monkeypatch,
                                                                 failed_build):
    # every NOMA record drops, or none of the kept ones ran an iteration
    if failed_build:
        _count_link_builds(monkeypatch, PrecodingError("ill-conditioned link"))
    config = _small_config(tmp_path, schemes=["noma"], max_iters=5 if failed_build else 0)
    result = sweep(config, "convergence")
    assert all(rec.dropped is failed_build for rec in result.records)
    assert "convergence_trace" not in json.load(open(result.json_path))
    _assert_json_is_reference(result, config, "convergence")


@pytest.mark.parametrize("out", ["", "dir/", ".csv", "dir/.csv", ".", "dir/.."])
def test_config_rejects_an_out_that_names_no_file(tmp_path, out):
    with pytest.raises(ValueError, match=f"^out must name a file .* got {out!r}$"):
        _small_config(tmp_path, out=out)


@pytest.mark.parametrize("out, paths", [
    ("run", ("run.csv", "run.json")),
    ("dir/run.csv", ("dir/run.csv", "dir/run.json")),
    ("run.csv.csv", ("run.csv.csv", "run.csv.json")),
    ("run.json", ("run.json.csv", "run.json.json")),
])
def test_output_paths_drop_one_trailing_csv(tmp_path, out, paths):
    assert _small_config(tmp_path, out=out).output_paths() == paths


@pytest.mark.parametrize("argv, cfg_line", [
    (["--out="], None), (["--out", "dir/"], None), (["--out", ".csv"], None), ([], "out ="),
])
def test_cli_rejects_an_out_that_names_no_file(tmp_path, monkeypatch, capsys, argv, cfg_line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    earlier = {name: f"earlier {name}\n".encode() for name in (
        "results.csv", ".csv", ".json", "dir/.csv", "dir/.json")}
    for name, data in earlier.items():
        (tmp_path / name).write_bytes(data)
    if cfg_line is not None:
        (tmp_path / "run.cfg").write_text(cfg_line + "\n")
        argv = ["--config", "run.cfg"]
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["sweep-snr", "--trials", "1", "--snr", "10", "--schemes", "oma"] + argv)
    assert exit_info.value.code == 2
    assert "sim: error: out must name a file" in capsys.readouterr().err
    for name, data in earlier.items():
        assert (tmp_path / name).read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [".csv", ".json", "dir", "results.csv"] + ["run.cfg"] * (cfg_line is not None))
    assert sorted(p.name for p in (tmp_path / "dir").iterdir()) == [".csv", ".json"]


def test_unwritable_output_fails_before_running(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    config = _small_config(tmp_path, out=str(blocker / "sub" / "run"), trials=1000)
    with pytest.raises(OSError):
        sweep(config, "snr")


def test_cli_reports_an_out_under_a_plain_file(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["sweep-snr", "--trials", "1", "--snr", "10", "--schemes", "oma",
                  "--out", str(blocker / "run")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("sim: error:")]
    assert len(errors) == 1 and errors[0].startswith("sim: error: --out: ")
    assert str(blocker) in errors[0] and "Traceback" not in err
    assert blocker.read_text() == "x"
    assert list(tmp_path.iterdir()) == [blocker]


def test_summary_excludes_dropped_but_counts_them():
    recs = [
        ExperimentRecord(trial=0, seed=1, snr_db=10.0, scheme="noma", variant="strongest",
                         k=4, n_rf=3, sum_rate=8.0, energy_eff=2.0),
        ExperimentRecord(trial=1, seed=1, snr_db=10.0, scheme="noma", variant="strongest",
                         k=4, n_rf=0, sum_rate=math.nan, energy_eff=math.nan,
                         dropped=True, drop_reason="condition 3e12 exceeds 1e12"),
    ]
    cell = summarize(recs, ["noma"])[0]
    assert cell["trials"] == 2 and cell["dropped"] == 1
    assert cell["mean_se"] == 8.0 and cell["stderr_se"] == 0.0


def test_csv_sanitizes_drop_reason(tmp_path):
    rec = ExperimentRecord(trial=0, seed=1, snr_db=1.0, scheme="noma", variant="strongest",
                           k=2, n_rf=0, sum_rate=math.nan, energy_eff=math.nan,
                           dropped=True, drop_reason="bad, very bad")
    path = tmp_path / "drops.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_csv([rec], fh)
    rows = list(csv.reader(open(path, newline="")))
    assert rows[1][-1] == "bad; very bad"
    assert rows[1][CSV_COLUMNS.index("sum_rate_bpshz")] == "nan"


def test_parse_helpers():
    assert parse_snr_spec("0:30:10") == [0.0, 10.0, 20.0, 30.0]
    assert parse_snr_spec("5,7.5") == [5.0, 7.5]
    assert parse_int_list("8,16,32") == [8, 16, 32]
    with pytest.raises(ValueError):
        parse_snr_spec("0:30")
    with pytest.raises(ValueError):
        parse_snr_spec("0:30:-5")


def test_config_file_parsing_and_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# desk-scale run\n"
        "n_antennas = 16\n"
        "n_users = 4\n"
        "trials = 2\n"
        "snr_db = 0:20:10\n"
        "schemes = noma, oma\n"
        "variant = svd\n"
    )
    values = load_config_file(str(cfg))
    assert values["n_antennas"] == 16
    assert values["snr_db"] == [0.0, 10.0, 20.0]
    assert values["schemes"] == ["noma", "oma"]
    config = build_config(values, {"variant": "strongest", "seed": 9})
    assert config.variant == "strongest"  # CLI override beats the file
    assert config.seed == 9
    assert config.n_users == 4


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("antennas = 16\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_config_file(str(cfg))


def test_config_file_value_error_names_the_file_line_and_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_antennas = 16\ntrials = abc\n")
    with pytest.raises(ValueError) as err:
        load_config_file(str(cfg))
    assert str(err.value) == (f"{cfg}:2: bad value for 'trials': "
                              "invalid literal for int() with base 10: 'abc'")


@pytest.mark.parametrize("flag, spec, message", [
    ("--snr", "abc", "--snr: could not convert string to float: 'abc'"),
    ("--users", "8,x", "--users: invalid literal for int() with base 10: 'x'"),
])
def test_cli_value_error_names_the_flag(tmp_path, capsys, flag, spec, message):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["sweep-users", flag, spec, "--out", str(tmp_path / "run")])
    assert exit_info.value.code == 2
    assert f"sim: error: {message}\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "cli_run"
    code = cli_main(["sweep-snr", "--trials", "2", "--seed", "3", "--snr", "10",
                     "--schemes", "noma,oma", "--out", str(out)] + [
                     "--config", _write_cfg(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "noma" in printed and "wrote" in printed
    rows = list(csv.reader(open(str(out) + ".csv", newline="")))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) - 1 == 2 * 2


def _write_cfg(tmp_path):
    cfg = tmp_path / "cli.cfg"
    cfg.write_text("n_antennas = 16\nn_users = 4\nmax_iters = 5\n")
    return str(cfg)


def test_cli_fairness_defaults(tmp_path):
    out = tmp_path / "fair"
    code = cli_main(["fairness", "--trials", "1", "--seed", "2", "--out", str(out),
                     "--config", _write_cfg(tmp_path), "--iters", "10"])
    assert code == 0
    payload = json.load(open(str(out) + ".json"))
    assert payload["mode"] == "fairness"
    assert payload["min_rate"] == 1.0
    assert payload["summary"][0]["snr_db"] == 20.0


def _desk_cfg(tmp_path):
    cfg = tmp_path / "desk.cfg"
    cfg.write_text("n_antennas = 16\nn_users = 4\nmax_iters = 3\ntrials = 1\n")
    return str(cfg)


def test_cli_sweep_users_defaults(tmp_path):
    out = tmp_path / "users"
    code = cli_main(["sweep-users", "--users", "2,4", "--out", str(out),
                     "--config", _desk_cfg(tmp_path)])
    assert code == 0
    payload = json.load(open(str(out) + ".json"))
    assert payload["mode"] == "users"
    summary = payload["summary"]
    assert {cell["snr_db"] for cell in summary} == {10.0}
    assert sorted({cell["k"] for cell in summary}) == [2, 4]
    assert len(summary) == 2 * 4  # every scheme at both user counts


def test_cli_convergence_defaults(tmp_path):
    out = tmp_path / "conv"
    code = cli_main(["convergence", "--out", str(out), "--config", _desk_cfg(tmp_path)])
    assert code == 0
    payload = json.load(open(str(out) + ".json"))
    assert payload["mode"] == "convergence"
    assert [(cell["scheme"], cell["snr_db"]) for cell in payload["summary"]] == [("noma", 10.0)]
    trace = payload["convergence_trace"]
    assert len(trace) == 3 and all(math.isfinite(v) for v in trace)


def test_config_rejects_negative_antennas(tmp_path):
    with pytest.raises(ValueError, match="antennas"):
        _small_config(tmp_path, n_antennas=-3)


def test_config_rejects_nan_snr(tmp_path):
    with pytest.raises(ValueError, match="SNR points must be finite"):
        _small_config(tmp_path, snr_db=[10.0, math.nan])


def test_config_rejects_negative_seed(tmp_path):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        _small_config(tmp_path, seed=-1)


def test_config_rejects_nonpositive_power(tmp_path):
    with pytest.raises(ValueError, match="total power"):
        _small_config(tmp_path, total_power_mw=0.0)


def test_numpy_scalar_config_writes_the_csv_of_plain_numbers(tmp_path):
    common = dict(trials=1, schemes=["noma", "oma"])
    plain = _small_config(tmp_path, snr_db=[0.0, 10.0], total_power_mw=32.0,
                          out=str(tmp_path / "plain"), **common)
    scalars = _small_config(tmp_path, snr_db=list(np.arange(0.0, 11.0, 10.0)),
                            total_power_mw=np.float64(32.0), n_users=np.int64(4),
                            min_rate=np.float64(0.0), out=str(tmp_path / "numpy"), **common)
    assert [type(v) for v in scalars.snr_db] == [float, float]
    assert (type(scalars.total_power_mw), type(scalars.n_users)) == (float, int)
    want = open(sweep(plain, "snr").csv_path, "rb").read()
    got = open(sweep(scalars, "snr").csv_path, "rb").read()
    assert b"np." not in got
    assert got == want


@pytest.mark.parametrize("field, value", [
    ("trials", 2.5), ("seed", math.nan), ("n_users", np.float64(4.5)), ("users_sweep", [8, 16.5]),
])
def test_config_rejects_a_non_integral_int_field(tmp_path, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        _small_config(tmp_path, **{field: value})


@pytest.mark.parametrize("min_rate", [math.nan, math.inf, -math.inf, 1024.0, 2000.0])
def test_config_rejects_min_rate_without_a_finite_sinr_floor(tmp_path, min_rate):
    # 2**min_rate overflows from 1024 on; NaN and inf give no usable SINR floor
    with pytest.raises(ValueError, match="min_rate"):
        _small_config(tmp_path, min_rate=min_rate)
    assert _small_config(tmp_path, min_rate=1023.0).optimizer_config().rate_threshold < math.inf


@pytest.mark.parametrize("rmin", ["nan", "inf", "2000"])
def test_cli_rejects_bad_min_rate_before_touching_outputs(tmp_path, capsys, rmin):
    out = tmp_path / "fair"
    earlier = tmp_path / "fair.csv"
    earlier.write_bytes(b"earlier results\n")
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["fairness", "--trials", "1", "--seed", "2", "--rmin", rmin, "--out", str(out)])
    assert exit_info.value.code != 0
    assert "min_rate" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fair.csv"]
    assert earlier.read_bytes() == b"earlier results\n"


@pytest.mark.parametrize("scheme", ["beamspace_mimo", "fully_digital"])
def test_config_rejects_more_users_than_antennas(tmp_path, scheme):
    with pytest.raises(ValueError, match="n_users <= n_antennas"):
        _small_config(tmp_path, n_users=20, schemes=["noma", scheme])
    # NOMA and OMA share beams, so they take K > N
    assert _small_config(tmp_path, n_users=20, schemes=["noma", "oma"]).n_users == 20


def test_users_sweep_rejects_k_above_n_before_running(tmp_path):
    config = _small_config(tmp_path, users_sweep=[4, 20], schemes=["noma", "fully_digital"])
    with pytest.raises(ValueError, match="n_users <= n_antennas"):
        sweep(config, "users")
    assert list(tmp_path.iterdir()) == []


def test_failed_sweep_keeps_previous_outputs(tmp_path, monkeypatch):
    from beamspace_noma import runner

    config = _small_config(tmp_path, schemes=["noma"])
    first = sweep(config, "snr")
    before = {p: open(p, "rb").read() for p in (first.csv_path, first.json_path)}

    real_run_trial = runner.run_trial

    def failing_run_trial(cfg, trial_index):
        if trial_index == 1:
            raise RuntimeError("interrupted")
        return real_run_trial(cfg, trial_index)

    monkeypatch.setattr(runner, "run_trial", failing_run_trial)
    with pytest.raises(RuntimeError, match="interrupted"):
        sweep(_small_config(tmp_path, schemes=["noma"], seed=6), "snr")
    for path, data in before.items():
        assert open(path, "rb").read() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv", "run.json"]


def test_all_zero_user_channel_is_a_drop_not_an_abort(tmp_path, monkeypatch):
    from beamspace_noma import runner

    real_sample = runner.sample_realization

    def zero_user_one(params, rng):
        realization = real_sample(params, rng)
        realization.matrix[:, 1] = 0.0
        return realization

    config = _small_config(tmp_path, trials=2)
    monkeypatch.setattr(runner, "sample_realization", zero_user_one)
    result = sweep(config, "snr")
    assert len(result.records) == config.trials * len(config.schemes)
    for rec in result.records:
        assert rec.dropped and math.isnan(rec.sum_rate) and rec.n_rf == 0
        if rec.scheme in ("noma", "oma"):
            assert rec.drop_reason == "user 1 has an all-zero beamspace channel"
    assert all(cell["dropped"] == config.trials for cell in result.summary)
    with open(result.csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(result.records)
    assert {r["dropped"] for r in rows} == {"1"}


def _count_link_builds(monkeypatch, error=None):
    """Record every `build_noma_link` call `run_trial` makes; raise `error` in each."""
    from beamspace_noma import runner

    builds = []
    real_build = runner.build_noma_link

    def build(beamspace, variant):
        builds.append(variant)
        if error is not None:
            raise error
        return real_build(beamspace, variant)

    monkeypatch.setattr(runner, "build_noma_link", build)
    return builds


@pytest.mark.parametrize("schemes, builds_per_trial", [
    (["noma", "oma", "beamspace_mimo", "fully_digital"], 1),
    (["oma", "fully_digital", "noma"], 1),
    (["noma"], 1),
    (["oma"], 1),
    (["beamspace_mimo", "fully_digital"], 0),
])
def test_noma_link_is_built_once_per_trial_and_only_for_noma_or_oma(tmp_path, monkeypatch,
                                                                    schemes, builds_per_trial):
    from beamspace_noma import baselines, power

    builds = _count_link_builds(monkeypatch)
    calls = []  # the scheme of every batch call, in call order
    for module, name, scheme in [(power, "allocate_batch", "noma"),
                                 (baselines, "mimo_oma_batch", "oma"),
                                 (baselines, "beamspace_mimo_single_user_batch", "beamspace_mimo"),
                                 (baselines, "fully_digital_zf_batch", "fully_digital")]:
        def spy(*args, real=getattr(module, name), scheme=scheme):
            calls.append(scheme)
            return real(*args)
        monkeypatch.setattr(module, name, spy)
    config = _small_config(tmp_path, schemes=schemes, snr_db=[0.0, 10.0])
    for trial in range(3):
        assert not any(rec.dropped for rec in run_trial(config, trial))
    assert len(builds) == 3 * builds_per_trial
    assert calls == 3 * schemes


@pytest.mark.parametrize("schemes", [["noma", "oma", "beamspace_mimo", "fully_digital"],
                                     ["beamspace_mimo", "fully_digital"]])
def test_trial_link_draws_the_trial_realization_and_builds_only_for_noma_or_oma(tmp_path,
                                                                                 schemes):
    config = _small_config(tmp_path, schemes=schemes)
    lens = lens_transform_matrix(config.n_antennas)
    for trial in range(2):
        spatial, beamspace, link = trial_link(config, trial)
        want = sample_realization(config.channel_params(), trial_rng(config.seed, trial)).matrix
        assert spatial.tobytes() == want.tobytes()
        assert beamspace.tobytes() == to_beamspace(want, lens).tobytes()
        if "noma" in schemes:
            assert isinstance(link, LinkGains)
        else:
            assert link is None


def test_failed_link_build_drops_noma_and_oma_at_every_snr_point(tmp_path, monkeypatch):
    builds = _count_link_builds(monkeypatch, PrecodingError("ill-conditioned link"))
    config = _small_config(tmp_path, snr_db=[0.0, 10.0, 20.0])
    records = run_trial(config, 0)
    assert len(builds) == 1  # the failed build is the link NOMA and OMA both drop on
    assert [(r.snr_db, r.scheme) for r in records] == [
        (snr_db, scheme) for snr_db in config.snr_db for scheme in config.schemes]
    for rec in records:
        if rec.scheme in ("noma", "oma"):
            assert rec.dropped and rec.drop_reason == "ill-conditioned link"
            assert rec.n_rf == 0 and math.isnan(rec.sum_rate)
        else:
            assert not rec.dropped and math.isfinite(rec.sum_rate)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_drops_nan_sum_rates_at_200_db(tmp_path, capsys):
    # at 200 dB two of the four full-scale NOMA allocations end in NaN rates
    # and the other two pass through NaN iterates on the way, so all four are
    # drops; OMA on the same links keeps finite rates
    out = tmp_path / "snr200"
    code = cli_main(["sweep-snr", "--snr", "200", "--trials", "4", "--seed", "3",
                     "--schemes", "noma,oma", "--out", str(out)])
    assert code == 0
    noma_line, oma_line = capsys.readouterr().out.splitlines()[:2]
    assert "noma" in noma_line and "(4 trials, 4 dropped)" in noma_line
    assert "nan" not in oma_line and "(4 trials, 0 dropped)" in oma_line
    with open(tmp_path / "snr200.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    reasons = []
    for row in rows:
        if row["dropped"] == "1":
            reasons.append(row["drop_reason"])
        else:
            assert row["scheme"] == "oma"
            assert math.isfinite(float(row["sum_rate_bpshz"]))
            assert math.isfinite(float(row["energy_eff_bpshzw"]))
    assert sorted(reasons) == (["non-finite sum rate nan"] * 2
                               + ["non-finite sum rate nan at iteration 1"] * 2)
    noma_cell, oma_cell = json.load(open(tmp_path / "snr200.json"))["summary"]
    assert noma_cell["dropped"] == 4 and oma_cell["dropped"] == 0
    assert math.isfinite(oma_cell["mean_se"]) and math.isfinite(oma_cell["mean_ee"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("variant", ["strongest", "svd"])
def test_overflowing_gains_are_recorded_drops(variant):
    # the gains overflow at this LoS variance while every ZF certificate
    # passes, so the baselines' sum rates come out inf or NaN
    config = SystemConfig(n_antennas=16, n_users=4, seed=1, variant=variant,
                          los_variance=1e308, snr_db=[10.0])
    records = run_trial(config, 0)
    assert len(records) == len(config.schemes)
    for rec in records:
        if rec.dropped:
            assert rec.drop_reason and math.isnan(rec.sum_rate) and rec.n_rf == 0
        else:
            assert math.isfinite(rec.sum_rate) and math.isfinite(rec.energy_eff)
    by_scheme = {rec.scheme: rec for rec in records}
    for scheme in ("beamspace_mimo", "fully_digital") + (("oma",) * (variant == "strongest")):
        assert by_scheme[scheme].drop_reason.startswith("non-finite sum rate"), scheme
    for cell in summarize(records, config.schemes):
        if cell["dropped"] < cell["trials"]:
            assert math.isfinite(cell["mean_se"]) and math.isfinite(cell["mean_ee"])


@pytest.mark.parametrize("k", [8, 16, 32])
def test_users_sweep_noise_floor_scales_with_cell_user_count(k):
    config = SystemConfig(users_sweep=[8, 16, 32])
    budget = config.with_users(k).budget(10.0)
    assert budget.total_power_mw == config.total_power_mw
    assert budget.noise_mw == (config.total_power_mw / k) / 10.0


@pytest.mark.parametrize("make", [
    lambda v: ChannelParams(n_antennas=16, n_users=4, los_var=v),
    lambda v: ChannelParams(n_antennas=16, n_users=4, nlos_var=v),
    lambda v: PowerModel(rf_chain_mw=v),
    lambda v: PowerModel(switch_mw=v),
    lambda v: PowerModel(baseband_mw=v),
    lambda v: LinkBudget(noise_mw=v, total_power_mw=1.0),
    lambda v: LinkBudget(noise_mw=1.0, total_power_mw=v),
], ids=["los_var", "nlos_var", "rf_chain_mw", "switch_mw", "baseband_mw", "noise_mw",
        "total_power_mw"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_components_reject_non_finite_physical_inputs(make, value):
    with pytest.raises(ValueError, match="must be finite"):
        make(value)


@pytest.mark.parametrize("field, value", [
    ("los_variance", "nan"), ("los_variance", "inf"), ("nlos_variance", "nan"),
    ("nlos_variance", "inf"), ("total_power_mw", "inf"), ("total_power_mw", "nan"),
    ("rf_chain_mw", "nan"), ("switch_mw", "nan"), ("baseband_mw", "inf"),
])
def test_cli_rejects_non_finite_physical_inputs_before_touching_outputs(tmp_path, capsys,
                                                                         field, value):
    # each of these used to pass validation and then abort inside numpy or write
    # NaN (or 0.0) rates and energy efficiencies as kept records
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"n_antennas = 16\nn_users = 4\nsnr_db = 10\n{field} = {value}\n")
    earlier = tmp_path / "run.csv"
    earlier.write_bytes(b"earlier results\n")
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["sweep-snr", "--trials", "1", "--config", str(cfg),
                  "--out", str(tmp_path / "run")])
    assert exit_info.value.code == 2
    assert field in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "run.csv"]
    assert earlier.read_bytes() == b"earlier results\n"


@pytest.mark.parametrize("snr", ["4000", "-4000", "-3090"])
def test_cli_rejects_snr_without_a_finite_noise_power_before_touching_outputs(tmp_path, capsys,
                                                                              snr):
    # 10**(SNR/10) overflows at 4000 dB and underflows to 0 at -4000 dB; at
    # -3090 dB it is subnormal and the noise power (P/K)/SNR is inf. These used
    # to die in LinkBudget.from_snr or record SE 0.000 as a kept result.
    earlier = tmp_path / "run.csv"
    earlier.write_bytes(b"earlier results\n")
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["sweep-snr", "--snr", snr, "--trials", "1", "--out", str(tmp_path / "run")])
    assert exit_info.value.code == 2
    assert f"SNR {snr} dB" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv"]
    assert earlier.read_bytes() == b"earlier results\n"


@pytest.mark.parametrize("args, message", [
    (["sweep-snr", "--snr", "10", "--schemes", "oma,oma,fully_digital"],
     "schemes repeats ['oma']"),
    (["sweep-snr", "--snr", "10,10"], "snr_db repeats [10.0]"),
    (["sweep-snr", "--snr=-0.0,0"], "snr_db repeats [-0.0]"),
    (["sweep-users", "--users", "8,8"], "users_sweep repeats [8]"),
    (["sweep-snr", "--snr", "0:30:1e-10"], "has 300000000001 points; at most 1000"),
    (["sweep-snr", "--snr", "0:30:1e-4"], "has 300001 points; at most 1000"),
    (["sweep-snr", "--snr", "nan:30:5"], "must be finite"),
    (["sweep-snr", "--snr", "0:inf:5"], "must be finite"),
    # these exited 0 with a header-only CSV, or with an error naming no flag
    (["sweep-snr", "--schemes=,"],
     "sim: error: --schemes: expected at least one comma-separated entry, got ','\n"),
    (["sweep-users", "--users=,"],
     "sim: error: --users: expected at least one comma-separated entry, got ','\n"),
    (["sweep-snr", "--snr=5:0:1"],
     "sim: error: --snr: SNR range '5:0:1' runs down: stop 0 is below start 5\n"),
    # these ended in a traceback with status 1: the swept K = 300 exceeds the
    # default N = 256, and the config file cannot be read ({tmp} is tmp_path)
    (["sweep-users", "--users", "8,300"], "need n_users <= n_antennas"),
    (["sweep-snr", "--config", "{tmp}/missing.cfg"],
     "sim: error: --config: [Errno 2] No such file or directory: '{tmp}/missing.cfg'\n"),
    (["sweep-snr", "--config", "{tmp}"],
     "sim: error: --config: [Errno 21] Is a directory: '{tmp}'\n"),
    # the decode error used to name no file ({tmp}/bin.cfg holds the bytes ff fe)
    (["sweep-snr", "--config", "{tmp}/bin.cfg"],
     "sim: error: {tmp}/bin.cfg: not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
])
def test_cli_rejects_sweeps_it_cannot_count_before_touching_outputs(tmp_path, capsys, args,
                                                                    message):
    # repeats used to double their records and shrink the standard errors; a
    # tiny range step used to die in np.arange with an ArrayMemoryError
    earlier = tmp_path / "run.csv"
    earlier.write_bytes(b"earlier results\n")
    (tmp_path / "bin.cfg").write_bytes(b"\xff\xfe")
    with pytest.raises(SystemExit) as exit_info:
        cli_main([a.replace("{tmp}", str(tmp_path)) for a in args]
                 + ["--trials", "2", "--out", str(tmp_path / "run")])
    assert exit_info.value.code == 2
    assert message.replace("{tmp}", str(tmp_path)) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bin.cfg", "run.csv"]
    assert earlier.read_bytes() == b"earlier results\n"


@pytest.mark.parametrize("field, values", [
    ("schemes", ["oma", "noma", "oma"]),
    ("snr_db", [0.0, 10.0, -0.0]),
    ("users_sweep", [8, 16, 8]),
])
def test_config_rejects_repeated_sweep_entries(tmp_path, field, values):
    with pytest.raises(ValueError, match=f"^{field} repeats"):
        _small_config(tmp_path, **{field: values})


def test_snr_range_is_counted_before_it_is_built(monkeypatch):
    def no_arange(*args, **kwargs):
        raise AssertionError("np.arange called")

    assert len(parse_snr_spec("0:999:1")) == 1000
    monkeypatch.setattr(np, "arange", no_arange)
    with pytest.raises(ValueError, match="'0:1000:1' has 1001 points"):
        parse_snr_spec("0:1000:1")
    with pytest.raises(ValueError, match="has inf points"):
        parse_snr_spec("-1e308:1e308:1e-300")
    with pytest.raises(ValueError, match="must be finite"):
        parse_snr_spec("0:30:nan")


@pytest.mark.parametrize("field", ["snr_db", "users_sweep", "schemes"])
def test_config_rejects_an_empty_sweep_or_scheme_list(tmp_path, field):
    with pytest.raises(ValueError, match=f"^{field} must be non-empty"):
        _small_config(tmp_path, **{field: []})


@pytest.mark.parametrize("line, message", [
    ("users_sweep =",
     "bad value for 'users_sweep': expected at least one comma-separated entry, got ''"),
    ("schemes = ,",
     "bad value for 'schemes': expected at least one comma-separated entry, got ','"),
    ("snr_db = 5:0:1", "bad value for 'snr_db': SNR range '5:0:1' runs down: "
                       "stop 0 is below start 5"),
    # a repeated key used to keep its last value silently
    ("n_antennas = 8", "key 'n_antennas' repeats; line 1 sets it first"),
])
def test_config_file_rejects_an_empty_or_descending_sweep_naming_the_line(tmp_path, capsys,
                                                                          line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"n_antennas = 16\n{line}\n")
    earlier = tmp_path / "run.csv"
    earlier.write_bytes(b"earlier results\n")
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["sweep-users", "--trials", "1", "--config", str(cfg),
                  "--out", str(tmp_path / "run")])
    assert exit_info.value.code == 2
    assert f"sim: error: {cfg}:2: {message}\n" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "run.csv"]
    assert earlier.read_bytes() == b"earlier results\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("los_variance, iteration", [(1e250, 1), (1e200, 2)])
def test_noma_with_a_non_finite_iterate_is_a_recorded_drop(los_variance, iteration):
    # the traces were [nan, 0.0, 0.0, 0.0] and [1999.9, nan, 666.3, 666.3]:
    # the final sum rate is finite, but nothing after the NaN iterate holds
    config = SystemConfig(n_antennas=16, n_users=4, seed=1, los_variance=los_variance,
                          snr_db=[10.0])
    by_scheme = {rec.scheme: rec for rec in run_trial(config, 0)}
    noma = by_scheme.pop("noma")
    assert noma.dropped and math.isnan(noma.sum_rate) and noma.n_rf == 0
    assert noma.drop_reason == f"non-finite sum rate nan at iteration {iteration}"
    assert noma.trace is None
    assert not any(rec.dropped for rec in by_scheme.values())


def _one_user_link():
    grouping = BeamGrouping(beams=[np.array([0])], reduced=np.array([[1.0 + 0j]]),
                            selected=np.array([0]))
    return grouping, Precoder(matrix=np.eye(1, dtype=complex), zf_residual=0.0)


def _two_beams(beams):
    return BeamGrouping(beams=beams, reduced=np.eye(2, dtype=complex), selected=np.array([0, 1]))


def _load_line(line):
    with open("bad.cfg", "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    return load_config_file("bad.cfg")


_EMPTY_BEAM = [np.array([0, 1]), np.array([], dtype=int)]


@pytest.mark.parametrize("call, value, message", [
    (lambda v: ChannelParams(n_antennas=16, n_users=v), 0, "need at least 1 user"),
    (lambda v: ChannelParams(n_antennas=16, n_users=4, n_nlos=v), -1,
     "NLoS path count must be >= 0"),
    (lambda v: SystemConfig(trials=v), 0, "need at least one trial"),
    (lambda v: SystemConfig(users_sweep=v), [8, 0], "user sweep entries must be >= 1"),
    (lambda v: SystemConfig(schemes=v), ["noma", "nome"], "unknown schemes ['nome']"),
    (lambda v: SystemConfig(variant=v), "best", "unknown variant 'best'"),
    (lambda v: SystemConfig(workers=v), 0, "workers must be >= 1"),
    (_load_line, "n_users 4", "bad.cfg:1: expected 'key = value'"),
    (lambda v: build_config({}, v), {"n_user": 4}, "unknown config fields ['n_user']"),
    (lambda v: OptimizerConfig(max_iters=v), -1, "max_iters must be >= 0"),
    (lambda v: proposition1_check(1.0, v), [1.0, 0.0], "grid must be strictly positive"),
    (lambda v: LinkBudget.from_snr(32.0, 10.0, v), 0, "need at least 1 user"),
    (lambda v: sum_rate(*_one_user_link(), v, LinkBudget(1.0, 1.0)), np.ones(2),
     "expected 1 powers"),
    (lambda v: sweep(SystemConfig(), v), "sweep", "unknown sweep mode 'sweep'"),
    (lambda v: beamspace_mimo_single_user_batch(np.ones((2, v), dtype=complex),
                                                [LinkBudget(1.0, 1.0)]), 3,
     "needs K <= N, got K=3, N=2"),
    (lambda v: equivalent_channel_strongest(_two_beams(v)), _EMPTY_BEAM,
     "every beam must contain at least one user"),
    (lambda v: equivalent_channel_svd(_two_beams(v)), _EMPTY_BEAM,
     "every beam must contain at least one user"),
    (lambda v: make_equivalent(_two_beams([np.array([0]), np.array([1])]), v), "best",
     "unknown equivalent-channel variant 'best'"),
], ids=["channel_users", "channel_nlos", "trials", "users_sweep", "schemes", "variant",
        "workers", "config_line", "build_config", "max_iters", "proposition1_grid",
        "from_snr_users", "sum_rate_shape", "sweep_mode", "single_user_k_above_n",
        "strongest_empty_beam", "svd_empty_beam", "equivalent_variant"])
def test_input_checks_name_the_bad_value(tmp_path, monkeypatch, call, value, message):
    monkeypatch.chdir(tmp_path)  # where `_load_line` writes its file
    with pytest.raises(ValueError) as err:
        call(value)
    assert message in str(err.value)


# the components' own defaults are what the acceptance suite builds; the runs
# build them from SystemConfig's copies
@pytest.mark.parametrize("field, component, name", [
    ("n_nlos", ChannelParams, "n_nlos"),
    ("los_variance", ChannelParams, "los_var"),
    ("nlos_variance", ChannelParams, "nlos_var"),
    ("rf_chain_mw", PowerModel, "rf_chain_mw"),
    ("switch_mw", PowerModel, "switch_mw"),
    ("baseband_mw", PowerModel, "baseband_mw"),
    ("max_iters", OptimizerConfig, "max_iters"),
    ("min_rate", OptimizerConfig, "min_rate"),
])
def test_system_config_defaults_equal_the_component_defaults(field, component, name):
    defaults = {f.name: f.default for f in fields(component)}
    assert getattr(SystemConfig(), field) == defaults[name]
