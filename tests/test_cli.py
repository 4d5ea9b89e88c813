import contextlib
import csv
import fcntl
import hashlib
import json
import multiprocessing
import os
import random
import re
import resource
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from golden_cases import golden_ensemble

from swarmbc import errors
from swarmbc.cli import _resolve_method_params, build_parser, main
from swarmbc.data import load_dataset, save_dataset
from swarmbc.ensemble import METHOD_RULE, METHODS, TrainConfig, save_ensemble, train
from swarmbc.envs import generate_dataset, make_env
from swarmbc.errors import ConfigError
from swarmbc.harness import (CONFIG_KEYS, TRAIN_KEYS, ExperimentConfig, ResultsStore,
                             method_params, parse_config_text, read_results)
from swarmbc.metrics import rollouts, write_trajectory_csv
from swarmbc.theory import concentration_report, gaussian_grid_density


def run_cli(*args):
    return main([str(a) for a in args])


def test_gen_data_writes_jsonl_with_header(tmp_path, capsys):
    out = tmp_path / "data.jsonl"
    assert run_cli("gen-data", "--env", "point_reach", "--episodes", 1,
                   "--seed", 0, "--out", out) == 0
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header == {
        "env": "point_reach", "episodes": 1, "seed": 0,
        "obs_dim": 4, "action_dim": 2, "action_kind": "continuous",
    }
    rec = json.loads(lines[1])
    assert len(rec["s"]) == 4 and len(rec["a"]) == 2


def test_gen_data_refuses_overwrite(tmp_path, capsys):
    out = tmp_path / "data.jsonl"
    run_cli("gen-data", "--env", "point_reach", "--episodes", 1, "--out", out)
    before = out.read_bytes()
    assert run_cli("gen-data", "--env", "point_reach", "--episodes", 2,
                   "--out", out) == 1
    assert out.read_bytes() == before  # untouched
    assert run_cli("gen-data", "--env", "point_reach", "--episodes", 2,
                   "--out", out, "--force") == 0
    assert out.read_bytes() != before


def test_gen_data_header_records_episode_count(tmp_path):
    out = tmp_path / "d8.jsonl"
    run_cli("gen-data", "--env", "cart_balance", "--episodes", 8, "--out", out)
    header = json.loads(out.read_text().splitlines()[0])
    assert header["episodes"] == 8
    assert header["env"] == "cart_balance"


def test_usage_error_exits_1(capsys):
    # argparse-level rejections (bad choice) exit via SystemExit(1)
    with pytest.raises(SystemExit) as exc:
        run_cli("gen-data", "--env", "nonsense", "--out", "x")
    assert exc.value.code == 1


# exit code and stderr of each exception a command may raise: every class of
# swarmbc.errors, an OSError and Ctrl-C
EXITS = {
    "SwarmBCError": (1, "error: boom\n"),
    "DimensionMismatchError": (1, "error: boom\n"),
    "ConfigError": (1, "error: boom\n"),
    "EpisodeDoneError": (1, "error: boom\n"),
    "TrainingDivergedError": (2, "numerical failure: boom\n"),
    "DegenerateBaselineError": (2, "numerical failure: boom\n"),
    "TiedModeError": (2, "numerical failure: boom\n"),
    "OSError": (1, "error: boom\n"),
    "KeyboardInterrupt": (130, "interrupted; rerun the same command to resume\n"),
}
ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, Exception)]


@pytest.mark.parametrize("cls", [*ERROR_CLASSES, OSError, KeyboardInterrupt],
                         ids=lambda cls: cls.__name__)
def test_each_exception_a_command_raises_exits_with_its_code_and_one_line(monkeypatch, capsys,
                                                                          cls):
    def command(args):
        raise cls("boom", 0) if cls is errors.TrainingDivergedError else cls("boom")

    monkeypatch.setattr("swarmbc.cli.cmd_grad_check", command)
    code, err = EXITS[cls.__name__]
    assert run_cli("grad-check") == code
    assert capsys.readouterr().err == err


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "pr.jsonl"
    run_cli("gen-data", "--env", "point_reach", "--episodes", 1,
            "--seed", 3, "--out", path)
    return path


def test_train_rejects_bad_method_combos(small_dataset, tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run_cli("train", "--data", small_dataset, "--method", "swarm",
                   "--tau", 0.0, "--out", out) == 1
    assert "ensemble" in capsys.readouterr().err  # hint to use ensemble
    assert run_cli("train", "--data", small_dataset, "--method", "bc",
                   "--n", 3, "--out", out) == 1
    assert run_cli("train", "--data", small_dataset, "--method", "ensemble",
                   "--tau", 0.5, "--out", out) == 1
    assert not out.exists()


def test_train_eval_roundtrip(small_dataset, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert run_cli("train", "--data", small_dataset, "--method", "swarm",
                   "--seed", 1, "--out", model,
                   "--epochs", 10, "--hidden-dims", "8,8") == 0
    doc = json.loads(model.read_text())
    assert doc["tau"] == 0.25 and doc["n_members"] == 4  # defaults

    history = model.with_suffix(".history.csv")
    with open(history) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 10
    assert float(rows[-1]["total"]) < float(rows[0]["total"])

    out_dir = tmp_path / "eval"
    assert run_cli("eval", "--model", model, "--episodes", 2, "--seed", 5,
                   "--out", out_dir) == 0
    assert (out_dir / "traj_ep000.csv").exists()
    assert (out_dir / "traj_ep001.csv").exists()
    results = (out_dir / "eval_results.csv").read_text().splitlines()
    assert results[0] == "# schema=swarmbc.eval.v1"
    row = results[2].split(",")
    assert row[0] == "point_reach" and row[1] == "swarm"

    # deterministic: same invocation twice gives identical trajectory CSVs
    first = (out_dir / "traj_ep000.csv").read_bytes()
    out_dir2 = tmp_path / "eval2"
    run_cli("eval", "--model", model, "--episodes", 2, "--seed", 5,
            "--out", out_dir2)
    assert (out_dir2 / "traj_ep000.csv").read_bytes() == first


@pytest.mark.parametrize("env, sha256", [
    ("point_reach", "aa036b4986e1c9f6bf542881d458b762e5f9051698765a71ecfd7650f2608d99"),
    ("cart_balance", "2bff8838a57af5a4df69e176f679df839ebbab80a80bc51ca6181635b78a48db"),
], ids=["continuous", "discrete"])
def test_trained_model_file_bytes_are_pinned(tmp_path, capsys, env, sha256):
    data, model = tmp_path / "data.jsonl", tmp_path / "model.json"
    run_cli("gen-data", "--env", env, "--episodes", 1, "--seed", 3, "--out", data)
    assert run_cli("train", "--data", data, "--method", "swarm", "--seed", 1,
                   "--epochs", 5, "--hidden-dims", "5,4", "--out", model) == 0
    assert hashlib.sha256(model.read_bytes()).hexdigest() == sha256


def test_eval_expert_flag_scores_near_one(tmp_path, capsys):
    out_dir = tmp_path / "expert_eval"
    assert run_cli("eval", "--expert", "--env", "point_reach",
                   "--episodes", 10, "--seed", 2, "--out", out_dir) == 0
    text = capsys.readouterr().out
    mean = float(text.split("mean scaled return")[1].split()[0])
    assert abs(mean - 1.0) < 0.05


def test_eval_drops_torn_results_row_before_appending(tmp_path, capsys):
    out_dir = tmp_path / "eval"
    argv = ("eval", "--expert", "--env", "point_reach", "--episodes", 1, "--out", out_dir)
    assert run_cli(*argv) == 0
    path = out_dir / "eval_results.csv"
    one_row = path.read_bytes()
    path.write_bytes(one_row + b"point_reach,expert,0,0.")  # an append cut short
    with pytest.warns(RuntimeWarning, match="unterminated"):
        assert run_cli(*argv) == 0
    assert path.read_bytes() == one_row + one_row.splitlines(keepends=True)[-1]


def test_a_malformed_eval_row_exits_1_and_leaves_the_log_as_it_was(tmp_path, capsys):
    out_dir = tmp_path / "eval"
    argv = ("eval", "--expert", "--env", "point_reach", "--episodes", 1, "--out", out_dir)
    assert run_cli(*argv) == 0
    path = out_dir / "eval_results.csv"
    path.write_bytes(path.read_bytes() + b"garbage\n")
    log = path.read_bytes()
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "malformed row ['garbage']" in err
    assert err.count("\n") == 1
    assert path.read_bytes() == log


def test_an_eval_log_is_not_read_as_sweep_results(tmp_path, capsys):
    out_dir = tmp_path / "eval"
    assert run_cli("eval", "--expert", "--env", "point_reach", "--episodes", 1,
                   "--seed", 5, "--out", out_dir) == 0
    log = out_dir / "eval_results.csv"
    assert log.read_text().splitlines()[1].split(",")[5] == "master_seed"
    with pytest.raises(ConfigError, match="expected the preamble"):
        read_results(log)
    with pytest.raises(ConfigError, match="expected the preamble"):
        ResultsStore(log)

    cfg_path, sweep_dir = tmp_path / "sweep.cfg", tmp_path / "sweep"
    cfg_path.write_text(TINY_SWEEP)
    sweep_dir.mkdir()
    (sweep_dir / "results.csv").write_bytes(log.read_bytes())
    capsys.readouterr()
    assert run_cli("sweep", "--config", cfg_path, "--out", sweep_dir) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "expected the preamble" in err
    assert err.count("\n") == 1
    assert (sweep_dir / "results.csv").read_bytes() == log.read_bytes()


def test_eval_requires_model_or_expert(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("eval", "--env", "point_reach")
    assert exc.value.code == 1
    assert "one of the arguments --model --expert is required" in capsys.readouterr().err


def test_eval_rejects_both_model_and_expert(tmp_path, capsys, model_docs):
    (tmp_path / "m.json").write_text(json.dumps(model_docs["point_reach"]))
    with pytest.raises(SystemExit) as exc:
        run_cli("eval", "--model", tmp_path / "m.json", "--expert", "--env", "point_reach",
                "--episodes", 1, "--out", tmp_path / "ev")
    assert exc.value.code == 1
    assert "--expert: not allowed with argument --model" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("model_env, env, episodes", [
    ("point_reach", "cart_balance", 1),
    ("cart_balance", "point_reach", 2),
    ("cart_balance", "point_reach", 3),
])
def test_eval_rejects_a_model_whose_action_space_differs_from_the_env(
        tmp_path, capsys, model_docs, model_env, env, episodes):
    doc = json.loads(json.dumps(model_docs[model_env]))
    del doc["meta"]["env"]  # so that --env is taken as given
    (tmp_path / "m.json").write_text(json.dumps(doc))
    assert run_cli("eval", "--model", tmp_path / "m.json", "--env", env,
                   "--episodes", episodes, "--out", tmp_path / "ev") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "action_kind" in err and "Traceback" not in err
    assert not (tmp_path / "ev").exists()


def test_eval_rejects_env_mismatch(small_dataset, tmp_path):
    model = tmp_path / "model.json"
    run_cli("train", "--data", small_dataset, "--method", "bc",
            "--out", model, "--epochs", 2, "--hidden-dims", "6")
    assert run_cli("eval", "--model", model, "--env", "cart_balance") == 1


def test_eval_leaves_only_its_own_trajectories(tmp_path, capsys):
    out, fresh = tmp_path / "ev", tmp_path / "fresh"
    assert run_cli("eval", "--expert", "--env", "point_reach", "--episodes", 3,
                   "--out", out) == 0
    second = ("eval", "--expert", "--env", "cart_balance", "--episodes", 1, "--seed", 2)
    assert run_cli(*second, "--out", out) == 0
    assert run_cli(*second, "--out", fresh) == 0
    assert sorted(p.name for p in out.glob("traj_ep*.csv")) == ["traj_ep000.csv"]
    assert (out / "traj_ep000.csv").read_bytes() == (fresh / "traj_ep000.csv").read_bytes()
    assert len((out / "eval_results.csv").read_text().splitlines()) == 4  # a log of both


def test_eval_names_the_episodes_flag_below_one(tmp_path, capsys):
    assert run_cli("eval", "--expert", "--env", "point_reach", "--episodes", 0,
                   "--out", tmp_path / "ev") == 1
    assert capsys.readouterr().err == "error: --episodes must be >= 1, got 0\n"
    assert not (tmp_path / "ev").exists()


def test_mode_demo_gaussian_monotone(tmp_path, capsys):
    out = tmp_path / "demo.csv"
    assert run_cli("mode-demo", "--out", out) == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert [int(r["N"]) for r in rows] == [1, 2, 4, 8, 16, 32]
    masses = [float(r["mode_mass"]) for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))
    assert masses[-1] >= 0.99


def test_mode_demo_single_power_equals_raw_mass(tmp_path):
    out = tmp_path / "demo.csv"
    run_cli("mode-demo", "--n-list", "1", "--out", out)
    from swarmbc.theory import gaussian_grid_density, mode_mass

    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert float(rows[0]["mode_mass"]) == pytest.approx(
        mode_mass(gaussian_grid_density(), 0.4)
    )


def test_mode_demo_uniform_diagnoses_ties(tmp_path, capsys):
    out = tmp_path / "demo.csv"
    assert run_cli("mode-demo", "--density", "uniform", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and len(err.splitlines()) == 1
    assert "tie" in err
    assert not out.exists()


@pytest.mark.parametrize("std", ["2e-4", "1e-5", "1e-200"])
def test_mode_demo_accepts_a_small_std(tmp_path, capsys, std):
    out = tmp_path / "demo.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("mode-demo", "--std", std, "--out", out) == 0
    with open(out) as f:
        masses = [float(r["mode_mass"]) for r in csv.DictReader(f)]
    assert masses == pytest.approx([1.0] * 6, abs=1e-12)


def test_cli_tables_are_written_as_before(tmp_path, capsys):
    # train's loss history (sha256 recorded from csv.writer output) and mode-demo's table
    data, model = tmp_path / "data.jsonl", tmp_path / "model.json"
    run_cli("gen-data", "--env", "point_reach", "--episodes", 1, "--seed", 3, "--out", data)
    assert run_cli("train", "--data", data, "--method", "swarm", "--seed", 1,
                   "--epochs", 5, "--hidden-dims", "5,4", "--out", model) == 0
    history = model.with_suffix(".history.csv").read_bytes()
    assert hashlib.sha256(history).hexdigest() == (
        "9fd63072cad97bd2afc335a42c8155b50c83bd92355e1c2202136cbd8f8c0da5")
    out = tmp_path / "demo.csv"
    assert run_cli("mode-demo", "--std", "0.05", "--n-list", "1,3,5", "--out", out) == 0
    report = concentration_report(gaussian_grid_density(std=0.05), 0.4, [1, 3, 5])
    assert out.read_text() == "N,mode_mass\n" + "".join(f"{n},{m!r}\n" for n, m in report)
    assert not list(tmp_path.glob("*.tmp"))


def test_grad_check_passes(capsys):
    assert run_cli("grad-check", "--trials", 10, "--seed", 0) == 0
    assert "PASS" in capsys.readouterr().out


def test_sweep_write_config_then_run(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    assert run_cli("sweep", "--write-config", cfg_path) == 0
    text = cfg_path.read_text()
    assert "episode_counts = 1, 2, 3, 4, 5, 6, 7, 8" in text

    small = (
        "envs = point_reach\n"
        "methods = bc, ensemble\n"
        "episode_counts = 1\n"
        "n_seeds = 1\n"
        "eval_episodes = 2\n"
        "ablations = false\n"
        "epochs = 5\n"
        "hidden_dims = 6\n"
    )
    cfg_path.write_text(small)
    out_dir = tmp_path / "sweep_out"
    assert run_cli("sweep", "--config", cfg_path, "--out", out_dir) == 0
    lines = (out_dir / "results.csv").read_text().splitlines()
    assert lines[0] == "# schema=swarmbc.results.v1"
    assert len(lines) == 2 + 2  # schema + header + 2 cells


def test_sweep_rejects_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("tau_gird = 0.1\n")
    assert run_cli("sweep", "--config", cfg_path) == 1


def test_sweep_malformed_results_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(
        "envs = point_reach\nmethods = bc\nepisode_counts = 1\nn_seeds = 1\n"
        "eval_episodes = 1\nablations = false\nepochs = 2\nhidden_dims = 4\n"
    )
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "results.csv").write_text(
        "# schema=swarmbc.results.v1\n"
        "env,method,n_expert_episodes,tau,n_members,seed,scaled_return,action_diff\n"
        "point_reach,bc,1,0.0,1,0,not-a-number,\n"
    )
    assert run_cli("sweep", "--config", cfg_path, "--out", out_dir) == 1
    assert "malformed row" in capsys.readouterr().err


def test_sweep_refuses_resume_under_changed_config(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    base = (
        "envs = point_reach\nmethods = bc\nepisode_counts = 1\nn_seeds = 1\n"
        "eval_episodes = 1\nablations = false\nhidden_dims = 4\n"
    )
    cfg_path.write_text(base + "epochs = 2\n")
    out_dir = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg_path, "--out", out_dir) == 0
    results = (out_dir / "results.csv").read_bytes()

    cfg_path.write_text(base + "epochs = 3\n")
    assert run_cli("sweep", "--config", cfg_path, "--out", out_dir) == 1
    err = capsys.readouterr().err
    assert "different config" in err and "--force" in err and "--out" in err
    assert (out_dir / "results.csv").read_bytes() == results

    assert run_cli("sweep", "--config", cfg_path, "--out", out_dir, "--force") == 0
    assert (out_dir / "results.csv").read_bytes() != results


def test_sweep_workers_default_to_the_cores_read_when_the_command_is_parsed(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert build_parser().parse_args(["sweep"]).workers == 3
    assert build_parser().parse_args(["sweep", "--workers", "1"]).workers == 1


def _swept(tmp_path):
    """The config file and ``--out`` of a finished one-cell sweep."""
    cfg_path, out_dir = tmp_path / "sweep.cfg", tmp_path / "out"
    cfg_path.write_text(TINY_SWEEP + "hidden_dims = 4\n")
    assert run_cli("sweep", "--config", cfg_path, "--out", out_dir) == 0
    return cfg_path, out_dir


def test_a_sweep_resumes_from_its_own_config_file(tmp_path, capsys):
    cfg_path, out_dir = _swept(tmp_path)
    files = _tree(out_dir)
    capsys.readouterr()
    assert run_cli("sweep", "--config", out_dir / "config.cfg", "--out", out_dir) == 0
    assert ", 0 to run\n" in capsys.readouterr().out
    assert _tree(out_dir) == files


def test_sweep_results_without_their_config_file_exit_1_in_one_line(tmp_path, capsys):
    """As a directory written by a swarmbc that kept ``config.sha256``."""
    cfg_path, out_dir = _swept(tmp_path)
    (out_dir / "config.cfg").rename(out_dir / "config.sha256")
    files = _tree(out_dir)
    capsys.readouterr()
    cfg_path.write_text(TINY_SWEEP + "hidden_dims = 5\n")
    assert run_cli("sweep", "--config", cfg_path, "--out", out_dir) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no config.cfg" in err
    assert "--force" in err and "--out" in err
    assert _tree(out_dir) == files

    assert run_cli("sweep", "--config", cfg_path, "--out", out_dir, "--force") == 0
    assert not (out_dir / "config.sha256").exists()
    assert "\nhidden_dims = 5\n" in (out_dir / "config.cfg").read_text()


def test_a_config_file_without_a_key_at_its_default_still_resumes(tmp_path, capsys):
    cfg_path, out_dir = _swept(tmp_path)
    kept = (out_dir / "config.cfg").read_text()
    (out_dir / "config.cfg").write_text(kept.replace("patience = 50\n", ""))
    capsys.readouterr()
    assert run_cli("sweep", "--config", cfg_path, "--out", out_dir) == 0
    assert ", 0 to run\n" in capsys.readouterr().out
    assert (out_dir / "config.cfg").read_text() == kept


@pytest.mark.parametrize("where", ["config", "results"])
def test_undecodable_bytes_exit_1_in_one_line_naming_the_file(tmp_path, capsys, where):
    cfg_path, out_dir = _swept(tmp_path)
    bad = cfg_path if where == "config" else out_dir / "results.csv"
    with open(bad, "ab") as f:
        f.write(b"# \xff\n" if where == "config" else b"point_reach,bc,1,0.0,1,1,0.5\xff,\n")
    capsys.readouterr()
    assert run_cli("sweep", "--config", cfg_path, "--out", out_dir) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8 text") and err.count("\n") == 1


def test_method_defaults_come_from_the_sweep_defaults():
    for method in METHODS:
        assert _resolve_method_params(method, None, None) == method_params(
            ExperimentConfig(), method
        )


TINY_SWEEP = (
    "envs = point_reach\nmethods = bc\nepisode_counts = 1\nn_seeds = 1\n"
    "eval_episodes = 1\nablations = false\nepochs = 2\n"
)


@pytest.mark.parametrize("config_line, flags", [
    ("hidden_dims = 0\n", ()),
    ("hidden_dims = 4, 0\n", ()),
    ("learning_rate = -0.1\n", ()),
    ("hidden_dims = 4\n", ("--workers", -3)),
    ("hidden_dims = 4\n", ("--workers", 0)),
])
def test_sweep_rejects_invalid_training_config(tmp_path, capsys, config_line, flags):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(TINY_SWEEP + config_line)
    out_dir = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg_path, "--out", out_dir, *flags) == 1
    assert "error:" in capsys.readouterr().err
    assert not (out_dir / "results.csv").exists()


@pytest.mark.parametrize("line", ["patience = -3", "min_improvement = -0.5",
                                  "min_improvement = nan", "learning_rate = inf",
                                  "tau = inf", "tau = nan", "tau_grid = 0, inf"])
def test_sweep_names_the_line_and_key_of_a_bad_training_value(tmp_path, capsys, line):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(TINY_SWEEP + line + "\n")
    out_dir = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg_path, "--out", out_dir) == 1
    lineno = TINY_SWEEP.count("\n") + 1
    key = line.split(" =")[0]
    assert f"error: {cfg_path}: line {lineno}: bad value for {key!r}" in capsys.readouterr().err
    assert not (out_dir / "results.csv").exists()


# values a config file rejects, for each training key
BAD_TRAINING_VALUES = {
    "epochs": ("0", "2.5"), "batch_size": ("0",), "learning_rate": ("-0.1", "inf"),
    "patience": ("-3",), "min_improvement": ("nan",), "hidden_dims": ("0", "8,x"),
    "normalize_swarm": ("maybe",),
}


def _flag(key):
    return "--" + key.replace("_", "-")


def test_train_training_options_are_the_config_keys(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--help")
    assert exc.value.code == 0
    section = capsys.readouterr().out.split("\ntraining settings:\n")[1]
    in_config_order = [_flag(key) for key in CONFIG_KEYS if key in TRAIN_KEYS]
    assert re.findall(r"^\s+(--[\w-]+)", section, re.M) == in_config_order
    assert set(BAD_TRAINING_VALUES) == set(TRAIN_KEYS)


@pytest.mark.parametrize("flags", [("--hidden-dims", "0"), ("--hidden-dims", "8,x"),
                                   ("--learning-rate", "-0.1"), ("--learning-rate", "inf"),
                                   ("--patience", "-3")])
def test_train_rejects_invalid_training_config(small_dataset, tmp_path, capsys, flags):
    code = run_cli("train", "--data", small_dataset, "--method", "bc",
                   "--out", tmp_path / "m.json", *flags)
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("key", TRAIN_KEYS)
def test_train_rejects_a_bad_training_value_as_a_config_file_does(small_dataset, tmp_path,
                                                                  capsys, key):
    for value in BAD_TRAINING_VALUES[key]:
        code = run_cli("train", "--data", small_dataset, "--method", "bc",
                       "--out", tmp_path / "m.json", _flag(key), value)
        assert code == 1
        with pytest.raises(ConfigError) as exc:
            parse_config_text(f"{key} = {value}\n")
        reason = str(exc.value).removeprefix("line 1")
        assert reason.startswith(f": bad value for {key!r}: ")
        assert capsys.readouterr().err == f"error: {_flag(key)}{reason}\n"
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("epochs", [30, 8], ids=["patience_stops", "budget_stops"])
def test_train_flags_set_the_fields_of_their_keys(small_dataset, tmp_path, capsys, epochs):
    flags = {"epochs": str(epochs), "batch_size": "16", "learning_rate": "0.004",
             "patience": "3", "min_improvement": "0.02", "hidden_dims": "6,5",
             "normalize_swarm": "true"}
    config = TrainConfig(epochs=epochs, batch_size=16, learning_rate=0.004, patience=3,
                         min_improvement=0.02, hidden_dims=(6, 5), normalize_swarm=True)
    assert set(flags) == set(TRAIN_KEYS)
    assert all(getattr(config, f.name) != f.default for f in fields(TrainConfig))
    model = tmp_path / "m.json"
    assert run_cli("train", "--data", small_dataset, "--method", "swarm", "--tau", 0.5,
                   "--n", 3, "--seed", 2, "--out", model,
                   *(arg for key, value in flags.items() for arg in (_flag(key), value))) == 0

    ens, history = train(load_dataset(small_dataset), 3, 0.5, config, seed=2)
    ens.meta["method"] = "swarm"
    save_ensemble(ens, tmp_path / "library.json")
    assert model.read_bytes() == (tmp_path / "library.json").read_bytes()
    history_csv = model.with_suffix(".history.csv").read_text().splitlines()
    assert list(csv.reader(history_csv)) == [["epoch", "bc_term", "swarm_term", "total"]] + [
        [str(epoch), repr(h.bc_term), repr(h.swarm_term), repr(h.total)]
        for epoch, h in enumerate(history)
    ]
    # the budget ends one run and patience the other: each value, set back to its
    # default, changes the model of at least one of them
    assert (len(history) == epochs) == (epochs == 8)


@pytest.mark.parametrize("history", ["m.json", "sub/../m.json"])
def test_train_rejects_a_history_path_naming_the_model(small_dataset, tmp_path, capsys,
                                                       monkeypatch, history):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    code = run_cli("train", "--data", small_dataset, "--method", "bc", "--epochs", 1,
                   "--out", tmp_path / "m.json", "--history", history)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --history names the model file")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


@pytest.mark.parametrize("spelling", ["d.jsonl", "sub/../d.jsonl"])
@pytest.mark.parametrize("flag", ["--out", "--history"])
def test_train_rejects_an_output_path_naming_the_dataset(small_dataset, tmp_path, capsys,
                                                         monkeypatch, flag, spelling):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    data = tmp_path / "d.jsonl"
    data.write_bytes(small_dataset.read_bytes())
    paths = {"--out": "m.json", "--history": "h.csv", flag: spelling}
    code = run_cli("train", "--data", data, "--method", "bc", "--epochs", 1,
                   *(arg for item in paths.items() for arg in item))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag} names the dataset")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""
    assert data.read_bytes() == small_dataset.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "sub"]


@pytest.mark.parametrize("cut", ["mid_row", "last_field", "schema_line"])
def test_sweep_recomputes_torn_baselines(tmp_path, capsys, cut):
    cfg_path = tmp_path / "sweep.cfg"
    two_envs = TINY_SWEEP.replace("envs = point_reach", "envs = point_reach, cart_balance")
    cfg_path.write_text(two_envs + "hidden_dims = 4\n")
    out_dir = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg_path, "--out", out_dir) == 0
    path = out_dir / "baselines.csv"
    original = path.read_bytes()
    last = original.splitlines(keepends=True)[-1]
    keep = {
        "mid_row": len(original) - len(last) + 4,  # inside the env name
        "last_field": len(original) - 3,
        "schema_line": 5,
    }[cut]
    path.write_bytes(original[:keep])
    with warnings.catch_warnings():  # the file is not read back, so nothing is repaired
        warnings.simplefilter("error")
        assert run_cli("sweep", "--config", cfg_path, "--out", out_dir) == 0
    assert path.read_bytes() == original


# edits that make a trained model file inconsistent, keyed by the file they write
MODEL_EDITS = {
    "head.json": ("cart_balance", lambda doc: doc.update(output_activation="identity")),
    "hidden.json": ("point_reach", lambda doc: doc.update(hidden_activation="relu")),
    "nan_tau.json": ("point_reach", lambda doc: doc.update(tau=float("nan"))),
    "inf_tau.json": ("point_reach", lambda doc: doc.update(tau=float("inf"))),
    "obs_mean.json": ("point_reach", lambda doc: doc["obs_mean"].pop()),
    "obs_std.json": ("cart_balance", lambda doc: doc["obs_std"].append(1.0)),
    "action_low.json": ("point_reach", lambda doc: doc["action_low"].pop()),
    "action_high.json": ("point_reach", lambda doc: doc.update(action_high=None)),
    "n_members.json": ("point_reach", lambda doc: doc.update(n_members=7)),
    "member_shape.json": ("point_reach", lambda doc: doc["members"][1]["biases"][0].pop()),
    "nan_bias.json": ("point_reach",
                      lambda doc: doc["members"][1]["biases"][0].__setitem__(0, float("nan"))),
    "inf_bound.json": ("point_reach", lambda doc: doc["action_low"].__setitem__(0, -float("inf"))),
    "zero_std.json": ("point_reach", lambda doc: doc["obs_std"].__setitem__(0, 0.0)),
    "swapped_bounds.json": ("point_reach", lambda doc: doc.update(
        action_low=doc["action_high"], action_high=doc["action_low"])),
    "meta_episodes_text.json": ("point_reach",
                                lambda doc: doc["meta"].update(n_expert_episodes="two")),
    "meta_episodes_negative.json": ("point_reach",
                                    lambda doc: doc["meta"].update(n_expert_episodes=-3)),
    "deep.json": ("point_reach", lambda doc: "[" * 200_000),  # the file's whole text
    "huge_tau.json": ("point_reach", lambda doc: doc.update(tau=10**400)),  # no float holds it
}


# edits that make a recorded point_reach dataset file invalid, keyed by the
# file they write; each edits the parsed header and sample records in place,
# or returns the file's whole text
DATA_EDITS = {
    "nan_action.jsonl": lambda _, recs: recs[5]["a"].__setitem__(0, float("nan")),
    "inf_action.jsonl": lambda _, recs: recs[5]["a"].__setitem__(1, float("inf")),
    "nan_state.jsonl": lambda _, recs: recs[0]["s"].__setitem__(2, float("nan")),
    "narrow_state.jsonl": lambda _, recs: [rec["s"].pop() for rec in recs],  # obs_dim is 4
    "negative_episodes.jsonl": lambda header, _: header.update(episodes=-3),
    "fractional_episodes.jsonl": lambda header, _: header.update(episodes=2.7),
    "true_episodes.jsonl": lambda header, _: header.update(episodes=True),
    "negative_seed.jsonl": lambda header, _: header.update(seed=-1),
    "unknown_action_kind.jsonl": lambda header, _: header.update(action_kind="binary"),
    "missing_key.jsonl": lambda header, _: header.pop("obs_dim"),
    "deep.jsonl": lambda header, _: "[" * 200_000,
    "huge_state.jsonl": lambda _, recs: recs[0]["s"].__setitem__(0, 10**400),
}


@pytest.fixture(scope="module")
def model_docs(tmp_path_factory):
    """A trained swarm model file per env, as parsed JSON."""
    tmp, docs = tmp_path_factory.mktemp("models"), {}
    for env in ("point_reach", "cart_balance"):
        assert run_cli("gen-data", "--env", env, "--episodes", 1,
                       "--out", tmp / f"{env}.jsonl") == 0
        assert run_cli("train", "--data", tmp / f"{env}.jsonl", "--method", "swarm",
                       "--epochs", 1, "--hidden-dims", "3", "--out", tmp / f"{env}.json") == 0
        docs[env] = json.loads((tmp / f"{env}.json").read_text())
    return docs


@pytest.mark.parametrize("argv", [
    ("mode-demo", "--n-list", "a,2", "--out", "{tmp}/demo.csv"),
    ("mode-demo", "--tau", "nan", "--out", "{tmp}/demo.csv"),
    ("mode-demo", "--tau", "inf", "--out", "{tmp}/demo.csv"),
    ("mode-demo", "--density", "uniform", "--cells", "0", "--out", "{tmp}/demo.csv"),
    ("mode-demo", "--std", "-1", "--out", "{tmp}/demo.csv"),
    ("grad-check", "--step", "0"),
    ("grad-check", "--step", "nan"),
    ("grad-check", "--step", "inf"),
    ("grad-check", "--trials", "0"),
    ("train", "--data", "{tmp}/missing.jsonl", "--method", "bc", "--out", "{tmp}/m.json"),
    ("eval", "--model", "{tmp}/missing.json"),
    ("train", "--data", "{tmp}/bad.json", "--method", "bc", "--out", "{tmp}/m.json"),
    ("eval", "--model", "{tmp}/bad.json"),
    ("train", "--data", "{tmp}/list.json", "--method", "bc", "--out", "{tmp}/m.json"),
    ("eval", "--model", "{tmp}/list.json"),
    ("train", "--data", "{data}", "--method", "swarm", "--tau", "inf", "--out", "{tmp}/m.json"),
    ("gen-data", "--env", "point_reach", "--seed", "-1", "--out", "{tmp}/d.jsonl"),
    ("train", "--data", "{data}", "--method", "bc", "--seed", "-3", "--out", "{tmp}/m.json"),
    ("grad-check", "--seed", "-1"),
    *(("eval", "--model", "{tmp}/" + name, "--episodes", "1", "--out", "{tmp}/ev")
      for name in MODEL_EDITS),
    *(("train", "--data", "{tmp}/" + name, "--method", "bc", "--out", "{tmp}/m.json")
      for name in DATA_EDITS),
], ids=["n_list", "nan_window", "inf_window", "zero_cells", "negative_std",
        "grad_step", "nan_grad_step", "inf_grad_step", "grad_trials",
        "missing_data", "missing_model", "invalid_data", "invalid_model",
        "non_object_data", "non_object_model", "train_inf_tau",
        "gen_data_negative_seed", "train_negative_seed", "grad_check_negative_seed",
        *(name.removesuffix(".json") + "_model" for name in MODEL_EDITS),
        *(name.removesuffix(".jsonl") + "_data" for name in DATA_EDITS)])
def test_bad_arguments_and_files_exit_1_without_traceback(tmp_path, capsys, small_dataset,
                                                          model_docs, argv):
    (tmp_path / "bad.json").write_text('{"env": "point_reach", \n')
    (tmp_path / "list.json").write_text("[1, 2]\n")
    for name, (env, edit) in MODEL_EDITS.items():
        doc = json.loads(json.dumps(model_docs[env]))
        text = edit(doc)
        (tmp_path / name).write_text(text if isinstance(text, str) else json.dumps(doc))
    for name, edit in DATA_EDITS.items():
        header, *recs = map(json.loads, small_dataset.read_text().splitlines())
        text = edit(header, recs)
        if not isinstance(text, str):
            text = "\n".join(map(json.dumps, [header, *recs])) + "\n"
        (tmp_path / name).write_text(text)
    assert run_cli(*(a.format(tmp=tmp_path, data=small_dataset) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    # a bad --data or --model file is named once
    for flag, value in zip(argv, argv[1:]):
        if flag in ("--data", "--model") and value.startswith("{tmp}/"):
            assert err.count(value.format(tmp=tmp_path)) == 1, err
    assert not (tmp_path / "m.json").exists()
    assert not (tmp_path / "ev" / "eval_results.csv").exists()


def test_eval_of_a_model_whose_env_is_a_list_exits_1_in_one_line(tmp_path, capsys, model_docs):
    doc = json.loads(json.dumps(model_docs["point_reach"]))
    doc["meta"]["env"] = ["point_reach"]
    (tmp_path / "m.json").write_text(json.dumps(doc))
    assert run_cli("eval", "--model", tmp_path / "m.json", "--out", tmp_path / "ev") == 1
    assert capsys.readouterr().err == ("error: unknown env ['point_reach']; choose from "
                                       "point_reach, pendulum_swing, cart_balance\n")
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("n, tau, label, method", [
    (4, 0.25, "bc", "swarm"),
    (4, 0.25, "bog,us\nx", "swarm"),
    (1, 0.0, None, "bc"),
    (4, 0.5, None, "swarm"),
    (4, 0.0, "swarm", "ensemble"),
    (1, 0.5, None, None),  # a single policy at tau > 0 is no method
], ids=["swarm_labelled_bc", "label_with_comma_and_newline", "library_bc", "library_swarm",
        "ensemble_labelled_swarm", "single_policy_at_tau_above_0"])
def test_eval_logs_the_method_that_tau_and_n_define(small_dataset, tmp_path, capsys,
                                                     n, tau, label, method):
    ens, _ = train(load_dataset(small_dataset), n, tau, TrainConfig(epochs=1, hidden_dims=(3,)))
    if label is not None:  # ``train`` writes no label; ``swarmbc train`` writes --method
        ens.meta["method"] = label
    save_ensemble(ens, tmp_path / "m.json")
    code = run_cli("eval", "--model", tmp_path / "m.json", "--episodes", 1,
                   "--out", tmp_path / "ev")
    out, err = capsys.readouterr()
    if method is None:
        assert (code, err) == (1, f"error: tau = {tau} with N = {n} is no method: {METHOD_RULE}\n")
        assert not (tmp_path / "ev").exists()
        return
    assert (code, err) == (0, "")
    _, _, row = (tmp_path / "ev" / "eval_results.csv").read_text().splitlines()
    assert row.split(",")[:5] == ["point_reach", method, "1", repr(tau), str(n)]
    assert out.startswith(f"point_reach {method}: ")


@pytest.mark.parametrize("line, start", [
    ("x" * 200_000, "line 8: expected 'key = value', got 'xxx"),
    ("x" * 200_000 + " = 1", "line 8: unknown key 'xxx"),
    ("learning_rate = " + "x" * 200_000, "line 8: bad value for 'learning_rate': could not"),
], ids=["no_equals_sign", "unknown_key", "bad_value"])
def test_a_config_error_quotes_a_bounded_prefix_of_a_long_line(tmp_path, capsys, line, start):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(TINY_SWEEP + line + "\n")
    assert run_cli("sweep", "--config", cfg_path, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: {start}") and err.count("\n") == 1
    assert re.search(r"xxx\.\.\. \(\d+ more\)", err)
    assert len(err) < len(str(cfg_path)) + 600, len(err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, line", [
    (("gen-data", "--env", "point_reach", "--episodes", "0", "--out", "{tmp}/d.jsonl"),
     "error: --episodes must be >= 1, got 0"),
    (("sweep", "--workers", "0", "--out", "{tmp}/out"), "error: --workers must be >= 1, got 0"),
    (("mode-demo", "--cells", "2", "--out", "{tmp}/demo.csv"),
     "error: --cells must be >= 3, got 2"),
    (("grad-check", "--trials", "0"), "error: --trials must be >= 1, got 0"),
    (("grad-check", "--step", "0"), "error: --step must be in (0, inf), got 0.0"),
], ids=["gen_data_episodes", "sweep_workers", "mode_demo_cells", "grad_check_trials",
        "grad_check_step"])
def test_a_numeric_flag_below_its_floor_exits_1_naming_the_flag(tmp_path, capsys, argv, line):
    assert run_cli(*(a.format(tmp=tmp_path) for a in argv)) == 1
    assert capsys.readouterr().err.splitlines() == [line]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", ["own_config", "user_config", "changed_config"])
def test_a_config_error_exits_1_in_one_line_naming_its_file(tmp_path, capsys, case):
    cfg_path, out_dir = _swept(tmp_path)
    own = out_dir / "config.cfg"
    if case == "own_config":
        with open(own, "a") as f:
            f.write("epochs = two\n")
        want = [f"error: {own}: line 20: duplicate key 'epochs'", "--force"]
    elif case == "user_config":
        cfg_path.write_text(TINY_SWEEP + "seeds = 3\n")
        want = [f"error: {cfg_path}: line 8: unknown key 'seeds'"]
    else:  # four keys differ: the first three in config order, then a count
        cfg_path.write_text(TINY_SWEEP.replace("n_seeds = 1", "n_seeds = 2")
                            .replace("epochs = 2", "epochs = 3")
                            + "hidden_dims = 5\nmaster_seed = 7\n")
        want = [f"(n_seeds: 1 in {own}, 2 now; master_seed: 0 in {own}, 7 now; "
                f"epochs: 2 in {own}, 3 now; and 1 more)", "--force"]
    files = _tree(out_dir)
    capsys.readouterr()
    assert run_cli("sweep", "--config", cfg_path, "--out", out_dir) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and all(part in err for part in want), err
    assert _tree(out_dir) == files


def test_train_and_sweep_read_tau_minus_zero_as_0(small_dataset, tmp_path, capsys):
    assert run_cli("train", "--data", small_dataset, "--method", "ensemble", "--tau", "-0.0",
                   "--epochs", 1, "--hidden-dims", "3", "--out", tmp_path / "m.json") == 0
    assert "(tau=0.0, N=4)" in capsys.readouterr().out
    assert repr(json.loads((tmp_path / "m.json").read_text())["tau"]) == "0.0"

    cfg_path, out_dir = tmp_path / "sweep.cfg", tmp_path / "out"
    cfg_path.write_text(TINY_SWEEP.replace("ablations = false", "tau_grid = -0.0, 0.5")
                        .replace("methods = bc", "methods = bc, ensemble, swarm")
                        + "n_grid = 4\nhidden_dims = 3\n")
    assert run_cli("sweep", "--config", cfg_path, "--out", out_dir) == 0
    assert "sweep: 4 cells" in capsys.readouterr().out
    ensemble = next(r for r in read_results(out_dir / "results.csv") if r.method == "ensemble")
    assert (out_dir / "ablation_tau.csv").read_text().splitlines()[1] == (
        f"point_reach,1,0.0,{ensemble.scaled_return!r},0.0,1")


def test_sweep_rejects_single_member_ensembles(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(TINY_SWEEP.replace("methods = bc", "methods = bc, swarm")
                        + "n_members = 1\n")
    out_dir = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg_path, "--out", out_dir) == 1
    assert "N >= 2" in capsys.readouterr().err
    assert not (out_dir / "results.csv").exists()


def test_sweep_config_with_a_repeated_value_exits_1_in_one_line(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(TINY_SWEEP.replace("episode_counts = 1", "episode_counts = 1, 1"))
    out_dir = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg_path, "--out", out_dir) == 1
    assert capsys.readouterr().err == f"error: {cfg_path}: episode_counts repeats a value: 1, 1\n"
    assert not (out_dir / "results.csv").exists()


def test_sweep_into_a_locked_directory_exits_1_naming_the_holder(tmp_path, capsys):
    cfg_path, out_dir = tmp_path / "sweep.cfg", tmp_path / "out"
    cfg_path.write_text(TINY_SWEEP)
    out_dir.mkdir()
    (out_dir / "sweep.lock").write_text("4242 elsewhere.invalid\n")
    with open(out_dir / "sweep.lock") as held:  # as the running sweep 4242 holds it
        fcntl.flock(held, fcntl.LOCK_EX)
        assert run_cli("sweep", "--config", cfg_path, "--out", out_dir) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "4242 elsewhere.invalid" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in out_dir.iterdir()) == ["sweep.lock"]


def _tree(out):
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _child_env():
    return dict(os.environ, PYTHONUNBUFFERED="1",
                PYTHONPATH=str(Path(errors.__file__).resolve().parents[1]))


def _cli(*argv, **kwargs):
    """``swarmbc *argv`` as a subprocess in a session of its own, so that a
    signal to its process group reaches its pool workers too."""
    return subprocess.Popen([sys.executable, "-m", "swarmbc.cli", *map(str, argv)],
                            env=_child_env(), text=True, start_new_session=True, **kwargs)


def _wait_for_no_process_of(group, timeout=30.0):
    deadline = time.monotonic() + timeout
    while True:
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return
        assert time.monotonic() < deadline, f"a process of group {group} is still alive"
        time.sleep(0.1)


@pytest.mark.parametrize("workers", [1, 2])
def test_sigint_exits_130_with_one_line_and_the_rerun_completes_the_sweep(
        tmp_path, capsys, workers):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("envs = point_reach, cart_balance\nmethods = bc, ensemble, swarm\n"
                        "episode_counts = 1, 2\nn_seeds = 6\neval_episodes = 2\n"
                        "ablations = false\nepochs = 20\nhidden_dims = 8\n")
    argv = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
            "--workers", str(workers)]
    # SIGINT to the sweep's whole process group, as Ctrl-C in a terminal sends it
    proc = _cli(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        for line in proc.stdout:
            if line.startswith("  "):  # the first cell's progress line
                break
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 130
    assert err.splitlines() == ["interrupted; rerun the same command to resume"]
    assert not (tmp_path / "out" / "sweep.lock").exists()
    _wait_for_no_process_of(proc.pid, timeout=10)

    assert run_cli(*argv) == 0
    assert run_cli(*argv[:3], "--out", tmp_path / "clean") == 0
    assert _tree(tmp_path / "out") == _tree(tmp_path / "clean")


SMALL_SWEEP = ("envs = point_reach, cart_balance\nmethods = bc, ensemble, swarm\n"
               "episode_counts = 1, 2\nn_seeds = 2\neval_episodes = 1\n"
               "ablations = false\nepochs = 3\nhidden_dims = 4\n")


def test_a_closed_stdout_ends_the_progress_log_not_the_sweep(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SMALL_SWEEP)
    proc = _cli("sweep", "--config", cfg_path, "--out", tmp_path / "out",
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline().startswith("sweep:")
        proc.stdout.close()  # as `swarmbc sweep ... | head -1` does
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0
    assert err == ""  # no traceback, none at interpreter shutdown either
    assert run_cli("sweep", "--config", cfg_path, "--out", tmp_path / "clean") == 0
    assert _tree(tmp_path / "out") == _tree(tmp_path / "clean")


def test_a_diverging_train_exits_2_with_one_line(tmp_path, small_dataset):
    proc = subprocess.run([sys.executable, "-m", "swarmbc.cli", "train", "--data",
                           small_dataset, "--method", "swarm", "--tau", "0.5", "--n", "4",
                           "--learning-rate", "1e300", "--out", tmp_path / "m.json"],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["numerical failure: non-finite loss in epoch 0"]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_diverging_sweep_logs_its_failures_without_numpy_warnings(tmp_path, workers):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(TINY_SWEEP.replace("n_seeds = 1", "n_seeds = 2")
                        + "learning_rate = 1e300\n")
    proc = _sweep_with_failures(tmp_path, cfg_path, workers, 2)
    assert proc.stdout.splitlines()[-1] == f"0 records in {tmp_path / 'out' / 'results.csv'}"
    rows = (tmp_path / "out" / "failures.csv").read_text().splitlines()
    assert rows[1:] == [f"point_reach,bc,1,0.0,1,{seed},TrainingDivergedError: non-finite "
                        "loss in epoch 0" for seed in (0, 1)]


def _sweep_with_failures(tmp_path, cfg_path, workers, n_failed):
    """``swarmbc sweep`` of ``cfg_path`` into ``tmp_path/out``, checked to log
    ``n_failed`` failed cells and exit 1 with one stderr line, no numpy warning."""
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "swarmbc.cli", "sweep", "--config", cfg_path,
                           "--out", out, "--workers", str(workers)],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines() == [
        f"error: {n_failed} cells failed; see {out / 'failures.csv'} (a rerun retries them)"]
    assert proc.stdout.count("  FAILED ") == n_failed
    return proc


@pytest.mark.parametrize("workers", [1, 2])
def test_a_sweep_with_some_failed_cells_keeps_the_others_and_exits_1(tmp_path, workers):
    # tau = 1e308 makes the swarm loss inf in epoch 0; bc has no swarm term
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(TINY_SWEEP.replace("methods = bc", "methods = bc, swarm")
                        .replace("n_seeds = 1", "n_seeds = 2") + "tau = 1e308\n")
    proc = _sweep_with_failures(tmp_path, cfg_path, workers, 2)
    assert proc.stdout.splitlines()[-1] == f"2 records in {tmp_path / 'out' / 'results.csv'}"
    assert [r.method for r in read_results(tmp_path / "out" / "results.csv")] == ["bc", "bc"]


@pytest.mark.parametrize("argv", [
    ("train", "--data", "{data}", "--method", "bc", "--epochs", "1", "--out", "{tmp}/m.json",
     "--history", "{tmp}/nodir/h.csv"),
    ("sweep", "--write-config", "{tmp}/nodir/x.cfg"),
    ("sweep", "--config", "{tmp}/sweep.cfg", "--out", "{tmp}/file"),
    ("eval", "--expert", "--env", "point_reach", "--episodes", "1", "--out", "{tmp}/file"),
    ("train", "--data", "{data}", "--method", "bc", "--epochs", "1",
     "--out", "{tmp}/file/m.json"),
    ("mode-demo", "--out", "{tmp}/file/demo.csv"),
    ("gen-data", "--env", "point_reach", "--out", "{tmp}/file/d.jsonl"),
    ("gen-data", "--env", "point_reach", "--force", "--out", "{tmp}"),
], ids=["train_history", "write_config", "sweep_out", "eval_out", "train_out", "mode_demo_out",
        "gen_data_out", "gen_data_directory"])
def test_unwritable_output_paths_exit_1_with_one_error_line(tmp_path, capsys, small_dataset,
                                                            argv):
    (tmp_path / "file").write_text("a regular file\n")
    (tmp_path / "sweep.cfg").write_text(TINY_SWEEP)
    assert run_cli(*(a.format(tmp=tmp_path, data=small_dataset) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert (tmp_path / "file").read_text() == "a regular file\n"


def _kill_the_parent_mid_sweep_and_rerun(tmp_path, wait_for_workers):
    """SIGKILL a ``--workers 2`` sweep's parent alone after its first cell;
    with ``wait_for_workers``, its workers must then end by themselves within
    10 s. A rerun takes the lock over at once and ends with a clean sweep's
    files."""
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SMALL_SWEEP.replace("n_seeds = 2", "n_seeds = 6"))
    argv = ("sweep", "--config", cfg_path, "--out", tmp_path / "out", "--workers", 2)
    proc = _cli(*argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        for line in proc.stdout:
            if line.startswith("  "):  # the first cell's progress line
                break
        os.kill(proc.pid, signal.SIGKILL)  # the parent alone
        proc.wait(timeout=60)
        if wait_for_workers:
            _wait_for_no_process_of(proc.pid, timeout=10)  # no signal sent to them
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(*argv) == 0
        assert any("taking over the lock of pid" in str(w.message) for w in caught)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        _wait_for_no_process_of(proc.pid)
    assert run_cli(*argv[:3], "--out", tmp_path / "clean") == 0
    assert _tree(tmp_path / "out") == _tree(tmp_path / "clean")


def test_a_sweep_whose_parent_is_killed_reruns_at_once_to_a_clean_sweeps_files(tmp_path):
    _kill_the_parent_mid_sweep_and_rerun(tmp_path, wait_for_workers=False)


def test_the_workers_of_a_killed_sweep_parent_end_by_themselves(tmp_path):
    _kill_the_parent_mid_sweep_and_rerun(tmp_path, wait_for_workers=True)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_sweep_killed_at_random_times_reruns_to_a_clean_sweeps_files(tmp_path, workers):
    """SIGKILL a sweep's whole process group at 6 seeded random offsets within
    a clean run's time: every process is reaped, and a rerun ends with a
    clean sweep's files."""
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SMALL_SWEEP.replace("n_seeds = 2", "n_seeds = 4"))
    argv = ("sweep", "--config", cfg_path, "--workers", workers)
    start = time.monotonic()
    assert _cli(*argv, "--out", tmp_path / "clean", stdout=subprocess.DEVNULL).wait(120) == 0
    span = time.monotonic() - start
    want = _tree(tmp_path / "clean")
    rng = random.Random(workers)
    for k, offset in enumerate(sorted(rng.uniform(0, span) for _ in range(6))):
        out = tmp_path / f"killed_{k}"
        proc = _cli(*argv, "--out", out, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            with contextlib.suppress(subprocess.TimeoutExpired):
                proc.wait(timeout=offset)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        _wait_for_no_process_of(proc.pid, timeout=10)
        with warnings.catch_warnings(record=True):  # a lock taken over, a torn row dropped
            warnings.simplefilter("always")
            assert run_cli(*argv, "--out", out) == 0, (k, offset)
        assert _tree(out) == want, (k, offset)


def test_a_serial_sweep_never_loads_the_process_pool_machinery(tmp_path):
    (tmp_path / "sweep.cfg").write_text(
        "envs = point_reach\nmethods = bc\nepisode_counts = 1\nn_seeds = 1\n"
        "eval_episodes = 1\nablations = false\nepochs = 2\nhidden_dims = 4\n")
    script = ("import sys\n"
              "from swarmbc.cli import main\n"
              "assert main(sys.argv[1:]) == 0\n"
              "print('loaded:', *sorted({'multiprocessing', 'concurrent.futures', 'socket'}"
              " & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script, "sweep", "--config",
                           tmp_path / "sweep.cfg", "--out", tmp_path / "out", "--workers", "1"],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(read_results(tmp_path / "out" / "results.csv")) == 1
    assert proc.stdout.splitlines()[-1] == "loaded:"


def test_the_package_loads_only_the_modules_it_is_asked_for():
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "exec(sys.argv[1])\n"
              "print(*sorted(m for m in set(sys.modules) - before if m.startswith('swarmbc')))\n")
    loaded = [subprocess.run([sys.executable, "-c", script, statement], env=_child_env(),
                             capture_output=True, text=True, timeout=120, check=True).stdout
              for statement in ("import swarmbc", "import swarmbc.nn")]
    assert loaded == ["swarmbc\n", "swarmbc swarmbc.errors swarmbc.nn\n"]


# four cells: bc and ensemble, two seeds each
POOL_SWEEP = TINY_SWEEP.replace("methods = bc", "methods = bc, ensemble").replace(
    "n_seeds = 1", "n_seeds = 2") + "hidden_dims = 4\n"


@pytest.fixture(scope="module")
def serial_pool_sweep(tmp_path_factory):
    """The files of POOL_SWEEP run serially, and its config file."""
    tmp = tmp_path_factory.mktemp("serial")
    (tmp / "sweep.cfg").write_text(POOL_SWEEP)
    assert run_cli("sweep", "--config", tmp / "sweep.cfg", "--out", tmp / "out",
                   "--workers", 1) == 0
    return _tree(tmp / "out"), tmp / "sweep.cfg"


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_a_pool_sweep_writes_the_serial_bytes_under_each_start_method(tmp_path, method,
                                                                      serial_pool_sweep):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    files, cfg_path = serial_pool_sweep
    script = ("import multiprocessing, sys\n"
              "from swarmbc.cli import main\n"
              "multiprocessing.set_start_method(sys.argv[1], force=True)\n"
              "sys.exit(main(sys.argv[2:]))\n")
    proc = subprocess.run([sys.executable, "-c", script, method, "sweep", "--config", cfg_path,
                           "--out", tmp_path / "out", "--workers", "2"],
                          env=_child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(files) > 1 and _tree(tmp_path / "out") == files
    assert not (tmp_path / "out" / "sweep.lock").exists()


@contextlib.contextmanager
def _files_stop_growing_at(size):
    """In the block, a write that would take a file past ``size`` bytes is
    cut there and fails (EFBIG), as a write to a full disk does."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (size, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))


def _write_trajectory(version, path):
    env = make_env("pendulum_swing")
    seeds = np.random.SeedSequence(version).spawn(1)
    traj, = rollouts(env, golden_ensemble(env.spec.env_id, 2), seeds, record_members=True)
    write_trajectory_csv(traj, path)


def _write_config(version, path):
    if version == 0:
        path.write_text("n_seeds = 1\n")
    elif run_cli("sweep", "--write-config", path, "--force") != 0:
        raise OSError("--write-config failed")


# Each writer of a whole file, as (name, write(version, path)): two versions
# give two different files.
WHOLE_FILE_WRITERS = {
    "dataset": lambda v, path: save_dataset(generate_dataset(make_env("point_reach"), 1, v),
                                            path),
    "model": lambda v, path: save_ensemble(golden_ensemble("point_reach", 2 + v), path),
    "trajectory": _write_trajectory,
    "write_config": _write_config,
}


@pytest.mark.parametrize("name", WHOLE_FILE_WRITERS)
def test_a_whole_file_write_cut_halfway_keeps_the_old_file(tmp_path, capsys, name):
    write = WHOLE_FILE_WRITERS[name]
    write(1, tmp_path / "new")
    new = (tmp_path / "new").read_bytes()
    (tmp_path / "out").mkdir()
    path = tmp_path / "out" / name
    write(0, path)
    old = path.read_bytes()
    assert old != new
    with _files_stop_growing_at(len(new) // 2), pytest.raises(OSError):
        write(1, path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path / "out") == [name]  # no temporary file left
