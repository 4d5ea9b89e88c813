import csv
import json

import pytest

from swarmbc.cli import _resolve_method_params, main
from swarmbc.ensemble import METHODS
from swarmbc.harness import ExperimentConfig, method_params


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
    assert results[0] == "# schema=swarmbc.results.v1"
    row = results[2].split(",")
    assert row[0] == "point_reach" and row[1] == "swarm"

    # deterministic: same invocation twice gives identical trajectory CSVs
    first = (out_dir / "traj_ep000.csv").read_bytes()
    out_dir2 = tmp_path / "eval2"
    run_cli("eval", "--model", model, "--episodes", 2, "--seed", 5,
            "--out", out_dir2)
    assert (out_dir2 / "traj_ep000.csv").read_bytes() == first


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


def test_eval_requires_model_or_expert(capsys):
    assert run_cli("eval", "--env", "point_reach") == 1


def test_eval_rejects_env_mismatch(small_dataset, tmp_path):
    model = tmp_path / "model.json"
    run_cli("train", "--data", small_dataset, "--method", "bc",
            "--out", model, "--epochs", 2, "--hidden-dims", "6")
    assert run_cli("eval", "--model", model, "--env", "cart_balance") == 1


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
    assert "tie" in err or "mode" in err
    assert not out.exists()


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


@pytest.mark.parametrize("flags", [("--hidden-dims", "0"), ("--hidden-dims", "8,x"),
                                   ("--lr", "-0.1")])
def test_train_rejects_invalid_training_config(small_dataset, tmp_path, capsys, flags):
    code = run_cli("train", "--data", small_dataset, "--method", "bc",
                   "--out", tmp_path / "m.json", *flags)
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


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
    if cut == "schema_line":  # a file cut inside its preamble counts as absent
        assert run_cli("sweep", "--config", cfg_path, "--out", out_dir) == 0
    else:
        with pytest.warns(RuntimeWarning, match="unterminated"):
            assert run_cli("sweep", "--config", cfg_path, "--out", out_dir) == 0
    assert path.read_bytes() == original


@pytest.mark.parametrize("argv", [
    ("mode-demo", "--n-list", "a,2", "--out", "{tmp}/demo.csv"),
    ("grad-check", "--step", "0"),
    ("grad-check", "--trials", "0"),
    ("train", "--data", "{tmp}/missing.jsonl", "--method", "bc", "--out", "{tmp}/m.json"),
    ("eval", "--model", "{tmp}/missing.json"),
    ("train", "--data", "{tmp}/bad.json", "--method", "bc", "--out", "{tmp}/m.json"),
    ("eval", "--model", "{tmp}/bad.json"),
    ("train", "--data", "{tmp}/list.json", "--method", "bc", "--out", "{tmp}/m.json"),
    ("eval", "--model", "{tmp}/list.json"),
], ids=["n_list", "grad_step", "grad_trials", "missing_data", "missing_model",
        "invalid_data", "invalid_model", "non_object_data", "non_object_model"])
def test_bad_arguments_and_files_exit_1_without_traceback(tmp_path, capsys, argv):
    (tmp_path / "bad.json").write_text('{"env": "point_reach", \n')
    (tmp_path / "list.json").write_text("[1, 2]\n")
    assert run_cli(*(a.format(tmp=tmp_path) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_sweep_rejects_single_member_ensembles(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(TINY_SWEEP.replace("methods = bc", "methods = bc, swarm")
                        + "n_members = 1\n")
    out_dir = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg_path, "--out", out_dir) == 1
    assert "N >= 2" in capsys.readouterr().err
    assert not (out_dir / "results.csv").exists()
