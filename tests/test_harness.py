import csv
import multiprocessing
import os

import pytest

from swarmbc import harness
from swarmbc.ensemble import TrainConfig
from swarmbc.errors import ConfigError
from swarmbc.harness import (
    Cell,
    ExperimentConfig,
    ResultsStore,
    cell_seeds,
    default_config_text,
    enumerate_cells,
    fan_out_seed,
    load_or_compute_baselines,
    parse_config_text,
    run_sweep,
)
from swarmbc.harness import _prune_failures, _record_failure
from swarmbc.envs import make_env
from swarmbc.metrics import RunRecord, baseline_returns


def tiny_config(**overrides):
    defaults = dict(
        envs=("point_reach",),
        methods=("ensemble", "swarm"),
        episode_counts=(1,),
        n_seeds=2,
        eval_episodes=3,
        ablations=False,
        master_seed=7,
        train=TrainConfig(epochs=15, patience=15, hidden_dims=(8, 8)),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_fan_out_seed_is_stable_and_distinct():
    a = fan_out_seed(0, "data", "point_reach", 1, 0)
    b = fan_out_seed(0, "data", "point_reach", 1, 0)
    c = fan_out_seed(0, "data", "point_reach", 1, 1)
    d = fan_out_seed(1, "data", "point_reach", 1, 0)
    assert a == b
    assert len({a, c, d}) == 3
    # pinned so stored sweeps stay interpretable across versions
    assert a == fan_out_seed(0, "data", "point_reach", 1, 0)


def test_cell_seeds_pair_methods():
    cfg = tiny_config()
    swarm = Cell("point_reach", "swarm", 1, 0.25, 4, 0)
    ens = Cell("point_reach", "ensemble", 1, 0.0, 4, 0)
    s_data, s_train, s_eval = cell_seeds(cfg, swarm)
    e_data, e_train, e_eval = cell_seeds(cfg, ens)
    assert s_data == e_data  # same dataset
    assert s_eval == e_eval  # same eval starts
    assert s_train != e_train


def test_enumerate_cells_core_count():
    cfg = ExperimentConfig(n_seeds=5, ablations=False)
    cells = enumerate_cells(cfg)
    assert len(cells) == 3 * 3 * 8 * 5  # envs x methods x sizes x seeds


def test_enumerate_cells_with_ablations_dedupes():
    cfg = ExperimentConfig(n_seeds=2)
    cells = enumerate_cells(cfg)
    keys = [c.key() for c in cells]
    assert len(keys) == len(set(keys))
    core = 3 * 3 * 8 * 2
    # tau grid adds 5 values but tau=0.25 and tau=0 duplicate core swarm and
    # ensemble cells at the max size; N grid adds 4 values with N=4 duplicated
    assert len(cells) == core + (5 - 2) * 2 + (4 - 1) * 2


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(envs=())
    with pytest.raises(ConfigError):
        ExperimentConfig(methods=("swarm",), tau=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(envs=("mujoco",))
    with pytest.raises(ConfigError):
        ExperimentConfig(n_grid=(1,))


@pytest.mark.parametrize("kwargs", [
    dict(n_members=1),  # ensemble and swarm cells of one member
    dict(methods=("bc",), n_members=1),  # the tau ablation trains ensembles
    dict(methods=("bc", "ensemble"), tau=0.0),  # the N ablation trains swarms
])
def test_config_rejects_invalid_method_params(kwargs):
    with pytest.raises(ConfigError, match="N >= 2|tau > 0"):
        ExperimentConfig(**kwargs)


def test_config_accepts_single_policy_bc_sweep():
    cfg = ExperimentConfig(methods=("bc",), n_members=1, ablations=False)
    assert {c.n_members for c in enumerate_cells(cfg)} == {1}


@pytest.mark.parametrize("method, tau, n", [
    ("bc", 0.0, 2), ("bc", 0.5, 1), ("ensemble", 0.0, 1), ("ensemble", 0.25, 4),
    ("ensemble", -0.5, 4), ("swarm", 0.0, 4), ("swarm", 0.25, 1), ("swarm", float("nan"), 4),
])
def test_check_method_params_rejects(method, tau, n):
    with pytest.raises(ConfigError):
        harness.check_method_params(method, tau, n)


def test_parse_config_text_roundtrip():
    cfg = parse_config_text(default_config_text())
    assert cfg == ExperimentConfig()


def test_parse_config_text_values():
    cfg = parse_config_text(
        """
        # comment line
        envs = point_reach, cart_balance
        methods = ensemble, swarm
        episode_counts = 1, 4
        n_seeds = 3
        tau = 0.5
        hidden_dims = 10, 12
        normalize_swarm = true
        ablations = false
        """
    )
    assert cfg.envs == ("point_reach", "cart_balance")
    assert cfg.episode_counts == (1, 4)
    assert cfg.tau == 0.5
    assert cfg.train.hidden_dims == (10, 12)
    assert cfg.train.normalize_swarm is True


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("learning_rte = 0.1")


def test_parse_config_rejects_duplicate_and_malformed():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("n_seeds = 2\nn_seeds = 3")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words")


def test_parse_config_rejects_empty_tau_grid():
    with pytest.raises(ConfigError):
        parse_config_text("tau_grid = ")


def test_default_config_text_bytes():
    assert default_config_text() == (
        "# swarmbc sweep configuration (key = value; '#' starts a comment)\n"
        "envs = point_reach, pendulum_swing, cart_balance\n"
        "methods = bc, ensemble, swarm\n"
        "episode_counts = 1, 2, 3, 4, 5, 6, 7, 8\n"
        "n_seeds = 5\n"
        "eval_episodes = 20\n"
        "tau = 0.25\n"
        "n_members = 4\n"
        "tau_grid = 0.0, 0.25, 0.5, 0.75, 1.0\n"
        "n_grid = 2, 4, 6, 8\n"
        "ablations = true\n"
        "master_seed = 0\n"
        "epochs = 400\n"
        "batch_size = 64\n"
        "learning_rate = 0.001\n"
        "patience = 50\n"
        "min_improvement = 0.0001\n"
        "hidden_dims = 16, 16\n"
        "normalize_swarm = false\n"
    )


EVERY_KEY_CHANGED = """
envs = cart_balance, point_reach
methods = swarm, bc
episode_counts = 2, 5
n_seeds = 3
eval_episodes = 7
tau = 0.5
n_members = 3
tau_grid = 0.0, 0.125
n_grid = 3, 5
ablations = false
master_seed = 11
epochs = 9
batch_size = 32
learning_rate = 0.002
patience = 4
min_improvement = 0.001
hidden_dims = 8, 6, 4
normalize_swarm = yes
"""


def test_every_config_key_maps_to_its_field():
    keys = [line.split("=")[0].strip() for line in EVERY_KEY_CHANGED.strip().splitlines()]
    default_keys = [line.split("=")[0].strip()
                    for line in default_config_text().splitlines()[1:]]
    assert keys == default_keys
    assert parse_config_text(EVERY_KEY_CHANGED) == ExperimentConfig(
        envs=("cart_balance", "point_reach"),
        methods=("swarm", "bc"),
        episode_counts=(2, 5),
        n_seeds=3,
        eval_episodes=7,
        tau=0.5,
        n_members=3,
        tau_grid=(0.0, 0.125),
        n_grid=(3, 5),
        ablations=False,
        master_seed=11,
        train=TrainConfig(
            epochs=9, batch_size=32, learning_rate=0.002, patience=4,
            min_rel_improvement=0.001, hidden_dims=(8, 6, 4), normalize_swarm=True,
        ),
    )


@pytest.mark.parametrize("text, match", [
    ("n_seeds = two", "bad value"),
    ("ablations = maybe", "expected true/false"),
    ("episode_counts = 1, x", "bad value"),
])
def test_parse_config_rejects_bad_values(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config_text(text)


@pytest.mark.parametrize("kwargs", [
    dict(hidden_dims=(0,)),
    dict(hidden_dims=(16, 0)),
    dict(hidden_dims=(-4,)),
    dict(learning_rate=0.0),
    dict(learning_rate=-0.1),
])
def test_train_config_rejects_invalid_values(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_invalid_worker_count(tmp_path, workers):
    with pytest.raises(ConfigError, match="workers"):
        run_sweep(tiny_config(), tmp_path / "out", workers=workers)
    assert not (tmp_path / "out").exists()


def test_results_store_roundtrip_and_noop(tmp_path):
    path = tmp_path / "results.csv"
    store = ResultsStore(path)
    rec = RunRecord(
        env="point_reach", method="swarm", n_expert_episodes=1, tau=0.25,
        n_members=4, seed=0, scaled_return=0.8123456789012345,
        action_diff=0.04,
    )
    store.append(rec)
    bc_rec = RunRecord(
        env="point_reach", method="bc", n_expert_episodes=1, tau=0.0,
        n_members=1, seed=0, scaled_return=0.5, action_diff=None,
    )
    store.append(bc_rec)
    before = path.read_bytes()
    store.append(rec)  # duplicate key: no-op
    assert path.read_bytes() == before

    loaded = ResultsStore(path)
    assert len(loaded.records) == 2
    assert loaded.records[0].scaled_return == rec.scaled_return  # lossless
    assert loaded.records[1].action_diff is None
    assert loaded.has(Cell("point_reach", "swarm", 1, 0.25, 4, 0))
    assert not loaded.has(Cell("point_reach", "swarm", 1, 0.25, 4, 1))


def test_results_store_rejects_foreign_file(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("env,method\n")
    with pytest.raises(ConfigError):
        ResultsStore(path)


def test_results_store_drops_torn_tail(tmp_path):
    path = tmp_path / "results.csv"
    store = ResultsStore(path)
    rec = RunRecord(
        env="point_reach", method="swarm", n_expert_episodes=1, tau=0.25,
        n_members=4, seed=0, scaled_return=0.5, action_diff=0.04,
    )
    store.append(rec)
    complete = path.read_bytes()
    with open(path, "a") as f:  # an append cut short after "-0."
        f.write("point_reach,ensemble,1,0.0,4,0,-0.")
    with pytest.warns(RuntimeWarning, match="unterminated"):
        loaded = ResultsStore(path)
    assert len(loaded.records) == 1
    assert not loaded.has(Cell("point_reach", "ensemble", 1, 0.0, 4, 0))
    assert path.read_bytes() == complete
    torn_again = RunRecord(
        env="point_reach", method="ensemble", n_expert_episodes=1, tau=0.0,
        n_members=4, seed=0, scaled_return=-0.25, action_diff=0.1,
    )
    loaded.append(torn_again)
    reread = ResultsStore(path)
    assert [r.scaled_return for r in reread.records] == [0.5, -0.25]


def test_results_store_non_numeric_field_is_config_error(tmp_path):
    path = tmp_path / "results.csv"
    ResultsStore(path).append(RunRecord(
        env="point_reach", method="bc", n_expert_episodes=1, tau=0.0,
        n_members=1, seed=0, scaled_return=0.5, action_diff=None,
    ))
    text = path.read_text().replace("0.5", "abc")
    path.write_text(text)
    with pytest.raises(ConfigError, match="malformed row"):
        ResultsStore(path)


def test_baselines_recomputed_when_cache_key_differs(tmp_path):
    load_or_compute_baselines(tiny_config(eval_episodes=2), tmp_path)
    cfg = tiny_config(eval_episodes=5)
    cached = load_or_compute_baselines(cfg, tmp_path)
    seed = fan_out_seed(cfg.master_seed, "baseline", "point_reach")
    fresh = baseline_returns(make_env("point_reach"), n_episodes=5, seed=seed)
    assert cached["point_reach"] == fresh
    lines = (tmp_path / "baselines.csv").read_text().splitlines()
    assert lines[2].split(",")[:3] == ["point_reach", "5", str(seed)]


def test_baselines_cached(tmp_path):
    cfg = tiny_config(eval_episodes=4)
    first = load_or_compute_baselines(cfg, tmp_path)
    stamp = (tmp_path / "baselines.csv").read_bytes()
    second = load_or_compute_baselines(cfg, tmp_path)
    assert first == second
    assert (tmp_path / "baselines.csv").read_bytes() == stamp
    r_random, r_expert = first["point_reach"]
    assert r_expert > r_random


def test_sweep_runs_resumes_and_is_deterministic(tmp_path):
    cfg = tiny_config()
    out1 = tmp_path / "run1"
    store1 = run_sweep(cfg, out1)
    results1 = (out1 / "results.csv").read_bytes()
    assert len(store1.records) == 2 * 2  # methods x seeds

    # rerunning is a no-op on the store file
    run_sweep(cfg, out1)
    assert (out1 / "results.csv").read_bytes() == results1

    # a fresh run of the same config is byte-identical
    out2 = tmp_path / "run2"
    run_sweep(cfg, out2)
    assert (out2 / "results.csv").read_bytes() == results1

    # interrupt-and-resume: seed a store with only the first cell's row,
    # then resume; the final store matches the uninterrupted one
    out3 = tmp_path / "run3"
    out3.mkdir()
    text1 = (out1 / "results.csv").read_text().splitlines(keepends=True)
    (out3 / "results.csv").write_text("".join(text1[:3]))  # schema+header+row
    run_sweep(cfg, out3)
    assert (out3 / "results.csv").read_bytes() == results1

    # summary artifacts exist
    assert (out1 / "returns_point_reach.csv").exists()
    assert (out1 / "returns_point_reach.svg").exists()
    assert (out1 / "action_diff_point_reach.csv").exists()


def test_sweep_force_reruns(tmp_path):
    cfg = tiny_config(n_seeds=1)
    out = tmp_path / "run"
    run_sweep(cfg, out)
    results = (out / "results.csv").read_bytes()
    (out / "results.csv").write_bytes(b"# schema=swarmbc.results.v1\n" + b"env,method,n_expert_episodes,tau,n_members,seed,scaled_return,action_diff\n")
    store = run_sweep(cfg, out, force=True)
    assert (out / "results.csv").read_bytes() == results
    assert len(store.records) == 2


def test_sweep_trace_files_written(tmp_path):
    cfg = tiny_config()
    out = tmp_path / "run"
    run_sweep(cfg, out)
    traces = sorted(p.name for p in (out / "traces").glob("*.csv"))
    assert traces == [
        "point_reach__ensemble__ep1__seed0.csv",
        "point_reach__ensemble__ep1__seed1.csv",
        "point_reach__swarm__ep1__seed0.csv",
        "point_reach__swarm__ep1__seed1.csv",
    ]
    lines = (out / "traces" / traces[0]).read_text().splitlines()
    assert lines[0] == "t,d_mean"
    assert len(lines) == 201  # header + one row per timestep


def test_failures_csv_keeps_only_cells_still_without_result(tmp_path):
    cfg = tiny_config(n_seeds=1)
    out = tmp_path / "run"
    out.mkdir()
    # an earlier attempt failed on a cell of this sweep and on one outside it
    _record_failure(out, Cell("point_reach", "ensemble", 1, 0.0, 4, 0), "Boom: a, b")
    _record_failure(out, Cell("cart_balance", "bc", 2, 0.0, 1, 3), "Boom: c")
    run_sweep(cfg, out)
    lines = (out / "failures.csv").read_text().splitlines()
    assert lines == [
        "env,method,n_episodes,tau,n_members,seed,error",
        "cart_balance,bc,2,0.0,1,3,Boom: c",
    ]

    out2 = tmp_path / "run2"
    out2.mkdir()
    _record_failure(out2, Cell("point_reach", "swarm", 1, 0.25, 4, 0), "Boom")
    run_sweep(cfg, out2)
    assert not (out2 / "failures.csv").exists()


def test_zero_byte_results_file_is_treated_as_absent(tmp_path):
    cfg = tiny_config(n_seeds=1)
    fresh = tmp_path / "fresh"
    run_sweep(cfg, fresh)
    crashed = tmp_path / "crashed"
    crashed.mkdir()
    (crashed / "results.csv").write_bytes(b"")
    store = run_sweep(cfg, crashed)
    assert len(store.records) == 2
    assert (crashed / "results.csv").read_bytes() == (fresh / "results.csv").read_bytes()


@pytest.mark.parametrize("torn", ["# sche", "# schema=swarmbc.results.v1\nenv,meth"],
                         ids=["schema_line", "header"])
def test_results_file_cut_inside_its_preamble_is_treated_as_absent(tmp_path, torn):
    cfg = tiny_config(n_seeds=1)
    fresh = tmp_path / "fresh"
    run_sweep(cfg, fresh)
    crashed = tmp_path / "crashed"
    crashed.mkdir()
    (crashed / "results.csv").write_text(torn)
    run_sweep(cfg, crashed)
    assert (crashed / "results.csv").read_bytes() == (fresh / "results.csv").read_bytes()


def test_sweep_survives_torn_failures_row(tmp_path, monkeypatch):
    cfg = tiny_config(n_seeds=1)
    out = tmp_path / "run"
    out.mkdir()
    _record_failure(out, Cell("cart_balance", "bc", 2, 0.0, 1, 3), "Boom: c")
    with open(out / "failures.csv", "a") as f:  # an append cut short
        f.write("point_re")
    victim = Cell("point_reach", "swarm", 1, 0.25, 4, 0)
    real_run_cell = harness.run_cell

    def failing(cfg, cell, baselines):
        if cell == victim:
            raise RuntimeError("no luck")
        return real_run_cell(cfg, cell, baselines)

    monkeypatch.setattr(harness, "run_cell", failing)
    with pytest.warns(RuntimeWarning, match="unterminated"):
        run_sweep(cfg, out)
    assert (out / "failures.csv").read_text().splitlines() == [
        "env,method,n_episodes,tau,n_members,seed,error",
        "cart_balance,bc,2,0.0,1,3,Boom: c",
        "point_reach,swarm,1,0.25,4,0,RuntimeError: no luck",
    ]
    assert (out / "returns_point_reach.csv").exists()
    assert (out / "action_diff_point_reach.csv").exists()


def test_failure_message_with_comma_and_newline_survives(tmp_path):
    message = 'ValueError: bad shape (2, 3),\n  in "layer 1"'
    cell = Cell("point_reach", "swarm", 1, 0.25, 4, 0)
    _record_failure(tmp_path, cell, message)
    recorded = (tmp_path / "failures.csv").read_bytes()
    _record_failure(tmp_path, Cell("point_reach", "swarm", 1, 0.25, 4, 1), message)
    path = tmp_path / "failures.csv"
    torn = path.read_bytes()
    path.write_bytes(torn[: torn.rindex(b"\n", 0, len(torn) - 1) + 1])  # cut after the embedded newline
    with pytest.warns(RuntimeWarning, match="unterminated"):
        _prune_failures(tmp_path, ResultsStore(tmp_path / "results.csv"))
    assert path.read_bytes() == recorded
    _prune_failures(tmp_path, ResultsStore(tmp_path / "results.csv"))
    assert path.read_bytes() == recorded
    with open(path, newline="") as f:
        assert list(csv.reader(f))[1] == [*map(str, cell.key()), message]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched run_cell reaches the workers only under fork")
def test_dead_worker_fails_only_its_cell(tmp_path, monkeypatch):
    cfg = tiny_config()
    reference = run_sweep(cfg, tmp_path / "reference")
    victim = Cell("point_reach", "ensemble", 1, 0.0, 4, 1)
    real_run_cell = harness.run_cell

    def dying(cfg, cell, baselines):
        if cell == victim:
            os._exit(7)  # the worker process dies without a Python exception
        return real_run_cell(cfg, cell, baselines)

    monkeypatch.setattr(harness, "run_cell", dying)
    out = tmp_path / "run"
    store = run_sweep(cfg, out, workers=2)
    expected = [r for r in reference.records
                if (r.method, r.seed) != (victim.method, victim.seed_index)]
    assert store.records == expected
    assert ResultsStore(out / "results.csv").records == expected
    failures = (out / "failures.csv").read_text().splitlines()
    assert len(failures) == 2
    assert failures[1].startswith("point_reach,ensemble,1,0.0,4,1,")
    assert (out / "returns_point_reach.csv").exists()

    monkeypatch.undo()
    store = run_sweep(cfg, out, workers=2)
    assert sorted(store.records, key=repr) == sorted(reference.records, key=repr)
    assert not (out / "failures.csv").exists()
