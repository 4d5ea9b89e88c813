import pytest

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
from swarmbc.harness import _record_failure
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
