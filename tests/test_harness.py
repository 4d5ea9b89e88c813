import contextlib
import csv
import fcntl
import io
import itertools
import json
import multiprocessing
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import time
import warnings
from dataclasses import astuple, fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from swarmbc import harness, metrics
from swarmbc.ensemble import METHODS, TrainConfig, check_method_params
from swarmbc.errors import ConfigError
from swarmbc.harness import (
    Cell,
    ExperimentConfig,
    ResultsStore,
    cell_seeds,
    config_text,
    enumerate_cells,
    fan_out_seed,
    load_or_compute_baselines,
    parse_config_text,
    run_sweep,
)
from swarmbc.harness import _record_failure, read_table
from swarmbc.envs import ENV_IDS, generate_dataset, make_env
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


def test_acceptance_config_is_the_paired_sweep():
    """``acceptance.cfg``, the sweep of acceptance criteria 4 and 5, is the
    paired config the README describes: 90 cells."""
    cfg = harness.parse_config_file(Path(__file__).with_name("acceptance.cfg"))
    paired = ExperimentConfig(methods=("ensemble", "swarm"), episode_counts=(1, 4, 8),
                              n_seeds=5, eval_episodes=20, ablations=False, master_seed=0)
    assert config_text(cfg) == config_text(paired)
    assert len(enumerate_cells(cfg)) == 90


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


@pytest.mark.parametrize("name, values", [
    ("envs", ("point_reach", "cart_balance", "point_reach")),
    ("methods", ("bc", "bc")),
    ("episode_counts", (2, 1, 2)),
    ("tau_grid", (0.0, 0.5, 0.5)),
    ("n_grid", (4, 4)),
])
def test_config_rejects_a_repeated_value(name, values):
    with pytest.raises(ConfigError, match=f"^{name} repeats a value"):
        ExperimentConfig(**{name: values})


@pytest.mark.parametrize("kwargs", [
    dict(n_members=1),  # ensemble and swarm cells of one member
    dict(methods=("bc",), n_members=1),  # the tau ablation trains ensembles
    dict(methods=("bc", "ensemble"), tau=0.0),  # the N ablation trains swarms
    dict(methods=("bc",), n_members=1, tau_grid=(0.0,)),  # ... at tau = 0 alone too
])
def test_config_rejects_invalid_method_params(kwargs):
    with pytest.raises(ConfigError, match="N >= 2|tau > 0"):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(tau=float("inf")), dict(tau=float("nan")), dict(tau_grid=(0.0, float("inf"))),
    dict(tau_grid=(0.0, float("nan"))), dict(tau_grid=(-0.25, 0.5)),
])
def test_config_rejects_tau_outside_zero_to_inf(kwargs):
    with pytest.raises(ConfigError, match=r"tau must be in \[0, inf\)"):
        ExperimentConfig(**kwargs)


def test_config_accepts_single_policy_bc_sweep():
    cfg = ExperimentConfig(methods=("bc",), n_members=1, ablations=False)
    assert {c.n_members for c in enumerate_cells(cfg)} == {1}


@pytest.mark.parametrize("method, tau, n", [
    ("bc", 0.0, 2), ("bc", 0.5, 1), ("ensemble", 0.0, 1), ("ensemble", 0.25, 4),
    ("ensemble", -0.5, 4), ("swarm", 0.0, 4), ("swarm", 0.25, 1), ("swarm", float("nan"), 4),
    ("swarm", float("inf"), 4),
])
def test_check_method_params_rejects(method, tau, n):
    with pytest.raises(ConfigError):
        check_method_params(method, tau, n)


def test_parse_config_text_roundtrip():
    cfg = parse_config_text(config_text(ExperimentConfig()))
    assert cfg == ExperimentConfig()


def _unique(values):
    return st.lists(values, min_size=1, unique=True).map(tuple)


def _ordered_subset(values):
    return st.permutations(values).flatmap(
        lambda order: st.integers(1, len(order)).map(lambda k: tuple(order[:k])))


NON_NEGATIVE = st.floats(0, allow_infinity=False) | st.just(-0.0)
POSITIVE = st.floats(0, exclude_min=True, allow_infinity=False)
VALID_CONFIGS = st.builds(
    ExperimentConfig,
    envs=_ordered_subset(ENV_IDS),
    methods=_ordered_subset(METHODS),
    episode_counts=_unique(st.integers(1, 10**6)),
    n_seeds=st.integers(1, 10**6),
    eval_episodes=st.integers(1, 10**6),
    tau=POSITIVE,
    n_members=st.integers(2, 64),
    tau_grid=_unique(NON_NEGATIVE),
    n_grid=_unique(st.integers(2, 64)),
    ablations=st.booleans(),
    master_seed=st.integers(-10**20, 10**20),
    train=st.builds(TrainConfig, epochs=st.integers(1, 10**6), batch_size=st.integers(1, 10**6),
                    learning_rate=POSITIVE,
                    hidden_dims=st.lists(st.integers(1, 64), min_size=1).map(tuple),
                    patience=st.integers(0, 10**6), min_improvement=NON_NEGATIVE,
                    normalize_swarm=st.booleans()),
)


@given(cfg=VALID_CONFIGS)
@example(cfg=ExperimentConfig(tau=5e-324, tau_grid=(-0.0, 1e300), master_seed=-1,
                              train=TrainConfig(learning_rate=0.1, min_improvement=-0.0)))
def test_a_config_reads_back_from_its_config_text_exactly(cfg):
    text = config_text(cfg)
    back = parse_config_text(text)
    assert back == cfg
    assert config_text(back) == text  # bit for bit; a tau of -0.0 is kept as 0.0


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
    assert config_text(ExperimentConfig()) == (
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
                    for line in config_text(ExperimentConfig()).splitlines()[1:]]
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
            min_improvement=0.001, hidden_dims=(8, 6, 4), normalize_swarm=True,
        ),
    )


def test_each_config_key_is_the_name_of_one_field():
    experiment = {f.name for f in fields(ExperimentConfig)} - {"train"}
    train = {f.name for f in fields(TrainConfig)}
    assert not experiment & train
    assert set(harness.CONFIG_KEYS) == experiment | train


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
    dict(learning_rate=float("inf")),
    dict(patience=-3),
    dict(patience=float("nan")),
    dict(min_improvement=-0.5),
    dict(min_improvement=float("nan")),
    dict(min_improvement=float("inf")),
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


def _bits(rec):
    return [struct.pack(">d", v) if isinstance(v, float) else v for v in astuple(rec)]


# NaN is left out: its text, "nan", keeps neither its sign nor its payload
FLOATS = st.floats(allow_nan=False)


@given(cell=st.builds(Cell, st.sampled_from(ENV_IDS), st.sampled_from((*METHODS, "expert")),
                      st.integers(0, 10**6), FLOATS, st.integers(1, 64), st.integers(0, 10**6)),
       scaled_return=FLOATS, action_diff=st.none() | FLOATS)
@example(cell=Cell("point_reach", "swarm", 1, -0.0, 4, 0), scaled_return=-0.0,
         action_diff=5e-324)
@example(cell=Cell("cart_balance", "bc", 8, 0.0, 1, 3), scaled_return=-2.2250738585072e-308,
         action_diff=None)
def test_a_results_row_reads_back_bit_for_bit(cell, scaled_return, action_diff):
    rec = RunRecord(*astuple(cell), scaled_return, action_diff)
    row = rec.row()
    (written,) = csv.reader(io.StringIO(harness._csv_text([row])))
    for back in (RunRecord.parse(row), RunRecord.parse(written)):
        assert type(back) is RunRecord and back.key() == cell.key()
        assert _bits(back) == _bits(rec)


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


def _store_with_two_rows(path):
    store = ResultsStore(path)
    for seed in (0, 1):
        store.append(RunRecord(
            env="point_reach", method="swarm", n_expert_episodes=1, tau=0.25,
            n_members=4, seed=seed, scaled_return=0.5 + seed, action_diff=0.04,
        ))
    return path.read_bytes()


def test_results_store_drops_repeated_identical_rows(tmp_path):
    path = tmp_path / "results.csv"
    original = _store_with_two_rows(path)
    first_row = original.splitlines(keepends=True)[2]
    path.write_bytes(original + first_row + first_row)
    with pytest.warns(RuntimeWarning, match="dropping 2 repeated"):
        store = ResultsStore(path)
    assert [r.seed for r in store.records] == [0, 1]
    assert path.read_bytes() == original
    ResultsStore(path)  # clean now: no warning


def test_results_store_rejects_two_different_rows_for_one_cell(tmp_path):
    path = tmp_path / "results.csv"
    original = _store_with_two_rows(path)
    first_row = original.splitlines(keepends=True)[2]
    path.write_bytes(original + first_row.replace(b"0.5,", b"0.75,"))
    with pytest.raises(ConfigError, match="two different rows for one cell"):
        ResultsStore(path)
    assert path.read_bytes() == original + first_row.replace(b"0.5,", b"0.75,")


def test_sweep_resume_drops_a_repeated_row_before_summarising(tmp_path):
    cfg = tiny_config(n_seeds=1)
    run_sweep(cfg, tmp_path)
    results, summary = tmp_path / "results.csv", tmp_path / "returns_point_reach.csv"
    before = results.read_bytes(), summary.read_bytes()
    results.write_bytes(before[0] + before[0].splitlines(keepends=True)[-1])
    with pytest.warns(RuntimeWarning, match="dropping 1 repeated"):
        store = run_sweep(cfg, tmp_path)
    assert len(store.records) == 2
    assert (results.read_bytes(), summary.read_bytes()) == before


def test_baselines_recomputed_when_cache_key_differs(tmp_path):
    load_or_compute_baselines(tiny_config(eval_episodes=2), tmp_path)
    cfg = tiny_config(eval_episodes=5)
    cached = load_or_compute_baselines(cfg, tmp_path)
    seed = fan_out_seed(cfg.master_seed, "baseline", "point_reach")
    fresh = baseline_returns(make_env("point_reach"), n_episodes=5, seed=seed)
    assert cached["point_reach"] == fresh
    lines = (tmp_path / "baselines.csv").read_text().splitlines()
    assert lines[2].split(",")[:3] == ["point_reach", "5", str(seed)]


def test_baselines_are_recomputed_to_the_same_bytes(tmp_path):
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
    (out3 / harness.CONFIG_FILE).write_bytes((out1 / harness.CONFIG_FILE).read_bytes())
    run_sweep(cfg, out3)
    assert (out3 / "results.csv").read_bytes() == results1

    # summary artifacts exist
    assert (out1 / "returns_point_reach.csv").exists()
    assert (out1 / "returns_point_reach.svg").exists()
    assert (out1 / "action_diff_point_reach.csv").exists()


def _scripted_calls(monkeypatch):
    """(env, episodes) of every scripted ``rollouts`` call from now on (the
    sweep's evaluation runs through ``harness.rollouts``, not counted)."""
    calls, real = [], metrics.rollouts

    def counting(env, policy, seeds, record_members=False):
        seeds = list(seeds)
        calls.append((env.spec.env_id, len(seeds)))
        return real(env, policy, seeds, record_members)

    monkeypatch.setattr(metrics, "rollouts", counting)
    return calls


def _module_state():
    """repr of every module-level container of the package."""
    return {(name, key): repr(value) for name, module in list(sys.modules.items())
            if name.split(".")[0] == "swarmbc" for key, value in vars(module).items()
            if not key.startswith("__") and isinstance(value, (dict, list, set))}


def _bytes(array):
    return array.dtype, array.shape, array.tobytes()


def test_sweep_trains_on_datasets_and_baselines_from_one_call_per_env(tmp_path, monkeypatch):
    # cart_balance first, so that the ablations run on it too: its random
    # episodes fail early and the live set compacts
    cfg = tiny_config(envs=("cart_balance", "point_reach"), methods=("bc", "ensemble", "swarm"),
                      episode_counts=(1, 2), eval_episodes=4, ablations=True,
                      tau_grid=(0.0, 0.5), n_grid=(2, 3),
                      train=TrainConfig(epochs=2, hidden_dims=(4,)))
    calls, state, seen = _scripted_calls(monkeypatch), _module_state(), {}
    real_run_cell = harness.run_cell

    def recording(cfg, cell, inputs):
        assert _module_state() == state
        seen[cell] = inputs
        result = real_run_cell(cfg, cell, inputs)
        assert _module_state() == state  # nothing is kept for the next cell
        return result

    monkeypatch.setattr(harness, "run_cell", recording)
    run_sweep(cfg, tmp_path)
    monkeypatch.undo()
    assert _module_state() == state
    assert set(seen) == set(enumerate_cells(cfg))
    keys = {harness.dataset_key(cfg, cell) for cell in seen}
    assert sorted(calls) == sorted(
        (env, 2 * cfg.eval_episodes + sum(n for e, n, _ in keys if e == env)) for env in cfg.envs)

    rows = {row[0]: row[1:] for row in csv.reader((tmp_path / "baselines.csv").open())}
    for env_id in cfg.envs:
        seed = fan_out_seed(cfg.master_seed, "baseline", env_id)
        want = baseline_returns(make_env(env_id), cfg.eval_episodes, seed)
        assert rows[env_id] == [str(cfg.eval_episodes), str(seed), *map(repr, want)]
    datasets = {}
    for cell, (baseline, data) in seen.items():
        assert baseline == tuple(map(float, rows[cell.env][2:]))
        env, n_episodes, data_seed = key = harness.dataset_key(cfg, cell)
        want = datasets.setdefault(key, generate_dataset(make_env(env), n_episodes, data_seed))
        assert data.meta == want.meta
        for name in ("states", "actions", "obs_mean", "obs_std"):
            assert _bytes(getattr(data, name)) == _bytes(getattr(want, name)), (cell, name)
    assert len(datasets) == 2 * 2 * 2  # envs x sizes x seeds


def test_a_resume_rolls_out_only_what_is_missing(tmp_path, monkeypatch):
    cfg = tiny_config(envs=("point_reach", "cart_balance"), methods=("bc", "swarm"),
                      episode_counts=(1, 2), train=TrainConfig(epochs=2, hidden_dims=(4,)))
    run_sweep(cfg, tmp_path / "clean")
    clean = _files(tmp_path / "clean")
    out = tmp_path / "run"
    run_sweep(cfg, out)
    results = out / "results.csv"
    # lose the last two cells: cart_balance swarm on 2 episodes, seeds 0 and 1
    results.write_bytes(b"".join(results.read_bytes().splitlines(keepends=True)[:-2]))
    calls = _scripted_calls(monkeypatch)
    baselines = [("point_reach", 2 * cfg.eval_episodes), ("cart_balance", 2 * cfg.eval_episodes)]
    run_sweep(cfg, out)
    # every env's baseline, and the datasets of the two lost cells
    assert calls == [baselines[0], ("cart_balance", 2 * cfg.eval_episodes + 2 + 2)]
    assert _files(out) == clean
    calls.clear()
    run_sweep(cfg, out)
    assert calls == baselines
    assert _files(out) == clean


def test_a_resume_recomputes_an_edited_baseline(tmp_path):
    cfg = tiny_config(envs=("point_reach", "cart_balance"), methods=("bc", "swarm"),
                      train=TrainConfig(epochs=2, hidden_dims=(4,)))
    run_sweep(cfg, tmp_path / "clean")
    clean = _files(tmp_path / "clean")
    out = tmp_path / "run"
    run_sweep(cfg, out)
    results, baselines = out / "results.csv", out / "baselines.csv"
    # lose the last cell, a cart_balance one, and scale that env's expert return
    results.write_bytes(b"".join(results.read_bytes().splitlines(keepends=True)[:-1]))
    rows = baselines.read_text().splitlines(keepends=True)
    *key, r_random, r_expert = rows[2].rstrip("\n").split(",")
    assert key[0] == "cart_balance"
    rows[2] = ",".join([*key, r_random, repr(2 * float(r_expert))]) + "\n"
    baselines.write_text("".join(rows))
    run_sweep(cfg, out)
    assert _files(out) == clean


def test_sweep_outputs_are_identical_across_workers_and_a_resume(tmp_path):
    cfg = tiny_config(envs=("pendulum_swing", "cart_balance"), methods=("bc", "ensemble", "swarm"),
                      episode_counts=(1, 2), ablations=True, tau_grid=(0.0, 0.5), n_grid=(2, 3),
                      train=TrainConfig(epochs=3, hidden_dims=(8,)))
    run_sweep(cfg, tmp_path / "serial")
    want = _files(tmp_path / "serial")
    run_sweep(cfg, tmp_path / "parallel", workers=2)
    assert _files(tmp_path / "parallel") == want

    progress = []

    def interrupt(line):
        progress.append(line)
        if len(progress) == 6:  # the log line, then five cells
            raise KeyboardInterrupt

    out = tmp_path / "resumed"
    with pytest.raises(KeyboardInterrupt):
        run_sweep(cfg, out, log=interrupt)
    assert not (out / harness.LOCK_FILE).exists()
    assert len(ResultsStore(out / "results.csv").records) == 5
    run_sweep(cfg, out, workers=2)
    assert _files(out) == want


def test_sweep_force_reruns(tmp_path):
    cfg = tiny_config(n_seeds=1)
    out = tmp_path / "run"
    run_sweep(cfg, out)
    results = (out / "results.csv").read_bytes()
    (out / "results.csv").write_bytes(b"# schema=swarmbc.results.v1\n" + b"env,method,n_expert_episodes,tau,n_members,seed,scaled_return,action_diff\n")
    store = run_sweep(cfg, out, force=True)
    assert (out / "results.csv").read_bytes() == results
    assert len(store.records) == 2


def _files(out):
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_summaries_after_a_rerun_of_failed_cells_equal_a_clean_sweep(tmp_path, monkeypatch):
    cfg = tiny_config(envs=("point_reach", "cart_balance"), methods=("bc", "ensemble", "swarm"),
                      n_seeds=5, eval_episodes=2, master_seed=1,
                      train=TrainConfig(epochs=3, hidden_dims=(8,)))
    run_sweep(cfg, tmp_path / "clean")
    clean = _files(tmp_path / "clean")
    real_run_cell = harness.run_cell

    def failing(cfg, cell, baselines):
        if cell.seed == 0:
            raise RuntimeError("transient")
        return real_run_cell(cfg, cell, baselines)

    monkeypatch.setattr(harness, "run_cell", failing)
    out = tmp_path / "rerun"
    run_sweep(cfg, out)
    assert (out / "failures.csv").exists()
    monkeypatch.undo()
    run_sweep(cfg, out)
    rerun = _files(out)
    # the rerun cells' rows sit at the end of results.csv; every other file is equal
    rows, clean_rows = rerun.pop("results.csv"), clean.pop("results.csv")
    assert rows != clean_rows
    assert sorted(rows.splitlines()) == sorted(clean_rows.splitlines())
    assert sorted(rerun) == sorted(clean)
    for name, data in rerun.items():
        assert data == clean[name], name


def test_summaries_do_not_depend_on_the_order_of_config_lists(tmp_path):
    ordered = tiny_config(methods=("bc", "ensemble", "swarm"), episode_counts=(1, 2), n_seeds=1,
                          eval_episodes=1, tau_grid=(0.0, 0.5), n_grid=(2, 3), ablations=True,
                          train=TrainConfig(epochs=2, hidden_dims=(4,)))
    permuted = replace(ordered, episode_counts=(2, 1), tau_grid=(0.5, 0.0), n_grid=(3, 2))
    run_sweep(ordered, tmp_path / "ordered")
    run_sweep(permuted, tmp_path / "permuted")
    want, got = _files(tmp_path / "ordered"), _files(tmp_path / "permuted")
    assert {name for name in got if name.endswith(".svg")} == {
        "returns_point_reach.svg", "action_diff_point_reach.svg",
        "ablation_tau.svg", "ablation_n.svg"}
    # cells run, and so are appended, in config order; the config differs
    assert sorted(got.pop("results.csv").splitlines()) == sorted(
        want.pop("results.csv").splitlines())
    assert got.pop(harness.CONFIG_FILE) != want.pop(harness.CONFIG_FILE)
    assert sorted(got) == sorted(want)
    for name, data in got.items():
        assert data == want[name], name


def test_a_list_for_a_tuple_or_an_int_for_a_float_is_the_same_config(tmp_path):
    """A resume compares configs as config.cfg reads back."""
    cfg = tiny_config(n_seeds=1, eval_episodes=1, tau=1.0,
                      train=TrainConfig(epochs=2, hidden_dims=(4,)))
    out = tmp_path / "out"
    run_sweep(cfg, out)
    files = _files(out)
    assert files[harness.CONFIG_FILE] == config_text(cfg).encode()
    log = []
    run_sweep(replace(cfg, tau=1, episode_counts=[1], train=replace(cfg.train, hidden_dims=[4])),
              out, log=log.append)
    assert log[0].endswith(", 0 to run")
    assert _files(out) == files


def test_sweep_force_removes_the_old_configs_summaries(tmp_path):
    out = tmp_path / "run"
    train = TrainConfig(epochs=2, hidden_dims=(4,))
    run_sweep(tiny_config(envs=("point_reach", "cart_balance"), n_seeds=1, ablations=True,
                          tau_grid=(0.0, 0.25), n_grid=(2, 4), train=train), out)
    summaries = ["returns_point_reach", "returns_cart_balance", "action_diff_point_reach",
                 "action_diff_cart_balance", "ablation_tau", "ablation_n"]
    for name in summaries:
        assert (out / f"{name}.csv").exists() and (out / f"{name}.svg").exists()
    run_sweep(tiny_config(n_seeds=1, train=train), out, force=True)
    left = sorted(p.name for p in out.iterdir() if p.stem in summaries)
    assert left == ["action_diff_point_reach.csv", "action_diff_point_reach.svg",
                    "returns_point_reach.csv", "returns_point_reach.svg"]
    assert sorted(p.name for p in (out / "traces").iterdir()) == [
        "point_reach__ensemble__ep1__seed0.csv", "point_reach__swarm__ep1__seed0.csv"]


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


def test_only_cells_of_the_returns_grid_write_trace_files(tmp_path):
    # one dataset size: the ablation cell at tau 0.25, N 4 has the swarm settings,
    # but swarm is not a method of the sweep, so no summary reads its trace
    run_sweep(tiny_config(methods=("bc", "ensemble"), n_seeds=1, ablations=True,
                          tau_grid=(0.0, 0.25), n_grid=(4,),
                          train=TrainConfig(epochs=2, hidden_dims=(4,))), tmp_path)
    traces = sorted(p.name for p in (tmp_path / "traces").iterdir())
    assert traces == ["point_reach__ensemble__ep1__seed0.csv"]
    assert (tmp_path / "action_diff_point_reach.csv").read_text().startswith("t,d_ensemble_mean\n")


def test_failures_csv_keeps_only_cells_still_without_result(tmp_path, monkeypatch):
    cfg = tiny_config(n_seeds=1)
    out = tmp_path / "run"
    out.mkdir()
    # an earlier run failed on a cell of this sweep and on one outside it
    _record_failure(out, Cell("point_reach", "ensemble", 1, 0.0, 4, 0), "Boom: a, b")
    _record_failure(out, Cell("cart_balance", "bc", 2, 0.0, 1, 3), "Boom: c")
    victim = Cell("point_reach", "swarm", 1, 0.25, 4, 0)
    real_run_cell = harness.run_cell

    def failing(cfg, cell, inputs):
        if cell == victim:
            raise RuntimeError("no luck")
        return real_run_cell(cfg, cell, inputs)

    monkeypatch.setattr(harness, "run_cell", failing)
    run_sweep(cfg, out)
    assert (out / "failures.csv").read_text().splitlines() == [
        "env,method,n_episodes,tau,n_members,seed,error",
        "point_reach,swarm,1,0.25,4,0,RuntimeError: no luck",
    ]
    monkeypatch.undo()
    run_sweep(cfg, out)
    assert not (out / "failures.csv").exists()


def test_a_cell_failing_in_three_runs_has_one_failure_row(tmp_path, monkeypatch):
    cfg = tiny_config(n_seeds=1)
    victim = Cell("point_reach", "ensemble", 1, 0.0, 4, 0)
    real_run_cell = harness.run_cell

    def failing(cfg, cell, inputs):
        if cell == victim:
            raise RuntimeError("no luck")
        return real_run_cell(cfg, cell, inputs)

    monkeypatch.setattr(harness, "run_cell", failing)
    out = tmp_path / "run"
    for _ in range(3):
        store = run_sweep(cfg, out)
    assert len(store.records) == 1
    assert (out / "failures.csv").read_text().splitlines() == [
        "env,method,n_episodes,tau,n_members,seed,error",
        "point_reach,ensemble,1,0.0,4,0,RuntimeError: no luck",
    ]


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
    with warnings.catch_warnings():  # the earlier run's file is removed, not repaired
        warnings.simplefilter("error")
        run_sweep(cfg, out)
    assert (out / "failures.csv").read_text().splitlines() == [
        "env,method,n_episodes,tau,n_members,seed,error",
        "point_reach,swarm,1,0.25,4,0,RuntimeError: no luck",
    ]
    assert (out / "returns_point_reach.csv").exists()
    assert (out / "action_diff_point_reach.csv").exists()


def test_failure_message_with_comma_and_newline_survives(tmp_path):
    message = 'ValueError: bad shape (2, 3),\n  in "layer 1"'
    cells = [Cell("point_reach", "swarm", 1, 0.25, 4, k) for k in range(2)]
    for cell in cells:
        _record_failure(tmp_path, cell, message)
    with open(tmp_path / "failures.csv", newline="") as f:
        assert list(csv.reader(f))[1:] == [[*map(str, cell.key()), message] for cell in cells]


def test_read_table_drops_a_torn_row_cut_after_a_quoted_newline(tmp_path):
    path = tmp_path / "table.csv"
    rows = [["a", 'one, "two"\nthree'], ["b", "four\nfive"]]
    harness.write_table(path, ("key", "text"), rows)
    whole = path.read_bytes()
    recorded = whole[: whole.index(b"\nb,") + 1]  # the header and the first row
    path.write_bytes(whole[: whole.rindex(b"\n", 0, len(whole) - 1) + 1])  # after "four\n"
    with pytest.warns(RuntimeWarning, match="unterminated"):
        assert read_table(path, ("key", "text"), list) == rows[:1]
    assert path.read_bytes() == recorded
    assert read_table(path, ("key", "text"), list) == rows[:1]


# A sweep in a child interpreter: sys.argv is the start method, the config
# file, the output directory and the worker count.
CHILD_SWEEP = """
import multiprocessing, sys
from pathlib import Path
from swarmbc import harness
multiprocessing.set_start_method(sys.argv[1], force=True)
harness.run_sweep(harness.parse_config_file(sys.argv[2]), Path(sys.argv[3]),
                  workers=int(sys.argv[4]))
"""


def _sweep_in_child(tmp_path, cfg, out, workers, method, hook=None):
    """Run ``run_sweep(cfg, out, workers=workers)`` in a child interpreter whose
    pool starts its workers by ``method``; returns the child's pid. ``hook``,
    the source of a ``sitecustomize.py``, runs at the start of every process
    Python starts for the sweep, so that it patches the pool workers too,
    whatever the start method."""
    (tmp_path / "sweep.cfg").write_text(config_text(cfg))
    path = [str(Path(harness.__file__).resolve().parents[1])]
    if hook is not None:
        (tmp_path / "hook").mkdir(exist_ok=True)
        (tmp_path / "hook" / "sitecustomize.py").write_text(hook)
        path.insert(0, str(tmp_path / "hook"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.Popen([sys.executable, "-c", CHILD_SWEEP, method, tmp_path / "sweep.cfg",
                             out, str(workers)], env=env, stderr=subprocess.PIPE, text=True)
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, (method, err)
    return proc.pid


# the worker that runs the ensemble cell of seed 1 dies without a Python exception
DYING_RUN_CELL = """
import os
from swarmbc import harness
real_run_cell = harness.run_cell

def dying(cfg, cell, inputs):
    if (cell.method, cell.seed) == ("ensemble", 1):
        os._exit(7)
    return real_run_cell(cfg, cell, inputs)

harness.run_cell = dying
"""


def test_dead_worker_fails_only_its_cell(tmp_path):
    cfg = tiny_config()
    reference = run_sweep(cfg, tmp_path / "reference")
    expected = [r for r in reference.records if (r.method, r.seed) != ("ensemble", 1)]
    for method in multiprocessing.get_all_start_methods():
        out = tmp_path / method
        _sweep_in_child(tmp_path, cfg, out, 2, method, DYING_RUN_CELL)
        assert ResultsStore(out / "results.csv").records == expected, method
        failures = (out / "failures.csv").read_text().splitlines()
        assert len(failures) == 2, method
        assert failures[1].startswith("point_reach,ensemble,1,0.0,4,1,"), method
        assert (out / "returns_point_reach.csv").exists()

        _sweep_in_child(tmp_path, cfg, out, 2, method)  # the rerun, no worker dies
        records = ResultsStore(out / "results.csv").records
        assert sorted(records, key=repr) == sorted(reference.records, key=repr), method
        assert not (out / "failures.csv").exists()


def _held_sweep(cfg, out, ready, go):
    """A sweep that signals ``ready`` once it holds the lock, then waits for ``go``."""
    def log(message):
        if not ready.is_set():
            ready.set()
            go.wait(60)

    run_sweep(cfg, out, log=log)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the held sweep runs in a forked process")
def test_second_sweep_on_a_directory_exits_1_naming_the_holder(tmp_path):
    cfg, out = tiny_config(n_seeds=1), tmp_path / "out"
    ctx = multiprocessing.get_context("fork")
    ready, go = ctx.Event(), ctx.Event()
    first = ctx.Process(target=_held_sweep, args=(cfg, out, ready, go))
    first.start()
    try:
        assert ready.wait(60)
        lock = (out / harness.LOCK_FILE).read_text()
        assert lock == f"{first.pid} {socket.gethostname()}\n"
        with pytest.raises(ConfigError, match=f"in use by another sweep \\({first.pid} "):
            run_sweep(cfg, out)
        assert (out / harness.LOCK_FILE).read_text() == lock  # the holder keeps it
    finally:
        go.set()
        first.join(120)
    assert first.exitcode == 0
    assert not (out / harness.LOCK_FILE).exists()
    records = ResultsStore(out / "results.csv").records
    assert len(records) == len(enumerate_cells(cfg))  # each cell written once


def test_stale_lock_of_a_dead_process_is_taken_over_with_a_warning(tmp_path):
    dead = subprocess.Popen([sys.executable, "-c", ""])
    dead.wait()  # reaped, so its pid names no process
    cfg, out = tiny_config(n_seeds=1), tmp_path / "out"
    out.mkdir()
    (out / harness.LOCK_FILE).write_text(f"{dead.pid} {socket.gethostname()}\n")
    with pytest.warns(RuntimeWarning, match=f"taking over the lock of pid {dead.pid}"):
        store = run_sweep(cfg, out)
    assert len(store.records) == len(enumerate_cells(cfg))
    assert not (out / harness.LOCK_FILE).exists()


LOCK_TEXTS = ["{pid} elsewhere.invalid", "{pid} {host}", "", "garbage"]


@pytest.mark.parametrize("holder", LOCK_TEXTS)
def test_a_lock_that_may_be_live_is_not_taken_over(tmp_path, holder):
    # whatever the file says, a lock that a process holds is not taken over
    out = tmp_path / "out"
    out.mkdir()
    text = holder.format(pid=os.getpid(), host=socket.gethostname())
    (out / harness.LOCK_FILE).write_text(text)
    with open(out / harness.LOCK_FILE) as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        with pytest.raises(ConfigError, match="in use by another sweep"):
            run_sweep(tiny_config(n_seeds=1), out)
    assert (out / harness.LOCK_FILE).read_text() == text
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("holder", LOCK_TEXTS)
def test_a_lock_file_no_process_holds_is_taken_over_with_a_warning(tmp_path, holder):
    # a live pid, another host or an unreadable text: the flock alone decides
    cfg, out = tiny_config(n_seeds=1), tmp_path / "out"
    out.mkdir()
    text = holder.format(pid=os.getpid(), host=socket.gethostname())
    (out / harness.LOCK_FILE).write_text(text)
    pid = re.escape((text.split() or ["?"])[0])
    with pytest.warns(RuntimeWarning, match=f"taking over the lock of pid {pid}, "):
        store = run_sweep(cfg, out)
    assert len(store.records) == len(enumerate_cells(cfg))
    assert not (out / harness.LOCK_FILE).exists()


# A contender: at ``start + 0.2 s * k``, take the lock of the k-th directory,
# hold it 0.05 s, and print the interval it held it, or the refusal.
CONTENDER = """
import json, sys, time
from pathlib import Path
from swarmbc import harness
from swarmbc.errors import ConfigError
start, dirs = float(sys.argv[1]), sys.argv[2:]
for k, out in enumerate(dirs):
    time.sleep(max(0.0, start + 0.2 * k - time.time()))
    try:
        with harness.sweep_lock(Path(out)):
            begin = time.monotonic()
            time.sleep(0.05)
            end = time.monotonic()
        print(json.dumps([k, begin, end]), flush=True)
    except ConfigError as exc:
        print(json.dumps([k, str(exc)]), flush=True)
"""


def test_contenders_for_a_stale_lock_never_hold_it_together(tmp_path):
    # each round: 4 interpreters started together on a directory whose lock
    # names a dead process; their takeover warnings go to stderr, as in the CLI
    dead = subprocess.Popen([sys.executable, "-c", ""])
    dead.wait()  # reaped, so its pid names no process
    dirs = [tmp_path / f"out{k}" for k in range(20)]
    for out in dirs:
        out.mkdir()
        (out / harness.LOCK_FILE).write_text(f"{dead.pid} {socket.gethostname()}\n")
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parents[1]))
    start = time.time() + 2  # after every interpreter has imported the package
    procs = [subprocess.Popen([sys.executable, "-c", CONTENDER, str(start), *map(str, dirs)],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True) for _ in range(4)]
    outcomes = {}
    for proc in procs:
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0
        for k, *outcome in map(json.loads, out.splitlines()):
            outcomes.setdefault(k, []).append(outcome)
    assert sorted(outcomes) == list(range(len(dirs)))
    for k, round_ in outcomes.items():
        held = sorted(o for o in round_ if len(o) == 2)
        assert held, round_
        assert all(a[1] <= b[0] for a, b in zip(held, held[1:])), (k, held)
        assert all("in use by another sweep" in o[0] for o in round_ if len(o) == 1)
        assert not (dirs[k] / harness.LOCK_FILE).exists()


def test_a_pool_starts_no_more_processes_than_cells_to_run(tmp_path, monkeypatch):
    sizes, real_pool = [], harness._pool

    def recording(workers, lock):
        sizes.append(workers)
        return real_pool(workers, lock)

    monkeypatch.setattr(harness, "_pool", recording)
    cfg = tiny_config(n_seeds=1)
    assert len(enumerate_cells(cfg)) == 2
    run_sweep(cfg, tmp_path, workers=3)
    assert sizes == [2]
    run_sweep(cfg, tmp_path, workers=3)  # nothing to run: no pool
    assert sizes == [2]


# each cell's process and the pid the sweep's lock file names, one line a cell
LOCK_HOLDER_RUN_CELL = """
import os
from pathlib import Path
from swarmbc import harness
real_run_cell = harness.run_cell

def recording(cfg, cell, inputs):
    holder = (Path({out!r}) / harness.LOCK_FILE).read_text().split()[0]
    with open({calls!r}, "a") as f:
        f.write(f"{{os.getpid()}} {{holder}}\\n")
    return real_run_cell(cfg, cell, inputs)

harness.run_cell = recording
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_only_the_parent_holds_the_lock(tmp_path, workers):
    cfg, methods = tiny_config(n_seeds=1), multiprocessing.get_all_start_methods()
    # a serial sweep starts no process, so one start method tells all
    for method in methods if workers > 1 else methods[:1]:
        out, calls = tmp_path / method, tmp_path / f"{method}.calls"
        hook = LOCK_HOLDER_RUN_CELL.format(out=str(out), calls=str(calls))
        parent = _sweep_in_child(tmp_path, cfg, out, workers, method, hook)
        runs = [line.split() for line in calls.read_text().splitlines()]
        assert len(runs) == len(enumerate_cells(cfg)), method
        assert all(holder == str(parent) for _, holder in runs), (method, runs)
        # the cells ran in the workers, which the hook reached
        assert all((pid == str(parent)) == (workers == 1) for pid, _ in runs), (method, runs)
        assert len(ResultsStore(out / "results.csv").records) == len(runs)
        assert not (out / "failures.csv").exists()
        assert not (out / harness.LOCK_FILE).exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool's parent is a forked process")
@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_a_pool_worker_ends_mid_job_once_its_parent_is_gone(tmp_path, method):
    lock = os.open(tmp_path / "lock", os.O_CREAT | os.O_RDWR)
    pid = os.fork()
    if pid == 0:  # leads a session of its own; dies while its worker runs a long job
        code = 1
        try:
            os.setsid()
            multiprocessing.set_start_method(method, force=True)
            pool = harness._pool(1, lock)
            pool.submit(os.getpid).result()  # the worker is up and runs jobs
            pool.submit(time.sleep, 600)
            time.sleep(0.5)  # and in the job
            code = 0
        finally:
            os._exit(code)
    os.close(lock)
    deadline = time.monotonic() + 10
    try:
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0, "the worker failed"
        while True:
            try:
                os.killpg(pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "the orphaned worker is still alive"
            time.sleep(0.05)
    finally:
        _kill_sessions([pid])


FAULT_EXIT = 3


def _end_at_write(k):
    """Make the k-th write of a sweep in this process its last: it is cut
    halfway and the process ends at once. ``append_row`` leaves a torn row,
    ``replace_file`` (summaries and charts) a stray ``.tmp``."""
    writes = itertools.count(1)
    append_row, replace_file = harness.append_row, harness.replace_file

    def torn(path, write):
        size = path.stat().st_size if path.exists() else 0
        write()
        if next(writes) == k:
            os.truncate(path, (size + path.stat().st_size) // 2)
            os._exit(FAULT_EXIT)

    def stray_tmp(path, text):
        if next(writes) == k:
            path.with_name(path.name + ".tmp").write_text(text[:len(text) // 2])
            os._exit(FAULT_EXIT)
        replace_file(path, text)

    harness.append_row = lambda path, *args: torn(Path(path), lambda: append_row(path, *args))
    harness.replace_file = stray_tmp


def _faulted_sweep(cfg, out, workers, k, sessions, timeout=120.0):
    """Run the sweep in a forked child that leads a session of its own and
    ends at the sweep's k-th write. Appends the child's pid, which names the
    session of the pool workers it may leave behind, to ``sessions``; returns
    its exit code: ``FAULT_EXIT``, or 0 if the sweep has fewer than k writes."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.setsid()
            _end_at_write(k)
            run_sweep(cfg, out, workers=workers)
            code = 0
        finally:
            os._exit(code)
    sessions.append(pid)
    deadline = time.monotonic() + timeout
    while not (ended := os.waitpid(pid, os.WNOHANG))[0]:
        assert time.monotonic() < deadline, f"the sweep ended at write {k} is still running"
        time.sleep(0.01)
    return os.waitstatus_to_exitcode(ended[1])


def _kill_sessions(pids, timeout=30.0):
    """SIGKILL every process of the sessions led by ``pids``; wait until
    none is left (orphans are reaped by init)."""
    for pid in pids:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pid, signal.SIGKILL)
    deadline = time.monotonic() + timeout
    for pid in pids:
        while True:
            try:
                os.killpg(pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, f"a process of session {pid} is still alive"
            time.sleep(0.05)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the faulted sweeps run in forked processes")
@pytest.mark.parametrize("workers", [1, 2])
def test_a_sweep_ended_at_any_write_resumes_to_a_clean_sweeps_files(tmp_path, workers):
    cfg = tiny_config(n_seeds=2, train=TrainConfig(epochs=3, hidden_dims=(4,)))
    run_sweep(cfg, tmp_path / "clean")
    want = _files(tmp_path / "clean")
    sessions = []
    try:
        for k in itertools.count(1):
            out = tmp_path / f"ended_at_{k}"
            code = _faulted_sweep(cfg, out, workers, k, sessions)
            if code == 0:  # every write was cut once
                break
            assert code == FAULT_EXIT
            assert all(p.read_text().endswith("</svg>\n") for p in out.glob("*.svg")), k
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_sweep(cfg, out, workers=workers)  # at once: the workers may still run
            assert any("taking over the lock" in str(w.message) for w in caught), k
            assert _files(out) == want, k
    finally:
        _kill_sessions(sessions)
    assert k > len(want)  # each file was written, and so cut, at least once
    assert _files(out) == want
