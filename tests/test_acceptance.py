"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s``). Criteria 4 and 5
share one paired sweep, ``acceptance.cfg``, run as ``swarmbc sweep`` runs
it: the three desk envs, dataset sizes {1, 4, 8}, five seeds, twenty
evaluation episodes per cell.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from swarmbc import cli
from swarmbc.ensemble import (
    gradient_max_rel_error,
    random_tiny_ensemble,
    standard_loss,
    swarm_loss,
)
from swarmbc.envs import ENV_IDS, make_env
from swarmbc.harness import parse_config_file, run_sweep
from swarmbc.metrics import baseline_returns, mean_action_difference, scaled_return
from swarmbc.theory import (
    gaussian_grid_density,
    mode_mass,
    power_density,
    uniform_grid_density,
)

DEGENERACY_EPSILON = 1e-6


def report(number, name, ok):
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_loss_reduction_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(1000):
        ens = random_tiny_ensemble(rng, tau=0.0)
        s = rng.normal(size=ens.obs_dim)
        if ens.action_kind == "discrete":
            a = np.zeros(ens.action_dim)
            a[rng.integers(ens.action_dim)] = 1.0
        else:
            a = rng.normal(size=ens.action_dim)
        if swarm_loss(ens, s, a).total != standard_loss(ens, s, a).total:
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    assert report(1, "tau=0 reduces to the standard loss bit-exactly", ok), (
        f"identity held={ok}, elapsed={elapsed:.2f}s"
    )


def test_criterion_2_gradient_oracle():
    start = time.perf_counter()
    worst = gradient_max_rel_error(n_trials=100, seed=0)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    assert report(2, "analytic gradients match finite differences", ok), (
        f"max relative error {worst:.3e} (limit 1e-4), elapsed {elapsed:.1f}s"
    )


def test_criterion_3_metric_exactness():
    ok = abs(mean_action_difference([[0.0, 0.0], [3.0, 4.0]]) - 5.0) < 1e-12
    three = mean_action_difference([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    ok = ok and abs(three - 1.138071) < 1e-6

    def oracle(actions):
        n = len(actions)
        total = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                total += float(np.sqrt(np.sum((np.asarray(actions[i]) - np.asarray(actions[j])) ** 2)))
        return 2.0 * total / (n * (n - 1))

    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        dim = int(rng.integers(1, 5))
        actions = rng.normal(scale=2.0, size=(n, dim))
        if abs(mean_action_difference(actions) - oracle(actions)) > 1e-12:
            ok = False
            break
    assert report(3, "action-difference metric is exact", ok)


@pytest.fixture(scope="module")
def paired_sweep(tmp_path_factory):
    """The sweep of ``acceptance.cfg``, timed from start to return (summaries
    included); its records grouped by (env, method, dataset size)."""
    cfg = parse_config_file(Path(__file__).with_name("acceptance.cfg"))
    out_dir = tmp_path_factory.mktemp("paired_sweep")
    start = time.perf_counter()
    store = run_sweep(cfg, out_dir, workers=1)
    elapsed = time.perf_counter() - start
    assert not (out_dir / "failures.csv").exists()  # a failed cell would drop out of a mean
    records = {}
    for rec in store.records:
        records.setdefault((rec.env, rec.method, rec.n_expert_episodes), []).append(rec)
    return cfg, records, elapsed


@pytest.mark.slow
def test_criterion_4_swarm_reduces_action_difference(paired_sweep):
    cfg, records, elapsed = paired_sweep
    reductions = {}
    for env in cfg.envs:
        d_ens = np.mean([r.action_diff for r in records[(env, "ensemble", 1)]])
        d_swarm = np.mean([r.action_diff for r in records[(env, "swarm", 1)]])
        reductions[env] = (d_ens - d_swarm) / d_ens
    wins = sum(1 for v in reductions.values() if v >= 0.10)
    ok = wins >= 2 and elapsed < 600.0
    detail = ", ".join(f"{e}: {v:+.1%}" for e, v in reductions.items())
    assert report(
        4, "swarm reduces the mean action difference (1-episode datasets)", ok
    ), f"reductions {detail}; sweep took {elapsed:.0f}s (limit 600s)"


@pytest.mark.slow
def test_criterion_5_swarm_return_never_much_worse(paired_sweep):
    cfg, records, _ = paired_sweep
    margins = {}
    for env in cfg.envs:
        for n_ep in cfg.episode_counts:
            r_ens = np.mean(
                [r.scaled_return for r in records[(env, "ensemble", n_ep)]]
            )
            r_swarm = np.mean(
                [r.scaled_return for r in records[(env, "swarm", n_ep)]]
            )
            margins[(env, n_ep)] = r_swarm - r_ens
    never_worse = all(m >= -0.05 for m in margins.values())
    strictly_better = any(m > 0.0 for m in margins.values())
    ok = never_worse and strictly_better
    detail = ", ".join(f"{e}/{n}: {m:+.3f}" for (e, n), m in margins.items())
    assert report(5, "swarm return is never much worse, sometimes better", ok), (
        f"margins {detail}"
    )


@pytest.mark.slow
def test_paired_eval_point_reach_strict_reduction(paired_sweep):
    # the worked cmd_eval example: paired swarm-vs-ensemble evaluation on
    # point_reach with a single expert episode
    _, records, _ = paired_sweep
    d_ens = np.mean([r.action_diff for r in records[("point_reach", "ensemble", 1)]])
    d_swarm = np.mean([r.action_diff for r in records[("point_reach", "swarm", 1)]])
    assert d_swarm < d_ens


def test_criterion_6_mode_concentration():
    start = time.perf_counter()
    density = gaussian_grid_density()
    masses = [
        mode_mass(power_density(density, n), tau=0.4) for n in (1, 2, 4, 8, 16, 32)
    ]
    monotone = all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))
    saturated = masses[-1] >= 0.99

    uniform = uniform_grid_density()
    uniform_fixed = all(
        np.allclose(power_density(uniform, n).values, uniform.values, rtol=1e-12)
        for n in (1, 2, 4, 8, 16, 32)
    )
    elapsed = time.perf_counter() - start
    ok = monotone and saturated and uniform_fixed and elapsed < 1.0
    assert report(6, "powering concentrates mass at the unique mode", ok), (
        f"masses {[round(m, 4) for m in masses]}, uniform fixed={uniform_fixed}, "
        f"elapsed {elapsed:.2f}s"
    )


def test_criterion_7_sweep_determinism(tmp_path):
    config_text = (
        "envs = point_reach\n"
        "methods = ensemble, swarm\n"
        "episode_counts = 1\n"
        "n_seeds = 2\n"
        "eval_episodes = 3\n"
        "ablations = false\n"
        "master_seed = 123\n"
        "epochs = 15\n"
        "hidden_dims = 8, 8\n"
    )
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(config_text)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out2)]) == 0
    bytes1 = (out1 / "results.csv").read_bytes()
    bytes2 = (out2 / "results.csv").read_bytes()
    ok = bytes1 == bytes2 and len(bytes1) > 0
    assert report(7, "identical sweeps produce byte-identical results", ok)


def test_criterion_8_baseline_sanity():
    ok = True
    details = []
    for env_id in ENV_IDS:
        env = make_env(env_id)
        r_random, r_expert = baseline_returns(env, n_episodes=20, seed=42)
        gap = r_expert - r_random
        ok = ok and gap > DEGENERACY_EPSILON
        ok = ok and scaled_return(r_expert, r_random, r_expert) == 1.0
        ok = ok and scaled_return(r_random, r_random, r_expert) == 0.0
        details.append(f"{env_id}: gap={gap:.1f}")
    assert report(8, "expert scales to 1, random to 0, gap non-degenerate", ok), (
        "; ".join(details)
    )
