"""Recorded bytes of the sweep's table writers.

``golden_summaries.json`` holds every file that ``ResultsStore.append`` and
``write_summaries`` produce for a synthetic store and synthetic trace files:
no training or BLAS is involved, so the bytes are the same on any machine.
Run ``PYTHONPATH=src python tests/test_summaries.py`` only to record a
deliberate change of the output format.
"""

from __future__ import annotations

import json
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from swarmbc.harness import ExperimentConfig, ResultsStore, enumerate_cells, write_summaries
from swarmbc.metrics import RunRecord

GOLDEN_PATH = Path(__file__).with_name("golden_summaries.json")

CFG = ExperimentConfig(
    envs=("point_reach", "cart_balance"),
    methods=("bc", "ensemble", "swarm"),
    episode_counts=(1, 3),
    n_seeds=2,
    tau_grid=(0.0, 0.25, 0.5),
    n_grid=(2, 4, 6),
    master_seed=3,
)


def _missing(cell) -> bool:
    """Cells left without a result, so that empty groups are skipped."""
    return (
        (cell.env, cell.method, cell.n_expert_episodes) == ("cart_balance", "bc", 3)
        or cell.n_members == 6
        or (cell.env, cell.method, cell.n_expert_episodes, cell.seed)
        == ("point_reach", "swarm", 1, 1)
    )


def synthetic_sweep(out_dir: Path, cfg=CFG, order=None):
    """Fill ``out_dir`` with a results store and ragged d traces, then write
    the summaries. ``order(n)`` permutes the n records before they are
    appended."""
    rng = np.random.default_rng(11)
    records = [
        RunRecord(
            *astuple(cell), scaled_return=float(rng.normal(0.5, 0.3)),
            action_diff=None if cell.n_members == 1 else float(rng.uniform(0.0, 0.2)),
        )
        for cell in enumerate_cells(cfg) if not _missing(cell)
    ]
    store = ResultsStore(out_dir / "results.csv")
    for i in range(len(records)) if order is None else order(len(records)):
        store.append(records[i])
    traces = out_dir / "traces"
    traces.mkdir()
    for env in cfg.envs:
        for method in ("ensemble", "swarm"):
            for k in range(cfg.n_seeds):
                if (env, method, k) == ("cart_balance", "swarm", 1):
                    continue
                length = 4 + 3 * k + (method == "swarm") + 2 * cfg.envs.index(env)
                lines = ["t,d_mean"] + [
                    f"{t},{float(d)!r}" for t, d in enumerate(rng.uniform(0.0, 0.3, length))
                ]
                name = f"{env}__{method}__ep1__seed{k}.csv"
                (traces / name).write_text("\n".join(lines) + "\n")
    write_summaries(cfg, store, out_dir)


def output_files(out_dir: Path) -> dict:
    return {
        p.relative_to(out_dir).as_posix(): p.read_text()
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def test_summaries_match_golden(tmp_path):
    synthetic_sweep(tmp_path)
    golden = json.loads(GOLDEN_PATH.read_text())
    got = output_files(tmp_path)
    assert sorted(got) == sorted(golden)
    for name, text in golden.items():
        assert got[name] == text, name


@pytest.mark.parametrize("seed", range(5))
def test_summaries_do_not_depend_on_the_order_of_results_rows(tmp_path, seed):
    # five seeds, so that a mean over a group depends on the order it is summed in
    cfg = replace(CFG, n_seeds=5)
    (tmp_path / "canonical").mkdir()
    (tmp_path / "permuted").mkdir()
    synthetic_sweep(tmp_path / "canonical", cfg)
    synthetic_sweep(tmp_path / "permuted", cfg, order=np.random.default_rng(seed).permutation)
    canonical = output_files(tmp_path / "canonical")
    permuted = output_files(tmp_path / "permuted")
    assert sorted(permuted.pop("results.csv").splitlines()) == sorted(
        canonical.pop("results.csv").splitlines())
    assert permuted == canonical


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        synthetic_sweep(Path(tmp))
        GOLDEN_PATH.write_text(json.dumps(output_files(Path(tmp)), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
