"""Recorded bytes of the sweep's table writers.

``golden_summaries.json`` holds every file that ``ResultsStore.append`` and
``write_summaries`` produce for a synthetic store and synthetic trace files:
no training or BLAS is involved, so the bytes are the same on any machine.
Run ``PYTHONPATH=src python tests/test_summaries.py`` only to record a
deliberate change of the output format.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

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
        (cell.env, cell.method, cell.n_episodes) == ("cart_balance", "bc", 3)
        or cell.n_members == 6
        or (cell.env, cell.method, cell.n_episodes, cell.seed_index)
        == ("point_reach", "swarm", 1, 1)
    )


def synthetic_sweep(out_dir: Path):
    """Fill ``out_dir`` with a results store and ragged d traces, then write
    the summaries."""
    rng = np.random.default_rng(11)
    store = ResultsStore(out_dir / "results.csv")
    for cell in enumerate_cells(CFG):
        if _missing(cell):
            continue
        store.append(RunRecord(
            env=cell.env, method=cell.method, n_expert_episodes=cell.n_episodes,
            tau=cell.tau, n_members=cell.n_members, seed=cell.seed_index,
            scaled_return=float(rng.normal(0.5, 0.3)),
            action_diff=None if cell.n_members == 1 else float(rng.uniform(0.0, 0.2)),
        ))
    traces = out_dir / "traces"
    traces.mkdir()
    for env in CFG.envs:
        for method in ("ensemble", "swarm"):
            for k in range(CFG.n_seeds):
                if (env, method, k) == ("cart_balance", "swarm", 1):
                    continue
                length = 4 + 3 * k + (method == "swarm") + 2 * CFG.envs.index(env)
                lines = ["t,d_mean"] + [
                    f"{t},{float(d)!r}" for t, d in enumerate(rng.uniform(0.0, 0.3, length))
                ]
                name = f"{env}__{method}__ep1__seed{k}.csv"
                (traces / name).write_text("\n".join(lines) + "\n")
    write_summaries(CFG, store, out_dir)


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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        synthetic_sweep(Path(tmp))
        GOLDEN_PATH.write_text(json.dumps(output_files(Path(tmp)), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
