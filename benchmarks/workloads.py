"""The benchmark workloads: two `swarmbc sweep` configurations.

Both run the sweep CLI end to end (baselines, cells, results store, d
traces, summaries, SVG charts), so every layer is exercised on each; they
differ in where the time goes. ``prepare`` turns the benchmark seed into a
config file once; ``run_round`` runs one sweep on it into a fresh directory.
A round reports the latency of every cell, the records, and a digest of
everything the sweep wrote, which must be the same in every round.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibrate
from swarmbc import cli, harness

N_MEMBERS = 4
TAU = 0.25
COMMON = dict(envs="point_reach, pendulum_swing, cart_balance",
              tau=TAU, n_members=N_MEMBERS, tau_grid="0, 0.25, 0.5",
              n_grid="2, 4, 8")

# Sweep settings per workload. "full" is what the benchmark measures;
# "smoke" is a tiny version for the benchmark's own test. Training budgets
# are cut from the default 400 epochs so that one round takes seconds; the
# per-step shapes (batch 64, hidden 16-16) are the defaults.
CONFIGS = {
    # bc (N=1), ensemble and swarm (N=4) on 4-episode datasets, plus the
    # tau {0.5} and N {2, 8} ablations; one eval episode per cell, so
    # batch-64 training takes about 90% of a round.
    "train_bound": {
        "full": dict(methods="bc, ensemble, swarm", episode_counts=4, n_seeds=1,
                     eval_episodes=1, ablations="true", epochs=30),
        "smoke": dict(methods="bc, ensemble, swarm", episode_counts=1, n_seeds=1,
                      eval_episodes=1, ablations="true", epochs=1),
    },
    # paired ensemble and swarm cells on 1-episode datasets at two seeds,
    # 5 epochs, 6 eval episodes recording member actions: batch-1 forward,
    # env steps and the disagreement metric take about 90% of a round.
    "rollout_bound": {
        "full": dict(methods="ensemble, swarm", episode_counts=1, n_seeds=2,
                     eval_episodes=6, ablations="false", epochs=5),
        "smoke": dict(methods="ensemble, swarm", episode_counts=1, n_seeds=1,
                      eval_episodes=1, ablations="false", epochs=1),
    },
}


@dataclass
class Round:
    """What one round of a workload did."""

    wall_s: float = 0.0      # raw seconds of program work
    ref_wall_s: float = 0.0  # the same in reference-speed seconds
    chunks_s: list = field(default_factory=list)  # calibration chunk times
    cell_s: dict = field(default_factory=dict)  # progress line -> reference-speed s
    records: list = field(default_factory=list)  # metrics.RunRecord
    traces: list = field(default_factory=list)   # per-cell d traces
    failures: list = field(default_factory=list)
    attempted: int = 0
    expected: int = 0  # cells a complete round runs
    digest: str = ""


@dataclass
class SweepInputs:
    config_path: Path
    cfg: harness.ExperimentConfig


def prepare(seed: int, settings: dict, workdir: Path) -> SweepInputs:
    """Write the sweep config file for ``seed``."""
    path = workdir / "sweep.cfg"
    values = {**COMMON, **settings, "master_seed": seed}
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    return SweepInputs(path, harness.parse_config_file(path))


def inputs_digest(inputs: SweepInputs) -> str:
    return hashlib.sha256(inputs.config_path.read_bytes()).hexdigest()


class _TimedLines(io.TextIOBase):
    """Stdout sink that timestamps every complete line written to it and
    then times a calibration chunk. Each entry is ``(time the line was
    written, line, chunk seconds, time the program resumed)``."""

    def __init__(self):
        self.lines = []
        self._buf = ""

    def writable(self):
        return True

    def write(self, text):
        self._buf += text
        *done, self._buf = self._buf.split("\n")
        for line in done:
            now = time.perf_counter()
            chunk = calibrate.chunk_seconds()
            self.lines.append((now, line, chunk, time.perf_counter()))
        return len(text)


def run_round(inputs: SweepInputs, round_dir: Path) -> Round:
    """One `swarmbc sweep` into a fresh directory.

    Every log line of the sweep is followed by a calibration chunk, and one
    runs before the sweep starts, so the round splits into stretches of
    program work with a chunk on each side. A stretch's reference-speed time
    uses those two chunks (see ``calibrate``). A cell's latency is the
    reference-speed time between consecutive per-cell progress lines; the
    round's ``wall_s`` is its raw time without the chunks."""
    out = Round(expected=len(harness.enumerate_cells(inputs.cfg)))
    sink = _TimedLines()
    chunk = calibrate.chunk_seconds()
    resumed = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli.main(["sweep", "--config", str(inputs.config_path),
                         "--out", str(round_dir)])
    end = time.perf_counter()
    sink.lines.append((end, None, calibrate.chunk_seconds(), None))
    if code != 0:
        raise RuntimeError(f"swarmbc sweep exited with {code}")
    cell, in_cells = 0.0, False
    for t, line, next_chunk, next_resumed in sink.lines:
        stretch = calibrate.reference_seconds(t - resumed, chunk, next_chunk)
        out.wall_s += t - resumed
        out.chunks_s.append(chunk)
        out.ref_wall_s += stretch
        cell += stretch
        if line is None:
            break
        if in_cells and line.startswith("  "):
            out.attempted += 1
            if line.startswith("  FAILED"):
                out.failures.append(line.strip())
            else:
                out.cell_s[line] = cell
            cell = 0.0
        elif line.startswith("sweep:"):
            in_cells, cell = True, 0.0
        chunk, resumed = next_chunk, next_resumed
    out.records = harness.ResultsStore(round_dir / "results.csv").records
    for path in sorted(round_dir.glob("traces/*.csv")):
        with open(path, newline="") as f:
            out.traces.append(np.array([float(r["d_mean"]) for r in csv.DictReader(f)]))
    digest = hashlib.sha256()
    for path in sorted(p for p in round_dir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(round_dir)).encode())
        digest.update(path.read_bytes())
    out.digest = digest.hexdigest()
    return out


# --- checks and paired quality ----------------------------------------------

def record_problems(records, traces) -> list:
    """Everything wrong with a round's outputs: non-finite returns, a
    disagreement value where there should be none (N = 1) or a missing or
    non-finite one (N >= 2), and non-finite d traces."""
    problems = []
    for rec in records:
        if not math.isfinite(rec.scaled_return):
            problems.append(f"non-finite scaled_return in {rec}")
        if rec.n_members == 1:
            if rec.action_diff is not None:
                problems.append(f"action_diff recorded for a single policy: {rec}")
        elif rec.action_diff is None or not (
            math.isfinite(rec.action_diff) and rec.action_diff >= 0.0
        ):
            problems.append(f"missing or invalid action_diff in {rec}")
    for trace in traces:
        if not np.all(np.isfinite(trace)):
            problems.append("non-finite value in a d trace")
    return problems


def paired_quality(records) -> dict:
    """Swarm against ensemble on cells that share env, dataset and seed: the
    relative reduction of the mean action difference (averaged over pairs,
    then envs) and the mean scaled-return margin."""
    by_key = {}
    for rec in records:
        if rec.n_members != N_MEMBERS or rec.tau not in (0.0, TAU):
            continue
        key = (rec.env, rec.n_expert_episodes, rec.seed)
        by_key.setdefault(key, {})[rec.method] = rec
    reductions, margins = {}, []
    for (env, _, _), pair in sorted(by_key.items()):
        if set(pair) != {"ensemble", "swarm"}:
            continue
        ens, sw = pair["ensemble"], pair["swarm"]
        margins.append(sw.scaled_return - ens.scaled_return)
        if ens.action_diff:
            reductions.setdefault(env, []).append(1.0 - sw.action_diff / ens.action_diff)
    env_means = [float(np.mean(v)) for v in reductions.values()]
    return {
        "action_diff_reduction": float(np.mean(env_means)) if env_means else math.nan,
        "return_margin": float(np.mean(margins)) if margins else math.nan,
    }
