"""One benchmark run: set-up, rounds, output checks and metrics."""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import micro
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STARTUP_REPEATS = 9
PREPARE_REPEATS = 5
MIN_ROUNDS = 2
# The smoke size runs the micro-benchmarks once, with loops this much shorter.
SMOKE_MICRO_SCALE = 50


def median(values):
    return statistics.median(values) if values else math.nan


def quantile(values, q):
    """Linear-interpolated quantile (numpy's default method)."""
    return float(np.quantile(values, q)) if values else math.nan


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


def pin_to_one_core():
    """Keep the whole run, set-up's child interpreters included, on one
    core, so that the calibration chunks time the core the program runs on.
    Returns that core."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def start_interpreter():
    """A fresh interpreter that imports the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import swarmbc.cli"],
                   env=env, cwd=ROOT, check=True)


def set_up(seed, settings, workdir, info):
    """Make the inputs several times. Set-up time is the median start-up of
    a fresh interpreter plus the median time to make the inputs, both in
    reference-speed seconds."""
    startup, prepare, digests = [], [], set()
    for _ in range(STARTUP_REPEATS):
        startup.append(calibrate.timed(start_interpreter)[1:])
    for _ in range(PREPARE_REPEATS):
        inputs, *times = calibrate.timed(workloads.prepare, seed, settings, workdir)
        prepare.append(times)
        digests.add(workloads.inputs_digest(inputs))
    info["setup"] = {"startup_s": startup, "prepare_s": prepare}
    problems = [] if len(digests) == 1 else ["inputs differ between set-up repeats"]
    setup_s = median([t[1] for t in startup]) + median([t[1] for t in prepare])
    return inputs, setup_s, problems


def run_rounds(inputs, workdir, seconds, traced):
    """Rounds of identical work until the next one would overrun
    ``seconds`` (at least MIN_ROUNDS). A traced run alternates untraced and
    traced rounds. Returns ``(untraced rounds, [(traced round, tracer)])``."""
    t_start = time.perf_counter()
    untraced, traced_rounds, longest = [], [], 0.0
    while True:
        n = len(untraced) + len(traced_rounds)
        if n >= MIN_ROUNDS and time.perf_counter() - t_start + longest > seconds:
            return untraced, traced_rounds
        round_dir = workdir / f"round{n}"
        tracer = tracing.Tracer() if traced and n % 2 else None
        t0 = time.perf_counter()
        if tracer:
            with tracing.instrument(tracer):
                rnd = workloads.run_round(inputs, round_dir)
        else:
            rnd = workloads.run_round(inputs, round_dir)
        longest = max(longest, time.perf_counter() - t0)
        shutil.rmtree(round_dir, ignore_errors=True)
        if tracer:
            traced_rounds.append((rnd, tracer))
        else:
            untraced.append(rnd)


def check_rounds(rounds) -> list:
    """Output checks: finite, well-formed records in every round, every
    cell accounted for, and one digest across all rounds, traced or not."""
    problems = []
    for i, rnd in enumerate(rounds):
        for p in workloads.record_problems(rnd.records, rnd.traces):
            problems.append(f"round {i}: {p}")
        if len(rnd.records) + len(rnd.failures) != rnd.expected:
            problems.append(
                f"round {i}: {len(rnd.records)} records and {len(rnd.failures)} "
                f"failures for {rnd.expected} cells"
            )
    if len({r.digest for r in rounds}) != 1:
        problems.append("results digest differs between rounds")
    return problems


def layer_metrics(traced_rounds, untraced, quality, micro_us) -> dict:
    """Per-round medians over the traced rounds; the raw round time and the
    calibration chunk come from the untraced rounds."""
    def per_round(fn):
        return median([fn(rnd, tracer) for rnd, tracer in traced_rounds])

    out = {}
    for name in tracing.SPAN_NAMES + (tracing.FORWARD_B1,):
        for i, field in enumerate(("calls", "total_s", "self_s")):
            if name == tracing.FORWARD_B1 and field == "self_s":
                continue
            out[f"{name}.{field}"] = per_round(
                lambda rnd, tr, name=name, i=i: tr.spans[name][i])
    c = {key: per_round(lambda rnd, tr, key=key: tr.counts[key])
         for key in tracing.COUNTS}
    out["train.steps"] = c["train.steps"]
    out["train.epochs_used_ratio"] = (
        c["train.epochs"] / c["train.epoch_budget"] if c["train.epoch_budget"] else 0.0)
    out["eval.env_steps"] = c["eval.env_steps"]
    out["eval.steps_per_episode"] = (
        c["eval.env_steps"] / c["eval.episodes"] if c["eval.episodes"] else 0.0)
    out["untraced.self_s"] = per_round(lambda rnd, tr: rnd.wall_s - tr.root_s)
    out["raw.wall_s"] = median([rnd.wall_s for rnd in untraced])
    out["calibration.chunk_ms"] = 1000.0 * median(
        [c for rnd in untraced for c in rnd.chunks_s])
    out["trace.overhead_s"] = (
        median([rnd.ref_wall_s for rnd, _ in traced_rounds])
        - median([rnd.ref_wall_s for rnd in untraced]))
    out.update({f"micro.{k}": v for k, v in micro_us.items()})
    out.update({f"quality.{k}": v for k, v in quality.items()})
    return out


def run(args, spec, workdir):
    """Measure one workload; returns ``(info, result)``."""
    settings = workloads.CONFIGS[args.workload][args.size]
    info = {"workload": args.workload, "size": args.size,
            "environment": run_environment(args.seed)}
    info["environment"]["pinned_cpu"] = pin_to_one_core()
    inputs, setup_s, problems = set_up(args.seed, settings, workdir, info)

    micro_us = {}
    t0 = time.perf_counter()
    if args.trace:
        smoke = args.size == "smoke"
        micro_us = micro.run_micro(args.seed, repeats=1 if smoke else 7,
                                   scale=SMOKE_MICRO_SCALE if smoke else 1)
    untraced, traced_rounds = run_rounds(
        inputs, workdir, args.seconds - (time.perf_counter() - t0), bool(args.trace))

    rounds = untraced + [rnd for rnd, _ in traced_rounds]
    problems += check_rounds(rounds)
    quality = workloads.paired_quality(rounds[0].records)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    wall = [r.ref_wall_s for r in untraced]
    # A cell's latency is its median over the untraced rounds; the
    # percentiles are taken over cells.
    cells = dict.fromkeys(c for r in untraced for c in r.cell_s)
    cell_s = [median([r.cell_s[c] for r in untraced if c in r.cell_s]) for c in cells]
    info["rounds"] = {
        "untraced": len(untraced), "traced": len(traced_rounds),
        "raw_wall_s": [r.wall_s for r in untraced],
        "wall_s": wall,
        "wall_s_quartiles": [quantile(wall, q) for q in (0.25, 0.5, 0.75)],
        "cells_timed": len(cell_s),
        "failed_cell_ratio": failed / attempted,
        "failures": sorted({f for r in rounds for f in r.failures})[:10],
        "digest": rounds[0].digest,
    }
    info["quality"] = quality

    if args.trace:
        section = "per_layer"
        values = layer_metrics(traced_rounds, untraced, quality, micro_us)
    else:
        section = "end_to_end"
        values = {
            "setup_s": setup_s,
            "wall_s": median(wall),
            "cell_s_p50": quantile(cell_s, 0.50),
            "cell_s_p95": quantile(cell_s, 0.95),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics_out, missing = {}, []
    for entry in spec[section]:
        value = values.get(entry["name"])
        if value is None or not math.isfinite(value):
            missing.append(entry["name"])
        else:
            metrics_out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    if missing:
        problems.append(f"metrics not measured: {', '.join(missing)}")
    info["problems"] = problems
    info["environment"]["loadavg_end"] = os.getloadavg()
    return info, {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_out,
    }
