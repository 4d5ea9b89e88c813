"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest benchmarks/test_smoke.py -q

Runs every workload once untraced and once traced, checks that every metric
named in BENCHMARK.json is printed with its unit, and that corrupted or
non-finite outputs trip the output checks.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from swarmbc.harness import ResultsStore  # noqa: E402
from swarmbc.metrics import RunRecord  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_reference_seconds_scale_with_the_calibration_chunk():
    nominal = calibrate.NOMINAL_S
    assert calibrate.reference_seconds(2.0, nominal, nominal) == pytest.approx(2.0)
    # a core running at half speed takes twice as long for the same work
    assert calibrate.reference_seconds(4.0, 2 * nominal, 2 * nominal) == pytest.approx(2.0)
    assert calibrate.reference_seconds(3.0, nominal, 2 * nominal) == pytest.approx(2.0)
    assert calibrate.chunk_seconds() > 0.0


def _record(**changes):
    base = dict(env="point_reach", method="swarm", n_expert_episodes=1, tau=0.25,
                n_members=4, seed=0, scaled_return=0.5, action_diff=0.1)
    return RunRecord(**{**base, **changes})


def test_record_checks_accept_well_formed_records():
    recs = [_record(), _record(method="bc", tau=0.0, n_members=1, action_diff=None)]
    assert workloads.record_problems(recs, [[0.1, 0.2]]) == []


@pytest.mark.parametrize("bad", [
    _record(scaled_return=math.nan),
    _record(scaled_return=math.inf),
    _record(action_diff=math.nan),
    _record(action_diff=-1.0),
    _record(action_diff=None),
    _record(n_members=1, action_diff=0.1),
])
def test_record_checks_reject_bad_records(bad):
    assert workloads.record_problems([bad], []) != []


def test_record_checks_reject_non_finite_trace():
    assert workloads.record_problems([_record()], [[0.1, math.nan]]) != []


def test_corrupted_results_file_trips_the_check(tmp_path):
    inputs = workloads.prepare(5, workloads.CONFIGS["train_bound"]["smoke"], tmp_path)
    out = tmp_path / "out"
    rnd = workloads.run_round(inputs, out)
    assert measure.check_rounds([rnd, rnd]) == []

    results = out / "results.csv"
    lines = results.read_text().splitlines()
    fields = lines[2].split(",")
    fields[6] = "nan"  # scaled_return of the first record
    lines[2] = ",".join(fields)
    results.write_text("\n".join(lines) + "\n")
    rnd.records = ResultsStore(results).records
    assert any("non-finite" in p for p in measure.check_rounds([rnd]))


def test_digest_mismatch_and_missing_cells_trip_the_check():
    a = workloads.Round(records=[_record()], expected=1, digest="x")
    b = workloads.Round(records=[_record()], expected=1, digest="y")
    assert measure.check_rounds([a, b]) == ["results digest differs between rounds"]
    short = workloads.Round(records=[], expected=1, digest="x")
    assert measure.check_rounds([short]) != []


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
