"""swarmbc benchmark: one workload, one seed, a fixed measuring time.

    python3 benchmarks/run.py --workload train_bound --seed 1 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload train_bound --seed 1 --seconds 50 --trace 1

Run from the repository root. ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` reports the per-layer metrics (spans, work
counters, tracing overhead, micro-benchmarks). The line before last carries
the run environment and details; the last line is the result object. The
exit code is 0 only when every output check passed.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs, for the benchmark's own test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "swarmbc" / "__init__.py").is_file():
        print(f"error: no swarmbc package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import measure

    if args.workload not in measure.workloads.CONFIGS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(measure.workloads.CONFIGS)}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        info, result = measure.run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
