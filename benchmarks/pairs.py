"""Run interleaved parent/change pairs of perfbench and write a BENCH_*.json record.

Both checkouts run the same workload and seed at perfbench's own run length,
alternating which side goes first. Usage, from anywhere:

    python3 benchmarks/pairs.py --parent ../parent --change . --workload scenario_batch \\
        --pairs 10 --output BENCH_<n>.json

Each side's runs use its own ``perfbench/run.py`` and ``src``. The record holds,
per workload and end-to-end metric, the median, q1, q3 and n of each side, the
pairs the change won, every run's value and failed-item count, and each side's
provenance as its perfbench results file gives it (git SHA and dirty flag,
source digest, run length, Python and numpy versions). It is rewritten after
every pair.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
BETTER = {"setup_s": "lower", "items_per_s": "higher", "peak_rss_mb": "lower"}
PROVENANCE = ("git_sha", "git_dirty", "source_sha256", "python", "numpy", "cpu_model", "nproc")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The results file of one perfbench run in ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    path = checkout / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))


def summary(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "n": len(values)}


def wins(parent: list, change: list, better: str) -> int:
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def write(path: Path, record: dict) -> None:
    for entry in record["workloads"].values():
        runs = entry["runs"]
        entry["metrics"] = {
            name: {
                "better": better,
                **{side: summary([r["metrics"][name] for r in runs[side]]) for side in SIDES},
                "change_wins": wins(*([r["metrics"][name] for r in runs[side]] for side in SIDES),
                                    better),
            }
            for name, better in BETTER.items()
        }
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {"seed": args.seed, "provenance": {}, "workloads": {}}
    for workload in args.workload:
        entry = record["workloads"][workload] = {"runs": {side: [] for side in SIDES}}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(checkouts[side], workload, args.seed)
                found = {"seconds": result["seconds"],
                         **{key: result["provenance"][key] for key in PROVENANCE}}
                if record["provenance"].setdefault(side, found) != found:
                    raise SystemExit(f"{side} provenance changed between runs: {found}")
                entry["runs"][side].append({
                    "first": side == order[0],
                    "failed": result["failed"],
                    "metrics": {name: result["metrics"][name] for name in BETTER},
                })
            write(args.output, record)
            runs = entry["runs"]
            print(workload, i, {side: runs[side][-1]["metrics"]["items_per_s"] for side in SIDES},
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
