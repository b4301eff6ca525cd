"""Run interleaved parent/change pairs of perfbench and write a BENCH_*.json record.

Both checkouts run the same workload and seed at perfbench's own run length,
alternating which side goes first. Usage, from anywhere:

    python3 benchmarks/pairs.py --parent ../parent --change . --workload scenario_batch \\
        --pairs 10 --output BENCH_<n>.json

Each side's runs use its own ``perfbench/run.py`` and ``src``. With
``--pin CPU`` both sides of every pair run on that one CPU
(``os.sched_setaffinity``, which every child inherits), so a CLI process forks
no workers; the record's ``pin`` names the CPU, or is null for a run on every
CPU the process may use. Beside the three end-to-end metrics, each run's
``cpu_s`` is the user and system time of the perfbench process and the
children it reaped. Each run also records a probe of the host: ``runnable``,
the runnable-task count of ``/proc/loadavg`` just before the run (this process
included), and ``steal_ticks``, the growth of the steal column of ``/proc/stat``
across it. A pair is flagged when its two runs saw different runnable counts;
steal is recorded, not compared, since on a host whose steal grows in every run
"steal on one side only" cannot occur. The record holds, per workload and
metric, the median, q1, q3 and n of each side, the pairs the change won, every
run's value and failed-item count, the median change/parent ratio over pairs
with its 95 % bootstrap interval (2 000 resamples of the pairs,
``np.random.default_rng(0)``), the same summary over the pairs not flagged
(``unflagged``, null when every pair is flagged), the flagged pair indices, and
each side's provenance as its perfbench results file gives it (git SHA and
dirty flag, source digest, run length, Python and numpy versions). It is
rewritten after every pair.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
BETTER = {"setup_s": "lower", "items_per_s": "higher", "peak_rss_mb": "lower", "cpu_s": "lower"}
PROVENANCE = ("git_sha", "git_dirty", "source_sha256", "python", "numpy", "cpu_model", "nproc")


def cpu_seconds() -> float:
    """User plus system time of this process's reaped children so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def runnable_tasks() -> int:
    """Tasks runnable now, the numerator of the fourth field of ``/proc/loadavg``."""
    return int(Path("/proc/loadavg").read_text().split()[3].split("/")[0])


def steal_ticks() -> int:
    """Ticks the hypervisor has stolen from this host's CPUs so far (``/proc/stat``)."""
    with open("/proc/stat", encoding="ascii") as stat:
        # The first line reads: cpu user nice system idle iowait irq softirq steal ...
        return int(stat.readline().split()[8])


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The results file of one perfbench run in ``checkout``, with its ``cpu_s`` and host probe."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    runnable, steal, before = runnable_tasks(), steal_ticks(), cpu_seconds()
    subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    cpu_s = cpu_seconds() - before
    path = checkout / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    result = json.loads(path.read_text(encoding="utf-8"))
    result["metrics"]["cpu_s"] = cpu_s
    result["host"] = {"runnable": runnable, "steal_ticks": steal_ticks() - steal}
    return result


def flagged(runs: dict) -> list:
    """Indices of the pairs whose two runs saw different runnable-task counts."""
    pairs = zip(runs["parent"], runs["change"])
    return [i for i, (parent, change) in enumerate(pairs)
            if parent["host"]["runnable"] != change["host"]["runnable"]]


def summary(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "n": len(values)}


def wins(parent: list, change: list, better: str) -> int:
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def ratio(parent: list, change: list) -> dict:
    """The median change/parent ratio over pairs and its 95 % bootstrap interval."""
    ratios = np.asarray(change) / np.asarray(parent)
    resamples = np.random.default_rng(0).choice(ratios, size=(2000, len(ratios)))
    low, high = np.percentile(np.median(resamples, axis=1), [2.5, 97.5])
    return {"median": float(np.median(ratios)), "low": float(low), "high": float(high)}


def compare(parent: list, change: list, better: str) -> dict:
    return {
        "parent": summary(parent),
        "change": summary(change),
        "change_wins": wins(parent, change, better),
        "ratio": ratio(parent, change),
    }


def write(path: Path, record: dict) -> None:
    for entry in record["workloads"].values():
        runs = entry["runs"]
        entry["flagged"] = flagged(runs)
        kept = [i for i in range(len(runs["parent"])) if i not in entry["flagged"]]
        entry["metrics"] = {}
        for name, better in BETTER.items():
            parent, change = ([r["metrics"][name] for r in runs[side]] for side in SIDES)
            entry["metrics"][name] = {
                "better": better,
                **compare(parent, change, better),
                "unflagged": compare([parent[i] for i in kept], [change[i] for i in kept], better)
                if kept else None,
            }
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pin", type=int, metavar="CPU", help="run both sides on this one CPU")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.pin is not None:
        os.sched_setaffinity(0, {args.pin})
    record = {"seed": args.seed, "pin": args.pin, "provenance": {}, "workloads": {}}
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
                    "host": result["host"],
                    "metrics": {name: result["metrics"][name] for name in BETTER},
                })
            write(args.output, record)
            runs = entry["runs"]
            print(workload, i, {side: runs[side][-1]["metrics"]["items_per_s"] for side in SIDES},
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
