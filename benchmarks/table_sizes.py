"""Time lone evolve CSV runs of several table sizes on two checkouts and write a JSON record.

Each run is a fresh ``python -m blochpoincare.cli evolve`` process on perfbench's README
evolve config with ``samples`` rows, writing its CSV into a temporary directory. Its wall
time runs from spawn to reap, and its CPU time is the user plus system time that
``os.wait4`` reports for it. In each round every size runs on both sides, which alternate
going first. Usage, from the repository root:

    python3 benchmarks/table_sizes.py --parent ../parent --change . --rounds 5 \\
        --samples 10000 50000 200000 1000000 --output BENCH_<n>_tables.json

The record holds every run and, per size, each side's median wall and CPU seconds and the
median change/parent ratio of each over the rounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "readme_configs" / "evolve.json"


def run_once(checkout: Path, config: Path, directory: str) -> dict:
    """Wall and CPU seconds of one CLI run of ``config`` from ``checkout``'s sources."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-m", "blochpoincare.cli", "evolve", "--config", str(config)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=directory, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{checkout}: {argv} exited {os.waitstatus_to_exitcode(status)}")
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime}


def summarize(runs: dict) -> dict:
    out = {}
    for metric in ("wall_s", "cpu_s"):
        values = {side: [run[metric] for run in runs[side]] for side in SIDES}
        ratios = [c / p for p, c in zip(values["parent"], values["change"])]
        out[metric] = {**{side: statistics.median(values[side]) for side in SIDES},
                       "ratio": statistics.median(ratios)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--samples", type=int, nargs="+", required=True)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    base = json.loads(CONFIG.read_text(encoding="utf-8"))
    record = {"config": str(CONFIG.name), "cpus": len(os.sched_getaffinity(0)), "sizes": {}}
    with tempfile.TemporaryDirectory() as directory:
        configs = {}
        for samples in args.samples:
            configs[samples] = Path(directory) / f"evolve-{samples}.json"
            config = dict(base, parameters=dict(base["parameters"], samples=samples))
            configs[samples].write_text(json.dumps(config), encoding="utf-8")
            record["sizes"][samples] = {"runs": {side: [] for side in SIDES}}
        for i in range(args.rounds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for samples, config in configs.items():
                for side in order:
                    run = run_once(checkouts[side], config, directory)
                    record["sizes"][samples]["runs"][side].append(run)
        for entry in record["sizes"].values():
            entry["median"] = summarize(entry["runs"])
    args.output.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for samples, entry in record["sizes"].items():
        print(samples, json.dumps(entry["median"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
