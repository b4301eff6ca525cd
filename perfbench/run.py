"""Seeded end-to-end benchmark of the blochpoincare CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trajectory --seed 0 --seconds 40 --trace 0

With ``--trace 0`` it runs the workload's round of CLI invocations as child
processes (``python -m blochpoincare.cli`` with the checkout's ``src`` first
on ``PYTHONPATH``), one at a time, until ``--seconds`` are used, checks every
output, and reports the end-to-end metrics. With ``--trace 1`` it runs one
untraced child-process round plus in-process traced rounds (see tracer.py)
and reports the per-layer metrics. The last line of standard output is the
result as one JSON object; the lines before it give each metric with its
unit and the error rate. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import checks
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
GOLDENS = BENCH_DIR / "goldens"
README_CONFIGS = BENCH_DIR / "readme_configs"
README_KINDS = ("correspondence", "evolve", "optimize-coherence")
WORK_DIR = ".perfbench"  # under the checkout root; ignored by git

MIN_ROUNDS = 3
SETUP_SAMPLES_BEFORE = 3  # plus one after every round
CHILD_TIMEOUT_S = 150.0
IMPORTTIME_SAMPLES = 3

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MiB"}


class RefuseToRun(Exception):
    """The checkout cannot be benchmarked (no source tree, wrong import path)."""


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    rss_mib: float
    code: int


def child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: List[str], cwd: Path, env: Dict[str, str], stderr_path: Path) -> ChildRun:
    """Run one child to completion; wall clock from spawn to reap, rusage from wait4."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def cli_argv(*args: str) -> List[str]:
    return [sys.executable, "-m", "blochpoincare.cli", *args]


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def write_configs(directory: Path, invocations: List[workloads.Invocation]) -> None:
    for inv in invocations:
        (directory / inv.config_path).write_text(json.dumps(inv.config, indent=1), encoding="utf-8")


def failure_reason(code: int, stderr_path: Optional[Path]) -> str:
    """The exit code and the last line the child wrote to stderr."""
    lines = stderr_path.read_text(encoding="utf-8", errors="replace").split("\n") if stderr_path else []
    last = [line for line in lines if line.strip()][-1:]
    return f"exit {code}: {last[0] if last else 'no stderr'}"


class OutputChecker:
    """Checks outputs and compares digests, remembering the bytes it already passed."""

    def __init__(self, expected: Optional[Dict[str, str]]) -> None:
        self.expected = expected
        self.first: Dict[str, str] = {}
        self._passed: set = set()
        self.failures: List[str] = []

    def failed_items(self, directory: Path, inv: workloads.Invocation, code: int,
                     stderr_path: Optional[Path] = None) -> int:
        """Items of ``inv`` that failed: all of them on a non-zero exit, else per output file."""
        if code != 0:
            self.failures.append(f"{inv.label}: {failure_reason(code, stderr_path)}")
            return inv.items
        failed = 0
        for out in inv.outputs:
            reason = self._check(directory / out.path, out)
            if reason:
                self.failures.append(reason)
                failed += out.items
        return failed

    def _check(self, path: Path, out: workloads.Output) -> Optional[str]:
        if not path.is_file():
            return f"{out.path}: missing"
        digest = checks.sha256(path)
        if self.first.setdefault(out.path, digest) != digest:
            return f"{out.path}: differs from the first round's bytes"
        if self.expected is not None and self.expected.get(out.path) != digest:
            return f"{out.path}: differs from the committed digest"
        if digest not in self._passed:
            reason = checks.check_output(path, out)
            if reason:
                return reason
            self._passed.add(digest)
        return None


def reference_digests(workload: str, seed: int, compare: Optional[Path]) -> tuple:
    """Expected (workload, README) digests: from ``compare``, else the committed goldens.

    The goldens hold the default seed's workload outputs; the README outputs
    do not depend on the seed, so their digests apply to every run.
    """
    if compare is not None:
        doc = checks.load_digests(compare)
        if (doc["workload"], doc["seed"]) != (workload, seed):
            raise RefuseToRun(f"{compare} holds {doc['workload']} seed {doc['seed']}, "
                              f"not {workload} seed {seed}")
        return doc["files"], doc["readme"]
    golden = GOLDENS / f"{workload}-seed{workloads.DEFAULT_SEED}.json"
    if not golden.is_file():
        return None, None
    doc = checks.load_digests(golden)
    return (doc["files"] if seed == workloads.DEFAULT_SEED else None), doc["readme"]


def time_setup(env: Dict[str, str], work: Path) -> float:
    """Wall time of a CLI process that only prints its version."""
    run = run_child(cli_argv("--version"), work, env, work / "setup.stderr")
    if run.code != 0:
        raise RefuseToRun(f"--version failed: {failure_reason(run.code, work / 'setup.stderr')}")
    return run.wall_s


def run_round(invocations: List[workloads.Invocation], directory: Path, env: Dict[str, str],
              checker: OutputChecker) -> tuple:
    """Every invocation once, as child processes; returns (runs, failed items)."""
    runs, failed = [], 0
    for inv in invocations:
        stderr_path = directory / f"{inv.label}.stderr"
        run = run_child(cli_argv(*inv.argv), directory, env, stderr_path)
        runs.append(run)
        failed += checker.failed_items(directory, inv, run.code, stderr_path)
    return runs, failed


def measure(root: Path, work: Path, workload: str, seed: int, seconds: float,
            scale: float = 1.0, expected: Optional[Dict[str, str]] = None) -> dict:
    """Untraced child-process rounds until ``seconds`` are used (at least MIN_ROUNDS)."""
    invocations = workloads.generate(workload, seed, scale)
    round_items = sum(inv.items for inv in invocations)
    out_dir = fresh_dir(work / "outputs")
    write_configs(out_dir, invocations)
    env = child_env(root)
    checker = OutputChecker(expected)
    time_setup(env, out_dir)  # warm-up: fills the bytecode cache
    deadline = time.perf_counter() + seconds
    setup = [time_setup(env, out_dir) for _ in range(SETUP_SAMPLES_BEFORE)]
    rates, walls, rss, round_times, failed = [], [], [], [], 0
    while True:
        t_round = time.perf_counter()
        runs, round_failed = run_round(invocations, out_dir, env, checker)
        failed += round_failed
        walls += [r.wall_s for r in runs]
        rss += [r.rss_mib for r in runs]
        rates.append(round_items / sum(r.wall_s for r in runs))
        setup.append(time_setup(env, out_dir))
        round_times.append(time.perf_counter() - t_round)
        if len(rates) >= MIN_ROUNDS and time.perf_counter() + statistics.median(round_times) > deadline:
            break
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "items_per_s": statistics.median(rates),
            "peak_rss_mb": max(rss),
        },
        "attempted": round_items * len(rates),
        "failed": failed,
        "failures": checker.failures,
        "digests": checker.first,
        "samples": {"setup_s": setup, "round_items_per_s": rates, "invocation_wall_s": walls},
    }


def import_times(env: Dict[str, str], work: Path) -> Dict[str, float]:
    """Cumulative import time of each top-level package, from ``-X importtime``."""
    totals: Dict[str, List[float]] = {"numpy": [], "jsonschema": [], "blochpoincare": []}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import numpy, jsonschema, blochpoincare.cli"],
            cwd=work, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        sums = dict.fromkeys(totals, 0.0)
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\S.*)$", line)
            if match and not match.group(2).startswith(" "):
                top = match.group(2).split(".")[0]
                if top in sums:
                    sums[top] += int(match.group(1)) / 1e6
        for name, value in sums.items():
            totals[name].append(value)
    return {f"process.import_{name}_s": statistics.median(v) for name, v in totals.items()}


def classical_scenarios(invocations: List[workloads.Invocation]) -> tuple:
    runs, rows = set(), 0
    for index, inv in enumerate(invocations):
        for ordinal, out in enumerate(inv.outputs):
            if out.check == "classical":
                runs.add((index, ordinal))
                rows += out.rows
    return runs, rows


def trace(root: Path, work: Path, workload: str, seed: int, seconds: float,
          scale: float = 1.0, expected: Optional[Dict[str, str]] = None) -> dict:
    """One untraced child-process round, then traced in-process rounds (tracer.py)."""
    invocations = workloads.generate(workload, seed, scale)
    env = child_env(root)
    child_dir = fresh_dir(work / "outputs")
    write_configs(child_dir, invocations)
    checker = OutputChecker(expected)
    time_setup(env, child_dir)  # warm-up: fills the bytecode cache
    started = time.perf_counter()
    items = sum(inv.items for inv in invocations)
    runs, failed = run_round(invocations, child_dir, env, checker)
    metrics = import_times(env, child_dir)
    metrics["process.cpu_s"] = sum(r.cpu_s for r in runs)

    traced_dir = fresh_dir(work / "traced")
    write_configs(traced_dir, invocations)
    trace_path = work / f"trace-{workload}-seed{seed}.json.gz"
    plan = {
        "src": str(root / "src"),
        "argvs": [inv.argv for inv in invocations],
        "labels": [inv.label for inv in invocations],
        "seconds": max(0.0, seconds - (time.perf_counter() - started)),
        "trace_path": str(trace_path),
    }
    (traced_dir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "tracer.py"), "plan.json"], cwd=traced_dir,
                          env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RefuseToRun(f"tracer exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])

    # The traced outputs must be byte-identical to the untraced child's.
    traced_checker = OutputChecker(checker.first)
    for index, inv in enumerate(invocations):
        codes = summary["exit_codes"][index::len(invocations)]
        failed += traced_checker.failed_items(traced_dir, inv, next((c for c in codes if c), 0))
    with gzip.open(trace_path, "rt", encoding="utf-8") as fh:
        spans = json.load(fh)
    classical_runs, classical_rows = classical_scenarios(invocations)
    metrics.update(tracer.layer_metrics(spans, items, classical_rows, classical_runs))
    metrics["cli.output_bytes"] = sum((traced_dir / o.path).stat().st_size
                                      for inv in invocations for o in inv.outputs
                                      if (traced_dir / o.path).is_file())
    metrics["trace.overhead_frac"] = summary["overhead_frac"]
    return {
        "metrics": metrics,
        "attempted": 2 * items,
        "failed": failed,
        "failures": checker.failures + traced_checker.failures,
        "digests": checker.first,
        "samples": {k: summary[k] for k in ("untraced_s", "traced_s")},
        "trace_file": os.path.relpath(trace_path, root),
    }


LAYER_UNITS = {"calls": "count", "per_item": "calls/item", "self_s": "s", "_s": "s",
               "output_bytes": "bytes", "overhead_frac": "fraction"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def readme_examples(root: Path, work: Path, expected: Optional[Dict[str, str]]) -> tuple:
    """Run README's example configs once, untimed; returns (digests, failures)."""
    directory = fresh_dir(work / "readme")
    env = child_env(root)
    digests, failures = {}, []
    for kind in README_KINDS:
        config = README_CONFIGS / f"{kind}.json"
        fmt = json.loads(config.read_text(encoding="utf-8")).get("output", {}).get("format", "json")
        out = f"readme-{kind}.{fmt}"
        stderr_path = directory / f"{kind}.stderr"
        run = run_child(cli_argv(kind, "--config", str(config), "--output", out), directory, env, stderr_path)
        if run.code != 0:
            failures.append(f"README {kind}: {failure_reason(run.code, stderr_path)}")
            continue
        digests[out] = checks.sha256(directory / out)
        if expected is not None and expected.get(out) != digests[out]:
            failures.append(f"README {kind}: {out} differs from the committed digest")
    return digests, failures


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_state(root: Path) -> tuple:
    if not (root / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, check=True, timeout=30).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
                               capture_output=True, text=True, check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(dirty)


def cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(root: Path, seed: int) -> dict:
    """Where the numbers came from; refuses a package imported from anywhere but ``src``."""
    probe = ("import blochpoincare, json, sys, importlib.metadata as m, numpy;"
             "print(json.dumps({'path': getattr(blochpoincare, '__file__', None),"
             "'python': sys.version.split()[0],"
             "'numpy': numpy.__version__, 'jsonschema': m.version('jsonschema')}))")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=root, env=child_env(root),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RefuseToRun(f"cannot import blochpoincare from src: {proc.stderr.strip()[-300:]}")
    found = json.loads(proc.stdout)
    path = found.pop("path")  # None for a namespace package
    package = Path(path).resolve().parent if path else None
    if package != (root / "src" / "blochpoincare").resolve():
        raise RefuseToRun(f"blochpoincare imports from {path}, not from the working tree's src")
    sha, dirty = git_state(root)
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(root),
        "blochpoincare_path": str(package),
        **found,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Seeded benchmark of the blochpoincare CLI.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead of end-to-end metrics")
    parser.add_argument("--write-digests", type=Path, metavar="PATH",
                        help="write the sha256 of every output file to PATH")
    parser.add_argument("--compare-digests", type=Path, metavar="PATH",
                        help="count every output whose sha256 differs from PATH as failed")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "blochpoincare" / "cli.py").is_file():
        print(f"error: no src/blochpoincare/cli.py under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    work = fresh_dir(root / WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                  "provenance": provenance(root, args.seed)}
        expected, readme_expected = reference_digests(args.workload, args.seed, args.compare_digests)
        readme_digests, readme_failures = readme_examples(root, work, readme_expected)
        step = trace if args.trace else measure
        result = step(root, work, args.workload, args.seed, args.seconds, expected=expected)
    except (RefuseToRun, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record["provenance"]["loadavg_end"] = list(os.getloadavg())
    result["attempted"] += len(README_KINDS)
    result["failed"] += len(readme_failures)
    result["failures"] = readme_failures + result["failures"]
    record.update(result)
    if args.write_digests:
        checks.write_digests(args.write_digests, args.workload, args.seed, result["digests"], readme_digests)
    (root / WORK_DIR / "results").mkdir(exist_ok=True)
    result_path = root / WORK_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    units = {name: layer_unit(name) for name in result["metrics"]} if args.trace else END_TO_END_UNITS
    for failure in result["failures"][:20]:
        print(f"FAILED {failure}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {result_path.relative_to(root)}")
    for name, value in result["metrics"].items():
        print(f"{name:48s} {value:.6g} {units[name]}")
    error_rate = result["failed"] / result["attempted"]
    print(f"{'error_rate':48s} {error_rate:.6g} fraction ({result['failed']} of {result['attempted']} items)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
