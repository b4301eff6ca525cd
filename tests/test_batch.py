"""Batch configs run in slices on the CPUs the process may use, with the in-order run's results.

Each case runs a batch through ``cli.main`` in-process, once as it comes and
once with ``os.sched_getaffinity`` reporting one CPU, which is the in-order
run, and compares the exit code, stdout, stderr and the bytes of every file.
The cases that need a worker report two CPUs, so they fork one worker even on
a one-CPU machine. Every case ends with no child process left to reap. The
cases on warnings run the CLI in new processes, which show warnings as the
CLI does, and compare a batch's streams with those of its entries run alone.
"""

import contextlib
import errno
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpoincare import cli

BEAM = [[3.0, 1.0], [1.0, 1.0]]
CORRESPONDENCE = {
    "parameters": {
        "initial": [[1.0, 0.0], [0.0, 0.0]],
        # An endpoint the propagator reaches with fidelity 1 - 2e-16 at every energy used here.
        "target": [
            [0.5063324099842766, 0.4078403521517187],
            [0.03884193830016369, 0.7588050089353408],
        ],
        "energy": 1.0,
        "coherency": BEAM,
        "samples": 5,
    }
}


def _correspondence(case: str, index: int) -> dict:
    """A correspondence entry of one exit class; ``index`` varies the energy and names the file."""
    entry = json.loads(json.dumps(CORRESPONDENCE))
    entry["parameters"]["energy"] = 1.0 + index / 8.0
    entry["output"] = {"path": f"out{index}.json"}
    if case == "bad-beam":  # exit 2
        entry["parameters"]["coherency"] = [[1.0, 0.0], [0.0, 1.0]]
    elif case == "tight-gate":  # exit 3, after the report is written
        entry["tolerances"] = {"endpoint_fidelity": 1e-300}
    elif case == "missing-directory":  # exit 4
        entry["output"]["path"] = f"missing/out{index}.json"
    elif case == "stdout":
        entry["output"]["path"] = "-"
    return entry


def _optimize(index: int, path=None) -> dict:
    beam = [[3.0 + index / 4.0, 1.0], [1.0, 1.0]]
    return {"parameters": {"coherency": beam}, "output": {"path": path or f"out{index}.json"}}


def _run(directory: Path, kind: str, entries: list, cpus=None, patches=(), stdout=None) -> tuple:
    """Exit code, stdout, stderr and every file's bytes of one batch run in ``directory``."""
    (directory / "batch.json").write_text(json.dumps(entries), encoding="utf-8")
    out, err = stdout or io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(directory)
        if cpus is not None:
            patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        for target, name, value in patches:
            patch.setattr(target, name, value)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([kind, "--config", "batch.json"])
    files = {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }
    return code, out.getvalue(), err.getvalue(), files


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _no_fork():
    raise AssertionError("a batch that must run in order forked a worker")


_CASES = ("valid", "bad-beam", "tight-gate", "missing-directory", "stdout")


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(_CASES), min_size=1, max_size=6))
def test_the_parallel_run_is_the_in_order_run(cases):
    entries = [_correspondence(case, index) for index, case in enumerate(cases)]
    with tempfile.TemporaryDirectory() as parallel, tempfile.TemporaryDirectory() as in_order:
        got = _run(Path(parallel), "correspondence", entries)
        want = _run(Path(in_order), "correspondence", entries, cpus=1)
    assert got == want
    _no_child_left()


def test_three_slices_replay_every_exit_class_in_entry_order(tmp_path):
    # Three CPUs make two workers, so the replay order between workers shows.
    entries = [_correspondence(case, index) for index, case in enumerate(_CASES)]
    (tmp_path / "parallel").mkdir()
    (tmp_path / "in-order").mkdir()
    got = _run(tmp_path / "parallel", "correspondence", entries, cpus=3)
    assert got == _run(tmp_path / "in-order", "correspondence", entries, cpus=1)
    code, out, err, files = got
    assert code == cli.EXIT_SCHEMA
    bad_beam, tight_gate, missing_directory = err.splitlines()
    assert bad_beam == (
        "error: config field 'parameters/coherency': "
        "no polarized part: the optimum frame is undefined at P = 0"
    )
    assert tight_gate.startswith("numerical gate failure: endpoint fidelity")
    assert missing_directory.startswith("i/o error: cannot write output file 'missing/out3.json'")
    assert out.count("all rows pass") == 4 and out.endswith('"version": "0.1.0"\n}\n')
    assert sorted(files) == ["batch.json", "out0.json", "out2.json"]
    _no_child_left()


@pytest.mark.parametrize("bad", [5, "entry", {"parameters": {"coherency": BEAM}}])
def test_a_bad_entry_runs_the_entries_before_it_and_no_later_one(tmp_path, bad):
    entries = [_optimize(0), _optimize(1), _optimize(2), bad, _optimize(4)]
    (tmp_path / "parallel").mkdir()
    (tmp_path / "in-order").mkdir()
    got = _run(tmp_path / "parallel", "optimize-coherence", entries, cpus=2)
    want = _run(tmp_path / "in-order", "optimize-coherence", entries, cpus=1)
    assert got == want
    code, out, err, files = got
    assert (code, out) == (cli.EXIT_SCHEMA, "")
    assert err == "error: batch entry 3 must be an object with an output\n"
    assert sorted(files) == ["batch.json", "out0.json", "out1.json", "out2.json"]
    _no_child_left()


@pytest.mark.parametrize("alias", ["out.json", "link.json", "sub/../out.json"])
def test_a_repeated_target_runs_in_order_and_the_last_entry_wins(tmp_path, alias):
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.json").symlink_to("out.json")
    last = _optimize(1, path=alias)
    entries = [_optimize(0, path="out.json"), last]
    code, _, err, files = _run(tmp_path, "optimize-coherence", entries, cpus=2,
                               patches=[(os, "fork", _no_fork)])
    assert (code, err) == (cli.EXIT_OK, "")
    (tmp_path / "alone").mkdir()
    alone = _run(tmp_path / "alone", "optimize-coherence", [_optimize(1, path="out.json")], cpus=1)
    assert files["out.json"] == alone[3]["out.json"]
    _no_child_left()


def test_a_fifo_target_is_written_in_order(tmp_path):
    os.mkfifo(tmp_path / "pipe")
    # A non-blocking reader lets the writer open the FIFO without a reader thread,
    # which would itself keep the batch in one process.
    reader = os.open(tmp_path / "pipe", os.O_RDONLY | os.O_NONBLOCK)
    try:
        entries = [_optimize(0, path="pipe"), _optimize(1)]
        code, _, err, _ = _run(tmp_path, "optimize-coherence", entries, cpus=2,
                               patches=[(os, "fork", _no_fork)])
        streamed = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert (code, err) == (cli.EXIT_OK, "")
    (tmp_path / "alone").mkdir()
    alone = _run(tmp_path / "alone", "optimize-coherence", [_optimize(0)], cpus=1)
    assert streamed == alone[3]["out0.json"]
    _no_child_left()


def test_a_process_with_another_python_thread_runs_in_order(tmp_path):
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, kwargs={"timeout": 60})
    waiter.start()
    try:
        entries = [_optimize(0), _optimize(1)]
        code, _, err, files = _run(tmp_path, "optimize-coherence", entries, cpus=2,
                                   patches=[(os, "fork", _no_fork)])
    finally:
        release.set()
        waiter.join(timeout=60)
    assert not waiter.is_alive()
    assert (code, err, sorted(files)) == (cli.EXIT_OK, "", ["batch.json", "out0.json", "out1.json"])
    _no_child_left()


def _failing(code: int):
    def fail(*args):
        raise OSError(code, os.strerror(code))

    return fail


@pytest.mark.parametrize("call, code", [("fork", errno.EAGAIN), ("memfd_create", errno.EMFILE)])
def test_a_worker_that_cannot_start_leaves_its_slice_to_this_process(tmp_path, call, code):
    entries = [_correspondence(case, index) for index, case in enumerate(_CASES)]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    got = _run(tmp_path / "a", "correspondence", entries, cpus=2, patches=[(os, call, _failing(code))])
    assert got == _run(tmp_path / "b", "correspondence", entries, cpus=1)
    _no_child_left()


def test_a_batch_takes_every_cpu_once_and_formats_its_rows_in_place(tmp_path):
    params = {"initial": [[1.0, 0.0], [0.0, 0.0]], "target": [[0.6, 0.0], [0.0, 0.8]],
              "samples": 3000}
    output = {"format": "csv"}
    entries = [
        {"parameters": dict(params, energy=energy), "output": dict(output, path=f"out{k}.csv")}
        for k, energy in enumerate((1.0, 2.5))
    ]
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    (tmp_path / "parallel").mkdir()
    (tmp_path / "in-order").mkdir()
    got = _run(tmp_path / "parallel", "evolve", entries, cpus=2, patches=[(os, "fork", counted)])
    assert got == _run(tmp_path / "in-order", "evolve", entries, cpus=1)
    assert got[0] == cli.EXIT_OK and len(forks) == 1
    _no_child_left()


def _dying(fault: str):
    """A ``cli.run`` under which a worker dies on the entry writing ``die.json``."""
    parent, run = os.getpid(), cli.run

    def run_or_die(kind, config, args):
        if os.getpid() != parent and config["output"]["path"] == "die.json":
            if fault == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise SystemExit(7)  # escapes run(), as nothing an entry does can; the worker exits 3
        return run(kind, config, args)

    return run_or_die


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("fault", ["killed", "exited"])
def test_a_failed_worker_leaves_its_slice_to_this_process(tmp_path, fault, cpus):
    # Entry 3 dies in a worker: first in its slice on two CPUs; on three, after
    # entry 2 has written its file, and before a worker that runs on.
    cases = ["valid", "bad-beam", "tight-gate", "valid", "stdout", "missing-directory", "stdout"]
    entries = [_correspondence(case, index) for index, case in enumerate(cases)]
    entries[3]["output"]["path"] = "die.json"
    (tmp_path / "parallel").mkdir()
    (tmp_path / "in-order").mkdir()
    statuses, waitpid = [], os.waitpid

    def recorded(pid, options):
        reaped = waitpid(pid, options)
        statuses.append(os.waitstatus_to_exitcode(reaped[1]))
        return reaped

    patches = [(cli, "run", _dying(fault)), (os, "waitpid", recorded)]
    got = _run(tmp_path / "parallel", "correspondence", entries, cpus=cpus, patches=patches)
    assert got == _run(tmp_path / "in-order", "correspondence", entries, cpus=1)
    died = {"killed": -signal.SIGKILL, "exited": cli.EXIT_NUMERIC}[fault]
    assert statuses == [died] + [0] * (cpus - 2)
    assert got[0] == cli.EXIT_SCHEMA and "die.json" in got[3]
    _no_child_left()


class _BrokenStdout(io.StringIO):
    """A stdout whose reader has gone: writing any text fails, as on a closed pipe."""

    def write(self, text):
        if text:
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        return 0

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def test_a_failed_replay_to_stdout_exits_4_as_in_order(tmp_path):
    entries = [_optimize(0), _optimize(1, path="-"), _optimize(2)]
    runs = []
    for cpus in (2, 1):
        directory = tmp_path / str(cpus)
        directory.mkdir()
        runs.append(_run(directory, "optimize-coherence", entries, cpus=cpus, stdout=_BrokenStdout()))
    assert runs[0] == runs[1]
    code, _, err, files = runs[0]
    assert (code, err) == (cli.EXIT_IO, "i/o error: [Errno 32] Broken pipe\n")
    assert sorted(files) == ["batch.json", "out0.json", "out2.json"]
    _no_child_left()


@pytest.mark.parametrize(
    "code, kept",
    [(cli.EXIT_OK, cli.EXIT_IO)] + [(code, code) for code in (cli.EXIT_SCHEMA, cli.EXIT_NUMERIC)],
)
def test_a_failed_replay_prints_an_io_error_and_keeps_a_failed_entry_code(
    capsys, monkeypatch, code, kept
):
    monkeypatch.setattr(sys, "stdout", _BrokenStdout())
    assert cli._replay(code, "a table\n", "numerical gate failure: a gate\n") == kept
    assert capsys.readouterr().err == "i/o error: [Errno 32] Broken pipe\n"


# A batch run in a new process under a -W action on ``cpus`` CPUs: the argv holds the
# CPU count, then the CLI's. Where fewer CPUs are available, the batch is cut as if
# there were that many.
_PINNED = """
import os, sys
cpus = int(sys.argv[1])
available = sorted(os.sched_getaffinity(0))
if len(available) >= cpus:
    os.sched_setaffinity(0, available[:cpus])
else:
    os.sched_getaffinity = lambda pid: set(range(cpus))
from blochpoincare.cli import main
sys.exit(main(sys.argv[2:]))
"""

# optimize-coherence entries by what they show: a file, a stdout document, exit 2
# with no warning, and warnings on overflow then exit 3 (1e155) or exit 2 (1.7e308).
_BEAMS = {
    "file": 3.0,
    "stdout": 3.0,
    "unpolarized": 1.0,
    "overflow": 1e155,
    "overflow-max": 1.7e308,
}
# Two CPUs cut the batch after entry 4. Warnings repeat in the first slice, in the
# worker's, and from one slice to the other.
_MIXED = ["overflow", "overflow-max", "overflow", "unpolarized", "file",
          "overflow-max", "stdout", "overflow", "overflow", "file"]


def _entry(case: str, name: str) -> dict:
    off_diagonal = 0.0 if case == "unpolarized" else 1.0
    beam = [[_BEAMS[case], off_diagonal], [off_diagonal, 1.0]]
    return {"parameters": {"coherency": beam}, "output": {"path": "-" if case == "stdout" else name}}


def _processes(runs: list) -> list:
    """Exit code, stdout, stderr and files of each ``(directory, action, cpus, config)`` run.

    The runs go two at a time, each a new process under ``-W action``.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    results = []
    for pair in (runs[i : i + 2] for i in range(0, len(runs), 2)):
        started = []
        for directory, action, cpus, config in pair:
            directory.mkdir()
            (directory / "config.json").write_text(json.dumps(config), encoding="utf-8")
            argv = [sys.executable, "-W", action, "-c", _PINNED, str(cpus)]
            argv += ["optimize-coherence", "--config", "config.json"]
            started.append((directory, subprocess.Popen(
                argv, cwd=directory, env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )))
        for directory, process in started:
            out, err = process.communicate(timeout=120)
            files = {p.name: p.read_bytes() for p in directory.iterdir() if p.name != "config.json"}
            results.append((process.returncode, out, err, files))
    return results


@pytest.mark.parametrize("action", ["default", "once", "module", "always"])
def test_each_entry_shows_what_it_shows_alone_on_any_number_of_cpus(tmp_path, action):
    # In a new process, since pytest records the warnings of this one, and a
    # forked worker's records would never reach it.
    entries = [_entry(case, f"out{index}.json") for index, case in enumerate(_MIXED)]
    runs = [(tmp_path / f"cpus{cpus}", action, cpus, entries) for cpus in (1, 2)]
    runs += [(tmp_path / case, action, 1, _entry(case, "out.json")) for case in _BEAMS]
    one_cpu, two_cpus, *alone = _processes(runs)
    assert one_cpu == two_cpus
    alone = dict(zip(_BEAMS, alone))
    assert [case for case in _BEAMS if "RuntimeWarning" in alone[case][2]] == [
        "overflow", "overflow-max"
    ]
    code, out, err, files = one_cpu
    assert code == next(alone[case][0] for case in _MIXED if alone[case][0])
    assert out == "".join(alone[case][1] for case in _MIXED)
    assert err == "".join(alone[case][2] for case in _MIXED)
    assert files == {
        f"out{index}.json": alone[case][3]["out.json"]
        for index, case in enumerate(_MIXED)
        if case == "file"
    }


def test_a_worker_shows_its_warnings_as_text_whatever_hook_this_process_has(tmp_path):
    entries = [_entry("file", "out0.json"), _entry("overflow", "out1.json")]
    with warnings.catch_warnings(record=True) as recorded:  # a hook recording this process's
        warnings.simplefilter("always")
        code, _, err, _ = _run(tmp_path, "optimize-coherence", entries, cpus=2)
    *shown, failure = err.splitlines()
    assert (code, recorded) == (cli.EXIT_NUMERIC, [])
    assert failure.startswith("numerical gate failure: rotated coherence")
    polarization = str(Path(cli.__file__).with_name("polarization.py"))
    assert shown and all(line.startswith(f"{polarization}:") for line in shown[::2])
    assert all(": RuntimeWarning: " in line for line in shown[::2])
    _no_child_left()
