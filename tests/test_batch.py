"""Batch configs run in slices on the CPUs the process may use, with the in-order run's results.

Each case runs a batch through ``cli.main`` in-process, once as it comes and
once with ``os.sched_getaffinity`` reporting one CPU, which is the in-order
run, and compares the exit code, stdout, stderr and the bytes of every file.
The cases that need a worker report two CPUs, so they fork one worker even on
a one-CPU machine. Every case ends with no child process left to reap.
"""

import contextlib
import errno
import io
import json
import os
import pickle
import signal
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
    def fail():
        raise OSError(code, os.strerror(code))

    return fail


@pytest.mark.parametrize("call, code", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)])
def test_a_worker_that_cannot_start_leaves_its_slice_to_this_process(tmp_path, call, code):
    entries = [_correspondence(case, index) for index, case in enumerate(_CASES)]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    got = _run(tmp_path / "a", "correspondence", entries, cpus=2, patches=[(os, call, _failing(code))])
    assert got == _run(tmp_path / "b", "correspondence", entries, cpus=1)
    _no_child_left()


def _dying(fault: str):
    """A ``cli.run`` under which a worker dies on the entry writing ``die.json``."""
    parent, run = os.getpid(), cli.run

    def run_or_die(kind, config, args):
        if os.getpid() != parent and config["output"]["path"] == "die.json":
            if fault == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise SystemExit(7)  # escapes run(), as nothing an entry does can
        return run(kind, config, args)

    return run_or_die


def _truncating_dump(obj, file, protocol=None):
    file.write(pickle.dumps(obj, protocol)[:-3])


_FAULTS = {
    "killed": "was killed by signal 9",
    "exited": "exited with status 3",
    "truncated": "returned a truncated record",
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_a_lost_worker_exits_3_naming_its_entries(tmp_path, fault):
    patch = (pickle, "dump", _truncating_dump) if fault == "truncated" else (cli, "run", _dying(fault))
    entries = [_optimize(0), _optimize(1), _optimize(2, path="die.json"), _optimize(3, path="-")]
    code, out, err, files = _run(tmp_path, "optimize-coherence", entries, cpus=2, patches=[patch])
    assert code == cli.EXIT_NUMERIC
    assert err == (
        f"unexpected error: the worker process running batch entries 2 to 3 {_FAULTS[fault]}\n"
    )
    assert out == ""  # entry 3's stdout document was in the lost record
    assert {"out0.json", "out1.json"} <= set(files)
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
    assert cli._replay(code, ["a table\n"], ["numerical gate failure: a gate\n"]) == kept
    assert capsys.readouterr().err == "i/o error: [Errno 32] Broken pipe\n"


def test_warnings_are_shown_as_in_order_across_slices(tmp_path):
    # Overflowing beams warn in the degree of polarization. The worker's slice
    # repeats the warnings of a 1e155 beam, which the first slice showed, and
    # meets new ones on a 1.7e308 beam.
    values = [1e155, 3.0, 3.0, 3.0, 1e155, 1.7e308, 1e155, 1.7e308]
    entries = [
        {"parameters": {"coherency": [[value, 1.0], [1.0, 1.0]]}, "output": {"path": f"w{i}.json"}}
        for i, value in enumerate(values)
    ]
    runs = []
    for cpus in (2, 1):
        directory = tmp_path / str(cpus)
        directory.mkdir()
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("default")
            result = _run(directory, "optimize-coherence", entries, cpus=cpus)
        runs.append((result, [(w.category, str(w.message), w.filename, w.lineno) for w in shown]))
    assert runs[0] == runs[1]
    shown = runs[1][1]
    assert len(set(shown)) == len(shown) > 4
    _no_child_left()
