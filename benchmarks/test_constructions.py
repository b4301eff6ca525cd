"""In-process timings of the physics constructions, config validation and the renderer.

perfbench times whole CLI runs; these cases time one call each on a fixed
input, so a change to one construction shows without process noise. The
correspondence chain is the runner's optical and efficiency steps on one
beam and a synthesized trajectory; the classical sweep is the interference
runner's two law calls on a 120 x 120 grid. The render cases write a sweep's
computed columns to a file as the evolve and interference runners do (an
interference sweep formats each axis value once and broadcasts its text: the
pancharatnam 200 x 200 JSON and the classical 120 x 120 CSV), all in this
process (layer 4). The validation cases time
the built-in schema checker on a valid config and on an invalid one, whose
first error it words. One case times ``import blochpoincare.cli`` in
fresh interpreters and records the median ``-X importtime`` cumulative time
in its ``extra_info`` (written by ``--benchmark-json``). Another times fresh
``python -m blochpoincare.cli`` processes (``--version`` and one small config
each of ``evolve``, ``interference`` and ``mueller``) twice: compiling the
package from source with ``PYTHONDONTWRITEBYTECODE=1``, as perfbench's
children do, and from a warm ``PYTHONPYCACHEPREFIX``, as an installed package
runs; it records each median wall time in its ``extra_info``. The batch cases
time the scenario runners (layer 3): perfbench's seed-0 ``scenario_batch``
batch of 600 ``optimize-coherence`` scenarios through ``cli.main``
in-process, on the CPUs the process may use and on one CPU. The batch
cases record how many processes share the work as ``processes`` in their
``extra_info``. Run them from the repository root, outside the tier-1
suite:

    PYTHONPATH=src python -m pytest benchmarks -q

pytest-benchmark prints min, median, IQR and rounds per case.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from blochpoincare import cli
from blochpoincare.bloch import bloch_vectors, fidelities
from blochpoincare.cli import (
    TRAJECTORY_HEADER,
    ConfigError,
    Rows,
    _validate_config,
    emit_csv,
    emit_json,
)
from blochpoincare.coherence import (
    OpticalScenario,
    QuantumScenario,
    bisector_geometry,
    correspondence_report,
    optimal_rotation,
)
from blochpoincare.interference import (
    classical_intensity,
    fringe_visibility,
    pancharatnam_intensity,
)
from blochpoincare.mueller import MuellerClass, classify_mueller, mueller_from_jones
from blochpoincare.speed_limit import (
    efficiency,
    evolve_states,
    synthesize_max_uncertainty,
    synthesize_min_time,
)

HALF = np.sqrt(0.5)
INITIAL = np.array([1.0, 0.0], dtype=complex)
TARGET = np.array([HALF, HALF], dtype=complex)
BEAM = np.array([[3.0, 1.0], [1.0, 1.0]], dtype=complex)
LIFT = mueller_from_jones(np.array([[0.3, -0.2 + 0.7j], [0.1j, 0.9 - 0.4j]]))


def test_classify_mueller(benchmark):
    assert benchmark(classify_mueller, LIFT) is MuellerClass.NONDEPOLARIZING


def test_synthesize_min_time(benchmark):
    benchmark(synthesize_min_time, INITIAL, TARGET, 1.0)


def test_synthesize_max_uncertainty(benchmark):
    benchmark(synthesize_max_uncertainty, INITIAL, TARGET, 1.0)


def test_optimal_rotation(benchmark):
    benchmark(optimal_rotation, BEAM)


def test_bisector_geometry(benchmark):
    benchmark(bisector_geometry, BEAM)


def test_correspondence_chain(benchmark):
    synthesis = synthesize_min_time(INITIAL, TARGET, 1.0)
    times = np.linspace(0.0, synthesis.t_min, 101)
    trajectory = evolve_states(synthesis.hamiltonian, INITIAL, times)

    def chain():
        rotation = optimal_rotation(BEAM)
        quantum = QuantumScenario(synthesis, efficiency(trajectory), INITIAL, TARGET)
        return correspondence_report(quantum, OpticalScenario(BEAM, rotation))

    assert benchmark(chain).all_passed


def test_classical_sweep_120x120(benchmark):
    angles, delays = np.linspace(0.0, np.pi / 2.0, 120), np.linspace(0.0, 2.0 * np.pi, 120)

    def sweep():
        return classical_intensity(BEAM, angles[:, None], delays), fringe_visibility(BEAM, angles)

    benchmark(sweep)


def test_validate_config_one_scenario(benchmark):
    config = {"parameters": {"coherency": BEAM.real.tolist()}}
    benchmark(_validate_config, "optimize-coherence", config)


def test_validate_config_one_invalid_scenario(benchmark):
    config = {"parameters": {"coherency": [BEAM.real.tolist()[0], [1.0]]}}

    def rejected():
        with pytest.raises(ConfigError, match="coherency/1"):
            _validate_config("optimize-coherence", config)

    benchmark(rejected)


def _import_cumulative_us() -> int:
    """The ``-X importtime`` cumulative microseconds of ``import blochpoincare.cli``."""
    argv = [sys.executable, "-X", "importtime", "-c", "import blochpoincare.cli"]
    lines = subprocess.run(argv, capture_output=True, text=True, check=True).stderr.splitlines()
    assert not any(line.split("|")[-1].strip().startswith("jsonschema") for line in lines)
    return int(next(line for line in lines if line.endswith("| blochpoincare.cli")).split("|")[1])


def test_import_cli_in_a_new_process(benchmark):
    cumulative = []
    benchmark.pedantic(lambda: cumulative.append(_import_cumulative_us()), rounds=11)
    benchmark.extra_info["importtime_cumulative_us_median"] = statistics.median(cumulative)


_CLI_CONFIGS = {
    "evolve": {
        "parameters": {
            "initial": [[1.0, 0.0], [0.0, 0.0]],
            "target": [[HALF, 0.0], [HALF, 0.0]],
            "energy": 1.0,
            "samples": 101,
        }
    },
    "interference": {
        "parameters": {
            "law": "pancharatnam",
            "intensity_a": 1.0,
            "intensity_b": 0.5,
            "sphere_angles": {"start": 0.0, "stop": 3.0, "count": 20},
            "phase_advances": {"start": 0.0, "stop": 6.0, "count": 20},
        }
    },
    "mueller": {"parameters": {"jones": [[[0.3, 0.0], [-0.2, 0.7]], [[0.0, 0.1], [0.9, -0.4]]]}},
}


def _cli_seconds(argv: list, env: dict, cwd: Path) -> float:
    """Wall time of one ``python -m blochpoincare.cli`` process, spawn to exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "blochpoincare.cli", *argv], cwd=cwd, env=env,
                   capture_output=True, check=True)
    return time.perf_counter() - t0


def test_cli_processes_from_source_and_from_cached_bytecode(benchmark, tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    envs = {
        "source": dict(base, PYTHONDONTWRITEBYTECODE="1"),
        "cached": dict(base, PYTHONPYCACHEPREFIX=str(tmp_path / "pycache")),
    }
    argvs = {"version": ["--version"]}
    for kind, config in _CLI_CONFIGS.items():
        (tmp_path / f"{kind}.json").write_text(json.dumps(config), encoding="utf-8")
        argvs[kind] = [kind, "--config", f"{kind}.json", "--output", f"{kind}.out"]
    for argv in argvs.values():  # fills the cache with every module a kind imports
        _cli_seconds(argv, envs["cached"], tmp_path)
    walls = {(name, mode): [] for name in argvs for mode in envs}

    def one_round():  # each mode goes first in every other round
        modes = list(envs)[:: -1 if len(walls["version", "source"]) % 2 else 1]
        for name, argv in argvs.items():
            for mode in modes:
                walls[name, mode].append(_cli_seconds(argv, envs[mode], tmp_path))

    benchmark.pedantic(one_round, rounds=7)
    for (name, mode), values in walls.items():
        benchmark.extra_info[f"{name}_{mode}_s_median"] = statistics.median(values)
    # A __pycache__ beside the sources would be read in place of compiling them.
    benchmark.extra_info["package_pycache"] = (Path(src) / "blochpoincare" / "__pycache__").is_dir()


def test_efficiency_101_samples(benchmark):
    synthesis = synthesize_min_time(INITIAL, TARGET, 1.0)
    times = np.linspace(0.0, synthesis.t_min, 101)
    trajectory = evolve_states(synthesis.hamiltonian, INITIAL, times)
    benchmark(efficiency, trajectory)


def _trajectory(samples):
    """The evolve runner's columns: times, state parts, Bloch vectors, fidelities."""
    synthesis = synthesize_min_time(INITIAL, TARGET, 1.0)
    times = np.linspace(0.0, synthesis.t_min, samples)
    states = evolve_states(synthesis.hamiltonian, INITIAL, times)
    return times, states.view(float), bloch_vectors(states), fidelities(TARGET, states)


def _cpus(benchmark, monkeypatch, cpus: str, units: int) -> None:
    """Report one CPU where ``cpus`` is ``"one"``; record the processes sharing ``units``."""
    if cpus == "one":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    benchmark.extra_info["processes"] = min(len(os.sched_getaffinity(0)), units)


def test_emit_csv_trajectory_10000_rows(benchmark, tmp_path):
    columns = _trajectory(10_000)
    path = str(tmp_path / "trajectory.csv")
    benchmark(lambda: emit_csv(np.column_stack(columns), TRAJECTORY_HEADER, path))


def test_emit_json_trajectory_10000_rows(benchmark, tmp_path):
    times, parts, bloch, fid = _trajectory(10_000)
    path = str(tmp_path / "trajectory.json")

    def emit():
        rows = Rows(t=times, state=parts.reshape(-1, 2, 2), bloch=bloch, fidelity_to_target=fid)
        emit_json({"kind": "evolve", "trajectory": rows}, path)

    benchmark(emit)


def _sweep_rows(header: str, first, second, law, per_first=None):
    """The interference runner's rows: each axis value formatted once, its text broadcast."""
    columns = [cli._text(first)[:, None], cli._text(second), law]
    if per_first is not None:
        columns.append(cli._text(per_first)[:, None])
    return Rows(zip(header.split(","), map(np.ravel, np.broadcast_arrays(*columns))))


def test_emit_json_pancharatnam_40000_rows(benchmark, tmp_path):
    angles, advances = np.linspace(0.0, np.pi, 200), np.linspace(0.0, 2.0 * np.pi, 200)
    intensity = pancharatnam_intensity(1.0, 0.5, angles[:, None], advances)
    path = str(tmp_path / "sweep.json")

    def emit():
        rows = _sweep_rows("theta_poincare,delta,intensity", angles, advances, intensity)
        emit_json({"kind": "interference", "law": "pancharatnam", "rows": rows}, path)

    benchmark(emit)


def test_emit_csv_classical_14400_rows(benchmark, tmp_path):
    angles, delays = np.linspace(0.0, np.pi / 2.0, 120), np.linspace(0.0, 2.0 * np.pi, 120)
    intensity = classical_intensity(BEAM, angles[:, None], delays)
    visibility = fringe_visibility(BEAM, angles)
    header = "theta,epsilon,intensity,visibility"
    path = str(tmp_path / "sweep.csv")

    def emit():
        emit_csv(_sweep_rows(header, angles, delays, intensity, visibility), header, path)

    benchmark(emit)


def _optimize_batch() -> list:
    """The entries of perfbench's seed-0 ``scenario_batch`` ``optimize-coherence`` invocation."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    invocations = workloads.generate("scenario_batch", 0)
    (batch,) = [inv for inv in invocations if inv.kind == "optimize-coherence"]
    return batch.config


@pytest.mark.parametrize("cpus", ["affinity", "one"])
def test_optimize_coherence_batch_600_scenarios(benchmark, tmp_path, monkeypatch, cpus):
    entries = _optimize_batch()
    assert len(entries) == 600
    (tmp_path / "batch.json").write_text(json.dumps(entries), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    _cpus(benchmark, monkeypatch, cpus, len(entries))
    argv = ["optimize-coherence", "--config", "batch.json"]
    assert benchmark.pedantic(cli.main, args=(argv,), rounds=5, warmup_rounds=1) == cli.EXIT_OK
