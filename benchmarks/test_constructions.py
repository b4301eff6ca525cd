"""In-process timings of the physics constructions and of one config validation.

perfbench times whole CLI runs; these cases time one call each on a fixed
input, so a change to one construction shows without process noise. Run
them from the repository root, outside the tier-1 suite:

    PYTHONPATH=src python -m pytest benchmarks -q

pytest-benchmark prints min, median, IQR and rounds per case.
"""

import numpy as np

from blochpoincare.cli import _validate_config
from blochpoincare.coherence import optimal_rotation
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


def test_validate_config_one_scenario(benchmark):
    config = {"parameters": {"coherency": BEAM.real.tolist()}}
    benchmark(_validate_config, "optimize-coherence", config)


def test_efficiency_101_samples(benchmark):
    synthesis = synthesize_min_time(INITIAL, TARGET, 1.0)
    times = np.linspace(0.0, synthesis.t_min, 101)
    trajectory = evolve_states(synthesis.hamiltonian, INITIAL, times)
    benchmark(efficiency, trajectory)
