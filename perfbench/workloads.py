"""Seeded scenario configs for the three benchmark workloads.

A workload is a fixed list of CLI invocations (one "round"); the benchmark
repeats the round until its time is up. Every value is drawn from the
documented valid domain at unit-scale magnitudes (normalized states,
``initial = (1, 0)`` on the ``time_minimization`` route, coherency matrices
with P > 0 inside the Schwarz bound, finite Jones matrices), and nothing is
filtered on what the program does with it. Sizes are fixed per workload so
that seeds change the inputs, not the amount of work.

Only the standard library is used, so the generator runs without numpy and
gives the same configs on every platform for a given seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional

WORKLOADS = ("trajectory", "fringes", "scenario_batch")
DEFAULT_SEED = 0
ENDPOINT_GATE = 1e-9

# Full-size parameters. ``scale`` multiplies every count (tests use a tiny
# scale); the committed goldens hold for scale 1 only.
TRAJECTORY_SAMPLES = 10_000
CLASSICAL_SIDE = 120  # 120 x 120 grid
PANCHARATNAM_SIDE = 200  # 200 x 200 grid
QUANTUM_POINTS = 20_000
BATCH_SIZES = {
    "evolve": 90,
    "optimize-coherence": 600,
    "mueller": 60,
    "interference": 180,
    "correspondence": 90,
}
BATCH_EVOLVE_SAMPLES = 40
BATCH_GRID_SIDE = 8


@dataclass
class Output:
    """One file the CLI writes, with what its check expects."""

    path: str  # relative to the work directory
    check: str  # trajectory | classical | pancharatnam | quantum | optimize | mueller | correspondence
    fmt: str
    items: int  # work items this file represents
    rows: Optional[int] = None  # expected record count for sweeps


@dataclass
class Invocation:
    """One child-process run of ``python -m blochpoincare.cli``."""

    label: str
    kind: str
    config_path: str  # relative to the work directory
    config: object  # a scenario dict or a list of them
    extra_args: List[str] = field(default_factory=list)
    outputs: List[Output] = field(default_factory=list)

    @property
    def argv(self) -> List[str]:
        return [self.kind, "--config", self.config_path, *self.extra_args]

    @property
    def items(self) -> int:
        return sum(out.items for out in self.outputs)


def _scaled(count: int, scale: float, minimum: int) -> int:
    return max(minimum, int(round(count * scale)))


def _pair(z: complex) -> list:
    return [z.real, z.imag]


def _state(rng: random.Random) -> list:
    """Uniform point on the Bloch sphere with a random global phase."""
    theta = math.acos(1.0 - 2.0 * rng.random())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    gamma = rng.uniform(0.0, 2.0 * math.pi)
    c0 = complex(math.cos(gamma), math.sin(gamma)) * math.cos(theta / 2.0)
    c1 = complex(math.cos(gamma + phi), math.sin(gamma + phi)) * math.sin(theta / 2.0)
    return [_pair(c0), _pair(c1)]


def _coherency(rng: random.Random) -> list:
    """Hermitian, positive diagonals, |J_xy| strictly inside the Schwarz bound."""
    jxx = rng.uniform(0.2, 2.0)
    jyy = rng.uniform(0.2, 2.0)
    modulus = rng.uniform(0.05, 0.95) * math.sqrt(jxx * jyy)
    phase = rng.uniform(-math.pi, math.pi)
    jxy = complex(modulus * math.cos(phase), modulus * math.sin(phase))
    return [[jxx, _pair(jxy)], [_pair(jxy.conjugate()), jyy]]


def _jones(rng: random.Random, unitary: bool) -> list:
    if unitary:
        # e^{i g} [[a, -b*], [b, a*]] with |a|^2 + |b|^2 = 1
        a, b = (complex(*entry) for entry in _state(rng))
        g = rng.uniform(0.0, 2.0 * math.pi)
        ph = complex(math.cos(g), math.sin(g))
        rows = [[ph * a, -ph * b.conjugate()], [ph * b, ph * a.conjugate()]]
    else:
        rows = [
            [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(2)]
            for _ in range(2)
        ]
    return [[_pair(z) for z in row] for row in rows]


def _grid(rng: random.Random, low: float, high: float, span: float, count: int) -> dict:
    start = rng.uniform(low, high)
    return {"start": start, "stop": start + span, "count": count}


def _evolve_params(rng: random.Random, route: str, samples: int) -> dict:
    initial = [[1.0, 0.0], [0.0, 0.0]] if route == "time_minimization" else _state(rng)
    return {
        "initial": initial,
        "target": _state(rng),
        "energy": rng.uniform(0.5, 2.0),
        "samples": samples,
        "route": route,
    }


def _interference_params(rng: random.Random, law: str, side: int, points: int) -> dict:
    if law == "classical":
        return {
            "law": "classical",
            "coherency": _coherency(rng),
            "analyzer_angles": _grid(rng, 0.0, 0.5, math.pi / 2.0, side),
            "phase_delays": _grid(rng, -math.pi, 0.0, 2.0 * math.pi, side),
        }
    if law == "pancharatnam":
        return {
            "law": "pancharatnam",
            "intensity_a": rng.uniform(0.1, 2.0),
            "intensity_b": rng.uniform(0.1, 2.0),
            # sphere separations must stay inside [0, pi]
            "sphere_angles": _grid(rng, 0.0, 0.3, math.pi - 0.3, side),
            "phase_advances": _grid(rng, -math.pi, 0.0, 2.0 * math.pi, side),
        }
    amp = rng.uniform(0.2, 1.5)
    arg = rng.uniform(-math.pi, math.pi)
    return {
        "law": "quantum",
        "state_a": _state(rng),
        "state_b": _state(rng),
        "amp_a": [amp * math.cos(arg), amp * math.sin(arg)],
        "amp_b_modulus": rng.uniform(0.2, 1.5),
        "relative_phases": _grid(rng, -math.pi, 0.0, 2.0 * math.pi, points),
    }


def _interference_rows(params: dict) -> int:
    if params["law"] == "classical":
        return params["analyzer_angles"]["count"] * params["phase_delays"]["count"]
    if params["law"] == "pancharatnam":
        return params["sphere_angles"]["count"] * params["phase_advances"]["count"]
    return params["relative_phases"]["count"]


def _trajectory(rng: random.Random, scale: float) -> List[Invocation]:
    samples = _scaled(TRAJECTORY_SAMPLES, scale, 2)
    invocations = []
    plan = [
        ("time_minimization", "csv", None),
        ("time_minimization", "json", "config"),
        ("uncertainty_maximization", "csv", "flag"),
        ("uncertainty_maximization", "json", None),
    ]
    for index, (route, fmt, hbar_from) in enumerate(plan):
        out = f"trajectory-{index}.{fmt}"
        config = {
            "kind": "evolve",
            "parameters": _evolve_params(rng, route, samples),
            "tolerances": {"endpoint_fidelity": ENDPOINT_GATE},
            "output": {"path": out, "format": fmt},
        }
        extra = []
        hbar = rng.uniform(0.5, 2.0)
        if hbar_from == "config":
            config["hbar"] = hbar
        elif hbar_from == "flag":
            extra = ["--hbar", repr(hbar)]
        invocations.append(
            Invocation(
                label=f"evolve-{route}-{fmt}",
                kind="evolve",
                config_path=f"trajectory-{index}.config.json",
                config=config,
                extra_args=extra,
                outputs=[Output(out, "trajectory", fmt, samples, rows=samples)],
            )
        )
    return invocations


def _fringes(rng: random.Random, scale: float) -> List[Invocation]:
    plan = [
        ("classical", "csv", _scaled(CLASSICAL_SIDE, math.sqrt(scale), 2), 0),
        ("pancharatnam", "json", _scaled(PANCHARATNAM_SIDE, math.sqrt(scale), 2), 0),
        ("quantum", "json", 0, _scaled(QUANTUM_POINTS, scale, 2)),
    ]
    invocations = []
    for index, (law, fmt, side, points) in enumerate(plan):
        params = _interference_params(rng, law, side, points)
        rows = _interference_rows(params)
        out = f"fringes-{index}.{fmt}"
        invocations.append(
            Invocation(
                label=f"interference-{law}-{fmt}",
                kind="interference",
                config_path=f"fringes-{index}.config.json",
                config={
                    "kind": "interference",
                    "parameters": params,
                    "output": {"path": out, "format": fmt},
                },
                outputs=[Output(out, law, fmt, rows, rows=rows)],
            )
        )
    return invocations


def _batch_entry(rng: random.Random, kind: str, index: int) -> tuple:
    """One small scenario of ``kind``: (config, check, fmt, rows)."""
    fmt = "json"
    rows = None
    check = {"optimize-coherence": "optimize"}.get(kind, kind)
    if kind == "evolve":
        route = ("time_minimization", "uncertainty_maximization")[index % 2]
        params = _evolve_params(rng, route, BATCH_EVOLVE_SAMPLES)
        fmt = ("json", "csv")[(index // 2) % 2]
        check, rows = "trajectory", BATCH_EVOLVE_SAMPLES
    elif kind == "optimize-coherence":
        params = {"coherency": _coherency(rng)}
    elif kind == "mueller":
        params = {"jones": _jones(rng, unitary=index % 2 == 0)}
        if index % 3 == 0:
            params["rotator_angle"] = rng.uniform(-math.pi, math.pi)
    elif kind == "interference":
        law = ("classical", "pancharatnam", "quantum")[index % 3]
        side = BATCH_GRID_SIDE
        params = _interference_params(rng, law, side, side * side)
        fmt = ("json", "csv")[(index // 3) % 2]
        check, rows = law, _interference_rows(params)
    else:
        params = {
            "initial": [[1.0, 0.0], [0.0, 0.0]],
            "target": _state(rng),
            "energy": rng.uniform(0.5, 2.0),
            "coherency": _coherency(rng),
        }
    config = {"kind": kind, "parameters": params}
    if kind == "evolve":
        config["hbar"] = rng.uniform(0.5, 2.0)
        config["tolerances"] = {"endpoint_fidelity": ENDPOINT_GATE}
    return config, check, fmt, rows


def _scenario_batch(rng: random.Random, scale: float) -> List[Invocation]:
    invocations = []
    for kind, size in BATCH_SIZES.items():
        count = _scaled(size, scale, 1)
        stem = f"batch-{kind}"
        entries, outputs = [], []
        for index in range(count):
            config, check, fmt, rows = _batch_entry(rng, kind, index)
            out = f"{stem}-{index:04d}.{fmt}"
            config["output"] = {"path": out, "format": fmt}
            entries.append(config)
            outputs.append(Output(out, check, fmt, 1, rows=rows))
        invocations.append(
            Invocation(
                label=stem,
                kind=kind,
                config_path=f"{stem}.config.json",
                config=entries,
                outputs=outputs,
            )
        )
    return invocations


def generate(workload: str, seed: int, scale: float = 1.0) -> List[Invocation]:
    """The round of invocations for ``workload``; the same seed gives the same configs."""
    generators = {
        "trajectory": _trajectory,
        "fringes": _fringes,
        "scenario_batch": _scenario_batch,
    }
    if workload not in generators:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    # Mix the workload name into the seed so workloads draw independent inputs.
    rng = random.Random(f"{workload}:{seed}")
    return generators[workload](rng, scale)
