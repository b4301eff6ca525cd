"""Scenario runner: JSON configs in, JSON/CSV files out.

One subcommand per scenario kind (evolve, optimize-coherence, mueller,
interference, correspondence). Configs are validated against the per-kind
JSON schemas of the packaged ``scenario-config.schema.json``, the one file
published at ``schemas/``, before any computation. A built-in checker of the
schema keywords that file uses passes a valid config; only a config it
rejects goes to jsonschema, imported then, which words the first error.
A run imports only its kind's physics modules: the optical ones (coherence,
polarization, mueller, interference) are imported by the runners that call
them, so ``--version`` and ``evolve`` load none of them. Outputs are
byte-deterministic for identical configs (sorted keys, fixed float
formatting, no timestamps). Every successful run re-validates the
library invariants on its own outputs before writing. A table longer than
1024 rows is formatted on every CPU the process may use: contiguous slices
of its rows go to forked worker processes, and this process writes their
text in row order, so the bytes are the same on any number of CPUs.

A config may be an array of scenarios, a batch. Each entry's stdout and
stderr, warnings included, are what it writes run alone, in entry order.
Slices of the entries run in forked workers in the same way, each formatting
its own tables in place, and this process writes their captured streams in
entry order: every file, each stream and the exit code are those of the
in-order run. A slice whose worker fails (cannot start, is killed, or exits
non-zero) runs in this process. ``taskset -c 0`` gives one CPU, and so does
a SIGCHLD that is ignored. A batch in which two entries name one target, or
a target that is not a regular file, runs in order.

Exit codes, each with the prefix of its one stderr line: 0 success; 2 a
config or schema violation, ``error:``; 3 a numerical gate failure,
``numerical gate failure:``, or any other exception, ``unexpected error:``
and its type; 4 an I/O error, ``i/o error:``. A config error names the
fields at fault as ``config field 'a': ...`` or ``config fields 'a' and 'b': ...``.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import functools
import io
import json
import math
import numbers
import os
import pickle
import signal
import stat
import sys
import threading
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from . import __version__
from .bloch import bloch_vectors, fidelities, fidelity
from .numerics import _squares, gate
from .speed_limit import (
    Route,
    UnrepresentableTimeError,
    efficiency,
    evolve_states,
    synthesize_max_uncertainty,
    synthesize_min_time,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

KINDS = ("evolve", "optimize-coherence", "mueller", "interference", "correspondence")

TRAJECTORY_HEADER = "t,re_c0,im_c0,re_c1,im_c1,bx,by,bz,fidelity"

_DEFAULT_SAMPLES = 101


class ConfigError(Exception):
    """Configuration rejected before any computation, naming the config ``fields`` at fault."""

    def __init__(self, message: str, *fields: str):
        if fields:
            named = " and ".join(f"'{field}'" for field in fields)
            message = f"config field{'s' * (len(fields) > 1)} {named}: {message}"
        super().__init__(message)


@contextlib.contextmanager
def _naming(*fields: str, error=ValueError):
    """Re-raise a construction's ``error`` as a ConfigError naming the config ``fields``."""
    try:
        yield
    except error as exc:
        raise ConfigError(str(exc), *fields) from exc


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

# At one config location a wrong type or a missing field is reported before a
# range violation or an unexpected field, whatever the key order of the file.
_FIRST_KEYWORDS = ("type", "required")

# Config fields holding angles in radians, by the kinds that take --degrees.
_ANGLE_FIELDS = {
    "mueller": ("rotator_angle",),
    "interference": (
        "analyzer_angles",
        "phase_delays",
        "sphere_angles",
        "phase_advances",
        "relative_phases",
    ),
}


@functools.cache
def _kind_schemas() -> dict:
    """The per-kind scenario schemas of the packaged schema file, read once."""
    schema = Path(__file__).with_name("scenario-config.schema.json")
    return json.loads(schema.read_text(encoding="utf-8"))["kinds"]


def __getattr__(name: str):
    """``Draft202012Validator``, from jsonschema imported on first use (PEP 562)."""
    if name != "Draft202012Validator":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from jsonschema import Draft202012Validator

    globals()[name] = Draft202012Validator
    return Draft202012Validator


def _is_number(value) -> bool:
    return isinstance(value, numbers.Number) and not isinstance(value, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    "integer": lambda v: not isinstance(v, bool)
    and (isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}

# The schema keywords of the packaged file as JSON Schema 2020-12 reads them,
# each a test of (value, keyword argument, whole schema). A keyword holds on
# the values of the types it does not apply to. ``const`` and ``enum`` compare
# as jsonschema does for the strings the file holds.
_KEYWORDS = {
    "type": lambda v, t, s: _TYPES[t](v),
    "const": lambda v, c, s: v == c,
    "enum": lambda v, e, s: v in e,
    "minimum": lambda v, m, s: not (_is_number(v) and v < m),
    "exclusiveMinimum": lambda v, m, s: not (_is_number(v) and v <= m),
    "minItems": lambda v, n, s: not isinstance(v, list) or len(v) >= n,
    "maxItems": lambda v, n, s: not isinstance(v, list) or len(v) <= n,
    "items": lambda v, i, s: not isinstance(v, list) or all(_conforms(x, i) for x in v),
    "required": lambda v, r, s: not isinstance(v, dict) or all(k in v for k in r),
    "properties": lambda v, p, s: not isinstance(v, dict)
    or all(_conforms(v[k], sub) for k, sub in p.items() if k in v),
    "additionalProperties": lambda v, a, s: not isinstance(v, dict)
    or all(_conforms(v[k], a) for k in v if k not in s.get("properties", {})),
    "oneOf": lambda v, o, s: sum(_conforms(v, sub) for sub in o) == 1,
}


def _conforms(value, schema) -> bool:
    """Whether ``value`` is valid under ``schema``; KeyError for a keyword not in _KEYWORDS."""
    if isinstance(schema, bool):
        return schema
    if not schema.keys() <= _KEYWORDS.keys():
        raise KeyError(sorted(schema.keys() - _KEYWORDS.keys()))
    return all(_KEYWORDS[key](value, arg, schema) for key, arg in schema.items())


def _validate_config(kind: str, config: dict) -> None:
    schema = _kind_schemas()[kind]
    try:
        if _conforms(config, schema):
            return
    except (LookupError, TypeError, ValueError):
        pass  # a keyword the checker lacks, or a non-JSON value that will not compare
    # Through the module attribute: imports jsonschema on first use, honours a rebound class.
    validator = sys.modules[__name__].Draft202012Validator(schema)
    errors = sorted(
        validator.iter_errors(config),
        key=lambda e: (list(e.absolute_path), e.validator not in _FIRST_KEYWORDS),
    )
    if errors:
        first = errors[0]
        where = "/".join(str(p) for p in first.absolute_path) or "<root>"
        raise ConfigError(first.message, where)


def _as_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    return complex(value[0], value[1])


def _as_state_array(entries) -> np.ndarray:
    return np.array([_as_complex(v) for v in entries], dtype=complex)


def _as_matrix(entries) -> np.ndarray:
    return np.array([[_as_complex(v) for v in row] for row in entries], dtype=complex)


def _grid_values(grid: dict) -> np.ndarray:
    return np.linspace(float(grid["start"]), float(grid["stop"]), int(grid["count"]))


def _convert_degrees(kind: str, params: dict) -> dict:
    """Convert the angle-valued fields of a config from degrees to radians."""
    converted = dict(params)
    for field in _ANGLE_FIELDS[kind]:
        if field not in converted:
            continue
        value = converted[field]
        if isinstance(value, dict):
            converted[field] = {
                "start": np.deg2rad(float(value["start"])),
                "stop": np.deg2rad(float(value["stop"])),
                "count": int(value["count"]),
            }
        else:
            converted[field] = float(np.deg2rad(float(value)))
    return converted


# ---------------------------------------------------------------------------
# Forked workers
# ---------------------------------------------------------------------------

_forked = False  # whether slices of this process run in workers; true in each worker too


def _start_worker(task: Callable, lo: int, hi: int, workers: dict) -> Optional[int]:
    """Fork ``task(lo, hi, file)`` on an anonymous file, kept in ``workers``; its pid, or None."""
    try:
        file = open(os.memfd_create("slice"), "w+b")
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        file.close()
        return None
    if pid == 0:
        status = EXIT_NUMERIC
        try:
            task(lo, hi, file)
            file.flush()
            status = EXIT_OK
        finally:
            os._exit(status)  # never back into the caller's stack, its buffers or its atexit hooks
    workers[pid] = file
    return pid


def _slices(units: int, task: Callable, fork: bool = True) -> Iterator[tuple]:
    """Cut ``range(units)`` into one contiguous slice per CPU the process may use, in order.

    A forked worker runs each slice but the first as ``task(lo, hi, file)``. Each
    slice is yielded as ``(lo, hi, file)``, ``file`` rewound, once its worker has
    exited 0, else as ``(lo, hi, None)`` for this process to do: the first, and any
    whose worker could not start, was killed or exited non-zero. Every worker is
    reaped, also when the consumer stops part-way. There is one slice where
    ``fork`` is false, in a process with other Python threads (a lock one of them
    holds would stay held in a worker), where SIGCHLD is ignored (the kernel would
    reap the workers), and within another call's slices.
    """
    global _forked
    width, held = 1, _forked
    if fork and units > 1 and not held and threading.active_count() == 1:
        if all(hasattr(os, name) for name in ("fork", "memfd_create", "sched_getaffinity")):
            if signal.getsignal(signal.SIGCHLD) != signal.SIG_IGN:
                width = min(len(os.sched_getaffinity(0)), units)
    bounds = [units * i // width for i in range(width + 1)]
    started = [(0, bounds[1], None)]  # (lo, hi, worker pid or None)
    workers = {}  # pid -> file, for each worker not yet reaped
    _forked = held or width > 1
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork while any thread runs, and counts the
            # BLAS pool's idle native threads, which its fork handlers stop.
            warnings.filterwarnings("ignore", "This process .* multi-threaded", DeprecationWarning)
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                started.append((lo, hi, _start_worker(task, lo, hi, workers)))
        for lo, hi, pid in started:
            if pid is not None:
                with workers.pop(pid) as file:
                    if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0:
                        file.seek(0)
                        yield lo, hi, file
                        continue
            yield lo, hi, None
    finally:
        _forked = held
        for pid, file in workers.items():  # left only when the consumer stopped part-way
            file.close()
            os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    """Fixed 17-significant-digit decimal form, enough to round-trip a double."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("refusing to serialize a non-finite float")
    return format(x, ".17g")


def _json_fragment(value, indent: int) -> str:
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, (dict, list, tuple)):
        return "".join(_json_chunks(value, indent))
    if isinstance(value, (bool, str)) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    raise TypeError(f"cannot serialize {type(value)!r}")


class Rows(dict):
    """A JSON list of N objects of one shape: row k holds ``value[k]`` of each (N, ...) array."""


_SLOT = -1.2345678901234567e-123  # a float whose text marks the value slots of a row
_BLOCK = 1024  # rows per chunk: the chunks stay small, and the body is never joined whole


@functools.cache
def _row_template(shape: tuple, indent: int) -> str:
    """The %-template of one JSON row of ``shape``, (key, dims) pairs in sorted-key order."""
    row = {key: np.full(dims, _SLOT).tolist() for key, dims in shape}
    return _json_fragment(row, indent).replace("%", "%%").replace(format_float(_SLOT), "%.17g")


def _row_chunks(template: str, table: np.ndarray) -> Iterator[str]:
    """``template % row`` for each row of the 2-D ``table``, joined in blocks of rows.

    Workers format the slices of blocks after the first, streamed here in turn;
    formatting is pure, so a slice whose worker failed is formatted here.
    """
    if not np.isfinite(table).all():
        raise ValueError("refusing to serialize a non-finite float")

    def blocks(lo: int, hi: int) -> Iterator[str]:
        for start in range(lo * _BLOCK, min(hi * _BLOCK, len(table)), _BLOCK):
            yield "".join([template % tuple(row) for row in table[start : start + _BLOCK].tolist()])

    def format_slice(lo: int, hi: int, file: BinaryIO) -> None:
        file.writelines(map(str.encode, blocks(lo, hi)))

    for lo, hi, file in _slices(math.ceil(len(table) / _BLOCK), format_slice):
        if file is None:
            yield from blocks(lo, hi)
        else:
            yield from codecs.iterdecode(iter(functools.partial(file.read, 1 << 16), b""), "utf-8")


def _json_chunks(container, indent: int) -> Iterator[str]:
    """The JSON text of a dict, list or tuple in pieces, each list element whole."""
    pad = "  " * indent
    if isinstance(container, Rows):
        shape = tuple((key, np.shape(container[key])[1:]) for key in sorted(container))
        table = np.column_stack([np.reshape(container[k], (-1, math.prod(d))) for k, d in shape])
        # Every row opens with a comma; the first opens the list instead.
        rows = _row_chunks(f",\n{pad}  " + _row_template(shape, indent + 1), table)
        if len(table):
            yield "[" + next(rows)[1:]
            yield from rows
        yield f"\n{pad}]" if len(table) else "[]"
    elif isinstance(container, dict) and container:
        opening = "{\n"
        for key in sorted(container):
            item, label = container[key], f"{opening}{pad}  {json.dumps(str(key))}: "
            if isinstance(item, (dict, list, tuple)):
                yield label
                yield from _json_chunks(item, indent + 1)
            else:
                yield label + _json_fragment(item, indent + 1)
            opening = ",\n"
        yield f"\n{pad}}}"
    elif len(container):
        opening = "[\n"
        for item in container:
            yield f"{opening}{pad}  {_json_fragment(item, indent + 1)}"
            opening = ",\n"
        yield f"\n{pad}]"
    else:
        yield "{}" if isinstance(container, dict) else "[]"


def _csv_chunks(header: str, rows: Sequence[Sequence[float]]) -> Iterator[str]:
    table = np.asarray(rows, dtype=float).reshape(len(rows), header.count(",") + 1)
    yield f"# version={__version__}\n{header}\n"
    yield from _row_chunks(",".join(["%.17g"] * table.shape[1]) + "\n", table)


def _json_document(payload: dict) -> Iterator[str]:
    yield from _json_chunks(payload, 0)
    yield "\n"


def render_json(payload: dict) -> str:
    """Pretty JSON with sorted keys and 17-significant-digit floats."""
    return "".join(_json_document(payload))


def render_csv(header: str, rows: Sequence[Sequence[float]]) -> str:
    """Version comment, header row, then one line per row of the 2-D array-like ``rows``."""
    return "".join(_csv_chunks(header, rows))


def _write_chunks(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to ``path`` (``-`` for stdout) as they are produced.

    A regular file appears whole or not at all: the chunks go to a sibling
    temporary file that replaces the target only after the last one, so a
    failure part-way leaves any earlier file at ``path`` untouched. The new
    file takes the permission bits of the one it replaces (hard links to the
    old file are not kept). A target that exists and is not a regular file
    (a FIFO, a device, a pipe named by ``/dev/fd/N``) is written in place.
    """
    if path == "-":
        sys.stdout.writelines(chunks)
        return
    try:
        # Stat the path as given: the kernel follows /dev/fd and /proc fd
        # links to pipes, which realpath cannot resolve to a real path.
        mode = os.stat(path).st_mode
    except OSError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        target = written = path
    else:
        target = os.path.realpath(path)
        directory, name = os.path.split(target)
        written = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(written, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        if written != target:
            if mode is not None:
                os.chmod(written, stat.S_IMODE(mode))
            os.replace(written, target)
    except OSError as exc:
        raise IOError(f"cannot write output file {path!r}: {exc.strerror or exc}") from exc
    finally:
        if written != target and os.path.lexists(written):
            os.unlink(written)


def emit_json(payload: dict, path: str) -> None:
    _write_chunks(path, _json_document({**payload, "version": __version__}))


def emit_csv(records: Sequence[Sequence[float]], header: str, path: str) -> None:
    """Write ``render_csv(header, records)``: ``records`` is any 2-D array-like of float rows."""
    _write_chunks(path, _csv_chunks(header, records))


def _matrix_payload(m: np.ndarray) -> list:
    """A matrix as nested lists of floats, each complex entry as its [re, im] pair."""
    return (np.stack((m.real, m.imag), axis=-1) if np.iscomplexobj(m) else m.astype(float)).tolist()


# ---------------------------------------------------------------------------
# Scenario runners
# ---------------------------------------------------------------------------


def _gate_endpoint_fidelity(config: dict, value: float) -> None:
    """Fail when the endpoint fidelity ``value`` is below 1 minus the config's gate."""
    tolerances = config.get("tolerances", {})
    tol = float(tolerances.get("endpoint_fidelity", tolerances.get("default", 1e-9)))
    message = f"endpoint fidelity {value!r} below gate 1 - {tol!r}"
    gate(-value, -(1.0 - tol), message)


def _quantum_side(params: dict, hbar: float):
    """``(initial, target, synthesis, times, states)`` of the config's pair on its route."""
    initial = _as_state_array(params["initial"])
    target = _as_state_array(params["target"])
    energy = float(params["energy"])
    samples = int(params.get("samples", _DEFAULT_SAMPLES))
    route = Route(params.get("route", Route.TIME_MINIMIZATION.value))
    # An unrepresentable minimal time is the energy's and hbar's; the endpoints' otherwise.
    endpoints = ("parameters/initial", "parameters/target")
    with _naming(*endpoints), _naming("parameters/energy", "hbar", error=UnrepresentableTimeError):
        if route is Route.TIME_MINIMIZATION:
            synthesis = synthesize_min_time(initial, target, energy, hbar=hbar)
        else:
            synthesis = synthesize_max_uncertainty(initial, target, energy, hbar=hbar)
    times = np.linspace(0.0, synthesis.t_min, samples)
    states = evolve_states(synthesis.hamiltonian, initial, times, hbar=hbar)
    return initial, target, synthesis, times, states


def _optical_side(params: dict):
    """``(j, solution)``: the config's coherency matrix and its optimal frame."""
    from .coherence import optimal_rotation

    j = _as_matrix(params["coherency"])
    with _naming("parameters/coherency"):
        return j, optimal_rotation(j)


def _run_evolve(config: dict, fmt: str, out_path: str, hbar: float) -> None:
    _, target, result, times, states = _quantum_side(config["parameters"], hbar)
    drift = np.max(np.abs(np.vecdot(states, states).real - 1.0))
    gate(drift, 1e-10, "trajectory sample lost normalization")
    _gate_endpoint_fidelity(config, fidelity(target, states[-1]))
    if not np.all(times[1:] > times[:-1]):
        raise RuntimeError("trajectory times are not strictly increasing")

    parts = states.view(float)  # re c0, im c0, re c1, im c1 per row
    bloch, fid = bloch_vectors(states), fidelities(target, states)
    if fmt == "csv":
        emit_csv(np.column_stack((times, parts, bloch, fid)), TRAJECTORY_HEADER, out_path)
    else:
        emit_json(
            {
                "kind": "evolve",
                "route": result.route.value,
                "t_min": result.t_min,
                "delta_e": result.delta_e,
                "hbar": hbar,
                "trajectory": Rows(
                    t=times, state=parts.reshape(-1, 2, 2), bloch=bloch, fidelity_to_target=fid
                ),
            },
            out_path,
        )


def _run_optimize(config: dict, fmt: str, out_path: str) -> None:
    from .coherence import stokes_rotation_check
    from .polarization import rotate_coherency, stokes_from_coherency

    j, solution = _optical_side(config["parameters"])
    ledger = stokes_rotation_check(stokes_from_coherency(j), solution.phi_opt)

    # optimal_rotation gates the equalized diagonal and the coherence at P;
    # this absolute bound on the polarized intensity is tighter than the ledger's.
    conserved = abs(ledger.i_pol_after - ledger.i_pol_before)
    gate(conserved, 1e-9, "polarized intensity not conserved")

    emit_json(
        {
            "kind": "optimize-coherence",
            "rotation": asdict(solution),
            "ledger": asdict(ledger),
            "rotated_coherency": _matrix_payload(rotate_coherency(j, solution.phi_opt)),
        },
        out_path,
    )


def _run_mueller(config: dict, fmt: str, out_path: str, seed: Optional[int]) -> None:
    from .mueller import (
        _DEFAULT_PROBE_SEED,
        classify_mueller,
        is_unitary,
        mueller_from_jones,
        mueller_rotator,
        wigner_rotation,
    )

    seed = _DEFAULT_PROBE_SEED if seed is None else seed
    params = config["parameters"]
    jones = _as_matrix(params["jones"])
    with _naming("parameters/jones"):
        lifted = mueller_from_jones(jones)
        classification = classify_mueller(lifted, seed=seed)

    payload = {
        "kind": "mueller",
        "jones": _matrix_payload(jones),
        "mueller_from_jones": _matrix_payload(lifted),
        "classification": classification.value,
        "probe_seed": seed,
    }
    if is_unitary(jones):
        rotation = wigner_rotation(jones)
        message = "trace-form rotation lift disagrees with the Kronecker lift"
        gate(np.max(np.abs(rotation - lifted)), 1e-10, message)
        payload["wigner_rotation"] = _matrix_payload(rotation)
    if "rotator_angle" in params:
        angle = float(params["rotator_angle"])
        if not math.isfinite(2.0 * angle):
            raise ConfigError(f"2 * {angle!r} overflows", "parameters/rotator_angle")
        payload["rotator_angle"] = angle
        payload["mueller_rotator"] = _matrix_payload(mueller_rotator(angle))
    emit_json(payload, out_path)


def _gate_amplitudes(fields: dict, x: float, y: float) -> None:
    """Reject the config ``fields`` (name to value) whose amplitudes ``x``, ``y`` overflow.

    Every value of a two-beam law is at most (x + y)**2, and the laws form
    x**2 * y**2 on the way; the factor 2 leaves headroom for rounding.
    """
    peak, product = x + y, x * y
    if not (math.isfinite(2.0 * peak * peak) and math.isfinite(2.0 * product * product)):
        given = " and ".join(f"{field} = {value!r}" for field, value in fields.items())
        named = (f"parameters/{field}" for field in fields)
        raise ConfigError(f"{given} overflow the interference law", *named)


def _run_interference(config: dict, fmt: str, out_path: str) -> None:
    from .interference import (
        classical_intensity,
        fringe_visibility,
        pancharatnam_intensity,
        quantum_probability,
    )

    params = config["parameters"]
    law = params["law"]
    if law == "classical":
        j = _as_matrix(params["coherency"])
        angles = _grid_values(params["analyzer_angles"])
        delays = _grid_values(params["phase_delays"])
        with _naming("parameters/coherency"):
            intensity = classical_intensity(j, angles[:, None], delays)
        with _naming("parameters/analyzer_angles"):
            visibility = fringe_visibility(j, angles)
        if not np.all(np.isfinite(intensity)):
            raise ConfigError("the intensities overflow", "parameters/coherency")
        gate(np.max(-intensity), 1e-12, "negative intensity in classical sweep")
        columns = (angles[:, None], delays, intensity, visibility[:, None])
        header = "theta,epsilon,intensity,visibility"
    elif law == "pancharatnam":
        i_a, i_b = float(params["intensity_a"]), float(params["intensity_b"])
        _gate_amplitudes({"intensity_a": i_a, "intensity_b": i_b}, math.sqrt(i_a), math.sqrt(i_b))
        angles = _grid_values(params["sphere_angles"])
        advances = _grid_values(params["phase_advances"])
        with _naming("parameters/sphere_angles"):
            intensity = pancharatnam_intensity(i_a, i_b, angles[:, None], advances)
        columns = (angles[:, None], advances, intensity)
        header = "theta_poincare,delta,intensity"
    else:
        state_a = _as_state_array(params["state_a"])
        state_b = _as_state_array(params["state_b"])
        amp_a = _as_complex(params["amp_a"])
        modulus = float(params["amp_b_modulus"])
        amplitudes = {"amp_a": amp_a, "amp_b_modulus": modulus}
        _gate_amplitudes(amplitudes, math.hypot(amp_a.real, amp_a.imag), modulus)
        phases = _grid_values(params["relative_phases"])
        amp_b = modulus * np.exp(1j * phases)
        with _naming("parameters/state_a", "parameters/state_b"):
            probability = quantum_probability(amp_a, amp_b, state_a, state_b)
        # np.linalg.norm of each row, bit for bit, squared as its scalar result squares.
        v = amp_a * state_a + amp_b[:, None] * state_b
        direct = _squares(np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag)))
        # The largest excess of |p - direct| over its row's bound; a - b <= 0 iff a <= b.
        excess = np.max(np.abs(probability - direct) - 1e-12 * np.maximum(1.0, direct))
        gate(excess, 0.0, "interference law deviates from direct norm")
        columns = (phases, probability, direct)
        header = "relative_phase,probability,direct_norm"

    table = np.column_stack([np.ravel(column) for column in np.broadcast_arrays(*columns)])
    if fmt == "csv":
        emit_csv(table, header, out_path)
    else:
        rows = Rows(zip(header.split(","), table.T))
        emit_json({"kind": "interference", "law": law, "rows": rows}, out_path)


def _run_correspondence(config: dict, fmt: str, out_path: str, hbar: float) -> None:
    from .coherence import OpticalScenario, QuantumScenario, correspondence_report

    params = config["parameters"]
    # The beam first: a config with both a bad beam and a bad energy names the beam.
    j, solution = _optical_side(params)
    initial, target, synthesis, _, trajectory = _quantum_side(params, hbar)
    gap = synthesis.hamiltonian.gap
    if not math.isfinite(gap * gap):
        raise ConfigError(f"the gap {gap!r} overflows when squared", "parameters/energy")
    # Samples too close together for the walk to tell apart name the target and their count.
    with _naming("parameters/target", "parameters/samples"):
        quantum = QuantumScenario(
            synthesis=synthesis,
            efficiency=efficiency(trajectory),
            initial_state=initial,
            final_state=target,
        )
    with _naming("parameters/coherency"):
        report = correspondence_report(quantum, OpticalScenario(coherency=j, rotation=solution))

    sys.stdout.write(report.as_table() + "\n")
    payload = {
        "kind": "correspondence",
        "hbar": hbar,
        "t_min": synthesis.t_min,
        "phi_opt": solution.phi_opt,
        "report": report.as_dict(),
    }
    emit_json(payload, out_path)
    _gate_endpoint_fidelity(config, fidelity(target, trajectory[-1]))
    if not report.all_passed:
        raise RuntimeError("correspondence report has failing rows")


def run(kind: str, config: dict, args: argparse.Namespace) -> int:
    """Validate and execute one scenario, showing the warnings it shows run alone; its exit code."""
    with warnings.catch_warnings():  # resets the registries of shown warnings; restores the filters
        try:
            _validate_config(kind, config)  # a config's kind is the schema's const
            properties = _kind_schemas()[kind]["properties"]
            params = config["parameters"]
            if getattr(args, "degrees", False):
                params = _convert_degrees(kind, params)
                config = dict(config, parameters=params)
            if "hbar" in properties:  # a kind reading hbar reads the endpoint-fidelity gate too
                if args.tolerance is not None:
                    tolerances = dict(config.get("tolerances", {}))
                    tolerances["default"] = args.tolerance
                    config = dict(config, tolerances=tolerances)
                hbar = float(args.hbar if args.hbar is not None else config.get("hbar", 1.0))

            output = config.get("output", {})
            out_path = args.output or output.get("path", "-")
            fmt = args.format or output.get("format", "json")
            if fmt not in properties["output"]["properties"]["format"]["enum"]:
                raise ConfigError(f"{kind} emits JSON only")

            if kind == "evolve":
                _run_evolve(config, fmt, out_path, hbar)
            elif kind == "optimize-coherence":
                _run_optimize(config, fmt, out_path)
            elif kind == "mueller":
                _run_mueller(config, fmt, out_path, args.seed)
            elif kind == "interference":
                _run_interference(config, fmt, out_path)
            else:
                _run_correspondence(config, fmt, out_path, hbar)
        except Exception as exc:
            return _fail(exc)
    return EXIT_OK


# Exit code and stderr prefix by exception class, the first class that matches.
# Every gate raises RuntimeError; an OSError is a failed read or write.
_EXIT_CLASSES = (
    (ConfigError, EXIT_SCHEMA, "error:"),
    (RuntimeError, EXIT_NUMERIC, "numerical gate failure:"),
    (OSError, EXIT_IO, "i/o error:"),
)


def _fail(exc: Exception) -> int:
    """Print ``exc`` to stderr under the prefix of its exit class; return that exit code.

    Any other exception exits 3 under its type name: no traceback and no exit 1.
    """
    for error, code, prefix in _EXIT_CLASSES:
        if isinstance(exc, error):
            break
    else:
        code, prefix = EXIT_NUMERIC, f"unexpected error: {type(exc).__name__}:"
    print(prefix, exc, file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# Batch configs
# ---------------------------------------------------------------------------


def _distinct_targets(entries: list) -> bool:
    """Whether ``entries`` may run out of order, writing what the in-order run writes.

    Two entries whose targets resolve to one file must write in order, so the later
    one wins, and so must a target that is not a regular file (a FIFO, ``/dev/stdout``).
    """
    targets = set()
    for entry in entries:
        output = entry["output"]
        path = output.get("path") if isinstance(output, dict) else None
        if not isinstance(path, str) or path == "-":
            continue  # stdout (no path, or -) is captured per entry; a non-string path is invalid
        try:
            mode = os.stat(path).st_mode
        except OSError:
            mode = stat.S_IFREG  # nothing there yet, or a target whose write fails as in order
        except ValueError:  # an embedded NUL
            return False
        target = os.path.realpath(path)
        if not stat.S_ISREG(mode) or target in targets:
            return False
        targets.add(target)
    return True


def _show_as_text(message, category, filename, lineno, file=None, line=None) -> None:
    """A worker's ``warnings.showwarning``: the default text on the entry's captured stderr."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def _replay(code: int, out: str, err: str) -> int:
    """Write one worker record to this process's streams; failing to is the entry's exit 4."""
    try:
        sys.stdout.write(out)
        sys.stderr.write(err)
    except OSError as exc:  # worded as run() words a failed write to stdout
        failed = _fail(exc)
        return code or failed
    return code


def _run_batch(kind: str, entries: list, args: argparse.Namespace) -> int:
    """Run ``entries`` as the in-order loop would; the first non-zero exit code, else 0.

    The entries are cut by ``_slices`` unless their targets must be written in
    order. A worker writes one ``(code, stdout, stderr)`` record per entry. An
    entry's streams depend on that entry only, so this process writes the
    records in entry order, and every file, each stream and the exit code are
    those of the in-order run. A slice whose worker failed runs here: each of
    its targets is a distinct regular file, replaced whole, so a redo writes
    the in-order bytes.
    """

    def run_slice(lo: int, hi: int, file: BinaryIO) -> None:
        warnings.showwarning = _show_as_text  # over any hook, whose records would stay here
        records = []
        for entry in entries[lo:hi]:
            sys.stdout, sys.stderr = out, err = io.StringIO(), io.StringIO()
            records.append((run(kind, entry, args), out.getvalue(), err.getvalue()))
        pickle.dump(records, file, pickle.HIGHEST_PROTOCOL)

    codes = []
    for lo, hi, file in _slices(len(entries), run_slice, _distinct_targets(entries)):
        if file is None:
            codes += [run(kind, entry, args) for entry in entries[lo:hi]]
        else:
            codes += [_replay(*record) for record in pickle.load(file)]
    return next((code for code in codes if code), EXIT_OK)


def _finite_number(literal: str, parse=float):
    """``parse(literal)``, refusing NaN, Infinity and literals beyond the double range."""
    if not math.isfinite(float(literal)):
        raise ConfigError(f"config value {literal} is not a finite number")
    return parse(literal)


_finite_int = functools.partial(_finite_number, parse=int)


def positive_float(text: str) -> float:
    """argparse type of --hbar and --tolerance: positive and finite, as in a config."""
    if not 0.0 < (value := float(text)) < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _probe_seed(text: str) -> int:
    """argparse type of --seed: an unsigned 64-bit integer, 0 <= seed < 2**64."""
    if not (text.isascii() and text.isdigit() and len(text) <= 20 and int(text) < 2**64):
        raise argparse.ArgumentTypeError(f"expected an integer in [0, 2**64), got {text!r}")
    return int(text)


def _load_config(path: str):
    hooks = dict(parse_constant=_finite_number, parse_float=_finite_number, parse_int=_finite_int)
    try:
        raw = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
        config = json.loads(raw, **hooks)
    except OSError as exc:
        raise IOError(f"cannot read config {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep to parse
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, (dict, list)):
        raise ConfigError("config must be a JSON object or an array of them")
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochpoincare",
        description=(
            "Run optimal-speed qubit evolution and maximal-coherence "
            "polarization scenarios from JSON configs."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        sub = subparsers.add_parser(kind, help=f"run a {kind} scenario")
        sub.add_argument("--config", required=True, help="JSON config path, or - for stdin")
        sub.add_argument("--output", help="output path, or - for stdout")
        sub.add_argument("--format", choices=["json", "csv"], help="output format")
        if "hbar" in _kind_schemas()[kind]["properties"]:
            sub.add_argument("--hbar", type=positive_float, help="value of hbar (default 1)")
            tolerance = "endpoint-fidelity gate tolerance if tolerances.endpoint_fidelity is unset"
            sub.add_argument("--tolerance", type=positive_float, help=tolerance)
        if kind in _ANGLE_FIELDS:
            sub.add_argument(
                "--degrees",
                action="store_true",
                help="interpret angle-valued config fields as degrees",
            )
        if kind == "mueller":
            sub.add_argument(
                "--seed",
                type=_probe_seed,
                help="seed for classification probes",
            )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if isinstance(config, dict):
            return run(args.kind, config, args)

        # Batch of independent scenarios: each carries its own output and shares no
        # state, warnings included, with the others, so slices may run in workers.
        if args.output:
            raise ConfigError("batch configs must carry per-scenario output paths")
        bad = next(
            (i for i, e in enumerate(config) if not isinstance(e, dict) or "output" not in e), None
        )
        status = _run_batch(args.kind, config[:bad], args)
        if bad is not None:
            raise ConfigError(f"batch entry {bad} must be an object with an output")
        return status
    except Exception as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
