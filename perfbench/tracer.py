"""Outside-in span tracing of the blochpoincare layers.

Run as a program, this module imports the package from the checkout's
``src``, runs the CLI in-process (``cli.main(argv)``) on a prepared round of
configs, untraced and traced in alternation until its time is up, and writes
the spans of the first traced round to a gzip'd JSON file. The traced
functions are the public boundary functions of each layer, rebound in every
``blochpoincare.*`` namespace that holds them; micro-helpers (``as_state``,
``format_float``, ...) stay untraced because wrapping them doubles run time.

Imported as a module (by ``run.py`` and the tests) it only provides the span
arithmetic and the per-layer metric table; nothing here imports the package
at import time.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import statistics
import sys
import time
import traceback
from array import array
from typing import Dict, List, Sequence

# Boundary functions rebound per module; the span name is "<module>.<function>".
TRACED = {
    "cli": ("run", "render_json", "render_csv", "emit_json", "emit_csv"),
    "numerics": ("matrix_exponential_su2", "is_hermitian"),
    "bloch": ("bloch_vector", "fidelity", "is_normalized", "overlap", "fubini_study_angle"),
    "speed_limit": ("evolve_state", "synthesize_min_time", "synthesize_max_uncertainty", "efficiency"),
    "polarization": ("validate_coherency", "degree_of_polarization"),
    "interference": (
        "classical_intensity", "fringe_visibility", "pancharatnam_intensity", "quantum_probability"),
    "coherence": ("optimal_rotation", "correspondence_report"),
    "mueller": ("classify_mueller", "mueller_from_jones", "wigner_rotation", "mueller_rotator"),
}
MAIN_SPAN = "cli.main"
VALIDATOR_BUILD = "cli.validator.build"
VALIDATOR_RUN = "cli.validator.validate"

# Per-layer metric -> (statistic, span names). "calls" counts spans, "self_s"
# sums their self time, "per_item" divides the call count by the round's items.
LAYER_METRICS = {
    "cli.validate.calls": ("calls", (VALIDATOR_RUN,)),
    "cli.validate.self_s": ("self_s", (VALIDATOR_BUILD, VALIDATOR_RUN)),
    "cli.render.self_s": ("self_s", ("cli.render_json", "cli.render_csv")),
    "cli.write.self_s": ("self_s", ("cli.emit_json", "cli.emit_csv")),
    "cli.run.self_s": ("self_s", (MAIN_SPAN, "cli.run")),
    "numerics.matrix_exponential_su2.calls": ("calls", ("numerics.matrix_exponential_su2",)),
    "numerics.matrix_exponential_su2.self_s": ("self_s", ("numerics.matrix_exponential_su2",)),
    "numerics.is_hermitian.per_item": ("per_item", ("numerics.is_hermitian",)),
    "bloch.calls": ("calls", tuple(f"bloch.{f}" for f in TRACED["bloch"])),
    "bloch.self_s": ("self_s", tuple(f"bloch.{f}" for f in TRACED["bloch"])),
    "speed_limit.evolve_state.self_s": ("self_s", ("speed_limit.evolve_state",)),
    "speed_limit.synthesize.calls": (
        "calls", ("speed_limit.synthesize_min_time", "speed_limit.synthesize_max_uncertainty")),
    "speed_limit.synthesize.self_s": (
        "self_s", ("speed_limit.synthesize_min_time", "speed_limit.synthesize_max_uncertainty")),
    "speed_limit.efficiency.self_s": ("self_s", ("speed_limit.efficiency",)),
    "polarization.validate_coherency.calls": ("calls", ("polarization.validate_coherency",)),
    "polarization.validate_coherency.self_s": ("self_s", ("polarization.validate_coherency",)),
    "polarization.degree_of_polarization.calls": ("calls", ("polarization.degree_of_polarization",)),
    "polarization.degree_of_polarization.self_s": ("self_s", ("polarization.degree_of_polarization",)),
    "interference.classical.calls": (
        "calls", ("interference.classical_intensity", "interference.fringe_visibility")),
    "interference.classical.self_s": (
        "self_s", ("interference.classical_intensity", "interference.fringe_visibility")),
    "interference.pancharatnam.self_s": ("self_s", ("interference.pancharatnam_intensity",)),
    "interference.quantum.self_s": ("self_s", ("interference.quantum_probability",)),
    "coherence.optimal_rotation.calls": ("calls", ("coherence.optimal_rotation",)),
    "coherence.optimal_rotation.self_s": ("self_s", ("coherence.optimal_rotation",)),
    "coherence.correspondence_report.self_s": ("self_s", ("coherence.correspondence_report",)),
    "mueller.classify_mueller.calls": ("calls", ("mueller.classify_mueller",)),
    "mueller.classify_mueller.self_s": ("self_s", ("mueller.classify_mueller",)),
    "mueller.lift.self_s": (
        "self_s", ("mueller.mueller_from_jones", "mueller.wigner_rotation", "mueller.mueller_rotator")),
}
# Calls per classical-law fringe row: only spans inside classical scenarios count.
CLASSICAL_PER_ROW = ("polarization.validate_coherency.per_item", "polarization.validate_coherency")
RUN_SPAN = "cli.run"


class Tracer:
    """In-memory span store: name id, start, end, parent index, invocation id."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.invocation = -1
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.inv = array("i")
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call; parents come from the call stack."""
        nid = self.name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.inv.append(self.invocation)
            self.start.append(clock())
            self.end.append(0.0)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def as_dict(self) -> dict:
        t0 = self.start[0] if self.start else 0.0
        return {
            "names": self.names,
            "spans": {
                "name": list(self.name),
                "start": [t - t0 for t in self.start],
                "end": [t - t0 for t in self.end],
                "parent": list(self.parent),
                "invocation": list(self.inv),
            },
        }


def self_times(start: Sequence[float], end: Sequence[float], parent: Sequence[int]) -> List[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: Dict[int, List[int]] = {}
    for idx, par in enumerate(parent):
        if par >= 0:
            children.setdefault(par, []).append(idx)
    result = []
    for idx, (s, e) in enumerate(zip(start, end)):
        covered, reach = 0.0, s
        for lo, hi in sorted((start[c], end[c]) for c in children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((e - s) - covered)
    return result


def layer_metrics(trace: dict, items: int, classical_rows: int, classical_runs: set) -> Dict[str, float]:
    """Per-layer metrics of one traced round.

    ``classical_runs`` holds the (invocation, scenario ordinal) pairs whose
    scenario is a classical-law sweep; ``classical_rows`` is their row total.
    """
    spans = trace["spans"]
    names = trace["names"]
    name_of = [names[n] for n in spans["name"]]
    selfs = self_times(spans["start"], spans["end"], spans["parent"])
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    for name, own in zip(name_of, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own

    metrics = {}
    for metric, (stat, members) in LAYER_METRICS.items():
        if stat == "self_s":
            metrics[metric] = sum(self_s.get(m, 0.0) for m in members)
        else:
            count = sum(calls.get(m, 0) for m in members)
            metrics[metric] = count if stat == "calls" else count / items

    # Scenario of each span: the index of its nearest cli.run ancestor.
    # Parents are allocated before their children, so one forward pass works.
    scenario = []
    ordinal: Dict[int, tuple] = {}
    seen: Dict[int, int] = {}
    for idx, (name, par, inv) in enumerate(zip(name_of, spans["parent"], spans["invocation"])):
        if name == RUN_SPAN:
            ordinal[idx] = (inv, seen.get(inv, 0))
            seen[inv] = seen.get(inv, 0) + 1
            scenario.append(idx)
        else:
            scenario.append(scenario[par] if par >= 0 else -1)
    metric, span_name = CLASSICAL_PER_ROW
    inside = sum(
        1
        for name, scen in zip(name_of, scenario)
        if name == span_name and scen >= 0 and ordinal[scen] in classical_runs
    )
    metrics[metric] = inside / classical_rows if classical_rows else 0.0
    return metrics


def install(tracer: Tracer, package) -> List[tuple]:
    """Rebind the traced functions everywhere they are bound; returns undo records."""
    modules = {
        name: module
        for name, module in sys.modules.items()
        if module is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
    }
    undo = []
    for short, functions in TRACED.items():
        home = modules.get(f"{package.__name__}.{short}")
        if home is None:
            continue
        for fname in functions:
            original = getattr(home, fname, None)
            if original is None:
                continue
            wrapper = tracer.wrap(f"{short}.{fname}", original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
    cli = modules[f"{package.__name__}.cli"]
    real = cli.Draft202012Validator
    build = tracer.wrap(VALIDATOR_BUILD, real)
    validate = tracer.wrap(VALIDATOR_RUN, lambda v, instance: list(v.iter_errors(instance)))

    class TracedValidator:
        """Stands in for the validator class the CLI binds; forwards everything."""

        def __init__(self, *args, **kwargs):
            self._validator = build(*args, **kwargs)

        def iter_errors(self, instance):
            return iter(validate(self._validator, instance))

        def is_valid(self, instance):
            return not validate(self._validator, instance)

        def __getattr__(self, attr):
            return getattr(self._validator, attr)

    undo.append((cli, "Draft202012Validator", real))
    cli.Draft202012Validator = TracedValidator
    return undo


def uninstall(undo: List[tuple]) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


def _round(cli, argvs: List[List[str]], tracer: Tracer = None) -> tuple:
    """Run every invocation once in-process; returns (wall seconds, exit codes)."""
    main = tracer.wrap(MAIN_SPAN, cli.main) if tracer else cli.main
    codes = []
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for index, argv in enumerate(argvs):
            if tracer:
                tracer.invocation = index
            try:
                codes.append(main(argv))
            except SystemExit as exc:
                codes.append(exc.code if isinstance(exc.code, int) else 1)
            except Exception:  # a CLI process would exit 1 with this traceback
                traceback.print_exc()
                codes.append(1)
    return time.perf_counter() - t0, codes


def main() -> int:
    """Child program: ``tracer.py PLAN.json``, run from the round's directory."""
    plan = json.loads(open(sys.argv[1], encoding="utf-8").read())
    import blochpoincare
    import blochpoincare.cli as cli

    expected = os.path.realpath(os.path.join(plan["src"], "blochpoincare"))
    if os.path.dirname(os.path.realpath(blochpoincare.__file__)) != expected:
        print(f"imported blochpoincare from {blochpoincare.__file__}, not {expected}", file=sys.stderr)
        return 2
    argvs = plan["argvs"]
    deadline = time.perf_counter() + plan["seconds"]
    untraced, traced, kept = [], [], None
    codes = []
    while kept is None or time.perf_counter() + untraced[-1] + traced[-1] < deadline:
        # Alternate which side of the pair runs first, so first-call costs
        # in the process do not all land on one side.
        for traced_side in (False, True) if len(untraced) % 2 == 0 else (True, False):
            if not traced_side:
                wall, round_codes = _round(cli, argvs)
                untraced.append(wall)
                codes.extend(round_codes)
                continue
            tracer = Tracer()
            undo = install(tracer, blochpoincare)
            try:
                wall, round_codes = _round(cli, argvs, tracer)
            finally:
                uninstall(undo)
            traced.append(wall)
            codes.extend(round_codes)
            if kept is None:
                kept = tracer.as_dict()
    with gzip.open(plan["trace_path"], "wt", encoding="utf-8") as fh:
        json.dump(dict(kept, invocations=plan["labels"]), fh)
    overhead = statistics.median(t / u - 1.0 for t, u in zip(traced, untraced))
    print(json.dumps({"untraced_s": untraced, "traced_s": traced,
                      "overhead_frac": overhead, "exit_codes": codes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
