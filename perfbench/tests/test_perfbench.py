"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
import subprocess
import sys

import pytest
from jsonschema import Draft202012Validator

import checks
import run
import tracer
import workloads
from conftest import BENCH, ROOT

SCHEMA = json.loads((ROOT / "schemas" / "scenario-config.schema.json").read_text(encoding="utf-8"))


def _dump(invocations):
    return json.dumps([(inv.argv, inv.config) for inv in invocations], sort_keys=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert _dump(workloads.generate(workload, 7)) == _dump(workloads.generate(workload, 7))
    assert _dump(workloads.generate(workload, 7)) != _dump(workloads.generate(workload, 8))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_configs_validate_against_published_schema(workload, seed):
    for inv in workloads.generate(workload, seed):
        validator = Draft202012Validator(SCHEMA["kinds"][inv.kind])
        entries = inv.config if isinstance(inv.config, list) else [inv.config]
        assert len(entries) == len(inv.outputs)
        for entry, out in zip(entries, inv.outputs):
            assert list(validator.iter_errors(entry)) == []
            assert entry["output"]["path"] == out.path


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run_has_no_errors(workload, tmp_path):
    result = run.measure(ROOT, tmp_path, workload, seed=3, seconds=0.0, scale=0.01)
    assert result["failures"] == []
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in result["metrics"].values())


LAYER_NAMES = set(tracer.LAYER_METRICS) | {
    tracer.CLASSICAL_PER_ROW[0],
    "process.import_numpy_s",
    "process.import_jsonschema_s",
    "process.import_blochpoincare_s",
    "process.cpu_s",
    "cli.output_bytes",
    "trace.overhead_frac",
}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.layer_unit(n) for n in LAYER_NAMES}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tiny_traced_run_reports_every_layer_metric(tmp_path):
    result = run.trace(ROOT, tmp_path, "scenario_batch", seed=3, seconds=0.0, scale=0.01)
    assert result["failures"] == []
    assert set(result["metrics"]) == LAYER_NAMES
    scenarios = sum(len(inv.outputs) for inv in workloads.generate("scenario_batch", 3, 0.01))
    assert result["metrics"]["cli.validate.calls"] == scenarios


def test_self_time_on_a_synthetic_span_tree():
    #   0 [0, 10]
    #   +- 1 [1, 4]
    #   |  +- 3 [2, 3]
    #   +- 2 [5, 6]
    start = [0.0, 1.0, 5.0, 2.0]
    end = [10.0, 4.0, 6.0, 3.0]
    parent = [-1, 0, 0, 1]
    assert tracer.self_times(start, end, parent) == [6.0, 2.0, 1.0, 1.0]


def test_layer_metrics_on_a_synthetic_trace():
    names = ["cli.main", "cli.run", "polarization.validate_coherency", "bloch.fidelity"]
    # invocation 0 runs two scenarios; only the second is a classical sweep of 2 rows
    rows = [  # name, start, end, parent
        (0, 0.0, 10.0, -1),
        (1, 1.0, 3.0, 0),
        (2, 1.5, 2.0, 1),
        (1, 4.0, 9.0, 0),
        (2, 5.0, 6.0, 3),
        (2, 6.0, 6.5, 3),
        (3, 7.0, 8.0, 3),
    ]
    trace = {"names": names, "spans": {
        "name": [r[0] for r in rows], "start": [r[1] for r in rows], "end": [r[2] for r in rows],
        "parent": [r[3] for r in rows], "invocation": [0] * len(rows)}}
    metrics = tracer.layer_metrics(trace, items=4, classical_rows=2, classical_runs={(0, 1)})
    assert metrics["polarization.validate_coherency.calls"] == 3
    assert metrics["polarization.validate_coherency.self_s"] == pytest.approx(2.0)
    assert metrics["polarization.validate_coherency.per_item"] == 1.0
    assert metrics["bloch.calls"] == 1 and metrics["bloch.self_s"] == pytest.approx(1.0)
    # main: 10 - 2 - 5; runs: (2 - 0.5) + (5 - 1 - 0.5 - 1)
    assert metrics["cli.run.self_s"] == pytest.approx(3.0 + 1.5 + 2.5)


def test_install_rebinds_every_namespace_and_uninstall_restores():
    import blochpoincare
    import blochpoincare.cli  # noqa: F401  (the CLI namespace must be loaded)

    originals = (blochpoincare.bloch.fidelity, blochpoincare.cli.fidelity, blochpoincare.fidelity)
    spans = tracer.Tracer()
    undo = tracer.install(spans, blochpoincare)
    try:
        assert blochpoincare.cli.fidelity is blochpoincare.bloch.fidelity is not originals[0]
        blochpoincare.cli.fidelity([1.0, 0.0], [1.0, 0.0])
    finally:
        tracer.uninstall(undo)
    restored = (blochpoincare.bloch.fidelity, blochpoincare.cli.fidelity, blochpoincare.fidelity)
    assert restored == originals
    names = [spans.names[n] for n in spans.name]
    assert names == ["bloch.fidelity", "bloch.overlap"]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "name, out, text",
    [
        ("t.csv", workloads.Output("t.csv", "trajectory", "csv", 2, rows=2),
         "# version=0\nt,re_c0,im_c0,re_c1,im_c1,bx,by,bz,fidelity\n0,1,0,0,0,0,0,1,0.5\n1,0,0,1,0,0,0,-1,0.99\n"),
        ("c.csv", workloads.Output("c.csv", "classical", "csv", 1, rows=1),
         "# version=0\ntheta,epsilon,intensity,visibility\n0,0,-0.5,0\n"),
        ("q.json", workloads.Output("q.json", "quantum", "json", 1, rows=1),
         '{"rows": [{"relative_phase": 0, "probability": 1.0, "direct_norm": 1.1}], "version": "0"}'),
        ("r.json", workloads.Output("r.json", "correspondence", "json", 1),
         '{"report": {"all_passed": false}, "version": "0"}'),
        ("p.json", workloads.Output("p.json", "pancharatnam", "json", 2, rows=2),
         '{"rows": [{"intensity": 1.0}], "version": "0"}'),
    ],
)
def test_checks_reject_bad_outputs(tmp_path, name, out, text):
    assert checks.check_output(_write(tmp_path, name, text), out) is not None


def test_checks_accept_a_good_quantum_row(tmp_path):
    out = workloads.Output("q.csv", "quantum", "csv", 1, rows=1)
    path = _write(tmp_path, "q.csv", "# version=0\nrelative_phase,probability,direct_norm\n0,1.25,1.25\n")
    assert checks.check_output(path, out) is None


def test_refuses_a_directory_without_the_source_tree(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "fringes", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_refuses_a_package_imported_from_elsewhere(tmp_path):
    # A bare directory without __init__.py imports as a namespace package with no file.
    (tmp_path / "src" / "blochpoincare").mkdir(parents=True)
    (tmp_path / "src" / "blochpoincare" / "cli.py").write_text("", encoding="utf-8")
    with pytest.raises(run.RefuseToRun):
        run.provenance(tmp_path, seed=0)
