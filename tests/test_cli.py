import copy
import errno
import functools
import io
import json
import math
import os
import signal
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpoincare import cli
from blochpoincare.bloch import bloch_vector, fidelity
from blochpoincare.speed_limit import (
    Route,
    evolve_state,
    evolve_states,
    synthesize_max_uncertainty,
    synthesize_min_time,
)
from helpers import (
    assert_same_text,
    scalar_classical_intensity,
    scalar_fringe_visibility,
    scalar_pancharatnam_intensity,
    scalar_quantum_probability,
)

HALF = 1.0 / np.sqrt(2.0)

EVOLVE_CONFIG = {
    "parameters": {
        "initial": [[1.0, 0.0], [0.0, 0.0]],
        "target": [[HALF, 0.0], [HALF, 0.0]],
        "energy": 1.0,
        "samples": 101,
    }
}

OPTIMIZE_CONFIG = {
    "parameters": {"coherency": [[3.0, 1.0], [1.0, 1.0]]}
}

CORRESPONDENCE_CONFIG = {
    "parameters": {
        "initial": [[1.0, 0.0], [0.0, 0.0]],
        "target": [[HALF, 0.0], [HALF, 0.0]],
        "energy": 1.0,
        "coherency": [[3.0, 1.0], [1.0, 1.0]],
    }
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_evolve_csv_trajectory(tmp_path):
    config = write_config(tmp_path, EVOLVE_CONFIG)
    out = tmp_path / "trajectory.csv"
    code = cli.main(
        ["evolve", "--config", str(config), "--output", str(out), "--format", "csv"]
    )
    assert code == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# version=")
    assert lines[1] == cli.TRAJECTORY_HEADER
    assert len(lines) == 2 + 101
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == pytest.approx(np.pi / 2.0, abs=1e-12)
    assert last[-1] >= 1.0 - 1e-9
    first = [float(x) for x in lines[2].split(",")]
    assert first[0] == 0.0 and first[-1] == pytest.approx(0.5, abs=1e-12)


def test_evolve_json_and_uncertainty_route(tmp_path):
    payload = dict(EVOLVE_CONFIG)
    payload["parameters"] = dict(
        EVOLVE_CONFIG["parameters"], route="uncertainty_maximization", energy=0.5
    )
    config = write_config(tmp_path, payload)
    out = tmp_path / "trajectory.json"
    code = cli.main(["evolve", "--config", str(config), "--output", str(out)])
    assert code == cli.EXIT_OK
    data = json.loads(out.read_text())
    assert data["version"] == cli.__version__
    assert data["t_min"] == pytest.approx(np.pi / 2.0)
    assert data["trajectory"][-1]["fidelity_to_target"] >= 1.0 - 1e-9


def test_evolve_output_is_byte_deterministic(tmp_path):
    config = write_config(tmp_path, EVOLVE_CONFIG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert (
            cli.main(
                ["evolve", "--config", str(config), "--output", str(out), "--format", "csv"]
            )
            == cli.EXIT_OK
        )
    assert out1.read_bytes() == out2.read_bytes()


def test_optimize_coherence_reference_values(tmp_path):
    config = write_config(tmp_path, OPTIMIZE_CONFIG)
    out = tmp_path / "rotation.json"
    code = cli.main(["optimize-coherence", "--config", str(config), "--output", str(out)])
    assert code == cli.EXIT_OK
    data = json.loads(out.read_text())
    assert data["rotation"]["phi_opt"] == pytest.approx(-0.3926991, abs=1e-6)
    assert data["rotation"]["j_after"] == pytest.approx(0.7071068, abs=1e-6)
    assert data["ledger"]["s1_sq_after"] == pytest.approx(0.0, abs=1e-10)
    # floats serialized with 17 significant digits round-trip exactly
    raw = out.read_text()
    assert "-0.39269908169872414" in raw


def test_optimize_coherence_json_only(tmp_path):
    config = write_config(tmp_path, OPTIMIZE_CONFIG)
    code = cli.main(
        ["optimize-coherence", "--config", str(config), "--output", "-", "--format", "csv"]
    )
    assert code == cli.EXIT_SCHEMA


def test_malformed_json_gives_schema_exit_and_no_file(tmp_path):
    config = tmp_path / "broken.json"
    config.write_text("{not json", encoding="utf-8")
    out = tmp_path / "out.json"
    code = cli.main(["evolve", "--config", str(config), "--output", str(out)])
    assert code == cli.EXIT_SCHEMA
    assert not out.exists()


def test_schema_violation_reports_field(tmp_path, capsys):
    config = write_config(tmp_path, {"parameters": {"initial": [[1, 0], [0, 0]]}})
    out = tmp_path / "out.json"
    code = cli.main(["evolve", "--config", str(config), "--output", str(out)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_SCHEMA
    assert "parameters" in captured.err
    assert not out.exists()


def test_kind_mismatch_rejected(tmp_path):
    payload = dict(OPTIMIZE_CONFIG, kind="evolve")
    config = write_config(tmp_path, payload)
    code = cli.main(["optimize-coherence", "--config", str(config), "--output", "-"])
    assert code == cli.EXIT_SCHEMA


def test_unwritable_output_gives_io_exit(tmp_path):
    config = write_config(tmp_path, OPTIMIZE_CONFIG)
    code = cli.main(
        [
            "optimize-coherence",
            "--config",
            str(config),
            "--output",
            str(tmp_path / "missing" / "out.json"),
        ]
    )
    assert code == cli.EXIT_IO


def test_numerical_gate_failure_exit(tmp_path, monkeypatch):
    config = write_config(tmp_path, EVOLVE_CONFIG)
    out = tmp_path / "out.csv"
    monkeypatch.setattr(cli, "fidelity", lambda a, b: 0.5)
    code = cli.main(
        ["evolve", "--config", str(config), "--output", str(out), "--format", "csv"]
    )
    assert code == cli.EXIT_NUMERIC
    assert not out.exists()

    # correspondence writes its report, the diagnostic, before it gates
    config = write_config(tmp_path, CORRESPONDENCE_CONFIG)
    report = tmp_path / "report.json"
    code = cli.main(["correspondence", "--config", str(config), "--output", str(report)])
    assert code == cli.EXIT_NUMERIC
    assert json.loads(report.read_text())["kind"] == "correspondence"


def _nan_at_second_sample(h, state, times, hbar):
    states = evolve_states(h, state, times, hbar=hbar)
    states[1] = np.nan
    return states


@pytest.mark.parametrize(
    "name, fake, gate",
    [
        ("fidelity", lambda a, b: float("nan"), "endpoint fidelity nan"),
        ("evolve_states", _nan_at_second_sample, "lost normalization"),
    ],
)
def test_nan_fails_the_trajectory_gates(tmp_path, monkeypatch, capsys, name, fake, gate):
    config = write_config(tmp_path, EVOLVE_CONFIG)
    out = tmp_path / "out.csv"
    monkeypatch.setattr(cli, name, fake)
    argv = ["evolve", "--config", str(config), "--output", str(out), "--format", "csv"]
    assert cli.main(argv) == cli.EXIT_NUMERIC
    assert gate in capsys.readouterr().err
    assert not out.exists()


def test_mueller_scenario_output(tmp_path):
    payload = {
        "parameters": {
            "jones": [[0.0, [0.0, -1.0]], [[0.0, 1.0], 0.0]],  # sigma_y, unitary
            "rotator_angle": 45.0,
        }
    }
    config = write_config(tmp_path, payload)
    out = tmp_path / "mueller.json"
    code = cli.main(
        ["mueller", "--config", str(config), "--output", str(out), "--degrees"]
    )
    assert code == cli.EXIT_OK
    data = json.loads(out.read_text())
    assert data["classification"] == "nondepolarizing"
    assert "wigner_rotation" in data
    assert np.allclose(data["wigner_rotation"], data["mueller_from_jones"])
    rotator = np.array(data["mueller_rotator"])
    assert rotator[1, 1] == pytest.approx(np.cos(np.pi / 2.0), abs=1e-12)


def test_mueller_depolarizer_classification(tmp_path):
    # A Jones lift is never depolarizing; feed the ideal depolarizer through
    # the library API instead and check the probe-based verdict via the CLI
    # path for a polarizer, which stays nondepolarizing.
    payload = {"parameters": {"jones": [[1.0, 0.0], [0.0, 0.0]]}}
    config = write_config(tmp_path, payload)
    out = tmp_path / "mueller.json"
    assert cli.main(["mueller", "--config", str(config), "--output", str(out)]) == cli.EXIT_OK
    data = json.loads(out.read_text())
    assert data["classification"] == "nondepolarizing"
    assert np.array(data["mueller_from_jones"])[0][0] == pytest.approx(0.5)


# A generic non-unitary Jones matrix; its lift has an imaginary rounding
# residue that grows with the square of the scale.
JONES = [[[0.3, 0.0], [0.2, -0.5]], [[-0.7, 0.1], [0.9, 0.0]]]


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e50, 1e100])
def test_mueller_classification_is_scale_free(tmp_path, scale):
    config = write_config(tmp_path, {"parameters": {"jones": (np.array(JONES) * scale).tolist()}})
    out = tmp_path / "mueller.json"
    assert cli.main(["mueller", "--config", str(config), "--output", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text())["classification"] == "nondepolarizing"


def test_overflowing_jones_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, {"parameters": {"jones": [[1e308, 0.0], [0.0, 1e308]]}})
    out = tmp_path / "mueller.json"
    assert cli.main(["mueller", "--config", str(config), "--output", str(out)]) == cli.EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("error: config field 'parameters/jones': ")
    assert not out.exists()


# 1e200: the probability overflows; 1e100: only |amp_a|**2 * amp_b_modulus**2 does.
@pytest.mark.parametrize("amp", [1e200, 1e100])
def test_overflowing_quantum_amplitudes_are_a_config_error(tmp_path, capsys, amp):
    payload = {
        "parameters": {
            "law": "quantum",
            "state_a": [[1.0, 0.0], [0.0, 0.0]],
            "state_b": [[HALF, 0.0], [HALF, 0.0]],
            "amp_a": amp,
            "amp_b_modulus": amp,
            "relative_phases": {"start": 0.0, "stop": np.pi, "count": 3},
        }
    }
    config = write_config(tmp_path, payload)
    out = tmp_path / "quantum.json"
    assert cli.main(["interference", "--config", str(config), "--output", str(out)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "'parameters/amp_a'" in err and "'parameters/amp_b_modulus'" in err
    assert not out.exists()


def test_interference_classical_sweep_csv(tmp_path):
    payload = {
        "parameters": {
            "law": "classical",
            "coherency": [[3.0, 1.0], [1.0, 1.0]],
            "analyzer_angles": {"start": np.pi / 4.0, "stop": np.pi / 4.0, "count": 1},
            "phase_delays": {"start": 0.0, "stop": np.pi, "count": 5},
        }
    }
    config = write_config(tmp_path, payload)
    out = tmp_path / "sweep.csv"
    code = cli.main(
        ["interference", "--config", str(config), "--output", str(out), "--format", "csv"]
    )
    assert code == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[1] == "theta,epsilon,intensity,visibility"
    first = [float(x) for x in lines[2].split(",")]
    assert first[2] == pytest.approx(3.0, abs=1e-12)


def test_interference_quantum_sweep_self_checks(tmp_path):
    payload = {
        "parameters": {
            "law": "quantum",
            "state_a": [[1.0, 0.0], [0.0, 0.0]],
            "state_b": [[HALF, 0.0], [HALF, 0.0]],
            "amp_a": [HALF, 0.0],
            "amp_b_modulus": HALF,
            "relative_phases": {"start": 0.0, "stop": 2.0 * np.pi, "count": 17},
        }
    }
    config = write_config(tmp_path, payload)
    out = tmp_path / "quantum.json"
    code = cli.main(["interference", "--config", str(config), "--output", str(out)])
    assert code == cli.EXIT_OK
    data = json.loads(out.read_text())
    for row in data["rows"]:
        assert row["probability"] == pytest.approx(row["direct_norm"], abs=1e-12)


def test_correspondence_scenario(tmp_path, capsys):
    config = write_config(tmp_path, CORRESPONDENCE_CONFIG)
    out = tmp_path / "report.json"
    code = cli.main(["correspondence", "--config", str(config), "--output", str(out)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK
    assert "all rows pass" in captured.out
    data = json.loads(out.read_text())
    assert data["report"]["all_passed"] is True
    assert len(data["report"]["rows"]) == 5
    assert data["phi_opt"] == pytest.approx(-np.pi / 8.0)
    assert data["t_min"] == pytest.approx(np.pi / 2.0)


def test_config_from_stdin(tmp_path, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(OPTIMIZE_CONFIG)))
    out = tmp_path / "rotation.json"
    code = cli.main(["optimize-coherence", "--config", "-", "--output", str(out)])
    assert code == cli.EXIT_OK
    assert out.exists()


def test_batch_config_runs_each_scenario(tmp_path):
    entries = []
    for name in ("one.json", "two.json"):
        entry = dict(OPTIMIZE_CONFIG)
        entry["output"] = {"path": str(tmp_path / name), "format": "json"}
        entries.append(entry)
    config = write_config(tmp_path, entries)
    code = cli.main(["optimize-coherence", "--config", str(config)])
    assert code == cli.EXIT_OK
    for name in ("one.json", "two.json"):
        assert (tmp_path / name).exists()


def test_emit_csv_header_only_and_single_record(tmp_path):
    empty = tmp_path / "empty.csv"
    cli.emit_csv([], cli.TRAJECTORY_HEADER, str(empty))
    lines = empty.read_text().splitlines()
    assert lines[0].startswith("# version=")
    assert lines[1:] == [cli.TRAJECTORY_HEADER]

    single = tmp_path / "single.csv"
    record = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.5)
    cli.emit_csv([record], cli.TRAJECTORY_HEADER, str(single))
    lines = single.read_text().splitlines()
    assert len(lines) == 3
    assert lines[2].split(",")[0] == "0"


def test_emit_json_is_sorted_and_deterministic(tmp_path):
    payload = {"b": 0.1, "a": [1, 2.5], "nested": {"y": True, "x": None}}
    cli.emit_json(dict(payload), str(tmp_path / "one.json"))
    cli.emit_json(dict(reversed(list(payload.items()))), str(tmp_path / "two.json"))
    one, two = (tmp_path / "one.json").read_text(), (tmp_path / "two.json").read_text()
    assert one == two
    assert one.index('"a"') < one.index('"b"') < one.index('"nested"')
    assert json.loads(one)["b"] == 0.1


# The row shapes the runners write as JSON (evolve, then the three interference
# laws), and one whose key needs its "%" escaped in the template.
_ROW_SHAPES = {
    "trajectory": {"t": (), "state": (2, 2), "bloch": (3,), "fidelity_to_target": ()},
    "classical": dict.fromkeys(["theta", "epsilon", "intensity", "visibility"], ()),
    "pancharatnam": dict.fromkeys(["theta_poincare", "delta", "intensity"], ()),
    "quantum": dict.fromkeys(["relative_phase", "probability", "direct_norm"], ()),
    "percent": {"100%s": (), "b": (2,)},
}

# Edges of the double range, signed zeros and subnormals.
_SPECIAL_DOUBLES = [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072009e-308, 1.7976931348623157e308]

# Sweep grids of exactly one block, and of one to four whole blocks and part of the next.
_GRIDS = [(32, 32), (25, 41), (43, 48), (47, 66), (70, 70)]


def _random_doubles(rng, shape):
    """Random bit patterns, exponents across the whole double range, the non-finite ones 0."""
    values = rng.integers(0, 2**64, shape, np.uint64).view(float)
    values[~np.isfinite(values)] = 0.0
    return values


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(sorted(_ROW_SHAPES)),
    rows=st.sampled_from([0, 1, cli._BLOCK, cli._BLOCK + 1, 3 * cli._BLOCK + 5]),
    seed=st.integers(0, 2**32 - 1),
    drawn=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
    nested=st.booleans(),
    law=st.sampled_from(["classical", "pancharatnam"]),
    axes=st.one_of(st.tuples(st.integers(1, 70), st.integers(1, 70)), st.sampled_from(_GRIDS)),
)
def test_row_templates_are_bytewise_the_generic_rendering(
    shape, rows, seed, drawn, nested, law, axes
):
    dims = _ROW_SHAPES[shape]
    width = sum(math.prod(d) for d in dims.values())
    rng = np.random.default_rng(seed)
    table = _random_doubles(rng, (rows, width))
    specials = (drawn + _SPECIAL_DOUBLES)[: table.size]
    table.flat[: len(specials)] = specials

    header = ",".join(f"c{k}" for k in range(width))
    lines = "".join(",".join(map(cli.format_float, row)) + "\n" for row in table.tolist())
    fields, start = {}, 0
    for key, d in dims.items():
        fields[key] = table[:, start : start + math.prod(d)].reshape(rows, *d)
        start += math.prod(d)
    generic = [{key: value[k].tolist() for key, value in fields.items()} for k in range(rows)]

    # A sweep as the interference runner writes it: each axis value formatted once and its
    # text broadcast, beside the 2-D law column; the axes repeat values from a small pool.
    pool = drawn + _SPECIAL_DOUBLES + _random_doubles(rng, 4).tolist()
    first, second, per_first = (rng.choice(pool, n) for n in (axes[0], axes[1], axes[0]))
    keys = list(_ROW_SHAPES[law])
    sweep = [first[:, None], second, _random_doubles(rng, axes), per_first[:, None]][: len(keys)]
    texts = [column if k == 2 else cli._text(column) for k, column in enumerate(sweep)]
    broadcast = [np.ravel(column) for column in np.broadcast_arrays(*sweep)]
    swept = cli.Rows(zip(keys, broadcast))
    texted = cli.Rows(zip(keys, map(np.ravel, np.broadcast_arrays(*texts))))

    def document(body):
        return cli.render_json({"outer": {"rows": body}} if nested else {"rows": body})

    csv = cli.render_csv(header, table)
    assert_same_text(csv, f"# version={cli.__version__}\n{header}\n{lines}")
    assert_same_text(document(cli.Rows(fields)), document(generic))
    sweep_header = ",".join(keys)
    want = cli.render_csv(sweep_header, np.column_stack(broadcast))
    assert_same_text(cli.render_csv(sweep_header, texted), want)
    assert_same_text(document(texted), document(swept))


def test_published_schema_is_the_packaged_one():
    from importlib.resources import files
    from pathlib import Path

    from jsonschema import Draft202012Validator

    from blochpoincare.speed_limit import Route

    name = "scenario-config.schema.json"
    published_path = Path(__file__).resolve().parents[1] / "schemas" / name
    assert published_path.resolve() == Path(str(files("blochpoincare").joinpath(name))).resolve()
    published = json.loads(published_path.read_text(encoding="utf-8"))
    Draft202012Validator.check_schema(published)
    assert published["version"] == cli.__version__
    assert sorted(published["kinds"]) == sorted(cli.KINDS)
    evolve = published["kinds"]["evolve"]["properties"]["parameters"]["properties"]
    assert evolve["route"]["enum"] == [r.value for r in Route]
    # The CLI reads each kind's output formats, and whether it takes hbar, from this file.
    kinds = published["kinds"].items()
    formats = {k: v["properties"]["output"]["properties"]["format"]["enum"] for k, v in kinds}
    assert formats == {
        "evolve": ["json", "csv"],
        "optimize-coherence": ["json"],
        "mueller": ["json"],
        "interference": ["json", "csv"],
        "correspondence": ["json"],
    }
    assert sorted(k for k, v in kinds if "hbar" in v["properties"]) == ["correspondence", "evolve"]


@pytest.mark.parametrize(
    "config, message",
    [
        ({"params": {}}, "config field '<root>': 'parameters' is a required property"),
        (
            {"parameters": dict(EVOLVE_CONFIG["parameters"], samples=1.5)},
            "config field 'parameters/samples': 1.5 is not of type 'integer'",
        ),
    ],
)
def test_type_and_required_errors_are_reported_first(tmp_path, capsys, config, message):
    path = write_config(tmp_path, config)
    assert cli.main(["evolve", "--config", str(path), "--output", "-"]) == cli.EXIT_SCHEMA
    assert capsys.readouterr().err.strip() == f"error: {message}"


def test_correspondence_with_hbar_two(tmp_path):
    config = write_config(tmp_path, dict(CORRESPONDENCE_CONFIG, hbar=2.0))
    out = tmp_path / "out.json"
    assert cli.main(["correspondence", "--config", str(config), "--output", str(out)]) == cli.EXIT_OK
    data = json.loads(out.read_text())
    assert data["report"]["all_passed"] is True
    assert data["t_min"] == pytest.approx(np.pi)


def test_hbar_flag_scales_time(tmp_path):
    config = write_config(tmp_path, EVOLVE_CONFIG)
    out = tmp_path / "out.json"
    assert (
        cli.main(["evolve", "--config", str(config), "--output", str(out), "--hbar", "2.0"])
        == cli.EXIT_OK
    )
    data = json.loads(out.read_text())
    assert data["t_min"] == pytest.approx(np.pi)


@pytest.mark.parametrize(
    "kind, config, message",
    [
        (
            "evolve",
            dict(EVOLVE_CONFIG, tolerances={"endpoint_fidelty": 1e-30}),
            "config field 'tolerances': Additional properties are not allowed "
            "('endpoint_fidelty' was unexpected)",
        ),
        (
            "optimize-coherence",
            dict(OPTIMIZE_CONFIG, hbar=2.0),
            "config field '<root>': Additional properties are not allowed "
            "('hbar' was unexpected)",
        ),
    ],
)
def test_fields_no_runner_reads_are_rejected(tmp_path, capsys, kind, config, message):
    path = write_config(tmp_path, config)
    assert cli.main([kind, "--config", str(path), "--output", "-"]) == cli.EXIT_SCHEMA
    assert capsys.readouterr().err.strip() == f"error: {message}"



_UNREAD_FLAGS = {
    "--hbar": ("optimize-coherence", "mueller", "interference"),
    "--tolerance": ("optimize-coherence", "mueller", "interference"),
    "--seed": ("evolve", "optimize-coherence", "interference", "correspondence"),
    "--degrees": ("evolve", "optimize-coherence", "correspondence"),
}


@pytest.mark.parametrize(
    "flag, kind", [(flag, kind) for flag, kinds in _UNREAD_FLAGS.items() for kind in kinds]
)
def test_flags_no_runner_reads_are_not_accepted(kind, flag):
    value = {"--seed": ["7"], "--degrees": []}.get(flag, ["1e-30"])
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([kind, "--config", "-", flag, *value])
    assert exc.value.code == cli.EXIT_SCHEMA


def test_seed_and_degrees_are_accepted_where_read():
    parser = cli.build_parser()
    args = parser.parse_args(["mueller", "--config", "-", "--seed", "7", "--degrees"])
    assert (args.seed, args.degrees) == (7, True)
    assert parser.parse_args(["interference", "--config", "-", "--degrees"]).degrees


@pytest.mark.parametrize("seed", ["-1", str(2**64), "\u0667"])
def test_seed_outside_the_u64_range_names_the_flag(tmp_path, capsys, seed):
    text = json.dumps({"parameters": {"jones": JONES}})
    code, err = _run_in_process(tmp_path, capsys, "mueller", text, ["--seed", seed])
    assert code == cli.EXIT_SCHEMA
    assert "argument --seed: expected an integer in [0, 2**64)" in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_at_the_u64_range_ends_is_the_written_probe_seed(tmp_path, capsys, seed):
    text = json.dumps({"parameters": {"jones": JONES}})
    code, _ = _run_in_process(tmp_path, capsys, "mueller", text, ["--seed", str(seed)])
    assert code == cli.EXIT_OK
    assert json.loads((tmp_path / "out.json").read_text())["probe_seed"] == seed


def _reference_trajectory(params, hbar, fmt):
    """The evolve output rendered row by row through the one-state API."""
    initial = np.array([complex(*v) for v in params["initial"]])
    target = np.array([complex(*v) for v in params["target"]])
    route = Route(params["route"])
    synthesize = (
        synthesize_min_time if route is Route.TIME_MINIMIZATION else synthesize_max_uncertainty
    )
    result = synthesize(initial, target, params["energy"], hbar=hbar)
    rows = []
    for t in np.linspace(0.0, result.t_min, params["samples"]):
        state = evolve_state(result.hamiltonian, initial, float(t), hbar=hbar)
        vec = bloch_vector(state)
        rows.append(
            (float(t), state[0].real, state[0].imag, state[1].real, state[1].imag)
            + (vec[0], vec[1], vec[2], fidelity(target, state))
        )
    if fmt == "csv":
        return cli.render_csv(cli.TRAJECTORY_HEADER, rows)
    trajectory = [
        {
            "t": r[0],
            "state": [[r[1], r[2]], [r[3], r[4]]],
            "bloch": [r[5], r[6], r[7]],
            "fidelity_to_target": r[8],
        }
        for r in rows
    ]
    return cli.render_json(
        {
            "kind": "evolve",
            "route": route.value,
            "t_min": result.t_min,
            "delta_e": result.delta_e,
            "hbar": hbar,
            "trajectory": trajectory,
            "version": cli.__version__,
        }
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("hbar_from", [None, "config", "flag"])
@pytest.mark.parametrize("route", [r.value for r in Route])
def test_evolve_output_is_bytewise_the_row_by_row_reference(tmp_path, route, hbar_from, fmt):
    params = {
        "initial": [[1.0, 0.0], [0.0, 0.0]],
        "target": [[0.6, 0.0], [0.0, 0.8]],
        "energy": 1.3,
        "samples": 64,
        "route": route,
    }
    payload, argv, hbar = {"parameters": params}, [], 1.0
    if hbar_from == "config":
        payload["hbar"], hbar = 2.5, 2.5
    elif hbar_from == "flag":
        argv, hbar = ["--hbar", "0.7"], 0.7
    config = write_config(tmp_path, payload)
    out = tmp_path / f"trajectory.{fmt}"
    argv = ["evolve", "--config", str(config), "--output", str(out), "--format", fmt, *argv]
    assert cli.main(argv) == cli.EXIT_OK
    assert_same_text(out.read_text(), _reference_trajectory(params, hbar, fmt))


@pytest.mark.parametrize("energy", [1e-200, 1e200])
@pytest.mark.parametrize("route", [r.value for r in Route])
def test_evolve_at_extreme_energies(tmp_path, route, energy):
    params = dict(EVOLVE_CONFIG["parameters"], energy=energy, route=route, samples=5)
    config = write_config(tmp_path, {"parameters": params})
    out = tmp_path / "trajectory.csv"
    argv = ["evolve", "--config", str(config), "--output", str(out), "--format", "csv"]
    assert cli.main(argv) == cli.EXIT_OK
    last = [float(x) for x in out.read_text().splitlines()[-1].split(",")]
    # |0> to |+>: t_min = pi / (2 e0) at a gap e0, pi / (4 e) at a dispersion e
    quarter_turns = 2.0 if route == Route.TIME_MINIMIZATION.value else 1.0
    assert last[0] * energy == pytest.approx(quarter_turns * np.pi / 4.0, rel=1e-12)
    assert last[-1] >= 1.0 - 1e-12


@pytest.mark.parametrize("route", [r.value for r in Route])
def test_evolve_at_a_subnormal_energy(tmp_path, route):
    # e0 t / hbar stays finite with a small hbar; the Pauli norm is subnormal.
    params = dict(EVOLVE_CONFIG["parameters"], energy=1e-310, route=route, samples=5)
    config = write_config(tmp_path, {"hbar": 1e-10, "parameters": params})
    out = tmp_path / "trajectory.csv"
    argv = ["evolve", "--config", str(config), "--output", str(out), "--format", "csv"]
    assert cli.main(argv) == cli.EXIT_OK
    last = [float(x) for x in out.read_text().splitlines()[-1].split(",")]
    quarter_turns = 2.0 if route == Route.TIME_MINIMIZATION.value else 1.0
    assert last[0] * 1e-310 / 1e-10 == pytest.approx(quarter_turns * np.pi / 4.0, rel=1e-12)
    assert last[-1] >= 1.0 - 1e-12


@pytest.mark.parametrize("energy", [1e8, 1e12, 1e100, 1e300])
def test_max_uncertainty_mean_energy_is_gated_relative_to_the_energy(tmp_path, energy):
    # <a|H|a> of this pair rounds to about -9.6e-18 e: above an absolute 1e-10 from e = 1e8.
    params = {
        "initial": [1.0, 0.0],
        "target": [
            [-0.689845679191531, 0.030522236622349753],
            [-0.564800859396535, 0.45186427298169995],
        ],
        "energy": energy,
        "route": Route.UNCERTAINTY_MAXIMIZATION.value,
        "samples": 5,
    }
    config = write_config(tmp_path, {"parameters": params})
    out = tmp_path / "trajectory.json"
    assert cli.main(["evolve", "--config", str(config), "--output", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text())["trajectory"][-1]["fidelity_to_target"] >= 1.0 - 1e-9


INTERFERENCE_SWEEPS = {
    "classical": {
        "law": "classical",
        "coherency": [[[2.0, 0.0], [0.6, 0.8]], [[0.6, -0.8], [1.0, 0.0]]],
        "analyzer_angles": {"start": 0.05, "stop": 1.5, "count": 37},
        "phase_delays": {"start": 0.0, "stop": 2.0 * np.pi, "count": 41},
    },
    "pancharatnam": {
        "law": "pancharatnam",
        "intensity_a": 1.7,
        "intensity_b": 0.4,
        "sphere_angles": {"start": 0.0, "stop": np.pi, "count": 31},
        "phase_advances": {"start": -np.pi, "stop": np.pi, "count": 33},
    },
    "quantum": {
        "law": "quantum",
        "state_a": [[0.6, 0.0], [0.0, 0.8]],
        "state_b": [[HALF, 0.0], [0.0, -HALF]],
        "amp_a": [0.3, -0.7],
        "amp_b_modulus": 1.2,
        "relative_phases": {"start": 0.0, "stop": 2.0 * np.pi, "count": 257},
    },
}


def _reference_interference(params, fmt):
    """The interference output rendered row by row through the one-point oracles."""

    def grid(name):
        spec = params[name]
        return [float(x) for x in np.linspace(spec["start"], spec["stop"], spec["count"])]

    def vector(entries):
        return np.array([complex(*v) for v in entries])

    law = params["law"]
    if law == "classical":
        j = np.array([vector(row) for row in params["coherency"]])
        header = "theta,epsilon,intensity,visibility"
        rows = [
            (t, e, scalar_classical_intensity(j, t, e), scalar_fringe_visibility(j, t))
            for t in grid("analyzer_angles")
            for e in grid("phase_delays")
        ]
    elif law == "pancharatnam":
        i_a, i_b = params["intensity_a"], params["intensity_b"]
        header = "theta_poincare,delta,intensity"
        rows = [
            (t, d, scalar_pancharatnam_intensity(i_a, i_b, t, d))
            for t in grid("sphere_angles")
            for d in grid("phase_advances")
        ]
    else:
        state_a, state_b = vector(params["state_a"]), vector(params["state_b"])
        amp_a = complex(*params["amp_a"])
        header = "relative_phase,probability,direct_norm"
        rows = []
        for phase in grid("relative_phases"):
            amp_b = params["amp_b_modulus"] * np.exp(1j * phase)
            direct = float(np.linalg.norm(amp_a * state_a + amp_b * state_b) ** 2)
            rows.append((phase, scalar_quantum_probability(amp_a, amp_b, state_a, state_b), direct))
    if fmt == "csv":
        return cli.render_csv(header, rows)
    keys = header.split(",")
    return cli.render_json(
        {
            "kind": "interference",
            "law": law,
            "rows": [dict(zip(keys, r)) for r in rows],
            "version": cli.__version__,
        }
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("law", sorted(INTERFERENCE_SWEEPS))
def test_interference_output_is_bytewise_the_row_by_row_reference(tmp_path, law, fmt):
    params = INTERFERENCE_SWEEPS[law]
    config = write_config(tmp_path, {"parameters": params})
    out = tmp_path / f"sweep.{fmt}"
    argv = ["interference", "--config", str(config), "--output", str(out), "--format", fmt]
    assert cli.main(argv) == cli.EXIT_OK
    assert_same_text(out.read_text(), _reference_interference(params, fmt))


# Unless J is rescaled, I_x I_y underflows at these scales (a wrong row at
# 1e-170, the 4th digit at 1e-160) or overflows (1e160).
@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160])
def test_classical_sweep_is_scale_free(tmp_path, scale):
    coherency = [[[1.0, 0.0], [0.3, 0.2]], [[0.3, -0.2], [0.5, 0.0]]]
    params = {
        "law": "classical",
        "analyzer_angles": {"start": 0.7, "stop": 0.7, "count": 1},
        "phase_delays": {"start": 0.4, "stop": 0.4, "count": 1},
    }
    rows = []
    for c in (1.0, scale):
        scaled = [[[c * x for x in entry] for entry in row] for row in coherency]
        config = write_config(tmp_path, {"parameters": dict(params, coherency=scaled)})
        out = tmp_path / "sweep.json"
        argv = ["interference", "--config", str(config), "--output", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        rows.append(json.loads(out.read_text())["rows"][0])
    unit, scaled_row = rows
    assert unit["intensity"] == pytest.approx(1.1415, abs=1e-4)
    assert scaled_row["intensity"] == pytest.approx(scale * unit["intensity"], rel=1e-12)
    assert scaled_row["visibility"] == pytest.approx(unit["visibility"], rel=1e-12)


@pytest.mark.parametrize(
    "params, field",
    [
        (
            dict(
                INTERFERENCE_SWEEPS["pancharatnam"],
                sphere_angles={"start": 0.0, "stop": 4.0, "count": 3},
            ),
            "config field 'parameters/sphere_angles': sphere separation must lie in [0, pi]",
        ),
        (
            dict(INTERFERENCE_SWEEPS["quantum"], state_a=[[1.0, 0.0], [0.5, 0.0]]),
            "config fields 'parameters/state_a' and 'parameters/state_b': "
            "branch states must be normalized",
        ),
        (
            dict(
                INTERFERENCE_SWEEPS["classical"],
                coherency=[[[1.7e308, 0.0], [5e307, 0.0]], [[5e307, 0.0], [1.7e308, 0.0]]],
            ),
            "config field 'parameters/coherency': the intensities overflow",
        ),
    ],
    ids=["sphere-angle", "unnormalized-state", "overflowing-coherency"],
)
def test_interference_law_domain_errors_are_config_errors(tmp_path, capsys, params, field):
    config = write_config(tmp_path, {"parameters": params})
    out = tmp_path / "sweep.json"
    argv = ["interference", "--config", str(config), "--output", str(out)]
    assert cli.main(argv) == cli.EXIT_SCHEMA
    assert capsys.readouterr().err.strip() == f"error: {field}"
    assert not out.exists()


def test_vanishing_analyzer_intensities_are_a_config_error(tmp_path, capsys):
    payload = {
        "parameters": {
            "law": "classical",
            "coherency": [[0.0, 0.0], [0.0, 1.0]],
            "analyzer_angles": {"start": 0.0, "stop": 0.0, "count": 1},
            "phase_delays": {"start": 0.0, "stop": np.pi, "count": 3},
        }
    }
    config = write_config(tmp_path, payload)
    out = tmp_path / "sweep.csv"
    argv = ["interference", "--config", str(config), "--output", str(out), "--format", "csv"]
    assert cli.main(argv) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'parameters/analyzer_angles': angle 0.0 rad")
    assert not out.exists()


# 1e308: the intensity overflows; 1e200: only intensity_a * intensity_b does.
@pytest.mark.parametrize("intensity", [1e308, 1e200])
def test_overflowing_pancharatnam_intensities_are_a_config_error(tmp_path, capsys, intensity):
    payload = {
        "parameters": {
            "law": "pancharatnam",
            "intensity_a": intensity,
            "intensity_b": intensity,
            "sphere_angles": {"start": 0.0, "stop": np.pi, "count": 3},
            "phase_advances": {"start": 0.0, "stop": np.pi, "count": 3},
        }
    }
    config = write_config(tmp_path, payload)
    out = tmp_path / "sweep.json"
    assert cli.main(["interference", "--config", str(config), "--output", str(out)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "'parameters/intensity_a'" in err and "'parameters/intensity_b'" in err
    assert not out.exists()


_GRID_LAWS = {
    "analyzer_angles": "classical",
    "phase_delays": "classical",
    "sphere_angles": "pancharatnam",
    "phase_advances": "pancharatnam",
    "relative_phases": "quantum",
}


# The span of the grid overflows; under --degrees the grid is checked as given, in degrees.
@pytest.mark.parametrize("degrees", [[], ["--degrees"]], ids=["radians", "degrees"])
@pytest.mark.parametrize("field", sorted(_GRID_LAWS))
def test_an_overflowing_grid_is_a_config_error_naming_it(tmp_path, capsys, field, degrees):
    grid = {"start": -1.7e308, "stop": 1.7e308, "count": 5}
    params = dict(INTERFERENCE_SWEEPS[_GRID_LAWS[field]], **{field: grid})
    config = write_config(tmp_path, {"parameters": params})
    out = tmp_path / "sweep.json"
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        code = cli.main(["interference", "--config", str(config), "--output", str(out), *degrees])
    assert code == cli.EXIT_SCHEMA
    message = f"config field 'parameters/{field}': the grid from -1.7e+308 to 1.7e+308 overflows"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert shown == [] and not out.exists()


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _long_evolve(tmp_path):
    """The argv, less the format and output, of an evolve run of three blocks and five rows."""
    params = dict(EVOLVE_CONFIG["parameters"], samples=3 * cli._BLOCK + 5)
    config = write_config(tmp_path, {"parameters": params})
    return ["evolve", "--config", str(config), "--format"]


def _ignoring_sigchld():
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)


# The CLI on three reported CPUs, so that it would fork on any machine.
_ON_THREE_CPUS = (
    "import os, sys; os.sched_getaffinity = lambda pid: {0, 1, 2}; "
    "from blochpoincare.cli import main; sys.exit(main(sys.argv[1:]))"
)


def test_a_run_with_sigchld_ignored_runs_on_one_cpu(tmp_path):
    # An ignored SIGCHLD survives exec, and the kernel then reaps every child itself.
    outputs = ["out0.json", "out1.json"]
    entries = [dict(OPTIMIZE_CONFIG, output={"path": path}) for path in outputs]
    argv = ["optimize-coherence", "--config", str(write_config(tmp_path, entries))]
    default, ignored = tmp_path / "default", tmp_path / "ignored"
    default.mkdir()
    ignored.mkdir()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(default)
        assert cli.main(argv) == cli.EXIT_OK
    done = _cli_process("-c", _ON_THREE_CPUS, *argv, cwd=ignored, preexec_fn=_ignoring_sigchld)
    assert (done.returncode, done.stdout, done.stderr) == (cli.EXIT_OK, "", "")
    for name in outputs:
        assert (ignored / name).read_bytes() == (default / name).read_bytes()


@pytest.mark.parametrize("preset, pool", [(None, "1"), ("3", "3")], ids=["unset", "preset"])
def test_importing_the_cli_sizes_the_blas_pool_unless_the_environment_does(
    monkeypatch, preset, pool
):
    # Every BLAS operand of a run is 4x4 or smaller: one thread, unless the user asks for more.
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    script = "import os, blochpoincare.cli; print(os.environ['OPENBLAS_NUM_THREADS'], end='')"
    done = _cli_process("-c", script)
    assert (done.returncode, done.stdout, done.stderr) == (0, pool, "")


class _StdoutClosingPartway(io.StringIO):
    """A stdout whose reader goes away after the first 1000 characters, as a closed pipe."""

    def write(self, text):
        if self.tell() + len(text) > 1000:
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        return super().write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "target, message",
    [("/dev/full", "i/o error: cannot write output file '/dev/full': No space left on device\n"),
     ("-", "i/o error: [Errno 32] Broken pipe\n")],
    ids=["dev-full", "stdout"],
)
def test_a_write_failing_mid_table_exits_4_without_forking(
    tmp_path, capsys, fmt, target, message
):
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full")
    descriptors, forks = set(os.listdir("/proc/self/fd")), []

    def fork():  # refused, so that a table formatted in slices would still finish here
        forks.append(os.getpid())
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        patch.setattr(os, "fork", fork)
        patch.setattr(sys, "stdout", _StdoutClosingPartway())
        code = cli.main(_long_evolve(tmp_path) + [fmt, "--output", target])
    assert (code, capsys.readouterr().err) == (cli.EXIT_IO, message)
    assert forks == []  # a table, however long, is formatted in this process
    _no_child_left()
    assert set(os.listdir("/proc/self/fd")) == descriptors


def test_failed_render_leaves_the_earlier_file_and_no_temporary(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("earlier\n")
    # Enough rows that the first chunks reach the file before the bad one.
    rows = [(float(k), 0.5) for k in range(20000)] + [(1.0, float("nan"))]
    with pytest.raises(ValueError, match="non-finite"):
        cli.emit_csv(rows, "a,b", str(target))
    with pytest.raises(ValueError, match="non-finite"):
        cli.emit_json({"rows": [1.0, float("inf")]}, str(tmp_path / "new.json"))
    with pytest.raises(ValueError, match="non-finite"):
        cli.emit_json({"rows": cli.Rows(a=np.array([0.5, np.nan]))}, str(tmp_path / "rows.json"))
    assert target.read_text() == "earlier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_written_file_mode_follows_the_umask(tmp_path):
    previous = os.umask(0o027)
    try:
        cli.emit_json({"a": 1.0}, str(tmp_path / "out.json"))
    finally:
        os.umask(previous)
    assert stat.S_IMODE((tmp_path / "out.json").stat().st_mode) == 0o640


def test_output_through_a_symlink_replaces_the_linked_file(tmp_path):
    linked = tmp_path / "linked.json"
    linked.write_text("earlier\n")
    (tmp_path / "link.json").symlink_to(linked)
    cli.emit_json({"a": 1.0}, str(tmp_path / "link.json"))
    assert (tmp_path / "link.json").is_symlink()
    assert json.loads(linked.read_text()) == {"a": 1.0, "version": cli.__version__}


def test_output_to_a_fifo_is_streamed_in_place(tmp_path):
    config = write_config(tmp_path, EVOLVE_CONFIG)
    regular, fifo = tmp_path / "regular.csv", tmp_path / "fifo.csv"
    argv = ["evolve", "--config", str(config), "--format", "csv", "--output"]
    assert cli.main([*argv, str(regular)]) == cli.EXIT_OK
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert cli.main([*argv, str(fifo)]) == cli.EXIT_OK
    reader.join(timeout=30)
    assert received == [regular.read_text()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_output_to_a_dev_fd_pipe_is_streamed_in_place(tmp_path):
    config = write_config(tmp_path, EVOLVE_CONFIG)
    regular = tmp_path / "regular.csv"
    argv = ["evolve", "--config", str(config), "--format", "csv", "--output"]
    assert cli.main([*argv, str(regular)]) == cli.EXIT_OK
    read_end, write_end = os.pipe()
    received = []

    def drain():
        with os.fdopen(read_end, encoding="utf-8") as handle:
            received.append(handle.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    try:
        assert cli.main([*argv, f"/dev/fd/{write_end}"]) == cli.EXIT_OK
    finally:
        os.close(write_end)
    reader.join(timeout=30)
    assert received == [regular.read_text()]


def test_replaced_output_keeps_its_permission_bits(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("earlier\n")
    target.chmod(0o600)
    previous = os.umask(0o022)
    try:
        cli.emit_json({"a": 1.0}, str(target))
    finally:
        os.umask(previous)
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert json.loads(target.read_text()) == {"a": 1.0, "version": cli.__version__}


def test_schwarz_violation_at_a_large_scale_is_named(tmp_path, capsys):
    config = write_config(tmp_path, {"parameters": {"coherency": [[1e160, 2e160], [2e160, 1e160]]}})
    argv = ["optimize-coherence", "--config", str(config), "--output", str(tmp_path / "out.json")]
    assert cli.main(argv) == cli.EXIT_SCHEMA
    assert "(Schwarz bound)" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ZeroDivisionError("float division by zero"), KeyError("phi")])
def test_an_unexpected_exception_exits_3_naming_it_and_the_batch_goes_on(
    tmp_path, capsys, monkeypatch, error
):
    run_optimize = cli._run_optimize

    def failing_first(config, fmt, out_path):
        if out_path.endswith("one.json"):
            raise error
        run_optimize(config, fmt, out_path)

    monkeypatch.setattr(cli, "_run_optimize", failing_first)
    entries = [
        dict(OPTIMIZE_CONFIG, output={"path": str(tmp_path / name), "format": "json"})
        for name in ("one.json", "two.json")
    ]
    code = cli.main(["optimize-coherence", "--config", str(write_config(tmp_path, entries))])
    err = capsys.readouterr().err
    assert code == cli.EXIT_NUMERIC
    assert f"{type(error).__name__}: {error}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "one.json").exists()
    assert (tmp_path / "two.json").exists()


def test_config_errors_word_the_fields_they_name():
    assert str(cli.ConfigError("bad")) == "bad"
    assert str(cli.ConfigError("bad", "hbar")) == "config field 'hbar': bad"
    two = cli.ConfigError("bad", "parameters/energy", "hbar")
    assert str(two) == "config fields 'parameters/energy' and 'hbar': bad"


def _raise_key_error(config, fmt, out_path):
    raise KeyError("phi")


_UNPOLARIZED = {"parameters": {"coherency": [[1.0, 0.0], [0.0, 1.0]]}}
_UNNORMALIZED = {"parameters": dict(EVOLVE_CONFIG["parameters"], target=[[1.0, 0.0], [1.0, 0.0]])}
_NON_HERMITIAN = {
    "parameters": {
        "law": "classical",
        "coherency": [[1.0, 2.0], [0.0, 1.0]],
        "analyzer_angles": {"start": 0.0, "stop": 1.0, "count": 2},
        "phase_delays": {"start": 0.0, "stop": 1.0, "count": 2},
    }
}
# (kind, config file text or None, output path, (name, value) to patch into cli, code, stderr)
_EXIT_CLASS_CASES = {
    "not-json": (
        "optimize-coherence", b"{not json", "out.json", None, cli.EXIT_SCHEMA,
        "error: config is not valid JSON: "
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    "not-utf-8": (
        "optimize-coherence", b'{"parameters": "\xff"}', "out.json", None, cli.EXIT_SCHEMA,
        "error: config is not valid JSON: "
        "'utf-8' codec can't decode byte 0xff in position 16: invalid start byte",
    ),
    "nested-too-deep": (
        "optimize-coherence", b"[" * 100_000 + b"]" * 100_000, "out.json", None, cli.EXIT_SCHEMA,
        "error: config is not valid JSON: "
        "maximum recursion depth exceeded while decoding a JSON array from a unicode string",
    ),
    "unpolarized-beam": (
        "optimize-coherence", _UNPOLARIZED, "out.json", None, cli.EXIT_SCHEMA,
        "error: config field 'parameters/coherency': "
        "no polarized part: the optimum frame is undefined at P = 0",
    ),
    "unnormalized-endpoint": (
        "evolve", _UNNORMALIZED, "out.json", None, cli.EXIT_SCHEMA,
        "error: config fields 'parameters/initial' and 'parameters/target': "
        "endpoint states must be normalized",
    ),
    "non-hermitian-sweep-beam": (
        "interference", _NON_HERMITIAN, "out.json", None, cli.EXIT_SCHEMA,
        "error: config field 'parameters/coherency': "
        "coherency matrix must be Hermitian (residual 2.0, bound 1e-09)",
    ),
    "endpoint-gate": (
        "evolve", EVOLVE_CONFIG, "out.json", ("fidelity", lambda a, b: 0.5), cli.EXIT_NUMERIC,
        "numerical gate failure: "
        "endpoint fidelity 0.5 below gate 1 - 1e-09 (residual -0.5, bound -0.999999999)",
    ),
    "unexpected": (
        "optimize-coherence", OPTIMIZE_CONFIG, "out.json", ("_run_optimize", _raise_key_error),
        cli.EXIT_NUMERIC, "unexpected error: KeyError: 'phi'",
    ),
    "unreadable-config": (
        "optimize-coherence", None, "out.json", None, cli.EXIT_IO,
        "i/o error: cannot read config 'config.json': "
        "[Errno 2] No such file or directory: 'config.json'",
    ),
    "unwritable-output": (
        "optimize-coherence", OPTIMIZE_CONFIG, "missing/out.json", None, cli.EXIT_IO,
        "i/o error: cannot write output file 'missing/out.json': No such file or directory",
    ),
}


@pytest.mark.parametrize(
    "kind, config, out, patch, code, err", _EXIT_CLASS_CASES.values(), ids=_EXIT_CLASS_CASES
)
def test_each_exit_class_prints_its_prefix_and_message(
    tmp_path, capsys, monkeypatch, kind, config, out, patch, code, err
):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        text = config if isinstance(config, bytes) else json.dumps(config).encode()
        (tmp_path / "config.json").write_bytes(text)
    if patch is not None:
        monkeypatch.setattr(cli, *patch)
    assert cli.main([kind, "--config", "config.json", "--output", out]) == code
    assert capsys.readouterr() == ("", err + "\n")
    assert not (tmp_path / "out.json").exists()


_JSON_ONLY = {
    "optimize-coherence": OPTIMIZE_CONFIG,
    "mueller": {"parameters": {"jones": JONES}},
    "correspondence": CORRESPONDENCE_CONFIG,
}


@pytest.mark.parametrize("kind", sorted(_JSON_ONLY))
def test_json_only_kinds_refuse_csv_and_write_nothing(tmp_path, capsys, kind):
    out = tmp_path / "out.csv"
    argv = [kind, "--config", str(write_config(tmp_path, _JSON_ONLY[kind])), "--output", str(out)]
    assert cli.main([*argv, "--format", "csv"]) == cli.EXIT_SCHEMA
    assert capsys.readouterr() == ("", f"error: {kind} emits JSON only\n")
    assert not out.exists()
    # A schema error is reported first; a beam the runner would refuse is not reached.
    bad_field = _with_value(_JSON_ONLY[kind], "parameters/extra", 1)
    argv[2] = str(write_config(tmp_path, bad_field))
    assert cli.main([*argv, "--format", "csv"]) == cli.EXIT_SCHEMA
    assert "emits JSON only" not in capsys.readouterr().err
    if kind != "mueller":
        unpolarized = _with_value(_JSON_ONLY[kind], "parameters/coherency", [[1.0, 0.0], [0.0, 1.0]])
        argv[2] = str(write_config(tmp_path, unpolarized))
        assert cli.main([*argv, "--format", "csv"]) == cli.EXIT_SCHEMA
        assert capsys.readouterr().err == f"error: {kind} emits JSON only\n"
        assert cli.main(argv) == cli.EXIT_SCHEMA
        assert "no polarized part" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", sorted(_JSON_ONLY))
def test_json_only_kinds_name_a_csv_output_format_in_the_config(tmp_path, capsys, kind):
    out = tmp_path / "out.csv"
    config = dict(_JSON_ONLY[kind], output={"path": str(out), "format": "csv"})
    assert cli.main([kind, "--config", str(write_config(tmp_path, config))]) == cli.EXIT_SCHEMA
    expected = "error: config field 'output/format': 'csv' is not one of ['json']\n"
    assert capsys.readouterr() == ("", expected)
    assert not out.exists()


def _run_in_process(tmp_path, capsys, kind, text, extra=()):
    """Exit code and stderr of one CLI run; an escaping exception is a traceback."""
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    argv = [kind, "--config", str(config), "--output", str(tmp_path / "out.json"), *extra]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejecting a flag value
        code = exc.code
    except Exception as exc:  # any escape breaks the exit contract
        return 1, f"traceback: {type(exc).__name__}: {exc}"
    return code, capsys.readouterr().err


def _with_value(config, field, value):
    """A copy of ``config`` with the ``/``-separated ``field`` set to ``value``."""
    config = json.loads(json.dumps(config))
    *parents, last = [int(key) if key.isdigit() else key for key in field.split("/")]
    node = config
    for key in parents:
        node = node[key]
    node[last] = value
    return config


_SMALL_GRID = {"start": 0.1, "stop": 1.4, "count": 3}
_MUELLER_CONFIG = {"parameters": {"jones": JONES, "rotator_angle": 0.3}}
_EVOLVE = {"parameters": dict(EVOLVE_CONFIG["parameters"], samples=5)}
_EVOLVE_UM = {"parameters": dict(_EVOLVE["parameters"], route="uncertainty_maximization")}
_CORRESPONDENCE = {"parameters": dict(CORRESPONDENCE_CONFIG["parameters"], samples=5)}
_CONTRACT_CASES = [
    (
        "evolve",
        dict(_EVOLVE, hbar=1.0, tolerances={"default": 1e-9}),
        ["hbar", "parameters/energy", "tolerances/default"],
    ),
    ("evolve", _EVOLVE_UM, ["hbar", "parameters/energy"]),
    ("optimize-coherence", OPTIMIZE_CONFIG, ["parameters/coherency/0/0", "parameters/coherency/0/1"]),
    ("mueller", _MUELLER_CONFIG, ["parameters/rotator_angle"]),
    (
        "interference",
        {"parameters": dict(INTERFERENCE_SWEEPS["classical"], phase_delays=_SMALL_GRID)},
        ["parameters/coherency/0/0/0", "parameters/analyzer_angles/stop"],
    ),
    (
        "interference",
        {"parameters": dict(INTERFERENCE_SWEEPS["pancharatnam"], sphere_angles=_SMALL_GRID)},
        ["parameters/intensity_a", "parameters/phase_advances/stop"],
    ),
    (
        "interference",
        {"parameters": dict(INTERFERENCE_SWEEPS["quantum"], relative_phases=_SMALL_GRID)},
        ["parameters/amp_b_modulus", "parameters/relative_phases/stop"],
    ),
    ("correspondence", _CORRESPONDENCE, ["hbar", "parameters/energy", "parameters/coherency/0/0"]),
]
_EXTREMES = [0.0, -0.0, -1.0, 3.0, 1e-320, 1e-310, 1e-200, 1e-160]
_EXTREMES += [1e155, 1e160, 1e200, 1e300, 1.7e308, -1e308]


@pytest.mark.parametrize("kind, base, fields", _CONTRACT_CASES)
def test_extreme_field_values_keep_the_exit_contract(
    tmp_path, capsys, monkeypatch, kind, base, fields
):
    # Exit 0, 2, 3 or 4 only; no traceback; no gate failure computed on a NaN.
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))  # half of a run
    broken = []
    for field in fields:
        for value in _EXTREMES:
            text = json.dumps(_with_value(base, field, value))
            code, err = _run_in_process(tmp_path, capsys, kind, text)
            if code not in (0, 2, 3, 4) or "traceback" in err.lower() or (code == 3 and "nan" in err):
                broken.append((field, value, code, err))
    assert broken == []


_ENERGY, _ROTATOR = "parameters/energy", "parameters/rotator_angle"
_TIME = "config fields 'parameters/energy' and 'hbar': minimal time"
_CIRCULAR = json.dumps([[[1.0, 0.0], [0.0, 0.5]], [[0.0, -0.5], [1.0, 0.0]]])
_REPROS = {
    "rotator-nan": ("mueller", _MUELLER_CONFIG, _ROTATOR, "NaN", [], "NaN"),
    "energy-nan": ("evolve", _EVOLVE, _ENERGY, "NaN", [], "NaN"),
    "hbar-nan": ("correspondence", _CORRESPONDENCE, "hbar", "NaN", [], "NaN"),
    "energy-infinity": ("evolve", _EVOLVE, _ENERGY, "-Infinity", [], "-Infinity"),
    "energy-1e999": ("evolve", _EVOLVE, _ENERGY, "1e999", [], "1e999"),
    "hbar-flag-nan": ("evolve", _EVOLVE, _ENERGY, "1.0", ["--hbar", "nan"], "--hbar"),
    "tolerance-flag-nan": ("evolve", _EVOLVE, _ENERGY, "1.0", ["--tolerance", "nan"], "--tolerance"),
    "rotator-1e308": ("mueller", _MUELLER_CONFIG, _ROTATOR, "1e308", [], f"'{_ROTATOR}'"),
    "rotator--1e308": ("mueller", _MUELLER_CONFIG, _ROTATOR, "-1e308", [], f"'{_ROTATOR}'"),
    "gap-squared": ("correspondence", _CORRESPONDENCE, _ENERGY, "1e155", [], f"'{_ENERGY}'"),
    "t-min-tm": ("evolve", _EVOLVE, _ENERGY, "1e-310", [], _TIME),
    "t-min-um": ("evolve", _EVOLVE_UM, _ENERGY, "1e-310", [], _TIME),
    "t-min-correspondence": ("correspondence", _CORRESPONDENCE, _ENERGY, "1e-310", [], _TIME),
    "t-min-hbar-flag": ("evolve", _EVOLVE, _ENERGY, "1e-10", ["--hbar", "1e300"], _TIME),
    # |amp_a| overflows, though each of its parts is finite.
    "amp-a-modulus": (
        "interference",
        {"parameters": INTERFERENCE_SWEEPS["quantum"]},
        "parameters/amp_a",
        "[1.7e308, 1.7e308]",
        [],
        "config fields 'parameters/amp_a' and 'parameters/amp_b_modulus'",
    ),
    "circular-beam": (
        "correspondence",
        _CORRESPONDENCE,
        "parameters/coherency",
        _CIRCULAR,
        [],
        "'parameters/coherency'",
    ),
    # 101 default samples split a 2e-11 rad path into steps below the walk's 1e-12 resolution.
    "coincident-samples": (
        "correspondence",
        CORRESPONDENCE_CONFIG,
        "parameters/target",
        json.dumps([[1.0, 0.0], [1e-11, 0.0]]),
        [],
        "config fields 'parameters/target' and 'parameters/samples'",
    ),
}


@pytest.mark.parametrize("kind, config, field, literal, extra, named", _REPROS.values(), ids=_REPROS)
def test_out_of_range_values_are_config_errors_naming_their_field(
    tmp_path, capsys, kind, config, field, literal, extra, named
):
    text = json.dumps(_with_value(config, field, "@")).replace('"@"', literal)
    code, err = _run_in_process(tmp_path, capsys, kind, text, extra)
    assert (code, named in err, "traceback" in err.lower()) == (cli.EXIT_SCHEMA, True, False), err
    assert not (tmp_path / "out.json").exists()


def _cli_process(*args, python_flags=(), **options):
    """A Python subprocess with the package under test importable; ``args`` follow ``-c``/``-m``.

    ``options`` go to ``subprocess.run``.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, *python_flags, *args]
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120, **options)


def test_overflowing_coherency_is_a_config_error_with_warnings_as_errors(tmp_path):
    params = dict(
        INTERFERENCE_SWEEPS["classical"],
        coherency=[[[1.7e308, 0.0], [5e307, 0.0]], [[5e307, 0.0], [1.7e308, 0.0]]],
    )
    config = write_config(tmp_path, {"parameters": params})
    argv = ["interference", "--config", str(config), "--output", str(tmp_path / "sweep.json")]
    done = _cli_process("-m", "blochpoincare.cli", *argv, python_flags=["-W", "error"])
    assert (done.returncode, done.stderr) == (
        cli.EXIT_SCHEMA,
        "error: config field 'parameters/coherency': the intensities overflow\n",
    )


_VALID_CONFIGS = [
    (
        "evolve",
        dict(
            _EVOLVE,
            kind="evolve",
            hbar=1.0,
            tolerances={"default": 1e-9, "endpoint_fidelity": 1e-9},
            output={"path": "trajectory.csv", "format": "csv"},
        ),
    ),
    ("evolve", _EVOLVE_UM),
    ("optimize-coherence", OPTIMIZE_CONFIG),
    ("mueller", _MUELLER_CONFIG),
    *[("interference", {"parameters": params}) for params in INTERFERENCE_SWEEPS.values()],
    ("correspondence", _CORRESPONDENCE),
]
_MUTANTS = [None, True, 1.0, -0.5, "", [], {}, 10**400, 0, 2, "quantum", [1.0, 0.0], {"path": "x"}]
_MUTANT_KEYS = ["law", "kind", "format", "samples", "route", "rotator_angle", "count", "extra"]


def _containers(value):
    """Every dict and list inside ``value``, itself first."""
    if isinstance(value, (dict, list)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from _containers(item)


@st.composite
def _mutated_configs(draw):
    """A valid config of some kind with up to three keys or array elements replaced, dropped or added."""
    kind, config = draw(st.sampled_from(_VALID_CONFIGS))
    config = copy.deepcopy(config)
    for _ in range(draw(st.integers(0, 3))):
        node = draw(st.sampled_from(list(_containers(config))))
        value = copy.deepcopy(draw(st.sampled_from(_MUTANTS)))
        places = sorted(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["replace", "drop", "add"] if places else ["add"]))
        if op == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(_MUTANT_KEYS))] = value
        elif op == "add":
            node.insert(draw(st.integers(0, len(node))), value)
        elif op == "replace":
            node[draw(st.sampled_from(places))] = value
        else:
            del node[draw(st.sampled_from(places))]
    return kind, config


def _jsonschema_config_error(schema, config):
    """The ConfigError text of jsonschema's first error under the CLI's sort, or None."""
    from jsonschema import Draft202012Validator

    errors = sorted(
        Draft202012Validator(schema).iter_errors(config),
        key=lambda e: (list(e.absolute_path), e.validator not in cli._FIRST_KEYWORDS),
    )
    if not errors:
        return None
    where = "/".join(str(p) for p in errors[0].absolute_path) or "<root>"
    return str(cli.ConfigError(errors[0].message, where))


@settings(max_examples=500, deadline=None)
@given(_mutated_configs())
def test_config_checker_agrees_with_jsonschema(case):
    kind, config = case
    expected = _jsonschema_config_error(cli._kind_schemas()[kind], config)
    try:
        cli._validate_config(kind, config)
    except cli.ConfigError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


# 1, 1.0 and 10**400 match both alternatives, -0.5 and "" neither, 2.5 and -1 exactly one.
_OVERLAPPING = {"oneOf": [{"type": "number", "minimum": 0}, {"type": "integer"}]}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_MUTANTS + [1, 2.5, -1]) | st.integers() | st.floats())
def test_config_checker_counts_oneof_matches_as_jsonschema_does(value):
    from jsonschema import Draft202012Validator

    expected = [e.message for e in Draft202012Validator(_OVERLAPPING).iter_errors(value)]
    errors = cli.Draft202012Validator(_OVERLAPPING).iter_errors(value)
    assert [message for _, _, message in errors] == expected


def _subschemas(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    nested = [*schema.get("properties", {}).values(), *schema.get("oneOf", [])]
    for sub in [*nested, schema.get("items"), schema.get("additionalProperties")]:
        if isinstance(sub, dict):
            yield from _subschemas(sub)


def test_config_checker_reads_every_keyword_of_the_packaged_schema():
    # A keyword the checker lacks raises KeyError, an exit 3, on every config of
    # its kind; a non-string const or enum would need jsonschema's bool-aware
    # equality. The checker reads each keyword of a schema on any value.
    for schema in cli._kind_schemas().values():
        for node in _subschemas(schema):
            list(cli.Draft202012Validator(node).iter_errors(None))
            nested = [*node.get("properties", {}).values(), *node.get("oneOf", [])]
            assert all(isinstance(sub, dict) for sub in [*nested, node.get("items", {})])
            assert node.get("type", "object") in cli._TYPES
            assert all(isinstance(c, str) for c in [node.get("const", ""), *node.get("enum", [])])


_IMPORT_PATH = """
import json, sys
from blochpoincare import cli
runs = json.loads(sys.argv[1])
codes = [cli.main(argv) for argv in runs["valid"]]
imported = "jsonschema" in sys.modules
invalid = cli.main(runs["invalid"])
print(json.dumps([codes, imported, invalid, "jsonschema" in sys.modules]))
"""


def test_valid_configs_run_without_importing_jsonschema(tmp_path):
    runs = {"valid": [], "invalid": None}
    for index, (kind, config) in enumerate(_VALID_CONFIGS):
        output = {"path": str(tmp_path / f"{index}.out")}
        path = write_config(tmp_path, dict(config, output=output), f"{index}.json")
        runs["valid"].append([kind, "--config", str(path)])
    bad = {"parameters": dict(EVOLVE_CONFIG["parameters"], samples=1.5)}
    runs["invalid"] = ["evolve", "--config", str(write_config(tmp_path, bad)), "--output", "-"]
    done = _cli_process("-c", _IMPORT_PATH, json.dumps(runs))
    codes, imported, invalid, imported_by_invalid = json.loads(done.stdout.splitlines()[-1])
    assert codes == [cli.EXIT_OK] * len(_VALID_CONFIGS) and not imported
    assert (invalid, imported_by_invalid) == (cli.EXIT_SCHEMA, False)
    assert cli.Draft202012Validator.__module__ == cli.__name__
    assert done.stderr == "error: config field 'parameters/samples': 1.5 is not of type 'integer'\n"


@pytest.mark.parametrize(
    "kind, field", [("evolve", "initial"), ("optimize-coherence", "coherency")]
)
def test_config_nested_too_deep_to_check_is_a_config_error(tmp_path, capsys, kind, field):
    # Near the recursion limit a config parses, but its error cannot be worded:
    # every depth exits 2, whether parsing, checking or wording runs out of stack.
    params = {"evolve": EVOLVE_CONFIG, "optimize-coherence": OPTIMIZE_CONFIG}[kind]["parameters"]
    text = json.dumps({"parameters": dict(params, **{field: "NESTED"})})
    path = tmp_path / "config.json"
    limit = sys.getrecursionlimit()
    for depth in range(limit - 300, limit + 6):
        path.write_text(text.replace('"NESTED"', "[" * depth + "]" * depth), encoding="utf-8")
        assert cli.main([kind, "--config", str(path), "--output", "-"]) == cli.EXIT_SCHEMA, depth
        assert capsys.readouterr().err.startswith("error: "), depth


def _scaled_beam(scale):
    """c * [[2, .5 + .3i], [.5 - .3i, 1]] as a config's coherency."""
    return [
        [[2.0 * scale, 0.0], [0.5 * scale, 0.3 * scale]],
        [[0.5 * scale, -0.3 * scale], [scale, 0.0]],
    ]


_PAIRED_STATES = {"initial": [[1.0, 0.0], [0.0, 0.0]], "target": [[0.6, 0.0], [0.8, 0.0]]}


@pytest.mark.parametrize("scale", [1e7, 1e10, 1e150])
@pytest.mark.parametrize("kind", ["optimize-coherence", "correspondence"])
def test_a_valid_beam_at_scale_is_not_blamed_as_non_hermitian(tmp_path, capsys, kind, scale):
    # The rotated matrix carries rounding asymmetry at the beam's scale; it is
    # derived from a validated beam, so no Hermitian gate may see it.
    params = {"coherency": _scaled_beam(scale)}
    if kind == "correspondence":
        params.update(_PAIRED_STATES, energy=1.0)
    config = write_config(tmp_path, {"parameters": params})
    code = cli.main([kind, "--config", str(config), "--output", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    if scale == 1e7:
        assert (code, err) == (cli.EXIT_OK, "")
    else:
        assert code != cli.EXIT_SCHEMA and "must be Hermitian" not in err, err


_ONE_BEAM_RUNS = [
    ("optimize-coherence", OPTIMIZE_CONFIG, 1, 1),
    ("correspondence", _CORRESPONDENCE, 2, 1),
    (
        "interference",
        {"parameters": dict(INTERFERENCE_SWEEPS["classical"], phase_delays=_SMALL_GRID)},
        2,
        0,
    ),
]


@pytest.mark.parametrize("kind, config, validations, solves", _ONE_BEAM_RUNS)
def test_each_construction_validates_the_beam_it_is_given_once(
    tmp_path, monkeypatch, capsys, kind, config, validations, solves
):
    # optimize-coherence solves the frame; correspondence solves it and checks
    # the pairing; the classical law validates once per law call, two per run.
    from blochpoincare import coherence, interference, polarization

    calls = {"validate_coherency": 0, "optimal_rotation": 0}
    for home, name in ((polarization, "validate_coherency"), (coherence, "optimal_rotation")):
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (polarization, coherence, interference, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    path = write_config(tmp_path, config)
    assert cli.main([kind, "--config", str(path), "--output", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert calls == {"validate_coherency": validations, "optimal_rotation": solves}


_TINY = 1e-13


@pytest.mark.parametrize(
    "coherency, message",
    [
        ([[1.0, 2.0], [2.0, 1.0]], "coherency determinant must be nonnegative (Schwarz bound)"),
        ([[1.0, 1.0], [1.0, 0.0]], "coherency determinant must be nonnegative (Schwarz bound)"),
        ([[1.0, 0.0], [0.0, -0.1]], "diagonal intensities must be nonnegative"),
    ],
    ids=["schwarz", "dark-axis", "negative-diagonal"],
)
def test_a_tiny_invalid_beam_is_rejected_by_the_classical_law(tmp_path, capsys, coherency, message):
    # J's bounds are absolute, so at 1e-13 these beams pass them; the law reads
    # the exact rescale J / 2**k, and holds the diagonal and the Schwarz bound
    # there, where they bind at any scale.
    scaled = [[[_TINY * x, 0.0] for x in row] for row in coherency]
    params = dict(INTERFERENCE_SWEEPS["classical"], coherency=scaled, phase_delays=_SMALL_GRID)
    config = write_config(tmp_path, {"parameters": params})
    out = tmp_path / "sweep.json"
    assert cli.main(["interference", "--config", str(config), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field 'parameters/coherency': {message}"), err
    assert not out.exists()
