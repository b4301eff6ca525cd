import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blochpoincare
from blochpoincare import bloch, cli

PACKAGE = Path(blochpoincare.__file__).parent

# The public surface: what the runners and the paper's constructions use.
# A name added here is a deliberate re-export, not a test-only helper.
PUBLIC = {
    "A_MATRIX",
    "BisectorReport",
    "ConstraintLedger",
    "CorrespondenceReport",
    "EfficiencyReport",
    "Hamiltonian2",
    "MuellerClass",
    "OpticalScenario",
    "PolarizationReport",
    "QuantumScenario",
    "RotationSolution",
    "Route",
    "SynthesisResult",
    "WienerDecomposition",
    "basis_rotation_to_pole",
    "bisector_geometry",
    "bloch",
    "bloch_vector",
    "bloch_vectors",
    "classical_intensity",
    "classify_mueller",
    "coherence",
    "correspondence_report",
    "degree_of_polarization",
    "efficiency",
    "evolve_state",
    "evolve_states",
    "fidelities",
    "fidelity",
    "fringe_visibility",
    "fubini_study_angle",
    "geodesic_state",
    "interference",
    "matrix_exponential_su2",
    "mueller",
    "mueller_from_jones",
    "mueller_rotator",
    "numerics",
    "optimal_rotation",
    "orthogonal_state",
    "pancharatnam_intensity",
    "partial_coherence_profile",
    "polarization",
    "quantum_probability",
    "rotate_coherency",
    "speed_limit",
    "stokes_from_coherency",
    "stokes_rotation_check",
    "su2_propagators",
    "synthesize_max_uncertainty",
    "synthesize_min_time",
    "wiener_decompose",
    "wigner_rotation",
}


def test_public_surface_is_pinned():
    assert set(blochpoincare.__all__) == PUBLIC


def _unused_imports(source):
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_unused_import_check_sees_aliases_and_attribute_bases():
    source = "import os.path\nimport numpy as np\nfrom .a import b as c, d\nnp.zeros(d)\n"
    assert _unused_imports(source) == {"os", "c"}


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export.
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert not {name: names for name, names in unused.items() if names}


def test_every_traced_name_resolves_in_its_module():
    # The tracer skips a name its module lacks, so a rename would zero a
    # per-layer metric without any failure. It imports only the standard library.
    tracer_path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", tracer_path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{name}"
        for module, names in tracer.TRACED.items()
        for name in names
        if not hasattr(importlib.import_module(f"blochpoincare.{module}"), name)
    ]
    assert not missing
    # The tracer and the tests rebind the runner's own binding of fidelity.
    assert cli.fidelity is bloch.fidelity


def test_every_public_name_is_its_home_modules_object():
    homes = blochpoincare._EXPORTS
    assert {*homes, *(n for names in homes.values() for n in names)} == set(blochpoincare.__all__)
    for home, names in homes.items():
        module = importlib.import_module(f"blochpoincare.{home}")
        assert getattr(blochpoincare, home) is module
        for name in names:
            value = getattr(blochpoincare, name)
            assert value is getattr(module, name)
            assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_dir_and_star_import_list_the_public_surface():
    assert {"__all__", *blochpoincare.__all__} <= set(dir(blochpoincare))
    namespace = {}
    exec("from blochpoincare import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(blochpoincare.__all__)
    assert len(blochpoincare.__all__) == 53


def test_an_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="module 'blochpoincare' has no attribute 'nothing'"):
        blochpoincare.nothing


# Runs ``module`` as ``python -m`` would (the package itself is only imported) and
# records, whatever the exit, the package modules it loaded and whether numpy and
# zipfile are loaded.
_RECORDER = """\
import json, runpy, sys

record, module, *argv = sys.argv[1:]
sys.argv = [module, *argv]
try:
    if module == "blochpoincare":
        import blochpoincare
    else:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
finally:
    loaded = sorted(name for name in sys.modules if name.split(".")[0] == "blochpoincare")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"modules": loaded, "numpy": "numpy" in sys.modules,
                   "zipfile": "zipfile" in sys.modules}, fh)
"""

_SMALL_CONFIGS = {
    "evolve": {
        "parameters": {
            "initial": [[1.0, 0.0], [0.0, 0.0]],
            "target": [[0.6, 0.0], [0.8, 0.0]],
            "energy": 1.0,
            "samples": 11,
        }
    },
    "interference": {
        "parameters": {
            "law": "classical",
            "coherency": [[[2.0, 0.0], [0.6, 0.8]], [[0.6, -0.8], [1.0, 0.0]]],
            "analyzer_angles": {"start": 0.0, "stop": 1.5, "count": 3},
            "phase_delays": {"start": 0.0, "stop": 3.0, "count": 4},
        }
    },
}


def _loaded(tmp_path, module, *argv):
    """The record of one fresh interpreter running ``module`` with ``argv``.

    ``-S`` leaves out site's start-up imports, which some hosts' ``.pth`` files
    extend (zipfile among them); the parent's ``sys.path`` still finds numpy.
    """
    src = str(Path(blochpoincare.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, *filter(None, sys.path)]))
    record = tmp_path / "record.json"
    argv = [sys.executable, "-S", "-c", _RECORDER, str(record), module, *argv]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(record.read_text(encoding="utf-8"))


_OPTICS = {
    f"blochpoincare.{name}" for name in ("coherence", "polarization", "mueller", "interference")
}


def test_importing_the_package_loads_no_submodule_nor_numpy(tmp_path):
    assert _loaded(tmp_path, "blochpoincare") == {
        "modules": ["blochpoincare"], "numpy": False, "zipfile": False
    }


@pytest.mark.parametrize("kind", [None, "evolve"])
def test_version_and_evolve_load_no_optical_module(tmp_path, kind):
    argv = ["--version"]
    if kind is not None:
        (tmp_path / "config.json").write_text(json.dumps(_SMALL_CONFIGS[kind]), encoding="utf-8")
        argv = [kind, "--config", "config.json", "--output", "out.csv", "--format", "csv"]
    record = _loaded(tmp_path, "blochpoincare.cli", *argv)
    assert not _OPTICS & set(record["modules"])
    assert not record["zipfile"]
    assert (tmp_path / "out.csv").exists() == (kind is not None)


def test_an_interference_run_loads_no_coherence_or_mueller(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps(_SMALL_CONFIGS["interference"]), "utf-8")
    argv = ["interference", "--config", "config.json", "--output", "out.json"]
    modules = set(_loaded(tmp_path, "blochpoincare.cli", *argv)["modules"])
    assert "blochpoincare.interference" in modules
    assert not {"blochpoincare.coherence", "blochpoincare.mueller"} & modules
    assert (tmp_path / "out.json").exists()
