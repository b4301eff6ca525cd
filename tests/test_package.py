import ast
import importlib.util
from pathlib import Path

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
