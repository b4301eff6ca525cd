"""Output checks: sha256 digests plus seed-independent physics checks.

Each check returns ``None`` when the file passes and a one-line reason when
it does not. The benchmark counts every reason as a failed item.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path
from typing import Dict, List, Optional

from workloads import ENDPOINT_GATE, Output

# The CLI's own interference-law gate: |law - direct| <= 1e-12 * max(1, direct).
_LAW_TOL = 1e-12


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_rows(text: str) -> List[Dict[str, float]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO("\n".join(lines)))]


def _rows(text: str, out: Output) -> List[Dict[str, float]]:
    if out.fmt == "csv":
        return _csv_rows(text)
    doc = json.loads(text)
    if "version" not in doc:
        raise ValueError("JSON output has no version key")
    return doc["trajectory"] if out.check == "trajectory" else doc["rows"]


def check_output(path: Path, out: Output) -> Optional[str]:
    """Why ``path`` fails the checks for ``out``, or ``None`` if it passes."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return f"{out.path}: unreadable ({exc})"
    try:
        if out.check in ("optimize", "mueller", "correspondence"):
            doc = json.loads(text)
            if "version" not in doc:
                return f"{out.path}: no version key"
            if out.check == "correspondence" and doc["report"]["all_passed"] is not True:
                return f"{out.path}: correspondence all_passed is not true"
            if out.check == "mueller" and doc["classification"] != "nondepolarizing":
                return f"{out.path}: a Jones lift classified as {doc['classification']}"
            return None
        rows = _rows(text, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"{out.path}: unparseable ({exc})"
    if out.rows is not None and len(rows) != out.rows:
        return f"{out.path}: {len(rows)} rows, expected {out.rows}"
    if out.check == "trajectory":
        last = rows[-1]
        fid = last["fidelity"] if out.fmt == "csv" else last["fidelity_to_target"]
        if fid < 1.0 - ENDPOINT_GATE:
            return f"{out.path}: last fidelity {fid!r} below 1 - {ENDPOINT_GATE!r}"
        return None
    key = "probability" if out.check == "quantum" else "intensity"
    for row in rows:
        if row[key] < 0.0:
            return f"{out.path}: negative {key} {row[key]!r}"
        if out.check == "quantum":
            direct = row["direct_norm"]
            if abs(row["probability"] - direct) > _LAW_TOL * max(1.0, direct):
                return f"{out.path}: probability {row['probability']!r} != direct_norm {direct!r}"
    return None


def load_digests(path: Path) -> dict:
    """A digest file: workload, seed, and sha256 maps for the workload and README outputs."""
    return json.loads(path.read_text(encoding="utf-8"))


def write_digests(path: Path, workload: str, seed: int,
                  files: Dict[str, str], readme: Dict[str, str]) -> None:
    doc = {"workload": workload, "seed": seed,
           "files": dict(sorted(files.items())), "readme": dict(sorted(readme.items()))}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
