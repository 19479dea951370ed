"""Golden-output gate: the CLI writes the bytes recorded in tests/golden/manifest.json.

A characterization ("golden master") test: it pins what the code writes
today, so a change that should keep every verdict, margin and exported
field fails here, naming each moved file, when it does not.
"""

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "golden_update", Path(__file__).parent / "golden" / "update.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_outputs_match_golden_manifest(tmp_path):
    manifest = json.loads(golden.MANIFEST.read_text())
    here = golden.versions()
    assert manifest["versions"] == here, (
        f"manifest was written with {manifest['versions']}, this run has {here}: "
        "digests cannot be compared across builds")
    moved = golden.moved(manifest["runs"], golden.collect(tmp_path))
    assert not moved, "outputs differ from tests/golden/manifest.json:\n" + "\n".join(moved)
