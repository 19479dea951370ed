"""Golden-output gate: the CLI writes the bytes recorded in tests/golden/manifest.json.

A characterization ("golden master") test: it pins what the code writes
today, so a change that should keep every verdict, margin and exported
field fails here, naming each moved file, when it does not.
"""

import csv
import importlib.util
import io
import json
import shutil
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


# -- the value diff of two output trees ---------------------------------------
KEY = "preset/lyons-example@0"


def _tree(tmp_path):
    """One preset run written under tmp_path/old, and its manifest runs."""
    old = tmp_path / "old"
    return old, {KEY: golden._run(["run", "--preset", "lyons-example", "--seed", "0"],
                                  old / KEY)}


def _planted(old, runs, fname, edit):
    """A copy of the tree with edit(text) written over one file, and its runs."""
    new = old.parent / "new"
    shutil.copytree(old, new)
    path = new / KEY / fname
    path.write_text(edit(path.read_text()))
    return new, {KEY: dict(runs[KEY], files=golden.digests(new / KEY))}


def test_value_diff_of_a_tree_with_itself_is_empty(tmp_path):
    old, runs = _tree(tmp_path)
    assert golden.moved(runs, runs, (old, old)) == []
    files = sorted(runs[KEY]["files"])
    assert "margins.csv" in files and "verdicts.json" in files
    assert [golden.file_diff(old / KEY / f, old / KEY / f) for f in files] == [[]] * len(files)


def test_value_diff_reports_a_moved_cell_with_its_size(tmp_path):
    old, runs = _tree(tmp_path)

    def edit(text):
        rows = list(csv.reader(io.StringIO(text)))
        rows[3][4] = repr(float(rows[3][4]) + 0.25)  # the margin of the third row
        out = io.StringIO()
        csv.writer(out).writerows(rows)
        return out.getvalue()

    new, moved_runs = _planted(old, runs, "margins.csv", edit)
    assert golden.moved(runs, moved_runs, (old, new)) == [
        f"{KEY}: margins.csv margin: max |change| 0.25"]
    assert golden.moved(runs, moved_runs) == [f"{KEY}: margins.csv digest moved"]


def test_value_diff_reports_a_flipped_pass_flag(tmp_path):
    old, runs = _tree(tmp_path)

    def edit(text):
        data = json.loads(text)
        assert data["pass"] is True
        data["pass"] = False
        return json.dumps(data, sort_keys=True, indent=1) + "\n"

    new, moved_runs = _planted(old, runs, "verdicts.json", edit)
    assert golden.moved(runs, moved_runs, (old, new)) == [
        f"{KEY}: verdicts.json pass: flag True -> False"]
