"""Golden-output manifest: the bytes the CLI writes for a fixed set of runs.

    PYTHONPATH=src python tests/golden/update.py
    PYTHONPATH=src python tests/golden/update.py --diff OTHER_CHECKOUT

The first rewrites tests/golden/manifest.json from the code in this
checkout.  The runs are every preset at seeds 0 and 1 and every perfbench
scenario file of seed 0 (generated by perfbench/scenarios.py, read by path
and never written).  Per run the manifest holds the exit code and the
sha256 of each file written (verdicts.json, margins.csv, fields/*.csv), or
the name of the exception when the run raises.  tests/test_golden.py reruns
them all and names every file whose digest moved.

The second writes nothing.  It makes every run with the potkit of
OTHER_CHECKOUT (in a fresh interpreter) and with this one, and prints the
value diff of the outputs: per moved file the largest absolute change of
each numeric column of a CSV file and of each numeric leaf of
verdicts.json, and every pass flag, exit code or raised exception that
changed.  A change that moves a byte on purpose prints this diff against
its parent, reruns the first command, and lists each moved file with its
diff line in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"
SCENARIOS = HERE.parents[1] / "perfbench" / "scenarios.py"
PRESET_SEEDS = (0, 1)
SCENARIO_SEED = 0


def versions() -> dict:
    """The numpy and BLAS builds the digests were taken with."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def scenario_files(seed: int) -> list:
    """[(file name, JSON text)] of perfbench's scenario pass at `seed`."""
    namespace = {"__name__": "perfbench_scenarios"}
    exec(compile(SCENARIOS.read_text(), str(SCENARIOS), "exec"), namespace)
    return [(name, text) for name, text, _ in namespace["generate"](seed)]


def _run(argv: list, out_dir: Path) -> dict:
    from potkit.cli import main

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv + ["--out", str(out_dir)])
        except Exception as exc:
            return {"raises": type(exc).__name__}
    return {"exit": code, "files": digests(out_dir)}


def digests(out_dir: Path) -> dict:
    """{file path under out_dir: sha256} of every file a run wrote."""
    return {p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def collect(work: Path) -> dict:
    """{run key: {"exit", "files"} or {"raises"}} for every run, in a fresh `work` dir."""
    from potkit.presets import PRESETS

    runs = {}
    for name in sorted(PRESETS):
        for seed in PRESET_SEEDS:
            key = f"preset/{name}@{seed}"
            runs[key] = _run(["run", "--preset", name, "--seed", str(seed)], work / key)
    scenario_dir = work / "scenarios"
    scenario_dir.mkdir(parents=True)
    for fname, text in scenario_files(SCENARIO_SEED):
        path = scenario_dir / fname
        path.write_text(text)
        key = f"scenario/{fname}@{SCENARIO_SEED}"
        runs[key] = _run(["run", str(path), "--seed", str(SCENARIO_SEED)], work / key)
    return runs


def collect_with(checkout: Path, work: Path) -> dict:
    """collect(work) with the potkit of another checkout, in a fresh interpreter."""
    code = ("import json, sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; "
            "import update; print(json.dumps(update.collect(Path(sys.argv[3]))))")
    done = subprocess.run([sys.executable, "-c", code, str(Path(checkout) / "src"), str(HERE),
                           str(work)], capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


# ---------------------------------------------------------------------------
# value diff of two output trees


def _change(a: float, b: float) -> float:
    """|b - a|, 0 when both are the same value (equal infinities, both nan)."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) if math.isfinite(a) and math.isfinite(b) else math.inf


def _number(x):
    """x as a float if it is a number or a numeric CSV cell, else None."""
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def _leaves(node, path: str = ""):
    """(path, value) of every leaf of a JSON document, lists indexed as [i]."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, node


def _csv_cells(path: Path):
    """(column name, row, cell) of every cell of a CSV file under its header."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0] if rows else []
    return [(name, i, cell) for i, row in enumerate(rows[1:])
            for name, cell in zip(header, row)]


def _cells(path: Path) -> list:
    """(key, row, value) of every value of an output file: CSV cells keyed by
    their column, JSON leaves by their path (row None)."""
    if path.suffix == ".csv":
        return _csv_cells(path)
    return [(k, None, v) for k, v in _leaves(json.loads(path.read_text()))]


def _flag(x):
    """A flag as a bool (JSON true/false, a CSV True/False cell), else None."""
    return x if isinstance(x, bool) else {"True": True, "False": False}.get(x)


def file_diff(old: Path, new: Path) -> list:
    """Lines of the value diff of one output file: the largest absolute change
    per numeric key, one line per flipped pass flag and per other changed value."""
    a, b = _cells(old), _cells(new)
    if [(k, i) for k, i, _ in a] != [(k, i) for k, i, _ in b]:
        return [f"layout changed ({len(a)} -> {len(b)} values)"]
    largest: dict = {}
    lines = []
    for (key, row, x), (_, _, y) in zip(a, b):
        where = key if row is None else f"{key} row {row + 1}"
        nx, ny = _number(x), _number(y)
        if _flag(x) is not None or _flag(y) is not None:
            if x != y:
                lines.append(f"{where}: flag {x} -> {y}")
        elif nx is not None and ny is not None:
            largest[key] = max(largest.get(key, 0.0), _change(nx, ny))
        elif x != y:
            lines.append(f"{where}: {x!r} -> {y!r}")
    lines[:0] = [f"{key}: max |change| {d:.2g}" for key, d in largest.items() if d]
    return lines


def moved(want: dict, got: dict, works: tuple = ()) -> list:
    """One line per run or file whose recorded outcome differs.  With `works`,
    the (old, new) output trees of `want` and `got`, a file whose digest moved
    gets the lines of its value diff."""
    lines = []
    for key in sorted(want.keys() | got.keys()):
        a, b = want.get(key), got.get(key)
        if a is None or b is None:
            lines.append(f"{key}: {'new run' if a is None else 'run missing'}")
            continue
        for field in ("raises", "exit"):
            if a.get(field) != b.get(field):
                lines.append(f"{key}: {field} {a.get(field)!r} -> {b.get(field)!r}")
        fa, fb = a.get("files", {}), b.get("files", {})
        for fname in sorted(fa.keys() | fb.keys()):
            if fa.get(fname) == fb.get(fname):
                continue
            if fname not in fa or fname not in fb:
                found = ["new file" if fname not in fa else "file missing"]
            elif works:
                found = file_diff(*(w / key / fname for w in works)) or ["values equal"]
            else:
                found = ["digest moved"]
            lines += [f"{key}: {fname} {line}" for line in found]
    return lines


def main(argv: list) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        if argv[:1] == ["--diff"] and len(argv) == 2:
            old, new = Path(tmp) / "old", Path(tmp) / "new"
            lines = moved(collect_with(Path(argv[1]), old), collect(new), (old, new))
            print("\n".join(lines) if lines else "no output moved")
            return
        if argv:
            sys.exit("usage: update.py [--diff OTHER_CHECKOUT]")
        runs = collect(Path(tmp))
    MANIFEST.write_text(json.dumps({"versions": versions(), "runs": runs},
                                   sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(runs)} runs to {MANIFEST}")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    main(sys.argv[1:])
