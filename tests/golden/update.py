"""Golden-output manifest: the bytes the CLI writes for a fixed set of runs.

    PYTHONPATH=src python tests/golden/update.py

rewrites tests/golden/manifest.json from the code in this checkout.  The
runs are every preset at seeds 0 and 1 and every perfbench scenario file of
seed 0 (generated by perfbench/scenarios.py, read by path and never
written).  Per run the manifest holds the exit code and the sha256 of each
file written (verdicts.json, margins.csv, fields/*.csv), or the name of the
exception when the run raises.  tests/test_golden.py reruns them all and
names every file whose digest moved.  A change that moves a byte on purpose
reruns this script and lists each moved file and its reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
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
    files = {p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out_dir.rglob("*")) if p.is_file()}
    return {"exit": code, "files": files}


def collect(work: Path) -> dict:
    """{run key: {"exit", "files"} or {"raises"}} for every run, in a fresh `work` dir."""
    from potkit.presets import PRESETS

    runs = {}
    for name in sorted(PRESETS):
        for seed in PRESET_SEEDS:
            runs[f"preset/{name}@{seed}"] = _run(
                ["run", "--preset", name, "--seed", str(seed)], work / f"{name}@{seed}")
    scenario_dir = work / "scenarios"
    scenario_dir.mkdir(parents=True)
    for fname, text in scenario_files(SCENARIO_SEED):
        path = scenario_dir / fname
        path.write_text(text)
        runs[f"scenario/{fname}@{SCENARIO_SEED}"] = _run(
            ["run", str(path), "--seed", str(SCENARIO_SEED)], work / f"{fname}@{SCENARIO_SEED}")
    return runs


def moved(want: dict, got: dict) -> list:
    """One line per run or file whose recorded outcome differs."""
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
            if fa.get(fname) != fb.get(fname):
                state = ("new file" if fname not in fa else "file missing" if fname not in fb
                         else "digest moved")
                lines.append(f"{key}: {fname} {state}")
    return lines


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        runs = collect(Path(tmp))
    MANIFEST.write_text(json.dumps({"versions": versions(), "runs": runs},
                                   sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(runs)} runs to {MANIFEST}")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(HERE.parents[1] / "src"))
    main()
