"""potkit benchmark: closed-loop CLI workloads with an optional traced run.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload roundtrip,suite,scenarios --seed 3

Run from the root of a source tree.  Each workload prints a report with
every metric by name and unit, the failed operations by name, and as its
last line one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones (tracing off); with
--trace 1 the run first measures untraced passes for half of --seconds, then
replays the operations of the passes that completed any with every potkit
layer wrapped and reports the per-layer metrics per measured pass.  Scratch output goes to
.perfbench-work/ in the tree.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("roundtrip", "suite", "scenarios")
SETUP_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "op_p90_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_bytes_max", "bytes_written")):
        return "B"
    if name.endswith(("_frac", "_err_max")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# environment


def cap_blas_threads(nproc: int):
    """Keep BLAS pools at most nproc wide; must run before numpy is imported."""
    for var in BLAS_ENV:
        try:
            n = int(os.environ.get(var, nproc))
        except ValueError:
            n = nproc
        os.environ[var] = str(max(1, min(n, nproc)))


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _cache_sizes() -> dict:
    out = {}
    for i in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{i}/"
        level, size = _read(base + "level").strip(), _read(base + "size").strip()
        kind = _read(base + "type").strip()
        if level and size and kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _blas_threads():
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpu": cpu,
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: "
                f"{blas.get('openblas configuration', '')}".strip(),
        "blas_threads": _blas_threads(),
        "note": "CPU frequency, cgroups and page cache are not controlled; "
                "timings are medians over repeats",
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "potkit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def measure_setup(repeats: int) -> list:
    """Seconds from spawning a fresh interpreter until potkit.cli is imported."""
    code = "import potkit.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("a fresh interpreter could not import potkit.cli")
        times.append(t1 - t0)
    return times


# ---------------------------------------------------------------------------
# metrics


def _percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _measured(passes: list) -> list:
    return [p for p in passes if p.completed]


def pass_wall(passes: list) -> float:
    """Wall time of one pass: per position in the pass, the median latency over
    the passes where that operation completed, summed over positions.

    Operations that raised are left out (a failure has no verdict latency);
    when every operation raised, the time spent failing is reported instead.
    """
    by_pos: dict[int, list] = {}
    for p in passes:
        for i, r in enumerate(p.results):
            if r.error is None:
                by_pos.setdefault(i, []).append(r.seconds)
    if not by_pos:
        return sum(r.seconds for p in passes for r in p.results)
    return sum(statistics.median(v) for v in by_pos.values())


def latencies(passes: list) -> list:
    lat = [r.seconds for p in passes for r in p.completed]
    return lat or [r.seconds for p in passes for r in p.results]


def accuracy(results: list) -> dict:
    rt = [r.roundtrip_err for r in results if r.roundtrip_err is not None]
    pj = [r.pj_rel_err for r in results if r.pj_rel_err is not None]
    return {"verdicts.roundtrip_err_max": max(rt) if rt else 0.0,
            "verdicts.pj_rel_err_max": max(pj) if pj else 0.0}


# ---------------------------------------------------------------------------
# one workload


def _passes(name: str, seed: int):
    import harness

    if name == "roundtrip":
        return harness.roundtrip_passes(seed)
    if name == "suite":
        return harness.suite_passes(seed)
    return harness.scenario_passes(seed, WORK / f"scenarios-{seed}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, setup: list,
                 lines: list) -> dict:
    import harness
    import potkit.cli

    def main(argv):
        return potkit.cli.main(argv)  # looked up per call, so a traced run sees the wrapper

    out_dir = WORK / "out"
    book = harness.DigestBook(WORK / f"digests-{source_digest()}.json")
    base = harness.run_loop(main, _passes(name, seed), seconds / 2 if trace else seconds,
                            out_dir, book)
    all_passes = list(base)
    metrics = {}
    if not trace:
        lat = latencies(base)
        metrics = {
            "wall_s": pass_wall(base),
            "op_p50_s": statistics.median(lat),
            "op_p90_s": _percentile(lat, 90),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        lines.append(f"wall_s = {metrics['wall_s']:.4f} s "
                     f"(per-operation medians over {len(_measured(base))} measured passes)")
        beyond = sum(1 for t in lat if t > metrics["op_p90_s"])
        lines.append(f"op_p50_s = {metrics['op_p50_s']:.4f} s (n={len(lat)})")
        lines.append(f"op_p90_s = {metrics['op_p90_s']:.4f} s (n={len(lat)}, "
                     f"{beyond} samples beyond"
                     f"{'' if beyond >= 10 else '; fewer than ten'})")
        lines.append(f"setup_s = {metrics['setup_s']:.4f} s (median of {len(setup)} "
                     f"fresh interpreters: {', '.join(f'{t:.3f}' for t in setup)})")
        lines.append(f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB (ru_maxrss)")
    else:
        from spans import Recorder, Tracer, coverage, layer_metrics

        rec = Recorder()
        with Tracer(rec) as tracer:
            traced = harness.replay(main, base, out_dir, book)
        all_passes += traced
        n = max(1, len(_measured(traced)))
        metrics = {k: (v if k.endswith(("_max", "_per_s")) else v / n)
                   for k, v in layer_metrics(rec).items()}
        bytes_written = sum(r.bytes_written for p in traced for r in p.results)
        metrics["cli.bytes_written"] = bytes_written / n
        untraced_wall, traced_wall = pass_wall(base), pass_wall(traced)
        metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        lines.append(f"traced wall {traced_wall:.4f} s vs untraced {untraced_wall:.4f} s "
                     f"per pass ({n} measured passes, {len(rec.start)} spans)")
        if traced_wall > 0:  # zero when every replayed operation raised
            shares = {k.split(".")[0]: v / traced_wall for k, v in metrics.items()
                      if k.endswith(".self_s")}
            lines.append("self-time share of traced pass wall: " + ", ".join(
                f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        cov = coverage(rec, tracer.wrapped)
        for layer, entry in cov.items():
            lines.append(f"coverage {layer}: reached {len(entry['reached'])}, "
                         f"unreached {len(entry['unreached'])}: "
                         f"{', '.join(entry['unreached']) or '-'}")
        WORK.mkdir(parents=True, exist_ok=True)
        (WORK / f"coverage-{name}.json").write_text(json.dumps(cov, indent=1) + "\n")
        rec.write(WORK / f"spans-{name}-{seed}.tsv.gz")
    book.save()
    shutil.rmtree(out_dir, ignore_errors=True)
    shutil.rmtree(WORK / f"scenarios-{seed}", ignore_errors=True)

    results = [r for p in all_passes for r in p.results]
    acc = accuracy(results)
    if trace:
        metrics.update(acc)
    failed = [r for r in results if r.failed]
    lines.append(f"failed_frac = {len(failed) / len(results):.4f} "
                 f"({len(failed)} of {len(results)} operations)")
    for k, v in acc.items():
        if v:
            lines.append(f"{k.split('.', 1)[1]} = {v:.6g}")
    seen = set()
    for r in failed:
        why = r.error or r.wrong
        if (r.op.key, why) not in seen:
            seen.add((r.op.key, why))
            lines.append(f"failed op {r.op.key}: {why}")
    return {
        "correct": not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": END_TO_END_UNITS.get(k, per_layer_unit(k))}
                    for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, a comma list, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else tuple(args.workload.split(","))
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}")
    if not (SRC / "potkit" / "cli.py").is_file():
        print(f"perfbench: no potkit sources under {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    cap_blas_threads(nproc)
    setup = [] if args.trace else measure_setup(SETUP_REPEATS)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import potkit.cli

    import_s = time.perf_counter() - t0
    if SRC.resolve() not in Path(potkit.cli.__file__).resolve().parents:
        print(f"perfbench: potkit imported from {potkit.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    env = environment(nproc)
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / "env.json").write_text(json.dumps(env, indent=1) + "\n")

    for name in names:
        lines = [f"perfbench workload={name} seed={args.seed} seconds={args.seconds:g} "
                 f"trace={args.trace}",
                 "loop: closed, one client, one operation in flight",
                 "env: " + json.dumps(env, sort_keys=True),
                 f"in-process import of potkit.cli: {import_s:.3f} s"]
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), setup, lines)
        print("\n".join(lines))
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
