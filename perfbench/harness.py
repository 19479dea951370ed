"""Closed-loop operation runner and the three workloads.

An operation is one in-process ``potkit.cli.main(["run", ..., "--out", DIR])``
call.  One client issues one operation at a time; the next starts only when
the previous one has returned.  Each operation is checked against its
expected outcome: the exit code, the check pass flags in ``verdicts.json``,
and the ``verdicts.json`` bytes against every other run of the same
operation and seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

# the eleven presets other than duality-roundtrip, in registry order; fixed
# here so that a registry change shows as a failed operation, not as a
# silently different workload
SUITE_PRESETS = ("glue-basic", "glue-green", "green-ball", "harmonic-measure",
                 "balayage-mass", "lyons-example", "classical-pj", "pj-suite",
                 "zeros-polynomial", "zeros-blaschke", "zeros-adversarial")

ROUNDTRIP_CHECK = "round-trip integrals within 2% at h=0.02"
PJ_SUITE_CHECK = "generalized Poisson-Jensen on 12 instances"


@dataclass(frozen=True)
class Op:
    key: str  # names the operation and its seed; equal keys must give equal bytes
    argv: tuple
    exit_code: int
    raw_pass: bool | None  # expected check pass flag; None when no verdicts are written


@dataclass
class OpResult:
    op: Op
    seconds: float
    exit_code: int | None = None
    error: str | None = None  # exception raised by the operation
    wrong: str | None = None  # completed with an outcome other than expected
    digest: str | None = None
    bytes_written: int = 0
    roundtrip_err: float | None = None
    pj_rel_err: float | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.wrong is not None


@dataclass
class Pass:
    results: list = field(default_factory=list)

    @property
    def completed(self) -> list:
        return [r for r in self.results if r.error is None]


# ---------------------------------------------------------------------------
# workloads: each yields passes (lists of operations) for a seed


def roundtrip_passes(seed: int):
    """One ``duality-roundtrip`` run per pass, at seeds S, S+1, S+2, ..."""
    k = 0
    while True:
        s = seed + k
        yield [Op(f"roundtrip@{s}", ("run", "--preset", "duality-roundtrip", "--seed", str(s)),
                  0, True)]
        k += 1


def suite_passes(seed: int):
    ops = [Op(f"{name}@{seed}", ("run", "--preset", name, "--seed", str(seed)), 0, True)
           for name in SUITE_PRESETS]
    while True:
        yield ops


def scenario_passes(seed: int, directory: Path):
    from scenarios import generate

    directory.mkdir(parents=True, exist_ok=True)
    ops = []
    for name, text, exit_code in generate(seed):
        path = directory / name
        path.write_text(text)
        ops.append(Op(f"{name}@{seed}", ("run", str(path), "--seed", str(seed)), exit_code,
                      None if exit_code == 2 else exit_code == 0))
    while True:
        yield ops


# ---------------------------------------------------------------------------
# one operation


def _files_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def _roundtrip_err(margins: Path) -> float | None:
    with open(margins, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["check"].endswith(ROUNDTRIP_CHECK)]
    return max(float(r["lhs"]) for r in rows) if rows else None


def _check_verdicts(op: Op, verdicts: dict) -> str | None:
    checks = verdicts.get("checks", [])
    if not checks:
        return "verdicts.json has no checks"
    for c in checks:
        if c.get("raw_pass") != op.raw_pass:
            return f"raw_pass {c.get('raw_pass')} != expected {op.raw_pass}"
        bad = [row["name"] for row in c.get("checks", []) if not row["pass"]]
        if bad and op.raw_pass:
            return f"failed checks: {', '.join(bad)}"
    return None


def run_op(main, op: Op, out_dir: Path) -> OpResult:
    """Run one operation, timing only the call into the CLI."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    sink = io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            rc = main(list(op.argv) + ["--out", str(out_dir)])
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the harness must keep running
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    res = OpResult(op, seconds, rc, error)
    if error is not None:
        return res
    if rc != op.exit_code:
        res.wrong = f"exit {rc} != expected {op.exit_code}"
    vpath = out_dir / "verdicts.json"
    if vpath.exists():
        raw = vpath.read_bytes()
        res.digest = hashlib.sha256(raw).hexdigest()
        res.bytes_written = _files_bytes(out_dir)
        verdicts = json.loads(raw)
        if res.wrong is None:
            res.wrong = _check_verdicts(op, verdicts)
        for c in verdicts.get("checks", []):
            for row in c.get("checks", []):
                if row["name"] == PJ_SUITE_CHECK:
                    res.pj_rel_err = float(row["data"]["worst_relative"])
        if (out_dir / "margins.csv").exists():
            res.roundtrip_err = _roundtrip_err(out_dir / "margins.csv")
    elif op.raw_pass is not None and res.wrong is None:
        res.wrong = "no verdicts.json written"
    return res


# ---------------------------------------------------------------------------
# the closed loop


class DigestBook:
    """verdicts.json digests per operation key, shared across runs of one tree."""

    def __init__(self, path: Path):
        self.path = path
        self.known: dict[str, str] = json.loads(path.read_text()) if path.exists() else {}

    def check(self, res: OpResult):
        if res.digest is None:
            return
        prev = self.known.setdefault(res.op.key, res.digest)
        if prev != res.digest and res.wrong is None:
            res.wrong = "verdicts.json bytes differ from another run of this operation"

    def save(self):
        self.path.write_text(json.dumps(self.known, sort_keys=True, indent=1) + "\n")


# when every operation keeps raising, the loop gives up this long after --seconds
GIVE_UP_S = 60.0


def run_loop(main, passes, seconds: float, out_dir: Path, book: DigestBook) -> list:
    """Issue whole passes until `seconds` have elapsed and one operation completed."""
    done = []
    t0 = time.perf_counter()
    for ops in passes:
        p = Pass()
        for op in ops:
            res = run_op(main, op, out_dir)
            book.check(res)
            p.results.append(res)
        done.append(p)
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and (any(q.completed for q in done)
                                   or elapsed >= seconds + GIVE_UP_S):
            break
    return done


def replay(main, passes: list, out_dir: Path, book: DigestBook) -> list:
    """Run the operations of the passes that completed any again, pass by pass."""
    out = []
    for p in passes:
        if not p.completed:
            continue
        again = Pass()
        for res in p.results:
            r = run_op(main, res.op, out_dir)
            book.check(r)
            again.results.append(r)
        out.append(again)
    return out
