"""Scenario-driven command line runner.

    potkit list-presets [--json] [--tag TAG]
    potkit run SCENARIO.json [--seed N] [--grid N] [--tol-scale F] [--out DIR]
    potkit run --preset NAME [...]

Scenario files are versioned JSON ({"schema": 1}); checks either invoke a
named preset or a primitive check on objects assembled from the scenario.
Exit codes: 0 all checks pass, 1 a check failed, 2 schema violation.
Verdicts are written as deterministic JSON (same scenario + seed gives
byte-identical output).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import balayage as bal
from . import duality
from .fields import ScalarField
from .geometry import Ball
from .measures import Atom, Measure
from .presets import PRESETS, preset_table, run_preset
from .verdict import jsonable

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    def __init__(self, message, where=""):
        super().__init__(f"{where}: {message}" if where else message)


def _require(cond, message, where=""):
    if not cond:
        raise SchemaError(message, where)


def _count(value, least: int, where: str) -> int:
    """`value` itself when it is an integer >= least (a bool is not), else a SchemaError."""
    _require(type(value) is int and value >= least,
             f"must be an integer >= {least}, got {value!r}", where)
    return value


# ---------------------------------------------------------------------------
# scenario object assembly


def _build_domain(spec: dict, where: str):
    _require(isinstance(spec, dict) and "type" in spec, "domain needs a type", where)
    if spec["type"] == "ball":
        _require("center" in spec and "radius" in spec, "ball needs center and radius", where)
        try:
            ball = Ball(np.asarray(spec["center"], float), float(spec["radius"]))
        except (TypeError, ValueError) as exc:  # non-numeric, non-finite, radius <= 0
            raise SchemaError(f"invalid ball: {exc}", where)
        return ball
    raise SchemaError(f"unknown domain type {spec['type']!r}", where)


def _build_measure(spec: dict, where: str) -> Measure:
    from . import green

    _require(isinstance(spec, dict), "measure spec must be an object", where)
    kind = spec.get("kind", "components")
    if kind == "components":
        return Measure.from_json(spec)
    if kind == "dirac":
        return Measure(len(spec["point"]), [Atom(np.asarray(spec["point"], float),
                                                 float(spec.get("weight", 1.0)))])
    if kind == "harmonic-measure":
        ball = _build_domain(dict(spec, type="ball"), where)
        try:
            x = np.asarray(spec["x"], float)
        except (KeyError, TypeError, ValueError):
            raise SchemaError("harmonic measure needs a numeric point x", where)
        _require(x.shape == ball.center.shape and ball.contains(x),
                 "harmonic measure needs x inside the ball", where)
        gm = green.green_ball(ball.center, ball.radius, x, len(x))
        return green.harmonic_measure(gm, x)
    raise SchemaError(f"unknown measure kind {kind!r}", where)


def _build_field(spec: dict, where: str) -> ScalarField:
    _require(isinstance(spec, dict) and "kind" in spec, "field needs a kind", where)
    if spec["kind"] == "log-distance":
        return ScalarField.log_distance(np.asarray(spec["point"], float),
                                        float(spec.get("coefficient", 1.0)))
    if spec["kind"] == "constant":
        return ScalarField.constant(float(spec["value"]))
    raise SchemaError(f"unknown field kind {spec['kind']!r}", where)


def _build_family(spec: dict, where: str):
    _require(isinstance(spec, dict) and "kind" in spec, "family needs a kind", where)
    if spec["kind"] == "harmonic-kernels":
        S = _build_domain(spec["S"], where + ".S")
        ring = Ball(S.center, float(spec.get("ring_radius", 1.5 * S.radius))) \
            .boundary_points(int(spec.get("count", 20)))
        return bal.harmonic_kernel_family(S, ring, S.dimension)
    if spec["kind"] == "test-class":
        return bal.build_test_family(
            spec["tag"], _build_domain(spec["S_o"], where + ".S_o"), float(spec["r"]),
            float(spec["b_minus"]), float(spec["b_plus"]),
            _build_domain(spec["D"], where + ".D"), int(spec.get("count", 16)))
    raise SchemaError(f"unknown family kind {spec['kind']!r}", where)


# ---------------------------------------------------------------------------
# check execution


def _run_check(spec: dict, ctx: dict, seed: int, tol_scale: float, index: int):
    where = f"checks[{index}]"
    _require(isinstance(spec, dict) and "type" in spec, "check needs a type", where)
    ctype = spec["type"]
    expect = spec.get("expect", "pass")
    _require(expect in ("pass", "fail"), "expect must be 'pass' or 'fail'", where)

    if ctype == "preset":
        _require(spec.get("name") in PRESETS, f"unknown preset {spec.get('name')!r}", where)
        checks, exports = run_preset(spec["name"], seed=seed, tol_scale=tol_scale)
        rows = [{"name": c.name, "pass": c.passed, "data": jsonable(c.data)} for c in checks]
        ok = all(c.passed for c in checks)
        return ({"type": ctype, "preset": spec["name"], "pass": ok == (expect == "pass"),
                 "raw_pass": ok, "checks": rows},
                _margins([(f"{spec['name']}::{c.name}", c) for c in checks]), exports)

    if ctype == "check-linear":
        theta = _build_measure(ctx["measures"][spec["theta"]], where + ".theta")
        mu = _build_measure(ctx["measures"][spec["mu"]], where + ".mu")
        family = _build_family(ctx["family"], where + ".family")
        verdict = bal.check_linear(theta, mu, family, tol_scale=1e-7 * tol_scale, seed=seed)
        return {"type": ctype, "pass": verdict.passed == (expect == "pass"),
                "raw_pass": verdict.passed,
                "verdict": verdict.to_json()}, _margins([(ctype, verdict)]), {}

    if ctype == "poisson-jensen":
        theta = _build_measure(ctx["measures"][spec["theta"]], where + ".theta")
        mu = _build_measure(ctx["measures"][spec["mu"]], where + ".mu")
        u = _build_field(ctx["fields"][spec["u"]], where + ".u")
        riesz = None
        if "riesz_u" in spec:
            riesz = _build_measure(ctx["measures"][spec["riesz_u"]], where + ".riesz_u")
        rep = duality.verify_poisson_jensen(theta, mu, u, riesz_u=riesz,
                                            tol_scale=1e-6 * tol_scale, seed=seed)
        return {"type": ctype, "pass": rep.passed == (expect == "pass"),
                "raw_pass": rep.passed, "report": rep.to_json()}, _margins([(ctype, rep)]), {}

    raise SchemaError(f"unknown check type {ctype!r}", where)


def _margins(labelled: list) -> list:
    """margins.csv rows (check, member, lhs, rhs, margin, pass) of (label, Verdict) pairs."""
    return [(label,) + row for label, verdict in labelled for row in verdict.margins]


def load_scenario(path: Path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}: {exc.msg}", str(path))
    _require(isinstance(data, dict), "scenario must be a JSON object", str(path))
    _require(data.get("schema") == SCHEMA_VERSION,
             f"schema must be {SCHEMA_VERSION}", str(path))
    _require(isinstance(data.get("checks"), list) and data["checks"],
             "scenario needs a nonempty checks list", str(path))
    return data


def run_scenario(data: dict, seed: int, grid: int, tol_scale: float,
                 out_dir: Path | None):
    results, all_margins, all_exports = [], [], {}
    ctx = {"measures": data.get("measures", {}), "fields": data.get("fields", {}),
           "family": data.get("family")}
    seed = _count(data.get("seed", seed), 0, "seed")
    grid = _count(data.get("grid", grid), 1, "grid")
    for i, cspec in enumerate(data["checks"]):
        result, margins, exports = _run_check(cspec, ctx, seed, tol_scale, i)
        results.append(result)
        all_margins.extend(margins)
        all_exports.update(exports)
    verdicts = {
        "schema": SCHEMA_VERSION,
        "scenario": data.get("name", "unnamed"),
        "seed": seed,
        "grid": grid,
        "tol_scale": tol_scale,
        "pass": all(r["pass"] for r in results),
        "checks": results,
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "verdicts.json").write_text(
            json.dumps(jsonable(verdicts), sort_keys=True, indent=1) + "\n")
        import csv

        with open(out_dir / "margins.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check", "member", "lhs", "rhs", "margin", "pass"])
            for row in all_margins:
                writer.writerow(list(row))
        if all_exports:
            fdir = out_dir / "fields"
            fdir.mkdir(exist_ok=True)
            for name, (field, radius) in all_exports.items():
                _export_field_csv(field, radius, fdir / f"{name}.csv", grid)
    return verdicts


def _export_field_csv(field, radius: float, path: Path, grid: int):
    import csv

    n = min(grid, 128)
    xs = np.linspace(-radius, radius, n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "value"])
        for y in xs:
            pts = np.column_stack([xs, np.full_like(xs, y)])
            vals = field.evaluate_array(pts)
            for xv, vv in zip(xs, vals):
                writer.writerow([f"{xv:.10g}", f"{y:.10g}", f"{vv:.12g}"])


def preset_scenario(name: str) -> dict:
    return {"schema": SCHEMA_VERSION, "name": name,
            "checks": [{"type": "preset", "name": name}]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="potkit",
                                     description="potential-theory scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list-presets", help="list built-in scenario presets")
    p_list.add_argument("--json", action="store_true", help="machine-readable output")
    p_list.add_argument("--tag", help="filter presets by tag")

    p_run = sub.add_parser("run", help="run a scenario file or preset")
    p_run.add_argument("scenario", nargs="?", help="scenario JSON file")
    p_run.add_argument("--preset", help="run a built-in preset instead of a file")
    p_run.add_argument("--seed", type=int, default=0, help="64-bit RNG seed (default 0)")
    p_run.add_argument("--grid", type=int, default=256, help="grid resolution (default 256)")
    p_run.add_argument("--tol-scale", type=float, default=1.0,
                       help="scale factor applied to report tolerances")
    p_run.add_argument("--out", type=Path, default=None, help="output directory")

    args = parser.parse_args(argv)

    if args.command == "list-presets":
        rows = preset_table()
        if args.tag:
            rows = [r for r in rows if args.tag in r["tags"]]
        if args.json:
            print(json.dumps(rows, sort_keys=True, indent=1))
        else:
            width = max(len(r["name"]) for r in rows) if rows else 0
            for r in rows:
                tags = ",".join(r["tags"])
                print(f"{r['name']:<{width}}  [{tags}]  {r['description']}")
        return 0

    if args.command == "run":
        try:
            _count(args.seed, 0, "--seed")
            _count(args.grid, 1, "--grid")
            if args.preset:
                if args.preset not in PRESETS:
                    print(f"error: unknown preset {args.preset!r}", file=sys.stderr)
                    return 2
                data = preset_scenario(args.preset)
            else:
                if not args.scenario:
                    print("error: need a scenario file or --preset", file=sys.stderr)
                    return 2
                data = load_scenario(Path(args.scenario))
        except (SchemaError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        out_dir = args.out
        if out_dir is None and data.get("out"):
            out_dir = Path(data["out"])
        try:
            verdicts = run_scenario(data, args.seed, args.grid, args.tol_scale, out_dir)
        except SchemaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for r in verdicts["checks"]:
            label = r.get("preset", r["type"])
            print(f"[{'PASS' if r['pass'] else 'FAIL'}] {label}")
            for c in r.get("checks", []):
                print(f"    [{'ok' if c['pass'] else 'FAIL'}] {c['name']}")
        print(f"scenario {verdicts['scenario']}: "
              f"{'PASS' if verdicts['pass'] else 'FAIL'}")
        return 0 if verdicts["pass"] else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
