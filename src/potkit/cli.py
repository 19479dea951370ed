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
import csv
import functools
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import balayage as bal
from . import duality, green
from .fields import ScalarField
from .geometry import Ball
from .measures import _KINDS, Atom, Measure
from .presets import PRESETS, preset_table, run_preset
from .verdict import jsonable

SCHEMA_VERSION = 1
NUMBER_MAX = 1e100  # largest scenario number: its square and cube stay finite


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


def _number(value, where: str, above: float = -math.inf) -> float:
    """`value` as a float if it is a number > above, at most NUMBER_MAX in size, else a
    SchemaError (a bool is no number)."""
    _require(type(value) in (int, float) and above < value and abs(value) <= NUMBER_MAX,
             f"must be a number > {above!r} of size <= {NUMBER_MAX:g}, got {value!r}", where)
    return float(value)


def _point(value, where: str) -> np.ndarray:
    """`value` as a point when it is a nonempty list of numbers, else a SchemaError."""
    _require(isinstance(value, list) and len(value) > 0,
             f"must be a nonempty list of coordinates, got {value!r}", where)
    return np.array([_number(v, f"{where}[{i}]") for i, v in enumerate(value)])


@contextmanager
def _rejected_at(where: str, *errors):
    """A SchemaError at `where` for an exception of `errors` raised in the block."""
    try:
        yield
    except errors as exc:
        raise SchemaError(f"cannot build it: {exc!r}", where) from None


def _like_theta(theta: Measure, got: int, where: str):
    """A SchemaError at `where` unless `got` is the dimension of theta."""
    _require(got == theta.dimension,
             f"must have the dimension {theta.dimension} of theta, got {got}", where)


def _named(build, table: dict, spec: dict, key: str, where: str):
    """build(declaration, path) of the declaration that spec[key] names in `table`."""
    where = f"{where}.{key}"
    name = spec.get(key)
    _require(isinstance(table, dict) and isinstance(name, str) and name in table,
             f"names no declared entry: {name!r}", where)
    return build(table[name], where)


# ---------------------------------------------------------------------------
# scenario object assembly: a malformed value is a SchemaError at its JSON path


def _build_domain(spec: dict, where: str) -> Ball:
    _require(isinstance(spec, dict) and "type" in spec, "domain needs a type", where)
    if spec["type"] == "ball":
        _require("center" in spec and "radius" in spec, "ball needs center and radius", where)
        return Ball(_point(spec["center"], where + ".center"),
                    _number(spec["radius"], where + ".radius", above=0.0))
    raise SchemaError(f"unknown domain type {spec['type']!r}", where)


def _build_measure(spec: dict, where: str) -> Measure:
    _require(isinstance(spec, dict), "measure spec must be an object", where)
    kind = spec.get("kind", "components")
    if kind == "components":  # the entries Measure.to_json writes
        entries = spec.get("components")
        _require(isinstance(entries, list), f"must be a list of components, got {entries!r}",
                 where + ".components")
        dimension = _count(spec.get("dimension"), 1, where + ".dimension")
        components = [_build_component(e, f"{where}.components[{i}]")
                      for i, e in enumerate(entries)]
        for i, c in enumerate(components):
            _require(c.dimension == dimension, f"must have the dimension {dimension} of the "
                     f"measure, got {c.dimension}", f"{where}.components[{i}]")
        return Measure(dimension, components)
    if kind == "dirac":
        x = _point(spec["point"], where + ".point")
        return Measure(x.size, [Atom(x, _number(spec.get("weight", 1.0), where + ".weight"))])
    if kind == "harmonic-measure":
        ball = _build_domain(dict(spec, type="ball"), where)
        x = _point(spec.get("x"), where + ".x")
        _require(x.shape == ball.center.shape and ball.contains(x),
                 "harmonic measure needs x inside the ball", where + ".x")
        with _rejected_at(where, NotImplementedError):  # a Green model in d other than 2, 3
            return green.harmonic_measure(green.green_ball(ball.center, ball.radius, x), x)
    raise SchemaError(f"unknown measure kind {kind!r}", where)


def _bounded(value, where: str):
    """A SchemaError at the first number in `value`, or in the lists and objects it
    nests, that `_number` refuses."""
    if type(value) in (int, float):
        _number(value, where)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _bounded(v, f"{where}[{i}]")
    elif isinstance(value, dict):
        for key, v in value.items():
            _bounded(v, f"{where}.{key}")


def _build_component(entry, where: str):
    _require(isinstance(entry, dict) and entry.get("type") in sorted(_KINDS),
             f"needs a type in {sorted(_KINDS)}, got {entry!r}", where)
    _bounded(entry, where)
    with _rejected_at(where, KeyError, TypeError, ValueError, OverflowError):
        return _KINDS[entry["type"]].from_json(entry)


def _build_field(spec: dict, where: str, theta: Measure) -> ScalarField:
    _require(isinstance(spec, dict) and "kind" in spec, "field needs a kind", where)
    if spec["kind"] == "log-distance":
        p = _point(spec.get("point"), where + ".point")
        _like_theta(theta, p.size, where + ".point")
        return ScalarField.log_distance(p, _number(spec.get("coefficient", 1.0),
                                                   where + ".coefficient"))
    if spec["kind"] == "constant":
        return ScalarField.constant(_number(spec.get("value"), where + ".value"))
    raise SchemaError(f"unknown field kind {spec['kind']!r}", where)


def _build_family(spec: dict, where: str, seed: int, theta: Measure):
    _require(isinstance(spec, dict) and "kind" in spec, "family needs a kind", where)
    if spec["kind"] == "harmonic-kernels":
        S = _build_domain(spec.get("S"), where + ".S")
        _like_theta(theta, S.dimension, where + ".S.center")
        # the kernels' poles lie on a ring outside clos S
        radius = _number(spec.get("ring_radius", 1.5 * S.radius), where + ".ring_radius",
                         above=S.radius)
        ring = Ball(S.center, radius).boundary_points(
            _count(spec.get("count", 20), 1, where + ".count"))
        with _rejected_at(where, ValueError):  # a kernel pole in clos S
            return bal.harmonic_kernel_family(S, ring)
    if spec["kind"] == "test-class":
        tag = spec.get("tag")
        _require(tag in bal.TEST_CLASS_TAGS, f"unknown class tag {tag!r}", where + ".tag")
        S_o = _build_domain(spec.get("S_o"), where + ".S_o")
        _like_theta(theta, S_o.dimension, where + ".S_o.center")
        r = _number(spec.get("r"), where + ".r", above=0.0)
        b_minus = _number(spec.get("b_minus"), where + ".b_minus")
        b_plus = _number(spec.get("b_plus"), where + ".b_plus")
        _require(tag.startswith("harmonic") or b_minus < 0 < b_plus,
                 f"must be < 0 < b_plus = {b_plus!r}, got {b_minus!r}", where + ".b_minus")
        D = _build_domain(spec.get("D"), where + ".D")
        _require(D.dimension == S_o.dimension, f"must have the dimension {S_o.dimension} of "
                 f"S_o, got {D.center.tolist()!r}", where + ".D.center")
        gap = bal.dist_to_boundary(S_o, D)
        _require(3 * r < gap, f"3r must be < dist(S_o, boundary of D) = {gap!r}, got {r!r}",
                 where + ".r")
        count = _count(spec.get("count", 16), 1, where + ".count")
        with _rejected_at(where, ValueError):  # a member outside the class
            return bal.build_test_family(tag, S_o, r, b_minus, b_plus, D, count, seed=seed)
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

    # every measure, domain and field point of a check has theta's dimension
    if ctype == "check-linear":
        theta = _named(_build_measure, ctx["measures"], spec, "theta", where)
        mu = _named(_build_measure, ctx["measures"], spec, "mu", where)
        _like_theta(theta, mu.dimension, where + ".mu")
        family = _build_family(ctx["family"], where + ".family", seed, theta)
        verdict = bal.check_linear(theta, mu, family, tol_scale=1e-7 * tol_scale)
        return {"type": ctype, "pass": verdict.passed == (expect == "pass"),
                "raw_pass": verdict.passed,
                "verdict": verdict.to_json()}, _margins([(ctype, verdict)]), {}

    if ctype == "poisson-jensen":
        theta = _named(_build_measure, ctx["measures"], spec, "theta", where)
        mu = _named(_build_measure, ctx["measures"], spec, "mu", where)
        _like_theta(theta, mu.dimension, where + ".mu")
        u = _named(lambda s, w: _build_field(s, w, theta), ctx["fields"], spec, "u", where)
        riesz = None
        if "riesz_u" in spec:
            riesz = _named(_build_measure, ctx["measures"], spec, "riesz_u", where)
            _like_theta(theta, riesz.dimension, where + ".riesz_u")
        rep = duality.verify_poisson_jensen(theta, mu, u, riesz_u=riesz,
                                            tol_scale=1e-6 * tol_scale)
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
    _require(isinstance(data.get("out", ""), str),
             f"out must be a string, got {data.get('out')!r}", str(path))
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
        with open(out_dir / "margins.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check", "member", "lhs", "rhs", "margin", "pass"])
            writer.writerows(all_margins)
        if all_exports:
            fdir = out_dir / "fields"
            fdir.mkdir(exist_ok=True)
            for name, (field, radius) in all_exports.items():
                _export_field_csv(field, radius, fdir / f"{name}.csv", grid)
    return verdicts


def _export_field_csv(field, radius: float, path: Path, grid: int):
    """The field on an n x n grid of [-radius, radius]^2, n = min(grid, 128), as
    x,y,value CSV lines (\r\n ends, as csv.writer writes), x fastest.

    The grid is evaluated in one call; each row of n lines is one write.
    """
    n = min(grid, 128)
    xs = np.linspace(-radius, radius, n)
    labels = [f"{xv:.10g}" for xv in xs]
    vals = field.evaluate_array(np.column_stack([np.tile(xs, n), np.repeat(xs, n)]))
    with open(path, "w", newline="") as fh:
        fh.write("x,y,value\r\n")
        for y, row in zip(labels, vals.reshape(n, n)):
            fh.write("".join(f"{x},{y},{vv:.12g}\r\n" for x, vv in zip(labels, row)))


def preset_scenario(name: str) -> dict:
    return {"schema": SCHEMA_VERSION, "name": name,
            "checks": [{"type": "preset", "name": name}]}


@functools.cache  # built on first use, so importing the module does not pay for it
def _parser() -> argparse.ArgumentParser:
    """The command line parser, one per process; parsing leaves it unchanged."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

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
            _require(math.isfinite(args.tol_scale) and args.tol_scale > 0,
                     f"must be finite and > 0, got {args.tol_scale!r}", "--tol-scale")
            if args.preset:
                _require(args.preset in PRESETS, f"unknown preset {args.preset!r}", "--preset")
                data = preset_scenario(args.preset)
            else:
                _require(args.scenario, "need a scenario file or --preset")
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
