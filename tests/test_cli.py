import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import potkit
from potkit import balayage as bal
from potkit.cli import main, preset_scenario, run_scenario
from potkit.measures import IndeterminateIntegral
from potkit.presets import PRESETS, preset_table
from potkit.verdict import Verdict


def run_cli(args):
    return main(list(args))


def test_list_presets_count(capsys):
    assert run_cli(["list-presets"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 12


def test_list_presets_zeros_tag(capsys):
    assert run_cli(["list-presets", "--tag", "zeros"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3


def test_list_presets_json(capsys):
    assert run_cli(["list-presets", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["name"] for r in rows} == set(PRESETS)


def test_preset_table_descriptions():
    for row in preset_table():
        assert row["description"] and row["tags"]


def test_run_preset_exit_zero(tmp_path, capsys):
    code = run_cli(["run", "--preset", "green-ball", "--seed", "0",
                    "--out", str(tmp_path)])
    assert code == 0
    verdicts = json.loads((tmp_path / "verdicts.json").read_text())
    assert verdicts["pass"] is True
    assert (tmp_path / "margins.csv").exists()


def test_malformed_scenario_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["run", str(bad)]) == 2
    wrong_schema = tmp_path / "wrong.json"
    wrong_schema.write_text(json.dumps({"schema": 99, "checks": [{}]}))
    assert run_cli(["run", str(wrong_schema)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"schema": 1, "checks": [{"type": "nope"}]}))
    assert run_cli(["run", str(unknown)]) == 2
    assert run_cli(["run", "--preset", "not-a-preset"]) == 2


def test_failing_check_exit_one(tmp_path, capsys):
    # delta_0 vs a shifted atom cannot pass the harmonic-kernel equalities
    scenario = {
        "schema": 1,
        "name": "expected-failure",
        "measures": {
            "theta": {"kind": "dirac", "point": [0.0, 0.0]},
            "mu": {"kind": "dirac", "point": [0.5, 0.0]},
        },
        "family": {"kind": "harmonic-kernels",
                   "S": {"type": "ball", "center": [0, 0], "radius": 1.0},
                   "ring_radius": 1.5, "count": 10},
        "checks": [{"type": "check-linear", "theta": "theta", "mu": "mu"}],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run_cli(["run", str(path)]) == 1
    # the same scenario with expect: fail passes
    scenario["checks"][0]["expect"] = "fail"
    path.write_text(json.dumps(scenario))
    assert run_cli(["run", str(path)]) == 0


def test_custom_poisson_jensen_scenario(tmp_path):
    scenario = {
        "schema": 1,
        "name": "pj-custom",
        "measures": {
            "theta": {"kind": "dirac", "point": [0.0, 0.0]},
            "mu": {"kind": "harmonic-measure", "center": [0, 0], "radius": 1.0,
                   "x": [0.0, 0.0]},
            "riesz": {"kind": "dirac", "point": [0.5, 0.0]},
        },
        "fields": {"u": {"kind": "log-distance", "point": [0.5, 0.0]}},
        "checks": [{"type": "poisson-jensen", "theta": "theta", "mu": "mu",
                    "u": "u", "riesz_u": "riesz"}],
    }
    path = tmp_path / "pj.json"
    path.write_text(json.dumps(scenario))
    assert run_cli(["run", str(path), "--out", str(tmp_path / "out")]) == 0


def test_indeterminate_poisson_jensen_is_a_failed_verdict(tmp_path, capsys):
    # without riesz_u the hull recovery puts rounding-level mass on theta's pole
    # cell, so int pt_theta dRiesz(u) meets +inf and -inf: a failed check, exit 1
    theta = [0.235333, 0.38147]
    scenario = {
        "schema": 1,
        "name": "pj-indeterminate",
        "measures": {
            "theta": {"kind": "dirac", "point": theta},
            "mu": {"kind": "harmonic-measure", "center": [0.319162, 0.622376],
                   "radius": 0.913466, "x": theta},
        },
        "fields": {"u": {"kind": "log-distance", "point": [0.000283, 1.032003]}},
        "checks": [{"type": "poisson-jensen", "theta": "theta", "mu": "mu", "u": "u"}],
    }
    path = tmp_path / "pj.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert run_cli(["run", str(path), "--out", str(out)]) == 1
    (check,) = json.loads((out / "verdicts.json").read_text())["checks"]
    assert check["raw_pass"] is False and check["pass"] is False
    assert check["report"]["indeterminate"].startswith("poisson-jensen integrals indeterminate")


def test_determinism_single_preset(tmp_path):
    data = preset_scenario("lyons-example")
    run_scenario(data, seed=0, grid=128, tol_scale=1.0, out_dir=tmp_path / "a")
    run_scenario(data, seed=0, grid=128, tol_scale=1.0, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "verdicts.json").read_bytes()
    b = (tmp_path / "b" / "verdicts.json").read_bytes()
    assert a == b


def test_field_export(tmp_path):
    data = preset_scenario("glue-green")
    run_scenario(data, seed=0, grid=64, tol_scale=1.0, out_dir=tmp_path)
    files = list((tmp_path / "fields").glob("*.csv"))
    assert files
    header = files[0].read_text().splitlines()[0]
    assert header == "x,y,value"


def test_scenario_out_path(tmp_path):
    data = preset_scenario("green-ball")
    data["out"] = str(tmp_path / "from-scenario")
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    assert run_cli(["run", str(path)]) == 0
    assert (tmp_path / "from-scenario" / "verdicts.json").exists()


def test_console_entry_point():
    # the child must import the same potkit as this test, installed or not
    path = [str(Path(potkit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run([sys.executable, "-m", "potkit.cli", "list-presets"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 12


def test_cli_import_leaves_scipy_ndimage_unloaded():
    # the runtime is numpy alone: the grid presets (hull, pad, Riesz stencil)
    # run in a fresh interpreter without loading any scipy module
    path = [str(Path(potkit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    code = ("import sys, tempfile, potkit.cli\n"
            "for preset in ('pj-suite', 'duality-roundtrip'):\n"
            "    with tempfile.TemporaryDirectory() as out:\n"
            "        assert potkit.cli.main(['run', '--preset', preset, '--out', out]) == 0\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_scenario_test_class_family(tmp_path):
    # a generated positive test-class family: a half-weight sub-measure is
    # swept by the full harmonic measure outside the core
    scenario = {
        "schema": 1,
        "name": "family-from-class",
        "measures": {
            "theta": {"kind": "dirac", "point": [0.0, 0.0], "weight": 0.0},
            "mu": {"kind": "harmonic-measure", "center": [0, 0], "radius": 1.0,
                   "x": [0.0, 0.0]},
        },
        "family": {"kind": "test-class", "tag": "sbh00+",
                   "S_o": {"type": "ball", "center": [0, 0], "radius": 0.1},
                   "r": 0.05, "b_minus": -1.0, "b_plus": 1.0,
                   "D": {"type": "ball", "center": [0, 0], "radius": 1.0},
                   "count": 6},
        "checks": [{"type": "check-linear", "theta": "theta", "mu": "mu"}],
    }
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(scenario))
    assert run_cli(["run", str(path)]) == 0


def test_run_seed_reaches_test_class_members(tmp_path):
    # sbh00's Lyons members dig their wells where the seed puts them: at seed 1
    # one sits at about (0.37, 0.38), where theta is, and at seed 0 none does
    scenario = dict(CLASS, measures={"theta": {"kind": "dirac", "point": [0.3715, 0.3797]},
                                     "mu": {"kind": "dirac", "point": [0.0, 0.2]}})
    scenario["family"] = dict(CLASS["family"], tag="sbh00")
    path = tmp_path / "wells.json"
    path.write_text(json.dumps(scenario))
    margins = []
    for seed in ("0", "1"):
        out = tmp_path / f"out{seed}"
        assert run_cli(["run", str(path), "--seed", seed, "--out", str(out)]) in (0, 1)
        margins.append((out / "margins.csv").read_text())
    assert margins[0] != margins[1]
    lyons = [[line for line in m.splitlines() if "lyons" in line] for m in margins]
    assert len(lyons[0]) == 2 and lyons[0] != lyons[1]
    # lhs of lyons[0]: theta is in a well (negative) at seed 1 only
    assert float(lyons[1][0].split(",")[2]) < 0 < float(lyons[0][0].split(",")[2])


def _family_scenario(family):
    return {
        "schema": 1,
        "name": "family-domain",
        "measures": {"theta": {"kind": "dirac", "point": [0.0, 0.0]},
                     "mu": {"kind": "dirac", "point": [0.1, 0.0]}},
        "family": family,
        "checks": [{"type": "check-linear", "theta": "theta", "mu": "mu"}],
    }


ANNULUS = {"type": "annulus", "center": [0, 0], "r_in": 0.5, "r_out": 1.0}


def test_annulus_kernel_family_is_a_schema_error(tmp_path, capsys):
    # scenario domains are balls: an annulus S exits 2 and names its path
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(_family_scenario(
        {"kind": "harmonic-kernels", "S": ANNULUS, "count": 6})))
    assert run_cli(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "checks[0].family.S" in err and "annulus" in err and "Traceback" not in err


def test_annulus_test_class_domain_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "class.json"
    path.write_text(json.dumps(_family_scenario(
        {"kind": "test-class", "tag": "sbh00+",
         "S_o": {"type": "ball", "center": [0, 0], "radius": 0.1},
         "r": 0.05, "b_minus": -1.0, "b_plus": 1.0, "D": ANNULUS, "count": 6})))
    assert run_cli(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "checks[0].family.D" in err and "annulus" in err and "Traceback" not in err


@pytest.mark.parametrize("radius", [None, -1.0, math.nan])
def test_malformed_ball_is_a_schema_error(tmp_path, capsys, radius):
    S = {"type": "ball", "center": [0, 0]}
    if radius is not None:
        S["radius"] = radius
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(_family_scenario({"kind": "harmonic-kernels", "S": S})))
    assert run_cli(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "checks[0].family.S" in err and "radius" in err and "Traceback" not in err


def _harmonic_measure_scenario(mu):
    return {"schema": 1, "name": "sweep",
            "measures": {"theta": {"kind": "dirac", "point": [0.2, 0.1]}, "mu": mu},
            "family": {"kind": "harmonic-kernels",
                       "S": {"type": "ball", "center": [0, 0], "radius": 1.0}, "count": 40},
            "checks": [{"type": "check-linear", "theta": "theta", "mu": "mu"}]}


@pytest.mark.parametrize("change", [
    {"radius": math.nan}, {"radius": -1.0}, {"radius": math.inf}, {"radius": None},
    {"center": [0, math.nan]}, {"x": [2.0, 0.0]}, {"x": [0.1, 0.0, 0.0]},
    {"x": [math.nan, 0.0]}, {"x": "origin"}, {"x": None}])
def test_malformed_harmonic_measure_is_a_schema_error(tmp_path, capsys, change):
    mu = {"kind": "harmonic-measure", "center": [0, 0], "radius": 1.0, "x": [0.2, 0.1]}
    mu.update(change)
    mu = {k: v for k, v in mu.items() if v is not None}
    path = tmp_path / "hm.json"
    path.write_text(json.dumps(_harmonic_measure_scenario(mu)))
    assert run_cli(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "checks[0].mu" in err and "Traceback" not in err


def test_sweep_scenario_bytes_survive_other_runs(tmp_path, capsys):
    # layer clouds live on the run's own measures: nothing carries over between runs
    first = tmp_path / "first.json"
    first.write_text(json.dumps(_harmonic_measure_scenario(
        {"kind": "harmonic-measure", "center": [0, 0], "radius": 1.0, "x": [0.2, 0.1]})))
    other = tmp_path / "other.json"
    other.write_text(json.dumps(_harmonic_measure_scenario(
        {"kind": "harmonic-measure", "center": [0, 0], "radius": 1.0, "x": [-0.3, 0.4]})))
    outs = []
    for k, path in enumerate((first, other, first)):
        out = tmp_path / f"out{k}"
        assert run_cli(["run", str(path), "--seed", "1", "--out", str(out)]) in (0, 1)
        outs.append((out / "verdicts.json").read_bytes())
    assert outs[0] == outs[2] and outs[0] != outs[1]
    assert json.loads(outs[0])["pass"] is True


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--grid", "-4"), ("--grid", "0")])
def test_bad_seed_or_grid_flag_is_a_schema_error(tmp_path, capsys, flag, value):
    code = run_cli(["run", "--preset", "green-ball", flag, value, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("key, value", [
    ("seed", "x"), ("grid", "abc"), ("seed", 1.5), ("seed", -1), ("grid", 0), ("grid", -4),
    ("seed", True), ("grid", True)])
def test_bad_seed_or_grid_key_is_a_schema_error(tmp_path, capsys, key, value):
    data = preset_scenario("green-ball")
    data[key] = value
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    assert run_cli(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{key}:" in err and repr(value) in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_seed_and_grid_keys_override_the_flags(tmp_path):
    data = preset_scenario("green-ball")
    data.update(seed=1, grid=16)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    assert run_cli(["run", str(path), "--seed", "0", "--out", str(tmp_path / "out")]) == 0
    verdicts = json.loads((tmp_path / "out" / "verdicts.json").read_text())
    assert (verdicts["seed"], verdicts["grid"]) == (1, 16)
    rows = (tmp_path / "out" / "fields" / "green_field.csv").read_text().splitlines()
    assert len(rows) == 1 + 16 * 16


@pytest.mark.parametrize("value", ["inf", "-1", "0", "nan"])
def test_bad_tol_scale_flag_is_a_schema_error(tmp_path, capsys, value):
    code = run_cli(["run", "--preset", "green-ball", "--tol-scale", value,
                    "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: --tol-scale:" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_finite_positive_tol_scale_still_runs(tmp_path):
    assert run_cli(["run", "--preset", "green-ball", "--tol-scale", "3",
                    "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "verdicts.json").read_text())["tol_scale"] == 3.0


def test_main_builds_one_parser_and_each_call_parses_its_own_flags(tmp_path):
    from potkit import cli

    cli._parser.cache_clear()
    assert run_cli(["run", "--preset", "green-ball", "--tol-scale", "3", "--seed", "2",
                    "--out", str(tmp_path / "a")]) == 0
    assert run_cli(["run", "--preset", "green-ball", "--out", str(tmp_path / "b")]) == 0
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    written = [json.loads((tmp_path / d / "verdicts.json").read_text()) for d in "ab"]
    assert [(v["tol_scale"], v["seed"]) for v in written] == [(3.0, 2), (1.0, 0)]


def test_non_string_out_key_is_a_schema_error(tmp_path, capsys, monkeypatch):
    data = preset_scenario("green-ball")
    data["out"] = 5
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    assert run_cli(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "out must be a string, got 5" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]


@pytest.mark.parametrize("value", ["", None])
def test_empty_or_missing_out_key_writes_nothing(tmp_path, monkeypatch, value):
    data = preset_scenario("green-ball")
    if value is not None:
        data["out"] = value
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    assert run_cli(["run", str(path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]


SWEEP = {"schema": 1, "name": "sweep",
         "measures": {"theta": {"kind": "dirac", "point": [0.0, 0.0]},
                      "mu": {"kind": "dirac", "point": [0.5, 0.0]}},
         "family": {"kind": "harmonic-kernels",
                    "S": {"type": "ball", "center": [0, 0], "radius": 1.0}, "count": 20},
         "checks": [{"type": "check-linear", "theta": "theta", "mu": "mu"}]}
CLASS = dict(SWEEP, family={"kind": "test-class", "tag": "sbh00+",
                            "S_o": {"type": "ball", "center": [0, 0], "radius": 0.1},
                            "r": 0.05, "b_minus": -1.0, "b_plus": 1.0,
                            "D": {"type": "ball", "center": [0, 0], "radius": 1.0},
                            "count": 6})
PJ = {"schema": 1, "name": "pj",
      "measures": {"theta": {"kind": "dirac", "point": [0.0, 0.0]},
                   "mu": {"kind": "harmonic-measure", "center": [0, 0], "radius": 1.0,
                          "x": [0.0, 0.0]},
                   "riesz": {"kind": "dirac", "point": [0.5, 0.0]}},
      "fields": {"u": {"kind": "log-distance", "point": [0.5, 0.0]}},
      "checks": [{"type": "poisson-jensen", "theta": "theta", "mu": "mu",
                  "u": "u", "riesz_u": "riesz"}]}
PJ_CONSTANT = dict(PJ, fields={"u": {"kind": "constant", "value": 1.0}})
# mu as Measure.to_json writes it: a measure with no kind lists its components
COMPONENTS = dict(SWEEP, measures=dict(SWEEP["measures"], mu={
    "dimension": 2, "components": [{"type": "atom", "point": [0.5, 0.0], "weight": 1.0}]}))
MISSING = object()  # a case value that deletes its key


@pytest.mark.parametrize("base, keys, value, where", [
    # a family of no members would pass vacuously, and a fraction is no count
    (SWEEP, ("family", "count"), 0, "checks[0].family.count"),
    (SWEEP, ("family", "count"), -3, "checks[0].family.count"),
    (SWEEP, ("family", "count"), 1.7, "checks[0].family.count"),
    (SWEEP, ("family", "count"), "x", "checks[0].family.count"),
    (CLASS, ("family", "count"), 0, "checks[0].family.count"),
    (SWEEP, ("family", "ring_radius"), "far", "checks[0].family.ring_radius"),
    (SWEEP, ("family", "ring_radius"), 0.5, "checks[0].family.ring_radius"),
    (SWEEP, ("measures", "theta", "point"), "ab", "checks[0].theta.point"),
    (SWEEP, ("measures", "theta", "weight"), "x", "checks[0].theta.weight"),
    (SWEEP, ("checks", 0, "theta"), "nope", "checks[0].theta"),
    (PJ, ("fields", "u", "point"), "zz", "checks[0].u.point"),
    (PJ, ("checks", 0, "u"), "nofield", "checks[0].u"),
    # a test-class family outside its class constraints
    (CLASS, ("family", "tag"), "nope", "checks[0].family.tag"),
    (CLASS, ("family", "r"), 0.5, "checks[0].family.r"),  # 3r past the boundary of D
    (CLASS, ("family", "r"), 0, "checks[0].family.r"),
    (CLASS, ("family", "b_minus"), 0.5, "checks[0].family.b_minus"),
    (CLASS, ("family", "D", "center"), [0.0, 0.0, 0.0], "checks[0].family.D.center"),
    # a required key that is missing fails the check of its value
    (CLASS, ("family", "tag"), MISSING, "checks[0].family.tag"),
    (CLASS, ("family", "r"), MISSING, "checks[0].family.r"),
    (CLASS, ("family", "S_o"), MISSING, "checks[0].family.S_o"),
    (SWEEP, ("family", "S"), MISSING, "checks[0].family.S"),
    (PJ, ("fields", "u", "point"), MISSING, "checks[0].u.point"),
    (PJ_CONSTANT, ("fields", "u", "value"), MISSING, "checks[0].u.value"),
    # a measure with no kind is a list of components
    (PJ, ("measures", "mu", "kind"), MISSING, "checks[0].mu.components"),
    (COMPONENTS, ("measures", "mu", "components"), "x", "checks[0].mu.components"),
    (COMPONENTS, ("measures", "mu", "dimension"), MISSING, "checks[0].mu.dimension"),
    (COMPONENTS, ("measures", "mu", "components", 0, "type"), "ring",
     "checks[0].mu.components[0]"),
    (COMPONENTS, ("measures", "mu", "components", 0, "type"), [],
     "checks[0].mu.components[0]"),
    (COMPONENTS, ("measures", "mu", "components", 0, "weight"), MISSING,
     "checks[0].mu.components[0]"),
    (COMPONENTS, ("measures", "mu", "components", 0, "weight"), "x",
     "checks[0].mu.components[0]"),
    # a number whose square or cube overflows
    (SWEEP, ("family", "S", "center", 0), 1e300, "checks[0].family.S.center[0]"),
    (PJ, ("measures", "theta", "point", 0), -1e300, "checks[0].theta.point[0]"),
    (PJ, ("measures", "mu", "radius"), 1e300, "checks[0].mu.radius"),
    (COMPONENTS, ("measures", "mu", "components", 0, "point", 0), 1e300,
     "checks[0].mu.components[0].point[0]"),
])
def test_malformed_value_is_a_schema_error_at_its_path(tmp_path, capsys, base, keys, value,
                                                       where):
    data = json.loads(json.dumps(base))
    spec = data
    for key in keys[:-1]:
        spec = spec[key]
    if value is MISSING:
        del spec[keys[-1]]
    else:
        spec[keys[-1]] = value
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    assert run_cli(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{where}:" in err and "Traceback" not in err
    assert value is MISSING or repr(value) in err


def test_component_measure_is_its_dirac(tmp_path):
    # an atom entry with no measure kind builds the charge the dirac kind builds
    codes, outs = [], []
    for k, data in enumerate((SWEEP, COMPONENTS)):
        path, out = tmp_path / f"s{k}.json", tmp_path / f"out{k}"
        path.write_text(json.dumps(data))
        codes.append(run_cli(["run", str(path), "--out", str(out)]))
        outs.append((out / "margins.csv").read_bytes())
    assert codes == [1, 1]  # mu is no balayage of theta
    assert outs[0] == outs[1] and len(outs[0].splitlines()) > 1


@pytest.mark.parametrize("base, keys, value, where", [
    # theta is the first object read, so a theta of its own dimension fails at mu
    (SWEEP, ("measures", "theta", "point"), [0.0], "checks[0].mu"),
    (SWEEP, ("family", "S", "center"), [0.0], "checks[0].family.S.center"),
    (CLASS, ("family", "S_o", "center"), [0.0], "checks[0].family.S_o.center"),
    (PJ, ("measures", "theta", "point"), [0.0], "checks[0].mu"),
    (PJ, ("measures", "riesz", "point"), [0.5], "checks[0].riesz_u"),
    (PJ, ("fields", "u", "point"), [0.5, 0.0, 0.0], "checks[0].u.point"),
    # a component of another dimension than its measure
    (COMPONENTS, ("measures", "mu", "dimension"), 3, "checks[0].mu.components[0]"),
])
def test_mixed_dimensions_are_a_schema_error_at_the_first_that_differs(
        tmp_path, capsys, base, keys, value, where):
    data = json.loads(json.dumps(base))
    spec = data
    for key in keys[:-1]:
        spec = spec[key]
    spec[keys[-1]] = value
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    assert run_cli(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{where}: must have the dimension" in err and "Traceback" not in err


@pytest.mark.parametrize("base, keys, value, where, message", [
    (SWEEP, ("family", "S", "center", 0), 1e99, "checks[0].family",
     "ValueError('probe point"),  # the ring of kernel poles falls in clos S
    (CLASS, ("family", "count"), 24, "checks[0].family",
     "ValueError('member ridge"),  # a member fails compact support near bd D
    (PJ, ("measures", "mu"), {"kind": "harmonic-measure", "center": [0, 0, 0, 0],
                              "radius": 1.0, "x": [0, 0, 0, 0]},
     "checks[0].mu", "NotImplementedError('Green models"),
    (CLASS, ("family", "S_o", "radius"), 1e-300, "checks[0].family",
     "ValueError('sup of the Green"),  # the boundary of S_o falls on its center
])
def test_objects_their_constructor_refuses_are_schema_errors(tmp_path, capsys, base, keys,
                                                             value, where, message):
    data = json.loads(json.dumps(base))
    spec = data
    for key in keys[:-1]:
        spec = spec[key]
    spec[keys[-1]] = value
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    assert run_cli(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{where}: cannot build it: {message}" in err and "Traceback" not in err


def test_failed_certification_is_a_failed_verdict(tmp_path, capsys):
    # perfbench's s096-pj-pass of seed 0 with theta's y negated: mu, the harmonic
    # measure of the reflected point, is no har-balayage of theta
    scenario = {
        "schema": 1,
        "name": "pj-not-swept",
        "measures": {
            "theta": {"kind": "dirac", "point": [0.142999, -0.168709]},
            "mu": {"kind": "harmonic-measure", "center": [-0.070904, -0.036259],
                   "radius": 0.844687, "x": [0.142999, 0.168709]},
            "riesz": {"kind": "dirac", "point": [-0.062022, -0.063891]},
        },
        "fields": {"u": {"kind": "log-distance", "point": [-0.062022, -0.063891]}},
        "checks": [{"type": "poisson-jensen", "theta": "theta", "mu": "mu", "u": "u",
                    "riesz_u": "riesz"}],
    }
    path = tmp_path / "pj.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert run_cli(["run", str(path), "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    (check,) = json.loads((out / "verdicts.json").read_text())["checks"]
    assert check["raw_pass"] is False and check["pass"] is False
    assert check["report"]["certification"] == (
        "har-balayage certification failed (witness k+[5])")


# -- presets whose check fails return failed verdicts --------------------------
# Each failure is forced by a monkeypatch: no preset fails at seeds 0 or 1.


_check_linear = bal.check_linear


def _failed_certification(theta, mu, family, tol_scale=1e-7):
    """check_linear, failing every har-balayage (harmonic-kernel) certification."""
    if family.tag == "harmonic-kernels":
        return Verdict("check-linear", False, [], {"witness": "forced"})
    return _check_linear(theta, mu, family, tol_scale)


def _indeterminate(*args, **kwargs):
    raise IndeterminateIntegral("forced")


def _run_failing_preset(name, tmp_path, capsys):
    """Run the preset through the CLI; its verdicts with exit 1 and no traceback."""
    out = tmp_path / "out"
    assert run_cli(["run", "--preset", name, "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    (run,) = json.loads((out / "verdicts.json").read_text())["checks"]
    assert run["raw_pass"] is False and run["pass"] is False
    assert (out / "margins.csv").exists()
    return run["checks"]


@pytest.mark.parametrize("target, replacement, reason", [
    ("potkit.balayage.check_linear", _failed_certification, "certification"),
    ("potkit.duality.integrate", _indeterminate, "indeterminate"),
])
def test_failed_poisson_jensen_presets_return_verdicts(tmp_path, capsys, monkeypatch,
                                                       target, replacement, reason):
    monkeypatch.setattr(target, replacement)
    checks = _run_failing_preset("classical-pj", tmp_path, capsys)
    assert [c["pass"] for c in checks] == [False, False]
    assert all(reason in c["data"] for c in checks)

    (suite,) = _run_failing_preset("pj-suite", tmp_path, capsys)
    assert suite["pass"] is False
    assert len(suite["data"]["reasons"]) == 12
    assert all(reason in r for r in suite["data"]["reasons"].values())
    rows = (tmp_path / "out" / "margins.csv").read_text().splitlines()[1:]
    assert len(rows) == 12 and all(line.endswith(",nan,nan,nan,False") for line in rows)


def test_uncertified_roundtrip_potentials_return_verdicts(tmp_path, capsys, monkeypatch):
    from potkit import duality

    certify = duality._certify

    def jensen_fails(mu, x, kind, D, seed):
        if kind == "jensen":
            raise duality.CertificationError("jensen certification failed (forced)")
        return certify(mu, x, kind, D, seed)

    monkeypatch.setattr(duality, "_certify", jensen_fails)
    checks = _run_failing_preset("duality-roundtrip", tmp_path, capsys)
    assert [c["pass"] for c in checks] == [False] * 4
    for c in checks[:2]:
        assert sorted(c["data"]["certification"]) == [f"jensen[{i}]" for i in range(5)]
    for c in checks[2:]:
        assert c["data"]["certification"] == "jensen certification failed (forced)"
    margins = (tmp_path / "out" / "margins.csv").read_text().splitlines()[1:]
    assert len(margins) == 20
    assert all((",nan," in line) == ("jensen[" in line) for line in margins)


def test_roundtrip_pole_coefficient_above_one_is_a_failed_verdict(tmp_path, capsys,
                                                                  monkeypatch):
    from potkit import duality

    def too_steep(V, green, **kwargs):
        raise ValueError("pole coefficient 1.2 exceeds 1")

    monkeypatch.setattr(duality, "phragmen_lindelof_bound", too_steep)
    checks = _run_failing_preset("duality-roundtrip", tmp_path, capsys)
    assert [c["pass"] for c in checks] == [True, True, False, True]
    assert checks[2]["data"] == {"rejected": "pole coefficient 1.2 exceeds 1"}
