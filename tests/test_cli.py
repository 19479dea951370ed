import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import potkit
from potkit.cli import main, preset_scenario, run_scenario
from potkit.presets import PRESETS, preset_table


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
    # scipy.ndimage is most of a cold CLI start; only grid work imports it
    path = [str(Path(potkit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    code = "import sys, potkit.cli; print('scipy.ndimage' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
