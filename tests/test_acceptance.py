"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, straight from the contract.
"""

import math
import time

import numpy as np

from potkit import green, kernels, zeros
from potkit.cli import preset_scenario, run_scenario
from potkit.fields import GridField, ScalarField, riesz_measure
from potkit.geometry import GridDomain, point
from potkit.measures import Atom, BallUniform, Measure, SphereUniform, integrate
from potkit.potentials import asymptotic_check
from potkit.presets import PRESETS, run_preset


def _report(num, name, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {num}: {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num}: {name} {detail}"


def test_criterion_1_kernel_constants():
    t0 = time.monotonic()
    ok = True
    for d in range(1, 9):
        want = math.gamma(d / 2.0) / (2.0 * math.pi ** (d / 2.0) * max(1, d - 2))
        ok &= abs(kernels.riesz_normalizer(d) - want) <= 1e-13
    b_expect = {0: 1.0, 1: 2.0, 2: math.pi, 3: 4 * math.pi / 3,
                4: math.pi ** 2 / 2, 5: 8 * math.pi ** 2 / 15}
    for p, want in b_expect.items():
        ok &= abs(kernels.unit_ball_volume(p) - want) <= 1e-12 * want
    rng = np.random.default_rng(0)
    qs = rng.uniform(-2, 3, 10_000)
    t1 = rng.uniform(1e-3, 1e3, 10_000)
    t2 = t1 * (1.0 + rng.uniform(1e-6, 1.0, 10_000))
    for q, a, b in zip(qs, t1, t2):
        if kernels.k_eval(q, a) >= kernels.k_eval(q, b):
            ok = False
            break
    elapsed = time.monotonic() - t0
    _report(1, "kernel/constant suite", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_potential_asymptotics():
    t0 = time.monotonic()
    measures_list = [
        Measure(2, [Atom(point(0, 0), 1.0)]),
        Measure(2, [Atom(point(1, 0), 1.0)]),
        Measure(2, [SphereUniform(point(0.2, 0.1), 0.5, 2.0)]),
        Measure(3, [Atom(point(0.5, 0, 0), 1.0), Atom(point(-0.5, 0, 0), 1.0)]),
        Measure(3, [BallUniform(point(0, 0.3, 0), 0.4, 1.5)]),
    ]
    ok = True
    for mu in measures_list:
        rep = asymptotic_check(mu, [10, 20, 40])
        ok &= rep.passed
    elapsed = time.monotonic() - t0
    _report(2, "potential asymptotics bounded across doublings",
            ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_3_green_harmonic_measure():
    g = green.green_ball(point(0, 0), 1.0, point(0, 0))
    ok = abs(g(point(0.5, 0)) - math.log(2)) <= 1e-9

    om = green.harmonic_measure(g, point(0.5, 0))
    probes = [
        (ScalarField.constant(1.0), 1.0),
        (ScalarField(lambda p: p[:, 0]), 0.5),
        (ScalarField(lambda p: p[:, 1]), 0.0),
        (ScalarField(lambda p: p[:, 0] ** 2 - p[:, 1] ** 2), 0.25),
        (ScalarField(lambda p: 2 * p[:, 0] * p[:, 1]), 0.0),
        (ScalarField(lambda p: p[:, 0] ** 3 - 3 * p[:, 0] * p[:, 1] ** 2), 0.125),
    ]
    for h, want in probes:
        ok &= abs(integrate(om, h) - want) <= 1e-8

    om0 = green.harmonic_measure(g, point(0, 0))
    rng = np.random.default_rng(1)
    worst = -math.inf
    for _ in range(20):
        a = rng.uniform(-0.7, 0.7, 2)
        u = ScalarField.log_distance(a)
        margin = u(point(0, 0)) - integrate(om0, u)
        worst = max(worst, margin)
    ok &= worst <= 1e-8
    _report(3, "green/harmonic-measure suite", ok, f"jensen margin {worst:.2e}")


def test_criterion_4_poisson_jensen_12_instances():
    t0 = time.monotonic()
    checks, _ = run_preset("pj-suite", seed=0)
    ok = all(c.passed for c in checks)
    rows = checks[0].margins
    classical = [r for r in rows if r[0].startswith("classical")]
    ok &= bool(classical) and classical[0][4]
    elapsed = time.monotonic() - t0
    _report(4, "generalized Poisson-Jensen on 12 instances",
            ok and elapsed < 30.0, f"{elapsed:.1f}s, worst rel "
            f"{checks[0].data['worst_relative']:.2e}")


def test_criterion_5_gluing_suite():
    checks_a, _ = run_preset("glue-basic", seed=0)
    checks_b, _ = run_preset("glue-green", seed=0)
    ok = all(c.passed for c in checks_a + checks_b)
    names = [c.name for c in checks_b]
    ok &= any("500-probe" in n for n in names)
    ok &= any("pole-ratio fit" in n for n in names)
    _report(5, "gluing suite (sub-mean probes, growth bounds, pole fit)", ok)


def test_criterion_6_balayage_suite():
    checks_a, _ = run_preset("balayage-mass", seed=0)
    checks_b, _ = run_preset("lyons-example", seed=0)
    ok = all(c.passed for c in checks_a + checks_b)
    _report(6, "balayage suite (mass identities, Lyons contrast, closure)", ok)


def test_criterion_7_duality_roundtrip():
    checks, _ = run_preset("duality-roundtrip", seed=0)
    ok = all(c.passed for c in checks)
    _report(7, "duality round-trip at h=0.02 -> 0.01 with domination", ok)


def test_criterion_8_riesz_recovery_and_poincare_lelong():
    grid = GridDomain(point(-1, -1), 0.02, np.ones((101, 101), bool))
    sq = ScalarField(lambda p: np.sum(p ** 2, axis=1))
    rec = riesz_measure(GridField.sample(sq, grid))
    dens = np.asarray(rec.components[0].values) / grid.spacing ** grid.dimension
    live = dens != 0
    ok = np.max(np.abs(dens[live] - 2.0 / math.pi)) <= 1e-8

    f = zeros.HoloFunction.polynomial([1, -(0.31 + 0.172j)])
    errs = []
    for h in (0.02, 0.01):
        n = int(round(1.6 / h)) + 1
        g = GridDomain(point(-0.803, -0.803), h, np.ones((n, n), bool))
        w = max(1, int(round(0.05 / h)))
        rep = zeros.poincare_lelong_check(f, g, window=w, rel_tol=1.0)
        errs.append(rep.rows[0][3])
    ok &= errs[1] <= 0.05  # 5 percent at h=0.01
    ok &= errs[1] <= 0.5 * errs[0] * 1.2  # halving trend (with slack)
    _report(8, "Riesz recovery and Poincare-Lelong refinement", ok,
            f"density exact, window errs {errs[0]:.4f} -> {errs[1]:.4f}")


def test_criterion_9_zeros_criteria():
    t0 = time.monotonic()
    ok = True
    for name in ("zeros-polynomial", "zeros-blaschke", "zeros-adversarial"):
        checks, _ = run_preset(name, seed=0)
        ok &= all(c.passed for c in checks)
    elapsed = time.monotonic() - t0
    _report(9, "zeros criteria suites", ok and elapsed < 300.0, f"{elapsed:.1f}s")


def test_criterion_10_cli_determinism(tmp_path):
    ok = True
    for name in PRESETS:
        data = preset_scenario(name)
        out_a = tmp_path / name / "a"
        out_b = tmp_path / name / "b"
        run_scenario(data, seed=0, grid=128, tol_scale=1.0, out_dir=out_a)
        run_scenario(data, seed=0, grid=128, tol_scale=1.0, out_dir=out_b)
        if (out_a / "verdicts.json").read_bytes() != (out_b / "verdicts.json").read_bytes():
            ok = False
            print(f"  nondeterministic: {name}")
    _report(10, "CLI determinism (byte-identical verdicts per preset)", ok)
