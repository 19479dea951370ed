import math

import numpy as np
import pytest

from potkit import green
from potkit.fields import GridField, ScalarField, riesz_measure, sphere_average
from potkit.geometry import Ball, GridDomain, point
from potkit.kernels import KernelConfig
from potkit.measures import (Atom, BallUniform, Measure, SphereUniform, integrate,
                             total_mass)
from potkit.potentials import (asymptotic_check, difference_potential,
                               lower_bound_check, potential)


def atom(x, w=1.0):
    return Measure(len(x), [Atom(np.asarray(x, float), w)])


def test_potential_single_atom():
    pt = potential(atom((0.0, 0.0)), KernelConfig(2))
    assert pt(point(2, 0)) == pytest.approx(math.log(2), rel=1e-14)
    assert pt(point(0, 0)) == -math.inf
    pt3 = potential(Measure(3, [Atom(point(0, 0, 0), 1.0)]), KernelConfig(3))
    assert pt3(point(2, 0, 0)) == -0.5


def test_potential_sphere_layer_closed_vs_quadrature():
    # implementation: Newton closed form; oracle: spec quadrature route
    mu = Measure(2, [SphereUniform(point(0, 0), 1.0, 1.0)])
    pt = potential(mu, KernelConfig(2))
    assert pt(point(0.5, 0)) == 0.0
    assert pt(point(2, 0)) == pytest.approx(math.log(2), rel=1e-14)
    for y in (point(0.5, 0.2), point(1.7, -0.4)):
        quad = integrate(mu, ScalarField.kernel(2, y))
        assert pt(y) == pytest.approx(quad, abs=1e-9)


def test_potential_ball_layer_closed_vs_quadrature():
    mu = Measure(2, [BallUniform(point(0, 0), 0.7, 1.0)])
    pt = potential(mu, KernelConfig(2))
    y_out = point(1.5, 0.5)
    assert pt(y_out) == pytest.approx(math.log(np.hypot(1.5, 0.5)), rel=1e-12)
    y_in = point(0.3, -0.2)
    quad = integrate(mu, ScalarField.kernel(2, y_in))
    assert pt(y_in) == pytest.approx(quad, abs=1e-3)  # quadrature is the rough side


def test_tagged_evaluation():
    mu = atom((0.0, 0.0), 1.0) + atom((1.0, 0.0), -1.0)
    pt = potential(mu, KernelConfig(2))
    assert pt.evaluate_tagged(point(0, 0)).tag == "-inf"
    assert pt.evaluate_tagged(point(1, 0)).tag == "+inf"
    assert pt.evaluate_tagged(point(0.5, 0)).tag == "finite"


def test_difference_potential_green_identity():
    # pt_{omega - delta} equals the Green function inside, 0 outside
    g = green.green_ball(point(0, 0), 1.0, point(0, 0), 2)
    om = green.harmonic_measure(g, point(0, 0))
    diff = difference_potential(om, atom((0.0, 0.0)), KernelConfig(2))
    assert diff(point(0.5, 0)) == pytest.approx(math.log(2), abs=1e-12)
    assert diff(point(1.5, 0)) == 0.0
    assert diff.value_at_infinity == 0.0
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(-0.95, 0.95, 2)
        if np.linalg.norm(x) < 1e-3:
            continue
        assert diff(x) == pytest.approx(g(x), abs=1e-9)


def test_difference_potential_decay():
    # equal masses: |pt_{mu-theta}(x)| <= C / |x|^{d-1} sampled at 10 and 100
    mu = Measure(2, [SphereUniform(point(0, 0), 0.5, 1.0)])
    th = atom((0.2, 0.1))
    diff = difference_potential(mu, th, KernelConfig(2))
    v10 = abs(diff(point(10, 0)))
    v100 = abs(diff(point(100, 0)))
    assert v100 <= v10 * (10.0 / 100.0) * 3.0  # 1/|x| decay with slack
    assert diff(atom((0.0, 0.0)).components[0].point + 1e9) is not None


def test_asymptotic_check_examples():
    cfg = KernelConfig(2)
    rep0 = asymptotic_check(atom((0.0, 0.0)), [10, 20, 40], cfg)
    assert rep0.passed and max(r.lhs for r in rep0.rows) <= 1e-10

    rep1 = asymptotic_check(atom((1.0, 0.0)), [10, 20, 40], cfg)
    assert rep1.passed
    for a, b in zip(rep1.rows, rep1.rows[1:]):
        assert b.lhs <= 1.1 * max(a.lhs, 1e-10)

    mu3 = Measure(3, [Atom(point(0.5, 0, 0), 1.0), Atom(point(-0.5, 0, 0), 1.0)])
    rep3 = asymptotic_check(mu3, [10, 20, 40], KernelConfig(3))
    assert rep3.passed


def test_asymptotic_check_fails_on_nan_error():
    # a nan-weight atom makes every scaled error nan, which must not pass
    rep = asymptotic_check(atom((1.0, 0.0), math.nan), [10, 20, 40], KernelConfig(2))
    assert all(math.isnan(r.lhs) for r in rep.rows)
    assert not rep.passed


def test_asymptotic_check_radius_precondition():
    with pytest.raises(ValueError):
        asymptotic_check(atom((8.0, 0.0)), [10, 20], KernelConfig(2))


def test_lower_bound_check_examples():
    # dist(L, p) = 1 gives bound 0 in d=2
    mu = atom((2.0, 0.0))
    L = Ball(point(0, 0), 1.0)
    rep = lower_bound_check(mu, L)
    assert rep.passed and rep.data["bound"] == 0.0

    mu2 = Measure(2, [SphereUniform(point(0, 0), 2.0, 1.0)])
    rep2 = lower_bound_check(mu2, L)
    assert rep2.passed and rep2.data["bound"] == pytest.approx(0.0, abs=1e-12)
    assert rep2.data["observed_inf"] >= -1e-9

    rep3 = lower_bound_check(mu2, L, o=point(3, 0))
    assert rep3.data["variant"] == "difference"
    assert rep3.data["bound"] == pytest.approx(-math.log(4), abs=1e-9)
    assert rep3.passed


def test_potential_linearity():
    cfg = KernelConfig(2)
    mu = Measure(2, [SphereUniform(point(0, 0), 0.5, 1.0)])
    th = Measure(2, [BallUniform(point(0.2, 0), 0.3, 1.0)])
    a, b = 2.0, 3.0
    combo = potential(mu.scaled(a) + th.scaled(b), cfg)
    pa, pb = potential(mu, cfg), potential(th, cfg)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2, 2, size=(200, 2))
    lhs = combo.evaluate_array(pts)
    rhs = a * pa.evaluate_array(pts) + b * pb.evaluate_array(pts)
    ok = np.isfinite(lhs) & np.isfinite(rhs)
    assert np.max(np.abs(lhs[ok] - rhs[ok])) <= 1e-9


def test_potential_harmonic_off_support():
    mu = Measure(2, [SphereUniform(point(0, 0), 0.5, 1.0), Atom(point(0.2, 0), 0.5)])
    pt = potential(mu, KernelConfig(2))
    rng = np.random.default_rng(2)
    count = 0
    while count < 25:
        x = rng.uniform(-3, 3, 2)
        r = 0.1 + 0.2 * rng.random()
        if np.linalg.norm(x) < 0.7 + 2 * r:  # stay clear of the support
            continue
        count += 1
        assert abs(pt(x) - sphere_average(pt, x, r)) <= 1e-7


def test_riesz_consistency_for_grid_charge():
    # atom-free charge: riesz of the sampled potential recovers the mass
    from potkit.measures import Mollifier, convolve_balayage

    beta = convolve_balayage(atom((0.0, 0.0)), Mollifier(0.25, 2), Ball(point(0, 0), 1.0))
    pt = potential(beta, KernelConfig(2))
    grid = GridDomain(point(-0.8, -0.8), 0.02, np.ones((81, 81), bool))
    rec = riesz_measure(GridField.sample(pt, grid))
    assert total_mass(rec) == pytest.approx(total_mass(beta), rel=0.03)


def test_fubini_symmetry():
    # int pt_theta dmu = int pt_mu dtheta for positive disjoint-support pairs
    cfg = KernelConfig(2)
    mu = Measure(2, [SphereUniform(point(0, 0), 0.4, 1.0)])
    th = Measure(2, [BallUniform(point(1.5, 0), 0.3, 2.0)])
    lhs = integrate(mu, potential(th, cfg))
    rhs = integrate(th, potential(mu, cfg))
    assert lhs == pytest.approx(rhs, abs=1e-7)


def test_export_sampled(tmp_path):
    pt = potential(atom((0.0, 0.0)), KernelConfig(2))
    grid = GridDomain(point(0.1, 0.1), 0.2, np.ones((5, 5), bool))
    payload = pt.export_sampled(grid, json_path=tmp_path / "f.json",
                                csv_path=tmp_path / "f.csv")
    assert len(payload["values"]) == 25
    assert (tmp_path / "f.json").exists()
    lines = (tmp_path / "f.csv").read_text().strip().splitlines()
    assert lines[0] == "x0,x1,value" and len(lines) == 26


def test_potential_d1_atoms():
    # d=1 kernel is k_{-1}(t) = t; the diagonal value is 0
    mu = Measure(1, [Atom(np.array([0.0]), 1.0), Atom(np.array([1.0]), 2.0)])
    pt = potential(mu, KernelConfig(1))
    assert pt(np.array([2.0])) == pytest.approx(2.0 + 2.0 * 1.0)
    assert pt(np.array([0.0])) == pytest.approx(0.0 + 2.0 * 1.0)
    rep = asymptotic_check(mu, [10, 20, 40], KernelConfig(1))
    assert rep.passed
