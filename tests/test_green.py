import math

import numpy as np
import pytest

from potkit import balayage, green
from potkit.fields import ScalarField, check_subharmonic, fit_pole_coefficient
from potkit.geometry import Ball, point
from potkit.measures import Atom, Measure, SphereUniform, integrate, total_mass
from potkit.potentials import Potential, difference_potential


def test_green_ball_values():
    g = green.green_ball(point(0, 0), 1.0, point(0, 0))
    assert g(point(0.5, 0)) == pytest.approx(math.log(2), abs=1e-12)
    assert g(point(1.5, 0)) == 0.0
    g3 = green.green_ball(point(0, 0, 0), 1.0, point(0, 0, 0))
    assert g3(point(0.5, 0, 0)) == pytest.approx(1.0, abs=1e-12)
    assert g3(point(0, 2, 0)) == 0.0


def test_green_ball_preconditions():
    with pytest.raises(ValueError):
        green.green_ball(point(0, 0), 1.0, point(1.0, 0))
    with pytest.raises(ValueError):
        green.green_ball(point(0, 0), 1.0, point(2.0, 0))
    # a 2-D pole is not a point of a 1-D ball
    with pytest.raises(ValueError, match="dimension 2 given to a domain of dimension 1"):
        green.green_ball(point(0), 1.0, point(0.1, 0.2))


OFF_CENTRE_POLES = [point(0.3, 0.2), point(0.3, 0.2, -0.1)]


@pytest.mark.parametrize("pole", OFF_CENTRE_POLES, ids=["2d", "3d"])
def test_green_property_suite_off_center(pole):
    # the Eq-style properties checked numerically: boundary zero, harmonic
    # off the pole, pole expansion slope one
    d = pole.size
    g = green.green_ball(np.zeros(d), 1.0, pole)
    bnd = Ball(np.zeros(d), 1.0).boundary_points(512)
    assert np.max(np.abs(g.evaluate_array(bnd))) <= 1e-10
    probes = []
    rng = np.random.default_rng(0)
    while len(probes) < 60:
        x = rng.uniform(-0.9, 0.9, d)
        r = 0.02 + 0.1 * rng.random()
        if np.linalg.norm(x) + r < 0.97 and np.linalg.norm(x - pole) > r + 0.05:
            probes.append((x, r))
    worst = max(abs(row.margin) for row in check_subharmonic(g, probes).rows)
    assert worst <= 1e-8, worst
    slope, r2 = fit_pole_coefficient(g, pole)
    assert slope == pytest.approx(1.0, abs=1e-6) and r2 >= 0.999


@pytest.mark.parametrize("d", [2, 3], ids=["2d", "3d"])
def test_green_symmetry(d):
    rng = np.random.default_rng(4)
    for _ in range(100):
        x, y = rng.uniform(-0.7, 0.7, d), rng.uniform(-0.7, 0.7, d)
        if np.linalg.norm(x - y) < 1e-2 or max(np.linalg.norm(x), np.linalg.norm(y)) >= 0.99:
            continue  # the 3-D cube reaches past the ball
        gx = green.green_ball(np.zeros(d), 1.0, x)
        gy = green.green_ball(np.zeros(d), 1.0, y)
        assert abs(gx(y) - gy(x)) <= 1e-9


def test_mg_constant_values():
    g = green.green_ball(point(0, 0), 1.0, point(0, 0))
    assert green.mg_constant(g, Ball(point(0, 0), 0.2)) == pytest.approx(math.log(5),
                                                                         abs=1e-12)
    g3 = green.green_ball(point(0, 0, 0), 1.0, point(0, 0, 0))
    assert green.mg_constant(g3, Ball(point(0, 0, 0), 0.5)) == pytest.approx(1.0, abs=1e-12)
    shifted = green.mg_constant(g, Ball(point(0.05, 0.02), 0.2))
    # sampling oracle: minimum over a dense boundary ring
    dense = Ball(point(0.05, 0.02), 0.2).boundary_points(20000)
    assert shifted == pytest.approx(float(np.min(g.evaluate_array(dense))), abs=1e-5)
    assert shifted > 0


def test_mg_domination():
    g = green.green_ball(point(0, 0), 1.0, point(0, 0))
    mg = green.mg_constant(g, Ball(point(0, 0), 0.2))
    rng = np.random.default_rng(5)
    pts = []
    while len(pts) < 500:
        x = rng.uniform(-0.2, 0.2, 2)
        if 1e-8 < np.linalg.norm(x) < 0.2:
            pts.append(x)
    assert np.min(g.evaluate_array(np.array(pts)) - mg) >= -1e-9


def test_harmonic_measure_reproduction():
    g = green.green_ball(point(0, 0), 1.0, point(0, 0))
    om = green.harmonic_measure(g, point(0.5, 0))
    assert total_mass(om) == pytest.approx(1.0, abs=1e-10)
    h = ScalarField(lambda p: p[:, 0])
    assert integrate(om, h) == pytest.approx(0.5, abs=1e-8)
    om_center = green.harmonic_measure(g, point(0, 0))
    assert isinstance(om_center.components[0], SphereUniform)
    assert om_center.components[0].density is None
    with pytest.raises(ValueError):
        green.harmonic_measure(g, point(1.5, 0))


def test_harmonic_measure_jensen_inequality():
    g = green.green_ball(point(0, 0), 1.0, point(0, 0))
    om = green.harmonic_measure(g, point(0, 0))
    u = ScalarField.log_distance(point(0.3, 0.1))
    lhs = u(point(0, 0))
    rhs = integrate(om, u)
    assert rhs >= lhs - 1e-9
    assert rhs == pytest.approx(0.0, abs=1e-9)  # circle mean of ln|z-a|, |a|<1


def test_jensen_measure_family_kinds():
    D = Ball(point(0, 0), 1.0)
    x = point(0, 0)
    delta = balayage.jensen_measure_family(D, x, "mixture", a=1.0, b=0.0)
    assert len(delta.components) == 1 and isinstance(delta.components[0], Atom)

    # the sigma-normalized unit-sphere measure belongs to J_0(r B) for r > 1,
    # checked for r = 1.1 against the standard subharmonic probe family
    sigma = Measure(2, [SphereUniform(point(0, 0), 1.0, 1.0)])
    fam = balayage.standard_jensen_family(Ball(point(0, 0), 1.1))
    verdict = balayage.check_linear(Measure(2, [Atom(x, 1.0)]), sigma, fam)
    assert verdict.passed

    alpha = balayage.jensen_measure_family(D, x, "mollified", r=0.3)
    assert total_mass(alpha) == pytest.approx(1.0, abs=1e-9)

    with pytest.raises(ValueError):
        balayage.jensen_measure_family(D, x, "mixture", a=0.7, b=0.7)


def test_jensen_certification_failure_names_witness(monkeypatch):
    # a superharmonic probe -k(. - y) with y inside D is violated by every
    # Jensen measure, so certification must raise with that member as witness
    D = Ball(point(0, 0), 1.0)
    bad = balayage.TestFamily("superharmonic",
                              [("k-neg", ScalarField.kernel(point(0.5, 0), sign=-1.0))])
    monkeypatch.setattr(balayage, "standard_jensen_family", lambda *a, **k: bad)
    with pytest.raises(balayage.CertificationError,
                       match=r"superharmonic certification failed \(witness k-neg, margin"):
        balayage.jensen_measure_family(D, point(0, 0), "mixture", a=0.0, b=1.0)


def test_duality_instance_potential_equality_and_domination():
    # pt_{omega(x,.)} = pt_{delta_x} outside clos D, and >= everywhere
    g = green.green_ball(point(0, 0), 1.0, point(0.2, -0.1))
    x = point(0.2, -0.1)
    om = green.harmonic_measure(g, x)
    pt_om = Potential(om)
    pt_dx = Potential(Measure(2, [Atom(x, 1.0)]))
    outside = Ball(point(0, 0), 1.3).boundary_points(64)
    assert np.max(np.abs(pt_om.evaluate_array(outside)
                         - pt_dx.evaluate_array(outside))) <= 1e-7
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1.5, 1.5, size=(300, 2))
    keep = np.linalg.norm(pts - x, axis=1) > 1e-3
    assert np.min(pt_om.evaluate_array(pts[keep])
                  - pt_dx.evaluate_array(pts[keep])) >= -1e-9


def test_remark_identity_pt_equals_green():
    # pt_{omega(x,.) - delta_x} = g_D(., x) on D at 200 probes
    x = point(0.3, 0.1)
    g = green.green_ball(point(0, 0), 1.0, x)
    om = green.harmonic_measure(g, x)
    diff = difference_potential(om, Measure(2, [Atom(x, 1.0)]))
    rng = np.random.default_rng(7)
    count = 0
    while count < 200:
        p = rng.uniform(-0.95, 0.95, 2)
        if np.linalg.norm(p) >= 0.97 or np.linalg.norm(p - x) < 1e-2:
            continue
        count += 1
        assert abs(diff(p) - g(p)) <= 1e-7
