import math

import numpy as np
import pytest

from potkit import green
from potkit.duality import (ASPotential, CertificationError, from_potential,
                            phragmen_lindelof_bound, to_potential,
                            verify_poisson_jensen)
from potkit.fields import ScalarField
from potkit.geometry import Ball, GridDomain, point
from potkit.measures import Atom, Measure, integrate, total_mass


def delta(x=(0.0, 0.0)):
    return Measure(len(x), [Atom(np.asarray(x, float), 1.0)])


def _om(R=1.0, x=(0.0, 0.0)):
    x = np.asarray(x, float)
    return green.harmonic_measure(green.green_ball(point(0, 0), R, x, 2), x)


def test_to_potential_harmonic_measure():
    V = to_potential(_om(), point(0, 0), kind="jensen")
    assert V(point(0.5, 0)) == pytest.approx(math.log(2), abs=1e-12)
    assert V(point(1.5, 0)) == 0.0
    assert V.pole_coefficient == pytest.approx(1.0, abs=1e-9)
    assert V.fit_r2 >= 0.999
    assert V.potential_kind == "jensen"


def test_to_potential_delta_itself():
    V = to_potential(delta(), point(0, 0), kind="jensen", D=Ball(point(0, 0), 1.0))
    pts = np.array([[0.3, 0.1], [0.9, -0.2], [2.0, 0.0]])
    assert np.max(np.abs(V.evaluate_array(pts))) == 0.0
    assert V.pole_coefficient == pytest.approx(0.0, abs=1e-12)


def test_to_potential_mollified_smooth_and_positive():
    D = Ball(point(0, 0), 1.0)
    mu = green.jensen_measure_family(D, point(0, 0), "mollified", r=0.3)
    V = to_potential(mu, point(0, 0), kind="jensen", D=D)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.9, 0.9, size=(300, 2))
    keep = np.linalg.norm(pts, axis=1) > 1e-3
    h = mu.components[0].grid.spacing
    assert np.min(V.evaluate_array(pts[keep])) >= -0.1 * h ** 2


def test_to_potential_requires_certification():
    # a non-sweeping measure must be rejected
    bad = Measure(2, [Atom(point(0.5, 0.0), 1.0)])
    with pytest.raises(CertificationError):
        to_potential(bad, point(0, 0), kind="jensen", D=Ball(point(0, 0), 1.0))


def test_vanishing_outside_hull_exact_measures():
    # layer-backed swept measures vanish to 1e-8 outside the support window
    for R in (0.6, 0.8):
        V = to_potential(_om(R), point(0, 0), kind="arens-singer")
        ring = Ball(point(0, 0), 1.1 * R + 0.05).boundary_points(128)
        assert np.max(np.abs(V.evaluate_array(ring))) <= 1e-8


def test_from_potential_examples():
    # V = g_disk(., 0): boundary-uniform unit mass plus a vanishing pole atom
    V = to_potential(_om(), point(0, 0), kind="arens-singer")
    grid = GridDomain(point(-1.2, -1.2), 0.02, np.ones((121, 121), bool))
    rec = from_potential(V, grid, pole_exclusion=0.1)
    assert total_mass(rec) == pytest.approx(1.0, rel=0.03)
    assert not any(isinstance(c, Atom) and abs(c.weight) > 1e-9 for c in rec.components)
    # mass concentrates on the boundary ring
    gd = [c for c in rec.components if not isinstance(c, Atom)][0]
    centers = gd.grid.cell_centers()
    masses = np.asarray(gd.values)[gd.grid.mask]
    radii = np.linalg.norm(centers, axis=1)
    ring_mass = masses[np.abs(radii - 1.0) < 0.05].sum()
    assert ring_mass == pytest.approx(total_mass(rec), rel=0.05)


def test_from_potential_zero_field_gives_atom():
    x = point(0, 0)
    V0 = ASPotential(ScalarField.constant(0.0), x, 0.0, 1.0, Ball(x, 0.5), "jensen")
    grid = GridDomain(point(-1, -1), 0.05, np.ones((41, 41), bool))
    rec = from_potential(V0, grid)
    atoms = [c for c in rec.components if isinstance(c, Atom)]
    assert len(atoms) == 1 and atoms[0].weight == pytest.approx(1.0)
    assert total_mass(rec) == pytest.approx(1.0, abs=1e-10)


def test_from_potential_scaled_green():
    # V = 0.5 g: half boundary mass, half pole atom
    base = to_potential(_om(), point(0, 0), kind="arens-singer")
    half = ASPotential(ScalarField(lambda p: 0.5 * base.evaluate_array(p)), point(0, 0),
                       0.5, 1.0, base.support_window, "arens-singer")
    grid = GridDomain(point(-1.2, -1.2), 0.02, np.ones((121, 121), bool))
    rec = from_potential(half, grid, pole_exclusion=0.1)
    atoms = [c for c in rec.components if isinstance(c, Atom)]
    assert atoms[0].weight == pytest.approx(0.5, abs=1e-9)
    spread = total_mass(rec) - atoms[0].weight
    assert spread == pytest.approx(0.5, rel=0.03)


def test_roundtrip_probe_integrals():
    mu = _om(0.7)
    V = to_potential(mu, point(0, 0), kind="jensen")
    grid = GridDomain(point(-1.0, -1.0), 0.02, np.ones((101, 101), bool))
    rec = from_potential(V, grid, pole_exclusion=0.1)
    for k in range(1, 6):
        f = ScalarField(lambda p, k=k: np.cos(0.5 * k * p[:, 0]) * np.exp(0.1 * k * p[:, 1]))
        a, b = integrate(mu, f), integrate(rec, f)
        assert b == pytest.approx(a, rel=0.02, abs=0.02)


def test_verify_poisson_jensen_classical():
    om = _om()
    u = ScalarField.log_distance(point(0.5, 0))
    riesz_u = delta((0.5, 0.0))
    rep = verify_poisson_jensen(delta(), om, u, riesz_u=riesz_u)
    assert rep.passed
    # u(0) = ln 1/2 = 0 - ln 2: the classical display
    terms = rep.data["terms"]
    assert terms["u_theta"] == pytest.approx(math.log(0.5), abs=1e-12)
    rearranged = terms["u_mu"] - (terms["pt_mu_riesz"] - terms["pt_theta_riesz"])
    assert rearranged == pytest.approx(math.log(0.5), abs=1e-9)
    assert rep.to_json()["pass"] is True


def test_verify_poisson_jensen_harmonic_reduction():
    om = _om()
    u = ScalarField(lambda p: p[:, 0] ** 2 - p[:, 1] ** 2)
    rep = verify_poisson_jensen(delta(), om, u, riesz_u=Measure(2, []))
    assert rep.passed
    terms = rep.data["terms"]
    assert terms["pt_mu_riesz"] == 0.0 and terms["pt_theta_riesz"] == 0.0
    assert abs(terms["u_theta"] - terms["u_mu"]) <= rep.data["tol"]


def test_verify_poisson_jensen_two_zero():
    om = _om()
    u = ScalarField.log_distance(point(0.5, 0)) + ScalarField.log_distance(point(-0.5, 0))
    riesz_u = delta((0.5, 0.0)) + delta((-0.5, 0.0))
    rep = verify_poisson_jensen(delta(), om, u, riesz_u=riesz_u)
    assert rep.passed and rep.data["mismatch"] <= rep.data["tol"]
    # oracle: u(0) = 2 ln(1/2); mean over circle = 0; sum of greens = 2 ln 2
    assert rep.data["terms"]["u_theta"] == pytest.approx(2 * math.log(0.5), abs=1e-12)


def test_verify_poisson_jensen_rejects_non_balayage():
    om = _om()
    not_swept = delta((0.3, 0.2))
    u = ScalarField.log_distance(point(0.5, 0))
    with pytest.raises(CertificationError):
        verify_poisson_jensen(not_swept, om, u, riesz_u=delta((0.5, 0.0)))


def test_phragmen_lindelof_bounds():
    g1 = green.green_ball(point(0, 0), 1.0, point(0, 0), 2)
    V_self = to_potential(_om(), point(0, 0), kind="arens-singer")
    rep = phragmen_lindelof_bound(V_self, g1)
    assert rep.passed and rep.data["worst_excess"] <= 1e-7

    # omega of the 0.9 disk: V = ln(0.9/|x|)^+ <= ln(1/|x|)
    V9 = to_potential(_om(0.9), point(0, 0), kind="arens-singer")
    rep9 = phragmen_lindelof_bound(V9, g1, S_o=Ball(point(0, 0), 0.1), r=0.05)
    assert rep9.passed and rep9.data["lower_ok"]
    assert rep9.data["observed_inf"] >= rep9.data["lower_bound"] - 1e-7

    scaled = ASPotential(ScalarField(lambda p: 1.5 * V9.evaluate_array(p)), point(0, 0),
                         1.5, 1.0, V9.support_window, "arens-singer")
    with pytest.raises(ValueError):
        phragmen_lindelof_bound(scaled, g1)


def test_pole_fit_quality_gate():
    # an extra atom just off the pole breaks the log-affine radius ladder,
    # so the fitted limit is rejected as unreliable (certification bypassed
    # with a caller-supplied verdict to isolate the gate)
    class Cert:
        passed = True

    mu = Measure(2, [Atom(point(3e-3, 0.0), 0.5)] + list(_om().scaled(0.5).components))
    with pytest.raises(CertificationError):
        to_potential(mu, point(0, 0), kind="arens-singer", certificate=Cert())


def test_to_potential_skips_recheck_with_certificate():
    from potkit import balayage as bal
    from potkit.geometry import Ball as B

    om = _om()
    fam = bal.standard_jensen_family(B(point(0, 0), 1.0), point(0, 0))
    cert = bal.check_linear(delta(), om, fam)
    V = to_potential(om, point(0, 0), kind="jensen", certificate=cert)
    assert V.pole_coefficient == pytest.approx(1.0, abs=1e-9)
