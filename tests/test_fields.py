import math

import numpy as np
import pytest

from potkit import fields, green
from potkit.fields import (GluingSpec, GlueError, GridField, ScalarField,
                           check_subharmonic, fit_pole_coefficient, glue_max,
                           glue_quantitative, glue_with_green, harmonize_layer,
                           riesz_measure, sphere_average, ball_average)
from potkit.geometry import Annulus, Ball, GridDomain, point
from potkit.measures import total_mass


def test_sphere_average_examples():
    c = ScalarField.constant(3.25)
    assert sphere_average(c, point(0, 0), 1.0) == pytest.approx(3.25, rel=1e-14)
    ln = ScalarField.log_distance(point(0, 0))
    assert sphere_average(ln, point(0, 0), 2.0) == pytest.approx(math.log(2), abs=1e-12)
    # mean of ln|x-a| over the unit circle vanishes for |a| < 1 (trapezoid oracle)
    lnz = ScalarField.log_distance(point(0.3, 0.4))
    theta = 2 * np.pi * np.arange(1 << 14) / (1 << 14)
    oracle = np.mean(np.log(np.hypot(np.cos(theta) - 0.3, np.sin(theta) - 0.4)))
    assert sphere_average(lnz, point(0, 0), 1.0) == pytest.approx(oracle, abs=1e-10)


def test_ball_average_examples():
    c = ScalarField.constant(-1.5)
    assert ball_average(c, point(0, 0), 1.0) == pytest.approx(-1.5, rel=1e-14)
    sq = ScalarField(lambda p: np.sum(p ** 2, axis=1))
    # polar oracle: int_0^1 r^2 2r dr = 1/2
    assert ball_average(sq, point(0, 0), 1.0) == pytest.approx(0.5, abs=1e-12)
    ln = ScalarField.log_distance(point(0, 0))
    # polar oracle: int_0^1 ln(r) 2r dr = -1/2
    assert ball_average(ln, point(0, 0), 1.0) == pytest.approx(-0.5, abs=1e-6)


def test_sphere_average_domain_error():
    v = ScalarField.constant(0.0, Ball(point(0, 0), 1.0))
    with pytest.raises(fields.DomainError):
        sphere_average(v, point(0.5, 0), 0.8)


def test_check_subharmonic_harmonic_kernel():
    v = ScalarField.log_distance(point(2.0, 0))
    probes = [(point(0, 0), 0.5), (point(0.3, 0.4), 0.3), (point(-0.5, 0.1), 0.6)]
    rep = check_subharmonic(v, probes, tol=1e-6)
    assert rep.passed
    assert all(abs(r.margin) <= 1e-8 for r in rep.rows)  # harmonic: equality


def test_check_subharmonic_max_and_superharmonic():
    vmax = ScalarField.log_distance(point(0, 0)).maximum(ScalarField.constant(-1.0))
    probes = [(point(0.05, 0), 0.3), (point(0.6, 0.2), 0.2), (point(0, 0), 0.5)]
    assert check_subharmonic(vmax, probes, tol=1e-6).passed
    bad = ScalarField(lambda p: -np.sum(p ** 2, axis=1))
    rep = check_subharmonic(bad, probes, tol=1e-6)
    assert not rep.passed and len([r for r in rep.rows if not r.passed]) == len(probes)


def test_riesz_measure_quadratic_density():
    grid = GridDomain(point(-1, -1), 0.02, np.ones((101, 101), bool))
    sq = ScalarField(lambda p: np.sum(p ** 2, axis=1))
    mu = riesz_measure(GridField.sample(sq, grid))
    dens = np.asarray(mu.components[0].values) / grid.cell_volume()
    live = dens != 0
    assert np.max(np.abs(dens[live] - 2.0 / math.pi)) <= 1e-8


def test_riesz_measure_harmonic_zero():
    grid = GridDomain(point(-1, -1), 0.02, np.ones((101, 101), bool))
    h = ScalarField(lambda p: p[:, 0] ** 2 - p[:, 1] ** 2)
    mu = riesz_measure(GridField.sample(h, grid))
    assert np.max(np.abs(np.asarray(mu.components[0].values))) <= 1e-10


def test_riesz_measure_pole_refinement_study():
    # off-lattice log pole: recovered mass -> 1 with O(h), checked at two h
    p = point(0.0031, 0.0017)
    v = ScalarField.log_distance(p)
    errs = []
    for h, n in ((0.04, 41), (0.02, 81)):
        grid = GridDomain(point(-(n // 2) * h, -(n // 2) * h), h, np.ones((n, n), bool))
        rec = riesz_measure(GridField.sample(v, grid))
        errs.append(abs(total_mass(rec) - 1.0))
    assert errs[1] < errs[0]
    assert errs[1] <= 0.01


def test_riesz_measure_linearity():
    grid = GridDomain(point(-1, -1), 0.05, np.ones((41, 41), bool))
    u = ScalarField(lambda p: np.sum(p ** 2, axis=1))
    w = ScalarField(lambda p: np.exp(p[:, 0]) * np.cos(p[:, 1]) + p[:, 0] ** 4)
    a, b = 2.0, -0.75
    lin = ScalarField(lambda p: a * u.evaluate_array(p) + b * w.evaluate_array(p))
    m_lin = np.asarray(riesz_measure(GridField.sample(lin, grid)).components[0].values)
    m_u = np.asarray(riesz_measure(GridField.sample(u, grid)).components[0].values)
    m_w = np.asarray(riesz_measure(GridField.sample(w, grid)).components[0].values)
    assert np.max(np.abs(m_lin - (a * m_u + b * m_w))) <= 1e-10


def test_riesz_measure_flags_singular_cells():
    grid = GridDomain(point(-1, -1), 0.25, np.ones((9, 9), bool))
    v = ScalarField.log_distance(point(0, 0))  # -inf exactly on a lattice point
    rec = riesz_measure(GridField.sample(v, grid))
    assert len(rec.singular_cells) > 0


# -- gluing -------------------------------------------------------------------


def _valid_glue_pair():
    O = Annulus(point(0, 0), 1.0, 3.0)
    O0 = Ball(point(0, 0), 2.0)
    v = ScalarField.log_distance(point(0, 0), coefficient=2.0) - ScalarField.constant(
        2 * math.log(2))
    v0 = ScalarField.log_distance(point(0, 0)) - ScalarField.constant(math.log(2))
    return GluingSpec(O=O, O0=O0, v=v, v0=v0)


def test_glue_max_valid_instance():
    V = glue_max(_valid_glue_pair())
    # v0 rules the disk, v rules beyond |x| = 2
    assert V(point(0.5, 0)) == pytest.approx(math.log(0.25), rel=1e-12)
    assert V(point(2.5, 0)) == pytest.approx(2 * math.log(1.25), rel=1e-12)
    probes = fields.random_probes(Ball(point(0, 0), 2.9), 120, seed=7)
    probes = [(x, r) for x, r in probes if np.linalg.norm(x) > 0.02]
    assert check_subharmonic(V, probes, tol=1e-6).passed


def test_glue_max_identity_case():
    O0 = Ball(point(0, 0), 2.0)
    v0 = ScalarField.log_distance(point(0, 0))
    V = glue_max(GluingSpec(O=O0, O0=O0, v=v0, v0=v0))
    pts = np.array([[0.7, 0.1], [-1.1, 0.4]])
    assert np.array_equal(V.evaluate_array(pts), v0.evaluate_array(pts))


def test_glue_max_rejects_spec_defect_pair():
    # v = 0 on the annulus against v0 = ln(|x|/2) violates the O-side
    # inequality on |x| = 1 (and the glued formula is genuinely not
    # subharmonic there), so this pair must be rejected
    O = Annulus(point(0, 0), 1.0, 3.0)
    O0 = Ball(point(0, 0), 2.0)
    v = ScalarField.constant(0.0, O)
    v0 = ScalarField.log_distance(point(0, 0)) - ScalarField.constant(math.log(2))
    with pytest.raises(GlueError) as err:
        glue_max(GluingSpec(O=O, O0=O0, v=v, v0=v0))
    assert np.linalg.norm(err.value.witness) == pytest.approx(1.0, abs=1e-9)


def test_glue_max_rejects_discontinuous_pair():
    O = Annulus(point(0, 0), 1.0, 3.0)
    O0 = Ball(point(0, 0), 2.0)
    with pytest.raises(GlueError):
        glue_max(GluingSpec(O=O, O0=O0, v=ScalarField.constant(0.0, O),
                            v0=ScalarField.constant(1.0, O0)))


def test_glue_quantitative_formula_and_degenerate():
    g_h = ScalarField(lambda p: -2.0 + 0.25 * (p[:, 0] ** 2 - p[:, 1] ** 2))
    vb = ScalarField(lambda p: 0.5 * p[:, 1])
    spec = GluingSpec(O=Ball(point(0, 0), 4.0), O0=Ball(point(0, 0), 2.0), v=vb,
                      g=g_h, m_v=-1.0, M_v=1.0, m_g=0.0, M_g=2.0)
    V = glue_quantitative(spec)
    pts = np.array([[0.2, 0.1], [-0.5, 0.3]])
    assert np.allclose(V.v0.evaluate_array(pts), 2 * g_h.evaluate_array(pts) - 2.0)

    bad = GluingSpec(O=spec.O, O0=spec.O0, v=vb, g=g_h, m_v=0, M_v=0, m_g=2.0, M_g=2.0)
    with pytest.raises(ValueError):
        glue_quantitative(bad)


def test_glue_quantitative_zero_amplitude():
    g_h = ScalarField(lambda p: -2.0 + 0.25 * (p[:, 0] ** 2 - p[:, 1] ** 2))
    spec = GluingSpec(O=Ball(point(0, 0), 4.0), O0=Ball(point(0, 0), 2.0),
                      v=ScalarField.constant(0.0), g=g_h, m_v=0.0, M_v=0.0,
                      m_g=0.0, M_g=2.0)
    V = glue_quantitative(spec)
    pts = np.array([[0.3, 0.0], [1.5, 0.2], [3.0, 0.1]])
    assert np.max(np.abs(V.evaluate_array(pts))) == 0.0


def _disk_glue_instance():
    O = Ball(point(0, 0), 1.0)
    S_o = Ball(point(0, 0), 0.2)
    S = Ball(point(0, 0), 0.6)
    gm = green.green_ball(point(0, 0), 0.4, point(0, 0), 2)
    v = ScalarField.log_distance(point(0.8, 0))
    return O, S_o, S, gm, v, math.log(0.2), math.log(1.4)


def test_glue_with_green_unit_disk_instance():
    O, S_o, S, gm, v, m_v, M_v = _disk_glue_instance()
    V = glue_with_green(v, gm, S_o, S, m_v, M_v, ambient=O)
    assert V.M_g == pytest.approx(math.log(2), abs=1e-12)
    rng = np.random.default_rng(3)
    pts = []
    while len(pts) < 200:
        x = rng.uniform(-0.6, 0.6, 2)
        if 0.2 < np.linalg.norm(x) < 0.6:
            pts.append(x)
    pts = np.array(pts)
    assert np.all(V.evaluate_array(pts) >= v.evaluate_array(pts) - 1e-9)


def test_glue_with_green_zero_v():
    O, S_o, S, gm, _, _, _ = _disk_glue_instance()
    V = glue_with_green(ScalarField.constant(0.0), gm, S_o, S, 0.0, 0.0, ambient=O)
    assert V.amplitude == 0.0
    pts = np.array([[0.1, 0.0], [0.4, 0.1], [0.8, 0.0]])
    assert np.max(np.abs(V.evaluate_array(pts))) == pytest.approx(0.0, abs=1e-15)


def test_glue_with_green_harmonic_in_core():
    # V is harmonic on S_o minus the pole: mean-value equality at core probes
    O, S_o, S, gm, v, m_v, M_v = _disk_glue_instance()
    V = glue_with_green(v, gm, S_o, S, m_v, M_v, ambient=O)
    for x, r in [(point(0.1, 0), 0.04), (point(-0.05, 0.08), 0.05), (point(0, -0.12), 0.03)]:
        assert abs(V(x) - sphere_average(V, x, r)) <= 1e-8


def test_green_model_designated_core():
    gm = green.green_ball(point(0, 0), 1.0, point(0, 0), 2)
    gm.designate_core(Ball(point(0, 0), 0.2))
    assert gm.M_g == pytest.approx(math.log(5), abs=1e-12)


def test_glue_with_green_pole_ratio_fit():
    O, S_o, S, gm, v, m_v, M_v = _disk_glue_instance()
    V = glue_with_green(v, gm, S_o, S, m_v, M_v, ambient=O)
    slope, r2 = fit_pole_coefficient(V, point(0, 0), 2)
    assert r2 >= 0.999
    assert slope == pytest.approx(V.pole_coefficient, rel=0.05)
    # the raw one-point ratio at t = 1e-3 is ~18% off the fitted limit, which
    # is why the acceptance criterion words this as a fit
    t = 1e-3
    raw = V(point(t, 0)) / (-math.log(t))
    assert abs(raw - V.pole_coefficient) / V.pole_coefficient > 0.05


def test_glue_with_green_rejects_violated_bounds():
    O, S_o, S, gm, v, m_v, M_v = _disk_glue_instance()
    with pytest.raises(GlueError):
        glue_with_green(v, gm, S_o, S, m_v, M_v - 1.0, ambient=O)  # M_v too small


# -- layer harmonization ------------------------------------------------------


def test_harmonize_layer_discrete_harmonic_exact():
    # x^2 - y^2 is exactly discrete-harmonic: solve reproduces it at the nodes
    layer = Annulus(point(0, 0), 0.5, 1.0)
    v = ScalarField(lambda p: p[:, 0] ** 2 - p[:, 1] ** 2)
    out = harmonize_layer(v, layer, cells=64)
    g = out.solver_grid
    centers = g.grid.cell_centers()
    inside = layer.contains_array(centers, margin=0.02)
    got = g.values.ravel()[inside]
    want = v.evaluate_array(centers[inside])
    assert np.max(np.abs(got - want)) <= 1e-8


def test_harmonize_layer_constant():
    layer = Annulus(point(0, 0), 0.5, 1.0)
    out = harmonize_layer(ScalarField.constant(2.5), layer, cells=48)
    pts = np.array([[0.7, 0.0], [0.0, -0.8], [0.2, 0.1]])
    assert np.allclose(out.evaluate_array(pts), 2.5, atol=1e-9)


def test_harmonize_layer_dominates_at_pole():
    # pole inside the layer: the harmonic continuation strictly dominates
    layer = Annulus(point(0, 0), 0.5, 1.0)
    v = ScalarField.log_distance(point(0.75, 0))
    out = harmonize_layer(v, layer, cells=96)
    g = out.solver_grid
    centers = g.grid.cell_centers()
    inside = layer.contains_array(centers, margin=0.03)
    margin = g.values.ravel()[inside] - v.evaluate_array(centers[inside])
    assert np.min(margin) >= -1e-6
    near_pole = np.linalg.norm(centers[inside] - np.array([0.75, 0]), axis=1) < 0.05
    assert np.min(margin[near_pole]) > 0.5  # strict domination near the pole
    # off the layer, untouched
    far = np.array([[0.2, 0.1], [0.0, -1.3]])
    assert np.array_equal(out.evaluate_array(far), v.evaluate_array(far))


def test_harmonize_layer_maximum_principle():
    layer = Annulus(point(0, 0), 0.5, 1.0)
    v = ScalarField(lambda p: np.cos(3 * np.arctan2(p[:, 1], p[:, 0])))
    out = harmonize_layer(v, layer, cells=64)
    g = out.solver_grid
    centers = g.grid.cell_centers()
    inside = layer.contains_array(centers)
    boundary_vals = g.values.ravel()[~inside]
    interior_vals = g.values.ravel()[inside]
    lo, hi = boundary_vals.min(), boundary_vals.max()
    assert np.all(interior_vals >= lo - 1e-9)
    assert np.all(interior_vals <= hi + 1e-9)


def test_layer_then_green_glue_composition():
    # full sphere-average route: v with a pole inside the transition layer is
    # first harmonized there, then glued through a Green model on the
    # 1.5r-parallel ball; the result agrees with v far out, is harmonic in
    # the core, and dominates v on the transition ring
    from potkit.geometry import parallel_set

    S_o = Ball(point(0, 0), 0.15)
    r = 0.05
    q = point(0.22, 0.0)  # pole inside the layer S_o^{3r} \ S_o
    v = ScalarField.log_distance(q)
    layer = Annulus(point(0, 0), 0.15, 0.30)
    v_tilde = harmonize_layer(v, layer, cells=96)

    # bounds per the averaged form: sup on the 3r ring, inf of r-averages on
    # the middle ring
    rng = np.random.default_rng(11)
    mids, outers = [], []
    while len(mids) < 40 or len(outers) < 80:
        x = rng.uniform(-0.31, 0.31, 2)
        rho = np.linalg.norm(x)
        if 0.20 < rho < 0.25 and len(mids) < 40:
            mids.append(x)
        elif 0.15 < rho < 0.30 and len(outers) < 80:
            outers.append(x)
    m_v = min(sphere_average(v, x, r, 512) for x in mids)
    M_v = max(float(np.max(v_tilde.evaluate_array(np.array(outers)))), 0.0) + 1e-9
    assert math.isfinite(m_v)

    D_r = parallel_set(S_o, 1.5 * r)  # ball of radius 0.225
    gm = green.green_ball(D_r.center, D_r.radius, point(0, 0), 2)
    core = Ball(point(0, 0), 0.20)   # S_o dilated by r
    S = Ball(point(0, 0), 0.25)      # S_o dilated by 2r
    V = glue_with_green(v_tilde, gm, core, S, m_v, M_v, ambient=Ball(point(0, 0), 1.0))

    far = np.array([[0.5, 0.1], [-0.4, 0.3], [0.0, -0.7]])
    assert np.allclose(V.evaluate_array(far), v.evaluate_array(far))
    for x, rr in [(point(0.05, 0), 0.03), (point(-0.1, 0.05), 0.04)]:
        assert abs(V(x) - sphere_average(V, x, rr)) <= 1e-6  # harmonic in the core
    ring = np.array(mids)
    # domination holds up to the layer solve's O(h^2) interpolation bias
    assert np.min(V.evaluate_array(ring) - v.evaluate_array(ring)) >= -1e-4


def test_grid_field_serialization(tmp_path):
    grid = GridDomain(point(0, 0), 0.5, np.ones((4, 4), bool))
    gf = GridField(grid, np.arange(16.0).reshape(4, 4))
    back = GridField.from_json(gf.to_json())
    assert np.array_equal(back.values, gf.values)


def test_riesz_measure_d3_quadratic():
    # 7-point stencil: |x|^2 has constant density 6 c_3 = 6/(4 pi)
    grid = GridDomain(point(-0.5, -0.5, -0.5), 0.05, np.ones((21, 21, 21), bool))
    sq = ScalarField(lambda p: np.sum(p ** 2, axis=1))
    mu = riesz_measure(GridField.sample(sq, grid))
    dens = np.asarray(mu.components[0].values) / grid.cell_volume()
    live = dens != 0
    assert np.max(np.abs(dens[live] - 6.0 / (4.0 * math.pi))) <= 1e-8


def test_averages_d3():
    sq = ScalarField(lambda p: np.sum(p ** 2, axis=1))
    assert sphere_average(sq, point(0, 0, 0), 1.0) == pytest.approx(1.0, abs=1e-10)
    # polar oracle: int_0^1 r^2 3r^2 dr = 3/5
    assert ball_average(sq, point(0, 0, 0), 1.0) == pytest.approx(0.6, abs=1e-10)


def test_harmonize_layer_d3_discrete_harmonic():
    layer = Annulus(point(0, 0, 0), 0.5, 1.0)
    v = ScalarField(lambda p: p[:, 0] ** 2 - p[:, 1] ** 2)
    out = harmonize_layer(v, layer, cells=32)
    g = out.solver_grid
    centers = g.grid.cell_centers()
    inside = layer.contains_array(centers, margin=0.06)
    got = g.values.ravel()[inside]
    want = v.evaluate_array(centers[inside])
    assert np.max(np.abs(got - want)) <= 1e-7


def test_glue_with_green_d3():
    S_o = Ball(point(0, 0, 0), 0.2)
    S = Ball(point(0, 0, 0), 0.6)
    gm = green.green_ball(point(0, 0, 0), 0.4, point(0, 0, 0), 3)
    p = point(0.8, 0, 0)
    v = ScalarField(lambda pts: -1.0 / np.linalg.norm(pts - p, axis=1))
    m_v, M_v = -1.0 / 0.2, -1.0 / 1.4
    V = glue_with_green(v, gm, S_o, S, m_v, M_v, ambient=Ball(point(0, 0, 0), 1.0))
    # M_g = 1/0.2 - 1/0.4 = 2.5
    assert V.M_g == pytest.approx(2.5, abs=1e-12)
    slope, r2 = fit_pole_coefficient(V, point(0, 0, 0), 3)
    assert r2 >= 0.999
    assert slope == pytest.approx(V.pole_coefficient, rel=0.05)
    far = np.array([[0.8, 0.3, 0.0], [0.0, 0.0, -0.9]])
    assert np.allclose(V.evaluate_array(far), v.evaluate_array(far))
