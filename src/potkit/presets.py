"""The twelve built-in scenario suites.

Each preset assembles concrete measures/fields/domains and runs the checks
its subject asserts, returning a list of Verdict records (and optional
sampled-field exports).  Expected failures (the Lyons contrast) are encoded
inside the preset: the preset passes when the expected failure occurs.
"""

from __future__ import annotations

import math

import numpy as np

from . import balayage as bal
from . import duality, green, quadrature, zeros
from .fields import (GridField, ScalarField, check_subharmonic, fit_pole_coefficient, glue_max,
                     glue_quantitative, glue_with_green, random_probes)
from .geometry import Annulus, Ball, GridDomain, point
from .measures import (Atom, BallUniform, Measure, Mollifier, SphereUniform,
                       convolve_balayage, integrate, integrate_many, total_mass)
from .verdict import Row, Verdict

__all__ = ["PRESETS", "run_preset", "preset_table"]


def _annulus_draws(rng, n: int, r_in: float, r_out: float) -> np.ndarray:
    """First n draws on the square [-r_out, r_out]^2 with r_in < |x| < r_out."""
    o = point(0, 0)
    return quadrature.sample_in(rng, o, r_out, n, Annulus(o, r_in, r_out).contains_array)


# ---------------------------------------------------------------------------


def preset_glue_basic(seed: int, tol_scale: float):
    tol = 1e-6 * tol_scale
    checks = []
    O = Annulus(point(0, 0), 1.0, 3.0)
    O0 = Ball(point(0, 0), 2.0)
    v = ScalarField.log_distance(point(0, 0), coefficient=2.0) - 2 * math.log(2)
    v0 = ScalarField.log_distance(point(0, 0)) - math.log(2)
    V = glue_max(O, O0, v, v0, tol=tol)
    probes = random_probes(Ball(point(0, 0), 2.9), 500, seed, r_lo=2e-3,
                           holes=[((0.0, 0.0), 0.0)])
    rep = check_subharmonic(V, probes, tol=tol)
    checks.append(Verdict("glue-max accepted + 500-probe sub-mean", rep.passed, rep.rows,
                          {"worst_margin": rep.worst_margin, "probes": len(probes)}))

    # trivial identity glue: v0 == v on the same set
    V_id = glue_max(O0, O0, v0, v0, tol=tol)
    pts = np.array([[0.3, 0.2], [-0.8, 0.1], [1.1, -0.4]])
    ident = float(np.max(np.abs(V_id.evaluate_array(pts) - v0.evaluate_array(pts))))
    checks.append(Verdict("glue-max identity case", ident == 0.0, data={"max_diff": ident}))

    # incompatible pair must be rejected
    try:
        glue_max(O, O0, ScalarField.constant(0.0, O), ScalarField.constant(1.0, O0), tol=tol)
        rejected = False
    except Exception:
        rejected = True
    checks.append(Verdict("glue-max rejects discontinuous pair", rejected))

    # quantitative form: coefficient formula and sub-mean probes
    g_fn = green.green_ball(point(0, 0), 3.0, point(0, 0))
    # overlap annulus 1 < |x| < 2: g ranges over [ln(3/2), ln 3]
    m_g, M_g = math.log(3.0 / 2.0), math.log(3.0)
    vq = ScalarField.constant(0.0, O)
    Vq = glue_quantitative(O, O0, vq, g_fn, m_v=0.0, M_v=0.0, m_g=m_g, M_g=M_g, tol=tol)
    zero_amp = float(np.max(np.abs(Vq.evaluate_array(np.array([[0.5, 0.0], [1.5, 0.5]])))))
    checks.append(Verdict("glue-quantitative zero-amplitude case", zero_amp <= tol,
                          data={"max_abs": zero_amp}))

    # direct substitution M_v=1, m_v=-1, M_g=2, m_g=0: v0 = 2 g - 2
    g_h = ScalarField(lambda pts: -2.0 + 0.25 * (pts[:, 0] ** 2 - pts[:, 1] ** 2))
    vb = ScalarField(lambda pts: 0.5 * pts[:, 1])
    coeff_pts = np.array([[0.2, 0.1], [-0.5, 0.3], [0.8, -0.8]])
    try:
        Vq2 = glue_quantitative(Ball(point(0, 0), 4.0), Ball(point(0, 0), 2.0), vb, g_h,
                                m_v=-1.0, M_v=1.0, m_g=0.0, M_g=2.0, tol=tol)
        got = Vq2.v0.evaluate_array(coeff_pts)
        want = 2.0 * g_h.evaluate_array(coeff_pts) - 2.0
        formula_ok = bool(np.max(np.abs(got - want)) <= 1e-12)
    except Exception as exc:
        formula_ok, got = False, str(exc)
    checks.append(Verdict("glue-quantitative v0 formula", formula_ok))

    if formula_ok:
        probes_q = random_probes(Ball(point(0, 0), 3.9), 500, seed + 3, r_lo=2e-3)
        rep_q = check_subharmonic(Vq2, probes_q, tol=tol)
        checks.append(Verdict("glue-quantitative 500-probe sub-mean", rep_q.passed, rep_q.rows,
                              {"worst_margin": rep_q.worst_margin, "probes": len(probes_q)}))
    return checks, {}


def preset_glue_green(seed: int, tol_scale: float):
    tol = 1e-6 * tol_scale
    checks = []
    O = Ball(point(0, 0), 1.0)
    S_o = Ball(point(0, 0), 0.2)
    S = Ball(point(0, 0), 0.6)
    D = Ball(point(0, 0), 0.4)
    p = point(0.8, 0)
    v = ScalarField.log_distance(p)
    m_v, M_v = math.log(0.2), math.log(1.4)
    gm = green.green_ball(D.center, D.radius, point(0, 0))
    V = glue_with_green(v, gm, S_o, S, m_v, M_v, ambient=O, tol=tol)
    amp = V.amplitude
    checks.append(Verdict("glue-green constants", abs(V.M_g - math.log(2.0)) < 1e-12,
                          data={"amplitude": amp, "M_g": V.M_g}))

    probes = random_probes(Ball(point(0, 0), 0.98), 500, seed, r_lo=2e-3,
                           holes=[((0.0, 0.0), 0.0), ((0.8, 0.0), 0.0)])
    rep = check_subharmonic(V, probes, tol=tol)
    checks.append(Verdict("glue-green 500-probe sub-mean", rep.passed, rep.rows,
                          {"worst_margin": rep.worst_margin}))

    rng = np.random.default_rng(seed + 1)
    ring_pts = _annulus_draws(rng, 200, 0.2, 0.6)
    Vv = V.evaluate_array(ring_pts)
    vv = v.evaluate_array(ring_pts)
    gv = gm.evaluate_array(ring_pts)
    upper = max(M_v, 0.0) + 2.0 * (amp / V.M_g) * gv
    mid_ok = bool(np.all(Vv >= vv - tol) and np.all(Vv <= upper + tol))
    checks.append(Verdict("glue-green bound v <= V <= M_v^+ + 2A/M_g g on S\\S_o", mid_ok,
                          data={"min_over_v": float(np.min(Vv - vv)),
                                "max_under_cap": float(np.max(Vv - upper))}))

    core_pts = _annulus_draws(rng, 100, 1e-3, 0.2)
    Vc = V.evaluate_array(core_pts)
    cap = 2.0 * (amp / V.M_g) * gm.evaluate_array(core_pts)
    core_ok = bool(np.all(Vc >= -tol) and np.all(Vc <= cap + tol))
    checks.append(Verdict("glue-green bound 0 <= V <= 2A/M_g g on S_o", core_ok,
                          data={"min": float(np.min(Vc)),
                                "max_under_cap": float(np.max(Vc - cap))}))

    slope, r2 = fit_pole_coefficient(V, point(0, 0))
    target = V.pole_coefficient
    ratio_ok = abs(slope - target) <= 0.05 * abs(target) and r2 >= 0.999
    checks.append(Verdict("glue-green pole-ratio fit within 5%", bool(ratio_ok),
                          data={"fitted": slope, "target": target, "r2": r2}))

    far = np.array([[0.7, 0.3], [-0.75, 0.2], [0.0, 0.9]])
    outside_ok = float(np.max(np.abs(V.evaluate_array(far) - v.evaluate_array(far))))
    checks.append(Verdict("glue-green V = v off S", outside_ok == 0.0,
                          data={"max_diff": outside_ok}))
    return checks, {"glued_field": (V, 1.0)}


def preset_green_ball(seed: int, tol_scale: float):
    checks = []
    g2 = green.green_ball(point(0, 0), 1.0, point(0, 0))
    val = g2(point(0.5, 0))
    checks.append(Verdict("unit-disk g(0.5 e1, 0) = ln 2", abs(val - math.log(2)) <= 1e-9,
                          data={"value": val}))
    g3 = green.green_ball(point(0, 0, 0), 1.0, point(0, 0, 0))
    val3 = g3(point(0.5, 0, 0))
    checks.append(Verdict("unit-ball d=3 g(0.5 e1, 0) = 1", abs(val3 - 1.0) <= 1e-9,
                          data={"value": val3}))

    bnd = np.array([g2(x) for x in Ball(point(0, 0), 1.0).boundary_points(256)])
    outside = np.array([g2(point(1.5, 0.3)), g2(point(-2.0, 0.1))])
    checks.append(Verdict("boundary and exterior values vanish",
                          bool(np.max(np.abs(bnd)) <= 1e-10
                               and np.max(np.abs(outside)) == 0.0),
                          data={"max_boundary": float(np.max(np.abs(bnd)))}))

    ga = green.green_ball(point(0, 0), 1.0, point(0.3, 0.2))
    rng = np.random.default_rng(seed)
    worst_sym = 0.0
    for _ in range(100):
        x1 = rng.uniform(-0.7, 0.7, 2)
        x2 = rng.uniform(-0.7, 0.7, 2)
        if np.linalg.norm(x1 - x2) < 1e-3:
            continue
        gx = green.green_ball(point(0, 0), 1.0, x1)
        gy = green.green_ball(point(0, 0), 1.0, x2)
        worst_sym = max(worst_sym, abs(gx(x2) - gy(x1)))
    checks.append(Verdict("Green symmetry at 100 pairs", worst_sym <= 1e-9,
                          data={"worst": worst_sym}))

    probes = random_probes(Ball(point(0, 0), 0.95), 100, seed, r_lo=5e-3,
                           holes=[((0.3, 0.2), 0.0)])
    tol = 1e-8 * tol_scale
    worst = max([0.0] + [abs(row.margin) for row in check_subharmonic(ga, probes, tol).rows])
    checks.append(Verdict("mean-value equality off the pole", worst <= tol,
                          data={"worst": worst}))

    slope, r2 = fit_pole_coefficient(ga, point(0.3, 0.2))
    checks.append(Verdict("pole expansion g = -K + O(1)",
                          abs(slope - 1.0) <= 1e-6 and r2 >= 0.999,
                          data={"slope": slope, "r2": r2}))

    S_o = Ball(point(0, 0), 0.2)
    mg = green.mg_constant(g2, S_o)
    checks.append(Verdict("M_g for S_o = 0.2 disk is ln 5", abs(mg - math.log(5.0)) <= 1e-9,
                          data={"M_g": mg}))
    mg3 = green.mg_constant(g3, Ball(point(0, 0, 0), 0.5))
    checks.append(Verdict("M_g d=3 for S_o = 0.5 ball is 1", abs(mg3 - 1.0) <= 1e-9,
                          data={"M_g": mg3}))
    S_shift = Ball(point(0.05, 0.02), 0.2)
    mg_s = green.mg_constant(g2, S_shift)
    checks.append(Verdict("M_g positive for shifted S_o", mg_s > 0, data={"M_g": mg_s}))

    # domination: g - M_g >= 0 on S_o minus the pole
    pts = _annulus_draws(np.random.default_rng(seed + 2), 500, 1e-6, 0.2)
    vals = g2.evaluate_array(pts) - mg
    checks.append(Verdict("domination g >= M_g on S_o", bool(np.min(vals) >= -1e-9),
                          data={"min_excess": float(np.min(vals))}))
    return checks, {"green_field": (g2, 1.2)}


def preset_harmonic_measure(seed: int, tol_scale: float):
    checks = []
    g2 = green.green_ball(point(0, 0), 1.0, point(0, 0))
    x = point(0.5, 0)
    om = green.harmonic_measure(g2, x)
    mass = total_mass(om)
    checks.append(Verdict("harmonic measure is a probability", abs(mass - 1.0) <= 1e-10,
                          data={"mass": mass}))

    harmonics = [
        ("1", ScalarField.constant(1.0), 1.0),
        ("x", ScalarField(lambda p: p[:, 0]), 0.5),
        ("y", ScalarField(lambda p: p[:, 1]), 0.0),
        ("x^2-y^2", ScalarField(lambda p: p[:, 0] ** 2 - p[:, 1] ** 2), 0.25),
        ("2xy", ScalarField(lambda p: 2 * p[:, 0] * p[:, 1]), 0.0),
        ("re z^3", ScalarField(lambda p: p[:, 0] ** 3 - 3 * p[:, 0] * p[:, 1] ** 2), 0.125),
    ]
    rows, worst = [], 0.0
    for name, h, want in harmonics:
        got = integrate(om, h)
        rows.append(Row(name, got, want, got - want, abs(got - want) <= 1e-8 * tol_scale,
                        1e-8 * tol_scale))
        worst = max(worst, abs(got - want))
    checks.append(Verdict("Poisson reproduction of 6 harmonic probes",
                          worst <= 1e-8 * tol_scale, rows, {"worst": worst}))

    # d=3 reproduction through the product rule
    g3 = green.green_ball(point(0, 0, 0), 1.0, point(0, 0, 0))
    om3 = green.harmonic_measure(g3, point(0.3, 0.1, -0.2))
    h3 = ScalarField(lambda p: p[:, 0] ** 2 - p[:, 2] ** 2)
    got3 = integrate(om3, h3)
    want3 = 0.3 ** 2 - 0.2 ** 2
    checks.append(Verdict("d=3 Poisson reproduction", abs(got3 - want3) <= 1e-8 * tol_scale,
                          data={"got": got3, "want": want3}))

    om0 = green.harmonic_measure(g2, point(0, 0))
    comp = om0.components[0]
    checks.append(Verdict("center gives the uniform sphere measure",
                          isinstance(comp, SphereUniform) and comp.density is None
                          and abs(total_mass(om0) - 1.0) <= 1e-12))

    rng = np.random.default_rng(seed)
    rows, worst = [], -math.inf
    for j in range(20):
        a = rng.uniform(-0.6, 0.6, 2)
        u = ScalarField.log_distance(a)
        lhs = u(x)
        rhs = integrate(om, u)
        margin = lhs - rhs
        worst = max(worst, margin)
        rows.append(Row(f"ln|z-a| #{j}", lhs, rhs, margin, margin <= 1e-8 * tol_scale,
                        1e-8 * tol_scale))
    checks.append(Verdict("Jensen inequality for 20 subharmonic probes",
                          worst <= 1e-8 * tol_scale, rows, {"worst_margin": worst}))
    return checks, {}


def preset_balayage_mass(seed: int, tol_scale: float):
    checks = []
    d = 2
    g2 = green.green_ball(point(0, 0), 1.0, point(0, 0))
    theta = Measure(d, [Atom(point(0, 0), 1.0)])
    om = green.harmonic_measure(g2, point(0, 0))

    S = Ball(point(0, 0), 1.0)
    ring = Ball(point(0, 0), 1.4).boundary_points(20)
    fam = bal.harmonic_kernel_family(S, ring)
    fam.members.append(("const+1", ScalarField.constant(1.0)))
    fam.members.append(("const-1", ScalarField.constant(-1.0)))
    verdict = bal.check_linear(theta, om, fam, tol_scale=1e-7 * tol_scale)
    mass_gap = abs(total_mass(theta) - total_mass(om))
    checks.append(Verdict("Prop 5.2 equal masses under +-1",
                          verdict.passed and mass_gap <= 1e-9, verdict.rows,
                          {"mass_gap": mass_gap, "worst_margin": verdict.worst_margin}))

    sub = bal.TestFamily(fam.tag, fam.members[:10], symmetric=True)
    verdict_sub = bal.check_linear(theta, om, sub, tol_scale=1e-7 * tol_scale)
    checks.append(Verdict("Prop 5.2(3) subfamily keeps the pass", verdict_sub.passed))

    # Prop 5.6 closure under mollification
    mu_j = green.harmonic_measure(green.green_ball(point(0, 0), 0.7, point(0, 0)),
                                  point(0, 0))
    moll = Mollifier(0.1, d)
    beta = convolve_balayage(mu_j, moll, Ball(point(0, 0), 1.0))
    mass_drift = abs(total_mass(beta) - total_mass(mu_j))
    checks.append(Verdict("Prop 5.6 mass conservation", mass_drift <= 1e-9,
                          data={"drift": mass_drift}))
    subfam = bal.standard_jensen_family(Ball(point(0, 0), 1.0), seed=seed)
    v_mu = bal.check_linear(theta, mu_j, subfam, tol_scale=1e-7 * tol_scale)
    v_beta = bal.check_linear(theta, beta, subfam, tol_scale=1e-7 * tol_scale)
    degrade = v_beta.worst_margin - v_mu.worst_margin
    checks.append(Verdict("Prop 5.6 margins degrade <= 1e-6",
                          v_beta.passed and degrade <= 1e-6 * tol_scale, v_beta.rows,
                          {"degradation": degrade}))

    # Prop 5.8 transfer: ball average of delta is swept by the harmonic measure
    lam = Measure(d, [BallUniform(point(0, 0), 0.15, 1.0)])
    v_tr = bal.check_linear(lam, om, subfam, tol_scale=1e-7 * tol_scale)
    checks.append(Verdict("Prop 5.8 transfer instance", v_tr.passed,
                          data={"worst_margin": v_tr.worst_margin}))

    # Prop 5.10 vs the Lyons example on a polar probe set
    _, mu_E, pts = bal.lyons_example_pair(seed=seed)
    sbh_mass = om.atom_mass_at(pts)
    har_mass = mu_E.atom_mass_at(pts)
    checks.append(Verdict("Prop 5.10 polar-set mass contrast",
                          sbh_mass <= 1e-9 and har_mass > 0,
                          data={"sbh_balayage_mass": sbh_mass, "har_balayage_mass": har_mass}))
    return checks, {}


def preset_lyons_example(seed: int, tol_scale: float):
    checks = []
    theta, mu_E, pts = bal.lyons_example_pair(seed=seed)
    S = Ball(point(0, 0), 0.75)
    ring = Ball(point(0, 0), 1.2).boundary_points(20)
    fam_h = bal.harmonic_kernel_family(S, ring)
    v1 = bal.check_linear(theta, mu_E, fam_h, tol_scale=1e-7 * tol_scale)
    checks.append(Verdict("harmonic kernel family passes", v1.passed, v1.rows,
                          {"worst_margin": v1.worst_margin}))

    members = [(f"k@atom[{j}]", ScalarField.kernel(e)) for j, e in enumerate(pts)]
    near = pts * (1.0 + 1e-4)
    members += [(f"k@near[{j}]", ScalarField.kernel(e)) for j, e in enumerate(near)]
    fam_s = bal.TestFamily("subharmonic-kernels", members)
    v2 = bal.check_linear(theta, mu_E, fam_s, tol_scale=1e-7 * tol_scale)
    witness = v2.data["witness"]
    expected_fail = (not v2.passed) and witness is not None
    checks.append(Verdict("subharmonic kernel family fails (expected)", expected_fail, v2.rows,
                          {"witness": witness}))
    return checks, {}


def _pj_instances(seed: int):
    """The twelve (theta, mu, u, riesz_u, K) verification instances."""
    d = 2
    g1 = green.green_ball(point(0, 0), 1.0, point(0, 0))
    om0 = green.harmonic_measure(g1, point(0, 0))
    x1 = point(0.3, -0.2)
    gx = green.green_ball(point(0, 0), 1.0, x1)
    omx = green.harmonic_measure(gx, x1)
    g07 = green.green_ball(point(0, 0), 0.7, point(0, 0))
    om07 = green.harmonic_measure(g07, point(0, 0))

    delta0 = Measure(d, [Atom(point(0, 0), 1.0)])
    deltax = Measure(d, [Atom(x1, 1.0)])
    lam = Measure(d, [BallUniform(point(0, 0), 0.2, 1.0)])
    mix = Measure(d, [Atom(point(0, 0), 0.4)] + list(om0.scaled(0.6).components))
    moll = bal.jensen_measure_family(Ball(point(0, 0), 1.0), point(0, 0),
                                     "mollified", r=0.3, seed=seed)

    def logd(a):
        return ScalarField.log_distance(np.asarray(a)), Measure(d, [Atom(np.asarray(a), 1.0)])

    u1, r1 = logd((0.5, 0.0))
    u2, r2 = logd((0.2, 0.6))
    u_out, r_out = logd((0.8, 0.45))  # pole outside the mollified support
    u_two = ScalarField.log_distance(point(0.5, 0)) + ScalarField.log_distance(point(-0.5, 0))
    r_two = Measure(d, [Atom(point(0.5, 0), 1.0), Atom(point(-0.5, 0), 1.0)])
    u_h = ScalarField(lambda p: p[:, 0] ** 2 - p[:, 1] ** 2)
    r_h = Measure(d, [])
    # |x|^2 has the uniform Riesz density 4 c_2 = 2/pi; carried analytically,
    # with K a concentric ball so the restriction stays exact
    u_sq = ScalarField(lambda p: np.sum(p ** 2, axis=1))
    r_sq = Measure(d, [BallUniform(point(0, 0), 1.25,
                                   (2.0 / math.pi) * math.pi * 1.25 ** 2)])
    K_sq = Ball(point(0, 0), 1.0 + 1e-9)

    # d=3: off-center harmonic measure (Poisson product rule) and a kernel u
    g3 = green.green_ball(point(0, 0, 0), 1.0, point(0.2, 0.0, 0.1))
    om3 = green.harmonic_measure(g3, point(0.2, 0.0, 0.1))
    th3 = Measure(3, [Atom(point(0.2, 0.0, 0.1), 1.0)])
    a3 = point(0.4, 0.1, -0.2)
    u3 = ScalarField.kernel(a3)
    r3 = Measure(3, [Atom(a3, 1.0)])

    return [
        ("classical ln|z-a|", delta0, om0, u1, r1, None),
        ("second pole", delta0, om0, u2, r2, None),
        ("two-zero u", delta0, om0, u_two, r_two, None),
        ("harmonic u", delta0, om0, u_h, r_h, None),
        ("|x|^2 u", delta0, om0, u_sq, r_sq, K_sq),
        ("off-center x", deltax, omx, u1, r1, None),
        ("off-center two-zero", deltax, omx, u_two, r_two, None),
        ("ball-average theta", lam, om0, u1, r1, None),
        ("mollified mu", delta0, moll, u_out, r_out, None),
        ("mixture mu", delta0, mix, u1, r1, None),
        ("small disk", delta0, om07, u_two, r_two, None),
        ("d=3 kernel u", th3, om3, u3, r3, None),
    ]


def preset_classical_pj(seed: int, tol_scale: float):
    checks = []
    d = 2
    g1 = green.green_ball(point(0, 0), 1.0, point(0, 0))
    om = green.harmonic_measure(g1, point(0, 0))
    theta = Measure(d, [Atom(point(0, 0), 1.0)])
    a = point(0.5, 0)
    u = ScalarField.log_distance(a)
    riesz_u = Measure(d, [Atom(a, 1.0)])
    rep = duality.verify_poisson_jensen(theta, om, u, riesz_u=riesz_u,
                                        tol_scale=1e-6 * tol_scale)
    if "terms" not in rep.data:  # no identity terms: the report's reason is the verdict
        checks.append(Verdict("classical Poisson-Jensen instance", False, data=rep.data))
    else:
        # u(0) = ln 0.5 must equal 0 - g(a, 0) = -ln 2
        terms = rep.data["terms"]
        classical = abs(terms["u_theta"] - (terms["u_mu"] - g1(a)))
        checks.append(Verdict("classical Poisson-Jensen instance",
                              rep.passed and classical <= 1e-9,
                              data={"lhs": rep.data["lhs"], "rhs": rep.data["rhs"],
                                    "mismatch": rep.data["mismatch"],
                                    "classical_residual": classical}))

    u_h = ScalarField(lambda p: 2.0 * p[:, 0] * p[:, 1])
    rep_h = duality.verify_poisson_jensen(theta, om, u_h, riesz_u=Measure(d, []),
                                          tol_scale=1e-6 * tol_scale)
    if "terms" not in rep_h.data:
        checks.append(Verdict("harmonic u reduces to the mean identity", False,
                              data=rep_h.data))
    else:
        reduction = abs(rep_h.data["terms"]["u_theta"] - rep_h.data["terms"]["u_mu"])
        checks.append(Verdict("harmonic u reduces to the mean identity",
                              rep_h.passed and reduction <= rep_h.data["tol"],
                              data={"mismatch": rep_h.data["mismatch"]}))
    return checks, {}


def preset_pj_suite(seed: int, tol_scale: float):
    checks = []
    rows = []
    all_ok = True
    worst = 0.0
    reasons = {}  # instance -> why its report has no identity terms
    for name, theta, mu, u, riesz_u, K in _pj_instances(seed):
        rep = duality.verify_poisson_jensen(theta, mu, u, riesz_u=riesz_u, K=K,
                                            tol_scale=1e-6 * tol_scale)
        all_ok &= rep.passed
        if "lhs" not in rep.data:  # a failed certification or an indeterminate integral
            reasons[name] = rep.data
            rows.append(Row(name, math.nan, math.nan, math.nan, False, math.nan))
            continue
        lhs, rhs, mismatch = rep.data["lhs"], rep.data["rhs"], rep.data["mismatch"]
        rows.append(Row(name, lhs, rhs, mismatch, rep.passed, rep.data["tol"]))
        worst = max(worst, mismatch / (1e-12 + abs(lhs) + abs(rhs) + 1.0))
    data = {"worst_relative": worst}
    if reasons:
        data["reasons"] = reasons
    checks.append(Verdict("generalized Poisson-Jensen on 12 instances", all_ok, rows, data))
    return checks, {}


# duality-roundtrip's lattices; the h = 0.02 centres are the h = 0.01 even-index ones
ROUNDTRIP_FINE = GridDomain(point(-1.2, -1.2), 0.01, np.ones((241, 241), bool))
ROUNDTRIP_COARSE = GridDomain(point(-1.2, -1.2), 0.02, np.ones((121, 121), bool))


def preset_duality_roundtrip(seed: int, tol_scale: float):
    checks = []
    d = 2
    x0 = point(0, 0)
    D = Ball(x0, 1.0)
    g1 = green.green_ball(x0, 1.0, x0)

    def mk_as(i):
        # Arens-Singer (harmonic-measure based) samples
        radius = 0.55 + 0.08 * i
        gg = green.green_ball(x0, radius, x0)
        return green.harmonic_measure(gg, x0)

    def mk_jensen(i):
        if i < 2:
            return bal.jensen_measure_family(D, x0, "mixture", a=0.2 + 0.2 * i,
                                             b=0.8 - 0.2 * i, seed=seed)
        if i < 4:
            # mollified sweep: C-infinity density supported off the pole,
            # the smooth-class measures of the restricted bijection; the
            # mollification radius follows the fixed 0.1 * dist(supp, bd D) rule
            R_sub = 0.5 + 0.05 * i
            om_sub = green.harmonic_measure(green.green_ball(x0, R_sub, x0), x0)
            return convolve_balayage(om_sub, Mollifier(0.1 * (1.0 - R_sub), 2),
                                     Ball(x0, 1.0), cells_per_radius=6)
        sub = [(Ball(x0, 0.5), 0.5), (Ball(x0, 0.8), 0.5)]
        return bal.jensen_measure_family(D, x0, "sub-balls", sub_balls=sub, seed=seed)

    probes = [ScalarField(lambda p, k=k: np.cos(0.7 * k * p[:, 0]) * np.exp(0.2 * k * p[:, 1]))
              for k in range(1, 6)]
    probes += [ScalarField(lambda p, k=k: (p[:, 0] ** 2 - p[:, 1] ** 2) * 0.1 * k + 1.0)
               for k in range(1, 6)]

    def roundtrip_err(swept, V, samples):
        # worst relative gap between the probe integrals `swept` of a measure
        # and those of its recovery from V's samples
        rec = duality.from_potential(V, samples, pole_exclusion=0.1)
        errs = []
        for a, b in zip(swept, integrate_many(rec, probes)):
            for value in (a, b):  # the first failing integral, as one call per probe meets it
                if isinstance(value, Exception):
                    raise value
            errs.append(abs(a - b) / (1.0 + abs(a)))
        return max(errs)

    rows, improve_rows = [], []
    ok = improve_ok = True
    uncertified = {}  # measure -> the CertificationError of its potential
    slack = 1e-12 * tol_scale
    for i in range(5):
        for kind, mk in (("arens-singer", mk_as), ("jensen", mk_jensen)):
            try:
                mu = mk(i)
                V = duality.to_potential(mu, x0, kind=kind, D=Ball(x0, 1.6), seed=seed,
                                         tol=1e-8 * tol_scale)
            except bal.CertificationError as exc:  # a failed row, not a crash
                uncertified[f"{kind}[{i}]"] = str(exc)
                rows.append(Row(f"{kind}[{i}] h=0.02", math.nan, 0.02, math.nan, False))
                improve_rows.append(Row(f"{kind}[{i}] refine", math.nan, math.nan, math.nan,
                                        False, slack))
                ok = improve_ok = False
                continue
            swept = integrate_many(mu, probes)
            fine = GridField.sample(V, ROUNDTRIP_FINE)  # V is sampled once
            e_coarse = roundtrip_err(swept, V, GridField(ROUNDTRIP_COARSE, fine.values[::2, ::2]))
            e_fine = roundtrip_err(swept, V, fine)
            rows.append(Row(f"{kind}[{i}] h=0.02", e_coarse, 0.02, e_coarse - 0.02,
                            e_coarse <= 0.02))
            ok &= e_coarse <= 0.02
            improve_rows.append(Row(f"{kind}[{i}] refine", e_coarse, e_fine,
                                    e_fine - e_coarse, e_fine <= e_coarse + slack, slack))
            improve_ok &= e_fine <= e_coarse + slack
    failed = {"certification": uncertified} if uncertified else {}
    checks.append(Verdict("round-trip integrals within 2% at h=0.02", ok, rows, failed))
    checks.append(Verdict("round-trip error decreases at h=0.01", improve_ok, improve_rows,
                          failed))

    # Lemma-style domination: potentials of swept measures sit under the Green function
    om09 = green.harmonic_measure(green.green_ball(x0, 0.9, x0), x0)
    try:
        V9 = duality.to_potential(om09, x0, kind="jensen", seed=seed, tol=1e-8 * tol_scale)
    except bal.CertificationError as exc:  # neither check has a potential to test
        failed = {"certification": str(exc)}
        checks.append(Verdict("V <= g_D at 500 probes (pole coefficient <= 1)", False,
                              data=failed))
        checks.append(Verdict("pole coefficient 1.5 is rejected", False, data=failed))
        return checks, {}
    try:
        pl = duality.phragmen_lindelof_bound(V9, g1, S_o=Ball(x0, 0.1), r=0.05,
                                             tol=1e-7 * tol_scale, seed=seed)
        checks.append(Verdict("V <= g_D at 500 probes (pole coefficient <= 1)", pl.passed,
                              data=pl.to_json()))
    except ValueError as exc:  # V9's own pole coefficient exceeds 1
        checks.append(Verdict("V <= g_D at 500 probes (pole coefficient <= 1)", False,
                              data={"rejected": str(exc)}))

    scaled = ScalarField(lambda p: 1.5 * V9.evaluate_array(p))
    bad = duality.ASPotential(scaled, x0, 1.5, 1.0, V9.support_window, "arens-singer")
    try:
        duality.phragmen_lindelof_bound(bad, g1, seed=seed)
        rejected = False
    except ValueError:
        rejected = True
    checks.append(Verdict("pole coefficient 1.5 is rejected", rejected))
    return checks, {}


def preset_zeros_polynomial(seed: int, tol_scale: float):
    checks = []
    S_o = Ball(point(0, 0), 0.05)
    f = zeros.HoloFunction.polynomial([1, 0, -0.25])
    M = zeros.GrowthMajorant.constant(math.log(5.0 / 4.0))
    b_plus = 1.0
    families = zeros.class_families(S_o, 0.03, -1.0, b_plus, f.domain, seed)
    rep = zeros.check_thm_hol(f, M, S_o, 0.03, -1.0, b_plus, families, seed=seed,
                              tol_scale=1e-7 * tol_scale)
    c3 = rep.data["variants"]["ZIII"].data["C"]
    checks.append(Verdict("polynomial [ZI]/[ZII]/[ZIII] pass with C <= 2 b_plus",
                          rep.passed and c3 <= 2.0 * b_plus + 1e-9,
                          data=rep.data["variants"]))
    impl = rep.data["implication_ZI_to_ZII"]
    checks.append(Verdict("implication bound C2 <= C1 + max(b+,-b-)|mu_M|(ring)",
                          impl["ok"], data=impl))

    crit = zeros.check_criterium3_forward(f, M, S_o, 0.03, -1.0, b_plus, families, seed=seed)
    checks.append(Verdict("criterium forward stages z2/z3/z4 pass", crit.passed,
                          data=crit.data["variants"]))

    cm = zeros.counting_measure(f, Ball(point(0, 0), 1.0))
    checks.append(Verdict("counting measure mass equals degree",
                          total_mass(cm) == 2.0, data={"mass": total_mass(cm)}))
    return checks, {}


def preset_zeros_blaschke(seed: int, tol_scale: float):
    checks = []
    S_o = Ball(point(0, 0), 0.05)
    zs = [1 - 2.0 ** (-k) for k in range(1, 11)]
    f = zeros.HoloFunction.blaschke(zs)
    M = zeros.GrowthMajorant.constant(0.0)
    families = zeros.class_families(S_o, 0.03, -1.0, 3.5, f.domain, seed)
    rep = zeros.check_thm_hol(f, M, S_o, 0.03, -1.0, 3.5, families, seed=seed,
                              tol_scale=1e-7 * tol_scale)
    checks.append(Verdict("blaschke [ZI]/[ZII]/[ZIII] finite and passing", rep.passed,
                          data=rep.data["variants"]))

    # the clipped-Green member reproduces the direct zero sum
    gm = green.green_ball(point(0, 0), 1.0, point(0, 0))
    c = 1e-4
    direct = sum(max(gm(point(z, 0)) - c, 0.0) for z in zs)
    oracle = sum(math.log(1.0 / z) for z in zs)
    checks.append(Verdict("clipped Green member sums ~ sum ln(1/|z_k|) ~ 1.242",
                          abs(direct - oracle) <= 0.01 * oracle + 10 * c,
                          data={"direct": direct, "oracle": oracle}))

    crit = zeros.check_criterium3_forward(f, M, S_o, 0.03, -1.0, 3.5, families, seed=seed)
    checks.append(Verdict("criterium forward stages pass", crit.passed,
                          data={"blaschke_sum": f.blaschke_sum}))
    return checks, {}


def preset_zeros_adversarial(seed: int, tol_scale: float):
    checks = []
    S_o = Ball(point(0, 0), 0.05)
    zs = [1 - 1.0 / k for k in range(2, 201)]
    f = zeros.HoloFunction.blaschke(zs)
    M = zeros.GrowthMajorant.constant(0.0)
    rep = zeros.check_thm_hol(f, M, S_o, 0.03, -1.0, 3.5, seed=seed,
                              tol_scale=1e-7 * tol_scale)
    variants = rep.data["variants"]
    flagged = any(v.data["diverging"] for v in variants.values()) and not rep.passed
    checks.append(Verdict("divergent zero set flagged (expected)", flagged,
                          data={"blaschke_sum": f.blaschke_sum, **variants}))
    return checks, {}


PRESETS = {
    "glue-basic": (preset_glue_basic, "max/quantitative gluing acceptance and rejection",
                   ("gluing",)),
    "glue-green": (preset_glue_green, "Green-function gluing with growth bounds and pole fit",
                   ("gluing", "green")),
    "green-ball": (preset_green_ball, "Green model property suite for balls (d=2,3)",
                   ("green",)),
    "harmonic-measure": (preset_harmonic_measure,
                         "Poisson reproduction and Jensen inequality of harmonic measure",
                         ("green", "balayage")),
    "balayage-mass": (preset_balayage_mass,
                      "mass identities, convolution closure, transfer and polar-mass checks",
                      ("balayage",)),
    "lyons-example": (preset_lyons_example,
                      "har-balayage that charges a polar set (expected subharmonic failure)",
                      ("balayage",)),
    "classical-pj": (preset_classical_pj, "the classical Poisson-Jensen instance",
                     ("pj", "duality")),
    "pj-suite": (preset_pj_suite, "generalized Poisson-Jensen on 12 instances",
                 ("pj", "duality")),
    "duality-roundtrip": (preset_duality_roundtrip,
                          "measure <-> potential round trips and domination bounds",
                          ("duality",)),
    "zeros-polynomial": (preset_zeros_polynomial, "polynomial zero-criteria suite",
                         ("zeros",)),
    "zeros-blaschke": (preset_zeros_blaschke, "truncated Blaschke zero-criteria suite",
                       ("zeros",)),
    "zeros-adversarial": (preset_zeros_adversarial,
                          "divergent zero set must be flagged", ("zeros",)),
}


def run_preset(name: str, seed: int = 0, tol_scale: float = 1.0):
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}")
    fn, _, _ = PRESETS[name]
    return fn(seed, tol_scale)


def preset_table() -> list:
    return [{"name": name, "description": desc, "tags": list(tags)}
            for name, (_, desc, tags) in PRESETS.items()]
