import json
import math

import numpy as np
import pytest

from potkit import balayage, duality, green
from potkit.balayage import CertificationError
from potkit.duality import (ASPotential, from_potential, phragmen_lindelof_bound,
                            to_potential, verify_poisson_jensen)
from potkit.fields import GridField, ScalarField
from potkit.geometry import Ball, GridDomain, point
from potkit.measures import Atom, Measure, SphereUniform, integrate, total_mass
from potkit.potentials import Potential


def delta(x=(0.0, 0.0)):
    return Measure(len(x), [Atom(np.asarray(x, float), 1.0)])


def _om(R=1.0, x=(0.0, 0.0)):
    x = np.asarray(x, float)
    return green.harmonic_measure(green.green_ball(point(0, 0), R, x), x)


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
    mu = balayage.jensen_measure_family(D, point(0, 0), "mollified", r=0.3)
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
    rec = from_potential(V, GridField.sample(V, grid), pole_exclusion=0.1)
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
    rec = from_potential(V0, GridField.sample(V0, grid), pole_exclusion=0.25)  # 5 h
    atoms = [c for c in rec.components if isinstance(c, Atom)]
    assert len(atoms) == 1 and atoms[0].weight == pytest.approx(1.0)
    assert total_mass(rec) == pytest.approx(1.0, abs=1e-10)


def test_from_potential_scaled_green():
    # V = 0.5 g: half boundary mass, half pole atom
    base = to_potential(_om(), point(0, 0), kind="arens-singer")
    half = ASPotential(ScalarField(lambda p: 0.5 * base.evaluate_array(p)), point(0, 0),
                       0.5, 1.0, base.support_window, "arens-singer")
    grid = GridDomain(point(-1.2, -1.2), 0.02, np.ones((121, 121), bool))
    rec = from_potential(half, GridField.sample(half, grid), pole_exclusion=0.1)
    atoms = [c for c in rec.components if isinstance(c, Atom)]
    assert atoms[0].weight == pytest.approx(0.5, abs=1e-9)
    spread = total_mass(rec) - atoms[0].weight
    assert spread == pytest.approx(0.5, rel=0.03)


def test_roundtrip_probe_integrals():
    mu = _om(0.7)
    V = to_potential(mu, point(0, 0), kind="jensen")
    grid = GridDomain(point(-1.0, -1.0), 0.02, np.ones((101, 101), bool))
    rec = from_potential(V, GridField.sample(V, grid), pole_exclusion=0.1)
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
    rep = verify_poisson_jensen(not_swept, om, u, riesz_u=delta((0.5, 0.0)))
    assert not rep.passed and rep.rows == []
    assert rep.data["certification"].startswith(
        "harmonic-kernels certification failed (witness k")


def test_phragmen_lindelof_bounds():
    g1 = green.green_ball(point(0, 0), 1.0, point(0, 0))
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


def test_pole_fit_quality_gate(monkeypatch):
    # an extra atom just off the pole breaks the log-affine radius ladder,
    # so the fitted limit is rejected as unreliable (certification bypassed
    # to isolate the gate)
    monkeypatch.setattr(duality, "certify", lambda *args: None)
    mu = Measure(2, [Atom(point(3e-3, 0.0), 0.5)] + list(_om().scaled(0.5).components))
    with pytest.raises(CertificationError, match="pole-coefficient fit unreliable"):
        to_potential(mu, point(0, 0), kind="arens-singer")


# ---------------------------------------------------------------------------
# the Poisson-Jensen hull window


def hull_window_loop(theta, mu, cells=duality.HULL_CELLS):
    """Reference: every support point against every window cell, one point at a time."""
    pts = np.vstack([p for p in (theta.support_points(), mu.support_points()) if len(p)])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = float(np.max(hi - lo))
    h = max(span, 1e-3) / cells
    lo = lo - 4 * h
    shape = tuple(int(math.ceil((hi[k] - lo[k] + 8 * h) / h)) + 1 for k in range(pts.shape[1]))
    window = GridDomain(lo, h, np.ones(shape, dtype=bool))
    centers = window.origin[None, :] + np.indices(window.shape).reshape(
        window.dimension, -1).T * h
    occupied = np.zeros(len(centers), dtype=bool)
    for p in pts:
        occupied |= np.max(np.abs(centers - p[None, :]), axis=1) <= 0.75 * h
    K = window.with_mask(occupied.reshape(window.shape))
    hull = duality.inward_filled_hull(K, window)
    return duality.parallel_set(hull, 1.5 * h)


def atoms(pts):
    pts = np.atleast_2d(np.asarray(pts, float))
    return Measure(pts.shape[1], [Atom(p, 1.0) for p in pts])


def assert_same_window(a, b):
    assert a.spacing == b.spacing
    assert a.origin.tobytes() == b.origin.tobytes()
    assert a.shape == b.shape and np.array_equal(a.mask, b.mask)


def _raw_occupancy(monkeypatch):
    # compare the occupied cells themselves, before hull filling and padding
    monkeypatch.setattr(duality, "inward_filled_hull", lambda K, O: K)
    monkeypatch.setattr(duality, "parallel_set", lambda K, r: K)


def _window_of(pts, cells):
    pts = np.asarray(pts, float)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    h = max(float(np.max(hi - lo)), 1e-3) / cells
    return lo - 4 * h, h


@pytest.mark.parametrize("raw", [False, True])
@pytest.mark.parametrize("d", [2, 3])
def test_hull_window_matches_point_loop_on_random_clouds(d, raw, monkeypatch):
    if raw:
        _raw_occupancy(monkeypatch)
    rng = np.random.default_rng(d)
    cells = 24 if d == 3 else 96
    monkeypatch.setattr(duality, "HULL_CELLS", cells)
    for trial in range(3):
        theta = atoms(rng.normal(size=(5, d)) * 0.2)
        mu = atoms(rng.uniform(-1, 1, size=(40, d)))
        if trial:  # a third support, as the Riesz atoms of a pj-suite instance
            mu = mu + atoms(rng.uniform(-0.5, 0.5, size=(7, d)))
        assert_same_window(duality._hull_window(theta, mu),
                           hull_window_loop(theta, mu, cells=cells))


@pytest.mark.parametrize("d", [2, 3])
def test_hull_window_single_point(d, monkeypatch):
    x = atoms(np.full(d, 0.3))
    assert_same_window(duality._hull_window(x, x), hull_window_loop(x, x))
    _raw_occupancy(monkeypatch)
    K = duality._hull_window(x, x)
    assert_same_window(K, hull_window_loop(x, x))
    assert K.mask.sum() == 1


@pytest.mark.parametrize("raw", [False, True])
@pytest.mark.parametrize("d", [2, 3])
def test_hull_window_borderline_points(d, raw, monkeypatch):
    """Points 0.75 h and 0.5 h (a cell edge) from a centre along each axis, both signs.

    The frame makes h = 1/16, so every offset below is exact in floating point.
    """
    if raw:
        _raw_occupancy(monkeypatch)
    cells = 16
    monkeypatch.setattr(duality, "HULL_CELLS", cells)
    frame = np.vstack([np.zeros(d), np.ones(d)])
    lo, h = _window_of(frame, cells)
    centre = lo + np.array([9 + k for k in range(d)]) * h
    probes = [centre + s * f * h * np.eye(d)[k]
              for f in (0.75, 0.5) for s in (1.0, -1.0) for k in range(d)]
    probes.append(centre + 0.5 * h)  # a cell corner
    probes.append(centre + 0.75 * h)
    assert h == 0.0625
    assert _window_of(np.vstack([frame, probes]), cells)[0].tobytes() == lo.tobytes()
    for p in probes:
        mu = atoms(np.vstack([frame, p]))
        assert_same_window(duality._hull_window(mu, mu), hull_window_loop(mu, mu, cells=cells))


def test_hull_window_matches_point_loop_on_pj_suite():
    # the windows of pj-suite's K-less instances at seed 0, on the supports of
    # theta, mu and the Riesz data of u
    from potkit.presets import _pj_instances

    supports = [(theta, mu + riesz_u) for _, theta, mu, _, riesz_u, K in _pj_instances(0)
                if K is None]
    assert len(supports) == 11 and {mu.dimension for _, mu in supports} == {2, 3}
    for theta, mu in supports:
        assert_same_window(duality._hull_window(theta, mu), hull_window_loop(theta, mu))


# -- the hull is built only to recover the Riesz data ---------------------------
# Counted at seed 0: every pj-suite and classical-pj instance passes the Riesz
# data of u, so neither builds a hull window (pj-suite built 11, one of them a
# 1.16M-cell 3-D window, to restrict atoms the window was made to contain).
PJ_HULL_WINDOWS = {"pj-suite": 0, "classical-pj": 0}


def _counting_hull_windows(monkeypatch):
    built, real = [], duality._hull_window

    def counted(theta, mu):
        built.append(real(theta, mu))
        return built[-1]

    monkeypatch.setattr(duality, "_hull_window", counted)
    return built


@pytest.mark.parametrize("name", list(PJ_HULL_WINDOWS))
def test_pj_preset_hull_work_counters(monkeypatch, name):
    from potkit.presets import run_preset

    built = _counting_hull_windows(monkeypatch)
    checks, _ = run_preset(name, 0, 1.0)
    assert all(c.passed for c in checks)
    assert len(built) == PJ_HULL_WINDOWS[name]


@pytest.mark.parametrize("u", [ScalarField.log_distance(point(0.5, 0)),
                               ScalarField(lambda p: p[:, 0] ** 2 - p[:, 1] ** 2)],
                         ids=["classical", "harmonic"])
def test_riesz_recovery_on_the_hull_matches_the_restricted_recovery(monkeypatch, u):
    """Without riesz_u one hull is built, and the verdict is that of the recovery
    restricted to the hull, as the verifier used to integrate it."""
    built = _counting_hull_windows(monkeypatch)
    rep = verify_poisson_jensen(delta(), _om(), u)
    assert len(built) == 1

    real = duality.riesz_measure
    monkeypatch.setattr(duality, "riesz_measure",
                        lambda samples: duality.restrict(real(samples), samples.grid))
    want = verify_poisson_jensen(delta(), _om(), u)
    assert len(built) == 2
    assert json.dumps(rep.to_json()) == json.dumps(want.to_json())


def test_layer_riesz_data_is_integrated_whole():
    # the log potential of a unit circle layer off the origin: its Riesz data is
    # the layer, integrated by its own rule rather than clipped to a window
    c, r = point(0.2, 0.1), 0.3
    layer = Measure(2, [SphereUniform(c, r, 1.0)])
    u = ScalarField(lambda p: np.log(np.maximum(np.linalg.norm(p - c, axis=1), r)))
    om = _om()
    rep = verify_poisson_jensen(delta(), om, u, riesz_u=layer)
    assert rep.passed
    terms = rep.data["terms"]
    assert terms["pt_mu_riesz"] == integrate(layer, Potential(om))
    assert terms["pt_theta_riesz"] == integrate(layer, Potential(delta()))


# -- one integral pass per round-trip measure ---------------------------------
# Counted at seed 0: integrate_many runs once per swept measure and once per
# recovered one (10 + 20 + the preset's other 28), where one integrate call per
# probe and side made 428 runs.  Each round-trip potential is sampled once, on
# the h = 0.01 lattice (241^2 = 58,081 cells), and the h = 0.02 recovery takes
# its even-index samples: the two mollified Jensen measures make one FMM sum
# and one far field each, and GridDensity.discretize runs 40 times (42 with a
# second sampling, 260 before integrate_many).
ROUNDTRIP_WORK = {"integrate_many": 58, "GridDensity.discretize": 40,
                  "log_kernel_sum": 2, "_far_field": 2}
ROUNDTRIP_FMM_TARGETS = [58_081, 58_081]


def test_roundtrip_work_counters(monkeypatch):
    import sys

    from potkit import _fmm, measures
    from potkit.presets import run_preset

    counts = dict.fromkeys(ROUNDTRIP_WORK, 0)
    targets = []

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            if key == "log_kernel_sum":
                targets.append(len(args[0]))
            return fn(*args, **kwargs)
        return counted

    many = measures.integrate_many
    for name, module in list(sys.modules.items()):  # every module bound to the name
        if name.startswith("potkit") and getattr(module, "integrate_many", None) is many:
            monkeypatch.setattr(module, "integrate_many", counting("integrate_many", many))
    monkeypatch.setattr(measures.GridDensity, "discretize", counting(
        "GridDensity.discretize", measures.GridDensity.discretize))
    for name in ("log_kernel_sum", "_far_field"):
        monkeypatch.setattr(_fmm, name, counting(name, getattr(_fmm, name)))
    checks, _ = run_preset("duality-roundtrip", 0, 1.0)
    assert all(c.passed for c in checks)
    assert counts == ROUNDTRIP_WORK
    assert targets == ROUNDTRIP_FMM_TARGETS


@pytest.mark.parametrize("swept_fails, recovered_fails, raised", [
    (1, 0, "recovered 0"), (0, 0, "swept 0"), (2, 2, "swept 2"), (3, 2, "recovered 2")])
def test_roundtrip_raises_the_first_failing_integral(monkeypatch, swept_fails,
                                                     recovered_fails, raised):
    """The (swept_j, recovered_j) pairs are met in probe order, as one call each made."""
    from potkit import presets

    real, calls = presets.integrate_many, []

    def failing(mu, fields):
        out = real(mu, fields)
        side, j = (("swept", swept_fails), ("recovered", recovered_fails))[len(calls)]
        calls.append(side)
        out[j] = LookupError(f"{side} {j}")
        return out

    monkeypatch.setattr(presets, "integrate_many", failing)
    with pytest.raises(LookupError, match=f"^{raised}$"):
        presets.run_preset("duality-roundtrip", 0, 1.0)
    assert calls == ["swept", "recovered"]
