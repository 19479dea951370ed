import dataclasses
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potkit import _blas, balayage, fields, green, measures, quadrature
from potkit.cli import _build_measure
from potkit.geometry import Annulus, Ball, GridDomain, point
from potkit.kernels import k_eval_array, unit_ball_volume
from potkit.measures import (Atom, BallUniform, GridDensity, Measure, Mollifier,
                             SphereUniform, convolve_balayage, integrate, jordan,
                             restrict, total_mass)


EPS = np.finfo(float).eps


def atom(x, w=1.0):
    return Measure(len(x), [Atom(np.asarray(x, float), w)])


def test_integrate_atom_at_unit_distance():
    mu = atom((1.0, 0.0))
    f = fields.ScalarField.log_distance(point(0, 0))
    assert integrate(mu, f) == 0.0


def test_integrate_circle_mean_log():
    # classical circle mean of ln|z-a| is ln^+ |a|; oracle: 2^14-node trapezoid
    mu = Measure(2, [SphereUniform(point(0, 0), 1.0, 1.0)])
    a = point(0.5, 0)
    f = fields.ScalarField.log_distance(a)
    theta = 2 * np.pi * np.arange(1 << 14) / (1 << 14)
    oracle = np.mean(np.log(np.hypot(np.cos(theta) - 0.5, np.sin(theta))))
    assert abs(oracle) < 1e-12  # ln^+ 0.5 = 0
    assert integrate(mu, f) == pytest.approx(oracle, abs=1e-10)


def test_integrate_ball_mass():
    mu = Measure(2, [BallUniform(point(0, 0), 1.0, math.pi)])
    assert integrate(mu, fields.ScalarField.constant(1.0)) == pytest.approx(math.pi, rel=1e-12)


def test_integrate_ball_polar_oracles():
    # a unit-mass ball layer integrates a field's ball mean with the ball rule
    def unit(d):
        return Measure(d, [BallUniform(np.zeros(d), 1.0, 1.0)])

    sq = fields.ScalarField(lambda p: np.sum(p ** 2, axis=1))
    # int_0^1 r^2 2r dr = 1/2, int_0^1 ln(r) 2r dr = -1/2, int_0^1 r^2 3r^2 dr = 3/5
    assert integrate(unit(2), sq) == pytest.approx(0.5, abs=1e-12)
    assert integrate(unit(2), fields.ScalarField.log_distance(point(0, 0))) == \
        pytest.approx(-0.5, abs=1e-6)
    assert integrate(unit(3), sq) == pytest.approx(0.6, abs=1e-10)


def test_integrate_plain_sphere_d3_is_exact():
    # plain d=3 layers take the Gauss-Legendre x trapezoid product rule, exact for
    # x0^2 = (1 - z^2) cos^2(phi): the mean over the unit sphere is 1/3 up to rounding
    mu = Measure(3, [SphereUniform(point(0, 0, 0), 1.0, 1.0)])
    f = fields.ScalarField(lambda p: p[:, 0] ** 2)
    assert abs(integrate(mu, f) - 1.0 / 3.0) <= 1e-14


def test_plain_and_unit_density_spheres_share_their_nodes_d3():
    plain = SphereUniform(point(0.1, 0, -0.2), 0.7, 1.3)
    unit = SphereUniform(point(0.1, 0, -0.2), 0.7, 1.3, lambda p: np.ones(len(p)))
    for use in ("integrate", "clip"):
        (pts, w), (upts, uw) = plain.discretize(use), unit.discretize(use)
        assert len(w) == 4096, use
        assert pts.tobytes() == upts.tobytes() and w.tobytes() == uw.tobytes(), use


def test_total_mass_and_jordan():
    mu = atom((0.0, 0.0), 2.0) + atom((1.0, 0.0), -3.0)
    assert total_mass(mu) == -1.0
    pos, neg = jordan(mu)
    assert total_mass(pos) == 2.0 and total_mass(neg) == 3.0


def test_restrict_concentric_ball():
    mu = Measure(2, [BallUniform(point(0, 0), 1.0, 1.0)])
    r = restrict(mu, Ball(point(0, 0), 0.5))
    comp = r.components[0]
    assert isinstance(comp, BallUniform) and comp.radius == 0.5
    assert total_mass(r) == pytest.approx(0.25, rel=1e-12)
    # the complement, a concentric annulus and its complement split analytically too:
    # (radius, mass) of each piece, a hole being a ball of negative mass
    ring = Annulus(point(0, 0), 0.5, 0.8)
    sphere = Measure(2, [SphereUniform(point(0, 0), 0.6, 2.0)])
    for S, complement, pieces, sphere_kept in [
            (Ball(point(0, 0), 0.5), True, [(1.0, 1.0), (0.5, -0.25)], True),
            (ring, False, [(0.8, 0.64), (0.5, -0.25)], True),
            (ring, True, [(0.5, 0.25), (1.0, 1.0), (0.8, -0.64)], False),
            (Ball(point(1e-15, 0), 0.5), False, [(0.5, 0.25)], False)]:
        r = restrict(mu, S, complement)
        assert all(isinstance(c, BallUniform) for c in r.components)
        got = [(c.radius, c.total) for c in r.components]
        assert got == [pytest.approx(p, rel=1e-12) for p in pieces]
        kept = restrict(sphere, S, complement).components
        assert list(kept) == (list(sphere.components) if sphere_kept else [])


def test_restrict_reassembles_mass():
    mu = Measure(2, [BallUniform(point(0, 0), 1.0, 1.0),
                     SphereUniform(point(0, 0), 0.7, 0.5),
                     Atom(point(0.2, 0.1), 0.25)])
    for S in (Ball(point(0, 0), 0.4), Annulus(point(0, 0), 0.4, 0.9),
              Annulus(point(0, 0), 0.1, 0.5)):
        inside = restrict(mu, S)
        outside = restrict(mu, S, complement=True)
        recombined = total_mass(inside) + total_mass(outside)
        assert recombined == pytest.approx(total_mass(mu), abs=1e-12)


def test_restrict_non_concentric_sampled():
    mu = Measure(2, [BallUniform(point(0, 0), 1.0, 1.0)])
    S = Ball(point(0.5, 0), 1.0)  # off-center clip
    kept = total_mass(restrict(mu, S))
    # oracle: lens area overlap of two unit disks at distance 0.5, normalized;
    # node clipping of an indicator is ~1e-3 accurate at the default rule
    dist = 0.5
    lens = 2 * math.acos(dist / 2) - 0.5 * dist * math.sqrt(4 - dist ** 2)
    assert kept == pytest.approx(lens / math.pi, abs=3e-3)


def test_mollifier_mass_and_profile():
    for d in (2, 3):
        m = Mollifier(0.3, d)
        # the mass under the ball quadrature: 1 up to rule exactness
        nodes, w = quadrature.ball_rule(d)
        r2 = np.sum((m.radius * nodes) ** 2, axis=-1)
        mass = unit_ball_volume(d) * m.radius ** d * float(np.dot(w, m.profile(r2)))
        assert mass == pytest.approx(1.0, abs=1e-10)
        assert m.profile(np.zeros(1))[0] > 0
        assert m.profile(np.array([0.31 ** 2]))[0] == 0.0


def test_mollifier_profile_is_the_closed_form_bitwise_and_keeps_its_input():
    m = Mollifier(0.3, 2)
    r2 = np.random.default_rng(5).uniform(0.0, 0.12, size=(4, 7, 9))
    r2[0, 0, :3] = (0.0, 0.09, 0.0900001)  # the centre, the rim and just past it
    before = r2.copy()
    t = np.clip(1.0 - r2 / m.radius ** 2, 0.0, None)
    want = m.normalizer * (t * t) ** 2
    got = m.profile(r2)
    assert got.tobytes() == want.tobytes() and got.shape == r2.shape
    assert r2.tobytes() == before.tobytes()


def test_convolve_delta_gives_mollifier_density():
    moll = Mollifier(0.2, 2)
    beta = convolve_balayage(atom((0.0, 0.0)), moll, Ball(point(0, 0), 1.0))
    assert isinstance(beta.components[0], GridDensity)
    assert total_mass(beta) == pytest.approx(1.0, abs=1e-9)
    gd = beta.components[0]
    centers = gd.grid.cell_centers()
    masses = np.asarray(gd.values).ravel()
    # radial symmetry: mass peaks at the source point
    assert np.linalg.norm(centers[np.argmax(masses)]) <= 1e-12
    # second moment: r^2/6 for the bump plus the exact h^2/6 lattice offset
    h = gd.grid.spacing
    m2 = float(np.sum(masses * np.sum(centers ** 2, axis=1)))
    assert m2 == pytest.approx((0.2 ** 2 + h ** 2) / 6.0, rel=1e-3)


def test_convolve_two_atoms_support_and_mass():
    mu = atom((1.0, 0.0)) + atom((-1.0, 0.0))
    beta = convolve_balayage(mu, Mollifier(0.1, 2), Ball(point(0, 0), 2.0))
    assert total_mass(beta) == pytest.approx(2.0, abs=1e-9)
    pts = beta.support_points()
    r_right = np.linalg.norm(pts - np.array([1.0, 0.0]), axis=1)
    r_left = np.linalg.norm(pts - np.array([-1.0, 0.0]), axis=1)
    assert np.all(np.minimum(r_left, r_right) <= 0.1 + 0.05)


def test_convolve_jensen_inequality_chain():
    # for u = ln|x - p| with p off the smoothed support, the swept integral
    # dominates (quadrature on both sides)
    om = green.harmonic_measure(green.green_ball(point(0, 0), 0.6, point(0, 0)),
                                point(0, 0))
    beta = convolve_balayage(om, Mollifier(0.1, 2), Ball(point(0, 0), 1.0))
    u = fields.ScalarField.log_distance(point(0.9, 0.3))
    lhs = integrate(om, u)
    rhs = integrate(beta, u)
    assert rhs >= lhs - 1e-9


def test_convolve_support_condition_enforced():
    mu = atom((0.9, 0.0))
    with pytest.raises(ValueError):
        convolve_balayage(mu, Mollifier(0.2, 2), Ball(point(0, 0), 1.0))


@pytest.mark.parametrize("kind", [SphereUniform, BallUniform])
def test_convolve_support_condition_is_exact(kind):
    # layer of radius 0.5 centred 0.3 away in B(0, 1): the exact budget is
    # (1 - 0.8) / 2 = 0.1, so a mollifier just above it must be refused even
    # where sampled support nodes miss the outermost point
    c = 0.3 * np.array([math.cos(math.pi / 64), math.sin(math.pi / 64)])
    mu = Measure(2, [kind(c, 0.5, 1.0)])
    with pytest.raises(ValueError):
        convolve_balayage(mu, Mollifier(0.10005, 2), Ball(point(0, 0), 1.0))
    with pytest.raises(TypeError):
        convolve_balayage(mu, Mollifier(0.05, 2), Annulus(point(0, 0), 0.1, 1.0))


def test_convolve_family_variant():
    # point -> measure family: push a two-atom charge through parallel shifts
    def family(x):
        return Measure(2, [SphereUniform(np.asarray(x), 0.05, 1.0)])

    mu = atom((0.3, 0.0), 2.0) + atom((-0.3, 0.0), 1.0)
    beta = convolve_balayage(mu, family, Ball(point(0, 0), 1.0))
    assert total_mass(beta) == pytest.approx(3.0, rel=1e-12)
    assert all(isinstance(c, SphereUniform) for c in beta.components)


def _protocol_cases():
    """One component of each kind: d = 2, and d = 3 for the layers."""
    om = green.harmonic_measure(green.green_ball(point(0, 0), 1.0, point(0, 0)),
                                point(0.4, 0.1))
    values = np.sin(np.arange(81.0)).reshape(9, 9)
    return {
        "atom": Atom(point(0.3, -0.2), -1.5),
        "sphere-d2": SphereUniform(point(0.1, 0), 0.5, 2.0),
        "sphere-poisson-d2": om.scaled(-0.7).components[0],
        "sphere-d3": SphereUniform(point(0, 0, 0.1), 0.4, -1.25),
        "ball-d2": BallUniform(point(0, 0.1), 0.6, -0.8),
        "ball-d3": BallUniform(point(0.1, 0, 0), 0.5, 1.1),
        "grid-d2": GridDensity(GridDomain(point(-0.4, -0.4), 0.1, np.ones((9, 9), bool)),
                               values),
    }


def _smooth_field():
    return fields.ScalarField(lambda p: np.cos(p[:, 0]) + p[:, 1] + p[:, -1] ** 2)


def test_measure_serialization_roundtrip():
    om = green.harmonic_measure(green.green_ball(point(0, 0), 1.0, point(0, 0)),
                                point(0.4, 0.1))
    mu = Measure(2, [Atom(point(0.5, 0), 1.5),
                     BallUniform(point(0, 0), 0.7, -0.5)] + list(om.components))
    data = json.loads(json.dumps(mu.to_json()))
    back = _build_measure(data, "mu")
    f = fields.ScalarField(lambda p: np.cos(p[:, 0]) + p[:, 1])
    assert integrate(back, f) == pytest.approx(integrate(mu, f), abs=1e-12)
    # every component kind survives the round trip exactly
    for name, c in _protocol_cases().items():
        mu = Measure(c.dimension, [c])
        back = _build_measure(json.loads(json.dumps(mu.to_json())), "mu")
        assert back.to_json() == mu.to_json(), name
        assert integrate(back, _smooth_field()) == integrate(mu, _smooth_field()), name
    with pytest.raises(ValueError):  # the CLI's SchemaError
        _build_measure({"dimension": 2, "components": [{"type": "ring"}]}, "mu")


@pytest.mark.parametrize("name", list(_protocol_cases()))
def test_component_protocol(name):
    c = _protocol_cases()[name]
    mu = Measure(c.dimension, [c])
    f = _smooth_field()
    assert c.scaled(-2.5).mass() == pytest.approx(-2.5 * c.mass(), rel=1e-14)
    pos, neg = jordan(mu)
    assert integrate(pos, f) - integrate(neg, f) == pytest.approx(integrate(mu, f), abs=1e-12)
    S = Ball(np.full(c.dimension, 0.15), 0.45)  # off-center: layers are clipped
    kept, dropped = restrict(mu, S), restrict(mu, S, complement=True)
    assert total_mass(kept) + total_mass(dropped) == pytest.approx(c.mass(), abs=1e-12)
    for use in ("integrate", "clip", "mollify"):
        pts, w = c.discretize(use)
        assert pts.shape == (len(w), c.dimension)
        assert float(np.sum(w)) == pytest.approx(c.mass(), rel=1e-9), use
    assert c.support_radius(np.zeros(c.dimension)) >= np.max(
        np.linalg.norm(c.support_points(), axis=1)) - 1e-12


def test_indeterminate_integral_raises():
    from potkit.measures import IndeterminateIntegral

    mu = atom((0.0, 0.0), 1.0) + atom((1.0, 0.0), -1.0)
    # field is -inf at both atoms: +inf and -inf collide
    class Both:
        def evaluate_array(self, pts):
            out = np.zeros(len(pts))
            out[np.linalg.norm(pts, axis=1) < 1e-9] = -np.inf
            out[np.linalg.norm(pts - np.array([1.0, 0]), axis=1) < 1e-9] = -np.inf
            return out

    with pytest.raises(IndeterminateIntegral):
        integrate(mu, Both())


def test_seeded_streams_are_deterministic_and_independent():
    from potkit.quadrature import rng_for

    a1 = rng_for(7, "stream-a").random(4)
    a2 = rng_for(7, "stream-a").random(4)
    b = rng_for(7, "stream-b").random(4)
    c = rng_for(8, "stream-a").random(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_sample_in_matches_scalar_rejection_loop(seed):
    from potkit.quadrature import rng_for, sample_in

    o2, o3 = point(0.2, -0.1), point(0.0, 0.3, -0.2)
    cases = [  # (center, half, scalar test, n, max_draws)
        (o2, 0.7, lambda x: np.linalg.norm(x - o2) < 0.7, 300, None),
        (o3, 1.0, lambda x: 0.6 < np.linalg.norm(x - o3) < 1.0, 150, None),
        (o2, 0.5, lambda x: x[0] > o2[0] + 0.45, 100, 400),
    ]
    for center, half, ok, n, max_draws in cases:
        rng = rng_for(seed, "sample-in")
        want = []
        for _ in range(max_draws or 10 ** 6):
            x = center + half * (2.0 * rng.random(center.size) - 1.0)
            if ok(x):
                want.append(x)
                if len(want) == n:
                    break
        got = sample_in(rng_for(seed, "sample-in"), center, half, n,
                        lambda p: np.array([ok(x) for x in p], dtype=bool), max_draws)
        assert np.array_equal(got, np.array(want).reshape(-1, center.size))
    assert len(got) < 100  # the capped case stops at max_draws


def test_restrict_by_grid_domain():
    from potkit.geometry import GridDomain

    mask = np.zeros((11, 11), dtype=bool)
    mask[:6, :] = True  # slab x < 0.1 (first index is the x axis)
    S = GridDomain(point(-0.5, -0.5), 0.1, mask)
    mu = atom((-0.2, 0.0), 2.0) + atom((0.4, 0.0), 3.0)
    kept = restrict(mu, S)
    assert total_mass(kept) == 2.0
    dropped = restrict(mu, S, complement=True)
    assert total_mass(dropped) == 3.0


# ---------------------------------------------------------------------------
# mollifier bumps on the lattice


def bumps_on_grid_loop(pts, wts, moll, cells_per_radius):
    """Reference: one bump per source atom, clipped to the lattice, added in source order."""
    d = pts.shape[1]
    h = moll.radius / cells_per_radius
    lo = pts.min(axis=0) - moll.radius - h
    lo = pts[0] - h * np.ceil((pts[0] - lo) / h)
    hi = pts.max(axis=0) + moll.radius + h
    shape = tuple(int(math.ceil((hi[k] - lo[k]) / h)) + 1 for k in range(d))
    values = np.zeros(shape)
    gl_nodes, gl_w = quadrature.gauss_legendre_cell(d, 3)
    reach = cells_per_radius + 1
    for p, w in zip(pts, wts):
        if w == 0.0:
            continue
        base = np.rint((p - lo) / h).astype(int)
        slices, offsets = [], []
        for k in range(d):
            a = max(0, base[k] - reach)
            b = min(shape[k] - 1, base[k] + reach)
            slices.append(slice(a, b + 1))
            offsets.append(np.arange(a, b + 1))
        centers = np.stack(np.meshgrid(*offsets, indexing="ij"), axis=-1).reshape(-1, d) * h \
            + lo[None, :]
        sample = centers[:, None, :] + h * gl_nodes[None, :, :]
        dens = moll.profile(np.sum((sample.reshape(-1, d) - p) ** 2, axis=-1)).reshape(
            len(centers), -1)
        cell_mass = (dens @ gl_w) * h ** d
        s = cell_mass.sum()
        if s <= 0.0:
            raise ValueError("mollifier bump lost under the grid resolution")
        values[tuple(slices)] += (w / s) * cell_mass.reshape([len(o) for o in offsets])
    return GridDensity(GridDomain(lo, h, np.ones(shape, dtype=bool)), values)


def assert_same_density(a, b):
    assert a.grid.spacing == b.grid.spacing
    assert a.grid.origin.tobytes() == b.grid.origin.tobytes()
    assert a.values.shape == b.values.shape
    assert np.ascontiguousarray(a.values).tobytes() == np.ascontiguousarray(b.values).tobytes()


def _bump_cloud(d, n, seed):
    """Mixed-sign weights, some zero, and a run of coincident atoms."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.5, 0.5, size=(n, d))
    pts[5:9] = pts[3]
    wts = rng.normal(size=n)
    wts[::7] = 0.0
    return pts, wts


@pytest.mark.parametrize("d, n, cells_per_radius, order", [
    (2, 203, 8, "C"), (2, 203, 8, "F"), (2, 300, 6, "C"), (3, 11, 4, "C"), (3, 11, 4, "F")])
def test_bumps_on_grid_match_atom_loop_bitwise(d, n, cells_per_radius, order):
    pts, wts = _bump_cloud(d, n, seed=d + n)
    pts = np.asarray(pts, order=order)
    moll = Mollifier(0.15, d)
    new = measures._bumps_on_grid(pts, wts, moll, cells_per_radius)
    ref = bumps_on_grid_loop(pts, wts, moll, cells_per_radius)
    # more than one chunk, and a short last one
    cells = (2 * cells_per_radius + 3) ** d
    step = max(1, measures.BUMP_CHUNK_BYTES // (8 * cells * 3 ** d * d))
    assert np.count_nonzero(wts) > step and np.count_nonzero(wts) % step != 0
    assert_same_density(new, ref)


def test_bumps_on_grid_far_off_small_radius():
    """Coordinates near 1e3 and a 1e-3 bump: the padding still holds every patch."""
    rng = np.random.default_rng(4)
    pts = np.array([1e3, -1e3]) + rng.uniform(-0.01, 0.01, size=(30, 2))
    wts = rng.uniform(0.5, 1.5, size=30)
    moll = Mollifier(1e-3, 2)
    new = measures._bumps_on_grid(pts, wts, moll, 8)
    assert_same_density(new, bumps_on_grid_loop(pts, wts, moll, 8))
    assert np.sum(new.values) == pytest.approx(np.sum(wts), rel=1e-12)


def test_bump_stencil_never_clips():
    from potkit.geometry import _stencil

    idx, flat = _stencil(np.array([[1, 1], [3, 2]]), 1, (5, 4))
    assert idx.shape == (2, 9, 2) and flat[1].tolist() == [9, 10, 11, 13, 14, 15, 17, 18, 19]
    for base in ([[0, 2]], [[2, 3]]):
        with pytest.raises(ValueError, match="leaves"):
            _stencil(np.array(base), 1, (5, 4))


def test_bumps_on_grid_rejects_a_lost_bump(monkeypatch):
    monkeypatch.setattr(Mollifier, "profile", lambda self, r2: np.zeros(np.shape(r2)))
    with pytest.raises(ValueError, match="lost under the grid"):
        convolve_balayage(atom((0.0, 0.0)), Mollifier(0.2, 2), Ball(point(0, 0), 1.0))


@pytest.mark.parametrize("kind", [SphereUniform, BallUniform])
@pytest.mark.parametrize("center, radius", [
    ((0, 0), math.nan), ((0, 0), math.inf), ((0, 0), 0.0), ((0, 0), -1.0),
    ((math.nan, 0), 1.0), ((0, -math.inf), 1.0)])
def test_layers_reject_non_finite_or_non_positive_geometry(kind, center, radius):
    with pytest.raises(ValueError):
        kind(np.asarray(center, float), radius, 1.0)


def _harmonic_measure(x):
    x = np.asarray(x, float)
    return green.harmonic_measure(green.green_ball(point(0, 0), 1.0, x), x)


@pytest.mark.parametrize("name", ["sphere-d2", "sphere-poisson-d2", "sphere-d3", "ball-d3"])
def test_layer_clouds_are_built_once_and_read_only(name):
    c = _protocol_cases()[name]
    for use in ("integrate", "clip", "mollify"):
        pts, w = c.discretize(use)
        again = c.discretize(use)
        assert again[0] is pts and again[1] is w, use
        for a in (pts, w):
            with pytest.raises(ValueError):
                a[0] = 1.0


def test_grid_cloud_is_built_once_for_every_use_and_read_only():
    c = _protocol_cases()["grid-d2"]
    pts, w = c.discretize()
    for use in ("integrate", "clip", "mollify"):
        again = c.discretize(use)
        assert again[0] is pts and again[1] is w, use
    assert np.count_nonzero(c.values) == len(w) and c.support_points() is pts
    for a in (pts, w):
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_check_linear_builds_the_harmonic_measure_cloud_once(monkeypatch):
    # the work gate: one rule and one Poisson density evaluation for all 400 members
    calls = {"rule": 0, "density": 0}
    sphere_rule, density_from_spec = quadrature.sphere_rule, green.density_from_spec

    def counting_rule(*args):
        calls["rule"] += 1
        return sphere_rule(*args)

    def counting_spec(spec):
        poisson = density_from_spec(spec)

        def density(pts):
            calls["density"] += 1
            return poisson(pts)

        return density

    monkeypatch.setattr(quadrature, "sphere_rule", counting_rule)
    monkeypatch.setattr(green, "density_from_spec", counting_spec)
    x = point(0.3, -0.2)
    family = balayage.harmonic_kernel_family(
        Ball(point(0, 0), 1.0), Ball(point(0, 0), 1.5).boundary_points(200))
    verdict = balayage.check_linear(atom(x), _harmonic_measure(x), family)
    assert calls == {"rule": 1, "density": 1}
    assert len(verdict.rows) == 400 and verdict.passed
    fresh = [integrate(_harmonic_measure(x), h) for _, h in family.members]
    assert [r.rhs for r in verdict.rows] == fresh


def test_threads_integrating_one_measure_agree():
    x = point(0.3, -0.2)
    mu = _harmonic_measure(x)
    members = [h for _, h in balayage.harmonic_kernel_family(
        Ball(point(0, 0), 1.0), Ball(point(0, 0), 1.5).boundary_points(16)).members]
    want = [integrate(_harmonic_measure(x), h) for h in members]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda: [integrate(mu, h) for h in members])
                       for _ in range(8)]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(g == want for g in got)
    assert len(mu.components[0]._clouds) == 1


def test_scaled_and_restricted_layers_match_fresh_components():
    om = _harmonic_measure((0.4, 0.1)).components[0]
    ball = BallUniform(point(0.1, 0), 0.6, -0.8)
    f = _smooth_field()
    for c in (om, ball):
        args = {a.name: getattr(c, a.name) for a in dataclasses.fields(c)}
        for use in ("integrate", "clip", "mollify"):
            c.discretize(use)  # warm the clouds the derived components must not inherit
        doubled = type(c)(**dict(args, total=2.0 * c.total))
        for use in ("integrate", "clip", "mollify"):
            got, want = c.scaled(2.0).discretize(use), doubled.discretize(use)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), use
        for S in (Ball(c.center, 0.3), Ball(point(0.15, 0.15), 0.45)):
            for complement in (False, True):
                got = restrict(Measure(2, [c]), S, complement)
                want = restrict(Measure(2, [type(c)(**args)]), S, complement)
                assert integrate(got, f) == integrate(want, f)


# ---------------------------------------------------------------------------
# integrate_many against the per-member loop


def kernel_loop_values(f, pts):
    """A kernel field's values the scalar way: a norm, then k_eval_array off the pole."""
    r = np.linalg.norm(pts - f.kernel_pole[None, :], axis=1)
    q = f.kernel_pole.size - 2
    out = np.full(len(pts), -math.inf if q >= 0 else 0.0)
    ok = r > 0
    out[ok] = k_eval_array(q, r[ok])
    return f.kernel_sign * out


def integrate_loop(mu, f):
    """Reference: one field at a time through every component, zero weights and
    infinite values masked out before each dot, as the extended-real sum is defined;
    BLAS on one thread, as potkit sums."""
    finite, signs = 0.0, set()
    pole = getattr(f, "kernel_pole", None)
    for c in mu.components:
        newton = None if pole is None else c.newton_potential()
        if newton is not None:
            w, v = np.ones(1), f.kernel_sign * newton(pole[None, :])
        else:
            pts, w = c.discretize("integrate")
            if not np.any(w):
                continue
            v = kernel_loop_values(f, pts) if pole is not None else measures._eval_field(f, pts)
        live = w != 0.0
        w, v = w[live], v[live]
        if np.any(np.isnan(v)):
            raise measures.IndeterminateIntegral("nan")
        inf = np.isinf(v)
        signs.update((np.sign(v[inf]) * np.sign(w[inf])).tolist())
        with _blas.one_thread():
            finite += float(np.dot(w[~inf], v[~inf]))
    if 1.0 in signs and -1.0 in signs:
        raise measures.IndeterminateIntegral("+inf and -inf")
    return math.inf if 1.0 in signs else -math.inf if -1.0 in signs else finite


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


class _Broken(fields.ScalarField):
    def __init__(self):
        super().__init__(lambda pts: (_ for _ in ()).throw(fields.DomainError("off domain")))


def _striped_sphere(center, radius, total):
    """A density-weighted layer whose zero-weight nodes come in irregular stripes,
    so dropping them moves the other nodes by amounts no SIMD width divides."""
    c = np.asarray(center, float)
    return SphereUniform(c, radius, total,
                         lambda p: np.where(np.cos(41.0 * (p[:, 0] - c[0])) > 0.2,
                                            1.5 + np.sin(13.0 * p[:, 1]), 0.0))


def _many_cases():
    x2, x3 = point(0.3, -0.2), point(0.2, 0.1, -0.3)
    om2 = _harmonic_measure(x2)
    om3 = green.harmonic_measure(green.green_ball(point(0, 0, 0), 1.0, x3), x3)
    grid = _protocol_cases()["grid-d2"]
    return {
        # the last two atoms share a point with opposite weights: +-inf collide there
        "atoms": Measure(2, [Atom(point(0.1, 0.2), 1.5), Atom(point(-0.4, 0.3), -0.7),
                             Atom(point(0.5, 0.5), 0.0), Atom(point(0.2, -0.6), 1.0),
                             Atom(point(0.2, -0.6), -2.0)]),
        "grid": Measure(2, [grid]),
        "poisson-d2": om2,
        "poisson-d3": om3,
        "newton-layers-d2": Measure(2, [SphereUniform(point(0.1, 0), 0.5, 2.0),
                                        BallUniform(point(0, 0.1), 0.6, -0.8)]),
        "plain-sphere-d3": Measure(3, [SphereUniform(point(0, 0, 0.1), 0.4, -1.25),
                                    BallUniform(point(0.1, 0, 0), 0.5, 1.1)]),
        "zero-weights": Measure(2, [_striped_sphere(point(0.1, 0.1), 0.5, 1.0),
                                    _striped_sphere(point(-0.2, 0), 0.3, -0.5)]),
        "mixed": Measure(2, [Atom(point(0.1, 0.2), 1.5), grid, om2.components[0],
                             BallUniform(point(0, 0.1), 0.6, -0.8),
                             Atom(point(0.1, 0.2), -0.25)]),
        "d1": Measure(1, [Atom(np.array([0.0]), 1.0), Atom(np.array([0.5]), -2.0),
                          Atom(np.array([0.25]), 0.5)]),
    }


def _many_fields(mu):
    """Kernel members of signs +-1 at poles on a node of each component (a
    zero-weight node where there is one), inside and far outside the support,
    interleaved with plain fields: a strided view, a field -inf on a node, a
    nan field, one that raises and, in 3-D, a kernel of the wrong dimension."""
    d = mu.dimension
    poles = [np.full(d, 2.5), np.full(d, 0.05)]
    for c in mu.components:
        pts, w = c.discretize("integrate")
        poles.append(pts[len(pts) // 3].copy())
        if np.any(w == 0.0):
            poles.append(pts[np.flatnonzero(w == 0.0)[0]].copy())
    plain = [fields.ScalarField(lambda p: np.cos(p[:, 0]) + p[:, -1] ** 2),
             fields.ScalarField(lambda p: p[:, 0]),
             fields.ScalarField.log_distance(poles[2]),
             fields.ScalarField(lambda p: np.where(p[:, 0] > 0.2, np.nan, 1.0)),
             _Broken()]
    if d == 3:
        plain.append(fields.ScalarField.kernel(point(0.5, 0.5)))
    out = []
    for k, y in enumerate(poles):
        out += [fields.ScalarField.kernel(y, s) for s in (1.0, -1.0)]
        out.append(plain[k % len(plain)])
    return out + plain


@pytest.mark.parametrize("name", list(_many_cases()))
def test_integrate_many_is_the_member_loop_bit_for_bit(name):
    mu = _many_cases()[name]
    fs = _many_fields(mu)
    want = [_outcome(integrate_loop, mu, f) for f in fs]
    got = [type(v) if isinstance(v, Exception) else v
           for v in measures.integrate_many(mu, fs)]
    assert got == want
    assert [_outcome(integrate, mu, f) for f in fs] == want
    # every path of the comparison is taken somewhere in the list
    assert measures.IndeterminateIntegral in want and fields.DomainError in want
    assert any(isinstance(v, float) and math.isfinite(v) for v in want)


def _bits(value):
    """A float by its bits (signed zeros and nans apart), an exception by its type."""
    return value.hex() if isinstance(value, float) else value


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), data=st.data())
def test_integrate_many_is_the_member_loop_for_drawn_families(d, data):
    """Atoms on a coarse lattice (zero weights, repeated points with opposite
    weights), in one cloud or one component each, beside a plain (Newton) and a
    striped layer (zero-weight nodes), and families drawn from kernels of sign +-1
    at repeated poles on atoms (+-inf rows, +inf/-inf collisions), on layer nodes
    and off every node, among nan, log and smooth fields: each integral is the
    member loop's, bit for bit."""
    lattice = st.lists(st.sampled_from([k / 4 for k in range(-3, 4)]), min_size=d,
                       max_size=d).map(np.array)
    rows = data.draw(st.lists(st.tuples(lattice, st.sampled_from([1.5, -0.75, 0.0, 2.0])),
                              min_size=1, max_size=8), label="atoms")
    if data.draw(st.booleans(), label="collide"):  # the first point again, opposite weight
        rows.append((rows[0][0], -rows[0][1]))
    if data.draw(st.booleans(), label="cloud"):
        comps = [measures.Atoms(np.array([p for p, _ in rows]), [w for _, w in rows])]
    else:
        comps = [Atom(p, w) for p, w in rows]
    if d > 1:
        if data.draw(st.booleans(), label="newton layer"):
            comps.append(SphereUniform(np.full(d, 0.1), 0.6, -1.25))
        if data.draw(st.booleans(), label="striped layer"):
            comps.insert(0, _striped_sphere(np.full(d, -0.1), 0.4, 0.8))
    mu = Measure(d, comps)
    nodes = np.vstack([c.discretize("integrate")[0] for c in comps])
    poles = data.draw(st.lists(st.one_of(st.integers(0, len(nodes) - 1).map(lambda i: nodes[i]),
                                         lattice.map(lambda p: p + 0.0625)),
                               min_size=1, max_size=4), label="poles")
    cut = data.draw(st.sampled_from([-0.5, 0.3, 9.0]), label="nan cut")
    plain = [fields.ScalarField(lambda p: np.where(p[:, 0] > cut, np.nan, p[:, -1])),
             fields.ScalarField.log_distance(poles[0], data.draw(st.sampled_from([1.0, -1.0]))),
             fields.ScalarField(lambda p: np.cos(3.0 * p[:, 0]) - 0.5)]
    members = data.draw(st.lists(
        st.one_of(st.tuples(st.integers(0, len(poles) - 1), st.sampled_from([1.0, -1.0]))
                  .map(lambda m: fields.ScalarField.kernel(poles[m[0]], m[1])),
                  st.sampled_from(plain)), min_size=1, max_size=12), label="members")
    want = [_bits(_outcome(integrate_loop, mu, f)) for f in members]
    got = measures.integrate_many(mu, members)
    assert [_bits(type(v) if isinstance(v, Exception) else v) for v in got] == want


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")  # reference
def test_integrate_many_overflowing_sums_keep_the_member_sign():
    # every term is finite and the sum overflows: no infinite term to take apart
    mu = Measure(2, [measures.Atoms(np.array([[0.5, 0.0], [-0.5, 0.0]]), [1.5e308, 1.5e308])])
    fs = [fields.ScalarField.kernel(point(0, 0), s) for s in (1.0, -1.0)]
    fs.append(fields.ScalarField.log_distance(point(0, 0), -1.0))
    want = [-math.inf, math.inf, math.inf]
    assert measures.integrate_many(mu, fs) == [integrate_loop(mu, f) for f in fs] == want


@pytest.mark.parametrize("sign", [0.3, 0.0, -0.5, 2.0, math.nan])
def test_kernel_fields_take_sign_one_or_minus_one(sign):
    with pytest.raises(ValueError, match="sign must be"):
        fields.ScalarField.kernel(point(0.5, 0.5), sign)


def test_integrate_many_keeps_d1_kernel_zero_on_a_node():
    mu = Measure(1, [Atom(np.array([0.0]), 1.0), Atom(np.array([0.5]), -2.0)])
    fs = [fields.ScalarField.kernel(np.array([0.0]), s) for s in (1.0, -1.0)]
    assert measures.integrate_many(mu, fs) == [-1.0, 1.0]
    assert fs[0](np.array([0.0])) == 0.0


def test_family_integral_fills_kernel_tiles_not_members(monkeypatch):
    # the work and memory gate: 400 members against the 4096-node harmonic measure
    import tracemalloc

    from potkit import kernels

    x = point(0.3, -0.2)
    family = balayage.harmonic_kernel_family(
        Ball(point(0, 0), 1.0), Ball(point(0, 0), 1.5).boundary_points(200))
    mu = _harmonic_measure(x)
    nodes = len(mu.components[0].discretize("integrate")[0])  # the built cloud
    member_calls, fills = [], []
    for _, h in family.members:
        monkeypatch.setattr(h, "_evaluator",
                            lambda pts, ev=h._evaluator: member_calls.append(1) or ev(pts))
    fill = measures.kernel_rows

    def counting_fill(pts, nds, q, out):
        fills.append(len(nds))
        return fill(pts, nds, q, out)

    monkeypatch.setattr(measures, "kernel_rows", counting_fill)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        verdict = balayage.check_linear(atom(x), mu, family)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert verdict.passed and len(verdict.rows) == 400
    assert member_calls == []
    assert fills.count(nodes) == math.ceil(200 / kernels.tile_rows(nodes))
    assert peak < 1 << 20, peak


def test_sphere_rule_is_built_once_per_key_and_read_only():
    v = fields.ScalarField(lambda p: p[:, 0] ** 2 - p[:, 1] ** 2)
    probes = [(point(0.1 * k, 0.05), 0.2) for k in range(20)]
    quadrature.sphere_rule.cache_clear()
    verdict = fields.check_subharmonic(v, probes)
    info = quadrature.sphere_rule.cache_info()
    assert verdict.passed and len(verdict.rows) == 20
    assert (info.misses, info.hits) == (1, 19)
    nodes, w = quadrature.sphere_rule(2, None)
    for a in (nodes, w):
        with pytest.raises(ValueError):
            a[0] = 1.0


# -- one atom cloud against one component per atom ---------------------------
# The references below are the per-atom loops an `Atoms` cloud replaced: one
# single-point evaluation and one running-sum addition per atom component.


def _integral_reference(atoms, f, start=0.0):
    """One atom at a time: a single-point value times the weight added to the
    finite part (none for a massless atom); +-inf set a sign flag.  Returns the
    integral and n eps (|start| + sum_i |w_i v_i|), the worst-case gap between
    two summation orders of its n finite terms."""
    finite, scale, signs = start, abs(start), set()
    for x, w in atoms:
        if w == 0.0:
            continue
        v = float(measures._eval_field(f, x[None, :])[0])
        if math.isnan(v):
            raise measures.IndeterminateIntegral("nan")
        if math.isinf(v):
            signs.add(float(np.sign(v) * np.sign(w)))
            continue
        finite += w * v
        scale += abs(w * v)
    if signs == {1.0, -1.0}:
        raise measures.IndeterminateIntegral("both")
    n = len(atoms) + 1
    return math.inf if 1.0 in signs else -math.inf if signs else finite, n * EPS * scale


def _near(value, reference):
    """`value` is the (value, bound) reference: equal, or within the bound where finite."""
    want, bound = reference
    with np.errstate(invalid="ignore"):  # inf - inf where both are infinite
        return np.all((value == want) | (np.isnan(value) & np.isnan(want))
                      | (np.isfinite(want) & (np.abs(value - want) <= bound)))


def _potential_reference(atoms, pts):
    """The dict merge and a per-atom `out += w * row` loop of the atom potential,
    with the rounding bound n eps sum_j |w_j k_j| per point of its n terms."""
    merged = {}
    for x, w in atoms:
        key = tuple(x.tolist())
        p, m = merged.get(key, (x, None))
        merged[key] = (p, w if m is None else m + w)
    out, scale, row = np.zeros(len(pts)), np.zeros(len(pts)), np.empty((1, len(pts)))
    for x, w in merged.values():
        if w != 0.0:
            term = w * measures.kernel_rows(x[None, :], pts, len(x) - 2, row)[0]
            out += term
            scale += np.abs(term)
    return out, len(merged) * EPS * scale


def _grouped(atoms, grouping):
    """The atoms as one component per atom, or as one cloud."""
    if grouping == "atoms":
        return [Atom(x, w) for x, w in atoms]
    return [measures.Atoms(np.array([x for x, _ in atoms]), [w for _, w in atoms])]


def _atom_rows(d, n=40, seed=3):
    """n signed atoms in d dimensions; rows 7 and 19 weigh 0, row 11 repeats row 4."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.6, 0.6, (n, d))
    w = rng.normal(size=n)
    w[[7, 19]] = 0.0
    pts[11] = pts[4]
    return list(zip(pts, w))


GROUPINGS = ["atoms", "cloud"]


@pytest.mark.parametrize("grouping", GROUPINGS)
@pytest.mark.parametrize("d", [2, 3])
def test_atom_integrals_do_not_depend_on_grouping(grouping, d):
    from potkit.potentials import Potential

    atoms = _atom_rows(d)
    layer = BallUniform(np.full(d, 0.1), 0.5, 0.7)
    mu = Measure(d, [layer] + _grouped(atoms, grouping))
    pos_hit = next(x for x, w in atoms if w > 0)
    neg_hit = next(x for x, w in atoms if w < 0)
    seen = []

    def plain(p):
        seen.append(p.copy())
        return np.cos(3.0 * p[:, 0]) + p[:, -1] ** 2

    fs = [fields.ScalarField.kernel(np.full(d, 0.9)),
          fields.ScalarField.kernel(np.full(d, -0.8), -1.0),
          Potential(Measure(d, [Atom(np.full(d, 0.7), 1.5), Atom(np.full(d, -0.7), -0.5)])),
          plain,
          fields.ScalarField.kernel(pos_hit),  # an exact hit: inf signed by the weight
          fields.ScalarField.kernel(neg_hit),
          fields.ScalarField.kernel(pos_hit) + fields.ScalarField.kernel(neg_hit),
          fields.ScalarField(lambda p: np.where(np.all(p == atoms[5][0], axis=1),
                                                np.nan, 1.0))]
    got = measures.integrate_many(mu, fs)
    start = [integrate(Measure(d, [layer]), f) for f in fs]
    for k, (f, s, value) in enumerate(zip(fs, start, got)):
        try:
            want = _integral_reference(atoms, f, s)
        except measures.IndeterminateIntegral:
            assert isinstance(value, measures.IndeterminateIntegral), k
            continue
        assert _near(value, want), k
    assert got[4] == -math.inf and got[5] == math.inf
    assert all(isinstance(v, measures.IndeterminateIntegral) for v in got[6:])
    # the zero-weight rows never reach the field
    zero = np.array([x for x, w in atoms if w == 0.0])
    assert not any((np.abs(p[:, None, :] - zero).max(axis=2) == 0).any() for p in seen)

    m = 0.0
    for c in [layer.mass()] + [w for _, w in atoms]:
        m += c
    n = len(atoms) + 1
    assert _near(total_mass(mu), (m, n * EPS * (layer.mass() + sum(abs(w) for _, w in atoms))))
    probes = np.array([atoms[4][0], atoms[30][0] + 5e-10, np.full(d, 2.0), atoms[19][0]])
    ref, scale = 0.0, 0.0
    for x, w in atoms:
        if np.any(measures._distance(probes, x) <= measures.ATOM_TOL):
            ref, scale = ref + w, scale + abs(w)
    assert _near(mu.atom_mass_at(probes), (ref, n * EPS * scale))

    # exact hits at every atom, then points off them
    pts = np.vstack([[x for x, _ in atoms], np.random.default_rng(7).uniform(-1, 1, (64, d))])
    want, bound = _potential_reference(atoms, pts)
    newton = layer.newton_potential()(pts)
    assert _near(Potential(mu).evaluate_array(pts), (want + newton, bound + n * EPS * abs(newton)))


def _boundary_row(rng, center):
    """A point and a radius at which scalar norm(x - c) < r and the row-stack
    distance < r disagree: each rounds the same distance to its own last bit."""
    while True:
        x = center + rng.uniform(-0.5, 0.5, len(center))
        scalar = np.linalg.norm(x - center)
        stacked = measures._distance(x[None, :], center)[0]
        if scalar != stacked:
            return x, max(scalar, stacked)


@pytest.mark.parametrize("grouping", GROUPINGS)
def test_atom_splits_and_json_do_not_depend_on_grouping(grouping):
    atoms = _atom_rows(2, n=24)
    atoms[9] = (atoms[9][0], -0.0)
    center = point(0.05, -0.02)
    x, radius = _boundary_row(np.random.default_rng(0), center)
    atoms.append((x, 0.75))
    S = Ball(center, radius)
    mu = Measure(2, _grouped(atoms, grouping))

    def entries(rows):
        return [{"type": "atom", "point": x.tolist(), "weight": float(w)} for x, w in rows]

    assert json.dumps(mu.to_json()) == json.dumps({"dimension": 2, "components": entries(atoms)})
    pos, neg = jordan(mu)
    assert json.dumps(pos.to_json()["components"]) == json.dumps(
        entries([(x, abs(w)) for x, w in atoms if w >= 0]))
    assert json.dumps(neg.to_json()["components"]) == json.dumps(
        entries([(x, abs(w)) for x, w in atoms if not w >= 0]))
    for complement in (False, True):  # the row-stack membership, whichever the grouping
        kept = [(x, w) for x, w in atoms if S.contains_array(x[None, :])[0] != complement]
        got = restrict(mu, S, complement)
        assert json.dumps(got.to_json()["components"]) == json.dumps(entries(kept))
        assert sum(len(c.weights) for c in got.components) == len(kept)
    assert S.contains(x) != S.contains_array(x[None, :])[0]  # the row that tells them apart
    back = _build_measure(json.loads(json.dumps(mu.to_json())), "mu")
    assert [type(c) for c in back.components] == [Atom] * len(atoms)  # never merged


@pytest.mark.parametrize("grouping", GROUPINGS)
def test_atom_potential_merge_does_not_depend_on_grouping(grouping):
    from potkit.potentials import Potential

    a, b = point(0.3, -0.2), point(-0.4, 0.1)
    atoms = [(a, 1.0), (point(0.0, -0.0), 2.0), (b, -1.5), (a, -1.0), (point(-0.0, 0.0), 0.5),
             (b, 0.25), (point(0.6, 0.6), 1.0)]
    pts = np.array([a, b, [0.0, 0.0], [-0.0, -0.0], [0.6, 0.6], [0.2, 0.9]])
    got = Potential(Measure(2, _grouped(atoms, grouping))).evaluate_array(pts)
    assert _near(got, _potential_reference(atoms, pts))
    assert math.isfinite(got[0]) and got[1] == math.inf and got[2] == -math.inf  # a nets to 0
    # a nan coordinate matches nothing: each nan row is its own atom, and nan spreads
    nan_atoms = atoms + [(point(math.nan, 0.0), 1.0), (point(math.nan, 0.0), -1.0)]
    got = Potential(Measure(2, _grouped(nan_atoms, grouping))).evaluate_array(pts)
    assert np.isnan(got).all()


def test_atom_support_radius_is_the_scalar_norm_per_row():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        X = rng.normal(size=(20_000, d)) * rng.lognormal(size=(20_000, 1))
        c = rng.normal(size=d)
        scalar = np.array([np.linalg.norm(x - c) for x in X])
        # the row norm rounds apart from the scalar one in the last bit at most
        got = measures.Atoms(X, np.ones(len(X))).support_radius(c)
        assert got == pytest.approx(scalar.max(), rel=2 * EPS, abs=0.0), d
        assert all(Atom(x, 1.0).support_radius(c) == pytest.approx(r, rel=2 * EPS, abs=0.0)
                   for x, r in zip(X[:200], scalar))


# the clip of an off-centre ball layer: a cloud of 5,822 kept nodes
CLIP_LAYER, CLIP_SET = BallUniform((0.1, 0.0), 0.4, 0.2), Ball(point(0, 0), 0.14)


def test_clip_cloud_integrals_match_the_per_atom_walk():
    from potkit.potentials import Potential

    (cloud,) = restrict(Measure(2, [CLIP_LAYER]), CLIP_SET).components
    assert type(cloud) is measures.Atoms and len(cloud.weights) == 5822
    atoms = list(zip(cloud.points, cloud.weights))
    mu = Measure(2, [cloud])
    exact = [fields.ScalarField.constant(1.0), fields.ScalarField.kernel(point(0.9, 0.9)),
             Potential(Measure(2, [Atom(point(0.9, 0.9), 1.0)]))]
    for f in exact:
        assert _near(integrate(mu, f), _integral_reference(atoms, f))
    # a potential through the dense node sum rounds a stack of points apart from one
    # point in the last bits
    om = green.harmonic_measure(green.green_ball(point(0, 0), 1.0, point(0, 0)),
                                point(0.4, 0.1))
    pot, head = Potential(om), measures.Atoms(cloud.points[:400], cloud.weights[:400])
    assert integrate(Measure(2, [head]), pot) == pytest.approx(
        _integral_reference(atoms[:400], pot)[0], rel=1e-14, abs=0.0)


def test_clip_off_a_core_integrates_in_one_field_call(monkeypatch):
    # as 5,412 Atom components it made 5,412 one-point calls: 0.1 s per integral (2-core x86)
    clip = restrict(Measure(2, [CLIP_LAYER]), CLIP_SET)
    off = restrict(clip, Ball(point(0, 0), 0.05), complement=True)
    (cloud,) = off.components
    assert len(cloud.weights) == 5412
    one = fields.ScalarField.constant(1.0)
    want = _integral_reference(list(zip(cloud.points, cloud.weights)), one)
    calls, eval_field = [], measures._eval_field

    def counted(f, pts):
        calls.append(len(pts))
        return eval_field(f, pts)

    monkeypatch.setattr(measures, "_eval_field", counted)
    assert _near(integrate(off, one), want)
    assert calls == [5412]
