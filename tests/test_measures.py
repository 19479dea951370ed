import json
import math

import numpy as np
import pytest

from potkit import fields, green
from potkit.geometry import Annulus, Ball, GridDomain, point
from potkit.measures import (Atom, BallUniform, GridDensity, Measure, Mollifier,
                             SphereUniform, convolve_balayage, integrate, jordan,
                             restrict, total_mass)


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


def test_integrate_sphere_mc_d3():
    # plain d=3 layers go through the seeded Monte-Carlo rule; statistical tol
    mu = Measure(3, [SphereUniform(point(0, 0, 0), 1.0, 1.0)])
    f = fields.ScalarField(lambda p: p[:, 0] ** 2)
    got = integrate(mu, f, seed=0)
    assert got == pytest.approx(1.0 / 3.0, abs=5e-3)
    assert integrate(mu, f, seed=0) == got  # bit-reproducible


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


def test_restrict_reassembles_mass():
    mu = Measure(2, [BallUniform(point(0, 0), 1.0, 1.0),
                     SphereUniform(point(0, 0), 0.7, 0.5),
                     Atom(point(0.2, 0.1), 0.25)])
    S = Ball(point(0, 0), 0.4)
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
        assert m.mass() == pytest.approx(1.0, abs=1e-10)
        assert np.all(m.density(np.zeros((1, d))) > 0)
        outside = np.zeros((1, d))
        outside[0, 0] = 0.31
        assert m.density(outside)[0] == 0.0


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
    om = green.harmonic_measure(green.green_ball(point(0, 0), 0.6, point(0, 0), 2),
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
    om = green.harmonic_measure(green.green_ball(point(0, 0), 1.0, point(0, 0), 2),
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
    om = green.harmonic_measure(green.green_ball(point(0, 0), 1.0, point(0, 0), 2),
                                point(0.4, 0.1))
    mu = Measure(2, [Atom(point(0.5, 0), 1.5),
                     BallUniform(point(0, 0), 0.7, -0.5)] + list(om.components))
    data = json.loads(json.dumps(mu.to_json()))
    back = Measure.from_json(data)
    f = fields.ScalarField(lambda p: np.cos(p[:, 0]) + p[:, 1])
    assert integrate(back, f) == pytest.approx(integrate(mu, f), abs=1e-12)
    # every component kind survives the round trip exactly
    for name, c in _protocol_cases().items():
        mu = Measure(c.dimension, [c])
        back = Measure.from_json(json.loads(json.dumps(mu.to_json())))
        assert back.to_json() == mu.to_json(), name
        assert integrate(back, _smooth_field()) == integrate(mu, _smooth_field()), name
    with pytest.raises(ValueError):
        Measure.from_json({"dimension": 2, "components": [{"type": "ring"}]})


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
    f = fields.ScalarField.log_distance(point(0, 0)).maximum(
        fields.ScalarField.log_distance(point(1, 0)))

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
