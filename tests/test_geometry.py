import ast
import itertools
import json
import math
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

import potkit
from potkit import fields, quadrature
from potkit.geometry import (Annulus, Ball, GridDomain, INFINITY, _Composite, _distance,
                             inversion, inward_filled_hull, kelvin_transform, parallel_set,
                             point)


def test_inversion_examples():
    assert np.allclose(inversion(point(2, 0), point(0, 0)), [0.5, 0])
    assert np.allclose(inversion(point(0.5, 0, 0), point(0, 0, 0)), [2, 0, 0])
    # the unit sphere around o is fixed
    assert np.allclose(inversion(point(1, 1), point(1, 0)), [1, 1])


def test_inversion_pole_and_infinity():
    assert inversion(point(1, 2), point(1, 2)) is INFINITY
    assert np.allclose(inversion(INFINITY, point(1, 2)), [1, 2])


@settings(max_examples=1000)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=3),
       st.integers(min_value=0, max_value=10))
def test_inversion_involution(coords, shift):
    x = np.asarray(coords)
    o = x * 0.0 + 0.01 * shift
    if np.linalg.norm(x - o) < 1e-6:
        return
    back = inversion(inversion(x, o), o)
    assert np.linalg.norm(back - x) <= 1e-12 * max(1.0, np.linalg.norm(x))


def test_kelvin_transform_examples():
    one = fields.ScalarField.constant(1.0)
    v = kelvin_transform(one, point(0, 0, 0))
    pts = np.array([[2.0, 0, 0], [0, 0.5, 0]])
    assert np.allclose(v.evaluate_array(pts), 1.0 / np.linalg.norm(pts, axis=1))

    lnf = fields.ScalarField.log_distance(point(0, 0))
    w = kelvin_transform(lnf, point(0, 0))
    pts2 = np.array([[0.5, 0.0], [3.0, 4.0]])
    assert np.allclose(w.evaluate_array(pts2), -np.log(np.linalg.norm(pts2, axis=1)))


def test_kelvin_preserves_subharmonicity():
    # u subharmonic on an annulus -> transform passes the sub-mean test on the
    # inverted annulus (grid sub-mean-value oracle)
    u = fields.ScalarField(fields.ScalarField.log_distance(point(0.2, 0.1)).evaluate_array,
                           domain=Annulus(point(0, 0), 0.5, 2.0))
    v = kelvin_transform(u, point(0, 0))
    inverted = Annulus(point(0, 0), 0.5, 2.0)
    probes = fields.random_probes(Annulus(point(0, 0), 0.55, 1.9), 60, seed=5)
    rep = fields.check_subharmonic(
        fields.ScalarField(v.evaluate_array, domain=inverted), probes, tol=1e-6)
    assert rep.passed


def test_kelvin_transform_center_is_out_of_domain():
    one = fields.ScalarField.constant(1.0)
    v = kelvin_transform(one, point(0, 0))
    with pytest.raises(ValueError):
        v(point(0, 0))


@pytest.mark.parametrize("center, radius", [
    ((0, 0), math.nan), ((0, 0), math.inf), ((0, 0), 0.0), ((0, 0), -1.0),
    ((math.nan, 0), 1.0), ((0, math.inf), 1.0)])
def test_ball_rejects_non_finite_or_non_positive_geometry(center, radius):
    with pytest.raises(ValueError):
        Ball(np.asarray(center, float), radius)


@pytest.mark.parametrize("center, r_in, r_out", [
    ((0, 0), math.nan, 1.0), ((0, 0), 0.5, math.nan), ((0, 0), 0.5, math.inf),
    ((0, 0), math.inf, math.inf), ((0, 0), 0.0, 1.0), ((0, 0), 1.0, 0.5),
    ((math.nan, 0), 0.5, 1.0)])
def test_annulus_rejects_non_finite_or_unordered_geometry(center, r_in, r_out):
    with pytest.raises(ValueError):
        Annulus(np.asarray(center, float), r_in, r_out)


def test_ball_boundary_points_in_each_dimension():
    # +-1 alternating on the line, circle and spiral nodes in 2-D and 3-D, none beyond
    assert Ball(point(2), 0.5).boundary_points(5).ravel().tolist() == [2.5, 1.5, 2.5, 1.5, 2.5]
    for d in (2, 3):
        pts = Ball(np.zeros(d), 2.0).boundary_points(16)
        assert pts.shape == (16, d) and np.allclose(np.linalg.norm(pts, axis=1), 2.0)
    with pytest.raises(NotImplementedError):
        Ball(np.zeros(4), 1.0).boundary_points(8)


def test_parallel_set_radial():
    b = parallel_set(Ball(point(0, 0), 1.0), 0.5)
    assert isinstance(b, Ball) and b.radius == 1.5
    a = parallel_set(Annulus(point(0, 0), 1.0, 2.0), 0.25)
    assert isinstance(a, Annulus) and (a.r_in, a.r_out) == (0.75, 2.25)
    # dilation past the hole turns an annulus into a ball
    full = parallel_set(Annulus(point(0, 0), 0.2, 2.0), 0.5)
    assert isinstance(full, Ball) and full.radius == 2.5


def test_parallel_set_grid_oracle():
    # single-cell seed, r = 2 spacings: brute-force distance check per cell
    mask = np.zeros((11, 11), dtype=bool)
    mask[5, 5] = True
    g = GridDomain(point(0, 0), 0.1, mask)
    dil = parallel_set(g, 0.2)
    centers = np.indices(mask.shape).reshape(2, -1).T * 0.1
    seed_center = np.array([0.5, 0.5])
    brute = (np.linalg.norm(centers - seed_center, axis=1) <= 0.2 + 1e-12).reshape(mask.shape)
    assert np.array_equal(dil.mask, brute)


def test_parallel_set_monotone():
    mask = np.zeros((15, 15), dtype=bool)
    mask[7, 7] = mask[7, 8] = True
    g = GridDomain(point(0, 0), 1.0, mask)
    small = parallel_set(g, 2.0)
    large = parallel_set(g, 3.5)
    assert np.all(small.mask <= large.mask)
    assert parallel_set(Ball(point(0, 0), 1.0), 0.1).radius < \
        parallel_set(Ball(point(0, 0), 1.0), 0.2).radius


# -- independent flood-fill oracle -------------------------------------------


def bfs_hull(K_mask, O_mask):
    """Reference hull: flood O\\K from the boundary cells of O, fill the rest."""
    shape = K_mask.shape
    complement = O_mask & ~K_mask
    # boundary cells of O: mask cells adjacent to outside
    boundary = np.zeros(shape, bool)
    for idx in np.argwhere(O_mask):
        i, j = idx
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if not (0 <= ni < shape[0] and 0 <= nj < shape[1]) or not O_mask[ni, nj]:
                boundary[i, j] = True
    reached = np.zeros(shape, bool)
    queue = deque([tuple(ix) for ix in np.argwhere(boundary & complement)])
    for c in queue:
        reached[c] = True
    while queue:
        i, j = queue.popleft()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < shape[0] and 0 <= nj < shape[1] and complement[ni, nj] \
                    and not reached[ni, nj]:
                reached[ni, nj] = True
                queue.append((ni, nj))
    return K_mask | (complement & ~reached)


def _disk_grid(n, radius_cells, center=None):
    c = (n // 2, n // 2) if center is None else center
    ii, jj = np.indices((n, n))
    return (ii - c[0]) ** 2 + (jj - c[1]) ** 2 <= radius_cells ** 2


def test_inward_filled_hull_circle():
    n = 41
    O = GridDomain(point(0, 0), 0.1, _disk_grid(n, 18))
    ii, jj = np.indices((n, n))
    rr = np.sqrt((ii - 20) ** 2 + (jj - 20) ** 2)
    ring = (rr >= 8) & (rr <= 10)
    K = O.with_mask(ring)
    hull = inward_filled_hull(K, O)
    oracle = bfs_hull(ring, O.mask)
    assert np.array_equal(hull.mask, oracle)
    # the hole got filled: hull is the full disk of radius 10
    assert np.all(hull.mask[rr <= 10])


def test_inward_filled_hull_no_holes():
    n = 31
    O = GridDomain(point(0, 0), 0.1, np.ones((n, n), bool))
    solid = np.zeros((n, n), bool)
    solid[10:20, 10:20] = True
    K = O.with_mask(solid)
    assert np.array_equal(inward_filled_hull(K, O).mask, solid)
    two = np.zeros((n, n), bool)
    two[5:9, 5:9] = True
    two[20:26, 18:24] = True
    K2 = O.with_mask(two)
    assert np.array_equal(inward_filled_hull(K2, O).mask, two)


def test_inward_filled_hull_idempotent_and_monotone():
    n = 41
    O_small = GridDomain(point(0, 0), 0.1, _disk_grid(n, 15))
    O_big = GridDomain(point(0, 0), 0.1, _disk_grid(n, 19))
    ii, jj = np.indices((n, n))
    rr = np.sqrt((ii - 20) ** 2 + (jj - 20) ** 2)
    # a C-shape: ring with a gap, open toward positive x
    ring = (rr >= 8) & (rr <= 10) & ~((ii > 20) & (np.abs(jj - 20) < 3))
    K = O_small.with_mask(ring)
    h1 = inward_filled_hull(K, O_small)
    h2 = inward_filled_hull(h1, O_small)
    assert np.array_equal(h1.mask, h2.mask)
    # Prop-style monotonicity in the ambient open set
    hb = inward_filled_hull(O_big.with_mask(ring), O_big)
    assert np.all(h1.mask <= hb.mask)


def test_inward_filled_hull_preconditions():
    n = 21
    O = GridDomain(point(0, 0), 0.1, _disk_grid(n, 8))
    K_outside = O.with_mask(np.ones((n, n), bool))
    with pytest.raises(ValueError):
        inward_filled_hull(K_outside, O)


def test_grid_serialization_roundtrip():
    mask = _disk_grid(17, 6)
    g = GridDomain(point(-0.5, 0.25), 0.125, mask)
    data = json.loads(json.dumps(g.to_json()))
    g2 = GridDomain.from_json(data)
    assert np.array_equal(g.mask, g2.mask)
    assert g2.spacing == g.spacing
    assert np.allclose(g2.origin, g.origin)


def test_domain_membership():
    b = Ball(point(1, 0), 2.0)
    assert b.contains(point(2.5, 0)) and not b.contains(point(3.5, 0))
    a = Annulus(point(0, 0), 1.0, 2.0)
    assert a.contains(point(1.5, 0)) and not a.contains(point(0.5, 0))
    assert not a.contains(INFINITY)


@pytest.mark.parametrize("d", [2, 3])
def test_grid_contains_array_matches_the_scalar_test(d):
    rng = np.random.default_rng(d)
    shape = (7, 6, 5)[:d]
    grid = GridDomain(np.full(d, -0.3), 0.25, rng.random(shape) < 0.5)
    assert np.array_equal(grid.contains_array(grid.centers()), grid.mask.ravel())
    # points from a cell before the window to a cell past it
    pts = rng.uniform(grid.origin - grid.spacing,
                      grid.origin + np.asarray(shape) * grid.spacing, size=(400, d))
    got = grid.contains_array(pts)
    assert np.array_equal(got, [grid.contains(x) for x in pts])
    in_window = np.array([grid.index_of(x) is not None for x in pts])
    assert got.any() and (in_window & ~got).any() and (~in_window).any()


def test_membership_rejects_points_of_another_dimension():
    grid = GridDomain(point(0, 0, 0), 0.5, np.ones((3, 3, 3), bool))
    for domain in [Ball(point(0), 1.0), Annulus(point(0, 0), 1.0, 2.0), grid]:
        d = domain.dimension
        other = np.full(d + 1, 0.1)
        with pytest.raises(ValueError, match=f"dimension {d + 1} given to a domain of "
                                             f"dimension {d}"):
            domain.contains(other)
        if isinstance(domain, Ball):
            with pytest.raises(ValueError, match=f"of dimension {d}"):
                domain.closure_contains(other)
        with pytest.raises(ValueError, match=f"of dimension {d}"):
            domain.contains_array(np.full((4, d + 1), 0.1))
        assert not domain.contains(np.full(d, 9.0))
        assert not domain.contains_array(np.full((2, d), 9.0)).any()


def test_boundary_distance_rejects_points_of_another_dimension():
    for domain, inside in [(Ball(point(0), 1.0), point(0.5)),
                           (Annulus(point(0), 1.0, 2.0), point(1.5))]:
        with pytest.raises(ValueError, match="dimension 2 given to a domain of dimension 1"):
            domain.boundary_distance(point(0.1, 0.2))
        assert domain.boundary_distance(inside) == 0.5


def _awkward_rows(d: int) -> np.ndarray:
    """Rows of exact zeros, subnormals, values whose squares overflow or
    underflow, infinities and nans, each coordinate sign mixed in."""
    specials = [0.0, -0.0, 5e-324, -2.5e-310, 1e200, -1e200, 1e-200, -1e-200,
                math.inf, -math.inf, math.nan, -math.nan, 1.0, -3.0]
    rows = np.array(list(itertools.product(specials, repeat=min(d, 2))))
    if d == 3:
        rows = np.column_stack([rows, np.roll(rows[:, 0], 5)])
    return rows


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_row_norm_is_bitwise_the_axis_norm(d):
    """_distance(pts, c) is np.linalg.norm(pts - c, axis=1) bit for bit and sign for
    sign, at c = 0 and at a random c, on C-ordered, F-ordered and strided stacks."""
    rng = np.random.default_rng(d)
    centers = [np.zeros(d), rng.standard_normal(d) * np.exp(rng.uniform(-5, 5, d))]
    for n in [1, 7, 4096, 20000]:
        v = rng.standard_normal((n, d)) * np.exp(rng.uniform(-30, 30, (n, d)))
        wide = np.hstack([v, v])
        for stack in [v, np.asfortranarray(v), v[::2], wide[:, :d], wide[:, d - 1:2 * d - 1]]:
            for c in centers:
                want = np.linalg.norm(stack - c, axis=1)
                assert _bitwise_equal(_distance(stack, c), want), (n, d)
    awkward = _awkward_rows(d)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got = _distance(awkward, centers[0])
        for stack in [awkward, np.asfortranarray(awkward), awkward[::3]]:
            for c in centers:
                assert _bitwise_equal(_distance(stack, c), np.linalg.norm(stack - c, axis=1))
    assert np.isinf(got).any() and np.isnan(got).any() and (got == 0.0).any()
    with pytest.raises(ValueError, match=f"dimension {d} against a center of dimension {d + 1}"):
        _distance(v, np.zeros(d + 1))


def test_inward_filled_hull_d3_shell():
    # a spherical shell in d=3 encloses a cavity; the hull fills it
    n = 25
    c = n // 2
    ii, jj, kk = np.indices((n, n, n))
    rr = np.sqrt((ii - c) ** 2 + (jj - c) ** 2 + (kk - c) ** 2)
    O = GridDomain(point(0, 0, 0), 0.1, rr <= 11)
    shell = (rr >= 6) & (rr <= 8)
    hull = inward_filled_hull(O.with_mask(shell), O)
    assert np.all(hull.mask[rr <= 8])
    assert not np.any(hull.mask[rr > 8])
    again = inward_filled_hull(hull, O)
    assert np.array_equal(again.mask, hull.mask)


def test_parallel_set_grid_d3():
    mask = np.zeros((9, 9, 9), dtype=bool)
    mask[4, 4, 4] = True
    g = GridDomain(point(0, 0, 0), 1.0, mask)
    dil = parallel_set(g, 2.0)
    centers = np.indices(mask.shape).reshape(3, -1).T.astype(float)
    brute = (np.linalg.norm(centers - 4.0, axis=1) <= 2.0 + 1e-12).reshape(mask.shape)
    assert np.array_equal(dil.mask, brute)


# -- the lattice morphology against scipy.ndimage -------------------------------


def dilation_by_edt(g: GridDomain, r: float) -> np.ndarray:
    """Reference: the cells within r of a mask cell, by the Euclidean distance transform."""
    return g.mask | (ndimage.distance_transform_edt(~g.mask) * g.spacing <= r)


def hull_by_labels(K: GridDomain, O: GridDomain) -> np.ndarray:
    """Reference: label the face components of O \\ K and fill those that miss O's
    boundary cells (the erosion of O with nothing outside the window)."""
    structure = ndimage.generate_binary_structure(K.dimension, 1)
    boundary = O.mask & ~ndimage.binary_erosion(O.mask, structure, border_value=0)
    complement = O.mask & ~K.mask
    labels, _ = ndimage.label(complement, structure)
    exterior = np.unique(labels[boundary & complement])
    return K.mask | (complement & ~np.isin(labels, exterior[exterior > 0]))


@pytest.mark.parametrize("shape", [(37, 29), (13, 11, 12)], ids=["2d", "3d"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parallel_set_grid_is_the_distance_transform_threshold(shape, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < 0.03
    mask[0] = rng.random(shape[1:]) < 0.3  # components on the window frame
    g = GridDomain(np.zeros(len(shape)), 0.1, mask)
    for r in (0.7 * g.spacing, g.spacing, 1.5 * g.spacing, 2.5 * g.spacing):
        dil = parallel_set(g, r).mask
        assert np.array_equal(dil, dilation_by_edt(g, r)), r
    assert (dil & ~mask).any() and not dil.all()


@pytest.mark.parametrize("shape", [(41, 37), (15, 14, 13)], ids=["2d", "3d"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_inward_filled_hull_matches_component_labelling(shape, seed):
    # O has holes of its own, so the flood also starts from inner boundary cells
    rng = np.random.default_rng(seed)
    O = GridDomain(np.zeros(len(shape)), 0.1, rng.random(shape) < 0.98)
    fill = 0.45 if len(shape) == 2 else 0.65  # dense enough to enclose holes
    K = O.with_mask((rng.random(shape) < fill) & O.mask & ~O.boundary_cells())
    hull = inward_filled_hull(K, O).mask
    assert np.array_equal(hull, hull_by_labels(K, O))
    assert (hull & ~K.mask).any() and (O.mask & ~hull).any()


def test_pj_suite_windows_match_the_ndimage_references(monkeypatch):
    # the hull windows of pj-suite's K-less instances at seed 0, on the supports
    # of theta, mu and the Riesz data of u
    from potkit import duality
    from potkit.presets import _pj_instances

    hulls, pads = [], []
    real_hull, real_pad = duality.inward_filled_hull, duality.parallel_set

    def hull_spy(K, O):
        hulls.append((K, O, real_hull(K, O)))
        return hulls[-1][2]

    def pad_spy(base, r):
        pads.append((base, r, real_pad(base, r)))
        return pads[-1][2]

    monkeypatch.setattr(duality, "inward_filled_hull", hull_spy)
    monkeypatch.setattr(duality, "parallel_set", pad_spy)
    for _, theta, mu, _, riesz_u, K in _pj_instances(0):
        if K is None:
            duality._hull_window(theta, mu + riesz_u)
    assert len(hulls) == len(pads) == 11
    assert {K.dimension for K, _, _ in hulls} == {2, 3}
    for K, O, hull in hulls:
        assert np.array_equal(hull.mask, hull_by_labels(K, O))
    for base, r, pad in pads:
        assert np.array_equal(pad.mask, dilation_by_edt(base, r))


# -- the domain protocol against the type ladders it replaced ------------------


def diameter_ladder(domain) -> float:
    """Reference: the per-type diameter the gluing constructions used to compute."""
    if isinstance(domain, Ball):
        return 2.0 * domain.radius
    if isinstance(domain, Annulus):
        return 2.0 * domain.r_out
    return float(max(domain.shape) * domain.spacing)


def boundary_distance_ladder(domain, x) -> float:
    """Reference: the per-type distance to the boundary the probe sets used."""
    x = np.asarray(x, dtype=float)
    if isinstance(domain, Ball):
        return float(domain.radius - np.linalg.norm(x - domain.center))
    rho = float(np.linalg.norm(x - domain.center))
    return min(rho - domain.r_in, domain.r_out - rho)


def shell_ladder(domain, center):
    """Reference: the concentric test and radii the layer restrictions used."""
    concentric = np.allclose(center, getattr(domain, "center", center), atol=1e-14)
    if isinstance(domain, Ball) and concentric:
        return (0.0, domain.radius)
    if isinstance(domain, Annulus) and concentric:
        return (domain.r_in, domain.r_out)
    return None


def _protocol_domains():
    grid_mask = np.zeros((7, 5), dtype=bool)
    grid_mask[2:5, 1:4] = True
    return {"ball": Ball(point(0, 0), 1.0), "ball-off": Ball(point(0.3, -1.7), 0.37),
            "ball-3d": Ball(point(0.1, 0.2, -0.3), 2.9),
            "annulus": Annulus(point(0, 0), 0.12, 0.94),
            "annulus-off": Annulus(point(-1.1, 0.4), 0.55, 1.9),
            "annulus-3d": Annulus(point(0.5, 0, 0.25), 0.3, 1.3),
            "grid": GridDomain(point(-0.5, 0.25), 0.125, grid_mask),
            "grid-3d": GridDomain(point(0, 0, 0), 0.1, np.ones((3, 9, 4), dtype=bool))}


@pytest.mark.parametrize("name", list(_protocol_domains()))
def test_diameter_matches_ladder(name):
    domain = _protocol_domains()[name]
    assert domain.diameter == diameter_ladder(domain)
    assert type(domain.diameter) is float


@pytest.mark.parametrize("name", [n for n in _protocol_domains() if "grid" not in n])
def test_boundary_distance_matches_ladder_bitwise(name):
    domain = _protocol_domains()[name]
    rng = np.random.default_rng(11)
    R = domain.diameter / 2.0
    pts = domain.center + rng.uniform(-1.2 * R, 1.2 * R, size=(2000, domain.dimension))
    for x in pts:
        assert domain.boundary_distance(x) == boundary_distance_ladder(domain, x)


@pytest.mark.parametrize("name", list(_protocol_domains()))
def test_shell_matches_ladder(name):
    domain = _protocol_domains()[name]
    c = getattr(domain, "origin", None)
    c = domain.center if c is None else c
    for offset in (0.0, 1e-15, -1e-15, 1e-6, 1e-3):
        for axis in range(domain.dimension):
            center = c.copy()
            center[axis] += offset
            assert domain.shell(center) == shell_ladder(domain, center)


def test_shell_examples():
    b, a = Ball(point(0, 0), 0.5), Annulus(point(0, 0), 0.2, 0.8)
    assert b.shell(point(0, 0)) == (0.0, 0.5) and a.shell(point(0, 0)) == (0.2, 0.8)
    assert b.shell(point(1e-15, 0)) == (0.0, 0.5) and a.shell(point(0, -1e-15)) == (0.2, 0.8)
    assert b.shell(point(1e-6, 0)) is None and a.shell(point(0, 1e-6)) is None
    grid = GridDomain(point(0, 0), 0.1, np.ones((3, 3), dtype=bool))
    assert grid.shell(point(0, 0)) is None and grid.shell(point(0.1, 0.1)) is None


@pytest.mark.parametrize("shape", [(5,), (4, 3), (3, 2, 5)], ids=["1d", "2d", "3d"])
def test_grid_centers_are_the_window_in_c_order(shape):
    d = len(shape)
    grid = GridDomain(np.linspace(-0.7, 0.3, d), 0.13, np.ones(shape, dtype=bool))
    want = grid.origin[None, :] + np.indices(grid.shape).reshape(d, -1).T * grid.spacing
    got = grid.centers()
    assert got.shape == (int(np.prod(shape)), d)
    assert np.array_equal(got, want)
    # the masked cells are a C-ordered subset of the window
    assert np.array_equal(grid.with_mask(np.arange(got.shape[0]).reshape(shape) % 3 == 0)
                          .cell_centers(), got[::3])


@pytest.mark.parametrize("union", [True, False], ids=["union", "intersection"])
def test_composite_membership(union):
    a = Ball(point(0, 0), 1.0)
    b = Annulus(point(0.8, 0.1), 0.3, 1.2)
    both = _Composite(a, b, union)
    assert both.dimension == 2
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2.2, 2.2, size=(3000, 2))
    ia, ib = a.contains_array(pts), b.contains_array(pts)
    want = ia | ib if union else ia & ib
    assert np.array_equal(both.contains_array(pts), want)
    assert 0 < want.sum() < len(pts)  # the points are mixed
    for x in pts[:600]:
        sa, sb = a.contains(x), b.contains(x)
        assert both.contains(x) == ((sa or sb) if union else (sa and sb))
    assert not both.contains(INFINITY)


# -- the sphere questions: holds(x, r) and misses(x, r) -------------------------


def _closure_holds(domain, pts):
    """Per row of pts: in the closure of a ball, annulus or composite of them."""
    if isinstance(domain, _Composite):
        a, b = _closure_holds(domain.a, pts), _closure_holds(domain.b, pts)
        return a | b if domain.union else a & b
    rho = _distance(pts, domain.center)
    if isinstance(domain, Ball):
        return rho <= domain.radius
    return (rho >= domain.r_in) & (rho <= domain.r_out)


def _interfaces(domain):
    """(center, radius) of every circle or sphere that bounds the domain."""
    if isinstance(domain, _Composite):
        return _interfaces(domain.a) + _interfaces(domain.b)
    if isinstance(domain, Ball):
        return [(domain.center, domain.radius)]
    return [(domain.center, domain.r_in), (domain.center, domain.r_out)]


def _sphere_domains():
    out = {k: v for k, v in _protocol_domains().items() if "grid" not in k}
    a, b = Ball(point(0, 0), 1.0), Annulus(point(0.8, 0.1), 0.3, 1.2)
    out["union"], out["intersection"] = _Composite(a, b, True), _Composite(a, b, False)
    return out


@settings(max_examples=600, deadline=None)
@given(name=st.sampled_from(sorted(_sphere_domains())), which=st.integers(0, 3),
       outside=st.booleans(), j=st.integers(0, 4095), r=st.floats(1e-3, 1.0),
       offset=st.one_of(st.integers(-6, 6).map(lambda k: k * 2.0 ** -52),
                        st.floats(-4e-11, 4e-11), st.floats(-0.3, 0.3)))
def test_holds_and_misses_are_proofs_for_the_sphere_nodes(name, which, outside, j, r,
                                                         offset):
    """A sphere tangent to one of the domain's interfaces at a rule node, moved by
    a few ulps, by about the margin or by a lot: a held sphere has every node in
    the domain, a missed one has none in its closure."""
    domain = _sphere_domains()[name]
    c, R = _interfaces(domain)[which % len(_interfaces(domain))]
    nodes, _ = quadrature.sphere_rule(domain.dimension, None)
    u = nodes[j % len(nodes)]
    x = c + (R + (r if outside else -r) + offset * max(R, 1.0)) * u
    pts = x[None, :] + r * nodes  # the bits sphere_averages gives its nodes
    if domain.holds(x, r):
        assert domain.contains_array(pts).all()
    if domain.misses(x, r):
        assert not _closure_holds(domain, pts).any()
        assert not domain.contains_array(pts).any()


def test_holds_and_misses_examples():
    b, a = Ball(point(0, 0), 2.0), Annulus(point(0, 0), 1.0, 3.0)
    assert b.holds(point(1, 0), 1 - 1e-9) and not b.holds(point(1, 0), 1.0)
    assert b.misses(point(3.5, 0), 1.5 - 1e-9) and not b.misses(point(3.5, 0), 1.5)
    assert a.holds(point(2, 0), 1 - 1e-9) and not a.holds(point(2, 0), 1.0)
    assert not a.holds(point(0, 0.1), 2.0)  # the sphere lies in the annulus, the ball not
    assert a.misses(point(0, 0), 0.5) and a.misses(point(0, 4), 0.9)
    assert not a.misses(point(0, 0), 1.0) and not a.misses(point(0, 0), 4.0)
    u = _Composite(Ball(point(0, 0), 1.0), Ball(point(1.5, 0), 1.0), union=True)
    assert u.holds(point(0, 0), 0.5) and not u.holds(point(0.75, 0), 0.5)
    assert u.misses(point(0, 3), 1.0) and not u.misses(point(0, 1.5), 1.0)
    i = _Composite(Ball(point(0, 0), 1.0), Ball(point(1.5, 0), 1.0), union=False)
    assert i.holds(point(0.75, 0), 0.2) and not i.holds(point(0, 0), 0.2)
    assert i.misses(point(-0.5, 0), 0.2) and not i.misses(point(0.75, 0), 0.2)
    grid = GridDomain(point(0, 0), 0.1, np.ones((9, 9), dtype=bool))
    assert not grid.holds(point(0.4, 0.4), 1e-3) and not grid.misses(point(5, 5), 1e-3)
    with pytest.raises(ValueError, match="dimension"):
        b.holds(point(0, 0, 0), 0.1)


def test_domain_type_is_decided_in_geometry():
    """Outside geometry no isinstance names a domain class, except the listed guard."""
    allowed = {("measures.py", "convolve_balayage")}  # its support rule holds for balls only
    domains = {"Ball", "Annulus", "GridDomain"}
    sites = []
    for path in sorted(Path(potkit.__file__).parent.glob("*.py")):
        if path.name == "geometry.py":
            continue
        tree = ast.parse(path.read_text())
        owner = {}
        for node in ast.walk(tree):  # breadth first: inner functions overwrite outer ones
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(node):
                    owner[id(sub)] = node.name
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                continue
            names = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node.args[1]) if isinstance(n, ast.Attribute)}
            if names & domains:
                sites.append((path.name, owner.get(id(node), "<module>"), node.lineno))
    assert [s for s in sites if s[:2] not in allowed] == []
