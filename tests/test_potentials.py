import math
import tracemalloc

import numpy as np
import pytest

from potkit import duality, green, potentials
from potkit.fields import GridField, ScalarField, riesz_measure, sphere_average
from potkit.geometry import Ball, GridDomain, point
from potkit.kernels import k_eval_array
from potkit.measures import (Atom, Atoms, BallUniform, GridDensity, Measure, Mollifier,
                             SphereUniform, convolve_balayage, integrate, total_mass)
from potkit.potentials import (Potential, asymptotic_check, difference_potential,
                               lower_bound_check)


def atom(x, w=1.0):
    return Measure(len(x), [Atom(np.asarray(x, float), w)])


def quadrature_kernel(d, y):
    """K_{d-2}(., y) as a plain field, so integrate takes its quadrature route."""
    return ScalarField(ScalarField.kernel(y).evaluate_array)


def test_potential_single_atom():
    pt = Potential(atom((0.0, 0.0)))
    assert pt(point(2, 0)) == pytest.approx(math.log(2), rel=1e-14)
    assert pt(point(0, 0)) == -math.inf
    pt3 = Potential(Measure(3, [Atom(point(0, 0, 0), 1.0)]))
    assert pt3(point(2, 0, 0)) == -0.5


def test_potential_sphere_layer_closed_vs_quadrature():
    # implementation: Newton closed form; oracle: spec quadrature route
    mu = Measure(2, [SphereUniform(point(0, 0), 1.0, 1.0)])
    pt = Potential(mu)
    assert pt(point(0.5, 0)) == 0.0
    assert pt(point(2, 0)) == pytest.approx(math.log(2), rel=1e-14)
    for y in (point(0.5, 0.2), point(1.7, -0.4)):
        quad = integrate(mu, quadrature_kernel(2, y))
        assert pt(y) == pytest.approx(quad, abs=1e-9)


def test_potential_ball_layer_closed_vs_quadrature():
    mu = Measure(2, [BallUniform(point(0, 0), 0.7, 1.0)])
    pt = Potential(mu)
    y_out = point(1.5, 0.5)
    assert pt(y_out) == pytest.approx(math.log(np.hypot(1.5, 0.5)), rel=1e-12)
    y_in = point(0.3, -0.2)
    quad = integrate(mu, quadrature_kernel(2, y_in))
    assert pt(y_in) == pytest.approx(quad, abs=1e-3)  # quadrature is the rough side


def test_difference_potential_green_identity():
    # pt_{omega - delta} equals the Green function inside, 0 outside
    g = green.green_ball(point(0, 0), 1.0, point(0, 0))
    om = green.harmonic_measure(g, point(0, 0))
    diff = difference_potential(om, atom((0.0, 0.0)))
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
    diff = difference_potential(mu, th)
    v10 = abs(diff(point(10, 0)))
    v100 = abs(diff(point(100, 0)))
    assert v100 <= v10 * (10.0 / 100.0) * 3.0  # 1/|x| decay with slack
    assert diff(atom((0.0, 0.0)).components[0].point + 1e9) is not None


def test_asymptotic_check_examples():
    rep0 = asymptotic_check(atom((0.0, 0.0)), [10, 20, 40])
    assert rep0.passed and max(r.lhs for r in rep0.rows) <= 1e-10

    rep1 = asymptotic_check(atom((1.0, 0.0)), [10, 20, 40])
    assert rep1.passed
    for a, b in zip(rep1.rows, rep1.rows[1:]):
        assert b.lhs <= 1.1 * max(a.lhs, 1e-10)

    mu3 = Measure(3, [Atom(point(0.5, 0, 0), 1.0), Atom(point(-0.5, 0, 0), 1.0)])
    rep3 = asymptotic_check(mu3, [10, 20, 40])
    assert rep3.passed


def test_asymptotic_check_fails_on_nan_error():
    # a nan-weight atom makes every scaled error nan, which must not pass
    rep = asymptotic_check(atom((1.0, 0.0), math.nan), [10, 20, 40])
    assert all(math.isnan(r.lhs) for r in rep.rows)
    assert not rep.passed


def test_asymptotic_check_radius_precondition():
    with pytest.raises(ValueError):
        asymptotic_check(atom((8.0, 0.0)), [10, 20])


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
    mu = Measure(2, [SphereUniform(point(0, 0), 0.5, 1.0)])
    th = Measure(2, [BallUniform(point(0.2, 0), 0.3, 1.0)])
    a, b = 2.0, 3.0
    combo = Potential(mu.scaled(a) + th.scaled(b))
    pa, pb = Potential(mu), Potential(th)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2, 2, size=(200, 2))
    lhs = combo.evaluate_array(pts)
    rhs = a * pa.evaluate_array(pts) + b * pb.evaluate_array(pts)
    ok = np.isfinite(lhs) & np.isfinite(rhs)
    assert np.max(np.abs(lhs[ok] - rhs[ok])) <= 1e-9


def test_potential_harmonic_off_support():
    mu = Measure(2, [SphereUniform(point(0, 0), 0.5, 1.0), Atom(point(0.2, 0), 0.5)])
    pt = Potential(mu)
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
    pt = Potential(beta)
    grid = GridDomain(point(-0.8, -0.8), 0.02, np.ones((81, 81), bool))
    rec = riesz_measure(GridField.sample(pt, grid))
    assert total_mass(rec) == pytest.approx(total_mass(beta), rel=0.03)


def test_fubini_symmetry():
    # int pt_theta dmu = int pt_mu dtheta for positive disjoint-support pairs
    mu = Measure(2, [SphereUniform(point(0, 0), 0.4, 1.0)])
    th = Measure(2, [BallUniform(point(1.5, 0), 0.3, 2.0)])
    lhs = integrate(mu, Potential(th))
    rhs = integrate(th, Potential(mu))
    assert lhs == pytest.approx(rhs, abs=1e-7)


def test_potential_d1_atoms():
    # d=1 kernel is k_{-1}(t) = t; the diagonal value is 0
    mu = Measure(1, [Atom(np.array([0.0]), 1.0), Atom(np.array([1.0]), 2.0)])
    pt = Potential(mu)
    assert pt(np.array([2.0])) == pytest.approx(2.0 + 2.0 * 1.0)
    assert pt(np.array([0.0])) == pytest.approx(0.0 + 2.0 * 1.0)
    with pytest.raises(ValueError):
        pt(point(2, 0))  # a point of another dimension
    # probes at +-R: pt = 3R -+ 2 against m k(R) = 3R, so every scaled error is 2
    rep = asymptotic_check(mu, [10, 20, 40])
    assert rep.passed and [r.lhs for r in rep.rows] == [2.0, 2.0, 2.0]


def atom_loop_reference(atoms, pts, d):
    """Reference atom sum the scalar way: a norm and k_eval_array off each atom,
    the kernel's limit at 0 on it (-inf signed by the weight, 0 for d = 1).
    Returns the sums and n eps sum_j |w_j k_j|, the worst-case gap between two
    summation orders of the n terms at each point."""
    out, scale = np.zeros(len(pts)), np.zeros(len(pts))
    for x, w in atoms:
        if w == 0.0:
            continue
        r = np.linalg.norm(pts - x[None, :], axis=1)
        hit = r == 0.0
        contrib = np.empty(len(r))
        contrib[~hit] = w * k_eval_array(d - 2, r[~hit])
        contrib[hit] = 0.0 if d == 1 else -math.copysign(math.inf, w)
        out += contrib
        scale += np.abs(contrib)
    return out, len(atoms) * np.finfo(float).eps * scale


@pytest.mark.parametrize("d", [1, 2, 3])
def test_atom_potential_is_the_scalar_loop(d):
    rng = np.random.default_rng(d)
    atoms = list(zip(rng.uniform(-1.0, 1.0, (6, d)), [1.0, -2.0, 0.5, -0.25, 3.0, 0.0]))
    pts = np.vstack([[x for x, _ in atoms], rng.uniform(-2.0, 2.0, (200, d))])  # hits first
    got = Potential(Measure(d, [Atom(x, w) for x, w in atoms])).evaluate_array(pts)
    want, bound = atom_loop_reference(atoms, pts, d)
    fin = np.isfinite(want)
    assert np.array_equal(got[~fin], want[~fin])  # the hits: -inf signed by the weight
    assert np.all(np.abs(got[fin] - want[fin]) <= bound[fin])


# ---------------------------------------------------------------------------
# the direct kernel-sum engine


def dense_kernel_sum(pts, nodes, weights, q, block=1 << 17):
    """Reference: the (n, m, d) difference tensor per row block, then its norm."""
    out = np.empty(len(pts))
    step = max(1, block // max(1, len(nodes)))
    for a in range(0, len(pts), step):
        chunk = pts[a:a + step]
        r = np.linalg.norm(chunk[:, None, :] - nodes[None, :, :], axis=2)
        bad = r == 0.0
        if bad.any():
            r = np.where(bad, 1.0, r)
        vals = k_eval_array(q, r)
        if bad.any():
            vals = np.where(bad, -math.inf, vals)
        out[a:a + step] = vals @ weights
    return out


def lattice_source(d, n, seed):
    """F-ordered lattice points and charged-cell centers, as the duality maps build them."""
    rng = np.random.default_rng(seed)
    pts = np.indices((n,) * d).reshape(d, -1).T * 0.02 - 0.3
    live = rng.random((n,) * d) < 0.4
    nodes = -0.25 + np.argwhere(live) * 0.03
    return pts, nodes, rng.normal(size=len(nodes))


@pytest.mark.parametrize("d,n", [(2, 40), (3, 12)])
@pytest.mark.parametrize("block", [None, 9_999], ids=["default", "9999"])
def test_kernel_sum_matches_dense_reference_bitwise(d, n, block):
    # about 1M kernel values each: at the default block (None) both span
    # several blocks by their size alone, and both stay direct
    pts, nodes, w = lattice_source(d, n, seed=d)
    assert pts.flags.f_contiguous and nodes.flags.f_contiguous
    assert 6 * 2 ** 17 < len(pts) * len(nodes) < potentials.FMM_PAIRS
    size = {} if block is None else {"block": block}
    for p in (pts, np.ascontiguousarray(pts)):
        ref = dense_kernel_sum(p, nodes, w, d - 2, **size)
        got = potentials._chunked_kernel_sum(p, nodes, w, d - 2, **size)
        assert np.array_equal(ref, got)


def test_kernel_sum_memory_is_one_block():
    # to_potential's positivity probes, the largest direct sum of the presets:
    # each kernel matrix is one heap block of at most 1 MiB, seen by tracemalloc
    rng = np.random.default_rng(3)
    pts, nodes = rng.uniform(-1, 1, (200, 2)), rng.uniform(-1, 1, (9_104, 2))
    w = rng.normal(size=len(nodes))
    tracemalloc.start()
    try:
        potentials._chunked_kernel_sum(pts, nodes, w, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * (2 ** 17 // len(nodes)) * len(nodes) <= peak <= 1.5 * 2 ** 20


@pytest.mark.parametrize("d", [2, 3])
def test_kernel_sum_exact_hits_are_infinite_by_weight(d):
    nodes = np.array([[0.0] * d, [0.5] + [0.0] * (d - 1)])
    far = [[2.0] * d]
    got = potentials._chunked_kernel_sum(np.array([nodes[0], nodes[1]] + far), nodes,
                                         np.array([1.0, -2.0]), d - 2)
    assert got[0] == -math.inf and got[1] == math.inf and math.isfinite(got[2])
    assert np.array_equal(got, dense_kernel_sum(np.array([nodes[0], nodes[1]] + far),
                                                nodes, np.array([1.0, -2.0]), d - 2))


# ---------------------------------------------------------------------------
# the fast multipole path


@pytest.fixture
def fmm_calls(monkeypatch):
    """Send every 2-D log-kernel sum to the FMM path and record the calls."""
    from potkit import _fmm

    calls, real = [], _fmm.log_kernel_sum

    def spy(*args):
        calls.append(len(args[0]) * len(args[1]))
        return real(*args)

    monkeypatch.setattr(_fmm, "log_kernel_sum", spy)
    monkeypatch.setattr(potentials, "FMM_PAIRS", 1)
    monkeypatch.setattr(potentials, "FMM_MIN_SIDE", 1)
    return calls


def assert_within_fmm_bound(pts, nodes, w):
    """FMM vs the dense reference: identical non-finite entries, finite ones
    within the a-priori bound error_bound(ORDER) * sum |w|."""
    from potkit import _fmm

    got = potentials._chunked_kernel_sum(pts, nodes, w, 0)
    ref = dense_kernel_sum(pts, nodes, w, 0)
    fin = np.isfinite(ref)
    assert np.array_equal(got[~fin], ref[~fin], equal_nan=True)
    err = np.max(np.abs(got[fin] - ref[fin]), initial=0.0)
    assert err <= _fmm.error_bound(_fmm.ORDER) * np.sum(np.abs(w))
    return got, ref


def test_fmm_order_is_the_least_within_tolerance():
    from potkit import _fmm

    assert _fmm.error_bound(_fmm.ORDER) <= _fmm.TOL == 1e-13
    assert _fmm.error_bound(_fmm.ORDER - 1) > _fmm.TOL
    bounds = [_fmm.error_bound(p) for p in range(1, 80)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("p", [4, 8, 16])
def test_fmm_error_is_within_its_bound_at_low_order(p, fmm_calls, monkeypatch):
    # low orders make the truncation visible, and the bound must still hold
    from potkit import _fmm

    monkeypatch.setattr(_fmm, "ORDER", p)
    rng = np.random.default_rng(p)
    pts = rng.uniform(-1.0, 1.0, (3000, 2))
    nodes = rng.uniform(-0.6, 0.9, (2000, 2))
    got, ref = assert_within_fmm_bound(pts, nodes, rng.normal(size=2000))
    assert np.max(np.abs(got - ref)) > 1e-10  # the truncation shows
    assert fmm_calls


def test_fmm_random_cloud_mixed_signs(fmm_calls):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, (4000, 2))
    nodes = rng.normal(0.2, 0.3, (2500, 2))
    assert_within_fmm_bound(pts, nodes, rng.normal(size=2500))
    assert fmm_calls == [4000 * 2500]


def test_fmm_lattice_on_lattice_exact_hits(fmm_calls):
    # nodes on every other point of the target lattice, mixed signs: every
    # node is an exact hit, -inf times its weight (+inf for negative weights)
    pts, _, _ = lattice_source(2, 60, seed=1)
    nodes = pts[::2]
    w = np.random.default_rng(1).normal(size=len(nodes))
    got, ref = assert_within_fmm_bound(pts, nodes, w)
    hit = ~np.isfinite(ref)
    assert hit.sum() == len(nodes)
    assert np.array_equal(got[::2], np.where(w > 0, -math.inf, math.inf))
    assert fmm_calls


def test_fmm_exact_hits_zero_weight_and_collisions(fmm_calls):
    # one target on each node: weights 1 and -2 give -inf and +inf, a zero
    # weight the dense sum's nan, and two opposite nodes on one point nan
    nodes = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [-0.5, 0.5], [-0.5, 0.5]])
    w = np.array([1.0, -2.0, 0.0, 1.0, -1.0])
    far = np.random.default_rng(2).uniform(-1.0, 1.0, (400, 2))
    with np.errstate(invalid="ignore"):
        got, ref = assert_within_fmm_bound(np.vstack([nodes, far]), nodes, w)
    assert got[0] == -math.inf and got[1] == math.inf
    assert math.isnan(got[2]) and math.isnan(got[3]) and math.isnan(got[4])
    assert np.all(np.isfinite(got[5:]))


@pytest.mark.parametrize("case", ["one-leaf", "collinear", "single-node", "far-targets"])
def test_fmm_degenerate_layouts(case, fmm_calls):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, (2000, 2))
    if case == "one-leaf":  # every node inside one leaf box
        nodes = 0.3 + rng.uniform(0.0, 1e-4, (500, 2))
    elif case == "collinear":  # nodes and targets on one line: a flat bounding box
        nodes = np.column_stack([rng.uniform(-1.0, 1.0, 500), np.full(500, 0.25)])
        pts = np.vstack([np.column_stack([pts[:, 0], np.full(2000, 0.25)]), nodes[:7]])
    elif case == "single-node":
        nodes = np.array([[0.1, -0.2]])
    else:  # targets 1e3 to 1e4 away from a unit node box
        nodes = rng.uniform(0.0, 1.0, (500, 2))
        pts = rng.uniform(1e3, 1e4, (2000, 2)) * rng.choice([-1.0, 1.0], (2000, 2))
    assert_within_fmm_bound(pts, nodes, rng.normal(size=len(nodes)))
    assert fmm_calls


def test_fmm_never_takes_other_kernels_dimensions_or_thin_sums(fmm_calls, monkeypatch):
    # only d = 2, q = 0 sums switch engines; the rest stay bitwise direct
    for d, q in ((3, 1), (2, 0.5), (2, -1)):
        pts, nodes, w = lattice_source(d, 12, seed=d)
        assert np.array_equal(potentials._chunked_kernel_sum(pts, nodes, w, q),
                              dense_kernel_sum(pts, nodes, w, q))
    # as do log sums with fewer than FMM_MIN_SIDE points or nodes
    monkeypatch.setattr(potentials, "FMM_MIN_SIDE", 128)
    pts, nodes, w = lattice_source(2, 40, seed=2)
    for p, x, v in ((pts[:127], nodes, w), (pts, nodes[:127], w[:127])):
        assert np.array_equal(potentials._chunked_kernel_sum(p, x, v, 0),
                              dense_kernel_sum(p, x, v, 0))
    assert fmm_calls == []


def test_fmm_round_trip_of_a_mollified_jensen_measure(monkeypatch):
    # duality-roundtrip's jensen[2] at h = 0.02, whose grid sampling is above
    # the pair threshold: both engines give the same round-trip errors
    from potkit import _fmm

    x0 = point(0, 0)
    om = green.harmonic_measure(green.green_ball(x0, 0.6, x0), x0)
    mu = convolve_balayage(om, Mollifier(0.1 * (1.0 - 0.6), 2), Ball(x0, 1.0),
                           cells_per_radius=6)
    V = duality.to_potential(mu, x0, kind="jensen", D=Ball(x0, 1.6), seed=0)
    grid = GridDomain(point(-1.2, -1.2), 0.02, np.ones((121, 121), bool))
    probes = [ScalarField(lambda p, k=k: np.cos(0.7 * k * p[:, 0]) * np.exp(0.2 * k * p[:, 1]))
              for k in range(1, 6)]
    probes += [ScalarField(lambda p, k=k: (p[:, 0] ** 2 - p[:, 1] ** 2) * 0.1 * k + 1.0)
               for k in range(1, 6)]
    exact = np.array([integrate(mu, f) for f in probes])
    calls, real = [], _fmm.log_kernel_sum
    monkeypatch.setattr(_fmm, "log_kernel_sum", lambda *a: calls.append(1) or real(*a))
    errs, cells = {}, {}
    for engine, pairs in (("direct", math.inf), ("fmm", potentials.FMM_PAIRS)):
        monkeypatch.setattr(potentials, "FMM_PAIRS", pairs)
        rec = duality.from_potential(V, grid, pole_exclusion=0.1)
        errs[engine] = (np.abs(exact - [integrate(rec, f) for f in probes])
                        / (1.0 + np.abs(exact)))
        cells[engine] = rec.singular_cells
        assert bool(calls) == (engine == "fmm")
    assert np.max(np.abs(errs["fmm"] - errs["direct"])) <= 1e-12
    assert cells["fmm"] == cells["direct"]


# -- one far field per source cloud and box ----------------------------------


@pytest.fixture
def far_fields(monkeypatch):
    """Start without a kept far field, and record every far field built by its
    count of leaves holding a target."""
    from potkit import _fmm

    built, real = [], _fmm._far_field
    monkeypatch.setattr(_fmm, "_last_far_field", None)
    monkeypatch.setattr(_fmm, "_far_field", lambda *a: built.append(a[3].sum()) or real(*a))
    return built


def _unit_lattice(k):
    """(k + 1)^2 targets on [0, 1]^2, corners included: the box of every call below."""
    t = np.linspace(0.0, 1.0, k + 1)
    return np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)


def _fresh_log_kernel_sum(monkeypatch, *args):
    from potkit import _fmm

    monkeypatch.setattr(_fmm, "_last_far_field", None)
    return _fmm.log_kernel_sum(*args)


def test_fmm_far_field_is_reused_bitwise(far_fields, monkeypatch):
    # a finer lattice of the same box: same nodes, weights, box, leaf level
    # and occupied leaves, so the second call keeps the first one's far field
    from potkit import _fmm

    rng = np.random.default_rng(21)
    nodes, w = rng.uniform(0.1, 0.9, (3000, 2)), rng.normal(size=3000)
    _fmm.log_kernel_sum(_unit_lattice(50), nodes, w)
    hit = _fmm.log_kernel_sum(_unit_lattice(100), nodes, w)
    assert far_fields == [256]  # one far field, all 16 x 16 leaves occupied
    fresh = _fresh_log_kernel_sum(monkeypatch, _unit_lattice(100), nodes, w)
    assert len(far_fields) == 2 and hit.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("change", ["weights", "node", "box", "occupancy"])
def test_fmm_far_field_is_rebuilt_when_an_input_changes(change, far_fields, monkeypatch):
    from potkit import _fmm

    monkeypatch.setattr(_fmm, "_leaf_level", lambda t_idx, s_idx: 3)  # 8 x 8 leaves
    rng = np.random.default_rng(22)
    pts, nodes, w = _unit_lattice(100), rng.uniform(0.1, 0.9, (2000, 2)), rng.normal(size=2000)
    _fmm.log_kernel_sum(pts, nodes, w)
    pts, nodes, w = pts.copy(), nodes.copy(), w.copy()
    if change == "weights":
        w[7] = np.nextafter(w[7], np.inf)
    elif change == "node":
        nodes[7, 0] = np.nextafter(nodes[7, 0], np.inf)
    elif change == "box":  # the lower corner moves; every leaf keeps its targets
        pts += 2.0 ** -20
    else:  # leaf (2, 2), [0.25, 0.375)^2, loses its targets; the corners stay
        pts = pts[~np.all(np.abs(pts - 0.31) < 0.065, axis=1)]
    got = _fmm.log_kernel_sum(pts, nodes, w)
    assert far_fields == [64, 63 if change == "occupancy" else 64]
    assert got.tobytes() == _fresh_log_kernel_sum(monkeypatch, pts, nodes, w).tobytes()


def test_fmm_far_field_is_not_poisoned_by_the_callers_arrays(far_fields, monkeypatch):
    # the kept far field holds copies: arrays changed in place after a call are new inputs
    from potkit import _fmm

    rng = np.random.default_rng(23)
    pts, nodes, w = _unit_lattice(60), rng.uniform(0.1, 0.9, (2000, 2)), rng.normal(size=2000)
    _fmm.log_kernel_sum(pts, nodes, w)
    nodes[::5] += 0.01
    w *= -2.0
    got = _fmm.log_kernel_sum(pts, nodes, w)
    assert len(far_fields) == 2
    assert got.tobytes() == _fresh_log_kernel_sum(monkeypatch, pts, nodes, w).tobytes()


def test_a_dropped_potential_is_freed_without_the_cyclic_collector():
    import gc
    import weakref

    grid = GridDomain(point(-0.4, -0.4), 0.1, np.ones((9, 9), bool))
    om = green.harmonic_measure(green.green_ball(point(0, 0), 1.0, point(0, 0)),
                                point(0.4, 0.1))  # a Poisson-weighted sphere: a node cloud
    pt = Potential(Measure(2, [GridDensity(grid, np.ones((9, 9))),
                               Atom(point(0.5, 0.5), 1.0),
                               BallUniform(point(0.1, 0.0), 0.3, 1.0)] + list(om.components)))
    pt(point(0.2, 0.1))
    del om
    refs = [weakref.ref(pt), weakref.ref(pt.charge), weakref.ref(pt._clouds[0][0])]
    gc.disable()
    try:
        del pt
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def test_cell_potential_matches_quadrature_2d():
    from scipy import integrate as sp

    a, b = 0.013, 0.007
    ref = sp.dblquad(lambda y, x: 0.5 * math.log(x * x + y * y), 0, a, 0, b,
                     epsabs=1e-15, epsrel=1e-13)[0]
    assert potentials._rect_log_r(np.array([a]), np.array([b]))[0] == pytest.approx(
        ref, abs=1e-12 * abs(ref))
    h, off = 0.02, np.array([[0.003, -0.0071]])
    total = 0.0
    for x0, x1 in ((-h / 2 - off[0, 0], 0.0), (0.0, h / 2 - off[0, 0])):
        for y0, y1 in ((-h / 2 - off[0, 1], 0.0), (0.0, h / 2 - off[0, 1])):
            total += sp.dblquad(lambda y, x: 0.5 * math.log(x * x + y * y), x0, x1, y0, y1,
                                epsabs=1e-15, epsrel=1e-13)[0]
    assert potentials._cell_mean(2, h, off)[0] == pytest.approx(total / h ** 2, abs=1e-12)
    # at the centre: the mean of ln|x| over the unit square, ln 2 / 2 + pi/4 - 3/2 - ln 2,
    # plus ln h
    square_mean = -0.5 * math.log(2.0) + math.pi / 4.0 - 1.5
    assert potentials._cell_mean(2, h, np.zeros((1, 2)))[0] == pytest.approx(
        math.log(h) + square_mean, abs=1e-14)


def test_cell_potential_matches_quadrature_3d():
    from scipy import integrate as sp

    a, b, c = 0.013, 0.007, 0.01
    ref = sp.tplquad(lambda z, y, x: 1.0 / math.sqrt(x * x + y * y + z * z),
                     0, a, 0, b, 0, c, epsabs=1e-15, epsrel=1e-13)[0]
    got = potentials._box_inv_r(np.array([a]), np.array([b]), np.array([c]))[0]
    assert got == pytest.approx(ref, abs=1e-12 * ref)
    # edges and faces of the cell: no nan from 0 * log 0 or 0 / 0
    edge = potentials._cell_mean(3, 0.1, np.array([[0.05, 0.05, 0.0], [0.05, 0.05, 0.05]]))
    assert np.all(np.isfinite(edge))
    # at the centre: minus the mean of 1/|x| over the unit cube, over h
    h = 0.1
    cube_mean = 6.0 * math.asinh(1.0 / math.sqrt(2.0)) - 0.5 * math.pi
    assert cube_mean == pytest.approx(2.3800773639795, rel=1e-13)
    assert potentials._cell_mean(3, h, np.zeros((1, 3)))[0] == pytest.approx(
        -cube_mean / h, rel=1e-14)


def test_grid_charge_potential_inside_a_cell_is_the_cell_potential():
    # one charged cell: the value anywhere in it is the uniform-cell potential
    h = 0.1
    grid = GridDomain(point(0.0, 0.0), h, np.ones((3, 3), bool))
    vals = np.zeros((3, 3))
    vals[1, 1] = 2.0
    pt = Potential(Measure(2, [GridDensity(grid, vals)]))
    off = np.array([[0.0, 0.0], [0.02, -0.03], [0.049, 0.049]])
    got = pt.evaluate_array(point(0.1, 0.1)[None, :] + off)
    assert got == pytest.approx(2.0 * potentials._cell_mean(2, h, off), rel=1e-14)
    assert got[0] == 2.0 * potentials._cell_mean(2, h, off[:1])[0]  # the exact hit


def test_mollified_jensen_potential_is_positive_at_seed_4():
    # the centre-value self-cell rule pushed the minimum below -pos_tol here
    x0 = point(0, 0)
    om = green.harmonic_measure(green.green_ball(x0, 0.6, x0), x0)
    beta = convolve_balayage(om, Mollifier(0.1 * (1.0 - 0.6), 2), Ball(x0, 1.0),
                             cells_per_radius=6)
    V = duality.to_potential(beta, x0, kind="jensen", D=Ball(x0, 1.6), seed=4)
    assert V.pole_coefficient == pytest.approx(1.0, abs=1e-3)


def test_jensen_certification_of_a_circle_at_seed_2():
    # the jittered inner probe ring lands at r = 0.9016, next to the 0.9 circle
    x0 = point(0, 0)
    om09 = green.harmonic_measure(green.green_ball(x0, 0.9, x0), x0)
    V = duality.to_potential(om09, x0, kind="jensen", seed=2)
    assert V.potential_kind == "jensen"


def test_kernel_integral_against_a_layer_is_exact():
    R = 0.9
    mu = Measure(2, [SphereUniform(point(0, 0), R, 1.0)])
    for y in (point(R * (1 + 1e-4), 0.0), point(0.0, R * (1 - 1e-4)), point(0.3, 0.2)):
        expect = math.log(max(float(np.linalg.norm(y)), R))
        assert integrate(mu, ScalarField.kernel(y)) == expect
        assert integrate(mu, ScalarField.kernel(y, -1.0)) == -expect
    ball = Measure(3, [BallUniform(point(0, 0, 0), 0.5, 2.0)])
    y3 = point(1.0, 0.0, 0.0)
    assert integrate(ball, ScalarField.kernel(y3)) == -2.0


# -- one-sweep atom merge against the rescanning loop -------------------------


def _merged_atoms_reference(charge):
    """Atom rows merged by rescanning every earlier one with np.array_equal, the
    rows that net to zero dropped."""
    merged = []
    for c in charge.components:
        if isinstance(c, Atoms):
            for point, weight in zip(c.points, c.weights):
                for k, (p, w) in enumerate(merged):
                    if np.array_equal(p, point):
                        merged[k] = (p, w + weight)
                        break
                else:
                    merged.append((point, weight))
    return [(p, w) for p, w in merged if w != 0.0]


def _merged_atoms(pt):
    """The merged atoms of a Potential: the rows of its first node cloud."""
    return list(zip(*pt._clouds[0]))


def _atom_bits(atoms):
    return [(p.tobytes(), np.float64(w).tobytes()) for p, w in atoms]


NAN = math.nan
ATOM_MERGE_CASES = {
    "signed-zero": [((0.0, 0.0), 1.0), ((-0.0, 0.0), 2.0), ((0.0, -0.0), -0.5),
                    ((-0.0, -0.0), 0.25)],
    "nan": [((NAN, 0.0), 1.0), ((NAN, 0.0), 1.0), ((0.0, NAN), 2.0), ((0.5, 0.0), 1.0)],
    "repeated": [((0.3, 0.1), 0.1), ((0.5, 0.5), 1.0), ((0.3, 0.1), 0.2), ((-0.2, 0.4), 3.0),
                 ((0.3, 0.1), 0.3), ((0.5, 0.5), -2.0)],
    "opposite": [((0.3, 0.1), 1.0), ((0.3, 0.1), -1.0), ((0.6, 0.2), -1.5),
                 ((0.6, 0.2), 1.5), ((0.6, 0.2), 2.0)],
    # coordinates from a few values, signed zeros and nan, so rows repeat often
    "random": [(x, w) for x, w in zip(
        np.array([0.0, -0.0, 0.5, math.nan])[np.random.default_rng(2).integers(0, 4, (40, 2))],
        np.random.default_rng(3).normal(size=40))],
}


@pytest.mark.parametrize("case", list(ATOM_MERGE_CASES))
def test_potential_atom_merge_matches_the_rescan(case):
    rows = ATOM_MERGE_CASES[case]
    atoms = [Atom(np.asarray(x, float), w) for x, w in rows]
    atoms.insert(2, atoms[0])  # the same component twice
    cloud = Atoms(np.array([x for x, _ in rows], float), [w for _, w in rows])
    for charge in (Measure(2, atoms + [SphereUniform((0.0, 0.0), 0.5, 1.0)]),
                   Measure(2, [atoms[0], cloud])):
        got, want = _merged_atoms(Potential(charge)), _merged_atoms_reference(charge)
        assert _atom_bits(got) == _atom_bits(want)  # the first point's bytes are kept


def test_potential_atom_merge_nets_opposite_weights():
    pt = Potential(Measure(2, [Atom(point(0.3, 0.1), 1.0), Atom(point(0.3, 0.1), -1.0),
                               Atom(point(0.6, 0.2), -1.0)]))
    assert pt(point(0.3, 0.1)) == pytest.approx(-math.log(math.hypot(0.3, 0.1)), rel=1e-14)
    assert pt(point(0.6, 0.2)) == math.inf


# the clip of an off-centre layer by a ball is one cloud of its kept clip nodes;
# rescanning every earlier atom took 77 s for its 5,822 atoms on a 2-core x86 box
CLIP = (BallUniform((0.1, 0.0), 0.4, 0.2), Ball(point(0, 0), 0.14))


def test_potential_of_a_clipped_layer_builds_in_one_sweep():
    import time

    from potkit.measures import restrict

    clipped = restrict(Measure(2, [CLIP[0]]), CLIP[1])
    (cloud,) = clipped.components
    assert len(cloud.weights) == 5822
    start = time.perf_counter()
    pt = Potential(clipped)
    assert time.perf_counter() - start < 5.0
    assert len(_merged_atoms(pt)) == 5822
    head = Measure(2, [Atoms(cloud.points[:300], cloud.weights[:300]),
                       Atoms(cloud.points[100:150], cloud.weights[100:150])])
    assert _atom_bits(_merged_atoms(Potential(head))) == _atom_bits(
        _merged_atoms_reference(head))
