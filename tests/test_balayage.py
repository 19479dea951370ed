import math

import numpy as np
import pytest

from potkit import balayage, green
from potkit.balayage import (TestFamily, build_test_family, check_affine, check_linear,
                             harmonic_kernel_family, lyons_example_pair,
                             standard_jensen_family)
from potkit.fields import ScalarField, check_subharmonic, random_probes
from potkit.geometry import Annulus, Ball, point
from potkit.measures import (Atom, BallUniform, Measure, Mollifier,
                             convolve_balayage, restrict, total_mass)


def delta(x=(0.0, 0.0), w=1.0):
    return Measure(len(x), [Atom(np.asarray(x, float), w)])


def _affine_off(theta, mu, fam, S_o):
    """check_affine of theta and mu restricted off S_o."""
    return check_affine(restrict(theta, S_o, complement=True),
                        restrict(mu, S_o, complement=True), fam)


def _om_disk(x=(0.0, 0.0), R=1.0):
    x = np.asarray(x, float)
    g = green.green_ball(point(0, 0), R, x)
    return green.harmonic_measure(g, x)


def test_check_linear_jensen_kernels():
    # delta_0 vs harmonic measure against a ring of subharmonic kernels
    om = _om_disk()
    ring = Ball(point(0, 0), 1.4).boundary_points(40)
    members = [(f"k[{j}]", ScalarField.kernel(y)) for j, y in enumerate(ring)]
    fam = TestFamily("subharmonic-kernels", members)
    verdict = check_linear(delta(), om, fam)
    assert verdict.passed
    assert verdict.worst_margin <= 1e-10


def test_check_linear_identity_measure():
    om = _om_disk()
    fam = standard_jensen_family(Ball(point(0, 0), 1.0))
    verdict = check_linear(om, om, fam)
    assert verdict.passed
    assert abs(verdict.worst_margin) <= 1e-14


def test_check_linear_lyons_contrast():
    theta, mu_E, pts = lyons_example_pair()
    S = Ball(point(0, 0), 0.75)
    fam_h = harmonic_kernel_family(S, Ball(point(0, 0), 1.2).boundary_points(20))
    assert check_linear(theta, mu_E, fam_h).passed

    members = [(f"k@atom[{j}]", ScalarField.kernel(e)) for j, e in enumerate(pts)]
    fam_s = TestFamily("subharmonic-kernels", members)
    verdict = check_linear(theta, mu_E, fam_s)
    assert not verdict.passed
    assert verdict.worst_margin == math.inf
    assert verdict.data["witness"].startswith("k@atom")


def test_symmetric_family_requires_equality():
    om = _om_disk()
    fam = harmonic_kernel_family(Ball(point(0, 0), 1.0),
                                 Ball(point(0, 0), 1.5).boundary_points(10))
    # delta_0 and its harmonic measure agree on all exterior kernels
    assert check_linear(delta(), om, fam).passed
    # distinct atoms are separated
    v = check_linear(delta(), delta((0.5, 0.0)), fam)
    assert not v.passed


def test_prop52_mass_relations():
    om = _om_disk()
    one = TestFamily("constants", [("1", ScalarField.constant(1.0))])
    both = TestFamily("constants", [("1", ScalarField.constant(1.0)),
                                    ("-1", ScalarField.constant(-1.0))])
    assert check_linear(delta(), om, one).passed  # theta(O) <= mu(O)
    assert check_linear(delta(), om, both).passed
    assert abs(total_mass(delta()) - total_mass(om)) <= 1e-9
    # subset monotonicity preserves a pass
    fam = standard_jensen_family(Ball(point(0, 0), 1.0))
    sub = TestFamily(fam.tag, fam.members[::3])
    assert check_linear(delta(), om, fam).passed
    assert check_linear(delta(), om, sub).passed


def test_prop56_convolution_closure():
    om = _om_disk(R=0.7)
    beta = convolve_balayage(om, Mollifier(0.1, 2), Ball(point(0, 0), 1.0))
    fam = standard_jensen_family(Ball(point(0, 0), 1.0))
    v_mu = check_linear(delta(), om, fam)
    v_beta = check_linear(delta(), beta, fam)
    assert v_beta.passed
    assert v_beta.worst_margin <= v_mu.worst_margin + 1e-6


def test_prop58_transfer_instance():
    # ball-average of delta_0 is swept by measures supported off its hull
    lam = Measure(2, [BallUniform(point(0, 0), 0.15, 1.0)])
    om = _om_disk()
    fam = standard_jensen_family(Ball(point(0, 0), 1.0))
    assert check_linear(lam, om, fam).passed


def test_prop510_polar_mass():
    _, mu_E, pts = lyons_example_pair()
    om = _om_disk()
    assert om.atom_mass_at(pts) <= 1e-9
    assert mu_E.atom_mass_at(pts) > 0


def test_check_affine_submeasure():
    om = _om_disk()
    half = om.scaled(0.5)
    fam = build_test_family("sbh00+", Ball(point(0, 0), 0.1), 0.05, -1.0, 1.0,
                            Ball(point(0, 0), 1.0), count=8)
    verdict = _affine_off(half, om, fam, Ball(point(0, 0), 0.1))
    assert verdict.passed
    assert verdict.data["C"] <= 1e-9  # positive family, sub-measure: C <= 0


def test_check_affine_criterium_instance():
    # u = ln|f|, f = z^2 - 1/4 on the unit disk, M constant: the zero sum is
    # bounded by 2 b_plus via the maximum principle
    b_plus = 1.0
    S_o = Ball(point(0, 0), 0.05)
    D = Ball(point(0, 0), 1.0)
    fam = build_test_family("sbh00+", S_o, 0.03, -1.0, b_plus, D, count=10)
    upsilon = delta((0.5, 0.0)) + delta((-0.5, 0.0))  # Riesz atoms of ln|f|
    mu_M = Measure(2, [])
    verdict = _affine_off(upsilon, mu_M, fam, S_o)
    assert verdict.passed
    assert verdict.data["C"] <= 2.0 * b_plus + 1e-9


def test_check_affine_divergence_flag():
    # a violating member scaled along an amplitude orbit must flag C = inf
    S_o = Ball(point(0, 0), 0.1)
    theta = delta((0.6, 0.0), 5.0)
    mu = Measure(2, [])
    base = ScalarField(lambda p: np.maximum(1.0 - np.linalg.norm(p - [0.6, 0.0], axis=1),
                                            0.0) ** 2)
    members = [(f"t={t}", ScalarField(lambda p, t=t: t * base.evaluate_array(p)))
               for t in (1.0, 2.0, 4.0, 8.0)]
    fam = TestFamily("scaled", members, orbits={"amplitude": [0, 1, 2, 3]})
    verdict = _affine_off(theta, mu, fam, S_o)
    assert not verdict.passed
    assert verdict.data["diverging_orbits"] == ["amplitude"]


def test_family_error_carries_member_id():
    from potkit.balayage import FamilyError
    from potkit.fields import DomainError

    class Broken(ScalarField):
        def __init__(self):
            super().__init__(lambda pts: (_ for _ in ()).throw(DomainError("off domain")))

    fam = TestFamily("probe", [("good", ScalarField.constant(1.0)), ("bad", Broken())])
    with pytest.raises(FamilyError) as err:
        check_linear(delta(), delta(), fam)
    assert err.value.member == "bad"


MU_POINT = point(0.5, 0.5)


def _member(on_theta, on_mu):
    """A plain member that is 0, nan (an indeterminate integral) or raises, by measure."""
    from potkit.fields import DomainError

    def ev(pts):
        kind = on_mu if np.any(np.all(pts == MU_POINT, axis=1)) else on_theta
        if kind == "raise":
            raise DomainError("off domain")
        return np.full(len(pts), np.nan if kind == "nan" else 0.0)

    return ScalarField(ev)


def test_rows_check_lhs_before_rhs():
    from potkit.balayage import FamilyError
    from potkit.fields import DomainError

    theta, mu = delta(), delta(MU_POINT)
    verdict = check_linear(theta, mu, TestFamily("t", [("a", _member("nan", "raise"))]))
    assert verdict.data["indeterminate"] == ["a"] and not verdict.passed
    with pytest.raises(FamilyError) as err:
        check_linear(theta, mu, TestFamily("t", [("b", _member("raise", "nan"))]))
    assert err.value.member == "b" and isinstance(err.value.__cause__, DomainError)


def test_first_failing_member_in_member_order_wins():
    from potkit.balayage import FamilyError

    members = [("good", _member("ok", "ok")), ("indeterminate", _member("nan", "raise")),
               ("rhs-bad", _member("ok", "raise")), ("lhs-bad", _member("raise", "ok"))]
    with pytest.raises(FamilyError) as err:
        check_linear(delta(), delta(MU_POINT), TestFamily("t", members))
    assert err.value.member == "rhs-bad"


def test_check_affine_indeterminate_verdict():
    # a grid measure against a member that is -inf on a positive-mass set
    # yields an indeterminate verdict rather than a made-up value
    from potkit.geometry import GridDomain
    from potkit.measures import GridDensity

    grid = GridDomain(point(0.3, 0.3), 0.05, np.ones((5, 5), bool))
    vals = np.full((5, 5), 0.04)
    mu = Measure(2, [GridDensity(grid, vals)])
    theta = delta((0.35, 0.35), 1.0) + delta((0.5, 0.5), -1.0)

    class MinusInfPatch(ScalarField):
        def __init__(self):
            super().__init__(self._ev)

        @staticmethod
        def _ev(pts):
            out = np.zeros(len(pts))
            out[np.linalg.norm(pts - [0.35, 0.35], axis=1) < 0.02] = -np.inf
            out[np.linalg.norm(pts - [0.5, 0.5], axis=1) < 0.02] = -np.inf
            return out

    fam = TestFamily("probe", [("patch", MinusInfPatch())])
    verdict = _affine_off(theta, mu, fam, Ball(point(-1, -1), 0.1))
    assert not verdict.passed
    assert verdict.data["indeterminate"] == ["patch"]


def test_harmonic_kernel_family_construction():
    S = Ball(point(0, 0), 1.0)
    fam = harmonic_kernel_family(S, Ball(point(0, 0), 1.5).boundary_points(40))
    assert len(fam.members) == 80 and fam.symmetric
    with pytest.raises(ValueError):
        harmonic_kernel_family(S, [point(0.5, 0)])


def test_build_test_family_classes():
    D = Ball(point(0, 0), 1.0)
    S_o = Ball(point(0, 0), 0.1)
    fam = build_test_family("sbh00+", S_o, 0.05, -1.0, 2.0, D, count=10)
    # the top ridge attains b_plus on the S_o boundary (radial equality)
    bnd = S_o.boundary_points(64)
    tops = [float(np.max(f.evaluate_array(bnd))) for _, f in fam.members]
    assert max(tops) == pytest.approx(2.0, rel=1e-9)
    # compact support: vanishing near the D boundary
    near = Ball(point(0, 0), 0.99).boundary_points(32)
    for _, f in fam.members:
        assert np.max(np.abs(f.evaluate_array(near))) <= 1e-12

    fam2 = build_test_family("sbh00", S_o, 0.05, -1.0, 2.0, D, count=10)
    lyons = [f for n, f in fam2.members if n.startswith("lyons")]
    assert lyons and np.min(lyons[0].evaluate_array(lyons[0].defect_centers)) < 0

    with pytest.raises(ValueError):
        build_test_family("sbh00+", Ball(point(0, 0), 0.5), 0.2, -1.0, 1.0, D)
    # the boundary of S_o falls on its center, where the Green function is +inf
    with pytest.raises(ValueError, match="not finite"):
        build_test_family("sbh00+", Ball(point(0, 0), 1e-300), 0.05, -1.0, 1.0, D)
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError, match="not finite"):
            balayage._ridge_member(fam.members[0][1], 0.5, t)


def test_family_members_subharmonic_probes():
    D = Ball(point(0, 0), 1.0)
    S_o = Ball(point(0, 0), 0.1)
    fam = build_test_family("sbh00", S_o, 0.05, -1.0, 2.0, D, count=8, seed=2)
    probes = [(x, min(r, 0.5 * (np.linalg.norm(x) - 0.105),
                      0.95 - np.linalg.norm(x)))
              for x, r in random_probes(Annulus(point(0, 0), 0.12, 0.94), 60, seed=3)]
    probes = [(x, r) for x, r in probes if r > 0.004]
    for name, f in fam.members:
        assert check_subharmonic(f, probes, tol=1e-6).passed, name


def test_prop84_limit_structure():
    # the deepening ridge sequence is pointwise nondecreasing and bounded by
    # b_plus + B g_D
    D = Ball(point(0, 0), 1.0)
    S_o = Ball(point(0, 0), 0.1)
    r, b_minus, b_plus = 0.05, -1.0, 2.0
    fam = build_test_family("sbh00+", S_o, r, b_minus, b_plus, D, count=12)
    idxs = fam.orbits["deepening"]
    gm = green.green_ball(point(0, 0), 1.0, point(0, 0))
    B = 2.0 * (b_plus - b_minus) / green.mg_constant(gm, S_o)
    rng = np.random.default_rng(9)
    pts = []
    while len(pts) < 200:
        x = rng.uniform(-0.95, 0.95, 2)
        if 0.11 < np.linalg.norm(x) < 0.95:
            pts.append(x)
    pts = np.array(pts)
    prev = None
    cap = b_plus + B * gm.evaluate_array(pts)
    for i in idxs:
        vals = fam.members[i][1].evaluate_array(pts)
        if prev is not None:
            assert np.min(vals - prev) >= -1e-12
        assert np.max(vals - cap) <= 1e-9
        prev = vals


# ---------------------------------------------------------------------------
# sbh+0o sphere-mean validation against the per-sphere loop it replaced


def _sphere_average_reference(v, x, r, n):
    """fields.sphere_average as it was: one evaluation and one dot per sphere."""
    from potkit import quadrature
    from potkit.fields import DomainError

    nodes, w = quadrature.sphere_rule(x.size, n)
    pts = x[None, :] + r * nodes
    if v.domain is not None and not np.all(v.domain.contains_array(pts)):
        raise DomainError("probe sphere leaves the field's domain")
    vals = v.evaluate_array(pts)
    if np.any(np.isneginf(vals)):
        return -math.inf
    return float(np.dot(w, vals))


def _validate_family_reference(family, D, tag):
    """balayage._validate_family as it was: mid resampled and one sphere average per
    sphere for every sbh+0o member."""
    from potkit.balayage import VALIDATE_TOL, _ring_samples

    tol = VALIDATE_TOL
    S_o, r, b_minus, b_plus = family.S_o, family.r, family.b_minus, family.b_plus
    bnd = S_o.boundary_points(128)
    ring = _ring_samples(S_o, 3 * r, 128, seed=1)
    near_boundary = Ball(D.center, 0.995 * D.radius).boundary_points(64)
    for name, f in family.members:
        vb = f.evaluate_array(bnd)
        if np.max(vb) > b_plus + tol * (1 + abs(b_plus)):
            raise ValueError(f"member {name} exceeds b_plus on the S_o boundary")
        vr = f.evaluate_array(ring)
        if tag in {"sbh00", "sbh+0"}:
            if np.min(vr) < b_minus - tol * (1 + abs(b_minus)):
                raise ValueError(f"member {name} drops below b_minus on the 3r ring")
        elif tag == "sbh+0o":
            mid = _ring_samples(Ball(S_o.center, S_o.radius + r), r, 32, seed=2)
            for x in mid:
                if _sphere_average_reference(f, x, r, 512) < b_minus - tol * (1 + abs(b_minus)):
                    raise ValueError(f"member {name} sphere-average drops below b_minus")
        vnb = f.evaluate_array(near_boundary)
        if tag == "sbh00+" and np.max(np.abs(vnb)) > tol:
            raise ValueError(f"member {name} fails compact support near the D boundary")
        if tag in {"sbh00", "sbh+0", "sbh+0o"} and np.min(vnb) < -1e-5:
            raise ValueError(f"member {name} is negative near the D boundary")


def _outcome(fn, *args):
    """None, or the type and message of what fn(*args) raises."""
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


DISK = Ball(point(0, 0), 1.0)
CORE, R = Ball(point(0, 0), 0.05), 0.03


def _mid():
    from potkit.balayage import _ring_samples

    return _ring_samples(Ball(CORE.center, CORE.radius + R), R, 32, seed=2)


def _node(j):
    """Node 0 of validation sphere j, bit for bit as the validation builds it."""
    from potkit import quadrature

    return _mid()[j] + R * quadrature.sphere_rule(2, 512)[0][0]


def _well(j):
    """0 except depth 5000 at one node of sphere j: that sphere's mean is about -9.8."""
    c = _node(j)
    return ScalarField(lambda pts: np.where(np.all(pts == c, axis=1), -5000.0, 0.0))


class _Punctured:
    """Every point but one: the domain of a member that leaves it at one sphere.
    It proves no sphere inside it, so every sphere takes the node test."""

    def __init__(self, c):
        self.c = c

    def holds(self, x, r):
        return False

    def contains_array(self, pts):
        return ~np.all(np.atleast_2d(pts) == self.c, axis=1)


def _leaves_at(k, member):
    """member, with a domain that sphere k (and no other sphere) leaves."""
    return ScalarField(member.evaluate_array, domain=_Punctured(_node(k)))


def _sbh0o(*members):
    return TestFamily("sbh+0o", list(members), S_o=CORE, r=R, b_minus=-1.0, b_plus=3.5)


ZERO = ScalarField.constant(0.0)
ADVERSE_FAMILIES = {
    "passes": _sbh0o(("zero", ZERO)),
    "bound-at-5": _sbh0o(("zero", ZERO), ("well", _well(5))),
    "minus-inf-at-3": _sbh0o(("log", ScalarField.log_distance(_node(3), 0.1))),
    "domain-at-4": _sbh0o(("punctured", _leaves_at(4, ZERO))),
    "bound-at-2-before-domain-at-6": _sbh0o(("both", _leaves_at(6, _well(2)))),
    "domain-at-2-before-bound-at-6": _sbh0o(("both", _leaves_at(2, _well(6)))),
    "first-member-wins": _sbh0o(("zero", ZERO), ("late", _well(7)), ("early", _well(1))),
}


@pytest.mark.parametrize("case", sorted(ADVERSE_FAMILIES))
def test_sbh0o_validation_matches_per_sphere_reference(case):
    from potkit.balayage import _validate_family

    family = ADVERSE_FAMILIES[case]
    got = _outcome(_validate_family, family, DISK, "sbh+0o")
    assert got == _outcome(_validate_family_reference, family, DISK, "sbh+0o")
    expected = {"passes": None, "domain-at-4": "DomainError",
                "domain-at-2-before-bound-at-6": "DomainError"}.get(case, "ValueError")
    assert (got and got[0].__name__) == expected
    if expected == "ValueError":
        assert got[1].endswith("sphere-average drops below b_minus")
    if case == "first-member-wins":
        assert got[1].startswith("member late ")


@pytest.mark.parametrize("case", ["bound-at-5", "minus-inf-at-3"])
def test_sbh0o_adverse_members_fail_at_a_later_sphere(case):
    # the failing sphere is not the first one, so the batched path must scan in order
    _, member = ADVERSE_FAMILIES[case].members[-1]
    means = [_sphere_average_reference(member, x, R, 512) for x in _mid()]
    first = next(k for k, m in enumerate(means) if m < -1.0)
    assert first == {"bound-at-5": 5, "minus-inf-at-3": 3}[case]
    assert case != "minus-inf-at-3" or means[first] == -math.inf


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("b_plus", [1.0, 3.5])  # the polynomial and Blaschke presets
def test_sphere_averages_match_per_sphere_reference(seed, b_plus):
    from potkit.balayage import _validate_family
    from potkit.fields import sphere_averages

    family = build_test_family("sbh+0o", CORE, R, -1.0, b_plus, DISK, seed=seed)
    assert _outcome(_validate_family_reference, family, DISK, "sbh+0o") is None
    mid = _mid()
    for _, f in family.members:
        got = list(sphere_averages(f, mid, R, 512))
        assert got == [_sphere_average_reference(f, x, R, 512) for x in mid]
    assert _validate_family(family, DISK, "sbh+0o") is None
    for domain in (None, DISK):  # no centres, no means, with or without a domain
        assert list(sphere_averages(ScalarField.constant(1.0, domain), mid[:0], R, None)) == []


# ---------------------------------------------------------------------------
# one member set for several classes, and ridges sharing their Green values


def _validation_sets(S_o, r, D):
    """The point sets _validate_family evaluates members on, as it builds them."""
    from potkit import quadrature
    from potkit.balayage import _ring_samples

    mid = _ring_samples(Ball(S_o.center, S_o.radius + r), r, 32, seed=2)
    spheres = (mid[:, None, :] + r * quadrature.sphere_rule(2, 512)[0]).reshape(-1, 2)
    return [S_o.boundary_points(128), _ring_samples(S_o, 3 * r, 128, seed=1),
            Ball(D.center, 0.995 * D.radius).boundary_points(64), spheres]


def test_members_share_one_base_evaluation_bitwise(monkeypatch):
    from potkit.green import GreenModel
    from potkit.measures import SphereUniform, _FieldValues, _atoms, integrate_many

    calls = []  # GreenModel binds its evaluator when built: count from before the build
    evaluate = GreenModel._evaluate
    monkeypatch.setattr(GreenModel, "_evaluate", lambda g, p: calls.append(1) or evaluate(g, p))
    family = build_test_family(("sbh+0o", "sbh+0", "sbh00"), CORE, R, -1.0, 3.5, DISK)
    # the sup on the S_o boundary, then one evaluation per validation point set
    assert len(calls) == 5
    fields = [f for _, f in family.members]
    # 16 ridges on one Green field, then 2 Lyons members on one potential
    bases = [f.base[0] for f in fields]
    assert len(fields) == 18 and all(b is bases[0] for b in bases[:16])
    assert bases[16] is bases[17] and bases[16] is not bases[0]

    calls.clear()
    values, sets = _FieldValues(), _validation_sets(CORE, R, DISK)
    shared = [[values(f, pts) for f in fields] for pts in sets]
    shared += [[values(f, pts.copy()) for f in fields] for pts in sets]  # equal points
    assert len(calls) == len(sets)
    for pts, row in zip(sets + sets, shared):
        for f, v in zip(fields, row):
            assert v.tobytes() == f.evaluate_array(pts).tobytes()

    rng = np.random.default_rng(0)
    mu = Measure(2, _atoms(rng.uniform(-0.6, 0.6, size=(30, 2)), rng.uniform(0.5, 2.0, 30))
                 + [SphereUniform(point(0.1, 0.0), 0.4, 1.5), BallUniform(point(0, 0.2), 0.3, -0.7)])
    calls.clear()
    got = integrate_many(mu, fields)
    assert len(calls) == len(mu.components)  # one Green evaluation per node cloud
    own = integrate_many(mu, [ScalarField(f.evaluate_array) for f in fields])  # no base
    assert got == own and all(isinstance(v, float) for v in got)


def _classwise_outcome(family, *tags):
    """What validating the classes one at a time, in order, raises first."""
    from potkit.balayage import _validate_family

    return next(filter(None, (_outcome(_validate_family, family, DISK, t) for t in tags)),
                None)


LOW = ScalarField.constant(-2.0)  # below b_minus on the ring and on every sphere
CLASS_ORDER_FAMILIES = {
    "low": _sbh0o(("low", LOW)),
    "well-then-low": _sbh0o(("well", _well(5)), ("low", LOW)),
    "domain-then-low": _sbh0o(("punctured", _leaves_at(4, ZERO)), ("low", LOW)),
    "passes": _sbh0o(("zero", ZERO)),
}


@pytest.mark.parametrize("tags", [("sbh+0o", "sbh+0"), ("sbh+0", "sbh+0o"),
                                  ("sbh+0", "sbh00", "sbh+0o")])
@pytest.mark.parametrize("case", sorted(CLASS_ORDER_FAMILIES))
def test_one_validation_of_several_classes_raises_what_classwise_ones_do(case, tags):
    from potkit.balayage import _validate_family

    family = CLASS_ORDER_FAMILIES[case]
    got = _outcome(_validate_family, family, DISK, *tags)
    assert got == _classwise_outcome(family, *tags)
    assert (got is None) == (case == "passes")


def test_build_test_family_takes_only_classes_of_one_member_set():
    fam = build_test_family(("sbh+0o", "sbh00"), CORE, R, -1.0, 3.5, DISK)
    assert fam.tag == "sbh+0o" and sum(n.startswith("lyons") for n, _ in fam.members) == 2
    for tags in (("sbh00+", "sbh00"), ("sbh+0", "harmonic-kernels")):
        with pytest.raises(ValueError, match="do not share one member set"):
            build_test_family(tags, CORE, R, -1.0, 3.5, DISK)
    with pytest.raises(ValueError, match="unknown class tag 'nope'"):
        build_test_family(("sbh+0", "nope"), CORE, R, -1.0, 3.5, DISK)
