"""Linear and affine balayage checks over finite families of test functions.

Finite families stand in for the uncountable classes, so every verdict is a
sampled verdict (a necessary-condition check) and is labeled as such in
reports.  Margins are integral differences; linear comparisons use the
scale-free tolerance tol = tol_scale * (1 + |lhs| + |rhs|).

A Jensen (Arens-Singer) measure of x sweeps delta_x over subharmonic
(harmonic) test functions; `certify` is the one place that checks this, and
it raises `CertificationError`.  The Jensen constructors end with it.

Divergence (an infinite affine constant) is probed through member "orbits":
ordered subfamilies of growing amplitude or depth whose margins must not
keep increasing without decay.

The class families of `build_test_family` are Green ridges t * max(g - c, 0),
plus two Lyons members s * u for the classes with a lower bound, all built by
``ScalarField.pointwise`` on one g and one u: validation and
``measures.integrate_many`` evaluate g and u once per point cloud.  The
classes in LYONS_CLASS_TAGS share one member set, which one call builds and
validates against each of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .fields import ScalarField, sphere_averages
from .geometry import Ball, _distance
from .green import green_ball, harmonic_measure
from .measures import (Atom, BallUniform, IndeterminateIntegral, Measure, Mollifier,
                       SphereUniform, _atoms, _FieldValues, convolve_balayage,
                       integrate_many)
from .potentials import Potential
from .verdict import Row, Verdict

__all__ = [
    "TestFamily",
    "check_linear",
    "check_affine",
    "harmonic_kernel_family",
    "build_test_family",
    "standard_jensen_family",
    "CertificationError",
    "certify",
    "jensen_measure_family",
    "lyons_example_pair",
]

DIVERGENCE_FLOOR = 1e-6  # orbit margins and increments up to this count as decayed
JENSEN_RING = 16  # kernels on each ring of standard_jensen_family
AS_RING = 24  # kernel poles of the Arens-Singer certification ring, at 1.3 D.radius
LYONS_DEFECTS = 4  # wells of each Lyons member of build_test_family
VALIDATE_TOL = 1e-7  # relative slack of its class-constraint re-validation
# class tags build_test_family knows; scenario families are checked against them
TEST_CLASS_TAGS = ("sbh00+", "sbh00", "sbh+0", "sbh+0o", "harmonic-kernels",
                   "harmonic-polynomials")
# the classes whose families add Lyons members to the ridges: one member set for all
LYONS_CLASS_TAGS = ("sbh00", "sbh+0", "sbh+0o")
# lyons_example_pair: theta on r0 B; mu_E on r B, punched around n ring atoms
LYONS_R0, LYONS_R, LYONS_ATOMS, LYONS_DEFECT_RADIUS = 0.35, 0.7, 5, 0.15


@dataclass
class TestFamily:
    """Finite, enumerable family of test functions with its class parameters."""

    __test__ = False  # not a pytest class, despite the name

    tag: str
    members: list  # (name, ScalarField) pairs
    S_o: Ball | None = None
    r: float | None = None
    b_minus: float | None = None
    b_plus: float | None = None
    symmetric: bool = False  # H = -H: balayage margins become equalities
    orbits: dict = field(default_factory=dict)  # orbit name -> ordered member indices


class CertificationError(ValueError):
    """A measure that does not sweep theta over its kind's certification family."""


class FamilyError(ValueError):
    """A member could not be evaluated; carries the member id."""

    def __init__(self, member: str, cause: Exception):
        super().__init__(f"family member {member!r} failed: {cause}")
        self.member = member


def pair_tol(lhs: float, rhs: float, tol_scale: float = 1e-7) -> float:
    finite = [abs(v) for v in (lhs, rhs) if math.isfinite(v)]
    return tol_scale * (1.0 + sum(finite))


def _margin(lhs: float, rhs: float) -> float:
    if lhs == rhs and math.isinf(lhs):
        return 0.0  # -inf <= -inf holds in the extended order
    return lhs - rhs


def _evaluate_rows(theta: Measure, mu: Measure, family: TestFamily):
    """(member, lhs, rhs, margin) in member order, and the members whose integral is
    indeterminate (nan lhs, rhs and margin); any other failure raises FamilyError."""
    fields = [h for _, h in family.members]
    pairs = zip(integrate_many(theta, fields), integrate_many(mu, fields))
    values, indeterminate = [], []
    for (name, _), (lhs, rhs) in zip(family.members, pairs):
        # member order, lhs before rhs: the first failure decides the row
        failure = next((v for v in (lhs, rhs) if isinstance(v, Exception)), None)
        if isinstance(failure, IndeterminateIntegral):
            indeterminate.append(name)
            lhs = rhs = math.nan
        elif failure is not None:
            raise FamilyError(name, failure) from failure
        values.append((name, lhs, rhs, _margin(lhs, rhs)))
    return values, indeterminate


def _verdict(relation: str, passed: bool, rows: list, witness: str | None,
             constant: float | None = None, diverging: list = (),
             indeterminate: list = ()) -> Verdict:
    verdict = Verdict(relation, passed, rows)
    verdict.data = {"relation": relation, "semantics": "sampled verdict",
                    "worst_margin": verdict.worst_margin, "witness": witness, "C": constant,
                    "diverging_orbits": list(diverging), "indeterminate": list(indeterminate),
                    "margins": {r.member: r.margin for r in rows}}
    return verdict


def check_linear(theta: Measure, mu: Measure, family: TestFamily,
                 tol_scale: float = 1e-7) -> Verdict:
    """Sampled check of: integral of h against theta <= against mu, for every member.

    Symmetric families (H = -H) are held to equality within tolerance.
    """
    values, indeterminate = _evaluate_rows(theta, mu, family)
    rows = []
    for name, lhs, rhs, m in values:  # an indeterminate row fails with tol 0.0
        tol = 0.0 if math.isnan(m) else pair_tol(lhs, rhs, tol_scale)
        ok = abs(m) <= tol if family.symmetric else m <= tol
        rows.append(Row(name, lhs, rhs, m, bool(ok), tol))
    witness = None
    failed = [r for r in rows if not r.passed]
    if failed:
        # deterministic reduction: worst margin, lowest index wins ties
        witness = max(failed, key=lambda r: (0 if math.isnan(r.margin) else r.margin)).member
    return _verdict("linear", not failed and not indeterminate, rows, witness,
                    indeterminate=indeterminate)


def check_affine(theta_out: Measure, mu_out: Measure, family: TestFamily) -> Verdict:
    """Affine balayage outside S_o of charges the caller restricted off S_o
    (``restrict(x, S_o, complement=True)``; restricting a layer again would move
    last bits): report C = max finite member margin and probe the orbits.

    Fails on a +inf margin (no C exists for the sampled family), on an
    indeterminate row, or on an orbit with non-decaying growth.  A row passes
    when its margin is below +inf and not nan, with no tolerance (tol 0.0).  C
    is nan when no margin is finite, and is the constant for this family only.
    """
    values, indeterminate = _evaluate_rows(theta_out, mu_out, family)
    rows = [Row(n, lhs, rhs, m, m < math.inf) for n, lhs, rhs, m in values]  # nan fails
    finite_margins = [r.margin for r in rows if math.isfinite(r.margin)]
    constant = max(finite_margins) if finite_margins else math.nan
    has_infinite = any(r.margin == math.inf for r in rows)

    diverging = []
    for orbit_name, idxs in family.orbits.items():
        seq = [rows[i].margin for i in idxs]
        if _orbit_diverges(seq):
            diverging.append(orbit_name)

    passed = not has_infinite and not indeterminate and not diverging
    witness = None
    if has_infinite:
        witness = next(r.member for r in rows if r.margin == math.inf)
    elif diverging:
        witness = diverging[0]
    elif rows:
        witness = max(rows,
                      key=lambda r: (-math.inf if math.isnan(r.margin) else r.margin)).member
    return _verdict("affine", passed, rows, witness, constant, diverging, indeterminate)


def _orbit_diverges(margins: list) -> bool:
    """Non-decaying increasing margins along an ordered orbit mean C = infinity."""
    if any(m == math.inf for m in margins):
        return True
    seq = [m for m in margins if math.isfinite(m)]
    if len(seq) < 3 or seq[-1] <= DIVERGENCE_FLOOR:
        return False
    inc = np.diff(seq)
    if not np.all(inc[-2:] > 0):
        return False
    last, peak = inc[-1], float(np.max(inc))
    return bool(last > 0.5 * peak and last > DIVERGENCE_FLOOR)


# ---------------------------------------------------------------------------
# family constructors


def harmonic_kernel_family(S: Ball, probe_points) -> TestFamily:
    """Paired +-kernels centered outside clos S; symmetric, so margins are equalities."""
    probe_points = np.atleast_2d(np.asarray(probe_points, dtype=float))
    members = []
    for j, y in enumerate(probe_points):
        if S.closure_contains(y):
            raise ValueError(f"probe point {y} lies in clos S")
        members.append((f"k+[{j}]", ScalarField.kernel(y, +1.0)))
        members.append((f"k-[{j}]", ScalarField.kernel(y, -1.0)))
    return TestFamily("harmonic-kernels", members, symmetric=True)


def standard_jensen_family(D: Ball, seed: int = 0) -> TestFamily:
    """Subharmonic probe family certifying Jensen measures of points in D.

    Kernels centered on a ring outside D (harmonic near D), on an interior
    ring (genuinely subharmonic probes), plus the constants +-1 pinning the
    mass.
    """
    members = []
    outer = Ball(D.center, 1.25 * D.radius).boundary_points(JENSEN_RING)
    rng = quadrature.rng_for(seed, "jensen-family-jitter")
    inner_radius = 0.55 * D.radius + 0.2 * D.radius * rng.random()
    inner = Ball(D.center, inner_radius).boundary_points(JENSEN_RING)
    for j, y in enumerate(outer):
        members.append((f"k-out[{j}]", ScalarField.kernel(y)))
    for j, y in enumerate(inner):
        members.append((f"k-in[{j}]", ScalarField.kernel(y)))
    members.append(("const+1", ScalarField.constant(1.0)))
    members.append(("const-1", ScalarField.constant(-1.0)))
    return TestFamily("subharmonic-kernels", members)


def certify(theta: Measure, mu: Measure, kind: str, D: Ball, seed: int = 0) -> Verdict:
    """Certify mu as a sweep of theta on D: the linear check over the standard
    family of its kind, raising CertificationError when it fails.

    kind 'jensen': `standard_jensen_family(D, seed)` (subharmonic probes).
    kind 'arens-singer': +-kernels on AS_RING points of the sphere of radius
    1.3 D.radius (harmonic probes, held to equality).
    """
    if kind == "jensen":
        family = standard_jensen_family(D, seed=seed)
    elif kind == "arens-singer":
        ring = Ball(D.center, 1.3 * D.radius).boundary_points(AS_RING)
        family = harmonic_kernel_family(D, ring)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    verdict = check_linear(theta, mu, family)
    if not verdict.passed:
        raise CertificationError(
            f"{family.tag} certification failed (witness {verdict.data['witness']}, "
            f"margin {verdict.worst_margin:.3g})")
    return verdict


def jensen_measure_family(D: Ball, x, kind: str, *, a: float = 0.0, b: float = 1.0,
                          r: float = 0.3, sub_balls: list | None = None,
                          seed: int = 0) -> Measure:
    """Construct a Jensen measure for x in D of the requested kind.

    kind 'mixture': a*delta_x + b*omega_D(x, .) with a+b = 1, a, b >= 0.
    kind 'mollified': the radial bump alpha_r (orthogonally invariant).
    kind 'sub-balls': sum of b_k * omega_{D_k}(x, .) over sub-balls of D.

    The output is certified (`certify` of kind 'jensen' on D); a certification
    failure raises CertificationError.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    delta = Measure(d, [Atom(x, 1.0)])
    if kind == "mixture":
        if a < 0 or b < 0 or abs(a + b - 1.0) > 1e-12:
            raise ValueError("mixture weights must satisfy a, b >= 0 and a + b = 1")
        parts = []
        if a > 0:
            parts.append(Atom(x, a))
        if b > 0:
            green = green_ball(D.center, D.radius, x)
            parts.extend(harmonic_measure(green, x).scaled(b).components)
        mu = Measure(d, parts)
    elif kind == "mollified":
        if not D.contains(x, margin=r):
            raise ValueError("mollifier ball must stay inside D")
        mu = convolve_balayage(delta, Mollifier(r, d), Ball(D.center, D.radius))
    elif kind == "sub-balls":
        if not sub_balls:
            raise ValueError("sub-balls kind needs a list of (Ball, weight)")
        total = sum(w for _, w in sub_balls)
        if abs(total - 1.0) > 1e-12 or any(w < 0 for _, w in sub_balls):
            raise ValueError("sub-ball weights must be positive and sum to 1")
        parts = []
        for ball, w in sub_balls:
            if not ball.contains(x):
                raise ValueError("every sub-ball must contain x")
            green = green_ball(ball.center, ball.radius, x)
            parts.extend(harmonic_measure(green, x).scaled(w).components)
        mu = Measure(d, parts)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    certify(delta, mu, "jensen", D, seed)
    return mu


def _ridge_member(green_field, c: float, t: float) -> ScalarField:
    """t * max(g - c, 0): subharmonic off the pole, supported where g >= c; a scale
    t that is not finite raises ValueError.  Ridges on one g share its evaluation
    (``ScalarField.pointwise``)."""
    if not math.isfinite(t):
        raise ValueError(f"ridge scale t = {t!r} at level c = {c!r} is not finite")
    return ScalarField.pointwise(green_field, lambda g: t * np.maximum(g - c, 0.0))


def build_test_family(tag: str | tuple, S_o: Ball, r: float, b_minus: float,
                      b_plus: float, D: Ball, count: int = 16, seed: int = 0) -> TestFamily:
    """Generate a finite family from one of the test-function classes.

    Positive members are scaled truncated Green ridges t * max(g_D(., o) - c, 0)
    with o the center of S_o; classes with a lower bound b_minus also get
    sign-varying members built from Lyons-type potentials (a harmonic bump
    subtracted from a swept potential).  Every member is re-validated against
    the class constraints on sampled points before inclusion.

    `tag` may be a tuple of the classes in ``LYONS_CLASS_TAGS``, which share one
    member set: the members are built once and validated against each class in
    turn, and the family, tagged with the first, serves for all of them.
    """
    tags = (tag,) if isinstance(tag, str) else tuple(tag)
    tag = tags[0]
    if not (0 < 3 * r < dist_to_boundary(S_o, D)):
        raise ValueError("need 0 < 3r < dist(S_o, boundary of D)")
    for t in tags:
        if t not in TEST_CLASS_TAGS:
            raise ValueError(f"unknown class tag {t!r}")
    if len(tags) > 1 and not set(tags) <= set(LYONS_CLASS_TAGS):
        raise ValueError(f"class tags {tags!r} do not share one member set")
    if tag == "harmonic-kernels":
        ring = Ball(D.center, 1.5 * D.radius).boundary_points(count)
        return harmonic_kernel_family(D, ring)
    if tag == "harmonic-polynomials":
        return _harmonic_polynomial_family(D.dimension, count)
    if not (b_minus < 0 < b_plus):
        raise ValueError("need b_minus < 0 < b_plus")

    o = S_o.center
    green = green_ball(D.center, D.radius, o)
    g_sup_boundary = float(np.max(green.evaluate_array(S_o.boundary_points(256))))
    if not math.isfinite(g_sup_boundary):  # the boundary of S_o falls on the pole o
        raise ValueError(f"sup of the Green function on the boundary of S_o is "
                         f"{g_sup_boundary!r}, not finite")

    members = []
    deepening = []
    n_levels = max(4, count // 2)
    cs = g_sup_boundary * 2.0 ** (-np.arange(1, n_levels + 1))
    for j, c in enumerate(cs):
        t = b_plus / (g_sup_boundary - c)
        members.append((f"ridge[c={c:.4g}]", _ridge_member(green, float(c), float(t))))
        deepening.append(len(members) - 1)
    # half-amplitude copies for variety
    for j, c in enumerate(cs[: max(2, count - n_levels)]):
        t = 0.5 * b_plus / (g_sup_boundary - c)
        members.append((f"ridge-half[c={c:.4g}]", _ridge_member(green, float(c), float(t))))

    if tag in LYONS_CLASS_TAGS:
        members.extend(_lyons_members(S_o, r, b_minus, b_plus, D, seed))

    family = TestFamily(tag, members, S_o=S_o, r=r, b_minus=b_minus, b_plus=b_plus,
                        orbits={"deepening": deepening})
    _validate_family(family, D, *tags)
    return family


def dist_to_boundary(S_o: Ball, D: Ball) -> float:
    return D.radius - (float(np.linalg.norm(S_o.center - D.center)) + S_o.radius)


def _harmonic_polynomial_family(d: int, count: int) -> TestFamily:
    members = []

    def add(name, fn):
        members.append((name + "+", ScalarField(fn)))
        members.append((name + "-", ScalarField(lambda pts, f=fn: -f(pts))))

    add("1", lambda pts: np.ones(len(pts)))
    for k in range(d):
        add(f"x{k}", lambda pts, k=k: pts[:, k])
    if d == 2:
        add("re z^2", lambda pts: pts[:, 0] ** 2 - pts[:, 1] ** 2)
        add("im z^2", lambda pts: 2.0 * pts[:, 0] * pts[:, 1])
        add("re z^3", lambda pts: pts[:, 0] ** 3 - 3 * pts[:, 0] * pts[:, 1] ** 2)
        add("im z^3", lambda pts: 3 * pts[:, 0] ** 2 * pts[:, 1] - pts[:, 1] ** 3)
    else:
        add("x0x1", lambda pts: pts[:, 0] * pts[:, 1])
        add("x0^2-x1^2", lambda pts: pts[:, 0] ** 2 - pts[:, 1] ** 2)
        add("x0^2-x2^2", lambda pts: pts[:, 0] ** 2 - pts[:, 2] ** 2)
    return TestFamily("harmonic-polynomials", members[: 2 * count] if count else members,
                      symmetric=True)


def _lyons_members(S_o: Ball, r: float, b_minus: float, b_plus: float, D: Ball,
                   seed: int) -> list:
    """Sign-varying members: potentials of a Lyons-type har-balayage defect pair.

    theta sits inside S_o (its potential is the subtracted harmonic bump on
    D \\ S_o); the sweep mass defect is carried by small spheres replacing
    punched balls of the base Lebesgue layer, producing finite negative
    wells while keeping exact compact support.
    """
    d = S_o.dimension
    o = S_o.center
    rho_big = float(np.linalg.norm(S_o.center - D.center)) + S_o.radius + 3 * r \
        + 0.5 * (dist_to_boundary(S_o, D) - 3 * r)
    rho_big = min(rho_big, 0.95 * D.radius)
    # defects hug the outer support sphere, where the swept background
    # vanishes quadratically; tiny replacement spheres dig genuine wells
    defect_r = 0.1 * rho_big
    ring_radius = rho_big - 1.5 * defect_r
    rng = quadrature.rng_for(seed, "lyons-defects")
    angles = 2.0 * math.pi * (np.arange(LYONS_DEFECTS) + rng.random()) / LYONS_DEFECTS
    if d == 2:
        centers = o[None, :] + ring_radius * np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        nodes = quadrature.sphere_spiral_nodes(LYONS_DEFECTS)
        centers = o[None, :] + ring_radius * nodes

    theta = Measure(d, [BallUniform(o, 0.5 * S_o.radius, 1.0)])
    base = [BallUniform(o, rho_big, 1.0)]
    for e in centers:
        m = 0.9 * (defect_r / rho_big) ** d  # stay under the base density
        base.append(BallUniform(e, defect_r, -m))
        base.append(SphereUniform(e, defect_r / 256.0, m))
    mu_e = Measure(d, base)
    raw = Potential(mu_e - theta)

    # scale into the class box: <= b_plus on the S_o boundary, >= b_minus on the ring
    bnd = S_o.boundary_points(128)
    ring_pts = _ring_samples(S_o, 3 * r, 256, seed)
    vals_bnd = raw.evaluate_array(bnd)
    vals_ring = raw.evaluate_array(ring_pts)
    s_cap = math.inf
    top = float(np.max(vals_bnd))
    bottom = float(np.min(np.concatenate([vals_ring, vals_bnd])))
    if top > 0:
        s_cap = min(s_cap, b_plus / top)
    if bottom < 0:
        s_cap = min(s_cap, b_minus / bottom)  # both negative: positive ratio
    s = 1.0 if not math.isfinite(s_cap) else 0.9 * s_cap
    out = []
    for k, frac in enumerate((1.0, 0.5)):
        sk = s * frac
        member = ScalarField.pointwise(raw, lambda v, sk=sk: sk * v)
        member.defect_centers = centers  # the wells live here (sign variation)
        out.append((f"lyons[{k}]", member))
    return out


def _ring_samples(S_o: Ball, width: float, n: int, seed: int) -> np.ndarray:
    """Sample points of (S_o dilated by width) minus S_o."""
    def in_ring(pts):
        rho = _distance(pts, S_o.center)
        return (S_o.radius < rho) & (rho < S_o.radius + width)

    return quadrature.sample_in(quadrature.rng_for(seed, "ring-samples"), S_o.center,
                                S_o.radius + width, n, in_ring)


def _validate_family(family: TestFamily, D: Ball, *tags: str):
    """Sampled re-validation of the class constraints of each tag in turn, for every
    member in member order: S_o boundary, then 3r ring or sphere means, then near
    the D boundary; the first failure raises.  Each member is evaluated once on
    each point set, its base field once for all members on it (``_FieldValues``),
    and every tag reads its constraints from those values."""
    tol = VALIDATE_TOL
    S_o, r, b_minus, b_plus = family.S_o, family.r, family.b_minus, family.b_plus
    bnd = S_o.boundary_points(128)
    ring = _ring_samples(S_o, 3 * r, 128, seed=1)
    near_boundary = Ball(D.center, 0.995 * D.radius).boundary_points(64)
    if "sbh+0o" in tags:
        mid = _ring_samples(Ball(S_o.center, S_o.radius + r), r, 32, seed=2)
    values = _FieldValues()  # the values of this validation, dropped with it
    seen: dict = {}  # (member index, point set) -> the member's values there

    def at(i, f, name, pts):
        if (i, name) not in seen:
            seen[i, name] = values(f, pts)
        return seen[i, name]

    for tag in tags:
        for i, (name, f) in enumerate(family.members):
            if np.max(at(i, f, "bnd", bnd)) > b_plus + tol * (1 + abs(b_plus)):
                raise ValueError(f"member {name} exceeds b_plus on the S_o boundary")
            if tag in {"sbh00", "sbh+0"}:
                if np.min(at(i, f, "ring", ring)) < b_minus - tol * (1 + abs(b_minus)):
                    raise ValueError(f"member {name} drops below b_minus on the 3r ring")
            elif tag == "sbh+0o":
                # one evaluation of f on all 32 spheres; the first low mean in sphere
                # order raises, before a later sphere's DomainError
                for avg in sphere_averages(f, mid, r, 512, values):
                    if avg < b_minus - tol * (1 + abs(b_minus)):
                        raise ValueError(f"member {name} sphere-average drops below b_minus")
            vnb = at(i, f, "near", near_boundary)
            if tag == "sbh00+" and np.max(np.abs(vnb)) > tol:
                raise ValueError(f"member {name} fails compact support near the D boundary")
            if tag in LYONS_CLASS_TAGS and np.min(vnb) < -1e-5:
                raise ValueError(f"member {name} is negative near the D boundary")


def lyons_example_pair(seed: int = 0):
    """The punched-ball/atom pair: a har-balayage that charges a polar set.

    theta = normalized area on r0*B; mu_E = normalized area on r*B with small
    balls around ring points removed and their mass reinstated as atoms at
    the ring points.  Returns (theta, mu_E, atom_points).
    """
    r0, r, n_atoms = LYONS_R0, LYONS_R, LYONS_ATOMS
    d = 2
    theta = Measure(d, [BallUniform(np.zeros(d), r0, 1.0)])
    ring_radius = 0.5 * (r0 + r)
    gap = min(ring_radius - r0, r - ring_radius)
    rj = min(LYONS_DEFECT_RADIUS, 0.8 * gap)
    rng = quadrature.rng_for(seed, "lyons-pair")
    angles = 2.0 * math.pi * (np.arange(n_atoms) + rng.random()) / n_atoms
    pts = ring_radius * np.column_stack([np.cos(angles), np.sin(angles)])
    m = (rj / r) ** d
    comps = ([BallUniform(np.zeros(d), r, 1.0)] + [BallUniform(e, rj, -m) for e in pts]
             + _atoms(pts, np.full(n_atoms, m)))
    return theta, Measure(d, comps), pts
