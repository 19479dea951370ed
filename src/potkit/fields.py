"""Scalar fields: averages, subharmonicity probes, Riesz recovery and gluing.

Fields are immutable wrappers around vectorized evaluators mapping (n, d)
point stacks to (n,) extended-real values.  Probe checks and quadratures
are pure; the layer solver works on a private grid and hands back an
immutable field.

A glued field (``glue_max``, ``glue_quantitative``, ``glue_with_green``,
``harmonize_layer``) is patched from ``pieces``, each (inside, outside,
field): the field applies where a point lies in every domain of `inside` and
in none of `outside`, and the value is nan where no piece applies.  The same
tuples route a probe sphere: a sphere whose ball every `inside` domain
``holds`` and every `outside` domain ``misses`` is evaluated by that piece
alone, on the very nodes the glued evaluator would have handed it, so the
mean keeps its bits and skips the membership tests.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from functools import reduce

import numpy as np

from . import quadrature
from .geometry import (Annulus, Ball, GridDomain, _Composite, _distance,
                       _face_neighbours)
from .kernels import kernel_rows, riesz_normalizer, k_eval_array
from .measures import GridDensity, Measure
from .verdict import Row, Verdict

__all__ = [
    "ScalarField",
    "GridField",
    "GlueError",
    "DomainError",
    "sphere_average",
    "sphere_averages",
    "check_subharmonic",
    "riesz_measure",
    "glue_max",
    "glue_quantitative",
    "glue_with_green",
    "harmonize_layer",
    "fit_pole_coefficient",
    "random_probes",
]


class DomainError(ValueError):
    pass


class GlueError(ValueError):
    """Raised when a sampled boundary-compatibility inequality fails."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ScalarField:
    """Evaluable extended-real function on a domain."""

    # set on kernel fields sign * K_{d-2}(., y): the pole y (d = y.size) and the sign (+-1)
    kernel_pole = None
    kernel_sign = 1.0
    # set on glued fields: their (inside, outside, field) pieces, see the module docstring
    pieces = ()

    def __init__(self, evaluator, domain=None):
        self._evaluator = evaluator
        self.domain = domain

    def evaluate_array(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.asarray(self._evaluator(pts), dtype=float)

    def __call__(self, x) -> float:
        return float(self.evaluate_array(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    @staticmethod
    def constant(c: float, domain=None) -> "ScalarField":
        return ScalarField(lambda pts: np.full(len(pts), float(c)), domain)

    @staticmethod
    def log_distance(p, coefficient: float = 1.0, domain=None) -> "ScalarField":
        """coefficient * ln|x - p| (subharmonic on R^2, harmonic off p)."""
        p = np.asarray(p, dtype=float)

        def _eval(pts):
            r = _distance(pts, p)
            with np.errstate(divide="ignore"):
                return coefficient * np.log(r)

        return ScalarField(_eval, domain)

    @staticmethod
    def kernel(y, sign: float = 1.0) -> "ScalarField":
        """sign * K_{d-2}(x, y) as a field of x, with d = y.size and sign +1 or -1.

        ``measures.integrate_many`` reduces each pole's kernel row once and
        gives each member its sign times that sum, which is bitwise the
        member's own sum only when the sign is +-1; other signs raise ValueError.
        """
        if sign not in (1.0, -1.0):
            raise ValueError(f"a kernel field's sign must be +1 or -1, got {sign!r}")
        y = np.asarray(y, dtype=float)

        def _eval(pts):
            return sign * kernel_rows(y[None, :], pts, y.size - 2, np.empty((1, len(pts))))[0]

        field = ScalarField(_eval)
        field.kernel_pole, field.kernel_sign = y, float(sign)
        return field

    def __add__(self, other) -> "ScalarField":
        """self + other, for a field or a number other."""
        term = _term(other)
        return ScalarField(lambda pts: self.evaluate_array(pts) + term(pts), self.domain)

    def __rmul__(self, a: float) -> "ScalarField":
        return ScalarField(lambda pts: a * self.evaluate_array(pts), self.domain)

    def __sub__(self, other) -> "ScalarField":
        """self - other, for a field or a number other."""
        term = _term(other)
        return ScalarField(lambda pts: self.evaluate_array(pts) - term(pts), self.domain)


def _term(other):
    """The evaluator of a field, or of a number as a constant."""
    return other.evaluate_array if isinstance(other, ScalarField) else lambda p, c=float(other): c


class GridField(ScalarField):
    """Field sampled at the cell centers of a GridDomain, interpolated linearly."""

    def __init__(self, grid: GridDomain, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError("values shape must match the grid")
        self.grid = grid
        self.values = values

        def _eval(pts):
            # multilinear, clamped to the window as map_coordinates(mode="nearest") clamps
            top = np.asarray(grid.shape) - 1
            x = np.clip((pts - grid.origin[None, :]) / grid.spacing, 0, top)
            lo = np.minimum(np.floor(x).astype(int), np.maximum(top - 1, 0))
            out = np.zeros(len(pts))
            for corner in itertools.product((0, 1), repeat=grid.dimension):
                weight = np.prod(np.where(corner, x - lo, 1.0 - (x - lo)), axis=1)
                out += weight * values[tuple(np.minimum(lo + corner, top).T)]
            return out

        super().__init__(_eval, grid)

    @staticmethod
    def sample(field: ScalarField, grid: GridDomain) -> "GridField":
        vals = field.evaluate_array(grid.centers()).reshape(grid.shape)
        return GridField(grid, vals)


# ---------------------------------------------------------------------------
# averages and probes


def _piece(v: ScalarField, x, r: float) -> ScalarField:
    """The field that v is on the closed ball of radius r about x: the piece of a glued
    v whose `inside` domains hold that ball and `outside` ones miss it, routed, else v."""
    for inside, outside, piece in v.pieces:  # plain loops: generators cost more here
        for D in inside:
            if not D.holds(x, r):
                break
        else:
            for D in outside:
                if not D.misses(x, r):
                    break
            else:
                return _piece(piece, x, r)
    return v


def sphere_averages(v: ScalarField, centers, r: float, n: int | None) -> Iterator[float]:
    """Means of v over the spheres of radius r about the rows of `centers`, in order,
    with the `quadrature.sphere_rule` of n nodes (its default count for None).

    The nodes of every sphere before the first one that leaves v's domain are
    evaluated, then reaching that sphere raises DomainError; a sphere that
    the domain `holds` skips the node test.  v is evaluated once on all of
    them, unless a sphere routes to a piece of a glued v: then each sphere is
    evaluated alone, by its piece.  A sphere holding -inf has mean -inf; any
    other mean is one dot product, so each mean is bit for bit the one a call
    with that sphere alone gives.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    nodes, w = quadrature.sphere_rule(centers.shape[1], n)
    (m, d), stop = nodes.shape, len(centers)
    pts, scaled = np.empty((stop, m, d)), r * nodes
    for k in range(d):  # axis by axis: the bits of centers[:, None, :] + r * nodes
        np.add(centers[:, k, None], scaled[:, k], out=pts[:, :, k])
    if v.domain is not None:
        holds = getattr(v.domain, "holds", None)  # a domain without it tests every node
        test = np.array([holds is None or not holds(c, r) for c in centers], dtype=bool)
        inside = ~test
        if test.any():
            inside[test] = v.domain.contains_array(pts[test].reshape(-1, d)).reshape(
                -1, m).all(axis=1)
        stop = int(np.argmin(inside)) if not inside.all() else stop
    if stop:
        pieces = [_piece(v, c, r) for c in centers[:stop]]
        if all(f is v for f in pieces):
            vals = v.evaluate_array(pts[:stop].reshape(-1, d)).reshape(stop, -1)
        else:
            vals = (f.evaluate_array(p) for f, p in zip(pieces, pts))
        for row in vals:
            yield -math.inf if np.any(np.isneginf(row)) else float(np.dot(w, row))
    if stop < len(centers):
        raise DomainError("probe sphere leaves the field's domain")


def sphere_average(v: ScalarField, x, r: float, n: int | None = None) -> float:
    """Mean of v over the sphere of radius r about x."""
    return next(sphere_averages(v, x, r, n))


def check_subharmonic(v: ScalarField, probes, tol: float = 1e-6) -> Verdict:
    """Sub-mean-value test v(x) <= sphere mean + tol at each (point, radius) probe."""
    probes = [(np.asarray(x, dtype=float), r) for x, r in probes]
    vals = v.evaluate_array(np.array([x for x, _ in probes])) if probes else []
    rows = []
    for (x, r), val in zip(probes, vals):
        val = float(val)
        avg = sphere_average(v, x, r)
        margin = val - avg  # positive margin beyond tol = violation
        rows.append(Row("probe", val, avg, margin, bool(margin <= tol), tol))
    return Verdict("sub-mean", all(r.passed for r in rows), rows)


def random_probes(domain, n: int, seed: int, r_lo: float | None = None, holes=()) -> list:
    """Seeded probes (x, r): x in the ball or annulus, r in [r_lo, dist(x, bd)/2].

    r_lo defaults to 1e-3.  A hole (center, radius) caps r at half the gap
    to it and drops the probe when the gap or the capped r is below r_lo;
    ValueError when fewer than n of the first 4 n points in the domain are kept.
    """
    rng = quadrature.rng_for(seed, "probes")
    lo = domain.center - domain.diameter / 2.0
    hi = domain.center + domain.diameter / 2.0
    probes, drawn = [], 0
    floor = 1e-3 if r_lo is None else r_lo
    # a scalar loop, not quadrature.sample_in: every accepted point draws its
    # radius from the same stream, so block draws would change the points
    while len(probes) < n:
        if drawn == 4 * n:
            cause = "avoid the holes" if holes else f"have room for a radius >= {floor:g}"
            raise ValueError(f"only {len(probes)} of {n} probes {cause}")
        x = lo + (hi - lo) * rng.random(domain.dimension)
        if not domain.contains(x):
            continue
        drawn += 1
        gap = domain.boundary_distance(x)
        if gap / 2.0 <= floor:
            continue
        r = float(floor + (gap / 2.0 - floor) * rng.random())
        for c, rad in holes:
            gap = float(np.linalg.norm(x - np.asarray(c))) - rad
            if gap < floor:
                break
            r = min(r, 0.5 * gap)
        else:
            if r >= floor:
                probes.append((x, r))
    return probes


# ---------------------------------------------------------------------------
# Riesz measure by discrete Laplacian


def riesz_measure(v, grid: GridDomain | None = None) -> Measure:
    """Recover c_d * (distributional Laplacian) as per-cell masses on a grid.

    Uses the 5-point (d=2) / 7-point (d=3) stencil on interior cells; the
    boundary ring is excluded.  Cells whose stencil touches a non-finite
    value are flagged on the result as ``singular_cells`` and excluded.
    """
    if grid is None:
        if not isinstance(v, GridField):
            raise ValueError("need a GridField or an explicit grid")
        grid, values = v.grid, v.values
    else:
        values = GridField.sample(v, grid).values
    d = grid.dimension
    h = grid.spacing
    finite = np.isfinite(values) & grid.mask
    interior = grid.mask & ~grid.boundary_cells()
    lap = np.zeros(grid.shape)
    stencil_ok = interior.copy()
    neighbor_sum = np.zeros(grid.shape)
    for shifted, ok in zip(_face_neighbours(values), _face_neighbours(finite)):
        neighbor_sum += np.where(ok, shifted, 0.0)
        stencil_ok &= ok
    stencil_ok &= finite
    lap[stencil_ok] = (neighbor_sum[stencil_ok] - 2 * d * values[stencil_ok]) / h ** 2

    singular = np.argwhere(interior & ~stencil_ok)
    masses = riesz_normalizer(d) * lap * h ** d
    masses[~stencil_ok] = 0.0
    mu = Measure(d, [GridDensity(grid, masses)])
    mu.singular_cells = [tuple(ix) for ix in singular]
    return mu


# ---------------------------------------------------------------------------
# gluing


GLUE_BOUNDARY = 256  # sampled interface points per side of a gluing
GLUE_OFFSET = 1e-3  # inward offset of the limsup surrogate, per unit diameter of O
GREEN_GLUE_SAMPLES = 512  # seeded samples of the bounds of v in glue_with_green
POLE_FIT_RADII = (1e-2, 3e-3, 1e-3, 3e-4)  # radius ladder of fit_pole_coefficient
OFFSET_DIRECTIONS = 8  # directions of the limsup surrogate and of the pole fit


def _approx_limsup(field: ScalarField, xs: np.ndarray, inside, h: float):
    """Boundary limsup surrogates from inward offsets at distances {h, 2h}, per row of xs.

    Per admissible direction (both offsets in `inside`) the two samples are
    linearly extrapolated to the boundary point (killing the O(h) drift of a
    raw max); the slack is the largest directional increment, a data-driven
    allowance for the surrogate's residual error.  A row with no admissible
    direction takes the max over its near offsets in `inside`, with slack 0,
    and -inf with none.  Returns the (est, slack) arrays.
    """
    d = xs.shape[1]
    dirs = quadrature._unit_directions(d, OFFSET_DIRECTIONS)
    near = (xs[:, None, :] + h * dirs).reshape(-1, d)
    far = (xs[:, None, :] + 2 * h * dirs).reshape(-1, d)
    keep = inside.contains_array(near)
    ok = keep & inside.contains_array(far)
    shape = (len(xs), len(dirs))  # a row per point, a column per direction
    f1 = _piecewise(near, [(keep, field.evaluate_array)]).reshape(shape)
    f2 = _piecewise(far, [(ok, field.evaluate_array)]).reshape(shape)
    keep, ok = keep.reshape(shape), ok.reshape(shape)

    def top(mask, vals):  # the max of vals over mask in each row, -inf on none
        return np.where(mask, vals, -math.inf).max(axis=1)

    any_ok = ok.any(axis=1)
    est = np.where(any_ok, top(ok, 2.0 * f1 - f2), top(keep, f1))
    return est, np.where(any_ok, top(ok, np.abs(f1 - f2)), 0.0)


def _reject(xs: np.ndarray, checks) -> None:
    """Raise GlueError at the first row of xs failing a (failed mask, message) check,
    trying a row's checks in order, as a loop over the points would."""
    failed = np.array([bad for bad, _ in checks])
    hit = failed.any(axis=0)
    if hit.any():
        i = int(np.argmax(hit))
        raise GlueError(checks[int(np.argmax(failed[:, i]))][1], witness=xs[i])


def _boundary_in(region, other, n: int) -> np.ndarray:
    pts = region.boundary_points(n)
    keep = other.contains_array(pts)
    return pts[keep]


def _piecewise(pts: np.ndarray, parts) -> np.ndarray:
    """Values of a field patched from regions: nan, then each (mask, evaluate) in order."""
    out = np.full(len(pts), np.nan)
    for mask, evaluate in parts:
        if mask.any():  # np.compress: the bytes of pts[mask], several times faster
            out[mask] = evaluate(np.compress(mask, pts, axis=0))
    return out


def _patch(pieces, domain) -> ScalarField:
    """The field on `domain` patched from (inside, outside, field) pieces (see the
    module docstring); each distinct domain's membership is tested once per call."""
    regions = list(dict.fromkeys(D for inside, outside, _ in pieces for D in inside + outside))

    def _eval(pts):
        member = {D: D.contains_array(pts) for D in regions}
        return _piecewise(pts, [(reduce(np.logical_and, [member[D] for D in inside]
                                        + [~member[D] for D in outside]), f.evaluate_array)
                                for inside, outside, f in pieces])

    patched = ScalarField(_eval, domain)
    patched.pieces = pieces
    return patched


def _rescaled(g: ScalarField, amp: float, m_g: float, M_g: float, domain) -> ScalarField:
    """amp / (M_g - m_g) * (2 g - M_g - m_g): the v0 of the quantitative and Green gluings."""
    coeff, shift = amp / (M_g - m_g), M_g + m_g
    return ScalarField(lambda pts: coeff * (2.0 * g.evaluate_array(pts) - shift), domain)


def glue_max(O, O0, v: ScalarField, v0: ScalarField, tol: float = 1e-6) -> ScalarField:
    """Two-sided gluing: v0 on O0\\O, max{v0, v} on the overlap, v on O\\O0.

    The boundary-compatibility inequalities are verified on sampled boundary
    points with the inward-offset limsup surrogate; a violation rejects the
    pair with the offending point.
    """
    overlap = _Composite(O, O0, union=False)
    h = GLUE_OFFSET * O.diameter

    for side, f, g, xs in (("O", v, v0, _boundary_in(O, O0, GLUE_BOUNDARY)),
                           ("O0", v0, v, _boundary_in(O0, O, GLUE_BOUNDARY))):
        est, slack = _approx_limsup(f, xs, overlap, h)
        _reject(xs, [(est > g.evaluate_array(xs) + tol + 0.5 * slack,
                      f"boundary compatibility fails on the {side} side")])

    both = ScalarField(lambda p: np.maximum(v.evaluate_array(p), v0.evaluate_array(p)))
    return _patch([((O0,), (O,), v0), ((O, O0), (), both), ((O,), (O0,), v)],
                  _Composite(O, O0, union=True))


def glue_quantitative(O, O0, v: ScalarField, g: ScalarField, m_v: float, M_v: float,
                      m_g: float, M_g: float, tol: float = 1e-6) -> ScalarField:
    """Quantitative gluing: builds v0 from g and the (m_v, M_v, m_g, M_g) bounds.

    v0 = (M_v^+ + m_v^-) / (M_g - m_g) * (2 g - M_g - m_g), then the
    two-sided gluing applies.
    """
    if not M_g > m_g:
        raise ValueError("degenerate spec: need m_g < M_g")
    if m_v > M_v:
        raise ValueError("need m_v <= M_v")
    overlap = _Composite(O, O0, union=False)
    h = GLUE_OFFSET * O.diameter

    # sampled Eq-style bound checks before construction
    xs = _boundary_in(O0, O, GLUE_BOUNDARY)
    est, slack = _approx_limsup(g, xs, overlap, h)
    _reject(xs, [(v.evaluate_array(xs) < m_v - tol,
                  "v drops below m_v on O boundary-of-O0 samples"),
                 (est > m_g + tol + 0.5 * slack, "g exceeds m_g on the inner interface")])
    xs = _boundary_in(O, O0, GLUE_BOUNDARY)
    est, slack = _approx_limsup(v, xs, overlap, h)
    _reject(xs, [(est > M_v + tol + 0.5 * slack, "v exceeds M_v on the outer interface"),
                 (g.evaluate_array(xs) < M_g - tol, "g drops below M_g on the outer interface")])

    v0 = _rescaled(g, max(M_v, 0.0) + max(-m_v, 0.0), m_g, M_g, O0)
    glued = glue_max(O, O0, v, v0, tol)
    glued.v0 = v0
    return glued


def glue_with_green(v: ScalarField, green, S_o: Ball, S: Ball, m_v: float, M_v: float,
                    ambient=None, tol: float = 1e-6) -> ScalarField:
    """Green-function gluing: harmonic continuation into S_o with controlled growth.

    Builds v0 = A/M_g * (2 g_D - M_g) with A = M_v^+ + m_v^-, places it on
    S_o, takes max{v0, v} on S \\ S_o and keeps v outside S.  The returned
    field carries the constants as attributes (`amplitude`, `M_g`,
    `pole_coefficient` = 2 A / M_g).
    """
    from .green import GreenModel, mg_constant  # local import to avoid a cycle

    if not isinstance(green, GreenModel):
        raise TypeError("need a GreenModel")
    D = green.domain
    o = green.pole
    if not S_o.contains(o):
        raise GlueError("pole must lie in the interior of S_o", witness=o)
    for x in S_o.boundary_points(64):
        if not D.contains(x):
            raise GlueError("S_o is not compactly contained in D", witness=x)
    for x in D.boundary_points(64):
        if not S.closure_contains(x):
            raise GlueError("D is not contained in S", witness=x)

    # sampled bound verification on S \ S_o
    samples = quadrature.sample_in(
        quadrature.rng_for(0, "glue-green-samples"), S.center, S.radius, GREEN_GLUE_SAMPLES,
        lambda p: S.contains_array(p) & (_distance(p, S_o.center) > S_o.radius))
    vals = v.evaluate_array(samples)
    _reject(samples, [((vals > M_v + tol) | (vals < m_v - tol),
                       "v violates its stated bounds on S \\ S_o")])

    M_g = mg_constant(green, S_o)
    amp = max(M_v, 0.0) + max(-m_v, 0.0)
    v0 = _rescaled(green, amp, 0.0, M_g, None)  # m_g = 0: bitwise amp / M_g * (2 g - M_g)
    both = ScalarField(lambda p: np.maximum(v0.evaluate_array(p), v.evaluate_array(p)))
    glued = _patch([((S_o,), (), v0), ((S,), (S_o,), both), ((), (S, S_o), v)], ambient)
    glued.amplitude = amp
    glued.M_g = M_g
    glued.pole_coefficient = 2.0 * amp / M_g
    glued.v0 = v0
    return glued


def fit_pole_coefficient(field, o):
    """Least-squares limit of field(x)/(-K_{d-2}(x, o)) along x -> o, with d = o.size.

    Fits field = a * (-k_{d-2}(t)) + b over the radius ladder POLE_FIT_RADII
    (direction averaged) and returns (a, r_squared).  Replaces the limsup
    with a fitted limit; callers should require r_squared >= 0.999.
    """
    o = np.asarray(o, dtype=float)
    radii = np.array(POLE_FIT_RADII)
    dirs = quadrature._unit_directions(o.size, OFFSET_DIRECTIONS)
    ys = np.array([float(np.mean(field.evaluate_array(o[None, :] + t * dirs))) for t in radii])
    if not np.all(np.isfinite(ys)):
        return math.nan, 0.0  # a sample hit a singularity: no reliable fit
    xs = -k_eval_array(o.size - 2, radii)
    A = np.column_stack([xs, np.ones_like(xs)])
    sol, *_ = np.linalg.lstsq(A, ys, rcond=None)
    fit = A @ sol
    ss_res = float(np.sum((ys - fit) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(sol[0]), r2


# ---------------------------------------------------------------------------
# layer harmonization (Perron-Wiener-Brelot surrogate)


class NumericError(RuntimeError):
    pass


# sweep budget of the layer solve per grid node along one axis; the solves
# of the test suite take at most 3.7 sweeps per node at residual 1e-10
SWEEPS_PER_NODE = 16


def _neighbor_mean(values: np.ndarray) -> np.ndarray:
    neighbours = _face_neighbours(values)
    total = np.zeros_like(values)
    for up, down in zip(neighbours, neighbours):  # each axis's (i + 1, i - 1) pair
        total += up + down
    return total / (2 * values.ndim)


def harmonize_layer(v: ScalarField, layer: Annulus, cells: int = 128,
                    residual_target: float = 1e-10) -> ScalarField:
    """Replace v inside the layer by the harmonic function with boundary data v.

    Grid Dirichlet solve with red-black sweeps over-relaxed by the optimal
    SOR factor omega = 2 / (1 + sin(pi / n)) on a grid of n nodes per axis.
    Optimal SOR converges in O(n) sweeps, so the solve gets SWEEPS_PER_NODE * n
    of them and raises NumericError when they run out.  The result equals v
    off the layer and dominates it inside, up to discretization; its `sweeps`
    is the number of sweeps taken.
    """
    d = layer.dimension
    h = 2.0 * layer.r_out / cells
    lo = layer.center - layer.r_out - 2 * h
    n = int(math.ceil(2.0 * (layer.r_out + 2 * h) / h)) + 1
    grid = GridDomain(lo, h, np.ones((n,) * d, dtype=bool))
    centers = grid.centers()
    rho = _distance(centers, layer.center).reshape(grid.shape)
    inner = (rho > layer.r_in) & (rho < layer.r_out)

    values = v.evaluate_array(centers).reshape(grid.shape).astype(float)
    if not np.all(np.isfinite(values[~inner])):
        raise DomainError("boundary data for the layer solve must be finite")
    values[inner & ~np.isfinite(values)] = 0.0  # poles inside the layer get overwritten

    omega = 2.0 / (1.0 + math.sin(math.pi / n))
    parity = np.indices(grid.shape).sum(axis=0) % 2
    colors = [inner & (parity == 0), inner & (parity == 1)]
    scale = float(np.max(np.abs(values[~inner]))) + 1.0

    converged = False
    max_sweeps = SWEEPS_PER_NODE * n
    for sweep in range(max_sweeps):
        for color in colors:
            mean = _neighbor_mean(values)
            values[color] += omega * (mean[color] - values[color])
        if sweep % 16 == 15 or sweep == max_sweeps - 1:
            residual = float(np.max(np.abs(_neighbor_mean(values)[inner] - values[inner])))
            if residual <= residual_target * scale:
                converged = True
                break
    if not converged:
        raise NumericError(f"layer solve did not reach residual {residual_target} "
                           f"within {max_sweeps} sweeps")

    solution = GridField(grid, values)
    result = _patch([((layer,), (), solution), ((), (layer,), v)], v.domain)
    result.solver_grid = solution
    result.sweeps = sweep + 1
    return result
