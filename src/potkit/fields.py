"""Scalar fields: averages, subharmonicity probes, Riesz recovery and gluing.

Fields are immutable wrappers around vectorized evaluators mapping (n, d)
point stacks to (n,) extended-real values.  Probe checks and quadratures
are pure; the layer solver works on a private grid and hands back an
immutable field.
"""

from __future__ import annotations

import math

import numpy as np

from . import quadrature
from .geometry import Annulus, Ball, GridDomain, _Composite
from .kernels import kernel_rows, riesz_normalizer, k_eval_array
from .measures import GridDensity, Measure
from .verdict import Row, Verdict

__all__ = [
    "ScalarField",
    "GridField",
    "GlueError",
    "DomainError",
    "sphere_average",
    "ball_average",
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

    # set on kernel fields sign * K_{d-2}(., y): the pole y, the order d - 2 and the sign
    kernel_pole = None
    kernel_order = None
    kernel_sign = 1.0

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
            r = np.linalg.norm(pts - p[None, :], axis=1)
            with np.errstate(divide="ignore"):
                return coefficient * np.log(r)

        return ScalarField(_eval, domain)

    @staticmethod
    def kernel(d: int, y, sign: float = 1.0) -> "ScalarField":
        """sign * K_{d-2}(x, y) as a field of x."""
        y = np.asarray(y, dtype=float)

        def _eval(pts):
            return sign * kernel_rows(y[None, :], pts, d - 2, np.empty((1, len(pts))))[0]

        field = ScalarField(_eval)
        field.kernel_pole, field.kernel_order, field.kernel_sign = y, d - 2, float(sign)
        return field

    def __add__(self, other) -> "ScalarField":
        other = as_field(other)
        return ScalarField(lambda pts: self.evaluate_array(pts) + other.evaluate_array(pts),
                           self.domain)

    def __rmul__(self, a: float) -> "ScalarField":
        return ScalarField(lambda pts: a * self.evaluate_array(pts), self.domain)

    def __sub__(self, other) -> "ScalarField":
        return self + (-1.0) * as_field(other)

    def maximum(self, other) -> "ScalarField":
        other = as_field(other)
        return ScalarField(lambda pts: np.maximum(self.evaluate_array(pts),
                                                  other.evaluate_array(pts)),
                           self.domain)


def as_field(f) -> ScalarField:
    if isinstance(f, ScalarField):
        return f
    if isinstance(f, (int, float)):
        return ScalarField.constant(float(f))
    if callable(f):
        return ScalarField(f)
    raise TypeError(f"cannot interpret {type(f).__name__} as a field")


class GridField(ScalarField):
    """Field sampled at the cell centers of a GridDomain, interpolated linearly."""

    def __init__(self, grid: GridDomain, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError("values shape must match the grid")
        self.grid = grid
        self.values = values

        def _eval(pts):
            from scipy import ndimage  # imported on use: scipy.ndimage is slow to load

            coords = (pts - grid.origin[None, :]).T / grid.spacing
            return ndimage.map_coordinates(values, coords, order=1, mode="nearest")

        super().__init__(_eval, grid)

    def to_json(self) -> dict:
        return {"grid": self.grid.to_json(), "values": self.values.ravel().tolist()}

    @staticmethod
    def from_json(data: dict) -> "GridField":
        grid = GridDomain.from_json(data["grid"])
        vals = np.asarray(data["values"], float).reshape(grid.shape)
        return GridField(grid, vals)

    @staticmethod
    def sample(field: ScalarField, grid: GridDomain) -> "GridField":
        vals = field.evaluate_array(grid.centers()).reshape(grid.shape)
        return GridField(grid, vals)


# ---------------------------------------------------------------------------
# averages and probes


def _sampled_mean(v: ScalarField, x: np.ndarray, r: float, rule, what: str) -> float:
    """Mean of v under the unit-scale (nodes, weights) `rule` moved to x and scaled by r."""
    nodes, w = rule
    pts = x[None, :] + r * nodes
    if v.domain is not None and not np.all(v.domain.contains_array(pts)):
        raise DomainError(f"{what} leaves the field's domain")
    vals = v.evaluate_array(pts)
    if np.any(np.isneginf(vals)):
        return -math.inf
    return float(np.dot(w, vals))


def sphere_average(v: ScalarField, x, r: float, n: int | None = None) -> float:
    """Mean of v over the sphere of radius r about x."""
    x = np.asarray(x, dtype=float)
    return _sampled_mean(v, x, r, quadrature.sphere_rule(x.size, n), "probe sphere")


def ball_average(v: ScalarField, x, r: float) -> float:
    """Mean of v over the solid ball of radius r about x."""
    x = np.asarray(x, dtype=float)
    return _sampled_mean(v, x, r, quadrature.ball_rule(x.size), "probe ball")


def check_subharmonic(v: ScalarField, probes, tol: float = 1e-6) -> Verdict:
    """Sub-mean-value test v(x) <= sphere mean + tol at each (point, radius) probe."""
    rows = []
    for x, r in probes:
        x = np.asarray(x, dtype=float)
        val = v(x)
        avg = sphere_average(v, x, r)
        margin = val - avg  # positive margin beyond tol = violation
        rows.append(Row("probe", val, avg, margin, bool(margin <= tol), tol))
    return Verdict("sub-mean", all(r.passed for r in rows), rows)


def random_probes(domain, n: int, seed: int, r_lo: float | None = None) -> list:
    """Seeded probe set: points in the ball or annulus, radii in [2h, dist(x, bd)/2]."""
    rng = quadrature.rng_for(seed, "probes")
    lo = domain.center - domain.diameter / 2.0
    hi = domain.center + domain.diameter / 2.0
    probes = []
    floor = 1e-3 if r_lo is None else r_lo
    # a scalar loop, not quadrature.sample_in: every accepted point draws its
    # radius from the same stream, so block draws would change the points
    while len(probes) < n:
        x = lo + (hi - lo) * rng.random(domain.dimension)
        if not domain.contains(x):
            continue
        gap = domain.boundary_distance(x)
        if gap / 2.0 <= floor:
            continue
        r = floor + (gap / 2.0 - floor) * rng.random()
        probes.append((x, float(r)))
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
    for axis in range(d):
        for step in (-1, 1):
            shifted = np.roll(values, step, axis=axis)
            ok = np.roll(finite, step, axis=axis)
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


def _offset_directions(d: int) -> np.ndarray:
    if d == 2:
        return quadrature.circle_nodes(8)
    return quadrature.sphere_spiral_nodes(8)


def _approx_limsup(field: ScalarField, x: np.ndarray, inside, h: float):
    """Boundary limsup surrogate from inward offsets at distances {h, 2h}.

    Per admissible direction the two samples are linearly extrapolated to
    the boundary point (killing the O(h) drift of a raw max); the returned
    slack is the largest directional increment, a data-driven allowance for
    the surrogate's residual error.
    """
    dirs = _offset_directions(x.size)
    near = x[None, :] + h * dirs
    far = x[None, :] + 2 * h * dirs
    ok = inside.contains_array(near) & inside.contains_array(far)
    if not ok.any():
        keep = inside.contains_array(near)
        if not keep.any():
            return -math.inf, 0.0
        return float(np.max(field.evaluate_array(near[keep]))), 0.0
    f1 = field.evaluate_array(near[ok])
    f2 = field.evaluate_array(far[ok])
    est = float(np.max(2.0 * f1 - f2))
    slack = float(np.max(np.abs(f1 - f2)))
    return est, slack


def _boundary_in(region, other, n: int) -> np.ndarray:
    pts = region.boundary_points(n)
    keep = other.contains_array(pts)
    return pts[keep]


def _piecewise(pts: np.ndarray, parts) -> np.ndarray:
    """Values of a field patched from regions: nan, then each (mask, evaluate) in order."""
    out = np.full(len(pts), np.nan)
    for mask, evaluate in parts:
        if mask.any():
            out[mask] = evaluate(pts[mask])
    return out


def glue_max(O, O0, v: ScalarField, v0: ScalarField, tol: float = 1e-6) -> ScalarField:
    """Two-sided gluing: v0 on O0\\O, max{v0, v} on the overlap, v on O\\O0.

    The boundary-compatibility inequalities are verified on sampled boundary
    points with the inward-offset limsup surrogate; a violation rejects the
    pair with the offending point.
    """
    overlap = _Composite(O, O0, union=False)
    h = GLUE_OFFSET * O.diameter

    for x in _boundary_in(O, O0, GLUE_BOUNDARY):
        est, slack = _approx_limsup(v, x, overlap, h)
        if est > v0(x) + tol + 0.5 * slack:
            raise GlueError("boundary compatibility fails on the O side", witness=x)
    for x in _boundary_in(O0, O, GLUE_BOUNDARY):
        est, slack = _approx_limsup(v0, x, overlap, h)
        if est > v(x) + tol + 0.5 * slack:
            raise GlueError("boundary compatibility fails on the O0 side", witness=x)

    def _eval(pts):
        in_O = O.contains_array(pts)
        in_O0 = O0.contains_array(pts)
        return _piecewise(pts, [
            (in_O0 & ~in_O, v0.evaluate_array),
            (in_O & in_O0, lambda p: np.maximum(v.evaluate_array(p), v0.evaluate_array(p))),
            (in_O & ~in_O0, v.evaluate_array)])

    return ScalarField(_eval, _Composite(O, O0, union=True))


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
    for x in _boundary_in(O0, O, GLUE_BOUNDARY):
        if v(x) < m_v - tol:
            raise GlueError("v drops below m_v on O boundary-of-O0 samples", witness=x)
        est, slack = _approx_limsup(g, x, overlap, h)
        if est > m_g + tol + 0.5 * slack:
            raise GlueError("g exceeds m_g on the inner interface", witness=x)
    for x in _boundary_in(O, O0, GLUE_BOUNDARY):
        est, slack = _approx_limsup(v, x, overlap, h)
        if est > M_v + tol + 0.5 * slack:
            raise GlueError("v exceeds M_v on the outer interface", witness=x)
        if g(x) < M_g - tol:
            raise GlueError("g drops below M_g on the outer interface", witness=x)

    amp = max(M_v, 0.0) + max(-m_v, 0.0)
    coeff = amp / (M_g - m_g)
    shift = M_g + m_g
    v0 = ScalarField(lambda pts: coeff * (2.0 * g.evaluate_array(pts) - shift), O0)
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
        lambda p: S.contains_array(p) & (np.linalg.norm(p - S_o.center, axis=1) > S_o.radius))
    for x in samples:
        val = v(x)
        if val > M_v + tol or val < m_v - tol:
            raise GlueError("v violates its stated bounds on S \\ S_o", witness=x)

    M_g = mg_constant(green, S_o)
    amp = max(M_v, 0.0) + max(-m_v, 0.0)

    def v0_eval(pts):
        return (amp / M_g) * (2.0 * green.evaluate_array(pts) - M_g)

    v0 = ScalarField(v0_eval)

    def _eval(pts):
        rho = np.linalg.norm(pts - S_o.center[None, :], axis=1)
        in_So = rho <= S_o.radius
        in_S = S.contains_array(pts) & ~in_So
        return _piecewise(pts, [
            (in_So, v0.evaluate_array),
            (in_S, lambda p: np.maximum(v0.evaluate_array(p), v.evaluate_array(p))),
            (~(in_So | in_S), v.evaluate_array)])

    glued = ScalarField(_eval, ambient)
    glued.amplitude = amp
    glued.M_g = M_g
    glued.pole_coefficient = 2.0 * amp / M_g
    glued.v0 = v0
    return glued


def fit_pole_coefficient(field, o, d: int):
    """Least-squares limit of field(x)/(-K_{d-2}(x, o)) along x -> o.

    Fits field = a * (-k_{d-2}(t)) + b over the radius ladder POLE_FIT_RADII
    (direction averaged) and returns (a, r_squared).  Replaces the limsup
    with a fitted limit; callers should require r_squared >= 0.999.
    """
    o = np.asarray(o, dtype=float)
    radii = np.array(POLE_FIT_RADII)
    dirs = _offset_directions(d)
    ev = field.evaluate_array if hasattr(field, "evaluate_array") else field
    ys = []
    for t in radii:
        pts = o[None, :] + t * dirs
        ys.append(float(np.mean(np.asarray(ev(pts), dtype=float))))
    ys = np.asarray(ys)
    if not np.all(np.isfinite(ys)):
        return math.nan, 0.0  # a sample hit a singularity: no reliable fit
    xs = -k_eval_array(d - 2, radii)
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


def _neighbor_mean(values: np.ndarray, d: int) -> np.ndarray:
    total = np.zeros_like(values)
    for axis in range(d):
        total += np.roll(values, 1, axis=axis) + np.roll(values, -1, axis=axis)
    return total / (2 * d)


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
    rho = np.linalg.norm(centers - layer.center[None, :], axis=1).reshape(grid.shape)
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
            mean = _neighbor_mean(values, d)
            values[color] += omega * (mean[color] - values[color])
        if sweep % 16 == 15 or sweep == max_sweeps - 1:
            residual = float(np.max(np.abs(_neighbor_mean(values, d)[inner] - values[inner])))
            if residual <= residual_target * scale:
                converged = True
                break
    if not converged:
        raise NumericError(f"layer solve did not reach residual {residual_target} "
                           f"within {max_sweeps} sweeps")

    solution = GridField(grid, values)

    def _eval(pts):
        inside = layer.contains_array(pts)
        return _piecewise(pts, [(inside, solution.evaluate_array), (~inside, v.evaluate_array)])

    result = ScalarField(_eval, v.domain)
    result.solver_grid = solution
    result.sweeps = sweep + 1
    return result
