"""Finite compactly supported charges built from atoms, layers and grid densities.

A Measure is a finite list of components of four kinds:

* ``Atoms(points, weights)`` -- a weighted point cloud, n >= 1 point masses;
  ``Atom(point, weight)`` is its one-row case
* ``SphereUniform(center, radius, total)`` -- uniform (or density-weighted)
  mass on a sphere
* ``BallUniform(center, radius, total)`` -- uniform mass on a solid ball
* ``GridDensity(grid, values)`` -- per-cell masses on a GridDomain

Every kind implements one component protocol, and the measure-level
operations (integrate, total_mass, restrict, jordan, support, scaling,
JSON, mollifier sources) are plain loops over it:

* ``dimension``, ``mass()``, ``scaled(a)``, ``jordan()`` -> (positive, negative)
* ``to_json()`` -> its entries of a measure's ``components`` list, and
  ``from_json(entry)``; the CLI reads a measure, picking each class by ``"type"``
* ``support_radius(center)`` (exact) and ``support_points()`` (sampled)
* ``discretize(use)`` -> (points, weights) for a use below
* ``restrict(S, complement)`` -> list of components
* ``resolution``: the lattice spacing of grid densities, 0 for exact kinds
* ``newton_potential()``: the exact potential of plain sphere and ball
  layers in d = 2, 3 by Newton's theorem; None for every other component

A cloud stands for its rows, each the atom component it would be alone: it
writes one ``atom`` JSON entry per row.  Like every other node cloud it
sums by one dot product, so how atoms are grouped moves a result by
rounding only.  Clouds arise where atoms come from one array: the clip of
a layer, the ring atoms of ``balayage.lyons_example_pair`` and the zeros of
``zeros`` (``counting_measure`` and the criteria variants).

Atoms discretize to themselves and grid densities to their charged cell
centers, for every use.  Layers use quadrature nodes whose counts depend on
the use alone, whatever the layer's dimension or density; each count is
defined once, in the ``NODES`` table of its class:

=========  ==============================  ===========================
use        sphere (plain or                ball (radial x angular
           density-weighted)               nodes)
=========  ==============================  ===========================
support    64                              8 x 64
integrate  rule default: 4096 trapezoid    32 x 256 (d = 2),
           (d = 2), 4096 Gauss-Legendre    32 x 1024 (d = 3)
           x trapezoid product (d = 3)
clip       rule default (as above)         32 x 512
mollify    1024                            16 x 128
=========  ==============================  ===========================

``support`` feeds hulls and gaps, ``integrate`` feeds integration and the
quadrature clouds of potentials, ``clip`` feeds restriction of a layer to a
set that is not a shell around its center (against a concentric ball or
annulus, as ``S.shell(center)`` reports, a sphere layer is kept or dropped
whole and a ball layer is split analytically) and ``mollify`` feeds the
sources of mollifier smoothing.
Integrals are extended reals with the 0*(+-inf)=0 convention; a -inf/+inf
collision raises.  ``integrate`` is the one-field case of ``integrate_many``,
so there is one accumulation path.

Measures are immutable after construction.  A sphere or ball layer builds
its node cloud once per use on first ``discretize`` (see
``_Layer.discretize``), and a grid density its charged cells once for every
use; ``scaled``, ``jordan`` and ``restrict`` build new components, which
start without one.  Every rule is closed-form, so concurrent calls build
equal clouds and results do not depend on call order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _blas, quadrature
from .geometry import Ball, GridDomain, _distance, _stencil
from .kernels import k_eval_array, kernel_rows, tile_rows, unit_ball_volume

__all__ = [
    "Atoms",
    "Atom",
    "SphereUniform",
    "BallUniform",
    "GridDensity",
    "Measure",
    "Mollifier",
    "integrate",
    "integrate_many",
    "total_mass",
    "restrict",
    "jordan",
    "convolve_balayage",
]


class IndeterminateIntegral(ValueError):
    """Raised when positive and negative parts both diverge."""


@dataclass(frozen=True, eq=False)
class Atoms:
    """Point masses weights[i] at points[i], n >= 1 rows, each the atom it would be alone."""

    points: np.ndarray
    weights: np.ndarray

    kind = "atom"
    resolution = 0.0

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))  # one point is one row
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if pts.ndim != 2 or not len(pts) or w.shape != (len(pts),):
            raise ValueError(f"atoms need n >= 1 (n, d) points and n weights, not "
                             f"{pts.shape} and {w.shape}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def mass(self) -> float:
        return float(np.sum(self.weights))

    def scaled(self, a: float) -> "Atoms":
        return replace(self, weights=a * self.weights)

    def jordan(self) -> tuple[list, list]:
        pos = self.weights >= 0
        w = np.abs(self.weights)
        return _atoms(self.points[pos], w[pos]), _atoms(self.points[~pos], w[~pos])

    def to_json(self) -> list:
        return [{"type": self.kind, "point": p, "weight": w}
                for p, w in zip(self.points.tolist(), self.weights.tolist())]

    @staticmethod
    def from_json(data: dict) -> "Atom":
        return Atom(np.asarray(data["point"], float), float(data["weight"]))

    def support_radius(self, center: np.ndarray) -> float:
        return float(np.max(_distance(self.points, center)))

    def support_points(self) -> np.ndarray:
        return self.points

    def discretize(self, use: str = "integrate"):
        return self.points, self.weights

    def newton_potential(self):
        return None

    def restrict(self, S, complement: bool = False) -> list:
        keep = S.contains_array(self.points) != complement
        return [self] if keep.all() else _atoms(self.points[keep], self.weights[keep])


class Atom(Atoms):
    """Point mass `weight` at `point`: the one-row cloud, Atom(point, weight)."""

    point = property(lambda self: self.points[0])
    weight = property(lambda self: float(self.weights[0]))


def _atoms(points, weights) -> list:
    """Components holding the rows (points[i], weights[i]) in order: none for no
    row, an Atom for one, else one cloud."""
    return [(Atom if len(weights) == 1 else Atoms)(points, weights)] if len(weights) else []


@dataclass(frozen=True, eq=False)
class _Layer:
    """Mass `total` on the sphere or ball of `radius` around `center`."""

    center: np.ndarray
    radius: float
    total: float

    resolution = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        layer = self.kind.split("_")[0]
        if not np.all(np.isfinite(self.center)):
            raise ValueError(f"{layer} layer center must be finite")
        if not 0 < self.radius < math.inf:
            raise ValueError(f"{layer} layer radius must be positive and finite, "
                             f"got {self.radius}")
        object.__setattr__(self, "_clouds", {})  # use -> discretize result

    @property
    def dimension(self) -> int:
        return self.center.size

    def mass(self) -> float:
        return self.total

    def scaled(self, a: float):
        return replace(self, total=a * self.total)

    def jordan(self) -> tuple[list, list]:
        part = [replace(self, total=abs(self.total))]
        return (part, []) if self.total >= 0 else ([], part)

    def support_radius(self, center: np.ndarray) -> float:
        return float(np.linalg.norm(self.center - center)) + self.radius

    def support_points(self) -> np.ndarray:
        return self._nodes("support")[0]

    def _rule(self, use: str):
        """Nodes and mean-normalized weights of the layer for `use`."""
        return self._nodes(use)

    def discretize(self, use: str = "integrate"):
        """Nodes and masses for `use`, built once per use and handed out read-only."""
        cloud = self._clouds.get(use)
        if cloud is None:
            pts, w = self._rule(use)
            cloud = (pts, self.total * w)
            for a in cloud:
                a.setflags(write=False)
            # threads racing here build equal clouds; every caller gets the first stored
            cloud = self._clouds.setdefault(use, cloud)
        return cloud

    def _clip(self, S, complement: bool) -> list:
        """Charged nodes of the layer clipped to S (or its complement), as atoms."""
        pts, w = self._rule("clip")
        keep = (S.contains_array(pts) != complement) & (w != 0.0)
        return _atoms(pts[keep], self.total * w[keep])

    def newton_potential(self):
        """Exact potential pts -> values (Newton's theorem) in d = 2, 3, else None."""
        return self._newton if self.dimension in (2, 3) else None


@dataclass(frozen=True, eq=False)
class SphereUniform(_Layer):
    """Mass `total` spread over the sphere |x - center| = radius.

    An optional density reweights the normalized surface measure; it is a
    vectorized callable on boundary points (used for Poisson kernels) and
    should average to 1 for `total` to be the actual mass.
    """

    density: object = None
    density_spec: dict | None = None

    kind = "sphere_uniform"
    # sphere-rule nodes per use; None is the rule's default
    NODES = {"support": 64, "integrate": None, "clip": None, "mollify": 1024}

    def _nodes(self, use: str):
        nodes, w = quadrature.sphere_rule(self.dimension, self.NODES[use])
        return self.center[None, :] + self.radius * nodes, w

    def _rule(self, use: str):
        pts, w = self._nodes(use)
        if self.density is not None:
            w = w * _eval_field(self.density, pts)
        return pts, w

    def mass(self) -> float:
        """`total`, or the quadrature mass of a density-weighted layer."""
        if self.density is None:
            return self.total
        pts, w = self._nodes("integrate")
        return self.total * float(np.dot(w, _eval_field(self.density, pts)))

    def to_json(self) -> list:
        if self.density is not None and self.density_spec is None:
            raise ValueError("cannot serialize a sphere layer with an opaque density callable")
        return [{"type": self.kind, "center": self.center.tolist(), "radius": self.radius,
                 "total": self.total, "density_spec": self.density_spec}]

    @staticmethod
    def from_json(data: dict) -> "SphereUniform":
        spec = data.get("density_spec")
        density = density_from_spec(spec) if spec else None
        return SphereUniform(np.asarray(data["center"], float), float(data["radius"]),
                             float(data["total"]), density, spec)

    def restrict(self, S, complement: bool = False) -> list:
        shell = S.shell(self.center)
        if shell is None:
            return self._clip(S, complement)
        lo, hi = shell
        return [self] if (lo < self.radius < hi) != complement else []

    def newton_potential(self):
        return None if self.density is not None else super().newton_potential()

    def _newton(self, pts: np.ndarray) -> np.ndarray:
        return self.total * k_eval_array(self.dimension - 2,
                                         np.maximum(_distance(pts, self.center), self.radius))


@dataclass(frozen=True, eq=False)
class BallUniform(_Layer):
    """Mass `total` spread uniformly over the solid ball |x - center| < radius."""

    kind = "ball_uniform"
    # ball-rule (radial, angular) nodes per use; None is the rule's default
    NODES = {"support": (8, 64), "integrate": (None, None), "clip": (32, 512),
             "mollify": (16, 128)}

    def _nodes(self, use: str):
        nodes, w = quadrature.ball_rule(self.dimension, *self.NODES[use])
        return self.center[None, :] + self.radius * nodes, w

    def to_json(self) -> list:
        return [{"type": self.kind, "center": self.center.tolist(), "radius": self.radius,
                 "total": self.total}]

    @staticmethod
    def from_json(data: dict) -> "BallUniform":
        return BallUniform(np.asarray(data["center"], float), float(data["radius"]),
                           float(data["total"]))

    def restrict(self, S, complement: bool = False) -> list:
        shell = S.shell(self.center)
        if shell is None:
            return self._clip(S, complement)
        lo, hi = shell
        if complement:
            return self._shell(None, lo) + self._shell(hi, None)
        return self._shell(lo, hi)

    def _shell(self, lo: float | None, hi: float | None) -> list:
        """Uniform-density slice {lo < |x-c| < hi} of the ball, analytic."""
        d = self.dimension
        density = self.total / (unit_ball_volume(d) * self.radius ** d)
        hi_r = self.radius if hi is None else min(hi, self.radius)
        lo_r = 0.0 if lo is None else min(lo, self.radius)
        if hi_r <= lo_r:
            return []
        parts = [BallUniform(self.center, hi_r, density * unit_ball_volume(d) * hi_r ** d)]
        if lo_r > 0.0:
            parts.append(BallUniform(self.center, lo_r,
                                     -density * unit_ball_volume(d) * lo_r ** d))
        return parts

    def _newton(self, pts: np.ndarray) -> np.ndarray:
        r = _distance(pts, self.center)
        a, m = self.radius, self.total
        inside = r < a
        out = np.empty(len(r))
        if self.dimension == 2:
            with np.errstate(divide="ignore"):
                out[~inside] = m * np.log(r[~inside])
            out[inside] = m * (math.log(a) + (r[inside] ** 2 - a ** 2) / (2.0 * a ** 2))
        else:
            out[~inside] = -m / r[~inside]
            out[inside] = -m * (3.0 * a ** 2 - r[inside] ** 2) / (2.0 * a ** 3)
        return out


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Per-cell masses on a grid; values[i] is the measure of cell i."""

    grid: GridDomain
    values: np.ndarray = field(repr=False)

    kind = "grid_density"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError("values shape must match the grid")
        vals = vals * self.grid.mask  # no mass outside the domain mask
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def dimension(self) -> int:
        return self.grid.dimension

    @property
    def resolution(self) -> float:
        return self.grid.spacing

    def mass(self) -> float:
        return float(np.sum(self.values))

    def scaled(self, a: float) -> "GridDensity":
        return GridDensity(self.grid, a * np.asarray(self.values))

    def jordan(self) -> tuple[list, list]:
        vals = np.asarray(self.values)
        return ([GridDensity(self.grid, np.maximum(vals, 0.0))],
                [GridDensity(self.grid, np.maximum(-vals, 0.0))])

    def to_json(self) -> list:
        return [{"type": self.kind, "grid": self.grid.to_json(),
                 "values": np.asarray(self.values).ravel().tolist()}]

    @staticmethod
    def from_json(data: dict) -> "GridDensity":
        grid = GridDomain.from_json(data["grid"])
        return GridDensity(grid, np.asarray(data["values"], float).reshape(grid.shape))

    def support_radius(self, center: np.ndarray) -> float:
        pts = self.support_points()
        if not len(pts):
            return 0.0
        return (float(np.max(_distance(pts, center)))
                + 0.5 * self.grid.spacing * math.sqrt(self.dimension))

    def support_points(self) -> np.ndarray:
        return self.discretize()[0]

    def discretize(self, use: str = "integrate"):
        """Centers and masses of the charged cells, the same for every use, built
        once and handed out read-only."""
        cloud = self.__dict__.get("_cloud")
        if cloud is None:
            live = self.values != 0.0
            cloud = (self.grid.origin[None, :] + np.argwhere(live) * self.grid.spacing,
                     self.values[live])
            for a in cloud:
                a.setflags(write=False)
            # threads racing here build equal clouds; every caller gets the first stored
            cloud = self.__dict__.setdefault("_cloud", cloud)
        return cloud

    def newton_potential(self):
        return None

    def restrict(self, S, complement: bool = False) -> list:
        keep = S.contains_array(self.grid.cell_centers()) != complement
        vals = np.zeros(self.grid.shape)
        kept = tuple(np.argwhere(self.grid.mask)[keep].T)
        vals[kept] = np.asarray(self.values)[kept]
        return [GridDensity(self.grid, vals)]


_KINDS = {cls.kind: cls for cls in (Atoms, SphereUniform, BallUniform, GridDensity)}


def density_from_spec(spec: dict):
    """Density callable of a serializable spec; ``poisson`` is the Poisson kernel
    of the ball B(center, radius) at the interior point x."""
    if spec["kind"] != "poisson":
        raise ValueError(f"unknown density spec {spec!r}")
    x = np.asarray(spec["x"], float)
    center = np.asarray(spec["center"], float)
    radius = float(spec["radius"])
    d = x.size
    scale = radius ** (d - 2) * (radius ** 2 - float(np.sum((x - center) ** 2)))

    def poisson(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return scale / _distance(pts, x) ** d

    return poisson


ATOM_TOL = 1e-9  # atom_mass_at counts an atom this close to one of the points


class Measure:
    """Finite signed Borel charge with compact support."""

    def __init__(self, dimension: int, components: list):
        self.dimension = int(dimension)
        self.components = tuple(components)
        for c in self.components:
            if c.dimension != self.dimension:
                raise ValueError(f"component dimension {c.dimension} != measure dimension "
                                 f"{self.dimension}")

    def __add__(self, other: "Measure") -> "Measure":
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        return Measure(self.dimension, list(self.components) + list(other.components))

    def scaled(self, a: float) -> "Measure":
        return Measure(self.dimension, [c.scaled(a) for c in self.components])

    def __rmul__(self, a: float) -> "Measure":
        return self.scaled(a)

    def __sub__(self, other: "Measure") -> "Measure":
        return self + other.scaled(-1.0)

    def support_points(self) -> np.ndarray:
        """Representative support points (exact for atoms and cells, sampled for layers)."""
        return np.vstack([np.zeros((0, self.dimension))]
                         + [c.support_points() for c in self.components])

    def support_radius(self, center=None) -> float:
        """Radius of a ball around `center` (default origin) containing the support."""
        center = np.zeros(self.dimension) if center is None else np.asarray(center, float)
        return max((c.support_radius(center) for c in self.components), default=0.0)

    def atom_mass_at(self, points) -> float:
        """Total atomic mass within ATOM_TOL of the given finite point set."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        mass = 0.0
        for c in self.components:
            if c.kind == "atom":
                near = np.zeros(len(c.weights), dtype=bool)
                for p in pts:
                    near |= _distance(c.points, p) <= ATOM_TOL
                mass += float(np.sum(c.weights[near]))
        return mass

    def to_json(self) -> dict:
        """Components as JSON entries; a cloud gives one ``atom`` entry per row."""
        return {"dimension": self.dimension,
                "components": [e for c in self.components for e in c.to_json()]}

    def __repr__(self):
        kinds = ", ".join(type(c).__name__ for c in self.components)
        return f"Measure(d={self.dimension}, [{kinds}])"


# ---------------------------------------------------------------------------
# integration


def _eval_field(f, pts: np.ndarray) -> np.ndarray:
    """Evaluate a field-like object or plain callable on an (n, d) point stack."""
    ev = getattr(f, "evaluate_array", None)
    if ev is not None:
        return np.asarray(ev(pts), dtype=float)
    vals = f(pts)
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (len(pts),):
        raise ValueError("field callable must map (n, d) points to (n,) values")
    return vals


class _ExtSum:
    """Extended-real accumulator with the 0*(+-inf) = 0 convention: a finite part
    and the signs (+-1.0) of the infinite terms."""

    def __init__(self):
        self.finite = 0.0
        self.inf_signs: set = set()

    def add_weighted(self, w: np.ndarray, v: np.ndarray):
        """Add sum_i w_i v_i over nonzero weights, one dot product of the contiguous
        arrays.  A sum that is not finite is taken apart."""
        if v.shape != w.shape:
            raise ValueError(f"{v.shape} field values for {w.shape} nodes")

        def plus(w, v):  # the finite part plus the terms
            # _blas.dot runs BLAS dots without np.dot's floating-point error check,
            # so a sum meeting +inf and -inf, taken apart below, stays quiet; an
            # np.errstate per call would cost about 2.5 us, and the scenarios
            # workload adds some 17,000 such sums per pass
            return self.finite + _blas.dot(np.ascontiguousarray(w), np.ascontiguousarray(v))

        if math.isfinite(s := plus(w, v)):
            self.finite = s
            return
        if np.any(np.isnan(v)):
            raise IndeterminateIntegral("field evaluated to nan on the support")
        inf = np.isinf(v)
        self.inf_signs.update((np.sign(v[inf]) * np.sign(w[inf])).tolist())
        self.finite = plus(w[~inf], v[~inf])

    def value(self) -> float:
        if len(self.inf_signs) == 2:
            raise IndeterminateIntegral("positive and negative parts both diverge")
        return math.inf * max(self.inf_signs) if self.inf_signs else self.finite


_ONE = np.ones(1)
_ONE.setflags(write=False)


def integrate(mu: Measure, f) -> float:
    """Integral of a field against the charge, as an extended real.

    The field must be evaluable |mu|-a.e. on the support; -inf values are
    legal and propagate by the usual conventions.  Every component is
    integrated by its deterministic ``integrate`` nodes, so the result
    depends on the charge and the field alone.  Components without mass
    never see the field.  A kernel field sign * K_{d-2}(., y)
    (``ScalarField.kernel``) integrates exactly against layers with a
    ``newton_potential``: the result is sign times that potential at y.
    This is ``integrate_many`` of one field.
    """
    (value,) = integrate_many(mu, [f])
    if isinstance(value, Exception):
        raise value
    return value


def integrate_many(mu: Measure, fields) -> list:
    """Integrals of several fields against one charge, in one pass over its components.

    Entry j is bitwise what integrating ``fields[j]`` alone gives, or the
    exception that integral raises (the first one in component order): a
    failing field does not stop the others.  Kernel fields (``kernel_pole``
    set, of the charge's dimension d, so all of order d - 2) are grouped by
    pole; on each component's node cloud the kernel rows of the distinct
    poles are filled in tiles of at most ``kernels.TILE_BYTES`` and every
    member sharing a row reduces it by its own dot product, ``sign * row``
    against the weights.  Other fields are evaluated one by one.
    """
    fields = list(fields)
    results: list = [None] * len(fields)  # an exception once a member fails
    accs = [_ExtSum() for _ in fields]
    q = mu.dimension - 2
    poles: dict = {}  # pole bytes -> indices of the members with it
    others = []
    for j, f in enumerate(fields):
        pole = getattr(f, "kernel_pole", None)
        if pole is not None and pole.size == mu.dimension:
            poles.setdefault(pole.tobytes(), []).append(j)
        else:
            others.append(j)
    groups = list(poles.values())
    P = np.array([fields[g[0]].kernel_pole for g in groups])

    def add(j, w, values, *args):
        """Add values(*args) to member j unless it failed; its first exception is its result."""
        if results[j] is None:
            try:
                accs[j].add_weighted(w, values(*args))
            except Exception as exc:  # recorded per member; the other members go on
                results[j] = exc

    for c in mu.components:
        newton = c.newton_potential() if groups else None
        if newton is not None:
            # kernel fields against a plain layer: Newton's closed form at each pole
            for pole, members in zip(P, groups):
                at_pole = newton(pole[None, :])
                for j in members:
                    add(j, _ONE, np.multiply, fields[j].kernel_sign, at_pole)
        if not (others or (groups and newton is None)):
            continue  # no field needs the node cloud
        pts, w = c.discretize("integrate")
        if not np.all(w):  # zero-weight nodes never see a field
            pts, w = pts[w != 0.0], w[w != 0.0]
        if not len(w):
            continue
        if newton is None:
            rows = tile_rows(len(pts))
            tile = np.empty((min(rows, len(P)), len(pts)))
            for a in range(0, len(P), rows):
                K = kernel_rows(P[a:a + rows], pts, q, tile[:len(P) - a])
                for members, row in zip(groups[a:a + rows], K):
                    for j in members:
                        add(j, w, np.multiply, fields[j].kernel_sign, row)
        for j in others:
            add(j, w, _eval_field, fields[j], pts)

    for j, acc in enumerate(accs):
        if results[j] is None:
            try:
                results[j] = acc.value()
            except IndeterminateIntegral as exc:
                results[j] = exc
    return results


def total_mass(mu: Measure) -> float:
    """Sum of component masses in order (density-weighted layers by their quadrature)."""
    return sum((c.mass() for c in mu.components), 0.0)


# ---------------------------------------------------------------------------
# restriction / decomposition


def restrict(mu: Measure, S, complement: bool = False) -> Measure:
    """Restriction of the charge to S (or to its complement).

    Atoms and grid cells are kept or dropped by membership; layers are
    split analytically against concentric balls/annuli, other layer/domain
    pairs are clipped by their ``clip`` quadrature nodes.
    """
    out = []
    for c in mu.components:
        out.extend(c.restrict(S, complement))
    return Measure(mu.dimension, out)


def jordan(mu: Measure) -> tuple:
    """Jordan decomposition (mu+, mu-) by the sign of weights/values."""
    pos, neg = [], []
    for c in mu.components:
        p, n = c.jordan()
        pos.extend(p)
        neg.extend(n)
    return Measure(mu.dimension, pos), Measure(mu.dimension, neg)


# ---------------------------------------------------------------------------
# mollification / convolution-smoothing


@dataclass(frozen=True)
class Mollifier:
    """Radial probability bump (1 - |x/r|^2)^4 on B(0, r), normalized in closed form.

    C^3 at the rim; smooth enough for every test in this package (nothing
    differentiates it more than twice).
    """

    radius: float
    dimension: int = 2

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("mollifier radius must be positive")

    @property
    def normalizer(self) -> float:
        # int_{B_r} (1-|x/r|^2)^4 dx = 24 pi^(d/2) r^d / Gamma(d/2 + 5)
        d = self.dimension
        return math.gamma(d / 2.0 + 5.0) / (24.0 * math.pi ** (d / 2.0) * self.radius ** d)

    def profile(self, r2: np.ndarray) -> np.ndarray:
        """Density at squared distances `r2` from the centre."""
        t = np.clip(1.0 - r2 / self.radius ** 2, 0.0, None)
        t *= t  # two squarings: `** 4` goes through libm pow element by element
        t *= t
        return self.normalizer * t


def convolve_balayage(mu: Measure, smoother, O, cells_per_radius: int = 8) -> Measure:
    """Smooth a charge by a Jensen/Arens-Singer family or a single Mollifier.

    With a Mollifier the result is a GridDensity (each source unit of mass
    becomes a translated bump); with a point->Measure family the result is
    the pushed component list (atomic sources only).  The support condition
    requires each pushed measure to fit inside B(x, dist(supp mu, bd O)/2).
    """
    d = mu.dimension
    if not isinstance(O, Ball):
        raise TypeError("the support condition is implemented for Ball ambient sets")
    radius_budget = (O.radius - mu.support_radius(O.center)) / 2.0

    if isinstance(smoother, Mollifier):
        if smoother.radius >= radius_budget:
            raise ValueError(
                f"support condition violated: mollifier radius {smoother.radius} "
                f">= dist(supp, boundary)/2 = {radius_budget}")
        pts, wts = zip(*(c.discretize("mollify") for c in mu.components))
        return Measure(d, [_bumps_on_grid(np.vstack(pts), np.concatenate(wts), smoother,
                                          cells_per_radius)])

    # point -> Measure family; atomic sources only
    out = []
    for c in mu.components:
        if c.kind != "atom":
            raise ValueError("measure-family smoothing is implemented for atomic charges")
        for x, w in zip(c.points, c.weights):
            iota = smoother(x)
            if iota.support_radius(x) >= radius_budget:
                raise ValueError("support condition violated for the family measure at an atom")
            out.extend(iota.scaled(float(w)).components)
    return Measure(d, out)


# bytes of Gauss-Legendre sample coordinates per chunk of bumps (80 bumps in
# 2-D at 8 cells per radius, one at a time in 3-D), so the temporaries stay a few MB
BUMP_CHUNK_BYTES = 1 << 22


def _bumps_on_grid(pts: np.ndarray, wts: np.ndarray, moll: Mollifier,
                   cells_per_radius: int) -> GridDensity:
    d = pts.shape[1]
    h = moll.radius / cells_per_radius
    lo = pts.min(axis=0) - moll.radius - h
    # align the lattice to the first source point; a lattice-symmetric bump
    # has vanishing discrete multipole moments (cleaner far field)
    lo = pts[0] - h * np.ceil((pts[0] - lo) / h)
    hi = pts.max(axis=0) + moll.radius + h
    shape = tuple(int(math.ceil((hi[k] - lo[k]) / h)) + 1 for k in range(d))
    grid = GridDomain(lo, h, np.ones(shape, dtype=bool))
    values = np.zeros(shape)

    order = 3  # Gauss-Legendre nodes per cell axis
    gl_nodes, gl_w = quadrature.gauss_legendre_cell(d, order)
    ht = h * gl_nodes[:order, -1]  # the 1-D nodes times h: the last axis runs fastest
    reach = cells_per_radius + 1  # the padding by radius + h keeps every patch inside
    offsets = np.arange(-reach, reach + 1)
    live = wts != 0.0
    pts, wts = pts[live], wts[live]
    cells = (2 * reach + 1) ** d
    step = max(1, BUMP_CHUNK_BYTES // (8 * cells * len(gl_w) * d))
    flat_values = values.reshape(-1)
    for a in range(0, len(pts), step):
        p, w = pts[a:a + step], wts[a:a + step]
        base = np.rint((p - lo) / h).astype(int)
        _, flat = _stencil(base, reach, shape)
        # squared distance of every Gauss-Legendre node of every stencil cell to
        # its bump's centre, as an (n, cells, nodes) C-ordered block: coordinate k
        # of a node depends on the cell's k-th offset and the node's k-th 1-D
        # node only, so each axis is an (n, 2 reach + 1, order) block broadcast
        # into place, and the squares add left to right as np.sum adds d < 8 terms
        squares = []
        for k in range(d):
            centre = (base[:, k, None] + offsets) * h + lo[k]
            x = (centre[:, :, None] + ht) - p[:, k, None, None]
            at = [len(p)] + [1] * (2 * d)  # axes (bump, cell offsets, node indices)
            at[1 + k], at[1 + d + k] = len(offsets), order
            squares.append((x ** 2).reshape(at))
        r2 = sum(squares[1:], squares[0])
        # per-cell Gauss-Legendre mass of each translated bump, then exact rescale;
        # the (cells, nodes) block is C-ordered because gemv's last bits follow layout
        dens = moll.profile(r2.reshape(len(p), cells, len(gl_w)))
        cell_mass = (dens.reshape(-1, len(gl_w)) @ gl_w).reshape(len(p), cells) * h ** d
        s = cell_mass.sum(axis=1)
        if np.any(s <= 0.0):
            raise ValueError("mollifier bump lost under the grid resolution")
        # np.add.at adds in source order, so each cell sums its bumps as one loop would
        np.add.at(flat_values, flat.reshape(-1), ((w / s)[:, None] * cell_mass).reshape(-1))
    return GridDensity(grid, values)
