"""Finite compactly supported charges built from atoms, layers and grid densities.

A Measure is a finite list of components of four kinds:

* ``Atom(point, weight)``
* ``SphereUniform(center, radius, total)`` -- uniform (or density-weighted)
  mass on a sphere
* ``BallUniform(center, radius, total)`` -- uniform mass on a solid ball
* ``GridDensity(grid, values)`` -- per-cell masses on a GridDomain

Every kind implements one component protocol, and the measure-level
operations (integrate, total_mass, restrict, jordan, support, scaling,
JSON, mollifier sources) are plain loops over it:

* ``dimension``, ``mass()``, ``scaled(a)``, ``jordan()`` -> (positive, negative)
* ``to_json()`` and ``from_json(data)``; ``Measure.from_json`` picks the
  class by the ``"type"`` key
* ``support_radius(center)`` (exact) and ``support_points()`` (sampled)
* ``discretize(use, seed, index)`` -> (points, weights) for a use below
* ``restrict(S, complement)`` -> list of components
* ``resolution``: the lattice spacing of grid densities, 0 for exact kinds
* ``newton_potential()``: the exact potential of plain sphere and ball
  layers in d = 2, 3 by Newton's theorem; None for every other component

Atoms discretize to themselves and grid densities to their charged cell
centers, for every use.  Layers use quadrature nodes whose counts depend on
the use; each count is defined once, in the ``NODES`` table of its class:

=========  =======================  ====================  ===================
use        sphere, d = 2 or         sphere, plain,        ball (radial x
           density-weighted         d = 3                 angular nodes)
=========  =======================  ====================  ===================
support    64                       64                    8 x 64
integrate  rule default: 4096       2^16 seeded Monte-    32 x 256 (d = 2),
           trapezoid (d = 2),       Carlo, stream         32 x 1024 (d = 3)
           4096 product (d = 3)     ``sphere-mc-{i}``
clip       rule default (as above)  16384                 32 x 512
mollify    1024                     1024                  16 x 128
=========  =======================  ====================  ===================

``support`` feeds hulls and gaps, ``integrate`` feeds integration and the
quadrature clouds of potentials, ``clip`` feeds restriction of a layer to a
set that is not a shell around its center (against a concentric ball or
annulus, as ``S.shell(center)`` reports, a sphere layer is kept or dropped
whole and a ball layer is split analytically) and ``mollify`` feeds the
sources of mollifier smoothing.
Integrals are extended reals with the 0*(+-inf)=0 convention; a -inf/+inf
collision raises.

``integrate_many(mu, fields, seed)`` integrates a list of fields in one
pass over the components, and ``integrate`` is its one-field case, so there
is one accumulation path.  Kernel fields (``ScalarField.kernel``) are grouped
by (order, pole).  Against a plain layer they take Newton's closed form;
against any other component the kernel rows of the distinct poles are filled
on its node cloud by ``kernels.kernel_rows`` in tiles of at most
``kernels.TILE_BYTES``, one kernel pass per component, and each member
reduces its row by its own dot product ``sign * row`` against the weights.
Every entry is therefore bitwise the integral of that field alone, and
output bytes do not depend on how a family is batched.  Other fields are
evaluated one at a time.  A failing member's entry is its exception.

Measures are immutable after construction.  A sphere or ball layer builds
its node cloud once per (use, seed, index) on first ``discretize`` and hands
out that same pair of read-only arrays on every later call, so repeated
integrals of one measure pay for the quadrature rule, and for a Poisson
density on its nodes, once.  The cloud lives on the component: ``scaled``,
``jordan`` and ``restrict`` build new components, which start without one (a
layer that ``restrict`` keeps whole is returned as itself, cloud and all).  The Monte-Carlo streams are derived
from (seed, component index), so concurrent calls are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import quadrature
from .geometry import Ball, GridDomain, _stencil
from .kernels import k_eval_array, kernel_rows, tile_rows, unit_ball_volume

__all__ = [
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
class Atom:
    point: np.ndarray
    weight: float

    kind = "atom"
    resolution = 0.0

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))

    @property
    def dimension(self) -> int:
        return self.point.size

    def mass(self) -> float:
        return self.weight

    def scaled(self, a: float) -> "Atom":
        return Atom(self.point, a * self.weight)

    def jordan(self) -> tuple[list, list]:
        part = [Atom(self.point, abs(self.weight))]
        return (part, []) if self.weight >= 0 else ([], part)

    def to_json(self) -> dict:
        return {"type": self.kind, "point": self.point.tolist(), "weight": self.weight}

    @staticmethod
    def from_json(data: dict) -> "Atom":
        return Atom(np.asarray(data["point"], float), float(data["weight"]))

    def support_radius(self, center: np.ndarray) -> float:
        return float(np.linalg.norm(self.point - center))

    def support_points(self) -> np.ndarray:
        return self.point[None, :]

    def discretize(self, use: str = "integrate", seed: int = 0, index: int = 0):
        return self.point[None, :], np.array([self.weight])

    def newton_potential(self):
        return None

    def restrict(self, S, complement: bool = False) -> list:
        return [self] if S.contains(self.point) != complement else []


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
        object.__setattr__(self, "_clouds", {})  # (use, seed, index) -> discretize result

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

    def _rule(self, use: str, seed: int = 0, index: int = 0):
        """Nodes and mean-normalized weights of the layer for `use`."""
        return self._nodes(use, seed, index)

    def discretize(self, use: str = "integrate", seed: int = 0, index: int = 0):
        """Nodes and masses for `use`, built once per key and handed out read-only."""
        key = (use, seed, index)
        cloud = self._clouds.get(key)
        if cloud is None:
            pts, w = self._rule(use, seed, index)
            cloud = (pts, self.total * w)
            for a in cloud:
                a.setflags(write=False)
            # threads racing here build equal clouds; every caller gets the first stored
            cloud = self._clouds.setdefault(key, cloud)
        return cloud

    def _clip(self, S, complement: bool) -> list:
        """Node cloud of the layer clipped to S (or its complement), as atoms."""
        pts, w = self._rule("clip")
        keep = S.contains_array(pts) != complement
        return [Atom(p, self.total * wi) for p, wi, k in zip(pts, w, keep) if k and wi != 0.0]

    def newton_potential(self):
        """Exact potential pts -> values (Newton's theorem) in d = 2, 3, else None."""
        return self._newton if self.dimension in (2, 3) else None

    def _distance(self, pts: np.ndarray) -> np.ndarray:
        return np.linalg.norm(pts - self.center[None, :], axis=1)


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
    # sphere-rule nodes per use: (d = 2 or density-weighted, plain in d = 3);
    # None is the rule's default, "mc" the seeded Monte-Carlo stream
    NODES = {"support": (64, 64), "integrate": (None, "mc"), "clip": (None, 16384),
             "mollify": (1024, 1024)}

    def _nodes(self, use: str, seed: int = 0, index: int = 0):
        d = self.dimension
        n = self.NODES[use][self.density is None and d != 2]
        if n == "mc":
            nodes = quadrature.sphere_mc_nodes(d, quadrature.SPHERE_MC_SAMPLES, seed,
                                               f"sphere-mc-{index}")
            w = np.full(len(nodes), 1.0 / len(nodes))
        else:
            nodes, w = quadrature.sphere_rule(d, n)
        return self.center[None, :] + self.radius * nodes, w

    def _rule(self, use: str, seed: int = 0, index: int = 0):
        pts, w = self._nodes(use, seed, index)
        if self.density is not None:
            w = w * _eval_field(self.density, pts)
        return pts, w

    def mass(self) -> float:
        """`total`, or the quadrature mass of a density-weighted layer."""
        if self.density is None:
            return self.total
        pts, w = self._nodes("integrate")
        return self.total * float(np.dot(w, _eval_field(self.density, pts)))

    def to_json(self) -> dict:
        if self.density is not None and self.density_spec is None:
            raise ValueError("cannot serialize a sphere layer with an opaque density callable")
        return {"type": self.kind, "center": self.center.tolist(), "radius": self.radius,
                "total": self.total, "density_spec": self.density_spec}

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
                                         np.maximum(self._distance(pts), self.radius))


@dataclass(frozen=True, eq=False)
class BallUniform(_Layer):
    """Mass `total` spread uniformly over the solid ball |x - center| < radius."""

    kind = "ball_uniform"
    # ball-rule (radial, angular) nodes per use; None is the rule's default
    NODES = {"support": (8, 64), "integrate": (None, None), "clip": (32, 512),
             "mollify": (16, 128)}

    def _nodes(self, use: str, seed: int = 0, index: int = 0):
        nodes, w = quadrature.ball_rule(self.dimension, *self.NODES[use])
        return self.center[None, :] + self.radius * nodes, w

    def to_json(self) -> dict:
        return {"type": self.kind, "center": self.center.tolist(), "radius": self.radius,
                "total": self.total}

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
        r = self._distance(pts)
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

    def to_json(self) -> dict:
        return {"type": self.kind, "grid": self.grid.to_json(),
                "values": np.asarray(self.values).ravel().tolist()}

    @staticmethod
    def from_json(data: dict) -> "GridDensity":
        grid = GridDomain.from_json(data["grid"])
        return GridDensity(grid, np.asarray(data["values"], float).reshape(grid.shape))

    def support_radius(self, center: np.ndarray) -> float:
        pts = self.support_points()
        if not len(pts):
            return 0.0
        return (float(np.max(np.linalg.norm(pts - center, axis=1)))
                + 0.5 * self.grid.spacing * math.sqrt(self.dimension))

    def support_points(self) -> np.ndarray:
        return self.discretize()[0]

    def discretize(self, use: str = "integrate", seed: int = 0, index: int = 0):
        """Centers and masses of the charged cells."""
        vals = np.asarray(self.values)
        live = vals != 0.0
        return self.grid.origin[None, :] + np.argwhere(live) * self.grid.spacing, vals[live]

    def newton_potential(self):
        return None

    def restrict(self, S, complement: bool = False) -> list:
        keep = S.contains_array(self.grid.cell_centers()) != complement
        vals = np.zeros(self.grid.shape)
        kept = tuple(np.argwhere(self.grid.mask)[keep].T)
        vals[kept] = np.asarray(self.values)[kept]
        return [GridDensity(self.grid, vals)]


_KINDS = {cls.kind: cls for cls in (Atom, SphereUniform, BallUniform, GridDensity)}


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
        return scale / np.linalg.norm(pts - x[None, :], axis=1) ** d

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
            if (c.kind == "atom"
                    and np.any(np.linalg.norm(pts - c.point[None, :], axis=1) <= ATOM_TOL)):
                mass += c.weight
        return mass

    def to_json(self) -> dict:
        return {"dimension": self.dimension,
                "components": [c.to_json() for c in self.components]}

    @staticmethod
    def from_json(data: dict) -> "Measure":
        comps = []
        for c in data["components"]:
            if c["type"] not in _KINDS:
                raise ValueError(f"unknown component type {c['type']!r}")
            comps.append(_KINDS[c["type"]].from_json(c))
        return Measure(int(data["dimension"]), comps)

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
    """Extended-real accumulator with the 0*(+-inf) = 0 convention."""

    def __init__(self):
        self.finite = 0.0
        self.pos_inf = False
        self.neg_inf = False

    def add_weighted(self, weights: np.ndarray, values: np.ndarray, dense: bool = False):
        """Add sum_i w_i v_i; `dense` says that no weight is zero.

        Without a zero weight the masks below keep every node, so a finite dot
        of the contiguous arrays is bitwise the sum they give; anything else
        takes them.
        """
        w = np.asarray(weights, float)
        v = np.asarray(values, float)
        if dense and v.shape == w.shape:
            s = float(np.dot(np.ascontiguousarray(w), np.ascontiguousarray(v)))
            if math.isfinite(s):
                self.finite += s
                return
        live = w != 0.0  # zero-weight nodes never see the field value
        w, v = w[live], v[live]
        if np.any(np.isnan(v)):
            raise IndeterminateIntegral("field evaluated to nan on the support")
        inf_mask = np.isinf(v)
        if inf_mask.any():
            signs = np.sign(v[inf_mask]) * np.sign(w[inf_mask])
            if np.any(signs > 0):
                self.pos_inf = True
            if np.any(signs < 0):
                self.neg_inf = True
            w, v = w[~inf_mask], v[~inf_mask]
        self.finite += float(np.dot(w, v))

    def value(self) -> float:
        if self.pos_inf and self.neg_inf:
            raise IndeterminateIntegral("positive and negative parts both diverge")
        if self.pos_inf:
            return math.inf
        if self.neg_inf:
            return -math.inf
        return self.finite


_ONE = np.ones(1)
_ONE.setflags(write=False)


def integrate(mu: Measure, f, seed: int = 0) -> float:
    """Integral of a field against the charge, as an extended real.

    The field must be evaluable |mu|-a.e. on the support; -inf values are
    legal and propagate by the usual conventions.  `seed` feeds the d=3
    Monte-Carlo sphere streams only.  Components without mass never see
    the field.  A kernel field sign * K_{d-2}(., y) (``ScalarField.kernel``)
    integrates exactly against layers with a ``newton_potential``: the
    result is sign times that potential at y.  This is ``integrate_many``
    of one field.
    """
    (value,) = integrate_many(mu, [f], seed)
    if isinstance(value, Exception):
        raise value
    return value


def integrate_many(mu: Measure, fields, seed: int = 0) -> list:
    """Integrals of several fields against one charge, in one pass over its components.

    Entry j is bitwise what integrating ``fields[j]`` alone gives, or the
    exception that integral raises (the first one in component order): a
    failing field does not stop the others.  Kernel fields (``kernel_pole``
    set, of the charge's dimension) are grouped by (order, pole); on each
    component's node cloud the kernel rows of the distinct poles are filled
    in tiles of at most ``kernels.TILE_BYTES`` and every member sharing a
    row reduces it by its own dot product, ``sign * row`` against the
    weights.  Other fields are evaluated one by one.
    """
    fields = list(fields)
    results: list = [None] * len(fields)  # an exception once a member fails
    accs = [_ExtSum() for _ in fields]
    poles: dict = {}  # kernel order -> {pole bytes: indices of the members with it}
    others = []
    for j, f in enumerate(fields):
        pole = getattr(f, "kernel_pole", None)
        if pole is not None and pole.size == mu.dimension:
            poles.setdefault(f.kernel_order, {}).setdefault(pole.tobytes(), []).append(j)
        else:
            others.append(j)
    kernel_sets = [(q, np.array([fields[g[0]].kernel_pole for g in by_pole.values()]),
                    list(by_pole.values())) for q, by_pole in poles.items()]

    def add(j, w, dense, values, *args):
        """Add values(*args) to member j unless it failed; its first exception is its result."""
        if results[j] is None:
            try:
                accs[j].add_weighted(w, values(*args), dense)
            except Exception as exc:  # recorded per member; the other members go on
                results[j] = exc

    for i, c in enumerate(mu.components):
        newton = c.newton_potential() if kernel_sets else None
        if newton is not None:
            # kernel fields against a plain layer: Newton's closed form at each pole
            for _, P, groups in kernel_sets:
                for pole, members in zip(P, groups):
                    at_pole = newton(pole[None, :])
                    for j in members:
                        add(j, _ONE, True, np.multiply, fields[j].kernel_sign, at_pole)
        if not (others or (kernel_sets and newton is None)):
            continue  # no field needs the node cloud
        pts, w = c.discretize("integrate", seed, i)
        if not np.any(w):
            continue
        dense = bool(np.all(w != 0.0))
        if newton is None:
            rows = tile_rows(len(pts))
            for q, P, groups in kernel_sets:
                tile = np.empty((min(rows, len(P)), len(pts)))
                for a in range(0, len(P), rows):
                    K = kernel_rows(P[a:a + rows], pts, q, tile[:len(P) - a])
                    for members, row in zip(groups[a:a + rows], K):
                        for j in members:
                            add(j, w, dense, np.multiply, fields[j].kernel_sign, row)
        for j in others:
            add(j, w, dense, _eval_field, fields[j], pts)

    for j, acc in enumerate(accs):
        if results[j] is None:
            try:
                results[j] = acc.value()
            except IndeterminateIntegral as exc:
                results[j] = exc
    return results


def total_mass(mu: Measure) -> float:
    """Sum of component masses (density-weighted layers by their quadrature)."""
    m = 0.0
    for c in mu.components:
        m += c.mass()
    return m


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

    def density(self, pts: np.ndarray, center=None) -> np.ndarray:
        """Density at points `pts` (..., d) of the bump centred at `center`.

        `center` broadcasts against `pts`, so one call can evaluate a batch
        of bumps, e.g. pts (n, m, d) against centres (n, 1, d).
        """
        pts = np.atleast_2d(pts)
        c = np.zeros(self.dimension) if center is None else np.asarray(center, float)
        u2 = np.sum((pts - c) ** 2, axis=-1) / self.radius ** 2
        body = np.clip(1.0 - u2, 0.0, None) ** 4
        return self.normalizer * body

    def mass(self) -> float:
        """Mass under the module's ball quadrature (1 up to rule exactness)."""
        nodes, w = quadrature.ball_rule(self.dimension)
        vol = unit_ball_volume(self.dimension) * self.radius ** self.dimension
        vals = self.density(self.radius * nodes)
        return vol * float(np.dot(w, vals))


def _source_atoms(mu: Measure) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a measure to a weighted atom cloud for convolution purposes."""
    pts, wts = zip(*(c.discretize("mollify") for c in mu.components))
    return np.vstack(pts), np.concatenate(wts)


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
        pts, wts = _source_atoms(mu)
        return Measure(d, [_bumps_on_grid(pts, wts, smoother, cells_per_radius)])

    # point -> Measure family; atomic sources only
    out = []
    for c in mu.components:
        if c.kind != "atom":
            raise ValueError("measure-family smoothing is implemented for atomic charges")
        iota = smoother(c.point)
        if iota.support_radius(c.point) >= radius_budget:
            raise ValueError("support condition violated for the family measure at an atom")
        out.extend(iota.scaled(c.weight).components)
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

    gl_nodes, gl_w = quadrature.gauss_legendre_cell(d, 3)
    reach = cells_per_radius + 1  # the padding by radius + h keeps every patch inside
    live = wts != 0.0
    pts, wts = pts[live], wts[live]
    cells = (2 * reach + 1) ** d
    step = max(1, BUMP_CHUNK_BYTES // (8 * cells * len(gl_w) * d))
    flat_values = values.reshape(-1)
    for a in range(0, len(pts), step):
        p, w = pts[a:a + step], wts[a:a + step]
        idx, flat = _stencil(np.rint((p - lo) / h).astype(int), reach, shape)
        # per-cell Gauss-Legendre mass of each translated bump, then exact rescale;
        # the (cells, nodes) block is C-ordered because gemv's last bits follow layout
        sample = (idx * h + lo)[:, :, None, :] + h * gl_nodes
        dens = np.ascontiguousarray(moll.density(sample, center=p[:, None, None, :]))
        cell_mass = (dens.reshape(-1, len(gl_w)) @ gl_w).reshape(len(p), cells) * h ** d
        s = cell_mass.sum(axis=1)
        if np.any(s <= 0.0):
            raise ValueError("mollifier bump lost under the grid resolution")
        # np.add.at adds in source order, so each cell sums its bumps as one loop would
        np.add.at(flat_values, flat.reshape(-1), ((w / s)[:, None] * cell_mass).reshape(-1))
    return GridDensity(grid, values)
