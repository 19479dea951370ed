"""Points, model domains, parallel sets, inversion and the inward-filled hull.

Points are plain numpy vectors of length d.  The point at infinity produced
by inversion at its own center is the module-level sentinel ``INFINITY``,
never a large float.  All domain objects are immutable after construction
and safe to share between threads.

Domains answer their own shape questions, so callers never branch on type:
``contains``/``contains_array``, ``diameter``, ``shell(center)`` (the radii
(lo, hi) when the domain is {lo < |x - center| < hi}, else None),
``boundary_distance(x)`` on balls and annuli, and ``centers()`` (every window
cell) on grids.  ``_Composite`` is the union or intersection of two domains.

Two shape questions route a probe sphere without testing its nodes:
``holds(x, r)`` is True only when the closed ball of radius r about x lies in
the domain, and ``misses(x, r)`` only when that ball is disjoint from the
domain's closure.  Each answer clears a margin (``_SLACK``) far above the
rounding of a sphere-rule node x + r u and of its ``_distance``, so a held
sphere has every node inside by ``contains_array`` and a missed one none.
False means "not proven": a grid answers False to both, and a composite
combines the answers of its parts.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .quadrature import _unit_directions

__all__ = [
    "INFINITY",
    "Ball",
    "Annulus",
    "GridDomain",
    "point",
    "inversion",
    "kelvin_transform",
    "parallel_set",
    "inward_filled_hull",
]


class _PointAtInfinity:
    """Tagged stand-in for the Alexandroff point; compares equal only to itself."""

    __slots__ = ()

    def __repr__(self):
        return "INFINITY"


INFINITY = _PointAtInfinity()


def point(*coords: float) -> np.ndarray:
    """Build a point from coordinates: point(1, 0) -> array([1., 0.])."""
    return np.asarray(coords, dtype=float)


def _as_point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"a point must be a 1-d coordinate vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point coordinates must be finite")
    return x


def _in_dimension_of(domain, pts: np.ndarray) -> np.ndarray:
    """pts, once its last axis is checked to hold points of the domain's dimension."""
    if pts.shape[-1:] != (domain.dimension,):
        raise ValueError(f"a point of dimension {pts.shape[-1] if pts.ndim else 0} "
                         f"given to a domain of dimension {domain.dimension}")
    return pts


def _distance(pts: np.ndarray, c) -> np.ndarray:
    """|p - c| for each row p of an (n, d) stack, bitwise np.linalg.norm(pts - c, axis=1).

    Axis by axis, left to right, each difference is squared and summed, as
    numpy's reduction sums an axis shorter than eight; skipping the (n, d)
    difference and that generic reduction makes 4,096 2-D points cost 25 us
    instead of 56 us.  A single point keeps np.linalg.norm(x - c), whose dot
    product can round the last bit differently.
    """
    if pts.shape[1] != len(c):
        raise ValueError(f"points of dimension {pts.shape[1]} against a center of "
                         f"dimension {len(c)}")
    t = pts[:, 0] - c[0]
    sq = t * t
    for k in range(1, len(c)):
        t = pts[:, k] - c[k]
        sq += t * t
    return np.sqrt(sq, out=sq)


# relative margin of holds/misses: a node x + r u rounds by a few ulps of |x| + r,
# and its _distance to a center by a few more, both far below this
_SLACK = 1e-12


def _reach(domain, x, r: float, radius: float) -> tuple[float, float]:
    """|x - center| for a sphere of radius r about x, and the margin a holds/misses
    answer must clear: _SLACK times the sizes of x, the center, r and `radius`."""
    x = _in_dimension_of(domain, np.asarray(x, dtype=float)).tolist()
    c = domain.center.tolist()  # math on floats: a few times faster than on numpy scalars
    rho = math.dist(x, c)
    return rho, _SLACK * (rho + r + radius + math.hypot(*x) + math.hypot(*c))


@dataclass(frozen=True, eq=False)
class Ball:
    """Open Euclidean ball."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center))
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")

    @property
    def dimension(self) -> int:
        return self.center.size

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def shell(self, center) -> tuple | None:
        return (0.0, self.radius) if np.allclose(center, self.center, atol=1e-14) else None

    def boundary_distance(self, x) -> float:
        x = _in_dimension_of(self, np.asarray(x, dtype=float))
        return float(self.radius - np.linalg.norm(x - self.center))

    def contains(self, x, margin: float = 0.0) -> bool:
        """True if x lies in the open ball, shrunk inward by `margin`."""
        if x is INFINITY:
            return False
        x = _in_dimension_of(self, np.asarray(x, dtype=float))
        return float(np.linalg.norm(x - self.center)) < self.radius - margin

    # kept apart from contains(): _distance and norm(x - c) can differ in the last bit
    def contains_array(self, pts: np.ndarray) -> np.ndarray:
        pts = _in_dimension_of(self, np.atleast_2d(pts))
        return _distance(pts, self.center) < self.radius

    def holds(self, x, r: float) -> bool:
        rho, slack = _reach(self, x, r, self.radius)
        return rho + r < self.radius - slack

    def misses(self, x, r: float) -> bool:
        rho, slack = _reach(self, x, r, self.radius)
        return rho - r > self.radius + slack

    def boundary_points(self, n: int) -> np.ndarray:
        """n points on the sphere, along `quadrature._unit_directions`."""
        return self.center + self.radius * _unit_directions(self.dimension, n)

    def closure_contains(self, x) -> bool:
        if x is INFINITY:
            return False
        x = _in_dimension_of(self, np.asarray(x, dtype=float))
        return float(np.linalg.norm(x - self.center)) <= self.radius


@dataclass(frozen=True, eq=False)
class Annulus:
    """Open annulus r_in < |x - center| < r_out."""

    center: np.ndarray
    r_in: float
    r_out: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center))
        if not 0 < self.r_in < self.r_out < math.inf:
            raise ValueError(f"need 0 < r_in < r_out < inf, got {self.r_in}, {self.r_out}")

    @property
    def dimension(self) -> int:
        return self.center.size

    @property
    def diameter(self) -> float:
        return 2.0 * self.r_out

    def shell(self, center) -> tuple | None:
        return (self.r_in, self.r_out) if np.allclose(center, self.center, atol=1e-14) \
            else None

    def boundary_distance(self, x) -> float:
        x = _in_dimension_of(self, np.asarray(x, dtype=float))
        rho = float(np.linalg.norm(x - self.center))
        return min(rho - self.r_in, self.r_out - rho)

    def contains(self, x) -> bool:
        if x is INFINITY:
            return False
        x = _in_dimension_of(self, np.asarray(x, dtype=float))
        r = float(np.linalg.norm(x - self.center))
        return self.r_in < r < self.r_out

    def contains_array(self, pts: np.ndarray) -> np.ndarray:
        pts = _in_dimension_of(self, np.atleast_2d(pts))
        r = _distance(pts, self.center)
        return (r > self.r_in) & (r < self.r_out)

    def holds(self, x, r: float) -> bool:
        rho, slack = _reach(self, x, r, self.r_out)
        return self.r_in + slack < rho - r and rho + r < self.r_out - slack

    def misses(self, x, r: float) -> bool:
        rho, slack = _reach(self, x, r, self.r_out)
        return rho + r < self.r_in - slack or rho - r > self.r_out + slack

    def boundary_points(self, n: int) -> np.ndarray:
        inner = Ball(self.center, self.r_in).boundary_points(n // 2)
        outer = Ball(self.center, self.r_out).boundary_points(n - n // 2)
        return np.vstack([inner, outer])


@dataclass(frozen=True, eq=False)
class GridDomain:
    """Axis-aligned lattice of cells; cell (i1,..,id) is centered at origin + idx*spacing.

    The boolean mask selects which cells belong to the domain.  Boundary
    cells are mask cells adjacent (face-wise) to unmasked or out-of-window
    cells; compactness inside another GridDomain means staying at least one
    cell away from that domain's boundary cells.
    """

    origin: np.ndarray
    spacing: float
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "origin", _as_point(self.origin))
        mask = np.asarray(self.mask, dtype=bool)
        if mask.ndim != self.origin.size:
            raise ValueError("mask rank must match origin dimension")
        if not mask.any():
            raise ValueError("grid mask must be nonempty")
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)
        if self.spacing <= 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")

    @property
    def dimension(self) -> int:
        return self.origin.size

    @property
    def shape(self) -> tuple:
        return self.mask.shape

    @property
    def diameter(self) -> float:
        return float(max(self.shape) * self.spacing)

    def shell(self, center) -> None:
        return None

    def centers(self) -> np.ndarray:
        """(n, d) centers of every window cell, masked or not, in C index order."""
        return self.origin[None, :] + np.indices(self.shape).reshape(self.dimension, -1).T \
            * self.spacing

    def cell_centers(self) -> np.ndarray:
        """(n, d) array of centers of masked cells, in C index order."""
        idx = np.argwhere(self.mask)
        return self.origin[None, :] + idx * self.spacing

    def index_of(self, x) -> tuple | None:
        """Grid index of the cell containing x, or None if outside the window."""
        x = np.asarray(x, dtype=float)
        idx = np.rint((x - self.origin) / self.spacing).astype(int)
        if np.any(idx < 0) or np.any(idx >= np.asarray(self.shape)):
            return None
        return tuple(idx)

    def contains(self, x) -> bool:
        if x is INFINITY:
            return False
        idx = self.index_of(_in_dimension_of(self, np.asarray(x, dtype=float)))
        return idx is not None and bool(self.mask[idx])

    def contains_array(self, pts: np.ndarray) -> np.ndarray:
        pts = _in_dimension_of(self, np.atleast_2d(pts))
        idx = np.rint((pts - self.origin[None, :]) / self.spacing).astype(int)
        ok = np.all((idx >= 0) & (idx < np.asarray(self.shape)[None, :]), axis=1)
        out = np.zeros(len(pts), dtype=bool)
        if ok.any():
            sel = tuple(idx[ok].T)
            out[ok] = self.mask[sel]
        return out

    def holds(self, x, r: float) -> bool:
        return False

    def misses(self, x, r: float) -> bool:
        return False

    def boundary_cells(self) -> np.ndarray:
        """Boolean array marking mask cells adjacent to unmasked/out-of-window cells."""
        return self.mask & ~np.logical_and.reduce(list(_face_neighbours(self.mask)))

    def with_mask(self, mask: np.ndarray) -> "GridDomain":
        return GridDomain(self.origin, self.spacing, mask)

    def to_json(self) -> dict:
        return {
            "origin": self.origin.tolist(),
            "spacing": self.spacing,
            "shape": list(self.shape),
            "mask_rle": _rle_encode(self.mask),
        }

    @staticmethod
    def from_json(data: dict) -> "GridDomain":
        shape = tuple(data["shape"])
        mask = _rle_decode(data["mask_rle"], int(np.prod(shape))).reshape(shape)
        return GridDomain(np.asarray(data["origin"], float), float(data["spacing"]), mask)


class _Composite:
    """The union (or intersection) of two domains, for membership tests."""

    def __init__(self, a, b, union: bool):
        self.a, self.b, self.union = a, b, union
        self.dimension = a.dimension

    def contains(self, x) -> bool:
        if self.union:
            return self.a.contains(x) or self.b.contains(x)
        return self.a.contains(x) and self.b.contains(x)

    def contains_array(self, pts) -> np.ndarray:
        a, b = self.a.contains_array(pts), self.b.contains_array(pts)
        return a | b if self.union else a & b

    def holds(self, x, r: float) -> bool:
        if self.union:
            return self.a.holds(x, r) or self.b.holds(x, r)
        return self.a.holds(x, r) and self.b.holds(x, r)

    def misses(self, x, r: float) -> bool:
        if self.union:
            return self.a.misses(x, r) and self.b.misses(x, r)
        return self.a.misses(x, r) or self.b.misses(x, r)


def _stencil(base: np.ndarray, reach: int, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The (2 reach + 1)^d lattice cells around each row of the (n, d) index array `base`.

    Returns `(idx, flat)`: idx is (n, (2 reach + 1)^d, d) with the offsets in
    C order (last axis fastest, as `np.indices` lists a box), flat the C-order
    positions of those cells in an array of `shape`.  A cell outside `shape`
    raises: callers pad their lattice so that this cannot happen, and never clip.
    """
    d = base.shape[1]
    if np.any(base < reach) or np.any(base + reach >= np.asarray(shape)):
        raise ValueError(f"a {2 * reach + 1}^{d} stencil leaves the {shape} lattice")
    offsets = np.indices((2 * reach + 1,) * d).reshape(d, -1).T - reach
    idx = base[:, None, :] + offsets[None, :, :]
    flat = np.ravel_multi_index(tuple(np.moveaxis(idx, -1, 0)), shape)
    return idx, flat


def _face_neighbours(a: np.ndarray) -> Iterator[np.ndarray]:
    """For each axis in turn, the value of every cell's face neighbour at i + 1,
    then at i - 1; past the window edge the neighbour is False (0)."""
    for axis in range(a.ndim):
        for dst, src in ((slice(None, -1), slice(1, None)), (slice(1, None), slice(None, -1))):
            out = np.zeros_like(a)
            out[(slice(None),) * axis + (dst,)] = a[(slice(None),) * axis + (src,)]
            yield out


def _run_reach(reached: np.ndarray, free: np.ndarray, axis: int) -> np.ndarray:
    """The cells of `free` on a run of `free` cells along `axis` holding a `reached` cell."""
    free, reached = np.moveaxis(free, axis, -1), np.moveaxis(reached, axis, -1)
    start = free.copy()  # a run starts at a free cell whose predecessor is not free
    start[..., 1:] &= ~free[..., :-1]
    run = np.cumsum(start, axis=None)  # a row starts a new run, so runs never span rows
    hit = np.zeros(run[-1] + 1, dtype=bool)
    hit[run[(reached & free).ravel()]] = True
    return np.moveaxis(free & hit[run].reshape(free.shape), -1, axis)


def _rle_encode(mask: np.ndarray) -> list:
    """Run lengths of the flattened mask, alternating False/True, starting with False."""
    flat = mask.ravel()
    runs = []
    current = False
    count = 0
    for v in flat:
        if bool(v) == current:
            count += 1
        else:
            runs.append(count)
            current = bool(v)
            count = 1
    runs.append(count)
    return runs


def _rle_decode(runs: list, size: int) -> np.ndarray:
    out = np.zeros(size, dtype=bool)
    pos = 0
    current = False
    for n in runs:
        if current:
            out[pos:pos + n] = True
        pos += n
        current = not current
    if pos != size:
        raise ValueError("run-length data does not match mask size")
    return out


def inversion(x, o):
    """Inversion in the unit sphere centered at o: x -> o + (x-o)/|x-o|^2.

    The center maps to INFINITY and INFINITY maps back to the center; the
    map is an involution everywhere else.
    """
    if x is INFINITY:
        return _as_point(o).copy()
    x = _as_point(x)
    o = _as_point(o)
    diff = x - o
    r2 = float(diff @ diff)
    if r2 == 0.0:
        return INFINITY
    return o + diff / r2


def kelvin_transform(u, o):
    """Conjugate a field by inversion at o: v(y) = |y-o|^(2-d) * u(o + (y-o)/|y-o|^2),
    with d = len(o).

    Preserves (sub)harmonicity; needs d >= 2 and u defined away from o.
    Evaluation at o itself is out of domain (raises from the inversion’s
    norm being zero only through the returned field's domain check).
    """
    from .fields import ScalarField

    o = _as_point(o)
    d = len(o)
    if d < 2:
        raise ValueError("kelvin transform needs d >= 2")

    def _eval(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        diff = pts - o[None, :]
        r2 = np.einsum("ij,ij->i", diff, diff)
        if np.any(r2 == 0.0):
            raise ValueError("kelvin-transformed field is undefined at the inversion center")
        inverted = o[None, :] + diff / r2[:, None]
        vals = u.evaluate_array(inverted)
        if d == 2:
            return vals
        return r2 ** ((2.0 - d) / 2.0) * vals

    # a ball around o inverts to the outside of a ball; it stays implicit (None)
    dom = None
    base = getattr(u, "domain", None)
    if isinstance(base, Annulus) and np.allclose(base.center, o):
        dom = Annulus(o, 1.0 / base.r_out, 1.0 / base.r_in)
    return ScalarField(_eval, domain=dom)


def parallel_set(base, r: float):
    """Outer r-parallel set: the union of open r-balls over the base set.

    Balls and annuli dilate radially.  A grid mask dilates by the lattice ball:
    it is ORed with its shifts by every lattice offset k with |k| h <= r, so a
    cell joins when its center lies within r of a mask cell's center.  That is
    one pass over the window per offset, about (r / h)^d of them.
    """
    if r <= 0:
        raise ValueError(f"parallel radius must be positive, got {r}")
    if isinstance(base, Ball):
        return Ball(base.center, base.radius + r)
    if isinstance(base, Annulus):
        r_in = base.r_in - r
        if r_in <= 0:
            return Ball(base.center, base.r_out + r)
        return Annulus(base.center, r_in, base.r_out + r)
    if isinstance(base, GridDomain):
        mask, h, shape = base.mask, base.spacing, base.shape
        m = int(r / h) + 1  # bounds the search only; the |k| h <= r test decides
        out = mask.copy()
        for k in itertools.product(*(range(-min(m, n - 1), min(m, n - 1) + 1) for n in shape)):
            if math.sqrt(sum(i * i for i in k)) * h <= r:
                dst = tuple(slice(max(i, 0), n + min(i, 0)) for i, n in zip(k, shape))
                src = tuple(slice(max(-i, 0), n + min(-i, 0)) for i, n in zip(k, shape))
                out[dst] |= mask[src]
        return base.with_mask(out)
    raise TypeError(f"unsupported base set {type(base).__name__}")


def inward_filled_hull(K: GridDomain, O: GridDomain) -> GridDomain:
    """K together with every component of O \\ K that does not reach O's boundary.

    Components are taken with face connectivity (4 in d=2, 6 in d=3).  The
    exterior is found by flooding O \\ K from its cells on O's boundary: each
    step adds, axis by axis, every run of O \\ K cells along that axis that
    holds a reached cell, until nothing changes; everything in O \\ K the
    flood cannot reach is a hole and gets filled.  The grid window is finite,
    so components touching the window frame count as touching infinity (the
    window frame stands in for the Alexandroff point; truncation effects are
    the caller's responsibility).
    """
    if K.shape != O.shape or K.spacing != O.spacing or not np.allclose(K.origin, O.origin):
        raise ValueError("K and O must live on the same grid")
    if np.any(K.mask & ~O.mask):
        raise ValueError("hull precondition violated: K is not contained in O")
    boundary = O.boundary_cells()
    if np.any(K.mask & boundary):
        raise ValueError("hull precondition violated: K touches the boundary cells of O")

    complement = O.mask & ~K.mask
    reached, before = boundary & complement, None
    while before is None or not np.array_equal(reached, before):
        before = reached
        for axis in range(K.dimension):
            reached = _run_reach(reached, complement, axis)
    return K.with_mask(O.mask & ~reached)
