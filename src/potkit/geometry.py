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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
        return float(self.radius - np.linalg.norm(np.asarray(x, dtype=float) - self.center))

    def contains(self, x, margin: float = 0.0) -> bool:
        """True if x lies in the open ball, shrunk inward by `margin`."""
        if x is INFINITY:
            return False
        return float(np.linalg.norm(np.asarray(x, dtype=float) - self.center)) < self.radius - margin

    # kept apart from contains(): norm(x) and norm(X, axis=1) can differ in the last bit
    def contains_array(self, pts: np.ndarray, margin: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.linalg.norm(pts - self.center[None, :], axis=1) < self.radius - margin

    def boundary_points(self, n: int) -> np.ndarray:
        """n points on the sphere: uniform angles (d=2), spiral nodes (d=3)."""
        from .quadrature import circle_nodes, sphere_spiral_nodes

        if self.dimension == 2:
            return self.center + self.radius * circle_nodes(n)
        if self.dimension == 3:
            return self.center + self.radius * sphere_spiral_nodes(n)
        raise NotImplementedError("boundary sampling implemented for d in {2, 3}")

    def closure_contains(self, x) -> bool:
        if x is INFINITY:
            return False
        return float(np.linalg.norm(np.asarray(x, dtype=float) - self.center)) <= self.radius


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
        rho = float(np.linalg.norm(np.asarray(x, dtype=float) - self.center))
        return min(rho - self.r_in, self.r_out - rho)

    def contains(self, x, margin: float = 0.0) -> bool:
        if x is INFINITY:
            return False
        r = float(np.linalg.norm(np.asarray(x, dtype=float) - self.center))
        return self.r_in + margin < r < self.r_out - margin

    def contains_array(self, pts: np.ndarray, margin: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(pts)
        r = np.linalg.norm(pts - self.center[None, :], axis=1)
        return (r > self.r_in + margin) & (r < self.r_out - margin)

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

    def cell_volume(self) -> float:
        return self.spacing ** self.dimension

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

    def contains(self, x, margin: float = 0.0) -> bool:
        if x is INFINITY:
            return False
        idx = self.index_of(x)
        return idx is not None and bool(self.mask[idx])

    def contains_array(self, pts: np.ndarray, margin: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(pts)
        idx = np.rint((pts - self.origin[None, :]) / self.spacing).astype(int)
        ok = np.all((idx >= 0) & (idx < np.asarray(self.shape)[None, :]), axis=1)
        out = np.zeros(len(pts), dtype=bool)
        if ok.any():
            sel = tuple(idx[ok].T)
            out[ok] = self.mask[sel]
        return out

    def boundary_cells(self) -> np.ndarray:
        """Boolean array marking mask cells adjacent to unmasked/out-of-window cells."""
        from scipy import ndimage  # imported on use: scipy.ndimage is slow to load

        interior = ndimage.binary_erosion(self.mask, structure=_face_structure(self.dimension),
                                          border_value=0)
        return self.mask & ~interior

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

    def contains(self, x, margin: float = 0.0) -> bool:
        if self.union:
            return self.a.contains(x, margin) or self.b.contains(x, margin)
        return self.a.contains(x, margin) and self.b.contains(x, margin)

    def contains_array(self, pts, margin: float = 0.0) -> np.ndarray:
        a, b = self.a.contains_array(pts, margin), self.b.contains_array(pts, margin)
        return a | b if self.union else a & b


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


def _face_structure(d: int) -> np.ndarray:
    # 4-connectivity in d=2, 6-connectivity in d=3
    from scipy import ndimage

    return ndimage.generate_binary_structure(d, 1)


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


def kelvin_transform(u, o, d: int):
    """Conjugate a field by inversion at o: v(y) = |y-o|^(2-d) * u(o + (y-o)/|y-o|^2).

    Preserves (sub)harmonicity; needs d >= 2 and u defined away from o.
    Evaluation at o itself is out of domain (raises from the inversion’s
    norm being zero only through the returned field's domain check).
    """
    from .fields import ScalarField

    if d < 2:
        raise ValueError("kelvin transform needs d >= 2")
    o = _as_point(o)

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

    Balls and annuli dilate radially; grid domains dilate by a Euclidean
    distance-transform threshold on the cell lattice.
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
        from scipy import ndimage

        dist = ndimage.distance_transform_edt(~base.mask) * base.spacing
        return base.with_mask(base.mask | (dist <= r))
    raise TypeError(f"unsupported base set {type(base).__name__}")


def inward_filled_hull(K: GridDomain, O: GridDomain) -> GridDomain:
    """K together with every component of O \\ K that does not reach O's boundary.

    Components are taken with face connectivity (4 in d=2, 6 in d=3).  The
    exterior is found by flooding from O's boundary cells; everything in
    O \\ K the flood cannot reach is a hole and gets filled.  The grid
    window is finite, so components touching the window frame count as
    touching infinity (the window frame stands in for the Alexandroff
    point; truncation effects are the caller's responsibility).
    """
    if K.shape != O.shape or K.spacing != O.spacing or not np.allclose(K.origin, O.origin):
        raise ValueError("K and O must live on the same grid")
    if np.any(K.mask & ~O.mask):
        raise ValueError("hull precondition violated: K is not contained in O")
    boundary = O.boundary_cells()
    if np.any(K.mask & boundary):
        raise ValueError("hull precondition violated: K touches the boundary cells of O")

    from scipy import ndimage

    complement = O.mask & ~K.mask
    labels, n = ndimage.label(complement, structure=_face_structure(K.dimension))
    exterior_labels = np.unique(labels[boundary & complement])
    exterior_labels = exterior_labels[exterior_labels > 0]
    hole_mask = complement & ~np.isin(labels, exterior_labels)
    return K.with_mask(K.mask | hole_mask)
