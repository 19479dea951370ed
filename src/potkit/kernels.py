"""Radial kernels k_q, the Riesz kernel K_{d-2} and dimensional constants.

Everything here is pure and stateless.  Values live in the extended reals:
the kernel returns ``-inf`` on the diagonal for d >= 2 (an honest IEEE
-infinity, never a large-float sentinel).

``kernel_rows`` fills a block of kernel values k_q(|x_i - y_j|) in place.
Kernel fields, the kernel sums of potentials and the family integrals of
``measures.integrate_many`` all fill their kernel values with it, the last
two in row tiles of at most TILE_BYTES (``tile_rows``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelConfig",
    "k_eval",
    "k_eval_array",
    "kernel_rows",
    "tile_rows",
    "riesz_kernel",
    "riesz_normalizer",
    "sphere_surface_area",
    "unit_ball_volume",
]


def sphere_surface_area(d: int) -> float:
    """Surface area s_{d-1} of the unit sphere boundary of the d-ball."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def riesz_normalizer(d: int) -> float:
    """Normalizing constant c_d turning a distributional Laplacian into a measure.

    c_d = Gamma(d/2) / (2 pi^(d/2) max{1, d-2}); c_2 = 1/(2 pi), c_3 = 1/(4 pi).
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return 1.0 / (sphere_surface_area(d) * max(1, d - 2))


def unit_ball_volume(p: int) -> float:
    """Volume b_p of the unit ball in R^p (b_0 = 1, b_1 = 2, b_p = s_{p-1}/p)."""
    if p < 0:
        raise ValueError(f"order must be >= 0, got {p}")
    if p == 0:
        return 1.0
    if p == 1:
        return 2.0
    return sphere_surface_area(p) / p


def k_eval(q: float, t: float) -> float:
    """Radial kernel profile: ln t for q = 0, -sgn(q) t^(-q) otherwise.

    Strictly increasing in t > 0 for every q.
    """
    if t <= 0.0:
        raise ValueError(f"kernel argument must be positive, got {t}")
    if q == 0:
        return math.log(t)
    if q > 0:
        return -(t ** (-q))
    return t ** (-q)


def k_eval_array(q: float, t: np.ndarray) -> np.ndarray:
    """Vectorized k_eval; entries of t must be positive."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("kernel argument must be positive")
    if q == 0:
        return np.log(t)
    if q > 0:
        return -(t ** (-q))
    return t ** (-q)


# kernel blocks are filled in row tiles of at most this many bytes (one row if
# a row is longer), so a family integral holds one tile and its scratch per
# measure component however many members it has.  Larger tiles cost peak
# memory and buy no speed: with 2 MB tiles perfbench's scenarios workload
# peaked at 64.1 MB RSS against 61.1 MB, as fast (2-core x86 box)
TILE_BYTES = 1 << 18


def tile_rows(m: int) -> int:
    """Rows of m kernel values in one fill tile."""
    return max(1, TILE_BYTES // max(1, 8 * m))


def kernel_rows(pts: np.ndarray, nodes: np.ndarray, q: float, out: np.ndarray) -> np.ndarray:
    """Fill out[i, j] = k_q(|pts_i - nodes_j|) in place and return it.

    The squared distance is summed coordinate by coordinate, as
    np.linalg.norm sums it, so each value is bitwise the one a norm and
    k_eval_array give.  An exact hit takes the kernel's limit at 0: -inf for
    q >= 0, 0 for q < 0 (d = 1).
    """
    if pts.shape[1] != nodes.shape[1]:
        raise ValueError(f"points of dimension {pts.shape[1]} against nodes of "
                         f"dimension {nodes.shape[1]}")
    sq = np.empty_like(out)
    for k in range(nodes.shape[1]):
        dst = out if k == 0 else sq
        np.subtract(pts[:, k:k + 1], nodes[None, :, k], out=dst)
        np.multiply(dst, dst, out=dst)
        if k:
            out += sq
    np.sqrt(out, out=out)
    with np.errstate(divide="ignore"):  # log(0) = -inf, 0^(-q) = inf
        if q == 0:
            np.log(out, out=out)
        else:
            np.power(out, -q, out=out)
            if q > 0:
                np.negative(out, out=out)
    return out


@dataclass(frozen=True)
class KernelConfig:
    """Ambient dimension d with the derived kernel order q = d - 2."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")

    @property
    def q(self) -> int:
        return self.d - 2

    @property
    def c_d(self) -> float:
        return riesz_normalizer(self.d)


def riesz_kernel(cfg: KernelConfig, x, y) -> float:
    """K_{d-2}(x, y) = k_{d-2}(|x-y|); -inf on the diagonal for d >= 2, 0 for d = 1."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = float(np.linalg.norm(x - y))
    if r == 0.0:
        return -math.inf if cfg.d >= 2 else 0.0
    return k_eval(cfg.q, r)

