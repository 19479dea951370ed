"""Sphere and ball quadrature rules plus seeded Monte-Carlo sampling.

Deterministic by construction: node layouts are closed-form, and the
Monte-Carlo streams are derived from a (seed, tag) pair so that concurrent
callers get reproducible, independent streams.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

# default node counts; see the module docstrings of measures/green for
# which rule is used where
CIRCLE_NODES = 4096          # 2**12, periodic trapezoid on circles
SPHERE_PRODUCT_NODES = 4096  # 2**12 total for the d=3 product rule
SPHERE_MC_SAMPLES = 65536    # 2**16, plain uniform layers in d=3
BALL_RADIAL_NODES = 32


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Deterministic generator for a (global seed, stream tag) pair."""
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF,
                                                         zlib.crc32(tag.encode())]))


def sample_in(rng: np.random.Generator, center, half: float, n: int, accept,
              max_draws: int | None = None) -> np.ndarray:
    """First n accepted candidates ``center + half * (2u - 1)``, u uniform in [0, 1)^d.

    Candidates are drawn in blocks; block row k is the k-th ``rng.random(d)``
    draw, so the accepted points equal those of a rejection loop drawing one
    candidate at a time.  `accept` maps an (m, d) candidate block to a boolean
    mask.  With `max_draws`, at most that many candidates are tried and fewer
    than n points may come back.
    """
    center = np.asarray(center, dtype=float)
    d = center.size
    out, kept, drawn = [np.zeros((0, d))], 0, 0
    while kept < n and (max_draws is None or drawn < max_draws):
        m = max(64, 2 * (n - kept))
        if max_draws is not None:
            m = min(m, max_draws - drawn)
        cand = center + half * (2.0 * rng.random((m, d)) - 1.0)
        drawn += m
        out.append(cand[accept(cand)][:n - kept])
        kept += len(out[-1])
    return np.concatenate(out)


def circle_nodes(n: int) -> np.ndarray:
    """n equally spaced unit vectors on the circle (periodic trapezoid nodes)."""
    theta = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(theta), np.sin(theta)])


def sphere_spiral_nodes(n: int) -> np.ndarray:
    """Fibonacci spiral layout on the unit 2-sphere; near-uniform, deterministic."""
    i = np.arange(n)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    z = 1.0 - 2.0 * (i + 0.5) / n
    rho = np.sqrt(1.0 - z * z)
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


@functools.cache
def sphere_rule(d: int, n: int | None = None):
    """Nodes and weights for the mean over the unit sphere (weights sum to 1).

    d=2: periodic trapezoid.  d=3: Gauss-Legendre in cos(theta) crossed with
    trapezoid in the azimuth, spectrally accurate for smooth integrands.
    Each rule depends on (d, n) alone, so it is built once per key and
    handed out as read-only arrays.
    """
    if d == 2:
        n = CIRCLE_NODES if n is None else n
        nodes, w = circle_nodes(n), np.full(n, 1.0 / n)
    elif d == 3:
        n = SPHERE_PRODUCT_NODES if n is None else n
        m = max(4, int(np.sqrt(n)))
        z, wz = np.polynomial.legendre.leggauss(m)
        phi = 2.0 * np.pi * np.arange(m) / m
        zz = np.repeat(z, m)
        w = np.repeat(wz, m) / (2.0 * m)
        pp = np.tile(phi, m)
        rho = np.sqrt(1.0 - zz * zz)
        nodes = np.column_stack([rho * np.cos(pp), rho * np.sin(pp), zz])
    else:
        raise NotImplementedError(f"sphere rule for d={d}")
    nodes.setflags(write=False)
    w.setflags(write=False)
    return nodes, w


def sphere_mc_nodes(d: int, n: int, seed: int, tag: str) -> np.ndarray:
    """Seeded uniform samples on the unit sphere."""
    rng = rng_for(seed, tag)
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def ball_rule(d: int, n_radial: int | None = None, n_angular: int | None = None):
    """Nodes and weights for the mean over the unit ball (weights sum to 1).

    Product rule: Gauss-Legendre in the radius against the r^(d-1) Jacobian,
    crossed with the sphere rule of matching dimension.
    """
    n_radial = BALL_RADIAL_NODES if n_radial is None else n_radial
    t, wt = np.polynomial.legendre.leggauss(n_radial)
    r = 0.5 * (t + 1.0)  # map [-1,1] -> [0,1]
    wr = 0.5 * wt * d * r ** (d - 1)  # mean over ball: d * r^(d-1) dr
    if d == 2:
        n_angular = 256 if n_angular is None else n_angular
    else:
        n_angular = 1024 if n_angular is None else n_angular
    s_nodes, s_w = sphere_rule(d, n_angular)
    nodes = (r[:, None, None] * s_nodes[None, :, :]).reshape(-1, d)
    weights = (wr[:, None] * s_w[None, :]).ravel()
    return nodes, weights


def gauss_legendre_cell(ndim: int, order: int = 3):
    """Tensor Gauss-Legendre nodes/weights on the unit cell [-1/2, 1/2]^ndim."""
    t, w = np.polynomial.legendre.leggauss(order)
    t = 0.5 * t
    w = 0.5 * w
    grids = np.meshgrid(*([t] * ndim), indexing="ij")
    nodes = np.column_stack([g.ravel() for g in grids])
    weights = np.ones(nodes.shape[0])
    for axis in range(ndim):
        idx = np.meshgrid(*([np.arange(order)] * ndim), indexing="ij")[axis].ravel()
        weights *= w[idx]
    return nodes, weights

