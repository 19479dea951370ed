"""Potentials of charges: evaluation, difference potentials, asymptotics, bounds.

A Potential is a ScalarField view of the kernel integral of a charge.
Evaluations can also be requested in tagged form {finite, -inf, +inf,
indeterminate} so divergence bookkeeping is visible to callers.  Atom
contributions are exact; layers and grid densities go through their
component quadratures, with an exact-cell-average correction when an
evaluation point lands inside a charged grid cell.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import quadrature
from .fields import ScalarField
from .kernels import KernelConfig, k_eval, k_eval_array
from .measures import Atom, GridDensity, Measure, total_mass
from .verdict import Row, Verdict

__all__ = [
    "DomValue",
    "Potential",
    "potential",
    "difference_potential",
    "asymptotic_check",
    "lower_bound_check",
]

# mean of ln|x| over the unit square [-1/2, 1/2]^2 (closed form)
LOG_SQUARE_MEAN = -0.5 * math.log(2.0) + math.pi / 4.0 - 1.5


@lru_cache(maxsize=1)
def _cube_mean_inv_r() -> float:
    """Mean of 1/|x| over the unit cube centered at the origin.

    Fixed point of the 5^3 self-similar split: the central subcell scales
    like 5 * mean / 125, the 124 off-center subcells are integrated with
    order-8 Gauss per axis.  M = (sum of off-center means) / 120.
    """
    nodes, w = quadrature.gauss_legendre_cell(3, 8)
    total = 0.0
    for i in range(-2, 3):
        for j in range(-2, 3):
            for k in range(-2, 3):
                if i == j == k == 0:
                    continue
                c = np.array([i, j, k], dtype=float) / 5.0
                pts = c[None, :] + nodes / 5.0
                total += float(np.dot(w, 1.0 / np.linalg.norm(pts, axis=1)))
    return total / 120.0


def _self_cell_mean(d: int, h: float) -> float:
    """Exact-ish cell average of k_{d-2} over a cell of side h around its center."""
    if d == 2:
        return math.log(h) + LOG_SQUARE_MEAN
    if d == 3:
        return -_cube_mean_inv_r() / h
    raise NotImplementedError("self-cell correction for d in {2, 3}")


@dataclass(frozen=True)
class DomValue:
    """Tagged extended-real evaluation result."""

    tag: str  # 'finite' | '-inf' | '+inf' | 'indeterminate'
    value: float

    @property
    def finite(self) -> bool:
        return self.tag == "finite"


class Potential(ScalarField):
    """Kernel potential of a compactly supported charge."""

    def __init__(self, charge: Measure, cfg: KernelConfig):
        if cfg.d != charge.dimension:
            raise ValueError("kernel dimension must match the charge")
        self.charge = charge
        self.cfg = cfg
        self._atoms: list[tuple[np.ndarray, float]] = []
        self._closed: list = []  # exact radial potentials of plain layers
        self._cloud_pts: list[np.ndarray] = []
        self._cloud_w: list[np.ndarray] = []
        self._grids: list[GridDensity] = []
        for c in charge.components:
            if isinstance(c, Atom):
                # merge atoms sharing a location so the diagonal value gets
                # the sign of the net weight, not a +-inf collision
                for k, (p, w) in enumerate(self._atoms):
                    if np.array_equal(p, c.point):
                        self._atoms[k] = (p, w + c.weight)
                        break
                else:
                    self._atoms.append((c.point, c.weight))
            elif isinstance(c, GridDensity):
                self._grids.append(c)  # point masses plus the self-cell correction
            elif (newton := c.newton_potential()) is not None:
                self._closed.append(newton)
            else:
                pts, w = c.discretize()
                self._cloud_pts.append(pts)
                self._cloud_w.append(w)
        super().__init__(self._evaluate, domain=None, kind="analytic-form")

    # -- evaluation ---------------------------------------------------------

    def _evaluate(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        out = np.zeros(len(pts))
        q = self.cfg.q
        for x, w in self._atoms:
            if w == 0.0:
                continue
            r = np.linalg.norm(pts - x[None, :], axis=1)
            hit = r == 0.0
            contrib = np.empty(len(r))
            contrib[~hit] = w * k_eval_array(q, r[~hit])
            # at the atom itself: K = -inf for d >= 2; sign follows the weight
            contrib[hit] = 0.0 if self.cfg.d == 1 else -math.copysign(math.inf, w)
            out += contrib
        for newton in self._closed:
            out += newton(pts)
        for nodes, w in zip(self._cloud_pts, self._cloud_w):
            out += _chunked_kernel_sum(pts, nodes, w, q)
        for g in self._grids:
            out += self._grid_contribution(pts, g)
        return out

    def _grid_contribution(self, pts: np.ndarray, g: GridDensity) -> np.ndarray:
        vals = np.asarray(g.values)
        centers, masses = g.discretize()
        if not len(masses):
            return np.zeros(len(pts))
        out = _chunked_kernel_sum(pts, centers, masses, self.cfg.q)
        # when an evaluation point lies inside a charged cell, replace that
        # cell's point-kernel contribution by the exact cell average (removes
        # the dominant near-diagonal bias, and the -inf on exact hits)
        h = g.grid.spacing
        mean_k = _self_cell_mean(self.cfg.d, h)
        for j, y in enumerate(pts):
            idx = g.grid.index_of(y)
            if idx is None or vals[idx] == 0.0:
                continue
            center = g.grid.origin + np.asarray(idx) * h
            if np.max(np.abs(y - center)) > 0.5 * h:
                continue
            r = float(np.linalg.norm(y - center))
            if r == 0.0:
                # exact hit: rebuild this row without the self node
                dist = np.linalg.norm(centers - y[None, :], axis=1)
                keep = dist > 0.0
                out[j] = float(np.dot(masses[keep], k_eval_array(self.cfg.q, dist[keep])))
                out[j] += vals[idx] * mean_k
            else:
                out[j] += vals[idx] * (mean_k - k_eval(self.cfg.q, r))
        return out

    def evaluate_tagged(self, y) -> DomValue:
        """Extended-real evaluation with explicit divergence tags."""
        val = self(np.asarray(y, dtype=float))
        if math.isnan(val):
            return DomValue("indeterminate", math.nan)
        if val == math.inf:
            return DomValue("+inf", val)
        if val == -math.inf:
            return DomValue("-inf", val)
        return DomValue("finite", val)

    def total_mass(self) -> float:
        return total_mass(self.charge)

    # -- export -------------------------------------------------------------

    def export_sampled(self, grid, json_path=None, csv_path=None) -> dict:
        """Sample on a grid and optionally write JSON / CSV (x.., value) rows."""
        centers = grid.origin[None, :] + np.indices(grid.shape).reshape(
            grid.dimension, -1).T * grid.spacing
        vals = self.evaluate_array(centers)
        payload = {"grid": grid.to_json(), "values": vals.tolist()}
        if json_path:
            with open(json_path, "w") as fh:
                json.dump(payload, fh)
        if csv_path:
            with open(csv_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow([f"x{i}" for i in range(grid.dimension)] + ["value"])
                for p, v in zip(centers, vals):
                    writer.writerow(list(p) + [v])
        return payload


def _chunked_kernel_sum(pts: np.ndarray, nodes: np.ndarray, weights: np.ndarray,
                        q: float, block: int = 8_000_000) -> np.ndarray:
    """sum_i w_i k_q(|y - node_i|) for every y, with bounded memory."""
    out = np.empty(len(pts))
    step = max(1, block // max(1, len(nodes)))
    for a in range(0, len(pts), step):
        chunk = pts[a:a + step]
        r = np.linalg.norm(chunk[:, None, :] - nodes[None, :, :], axis=2)
        bad = r == 0.0
        if bad.any():
            r = np.where(bad, 1.0, r)
        vals = k_eval_array(q, r)
        if bad.any():
            vals = np.where(bad, -math.inf, vals)
        out[a:a + step] = vals @ weights
    return out


def potential(mu: Measure, cfg: KernelConfig) -> Potential:
    """Potential field of the charge under the dimension-d Riesz kernel."""
    return Potential(mu, cfg)


def difference_potential(mu: Measure, theta: Measure, cfg: KernelConfig) -> Potential:
    """Potential of mu - theta (value at infinity is 0 when the masses match)."""
    diff = Potential(mu - theta, cfg)
    diff.value_at_infinity = 0.0
    return diff


# ---------------------------------------------------------------------------
# asymptotics and lower bounds


def asymptotic_check(mu: Measure, radii, cfg: KernelConfig | None = None,
                     directions: int = 16, ratio_cap: float = 1.1,
                     floor: float = 1e-10) -> Verdict:
    """Check pt_mu(x) = m k_{d-2}(|x|) + O(1/|x|^{d-1}) on the given radii.

    Needs every radius beyond twice the support radius.  The scaled error
    must not grow by more than `ratio_cap` between consecutive radii
    (errors below `floor` count as zero).
    """
    cfg = cfg or KernelConfig(mu.dimension)
    pt = potential(mu, cfg)
    m = pt.total_mass()
    support = mu.support_radius()
    radii = sorted(float(R) for R in radii)
    if radii[0] < 2.0 * support:
        raise ValueError(f"radii must exceed twice the support radius {support:.3g}")
    if cfg.d == 2:
        dirs = quadrature.circle_nodes(directions)
    else:
        dirs = quadrature.sphere_spiral_nodes(directions)
    rows, prev = [], None
    for R in radii:
        pts = R * dirs
        err = float(np.max(np.abs(pt.evaluate_array(pts) - m * k_eval(cfg.q, R))
                            * R ** (cfg.d - 1)))
        # the first radius has nothing to grow from: its cap is +inf
        cap = math.inf if prev is None else ratio_cap * max(prev, floor)
        ok = prev is None or max(prev, err) <= floor or err <= cap
        rows.append(Row(f"R={R:g}", err, cap, err - cap, ok))
        prev = err
    return Verdict("asymptotic", all(r.passed for r in rows), rows, {"ratio_cap": ratio_cap})


def _set_distance(L, pts: np.ndarray) -> float:
    """dist(L, point set) for a closed ball L."""
    r = np.linalg.norm(pts - L.center[None, :], axis=1)
    return float(max(0.0, np.min(r) - L.radius))


def _probe_points(L, n: int, seed: int) -> np.ndarray:
    inner = quadrature.sample_in(
        quadrature.rng_for(seed, "lower-bound-probes"), L.center, L.radius, n,
        lambda p: np.linalg.norm(p - L.center, axis=1) <= L.radius)
    return np.vstack([inner, L.boundary_points(n)])


def lower_bound_check(mu: Measure, L, o=None, n_probes: int = 128,
                      tol: float = 1e-9, seed: int = 0) -> Verdict:
    """Verify the kernel lower bounds for positive charges on a compact ball L.

    Without o: inf_L pt_mu >= m k_{d-2}(dist(L, supp mu)).  With o (not in
    L): inf_L pt_{mu - delta_o} >= the same minus k_{d-2}(sup_L |x - o|).
    """
    cfg = KernelConfig(mu.dimension)
    m = total_mass(mu)
    support = mu.support_points()
    gap = _set_distance(L, support)
    bound = -math.inf if gap == 0.0 else m * k_eval(cfg.q, gap)
    probes = _probe_points(L, n_probes, seed)
    if o is None:
        pt = potential(mu, cfg)
        observed = float(np.min(pt.evaluate_array(probes)))
        variant = "interior"
    else:
        o = np.asarray(o, dtype=float)
        if L.closure_contains(o):
            raise ValueError("o must lie outside L")
        delta = Measure(mu.dimension, [Atom(o, 1.0)])
        pt = difference_potential(mu, delta, cfg)
        sup_dist = float(np.linalg.norm(L.center - o) + L.radius)
        bound = bound - k_eval(cfg.q, sup_dist)
        observed = float(np.min(pt.evaluate_array(probes)))
        variant = "difference"
    passed = bool(observed >= bound - tol)
    row = Row(variant, bound, observed, bound - observed, passed, tol)
    return Verdict("lower-bound", passed, [row],
                   {"variant": variant, "bound": bound, "observed_inf": observed})

