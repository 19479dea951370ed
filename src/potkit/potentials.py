"""Potentials of charges: evaluation, difference potentials, asymptotics, bounds.

A Potential is a ScalarField view of the kernel integral of a charge.  Plain
sphere/ball layers use Newton's closed forms; atoms (merged by position),
other layers and grid densities go through one kernel sum over their
nodes, `_chunked_kernel_sum`.  When an evaluation point lies inside a
charged grid cell, that cell's point-mass term is replaced by the exact
potential of the uniformly charged cell at the point: four corner-rectangle
closed forms of the ln integral in 2-D, eight corner boxes of the 1/r
antiderivative in 3-D.

The kernel sum has two engines.  The direct path fills the kernel matrix in
row blocks of 1 MiB, each a heap array reduced by one matrix-vector product;
the block rule fixes the last bits of every sum.  Both engines run with BLAS
held to one thread (`potkit._blas`): on two cores a second BLAS thread brought
no speed, and while it spun it doubled the time of a run that shared the box.

The fast multipole path (`potkit._fmm`: Greengard & Rokhlin 1987 on a
uniform quadtree) takes the 2-D log kernel (d = 2, q = 0) when the sum has
at least FMM_PAIRS (point, node) pairs, at least FMM_MIN_SIDE points and
nodes, and finite coordinates; every other call is direct.  Its expansions
have order p = _fmm.ORDER = 49, the least order whose a-priori bound
(derived in `potkit._fmm`) gives |FMM - direct| <= 1e-13 * sum_j |w_j|.  Its
near field sums each leaf's neighbour nodes directly, so exact hits keep -inf
signed by weight.
"""

from __future__ import annotations

import math

import numpy as np

from . import _blas, quadrature
from .fields import ScalarField
from .geometry import _distance
from .kernels import k_eval, k_eval_array, kernel_rows, tile_rows
from .measures import Atom, Atoms, GridDensity, Measure, total_mass
from .verdict import Row, Verdict

__all__ = [
    "Potential",
    "difference_potential",
    "asymptotic_check",
    "lower_bound_check",
]

# 2-D log-kernel sums of at least FMM_PAIRS (point, node) pairs, with at
# least FMM_MIN_SIDE points and nodes, go through the fast multipole path of
# potkit._fmm.  Measured on a 2-core x86 box: it beats the direct path from
# about 2^21 pairs with thousands on each side; at 2^25 pairs it is faster
# down to 128 on one side and up to 2.5x slower with 32-64, where its
# per-point expansion work outweighs the few kernel values per point.  Every
# sum in the presets other than duality-roundtrip's grid samplings has fewer
# than 2^21 pairs (at most to_potential's 200 x 9,104 probes), so they stay direct.
FMM_PAIRS = 1 << 25
FMM_MIN_SIDE = 128

ASYMPTOTIC_DIRECTIONS = 16  # asymptotic_check probe directions per radius
RATIO_CAP = 1.1  # growth cap of its scaled error between consecutive radii
ASYMPTOTIC_FLOOR = 1e-10  # errors below this count as zero
LOWER_BOUND_PROBES = 128  # lower_bound_check interior (and boundary) probes


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * ln(y) with 0 * ln(0) = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, x * np.log(y), 0.0)


def _rect_log_r(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integral of ln|x| over the rectangle [0, a] x [0, b] (a, b >= 0)."""
    return 0.5 * (_xlogy(a * b, a * a + b * b) - 3.0 * a * b
                  + a * a * np.arctan2(b, a) + b * b * np.arctan2(a, b))


def _box_inv_r(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Integral of 1/|x| over the box [0, a] x [0, b] x [0, c] (a, b, c >= 0).

    The antiderivative bc asinh(a / |(b, c)|) + ... - a^2/2 atan(bc / (a r)) - ...
    is odd in each variable, so it vanishes on the coordinate planes.
    """
    r = np.sqrt(a * a + b * b + c * c)
    out = np.zeros(np.shape(r))
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        yz = y * z
        rho = np.sqrt(y * y + z * z)
        with np.errstate(divide="ignore", invalid="ignore"):
            out += np.where(yz > 0.0, yz * np.arcsinh(x / rho), 0.0)
        out -= 0.5 * x * x * np.arctan2(yz, x * r)
    return out


def _cell_mean(d: int, h: float, off: np.ndarray) -> np.ndarray:
    """Exact average of k_{d-2}(|y - x|) over x in a cell of side h, for points y
    at offsets `off` (n, d) from the cell center with |off|_inf <= h/2.

    The cell splits at y into 2^d boxes with y as a corner: four corner
    rectangles of the closed-form ln integral in 2-D, eight corner boxes of
    the 1/r box antiderivative in 3-D.
    """
    lo, hi = 0.5 * h + off, 0.5 * h - off
    sides = [(lo[:, k], hi[:, k]) for k in range(d)]
    if d == 2:
        total = sum(_rect_log_r(a, b) for a in sides[0] for b in sides[1])
        return total / h ** 2
    if d == 3:
        total = sum(_box_inv_r(a, b, c) for a in sides[0] for b in sides[1]
                    for c in sides[2])
        return -total / h ** 3
    raise NotImplementedError("self-cell correction for d in {2, 3}")


class Potential(ScalarField):
    """Kernel potential of a compactly supported charge under K_{d-2}, d its dimension."""

    def __init__(self, charge: Measure):
        self.charge = charge
        # coordinates -> (first point, net weight): the diagonal value gets the
        # sign of the net weight, not a +-inf collision; the keys match as
        # np.array_equal does (-0.0 is 0.0, nan matches nothing)
        atoms: dict[tuple, tuple[np.ndarray, float]] = {}
        self._closed: list = []  # exact radial potentials of plain layers
        self._clouds: list = []  # (nodes, weights): the merged atoms, then other layers
        self._grids: list[GridDensity] = []
        for c in charge.components:
            if isinstance(c, Atoms):
                for key, x, w in zip(map(tuple, c.points.tolist()), c.points, c.weights):
                    p, net = atoms.get(key, (x, None))
                    atoms[key] = (p, w if net is None else net + w)
            elif isinstance(c, GridDensity):
                self._grids.append(c)  # point masses plus the self-cell correction
            elif (newton := c.newton_potential()) is not None:
                self._closed.append(newton)
            else:
                self._clouds.append(c.discretize())
        if atoms:
            pts, w = map(np.array, zip(*atoms.values()))
            live = w != 0.0  # 0 * -inf would put nan on a massless atom
            if live.any():
                self._clouds.insert(0, (pts[live], w[live]))
        # no ScalarField.__init__: its stored evaluator would be a bound method of
        # this Potential, a reference cycle that holds the charge and its clouds
        # until the cyclic collector runs; the evaluator is the method below
        self.domain = None

    # -- evaluation ---------------------------------------------------------

    def _evaluator(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        out = np.zeros(len(pts))
        q = self.charge.dimension - 2
        for newton in self._closed:
            out += newton(pts)
        for nodes, w in self._clouds:
            out += _chunked_kernel_sum(pts, nodes, w, q)
        for g in self._grids:
            out += self._grid_contribution(pts, g)
        return out

    def _grid_contribution(self, pts: np.ndarray, g: GridDensity) -> np.ndarray:
        vals = np.asarray(g.values)
        centers, masses = g.discretize()
        if not len(masses):
            return np.zeros(len(pts))
        d = self.charge.dimension
        q = d - 2
        out = _chunked_kernel_sum(pts, centers, masses, q)
        # when an evaluation point lies inside a charged cell, replace that
        # cell's point-kernel contribution by the exact potential of the
        # uniform cell at the point (removes the near-diagonal bias, and the
        # -inf on exact hits, where it is the cell average)
        h = g.grid.spacing
        idx = np.rint((pts - g.grid.origin[None, :]) / h).astype(int)
        inside = np.flatnonzero(np.all((idx >= 0) & (idx < np.asarray(g.grid.shape)), axis=1))
        cell_mass = vals[tuple(idx[inside].T)]
        off = pts[inside] - (g.grid.origin[None, :] + idx[inside] * h)
        keep = (cell_mass != 0.0) & (np.max(np.abs(off), axis=1) <= 0.5 * h)
        rows, cell_mass, off = inside[keep], cell_mass[keep], off[keep]
        r = _distance(off, np.zeros(d))
        hit = r == 0.0
        for j in rows[hit]:
            # exact hit: rebuild this row without the self node, whose kernel is -inf
            dist = _distance(centers, pts[j])
            live = dist > 0.0
            out[j] = float(np.dot(masses[live], k_eval_array(q, dist[live])))
        k = np.zeros(len(r))
        k[~hit] = k_eval_array(q, r[~hit])
        out[rows] += cell_mass * (_cell_mean(d, h, off) - k)
        return out

    def total_mass(self) -> float:
        return total_mass(self.charge)


def _kernel_rows(pts: np.ndarray, nodes: np.ndarray, weights: np.ndarray, q: float,
                 out: np.ndarray):
    """out = K @ weights for the C-ordered kernel matrix K[i, j] = k_q(|pts_i - node_j|),
    filled tile by tile by `kernels.kernel_rows` (-inf on exact hits for q >= 0)."""
    K = np.empty((len(pts), len(nodes)))
    tile = tile_rows(len(nodes))
    for a in range(0, len(pts), tile):
        kernel_rows(pts[a:a + tile], nodes, q, K[a:a + tile])
    out[:] = K @ weights


def _chunked_kernel_sum(pts: np.ndarray, nodes: np.ndarray, weights: np.ndarray,
                        q: float, block: int = 1 << 17) -> np.ndarray:
    """sum_i w_i k_q(|y - node_i|) for every y, with bounded memory.

    Rows go in blocks of about `block` kernel values, each one matrix-vector
    product; the per-row sums depend on the block boundaries in the last
    bits, so the block rule is fixed.  BLAS runs on one thread
    (`potkit._blas.one_thread`), which gives the same bits as two.  A block of
    1 MiB spans every sum of the presets and scenarios but the probes of
    `duality.to_potential` (200 or 64 points against thousands of nodes),
    whose values only meet thresholds.
    """
    with _blas.one_thread():
        if (q == 0 and nodes.shape[1] == 2 and len(pts) * len(nodes) >= FMM_PAIRS
                and min(len(pts), len(nodes)) >= FMM_MIN_SIDE
                and np.isfinite(pts).all() and np.isfinite(nodes).all()):
            # imported here: processes with only small sums never load it
            from ._fmm import log_kernel_sum

            return log_kernel_sum(pts, nodes, weights)
        out = np.empty(len(pts))
        step = max(1, block // max(1, len(nodes)))
        for a in range(0, len(pts), step):
            _kernel_rows(pts[a:a + step], nodes, weights, q, out[a:a + step])
        return out


def difference_potential(mu: Measure, theta: Measure) -> Potential:
    """Potential of mu - theta (value at infinity is 0 when the masses match)."""
    diff = Potential(mu - theta)
    diff.value_at_infinity = 0.0
    return diff


# ---------------------------------------------------------------------------
# asymptotics and lower bounds


def asymptotic_check(mu: Measure, radii) -> Verdict:
    """Check pt_mu(x) = m k_{d-2}(|x|) + O(1/|x|^{d-1}) on the given radii.

    Needs every radius beyond twice the support radius.  The scaled error
    must not grow by more than RATIO_CAP between consecutive radii (errors
    below ASYMPTOTIC_FLOOR count as zero).
    """
    d = mu.dimension
    pt = Potential(mu)
    m = pt.total_mass()
    support = mu.support_radius()
    radii = sorted(float(R) for R in radii)
    if radii[0] < 2.0 * support:
        raise ValueError(f"radii must exceed twice the support radius {support:.3g}")
    dirs = quadrature._unit_directions(d, ASYMPTOTIC_DIRECTIONS)
    rows, prev = [], None
    for R in radii:
        pts = R * dirs
        err = float(np.max(np.abs(pt.evaluate_array(pts) - m * k_eval(d - 2, R))
                            * R ** (d - 1)))
        # the first radius has nothing to grow from: its cap is +inf
        cap = math.inf if prev is None else RATIO_CAP * max(prev, ASYMPTOTIC_FLOOR)
        ok = prev is None or max(prev, err) <= ASYMPTOTIC_FLOOR or err <= cap
        rows.append(Row(f"R={R:g}", err, cap, err - cap, ok))
        prev = err
    return Verdict("asymptotic", all(r.passed for r in rows), rows, {"ratio_cap": RATIO_CAP})


def _set_distance(L, pts: np.ndarray) -> float:
    """dist(L, point set) for a closed ball L."""
    r = _distance(pts, L.center)
    return float(max(0.0, np.min(r) - L.radius))


def _probe_points(L, n: int, seed: int) -> np.ndarray:
    inner = quadrature.sample_in(
        quadrature.rng_for(seed, "lower-bound-probes"), L.center, L.radius, n,
        lambda p: _distance(p, L.center) <= L.radius)
    return np.vstack([inner, L.boundary_points(n)])


def lower_bound_check(mu: Measure, L, o=None, tol: float = 1e-9, seed: int = 0) -> Verdict:
    """Verify the kernel lower bounds for positive charges on a compact ball L.

    Without o: inf_L pt_mu >= m k_{d-2}(dist(L, supp mu)).  With o (not in
    L): inf_L pt_{mu - delta_o} >= the same minus k_{d-2}(sup_L |x - o|).
    """
    q = mu.dimension - 2
    m = total_mass(mu)
    support = mu.support_points()
    gap = _set_distance(L, support)
    bound = -math.inf if gap == 0.0 else m * k_eval(q, gap)
    probes = _probe_points(L, LOWER_BOUND_PROBES, seed)
    if o is None:
        pt = Potential(mu)
        observed = float(np.min(pt.evaluate_array(probes)))
        variant = "interior"
    else:
        o = np.asarray(o, dtype=float)
        if L.closure_contains(o):
            raise ValueError("o must lie outside L")
        delta = Measure(mu.dimension, [Atom(o, 1.0)])
        pt = difference_potential(mu, delta)
        sup_dist = float(np.linalg.norm(L.center - o) + L.radius)
        bound = bound - k_eval(q, sup_dist)
        observed = float(np.min(pt.evaluate_array(probes)))
        variant = "difference"
    passed = bool(observed >= bound - tol)
    row = Row(variant, bound, observed, bound - observed, passed, tol)
    return Verdict("lower-bound", passed, [row],
                   {"variant": variant, "bound": bound, "observed_inf": observed})

