"""Measure <-> potential duality maps and the generalized Poisson-Jensen verifier.

The forward map sends a swept measure mu (of delta_x) to the difference
potential pt_{mu - delta_x}; the inverse recovers the measure from a grid
Riesz recovery plus a fitted pole atom.  The limsup defining the pole
coefficient is replaced throughout by a least-squares fitted limit over a
radius ladder (r_squared >= 0.999 required).
"""

from __future__ import annotations

import math

import numpy as np

from . import quadrature
from .fields import GridField, ScalarField, fit_pole_coefficient, riesz_measure
from .geometry import Ball, GridDomain, inward_filled_hull, parallel_set
from .kernels import KernelConfig, k_eval
from .measures import Atom, IndeterminateIntegral, Measure, integrate, restrict, total_mass
from .potentials import difference_potential, potential
from .verdict import Verdict

__all__ = [
    "ASPotential",
    "to_potential",
    "from_potential",
    "verify_poisson_jensen",
    "phragmen_lindelof_bound",
]


class CertificationError(ValueError):
    pass


class ASPotential(ScalarField):
    """Arens-Singer (or Jensen) potential: swept-measure potential with pole data."""

    def __init__(self, field: ScalarField, pole, pole_coefficient: float, fit_r2: float,
                 support_window: Ball, kind: str, source: Measure | None = None):
        super().__init__(field.evaluate_array, domain=None, kind="analytic-form")
        self.pole = np.asarray(pole, dtype=float)
        self.pole_coefficient = float(pole_coefficient)
        self.fit_r2 = float(fit_r2)
        self.support_window = support_window
        self.potential_kind = kind  # 'arens-singer' | 'jensen'
        self.source = source


def _certify(mu: Measure, x: np.ndarray, kind: str, D: Ball, seed: int):
    from .balayage import check_linear, harmonic_kernel_family, standard_jensen_family

    delta = Measure(mu.dimension, [Atom(x, 1.0)])
    if kind == "jensen":
        family = standard_jensen_family(D, x, seed=seed)
    elif kind == "arens-singer":
        ring = Ball(D.center, 1.3 * D.radius).boundary_points(24)
        family = harmonic_kernel_family(D, ring, mu.dimension)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    verdict = check_linear(delta, mu, family, seed=seed)
    if not verdict.passed:
        raise CertificationError(
            f"{kind} certification failed (witness {verdict.data['witness']}, "
            f"margin {verdict.worst_margin:.3g})")
    return verdict


def to_potential(mu: Measure, x, kind: str = "jensen", D: Ball | None = None,
                 certificate=None, seed: int = 0, tol: float = 1e-8) -> ASPotential:
    """Map a swept measure of delta_x to its difference potential pt_{mu - delta_x}.

    The measure must be certified (a certificate from balayage.check_linear,
    or it is re-certified here against the standard probe family for its
    kind).  The result is validated: vanishing outside the support window,
    fitted pole growth, and positivity for Jensen inputs.
    """
    x = np.asarray(x, dtype=float)
    d = mu.dimension
    cfg = KernelConfig(d)
    radius = max(mu.support_radius(x), 1e-6)
    window = Ball(x, 1.000001 * radius)
    if D is None:
        D = Ball(x, 1.5 * radius + 1e-3)
    if certificate is None:
        _certify(mu, x, kind, D, seed)
    elif not getattr(certificate, "passed", False):
        raise CertificationError("provided certificate does not pass")

    delta = Measure(d, [Atom(x, 1.0)])
    V = difference_potential(mu, delta, cfg)
    coeff, r2 = fit_pole_coefficient(V, x, d)
    if not (math.isfinite(coeff) and r2 >= 0.999):
        raise CertificationError(f"pole-coefficient fit unreliable (r^2 = {r2:.5f})")

    # vanishing outside the hull of {x} and supp mu; grid-backed measures
    # carry O(h^2) discretization multipoles, so they get a looser bar
    h = max((c.resolution for c in mu.components), default=0.0)
    vanish_tol = tol * (1.0 + abs(total_mass(mu)))
    if h > 0.0:
        vanish_tol = max(vanish_tol, h ** 2)
    outside = Ball(x, 1.05 * radius + 0.05).boundary_points(64)
    vals = V.evaluate_array(outside)
    if float(np.max(np.abs(vals))) > vanish_tol:
        raise CertificationError("potential fails to vanish outside the support window")
    if kind == "jensen":
        # lumped grid cells push the potential down by O(h^2) inside the
        # support; exact-representation measures are held to 1e-9
        pos_tol = 1e-9
        if h > 0.0:
            pos_tol = max(pos_tol, 0.1 * h ** 2)
        probes = _window_probes(window, x, 200, seed)
        if float(np.min(V.evaluate_array(probes))) < -pos_tol:
            raise CertificationError("Jensen potential must be positive")
    return ASPotential(V, x, coeff, r2, window, kind, source=mu)


def _window_probes(window: Ball, x: np.ndarray, n: int, seed: int) -> np.ndarray:
    gap = min(1e-3, 0.2 * window.radius)  # pole exclusion scaled to the window
    pts = quadrature.sample_in(
        quadrature.rng_for(seed, "as-window-probes"), window.center, window.radius, n,
        lambda p: window.contains_array(p) & (np.linalg.norm(p - x, axis=1) > gap),
        max_draws=200 * n)
    if not len(pts):
        raise ValueError("could not sample probes in the support window")
    return pts


def from_potential(V: ASPotential, grid: GridDomain,
                   pole_exclusion: float | None = None) -> Measure:
    """Inverse duality map: grid Riesz measure off the pole plus the pole atom.

    The atom weight is 1 - (fitted pole coefficient); cells within the
    exclusion radius of the pole are masked out of the recovery.  Keep the
    exclusion a fixed physical radius (not a cell count) when comparing
    refinements: the pole's stencil truncation error lives on the exclusion
    rim, so a shrinking rim does not converge.  The result carries the
    recovery's ``singular_cells``.
    """
    x = V.pole
    h = grid.spacing
    if pole_exclusion is None:
        pole_exclusion = 5.0 * h
    centers = grid.origin[None, :] + np.indices(grid.shape).reshape(grid.dimension, -1).T * h
    keep = (np.linalg.norm(centers - x[None, :], axis=1)
            > pole_exclusion).reshape(grid.shape)
    masked = GridDomain(grid.origin, h, grid.mask & keep)
    sampled = GridField.sample(V, masked)
    vals = np.where(masked.mask, sampled.values, 0.0)
    rec = riesz_measure(GridField(masked, vals))
    atom_weight = 1.0 - V.pole_coefficient
    comps = list(rec.components)
    if abs(atom_weight) > 0:
        comps.append(Atom(x, atom_weight))
    out = Measure(V.pole.size if hasattr(V.pole, "size") else len(V.pole), comps)
    out.singular_cells = rec.singular_cells
    return out


# ---------------------------------------------------------------------------
# generalized Poisson-Jensen


def _hull_window(theta: Measure, mu: Measure, extra: Measure | None,
                 cells: int = 96) -> GridDomain:
    """Inward-filled hull of the supports on a covering grid, padded one cell."""
    pts = [theta.support_points(), mu.support_points()]
    if extra is not None:
        pts.append(extra.support_points())
    pts = np.vstack([p for p in pts if len(p)])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = float(np.max(hi - lo))
    h = max(span, 1e-3) / cells
    lo = lo - 4 * h
    shape = tuple(int(math.ceil((hi[k] - lo[k] + 8 * h) / h)) + 1 for k in range(pts.shape[1]))
    window = GridDomain(lo, h, np.ones(shape, dtype=bool))
    centers = window.origin[None, :] + np.indices(window.shape).reshape(
        window.dimension, -1).T * h
    occupied = np.zeros(len(centers), dtype=bool)
    for p in pts:
        occupied |= np.max(np.abs(centers - p[None, :]), axis=1) <= 0.75 * h
    K = window.with_mask(occupied.reshape(window.shape))
    hull = inward_filled_hull(K, window)
    return parallel_set(hull, 1.5 * h)  # one-cell pad


def verify_poisson_jensen(theta: Measure, mu: Measure, u: ScalarField,
                          riesz_u: Measure | None = None, K=None,
                          certify: bool = True, tol_scale: float = 1e-6,
                          seed: int = 0) -> Verdict:
    """Check the generalized Poisson-Jensen identity for a har-balayage pair.

    int u dtheta + int_K pt_mu dRiesz(u) = int_K pt_theta dRiesz(u) + int u dmu,
    with K the inward-filled hull of the supports on a covering grid (padded
    one cell) unless an explicit K (grid or ball) is supplied.  The Riesz
    data of u is taken analytically when provided, else recovered on the
    hull grid.
    """
    d = mu.dimension
    cfg = KernelConfig(d)
    if certify:
        from .balayage import check_linear, harmonic_kernel_family

        radius = max(mu.support_radius(), theta.support_radius()) + 1e-9
        S = Ball(np.zeros(d), radius)
        ring = Ball(S.center, 1.35 * radius).boundary_points(24)
        verdict = check_linear(theta, mu, harmonic_kernel_family(S, ring, d), seed=seed)
        if not verdict.passed:
            raise CertificationError(
                f"har-balayage certification failed (witness {verdict.data['witness']})")

    if K is None:
        K = _hull_window(theta, mu, riesz_u, cells=96)
    if riesz_u is None:
        riesz_u = riesz_measure(u, K)
    riesz_K = restrict(riesz_u, K)

    pt_mu = potential(mu, cfg)
    pt_theta = potential(theta, cfg)
    try:
        t_u_theta = integrate(theta, u, seed=seed)
        t_mu_riesz = integrate(riesz_K, pt_mu, seed=seed)
        t_theta_riesz = integrate(riesz_K, pt_theta, seed=seed)
        t_u_mu = integrate(mu, u, seed=seed)
    except IndeterminateIntegral as exc:
        raise IndeterminateIntegral(f"poisson-jensen integrals indeterminate: {exc}")

    lhs = t_u_theta + t_mu_riesz
    rhs = t_theta_riesz + t_u_mu
    scale = 1.0 + sum(abs(t) for t in (t_u_theta, t_mu_riesz, t_theta_riesz, t_u_mu)
                      if math.isfinite(t))
    terms = {"u_theta": t_u_theta, "pt_mu_riesz": t_mu_riesz,
             "pt_theta_riesz": t_theta_riesz, "u_mu": t_u_mu}
    rearranged = None
    if math.isfinite(t_u_theta):
        # Eq-style rearrangement: int u dtheta = int u dmu - int_K pt_{mu-theta} dRiesz
        rearranged = abs(t_u_theta - (t_u_mu - (t_mu_riesz - t_theta_riesz)))
    tol = tol_scale * scale
    mismatch = abs(lhs - rhs)
    passed = mismatch <= tol and (rearranged is None or rearranged <= tol)
    return Verdict("poisson-jensen", bool(passed), [],
                   {"lhs": lhs, "rhs": rhs, "mismatch": mismatch, "tol": tol, "terms": terms,
                    "rearranged_mismatch": rearranged})


# ---------------------------------------------------------------------------
# Phragmen-Lindelof style bound


def phragmen_lindelof_bound(V: ASPotential, green, S_o: Ball | None = None,
                            r: float | None = None, n_probes: int = 500,
                            tol: float = 1e-7, seed: int = 0) -> Verdict:
    """Check V <= g_D(., o) on probes (pole coefficient <= 1 required), and the
    kernel lower bound for V on the enlarged S_o when the source is known."""
    if V.pole_coefficient > 1.0 + 1e-6:
        raise ValueError(f"pole coefficient {V.pole_coefficient:.6g} exceeds 1")
    D = green.domain
    pts = quadrature.sample_in(
        quadrature.rng_for(seed, "pl-probes"), D.center, D.radius, n_probes,
        lambda p: D.contains_array(p) & (np.linalg.norm(p - V.pole, axis=1) > 1e-3))
    excess = V.evaluate_array(pts) - green.evaluate_array(pts)
    worst = float(np.max(excess))
    upper_ok = worst <= tol

    lower_ok, bound, observed = None, None, None
    if S_o is not None and r is not None and V.source is not None:
        enlarged = Ball(S_o.center, S_o.radius + 3.0 * r)
        supp = V.source.support_points()
        dist = np.linalg.norm(supp - enlarged.center[None, :], axis=1) - enlarged.radius
        gap = float(np.min(dist))
        if gap > 0:
            d = V.pole.size
            m = total_mass(V.source)
            sup_dist = float(np.linalg.norm(enlarged.center - V.pole) + enlarged.radius)
            bound = m * k_eval(d - 2, gap) - k_eval(d - 2, sup_dist)
            probes2 = _window_probes(enlarged, V.pole, 200, seed)
            observed = float(np.min(V.evaluate_array(probes2)))
            lower_ok = observed >= bound - tol
    return Verdict("phragmen-lindelof", bool(upper_ok and lower_ok is not False), [],
                   {"upper_ok": upper_ok, "worst_excess": worst, "lower_ok": lower_ok,
                    "lower_bound": bound, "observed_inf": observed})
