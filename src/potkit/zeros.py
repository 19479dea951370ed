"""One-variable holomorphic test functions, zero counting and growth criteria.

Holomorphic data lives on planar domains; zeros are counted with
multiplicity and compared against Riesz recoveries of ln|f| and against the
inequality suites that relate zero distributions to growth majorants.

The suites run over the test families of their class tags, which
`class_families` builds once per distinct member set; a preset that runs
both `check_thm_hol` and `check_criterium3_forward` builds them once and
passes them to each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import quadrature
from .balayage import (LYONS_CLASS_TAGS, TestFamily, build_test_family, check_affine,
                       pair_tol)
from .fields import GridField, ScalarField, riesz_measure
from .geometry import Annulus, Ball, GridDomain
from .measures import Measure, _atoms, jordan, restrict, total_mass
from .verdict import Row, Verdict

__all__ = [
    "HoloFunction",
    "GrowthMajorant",
    "RegridRequest",
    "counting_measure",
    "class_families",
    "poincare_lelong_check",
    "check_thm_hol",
    "check_criterium3_forward",
]


RESIDUAL_TOL = 1e-8  # polynomial root residual, relative to the coefficient scale
DERIVATIVE_TOL = 1e-9  # derivative test of root multiplicity, on the same scale
ZERO_MERGE_TOL = 1e-12  # Blaschke zeros this close count as one
DOMINATE_SAMPLES = 10_000  # seeded samples of |f| <= exp(M) in check_dominates
DOMINATE_TOL = 1e-9  # and its absolute slack
# the class tags of the criteria variants: [ZI]/z2, [ZII]/z3, [ZIII] and z4
CRITERIA_CLASS_TAGS = ("sbh+0o", "sbh+0", "sbh00+", "sbh00")


class RegridRequest(ValueError):
    """A zero sits too close to the sampling lattice; choose another grid."""


def _as_complex(pts: np.ndarray) -> np.ndarray:
    return pts[:, 0] + 1j * pts[:, 1]


class HoloFunction:
    """Holomorphic test function on a planar domain, with an explicit zero set.

    Variants: 'polynomial' (companion-matrix roots, derivative-test
    multiplicities), 'blaschke' (truncated product, zeros given), and
    'explicit': ``HoloFunction("explicit", domain, zeros, multiplicities, abs_f)``
    with indexed zeros and an evaluable |f|.
    """

    def __init__(self, kind: str, domain: Ball, zeros: np.ndarray,
                 multiplicities: np.ndarray, abs_f, blaschke_sum: float | None = None):
        self.kind = kind
        self.domain = domain
        self.zeros = np.asarray(zeros, dtype=complex)
        self.multiplicities = np.asarray(multiplicities, dtype=int)
        self._abs_f = abs_f
        self.blaschke_sum = blaschke_sum

    # -- constructors ---------------------------------------------------

    @staticmethod
    def polynomial(coefficients) -> "HoloFunction":
        """Polynomial from highest-order-first coefficients, on the unit disk."""
        coeff = np.asarray(coefficients, dtype=complex)
        roots = np.roots(coeff)
        scale = float(np.max(np.abs(coeff))) + 1.0
        zeros, mults = _cluster_roots(coeff, roots, scale)

        def abs_f(z: np.ndarray) -> np.ndarray:
            return np.abs(np.polyval(coeff, z))

        return HoloFunction("polynomial", Ball(np.zeros(2), 1.0), zeros, mults, abs_f)

    @staticmethod
    def blaschke(zeros) -> "HoloFunction":
        """Truncated Blaschke product with the given zeros (listed with multiplicity)."""
        zeros = np.asarray(zeros, dtype=complex)
        if np.any(np.abs(zeros) >= 1.0):
            raise ValueError("Blaschke zeros must lie strictly inside the unit disk")
        uniq, mults = _dedupe(zeros)
        bsum = float(np.sum(1.0 - np.abs(zeros)))

        def abs_f(z: np.ndarray) -> np.ndarray:
            out = np.ones(len(z))
            for zk in zeros:
                num = np.abs(z - zk)
                den = np.abs(1.0 - np.conj(zk) * z)
                out *= np.where(den > 0, num / den, np.inf)
            return out

        return HoloFunction("blaschke", Ball(np.zeros(2), 1.0), uniq, mults, abs_f,
                            blaschke_sum=bsum)

    # -- evaluation -------------------------------------------------------

    def abs_at(self, z: np.ndarray) -> np.ndarray:
        return self._abs_f(np.asarray(z, dtype=complex))

    def log_abs_field(self) -> ScalarField:
        def _eval(pts):
            with np.errstate(divide="ignore"):
                return np.log(self.abs_at(_as_complex(np.atleast_2d(pts))))

        return ScalarField(_eval, domain=self.domain)

    def zero_points(self) -> np.ndarray:
        return np.column_stack([self.zeros.real, self.zeros.imag])

    def to_json(self) -> list:
        return [{"re": float(z.real), "im": float(z.imag), "multiplicity": int(m)}
                for z, m in zip(self.zeros, self.multiplicities)]


def _dedupe(zeros: np.ndarray):
    """The distinct zeros in first-seen order and their counts: a zero within
    ZERO_MERGE_TOL of a kept one counts for the first such kept zero."""
    uniq, mults = np.empty(len(zeros), dtype=complex), np.zeros(len(zeros), dtype=int)
    n = 0
    for z in zeros:
        # np.abs of a complex is hypot, as Python's abs is: the same booleans
        hit = np.flatnonzero(np.abs(z - uniq[:n]) <= ZERO_MERGE_TOL)
        if len(hit):
            mults[hit[0]] += 1
        else:
            uniq[n], mults[n] = z, 1
            n += 1
    return uniq[:n], mults[:n]


def _cluster_roots(coeff, roots, scale):
    """Cluster companion-matrix roots and confirm multiplicities by derivatives."""
    degree = len(coeff) - 1
    used = np.zeros(len(roots), dtype=bool)
    zeros, mults = [], []
    for i, z in enumerate(roots):
        if used[i]:
            continue
        cluster = [i]
        used[i] = True
        for j in range(i + 1, len(roots)):
            if not used[j] and abs(roots[j] - z) < 1e-5:
                cluster.append(j)
                used[j] = True
        center = np.mean(roots[cluster])
        m = len(cluster)
        # polish on the (m-1)-st derivative, whose root is simple
        dm = np.polyder(coeff, m - 1) if m > 1 else coeff
        for _ in range(3):
            val = np.polyval(dm, center)
            der = np.polyval(np.polyder(dm), center)
            if der != 0:
                center = center - val / der
        if abs(np.polyval(coeff, center)) > RESIDUAL_TOL * scale:
            raise ValueError(f"root residual too large near {center}")
        # derivative test: |f^(k)| small below the multiplicity, sizable at it
        k = 0
        dk = np.asarray(coeff)
        while k < degree and abs(np.polyval(dk, center)) <= DERIVATIVE_TOL * scale:
            dk = np.polyder(dk)
            k += 1
        zeros.append(center)
        mults.append(max(k, 1))
    return np.asarray(zeros, dtype=complex), np.asarray(mults, dtype=int)


@dataclass
class GrowthMajorant:
    """Growth data M = M_plus - M_minus with its Riesz charge pieces."""

    M_plus: ScalarField
    M_minus: ScalarField | None = None
    mu_plus: Measure | None = None
    mu_minus: Measure | None = None

    def value(self, pts: np.ndarray) -> np.ndarray:
        out = self.M_plus.evaluate_array(pts)
        if self.M_minus is not None:
            out = out - self.M_minus.evaluate_array(pts)
        return out

    def charge(self) -> Measure:
        mu = self.mu_plus if self.mu_plus is not None else Measure(2, [])
        if self.mu_minus is not None:
            mu = mu - self.mu_minus
        return mu

    def minus_charge(self) -> Measure:
        return self.mu_minus if self.mu_minus is not None else Measure(2, [])

    @staticmethod
    def constant(c: float) -> "GrowthMajorant":
        return GrowthMajorant(ScalarField.constant(c))

    def check_dominates(self, f: HoloFunction, seed: int = 0):
        """Verify |f| <= exp(M) on samples; returns the witness on failure."""
        D = f.domain
        pts = quadrature.sample_in(quadrature.rng_for(seed, "majorant-samples"), D.center,
                                   D.radius, DOMINATE_SAMPLES, D.contains_array)
        lhs = np.log(np.maximum(f.abs_at(_as_complex(pts)), 1e-300))
        rhs = self.value(pts)
        bad = lhs > rhs + DOMINATE_TOL
        if bad.any():
            return pts[np.argmax(lhs - rhs)]
        return None


# ---------------------------------------------------------------------------
# counting and Poincare-Lelong


def counting_measure(f: HoloFunction, S) -> Measure:
    """Atoms (zero, multiplicity) for the zeros of f inside S."""
    return restrict(Measure(2, _atoms(f.zero_points(), f.multiplicities)), S)


def poincare_lelong_check(f: HoloFunction, grid: GridDomain, window: int = 2,
                          rel_tol: float = 0.05) -> Verdict:
    """Recover each zero's multiplicity from the grid Riesz measure of ln|f|.

    Window masses are summed over (2*window+1)^2 cells around each zero;
    zeros within h/4 of a cell center trigger a RegridRequest.
    """
    h = grid.spacing
    pts = f.zero_points()
    for p in pts:
        idx = grid.index_of(p)
        if idx is not None:
            center = grid.origin + np.asarray(idx) * h
            if float(np.linalg.norm(p - center)) < h / 4.0:
                raise RegridRequest(f"zero at {p} is within h/4 of a lattice point")
    mu = riesz_measure(GridField.sample(f.log_abs_field(), grid))
    masses = np.asarray(mu.components[0].values)
    rows = []
    passed = True
    for p, m in zip(pts, f.multiplicities):
        idx = grid.index_of(p)
        if idx is None:
            continue
        sl = tuple(slice(max(0, i - window), i + window + 1) for i in idx)
        w = float(np.sum(masses[sl]))
        err = abs(w - m) / m
        rows.append(Row(str(complex(p[0], p[1])), w, int(m), err, err <= rel_tol, rel_tol))
        passed &= err <= rel_tol
    total = float(np.sum(masses))
    if len(pts) == 0:
        passed = abs(total) <= 1e-6
    return Verdict("poincare-lelong", bool(passed), rows, {"total_recovered": total})


# ---------------------------------------------------------------------------
# growth criteria suites


def _variant(name: str, f: HoloFunction, majorant: GrowthMajorant, S_o: Ball, r: float,
             family: TestFamily, subdivisor=None, *, ring: bool) -> Verdict:
    """One inequality variant: the affine balayage (``balayage.check_affine``) of the
    zeros off S_o, each weighted by its multiplicity m or by ``subdivisor(p, m)``,
    onto the majorant charge off S_o.

    With ``ring`` the majorant charge is taken off the 3r-enlarged core, less
    its minus part on the ring between, as one charge.  ``data`` holds the
    affine constant C, the diverging orbits, the margins, and what failed the
    variant: its indeterminate members and the witness of a +inf margin.
    """
    theta = restrict(Measure(2, _atoms(f.zero_points(), f.multiplicities)), S_o,
                     complement=True)
    if subdivisor is not None:  # a scalar callback, one call per kept zero
        theta = Measure(2, [replace(c, weights=list(map(subdivisor, c.points, c.weights)))
                            for c in theta.components])
    if ring:
        enlarged = Ball(S_o.center, S_o.radius + 3.0 * r)
        ring_minus = restrict(restrict(majorant.minus_charge(), enlarged), S_o, complement=True)
        mu_out = restrict(majorant.charge(), enlarged, complement=True) - ring_minus
    else:
        mu_out = restrict(majorant.charge(), S_o, complement=True)
    v = check_affine(theta, mu_out, family)
    data = {"variant": name, "C": v.data["C"], "diverging": v.data["diverging_orbits"],
            "margins": v.data["margins"]}
    if v.data["indeterminate"]:
        data["indeterminate"] = v.data["indeterminate"]
    if v.worst_margin == math.inf:  # check_affine names the first +inf member
        data["witness"] = v.data["witness"]
    return Verdict(name, v.passed, v.rows, data)


def class_families(S_o: Ball, r: float, b_minus: float, b_plus: float, D: Ball,
                   seed: int = 0, tags: tuple = CRITERIA_CLASS_TAGS) -> dict:
    """The test family of each class tag in `tags`, by tag, for the zero criteria.

    The classes in ``balayage.LYONS_CLASS_TAGS`` share one member set and so
    one family, which ``build_test_family`` of their tuple builds once and
    validates against each in turn; every other tag gets its own.  A preset
    passes the result to ``check_thm_hol`` and ``check_criterium3_forward``.
    """
    lyons = tuple(tag for tag in tags if tag in LYONS_CLASS_TAGS)
    families = {}
    if lyons:
        families = dict.fromkeys(lyons, build_test_family(lyons, S_o, r, b_minus, b_plus, D,
                                                          seed=seed))
    for tag in tags:
        if tag not in families:
            families[tag] = build_test_family(tag, S_o, r, b_minus, b_plus, D, seed=seed)
    return families


def _run_variants(f: HoloFunction, majorant: GrowthMajorant, S_o: Ball, r: float,
                  b_minus: float, b_plus: float, plan, families: dict | None,
                  seed: int) -> dict:
    """Check the majorant, then run each (variant, class tag, ring, subdivisor) row
    of `plan` over the family of its tag in `families` (``class_families`` of the
    plan's tags when None)."""
    witness = majorant.check_dominates(f, seed=seed)
    if witness is not None:
        raise ValueError(f"majorant violated at {witness}")
    if families is None:
        families = class_families(S_o, r, b_minus, b_plus, f.domain, seed,
                                  tags=tuple(tag for _, tag, _, _ in plan))
    return {name: _variant(name, f, majorant, S_o, r, families[tag], subdivisor, ring=ring)
            for name, tag, ring, subdivisor in plan}


def check_thm_hol(f: HoloFunction, majorant: GrowthMajorant, S_o: Ball, r: float,
                  b_minus: float, b_plus: float, families: dict | None = None,
                  subdivisor=None, seed: int = 0, tol_scale: float = 1e-7) -> Verdict:
    """Run the three zero-distribution inequality variants against a majorant.

    Each variant is an affine balayage of the zeros off the core (see
    ``_variant``).  [ZI] takes the majorant charge off the 3r-enlarged core,
    less its minus part on the intermediate ring; [ZII] uses the plain core
    complement; [ZIII] does the same for a positive family and an optional
    subdivisor.  The variants run over the families of classes sbh+0o, sbh+0
    and sbh00+ in `families` (by tag, as ``class_families`` gives them), built
    here when None.  ``data["variants"]`` holds the per-variant verdicts (their
    empirical constants and divergence flags), next to the internal
    implication bound C_II <= C_I + max(b_plus, -b_minus) * |mu_M|(ring).
    ``tol_scale`` (relative, as in ``check_linear``) reaches only that bound,
    held to ten times it: the variants' affine verdicts take no tolerance.
    """
    plan = (("ZI", "sbh+0o", True, None), ("ZII", "sbh+0", False, None),
            ("ZIII", "sbh00+", False, subdivisor))
    variants = _run_variants(f, majorant, S_o, r, b_minus, b_plus, plan, families, seed)

    ring = Annulus(S_o.center, S_o.radius, S_o.radius + 3.0 * r)
    mu_plus_ring, mu_minus_ring = jordan(restrict(majorant.charge(), ring))
    ring_variation = total_mass(mu_plus_ring) + total_mass(mu_minus_ring)
    c1, c2 = variants["ZI"].data["C"], variants["ZII"].data["C"]
    bound = c1 + max(b_plus, -b_minus) * ring_variation
    tol = pair_tol(c2, bound, 10 * tol_scale)
    implication_ok = (not math.isfinite(c1)) or c2 <= bound + tol
    return Verdict("thm-hol", all(v.passed for v in variants.values()), [],
                   {"variants": variants,
                    "implication_ZI_to_ZII": {"C1": c1, "C2": c2, "bound": bound,
                                              "ok": bool(implication_ok)},
                    "blaschke_sum": f.blaschke_sum})


def check_criterium3_forward(Z: HoloFunction, majorant: GrowthMajorant, S_o: Ball, r: float,
                             b_minus: float, b_plus: float, families: dict | None = None,
                             seed: int = 0) -> Verdict:
    """Forward stages of the unit-disk zero-set criterium.

    Given the zero set of Z with |Z| <= exp M, the [z2]/[z3]/[z4]
    sampled inequality suites must all pass; their per-stage constants and
    divergence flags are reported.  (The nonconstructive converse is not
    synthesized.)  The stages run over the families of classes sbh+0o, sbh+0
    and sbh00 in `families`, as in ``check_thm_hol``.
    """
    plan = (("z2", "sbh+0o", True, None), ("z3", "sbh+0", False, None),
            ("z4", "sbh00", False, None))
    variants = _run_variants(Z, majorant, S_o, r, b_minus, b_plus, plan, families, seed)
    return Verdict("criterium3-forward", all(v.passed for v in variants.values()), [],
                   {"variants": variants, "blaschke_sum": Z.blaschke_sum})
