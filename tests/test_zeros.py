import json
import math

import numpy as np
import pytest

from potkit.geometry import Ball, GridDomain, point
from potkit.measures import total_mass
from potkit.zeros import (GrowthMajorant, HoloFunction, RegridRequest,
                          check_criterium3_forward, check_thm_hol, counting_measure,
                          poincare_lelong_check)

DISK = Ball(point(0, 0), 1.0)


def test_polynomial_zeros_and_counting():
    f = HoloFunction.polynomial([1, 0, -0.25])
    assert sorted(z.real for z in f.zeros) == [-0.5, 0.5]
    assert list(f.multiplicities) == [1, 1]
    cm = counting_measure(f, DISK)
    assert total_mass(cm) == 2.0


def test_polynomial_double_zero():
    f = HoloFunction.polynomial([1, -0.6, 0.09])  # (z - 0.3)^2
    assert len(f.zeros) == 1
    assert f.zeros[0] == pytest.approx(0.3, abs=1e-9)
    assert f.multiplicities[0] == 2


def test_nonvanishing_function():
    f = HoloFunction.polynomial([1.0])
    assert len(f.zeros) == 0
    assert total_mass(counting_measure(f, DISK)) == 0.0


def test_counting_measure_respects_region():
    f = HoloFunction.polynomial([1, 0, -4.0])  # zeros at +-2
    assert total_mass(counting_measure(f, DISK)) == 0.0
    assert total_mass(counting_measure(f, Ball(point(0, 0), 3.0))) == 2.0


def test_blaschke_product_bounded():
    zs = [1 - 2.0 ** (-k) for k in range(1, 11)]
    f = HoloFunction.blaschke(zs)
    assert f.blaschke_sum == pytest.approx(sum(1 - z for z in zs))
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.7, 0.7, size=(200, 2))
    z = pts[:, 0] + 1j * pts[:, 1]
    assert np.all(f.abs_at(z) <= 1.0 + 1e-12)
    with pytest.raises(ValueError):
        HoloFunction.blaschke([1.0])


def _grid(h=0.01, half=0.80):
    n = int(round(2 * half / h)) + 1
    return GridDomain(point(-half - 0.003, -half - 0.003), h, np.ones((n, n), bool))


def test_poincare_lelong_single_and_double():
    f = HoloFunction.polynomial([1, -(0.5 - 0.25j)])  # zero at 0.5 - 0.25i, off lattice
    rep = poincare_lelong_check(f, _grid())
    assert rep.passed
    row = rep.rows[0]
    assert row.rhs == 1 and row.margin <= 0.05

    f2 = HoloFunction.polynomial([1, -0.6, 0.09])
    rep2 = poincare_lelong_check(f2, _grid())
    assert rep2.passed and rep2.rows[0].rhs == 2


def test_poincare_lelong_nonvanishing():
    rep = poincare_lelong_check(HoloFunction.polynomial([1.0]), _grid(h=0.02))
    assert rep.passed and abs(rep.data["total_recovered"]) <= 1e-6


def test_poincare_lelong_refinement_halves_error():
    # fixed physical window (a cell-count window is self-similar and flat in h);
    # the error at least halves per refinement, with 20 percent slack --
    # observed rate is in fact close to quartering
    f = HoloFunction.polynomial([1, -(0.31 + 0.172j)])
    errs = []
    for h in (0.02, 0.01):
        w = max(1, int(round(0.05 / h)))
        rep = poincare_lelong_check(f, _grid(h=h), window=w, rel_tol=1.0)
        errs.append(rep.rows[0][3])
    assert errs[1] <= 0.5 * errs[0] * 1.2


def test_poincare_lelong_regrid_request():
    n = 81
    grid = GridDomain(point(-0.8, -0.8), 0.02, np.ones((n, n), bool))
    f = HoloFunction.polynomial([1, -(0.2 + 0.2j)])  # exactly on a lattice point
    with pytest.raises(RegridRequest):
        poincare_lelong_check(f, grid)


def _setup_poly():
    f = HoloFunction.polynomial([1, 0, -0.25])
    M = GrowthMajorant.constant(math.log(5.0 / 4.0))
    return f, M, Ball(point(0, 0), 0.05), 0.03


def test_check_thm_hol_polynomial():
    f, M, S_o, r = _setup_poly()
    rep = check_thm_hol(f, M, S_o, r, -1.0, 1.0)
    assert rep.passed
    assert rep.data["variants"]["ZIII"].data["C"] <= 2.0 + 1e-9
    impl = rep.data["implication_ZI_to_ZII"]
    assert impl["ok"]
    data = rep.to_json()
    assert data["pass"] is True


def test_check_thm_hol_majorant_violation():
    f, _, S_o, r = _setup_poly()
    too_small = GrowthMajorant.constant(-1.0)
    with pytest.raises(ValueError):
        check_thm_hol(f, too_small, S_o, r, -1.0, 1.0)


def test_check_thm_hol_nonzero_majorant_charge():
    # M = ln(5/4) + 0.4 |z|^2 with split plus/minus parts exercises the ring
    # integrals and the implication bound with a nonzero |mu_M|(ring)
    from potkit.fields import ScalarField
    from potkit.measures import BallUniform, Measure

    f = HoloFunction.polynomial([1, 0, -0.25])
    c = math.log(5.0 / 4.0)
    M_plus = ScalarField(lambda p: c + 0.5 * np.sum(p ** 2, axis=1))
    M_minus = ScalarField(lambda p: 0.1 * np.sum(p ** 2, axis=1))
    area = lambda a: (2.0 / math.pi) * math.pi * a ** 2  # riesz mass of |x|^2 on a disk
    mu_plus = Measure(2, [BallUniform(point(0, 0), 1.3, 0.5 * area(1.3))])
    mu_minus = Measure(2, [BallUniform(point(0, 0), 1.3, 0.1 * area(1.3))])
    maj = GrowthMajorant(M_plus, M_minus, mu_plus, mu_minus)
    rep = check_thm_hol(f, maj, Ball(point(0, 0), 0.05), 0.03, -1.0, 1.0)
    assert rep.passed
    impl = rep.data["implication_ZI_to_ZII"]
    assert impl["ok"] and impl["bound"] > impl["C1"]  # the ring term is active


def test_check_thm_hol_subdivisor_monotone():
    f, M, S_o, r = _setup_poly()
    full = check_thm_hol(f, M, S_o, r, -1.0, 1.0)
    half = check_thm_hol(f, M, S_o, r, -1.0, 1.0,
                         subdivisor=lambda p, m: m if p[0] > 0 else 0)
    c_half = half.data["variants"]["ZIII"].data["C"]
    assert c_half <= full.data["variants"]["ZIII"].data["C"] + 1e-12


def test_blaschke_direct_sum_oracle():
    zs = [1 - 2.0 ** (-k) for k in range(1, 11)]
    oracle = sum(math.log(1.0 / z) for z in zs)
    assert oracle == pytest.approx(1.2414, abs=5e-4)
    f = HoloFunction.blaschke(zs)
    rep = check_thm_hol(f, GrowthMajorant.constant(0.0), Ball(point(0, 0), 0.05),
                        0.03, -1.0, 3.5)
    assert rep.passed
    # every finite constant stays near/below the direct-summation envelope
    # (members are capped by b_plus-scaled ridges)
    for res in rep.data["variants"].values():
        assert res.data["C"] <= 3.5 / math.log(20) * oracle * 1.5 + 1e-9


def test_criterium_forward_stages():
    f, M, S_o, r = _setup_poly()
    rep = check_criterium3_forward(f, M, S_o, r, -1.0, 1.0)
    assert rep.passed
    assert set(rep.data["variants"]) == {"z2", "z3", "z4"}

    zs = [1 - 2.0 ** (-k) for k in range(1, 11)]
    fb = HoloFunction.blaschke(zs)
    repb = check_criterium3_forward(fb, GrowthMajorant.constant(0.0), S_o, r, -1.0, 3.5)
    assert repb.passed


def test_adversarial_divergence_flagged():
    zs = [1 - 1.0 / k for k in range(2, 201)]
    f = HoloFunction.blaschke(zs)
    assert f.blaschke_sum > 4.0  # divergent-regime truncation
    rep = check_thm_hol(f, GrowthMajorant.constant(0.0), Ball(point(0, 0), 0.05),
                        0.03, -1.0, 3.5)
    assert not rep.passed
    assert any(res.data["diverging"] for res in rep.data["variants"].values())


def test_zero_set_serialization():
    f = HoloFunction.polynomial([1, -0.6, 0.09])
    data = json.loads(json.dumps(f.to_json()))
    assert data == [{"re": pytest.approx(0.3, abs=1e-9), "im": pytest.approx(0.0, abs=1e-9),
                     "multiplicity": 2}]


def test_check_thm_hol_with_explicit_family():
    from potkit.balayage import build_test_family

    f, M, S_o, r = _setup_poly()
    fam = build_test_family("sbh00+", S_o, r, -1.0, 1.0, f.domain, count=6)
    rep = check_thm_hol(f, M, S_o, r, -1.0, 1.0, family=fam)
    assert rep.passed
    # all three variants ran over the same supplied members
    sizes = {len(res.rows) for res in rep.data["variants"].values()}
    assert sizes == {len(fam.members)}


def test_explicit_zero_set_variant():
    zs = np.array([0.4 + 0.1j, -0.3 + 0.2j])
    mults = [1, 2]

    def abs_f(z):
        return np.abs(z - zs[0]) * np.abs(z - zs[1]) ** 2

    f = HoloFunction("explicit", Ball(point(0, 0), 1.0), zs, mults, abs_f)
    assert total_mass(counting_measure(f, Ball(point(0, 0), 1.0))) == 3.0
    rep = poincare_lelong_check(f, _grid(h=0.01))
    assert rep.passed
    by_mult = {int(r.rhs): r.lhs for r in rep.rows}
    assert by_mult[1] == pytest.approx(1.0, rel=0.05)
    assert by_mult[2] == pytest.approx(2.0, rel=0.05)


# ---------------------------------------------------------------------------
# variant rows against the per-zero and per-member loops they replaced


def _zero_sum_reference(f_zeros, f_mults, v, S_o, subdivisor):
    """The per-zero loop of the zero sums: one single-point call v(p) per kept zero
    (membership by the row-stack test).  Returns the sum and n eps sum_i |w_i v(p_i)|,
    the worst-case gap between two summation orders of its n terms."""
    total, scale = 0.0, 0.0
    for p, m in zip(f_zeros, f_mults):
        if S_o.contains_array(np.asarray(p)[None, :])[0]:
            continue
        w = m if subdivisor is None else subdivisor(p, m)
        if w == 0:
            continue
        term = w * float(v(np.asarray(p)))
        total, scale = total + term, scale + abs(term)
    return float(total), len(f_zeros) * np.finfo(float).eps * scale


def _variant_rows_reference(f, majorant, S_o, r, family, subdivisor, ring):
    """The member loop of the variants: restrictions rebuilt for every member, and
    the ring variant's majorant charge integrated as one charge."""
    from potkit.measures import integrate, restrict

    pts, mults = f.zero_points(), f.multiplicities
    mu_M, mu_minus = majorant.charge(), majorant.minus_charge()
    enlarged = Ball(S_o.center, S_o.radius + 3.0 * r)
    rows = []
    for mname, v in family.members:
        lhs, _ = _zero_sum_reference(pts, mults, v, S_o, subdivisor)
        if ring:
            ring_minus = restrict(restrict(mu_minus, enlarged), S_o, complement=True)
            rhs = integrate(restrict(mu_M, enlarged, complement=True) - ring_minus, v)
        else:
            rhs = integrate(restrict(mu_M, S_o, complement=True), v)
        rows.append((mname, lhs, rhs, lhs - rhs))
    return rows


def _assert_same(got, want, bound=0.0):
    """Equal values of the same type, nan matching nan, or finite ones within `bound`."""
    assert type(got) is type(want)
    assert (got == want or (math.isnan(got) and math.isnan(want))
            or (math.isfinite(want) and abs(got - want) <= bound))


def _run_variant(f, family, subdivisor=None, majorant=None, ring=False):
    from potkit.zeros import _variant

    majorant = majorant or GrowthMajorant.constant(0.0)
    return _variant("v", f, majorant, CORE, 0.03, family, subdivisor, ring=ring)


CORE = Ball(point(0, 0), 0.05)
ZERO_SETS = {
    "blaschke": lambda: HoloFunction.blaschke([1 - 2.0 ** (-k) for k in range(1, 11)]),
    "polynomial": lambda: HoloFunction.polynomial([1, 0, -0.25]),
    # zeros at the core center, inside it, on its rim (0.03 + 0.04i rounds either way
    # under norm) and outside it, with multiplicities up to 3
    "rim": lambda: HoloFunction(
        "explicit", DISK,
        [0.0, 0.01 + 0.02j, 0.05, -0.05j, 0.03 + 0.04j, 0.3 + 0.1j, -0.6j, -0.45 - 0.2j],
        [1, 2, 1, 3, 1, 2, 1, 3], lambda z: np.ones(len(z))),
}
SUBDIVISORS = {
    "none": None,
    "zero-or-half": lambda p, m: 0 if p[0] < 0 else 0.5 * m,
    "third": lambda p, m: m / 3.0,
}


def _charged_majorant():
    """A nonzero majorant charge with a minus part, which reaches the ring term."""
    from potkit.fields import ScalarField
    from potkit.measures import BallUniform, Measure

    c = math.log(5.0 / 4.0)
    return GrowthMajorant(
        ScalarField(lambda p: c + 0.5 * np.sum(p ** 2, axis=1)),
        ScalarField(lambda p: 0.1 * np.sum(p ** 2, axis=1)),
        Measure(2, [BallUniform(point(0, 0), 1.3, 3.38)]),
        Measure(2, [BallUniform(point(0, 0), 1.3, 0.676)]))


@pytest.fixture(scope="module")
def zero_families():
    from potkit.balayage import build_test_family

    return {(tag, seed): build_test_family(tag, CORE, 0.03, -1.0, 3.5, DISK, seed=seed)
            for tag in ("sbh+0o", "sbh+0", "sbh00+") for seed in (0, 1)}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("zero_set", sorted(ZERO_SETS))
@pytest.mark.parametrize("sub", sorted(SUBDIVISORS))
def test_zero_sum_matches_per_zero_reference(zero_families, seed, zero_set, sub):
    # a variant's lhs is its counting measure off the core integrated as one atom
    # cloud: the per-zero loop's value, as a float
    f, subdivisor = ZERO_SETS[zero_set](), SUBDIVISORS[sub]
    pts = f.zero_points()
    for tag in ("sbh+0o", "sbh+0", "sbh00+"):
        family = zero_families[tag, seed]
        got = _run_variant(f, family, subdivisor, ring=tag == "sbh+0o")
        assert len(got.rows) == len(family.members)
        for row, (_, v) in zip(got.rows, family.members):
            _assert_same(row.lhs, *_zero_sum_reference(pts, f.multiplicities, v, CORE,
                                                       subdivisor))


@pytest.mark.parametrize("sub", sorted(SUBDIVISORS))
def test_zero_sum_infinite_members_match_reference(sub):
    from potkit.balayage import TestFamily
    from potkit.fields import ScalarField
    from potkit.green import green_ball

    f, subdivisor = ZERO_SETS["rim"](), SUBDIVISORS[sub]
    pts = f.zero_points()
    minus_inf = ScalarField.log_distance(pts[6])  # -inf at -0.6i
    plus_inf = green_ball(point(0, 0), 1.0, pts[5])  # +inf at 0.3 + 0.1i
    members = [minus_inf, plus_inf, minus_inf + plus_inf,
               ScalarField.log_distance(pts[7], 0.5)]  # -inf at a zero "zero-or-half" drops
    family = TestFamily("infinite", [(f"m{k}", v) for k, v in enumerate(members)])
    got = _run_variant(f, family, subdivisor)
    for row, v in zip(got.rows, members):
        with np.errstate(invalid="ignore"):  # -inf + inf
            want, bound = _zero_sum_reference(pts, f.multiplicities, v, CORE, subdivisor)
        if math.isnan(want):  # +inf and -inf terms: an indeterminate row
            assert math.isnan(row.lhs) and math.isnan(row.rhs) and math.isnan(row.margin)
        else:
            _assert_same(row.lhs, want, bound)
            _assert_same(row.margin, want, bound)  # the majorant charge is empty
    margins = [row.margin for row in got.rows]
    assert margins[0] == -math.inf and margins[1] == math.inf and math.isnan(margins[2])
    assert math.isfinite(margins[3]) == (sub == "zero-or-half")
    assert not got.passed and math.isnan(got.data["margins"]["m2"])
    # the reasons: the indeterminate member, and the +inf member that failed it
    assert got.data["indeterminate"] == ["m2"] and got.data["witness"] == "m1"
    assert [row.passed for row in got.rows] == [True, False, False, True]


@pytest.mark.parametrize("zero_set", ["blaschke", "polynomial"])
@pytest.mark.parametrize("seed", [0, 1])
def test_variant_rows_match_per_member_reference(zero_families, zero_set, seed):
    f = ZERO_SETS[zero_set]()
    majorants = [GrowthMajorant.constant(0.0)]
    if zero_set == "polynomial":
        majorants.append(_charged_majorant())
    for majorant in majorants:
        for tag, ring, sub in (("sbh+0o", True, None), ("sbh+0", False, None),
                               ("sbh00+", False, SUBDIVISORS["zero-or-half"])):
            family = zero_families[tag, seed]
            got = _run_variant(f, family, sub, majorant, ring)
            want = _variant_rows_reference(f, majorant, CORE, 0.03, family, sub, ring)
            assert len(got.rows) == len(want)
            for row, (name, lhs, rhs, margin) in zip(got.rows, want):
                assert row.member == name
                for a, b in ((row.lhs, lhs), (row.rhs, rhs), (row.margin, margin)):
                    _assert_same(a, b)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("zero_set", sorted(ZERO_SETS))
@pytest.mark.parametrize("sub", sorted(SUBDIVISORS))
def test_plain_variants_are_check_affine_off_the_core(zero_families, seed, zero_set, sub):
    # without the ring a variant is check_affine of the whole weighted zero cloud,
    # both charges restricted off the core
    from potkit.balayage import check_affine
    from potkit.measures import Measure, _atoms, restrict

    f, subdivisor = ZERO_SETS[zero_set](), SUBDIVISORS[sub]
    pts, weights = f.zero_points(), f.multiplicities.astype(float)
    if subdivisor is not None:
        weights = [subdivisor(p, m) for p, m in zip(pts, weights)]
    theta = restrict(Measure(2, _atoms(pts, weights)), CORE, complement=True)
    for majorant in (GrowthMajorant.constant(0.0), _charged_majorant()):
        for tag in ("sbh+0", "sbh00+"):
            family = zero_families[tag, seed]
            got = _run_variant(f, family, subdivisor, majorant)
            want = check_affine(theta, restrict(majorant.charge(), CORE, complement=True),
                                family)
            assert got.passed == want.passed and len(got.rows) == len(want.rows)
            for row, ref in zip(got.rows, want.rows):
                assert (row.member, row.passed) == (ref.member, ref.passed)
                for a, b in zip(row[1:4] + row[5:], ref[1:4] + ref[5:]):
                    _assert_same(a, b)
            for key, ref_key in (("C", "C"), ("diverging", "diverging_orbits"),
                                 ("margins", "margins")):
                assert got.data[key] == want.data[ref_key] or (
                    key == "C" and math.isnan(got.data[key]) and math.isnan(want.data[key]))


def test_passing_variants_hold_no_failed_row():
    # an affine row passes by the verdict's own rule, margin < +inf and not nan,
    # with no tolerance; a passing variant names no indeterminate member or witness
    from potkit.presets import run_preset
    from potkit.verdict import Verdict

    checks, _ = run_preset("zeros-polynomial", 0, 1.0)
    variants = [v for c in checks for v in c.data.values() if isinstance(v, Verdict)]
    assert [v.name for v in variants] == ["ZI", "ZII", "ZIII", "z2", "z3", "z4"]
    assert all(v.passed for v in variants)
    rows = [row for v in variants for row in v.rows]
    assert len(rows) == 106 and all(row.passed and row.tol == 0.0 for row in rows)
    assert all(v.data.keys() == {"variant", "C", "diverging", "margins"} for v in variants)


# (GreenModel._evaluate calls, single-point ScalarField.__call__ calls) per zeros preset
# at seed 0; a count that grows means a per-zero or per-sphere loop came back
ZEROS_PRESET_WORK = {
    "zeros-polynomial": (422, 0),
    "zeros-blaschke": (432, 10),  # the preset's own direct sum over its 10 zeros
    "zeros-adversarial": (211, 0),
}


@pytest.mark.parametrize("name", sorted(ZEROS_PRESET_WORK))
def test_zeros_preset_work_counters(monkeypatch, name):
    from potkit.fields import ScalarField
    from potkit.green import GreenModel
    from potkit.presets import run_preset

    counts = {"_evaluate": 0, "__call__": 0}

    def counted(cls, attr):
        fn = getattr(cls, attr)

        def wrapper(*args, **kwargs):
            counts[attr] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(cls, attr, wrapper)

    counted(GreenModel, "_evaluate")
    counted(ScalarField, "__call__")
    run_preset(name, 0, 1.0)
    assert (counts["_evaluate"], counts["__call__"]) == ZEROS_PRESET_WORK[name]
