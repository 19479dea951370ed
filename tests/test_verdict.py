import json
import math

import numpy as np
import pytest

from potkit import green
from potkit.balayage import (TestFamily, build_test_family, check_affine, check_linear,
                             standard_jensen_family)
from potkit.duality import ASPotential, phragmen_lindelof_bound, verify_poisson_jensen
from potkit.fields import ScalarField, check_subharmonic
from potkit.geometry import Ball, GridDomain, point
from potkit.measures import Atom, Measure, restrict
from potkit.potentials import asymptotic_check, lower_bound_check
from potkit.presets import PRESETS, run_preset
from potkit.verdict import Row, Verdict
from potkit.zeros import (GrowthMajorant, HoloFunction, _variant, check_criterium3_forward,
                          check_thm_hol, poincare_lelong_check)

DISK = Ball(point(0, 0), 1.0)


def delta(x=(0.0, 0.0), w=1.0):
    return Measure(len(x), [Atom(np.asarray(x, float), w)])


def _om(x=(0.0, 0.0)):
    x = np.asarray(x, float)
    return green.harmonic_measure(green.green_ball(point(0, 0), 1.0, x), x)


def _zeros_setup():
    f = HoloFunction.polynomial([1, 0, -0.25])
    S_o, r = Ball(point(0, 0), 0.05), 0.03
    fam = build_test_family("sbh00+", S_o, r, -1.0, 1.0, f.domain, count=6)
    return f, GrowthMajorant.constant(math.log(5.0 / 4.0)), S_o, r, fam


def _check_linear():
    fam = standard_jensen_family(DISK)
    v = check_linear(delta(), _om(), fam)
    data = v.to_json()
    assert data["semantics"] == "sampled verdict" and data["pass"] is True
    assert len(v.rows) == len(fam.members)
    return v


def _check_affine():
    base = ScalarField(lambda p: np.maximum(1.0 - np.linalg.norm(p - [0.6, 0.0], axis=1),
                                            0.0) ** 2)
    members = [(f"t={t}", ScalarField(lambda p, t=t: t * base.evaluate_array(p)))
               for t in (1.0, 2.0, 4.0, 8.0)]
    fam = TestFamily("scaled", members, orbits={"amplitude": [0, 1, 2, 3]})
    theta = restrict(delta((0.6, 0.0), 5.0), Ball(point(0, 0), 0.1), complement=True)
    return check_affine(theta, Measure(2, []), fam)


def _poisson_jensen():
    return verify_poisson_jensen(delta(), _om(), ScalarField.log_distance(point(0.5, 0)),
                                 riesz_u=delta((0.5, 0.0)))


def _phragmen_lindelof():
    x = point(0, 0)
    V0 = ASPotential(ScalarField.constant(0.0), x, 0.0, 1.0, Ball(x, 0.5), "jensen")
    return phragmen_lindelof_bound(V0, green.green_ball(x, 1.0, x))


def _subharmonic():
    v = check_subharmonic(ScalarField.log_distance(point(2.0, 0)), [(point(0, 0), 0.5)],
                          tol=1e-6)
    assert len(v.rows) == 1 and v.rows[0].member == "probe" and v.rows[0].tol == 1e-6
    return v


def _asymptotic():
    return asymptotic_check(delta((1.0, 0.0)), [10, 20, 40])


def _lower_bound_atom_inside():
    # the atom lies in L, so the bound is -inf
    v = lower_bound_check(Measure(2, [Atom(point(0.5, 0), 1.0)]), Ball(point(0, 0), 1.0))
    assert v.data["bound"] == -math.inf and v.to_json()["bound"] == "-inf"
    return v


def _poincare_lelong():
    n = 161
    grid = GridDomain(point(-0.803, -0.803), 0.01, np.ones((n, n), bool))
    return poincare_lelong_check(HoloFunction.polynomial([1, -(0.5 - 0.25j)]), grid)


def _variant_zi():
    f, M, S_o, r, fam = _zeros_setup()
    v = _variant("ZI", f, M, S_o, r, fam, ring=True)
    assert v.name == "ZI" and len(v.rows) == len(fam.members)
    return v


def _thm_hol():
    f, M, S_o, r, fam = _zeros_setup()
    v = check_thm_hol(f, M, S_o, r, -1.0, 1.0,
                      families=dict.fromkeys(("sbh+0o", "sbh+0", "sbh00+"), fam))
    assert sum(len(sub.rows) for sub in v.data["variants"].values()) > 2
    return v


def _criterium3_forward():
    f, M, S_o, r, _ = _zeros_setup()
    v = check_criterium3_forward(f, M, S_o, r, -1.0, 1.0)
    assert [sub.name for sub in v.data["variants"].values()] == ["z2", "z3", "z4"]
    return v


CHECKERS = [_check_linear, _check_affine, _poisson_jensen, _phragmen_lindelof, _subharmonic,
            _asymptotic, _lower_bound_atom_inside, _poincare_lelong, _variant_zi, _thm_hol,
            _criterium3_forward]


@pytest.mark.parametrize("build", CHECKERS, ids=[b.__name__.lstrip("_") for b in CHECKERS])
def test_checker_returns_verdict(build):
    v = build()
    for rec in [v, *v.data.get("variants", {}).values()]:
        assert isinstance(rec, Verdict)
        assert isinstance(rec.passed, bool)
        assert all(isinstance(row, Row) for row in rec.rows)
    json.dumps(v.to_json(), allow_nan=False)


# rows without a tolerance, by member suffix: duality-roundtrip's "h=0.02"
# rows hold each error to criterion 7's fixed 2 %, a contract threshold
UNTOLERANCED = {"duality-roundtrip": "h=0.02"}
# presets whose checks hold no rows: green-ball's checks and classical-pj's
# identity are verdicts without margin rows, and the zeros presets' rows sit in
# their variant verdicts, whose affine rows take no tolerance (tol 0.0: a row
# passes when its margin is below +inf and not nan)
ROWLESS = ("green-ball", "classical-pj")
ZEROS = ("zeros-adversarial", "zeros-blaschke", "zeros-polynomial")


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_tolerances_follow_tol_scale(preset, monkeypatch):
    from potkit import zeros

    untoleranced = UNTOLERANCED.get(preset)
    rows, implication = {}, {}
    for s in (1.0, 10.0):
        # the zeros presets' one tolerance: check_thm_hol's ZI -> ZII implication bound
        seen = implication[s] = []

        def spy(lhs, rhs, tol_scale, seen=seen, pair_tol=zeros.pair_tol):
            seen.append(tol_scale)
            return pair_tol(lhs, rhs, tol_scale)

        monkeypatch.setattr(zeros, "pair_tol", spy)
        checks, _ = run_preset(preset, 0, s)
        monkeypatch.undo()
        rows[s] = [row for c in checks for row in c.rows]
    assert len(rows[1.0]) == len(rows[10.0])
    assert bool(rows[1.0]) == (preset not in ROWLESS + ZEROS)
    assert implication[1.0] == ([1e-6] if preset in ZEROS else [])
    assert implication[10.0] == [pytest.approx(1e-5, rel=1e-12)] * len(implication[1.0])
    for a, b in zip(rows[1.0], rows[10.0]):
        assert a.member == b.member
        if untoleranced and a.member.endswith(untoleranced):
            assert a.tol == b.tol == 0.0
            continue
        assert a.tol > 0
        assert b.tol == pytest.approx(10.0 * a.tol, rel=1e-12)


def test_probes_avoiding_refuses_a_short_probe_set():
    from potkit.fields import random_probes

    assert len(random_probes(DISK, 50, 0, r_lo=2e-3, holes=[((0.0, 0.0), 0.0)])) == 50
    with pytest.raises(ValueError, match="of 50 probes"):
        random_probes(DISK, 50, 0, r_lo=2e-3, holes=[((0.0, 0.0), 0.97)])
