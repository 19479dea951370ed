"""Seeded generator of scenario files whose outcome is known mathematically.

Every generated file carries the exit code the CLI contract promises for it
(0 pass, 1 a check failed, 2 schema violation); the scenario itself never
sees that expectation.  Kinds, in the fixed counts of ``KIND_COUNTS``:

* ``sweep-pass``  check-linear of delta_x against the harmonic measure
  omega_x of a ball, with kernels centred outside the ball: Poisson
  reproduction makes every member an equality, so the check passes.
* ``sweep-fail``  delta_y against omega_x with |y - x| >= R/2: the kernel
  values at y and x differ, so the equalities fail.
* ``class-fail``  delta_x against omega_x over a generated ``sbh00+``
  test-class family (member validation runs).  Each ridge member is positive
  at x and vanishes on the ball's sphere, where omega_x lives, so the sweep
  inequality fails.
* ``pj-pass``  poisson-jensen with u = log|z - a| and riesz_u = delta_a.
* ``malformed-*``  schema-invalid files; the CLI contract says exit 2.

The per-kind lists of family sizes are fixed and only their order varies
with the seed, so the total work of one pass is the same for every seed.
"""

from __future__ import annotations

import json
import math
import random

# file counts per kind in one pass (200 files); the malformed kinds are a
# fixed minority of 10 %
KIND_COUNTS = {
    "sweep-pass": 64,
    "sweep-fail": 40,
    "class-fail": 24,
    "pj-pass": 52,
    "malformed-dirac-no-point": 5,
    "malformed-measure-kind": 5,
    "malformed-schema-version": 5,
    "malformed-check-type": 5,
}

EXPECTED_EXIT = {
    "sweep-pass": 0,
    "sweep-fail": 1,
    "class-fail": 1,
    "pj-pass": 0,
    "malformed-dirac-no-point": 2,
    "malformed-measure-kind": 2,
    "malformed-schema-version": 2,
    "malformed-check-type": 2,
}

# harmonic-kernel ring sizes (8..200) and test-class sizes (8..16; larger
# sbh00+ families lose compact support near the boundary and are refused
# by member validation)
RING_COUNTS = (8, 12, 16, 24, 32, 48, 64, 96, 128, 160, 200)
CLASS_COUNTS = (8, 10, 12, 14, 16)


def _fixed_sizes(pool, n):
    return [pool[i % len(pool)] for i in range(n)]


def _r(x):
    return round(x, 6)


def _pt(c, R, rho, phi):
    return [_r(c[0] + R * rho * math.cos(phi)), _r(c[1] + R * rho * math.sin(phi))]


def _ball(rng):
    c = [_r(rng.uniform(-1.0, 1.0)), _r(rng.uniform(-1.0, 1.0))]
    return c, _r(rng.uniform(0.5, 2.0))


def _harmonic_measure(c, R, x):
    return {"kind": "harmonic-measure", "center": c, "radius": R, "x": x}


def _kernel_family(c, R, rng, count):
    return {"kind": "harmonic-kernels", "S": {"type": "ball", "center": c, "radius": R},
            "ring_radius": _r(R * rng.uniform(1.2, 2.0)), "count": count}


def _sweep(rng, count, far):
    c, R = _ball(rng)
    x = _pt(c, R, rng.uniform(0.0, 0.7), rng.uniform(0.0, 2 * math.pi))
    theta = x
    if far:
        # y at distance >= R/2 from x, anywhere in the ball's 1.5R disc
        while math.dist(theta, x) < 0.5 * R:
            theta = _pt(c, R, rng.uniform(0.0, 1.5), rng.uniform(0.0, 2 * math.pi))
    return {
        "measures": {"theta": {"kind": "dirac", "point": theta},
                     "mu": _harmonic_measure(c, R, x)},
        "family": _kernel_family(c, R, rng, count),
        "checks": [{"type": "check-linear", "theta": "theta", "mu": "mu"}],
    }


def _class_fail(rng, count):
    c, R = _ball(rng)
    # |x - c| >= R/4 keeps x off the ridge pole; <= 0.7R keeps g(x) above
    # the smallest ridge level, so every generated family is positive at x
    x = _pt(c, R, rng.uniform(0.25, 0.7), rng.uniform(0.0, 2 * math.pi))
    return {
        "measures": {"theta": {"kind": "dirac", "point": x},
                     "mu": _harmonic_measure(c, R, x)},
        "family": {"kind": "test-class", "tag": "sbh00+",
                   "S_o": {"type": "ball", "center": c,
                           "radius": _r(R * rng.uniform(0.08, 0.2))},
                   "r": _r(0.05 * R), "b_minus": -1.0, "b_plus": 1.0,
                   "D": {"type": "ball", "center": c, "radius": R}, "count": count},
        "checks": [{"type": "check-linear", "theta": "theta", "mu": "mu"}],
    }


def _pj(rng):
    c, R = _ball(rng)
    x = _pt(c, R, rng.uniform(0.0, 0.5), rng.uniform(0.0, 2 * math.pi))
    a = x
    while math.dist(a, x) < 0.15 * R:
        a = _pt(c, R, rng.uniform(0.0, 0.6), rng.uniform(0.0, 2 * math.pi))
    return {
        "measures": {"theta": {"kind": "dirac", "point": x},
                     "mu": _harmonic_measure(c, R, x),
                     "riesz": {"kind": "dirac", "point": a}},
        "fields": {"u": {"kind": "log-distance", "point": a}},
        "checks": [{"type": "poisson-jensen", "theta": "theta", "mu": "mu",
                    "u": "u", "riesz_u": "riesz"}],
    }


def _malformed(rng, kind):
    body = _sweep(rng, 8, far=False)
    if kind == "malformed-dirac-no-point":
        del body["measures"]["theta"]["point"]
    elif kind == "malformed-measure-kind":
        body["measures"]["mu"]["kind"] = "not-a-measure"
    elif kind == "malformed-check-type":
        body["checks"][0]["type"] = "check-everything"
    return body


def generate(seed: int) -> list:
    """[(file name, JSON text, expected exit code)] for one pass, in run order."""
    rng = random.Random(f"perfbench-scenarios-{seed}")
    sizes = {"sweep-pass": _fixed_sizes(RING_COUNTS, KIND_COUNTS["sweep-pass"]),
             "sweep-fail": _fixed_sizes(RING_COUNTS, KIND_COUNTS["sweep-fail"]),
             "class-fail": _fixed_sizes(CLASS_COUNTS, KIND_COUNTS["class-fail"])}
    for v in sizes.values():
        rng.shuffle(v)
    kinds = [k for k, n in KIND_COUNTS.items() for _ in range(n)]
    rng.shuffle(kinds)
    out = []
    for i, kind in enumerate(kinds):
        if kind in ("sweep-pass", "sweep-fail"):
            body = _sweep(rng, sizes[kind].pop(), far=kind == "sweep-fail")
        elif kind == "class-fail":
            body = _class_fail(rng, sizes[kind].pop())
        elif kind == "pj-pass":
            body = _pj(rng)
        else:
            body = _malformed(rng, kind)
        name = f"s{i:03d}-{kind}"
        data = {"schema": 2 if kind == "malformed-schema-version" else 1, "name": name}
        data.update(body)
        out.append((f"{name}.json", json.dumps(data, sort_keys=True, indent=1) + "\n",
                    EXPECTED_EXIT[kind]))
    return out
