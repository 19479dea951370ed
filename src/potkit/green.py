"""Green functions and harmonic measures for balls.

Only balls in d = 2, 3 get closed-form Green models (image charges); other
domains route through the grid machinery in `fields`.  Harmonic measures
are Poisson-kernel densities on the boundary sphere.  The Jensen measure
constructors built from them live in `balayage`, next to the family that
certifies them.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import ScalarField
from .geometry import Ball, _distance
from .measures import Measure, SphereUniform, density_from_spec

__all__ = [
    "GreenModel",
    "green_ball",
    "mg_constant",
    "harmonic_measure",
]

MG_BOUNDARY = 720  # points of the S_o sphere that mg_constant minimizes g over


class GreenModel(ScalarField):
    """Extended Green function of a ball with a designated pole, zero outside;
    d is the pole's size."""

    def __init__(self, domain: Ball, pole):
        ScalarField.__init__(self, self._evaluate)
        # the Green domain; field evaluation itself is global (0 outside)
        self.domain = domain
        self.pole = np.asarray(pole, dtype=float)

    def _evaluate(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        c, R, a = self.domain.center, self.domain.radius, self.pole
        d = a.size
        b = a - c
        rho = np.linalg.norm(b)
        r_xa = _distance(pts, a)
        out = np.zeros(len(pts))
        inside = _distance(pts, c) <= R
        with np.errstate(divide="ignore", invalid="ignore"):
            if d == 2:
                if rho == 0.0:
                    vals = np.log(R / r_xa)
                else:
                    image = c + (R ** 2 / rho ** 2) * b
                    r_im = _distance(pts, image)
                    vals = np.log((rho * r_im) / (R * r_xa))
            elif d == 3:
                if rho == 0.0:
                    vals = 1.0 / r_xa - 1.0 / R
                else:
                    image = c + (R ** 2 / rho ** 2) * b
                    r_im = _distance(pts, image)
                    vals = 1.0 / r_xa - (R / rho) / r_im
            else:
                raise NotImplementedError("Green models are built for d in {2, 3}")
        vals = np.where(r_xa == 0.0, math.inf, vals)
        out[inside] = vals[inside]
        return out


def green_ball(center, radius: float, pole) -> GreenModel:
    """Closed-form Green model for B(center, radius) with an interior pole."""
    ball = Ball(np.asarray(center, dtype=float), float(radius))
    pole = np.asarray(pole, dtype=float)
    if not ball.contains(pole):
        raise ValueError("pole must lie strictly inside the ball")
    if pole.size not in (2, 3):
        raise NotImplementedError("Green models are built for d in {2, 3}")
    return GreenModel(ball, pole)


def mg_constant(green: GreenModel, S_o: Ball) -> float:
    """Minimum of the Green function over the boundary of S_o (strictly positive)."""
    if not S_o.contains(green.pole):
        raise ValueError("the pole must lie in the interior of S_o")
    pts = S_o.boundary_points(MG_BOUNDARY)
    if not np.all(green.domain.contains_array(pts)):
        raise ValueError("S_o must be compactly contained in the Green domain")
    m = float(np.min(green.evaluate_array(pts)))
    if m <= 0.0:
        raise ValueError(f"geometry violation: inf of g over the S_o boundary is {m}")
    return m


def harmonic_measure(green: GreenModel, x) -> Measure:
    """Harmonic measure of the ball at x: Poisson-kernel density on the sphere."""
    x = np.asarray(x, dtype=float)
    ball = green.domain
    if not ball.contains(x):
        raise ValueError("harmonic measure requires x inside the ball")
    spec = {"kind": "poisson", "x": x.tolist(), "center": ball.center.tolist(),
            "radius": ball.radius}
    if np.allclose(x, ball.center):
        comp = SphereUniform(ball.center, ball.radius, 1.0)
    else:
        comp = SphereUniform(ball.center, ball.radius, 1.0,
                             density=density_from_spec(spec), density_spec=spec)
    return Measure(ball.dimension, [comp])
