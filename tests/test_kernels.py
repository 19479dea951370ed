import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from potkit import fields, kernels


def test_k_eval_cases():
    assert kernels.k_eval(0, math.e) == pytest.approx(1.0, abs=1e-15)
    # -t^{-1} at t=2 and -sgn(-1) t^{1} at t=3
    assert kernels.k_eval(1, 2.0) == -0.5
    assert kernels.k_eval(-1, 3.0) == 3.0


def test_k_eval_domain_error():
    with pytest.raises(ValueError):
        kernels.k_eval(0, 0.0)
    with pytest.raises(ValueError):
        kernels.k_eval(1, -2.0)


@given(st.sampled_from([-1.0, 0.0, 1.0, 2.0]),
       st.floats(min_value=1e-6, max_value=1e3),
       st.floats(min_value=1e-6, max_value=1e3))
def test_k_eval_strictly_increasing(q, t1, t2):
    lo, hi = sorted((t1, t2))
    if lo == hi:
        return
    assert kernels.k_eval(q, lo) < kernels.k_eval(q, hi)


def test_riesz_normalizer_values():
    assert kernels.riesz_normalizer(2) == pytest.approx(1 / (2 * math.pi), rel=1e-14)
    assert kernels.riesz_normalizer(3) == pytest.approx(1 / (4 * math.pi), rel=1e-14)
    assert kernels.riesz_normalizer(1) == pytest.approx(0.5, rel=1e-14)


def test_unit_ball_volume_values():
    assert kernels.unit_ball_volume(0) == 1.0
    assert kernels.unit_ball_volume(1) == 2.0
    assert kernels.unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert kernels.unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-14)


def test_normalizer_closed_form_identity():
    # s_{d-1} c_d max(1, d-2) = 1 for d = 1..8
    for d in range(1, 9):
        prod = kernels.sphere_surface_area(d) * kernels.riesz_normalizer(d) * max(1, d - 2)
        assert prod == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("d", [2, 3])
def test_kernel_subharmonic_and_harmonic_off_pole(d):
    y = np.zeros(d)
    y[0] = 0.9  # keep the pole outside the probe region
    K = fields.ScalarField.kernel(y)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(30):
        x = rng.uniform(-0.4, 0.4, d)
        r = 0.05 + 0.1 * rng.random()
        if np.linalg.norm(x - y) < r + 0.25:
            continue
        avg = fields.sphere_average(K, x, r)
        margin = K(x) - avg
        assert margin <= 1e-8  # sub-mean value
        worst = max(worst, abs(margin))
    assert worst <= 1e-8  # harmonic away from the pole: equality
