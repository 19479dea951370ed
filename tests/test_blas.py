import threading

import numpy as np
import pytest

from potkit import _blas, potentials

needs_api = pytest.mark.skipif(_blas._thread_api() is None,
                               reason="numpy's BLAS is not the bundled scipy-openblas")


def threads():
    return _blas._thread_api()[0]()


@pytest.fixture
def two_threads():
    """BLAS at two threads for the test, then back at the count found."""
    before = threads()
    _blas._thread_api()[1](2)
    yield
    _blas._thread_api()[1](before)


@pytest.mark.parametrize("n", [1, 17, _blas.SPLIT_MIN, _blas.SPLIT_MIN + 1, 31_596, 55_651])
def test_dot_is_one_vdot_on_one_thread(n):
    rng = np.random.default_rng(n)
    w, v = rng.standard_normal(n), rng.standard_normal(n) * 1e3
    with _blas.one_thread():
        want = float(np.vdot(w, v))
    assert _blas.dot(w, v) == want


def test_dot_meets_opposite_infinities_without_a_warning():
    w = np.ones(2 * _blas.SPLIT_MIN)
    v = np.zeros(2 * _blas.SPLIT_MIN)
    v[0], v[-1] = np.inf, -np.inf
    assert np.isnan(_blas.dot(w, v))


@needs_api
def test_one_thread_holds_and_restores_the_count(two_threads):
    with _blas.one_thread():
        assert threads() == 1
        with _blas.one_thread():
            assert threads() == 1
        assert threads() == 1
    assert threads() == 2


@needs_api
def test_overlapping_holders_in_two_threads_restore_the_count(two_threads):
    entered, release = threading.Barrier(2), threading.Event()

    def hold():
        with _blas.one_thread():
            entered.wait()
            release.wait()

    t = threading.Thread(target=hold)
    t.start()
    with _blas.one_thread():
        entered.wait()
    assert threads() == 1  # the other holder is still inside
    release.set()
    t.join()
    assert threads() == 2


@needs_api
def test_a_kernel_sum_runs_on_one_thread_and_gives_the_count_back(two_threads, monkeypatch):
    inside = []
    real = potentials._kernel_rows

    def rows(*args):
        inside.append(threads())
        return real(*args)

    monkeypatch.setattr(potentials, "_kernel_rows", rows)
    rng = np.random.default_rng(0)
    pts, nodes = rng.uniform(-1, 1, (200, 2)), rng.uniform(-1, 1, (300, 2))
    potentials._chunked_kernel_sum(pts, nodes, np.ones(300), 0)
    assert inside and set(inside) == {1}
    assert threads() == 2
