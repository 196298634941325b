"""SPD solve paths, regularization, and the solve adjoint."""

import numpy as np
import pytest

from physlp import default_regularization, spd_solve, spd_solve_adjoint
from physlp.errors import Breakdown, NotSymmetric
from physlp.linalg import WeightedOperator, weighted_solve


def test_identity_system():
    rep = spd_solve(np.eye(2), np.array([3.0, 4.0]))
    assert np.allclose(rep.p, [3.0, 4.0], atol=1e-12)
    assert rep.iterations == 0  # direct path for small systems
    assert rep.final_residual <= 1e-10
    assert rep.factor is not None


def test_diagonal_system():
    rep = spd_solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    assert np.allclose(rep.p, [1.0, 1.0], atol=1e-12)


def test_singular_rank_one_with_ridge():
    L = np.ones((2, 2))
    rep = spd_solve(L, np.array([1.0, 1.0]), reg=1e-8)
    assert np.allclose(rep.p, [0.5, 0.5], atol=1e-6)
    assert rep.regularization_used == 1e-8


def test_rejects_asymmetry():
    with pytest.raises(NotSymmetric):
        spd_solve(np.array([[1.0, 0.5], [0.2, 1.0]]), np.ones(2))


def test_rejects_shape_mismatch():
    with pytest.raises(Exception):
        spd_solve(np.eye(3), np.ones(2))


def test_breakdown_on_inconsistent_singular_system():
    # b outside the range of the rank-1 matrix, no ridge: neither the
    # factorization nor CG can reach the residual target
    L = np.ones((2, 2))
    with pytest.raises(Breakdown):
        spd_solve(L, np.array([1.0, -1.0]), reg=0.0)


def test_zero_rhs_returns_zero():
    rep = spd_solve(np.eye(3), np.zeros(3))
    assert np.array_equal(rep.p, np.zeros(3))


def test_default_regularization_scales_with_trace():
    L = np.diag([1.0, 3.0])
    assert default_regularization(L) == pytest.approx(1e-10 * 4.0 / 2.0)


def test_random_spd_solve_accuracy():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(1, 30))
        B = rng.normal(size=(m, m))
        L = B @ B.T + m * np.eye(m)
        b = rng.normal(size=m)
        rep = spd_solve(L, b)
        assert np.linalg.norm(L @ rep.p - b) <= 1e-8 * np.linalg.norm(b)


def test_iterative_path_used_above_direct_cutoff():
    rng = np.random.default_rng(4)
    m = 600
    d = rng.uniform(1.0, 2.0, size=m)
    B = rng.normal(size=(m, 8))
    L = np.diag(d) + 0.01 * (B @ B.T)
    b = rng.normal(size=m)
    rep = spd_solve(L, b, tol=1e-10)
    assert rep.iterations > 0  # conjugate gradient, not factorization
    assert rep.factor is None
    assert np.linalg.norm(L @ rep.p - b) <= 1e-8 * np.linalg.norm(b)


def test_weighted_solve_with_and_without_factor():
    rng = np.random.default_rng(7)
    A = rng.uniform(size=(6, 15))
    w = rng.uniform(0.1, 1.0, size=15)
    S = (A * w) @ A.T + 1e-9 * np.eye(6)
    factor = spd_solve((A * w) @ A.T, rng.normal(size=6), reg=1e-9).factor
    rhs = rng.normal(size=6)
    want = np.linalg.solve(S, rhs)
    for f in (factor, None):
        z = weighted_solve(WeightedOperator(A), w, 1e-9, rhs, f)
        assert np.linalg.norm(z - want) <= 1e-8 * np.linalg.norm(want)
    assert not weighted_solve(WeightedOperator(A), w, 1e-9, np.zeros(6), factor).any()


def test_adjoint_matches_dense_formula():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = int(rng.integers(1, 12))
        B = rng.normal(size=(m, m))
        L = B @ B.T + m * np.eye(m)
        b = rng.normal(size=m)
        p = spd_solve(L, b).p
        grad_p = rng.normal(size=m)
        grad_L, grad_b = spd_solve_adjoint(L, p, grad_p)
        want_gb = np.linalg.solve(L, grad_p)  # L symmetric
        assert np.allclose(grad_b, want_gb, atol=1e-8)
        assert np.allclose(grad_L, -np.outer(want_gb, p), atol=1e-8)


def test_adjoint_directional_derivative():
    # first-order check: loss = grad_p . p(L, b)
    rng = np.random.default_rng(6)
    m = 5
    B = rng.normal(size=(m, m))
    L = B @ B.T + m * np.eye(m)
    b = rng.normal(size=m)
    grad_p = rng.normal(size=m)
    p = spd_solve(L, b).p
    grad_L, grad_b = spd_solve_adjoint(L, p, grad_p)

    dL = rng.normal(size=(m, m))
    dL = 0.5 * (dL + dL.T)
    db = rng.normal(size=m)
    eta = 1e-6
    lo = grad_p @ spd_solve(L - eta * dL, b - eta * db).p
    hi = grad_p @ spd_solve(L + eta * dL, b + eta * db).p
    fd = (hi - lo) / (2.0 * eta)
    analytic = float(np.sum(grad_L * dL) + grad_b @ db)
    assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(fd))
