"""Tape recording, reverse-mode gradients, and tangent propagation."""

import numpy as np
import pytest

from physlp import (SolverConfig, StandardFormLP, backward, finite_diff_grad,
                    jvp, linalg, objective_gradients, solve, solve_with_tape,
                    spd_solve_adjoint)
from physlp.errors import DimensionMismatch
from physlp.problems import (MatchingInstance, build_matching_lp,
                             random_bounded_lp)


def toy_lp(c=(1.0, 2.0)):
    return StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                          np.array(c, dtype=float))


def rel_err(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-10)
    return np.abs(a - b).max() / scale


def matching_lp(rng, n, m):
    return build_matching_lp(MatchingInstance(rng.uniform(size=(n, m))))


def dense_backward(tape, grad_x):
    """Reference reverse sweep that forms the solve adjoint explicitly:
    L = A diag(w) A^T, gL = -outer(z, p), and the contractions gL @ A.
    Returns working-coordinate (grad_c, grad_A, grad_b) for a tape
    without flipped coordinates."""
    prep = tape.prep
    A, c_hat, h = prep.lp.A, prep.lp.c, tape.cfg.step_size
    g = np.asarray(grad_x, dtype=np.float64)
    gc, gA, gb = np.zeros(prep.lp.n), np.zeros(A.shape), np.zeros(prep.lp.m)
    for det in reversed(tape.steps):
        w = det.x_prev / c_hat
        L = (A * w) @ A.T
        g = np.where(det.clamp_mask, g, 0.0)
        gq = h * g
        gw = det.u * gq
        gu = w * gq
        gA += np.outer(det.p, gu)
        gL, gb_step = spd_solve_adjoint(L, det.p, A @ gu,
                                        tol=tape.cfg.linsolve_tol, reg=det.reg_used)
        gb += gb_step
        gw += np.einsum("rj,rj->j", A, gL @ A)
        gA += ((gL + gL.T) @ A) * w
        gc -= gw * det.x_prev / c_hat ** 2
        g = (1.0 - h) * g + gw / c_hat
    return np.where(prep.zero_mask, 0.0, gc), gA, gb


# ----------------------------------------------------------- recording

def test_tape_length_matches_budget():
    for k in (1, 7, 25):
        res, tape = solve_with_tape(toy_lp(), SolverConfig(max_iters=k))
        assert len(tape) == k
        assert np.array_equal(tape.x_final, tape.steps[-1].x_new)
        assert np.allclose(tape.prep.decode(tape.x_final), res.x)


def test_tape_early_stop_off_by_default():
    # a 200-iteration budget on an instance that stalls early still
    # records all 200 steps unless early_stop is requested
    _, full = solve_with_tape(toy_lp(c=(1.0, 1.0)), SolverConfig(max_iters=200))
    assert len(full) == 200
    _, short = solve_with_tape(toy_lp(c=(1.0, 1.0)),
                               SolverConfig(max_iters=200), early_stop=True)
    assert len(short) < 200


def test_tape_replay_bit_identical():
    lp = build_matching_lp(MatchingInstance(
        np.array([[0.2, 0.8, 0.5], [0.8, 0.2, 0.4]])))
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=10))
    redone = tape.replay()
    assert len(redone) == 10
    for det, x in zip(tape.steps, redone):
        assert np.array_equal(det.x_new, x)


@pytest.mark.parametrize("name, factored", [("matching_50x100", True), ("dag_600", False)])
def test_tape_replay_bit_identical_on_csr_operators(name, factored, request):
    # replay takes the recorded path: CSR assembly and Cholesky on the
    # matching, matrix-free CG on the DAG
    lp = request.getfixturevalue(name)
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=8, seed=2))
    assert all((det.factor is not None) == factored for det in tape.steps)
    for det, x in zip(tape.steps, tape.replay()):
        assert np.array_equal(det.x_new, x)


def test_tape_stores_consistent_solves():
    lp = build_matching_lp(MatchingInstance(
        np.array([[0.2, 0.8, 0.5], [0.8, 0.2, 0.4]])))
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=10))
    A, b, c_hat = tape.prep.lp.A, tape.prep.lp.b, tape.prep.lp.c
    for det in tape.steps:
        L = (A * (det.x_prev / c_hat)) @ A.T
        lhs = (L + det.reg_used * np.eye(L.shape[0])) @ det.p
        assert np.linalg.norm(lhs - b) <= 1e-7 * (1.0 + np.linalg.norm(b))


def test_zero_length_tape_gradients():
    res, tape = solve_with_tape(toy_lp(), SolverConfig(max_iters=0),
                                x0=np.array([0.4, 0.7]))
    assert len(tape) == 0
    grads = backward(tape, np.array([1.0, 1.0]))
    assert not grads.grad_c.any()
    assert not grads.grad_A.any()
    assert not grads.grad_b.any()
    # the objective still depends on c directly through c.x0
    og = objective_gradients(tape)
    assert np.array_equal(og.grad_c, [0.4, 0.7])
    assert np.array_equal(res.x, [0.4, 0.7])


def test_zero_length_objective_gradient_with_flip():
    lp = StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                        np.array([1.0, -1.0]), box_bound=1.0)
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=0),
                              x0=np.array([0.3, 0.6]))
    og = objective_gradients(tape)
    assert np.allclose(og.grad_c, [0.3, 0.6], atol=1e-15)


def test_backward_rejects_bad_grad_shape():
    _, tape = solve_with_tape(toy_lp(), SolverConfig(max_iters=2))
    with pytest.raises(DimensionMismatch):
        backward(tape, np.ones(3))


# ----------------------------------------------------- gradient checks

def test_toy_coordinate_loss_matches_fd():
    lp = toy_lp()
    cfg = SolverConfig(max_iters=10)
    _, tape = solve_with_tape(lp, cfg, x0=np.array([0.5, 0.5]))
    grads = backward(tape, np.array([0.0, 1.0]))
    fd = finite_diff_grad(lp, cfg, lambda x: x[1], x0=np.array([0.5, 0.5]))
    # the toy start is hand-picked so no clamp fires inside 10 steps
    assert not tape.clamp_active_any
    assert rel_err(grads.grad_c, fd.grad_c) <= 1e-4
    assert rel_err(grads.grad_A, fd.grad_A) <= 1e-4
    assert rel_err(grads.grad_b, fd.grad_b) <= 1e-4


def test_constant_loss_gives_zero_gradient():
    lp = toy_lp()
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=10),
                              x0=np.array([0.5, 0.5]))
    grads = backward(tape, np.zeros(2))
    assert np.abs(grads.grad_c).max() <= 1e-9
    assert np.abs(grads.grad_A).max() <= 1e-9
    assert np.abs(grads.grad_b).max() <= 1e-9


def test_backward_linear_in_seed():
    _, tape = solve_with_tape(toy_lp(), SolverConfig(max_iters=8),
                              x0=np.array([0.5, 0.5]))
    g1 = backward(tape, np.array([1.0, 0.0]))
    g2 = backward(tape, np.array([0.0, 1.0]))
    both = backward(tape, np.array([1.0, 1.0]))
    assert np.allclose(both.grad_c, g1.grad_c + g2.grad_c, atol=1e-12)
    assert np.allclose(both.grad_A, g1.grad_A + g2.grad_A, atol=1e-12)
    assert np.allclose(both.grad_b, g1.grad_b + g2.grad_b, atol=1e-12)


def test_finite_diff_repeatable():
    lp = toy_lp()
    cfg = SolverConfig(max_iters=6)
    fd1 = finite_diff_grad(lp, cfg, lambda x: x.sum())
    fd2 = finite_diff_grad(lp, cfg, lambda x: x.sum())
    assert np.array_equal(fd1.grad_c, fd2.grad_c)
    assert np.array_equal(fd1.grad_A, fd2.grad_A)
    assert np.array_equal(fd1.grad_b, fd2.grad_b)


def test_randomized_gradcheck_and_transpose():
    # dense loss w.x on random instances; skip the rare clamp-active
    # tapes where the subgradient legitimately disagrees with central
    # differences
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 20:
        m = int(rng.integers(1, 6))
        n = m + int(rng.integers(1, 6))
        lp, _ = random_bounded_lp(rng, m, n)
        k = int(rng.integers(3, 21))
        cfg = SolverConfig(max_iters=k, seed=int(rng.integers(2 ** 31)))
        _, tape = solve_with_tape(lp, cfg)
        if tape.clamp_active_any:
            continue
        w = rng.normal(size=n)
        grads = backward(tape, w)
        fd = finite_diff_grad(lp, cfg, lambda x: float(w @ x))
        gmax = max(np.abs(fd.grad_c).max(), np.abs(fd.grad_A).max(),
                   np.abs(fd.grad_b).max(), 1e-4)

        def close(a, b):
            return np.abs(a - b).max() <= 1e-4 * max(
                np.abs(a).max(), np.abs(b).max(), 1e-4 * gmax)

        assert close(grads.grad_c, fd.grad_c)
        assert close(grads.grad_A, fd.grad_A)
        assert close(grads.grad_b, fd.grad_b)

        # adjoint identity: <w, J d> == <J^T w, d>
        dc = rng.normal(size=n)
        dA = rng.normal(size=(m, n))
        db = rng.normal(size=m)
        dx = jvp(tape, dc=dc, dA=dA, db=db)
        lhs = float(w @ dx)
        rhs = float(grads.grad_c @ dc + (grads.grad_A * dA).sum()
                    + grads.grad_b @ db)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1.0)
        checked += 1


@pytest.mark.parametrize("shape", [(30, 30), (10, 40)])
def test_backward_matches_dense_adjoint(shape):
    rng = np.random.default_rng(7)
    lp = matching_lp(rng, *shape)
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=50))
    g = rng.normal(size=lp.n)
    grads = backward(tape, g)
    for got, want in zip((grads.grad_c, grads.grad_A, grads.grad_b),
                         dense_backward(tape, g)):
        assert rel_err(got, want) <= 1e-8


def test_backward_accepts_tiny_adjoint_rhs():
    # backward(ones) on an assignment LP: sum(x) is fixed, so the
    # adjoint right-hand sides nearly vanish and a residual relative to
    # them alone sat below rounding (1.6e-13 against 8.2e-17)
    rng = np.random.default_rng(0)
    rng.uniform(size=(5, 50))
    rng.uniform(size=(30, 30))
    lp = matching_lp(rng, 50, 100)
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=50))
    grads = backward(tape, np.ones(lp.n))
    assert all(np.all(np.isfinite(a)) for a in (grads.grad_c, grads.grad_A, grads.grad_b))


def test_backward_ones_never_breaks_down():
    for s in np.random.SeedSequence(3).spawn(16):
        rng = np.random.default_rng(s)
        lp = matching_lp(rng, 30, 30)
        cfg = SolverConfig(max_iters=50, seed=int(rng.integers(2 ** 63)))
        _, tape = solve_with_tape(lp, cfg)
        backward(tape, np.ones(lp.n))


def test_dot_product_on_cg_steps(monkeypatch):
    # below the direct cutoff every forward step is solved by CG and
    # records no factor, so backward and jvp run PCG as well
    monkeypatch.setattr(linalg, "DIRECT_MAX_DIM", 2)
    rng = np.random.default_rng(8)
    lp = matching_lp(rng, 3, 5)
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=20))
    assert all(det.factor is None and det.linsolve_iterations > 0 for det in tape.steps)
    g = rng.normal(size=lp.n)
    dc, dA, db = rng.normal(size=lp.n), rng.normal(size=(lp.m, lp.n)), rng.normal(size=lp.m)
    grads = backward(tape, g)
    lhs = float(g @ jvp(tape, dc=dc, dA=dA, db=db))
    rhs = float(grads.grad_c @ dc + (grads.grad_A * dA).sum() + grads.grad_b @ db)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


def test_jvp_matches_directional_fd():
    lp, _ = random_bounded_lp(np.random.default_rng(3), 2, 5)
    cfg = SolverConfig(max_iters=8, seed=11)
    _, tape = solve_with_tape(lp, cfg)
    assert not tape.clamp_active_any
    rng = np.random.default_rng(4)
    dc = rng.normal(size=5)
    dx = jvp(tape, dc=dc)
    eta = 1e-6
    from physlp.core import StandardFormLP as LP
    xp = solve(LP(lp.A, lp.b, lp.c + eta * dc), cfg, early_stop=False).x
    xm = solve(LP(lp.A, lp.b, lp.c - eta * dc), cfg, early_stop=False).x
    fd = (xp - xm) / (2.0 * eta)
    assert np.abs(dx - fd).max() <= 1e-5 * max(np.abs(fd).max(), 1.0)


def test_matching_gradient_sign_pattern():
    # two agents, two tasks; the loss sums the matched mass on the
    # expensive pairs, so raising their costs lowers the loss (negative
    # gradient) while raising the cheap-pair costs raises it
    C = np.array([[0.2, 0.8], [0.8, 0.2]])
    inst = MatchingInstance(C)
    lp = build_matching_lp(inst)
    cfg = SolverConfig(max_iters=12, step_size=0.3)
    _, tape = solve_with_tape(lp, cfg, x0=np.ones(lp.n))
    n, m = 2, 2
    grad_x = np.zeros(lp.n)
    grad_x[0 * m + 1] = 1.0  # pair (0, 1)
    grad_x[1 * m + 0] = 1.0  # pair (1, 0)
    grads = backward(tape, grad_x)
    G = grads.grad_c[:n * m].reshape(n, m)
    fd = finite_diff_grad(lp, cfg, lambda x: x[1] + x[2], x0=np.ones(lp.n))
    F = fd.grad_c[:n * m].reshape(n, m)
    for got in (G, F):
        assert got[0, 1] < 0 and got[1, 0] < 0
        assert got[0, 0] > 0 and got[1, 1] > 0
    assert rel_err(G, F) <= 1e-4


def test_gradients_treat_gamma_as_constant():
    # zero-cost coordinates take the perturbation value; their cost
    # gradient is reported as zero rather than d/d(gamma)
    lp = StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                        np.array([1.0, 0.0]))
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=5, gamma=0.5),
                              x0=np.array([0.5, 0.5]))
    grads = backward(tape, np.array([1.0, 1.0]))
    assert grads.grad_c[1] == 0.0
    assert grads.grad_c[0] != 0.0
