"""Tape recording, reverse-mode gradients, and tangent propagation."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
import scipy.linalg

from physlp import (SolverConfig, StandardFormLP, backward, finite_diff_grad,
                    jvp, linalg, objective_gradients, solve, solve_with_tape,
                    solver)
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
    L = A diag(w) A^T, z = (L + reg I)^{-1} A gu by scipy's Cholesky,
    gL = -outer(z, p), and the contractions gL @ A;
    a default Tikhonov term reg = s trace(L) / m passes trace(gL) on.
    Returns working-coordinate (grad_c, grad_A, grad_b) for a tape
    without flipped coordinates."""
    prep = tape.prep
    A, c_hat, h = prep.op.A.toarray(), prep.c, tape.cfg.step_size
    g = np.asarray(grad_x, dtype=np.float64)
    gc, gA, gb = np.zeros(prep.source.n), np.zeros(A.shape), np.zeros(prep.source.m)
    for det in reversed(tape.steps):
        w = det.x_prev / c_hat
        L = (A * w) @ A.T
        g = np.where(det.clamp_mask, g, 0.0)
        gq = h * g
        gw = det.u * gq
        gu = w * gq
        gA += np.outer(det.p, gu)
        S = L + det.reg_used * np.eye(len(gb))
        gb_step = scipy.linalg.cho_solve(scipy.linalg.cho_factor(S), A @ gu)
        gL = -np.outer(gb_step, det.p)
        gb += gb_step
        gw += np.einsum("rj,rj->j", A, gL @ A)
        gA += ((gL + gL.T) @ A) * w
        g_reg = np.trace(gL) * det.reg_scale / len(gb)
        gw += g_reg * (A * A).sum(axis=0)
        gA += 2.0 * g_reg * A * w
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
    # replay recomputes exactly the steps the early-stopped tape holds
    redone = short.replay()
    assert len(redone) == len(short)
    assert all(np.array_equal(det.x_new, x) for det, x in zip(short.steps, redone))


def test_tape_replay_bit_identical():
    lp = build_matching_lp(MatchingInstance(
        np.array([[0.2, 0.8, 0.5], [0.8, 0.2, 0.4]])))
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=10))
    redone = tape.replay()
    assert len(redone) == 10
    for det, x in zip(tape.steps, redone):
        assert np.array_equal(det.x_new, x)


@pytest.mark.parametrize("name, factored", [("matching_50x100", True), ("dag_600", False),
                                           ("signed_sparse_40x400", True)])
def test_tape_replay_bit_identical_on_csr_operators(name, factored, request):
    # replay takes the recorded path: CSR assembly and Cholesky on the
    # matching and on the flipped LP, CG on the sparse matrix on the
    # DAG, each step to the target it recorded
    lp = request.getfixturevalue(name)
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=30, seed=2))
    assert all((det.factor is not None) == factored for det in tape.steps)
    assert len({det.tol_used for det in tape.steps}) > 10
    for det, x in zip(tape.steps, tape.replay()):
        assert np.array_equal(det.x_new, x)


def test_tape_stores_consistent_solves():
    lp = build_matching_lp(MatchingInstance(
        np.array([[0.2, 0.8, 0.5], [0.8, 0.2, 0.4]])))
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=10))
    A, b, c_hat = tape.prep.op.A.toarray(), tape.prep.b, tape.prep.c
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


def test_assigning_the_lp_after_a_tape_leaves_the_tape_alone():
    # the tape holds the LP itself, which cannot be assigned; an LP made
    # from it with new data, and solved, leaves the tape alone too
    lp = toy_lp()
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=20))
    assert tape.prep.source is lp
    before = objective_gradients(tape)
    with pytest.raises(FrozenInstanceError):
        lp.A = [[2.0, 1.0]]
    solve(replace(lp, A=[[2.0, 1.0]], b=[3.0], c=[3.0, 1.0]), tape.cfg)
    after = objective_gradients(tape)
    for name in ("grad_c", "grad_A", "grad_b"):
        assert np.array_equal(getattr(before, name), getattr(after, name))


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
    # differences.  The last 8 instances negate about 40% of the costs,
    # so their columns flip through the box bound: as A > 0, every
    # feasible x_i is at most min_r b_r / A_ri
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 28:
        m = int(rng.integers(1, 6))
        n = m + int(rng.integers(1, 6))
        lp, _ = random_bounded_lp(rng, m, n)
        if checked >= 20:
            neg = rng.permutation(n) < max(1, round(0.4 * n))
            bound = 1.5 * (lp.b[:, np.newaxis] / lp.A).min(axis=0).max()
            lp = StandardFormLP(lp.A, lp.b, np.where(neg, -lp.c, lp.c), box_bound=bound)
        k = int(rng.integers(3, 21))
        cfg = SolverConfig(max_iters=k, seed=int(rng.integers(2 ** 31)))
        _, tape = solve_with_tape(lp, cfg)
        assert tape.prep.flip_mask.any() == (checked >= 20)
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


def test_gradients_follow_the_default_tikhonov_term(monkeypatch):
    # each step's reg is s * trace(A W A^T) / m, which moves with c, A
    # and the iterate.  At s = 1e-4 it shifts the gradients by 1e-4 to
    # 3e-3 relative, so backward and jvp meet
    # finite differences only by differentiating it; at the default
    # 1e-10 the shift is of the order of the randomized test's band
    for module in (linalg, solver):
        monkeypatch.setattr(module, "AUTO_REG_SCALE", 1e-4)
    rng = np.random.default_rng(9)
    lp, _ = random_bounded_lp(rng, 3, 6)
    cfg = SolverConfig(max_iters=10, seed=2)
    _, tape = solve_with_tape(lp, cfg)
    assert not tape.clamp_active_any
    assert all(det.reg_scale == 1e-4 for det in tape.steps)
    w = rng.normal(size=lp.n)
    fd = finite_diff_grad(lp, cfg, lambda x: float(w @ x))
    dc, dA, db = rng.normal(size=lp.n), rng.normal(size=(lp.m, lp.n)), rng.normal(size=lp.m)
    eta = 1e-6

    def x_at(t):
        trial = StandardFormLP(lp.A + t * dA, lp.b + t * db, lp.c + t * dc)
        return solve(trial, cfg, early_stop=False).x
    fd_dx = (x_at(eta) - x_at(-eta)) / (2.0 * eta)

    def errors(tape):
        grads = backward(tape, w)
        pairs = [(grads.grad_c, fd.grad_c), (grads.grad_A, fd.grad_A),
                 (grads.grad_b, fd.grad_b), (jvp(tape, dc, dA, db), fd_dx)]
        return [rel_err(got, want) for got, want in pairs]

    assert max(errors(tape)) <= 1e-6
    frozen = replace(tape, steps=[replace(det, reg_scale=0.0) for det in tape.steps])
    assert min(errors(frozen)) > 1e-5


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


def test_dot_product_on_a_long_cg_tape(dag_600):
    # the adjoint and tangent solves of CG steps run to CG_ADJOINT_TOL,
    # which holds backward and jvp together over 100 steps
    _, tape = solve_with_tape(dag_600, SolverConfig(max_iters=100, seed=7))
    assert all(det.factor is None for det in tape.steps)
    rng = np.random.default_rng(4)
    g = rng.normal(size=dag_600.n)
    dc, dA, db = (rng.normal(size=dag_600.n), rng.normal(size=(dag_600.m, dag_600.n)),
                  rng.normal(size=dag_600.m))
    grads = backward(tape, g)
    lhs = float(g @ jvp(tape, dc=dc, dA=dA, db=db))
    rhs = float(grads.grad_c @ dc + (grads.grad_A * dA).sum() + grads.grad_b @ db)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("seed", [7, 8])
def test_dot_product_on_block_factored_steps(matching_50x100, seed):
    # every step of a 150-row assignment LP keeps a BlockFactor, which
    # the backward and tangent solves reuse
    lp = matching_50x100
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=50, seed=seed))
    assert all(isinstance(det.factor, linalg.BlockFactor) for det in tape.steps)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=lp.n)
    dc, dA, db = rng.normal(size=lp.n), rng.normal(size=(lp.m, lp.n)), rng.normal(size=lp.m)
    grads = backward(tape, g)
    lhs = float(g @ jvp(tape, dc=dc, dA=dA, db=db))
    rhs = float(grads.grad_c @ dc + (grads.grad_A * dA).sum() + grads.grad_b @ db)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("name", ["dag_600", "matching_50x100", "signed_sparse_40x400"])
def test_jvp_without_dA_is_jvp_with_a_zero_dA(name, request):
    # the no-dA path skips every m-by-n product; signed_sparse_40x400
    # flips columns, whose tangent would otherwise pass dA through
    lp = request.getfixturevalue(name)
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=20, seed=5))
    rng = np.random.default_rng(5)
    dc, db = rng.normal(size=lp.n), rng.normal(size=lp.m)
    zero = np.zeros((lp.m, lp.n))
    assert np.array_equal(jvp(tape, dc=dc), jvp(tape, dc=dc, dA=zero))
    assert np.array_equal(jvp(tape, dc=dc, db=db), jvp(tape, dc=dc, dA=zero, db=db))


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


# jvp against central directional differences at benchmark sizes, on
# every solve route.  Survey of 24 seeds s = 0-23 per route, instances
# built as below and DAGs as dag_600 with graph seed s, cfg seed s,
# 50 steps (100 on the DAGs): at eta = 1e-10 the gap
# ||jvp - fd|| / ||fd|| was at most 1.1e-5 on 23 of 24 30x30 tapes,
# 6.2e-5 on 50x100 tapes and 1.6e-5 on flipped ones; at eta = 1e-8 it
# was at most 2.6e-6 on 600-node DAGs with tight forward solves.  The
# 24th 30x30 tape (seed 5) read 7.6e-2: its +-eta runs clamp other
# coordinates than the tape at every eta from 1e-8 to 1e-11, so the
# differences straddle a kink of the clamp, where the map has no
# derivative.  Larger eta cross kinks on most tapes (ROADMAP item 6).
JVP_FD_BAND = 1e-4


def _survey_lp(route, seed):
    """A 30x30 assignment LP (dense factor), a 50x100 one (block factor)
    or a 20x30 one with about a fifth of its costs negative (flipped)."""
    rng = np.random.default_rng(seed)
    shape = {"dense": (30, 30), "block": (50, 100), "flipped": (20, 30)}[route]
    C = rng.uniform(size=shape)
    if route == "flipped":
        C *= np.where(rng.uniform(size=shape) < 0.2, -1.0, 1.0)
    return build_matching_lp(MatchingInstance(C))


def _jvp_fd_gap(lp, cfg, eta, seed):
    """The tape of lp, and the relative gap between jvp and central
    differences of x_final along a random (dc, dA) with b fixed: dA on
    the nonzeros of A, dc zero where the cost was raised to gamma."""
    _, tape = solve_with_tape(lp, cfg)
    rng = np.random.default_rng(1000 + seed)
    dc = np.where(tape.prep.zero_mask, 0.0, rng.normal(size=lp.n))
    dA = np.where(lp.A != 0.0, rng.normal(size=lp.A.shape), 0.0)
    dx = jvp(tape, dc=dc, dA=dA)
    xp, xm = (solve(replace(lp, A=lp.A + s * eta * dA, c=lp.c + s * eta * dc), cfg,
                    early_stop=False).x for s in (1.0, -1.0))
    fd = (xp - xm) / (2.0 * eta)
    return tape, np.linalg.norm(dx - fd) / np.linalg.norm(fd)


@pytest.mark.parametrize("route", ["dense", "block", "flipped"])
@pytest.mark.parametrize("seed", range(4))
def test_jvp_matches_directional_differences_on_factored_steps(route, seed):
    lp = _survey_lp(route, seed)
    tape, gap = _jvp_fd_gap(lp, SolverConfig(max_iters=50, seed=seed), 1e-10, seed)
    factor = linalg.BlockFactor if route == "block" else tuple
    assert all(isinstance(det.factor, factor) for det in tape.steps)
    assert tape.prep.flip_mask.any() == (route == "flipped")
    assert gap <= JVP_FD_BAND


def test_jvp_matches_directional_differences_on_cg_steps(dag_600, monkeypatch):
    # jvp differentiates the steps as if their solves were exact.  The
    # forward CG solves stop at solver.forward_tol, and the derivative of
    # that map differs: at FORCING = 0.03 the gap stayed between 1.3e-4
    # and 0.15 for every eta from 1e-8 to 1e-11 on 10 of the 24 surveyed
    # DAGs (ROADMAP item 6).  So the forward solves here run to
    # cfg.linsolve_tol; eta = 1e-10 read up to 2.6e-4 on them.
    monkeypatch.setattr(solver, "FORCING", 0.0)
    tape, gap = _jvp_fd_gap(dag_600, SolverConfig(max_iters=100, seed=1), 1e-8, 1)
    assert all(det.factor is None for det in tape.steps)
    assert gap <= JVP_FD_BAND


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
