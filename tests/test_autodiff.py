"""Tape recording, reverse-mode gradients, and tangent propagation."""

import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, asdict, fields, replace

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.blas import daxpy, ddot

from physlp import (LpGradients, SolveStatus, SolverConfig, StandardFormLP, autodiff,
                    backward, cli, finite_diff_grad, jvp, linalg, solve, solve_with_tape,
                    solver)
from physlp.errors import Breakdown, DimensionMismatch, NonFiniteEntry
from physlp.problems import (MatchingInstance, build_matching_lp, build_shortest_path_lp,
                             matching_slack_gamma)

from .conftest import clamp_fired, random_bounded_lp, random_dag_600, rerun, step_tols


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
    Returns (grad_c, grad_A, grad_b) for an LP without potentials."""
    prep = tape.prep
    A, c_hat, h = prep.source.operator.A.toarray(), prep.c, tape.cfg.step_size
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
        S = L + det.gram.reg * np.eye(len(gb))
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
        assert np.array_equal(res.x, tape.steps[-1].x_new)


def test_tape_early_stop_off_by_default():
    # a 200-iteration budget on an instance that stalls early records
    # all 200 steps: a tape never stops early
    _, full = solve_with_tape(toy_lp(c=(1.0, 1.0)), SolverConfig(max_iters=200))
    assert len(full) == 200
    assert len(solve(toy_lp(c=(1.0, 1.0)), SolverConfig(max_iters=200)).trace) < 200


def test_tape_replay_bit_identical():
    lp = build_matching_lp(MatchingInstance(
        np.array([[0.2, 0.8, 0.5], [0.8, 0.2, 0.4]])))
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=10))
    redone = rerun(tape)
    assert len(redone) == 10
    for det, x in zip(tape.steps, redone):
        assert np.array_equal(det.x_new, x)


@pytest.mark.parametrize("name, factored", [("matching_50x100", True), ("dag_600", False),
                                           ("signed_sparse_40x400", True)])
def test_tape_replay_bit_identical_on_csr_operators(name, factored, request):
    # the forward loop run again from x0 takes the recorded path: CSR assembly and Cholesky on the
    # matching and on the LP with potentials, CG on the sparse matrix
    # on the DAG, each step to the target it recorded
    lp = request.getfixturevalue(name)
    res, tape = solve_with_tape(lp, SolverConfig(max_iters=30, seed=2))
    assert all((det.gram.factor is not None) == factored for det in tape.steps)
    assert len(set(step_tols(res, tape))) > 10
    for det, x in zip(tape.steps, rerun(tape)):
        assert np.array_equal(det.x_new, x)


def test_tape_replay_stops_before_a_failed_step(matching_5x50, monkeypatch):
    # the fifth step's solve and its retry break down, so the run ends
    # at LINSOLVE_FAILURE with a tape of four steps; the forward loop,
    # run again from x0, repeats them and takes no fifth solve
    inner, calls = solver.spd_solve, []

    def failing(*args):
        calls.append(args)
        if len(calls) > 4:
            raise Breakdown("forced")
        return inner(*args)

    monkeypatch.setattr(solver, "spd_solve", failing)
    res, tape = solve_with_tape(matching_5x50, SolverConfig(max_iters=10))
    assert res.status is SolveStatus.LINSOLVE_FAILURE and len(calls) == 6
    assert len(tape) == 4 and np.array_equal(res.x, tape.steps[-1].x_new)
    calls.clear()
    redone = rerun(tape)
    assert len(calls) == 4 and len(redone) == 4
    assert all(np.array_equal(det.x_new, x) for det, x in zip(tape.steps, redone))


@pytest.mark.parametrize("name", ["matching_5x50", "matching_50x100", "dag_600"])
def test_no_solve_writes_a_grams_values(name, request, monkeypatch):
    # a gram writes reg onto its diagonal once, when it is built: the
    # forward solves, backward and jvp leave its values as they are.  A
    # forced breakdown of the third forward solve makes the step retry
    # on a new gram, whose reg is 100 times the default and whose values
    # differ from the default gram's on the diagonal alone
    lp = request.getfixturevalue(name)
    op = lp.operator
    inner, calls = solver.spd_solve, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:
            raise Breakdown("forced")
        return inner(*args)

    monkeypatch.setattr(solver, "spd_solve", failing)
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=5, seed=4))
    assert len(calls) == 6 and len(tape) == 5
    for det in tape.steps:
        assert np.array_equal(det.gram.values, op.at(det.gram.w, det.gram.reg).values)
    before = [det.gram.values.copy() for det in tape.steps]
    rng = np.random.default_rng(4)
    backward(tape, rng.normal(size=lp.n))
    jvp(tape, dc=rng.normal(size=lp.n), dA=rng.normal(size=lp.A.shape), db=rng.normal(size=lp.m))
    assert all(np.array_equal(det.gram.values, v) for det, v in zip(tape.steps, before))

    retried = tape.steps[2].gram
    default, bare = op.at(retried.w), op.at(retried.w, 0.0)
    assert tape.steps[2].reg_scale == 100.0 * linalg.AUTO_REG_SCALE
    assert retried.reg == 100.0 * default.reg
    diagonal = op._pattern.diagonal
    off = np.ones(retried.values.size, dtype=bool)
    off[diagonal] = False
    assert np.array_equal(retried.values[off], default.values[off])
    assert np.array_equal(retried.values[diagonal], bare.values[diagonal] + retried.reg)


@pytest.mark.parametrize("name", ["matching_5x50", "matching_50x100"], ids=["dense", "block"])
def test_reverse_sweeps_factor_nothing(name, request, monkeypatch):
    # backward and jvp reuse the factor each step's gram keeps, dense or
    # of the Schur complement: no dpotrf runs after the forward pass
    lp = request.getfixturevalue(name)
    assert (lp.operator._pattern.split is None) == (name == "matching_5x50")
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=5, seed=3))
    potrf, calls = linalg.dpotrf, []

    def counting(*args, **kwargs):
        calls.append(args)
        return potrf(*args, **kwargs)

    monkeypatch.setattr(linalg, "dpotrf", counting)
    rng = np.random.default_rng(3)
    backward(tape, rng.normal(size=lp.n))
    jvp(tape, dc=rng.normal(size=lp.n), db=rng.normal(size=lp.m))
    jvp(tape, dc=rng.normal(size=lp.n), dA=rng.normal(size=lp.A.shape))
    assert calls == []
    solve_with_tape(lp, SolverConfig(max_iters=5, seed=3))
    assert len(calls) == 5  # the spy sees the forward factors


def test_tape_stores_consistent_solves():
    lp = build_matching_lp(MatchingInstance(
        np.array([[0.2, 0.8, 0.5], [0.8, 0.2, 0.4]])))
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=10))
    A, b, c_hat = tape.prep.source.operator.A.toarray(), tape.prep.source.b, tape.prep.c
    for det in tape.steps:
        L = (A * (det.x_prev / c_hat)) @ A.T
        lhs = (L + det.gram.reg * np.eye(L.shape[0])) @ det.p
        assert np.linalg.norm(lhs - b) <= 1e-7 * (1.0 + np.linalg.norm(b))


def test_zero_length_tape_gradients():
    res, tape = solve_with_tape(toy_lp(), SolverConfig(max_iters=0),
                                x0=np.array([0.4, 0.7]))
    assert len(tape) == 0
    grads = backward(tape, np.array([1.0, 1.0]))
    assert not grads.grad_c.any()
    assert not grads.grad_A.any()
    assert not grads.grad_b.any()
    assert np.array_equal(res.x, [0.4, 0.7])


def test_assigning_the_lp_after_a_tape_leaves_the_tape_alone():
    # the tape holds the LP itself, which cannot be assigned; an LP made
    # from it with new data, and solved, leaves the tape alone too
    lp = toy_lp()
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=20))
    assert tape.prep.source is lp
    before = backward(tape, lp.c)
    with pytest.raises(FrozenInstanceError):
        lp.A = [[2.0, 1.0]]
    solve(replace(lp, A=[[2.0, 1.0]], b=[3.0], c=[3.0, 1.0]), tape.cfg)
    after = backward(tape, lp.c)
    for name in ("grad_c", "grad_A", "grad_b"):
        assert np.array_equal(getattr(before, name), getattr(after, name))


def test_backward_rejects_bad_grad_shape():
    _, tape = solve_with_tape(toy_lp(), SolverConfig(max_iters=2))
    with pytest.raises(DimensionMismatch):
        backward(tape, np.ones(3))


def matching_3x5_tape():
    lp = matching_lp(np.random.default_rng(0), 3, 5)
    return lp, solve_with_tape(lp, SolverConfig(max_iters=5))[1]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_backward_rejects_a_non_finite_grad_x(bad):
    # an infinite entry once gave an all-zero grad_b, and a NaN a
    # Breakdown, which callers take for a numerical failure and retry
    lp, tape = matching_3x5_tape()
    g = np.ones(lp.n)
    g[2] = bad
    with pytest.raises(NonFiniteEntry):
        backward(tape, g)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("name", ["dc", "dA", "db"])
def test_jvp_rejects_a_non_finite_direction(name, bad):
    # an infinite db once gave an all-zero tangent
    lp, tape = matching_3x5_tape()
    d = {"dc": np.ones(lp.n), "dA": lp.A.toarray(), "db": np.ones(lp.m)}[name]
    d.flat[2] = bad
    with pytest.raises(NonFiniteEntry):
        jvp(tape, **{name: d})


def test_jvp_takes_dA_in_the_form_of_lp_A():
    # a scipy.sparse dA once raised numpy's own ValueError
    lp, tape = matching_3x5_tape()
    assert np.array_equal(jvp(tape, dA=lp.A), jvp(tape, dA=lp.A.toarray()))


def costs_scaled_by(k):
    """x, 2^k grad_c, grad_b and grad_A of a 3x5 matching whose costs,
    the slack cost among them, are scaled by 2^k: 20 steps at
    step_size 0.5 from seed 1.  The dynamics are invariant to the
    scale, and grad_c scales by 2^-k."""
    scale = 2.0 ** k
    C = np.random.default_rng(4).uniform(size=(3, 5))
    lp = build_matching_lp(MatchingInstance(scale * C, scale * matching_slack_gamma(5)))
    result, tape = solve_with_tape(lp, SolverConfig(max_iters=20, step_size=0.5, seed=1))
    grads = backward(tape, np.random.default_rng(0).standard_normal(lp.n))
    return result.x, scale * grads.grad_c, grads.grad_b, grads.grad_A


@pytest.mark.filterwarnings("error")
def test_gradients_keep_their_scale_up_to_A_MAX():
    # the largest cost is 6.6e153, just below core.A_MAX: backward
    # squares it without overflow
    for got, want in zip(costs_scaled_by(511), costs_scaled_by(0)):
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_costs_above_A_MAX_are_refused_before_backward_squares_them():
    # at 2^520 the largest cost is 3.4e156; backward once squared it to
    # inf with a warning and returned grad_c wrong by 100%
    with pytest.raises(NonFiniteEntry, match="^c contains"):
        costs_scaled_by(520)


# ------------------------------------- the potentials and the blend
#
# The maps across the working cost apply the potentials only where an
# LP carries them, and a step blends with the previous iterate only
# where step_size is not 1.  The references below apply both whatever
# the LP, pi = 0 standing in for no potentials, as the update is
# written; both sides of every skip must match them bit for bit (up to
# the sign of a zero).

def applied_step(prep, x, cfg, tol):
    """(p, u, x_new, clamp_mask) of step_detail, with the blend applied
    unconditionally."""
    op, h, eps = prep.source.operator, cfg.step_size, solver.CLAMP_FLOOR
    w = x / prep.c
    p = linalg.spd_solve(op.at(w), prep.source.b, tol).p
    u = op.AT @ p
    pre = (1.0 - h) * x + h * (w * u)
    return p, u, np.maximum(pre, eps), pre > eps


def potentials(prep):
    """The LP's potentials, or zeros where it has none."""
    pi = prep.source.potentials
    return np.zeros(prep.source.m) if pi is None else pi


def kept_system(op, w, det):
    """op.at(w) at the step's reg, holding the factor the step keeps."""
    gram = op.at(w, det.gram.reg)
    gram.factor = det.gram.factor
    return gram


def applied_backward(tape, grad_x):
    """backward, with the potentials and the blend applied
    unconditionally."""
    prep = tape.prep
    op, c_hat, h = prep.source.operator, prep.c, tape.cfg.step_size
    m, n = op.A.shape
    g = grad_x
    gc_hat, gb, omega = np.zeros(n), np.zeros(m), np.zeros(n)
    K = len(tape.steps)
    left, right = np.empty((2 * K, m)), np.empty((2 * K, n))
    col_sq = np.bincount(op.A.indices, op.A.data ** 2, minlength=n)
    for k, det in enumerate(reversed(tape.steps)):
        w = det.x_prev / c_hat
        g = np.where(det.clamp_mask, g, 0.0)
        gq = h * g
        gu = w * gq
        gram = kept_system(op, w, det)
        z = linalg.spd_solve(gram, op.A @ gu, autodiff._adjoint_tol(gram, tape.cfg)).p
        gb += z
        v = op.AT @ z
        g_reg = -ddot(z, det.p) * det.reg_scale / m
        gw = daxpy(col_sq, det.u * (gq - v), a=g_reg)
        omega = daxpy(w, omega, a=2.0 * g_reg)
        left[k], right[k] = det.p, gu - v * w
        left[K + k], right[K + k] = z, -(det.u * w)
        gc_hat -= gw * det.x_prev / c_hat ** 2
        g = (1.0 - h) * g + gw / c_hat
    gA = left.T @ right
    rows = np.repeat(np.arange(m), np.diff(op.A.indptr))
    gA[rows, op.A.indices] += op.A.data * omega[op.A.indices]
    gc = np.where(prep.zero_mask, 0.0, gc_hat)
    return gc, gA - np.outer(potentials(prep), gc), gb


def applied_jvp(tape, dc, dA, db):
    """jvp, with the potentials and the blend applied unconditionally."""
    prep = tape.prep
    op, c_hat, h = prep.source.operator, prep.c, tape.cfg.step_size
    m, n = op.A.shape
    dc_w = np.where(prep.zero_mask, 0.0, dc if dA is None else dc - dA.T @ potentials(prep))
    col_sq = np.bincount(op.A.indices, op.A.data ** 2, minlength=n)
    col_da = np.zeros(n) if dA is None else autodiff._column_dots(op.A, dA)
    dx = np.zeros(n)
    for det in tape.steps:
        x, p, u = det.x_prev, det.p, det.u
        w = x / c_hat
        dw = dx / c_hat - x * dc_w / c_hat ** 2
        if dA is None:
            dAt_p, dL_p = 0.0, op.A @ (dw * u)
        else:
            dAt_p = dA.T @ p
            dL_p = dA @ (w * u) + op.A @ (dw * u + w * dAt_p)
        dL_p += det.reg_scale / m * (ddot(dw, col_sq) + 2.0 * ddot(w, col_da)) * p
        gram = kept_system(op, w, det)
        dp = linalg.spd_solve(gram, db - dL_p, autodiff._adjoint_tol(gram, tape.cfg)).p
        du = dAt_p + op.AT @ dp
        dx = (1.0 - h) * dx + h * (dw * u + w * du)
        dx = np.where(det.clamp_mask, dx, 0.0)
    return dx


SKIP_CASES = [(name, h) for name in ("matching_5x50", "signed_sparse_40x400") for h in (1.0, 0.5)]


def skip_tape(name, h, request):
    lp = request.getfixturevalue(name)
    res, tape = solve_with_tape(lp, SolverConfig(max_iters=12, seed=5, step_size=h))
    assert (lp.potentials is not None) == (name == "signed_sparse_40x400")
    return lp, res, tape


@pytest.mark.parametrize("name, h", SKIP_CASES)
def test_step_equals_the_update_with_sign_and_blend_applied(name, h, request):
    lp, res, tape = skip_tape(name, h, request)
    prep, op = tape.prep, lp.operator
    for det, tol in zip(tape.steps, step_tols(res, tape), strict=True):
        want = applied_step(prep, det.x_prev, tape.cfg, tol)
        for got, ref in zip((det.p, det.u, det.x_new, det.clamp_mask), want, strict=True):
            assert np.array_equal(got, ref)
    # _evaluate's residual and the iterate, the LP's own
    for det, rec in zip(tape.steps, res.trace, strict=True):
        assert rec.residual == linalg._norm(op.A @ det.x_new - lp.b)
    assert np.array_equal(res.x, tape.steps[-1].x_new)


@pytest.mark.parametrize("name, h", SKIP_CASES)
def test_backward_equals_the_sweep_with_sign_and_blend_applied(name, h, request):
    lp, _, tape = skip_tape(name, h, request)
    g = np.random.default_rng(8).standard_normal(lp.n)
    got = backward(tape, g)
    for a, b in zip((got.grad_c, got.grad_A, got.grad_b), applied_backward(tape, g), strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name, h", SKIP_CASES)
def test_jvp_equals_the_tangent_with_sign_and_blend_applied(name, h, request):
    lp, _, tape = skip_tape(name, h, request)
    rng = np.random.default_rng(9)
    dc, db = rng.standard_normal(lp.n), rng.standard_normal(lp.m)
    for dA in (None, (lp.A.toarray() != 0) * rng.standard_normal(lp.A.shape)):
        assert np.array_equal(jvp(tape, dc, dA, db), applied_jvp(tape, dc, dA, db))


@pytest.mark.parametrize("max_iters", [0, 5])
def test_an_unflipped_result_does_not_alias_the_tape(matching_5x50, max_iters):
    # the result's x is the tape's last iterate, which it copies
    res, tape = solve_with_tape(matching_5x50, SolverConfig(max_iters=max_iters, seed=2))
    held = [getattr(det, name) for det in tape.steps
            for name in ("x_prev", "p", "u", "x_new", "clamp_mask")]
    assert not any(np.shares_memory(res.x, a) for a in held)
    g = np.random.default_rng(3).standard_normal(matching_5x50.n)
    before = backward(tape, matching_5x50.c), backward(tape, g)
    res.x[:] = -1.0
    after = backward(tape, matching_5x50.c), backward(tape, g)
    for b, a in zip(before, after):
        for name in ("grad_c", "grad_A", "grad_b"):
            assert np.array_equal(getattr(b, name), getattr(a, name))


# ----------------------------------------------------- gradient checks

def test_toy_coordinate_loss_matches_fd():
    lp = toy_lp()
    cfg = SolverConfig(max_iters=10)
    _, tape = solve_with_tape(lp, cfg, x0=np.array([0.5, 0.5]))
    grads = backward(tape, np.array([0.0, 1.0]))
    fd = finite_diff_grad(lp, cfg, lambda x: x[1], x0=np.array([0.5, 0.5]))
    # the toy start is hand-picked so no clamp fires inside 10 steps
    assert not clamp_fired(tape)
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
    # differences.  The last 8 instances negate about 40% of the costs
    # and carry potentials pi < 0 that leave every working cost
    # c - A^T pi at least 0.1, as A > 0: gradients of A then pass
    # through c - A^T pi too
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 28:
        m = int(rng.integers(1, 6))
        n = m + int(rng.integers(1, 6))
        lp, _ = random_bounded_lp(rng, m, n)
        if checked >= 20:
            neg = rng.permutation(n) < max(1, round(0.4 * n))
            scale = (lp.c.max() + 0.1) / lp.A.sum(axis=0).min()
            lp = StandardFormLP(lp.A, lp.b, np.where(neg, -lp.c, lp.c),
                                -scale * rng.uniform(1.0, 2.0, size=m))
        k = int(rng.integers(3, 21))
        cfg = SolverConfig(max_iters=k, seed=int(rng.integers(2 ** 31)))
        _, tape = solve_with_tape(lp, cfg)
        assert (lp.c < 0).any() == (checked >= 20)
        if clamp_fired(tape):
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
    assert not clamp_fired(tape)
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
    assert all(det.gram.factor is None and det.linsolve_iterations > 0 for det in tape.steps)
    g = rng.normal(size=lp.n)
    dc, dA, db = rng.normal(size=lp.n), rng.normal(size=(lp.m, lp.n)), rng.normal(size=lp.m)
    grads = backward(tape, g)
    lhs = float(g @ jvp(tape, dc=dc, dA=dA, db=db))
    rhs = float(grads.grad_c @ dc + (grads.grad_A * dA).sum() + grads.grad_b @ db)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


def assert_dot_product_on_a_long_cg_tape(lp):
    # the adjoint and tangent solves of CG steps run to CG_ADJOINT_TOL,
    # which holds backward and jvp together over 100 steps
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=100, seed=7))
    assert all(det.gram.factor is None for det in tape.steps)
    rng = np.random.default_rng(4)
    g = rng.normal(size=lp.n)
    dc, dA, db = rng.normal(size=lp.n), rng.normal(size=(lp.m, lp.n)), rng.normal(size=lp.m)
    grads = backward(tape, g)
    lhs = float(g @ jvp(tape, dc=dc, dA=dA, db=db))
    rhs = float(grads.grad_c @ dc + (grads.grad_A * dA).sum() + grads.grad_b @ db)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


def test_dot_product_on_a_long_cg_tape(dag_600):
    assert_dot_product_on_a_long_cg_tape(dag_600)


def test_dot_product_on_a_long_cg_tape_of_a_second_dag():
    # at CG_ADJOINT_TOL = 1e-14 this tape read 1.1e-7 with zero starts and
    # 1.5e-7 with scaled ones
    graph = random_dag_600(2)
    assert_dot_product_on_a_long_cg_tape(build_shortest_path_lp(graph, 0, graph.num_nodes - 1))


@pytest.mark.parametrize("seed", [7, 8])
def test_dot_product_on_block_factored_steps(matching_50x100, seed):
    # every step of a 150-row assignment LP keeps the factor of its
    # Schur complement on the 50 rows F, which the backward and tangent
    # solves reuse
    lp = matching_50x100
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=50, seed=seed))
    assert all(det.gram.factor.shape == (50, 50) for det in tape.steps)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=lp.n)
    dc, dA, db = rng.normal(size=lp.n), rng.normal(size=(lp.m, lp.n)), rng.normal(size=lp.m)
    grads = backward(tape, g)
    lhs = float(g @ jvp(tape, dc=dc, dA=dA, db=db))
    rhs = float(grads.grad_c @ dc + (grads.grad_A * dA).sum() + grads.grad_b @ db)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


def count_calls(monkeypatch, owner, name):
    """The argument tuples of every call to owner.name from now on."""
    inner, calls = getattr(owner, name), []
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or inner(*args))
    return calls


class Counting:
    """A matrix that counts its products with vectors and passes every
    other attribute through."""

    def __init__(self, M):
        self.M, self.products = M, 0

    def __matmul__(self, v):
        self.products += 1
        return self.M @ v

    def __getattr__(self, name):
        return getattr(self.M, name)


@pytest.mark.parametrize("name", ["matching_5x50", "matching_50x100", "signed_sparse_40x400"])
def test_factored_reverse_sweeps_compute_no_gram_values(name, request, monkeypatch):
    # backward and jvp solve against each step's kept gram and factor:
    # no op.at(w), no Q @ w, and one product with A and one with its
    # transpose per step (dense, block and potentials routes)
    lp = request.getfixturevalue(name)
    op = lp.operator
    Q = Counting(op._pattern.Q)
    monkeypatch.setitem(op.__dict__, "_pattern", op._pattern._replace(Q=Q))
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=5, seed=3))
    assert Q.products == len(tape) == 5
    assert all(det.gram.factor is not None for det in tape.steps)
    at = count_calls(monkeypatch, linalg.WeightedOperator, "at")
    A, AT = Counting(op.A), Counting(op.AT)
    monkeypatch.setattr(op, "A", A)
    monkeypatch.setattr(op, "AT", AT)
    rng = np.random.default_rng(3)
    sweeps = [lambda: backward(tape, rng.normal(size=lp.n)),
              lambda: jvp(tape, dc=rng.normal(size=lp.n), db=rng.normal(size=lp.m)),
              lambda: jvp(tape, dc=rng.normal(size=lp.n), dA=rng.normal(size=lp.A.shape))]
    for sweep in sweeps:
        A.products = AT.products = 0
        sweep()
        assert A.products == AT.products == len(tape)
    assert at == [] and Q.products == 5


def count_builds(monkeypatch):
    """Weak references to the factor rows (left, right) of every
    grad_A build from now on."""
    inner, builds = autodiff._grad_A, []

    def build(prep, left, right, *rest):
        builds.append((weakref.ref(left), weakref.ref(right)))
        return inner(prep, left, right, *rest)

    monkeypatch.setattr(autodiff, "_grad_A", build)
    return builds


def test_backward_keeps_grad_A_factored_until_it_is_read(matching_50x100, monkeypatch):
    # 50 steps of a 150x5100 LP: the 2K factor rows take 4.2 MB, one
    # dense grad_A 6.1 MB; backward makes the rows and no grad_A, and
    # the gradients keep neither the tape nor, once grad_A is built,
    # the rows
    lp = matching_50x100
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=50, seed=2))
    g = np.random.default_rng(6).standard_normal(lp.n)
    want = applied_backward(tape, g)
    builds = count_builds(monkeypatch)
    tracemalloc.start()
    try:
        grads = backward(tape, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < lp.m * lp.n * 8
    held = weakref.ref(tape)
    del tape
    assert held() is None
    assert builds == []
    first = grads.grad_A
    assert np.array_equal(first, want[1])
    assert grads.grad_A is first
    assert len(builds) == 1 and all(row() is None for row in builds[0])
    for got, ref in ((grads.grad_c, want[0]), (grads.grad_b, want[2])):
        assert np.array_equal(got, ref)


def test_cost_learning_builds_no_grad_A(monkeypatch, capsys):
    # learn-cost reads grad_c only; a caller that reads grad_A gets one
    # build however often it reads, and the build runs no solve
    builds = count_builds(monkeypatch)
    calls = count_calls(monkeypatch, cli, "backward")
    cli.main(["learn-cost", "--steps", "2"])
    capsys.readouterr()
    assert len(calls) == 2 and builds == []

    lp = matching_lp(np.random.default_rng(1), 3, 5)
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=5))
    grads = backward(tape, lp.c)
    solves = [count_calls(monkeypatch, owner, "spd_solve") for owner in (autodiff, linalg)]
    first = grads.grad_A
    assert grads.grad_A is first
    assert len(builds) == 1 and solves == [[], []]


def test_a_failed_grad_A_build_leaves_the_next_read_correct(monkeypatch):
    # the build writes into none of its inputs and the builder is kept
    # until one succeeds, so a read after a failed one gives the eager
    # bits; on an LP with potentials pullback_A, the build's last part,
    # does work
    lp = _survey_lp("potentials", 0)
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=10, seed=1))
    assert lp.potentials is not None
    g = np.random.default_rng(2).standard_normal(lp.n)
    want = applied_backward(tape, g)
    grads = backward(tape, g)
    inner, fails = solver.PreparedLP.pullback_A, [MemoryError()]

    def pullback_A(self, gA, gc):
        if fails:
            raise fails.pop()
        return inner(self, gA, gc)

    monkeypatch.setattr(solver.PreparedLP, "pullback_A", pullback_A)
    with pytest.raises(MemoryError):
        grads.grad_A
    assert np.array_equal(grads.grad_A, want[1])


def test_lp_gradients_stay_a_dataclass_of_three_arrays():
    lp = matching_lp(np.random.default_rng(1), 3, 5)
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=5))
    grads = backward(tape, lp.c)
    assert [f.name for f in fields(grads)] == ["grad_c", "grad_A", "grad_b"]
    assert LpGradients.__match_args__ == ("grad_c", "grad_A", "grad_b")
    assert all(isinstance(v, np.ndarray) for v in asdict(grads).values())
    moved = replace(grads, grad_c=-grads.grad_c)
    assert moved.grad_A is grads.grad_A and "grad_A=array(" in repr(moved)
    with pytest.raises(AttributeError, match="grad_x"):
        grads.grad_x


@pytest.mark.parametrize("name", ["dag_600", "matching_50x100", "signed_sparse_40x400"])
def test_jvp_without_dA_is_jvp_with_a_zero_dA(name, request):
    # the no-dA path skips every m-by-n product; signed_sparse_40x400
    # carries potentials, whose tangent takes dA^T pi where dA is given
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
    assert not clamp_fired(tape)
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
# 6.2e-5 on 50x100 tapes and 3.7e-6 on 21 of 24 20x30 tapes with
# potentials; at eta = 1e-8 it was at most 2.6e-6 on 600-node DAGs with
# tight forward solves.  The 24th 30x30 tape (seed 5) read 7.6e-2: its
# +-eta runs clamp other coordinates than the tape at every eta from
# 1e-8 to 1e-11, so the differences straddle a kink of the clamp, where
# the map has no derivative.  So do the other three 20x30 tapes (seeds
# 5, 18 and 23, at 2.6e-4, 4.3e-5 and 2.9e-3) at eta = 1e-10, though
# not at 1e-11.  Larger eta cross kinks on most tapes (ROADMAP item 6).
JVP_FD_BAND = 1e-4


def _survey_lp(route, seed):
    """A 30x30 assignment LP (dense factor), a 50x100 one (block factor)
    or a 20x30 one with about a fifth of its costs negative, which
    build_matching_lp gives potentials (dense factor)."""
    rng = np.random.default_rng(seed)
    shape = {"dense": (30, 30), "block": (50, 100), "potentials": (20, 30)}[route]
    C = rng.uniform(size=shape)
    if route == "potentials":
        C *= np.where(rng.uniform(size=shape) < 0.2, -1.0, 1.0)
    return build_matching_lp(MatchingInstance(C))


def _jvp_fd_gap(lp, cfg, eta, seed):
    """The tape of lp, and the relative gap between jvp and central
    differences of the final iterate along a random (dc, dA) with b
    fixed: dA on the nonzeros of A, dc zero where the cost was raised
    to gamma."""
    _, tape = solve_with_tape(lp, cfg)
    rng = np.random.default_rng(1000 + seed)
    dc = np.where(tape.prep.zero_mask, 0.0, rng.normal(size=lp.n))
    dA = np.where(lp.A.toarray() != 0.0, rng.normal(size=lp.A.shape), 0.0)
    dx = jvp(tape, dc=dc, dA=dA)
    xp, xm = (solve(replace(lp, A=lp.A + s * eta * dA, c=lp.c + s * eta * dc), cfg,
                    early_stop=False).x for s in (1.0, -1.0))
    fd = (xp - xm) / (2.0 * eta)
    return tape, np.linalg.norm(dx - fd) / np.linalg.norm(fd)


@pytest.mark.parametrize("route", ["dense", "block", "potentials"])
@pytest.mark.parametrize("seed", range(4))
def test_jvp_matches_directional_differences_on_factored_steps(route, seed):
    lp = _survey_lp(route, seed)
    tape, gap = _jvp_fd_gap(lp, SolverConfig(max_iters=50, seed=seed), 1e-10, seed)
    split = lp.operator._pattern.split
    assert (split is not None) == (route == "block")
    order = lp.m if split is None else split.F.size
    assert all(det.gram.factor.shape == (order, order) for det in tape.steps)
    assert (lp.potentials is not None) == (route == "potentials")
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
    assert all(det.gram.factor is None for det in tape.steps)
    assert gap <= JVP_FD_BAND



def _potentials_lp(route, request):
    """signed_sparse_40x400 (dense factor), a 20x30 matching with
    negative costs (dense factor) or dag_600 with every 7th cost
    negated (CG), each with potentials.  The DAG's come from a dynamic
    program over its nodes in topological order: d_v, the least length
    of a path ending at v with each arc shortened by 0.05, makes each
    reduced cost c_th + d_t - d_h at least 0.05, and pi_v = d_0 - d_v
    on the rows, the nodes other than 0."""
    if route == "matching":
        return _survey_lp("potentials", 0)
    lp = request.getfixturevalue(route)
    if route == "dag_600":
        graph = request.getfixturevalue("dag_600_graph")
        assert lp.m == graph.num_nodes - 1
        c = np.where(np.arange(lp.n) % 7 == 0, -lp.c, lp.c)
        d = np.zeros(graph.num_nodes)
        for (t, h, _), cost in sorted(zip(graph.arcs, c)):  # by tail: topological order
            d[h] = min(d[h], d[t] + cost - 0.05)
        lp = StandardFormLP(lp.A, lp.b, c, d[0] - d[1:])
    return lp


@pytest.mark.parametrize("route, factored", [("signed_sparse_40x400", True), ("matching", True),
                                             ("dag_600", False)])
def test_an_lp_with_potentials_is_its_reduced_cost_lp_bit_for_bit(route, factored, request):
    """An LP with potentials pi and the LP of cost c - A^T pi without
    them run the same iterates, tapes and tangents, bit for bit, and
    their gradients differ by the pullback of the reduced cost alone:
    grad_A by -outer(pi, grad_c).  Their objectives differ by pi.(A x),
    which is pi.b on the feasible set."""
    lp = _potentials_lp(route, request)
    pi = lp.potentials
    assert (lp.c < 0).any() and pi is not None
    sub = replace(lp, c=lp.c - lp.operator.AT @ pi, potentials=None)
    cfg = SolverConfig(max_iters=5, seed=3)
    (res, tape), (sub_res, sub_tape) = solve_with_tape(lp, cfg), solve_with_tape(sub, cfg)
    assert all((det.gram.factor is not None) == factored for det in tape.steps)
    assert np.array_equal(tape.prep.c, sub_tape.prep.c)
    assert np.array_equal(res.x, sub_res.x)
    assert [r.residual for r in res.trace] == [r.residual for r in sub_res.trace]
    # c.x = (c - A^T pi).x + pi.(A x), which is pi.b on the feasible set
    assert res.objective == pytest.approx(sub_res.objective + pi @ (lp.A @ res.x), rel=1e-12)
    for det, sub_det in zip(tape.steps, sub_tape.steps, strict=True):
        for name in ("p", "u", "x_new"):
            assert np.array_equal(getattr(det, name), getattr(sub_det, name))

    rng = np.random.default_rng(4)
    g = rng.standard_normal(lp.n)
    got, want = backward(tape, g), backward(sub_tape, g)
    assert np.array_equal(got.grad_c, want.grad_c) and np.array_equal(got.grad_b, want.grad_b)
    assert np.array_equal(got.grad_A, want.grad_A - np.outer(pi, want.grad_c))

    dc, db = rng.standard_normal(lp.n), rng.standard_normal(lp.m)
    assert np.array_equal(jvp(tape, dc, None, db), jvp(sub_tape, dc, None, db))
    dA = (lp.A.toarray() != 0) * rng.standard_normal(lp.A.shape)
    assert np.array_equal(jvp(tape, dc, dA, db), jvp(sub_tape, dc - dA.T @ pi, dA, db))


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
    # zero-cost coordinates take the perturbation value, here
    # default_gamma(1, 2); their cost gradient is reported as zero
    # rather than d/d(gamma)
    lp = StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                        np.array([1.0, 0.0]))
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=5),
                              x0=np.array([0.5, 0.5]))
    grads = backward(tape, np.array([1.0, 1.0]))
    assert grads.grad_c[1] == 0.0
    assert grads.grad_c[0] != 0.0
