"""Forward dynamics: perturbation, flipping, stepping, and solve."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from physlp import (SolveStatus, SolverConfig, StandardFormLP, autodiff, backward, core,
                    default_gamma, feasibility_residual, initial_state, jvp, linalg,
                    objective_gradients, perturb_cost, prepare_lp, problems, solve,
                    solve_with_tape, solver, step_detail)
from physlp.errors import (DimensionMismatch, MissingBound, NonFiniteEntry,
                           NonPositiveInit, ZeroCostNeedsGamma)
from physlp.problems import random_bounded_lp


def toy_lp(c=(1.0, 2.0)):
    return StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                          np.array(c, dtype=float))


# ------------------------------------------------------------ perturb

def test_perturb_replaces_only_zeros():
    assert np.array_equal(perturb_cost(np.array([1.0, 0.0, 2.0]), 0.5),
                          [1.0, 0.5, 2.0])
    assert np.array_equal(perturb_cost(np.array([1.0, 2.0]), 0.5), [1.0, 2.0])
    assert np.array_equal(perturb_cost(np.array([0.0, 0.0]), 1e-3),
                          [1e-3, 1e-3])


def test_perturb_zero_gamma_with_zero_cost_fails():
    with pytest.raises(ZeroCostNeedsGamma):
        perturb_cost(np.array([0.0, 1.0]), 0.0)


def test_default_gamma_scale():
    assert default_gamma(5, 20) == pytest.approx(0.5 / np.sqrt(25))


# --------------------------------------------------------------- flip

def test_flip_identity_when_no_negatives():
    prep = prepare_lp(toy_lp())
    assert not prep.flip_mask.any()
    assert np.array_equal(prep.op.A.toarray(), [[1.0, 1.0]])
    assert np.array_equal(prep.c, [1.0, 2.0])


def test_flip_single_negative_coordinate():
    # min -x1 s.t. x1 + x2 = 1 with box bound 1: substituting
    # x1 = 1 - y1 negates the column and shifts b
    lp = StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                        np.array([-1.0, 0.0]), box_bound=1.0)
    prep = prepare_lp(lp)
    assert prep.flip_mask.tolist() == [True, False]
    assert np.array_equal(prep.op.A.toarray(), [[-1.0, 1.0]])
    assert np.array_equal(prep.b, [0.0])
    # the flip leaves x2's cost zero, which the perturbation then raises
    assert prep.zero_mask.tolist() == [False, True]
    assert prep.gamma == default_gamma(1, 2)
    assert np.array_equal(prep.c, [1.0, prep.gamma])


def test_flip_requires_bound():
    lp = toy_lp(c=(-1.0, 1.0))
    with pytest.raises(MissingBound):
        prepare_lp(lp)


def test_flip_maps_the_working_data():
    # x = shift + sign y turns (A, b, c) into (A sign, b - A shift,
    # sign c), on the validated input that the prepared LP keeps
    rng = np.random.default_rng(7)
    for _ in range(10):
        m, n = 2, 5
        A = rng.normal(size=(m, n))
        lp = StandardFormLP(A, rng.normal(size=m), rng.normal(size=n),
                            box_bound=2.0)
        prep = prepare_lp(lp)
        assert prep.source is lp
        assert np.array_equal(prep.sign, np.where(lp.c < 0.0, -1.0, 1.0))
        assert np.array_equal(prep.shift, np.where(lp.c < 0.0, 2.0, 0.0))
        assert np.array_equal(prep.op.A.toarray(), lp.A * prep.sign)
        assert np.array_equal(prep.b, lp.b - lp.A @ prep.shift)
        assert np.array_equal(prep.c, prep.sign * lp.c)


def test_flip_preserves_residual_through_encode():
    # residuals agree in either coordinate system
    rng = np.random.default_rng(8)
    lp = StandardFormLP(rng.normal(size=(2, 4)), rng.normal(size=2),
                        np.array([1.0, -1.0, 2.0, -0.5]), box_bound=3.0)
    prep = prepare_lp(lp)
    x = rng.uniform(0.1, 2.9, size=4)
    y = prep.encode(x)
    assert feasibility_residual(lp, x) == pytest.approx(
        np.linalg.norm(prep.op.A @ y - prep.b), abs=1e-12)
    assert np.allclose(prep.decode(y), x)


def test_pullback_is_the_transpose_of_tangent(signed_sparse_40x400):
    # <pullback(g), d> = <g, tangent(d)> over (c, A, b) on an LP with
    # flipped and perturbed columns
    lp = signed_sparse_40x400
    prep = prepare_lp(StandardFormLP(lp.A, lp.b, np.where(np.arange(lp.n) < 10, 0.0, lp.c),
                                     box_bound=lp.box_bound))
    assert prep.flip_mask.any() and prep.zero_mask.any()
    rng = np.random.default_rng(9)

    def draw():
        return rng.normal(size=lp.n), rng.normal(size=(lp.m, lp.n)), rng.normal(size=lp.m)

    def dot(u, v):
        return sum(float(np.vdot(a, b)) for a, b in zip(u, v))

    for _ in range(5):
        d, g = draw(), draw()
        lhs, rhs = dot(prep.pullback(*g), d), dot(g, prep.tangent(*d))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_prepare_copies_A_only_when_a_column_flips(signed_sparse_40x400):
    lp = toy_lp()
    prep = prepare_lp(lp)
    assert prep.op is lp.operator and prep.b is lp.b
    lp = signed_sparse_40x400
    prep = prepare_lp(lp)
    assert prep.flip_mask.any() and prep.op is not lp.operator


@pytest.mark.parametrize("name", ["matching_5x50", "svm_20"])
def test_prepare_reuses_the_input_operator(name, request):
    # no column flips, with zero costs (svm_20) or without: every solve
    # of one LP object computes with the operator that LP built once
    lp = request.getfixturevalue(name)
    prep = prepare_lp(lp)
    assert not prep.flip_mask.any() and prep.zero_mask.any() == (name == "svm_20")
    assert prep.op is lp.operator
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=1))
    assert tape.prep.op is lp.operator


def test_a_replaced_A_is_solved_with_its_own_operator():
    # an LP made with a new A solves as a new LP of the same data does,
    # on an operator of its own, and leaves the original's alone
    cfg = SolverConfig(max_iters=50)
    lp = StandardFormLP([[1.0, 1.0]], [1.0], [1.0, 2.0])
    solve(lp, cfg)
    old = lp.operator
    changed = replace(lp, A=[[2.0, 1.0]])
    res = solve(changed, cfg)
    assert changed.operator is not old and lp.operator is old
    want = solve(StandardFormLP([[2.0, 1.0]], [1.0], [1.0, 2.0]), cfg)
    assert np.array_equal(res.x, want.x) and res.residual == want.residual
    assert res.trace == want.trace and res.status is want.status
    assert feasibility_residual(changed, res.x) <= 1e-6
    with pytest.raises(DimensionMismatch):
        replace(lp, A=np.ones((2, 2)))


def test_lp_arrays_are_read_only_views():
    # read-only, and no views of the caller's arrays: the LP owns
    # copies, so a write into the LP raises and the caller's arrays
    # stay writable
    A, b, c = np.array([[1.0, 1.0]]), np.array([1.0]), np.array([1.0, 2.0])
    lp = StandardFormLP(A, b, c)
    for mine, given in ((lp.A, A), (lp.b, b), (lp.c, c)):
        assert not np.shares_memory(mine, given) and given.flags.writeable
        assert mine.flags.owndata and np.array_equal(mine, given)
        with pytest.raises(ValueError):
            mine[0] = 3.0
    # a read-only view is copied too: the array it views can still change
    view = np.array([[1.0, 1.0]]).view()
    view.flags.writeable = False
    assert not np.shares_memory(StandardFormLP(view, b, c).A, view)


@pytest.mark.parametrize("name", ["A", "b", "c"])
def test_a_write_into_the_callers_array_does_not_reach_the_lp(name):
    # writing A[0, 0] = 2 after a first solve once left lp.A reading
    # [[2, 1]] while the cached operator solved [[1, 1]]
    given = {"A": np.array([[1.0, 1.0]]), "b": np.array([1.0]), "c": np.array([1.0, 2.0])}
    lp = StandardFormLP(**given)
    cfg = SolverConfig(max_iters=50)
    first = solve(lp, cfg)
    given[name].flat[0] = 2.0
    assert np.array_equal(lp.A, [[1.0, 1.0]]) and np.array_equal(lp.b, [1.0])
    assert np.array_equal(lp.c, [1.0, 2.0])
    second = solve(lp, cfg)
    assert np.array_equal(second.x, first.x) and second.residual == first.residual
    assert second.trace == first.trace and second.status is first.status
    assert feasibility_residual(lp, second.x) <= 1e-6


def test_replace_keeps_the_arrays_it_is_not_given(matching_5x50):
    lp = matching_5x50
    changed = replace(lp, c=lp.c + 1.0)
    assert changed.A is lp.A and changed.b is lp.b
    assert not np.shares_memory(changed.c, lp.c)


def test_an_lp_is_validated_once_when_built(monkeypatch):
    # at the public boundary only: building the LP validates it, and no
    # solve, gradient or replay of it validates it again
    validate, calls = core.validate, []

    def counting(lp):
        calls.append(lp)
        return validate(lp)

    for module in (core, problems, solver, autodiff):
        monkeypatch.setattr(module, "validate", counting)
    lp = problems.build_matching_lp(
        problems.MatchingInstance(np.random.default_rng(3).uniform(size=(3, 4))))
    assert len(calls) == 1 and calls[0] is lp
    cfg = SolverConfig(max_iters=3)
    solve(lp, cfg)
    _, tape = solve_with_tape(lp, cfg)
    backward(tape, np.ones(lp.n))
    jvp(tape, dc=np.ones(lp.n), dA=np.ones((lp.m, lp.n)), db=np.ones(lp.m))
    objective_gradients(tape)
    tape.replay()
    assert len(calls) == 1 and calls[0] is lp


def test_prepared_cost_strictly_positive():
    lp = StandardFormLP(np.array([[1.0, 1.0, 1.0]]), np.array([1.0]),
                        np.array([0.5, 0.0, -2.0]), box_bound=1.0)
    prep = prepare_lp(lp, gamma=0.25)
    assert prep.gamma == 0.25
    assert (prep.c > 0).all()
    assert prep.c.min() >= min(0.25, 0.5)


# --------------------------------------------------------------- step

def test_step_symmetric_fixed_point():
    prep = prepare_lp(toy_lp(c=(1.0, 1.0)))
    cfg = SolverConfig()
    x = initial_state(prep, cfg, x0=np.array([0.5, 0.5]))
    out = step_detail(prep, x, cfg)
    assert np.allclose(out.x_new, [0.5, 0.5], atol=1e-12)


def test_step_hand_checked_values():
    # W = diag(.5, .25), L = [0.75], p = [4/3], q = [2/3, 1/3]
    prep = prepare_lp(toy_lp())
    cfg = SolverConfig()
    x = initial_state(prep, cfg, x0=np.array([0.5, 0.5]))
    out = step_detail(prep, x, cfg)
    assert np.allclose(out.x_new, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_step_damped_is_convex_combination():
    prep = prepare_lp(toy_lp())
    x0 = np.array([0.5, 0.5])
    full = step_detail(prep, initial_state(prep, SolverConfig(), x0=x0),
                       SolverConfig(step_size=1.0)).x_new
    half = step_detail(prep, initial_state(prep, SolverConfig(), x0=x0),
                       SolverConfig(step_size=0.5)).x_new
    assert np.allclose(half, 0.5 * x0 + 0.5 * full, atol=1e-12)


def test_step_scale_equivariant_in_cost():
    # scaling the perturbed cost rescales W and L but leaves q alone
    rng = np.random.default_rng(9)
    A = rng.uniform(0.1, 1.0, size=(3, 6))
    b = A @ rng.uniform(0.5, 1.0, size=6)
    x0 = rng.uniform(0.5, 1.0, size=6)
    cfg = SolverConfig()
    outs = []
    for alpha in (1.0, 7.0):
        lp = StandardFormLP(A, b, alpha * rng2_cost())
        prep = prepare_lp(lp)
        outs.append(step_detail(prep, initial_state(prep, cfg, x0=x0), cfg).x_new)
    assert np.allclose(outs[0], outs[1], rtol=1e-13, atol=1e-15)


def rng2_cost():
    return np.array([0.3, 0.9, 0.4, 1.2, 0.7, 0.5])


def test_one_step_reaches_feasibility_with_full_step():
    # with h = 1 the update lands on the affine constraint set from any
    # positive start, as long as the floor clamp stays inactive; single
    # positive rows keep q strictly positive so that is guaranteed here
    rng = np.random.default_rng(10)
    for _ in range(10):
        lp, _ = random_bounded_lp(rng, 1, 6)
        prep = prepare_lp(lp)
        cfg = SolverConfig()
        x = initial_state(prep, cfg, x0=rng.uniform(0.5, 2.0, size=6))
        out = step_detail(prep, x, cfg)
        assert np.linalg.norm(prep.op.A @ out.x_new - prep.b) <= 1e-8 * (
            1.0 + np.linalg.norm(lp.b))


# ---------------------------------------------------- weighted operator

def test_operator_follows_the_lp_it_belongs_to(signed_sparse_40x400):
    # prepare_lp flips the operator's columns when a cost is negative,
    # and the working operator is that of the flipped A
    prep = prepare_lp(signed_sparse_40x400)
    A = signed_sparse_40x400.A * prep.sign
    assert np.array_equal(prep.op.A.toarray(), A)
    assert prep.op is not signed_sparse_40x400.operator
    w = np.random.default_rng(5).uniform(0.1, 2.0, size=prep.source.n)
    want = (A * w) @ A.T
    assert np.abs(prep.op.at(w).dense(0.0) - want).max() <= 1e-14 * np.abs(want).max()
    cfg = SolverConfig(seed=5)
    det = step_detail(prep, initial_state(prep, cfg), cfg)
    assert np.all(det.x_new >= cfg.clamp_floor)


def dense_step(prep, x, cfg):
    """One step with L assembled densely and solved by scipy's Cholesky,
    the form before the CSR operator, with the default Tikhonov term
    1e-10 trace(L) / m: (p, x_new)."""
    A, b = prep.op.A.toarray(), prep.b
    w = x / prep.c
    L = (A * w) @ A.T
    S = L + 1e-10 * np.trace(L) / len(b) * np.eye(len(b))
    p = scipy.linalg.cho_solve(scipy.linalg.cho_factor(S), b)
    pre = (1.0 - cfg.step_size) * x + cfg.step_size * (w * (A.T @ p))
    return p, np.maximum(pre, cfg.clamp_floor)


@pytest.mark.parametrize("name", ["matching_50x100", "dag_600", "signed_sparse_40x400"])
def test_csr_step_matches_a_dense_step(name, request):
    lp = request.getfixturevalue(name)
    prep = prepare_lp(lp)
    cfg = SolverConfig(seed=3)
    x = initial_state(prep, cfg)
    det = step_detail(prep, x, cfg)
    for want, got in zip(dense_step(prep, x, cfg), (det.p, det.x_new)):
        assert np.abs(want - got).max() <= 1e-10 * np.abs(want).max()
    assert (det.factor is None) == (lp.m > linalg.DIRECT_MAX_DIM)


def test_matrix_free_default_reg_is_the_assembled_one(dag_600):
    prep = prepare_lp(dag_600)
    op, A = prep.op, prep.op.A.toarray()
    w = initial_state(prep, SolverConfig(seed=4)) / prep.c
    L = (A * w) @ A.T
    want = 1e-10 * np.trace(L) / len(L)
    assert abs(op.at(w).default_regularization() - want) <= 1e-12 * want
    report = linalg.spd_solve(op.at(w), prep.b)
    assert report.regularization_used == op.at(w).default_regularization()
    assert report.factor is None


@pytest.mark.parametrize("name", ["matching_5x50", "dag_600", "signed_sparse_40x400", "svm_20"])
def test_sparse_matrix_is_the_dense_gram(name, request):
    # S = A diag(w) A^T + reg*I on the compressed pattern, which CG steps
    # and their backward and jvp solves use, against a dense product; the
    # dense form that direct steps factor comes from the same values, so
    # it is S bit for bit
    prep = prepare_lp(request.getfixturevalue(name))
    op, A = prep.op, prep.op.A.toarray()
    w = np.random.default_rng(9).uniform(0.1, 2.0, size=prep.source.n)
    reg = 1e-3
    S = op.at(w).sparse(reg)
    want = (A * w) @ A.T + reg * np.eye(prep.source.m)
    assert S.has_sorted_indices
    assert S.nnz == np.count_nonzero(want)
    assert np.array_equal(S.toarray() != 0, want != 0)
    assert np.abs(S.toarray() - want).max() <= 1e-14 * np.abs(want).max()
    assert np.array_equal(op.at(w).dense(reg), S.toarray())
    diag = np.diag(want)
    assert np.abs(S.diagonal() - diag).max() <= 1e-14 * diag.max()


def test_sparse_matrix_keeps_the_diagonal_of_an_empty_row():
    # reg*I lands on every row, also where A A^T has no entry
    A = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    w = np.array([1.0, 2.0, 3.0])
    S = linalg.WeightedOperator(A).at(w).sparse(0.5)
    assert np.array_equal(S.toarray(), (A * w) @ A.T + 0.5 * np.eye(3))


def test_residual_through_the_flipped_operator(signed_sparse_40x400):
    lp = signed_sparse_40x400
    assert prepare_lp(lp).flip_mask.any()
    res = solve(lp, SolverConfig(max_iters=5))
    assert res.residual == pytest.approx(feasibility_residual(lp, res.x), rel=1e-12)


def forbid_assembly(monkeypatch):
    def dense(self, reg):
        raise AssertionError("L was assembled")
    monkeypatch.setattr(linalg.WeightedGram, "dense", dense)


def test_matrix_free_steps_never_form_L(dag_600, monkeypatch):
    forbid_assembly(monkeypatch)
    res = solve(dag_600, SolverConfig(max_iters=5))
    assert res.status is not SolveStatus.LINSOLVE_FAILURE
    assert all(r.linsolve_iterations > 0 for r in res.trace)


def test_matrix_free_step_reads_the_cutoff_when_called(monkeypatch):
    prep = prepare_lp(toy_lp())
    x = np.array([0.5, 0.5])
    assert step_detail(prep, x, SolverConfig()).factor is not None
    monkeypatch.setattr(linalg, "DIRECT_MAX_DIM", 0)
    forbid_assembly(monkeypatch)
    det = step_detail(prep, x, SolverConfig())
    assert det.factor is None and det.linsolve_iterations > 0
    assert np.allclose(det.x_new, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def capped_pcg(monkeypatch):
    # PCG that gives up after one iteration, so it misses every target
    pcg = linalg._pcg
    monkeypatch.setattr(linalg, "_pcg",
                        lambda mv, b, d, x0, target, _: pcg(mv, b, d, x0, target, 1))


def test_matrix_free_step_falls_back_to_cholesky(dag_600, monkeypatch):
    capped_pcg(monkeypatch)
    prep = prepare_lp(dag_600)
    cfg = SolverConfig(max_iters=3, seed=6)
    det = step_detail(prep, initial_state(prep, cfg), cfg)
    assert det.factor is not None
    A = prep.op.A.toarray()
    S = (A * (det.x_prev / prep.c)) @ A.T + det.reg_used * np.eye(prep.source.m)
    assert np.linalg.norm(S @ det.p - prep.b) <= 1e-10 * np.linalg.norm(prep.b)
    res = solve(dag_600, cfg)
    assert res.status is not SolveStatus.LINSOLVE_FAILURE
    assert len(res.trace) == 3


def test_cg_solve_of_any_rhs_falls_back_to_cholesky(dag_600, monkeypatch):
    # a right-hand side other than b, as backward and jvp solve on CG steps
    capped_pcg(monkeypatch)
    prep = prepare_lp(dag_600)
    op = prep.op
    w = initial_state(prep, SolverConfig(seed=6)) / prep.c
    reg = op.at(w).default_regularization()
    rhs = np.random.default_rng(6).normal(size=prep.source.m)
    report = linalg.spd_solve(op.at(w), rhs, reg=reg)
    assert report.factor is not None
    z = report.p
    A = prep.op.A.toarray()
    S = (A * w) @ A.T + reg * np.eye(prep.source.m)
    bound = 1e-10 * (np.diag(S).max() * np.linalg.norm(z) + np.linalg.norm(rhs))
    assert np.linalg.norm(S @ z - rhs) <= bound


def test_factored_spd_solve_refines_with_the_jacobi_diagonal(matching_5x50, monkeypatch):
    # the factor of another matrix misses the target, so PCG refines its
    # answer, preconditioned by the diagonal of A diag(w) A^T + reg*I
    prep = prepare_lp(matching_5x50)
    op, A = prep.op, prep.op.A.toarray()
    rng = np.random.default_rng(11)
    w = rng.uniform(0.1, 2.0, size=prep.source.n)
    reg = 1e-3
    stale = linalg.spd_solve(op.at(2.0 * w), prep.b, reg=reg).factor
    pcg, seen = linalg._pcg, []

    def spy(mv, b, diag, x0, target, max_iters):
        seen.append(diag)
        return pcg(mv, b, diag, x0, target, max_iters)
    monkeypatch.setattr(linalg, "_pcg", spy)
    rhs = rng.normal(size=prep.source.m)
    z = linalg.spd_solve(op.at(w), rhs, reg=reg, factor=stale).p
    S = (A * w) @ A.T + reg * np.eye(prep.source.m)
    assert len(seen) == 1
    assert np.abs(seen[0] - np.diag(S)).max() <= 1e-14 * np.diag(S).max()
    bound = 1e-10 * (np.diag(S).max() * np.linalg.norm(z) + np.linalg.norm(rhs))
    assert np.linalg.norm(S @ z - rhs) <= bound


def count_calls(monkeypatch, module, name):
    """The argument tuples of every call to module.name from now on."""
    inner, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("name", ["matching_5x50", "dag_600"])
def test_every_step_calls_spd_solve_once(name, request, monkeypatch):
    # the benchmark's traced run sees the linear solves through these
    # names: solver.spd_solve in forward steps, autodiff.spd_solve in
    # backward and jvp, which pass each step's factor (None on CG steps)
    lp = request.getfixturevalue(name)
    forward = count_calls(monkeypatch, solver, "spd_solve")
    adjoint = count_calls(monkeypatch, autodiff, "spd_solve")
    cfg = SolverConfig(max_iters=5)
    res = solve(lp, cfg)
    assert res.status is not SolveStatus.LINSOLVE_FAILURE
    assert len(res.trace) > 0
    assert len(forward) == len(res.trace)
    _, tape = solve_with_tape(lp, cfg)
    assert len(tape) == 5 and adjoint == []
    assert all((det.factor is None) == (lp.m > linalg.DIRECT_MAX_DIM) for det in tape.steps)
    backward(tape, np.ones(lp.n))
    assert len(adjoint) == len(tape)
    assert all(args[4] is det.factor for args, det in zip(adjoint, reversed(tape.steps)))
    adjoint.clear()
    jvp(tape, db=np.ones(lp.m))
    assert len(adjoint) == len(tape)
    assert all(args[4] is det.factor for args, det in zip(adjoint, tape.steps))


def test_overflowing_weights_report_a_linsolve_failure(monkeypatch):
    # x / c overflows on the subnormal cost, so A diag(w) A^T is infinite:
    # the step fails at once, without a solve on it
    def spd_solve(*args, **kwargs):
        raise AssertionError("solved with non-finite weights")

    monkeypatch.setattr(solver, "spd_solve", spd_solve)
    lp = StandardFormLP([[1.0, 1.0, 1.0]], [1.0], [1e-310, 1.0, 2.0])
    with pytest.warns(RuntimeWarning) as record:
        res = solve(lp, SolverConfig(max_iters=5))
    assert [str(r.message) for r in record] == ["overflow encountered in divide"]
    assert res.status is SolveStatus.LINSOLVE_FAILURE
    assert res.trace == []
    assert np.all(np.isfinite(res.x))


def test_matrix_free_failure_is_reported_not_raised(dag_600, monkeypatch):
    capped_pcg(monkeypatch)
    monkeypatch.setattr(linalg, "_cholesky", lambda S, b: (None, None))
    res = solve(dag_600, SolverConfig(max_iters=3))
    assert res.status is SolveStatus.LINSOLVE_FAILURE
    assert res.trace == []
    assert np.all(np.isfinite(res.x))


def dense_residuals(tape):
    """||(L + reg*I) p - b|| / ||b|| of each recorded step, with L
    assembled densely from A and x_prev."""
    A, b, c = tape.prep.op.A.toarray(), tape.prep.b, tape.prep.c
    out = []
    for det in tape.steps:
        S = (A * (det.x_prev / c)) @ A.T + det.reg_used * np.eye(len(b))
        out.append(np.linalg.norm(S @ det.p - b) / np.linalg.norm(b))
    return np.array(out)


def input_residuals(lp, res, tape):
    """||A x - b|| of each step's input: the residual of y0, then the
    trace residuals of all but the last iterate."""
    first = feasibility_residual(lp, tape.prep.decode(tape.x0))
    return np.array([first] + [r.residual for r in res.trace[:-1]])


def test_cg_steps_meet_the_tolerance(dag_600):
    # every CG step meets its own target, forward_tol of the residual
    # of its input, and no looser one
    cfg = SolverConfig(max_iters=100, seed=7)
    res, tape = solve_with_tape(dag_600, cfg)
    assert all(det.factor is None for det in tape.steps)
    tols = np.array([det.tol_used for det in tape.steps])
    assert np.all(dense_residuals(tape) <= tols)
    ratio = np.minimum(1.0, input_residuals(dag_600, res, tape) / np.linalg.norm(dag_600.b))
    expected = np.maximum(cfg.linsolve_tol, solver.FORCING * ratio)
    assert tols == pytest.approx(expected, rel=1e-12, abs=0.0)
    # the targets follow the residual: loose from the random start,
    # tighter as the iterate becomes feasible
    assert tols[0] == solver.FORCING and tols[-1] < 1e-6


def test_cg_steps_do_not_depend_on_the_previous_step(dag_600):
    # each step's CG starts from zero, so solving a recorded iterate
    # again on its own, to its recorded target, gives the same p after
    # the same CG count
    cfg = SolverConfig(max_iters=30, seed=7)
    res, tape = solve_with_tape(dag_600, cfg)
    op, b, c = tape.prep.op, tape.prep.b, tape.prep.c
    for det, record in zip(tape.steps, res.trace):
        again = linalg.spd_solve(op.at(det.x_prev / c), b, det.tol_used, det.reg_used)
        assert again.iterations == det.linsolve_iterations == record.linsolve_iterations
        assert np.array_equal(again.p, det.p)


def test_forward_targets_stay_at_or_below_the_forcing_term(dag_600):
    # a start far from feasible gives the capped target FORCING < 1, so
    # the first steps still run CG and move
    cfg = SolverConfig(max_iters=20, seed=3)
    res, tape = solve_with_tape(dag_600, cfg, x0=np.full(dag_600.n, 1e3))
    assert tape.steps[0].tol_used == solver.FORCING
    assert all(cfg.linsolve_tol <= det.tol_used <= solver.FORCING for det in tape.steps)
    assert all(det.linsolve_iterations > 0 for det in tape.steps)
    assert res.trace[-1].residual < 1e-3 * input_residuals(dag_600, res, tape)[0]


@pytest.mark.parametrize("name, iters", [("matching_5x50", 100), ("matching_50x100", 50)])
def test_forcing_leaves_direct_steps_alone(name, iters, request, monkeypatch):
    # a Cholesky answer meets the tightest target, so a looser one
    # returns the same p
    lp = request.getfixturevalue(name)
    cfg = SolverConfig(max_iters=iters, seed=5)
    loose = solve(lp, cfg, early_stop=False)
    monkeypatch.setattr(solver, "FORCING", 0.0)
    tight = solve(lp, cfg, early_stop=False)
    assert np.array_equal(loose.x, tight.x)
    assert loose.trace == tight.trace


def test_forcing_cuts_cg_iterations_not_accuracy(dag_600, monkeypatch):
    cfg = SolverConfig(max_iters=100, seed=7)
    loose = solve(dag_600, cfg, early_stop=False)
    monkeypatch.setattr(solver, "FORCING", 0.0)
    tight = solve(dag_600, cfg, early_stop=False)
    cg = [sum(r.linsolve_iterations for r in res.trace) for res in (loose, tight)]
    assert cg[0] <= 0.7 * cg[1]
    assert np.abs(loose.x - tight.x).max() <= 1e-6


# -------------------------------------------------------------- solve

def test_solve_toy_reaches_first_vertex():
    res = solve(toy_lp(), SolverConfig(max_iters=100))
    assert res.status == SolveStatus.CONVERGED
    assert res.objective == pytest.approx(1.0, abs=1e-3)
    assert np.allclose(res.x, [1.0, 0.0], atol=1e-3)
    assert res.x.min() >= 1e-8 - 1e-15


def test_solve_flat_objective_face():
    res = solve(toy_lp(c=(1.0, 1.0)), SolverConfig(max_iters=50))
    assert res.objective == pytest.approx(1.0, abs=1e-9)


def test_solve_flip_decodes_original_objective():
    lp = StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                        np.array([1.0, -1.0]), box_bound=1.0)
    res = solve(lp, SolverConfig(max_iters=100))
    assert res.objective == pytest.approx(-1.0, abs=1e-3)
    assert res.x[1] == pytest.approx(1.0, abs=1e-3)


def test_solve_all_negative_costs():
    lp = StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                        np.array([-1.0, -1.0]), box_bound=1.0)
    res = solve(lp, SolverConfig(max_iters=100))
    assert res.objective == pytest.approx(-1.0, abs=1e-6)


def test_solve_trace_and_status():
    # the toy is feasible from the first update, but a 3-step budget
    # ends before the objective (1.05 against the optimum 1) stalls, so
    # the stop test never holds
    res = solve(toy_lp(), SolverConfig(max_iters=3))
    assert res.status == SolveStatus.MAX_ITERS
    assert len(res.trace) == 3
    assert [r.iteration for r in res.trace] == [1, 2, 3]
    assert all(np.isfinite(r.objective) and np.isfinite(r.residual)
               for r in res.trace)


@pytest.mark.parametrize("early_stop", [True, False])
def test_a_budget_that_ends_on_a_moving_iterate_is_max_iters(early_stop):
    # every iterate is feasible, but 5 steps from x0 = [1e-6, 1] end at
    # the objective 1.99997, still on its way to the optimum 1
    cfg = SolverConfig(max_iters=5)
    res = solve(toy_lp(), cfg, x0=np.array([1e-6, 1.0]), early_stop=early_stop)
    assert len(res.trace) == 5 and res.residual <= cfg.residual_tol
    assert res.objective == pytest.approx(1.99997, abs=1e-5)
    assert res.status == SolveStatus.MAX_ITERS


def test_solve_early_stop_shortens_trace():
    res = solve(toy_lp(), SolverConfig(max_iters=500))
    assert res.status == SolveStatus.CONVERGED
    assert len(res.trace) < 500
    assert res.residual <= 1e-8


def test_solve_deterministic_per_seed():
    lp, _ = random_bounded_lp(np.random.default_rng(11), 3, 7)
    a = solve(lp, SolverConfig(max_iters=40, seed=123))
    b = solve(lp, SolverConfig(max_iters=40, seed=123))
    c = solve(lp, SolverConfig(max_iters=40, seed=124))
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.x, c.x)


def test_solve_rejects_nonpositive_start():
    with pytest.raises(NonPositiveInit):
        solve(toy_lp(), SolverConfig(), x0=np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("run", [solve, solve_with_tape])
def test_solve_rejects_nonfinite_start(run, bad):
    # bad input, not a failure of the linear solve: it must not end in
    # status LINSOLVE_FAILURE, and finiteness is checked before positivity
    with pytest.raises(NonFiniteEntry):
        run(toy_lp(), SolverConfig(max_iters=5), x0=np.array([bad, 1.0]))


def test_solve_rejects_wrong_shape_start():
    with pytest.raises(DimensionMismatch):
        solve(toy_lp(), SolverConfig(), x0=np.ones(3))


def test_solve_zero_iterations_returns_start():
    x0 = np.array([0.4, 0.7])
    res = solve(toy_lp(), SolverConfig(max_iters=0), x0=x0)
    assert np.array_equal(res.x, x0)
    assert len(res.trace) == 0
    # a 0-step budget never runs the stop test
    assert res.status == SolveStatus.MAX_ITERS


def test_feasibility_attraction_property():
    # randomized instances settle onto the constraint set
    rng = np.random.default_rng(12)
    hits = 0
    for _ in range(100):
        m = int(rng.integers(1, 5))
        lp, _ = random_bounded_lp(rng, m, m + int(rng.integers(1, 5)))
        res = solve(lp, SolverConfig(max_iters=200,
                                     seed=int(rng.integers(2 ** 63))))
        if res.residual <= 1e-6 * (1.0 + np.linalg.norm(lp.b)):
            hits += 1
    assert hits >= 99


def test_iterates_stay_above_floor():
    prep = prepare_lp(toy_lp())
    cfg = SolverConfig()
    x = initial_state(prep, cfg)
    for _ in range(50):
        x = step_detail(prep, x, cfg).x_new
        assert x.min() >= cfg.clamp_floor


def test_gamma_flows_from_config():
    lp = StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                        np.array([1.0, 0.0]))
    res = solve(lp, SolverConfig(max_iters=50, gamma=0.3))
    assert res.status == SolveStatus.CONVERGED
    with pytest.raises(ZeroCostNeedsGamma):
        solve(lp, SolverConfig(max_iters=50, gamma=0.0))
