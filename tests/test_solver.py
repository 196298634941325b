"""Forward dynamics: perturbation, flipping, stepping, and solve."""

import numpy as np
import pytest

from physlp import (SolveStatus, SolverConfig, StandardFormLP, core, default_gamma,
                    default_regularization, feasibility_residual,
                    flip_negative_costs, initial_state, linalg, perturb_cost,
                    prepare_lp, solve, solver, step_detail)
from physlp.errors import (DimensionMismatch, MissingBound, NonPositiveInit,
                           ZeroCostNeedsGamma)
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
    prep = flip_negative_costs(toy_lp())
    assert not prep.flip_mask.any()
    assert np.array_equal(prep.lp.A, [[1.0, 1.0]])
    assert np.array_equal(prep.lp.c, [1.0, 2.0])


def test_flip_single_negative_coordinate():
    # min -x1 s.t. x1 + x2 = 1 with box bound 1: substituting
    # x1 = 1 - y1 negates the column and shifts b
    lp = StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                        np.array([-1.0, 0.0]), box_bound=1.0)
    prep = flip_negative_costs(lp)
    assert prep.flip_mask.tolist() == [True, False]
    assert np.array_equal(prep.lp.A, [[-1.0, 1.0]])
    assert np.array_equal(prep.lp.b, [0.0])
    assert np.array_equal(prep.lp.c, [1.0, 0.0])


def test_flip_requires_bound():
    lp = toy_lp(c=(-1.0, 1.0))
    with pytest.raises(MissingBound):
        flip_negative_costs(lp)


def test_flip_restore_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m, n = 2, 5
        A = rng.normal(size=(m, n))
        lp = StandardFormLP(A, rng.normal(size=m), rng.normal(size=n),
                            box_bound=2.0)
        prep = flip_negative_costs(lp)
        back = prep.restore()
        assert np.array_equal(back.A, lp.A)
        assert np.array_equal(back.c, lp.c)
        # b went through b + M*s - M*s, exact only up to rounding
        assert np.allclose(back.b, lp.b, rtol=0, atol=1e-12)
        assert back.box_bound == lp.box_bound


def test_flip_preserves_residual_through_encode():
    # residuals agree in either coordinate system
    rng = np.random.default_rng(8)
    lp = StandardFormLP(rng.normal(size=(2, 4)), rng.normal(size=2),
                        np.array([1.0, -1.0, 2.0, -0.5]), box_bound=3.0)
    prep = flip_negative_costs(lp)
    x = rng.uniform(0.1, 2.9, size=4)
    y = prep.encode(x)
    assert feasibility_residual(lp, x) == pytest.approx(
        feasibility_residual(prep.lp, y), abs=1e-12)
    assert np.allclose(prep.decode(y), x)


def test_prepare_copies_A_only_when_a_column_flips(signed_sparse_40x400):
    lp = toy_lp()
    assert prepare_lp(lp).lp.A is lp.A
    assert flip_negative_costs(lp).lp.A is lp.A
    prep = prepare_lp(signed_sparse_40x400)
    assert prep.flip_mask.any() and not np.shares_memory(prep.lp.A, signed_sparse_40x400.A)


def test_solve_validates_at_most_twice(matching_5x50, monkeypatch):
    # once at the public boundary, once when the working LP is built
    validate, calls = core.validate, []

    def counting(lp):
        calls.append(lp)
        return validate(lp)

    for module in (core, solver):
        monkeypatch.setattr(module, "validate", counting)
    solve(matching_5x50, SolverConfig(max_iters=3))
    assert len(calls) <= 2


def test_prepared_cost_strictly_positive():
    lp = StandardFormLP(np.array([[1.0, 1.0, 1.0]]), np.array([1.0]),
                        np.array([0.5, 0.0, -2.0]), box_bound=1.0)
    prep = prepare_lp(lp, gamma=0.25)
    assert prep.gamma == 0.25
    assert (prep.lp.c > 0).all()
    assert prep.lp.c.min() >= min(0.25, 0.5)


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
        assert feasibility_residual(prep.lp, out.x_new) <= 1e-8 * (
            1.0 + np.linalg.norm(lp.b))


# ---------------------------------------------------- weighted operator

def test_operator_follows_the_lp_it_belongs_to(signed_sparse_40x400):
    # flip_negative_costs builds a new LP, and its operator is that of
    # the flipped A, so step_detail runs on its output as on prepare_lp's
    prep = flip_negative_costs(signed_sparse_40x400)
    A = prep.lp.A
    assert np.array_equal(prep.lp.operator.A.toarray(), A)
    assert prep.lp.operator is prep.lp.operator
    w = np.random.default_rng(5).uniform(0.1, 2.0, size=prep.lp.n)
    want = (A * w) @ A.T
    assert np.abs(prep.lp.operator.gram(w) - want).max() <= 1e-14 * np.abs(want).max()
    cfg = SolverConfig(seed=5)
    det = step_detail(prep, initial_state(prep, cfg), cfg)
    assert np.all(det.x_new >= cfg.clamp_floor)


def dense_step(prep, x, cfg):
    """One step with L assembled densely, the form before the CSR
    operator: (p, x_new)."""
    A, b = prep.lp.A, prep.lp.b
    w = x / prep.lp.c
    report = linalg.spd_solve((A * w) @ A.T, b, tol=cfg.linsolve_tol, reg=cfg.linsolve_reg)
    pre = (1.0 - cfg.step_size) * x + cfg.step_size * (w * (A.T @ report.p))
    return report.p, np.maximum(pre, cfg.clamp_floor)


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
    op, A = prep.lp.operator, prep.lp.A
    w = initial_state(prep, SolverConfig(seed=4)) / prep.lp.c
    for L in (op.gram(w), (A * w) @ A.T):
        want = default_regularization(L)
        assert abs(op.at(w).default_regularization() - want) <= 1e-12 * want
    report = linalg.spd_solve(op.at(w), prep.lp.b)
    assert report.regularization_used == op.at(w).default_regularization()
    assert report.factor is None


def test_matrix_free_steps_skip_the_gram_pattern(dag_600):
    prep = prepare_lp(dag_600)
    cfg = SolverConfig(seed=4)
    det = step_detail(prep, initial_state(prep, cfg), cfg)
    assert det.factor is None
    assert "_gram" not in vars(prep.lp.operator)


def test_residual_through_the_flipped_operator(signed_sparse_40x400):
    lp = signed_sparse_40x400
    assert prepare_lp(lp).flip_mask.any()
    res = solve(lp, SolverConfig(max_iters=5))
    assert res.residual == pytest.approx(feasibility_residual(lp, res.x), rel=1e-12)


def forbid_assembly(monkeypatch):
    def gram(self, w):
        raise AssertionError("L was assembled")
    monkeypatch.setattr(linalg.WeightedOperator, "gram", gram)


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
    S = prep.lp.operator.gram(det.x_prev / prep.lp.c) + det.reg_used * np.eye(prep.lp.m)
    assert np.linalg.norm(S @ det.p - prep.lp.b) <= 1e-10 * np.linalg.norm(prep.lp.b)
    res = solve(dag_600, cfg)
    assert res.status is not SolveStatus.LINSOLVE_FAILURE
    assert len(res.trace) == 3


def test_weighted_solve_without_a_factor_falls_back_to_cholesky(dag_600, monkeypatch):
    capped_pcg(monkeypatch)
    prep = prepare_lp(dag_600)
    op = prep.lp.operator
    w = initial_state(prep, SolverConfig(seed=6)) / prep.lp.c
    reg = op.at(w).default_regularization()
    rhs = np.random.default_rng(6).normal(size=prep.lp.m)
    z = linalg.weighted_solve(op, w, reg, rhs, None)
    S = op.gram(w) + reg * np.eye(prep.lp.m)
    bound = 1e-10 * (np.diag(S).max() * np.linalg.norm(z) + np.linalg.norm(rhs))
    assert np.linalg.norm(S @ z - rhs) <= bound


@pytest.mark.parametrize("name", ["matching_5x50", "dag_600"])
def test_every_step_calls_spd_solve_once(name, request, monkeypatch):
    # the benchmark's traced run sees the linear solves through this name
    lp = request.getfixturevalue(name)
    spd_solve, calls = solver.spd_solve, []

    def counting(*args, **kwargs):
        calls.append(args)
        return spd_solve(*args, **kwargs)

    monkeypatch.setattr(solver, "spd_solve", counting)
    res = solve(lp, SolverConfig(max_iters=5))
    assert res.status is not SolveStatus.LINSOLVE_FAILURE
    assert len(res.trace) > 0
    assert len(calls) == len(res.trace)


def test_overflowing_weights_report_a_linsolve_failure():
    # x / c overflows on the subnormal cost, so A diag(w) A^T is infinite
    lp = StandardFormLP([[1.0, 1.0, 1.0]], [1.0], [1e-310, 1.0, 2.0])
    with pytest.warns(RuntimeWarning) as record:
        res = solve(lp, SolverConfig(max_iters=5))
    assert any("overflow" in str(r.message) for r in record)
    assert res.status is SolveStatus.LINSOLVE_FAILURE
    assert np.all(np.isfinite(res.x))


def test_matrix_free_failure_is_reported_not_raised(dag_600, monkeypatch):
    capped_pcg(monkeypatch)
    monkeypatch.setattr(linalg, "_cholesky", lambda S, b: (None, None))
    res = solve(dag_600, SolverConfig(max_iters=3))
    assert res.status is SolveStatus.LINSOLVE_FAILURE
    assert res.trace == []
    assert np.all(np.isfinite(res.x))


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
    # status reports the final residual check: the toy is feasible from
    # the first update, so even a 3-step budget counts as converged
    res = solve(toy_lp(), SolverConfig(max_iters=3))
    assert res.status == SolveStatus.CONVERGED
    assert len(res.trace) == 3
    assert [r.iteration for r in res.trace] == [1, 2, 3]
    assert all(np.isfinite(r.objective) and np.isfinite(r.residual)
               for r in res.trace)


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


def test_solve_rejects_wrong_shape_start():
    with pytest.raises(DimensionMismatch):
        solve(toy_lp(), SolverConfig(), x0=np.ones(3))


def test_solve_zero_iterations_returns_start():
    x0 = np.array([0.4, 0.7])
    res = solve(toy_lp(), SolverConfig(max_iters=0), x0=x0)
    assert np.array_equal(res.x, x0)
    assert len(res.trace) == 0
    assert res.status == SolveStatus.MAX_ITERS  # start is infeasible


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
