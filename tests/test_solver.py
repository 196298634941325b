"""Forward dynamics: perturbation, potentials, stepping, and solve."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse

from physlp import (SolveStatus, SolverConfig, StandardFormLP, autodiff, backward, core, jvp,
                    linalg, problems, solve, solve_with_tape, solver)
from physlp.errors import DimensionMismatch, NegativeCost, NonFiniteEntry, NonPositiveInit
from physlp.oracles import hungarian
from physlp.problems import MatchingInstance, build_matching_lp, decode_matching
from physlp.solver import default_gamma, initial_state, prepare_lp, step_detail

from .conftest import assert_sparse_copies_the_template, random_bounded_lp, rerun, step_tols

# The relative target of the solves below: step_detail and spd_solve
# take theirs from the caller, and this is SolverConfig's default
# linsolve_tol, the floor of the forward loop's targets
TOL = SolverConfig().linsolve_tol


def toy_lp(c=(1.0, 2.0)):
    return StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                          np.array(c, dtype=float))


# ------------------------------------------------------------ perturb

def cost_lp(c):
    """min c.x s.t. sum(x) = 1."""
    return StandardFormLP(np.ones((1, len(c))), [1.0], c)


def test_perturb_replaces_only_zeros():
    # prepare_lp raises the zero entries of the working cost to
    # default_gamma(m, n) and leaves the rest, and a zero-free cost bit
    # for bit
    prep = prepare_lp(cost_lp([1.0, 0.0, 2.0]))
    assert np.array_equal(prep.c, [1.0, default_gamma(1, 3), 2.0])
    assert prep.zero_mask.tolist() == [False, True, False]
    c = np.random.default_rng(1).uniform(0.1, 1.0, size=6)
    assert np.array_equal(prepare_lp(cost_lp(c)).c, c)
    assert np.array_equal(prepare_lp(cost_lp([0.0, 0.0])).c, [default_gamma(1, 2)] * 2)


def test_default_gamma_scale():
    assert default_gamma(5, 20) == pytest.approx(0.5 / np.sqrt(25))


# --------------------------------------------------------- potentials

def test_the_working_cost_is_c_without_potentials():
    # the prepared LP keeps the LP as given as its source, and its cost
    lp = toy_lp()
    prep = prepare_lp(lp)
    assert prep.source is lp and np.array_equal(prep.c, lp.c) and not prep.zero_mask.any()
    assert np.array_equal(prep.source.operator.A.toarray(), [[1.0, 1.0]])


def test_the_working_cost_is_the_reduced_cost():
    # c - A^T pi with potentials; the prepared LP keeps the LP as given,
    # and its A, as its source
    rng = np.random.default_rng(7)
    for _ in range(10):
        A = rng.normal(size=(2, 5))
        pi = rng.normal(size=2)
        c = rng.uniform(0.1, 1.0, size=5) + A.T @ pi
        lp = StandardFormLP(A, rng.normal(size=2), c, pi)
        prep = prepare_lp(lp)
        assert prep.source is lp and prep.source.operator.A is lp.A
        assert np.array_equal(prep.c, lp.c - lp.operator.AT @ lp.potentials)
        assert np.abs(prep.c - (c - A.T @ pi)).max() <= 1e-14


def test_a_negative_working_cost_is_refused():
    # a negative cost needs potentials, and potentials that cover it
    with pytest.raises(NegativeCost, match="1 entries"):
        prepare_lp(toy_lp(c=(-1.0, 1.0)))
    with pytest.raises(NegativeCost):
        solve(StandardFormLP([[1.0, 1.0]], [1.0], [-1.0, 1.0], [-0.5]))
    assert np.array_equal(prepare_lp(StandardFormLP([[1.0, 1.0]], [1.0], [-1.0, 1.0], [-2.0])).c,
                          [1.0, 3.0])


@pytest.mark.filterwarnings("error")
def test_a_working_cost_above_A_MAX_is_refused():
    # the potentials of a row spanning +-0.9 A_MAX lift its working cost
    # to 1.8 A_MAX, 2.4e154, which backward once squared to inf, with a
    # warning, and returned finite but wrong gradients
    C = np.random.default_rng(4).uniform(size=(3, 5))
    C[0] = np.linspace(-0.9, 0.9, 5) * core.A_MAX
    lp = build_matching_lp(MatchingInstance(C))
    with pytest.raises(NonFiniteEntry, match="working cost"):
        solve(lp)


def test_a_zero_reduced_cost_is_raised_to_gamma():
    # min -x1 s.t. x1 + x2 = 1 with pi = -1: the working cost (0, 1)
    # has a zero, which the perturbation raises
    lp = StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                        np.array([-1.0, 0.0]), np.array([-1.0]))
    prep = prepare_lp(lp)
    assert prep.zero_mask.tolist() == [True, False]
    assert np.array_equal(prep.c, [default_gamma(1, 2), 1.0])


def test_pullback_is_the_transpose_of_tangent(signed_sparse_40x400):
    # the map (dc, dA) -> (tangent(dc, dA), dA) has the transpose
    # (gc, gA) -> (pullback(gc), pullback_A(gA, pullback(gc))), on an
    # LP with potentials and with working costs raised to gamma
    lp = signed_sparse_40x400
    c = np.where(np.arange(lp.n) < 10, lp.operator.AT @ lp.potentials, lp.c)
    prep = prepare_lp(replace(lp, c=c))
    assert prep.zero_mask.sum() == 10
    rng = np.random.default_rng(9)

    for _ in range(5):
        dc, dA, gc, gA = (rng.normal(size=shape) for shape in [lp.n, (lp.m, lp.n)] * 2)
        gc_lp = prep.pullback(gc)
        lhs = gc_lp @ dc + np.vdot(prep.pullback_A(gA, gc_lp), dA)
        rhs = gc @ prep.tangent(dc, dA) + np.vdot(gA, dA)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))
        # without dA the cost maps alone are transposes
        assert abs(gc_lp @ dc - gc @ prep.tangent(dc, None)) <= 1e-12 * abs(gc_lp @ dc)


def negative_cost_case(family, seed):
    """(lp, cfg, the LP's optimum) of an LP with negative costs and a
    known optimum.

    "matching": a 20x30 assignment with about a fifth of C negated, as
    build_matching_lp makes it, with its potentials, whose optimum is
    Hungarian's plus the slack cost.  "dag": a 30-node DAG, arcs
    i -> j > i at out-degree 3, with every 7th arc cost negated, whose
    optimum is the shortest path from node 0 to node 29.  A dynamic
    program over the nodes in their topological order finds it, and
    gives the potentials: d_v, the least length of a path ending at v
    with each arc shortened by a margin of 0.05, makes every reduced
    cost c_th + d_t - d_h at least the margin, and pi_v = d_0 - d_v on
    the rows, which are the nodes other than 0."""
    rng = np.random.default_rng(seed)
    if family == "matching":
        C = rng.uniform(size=(20, 30)) * np.where(rng.uniform(size=(20, 30)) < 0.2, -1.0, 1.0)
        lp = build_matching_lp(MatchingInstance(C))
        return lp, SolverConfig(max_iters=50, seed=seed), hungarian(C).cost + 10 * lp.c[-1]
    nodes, arcs = 30, []
    for i in range(nodes - 1):
        heads = i + 1 + rng.choice(nodes - 1 - i, size=min(3, nodes - 1 - i), replace=False)
        weights = rng.uniform(0.01, 1.0, size=heads.size)
        arcs += [(i, int(j), float(w)) for j, w in zip(heads, weights)]
    lp = problems.build_shortest_path_lp(problems.Graph(nodes, arcs), 0, nodes - 1)
    assert lp.m == nodes - 1
    c = np.where(np.arange(lp.n) % 7 == 0, -lp.c, lp.c)
    dist = np.full(nodes, np.inf)
    dist[0] = 0.0
    d = np.zeros(nodes)
    for (t, h, _), cost in sorted(zip(arcs, c)):  # by tail: topological order
        dist[h] = min(dist[h], dist[t] + cost)
        d[h] = min(d[h], d[t] + cost - 0.05)
    return StandardFormLP(lp.A, lp.b, c, d[0] - d[1:]), SolverConfig(max_iters=100, seed=3), \
        dist[-1]


@pytest.mark.parametrize("family, seed", [("matching", 0), ("matching", 2), ("dag", 1),
                                          ("dag", 2)])
def test_a_negative_cost_lp_is_solved_as_the_lp_it_is(family, seed):
    # the solution is feasible, so its objective is at least the
    # optimum, and it is near it: the matching decodes to Hungarian's
    # assignment, and the DAG's objective is within 5e-3 of the path's
    lp, cfg, optimum = negative_cost_case(family, seed)
    assert (lp.c < 0).sum() >= 10 and lp.potentials is not None
    res = solve(lp, cfg)
    assert res.x.min() >= -1e-6 and res.residual <= 1e-4
    assert res.objective >= optimum - 1e-6
    if family == "matching":
        C = lp.c[:600].reshape(20, 30)
        assert decode_matching(res.x, 20, 30, C).cost == hungarian(C).cost
    else:
        assert res.objective <= optimum + 5e-3


def test_a_potentials_lp_computes_with_the_lp_operator(signed_sparse_40x400, monkeypatch):
    # potentials change the cost alone, so every solve, tape, backward,
    # jvp and rerun of an LP with potentials reads lp.operator and
    # builds no other
    lp = signed_sparse_40x400
    op = lp.operator
    prep = prepare_lp(lp)
    assert (lp.c < 0).any() and prep.source is lp
    built = count_calls(monkeypatch, linalg.WeightedOperator, "__init__")
    used = count_calls(monkeypatch, linalg.WeightedOperator, "at")
    cfg = SolverConfig(max_iters=5)
    solve(lp, cfg)
    _, tape = solve_with_tape(lp, cfg)
    assert tape.prep.source.operator is op
    backward(tape, np.ones(lp.n))
    jvp(tape, dc=np.ones(lp.n), dA=np.ones((lp.m, lp.n)), db=np.ones(lp.m))
    rerun(tape)
    # 5 steps each for solve, the tape and the rerun; backward and jvp
    # read each step's gram from the tape and take none
    assert built == [] and len(used) == 15
    assert all(args[0] is op for args in used)


def test_the_residual_of_a_potentials_lp_is_its_own(signed_sparse_40x400):
    # the iterate is the LP's own, so the reported residual is
    # ||A x - b|| of the LP as given
    lp = signed_sparse_40x400
    assert (lp.c < 0).any() and lp.potentials is not None
    res = solve(lp, SolverConfig(max_iters=5))
    assert res.residual == pytest.approx(np.linalg.norm(lp.A @ res.x - lp.b), rel=1e-12)


@pytest.mark.parametrize("name", ["matching_5x50", "svm_20"])
def test_prepare_reuses_the_input_operator(name, request):
    # with zero costs (svm_20) or without: every solve of one LP object
    # computes with the operator that LP built once
    lp = request.getfixturevalue(name)
    prep = prepare_lp(lp)
    assert prep.zero_mask.any() == (name == "svm_20")
    assert prep.source.operator is lp.operator
    _, tape = solve_with_tape(lp, SolverConfig(max_iters=1))
    assert tape.prep.source.operator is lp.operator


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
    assert np.linalg.norm(changed.A @ res.x - changed.b) <= 1e-6
    with pytest.raises(DimensionMismatch):
        replace(lp, A=np.ones((2, 2)))


def test_lp_arrays_are_read_only_views():
    # read-only, and no views of the caller's arrays: the LP owns
    # copies, so a write into the LP raises and the caller's arrays
    # stay writable
    A, b, c = np.array([[1.0, 1.0]]), np.array([1.0]), np.array([1.0, 2.0])
    lp = StandardFormLP(A, b, c)
    for mine, given in ((lp.b, b), (lp.c, c)):
        assert not np.shares_memory(mine, given) and given.flags.writeable
        assert mine.flags.owndata and np.array_equal(mine, given)
        with pytest.raises(ValueError):
            mine[0] = 3.0
    # A is a CSR array of new arrays, each read-only, whether the caller
    # gives A dense or as a CSR array of its own
    for given in (A, scipy.sparse.csr_array(A)):
        mine = StandardFormLP(given, b, c).A
        assert np.array_equal(mine.toarray(), A) and A.flags.writeable
        for arr in (mine.data, mine.indices, mine.indptr):
            assert not np.shares_memory(arr, A) and not np.shares_memory(arr, given.data)
            with pytest.raises(ValueError):
                arr[0] = 3
    # a read-only view is copied too: the array it views can still change
    view = np.array([1.0]).view()
    view.flags.writeable = False
    assert not np.shares_memory(StandardFormLP(A, view, c).b, view)


@pytest.mark.parametrize("name", ["A", "b", "c"])
def test_a_write_into_the_callers_array_does_not_reach_the_lp(name):
    # writing A[0, 0] = 2 after a first solve once left lp.A reading
    # [[2, 1]] while the cached operator solved [[1, 1]]
    given = {"A": np.array([[1.0, 1.0]]), "b": np.array([1.0]), "c": np.array([1.0, 2.0])}
    lp = StandardFormLP(**given)
    cfg = SolverConfig(max_iters=50)
    first = solve(lp, cfg)
    given[name].flat[0] = 2.0
    assert np.array_equal(lp.A.toarray(), [[1.0, 1.0]]) and np.array_equal(lp.b, [1.0])
    assert np.array_equal(lp.c, [1.0, 2.0])
    second = solve(lp, cfg)
    assert np.array_equal(second.x, first.x) and second.residual == first.residual
    assert second.trace == first.trace and second.status is first.status
    assert np.linalg.norm(lp.A @ second.x - lp.b) <= 1e-6


def test_replace_keeps_the_arrays_it_is_not_given(matching_5x50):
    lp = matching_5x50
    changed = replace(lp, c=lp.c + 1.0)
    assert changed.A is lp.A and changed.b is lp.b
    assert not np.shares_memory(changed.c, lp.c)


def test_an_lp_is_validated_once_when_built(monkeypatch):
    # at the public boundary only: building the LP validates it, and no
    # solve, gradient or rerun of it validates it again
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
    rerun(tape)
    assert len(calls) == 1 and calls[0] is lp


def test_prepared_cost_strictly_positive():
    # the working cost (2.5, 2, 0) of pi = -2 has a zero, raised to gamma
    lp = StandardFormLP(np.array([[1.0, 1.0, 1.0]]), np.array([1.0]),
                        np.array([0.5, 0.0, -2.0]), np.array([-2.0]))
    prep = prepare_lp(lp)
    gamma = default_gamma(1, 3)
    assert np.array_equal(prep.c[prep.zero_mask], [gamma])
    assert (prep.c > 0).all()
    assert prep.c.min() >= min(gamma, 0.5)


# --------------------------------------------------------------- step

def test_step_symmetric_fixed_point():
    prep = prepare_lp(toy_lp(c=(1.0, 1.0)))
    cfg = SolverConfig()
    x = initial_state(prep, cfg, x0=np.array([0.5, 0.5]))
    out = step_detail(prep, x, cfg, TOL)
    assert np.allclose(out.x_new, [0.5, 0.5], atol=1e-12)


def test_step_hand_checked_values():
    # W = diag(.5, .25), L = [0.75], p = [4/3], q = [2/3, 1/3]
    prep = prepare_lp(toy_lp())
    cfg = SolverConfig()
    x = initial_state(prep, cfg, x0=np.array([0.5, 0.5]))
    out = step_detail(prep, x, cfg, TOL)
    assert np.allclose(out.x_new, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_step_damped_is_convex_combination():
    prep = prepare_lp(toy_lp())
    x0 = np.array([0.5, 0.5])
    full = step_detail(prep, initial_state(prep, SolverConfig(), x0=x0),
                       SolverConfig(step_size=1.0), TOL).x_new
    half = step_detail(prep, initial_state(prep, SolverConfig(), x0=x0),
                       SolverConfig(step_size=0.5), TOL).x_new
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
        outs.append(step_detail(prep, initial_state(prep, cfg, x0=x0), cfg, TOL).x_new)
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
        out = step_detail(prep, x, cfg, TOL)
        assert np.linalg.norm(prep.source.operator.A @ out.x_new - lp.b) <= 1e-8 * (
            1.0 + np.linalg.norm(lp.b))


# ---------------------------------------------------- weighted operator

def test_operator_follows_the_lp_it_belongs_to(signed_sparse_40x400):
    # potentials change the cost alone: the operator stays the LP's
    # own, and its Gram matrix is that of the LP's A
    prep = prepare_lp(signed_sparse_40x400)
    op = prep.source.operator
    A = signed_sparse_40x400.A.toarray()
    assert op is signed_sparse_40x400.operator
    assert np.array_equal(op.A.toarray(), A)
    w = np.random.default_rng(5).uniform(0.1, 2.0, size=prep.source.n)
    want = (A * w) @ A.T
    assert np.abs(op.at(w, 0.0).sparse().toarray() - want).max() <= 1e-14 * np.abs(want).max()
    cfg = SolverConfig(seed=5)
    det = step_detail(prep, initial_state(prep, cfg), cfg, TOL)
    assert np.all(det.x_new >= solver.CLAMP_FLOOR)


def dense_step(prep, x, cfg):
    """One step with L assembled densely and solved by scipy's Cholesky,
    the form before the CSR operator, with the default Tikhonov term
    1e-10 trace(L) / m: (p, x_new)."""
    A, b = prep.source.operator.A.toarray(), prep.source.b
    w = x / prep.c
    L = (A * w) @ A.T
    S = L + 1e-10 * np.trace(L) / len(b) * np.eye(len(b))
    p = scipy.linalg.cho_solve(scipy.linalg.cho_factor(S), b)
    pre = (1.0 - cfg.step_size) * x + cfg.step_size * (w * (A.T @ p))
    return p, np.maximum(pre, solver.CLAMP_FLOOR)


@pytest.mark.parametrize("name", ["matching_50x100", "dag_600", "signed_sparse_40x400"])
def test_csr_step_matches_a_dense_step(name, request):
    lp = request.getfixturevalue(name)
    prep = prepare_lp(lp)
    cfg = SolverConfig(seed=3)
    x = initial_state(prep, cfg)
    det = step_detail(prep, x, cfg, TOL)
    for want, got in zip(dense_step(prep, x, cfg), (det.p, det.x_new)):
        assert np.abs(want - got).max() <= 1e-10 * np.abs(want).max()
    assert (det.gram.factor is None) == (lp.m > linalg.DIRECT_MAX_DIM)


def test_matrix_free_default_reg_is_the_assembled_one(dag_600):
    prep = prepare_lp(dag_600)
    op = prep.source.operator
    A = op.A.toarray()
    w = initial_state(prep, SolverConfig(seed=4)) / prep.c
    L = (A * w) @ A.T
    want = 1e-10 * np.trace(L) / len(L)
    gram = op.at(w)
    assert abs(gram.reg - want) <= 1e-12 * want
    diag = np.diag(L) + gram.reg
    assert np.abs(gram.sparse().diagonal() - diag).max() <= 1e-14 * diag.max()
    report = linalg.spd_solve(gram, dag_600.b, TOL)
    assert report.iterations > 0 and gram.factor is None


@pytest.mark.parametrize("name", ["matching_5x50", "dag_600", "signed_sparse_40x400", "svm_20"])
def test_sparse_matrix_is_the_dense_gram(name, request):
    # S = A diag(w) A^T + reg*I on the compressed pattern, which CG steps
    # and their backward and jvp solves use, against a dense product; the
    # dense form that direct steps factor where the rows do not split,
    # as on none of these, comes from the same values, so it is S bit
    # for bit
    prep = prepare_lp(request.getfixturevalue(name))
    op = prep.source.operator
    A = op.A.toarray()
    w = np.random.default_rng(9).uniform(0.1, 2.0, size=prep.source.n)
    gram = op.at(w, 1e-3)
    S = gram.sparse()
    want = (A * w) @ A.T + gram.reg * np.eye(prep.source.m)
    assert S.has_sorted_indices
    assert S.nnz == np.count_nonzero(want)
    assert np.array_equal(S.toarray() != 0, want != 0)
    assert np.abs(S.toarray() - want).max() <= 1e-14 * np.abs(want).max()
    if prep.source.m <= linalg.DIRECT_MAX_DIM:
        assert op._pattern.split is None
        assert np.array_equal(gram.direct(), S.toarray())
    diag = np.diag(want)
    assert np.abs(S.diagonal() - diag).max() <= 1e-14 * diag.max()
    assert_sparse_copies_the_template(gram, op.at(w, 0.25))


def test_sparse_matrix_keeps_the_diagonal_of_an_empty_row():
    # reg*I lands on every row, also where A A^T has no entry
    A = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    w = np.array([1.0, 2.0, 3.0])
    gram = linalg.WeightedOperator(scipy.sparse.csr_array(A)).at(w, 0.5)
    assert gram.reg == 0.5 * 14.0 / 3  # the trace is 9 + 0 + 5
    assert np.array_equal(gram.sparse().toarray(), (A * w) @ A.T + gram.reg * np.eye(3))


def forbid_assembly(monkeypatch):
    def direct(self):
        raise AssertionError("L was assembled")
    monkeypatch.setattr(linalg.WeightedGram, "direct", direct)


def test_matrix_free_steps_never_form_L(dag_600, monkeypatch):
    forbid_assembly(monkeypatch)
    res = solve(dag_600, SolverConfig(max_iters=5))
    assert res.status is not SolveStatus.LINSOLVE_FAILURE
    assert all(r.linsolve_iterations > 0 for r in res.trace)


def test_matrix_free_step_reads_the_cutoff_when_called(monkeypatch):
    prep = prepare_lp(toy_lp())
    x = np.array([0.5, 0.5])
    assert step_detail(prep, x, SolverConfig(), TOL).gram.factor is not None
    monkeypatch.setattr(linalg, "DIRECT_MAX_DIM", 0)
    forbid_assembly(monkeypatch)
    det = step_detail(prep, x, SolverConfig(), TOL)
    assert det.gram.factor is None and det.linsolve_iterations > 0
    assert np.allclose(det.x_new, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def capped_pcg(monkeypatch):
    # PCG that gives up after one iteration, so it misses every target
    pcg = linalg._pcg
    monkeypatch.setattr(linalg, "_pcg",
                        lambda mv, b, d, x, r, target, _: pcg(mv, b, d, x, r, target, 1))


def test_matrix_free_step_falls_back_to_cholesky(dag_600, monkeypatch):
    capped_pcg(monkeypatch)
    prep = prepare_lp(dag_600)
    cfg = SolverConfig(max_iters=3, seed=6)
    det = step_detail(prep, initial_state(prep, cfg), cfg, TOL)
    assert det.gram.factor is not None
    A = prep.source.operator.A.toarray()
    S = (A * (det.x_prev / prep.c)) @ A.T + det.gram.reg * np.eye(prep.source.m)
    assert np.linalg.norm(S @ det.p - dag_600.b) <= 1e-10 * np.linalg.norm(dag_600.b)
    res = solve(dag_600, cfg)
    assert res.status is not SolveStatus.LINSOLVE_FAILURE
    assert len(res.trace) == 3


def test_cg_solve_of_any_rhs_falls_back_to_cholesky(dag_600, monkeypatch):
    # a right-hand side other than b, as backward and jvp solve on CG steps
    capped_pcg(monkeypatch)
    prep = prepare_lp(dag_600)
    op = prep.source.operator
    w = initial_state(prep, SolverConfig(seed=6)) / prep.c
    gram = op.at(w)
    reg = gram.reg
    rhs = np.random.default_rng(6).normal(size=prep.source.m)
    report = linalg.spd_solve(gram, rhs, TOL)
    assert gram.factor is not None
    z = report.p
    A = op.A.toarray()
    S = (A * w) @ A.T + reg * np.eye(prep.source.m)
    bound = 1e-10 * (np.diag(S).max() * np.linalg.norm(z) + np.linalg.norm(rhs))
    assert np.linalg.norm(S @ z - rhs) <= bound


def test_factored_spd_solve_refines_with_the_jacobi_diagonal(matching_5x50, monkeypatch):
    # a gram that holds the factor of another matrix misses the target,
    # so PCG refines its answer, preconditioned by the diagonal of
    # A diag(w) A^T + reg*I
    prep = prepare_lp(matching_5x50)
    op = prep.source.operator
    A = op.A.toarray()
    rng = np.random.default_rng(11)
    w = rng.uniform(0.1, 2.0, size=prep.source.n)
    stale = op.at(2.0 * w, 1e-3)
    linalg.spd_solve(stale, matching_5x50.b, TOL)
    pcg, seen = linalg._pcg, []

    def spy(mv, b, diag, x, r, target, max_iters):
        seen.append(diag)
        return pcg(mv, b, diag, x, r, target, max_iters)
    monkeypatch.setattr(linalg, "_pcg", spy)
    rhs = rng.normal(size=prep.source.m)
    gram = op.at(w, 1e-3)
    gram.factor = stale.factor
    z = linalg.spd_solve(gram, rhs, TOL).p
    S = (A * w) @ A.T + gram.reg * np.eye(prep.source.m)
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
    # backward and jvp, which pass each step's gram, and with it its
    # factor (None on CG steps)
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
    assert all((det.gram.factor is None) == (lp.m > linalg.DIRECT_MAX_DIM) for det in tape.steps)
    backward(tape, np.ones(lp.n))
    assert len(adjoint) == len(tape)
    assert all(args[0] is det.gram for args, det in zip(adjoint, reversed(tape.steps)))
    adjoint.clear()
    jvp(tape, db=np.ones(lp.m))
    assert len(adjoint) == len(tape)
    assert all(args[0] is det.gram for args, det in zip(adjoint, tape.steps))


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
    monkeypatch.setattr(linalg, "_factor", lambda S: None)
    res = solve(dag_600, SolverConfig(max_iters=3))
    assert res.status is SolveStatus.LINSOLVE_FAILURE
    assert res.trace == []
    assert np.all(np.isfinite(res.x))


def dense_residuals(tape):
    """||(L + reg*I) p - b|| / ||b|| of each recorded step, with L
    assembled densely from A and x_prev."""
    A, b, c = tape.prep.source.operator.A.toarray(), tape.prep.source.b, tape.prep.c
    out = []
    for det in tape.steps:
        S = (A * (det.x_prev / c)) @ A.T + det.gram.reg * np.eye(len(b))
        out.append(np.linalg.norm(S @ det.p - b) / np.linalg.norm(b))
    return np.array(out)


def input_residuals(lp, res, tape):
    """||A x - b|| of each step's input: the residual of the initial
    iterate, then the trace residuals of all but the last iterate."""
    first = np.linalg.norm(lp.A @ tape.steps[0].x_prev - lp.b)
    return np.array([first] + [r.residual for r in res.trace[:-1]])


def test_cg_steps_meet_the_tolerance(dag_600):
    # every CG step meets its own target, forward_tol of the residual
    # of its input, and no looser one
    cfg = SolverConfig(max_iters=100, seed=7)
    res, tape = solve_with_tape(dag_600, cfg)
    assert all(det.gram.factor is None for det in tape.steps)
    tols = step_tols(res, tape)
    assert np.all(dense_residuals(tape) <= tols)
    ratio = np.minimum(1.0, input_residuals(dag_600, res, tape) / np.linalg.norm(dag_600.b))
    expected = np.maximum(cfg.linsolve_tol, solver.FORCING * ratio)
    assert tols == pytest.approx(expected, rel=1e-12, abs=0.0)
    # the targets follow the residual: loose from the random start,
    # tighter as the iterate becomes feasible
    assert tols[0] == solver.FORCING and tols[-1] < 1e-6


@pytest.mark.parametrize("seed", [7, 8])
def test_cg_steps_start_from_the_previous_steps_p(dag_600, seed):
    # each step's CG starts from the best multiple of the previous
    # step's p, and the first from zero, so solving a recorded iterate
    # again with that start, to its recorded target, gives the same p
    # after the same CG count
    cfg = SolverConfig(max_iters=30, seed=seed)
    res, tape = solve_with_tape(dag_600, cfg)
    op, b, c = tape.prep.source.operator, tape.prep.source.b, tape.prep.c
    starts = [None] + [det.p for det in tape.steps[:-1]]
    for det, record, tol, start in zip(tape.steps, res.trace, step_tols(res, tape), starts,
                                       strict=True):
        again = linalg.spd_solve(op.at(det.x_prev / c, det.gram.scale), b, tol, start)
        assert again.iterations == det.linsolve_iterations == record.linsolve_iterations
        assert np.array_equal(again.p, det.p)


@pytest.mark.parametrize("seed", [7, 8])
def test_the_previous_steps_p_cuts_forward_cg_iterations(dag_600, seed):
    # against solving each recorded gram again from zero, to the same
    # target: 0.53 of the count on seed 7 and 0.42 on seed 8
    res, tape = solve_with_tape(dag_600, SolverConfig(max_iters=100, seed=seed))
    op, b, c = tape.prep.source.operator, tape.prep.source.b, tape.prep.c
    cold = sum(linalg.spd_solve(op.at(det.x_prev / c, det.gram.scale), b, tol).iterations
               for det, tol in zip(tape.steps, step_tols(res, tape), strict=True))
    assert sum(det.linsolve_iterations for det in tape.steps) <= 0.7 * cold


@pytest.mark.parametrize("name", ["matching_5x50", "matching_50x100", "dag_600"])
def test_every_step_after_the_first_gets_the_previous_steps_p(name, request, monkeypatch):
    # on every route: spd_solve alone decides whether a solve reads the
    # start, and a factored one does not (see test_linalg's
    # test_a_factored_solve_ignores_the_start)
    lp = request.getfixturevalue(name)
    step, starts, steps = solver.step_detail, [], []

    def recording(prep, x, cfg, tol, start=None):
        starts.append(start)
        steps.append(step(prep, x, cfg, tol, start))
        return steps[-1]

    monkeypatch.setattr(solver, "step_detail", recording)
    solve(lp, SolverConfig(max_iters=100, seed=2), early_stop=False)
    assert len(starts) == 100 and starts[0] is None
    assert sum(start is det.p for start, det in zip(starts[1:], steps)) == 99


def test_forward_targets_stay_at_or_below_the_forcing_term(dag_600):
    # a start far from feasible gives the capped target FORCING < 1, so
    # the first steps still run CG and move
    cfg = SolverConfig(max_iters=20, seed=3)
    res, tape = solve_with_tape(dag_600, cfg, x0=np.full(dag_600.n, 1e3))
    tols = step_tols(res, tape)
    assert tols[0] == solver.FORCING
    assert np.all((cfg.linsolve_tol <= tols) & (tols <= solver.FORCING))
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


def test_solve_with_potentials_reports_the_lps_own_objective():
    # the working cost (3, 1) of pi = -2 has the optimum of c = (1, -1),
    # and the objective is c.x, not the working cost's
    lp = StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                        np.array([1.0, -1.0]), np.array([-2.0]))
    res = solve(lp, SolverConfig(max_iters=100))
    assert res.objective == pytest.approx(-1.0, abs=1e-3)
    assert res.x[1] == pytest.approx(1.0, abs=1e-3)


def test_solve_all_negative_costs():
    lp = StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                        np.array([-1.0, -1.0]), np.array([-2.0]))
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
    assert len(res.trace) == 5 and res.residual <= solver.RESIDUAL_TOL
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


def test_solve_agrees_with_highs_past_vertex_enumeration():
    # 5x40, 10x60 and 20x100 are beyond tests/vertex_oracle.py's 24 columns;
    # scipy's HiGHS gives the optimum f*.  Over 10 seeds the worst gap
    # (f - f*) / (1 + |f*|) read 1.2e-3 in 300 steps, with at most one
    # of 60 above 1e-3
    rng = np.random.default_rng(0)
    gaps, residuals = [], []
    for m, n in [(5, 40), (10, 60), (20, 100)] * 20:
        lp, _ = random_bounded_lp(rng, m, n)
        ref = scipy.optimize.linprog(lp.c, A_eq=lp.A, b_eq=lp.b, method="highs")
        assert ref.status == 0
        res = solve(lp, SolverConfig(max_iters=300))
        gaps.append((res.objective - ref.fun) / (1.0 + abs(ref.fun)))
        residuals.append(np.linalg.norm(lp.A @ res.x - lp.b) / (1.0 + np.linalg.norm(lp.b)))
    gaps = np.array(gaps)
    assert np.sum(gaps <= 1e-3) >= 58 and gaps.max() <= 1e-2
    assert gaps.min() >= -1e-6
    assert max(residuals) <= 1e-7


def test_iterates_stay_above_floor():
    prep = prepare_lp(toy_lp())
    cfg = SolverConfig()
    x = initial_state(prep, cfg)
    for _ in range(50):
        x = step_detail(prep, x, cfg, TOL).x_new
        assert x.min() >= solver.CLAMP_FLOOR


def test_a_zero_cost_lp_converges_at_the_default_gamma():
    # the zero cost runs as default_gamma(1, 2) = 0.2887
    lp = StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                        np.array([1.0, 0.0]))
    res = solve(lp, SolverConfig(max_iters=50))
    assert res.status == SolveStatus.CONVERGED
