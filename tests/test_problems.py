"""Problem builders, decoders, and generators."""

import os
import tracemalloc

import numpy as np
import pytest

from physlp import (SolverConfig, StandardFormLP, backward, feasibility_residual, jvp,
                    linalg, prepare_lp, problems, solve, solve_with_tape)
from physlp.cli import main
from physlp.errors import (DimensionMismatch, EmptyClass, NonFiniteEntry,
                           Unreachable)
from physlp.oracles import dijkstra, enumerate_vertices, hungarian
from physlp.problems import (Assignment, GaussianKernel, Graph, LinearKernel,
                             MatchingInstance, SvmInstance,
                             assignment_to_vector, build_l1svm_lp,
                             build_matching_lp, build_shortest_path_lp,
                             decode_matching, decode_svm, fit_svm,
                             matching_cost_gradient,
                             matching_feasible_point, matching_slack_gamma,
                             pairwise_multiclass, random_bounded_lp,
                             split_matching_vars, svm_feasible_point,
                             two_gaussian_blobs)


# ------------------------------------------------------------ matching

def test_matching_lp_dimensions():
    lp = build_matching_lp(MatchingInstance(np.zeros((2, 3)) + 1.0))
    assert (lp.n, lp.m) == (9, 5)
    lp = build_matching_lp(MatchingInstance(np.ones((5, 50))))
    assert (lp.n, lp.m) == (300, 55)


def test_matching_lp_cost_layout():
    C = np.array([[0.2, 0.8, 0.5], [0.8, 0.2, 0.4]])
    lp = build_matching_lp(MatchingInstance(C))
    assert np.array_equal(lp.c[:6], C.ravel())
    assert np.allclose(lp.c[6:], matching_slack_gamma(3))
    lp2 = build_matching_lp(MatchingInstance(C, gamma=0.01))
    assert np.allclose(lp2.c[6:], 0.01)
    assert lp.box_bound == 1.0


def test_matching_lp_row_structure():
    lp = build_matching_lp(MatchingInstance(np.ones((2, 3))))
    # agent rows: each X row sums to 1, slacks unused
    assert np.array_equal(lp.A[0], [1, 1, 1, 0, 0, 0, 0, 0, 0])
    assert np.array_equal(lp.A[1], [0, 0, 0, 1, 1, 1, 0, 0, 0])
    # task rows: column sum plus own slack
    assert np.array_equal(lp.A[2], [1, 0, 0, 1, 0, 0, 1, 0, 0])
    assert np.array_equal(lp.A[4], [0, 0, 1, 0, 0, 1, 0, 0, 1])
    assert np.array_equal(lp.b, np.ones(5))


def test_matching_lp_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        build_matching_lp(MatchingInstance(np.ones(4)))
    with pytest.raises(DimensionMismatch):
        build_matching_lp(MatchingInstance(np.ones((3, 2))))
    with pytest.raises(NonFiniteEntry):
        build_matching_lp(MatchingInstance(np.array([[1.0, np.nan]])))


def loop_built_matching_lp(C, gamma=None):
    """The assignment LP as build_matching_lp made it before it shared
    operators: a new dense A per call, filled row by row."""
    n, m = C.shape
    gamma = matching_slack_gamma(m) if gamma is None else gamma
    A = np.zeros((n + m, n * m + m))
    for i in range(n):
        A[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        A[n + j, j:n * m:m] = 1.0
        A[n + j, n * m + j] = 1.0
    c = np.concatenate([C.ravel(), np.full(m, gamma)])
    return StandardFormLP(A, np.ones(n + m), c, box_bound=1.0)


def bits(arr):
    return arr.dtype, arr.shape, arr.tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (5, 50), (30, 30), (50, 100)])
def test_matching_lp_is_the_loop_built_one_bit_for_bit(shape):
    C = np.random.default_rng(4).uniform(size=shape)
    lp, want = build_matching_lp(MatchingInstance(C)), loop_built_matching_lp(C)
    for name in ("A", "b", "c"):
        assert bits(getattr(lp, name)) == bits(getattr(want, name))
    assert lp.box_bound == want.box_bound


def test_matching_lps_of_one_shape_share_their_operator():
    rng = np.random.default_rng(5)
    first = build_matching_lp(MatchingInstance(rng.uniform(size=(5, 50))))
    second = build_matching_lp(MatchingInstance(rng.uniform(size=(5, 50)), gamma=0.3))
    assert first.operator is second.operator
    assert not np.shares_memory(first.A, second.A)
    with pytest.raises(ValueError, match="read-only"):
        first.operator.A.data[0] = 2.0
    for shape in ((5, 51), (6, 50), (50, 50)):
        other = build_matching_lp(MatchingInstance(np.ones(shape)))
        assert other.operator is not first.operator


def test_a_matching_lp_allocates_one_dense_A():
    # from_operator keeps op.A.toarray() as the LP's A: no second copy
    C = np.random.default_rng(9).uniform(size=(50, 100))
    build_matching_lp(MatchingInstance(C))  # caches the shape's operator
    tracemalloc.start()
    try:
        lp = build_matching_lp(MatchingInstance(C))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lp.A.nbytes > 6e6 and peak < 1.5 * lp.A.nbytes


@pytest.mark.parametrize("shape", [(5, 50), (30, 30), (50, 100)])
def test_a_shared_operator_solves_as_an_own_one_bit_for_bit(shape):
    """Solves, tapes, gradients and tangents of a matching LP are the
    same bits whether its operator is shared or built for it alone."""
    rng = np.random.default_rng(6)
    lp = build_matching_lp(MatchingInstance(rng.uniform(size=shape)))
    own = StandardFormLP(lp.A.copy(), lp.b, lp.c, box_bound=lp.box_bound)
    assert own.operator is not lp.operator
    cfg = SolverConfig(max_iters=20, seed=3)

    got, want = solve(lp, cfg), solve(own, cfg)
    assert bits(got.x) == bits(want.x) and got.objective == want.objective
    assert got.trace == want.trace and got.status == want.status

    (got, tape), (want, own_tape) = solve_with_tape(lp, cfg), solve_with_tape(own, cfg)
    assert bits(got.x) == bits(want.x) and got.trace == want.trace
    for det, own_det in zip(tape.steps, own_tape.steps, strict=True):
        assert bits(det.p) == bits(own_det.p) and bits(det.x_new) == bits(own_det.x_new)

    g = rng.standard_normal(lp.n)
    grads, own_grads = backward(tape, g), backward(own_tape, g)
    for name in ("grad_c", "grad_A", "grad_b"):
        assert bits(getattr(grads, name)) == bits(getattr(own_grads, name))

    dc, db = rng.standard_normal(lp.n), rng.standard_normal(lp.m)
    dA = (lp.A != 0) * rng.standard_normal(lp.A.shape)
    for pert in (dict(dc=dc, db=db), dict(dc=dc, dA=dA, db=db)):
        assert bits(jvp(tape, **pert)) == bits(jvp(own_tape, **pert))


def test_a_negative_gamma_flips_onto_an_operator_of_its_own():
    C = np.random.default_rng(7).uniform(size=(5, 50))
    lp = build_matching_lp(MatchingInstance(C, gamma=-0.1))
    shared = build_matching_lp(MatchingInstance(C)).operator
    assert lp.operator is shared
    prep = prepare_lp(lp)
    assert prep.flip_mask.any() and prep.op is not shared
    assert np.array_equal(prep.op.A.toarray(), lp.A * prep.sign)
    assert np.array_equal(shared.A.toarray(), lp.A)


def test_one_matching_shape_builds_its_gram_pattern_once(monkeypatch):
    """A regression guard: LPs of one assignment shape share the Gram
    map, so neither repeated builds and solves nor a cost-learning run
    build it again for the assignment matrix.  A solve whose costs went
    negative flips columns onto an operator of its own, A sign, whose
    entries of -1 tell its builds apart."""
    calls = []
    build = linalg._build_pattern

    def counted(C):
        calls.append("flipped" if (C.data < 0).any() else "shared")
        return build(C)

    monkeypatch.setattr(linalg, "_build_pattern", counted)
    problems._matching_operator.cache_clear()
    rng = np.random.default_rng(8)
    for _ in range(5):
        solve(build_matching_lp(MatchingInstance(rng.uniform(size=(5, 50)))),
              SolverConfig(max_iters=3))
    assert calls == ["shared"]

    calls.clear()
    problems._matching_operator.cache_clear()
    assert main(["learn-cost", "--steps", "3", "--out", os.devnull]) in (0, 3)
    # the descent drives some costs below zero after its first step, and
    # each solve from there on builds the pattern of its flipped operator,
    # so only the first solve of this run reads the shared one
    assert calls.count("shared") == 1


def test_matching_feasible_witness():
    for n, m in ((1, 1), (2, 3), (5, 50)):
        lp = build_matching_lp(MatchingInstance(np.ones((n, m))))
        assert feasibility_residual(lp, matching_feasible_point(n, m)) <= 1e-9


def test_matching_one_by_one_solves_exactly():
    lp = build_matching_lp(MatchingInstance(np.array([[5.0]])))
    res = solve(lp, SolverConfig(max_iters=100))
    assert res.objective == pytest.approx(5.0, abs=1e-6)
    assert res.x[0] == pytest.approx(1.0, abs=1e-6)


def test_split_and_gradient_views():
    x = np.arange(9.0)
    X, s = split_matching_vars(x, 2, 3)
    assert np.array_equal(X, [[0, 1, 2], [3, 4, 5]])
    assert np.array_equal(s, [6, 7, 8])
    assert np.array_equal(matching_cost_gradient(x, 2, 3), X)
    with pytest.raises(DimensionMismatch):
        split_matching_vars(x, 2, 4)


def test_decode_matching_dominant_entries():
    x = assignment_to_vector([2, 0], 2, 3)
    out = decode_matching(x, 2, 3, C=np.array([[1.0, 2, 3], [4, 5, 6]]))
    assert np.array_equal(out.map, [2, 0])
    assert out.cost == pytest.approx(7.0)


def test_decode_matching_breaks_ties_low_index():
    x = np.concatenate([np.full(4, 0.5), np.zeros(2)])
    out = decode_matching(x, 2, 2)
    assert np.array_equal(out.map, [0, 1])
    assert out.cost is None


def test_decode_agrees_with_hungarian_after_solve():
    rng = np.random.default_rng(21)
    for _ in range(5):
        C = rng.uniform(size=(3, 5))
        lp = build_matching_lp(MatchingInstance(C))
        res = solve(lp, SolverConfig(max_iters=150))
        got = decode_matching(res.x, 3, 5, C=C)
        ref = hungarian(C)
        assert got.cost == pytest.approx(ref.cost, abs=1e-9)


def test_assignment_vector_roundtrip():
    vec = assignment_to_vector([1, 3], 2, 4)
    assert vec.shape == (12,)
    X, s = split_matching_vars(vec, 2, 4)
    assert X.sum() == 2.0 and np.array_equal(s, [1, 0, 1, 0])
    assert np.array_equal(decode_matching(vec, 2, 4).map, [1, 3])
    with pytest.raises(DimensionMismatch):
        assignment_to_vector([0, 0], 2, 4)  # duplicate task


# ----------------------------------------------------------------- svm

def test_kernel_values():
    X = np.array([[1.0, 0.0], [0.0, 2.0]])
    lin = LinearKernel().gram(X, X)
    assert np.array_equal(lin, X @ X.T)
    g = GaussianKernel(sigma=1.0).gram(X, X)
    assert np.allclose(np.diag(g), 1.0)
    assert g[0, 1] == pytest.approx(np.exp(-5.0 / 2.0))
    assert np.allclose(g, g.T)


def test_svm_lp_dimensions():
    pts, lab = two_gaussian_blobs(5, 4, 2.0, np.random.default_rng(0))
    lp = build_l1svm_lp(SvmInstance(pts, lab))
    assert (lp.n, lp.m) == (92, 40)
    lp2 = build_l1svm_lp(SvmInstance(np.array([[1.0], [-1.0]]),
                                     np.array([1.0, -1.0])))
    assert (lp2.n, lp2.m) == (20, 8)


def test_svm_cost_pattern():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
    lab = np.array([1.0, -1.0])
    lp = build_l1svm_lp(SvmInstance(pts, lab, c_reg=3.0))
    n = 2
    c = lp.c
    assert np.array_equal(c[2 * n:3 * n], [1.0, 1.0])          # s
    assert np.array_equal(c[3 * n + 2:4 * n + 2], [3.0, 3.0])  # xi
    assert np.array_equal(c[4 * n + 2:5 * n + 2], [6.0, 6.0])  # z
    assert c[:2 * n].sum() == 0.0 and c[5 * n + 2:].sum() == 0.0


def test_svm_feasible_witness():
    for n_per in (1, 5):
        pts, lab = two_gaussian_blobs(n_per, 3, 1.0, np.random.default_rng(1))
        lp = build_l1svm_lp(SvmInstance(pts, lab))
        assert feasibility_residual(lp, svm_feasible_point(2 * n_per)) <= 1e-10


def test_svm_input_validation():
    pts = np.array([[1.0], [2.0]])
    with pytest.raises(DimensionMismatch):
        build_l1svm_lp(SvmInstance(pts, np.array([1.0, 2.0])))  # bad labels
    with pytest.raises(DimensionMismatch):
        build_l1svm_lp(SvmInstance(pts, np.array([1.0])))
    with pytest.raises(ValueError):
        build_l1svm_lp(SvmInstance(pts, np.array([1.0, -1.0]), c_reg=0.0))


def test_two_point_separator_is_a_tied_optimum():
    # one +1 at (1,0) and one -1 at (-1,0): the unit-margin separator
    # and the all-slack point both cost 2, and vertex enumeration
    # reports the tie while returning the separator
    pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
    lab = np.array([1.0, -1.0])
    inst = SvmInstance(pts, lab, LinearKernel(), c_reg=1.0)
    vs = enumerate_vertices(build_l1svm_lp(inst))
    assert vs.objective == pytest.approx(2.0, abs=1e-9)
    assert not vs.unique
    clf = decode_svm(vs.x_star, inst)
    assert np.allclose(clf.decision(pts), [1.0, -1.0], atol=1e-9)


def test_two_point_solver_separates_when_slack_costs_more():
    # raising the hinge weight to 2 breaks the tie in the separator's
    # favor and the dynamics land on it
    pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
    lab = np.array([1.0, -1.0])
    clf, res = fit_svm(SvmInstance(pts, lab, LinearKernel(), c_reg=2.0))
    assert res.objective == pytest.approx(2.0, abs=1e-4)
    d = clf.decision(pts)
    assert d[0] == pytest.approx(1.0, abs=1e-3)
    assert d[1] == pytest.approx(-1.0, abs=1e-3)
    assert np.array_equal(clf.predict(pts), lab)


def test_decode_svm_cancels_split_variables():
    pts = np.array([[1.0], [-1.0]])
    lab = np.array([1.0, -1.0])
    inst = SvmInstance(pts, lab)
    x = np.zeros(20)
    x[0:2] = [0.7, 0.3]   # a1
    x[2:4] = [0.7, 0.1]   # a2
    x[6] = 0.5            # b1
    x[7] = 0.5            # b2
    clf = decode_svm(x, inst)
    assert np.allclose(clf.alpha, [0.0, 0.2])
    assert clf.bias == 0.0
    with pytest.raises(DimensionMismatch):
        decode_svm(np.zeros(19), inst)


def test_pairwise_instance_counts():
    pts = np.arange(10.0).reshape(5, 2)
    assert len(pairwise_multiclass(pts, np.array([0, 0, 1, 1, 1])).instances) == 1
    five = pairwise_multiclass(np.arange(20.0).reshape(10, 2),
                               np.arange(10) % 5)
    assert len(five.instances) == 10
    assert five.pairs[0] == (0, 1) and five.pairs[-1] == (3, 4)
    with pytest.raises(EmptyClass):
        pairwise_multiclass(pts, np.zeros(5))


def test_pairwise_three_class_vote():
    rng = np.random.default_rng(0)
    centers = np.array([[4.0, 0.0], [-4.0, 0.0], [0.0, 4.0]])
    pts = np.vstack([rng.normal(size=(6, 2)) + mu for mu in centers])
    lab = np.repeat([0, 1, 2], 6)
    ens = pairwise_multiclass(pts, lab, kernel=GaussianKernel(2.0), c_reg=2.0)
    pred = ens.predict(ens.fit(), pts)
    assert (pred == lab).mean() >= 0.95


def test_two_gaussian_blobs_shape_and_centers():
    rng = np.random.default_rng(3)
    pts, lab = two_gaussian_blobs(200, 4, 6.0, rng)
    assert pts.shape == (400, 4) and lab.shape == (400,)
    assert np.array_equal(np.unique(lab), [-1.0, 1.0])
    mu = 6.0 / 2.0  # sep / sqrt(dim)
    assert np.allclose(pts[lab == 1].mean(axis=0), mu, atol=0.3)
    assert np.allclose(pts[lab == -1].mean(axis=0), -mu, atol=0.3)


# -------------------------------------------------------- shortest path

def test_graph_dict_roundtrip():
    g = Graph(3, [(0, 1, 1.0), (1, 2, 0.5)])
    back = Graph.from_dict(g.to_dict())
    assert back.num_nodes == 3 and back.arcs == [(0, 1, 1.0), (1, 2, 0.5)]


def test_single_arc_lp():
    lp = build_shortest_path_lp(Graph(2, [(0, 1, 2.0)]), 0, 1)
    assert np.array_equal(lp.A, [[-1.0]])
    assert np.array_equal(lp.b, [-1.0])
    assert np.array_equal(lp.c, [2.0])
    res = solve(lp, SolverConfig(max_iters=100))
    assert res.objective == pytest.approx(2.0, abs=1e-6)


def test_triangle_picks_two_hop_route():
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.5)])
    lp = build_shortest_path_lp(g, 0, 2)
    # source row dropped: rows are nodes 1 and 2
    assert np.array_equal(lp.A, [[-1.0, 1.0, 0.0], [0.0, -1.0, -1.0]])
    assert np.array_equal(lp.b, [0.0, -1.0])
    res = solve(lp, SolverConfig(max_iters=300))
    path, length = dijkstra(g, 0, 2)
    assert path == [0, 1, 2] and length == 2.0
    assert res.objective == pytest.approx(length, abs=1e-6)
    assert np.allclose(res.x, [1.0, 1.0, 0.0], atol=1e-6)


def test_isolated_node_row_dropped():
    lp = build_shortest_path_lp(Graph(4, [(0, 1, 1.0), (1, 2, 1.0)]), 0, 2)
    assert lp.m == 2  # node 3 untouched, node 0 is the source


def test_shortest_path_input_errors():
    g = Graph(3, [(0, 1, 1.0)])
    with pytest.raises(Unreachable):
        build_shortest_path_lp(g, 0, 2)
    with pytest.raises(ValueError):
        build_shortest_path_lp(g, 1, 1)
    with pytest.raises(DimensionMismatch):
        build_shortest_path_lp(g, 0, 5)
    with pytest.raises(ValueError):
        build_shortest_path_lp(Graph(2, [(0, 1, -1.0)]), 0, 1)
    with pytest.raises(DimensionMismatch):
        build_shortest_path_lp(Graph(2, [(0, 7, 1.0)]), 0, 1)


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf, 0.0])
def test_shortest_path_rejects_a_weight_that_is_not_positive_and_finite(weight):
    with pytest.raises(ValueError, match="positive finite weight"):
        build_shortest_path_lp(Graph(3, [(0, 1, 1.0), (1, 2, weight)]), 0, 2)


def test_lp_optimum_matches_dijkstra_on_random_dags():
    rng = np.random.default_rng(30)
    for _ in range(5):
        N = 6
        arcs = [(i, j, float(rng.uniform(0.1, 1.0)))
                for i in range(N) for j in range(i + 1, N)
                if rng.uniform() < 0.6]
        g = Graph(N, arcs)
        try:
            _, length = dijkstra(g, 0, N - 1)
        except Unreachable:
            continue
        vs = enumerate_vertices(build_shortest_path_lp(g, 0, N - 1))
        assert vs.objective == pytest.approx(length, abs=1e-9)


# ------------------------------------------------------------ generator

def test_random_bounded_lp_witness():
    rng = np.random.default_rng(40)
    for _ in range(10):
        lp, x_feas = random_bounded_lp(rng, 3, 7)
        assert feasibility_residual(lp, x_feas) <= 1e-12
        assert (lp.A > 0).all() and (lp.c > 0).all() and (x_feas > 0).all()
    with pytest.raises(DimensionMismatch):
        random_bounded_lp(rng, 4, 4)
