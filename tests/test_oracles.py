"""Reference solvers: Hungarian, Dijkstra, and the tests' vertex
enumeration."""

import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from physlp import StandardFormLP
from physlp.errors import DimensionMismatch, NonFiniteEntry, Unreachable
from physlp.oracles import dijkstra, hungarian
from physlp.problems import (Graph, MatchingInstance, build_matching_lp,
                             build_shortest_path_lp)

from .conftest import random_bounded_lp
from .vertex_oracle import InfeasibleDetected, TooLarge, enumerate_vertices


# ----------------------------------------------------------- hungarian

def test_hungarian_diagonal_structure():
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = hungarian(C)
    assert np.array_equal(out.map, [0, 1]) and out.cost == 0.0
    out = hungarian(C[:, ::-1])
    assert np.array_equal(out.map, [1, 0]) and out.cost == 0.0


def test_hungarian_rectangular_leaves_columns_unmatched():
    C = np.array([[5.0, 1.0, 9.0]])
    out = hungarian(C)
    assert np.array_equal(out.map, [1]) and out.cost == 1.0


def test_hungarian_input_validation():
    with pytest.raises(DimensionMismatch):
        hungarian(np.ones(3))
    with pytest.raises(DimensionMismatch):
        hungarian(np.ones((3, 2)))
    with pytest.raises(NonFiniteEntry):
        hungarian(np.array([[np.inf, 1.0]]))


def test_hungarian_exhaustive_five_by_eight():
    # 8!/3! = 6720 injections, checked in full on one random instance
    rng = np.random.default_rng(17)
    C = rng.uniform(size=(5, 8))
    best = min(sum(C[i, p[i]] for i in range(5))
               for p in permutations(range(8), 5))
    assert hungarian(C).cost == pytest.approx(best, abs=1e-12)


def test_hungarian_never_beaten_by_random_injections():
    rng = np.random.default_rng(18)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        m = n + int(rng.integers(0, 5))
        C = rng.uniform(size=(n, m))
        ref = hungarian(C)
        assert len(np.unique(ref.map)) == n
        for _ in range(20):
            p = rng.permutation(m)[:n]
            assert ref.cost <= np.sum(C[np.arange(n), p]) + 1e-12


# ---------------------------------------------------------- enumerate

def toy_lp():
    return StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                          np.array([1.0, 2.0]))


def test_enumerate_toy_vertices():
    vs = enumerate_vertices(toy_lp())
    assert np.array_equal(vs.x_star, [1.0, 0.0])
    assert vs.objective == 1.0
    assert vs.second_best_objective == 2.0
    assert vs.unique
    assert vs.basis == (0,)


def test_enumerate_reports_degenerate_tie():
    lp = StandardFormLP(np.array([[1.0, 1.0]]), np.array([1.0]),
                        np.array([1.0, 1.0]))
    vs = enumerate_vertices(lp)
    assert vs.objective == 1.0
    assert not vs.unique


def test_enumerate_skips_singular_bases():
    lp = StandardFormLP(np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 3.0]]),
                        np.array([2.0, 3.0]), np.array([1.0, 1.0, 1.0]))
    vs = enumerate_vertices(lp)
    assert vs.skipped_singular >= 1
    assert np.array_equal(vs.x_star, [0.0, 0.0, 1.0])


def test_enumerate_matching_slack_cost_enters_once():
    # best assignment costs 0.4 and exactly one proposal stays
    # unmatched, so the LP optimum is 0.4 + gamma
    C = np.array([[0.2, 0.8, 0.5], [0.8, 0.2, 0.4]])
    for g in (0.1, 0.3):
        vs = enumerate_vertices(build_matching_lp(MatchingInstance(C, gamma=g)))
        assert vs.objective == pytest.approx(0.4 + g, abs=1e-12)
        assert vs.unique
        assert vs.second_best_objective == pytest.approx(0.6 + g, abs=1e-12)


def test_enumerate_one_by_one_matching():
    vs = enumerate_vertices(build_matching_lp(MatchingInstance(np.array([[5.0]]))))
    assert vs.objective == pytest.approx(5.0)
    assert np.array_equal(vs.x_star, [1.0, 0.0])


def test_enumerate_guards():
    rng = np.random.default_rng(19)
    with pytest.raises(TooLarge):
        enumerate_vertices(StandardFormLP(rng.uniform(size=(1, 25)),
                                          np.ones(1), np.ones(25)))
    with pytest.raises(TooLarge):
        # C(24, 12) = 2,704,156 bases
        enumerate_vertices(StandardFormLP(rng.uniform(size=(12, 24)),
                                          np.ones(12), np.ones(24)))


def test_enumerate_detects_infeasible():
    with pytest.raises(InfeasibleDetected):
        enumerate_vertices(StandardFormLP(np.array([[1.0, 1.0]]),
                                          np.array([-1.0]),
                                          np.array([1.0, 1.0])))
    with pytest.raises(InfeasibleDetected):
        enumerate_vertices(StandardFormLP(np.array([[1.0], [1.0]]),
                                          np.array([1.0, 2.0]),
                                          np.array([1.0])))


def test_enumerate_lower_bounds_feasible_points():
    rng = np.random.default_rng(20)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        lp, x_feas = random_bounded_lp(rng, m, m + int(rng.integers(1, 4)))
        vs = enumerate_vertices(lp)
        assert vs.objective <= float(lp.c @ x_feas) + 1e-9
        if vs.second_best_objective is not None:
            assert vs.second_best_objective >= vs.objective - 1e-12
            if vs.unique:
                assert vs.second_best_objective > vs.objective + 1e-9


def test_enumerate_agrees_with_hungarian_on_matchings():
    rng = np.random.default_rng(22)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        m = n + int(rng.integers(0, 3))
        C = rng.uniform(size=(n, m))
        gamma = 0.05
        vs = enumerate_vertices(build_matching_lp(MatchingInstance(C, gamma=gamma)))
        ref = hungarian(C)
        assert vs.objective == pytest.approx(ref.cost + gamma * (m - n),
                                             abs=1e-9)


# ------------------------------------------------------------ dijkstra

def all_simple_paths_min(graph, source, sink):
    """Brute-force reference: DFS over simple paths."""
    adj = [[] for _ in range(graph.num_nodes)]
    for t, h, w in graph.arcs:
        adj[t].append((h, w))
    best = [np.inf]

    def walk(v, seen, total):
        if v == sink:
            best[0] = min(best[0], total)
            return
        for nxt, w in adj[v]:
            if nxt not in seen:
                walk(nxt, seen | {nxt}, total + w)

    walk(source, {source}, 0.0)
    return best[0]


def test_dijkstra_single_arc():
    path, length = dijkstra(Graph(2, [(0, 1, 2.0)]), 0, 1)
    assert path == [0, 1] and length == 2.0


def test_dijkstra_prefers_cheap_two_hop():
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.5)])
    path, length = dijkstra(g, 0, 2)
    assert path == [0, 1, 2] and length == 2.0


def test_dijkstra_tie_goes_to_low_index():
    g = Graph(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
    path, length = dijkstra(g, 0, 3)
    assert length == 2.0 and path == [0, 1, 3]


def test_dijkstra_unreachable_and_validation():
    with pytest.raises(Unreachable):
        dijkstra(Graph(3, [(0, 1, 1.0)]), 0, 2)
    with pytest.raises(DimensionMismatch):
        dijkstra(Graph(3, [(0, 1, 1.0)]), 0, 9)
    with pytest.raises(ValueError):
        dijkstra(Graph(2, [(0, 1, 0.0)]), 0, 1)


@pytest.mark.parametrize("weight", [np.nan, np.inf])
def test_dijkstra_rejects_a_weight_that_is_not_finite(weight):
    # an inf weight once read as "cannot be reached", and NaN passed
    with pytest.raises(ValueError, match="positive finite"):
        dijkstra(Graph(3, [(0, 1, 1.0), (1, 2, weight)]), 0, 2)


@pytest.mark.parametrize("tail", [-1, 3])
def test_dijkstra_rejects_an_arc_outside_the_graph(tail):
    # -1 once aliased node 2: the path [0, 2, 1] of length 2
    with pytest.raises(DimensionMismatch):
        dijkstra(Graph(3, [(tail, 1, 1.0), (0, 2, 1.0), (2, 1, 1.0)]), 0, 1)


def test_dijkstra_matches_path_enumeration():
    rng = np.random.default_rng(23)
    done = 0
    while done < 20:
        N = int(rng.integers(3, 7))
        arcs = [(i, j, float(rng.uniform(0.1, 1.0)))
                for i in range(N) for j in range(N)
                if i != j and rng.uniform() < 0.4]
        g = Graph(N, arcs)
        ref = all_simple_paths_min(g, 0, N - 1)
        if not np.isfinite(ref):
            continue
        path, length = dijkstra(g, 0, N - 1)
        assert length == pytest.approx(ref, abs=1e-12)
        assert path[0] == 0 and path[-1] == N - 1
        hops = list(zip(path[:-1], path[1:]))
        arc_w = {(t, h): w for t, h, w in arcs}
        assert sum(arc_w[e] for e in hops) == pytest.approx(length, abs=1e-12)
        done += 1


def test_dijkstra_consistent_with_shortest_path_lp():
    g = Graph(5, [(0, 1, 0.3), (1, 2, 0.3), (2, 4, 0.3), (0, 3, 0.5),
                  (3, 4, 0.5), (0, 4, 1.2)])
    _, length = dijkstra(g, 0, 4)
    vs = enumerate_vertices(build_shortest_path_lp(g, 0, 4))
    assert vs.objective == pytest.approx(length, abs=1e-12)


def test_import_physlp_leaves_scipy_optimize_unloaded():
    # hungarian imports scipy.optimize on its first call
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = ("import sys, physlp\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "assert physlp.oracles.hungarian([[1.0]]).map.tolist() == [0]\n"
            "assert 'scipy.optimize' in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
