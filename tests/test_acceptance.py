"""Acceptance gate: the eight headline behaviors, one test each.

Run with -s to see the measured numbers behind each pass/fail line:

    pytest tests/test_acceptance.py -v -s
"""

import json
import time
from itertools import permutations

import numpy as np

from physlp import SolverConfig, backward, jvp, solve, solve_with_tape
from physlp.cli import main as cli_main
from physlp.errors import Unreachable
from physlp.oracles import dijkstra, hungarian
from physlp.problems import (Graph, MatchingInstance, build_matching_lp,
                             build_shortest_path_lp, decode_matching,
                             matching_slack_gamma)

from .conftest import clamp_fired, matching_feasible_point, random_bounded_lp
from .vertex_oracle import enumerate_vertices


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, detail


# 1 ------------------------------------------------------------------

def test_criterion_1_matching_benchmark_error_bands(tmp_path, capsys):
    out = tmp_path / "bench.json"
    start = time.perf_counter()
    rc = cli_main(["match-bench", "--n", "5", "--m", "50", "--trials", "100",
                   "--iters", "10", "50", "100", "--seed", "0",
                   "--out", str(out)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert rc == 0
    aggs = {a["iters"]: a["mean_error"]
            for a in json.loads(out.read_text())["aggregates"]}
    ok = (0.2 <= aggs[10] <= 0.55 and aggs[50] <= 0.20 and aggs[100] <= 0.12
          and aggs[10] >= aggs[50] >= aggs[100] and elapsed < 60.0)
    with capsys.disabled():
        report("criterion 1 benchmark bands",
               ok, f"mean error {aggs[10]:.3f}/{aggs[50]:.3f}/{aggs[100]:.3f} "
                   f"at 10/50/100 iters in {elapsed:.1f}s")


# 2 ------------------------------------------------------------------

def test_criterion_2_oracle_equivalence_on_small_lps(capsys):
    rng = np.random.default_rng(2024)
    hits = 0
    feas_ok = True
    for _ in range(200):
        m = int(rng.integers(1, 5))
        n = m + int(rng.integers(1, 9 - m))
        lp, _ = random_bounded_lp(rng, m, n)
        ref = enumerate_vertices(lp)
        res = solve(lp, SolverConfig(max_iters=300,
                                     seed=int(rng.integers(2 ** 63))))
        gap = res.objective - ref.objective
        if gap <= 1e-3 * (1.0 + abs(ref.objective)):
            hits += 1
            feas_ok &= res.residual <= 1e-6
    ok = hits >= 195 and feas_ok
    with capsys.disabled():
        report("criterion 2 vertex-oracle agreement",
               ok, f"{hits}/200 within 1e-3 gap, residuals <= 1e-6: {feas_ok}")


# 3 & 4 ---------------------------------------------------------------

def _unique_gap_instances(count=50, n=3, m=8, min_gap=0.05, seed=7):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        C = rng.uniform(size=(n, m))
        costs = sorted(sum(C[i, p[i]] for i in range(n))
                       for p in permutations(range(m), n))
        if costs[1] - costs[0] >= min_gap:
            out.append(C)
    return out


def _decode_with(C, gamma, x0=None, iters=150):
    lp = build_matching_lp(MatchingInstance(C, gamma=gamma))
    res = solve(lp, SolverConfig(max_iters=iters), x0=x0)
    return decode_matching(res.x, *C.shape).map


def test_criterion_3_perturbation_invariance(capsys):
    instances = _unique_gap_instances()
    g0 = matching_slack_gamma(8)
    same_gamma = 0
    match_hungarian = 0
    for C in instances:
        full = _decode_with(C, g0)
        half = _decode_with(C, g0 / 2.0)
        if np.array_equal(full, half):
            same_gamma += 1
        if np.array_equal(full, hungarian(C).map):
            match_hungarian += 1
    ok = same_gamma == 50 and match_hungarian >= 48
    with capsys.disabled():
        report("criterion 3 gamma invariance",
               ok, f"{same_gamma}/50 identical at gamma vs gamma/2, "
                   f"{match_hungarian}/50 equal Hungarian")


def test_criterion_4_start_invariance(capsys):
    instances = _unique_gap_instances()
    g0 = matching_slack_gamma(8)
    same = 0
    for C in instances:
        n, m = C.shape
        from_ones = _decode_with(C, g0, x0=np.ones(n * m + m))
        from_interior = _decode_with(C, g0, x0=matching_feasible_point(n, m))
        if np.array_equal(from_ones, from_interior):
            same += 1
    ok = same >= 48
    with capsys.disabled():
        report("criterion 4 start invariance",
               ok, f"{same}/50 identical decodes from infeasible vs "
                   f"interior starts")


# 5 ------------------------------------------------------------------

def test_criterion_5_gradient_correctness(capsys):
    from physlp import finite_diff_grad

    rng = np.random.default_rng(5)
    start = time.perf_counter()
    checked = 0
    worst_fd = 0.0
    worst_dot = 0.0
    while checked < 20:
        m = int(rng.integers(1, 6))
        n = m + int(rng.integers(1, 11 - m))
        lp, _ = random_bounded_lp(rng, m, n)
        k = int(rng.integers(3, 21))
        cfg = SolverConfig(max_iters=k, seed=int(rng.integers(2 ** 31)))
        _, tape = solve_with_tape(lp, cfg)
        if clamp_fired(tape):
            continue
        w = rng.normal(size=n)
        grads = backward(tape, w)
        fd = finite_diff_grad(lp, cfg, lambda x: float(w @ x))
        gmax = max(np.abs(fd.grad_c).max(), np.abs(fd.grad_A).max(),
                   np.abs(fd.grad_b).max(), 1e-4)
        for got, ref in ((grads.grad_c, fd.grad_c), (grads.grad_A, fd.grad_A),
                         (grads.grad_b, fd.grad_b)):
            denom = max(np.abs(got).max(), np.abs(ref).max(), 1e-4 * gmax)
            worst_fd = max(worst_fd, np.abs(got - ref).max() / denom)

        dc = rng.normal(size=n)
        dA = rng.normal(size=(m, n))
        db = rng.normal(size=m)
        lhs = float(w @ jvp(tape, dc=dc, dA=dA, db=db))
        rhs = float(grads.grad_c @ dc + (grads.grad_A * dA).sum()
                    + grads.grad_b @ db)
        worst_dot = max(worst_dot,
                        abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst_fd <= 1e-4 and worst_dot <= 1e-8 and elapsed < 30.0
    with capsys.disabled():
        report("criterion 5 gradient checks",
               ok, f"{checked} instances, max FD rel err {worst_fd:.2e}, "
                   f"max dot-test err {worst_dot:.2e}, {elapsed:.1f}s")


# 6 ------------------------------------------------------------------

def test_criterion_6_learned_cost_recovers_assignment(capsys):
    wins = 0
    for seed in range(10):
        rc = cli_main(["learn-cost", "--n", "3", "--m", "5", "--steps", "200",
                       "--seed", str(seed), "--out", "/dev/null"])
        wins += rc == 0
    capsys.readouterr()
    ok = wins >= 9
    with capsys.disabled():
        report("criterion 6 cost learning", ok, f"{wins}/10 seeds recovered")


# 7 ------------------------------------------------------------------

def test_criterion_7_svm_structure_and_accuracy(tmp_path, capsys):
    from physlp.problems import SvmInstance, build_l1svm_lp, two_gaussian_blobs

    pts, lab = two_gaussian_blobs(5, 4, 2.0, np.random.default_rng(0))
    lp = build_l1svm_lp(SvmInstance(pts, lab))
    structural = (lp.n, lp.m) == (92, 40)

    wins = 0
    for seed in range(10):
        rc = cli_main(["svm-demo", "--sep", "2.0", "--seed", str(seed),
                       "--out", str(tmp_path / f"svm{seed}.json")])
        wins += rc == 0
    capsys.readouterr()
    ok = structural and wins >= 9
    with capsys.disabled():
        report("criterion 7 svm demo",
               ok, f"92/40 structure: {structural}, {wins}/10 seeds at "
                   f">= 0.95 accuracy")


# 8 ------------------------------------------------------------------

def test_criterion_8_shortest_path_agreement(capsys):
    rng = np.random.default_rng(0)
    hits = 0
    worst = 0.0
    for _ in range(50):
        while True:
            arcs = [(i, j, float(rng.uniform(0.01, 1.0)))
                    for i in range(8) for j in range(i + 1, 8)
                    if rng.uniform() < 0.45]
            g = Graph(8, arcs)
            try:
                _, length = dijkstra(g, 0, 7)
                break
            except Unreachable:
                continue
        lp = build_shortest_path_lp(g, 0, 7)
        res = solve(lp, SolverConfig(max_iters=500))
        gap = abs(res.objective - length) / (1.0 + length)
        worst = max(worst, gap)
        hits += gap <= 1e-3
    ok = hits == 50
    with capsys.disabled():
        report("criterion 8 shortest path",
               ok, f"{hits}/50 DAGs within 1e-3 of Dijkstra "
                   f"(worst gap {worst:.2e})")
