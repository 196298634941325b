"""Command-line front end.

Subcommands: solve an LP file, run the matching benchmark (its trials
in one loop in this process, in trial order), run the two-blob SVM
demo, learn a matching cost by gradient descent, and solve a
shortest-path instance against Dijkstra.

Exit codes, which main alone gives a fault: 0 success, 1 an OSError or
errors.InputError, 2 any other PhyslpError (a solver error), 3 finished
but below the command's quality threshold.

All reports are JSON with sorted keys, so identical flags and seed
give identical bytes; wall-clock fields in the benchmark report are
the only non-reproducible values.
"""

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from .core import SolverConfig, SolveStatus, load_lp
from .errors import InputError, PhyslpError
from .autodiff import backward, solve_with_tape
from .oracles import dijkstra, hungarian
from .problems import (GaussianKernel, Graph, LinearKernel, MatchingInstance,
                       SvmInstance, assignment_to_vector, build_l1svm_lp,
                       build_matching_lp, build_shortest_path_lp,
                       decode_matching, decode_svm, matching_cost_gradient,
                       split_matching_vars, two_gaussian_blobs)
from .solver import _iterate, initial_state, prepare_lp, solve

EXIT_OK = 0
EXIT_IO = 1
EXIT_SOLVER = 2
EXIT_THRESHOLD = 3


def _dump_json(obj, path=None):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------- solve

def cmd_solve(args):
    try:
        lp = load_lp(args.lp)
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(exc, EXIT_IO)
    cfg = SolverConfig(max_iters=args.iters, step_size=args.step, seed=args.seed)
    result = solve(lp, cfg)
    report = {
        "x": result.x.tolist(),
        "objective": result.objective,
        "residual": result.residual,
        "status": result.status.name,
        "trace": [dataclasses.asdict(r) for r in result.trace],
    }
    _dump_json(report, args.out)
    if result.status == SolveStatus.LINSOLVE_FAILURE:
        return _fail("linear solve failed during iteration", EXIT_SOLVER)
    return EXIT_OK


# ---------------------------------------------------------- match-bench

def _match_trial(index, seed_seq, n, m, budgets, cfg):
    """One trial: the error of the forward loop's iterate at each
    budget k, the x of solve(lp, cfg with max_iters=k, early_stop=False);
    time_sec includes the evaluation that loop makes after each step."""
    rng = np.random.default_rng(seed_seq)
    C = rng.uniform(size=(n, m))
    solver_seed = int(rng.integers(2 ** 63))
    lp = build_matching_lp(MatchingInstance(C))
    x_star = assignment_to_vector(hungarian(C).map, n, m)
    norm_star = float(np.linalg.norm(x_star))

    cfg = dataclasses.replace(cfg, seed=solver_seed)
    prep = prepare_lp(lp)
    y0 = initial_state(prep, cfg)
    records = []
    start = time.perf_counter()
    for k, (det, _, _) in enumerate(_iterate(prep, y0, cfg), 1):
        if k in budgets:
            err = float(np.linalg.norm(det.x_new - x_star)) / norm_star
            records.append({"trial": index, "seed": solver_seed, "iters": k,
                            "error": err,
                            "time_sec": time.perf_counter() - start})
    return records


def cmd_match_bench(args):
    if args.n < 1:
        return _fail(f"--n must be positive, got {args.n}", EXIT_IO)
    if args.n > args.m:
        return _fail(f"need n <= m, got n={args.n} m={args.m}", EXIT_IO)
    if args.trials < 1:
        return _fail(f"--trials must be at least 1, got {args.trials}", EXIT_IO)
    budgets = sorted(set(args.iters))
    if budgets[0] < 1:
        return _fail(f"every --iters budget must be at least 1, got {budgets[0]}", EXIT_IO)
    cfg = SolverConfig(max_iters=budgets[-1], step_size=args.step)
    children = np.random.SeedSequence(args.seed).spawn(args.trials)
    # in trial order, each trial's budgets ascending
    records = [rec for i, seed_seq in enumerate(children)
               for rec in _match_trial(i, seed_seq, args.n, args.m, budgets, cfg)]

    aggregates = []
    for k in budgets:
        rows = [r for r in records if r["iters"] == k]
        aggregates.append({
            "iters": k,
            "mean_error": float(np.mean([r["error"] for r in rows])),
            "mean_time_sec": float(np.mean([r["time_sec"] for r in rows])),
        })
    report = {
        "config": {"n": args.n, "m": args.m, "trials": args.trials,
                   "iters": budgets, "seed": args.seed, "step": args.step,
                   "error_metric": "norm(x - x_star) / norm(x_star)"},
        "records": records,
        "aggregates": aggregates,
    }
    if args.out:
        _dump_json(report, args.out)
    if args.csv:
        header = ["trial", "seed", "iters", "error", "time_sec"]
        lines = [",".join(header)]
        lines += [",".join(repr(r[k]) for k in header) for r in records]
        with open(args.csv, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    for agg in aggregates:
        print(f"iters={agg['iters']} mean_error={agg['mean_error']:.6f}")
    return EXIT_OK


# ------------------------------------------------------------- svm-demo

def cmd_svm_demo(args):
    rng = np.random.default_rng(args.seed)
    # the builders refuse a setting out of range or overflowing the LP
    points, labels = two_gaussian_blobs(args.n_per_class, args.dim, args.sep, rng)
    kernel = LinearKernel() if args.kernel == "linear" else GaussianKernel(args.sigma)
    inst = SvmInstance(points, labels, kernel, c_reg=args.c_reg, big_m=args.big_m)
    lp = build_l1svm_lp(inst)
    result = solve(lp, SolverConfig(max_iters=args.iters, seed=args.seed))
    clf = decode_svm(result.x, inst)
    accuracy = float(np.mean(clf.predict(points) == labels))
    report = {
        "accuracy": accuracy,
        "objective": result.objective,
        "residual": result.residual,
        "status": result.status.name,
        "variables": lp.n,
        "constraints": lp.m,
        "kernel": args.kernel,
        "c_reg": args.c_reg,
        "sep": args.sep,
        "seed": args.seed,
        "median_abs_decision": float(np.median(np.abs(clf.decision(points)))),
    }
    _dump_json(report, args.out)
    return EXIT_OK if accuracy >= 0.95 else EXIT_THRESHOLD


# ----------------------------------------------------------- learn-cost

def _parse_target(text):
    parts = [int(p) for p in text.split(",") if p.strip() != ""]
    if len(set(parts)) != len(parts):
        raise ValueError(f"target entries must be distinct: {text}")
    return parts


def cmd_learn_cost(args):
    if args.n < 1:
        return _fail(f"--n must be positive, got {args.n}", EXIT_IO)
    if not math.isfinite(args.lr):
        return _fail(f"--lr must be finite, got {args.lr}", EXIT_IO)
    if args.steps < 0:
        return _fail(f"--steps must be at least 0, got {args.steps}", EXIT_IO)
    target = args.target if args.target is not None else list(range(args.n))
    if len(target) != args.n or any(t < 0 or t >= args.m for t in target):
        return _fail(f"target must list {args.n} distinct columns below "
                     f"{args.m}, got {target}", EXIT_IO)
    n, m = args.n, args.m
    rng = np.random.default_rng(args.seed)
    C = rng.uniform(size=(n, m))
    cfg = SolverConfig(max_iters=args.inner_iters, step_size=args.inner_step)
    x0 = np.ones(n * m + m)
    grad_loss = np.zeros(n * m + m)
    for i, t in enumerate(target):
        grad_loss[i * m + t] = -1.0

    def soft_solve(C):
        """The relaxed matching at costs C, its tape and its loss."""
        result, tape = solve_with_tape(build_matching_lp(MatchingInstance(C)), cfg, x0=x0)
        X, _ = split_matching_vars(result.x, n, m)
        return result, tape, float(sum(1.0 - X[i, t] for i, t in enumerate(target)))

    losses = []
    for _ in range(args.steps):
        _, tape, loss = soft_solve(C)
        losses.append(loss)
        grads = backward(tape, grad_loss)
        C = C - args.lr * matching_cost_gradient(grads.grad_c, n, m)

    result, _, final_loss = soft_solve(C)
    decoded = decode_matching(result.x, n, m).map.tolist()
    recovered = decoded == list(target)
    report = {
        "target": list(target),
        "decoded": decoded,
        "recovered": recovered,
        "initial_loss": losses[0] if losses else final_loss,
        "final_loss": final_loss,
        "losses": losses,
        "lr": args.lr,
        "steps": args.steps,
        "seed": args.seed,
    }
    _dump_json(report, args.out)
    return EXIT_OK if recovered else EXIT_THRESHOLD


# -------------------------------------------------------- shortest-path

def cmd_shortest_path(args):
    try:
        with open(args.graph) as fh:
            graph = Graph.from_dict(json.load(fh))
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(exc, EXIT_IO)
    path, length = dijkstra(graph, args.source, args.sink)
    lp = build_shortest_path_lp(graph, args.source, args.sink)
    result = solve(lp, SolverConfig(max_iters=args.iters, seed=args.seed))
    gap = abs(result.objective - length) / (1.0 + length)
    report = {
        "pd_objective": result.objective,
        "dijkstra_length": length,
        "dijkstra_path": list(path),
        "relative_gap": gap,
        "within_tolerance": gap <= 1e-3,
        "status": result.status.name,
    }
    _dump_json(report, args.out)
    print(f"pd={result.objective:.6f} dijkstra={length:.6f}")
    return EXIT_OK if gap <= 1e-3 else EXIT_THRESHOLD


# --------------------------------------------------------------- parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="physlp",
        description="Physarum-dynamics LP solver and demos")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a JSON LP file")
    p.add_argument("--lp", required=True, help="input LP JSON file")
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="result JSON (default stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("match-bench",
                       help="random-matching accuracy benchmark")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--iters", type=int, nargs="+", default=[10, 50, 100])
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="report JSON file")
    p.add_argument("--csv", default=None, help="also write flat CSV rows")
    p.set_defaults(func=cmd_match_bench)

    p = sub.add_parser("svm-demo", help="two-Gaussian-blob SVM demo")
    p.add_argument("--n-per-class", type=int, default=10)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--sep", type=float, default=2.0)
    p.add_argument("--kernel", choices=["linear", "gaussian"],
                   default="gaussian")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--c-reg", type=float, default=2.0,
                   help="slack penalty; at 1.0 the trivial all-slack point "
                        "ties the separating optimum")
    p.add_argument("--big-m", type=float, default=0.001)
    p.add_argument("--iters", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_svm_demo)

    p = sub.add_parser("learn-cost",
                       help="recover a target assignment by gradient descent")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--target", type=_parse_target, default=None,
                   help="comma-separated columns, default 0,1,...,n-1")
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inner-iters", type=int, default=12,
                   help="solver iterations per descent step; small keeps "
                        "the relaxation soft enough to carry gradients")
    p.add_argument("--inner-step", type=float, default=0.3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_learn_cost)

    p = sub.add_parser("shortest-path",
                       help="solve a graph file and compare with Dijkstra")
    p.add_argument("--graph", required=True,
                   help='JSON {"nodes": N, "arcs": [[tail, head, w], ...]}')
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--sink", type=int, required=True)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_shortest_path)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # 0 after --help; 2, the solver-error code, on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_IO
    # match-bench, svm-demo and learn-cost draw from the seed before
    # they build a SolverConfig, which would reject it
    if args.seed < 0:
        return _fail(f"--seed must be at least 0, got {args.seed}", EXIT_IO)
    try:
        return args.func(args)
    except (OSError, InputError) as exc:  # an unwritable --out or --csv, a fault of the input
        return _fail(exc, EXIT_IO)
    except PhyslpError as exc:
        return _fail(exc, EXIT_SOLVER)


if __name__ == "__main__":
    sys.exit(main())
