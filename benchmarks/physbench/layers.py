"""Layer boundaries the traced run wraps, and the per-layer metrics.

The layers are physlp's modules: core, problems, solver, linalg,
autodiff and oracles.  errors only holds exception classes; cli is not
measured because its match-bench loop calls the same step function the
solver metrics time on match-small.

PER_LAYER is the layer -> metric map: each metric with its unit, which
direction is better, the end-to-end metric it should move and the
workloads it should move on.
"""

import dataclasses
from statistics import median

import numpy as np
import scipy.linalg

import physlp
from physlp import SolveStatus
from physlp.errors import Breakdown

from .tracing import totals

PER_LAYER = [
    # name, unit, better, should move, on
    ("core.validate_calls", "count/op", "lower", "latency_ms_p50", "match-small"),
    ("core.validate_ms", "ms/op", "lower", "latency_ms_p50", "match-small"),
    ("problems.build_ms", "ms/call", "lower", "setup_s", "all"),
    ("oracles.ms", "ms/call", "lower", "setup_s", "all"),
    ("solver.prepare_ms", "ms/op", "lower", "latency_ms_p50", "match-large"),
    ("solver.step_self_ms", "ms/op", "lower", "latency_ms_p50, peak_rss_mb",
     "match-large, path-large"),
    ("solver.bookkeeping_ms", "ms/op", "lower", "latency_ms_p50", "match-small"),
    ("solver.iters_per_solve", "count", "lower", "latency_ms_p50, rel_error",
     "match-small, path-large (no change predicted on grad)"),
    ("solver.early_stop_share", "share", "higher", "latency_ms_p50, rel_error",
     "match-small, path-large (no change predicted on grad)"),
    ("solver.converged_share", "share", "higher", "latency_ms_p50, rel_error",
     "match-small, path-large (no change predicted on grad)"),
    ("solver.clamped_share", "share", "higher", "rel_error", "all"),
    ("linalg.spd_calls", "count/op", "lower", "latency_ms_p50", "match-small, path-large"),
    ("linalg.spd_self_ms", "ms/op", "lower", "latency_ms_p50", "match-small, path-large"),
    ("linalg.factor_ms", "ms/op", "lower", "latency_ms_p50", "match-small, match-large"),
    ("linalg.cg_iters", "count/call", "lower", "latency_ms_p50", "path-large"),
    ("linalg.direct_share", "share", "higher", "latency_ms_p50", "path-large"),
    ("linalg.breakdowns", "count/op", "lower", "ops_per_s (each costs a retry)", "grad"),
    ("autodiff.tape_ms", "ms/op", "lower", "latency_ms_p50, ops_per_s", "grad"),
    ("autodiff.backward_ms", "ms/op", "lower", "latency_ms_p50, ops_per_s", "grad"),
    ("autodiff.backward_self_ms", "ms/op", "lower", "latency_ms_p50, ops_per_s", "grad"),
    ("autodiff.adjoint_solve_ms", "ms/op", "lower", "latency_ms_p50, ops_per_s", "grad"),
    ("autodiff.tape_mb", "MB", "lower", "peak_rss_mb", "grad"),
    ("autodiff.backward_failures", "count/op", "lower", "ops_per_s (each costs a retry)",
     "grad"),
    ("autodiff.ones_breakdown_share", "share", "lower",
     "none (backward(ones) is probed after the timed ops)", "grad"),
    ("autodiff.grad_dot_err", "1", "lower", "correct (gate)", "grad"),
    ("trace.overhead_share", "share", "lower", "none (reported, not gated)", "all"),
]


def _cfg(args, kwargs):
    return kwargs["cfg"] if "cfg" in kwargs else args[1]


def _count_loop(tracer, result, max_iters):
    iters = len(result.trace)
    failed = result.status is SolveStatus.LINSOLVE_FAILURE
    tracer.count("solves")
    tracer.count("iters", iters)
    tracer.count("early_stops", not failed and iters < max_iters)
    tracer.count("converged", result.status is SolveStatus.CONVERGED)


def held_bytes(obj, seen=None):
    """Bytes of the distinct numpy arrays reachable through dataclass
    fields, lists and tuples (shared arrays count once)."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj):
        return sum(held_bytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return sum(held_bytes(v, seen) for v in obj)
    return 0


def _on_solve(tracer, args, kwargs, result):
    _count_loop(tracer, result, _cfg(args, kwargs).max_iters)


def _on_tape(tracer, args, kwargs, out):
    result, tape = out
    _count_loop(tracer, result, _cfg(args, kwargs).max_iters)
    tracer.count("tapes")
    tracer.count("tape_bytes", held_bytes(tape))


def _on_step(tracer, args, kwargs, det):
    tracer.count("steps")
    tracer.count("clamped", 1.0 - float(np.mean(det.clamp_mask)))


def _on_spd(tracer, args, kwargs, report):
    tracer.count("spd_iters", report.iterations)
    tracer.count("spd_direct", report.iterations == 0)


def _on_spd_error(tracer, args, kwargs, exc):
    if isinstance(exc, Breakdown):
        tracer.count("breakdowns")


def _on_backward_error(tracer, args, kwargs, exc):
    tracer.count("backward_failures")


def targets():
    """(module, attribute, span name, on_result, on_error) for every call
    site the traced run wraps.  Functions imported into several modules
    are wrapped under each name a caller looks up."""
    core, problems, solver = physlp.core, physlp.problems, physlp.solver
    linalg, autodiff, oracles = physlp.linalg, physlp.autodiff, physlp.oracles
    spd = ("linalg.spd_solve", _on_spd, _on_spd_error)
    return [
        *[(m, "validate", "core.validate", None, None)
          for m in (core, problems, solver, autodiff)],
        (problems, "build_matching_lp", "problems.build", None, None),
        (problems, "build_shortest_path_lp", "problems.build", None, None),
        (oracles, "hungarian", "oracles.answer", None, None),
        (oracles, "dijkstra", "oracles.answer", None, None),
        (solver, "solve", "solver.solve", _on_solve, None),
        (solver, "prepare_lp", "solver.prepare", None, None),
        (solver, "step_detail", "solver.step", _on_step, None),
        *[(m, "spd_solve", *spd) for m in (solver, linalg, autodiff)],
        # physlp.linalg looks these up on the scipy.linalg module itself
        (scipy.linalg, "cho_factor", "linalg.factor", None, None),
        (scipy.linalg, "cho_solve", "linalg.factor", None, None),
        (autodiff, "solve_with_tape", "autodiff.tape", _on_tape, None),
        (autodiff, "backward", "autodiff.backward", None, _on_backward_error),
        (autodiff, "spd_solve_adjoint", "autodiff.adjoint_solve", None, None),
    ]


def per_layer_metrics(tracer, ops, overhead_share, dot_errors, ones_breakdown_share):
    """Per-layer metric values from a traced run of `ops` ops."""
    in_ops = totals(tracer.spans)
    everywhere = totals(tracer.spans, in_ops=False)
    counts = tracer.counts

    def calls(name):
        return in_ops[name][0] if name in in_ops else 0

    def ms(name, own=False):
        return 1e3 * in_ops[name][2 if own else 1] / ops if name in in_ops else 0.0

    def ms_per_call(name):
        row = everywhere.get(name)
        return 1e3 * row[1] / row[0] if row else 0.0

    def share(key, base):
        return counts[key] / counts[base] if counts[base] else 0.0

    spd_calls = calls("linalg.spd_solve")
    values = {
        "core.validate_calls": calls("core.validate") / ops,
        "core.validate_ms": ms("core.validate"),
        "problems.build_ms": ms_per_call("problems.build"),
        "oracles.ms": ms_per_call("oracles.answer"),
        "solver.prepare_ms": ms("solver.prepare"),
        "solver.step_self_ms": ms("solver.step", own=True),
        "solver.bookkeeping_ms": ms("solver.solve", own=True) + ms("autodiff.tape", own=True),
        "solver.iters_per_solve": share("iters", "solves"),
        "solver.early_stop_share": share("early_stops", "solves"),
        "solver.converged_share": share("converged", "solves"),
        "solver.clamped_share": share("clamped", "steps"),
        "linalg.spd_calls": spd_calls / ops,
        "linalg.spd_self_ms": ms("linalg.spd_solve", own=True),
        "linalg.factor_ms": ms("linalg.factor"),
        "linalg.cg_iters": counts["spd_iters"] / spd_calls if spd_calls else 0.0,
        "linalg.direct_share": counts["spd_direct"] / spd_calls if spd_calls else 0.0,
        "linalg.breakdowns": counts["breakdowns"] / ops,
        "autodiff.tape_ms": ms("autodiff.tape"),
        "autodiff.backward_ms": ms("autodiff.backward"),
        "autodiff.backward_self_ms": ms("autodiff.backward", own=True),
        "autodiff.adjoint_solve_ms": ms("autodiff.adjoint_solve"),
        "autodiff.tape_mb": share("tape_bytes", "tapes") / 2 ** 20,
        "autodiff.backward_failures": counts["backward_failures"] / ops,
        "autodiff.ones_breakdown_share": ones_breakdown_share,
        "autodiff.grad_dot_err": median(dot_errors) if dot_errors else 0.0,
        "trace.overhead_share": overhead_share,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit, *_ in PER_LAYER}
