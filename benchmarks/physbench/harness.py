"""Set-up, the closed timed loop, and the metrics of one benchmark run."""

import resource
import time
from dataclasses import dataclass, field
from statistics import median, quantiles

from . import layers
from .reference import References
from .tracing import Tracer
from .workloads import (DOT_GATE, DOT_INSTANCES, ONES_PROBE_INSTANCES, PATH_BAND, RETRY_TOL,
                        WORKLOADS, dot_test, ones_breaks_down, run_op)

# Set-up runs this many times per run; setup_s reports the median.
SETUP_REPEATS = 3
# A percentile is reported only with at least this many samples above it.
TAIL_SAMPLES = 10


def tail_p90(samples):
    """The 90th percentile, or None unless TAIL_SAMPLES samples lie above it."""
    if len(samples) < 2:
        return None
    p90 = quantiles(samples, n=10)[-1]
    return p90 if sum(s > p90 for s in samples) >= TAIL_SAMPLES else None


@dataclass
class LoopStats:
    """What a timed loop saw.

    attempted and failed count every op run.  Each op is followed by one
    call of its size's Reference (refs holds their seconds by size).  latencies holds each
    non-failed op's call time at the reference speed, raw_latencies its
    wall time, and errors its oracle error; cycles holds each op's cycle
    (building its LP plus the call) at the reference speed, failed ops
    included."""

    attempted: int = 0
    failed: int = 0
    retried: int = 0
    latencies: list = field(default_factory=list)
    raw_latencies: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    cycles: list = field(default_factory=list)
    refs: dict = field(default_factory=dict)
    wrong: list = field(default_factory=list)

    @property
    def ops_per_s(self):
        """Completed ops per second of cycle time at the reference speed."""
        return len(self.latencies) / sum(self.cycles)


def _timed_op(inst, i, tracer):
    """Build op i's LP and run it; returns (outcome, call s, cycle s).
    The call time covers only the library call; the cycle adds building
    the LP."""
    t0 = time.perf_counter()
    lp = inst.build()
    build = time.perf_counter() - t0
    if tracer is None:
        outcome, call = run_op(inst, lp)
    else:
        tracer.op = i
        with tracer.span("op"):
            outcome, call = run_op(inst, lp)
        tracer.op = None
    return outcome, call, build + call


def timed_loop(pool, seconds, references, batch=1, tracer=None):
    """Closed loop, one caller: op i runs on pool[i % len(pool)] once op
    i-1 returned, for `seconds` and then up to a whole batch of ops (at
    least one batch).  Each op is followed by one timed call of the
    reference kernel for its instance size, and its times are scaled by
    that call."""
    stats = LoopStats()
    start = time.perf_counter()
    while (stats.attempted % batch or not stats.attempted
           or time.perf_counter() - start < seconds):
        i = stats.attempted
        inst = pool[i % len(pool)]
        outcome, call, cycle = _timed_op(inst, i, tracer)
        reference = references[inst.size]
        ref = reference.seconds()
        scale = reference.scale(ref)
        stats.attempted += 1
        stats.refs.setdefault(inst.size, []).append(ref)
        stats.cycles.append(cycle * scale)
        stats.retried += outcome.retried
        if outcome.failed:
            stats.failed += 1
        else:
            stats.latencies.append(call * scale)
            stats.raw_latencies.append(call)
            stats.errors.append(outcome.error)
        if outcome.wrong:
            stats.wrong.append(f"op {i}: {outcome.wrong}")
    return stats


def set_up(workload, seed, tiny):
    """Generate the pool and oracle answers SETUP_REPEATS times, then
    build and run one untimed warm-up op.  Returns (pool, median
    generation seconds, warm-up seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool = workload.make(seed, tiny)
        times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    run_op(pool[0], pool[0].build())
    return pool, median(times), time.perf_counter() - t0


@dataclass
class Report:
    """The result line (correct, attempted, failed, metrics) plus notes:
    human-readable lines printed before it."""

    result: dict
    notes: list


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _small_gradient_instances(pool):
    return [inst for inst in pool if inst.gradient and inst.data.shape == pool[0].data.shape]


def _gradient_check(pool, seed):
    """Dot-product test on the first DOT_INSTANCES small gradient instances."""
    errors = []
    for k, inst in enumerate(_small_gradient_instances(pool)[:DOT_INSTANCES]):
        err = dot_test(inst, [seed, k])
        if err is not None:
            errors.append(err)
    return errors


def run(name, seed, seconds, trace, tiny=False, import_s=0.0, spans_path=None):
    """One benchmark run of workload `name`.

    trace=False times `seconds` of ops with nothing wrapped and reports
    the end-to-end metrics.  trace=True spends half the time untraced and
    half traced on the same op sequence, then reports the per-layer
    metrics and the tracing overhead."""
    workload = WORKLOADS[name]
    references = References(tiny)
    tracer = Tracer() if trace else None
    if trace:
        with tracer.installed(layers.targets()):
            pool, gen_s, warm_s = set_up(workload, seed, tiny)
        untraced = timed_loop(pool, seconds / 2, references, workload.batch)
        with tracer.installed(layers.targets()):
            stats = timed_loop(pool, seconds / 2, references, workload.batch, tracer)
        loops = [untraced, stats]
    else:
        pool, gen_s, warm_s = set_up(workload, seed, tiny)
        stats = timed_loop(pool, seconds, references, workload.batch)
        loops = [stats]
    dot_errors = _gradient_check(pool, seed) if pool[0].gradient else []

    attempted = sum(s.attempted for s in loops)
    failed = sum(s.failed for s in loops)
    wrong = [w for s in loops for w in s.wrong]
    errors = [e for s in loops for e in s.errors]
    mean_error = sum(errors) / len(errors) if errors else 0.0
    if mean_error > workload.error_gate:
        wrong.append(f"mean oracle error {mean_error:.3e} > {workload.error_gate}")
    wrong += [f"dot-product error {e:.3e} > {DOT_GATE}" for e in dot_errors if e > DOT_GATE]
    latencies = [1e3 * t for t in stats.latencies]
    # set-up is scaled by the loop's reference calls: its own few seconds
    # hold too few calls to time the host's speed
    setup_ref = median(stats.refs[pool[0].size])
    setup_s = (import_s + gen_s + warm_s) * references[pool[0].size].scale(setup_ref)
    notes = [f"workload {name}: {workload.op}; seed {seed}; closed loop, one caller",
             f"setup: import {import_s:.4f} s (median of 3), instances and oracle answers {gen_s:.4f} s "
             f"(median of {SETUP_REPEATS}), warm-up op {warm_s:.4f} s; "
             f"{setup_s:.4f} s at the reference speed"]
    for size, refs in stats.refs.items():
        ref = references[size]
        notes.append(f"reference kernel for size {size}: {ref.iters} steps at {ref.A.shape}, "
                     f"median {1e3 * median(refs):.4f} ms over {len(refs)} calls, "
                     f"nominal {ref.nominal_ms} ms")
    p90 = tail_p90(latencies)
    if latencies:
        notes.append(f"latency_ms_p50 = {median(latencies):.4f} ms at the reference speed "
                     f"over {len(latencies)} ops; wall-clock median "
                     f"{1e3 * median(stats.raw_latencies):.4f} ms")
    notes.append(f"latency_ms_p90 = {p90:.4f} ms" if p90 is not None else
                 f"latency_ms_p90 not reported: fewer than {TAIL_SAMPLES} of "
                 f"{len(latencies)} samples lie above the 90th percentile")
    notes.append(f"fail_share = {failed / attempted:.4f} ({failed}/{attempted} ops failed)")
    if pool[0].gradient:
        retried = sum(s.retried for s in loops)
        notes.append(f"backward broke down and was retried at linsolve_tol {RETRY_TOL} "
                     f"on {retried}/{attempted} ops")
    notes.append(f"rel_error = {mean_error:.4e} (mean oracle error over {len(errors)} ops)")
    if pool[0].is_path:
        within = sum(e <= PATH_BAND for e in errors)
        notes.append(f"path ops within criterion 8's {PATH_BAND} band: {within}/{len(errors)}")
    if dot_errors:
        notes.append(f"grad_dot_err = {median(dot_errors):.3e} (median of {len(dot_errors)})")
    notes += [f"wrong answer: {w}" for w in wrong]

    if trace:
        overhead = 1.0 - stats.ops_per_s / untraced.ops_per_s if untraced.latencies else 0.0
        probe = _small_gradient_instances(pool)[:ONES_PROBE_INSTANCES]
        ones_breakdowns = sum(ones_breaks_down(inst) for inst in probe)
        if probe:
            notes.append(f"backward(ones) raised Breakdown on {ones_breakdowns} of "
                         f"{len(probe)} probe instances")
        metrics = layers.per_layer_metrics(
            tracer, stats.attempted, overhead, dot_errors,
            ones_breakdowns / len(probe) if probe else 0.0)
        notes.append(f"traced {stats.attempted} ops; untraced {untraced.ops_per_s:.4f} ops/s, "
                     f"traced {stats.ops_per_s:.4f} ops/s")
        notes += [f"not wrapped (attribute missing): {m}" for m in tracer.missing]
        if spans_path:
            tracer.write(spans_path)
    else:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "latency_ms_p50": _metric(median(latencies) if latencies else 0.0, "ms"),
            "ops_per_s": _metric(stats.ops_per_s, "1/s"),
            "success_share": _metric(1.0 - failed / attempted, "share"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return Report(result, notes)
