"""Tests of the benchmark's own logic.

    PYTHONPATH=src python -m pytest -q benchmarks/tests
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import physlp
from physlp import SolverConfig
from physlp.errors import Breakdown
from physbench import harness, layers, reference, tracing, workloads
from physbench.reference import Reference
from physbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# --- the p90-only-with-ten-samples-beyond rule ---------------------------

def test_p90_needs_ten_samples_above_it():
    assert harness.tail_p90([float(v) for v in range(1, 101)]) == pytest.approx(90.9)
    assert harness.tail_p90([float(v) for v in range(1, 51)]) is None
    assert harness.tail_p90([1.0]) is None


def test_p90_not_reported_when_the_tail_is_ties():
    # the 90th percentile is 5.0 and nothing lies strictly above it
    assert harness.tail_p90([1.0] * 10 + [5.0] * 200) is None


# --- the timed loop ------------------------------------------------------

class _FakeInstance:
    size = (1,)

    def __init__(self, fails):
        self.fails = fails

    def build(self):
        return None


class _FakeReference:
    """A reference whose calls take 0.5 s, then 0.25 s, ... (cycling)."""

    nominal_ms = 500.0

    def __init__(self, seconds):
        self.calls = 0
        self.durations = seconds

    def seconds(self):
        self.calls += 1
        return self.durations[(self.calls - 1) % len(self.durations)]

    scale = Reference.scale


def test_loop_scales_each_op_by_the_reference_call_after_it(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(harness.time, "perf_counter", lambda: now[0])
    seen = []

    def fake_op(inst, lp):
        now[0] += 1.0
        seen.append(inst)
        return workloads.Outcome(inst.fails, None if inst.fails else 0.25), 1.0

    monkeypatch.setattr(harness, "run_op", fake_op)
    pool = [_FakeInstance(False), _FakeInstance(True), _FakeInstance(False)]
    # ops take 1 s of wall time; the host runs at nominal speed, then at
    # half speed (reference 1 s), then nominal again
    stats = harness.timed_loop(pool, 3.0, {(1,): _FakeReference([0.5, 1.0, 0.5])})
    assert seen == pool
    assert (stats.attempted, stats.failed) == (3, 1)
    assert stats.raw_latencies == [1.0, 1.0]
    assert stats.latencies == [1.0, 1.0] and stats.errors == [0.25, 0.25]
    assert stats.cycles == [1.0, 0.5, 1.0]
    assert stats.ops_per_s == 2 / 2.5


def test_a_loop_runs_at_least_one_op(monkeypatch):
    monkeypatch.setattr(harness, "run_op", lambda inst, lp: (workloads.Outcome(False, 0.0), 1.0))
    stats = harness.timed_loop([_FakeInstance(False)], 1e-9, {(1,): _FakeReference([0.5])})
    assert stats.attempted == 1 and stats.latencies == [1.0]


def test_loop_ends_on_a_whole_batch(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(harness.time, "perf_counter", lambda: now[0])

    def fake_op(inst, lp):
        now[0] += 1.0
        return workloads.Outcome(False, 0.0), 1.0

    monkeypatch.setattr(harness, "run_op", fake_op)
    references = {(1,): _FakeReference([0.5])}
    assert harness.timed_loop([_FakeInstance(False)], 1.5, references, batch=4).attempted == 4
    now[0] = 0.0
    assert harness.timed_loop([_FakeInstance(False)], 4.5, references, batch=4).attempted == 8


def _flaky_backward(monkeypatch, breakdowns):
    """Make backward raise Breakdown on its first `breakdowns` calls;
    returns the linsolve_tol of every call."""
    real, tols = workloads.autodiff.backward, []

    def flaky(tape, g):
        tols.append(tape.cfg.linsolve_tol)
        if len(tols) <= breakdowns:
            raise Breakdown("test")
        return real(tape, g)

    monkeypatch.setattr(workloads.autodiff, "backward", flaky)
    return tols


def test_grad_op_retries_backward_once_at_the_looser_tolerance(monkeypatch):
    inst = WORKLOADS["grad"].make(0, True)[0]
    tols = _flaky_backward(monkeypatch, 1)
    outcome, _ = workloads.run_op(inst, inst.build())
    assert tols == [SolverConfig().linsolve_tol, workloads.RETRY_TOL]
    assert outcome.retried and not outcome.failed and outcome.wrong is None


def test_grad_op_fails_when_the_retry_breaks_down_too(monkeypatch):
    inst = WORKLOADS["grad"].make(0, True)[0]
    tols = _flaky_backward(monkeypatch, 2)
    outcome, _ = workloads.run_op(inst, inst.build())
    assert len(tols) == 2 and outcome.failed


def test_reference_kernel_is_fixed_work_that_never_calls_physlp():
    a, b = Reference(6, 12, 3, 1.0), Reference(6, 12, 3, 1.0)
    assert (a.A == b.A).all() and (a.kernel() == b.kernel()).all()
    assert np.isfinite(a.kernel()).all()
    assert a.scale(2e-3) == pytest.approx(0.5)
    source = Path(reference.__file__).read_text()
    assert "import physlp" not in source and "from physlp" not in source


def test_every_full_size_instance_has_a_reference_kernel_of_its_lp_shape():
    for workload in WORKLOADS.values():
        for inst in workload.make(0, False)[:16]:
            m, n, *_ = reference.KERNELS[inst.size]
            assert inst.build().A.shape == (m, n)


# --- self time on nested spans -------------------------------------------

def _span(name, start, end, parent, op=0):
    return [name, start, end, parent, op]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 6.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0])


def test_self_time_uses_the_union_of_overlapping_children():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("x", 1.0, 4.0, 0),
        _span("y", 3.0, 5.0, 0),
        _span("z", 8.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 2.0)


def test_tracer_records_parents_and_totals(monkeypatch):
    clock = iter(float(t) for t in range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(clock))
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner() or inner(), "outer")
    tracer.op = 7
    outer()
    tracer.op = None
    outer()  # outside an op: excluded from the per-op totals
    assert [s[tracing.PARENT] for s in tracer.spans[:3]] == [None, 0, 0]
    assert all(s[tracing.OP] == 7 for s in tracer.spans[:3])
    rows = tracing.totals(tracer.spans)
    # outer spans 0..5 with children 1..2 and 3..4
    assert rows["outer"] == [1, 5.0, 3.0]
    assert rows["inner"] == [2, 2.0, 2.0]
    assert tracing.totals(tracer.spans, in_ops=False)["outer"][0] == 2


def test_counts_only_accumulate_inside_ops():
    tracer = tracing.Tracer()
    tracer.count("k")
    tracer.op = 0
    tracer.count("k", 2)
    assert tracer.counts["k"] == 2


def test_spans_written_as_json_lines(tmp_path):
    tracer = tracing.Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["name"], r["parent"]) for r in rows] == [("a", None), ("b", 0)]


# --- wrapper restoration -------------------------------------------------

def test_installed_restores_attributes_even_on_error():
    mod = types.ModuleType("fake")
    mod.f = lambda: 1
    original = mod.f
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed([(mod, "f", "f", None, None),
                               (mod, "absent", "x", None, None)]):
            assert mod.f is not original and mod.f() == 1
            raise RuntimeError
    assert mod.f is original
    assert not hasattr(mod, "absent")
    assert tracer.missing == ["fake.absent"]


def _wrapped_attributes():
    return [(m, a, getattr(m, a)) for m, a, *_ in layers.targets()]


def test_layer_targets_all_exist_and_are_restored():
    before = _wrapped_attributes()
    tracer = tracing.Tracer()
    with tracer.installed(layers.targets()):
        assert all(getattr(m, a) is not f for m, a, f in before)
    assert tracer.missing == []
    assert all(getattr(m, a) is f for m, a, f in before)


# --- seed determinism ----------------------------------------------------

def _fingerprint(pool):
    out = []
    for inst in pool:
        data = inst.data.arcs if inst.is_path else inst.data.tolist()
        answer = inst.answer if inst.is_path else inst.answer.tolist()
        out.append((repr(data), repr(answer), inst.solver_seed, inst.max_iters, inst.grad_seed))
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_instances_other_seed_differs(name):
    make = WORKLOADS[name].make
    assert _fingerprint(make(3, True)) == _fingerprint(make(3, True))
    assert _fingerprint(make(3, True)) != _fingerprint(make(4, True))


def test_full_size_pool_is_deterministic():
    a = WORKLOADS["match-small"].make(11, False)
    b = WORKLOADS["match-small"].make(11, False)
    assert len(a) == 1024 and _fingerprint(a) == _fingerprint(b)
    assert a[0].data.shape == (5, 50)


def test_grad_pool_has_a_fixed_share_of_large_draws():
    pool = WORKLOADS["grad"].make(0, False)
    shapes = [inst.data.shape for inst in pool]
    assert shapes.count((50, 100)) == len(pool) // 8
    assert shapes.count((30, 30)) == len(pool) - len(pool) // 8


def test_loss_gradient_is_seeded_and_only_on_grad_ops():
    inst = WORKLOADS["grad"].make(5, True)[0]
    lp = inst.build()
    assert (inst.loss_grad(lp) == WORKLOADS["grad"].make(5, True)[0].loss_grad(lp)).all()
    assert inst.loss_grad(lp).shape == (lp.n,)
    small = WORKLOADS["match-small"].make(5, True)[0]
    assert small.loss_grad(small.build()) is None


# --- smoke runs at tiny sizes --------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_end_to_end(name):
    report = harness.run(name, seed=0, seconds=0.05, trace=False, tiny=True)
    result = report.result
    assert result["correct"], report.notes
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_reports_layers_and_restores(name):
    before = _wrapped_attributes()
    report = harness.run(name, seed=0, seconds=0.1, trace=True, tiny=True)
    assert all(getattr(m, a) is f for m, a, f in before)
    metrics = report.result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["linalg.spd_calls"]["value"] > 0
    assert metrics["solver.iters_per_solve"]["value"] > 0
    if name == "grad":
        assert metrics["autodiff.backward_ms"]["value"] > 0
        assert 0 < metrics["autodiff.grad_dot_err"]["value"] < 1e-5
        assert metrics["autodiff.tape_mb"]["value"] > 0
        assert 0 <= metrics["autodiff.ones_breakdown_share"]["value"] <= 1
        assert any("backward(ones)" in note for note in report.notes)
    else:
        assert metrics["autodiff.backward_ms"]["value"] == 0


# --- the spec file and the command ---------------------------------------

def test_spec_matches_the_code():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [row[:3] for row in layers.PER_LAYER]


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "match-small",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_physlp_is_the_checkout_copy():
    assert Path(physlp.__file__).resolve().parents[1] == ROOT / "src"
