"""Benchmark harness for physlp.

The harness drives physlp's public API from one process as a single
closed-loop caller (the next op starts when the previous one returns),
checks every output against the exact oracles in physlp.oracles, and
reports end-to-end metrics, with each op's time scaled by a fixed
reference kernel timed right after it.  A traced run wraps the
library's module attributes from outside and reports per-layer
metrics.  Run it through benchmarks/run.py.
"""
