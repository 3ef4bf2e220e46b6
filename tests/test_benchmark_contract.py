"""The benchmark's traced-run check, on one op of every workload.

``benchmarks/run.py --trace 1`` runs each op untraced and then traced, with
``benchmarks/tracing.Tracer``'s timing wrappers installed at every name of
``tracing.PATCHES``.  The traced op fails when it raises (``Tracer.install``
raises on a name that is gone), when its rows differ from the untraced op's,
or when its layer self times cover less or more of it than
``run.SELF_COVERAGE_TOLERANCE`` allows.  This test only reads
``benchmarks/``.
"""

import importlib.util
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load(name):
    path = BENCHMARKS / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_ops_reproduce_the_untraced_ops(monkeypatch):
    # Importing run.py pins these; monkeypatch undoes it after the test.  That
    # every PATCHES name exists is test_harness.test_benchmark_patch_points_exist.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    run, tracing = load("run"), load("tracing")
    for name in run.WORKLOADS:
        workload = run.Workload(name, 1)
        plain = workload.run(1)
        tracer = tracing.Tracer()
        traced = workload.run_traced(1, tracer)
        assert not plain.problems and not traced.problems, (name, plain.problems, traced.problems)
        assert traced.rows == plain.rows, name
        layer = tracing.op_layer_metrics(tracer, 1, traced.wall, workload.trials_per_op)
        coverage = layer["trace.self_coverage"]
        assert abs(coverage - 1.0) <= run.SELF_COVERAGE_TOLERANCE, (name, coverage)
