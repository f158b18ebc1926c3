"""The package surface: ``qwrng.__all__`` lists exactly the public names it
binds, and the names the benchmark's tracer and workloads call still exist."""

import importlib
import importlib.util
import inspect
import sys
import types
from pathlib import Path

import qwrng


def test_all_matches_the_bound_public_names():
    names = qwrng.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(qwrng, n)] == []
    bound = {
        n for n, v in vars(qwrng).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert set(names) == bound


def _load_tracer():
    """The benchmark's span tracer, loaded by path (it imports only the standard library)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_still_fits_the_api():
    # a shim or probe that no longer fits is skipped silently, and the
    # per-layer metrics built on it read 0 or go missing
    tracer = _load_tracer()
    for span, (fn, _) in tracer.SHIMS.items():
        home = importlib.import_module(f"qwrng.{span.split('.')[0]}")
        assert callable(getattr(home, fn, None)), span
    probed = [
        ("training", "loss_gradient", "schedule", 0),
        ("training", "apply_update", "schedule", 0),
        ("walk", "run_walk", "schedule", 1),
        ("sampling", "draw", "count", 1),
        ("sampling", "encode_bits", "stream", 0),
        ("fileio", "write_indices", "stream", 0),
        ("fileio", "write_indices", "path", 1),
        ("fileio", "write_bits", "stream", 0),
        ("fileio", "write_bits", "path", 1),
        ("fileio", "read_indices", "path", 0),
    ]
    for module, fn, name, index in probed:
        function = getattr(importlib.import_module(f"qwrng.{module}"), fn)
        params = list(inspect.signature(function).parameters)
        assert params[index] == name, f"{module}.{fn}"
    # the workloads build and check their inputs through these
    for cls, method in [
        (qwrng.CoinSchedule, "with_array"),
        (qwrng.CoinSchedule, "to_array"),
        (qwrng.Distribution, "as_array"),
    ]:
        assert callable(getattr(cls, method, None)), f"{cls.__name__}.{method}"


def test_benchmark_workloads_set_up_and_their_first_ops_check(tmp_path):
    # an API change that breaks a workload fails here, not in a benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # @dataclass looks its module up by name
    spec.loader.exec_module(workloads)
    for name in workloads.BUILDERS:
        (tmp_path / name).mkdir()
        op = workloads.make(name, 1, tmp_path / name)[0]
        op.check(op.call())
