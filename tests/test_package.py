"""The package surface: ``qwrng.__all__`` lists exactly the public names it
binds, each of them has a caller outside the tests and demos, the names the
benchmark's tracer and workloads call still exist, only
``analyze`` imports scipy, only ``walk`` looks inside a forward pass, only
``training`` names the rule that picks a pass, and only ``fileio`` touches
the file system."""

import ast
import hashlib
import importlib
import importlib.util
import inspect
import subprocess
import sys
import types
from pathlib import Path

from test_golden import CLI_DIGESTS

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


def _value_reads(path: Path) -> set[str]:
    """Names and attribute names that ``path`` reads as values, outside annotations."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hints = set()
    for node in ast.walk(tree):
        for field in ("annotation", "returns"):
            if getattr(node, field, None) is not None:
                hints.update(id(n) for n in ast.walk(getattr(node, field)))
    return {
        getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
        and id(n) not in hints
    }


#: Public names that no package module or benchmark file reads, and why each stays.
CALLED_ONLY_BY_TESTS = {
    "fd_gradient": "the finite-difference reference gate 2 and the oracle tests hold loss_gradient to",
}


def test_every_public_name_has_a_caller():
    # a public name that nothing outside the tests and demos reads is code kept for its own tests
    modules = [p for p in Path(qwrng.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    bench = (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")
    read = set().union(*map(_value_reads, [*modules, *bench]))
    read |= {fn for fn, _ in _load_tracer().SHIMS.values()}  # the tracer rebinds these by name
    assert sorted(set(qwrng.__all__) - read) == sorted(CALLED_ONLY_BY_TESTS)


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


#: The golden CLI chain (``tests/test_golden.py``) in a fresh interpreter,
#: with ``simulate`` and a bits ``sample`` besides, checking ``sys.modules``
#: before and after ``analyze``.
ONLY_ANALYZE_IMPORTS_SCIPY = """
import sys
from pathlib import Path

import qwrng, qwrng.cli

root = Path(sys.argv[1])
sched = str(root / "u.sched")
main = qwrng.cli.main
assert main(["train", "--steps", "4", "--target", "uniform",
             "--out", sched, "--log", str(root / "u.trace.csv")]) == 0
assert main(["simulate", "--schedule", sched, "--out", str(root / "u.dist.csv")]) == 0
sample = ["sample", "--schedule", sched, "--seed", "7", "--count", "50000"]
assert main(sample + ["--format", "bits", "--out", str(root / "s.bits")]) == 0
assert main(sample + ["--out", str(root / "s.txt")]) == 0
assert "scipy" not in sys.modules, [m for m in sys.modules if m.startswith("scipy")][:3]
assert main(["analyze", "--samples", str(root / "s.txt"), "--target", "uniform",
             "--steps", "4", "--out", str(root / "a.csv")]) == 0
assert "scipy.special" in sys.modules
"""


def test_only_analyze_imports_scipy(tmp_path):
    # scipy is most of a bare command's start-up, and only the chi-square p-value needs it
    proc = subprocess.run(
        [sys.executable, "-c", ONLY_ANALYZE_IMPORTS_SCIPY, str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = (tmp_path / "a.csv").read_bytes()
    assert hashlib.sha256(report).hexdigest() == CLI_DIGESTS["analyze"]


def _callee(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None))
    return None


def test_only_walk_unpacks_a_forward_pass():
    # the slot buffers' layout is walk.py's alone: other modules take the
    # probabilities and only ever call the sweep that comes with them
    for path in sorted(Path(qwrng.__file__).parent.glob("*.py")):
        if path.name == "walk.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        calls = {id(n) for n in nodes if _callee(n) == "_forward"}
        called = {id(n.func) for n in nodes if isinstance(n, ast.Call)}
        kept = set()
        for node in nodes:
            if isinstance(node, ast.Assign) and id(node.value) in calls:
                calls.discard(id(node.value))
                names = [getattr(e, "id", None) for e in getattr(node.targets[0], "elts", [])]
                assert len(node.targets) == 1 and len(names) == 2, f"{path.name}:{node.lineno}"
                assert None not in names, f"{path.name}:{node.lineno}: a forward pass unpacked"
                kept.add(names[0])
        assert not calls, f"{path.name}: a _forward result used in place"
        for node in nodes:
            loaded = isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            if loaded and node.id in kept - {"_"}:
                assert id(node) in called, f"{path.name}:{node.lineno}: {node.id} looked into"


def test_only_training_names_the_float_pass_rule():
    # walk runs whichever pass its ratios' container asks for; train decides
    for path in sorted(Path(qwrng.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = {getattr(node, field, None) for field in ("id", "attr", "name", "asname")}
            if path.name != "training.py":
                assert "FLOAT_PASS_MAX_STEPS" not in named, f"{path.name}:{node.lineno}"
            defines = isinstance(node, ast.FunctionDef) and node.name == "_pass_values"
            assert not defines, f"{path.name}:{node.lineno}: defines _pass_values"


def test_only_fileio_touches_the_file_system():
    # one module reads, writes and checks paths, so one guard sees every output
    banned = {"os", "shutil", "stat", "pathlib"}
    for path in sorted(Path(qwrng.__file__).parent.glob("*.py")):
        if path.name == "fileio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                modules = []
            assert not banned & {m.split(".")[0] for m in modules}, f"{path.name}:{node.lineno}"
            assert _callee(node) != "open", f"{path.name}:{node.lineno}: calls open"
