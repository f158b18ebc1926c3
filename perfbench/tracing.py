"""Span tracer for the traced run, built from timing shims around qwrng.

The tracer rebinds each public function it times in every qwrng module that
calls it (``qwrng.cli.train``, ``qwrng.training.loss_gradient``,
``qwrng.analysis.run_walk``, ...), so the program's own files stay untouched.
Each call becomes a span with its name, start, end, parent span and
operation id.  Spans stay in memory until the run ends.

A shimmed function that no longer exists is skipped, and every metric built
on it is reported as absent; one that is no longer called simply records no
spans.  Only the standard library is imported here, so that importing the
tracer does not shift numpy's import cost out of the measured set-up.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

#: Span name -> (function name, qwrng modules whose global of that name is
#: rebound).  The module list names every caller, so nested calls such as
#: ``train`` -> ``loss_gradient`` -> ``measure`` are all seen.
SHIMS: dict[str, tuple[str, tuple[str, ...]]] = {
    "walk.run_walk": ("run_walk", ("walk", "training", "analysis", "cli")),
    "walk.measure": ("measure", ("walk", "training", "analysis", "cli")),
    "training.train": ("train", ("training", "cli")),
    "training.loss_gradient": ("loss_gradient", ("training",)),
    "training.apply_update": ("apply_update", ("training",)),
    "training.mse_loss": ("mse_loss", ("training",)),
    "training.fidelity": ("fidelity", ("training", "analysis", "cli")),
    "targets.target_from_spec": ("target_from_spec", ("targets", "cli")),
    "sampling.build_sampler": ("build_sampler", ("sampling", "cli")),
    "sampling.draw": ("draw", ("sampling", "cli")),
    "sampling.encode_bits": ("encode_bits", ("sampling",)),
    "sampling.pack_bits": ("pack_bits", ("sampling",)),
    "sampling.counts_by_position": ("counts_by_position", ("sampling", "cli")),
    "sampling.empirical_distribution": ("empirical_distribution", ("sampling", "cli")),
    "analysis.robustness_sweep": ("robustness_sweep", ("analysis",)),
    "analysis.quantize_schedule": ("quantize_schedule", ("analysis", "cli")),
    "analysis.chi_square_test": ("chi_square_test", ("analysis", "cli")),
    "analysis.entropy_report": ("entropy_report", ("analysis", "cli")),
    **{
        f"fileio.{fn}": (fn, ("fileio",))
        for fn in (
            "read_schedule",
            "write_schedule",
            "write_trace",
            "write_distribution",
            "write_indices",
            "read_indices",
            "write_bits",
            "write_report",
        )
    },
}

LAYERS = ("cli", "targets", "walk", "training", "sampling", "analysis", "fileio")
CLI_COMMANDS = ("train", "simulate", "sample", "analyze")
#: Walk lengths of the per-call rows (walk, gradient, schedule rebuild).
SIZES = (4, 16, 64, 256)
#: Spans the benchmark opens itself, so they exist whatever qwrng looks like.
ROOT_SPAN = "bench.op"


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _size(path) -> int:
    return os.path.getsize(path)


# Counters read from a call's arguments and result.  A probe that no longer
# fits the function's signature raises, and the span keeps no counters.
PROBES = {
    "walk.run_walk": lambda a, k, r: {"n": _arg(a, k, 1, "schedule").steps},
    "training.loss_gradient": lambda a, k, r: {"n": _arg(a, k, 0, "schedule").steps},
    "training.apply_update": lambda a, k, r: {"n": _arg(a, k, 0, "schedule").steps},
    "sampling.draw": lambda a, k, r: {"outcomes": int(_arg(a, k, 1, "count"))},
    "sampling.encode_bits": lambda a, k, r: {
        "outcomes": len(getattr(_arg(a, k, 0, "stream"), "outcomes", _arg(a, k, 0, "stream")))
    },
    "fileio.read_schedule": lambda a, k, r: {"bytes_read": _size(_arg(a, k, 0, "path"))},
    "fileio.read_indices": lambda a, k, r: {
        "bytes_read": _size(_arg(a, k, 0, "path")),
        "outcomes": len(r),
    },
    "fileio.write_indices": lambda a, k, r: {
        "bytes_written": _size(_arg(a, k, 1, "path")),
        "outcomes": _arg(a, k, 0, "stream").count,
    },
    "fileio.write_bits": lambda a, k, r: {
        "bytes_written": _size(_arg(a, k, 1, "path"))
        + _size(str(_arg(a, k, 1, "path")) + ".meta"),
    },
    **{
        f"fileio.{fn}": (lambda a, k, r: {"bytes_written": _size(_arg(a, k, 1, "path"))})
        for fn in ("write_schedule", "write_trace", "write_distribution", "write_report")
    },
}


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child", "info")

    def __init__(self, name: str, op: int, parent: int) -> None:
        self.name = name
        self.op = op
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child = 0.0  # time covered by direct children
        self.info: dict | None = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Records spans while its shims are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.available: set[str] = {ROOT_SPAN}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op = -1

    # -- shims -----------------------------------------------------------

    def install(self) -> None:
        shims: dict[tuple[str, int], object] = {}
        for name, (attr, modules) in SHIMS.items():
            for mod_name in modules:
                module = sys.modules.get(f"qwrng.{mod_name}")
                original = getattr(module, attr, None)
                if not callable(original):
                    continue
                key = (name, id(original))
                if key not in shims:
                    shims[key] = self._shim(name, original)
                self._saved.append((module, attr, original))
                setattr(module, attr, shims[key])
                self.available.add(name)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _shim(self, name: str, fn):
        probe = PROBES.get(name)

        def shim(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if probe is not None:
                try:
                    span.info = probe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError):
                    pass
            return result

        shim.__wrapped__ = fn
        return shim

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, self._op, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child += span.end - span.start

    @contextlib.contextmanager
    def op(self, command: str | None):
        """Scope of one operation: a root span, plus a ``cli.<command>``
        span when the operation is a CLI call."""
        self._op += 1
        spans = [self._open(ROOT_SPAN)]
        if command:
            spans.append(self._open(f"cli.{command}"))
        try:
            yield
        finally:
            for span in reversed(spans):
                self._close(span)

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "op": s.op,
                            "parent": s.parent,
                            "start": s.start,
                            "end": s.end,
                            "self_s": s.self_s,
                            **({"info": s.info} if s.info else {}),
                        }
                    )
                    + "\n"
                )

    # -- metrics ---------------------------------------------------------

    def layer_metrics(self, rounds: int, iterations: float, traced_wall: float) -> dict:
        """Per-layer metrics per traced round, keyed by metric name.

        ``iterations`` is the number of gradient-descent updates one round
        performs, read from the program's trace files.  A metric whose span
        has no shim (its function is gone) is left out.
        """
        calls: Counter = Counter()
        incl: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        info: defaultdict = defaultdict(float)
        walks_under: Counter = Counter()
        for s in self.spans:
            calls[s.name] += 1
            incl[s.name] += s.end - s.start
            own[s.name] += s.self_s
            if s.info:
                for key, value in s.info.items():
                    if key == "n":
                        calls[(s.name, value)] += 1
                        incl[(s.name, value)] += s.end - s.start
                    else:
                        info[(s.name, key)] += value
            if s.name == "walk.run_walk":
                if s.parent >= 0:
                    walks_under[self.spans[s.parent].name] += 1
                if s.info:
                    n = s.info["n"]
                    info[(s.name, "coin_applications")] += n * (n + 1) // 2

        def per_round(x: float) -> float:
            return x / rounds

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        def ms_per_call(name: str, n: int) -> float:
            c = calls[(name, n)]
            return 1e3 * incl[(name, n)] / c if c else 0.0

        layer_self = defaultdict(float)
        for name, t in own.items():
            layer_self[name.split(".", 1)[0]] += t

        m: dict[str, float] = {}
        needs: dict[str, tuple[str, ...]] = {}

        def put(metric: str, value: float, *spans: str) -> None:
            m[metric] = value
            needs[metric] = spans

        for layer in LAYERS:
            put(f"{layer}.self_s", per_round(layer_self[layer]))

        rw = "walk.run_walk"
        put("walk.run_walk.calls", per_round(calls[rw]), rw)
        put("walk.run_walk.self_s", per_round(own[rw]), rw)
        put("walk.measure.self_s", per_round(own["walk.measure"]), "walk.measure")
        coin = info[(rw, "coin_applications")]
        put("walk.coin_applications", per_round(coin), rw)
        put("walk.coin_applications_per_s", rate(coin, own[rw]), rw)

        lg, au = "training.loss_gradient", "training.apply_update"
        put("training.iterations", iterations)
        put("training.train.self_s", per_round(own["training.train"]), "training.train")
        put("training.loss_gradient.calls", per_round(calls[lg]), lg)
        put("training.loss_gradient.self_s", per_round(own[lg]), lg)
        put("training.apply_update.self_s", per_round(own[au]), au)
        put(
            "training.metrics.self_s",
            per_round(own["training.mse_loss"] + own["training.fidelity"]),
            "training.mse_loss",
            "training.fidelity",
        )
        put(
            "training.forward_walks_per_iter",
            per_round(walks_under["training.train"]) / iterations if iterations else 0.0,
            rw,
            "training.train",
        )

        for n in SIZES:
            put(f"walk.run_walk.ms_per_call.n{n}", ms_per_call(rw, n), rw)
            put(f"training.loss_gradient.ms_per_call.n{n}", ms_per_call(lg, n), lg)
            put(f"training.apply_update.ms_per_call.n{n}", ms_per_call(au, n), au)

        put(
            "targets.target_from_spec.self_s",
            per_round(own["targets.target_from_spec"]),
            "targets.target_from_spec",
        )

        for fn in ("build_sampler", "draw", "encode_bits", "pack_bits", "counts_by_position"):
            name = f"sampling.{fn}"
            put(f"{name}.self_s", per_round(own[name]), name)
        for fn in ("draw", "encode_bits"):
            name = f"sampling.{fn}"
            put(f"{name}.outcomes_per_s", rate(info[(name, "outcomes")], own[name]), name)

        rs = "analysis.robustness_sweep"
        put(f"{rs}.self_s", per_round(own[rs]), rs)
        put(f"{rs}.walks", per_round(walks_under[rs]), rs, rw)
        for fn in ("quantize_schedule", "chi_square_test", "entropy_report"):
            name = f"analysis.{fn}"
            put(f"{name}.self_s", per_round(own[name]), name)

        fileio_spans = [name for name in SHIMS if name.startswith("fileio.")]
        for name in fileio_spans:
            put(f"{name}.self_s", per_round(own[name]), name)
        for key in ("bytes_written", "bytes_read"):
            total = sum(info[(name, key)] for name in fileio_spans)
            put(f"fileio.{key}", per_round(total))
        for fn in ("write_indices", "read_indices"):
            name = f"fileio.{fn}"
            put(f"{name}.outcomes_per_s", rate(info[(name, "outcomes")], own[name]), name)

        put("cli.calls", per_round(sum(calls[f"cli.{c}"] for c in CLI_COMMANDS)))
        for c in CLI_COMMANDS:
            put(f"cli.{c}.self_s", per_round(own[f"cli.{c}"]))

        put("trace.wall_s", traced_wall)
        put("trace.unattributed_s", per_round(own[ROOT_SPAN]))

        missing = {name for name in SHIMS if name not in self.available}
        return {k: v for k, v in m.items() if not missing.intersection(needs[k])}

