#!/usr/bin/env python3
"""Benchmark of qwrng: one workload per process, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 15 --trace 0

The workload's inputs are generated from ``--seed``.  The run first measures
set-up (importing qwrng from ``src/`` and generating the inputs) in fresh
child processes and once in this process, then runs one warm-up round of the
workload's operations, checks every output of that round in full, and
repeats rounds for up to ``--seconds``.  Each later round must reproduce the
warm-up round's outputs byte for byte.  Operations run one after another:
the next starts only when the previous one has returned.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` alternates plain rounds with traced ones and prints the
per-layer metrics, including the tracing overhead; the spans are written to
``.perfbench/spans/``.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench"

#: Set-ups measured in fresh child processes, besides the one in this process.
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 120


def setup(name: str, seed: int, workdir: Path):
    """Import qwrng from the checkout and generate the workload's inputs.

    Returns the elapsed seconds, as measured, and the workload's operations.
    """
    workdir.mkdir(parents=True)
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import qwrng
    import workloads

    ops = workloads.make(name, seed, workdir)
    elapsed = time.perf_counter() - start
    if Path(qwrng.__file__).resolve().parent != SRC / "qwrng":
        raise SystemExit(f"error: qwrng was imported from {qwrng.__file__}, not from {SRC}")
    return elapsed, ops


def probe_setup(name: str, seed: int, workdir: Path) -> float:
    """Time one set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--probe-setup", str(workdir)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def run_round(ops, tracer: Tracer | None = None):
    """Run every operation once, in order; return their seconds and results.

    The calibration kernel runs before the first operation and after each
    one, and each operation's seconds are scaled to the kernel's reference
    speed by the mean of the two kernel times around it.
    """
    import calibrate  # here, not at the top: it imports numpy, which set-up times

    seconds, results, kernel = [], [], [calibrate.time_kernel()]
    for op in ops:
        scope = tracer.op(op.command) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                result = op.call()
        except Exception as exc:  # a crashing operation counts as failed; the run goes on
            result = exc
            print(f"error: {op.label}: {exc!r}", file=sys.stderr)
        seconds.append(time.perf_counter() - start)
        results.append(result)
        kernel.append(calibrate.time_kernel())
    scaled = [
        t * 2 * calibrate.CAL_REFERENCE_S / (before + after)
        for t, before, after in zip(seconds, kernel, kernel[1:])
    ]
    return scaled, seconds, results


class Checker:
    """Checks the warm-up round in full; later rounds must repeat its digests."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.reference: list[tuple[bool, str]] = []
        self.work: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def check(self, results) -> None:
        first = not self.reference
        for i, (op, result) in enumerate(zip(self.ops, results)):
            digest = op.digest(result)
            if first:
                ok, work = self._full_check(op, result)
                self.reference.append((ok, digest))
                self.work.append(work)
            else:
                ok = self.reference[i][0] and digest == self.reference[i][1]
                if not ok:
                    print(f"error: {op.label}: output differs from the warm-up round",
                          file=sys.stderr)
            self.attempted += 1
            self.failed += not ok

    @staticmethod
    def _full_check(op, result) -> tuple[bool, dict]:
        if isinstance(result, Exception):
            return False, {}
        try:
            return True, op.check(result)
        except Exception as exc:  # a wrong or unreadable output fails the operation
            print(f"error: {op.label}: check failed: {exc}", file=sys.stderr)
            return False, {}

    def per_round(self, key: str) -> float:
        return sum(w.get(key, 0) for w in self.work)

    def rate(self, key: str, seconds: list[float]) -> float:
        """``key`` work per second of the operations that did it, in one round."""
        busy = sum(t for t, w in zip(seconds, self.work) if key in w)
        return self.per_round(key) / busy if busy > 0 else 0.0


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(name: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((SRC / "qwrng").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "qwrng" / "__init__.py").is_file():
        raise SystemExit(f"error: no qwrng sources under {SRC}")

    if args.probe_setup:
        elapsed, _ = setup(args.workload, args.seed, Path(args.probe_setup))
        print(repr(elapsed))
        return 0

    run_dir = OUT / f"run-{os.getpid()}"
    try:
        setup_times = [
            probe_setup(args.workload, args.seed, run_dir / f"probe{i}")
            for i in range(SETUP_PROBES)
        ]
        elapsed, ops = setup(args.workload, args.seed, run_dir / "ops")
        setup_times.append(elapsed)
        return measure(args, spec, ops, setup_times)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, spec: dict, ops, setup_times: list[float]) -> int:
    checker = Checker(ops)
    _, _, results = run_round(ops)  # warm-up
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checker.check(results)

    tracer = Tracer() if args.trace else None
    plain: list[list[float]] = []  # scaled seconds of each operation, per round
    measured: list[list[float]] = []  # the same, as measured
    traced: list[list[float]] = []  # traced rounds, as measured
    traced_scaled: list[list[float]] = []
    start = time.perf_counter()
    last = 0.0  # seconds the previous pass of the loop took
    while not plain or time.perf_counter() - start + last <= args.seconds:
        begin = time.perf_counter()
        seconds, raw, results = run_round(ops)
        checker.check(results)
        plain.append(seconds)
        measured.append(raw)
        if tracer:
            tracer.install()
            try:
                seconds, raw, results = run_round(ops, tracer)
            finally:
                tracer.uninstall()
            checker.check(results)
            traced.append(raw)
            traced_scaled.append(seconds)
        last = time.perf_counter() - begin

    # One round's time, each operation at its median over the rounds: with a
    # handful of rounds this keeps one slow round from deciding the figure.
    wall = sum(statistics.median(r[i] for r in plain) for i in range(len(ops)))
    op_times = [t for r in plain for t in r]
    # Printed with the metrics but not reported to the JSON line: each is
    # missing or zero on some workload.
    extra: dict[str, tuple[float, str]] = {}
    if args.trace:
        # Span times are as measured, so the traced wall they add up to is too.
        values = tracer.layer_metrics(
            rounds=len(traced),
            iterations=checker.per_round("iterations"),
            traced_wall=statistics.fmean(sum(r) for r in traced),
        )
        values["trace.overhead_s"] = (
            sum(statistics.median(r[i] for r in traced_scaled) for i in range(len(ops))) - wall
        )
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "op_s_p50": statistics.median(op_times),
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
        # The 90th percentile only where at least ten operations lie beyond it.
        if len(op_times) >= 100:
            extra["op_s_p90"] = (statistics.quantiles(op_times, n=10, method="inclusive")[8], "s")
        for key, label in (("iterations", "train_iters"), ("walks", "walks"),
                           ("outcomes", "outcomes"), ("validated", "validated")):
            if checker.per_round(key):
                rate = statistics.median(checker.rate(key, r) for r in plain)
                extra[f"{label}_per_s"] = (rate, "1/s")

    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in values
    }
    absent = [m["name"] for m in wanted if m["name"] not in values]
    env = environment(args.workload, args.seed, args.trace)
    summary = {
        "measured_rounds": len(plain) + len(traced),
        "ops_per_round": len(ops),
        "timed_ops": len(op_times),
        "failed_ratio": checker.failed / checker.attempted,
        "measured_wall_s": statistics.median(sum(r) for r in measured),
        "speed_vs_reference": statistics.median(
            sum(r) / sum(m) for r, m in zip(plain, measured)
        ),
    }

    print(f"# qwrng benchmark: {json.dumps(env)}")
    for key, value in summary.items():
        print(f"  {key:<40} {value:.6g}" if isinstance(value, float) else f"  {key:<40} {value}")
    for name, (value, unit) in extra.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    if absent:
        print(f"  absent (function gone): {', '.join(absent)}")

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "summary": summary, "extra": extra, "metrics": metrics, "absent": absent,
              "op_seconds": plain, "measured_op_seconds": measured, "op_labels": [op.label for op in ops]}
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_dir / f"{stem}.jsonl")

    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
