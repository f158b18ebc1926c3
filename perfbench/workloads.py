"""The four benchmark workloads: inputs drawn from a seed, operations, checks.

Every input (schedules, targets, init seeds and sample seeds) is drawn from
the workload seed; qwrng receives only these generated inputs.  Each
operation is one call of a public entry point, ``qwrng.cli.main(argv)`` or a
library function, looked up on its module at call time so that the traced
run's shims see it.  The brute-force oracle appears only in checks, which
run outside the timed region.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qwrng import analysis, cli, fileio, oracle, sampling, targets, training, walk

#: Coin state the CLI trains, simulates and samples with by default.
STATE = walk.NAMED_COIN_VECTORS[cli.DEFAULT_TRAIN_STATE]

#: Fidelity the program reports must match the dense oracle this closely.
ORACLE_TOL = 1e-12
#: A simulated distribution must carry unit mass within this tolerance.
MASS_TOL = 1e-9
#: Smallest chi-square p-value accepted for a stream against its own source.
MIN_P_VALUE = 1e-6


class CheckFailed(Exception):
    """An operation's output is wrong."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    """One operation: a timed call and the check of what it produced."""

    label: str
    call: Callable[[], Any]
    #: Full correctness check of ``call``'s result; raises CheckFailed and
    #: returns the work the operation did, e.g. ``{"iterations": 20}``.
    check: Callable[[Any], dict]
    #: Files the operation writes; their bytes must repeat within a run.
    outputs: tuple[Path, ...] = ()
    #: CLI command name, or None for a library call.
    command: str | None = None

    def digest(self, result: Any) -> str:
        h = hashlib.sha256(repr(result).encode())
        for path in self.outputs:
            h.update(path.read_bytes() if path.exists() else b"<missing>")
        return h.hexdigest()


def _cli_op(argv: list[str], check: Callable[[int], dict], outputs: tuple[Path, ...]) -> Op:
    return Op(" ".join(argv), lambda: cli.main(argv), check, outputs, argv[0])


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, list(BUILDERS).index(name)])


def _schedule(steps: int, values: np.ndarray) -> walk.CoinSchedule:
    return walk.CoinSchedule.constant(steps).with_array(values)


def _trace_rows(log: Path) -> list[list[str]]:
    rows = [line.split(",") for line in log.read_text(encoding="utf-8").splitlines()]
    _expect(rows[0] == ["iteration", "loss", "fidelity"], f"{log.name}: bad header")
    _expect(len(rows) > 1, f"{log.name}: no iterations")
    return rows[1:]


def _train_op(
    workdir: Path, tag: str, steps: int, target: str, extra: list[str], max_iters: int
) -> Op:
    """``qwrng train``: exit 0 on convergence, 2 when the budget ran out."""
    out, log = workdir / f"{tag}.schedule", workdir / f"{tag}.trace.csv"
    argv = ["train", "--steps", str(steps), "--target", target, *extra]
    argv += ["--out", str(out), "--log", str(log)]

    def check(code: int) -> dict:
        _expect(code in (0, 2), f"exit code {code}")
        rows = _trace_rows(log)
        iterations = len(rows) - 1
        if code == 2:
            _expect(iterations == max_iters, f"{iterations} iterations, budget {max_iters}")
        if steps <= oracle.MAX_DENSE_STEPS:
            schedule = fileio.read_schedule(out)
            exact = training.fidelity(
                oracle.dense_walk(schedule, STATE), targets.target_from_spec(target, steps)
            )
            reported = float(rows[-1][2])
            _expect(
                abs(exact - reported) <= ORACLE_TOL,
                f"trace fidelity {reported!r} vs oracle {exact!r}",
            )
        return {"iterations": iterations}

    return _cli_op(argv, check, (out, log))


def _budget_op(workdir: Path, tag: str, steps: int, rng: np.random.Generator, max_iters: int) -> Op:
    """Training toward a seed-drawn Gaussian from a seed-drawn random start,
    run for exactly ``max_iters`` updates."""
    mu = round(float(rng.uniform(-steps / 2, steps / 2)), 3)
    sigma = round(float(rng.uniform(1.0 + steps / 8, 1.0 + steps / 2)), 3)
    extra = ["--init", f"rand:{int(rng.integers(0, 2**31))}", "--max-iters", str(max_iters),
             "--fidelity-goal", "1.0"]
    return _train_op(workdir, tag, steps, f"gaussian:{mu},{sigma}", extra, max_iters)


def _mass_check(dist_path: Path, steps: int) -> None:
    rows = dist_path.read_text(encoding="utf-8").splitlines()[1:]
    _expect(len(rows) == steps + 1, f"{dist_path.name}: {len(rows)} rows for {steps} steps")
    mass = math.fsum(float(row.split(",")[1]) for row in rows)
    _expect(abs(mass - 1.0) <= MASS_TOL, f"{dist_path.name}: mass {mass!r}")


def _simulate_op(workdir: Path, tag: str, schedule_path: Path, steps: int) -> Op:
    out = workdir / f"{tag}.dist.csv"

    def check(code: int) -> dict:
        _expect(code == 0, f"exit code {code}")
        _mass_check(out, steps)
        return {}

    return _cli_op(["simulate", "--schedule", str(schedule_path), "--out", str(out)], check, (out,))


# --- train-small -----------------------------------------------------------


def train_small(seed: int, workdir: Path) -> list[Op]:
    """~100 short trainings at n = 4 and 8, led by the gate-3 and gate-4 jobs.

    The other jobs run exactly ``max_iters`` updates (a fidelity goal of 1 is
    never met), so the work in a round does not depend on the seed.  Their
    n = 4 jobs outnumber the n = 8 ones, so that the median operation is an
    n = 4 job and the 90th percentile an n = 8 one, not a boundary between
    the two.
    """
    rng = _rng("train-small", seed)
    ops = [
        _train_op(workdir, "gate3", 4, "uniform", [], 500),
        _train_op(workdir, "gate4", 4, "gaussian:0,2", [], 500),
    ]
    max_iters = 20
    sizes = rng.permutation([4] * 64 + [8] * 34)
    for i, steps in enumerate(sizes.tolist()):
        ops.append(_budget_op(workdir, f"job{i}", steps, rng, max_iters))
    return ops


# --- train-large -----------------------------------------------------------


def train_large(seed: int, workdir: Path) -> list[Op]:
    """Training at n = 64 on a fixed budget, plus one n = 16 job and the
    n = 256 simulate and one-update train that the kernel cost dominates.

    The n = 64 budget is split over six short jobs rather than two long
    ones: the median operation is then one of six alike, and each is short
    enough for the calibration kernels around it to catch the host's speed.
    """
    rng = _rng("train-large", seed)
    big = 256
    schedule_path = workdir / "input-n256.schedule"
    ratios = rng.uniform(0.0, 1.0, big * (big + 1) // 2)
    fileio.write_schedule(_schedule(big, ratios), schedule_path)
    ops = [_budget_op(workdir, f"n64-{i}", 64, rng, 5) for i in range(6)]
    ops.append(_budget_op(workdir, "n16", 16, rng, 60))
    ops.append(_simulate_op(workdir, "n256", schedule_path, big))
    ops.append(_budget_op(workdir, "n256", big, rng, 1))
    return ops


# --- robustness ------------------------------------------------------------

MAGNITUDES = (0.0, 0.01, 0.03, 0.1)
RESOLUTIONS_DEG = (0.1, 0.25, 0.5, 1.0)


def _sweep_op(tag: str, schedule: walk.CoinSchedule, trials: int, seed: int) -> Op:
    """``robustness_sweep`` against the schedule's own output."""
    state = walk.initial_state(STATE)

    def call():
        target = walk.measure(walk.run_walk(state, schedule))
        return analysis.robustness_sweep(schedule, state, target, MAGNITUDES, trials, seed)

    def check(curve) -> dict:
        target = walk.measure(walk.run_walk(state, schedule))
        exact = training.fidelity(target, target)
        _expect([p[0] for p in curve.points] == list(MAGNITUDES), "magnitudes changed")
        _expect(
            abs(curve.points[0][1] - exact) <= ORACLE_TOL,
            f"mean fidelity at magnitude 0 is {curve.points[0][1]!r}, exact {exact!r}",
        )
        for d, mean, low in curve.points:
            _expect(0.0 <= low <= mean <= 1.0 + ORACLE_TOL, f"magnitude {d}: min {low}, mean {mean}")
        return {"walks": 1 + len(MAGNITUDES) * trials}

    return Op(f"robustness_sweep {tag}", call, check)


def _quantize_op(tag: str, schedule: walk.CoinSchedule, resolution_deg: float) -> Op:
    """``quantize_schedule`` at one wave-plate resolution."""

    def check(quantized) -> dict:
        # The plate angle is rounded to the grid, so the coin angle (twice
        # the plate angle) moves by at most one resolution step.
        theta = np.arccos(np.sqrt(schedule.to_array()))
        moved = np.abs(np.arccos(np.sqrt(quantized.to_array())) - theta).max()
        _expect(moved <= math.radians(resolution_deg) + 1e-9, f"coin angle moved {moved}")
        return {}

    return Op(
        f"quantize_schedule {tag} {resolution_deg}",
        lambda: analysis.quantize_schedule(schedule, resolution_deg),
        check,
    )


def robustness(seed: int, workdir: Path) -> list[Op]:
    """Perturbation sweeps and quantization on six n = 16 and two n = 64
    random schedules.

    The quantizations are the fast majority of operations, so the median
    operation is one of them and the 90th percentile an n = 16 sweep.
    """
    rng = _rng("robustness", seed)
    ops = []
    for steps, count, trials in ((16, 6, 25), (64, 2, 6)):
        for i in range(count):
            tag = f"n{steps}-{i}"
            schedule = _schedule(steps, rng.uniform(0.0, 1.0, steps * (steps + 1) // 2))
            ops.append(_sweep_op(tag, schedule, trials, int(rng.integers(0, 2**63))))
            ops += [_quantize_op(tag, schedule, res) for res in RESOLUTIONS_DEG]
    return ops


# --- rng-stream ------------------------------------------------------------

INDEX_COUNT = 10**6
BITS_COUNT = 10**7
#: Expected count every outcome must reach at INDEX_COUNT draws, the usual
#: condition for the chi-square approximation to hold.
MIN_EXPECTED = 5.0


def _stream_schedule(rng: np.random.Generator, steps: int) -> walk.CoinSchedule:
    """Random schedule whose every outcome is likely enough for chi-square."""
    state = walk.initial_state(STATE)
    while True:
        schedule = _schedule(steps, rng.uniform(0.3, 0.7, steps * (steps + 1) // 2))
        probs = walk.measure(walk.run_walk(state, schedule)).as_array()
        if probs.min() * INDEX_COUNT >= MIN_EXPECTED:
            return schedule


def rng_stream(seed: int, workdir: Path) -> list[Op]:
    """simulate -> sample 10^6 indices -> analyze -> sample 10^7 bits, n = 16.

    The indices are analyzed twice, the second time with the schedule's
    quantization check as well, so that the median operation falls inside
    the cluster of 10^6-outcome operations, not between two of them.
    """
    rng = _rng("rng-stream", seed)
    steps = 16
    schedule = _stream_schedule(rng, steps)
    schedule_path = workdir / "input-n16.schedule"
    fileio.write_schedule(schedule, schedule_path)
    index_seed, bits_seed = (str(int(s)) for s in rng.integers(0, 2**63, size=2))
    dist = workdir / "n16.dist.csv"
    indices = workdir / "n16.indices.txt"
    bits = workdir / "n16.bits"

    def sample_argv(fmt: str, count: int, sample_seed: str, out: Path) -> list[str]:
        return ["sample", "--schedule", str(schedule_path), "--count", str(count),
                "--seed", sample_seed, "--format", fmt, "--out", str(out)]

    def check_indices(code: int) -> dict:
        _expect(code == 0, f"exit code {code}")
        return {"outcomes": INDEX_COUNT}

    def analyze_op(tag: str, extra: list[str]) -> Op:
        report = workdir / f"n16.{tag}.csv"
        argv = ["analyze", "--samples", str(indices), "--target", f"file:{dist}", *extra,
                "--out", str(report)]

        def check(code: int) -> dict:
            _expect(code == 0, f"exit code {code}")
            rows = dict(line.split(",", 1) for line in report.read_text(encoding="utf-8").splitlines())
            _expect(int(rows["samples"]) == INDEX_COUNT, f"report covers {rows['samples']} samples")
            p = float(rows["chi_square_p_value"])
            _expect(p > MIN_P_VALUE, f"chi-square p-value {p!r} against the source distribution")
            if "schedule_fidelity" in rows:
                exact = float(rows["schedule_fidelity"])
                _expect(abs(exact - 1.0) <= ORACLE_TOL, f"schedule fidelity {exact!r} to its own output")
            return {"validated": INDEX_COUNT}

        return _cli_op(argv, check, (report,))

    def check_bits(code: int) -> dict:
        _expect(code == 0, f"exit code {code}")
        source = walk.measure(walk.run_walk(walk.initial_state(STATE), schedule))
        fresh = sampling.draw(sampling.build_sampler(source, int(bits_seed)), BITS_COUNT)
        _expect(
            np.array_equal(fileio.read_bits(bits), fresh.outcomes),
            "bits file differs from a fresh draw with the same seed",
        )
        return {"outcomes": BITS_COUNT}

    ops = [
        _simulate_op(workdir, "n16", schedule_path, steps),
        _cli_op(sample_argv("indices", INDEX_COUNT, index_seed, indices), check_indices, (indices,)),
        analyze_op("report", []),
        analyze_op("quantized", ["--schedule", str(schedule_path), "--quantize-deg", "0.25"]),
        _cli_op(
            sample_argv("bits", BITS_COUNT, bits_seed, bits),
            check_bits,
            (bits, Path(f"{bits}.meta")),
        ),
    ]
    return ops


BUILDERS = {
    "train-small": train_small,
    "train-large": train_large,
    "robustness": robustness,
    "rng-stream": rng_stream,
}


def make(name: str, seed: int, workdir: Path) -> list[Op]:
    """Generate the named workload's inputs from ``seed`` under ``workdir``."""
    return BUILDERS[name](seed, workdir)
