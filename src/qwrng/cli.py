"""Command-line workflows: train, simulate, sample, analyze.

Every command is a deterministic function of its flags and input files.
Exit codes: 0 on success, 1 on usage/validation/IO errors (an output the
disk has no room for included), an allocation that does not fit in memory,
a number too large to represent or an interrupt (with a one-line
``error: ...`` diagnostic on stderr), 2 when training ran out of iterations
without converging (artifacts are still written).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings

from . import fileio
from .analysis import chi_square_test, entropy_report, quantize_schedule
from .sampling import ChunkedStream, build_sampler, counts_by_position
from .targets import target_from_spec
from .training import TrainConfig, fidelity, train
from .walk import NAMED_COIN_VECTORS, CoinSchedule, Distribution, initial_state, measure, run_walk

#: Coin state used for training and schedule-level analysis.  For real
#: (ratio-parameterized) schedules the two circular states produce the same
#: output distribution, so one trained schedule serves both.
DEFAULT_TRAIN_STATE = "circ-left"


class _Parser(argparse.ArgumentParser):
    """argparse with the project's exit-code and diagnostic contract."""

    def error(self, message: str) -> None:  # type: ignore[override]
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _steps(text: str) -> int:
    """Walk length for ``--steps``: an ``int`` whose ``steps + 1`` sites can
    be counted in a C ``ssize_t``."""
    try:
        steps = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if steps >= sys.maxsize:
        raise argparse.ArgumentTypeError(f"{steps} is too large for a walk length")
    return steps


def _parse_coin_vector(text: str) -> tuple[complex, complex]:
    if text in NAMED_COIN_VECTORS:
        return NAMED_COIN_VECTORS[text]
    if text.startswith("custom:"):
        parts = text[len("custom:"):].split(",")
        if len(parts) != 4:
            raise ValueError(
                f"custom state needs four numbers aL_re,aL_im,aR_re,aR_im, got {text!r}"
            )
        try:
            a, b, c, d = (float(p) for p in parts)
        except ValueError:
            raise ValueError(f"non-numeric component in {text!r}") from None
        return complex(a, b), complex(c, d)
    names = ", ".join(NAMED_COIN_VECTORS)
    raise ValueError(f"unknown initial state {text!r} (use {names} or custom:...)")


def _parse_init(text: str, steps: int) -> CoinSchedule:
    """The ``steps``-step schedule that training starts from: const:R0 or rand:SEED."""
    if text.startswith("const:"):
        try:
            ratio = float(text[len("const:"):])
        except ValueError:
            raise ValueError(f"expected const:<ratio>, got {text!r}") from None
        if not (0.0 <= ratio <= 1.0):
            raise ValueError(f"init ratio must lie in [0, 1], got {ratio}")
        return CoinSchedule.constant(steps, ratio)
    if text.startswith("rand:"):
        try:
            seed = int(text[len("rand:"):])
        except ValueError:
            raise ValueError(f"expected rand:<seed>, got {text!r}") from None
        if seed < 0:
            raise ValueError(f"init seed must be non-negative, got {seed}")
        return CoinSchedule.random(steps, seed)
    raise ValueError(f"unknown init spec {text!r} (use const:R0 or rand:SEED)")


def _file_target(spec: str) -> str | None:
    return spec[len("file:"):] if spec.startswith("file:") else None


def _check_inputs_kept(outputs: list[str], *inputs: str | None) -> None:
    """Refuse an output that names an existing input, before anything is read
    or drawn: writing it would replace the file that the command reads."""
    for path in inputs:
        if path is not None and os.path.exists(path):
            for out in outputs:
                fileio.check_distinct(path, out)


def _output(schedule: CoinSchedule, coin_vector: tuple[complex, complex]) -> Distribution:
    """Output distribution of ``schedule`` walked from ``coin_vector``."""
    return measure(run_walk(initial_state(coin_vector), schedule))


def cmd_train(args: argparse.Namespace) -> int:
    _check_inputs_kept([args.out, args.log], _file_target(args.target))
    target = target_from_spec(args.target, args.steps)
    start = _parse_init(args.init, target.steps)
    config = TrainConfig(eta=args.eta, max_iters=args.max_iters, fidelity_goal=args.fidelity_goal)
    state = initial_state(NAMED_COIN_VECTORS[DEFAULT_TRAIN_STATE])
    report = train(state, target, config, start)
    with fileio.all_or_none():
        fileio.write_schedule(report.final_schedule, args.out)
        fileio.write_trace(report.iterations, args.log)
    return 0 if report.converged else 2


def cmd_simulate(args: argparse.Namespace) -> int:
    _check_inputs_kept([args.out], args.schedule)
    schedule = fileio.read_schedule(args.schedule)
    fileio.write_distribution(_output(schedule, _parse_coin_vector(args.initial)), args.out)
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    bits = args.format == "bits"
    _check_inputs_kept([args.out, f"{args.out}.meta"] if bits else [args.out], args.schedule)
    schedule = fileio.read_schedule(args.schedule)
    sampler = build_sampler(_output(schedule, _parse_coin_vector(args.initial)), args.seed)
    # drawn chunk by chunk while the file is written, so memory does not grow with --count
    stream = ChunkedStream(sampler, args.count)
    write = fileio.write_bits if bits else fileio.write_indices
    write(stream, args.out)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    _check_inputs_kept([args.out], args.samples, args.schedule, _file_target(args.target))
    if args.quantize_deg is not None and args.schedule is None:
        raise ValueError("--quantize-deg needs --schedule")

    schedule = fileio.read_schedule(args.schedule) if args.schedule else None
    steps = schedule.steps if schedule else args.steps  # None: inferred from a file: target
    if schedule and args.steps not in (None, steps):
        raise ValueError(f"--steps {args.steps} does not match the {steps}-step schedule")
    if steps is None and not args.target.startswith("file:"):
        raise ValueError("need --steps (or --schedule) to size this target")

    target = target_from_spec(args.target, steps)

    # tallied block by block, so memory does not grow with the sample count
    counts = sum(counts_by_position(c, target.steps) for c in fileio.iter_indices(args.samples))
    empirical = Distribution(target.steps, counts / counts.sum())
    quantization: list[tuple[str, object]] = []
    if args.quantize_deg is not None:
        coin_vector = NAMED_COIN_VECTORS[DEFAULT_TRAIN_STATE]
        coarse = quantize_schedule(schedule, args.quantize_deg)
        exact = fidelity(_output(schedule, coin_vector), target)
        quantized = fidelity(_output(coarse, coin_vector), target)
        quantization = [
            ("schedule_fidelity", exact),
            ("quantized_fidelity", quantized),
            ("quantized_fidelity_delta", exact - quantized),
        ]
    with warnings.catch_warnings(record=True) as held:  # shown once the report is written
        chi2 = chi_square_test(counts, target)
    shannon, min_entropy = entropy_report(empirical)

    rows: list[tuple[str, object]] = [
        ("samples", int(counts.sum())),
        ("chi_square_statistic", chi2.statistic),
        ("chi_square_dof", chi2.dof),
        ("chi_square_p_value", chi2.p_value),
        ("shannon_entropy_bits", shannon),
        ("min_entropy_bits", min_entropy),
        ("empirical_fidelity", fidelity(empirical, target)),
    ]
    fileio.write_report(rows + quantization, args.out)
    for w in held:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return 0


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qwrng",
        description="Train biased quantum walks and generate distribution-shaped random numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser(
        "train", help="fit a coin schedule to a target distribution"
    )
    p_train.add_argument("--steps", type=_steps, required=True, help="walk length n")
    p_train.add_argument(
        "--target", required=True, help="uniform | gaussian:MU,SIGMA | file:PATH"
    )
    p_train.add_argument(
        "--eta", type=float, default=TrainConfig.eta, help="learning rate in (0,1]"
    )
    p_train.add_argument("--max-iters", type=int, default=TrainConfig.max_iters)
    p_train.add_argument("--fidelity-goal", type=float, default=TrainConfig.fidelity_goal)
    p_train.add_argument(
        "--init",
        default="const:0.5",
        help="const:R0 | rand:SEED (the schedule training starts from)",
    )
    p_train.add_argument("--out", required=True, help="schedule file to write")
    p_train.add_argument("--log", required=True, help="per-iteration trace CSV to write")
    p_train.set_defaults(func=cmd_train)

    p_sim = sub.add_parser("simulate", help="run a schedule and write its distribution")
    p_sim.add_argument("--schedule", required=True)
    p_sim.add_argument(
        "--initial",
        default=DEFAULT_TRAIN_STATE,
        help="L | R | circ-left | circ-right | custom:aL_re,aL_im,aR_re,aR_im",
    )
    p_sim.add_argument("--out", required=True, help="distribution CSV to write")
    p_sim.set_defaults(func=cmd_simulate)

    p_sample = sub.add_parser("sample", help="draw seeded outcomes from a schedule's walk")
    p_sample.add_argument("--schedule", required=True)
    p_sample.add_argument("--initial", default=DEFAULT_TRAIN_STATE)
    p_sample.add_argument("--count", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--format", choices=("indices", "bits"), default="indices")
    p_sample.add_argument("--out", required=True)
    p_sample.set_defaults(func=cmd_sample)

    p_an = sub.add_parser("analyze", help="statistical report for a sample file")
    p_an.add_argument("--samples", required=True, help="indices file written by sample")
    p_an.add_argument("--target", required=True, help="uniform | gaussian:MU,SIGMA | file:PATH")
    p_an.add_argument("--steps", type=_steps, help="walk length (when no --schedule is given)")
    p_an.add_argument("--schedule", help="schedule file for fidelity/quantization checks")
    p_an.add_argument("--quantize-deg", type=float, help="wave-plate resolution to test")
    p_an.add_argument("--out", required=True, help="report CSV to write")
    p_an.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
