"""Text formats for schedules, distributions, traces and sample streams.

Every float is written with 17 significant digits, which round-trips IEEE
doubles exactly, and rows are emitted in a fixed sort order, so writing the
same object twice produces byte-identical files.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import sampling
from .targets import CSV_HEADER, load_target, load_target_auto
from .walk import CoinSchedule, Distribution


def format_float(x: float) -> str:
    return f"{x:.17g}"


# --- coin schedules -------------------------------------------------------

_STEPS_RE = re.compile(r"^steps=(\d+)$")


def schedule_to_text(schedule: CoinSchedule) -> str:
    lines = [f"steps={schedule.steps}"]
    for (t, m), r in zip(schedule.sorted_keys(), schedule.values.tolist()):
        lines.append(f"{t},{m},{format_float(r)}")
    return "\n".join(lines) + "\n"


def schedule_from_text(text: str) -> CoinSchedule:
    lines = [ln.strip() for ln in text.replace("−", "-").splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty schedule file")
    header = _STEPS_RE.match(lines[0])
    if not header:
        raise ValueError(f"schedule file must start with 'steps=<n>', got {lines[0]!r}")
    steps = int(header.group(1))
    ratios: dict[tuple[int, int], float] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'step,position,r', got {line!r}")
        try:
            t, m, r = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if (t, m) in ratios:
            raise ValueError(f"line {lineno}: duplicate entry for step {t}, position {m}")
        ratios[(t, m)] = r
    return CoinSchedule(steps, ratios)


def write_schedule(schedule: CoinSchedule, path: str | Path) -> None:
    Path(path).write_text(schedule_to_text(schedule), encoding="utf-8")


def read_schedule(path: str | Path) -> CoinSchedule:
    return schedule_from_text(Path(path).read_text(encoding="utf-8"))


# --- distributions --------------------------------------------------------


def distribution_to_text(dist: Distribution) -> str:
    lines = [CSV_HEADER]
    for m, p in zip(dist.support(), dist.values.tolist()):
        lines.append(f"{m},{format_float(p)}")
    return "\n".join(lines) + "\n"


def write_distribution(dist: Distribution, path: str | Path) -> None:
    Path(path).write_text(distribution_to_text(dist), encoding="utf-8")


def read_distribution(path: str | Path, steps: int | None = None) -> Distribution:
    text = Path(path).read_text(encoding="utf-8")
    if steps is None:
        return load_target_auto(text)
    return load_target(text, steps)


# --- training traces ------------------------------------------------------


def trace_to_text(iterations: Iterable[tuple[int, float, float]]) -> str:
    lines = ["iteration,loss,fidelity"]
    for k, loss_value, fid in iterations:
        lines.append(f"{k},{format_float(loss_value)},{format_float(fid)}")
    return "\n".join(lines) + "\n"


def write_trace(iterations: Iterable[tuple[int, float, float]], path: str | Path) -> None:
    Path(path).write_text(trace_to_text(iterations), encoding="utf-8")


# --- sample streams -------------------------------------------------------


def write_indices(stream: sampling.SampleStream, path: str | Path) -> None:
    """One decimal outcome index per line."""
    body = "\n".join(str(int(i)) for i in stream.outcomes)
    Path(path).write_text(body + "\n", encoding="utf-8")


def read_indices(path: str | Path) -> np.ndarray:
    values = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            values.append(int(line))
        except ValueError:
            raise ValueError(f"line {lineno}: expected an integer index, got {raw!r}") from None
    if not values:
        raise ValueError("no sample indices found")
    arr = np.array(values, dtype=np.int64)
    if arr.min() < 0:
        raise ValueError("sample indices must be non-negative")
    return arr


def write_bits(stream: sampling.SampleStream, path: str | Path) -> None:
    """Packed bit file plus a one-line sidecar header at ``<path>.meta``.

    The sidecar records the draw count, the per-outcome field width and how
    many zero bits pad the final byte.
    """
    bits = sampling.encode_bits(stream, stream.n_outcomes)
    packed, padding = sampling.pack_bits(bits)
    p = Path(path)
    p.write_bytes(packed)
    meta = f"count={stream.count} width={stream.width} padding_bits={padding}\n"
    Path(str(p) + ".meta").write_text(meta, encoding="utf-8")


def read_bits(path: str | Path) -> np.ndarray:
    """Recover the outcome indices written by :func:`write_bits`."""
    p = Path(path)
    meta_text = Path(str(p) + ".meta").read_text(encoding="utf-8").strip()
    try:
        fields = dict(item.split("=", 1) for item in meta_text.split())
        count = int(fields["count"])
        width = int(fields["width"])
        padding = int(fields["padding_bits"])
    except (KeyError, ValueError):
        raise ValueError(f"malformed sidecar header {meta_text!r}") from None
    bits = sampling.unpack_bits(p.read_bytes(), padding)
    idx = sampling.bits_to_indices(bits, width)
    if idx.size != count:
        raise ValueError(f"sidecar promises {count} outcomes, file holds {idx.size}")
    return idx


# --- analysis reports -----------------------------------------------------


def robustness_to_text(curve) -> str:
    """CSV for a perturbation sweep: magnitude, mean and min fidelity."""
    lines = ["magnitude,mean_fidelity,min_fidelity"]
    for magnitude, mean_f, min_f in curve.points:
        lines.append(
            f"{format_float(magnitude)},{format_float(mean_f)},{format_float(min_f)}"
        )
    return "\n".join(lines) + "\n"


def write_robustness(curve, path: str | Path) -> None:
    Path(path).write_text(robustness_to_text(curve), encoding="utf-8")


def report_to_text(rows: Sequence[tuple[str, object]]) -> str:
    lines = ["metric,value"]
    for name, value in rows:
        if isinstance(value, float):
            lines.append(f"{name},{format_float(value)}")
        else:
            lines.append(f"{name},{value}")
    return "\n".join(lines) + "\n"


def write_report(rows: Sequence[tuple[str, object]], path: str | Path) -> None:
    Path(path).write_text(report_to_text(rows), encoding="utf-8")
