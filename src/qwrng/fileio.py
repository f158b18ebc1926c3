"""Text formats for schedules, distributions, traces, reports and sample
streams; this module alone reads them and writes them, each file atomically.

Every float is written with 17 significant digits, which round-trips IEEE
doubles exactly, and rows are emitted in a fixed sort order, so writing the
same object twice produces byte-identical files.
"""

from __future__ import annotations

import math
import os
import re
from itertools import repeat, starmap
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import sampling
from .walk import CoinSchedule, Distribution, support_positions

#: How far a user-supplied target may deviate from unit mass before it is
#: rejected instead of renormalized.
LOAD_SUM_TOL = 1e-6

CSV_HEADER = "position,probability"


def format_float(x: float) -> str:
    return f"{x:.17g}"


def _write(path: str | Path, data: str | bytes) -> None:
    """Replace ``path`` with ``data`` through a temporary file beside it, so a
    failed write leaves the old file intact.  The temporary file is created
    with a plain ``open``, so its mode follows the umask like any new file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _table(header: str, row_format: str, rows: Iterable[Sequence]) -> str:
    """``header``, then ``row_format`` filled from each row, one line each."""
    return "\n".join([header, *starmap(row_format.format, rows)]) + "\n"


def _columns(text: str, kinds: Sequence[type], layout: str, skip: int = 0) -> list[list]:
    """Read the non-blank lines of ``text`` after the first ``skip`` as
    comma-separated rows, converting column ``j`` with ``kinds[j]``; return one
    list per column.  The typographic minus of hand-written files reads as '-'.

    Each column is converted in one call; only when that fails does a second,
    line-by-line pass find the first bad line and name it (counting from 1).
    """
    lines = text.replace("−", "-").splitlines()
    rows = list(filter(str.strip, lines))[skip:]
    if not rows:
        return [[] for _ in kinds]
    try:
        if len(kinds) == 1:  # no split: int() and float() reject a stray comma
            return [list(map(kinds[0], rows))]
        if set(map(str.count, rows, repeat(","))) == {len(kinds) - 1}:
            cells = ",".join(rows).split(",")
            return [list(map(kind, cells[j :: len(kinds)])) for j, kind in enumerate(kinds)]
    except ValueError:
        pass
    for lineno, line in [(n, line) for n, line in enumerate(lines, 1) if line.strip()][skip:]:
        parts = line.split(",")
        try:
            if len(parts) == len(kinds):
                for kind, part in zip(kinds, parts):
                    kind(part)
                continue
        except ValueError:
            pass
        raise ValueError(f"line {lineno}: expected {layout}, got {line!r}")


def _mapping(keys: list, values: list, what: str) -> dict:
    """``dict(zip(keys, values))``, rejecting a key that occurs twice."""
    mapping = dict(zip(keys, values))
    if len(mapping) != len(keys):
        seen: set = set()
        duplicate = next(key for key in keys if key in seen or seen.add(key))
        raise ValueError(f"duplicate row for {what} {duplicate}")
    return mapping


# --- coin schedules -------------------------------------------------------

_STEPS_RE = re.compile(r"^steps=(\d+)$")


def schedule_to_text(schedule: CoinSchedule) -> str:
    rows = ((t, m, r) for (t, m), r in zip(schedule.sorted_keys(), schedule.values.tolist()))
    return _table(f"steps={schedule.steps}", "{},{},{:.17g}", rows)


def schedule_from_text(text: str) -> CoinSchedule:
    header = next(filter(str.strip, text.splitlines()), "").strip()
    if not header:
        raise ValueError("empty schedule file")
    match = _STEPS_RE.match(header)
    if not match:
        raise ValueError(f"schedule file must start with 'steps=<n>', got {header!r}")
    t, m, r = _columns(text, (int, int, float), "'step,position,r'", skip=1)
    return CoinSchedule(int(match.group(1)), _mapping(list(zip(t, m)), r, "(step, position)"))


def write_schedule(schedule: CoinSchedule, path: str | Path) -> None:
    _write(path, schedule_to_text(schedule))


def read_schedule(path: str | Path) -> CoinSchedule:
    return schedule_from_text(Path(path).read_text(encoding="utf-8"))


# --- distributions and targets --------------------------------------------


def distribution_to_text(dist: Distribution) -> str:
    return _table(CSV_HEADER, "{},{:.17g}", zip(dist.support(), dist.values.tolist()))


def load_target(text: str, steps: int | None = None) -> Distribution:
    """Parse a 'position,probability' CSV into a target distribution.

    The rows must cover exactly the ``steps + 1`` parity-correct sites, each
    once; ``steps`` is inferred from the outermost row when it is None.  A
    total mass within ``LOAD_SUM_TOL`` of 1 is renormalized exactly; anything
    further off is rejected as unnormalized input.
    """
    has_header = next(filter(str.strip, text.splitlines()), "").strip().lower() == CSV_HEADER
    positions, probs = _columns(text, (int, float), "'position,probability'", skip=has_header)
    if not positions:
        raise ValueError("no data rows found")
    seen = _mapping(positions, probs, "position")
    if steps is None:
        steps = max(map(abs, positions))
        if len(seen) != steps + 1:  # checked before the (maybe huge) site list is built
            raise ValueError(
                f"rows must cover exactly the {steps + 1} sites of a {steps}-step walk;"
                f" {len(seen)} rows leave sites missing or unexpected"
            )
    expected = set(support_positions(steps))
    if set(seen) != expected:
        missing = sorted(expected - set(seen))
        extra = sorted(set(seen) - expected)
        raise ValueError(
            f"rows must cover exactly the sites {sorted(expected)};"
            f" missing {missing}, unexpected {extra}"
        )
    for pos, prob in seen.items():
        if not math.isfinite(prob) or prob < 0.0:
            raise ValueError(f"probability at position {pos} is {prob}, outside [0, 1]")
    total = math.fsum(seen.values())
    if abs(total - 1.0) > LOAD_SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}; expected 1 within {LOAD_SUM_TOL}")
    return Distribution(steps, {pos: prob / total for pos, prob in seen.items()})


def write_distribution(dist: Distribution, path: str | Path) -> None:
    _write(path, distribution_to_text(dist))


def read_distribution(path: str | Path, steps: int | None = None) -> Distribution:
    return load_target(Path(path).read_text(encoding="utf-8"), steps)


# --- training traces ------------------------------------------------------


def trace_to_text(iterations: Iterable[tuple[int, float, float]]) -> str:
    return _table("iteration,loss,fidelity", "{},{:.17g},{:.17g}", iterations)


def write_trace(iterations: Iterable[tuple[int, float, float]], path: str | Path) -> None:
    _write(path, trace_to_text(iterations))


# --- sample streams -------------------------------------------------------


def write_indices(stream: sampling.SampleStream, path: str | Path) -> None:
    """One decimal outcome index per line."""
    _write(path, "\n".join(map(str, stream.outcomes.tolist())) + "\n")


def read_indices(path: str | Path) -> np.ndarray:
    (values,) = _columns(Path(path).read_text(encoding="utf-8"), (int,), "an integer index")
    if not values:
        raise ValueError("no sample indices found")
    arr = np.array(values, dtype=np.int64)
    if arr.min() < 0:
        raise ValueError("sample indices must be non-negative")
    return arr


def write_bits(stream: sampling.SampleStream, path: str | Path) -> None:
    """Packed bit file plus a one-line sidecar header at ``<path>.meta``.

    The sidecar records the draw count, the per-outcome field width and how
    many zero bits pad the final byte.  It is replaced after the payload.
    """
    bits = sampling.encode_bits(stream, stream.n_outcomes)
    packed, padding = sampling.pack_bits(bits)
    _write(path, packed)
    _write(f"{path}.meta", f"count={stream.count} width={stream.width} padding_bits={padding}\n")


def read_bits(path: str | Path) -> np.ndarray:
    """Recover the outcome indices written by :func:`write_bits`."""
    meta_text = Path(f"{path}.meta").read_text(encoding="utf-8").strip()
    try:
        fields = dict(item.split("=", 1) for item in meta_text.split())
        count = int(fields["count"])
        width = int(fields["width"])
        padding = int(fields["padding_bits"])
    except (KeyError, ValueError):
        raise ValueError(f"malformed sidecar header {meta_text!r}") from None
    bits = sampling.unpack_bits(Path(path).read_bytes(), padding)
    idx = sampling.bits_to_indices(bits, width)
    if width == 0:  # a single-outcome stream: every index is 0 and takes no bits
        idx = np.zeros(count, dtype=np.int64)
    if idx.size != count:
        raise ValueError(f"sidecar promises {count} outcomes, file holds {idx.size}")
    return idx


# --- analysis reports -----------------------------------------------------


def report_to_text(rows: Sequence[tuple[str, object]]) -> str:
    cells = ((name, format_float(v) if isinstance(v, float) else v) for name, v in rows)
    return _table("metric,value", "{},{}", cells)


def write_report(rows: Sequence[tuple[str, object]], path: str | Path) -> None:
    _write(path, report_to_text(rows))
