"""Text formats for schedules, distributions, traces, reports and sample
streams; this module alone reads them and writes them, each file atomically.
Every write belongs to an artifact set: the writes inside :func:`all_or_none`
form one, and none of its targets is replaced until all of its files are
written; a write on its own is a set of one.

Sample streams move in chunks both ways, so memory does not grow with their
length: the writers draw and encode the chunks of a
:class:`sampling.ChunkedStream` on ``_WORKERS`` threads and write them in
order, with at most two chunks per worker drawn and not yet written, and
:func:`iter_indices` reads every index file one block of whole lines at a
time, parsing each block on its own.  Before the first chunk, a
writer checks that the target's file system has room for the payload, so an
impossible count fails at once instead of filling the disk.  Every target
passes :func:`check_outputs`, the one guard on outputs, which each command
also calls before it reads, trains or draws.

Every float is written with 17 significant digits, which round-trips IEEE
doubles exactly, and rows are emitted in a fixed sort order, so writing the
same object twice produces byte-identical files.  A schedule file is written
by filling one template per walk length, and its lines, with any line ends,
are read without converting their keys; any other text (rows in another
order, blank lines, ``−``) goes to the general reader, with its diagnostics.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import functools
import math
import os
import re
import shutil
from itertools import combinations, filterfalse, repeat, starmap
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import sampling
from .walk import CoinSchedule, Distribution, _schedule_key, _triangle, schedule_keys

#: How far a user-supplied target may deviate from unit mass before it is
#: rejected instead of renormalized.
LOAD_SUM_TOL = 1e-6

CSV_HEADER = "position,probability"


def format_float(x: float) -> str:
    return f"{x:.17g}"


#: The temporary files filled in the current :func:`all_or_none` block, with their targets.
_staged: contextvars.ContextVar[list[tuple[str, str | Path]] | None] = contextvars.ContextVar(
    "_staged", default=None
)


def _write(
    path: str | Path, data: str | Iterable[bytes | np.ndarray], at_least: int = 0
) -> None:
    """Replace ``path`` with ``data``, a text or byte chunks written in order,
    through a temporary file beside it, so a failed write (also one that fails
    while the chunks are produced) leaves the old file intact.  The temporary
    file is created with a plain ``open``, so its mode follows the umask like
    any new file.  A write promised to take ``at_least`` bytes fails before
    its first chunk when the directory has less space free.  The replace waits
    for the end of the :func:`all_or_none` block, a set of one outside any;
    :func:`check_outputs` runs on the block's targets and ``path`` first.  A
    byte chunk is ``bytes`` or a contiguous uint8 array."""
    if (staged := _staged.get()) is None:
        with all_or_none():
            return _write(path, data, at_least)
    check_outputs([*(done for _, done in staged), path])
    if at_least:
        free = shutil.disk_usage(Path(path).parent).free
        if at_least > free:
            raise OSError(f"{path} needs at least {at_least} bytes, but only {free} are free")
    tmp = f"{path}.{os.getpid()}.tmp"
    with _removed_on_error(tmp, path), open(tmp, "wb") as fh:
        fh.writelines([data.encode("utf-8")] if isinstance(data, str) else data)
    staged.append((tmp, path))


def check_outputs(outputs: Sequence[str | Path], inputs: Iterable[str | Path | None] = ()) -> None:
    """The one guard on a command's outputs, run before any work.  It refuses,
    in this order: two outputs with the same last component and real path
    (only those share a rename target); an output whose rename would replace
    an existing input, read through any symlink; an existing target that is
    not a regular file; one whose directory is missing, as ``open`` would.
    Real paths are resolved only for a shared last component or an input."""
    for first, out in combinations(outputs, 2):
        same_name = os.path.basename(first) == os.path.basename(out)
        if same_name and os.path.realpath(first) == os.path.realpath(out):
            raise ValueError(f"{first} and {out} name the same file")
    for source in [path for path in inputs if path and os.path.exists(path)]:
        for out in outputs:  # the rename lands on the last component in the real directory
            folder, name = os.path.split(out)
            if os.path.realpath(source) == os.path.join(os.path.realpath(folder), name):
                raise ValueError(f"{source} and {out} name the same file")
    for out in filterfalse(os.path.isfile, outputs):  # one stat for a regular file
        if os.path.exists(out):
            raise OSError(f"{out} exists and is not a regular file")
        try:  # "dir/." fails as open would: ENOENT, or ENOTDIR past a file
            os.stat(os.path.join(os.path.dirname(out), "."))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(out)) from None


@contextlib.contextmanager
def _removed_on_error(tmp: str, path: str | Path) -> Iterator[None]:
    """Remove ``tmp`` when the block fails; an error naming ``tmp``, whose name
    changes per process, names ``path`` instead."""
    try:
        yield
    except BaseException as exc:
        Path(tmp).unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


@contextlib.contextmanager
def all_or_none() -> Iterator[None]:
    """Write a command's artifacts as one set.  Each write in the block fills
    its temporary file; the targets are replaced after the block, in the order
    they were written.  Two writes of one file are refused before the second
    fills anything.  A failure before the first replace removes every
    temporary file and leaves every target as it was.  Each replace is atomic
    on its own, so one that fails after another has happened (a rename in the
    same directory, so rarely) leaves the earlier targets new."""
    staged: list[tuple[str, str | Path]] = []
    token = _staged.set(staged)
    try:
        yield
        for tmp, path in staged:
            with _removed_on_error(tmp, path):
                os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            Path(tmp).unlink(missing_ok=True)
        raise
    finally:
        _staged.reset(token)


def _table(header: str, row_format: str, rows: Iterable[Sequence]) -> str:
    """``header``, then ``row_format`` filled from each row, one line each."""
    return "\n".join([header, *starmap(row_format.format, rows)]) + "\n"


def _columns(
    text: str, kinds: Sequence[type], layout: str, skip: int = 0, first: int = 1
) -> list[list]:
    """Read the non-blank lines of ``text`` after the first ``skip`` as
    comma-separated rows, converting column ``j`` with ``kinds[j]``; return one
    list per column.  The typographic minus of hand-written files reads as '-'.

    Each column is converted in one call; only when that fails does a second,
    line-by-line pass find the first bad line and name it, counting from
    ``first``, the number of the text's first line in its file.
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
    for lineno, line in [(n, line) for n, line in enumerate(lines, first) if line.strip()][skip:]:
        parts = line.split(",")
        try:
            if len(parts) == len(kinds):
                for kind, part in zip(kinds, parts):
                    kind(part)
                continue
        except ValueError:
            pass
        raise ValueError(f"line {lineno}: expected {layout}, got {line!r}")


def _place(
    values: list[float],
    slots: np.ndarray,
    size: int,
    mismatch: str,
    what: str,
    row_key: Callable[[int], object],
    slot_key: Callable[[int], object],
) -> np.ndarray:
    """Float64 array of ``size`` entries holding row ``k``'s value at ``slots[k]``,
    which is -1 for a row outside the walk.  A slot named twice is a duplicate
    row for ``what``; an unnamed slot or a row outside the walk is reported
    after ``mismatch`` as missing or unexpected, by the key that ``slot_key``
    or ``row_key`` gives."""
    hits = np.bincount(slots[slots >= 0], minlength=size)
    twice = np.flatnonzero(hits > 1)
    if twice.size:
        raise ValueError(f"duplicate row for {what} {slot_key(int(twice[0]))}")
    missing, outside = np.flatnonzero(hits == 0), np.flatnonzero(slots < 0)
    if missing.size or outside.size:
        missing = [slot_key(j) for j in missing[:5].tolist()]
        extra = [row_key(k) for k in outside[:5].tolist()]
        raise ValueError(
            f"{mismatch} (missing {missing[:4]}{'...' * (len(missing) > 4)},"
            f" unexpected {extra[:4]}{'...' * (len(extra) > 4)})"
        )
    placed = np.empty(size)
    placed[slots] = values
    return placed


# --- coin schedules -------------------------------------------------------

_STEPS_RE = re.compile(r"^steps=(\d+)$")
#: The header the writer writes; a walk of 10**9 steps has more rows than memory holds.
_CANONICAL_HEADER_RE = re.compile(r"steps=(0|[1-9][0-9]{0,8})")


@functools.lru_cache(maxsize=4)
def _schedule_layout(steps: int) -> tuple[str, tuple[str, ...]]:
    """The key text of a ``steps``-step schedule file: the writer's template,
    which takes one ratio per row, and each row's ``t,m,`` prefix."""
    prefixes = tuple(f"{t},{m}," for t, m in schedule_keys(steps))
    return "".join([f"steps={steps}\n", *(p + "%.17g\n" for p in prefixes)]), prefixes


def schedule_to_text(schedule: CoinSchedule) -> str:
    template, _ = _schedule_layout(schedule.steps)
    return template % tuple(schedule.values.tolist())


def schedule_from_text(text: str) -> CoinSchedule:
    """Parse a schedule file; its ``step,position,r`` rows may come in any order.

    Text whose lines, split as the general reader splits them, are those that
    :func:`schedule_to_text` writes is read without a per-cell conversion of
    its keys; no key text is built unless it has as many rows as its header's
    walk.  Other text goes to the general reader: the same result or error."""
    header, *rows = text.splitlines() or [""]
    match = _CANONICAL_HEADER_RE.fullmatch(header)
    if match and len(rows) == _triangle(steps := int(match[1])):
        _, prefixes = _schedule_layout(steps)
        if all(map(str.startswith, rows, prefixes)):
            try:  # a comma left in a ratio's text is an extra column: float rejects it
                ratios = list(map(float, map(str.removeprefix, rows, prefixes)))
            except ValueError:
                pass
            else:
                return CoinSchedule(steps, ratios)
    return _schedule_from_rows(text)


def _schedule_from_rows(text: str) -> CoinSchedule:
    """The general reader: rows in any order, blank lines, any line ends."""
    header = next(filter(str.strip, text.splitlines()), "").strip()
    if not header:
        raise ValueError("empty schedule file")
    match = _STEPS_RE.match(header)
    if not match:
        raise ValueError(f"schedule file must start with 'steps=<n>', got {header!r}")
    t, m, r = _columns(text, (int, int, float), "'step,position,r'", skip=1)
    steps = int(match.group(1))
    size = _triangle(steps)
    mismatch = f"schedule key set does not match a {steps}-step walk"
    if size > 2 * len(r):  # far too few rows: keeps the slot count and arithmetic small
        raise ValueError(f"{mismatch} ({len(r)} rows for {size} entries)")
    # numbers past int64 become object or float64 arrays; either lies outside the walk
    tt, mm = np.array(t), np.array(m)
    # step t covers the positions -(t-1), -(t-3), ..., t-1 from offset t(t-1)/2
    inside = (tt >= 1) & (tt <= steps) & (mm > -tt) & (mm < tt) & ((mm + tt) % 2 == 1)
    slots = np.where(inside, tt * (tt - 1) // 2 + (mm + tt - 1) // 2, -1).astype(np.int64)
    values = _place(
        r, slots, size, mismatch, "(step, position)",
        lambda k: (t[k], m[k]), _schedule_key,
    )
    return CoinSchedule(steps, values)


def write_schedule(schedule: CoinSchedule, path: str | Path) -> None:
    _write(path, schedule_to_text(schedule))


def read_schedule(path: str | Path) -> CoinSchedule:
    return schedule_from_text(Path(path).read_text(encoding="utf-8", errors="replace"))


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
    if steps is None:
        steps = max(map(abs, positions))
    mismatch = f"rows must cover exactly the {steps + 1} sites of a {steps}-step walk"
    if steps + 1 > 2 * len(positions):  # far too few rows; checked before the sites are counted
        raise ValueError(f"{mismatch}; {len(positions)} rows leave sites missing or unexpected")
    pos = np.array(positions)  # as in schedule_from_text
    inside = (pos >= -steps) & (pos <= steps) & ((pos + steps) % 2 == 0)
    slots = np.where(inside, (pos + steps) // 2, -1).astype(np.int64)
    placed = _place(
        probs, slots, steps + 1, mismatch, "position",
        positions.__getitem__, lambda j: 2 * j - steps,
    )
    bad = np.flatnonzero(~(np.isfinite(placed) & (placed >= 0.0)))
    if bad.size:
        j = int(bad[0])
        raise ValueError(f"probability at position {2 * j - steps} is {placed[j]}, outside [0, 1]")
    try:
        total = math.fsum(placed.tolist())
    except OverflowError:  # the exact sum of finite rows exceeds the largest double
        total = math.inf
    if abs(total - 1.0) > LOAD_SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}; expected 1 within {LOAD_SUM_TOL}")
    return Distribution(steps, placed / total)


def write_distribution(dist: Distribution, path: str | Path) -> None:
    _write(path, distribution_to_text(dist))


def read_distribution(path: str | Path, steps: int | None = None) -> Distribution:
    return load_target(Path(path).read_text(encoding="utf-8", errors="replace"), steps)


# --- training traces ------------------------------------------------------


def trace_to_text(iterations: Iterable[tuple[int, float, float]]) -> str:
    return _table("iteration,loss,fidelity", "{},{:.17g},{:.17g}", iterations)


def write_trace(iterations: Iterable[tuple[int, float, float]], path: str | Path) -> None:
    _write(path, trace_to_text(iterations))


# --- sample streams -------------------------------------------------------


#: Threads that draw and encode a stream's chunks: one per usable CPU, at most
#: four; with one, the calling thread draws them and no thread is started.
_WORKERS = min(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1, 4
)


def _encoded(
    stream: sampling.ChunkedStream, encode: Callable[[np.ndarray], bytes | np.ndarray]
) -> Iterator[bytes | np.ndarray]:
    """``encode`` of each chunk of ``stream``, in order.  On ``_WORKERS``
    threads the chunks are drawn and encoded ahead of the reader, at most
    ``2 * _WORKERS`` of them drawn and not yet taken; closing the iterator
    early, or an error in any chunk (``KeyboardInterrupt`` too), cancels the
    chunks not yet started and joins every thread before it returns."""

    if _WORKERS < 2:
        yield from map(encode, stream.chunks())
        return
    from concurrent.futures import ThreadPoolExecutor

    def work(start: int) -> bytes | np.ndarray:
        return encode(stream.chunk(start))

    pool, pending = ThreadPoolExecutor(_WORKERS), collections.deque()
    try:
        for start in stream.starts():
            if len(pending) == 2 * _WORKERS:
                yield pending.popleft().result()
            pending.append(pool.submit(work, start))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


#: Index rows whose padding ``compress`` drops at once: it holds an 8-byte
#: position for each byte it keeps, so a block's temporary stays small.
_ROWS = 2**14


def write_indices(stream: sampling.ChunkedStream, path: str | Path) -> None:
    """One decimal outcome index per line, at least two bytes each.

    Each outcome's row ``f"{i}\\n"`` is precomputed as NUL-padded fixed-width
    bytes, 3-byte rows in 4-byte slots, which numpy gathers as whole words.
    Each chunk's rows are gathered by outcome; when some row is shorter than
    its slot, ``ndarray.compress`` drops the padding, ``_ROWS`` rows at a time.
    """
    lines = [f"{i}\n" for i in range(stream.n_outcomes)]
    longest = len(lines[-1])
    table = np.array(lines, dtype=f"S{4 if longest == 3 else longest}")
    padded = len(lines[0]) < table.itemsize

    def strip(outcomes: np.ndarray) -> np.ndarray:
        gathered = table.take(outcomes).view(np.uint8)
        return gathered.compress(gathered != 0)

    def encode(outcomes: np.ndarray) -> np.ndarray:
        if not padded:
            return table.take(outcomes).view(np.uint8)
        blocks = range(0, outcomes.size, _ROWS)
        return np.concatenate([strip(outcomes[i : i + _ROWS]) for i in blocks])

    with contextlib.closing(_encoded(stream, encode)) as chunks:
        _write(path, chunks, at_least=2 * stream.count)


#: Bytes that :func:`iter_indices` reads per block, before the rest of its last line.
_BLOCK = 2**16
#: Longest line the array index reader parses: 10**18 - 1 fits in int64.
_MAX_FAST_DIGITS = 18


def _digit_lines(data: bytes) -> tuple[np.ndarray, int] | None:
    """``data``'s non-blank lines as int64 and its count of newlines, when every
    byte is a digit or a newline and no line exceeds ``_MAX_FAST_DIGITS``; else None.

    Line ``j``'s digit ``k`` from the right sits at ``ends[j] - k``; Horner's
    rule reads it for every line as long as ``k`` is within the shortest
    line, and past that multiplies it by ``lengths >= k``, which zeroes the
    bytes of earlier lines (or, wrapping below 0, of the block's end) that a
    shorter line would otherwise pick up."""
    raw = np.frombuffer(data, np.uint8)
    digits = raw - np.uint8(ord("0"))  # any byte below "0" wraps above 9
    newline = raw == ord("\n")
    if not np.all((digits < 10) | newline):
        return None
    ends = np.flatnonzero(newline)
    breaks = ends.size
    if not data.endswith(b"\n"):  # a final line may lack its newline
        ends = np.append(ends, raw.size)
    lengths = np.diff(ends, prepend=-1) - 1
    if not lengths.all():  # drop the blank lines
        ends, lengths = ends[lengths > 0], lengths[lengths > 0]
    shortest = int(lengths.min()) if lengths.size else 0
    longest = int(lengths.max(initial=0))
    if longest > _MAX_FAST_DIGITS:
        return None
    values = np.zeros(ends.size, dtype=np.int64)
    for k in range(longest, 0, -1):  # most significant digit first
        column = digits[ends - k]
        values *= 10
        values += column if k <= shortest else column * (lengths >= k)
    return values, breaks


def _line_indices(data: bytes, first: int) -> tuple[np.ndarray, int]:
    """The non-blank lines of ``data`` read with ``int`` (which also accepts
    spaces, ``+``, ``_`` and CRLF) and its number of lines, the first being
    line ``first`` of its file.  A byte that is not UTF-8 reads as U+FFFD,
    which no integer holds, so its line is named like any other bad line."""
    text = data.decode("utf-8", errors="replace")
    (values,) = _columns(text, (int,), "an integer index", first=first)
    try:
        arr = np.array(values, dtype=np.int64)
    except OverflowError:
        k, big = next((k, v) for k, v in enumerate(values) if v >= 2**63 or v < -(2**63))
        if big < 0:
            raise ValueError("sample indices must be non-negative") from None
        lineno = [n for n, line in enumerate(text.splitlines(), first) if line.strip()][k]
        raise ValueError(
            f"line {lineno}: sample index {big} is too large for a 64-bit integer"
        ) from None
    if arr.size and arr.min() < 0:
        raise ValueError("sample indices must be non-negative")
    return arr, len(text.splitlines())  # as _columns numbers them: \x0c and \x1c end lines too


def iter_indices(path: str | Path) -> Iterator[np.ndarray]:
    """Outcome indices, one per non-blank line, as int64 chunks, one per block
    of whole lines.

    Each block is parsed on its own: with array arithmetic when it holds only
    digits and newlines, at most 18 digits a line, else line by line.  Lines
    are counted from the top of the file, so ``line N:`` diagnostics are exact.
    """
    done = lines = 0
    with open(path, "rb") as fh:
        while block := fh.read(_BLOCK) + fh.readline():
            values, breaks = _digit_lines(block) or _line_indices(block, first=lines + 1)
            done, lines = done + values.size, lines + breaks
            yield values
    if not done:
        raise ValueError("no sample indices found")


def read_indices(path: str | Path) -> np.ndarray:
    """All the outcome indices of :func:`iter_indices` in one array."""
    return np.concatenate(list(iter_indices(path)))


#: The one sidecar line that :func:`write_bits` writes and :func:`read_bits` reads.
_BITS_META_RE = re.compile(r"count=(\d+) width=(\d+) padding_bits=([0-7])")


def write_bits(stream: sampling.ChunkedStream, path: str | Path) -> None:
    """Packed bit file plus a one-line sidecar header at ``<path>.meta``.

    The sidecar records the draw count, the per-outcome field width and how
    many zero bits pad the final byte; it is checked before the payload, and
    both files are written before the payload and then the sidecar replace
    their targets.  Each chunk is packed by :func:`sampling.pack_fields`,
    whose bytes equal ``pack_bits(encode_bits(...))[0]``.  Every chunk but the
    last holds a multiple of 8 outcomes, so each packs into whole bytes and
    the file equals one packing of the whole stream.  A single-outcome
    stream takes no bits: its payload is empty and it is not drawn.
    """
    n, width = stream.n_outcomes, sampling.bit_width(stream.n_outcomes)
    meta = f"{path}.meta"
    check_outputs([path, meta])
    n_bits = stream.count * width
    payload = _encoded(stream, functools.partial(sampling.pack_fields, n_outcomes=n))
    with all_or_none(), contextlib.closing(payload):
        _write(path, payload if width else [], at_least=-(-n_bits // 8))
        _write(meta, f"count={stream.count} width={width} padding_bits={-n_bits % 8}\n")


def read_bits(path: str | Path) -> np.ndarray:
    """Recover the outcome indices written by :func:`write_bits`.

    The sidecar must be the line the writer writes, with a width below 64
    (else a ``malformed sidecar header``), and the payload must hold exactly
    count x width bits after its padding (else the ``sidecar promises`` other
    outcomes than the file holds); both are checked before a bit is decoded.
    """
    meta = Path(f"{path}.meta").read_text(encoding="utf-8", errors="replace").strip()
    match = _BITS_META_RE.fullmatch(meta)
    if not match or int(match[2]) >= 64:  # an int64 index has at most 63 value bits
        raise ValueError(f"malformed sidecar header {meta!r}")
    count, width, padding = map(int, match.groups())
    payload = Path(path).read_bytes()
    held = 8 * len(payload) - padding
    if held != count * width:
        raise ValueError(f"sidecar promises {count} outcomes of {width} bits, file holds {held}")
    if not width:  # a single-outcome stream: every index is 0 and takes no bits
        return np.zeros(count, dtype=np.int64)
    return sampling.decode_bits(sampling.unpack_bits(payload, padding), 1 << width)


# --- analysis reports -----------------------------------------------------


def report_to_text(rows: Sequence[tuple[str, object]]) -> str:
    cells = ((name, format_float(v) if isinstance(v, float) else v) for name, v in rows)
    return _table("metric,value", "{},{}", cells)


def write_report(rows: Sequence[tuple[str, object]], path: str | Path) -> None:
    _write(path, report_to_text(rows))
