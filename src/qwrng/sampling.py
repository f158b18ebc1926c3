"""Seeded sampling of walk outcomes and their fixed-width bit encoding.

Outcomes are indices into the ascending support of the source distribution:
index ``i`` stands for lattice position ``-steps + 2*i``.  Draws come from
inverse-CDF lookup driven by a PCG64 generator, so a (distribution, seed,
count) triple always reproduces the same stream, on any platform.  The
lookup is a guide table (Chen and Asau, 1974): a power-of-two grid of
buckets over [0, 1) names the first candidate outcome of each bucket, and a
short correction step walks past the cumulative entries that a uniform
still reaches, so every index equals ``searchsorted(cdf, u, side="right")``.
The streams are deterministic stand-ins for a physical detection record,
not a source of true entropy.

The bit file writer packs outcomes with :func:`pack_fields`, eight fields at
a time into whole words; :func:`encode_bits` and :func:`pack_bits`, one
byte per bit, are the public reference whose bytes it equals.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .walk import Distribution, _site_count

_MAX_SEED = 2**64
#: Uniforms drawn and looked up per pass, so a draw holds no count-sized
#: temporary beyond its int64 output; also the outcomes per chunk of a stream
#: read by the file writers.  A multiple of 8, so every chunk but the last
#: packs into whole bytes at any bit width.
_CHUNK = 2**16
#: The guide table has 2**(bit_length(n_outcomes) + _GUIDE_BITS) buckets,
#: 16 to 32 per outcome, so few uniforms share a bucket with a cdf entry.
_GUIDE_BITS = 4


def bit_width(n_outcomes: int) -> int:
    """Bits needed for a fixed-width encoding of indices 0..n_outcomes-1."""
    if n_outcomes < 1:
        raise ValueError(f"need at least one outcome, got {n_outcomes}")
    return (n_outcomes - 1).bit_length()


@dataclass
class SamplerState:
    """Inverse-CDF sampler over one distribution: its cumulative
    probabilities ``cdf``, one per outcome index, the generator ``rng`` and
    the guide table that :func:`draw` looks uniforms up in, built once here
    because a chunked stream draws many times.  ``split`` marks the buckets
    that a cdf entry cuts, the only ones whose uniforms may lie past the
    guide's first candidate.

    Mutable and single-owner: every :func:`draw` advances ``rng``.  Build
    independent samplers (distinct seeds) for concurrent use.
    """

    cdf: np.ndarray
    rng: np.random.Generator = field(repr=False)
    guide: np.ndarray = field(init=False, repr=False)
    split: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # bucket j covers [j/K, (j+1)/K); u*K and j/K are exact for a power-of-two K
        buckets = 1 << (self.cdf.size.bit_length() + _GUIDE_BITS)
        edges = np.arange(buckets + 1) / buckets
        self.guide = np.searchsorted(self.cdf, edges[:-1], side="right")
        # cdf[guide[j]] > j/K, as cdf[-1] = 1 is; it cuts bucket j when below (j+1)/K
        self.split = self.cdf[self.guide] < edges[1:]


@dataclass
class SampleStream:
    """A batch of drawn outcome indices and the size of their support."""

    outcomes: np.ndarray
    n_outcomes: int

    @property
    def count(self) -> int:
        return int(self.outcomes.size)


@dataclass
class ChunkedStream:
    """``count`` outcomes of ``sampler``, drawn chunk by chunk as they are read.

    :meth:`chunk` draws the ``_CHUNK`` outcomes (fewer at the end) from any
    ``start`` on its own: each thread keeps a copy of the sampler, and
    :func:`draw` runs on it with the generator set to the stream's first
    state and advanced past the ``start`` outcomes before, so chunks may be
    drawn in any order and on several threads at once.  The chunks at the
    offsets of :meth:`starts` equal one ``draw(sampler, count)``, and once
    those offsets are exhausted the sampler itself is advanced by ``count``,
    where that draw leaves it.  A reader holds only the chunks it has drawn
    but not yet used: :meth:`chunks` one, the file writers at most two per
    worker thread.
    """

    sampler: SamplerState
    count: int
    #: The generator's state when the stream was made, which every chunk starts from.
    _origin: dict = field(init=False, repr=False)
    #: Each thread's copy of the sampler, whose generator every chunk sets anew.
    _copies: threading.local = field(
        init=False, repr=False, compare=False, default_factory=threading.local
    )

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be positive, got {self.count}")
        self._origin = self.sampler.rng.bit_generator.state

    @property
    def n_outcomes(self) -> int:
        return int(self.sampler.cdf.size)

    def starts(self) -> Iterator[int]:
        """The offset of each chunk; past the last, the sampler moves on by ``count``."""
        yield from range(0, self.count, _CHUNK)
        self.sampler.rng.bit_generator.advance(self.count)

    def chunk(self, start: int) -> np.ndarray:
        """Outcomes ``start`` to ``start + _CHUNK`` of the stream; each takes one
        64-bit output of the PCG64 generator."""
        if (sampler := getattr(self._copies, "sampler", None)) is None:
            sampler = self._copies.sampler = copy.copy(self.sampler)
            sampler.rng = np.random.Generator(np.random.PCG64(0))
        bits = sampler.rng.bit_generator
        bits.state = self._origin
        bits.advance(start)
        return draw(sampler, min(_CHUNK, self.count - start)).outcomes

    def chunks(self) -> Iterator[np.ndarray]:
        return map(self.chunk, self.starts())


def build_sampler(dist: Distribution, seed: int) -> SamplerState:
    """Prepare a deterministic sampler for a distribution.

    The cumulative array is normalized by its final entry, which therefore
    equals 1.0 exactly and guarantees every uniform draw lands in range.
    """
    if not (0 <= seed < _MAX_SEED):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    cdf = np.cumsum(dist.values)
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    return SamplerState(cdf=cdf, rng=np.random.Generator(np.random.PCG64(seed)))


def draw(sampler: SamplerState, count: int) -> SampleStream:
    """Draw ``count`` outcome indices, advancing the sampler state."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    cdf, guide, split = sampler.cdf, sampler.guide, sampler.split
    outcomes = np.empty(count, dtype=np.int64)
    u = np.empty(min(count, _CHUNK))
    for start in range(0, count, _CHUNK):
        idx = outcomes[start : start + _CHUNK]
        uc = u[: idx.size]
        sampler.rng.random(out=uc)
        np.multiply(uc, guide.size, out=idx, casting="unsafe")  # each uniform's bucket
        move = split.take(idx, mode="clip").nonzero()[0]
        guide.take(idx, out=idx, mode="clip")  # in place: take reads index i before writing slot i
        # guide[j] counts the cdf entries <= j/K <= u; step over the entries
        # of a split bucket that are <= u too.  idx never passes the answer,
        # which is below cdf.size because cdf[-1] = 1 > u, so cdf[idx] is in range.
        move = move[cdf[idx[move]] <= uc[move]]
        while move.size:
            idx[move] += 1
            move = move[cdf[idx[move]] <= uc[move]]
    return SampleStream(outcomes=outcomes, n_outcomes=int(cdf.size))


def check_outcomes(outcomes: np.ndarray, n_outcomes: int) -> None:
    """Reject any outcome index of the int64 array ``outcomes`` outside
    ``[0, n_outcomes - 1]``."""
    # a negative int64 reads as at least 2**63 unsigned, so one max checks both ends
    if outcomes.size and outcomes.view(np.uint64).max() >= n_outcomes:
        bad = outcomes[(outcomes < 0) | (outcomes >= n_outcomes)][0]
        raise ValueError(f"outcome index {bad} outside [0, {n_outcomes - 1}]")


def encode_bits(stream: np.ndarray, n_outcomes: int) -> np.ndarray:
    """Concatenate each index of the int array ``stream`` as a big-endian fixed-width bit field.

    The width is ``ceil(log2(n_outcomes))`` bits.  Individual bits are only
    unbiased when the source distribution is uniform over a power-of-two
    number of outcomes; for other supports the stream is still a faithful
    encoding but the bit marginals inherit the outcome bias.
    """
    outcomes = np.asarray(stream, dtype=np.int64)
    check_outcomes(outcomes, n_outcomes)
    width = bit_width(n_outcomes)
    # one bit column at a time, from the narrowest integer type that holds
    # every index: the one count x width array is the uint8 result
    small = outcomes.astype(np.min_scalar_type(n_outcomes - 1))
    bits = np.empty((outcomes.size, width), dtype=np.uint8)
    for j in range(width):
        bits[:, j] = (small >> (width - 1 - j)) & 1
    return bits.ravel()


def decode_bits(bits: np.ndarray, n_outcomes: int) -> np.ndarray:
    """Invert :func:`encode_bits`: regroup a flat bit array into int64
    indices at the fixed width for ``n_outcomes``."""
    bits = np.asarray(bits, dtype=np.uint8)
    width = bit_width(n_outcomes)
    if not width and bits.size:
        raise ValueError("zero-width encoding cannot carry bits")
    if width and bits.size % width:
        raise ValueError(f"bit count {bits.size} is not a multiple of the width {width}")
    idx = np.zeros(bits.size // max(width, 1), dtype=np.int64)
    for j in range(width):  # bit j of every field, most significant first
        idx <<= 1
        idx |= bits[j::width]
    if idx.size and idx.max() >= n_outcomes:
        raise ValueError(f"decoded index {idx.max()} outside [0, {n_outcomes - 1}]")
    return idx


def pack_bits(bits: np.ndarray) -> tuple[bytes, int]:
    """Pack a bit array into bytes (emission order, zero-padded final byte).

    Returns the buffer and the number of padding bits appended.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    padding = (-bits.size) % 8
    return np.packbits(bits).tobytes(), int(padding)


def pack_fields(stream: np.ndarray, n_outcomes: int) -> bytes:
    """The bytes of ``pack_bits(encode_bits(stream, n_outcomes))[0]``, built
    from whole words rather than one byte per bit.

    Each group of 8 outcomes becomes ``w = bit_width(n_outcomes)`` bytes.
    Neighbouring fields are merged pairwise, the earlier one above, while
    two fit one unsigned lane of 16, 32 or 64 bits.  At ``w <= 8`` a lane
    then holds a whole group, whose bytes are its last ``w`` big-endian
    ones; otherwise the fields left in a group are shifted into its
    ``ceil(w / 8)`` uint64 words, a field that straddles two words by a
    right shift into the first and a left shift into the second.  A short
    final group is zero-padded, and the output ends at
    ``ceil(count * w / 8)`` bytes.  One-bit fields are the outcomes
    themselves, which ``np.packbits`` packs directly.
    """
    outcomes = np.asarray(stream, dtype=np.int64)
    check_outcomes(outcomes, n_outcomes)
    width, count = bit_width(n_outcomes), outcomes.size
    lanes = np.zeros(-(-count // 8) * 8, dtype=np.min_scalar_type(n_outcomes - 1))
    lanes[:count] = outcomes
    if width < 2:
        return np.packbits(lanes[: count * width]).tobytes()
    bits, per_group = width, 8
    while lanes.itemsize < 8:  # a little-endian pair holds the earlier field low
        wide = np.dtype(f"<u{2 * lanes.itemsize}")
        lane, pairs = 8 * lanes.itemsize, lanes.view(wide)
        merged = (pairs & wide.type((1 << lane) - 1)) << wide.type(bits) | pairs >> wide.type(lane)
        lanes, bits, per_group = merged.astype(wide, copy=False), 2 * bits, per_group // 2
    if per_group == 1:
        packed = lanes.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - width :]
    else:
        fields = lanes.reshape(-1, per_group)
        words = np.zeros((len(fields), -(-width // 8)), dtype=np.uint64)
        for i in range(per_group):
            word, offset = divmod(i * bits, 64)
            spill = offset + bits - 64  # bits of field i past the end of its first word
            if spill > 0:
                words[:, word] |= fields[:, i] >> np.uint64(spill)
                words[:, word + 1] |= fields[:, i] << np.uint64(64 - spill)
            else:
                words[:, word] |= fields[:, i] << np.uint64(-spill)
        packed = words.astype(">u8").view(np.uint8)[:, :width]
    # the same bytes as the uint8 slice's, but tobytes copies a void record at a time
    packed = packed.view(f"V{width}")
    return packed.tobytes()[: -(-count * width // 8)]


def unpack_bits(buf: bytes, padding_bits: int) -> np.ndarray:
    """Invert :func:`pack_bits`."""
    if not (0 <= padding_bits < 8):
        raise ValueError(f"padding must be 0..7 bits, got {padding_bits}")
    if padding_bits > 8 * len(buf):
        raise ValueError("padding exceeds the stored bit count")
    return np.unpackbits(np.frombuffer(buf, dtype=np.uint8), count=8 * len(buf) - padding_bits)


def counts_by_position(outcomes: np.ndarray, steps: int) -> np.ndarray:
    """Tally outcome indices into int64 counts per site, in site order."""
    outcomes = np.asarray(outcomes, dtype=np.int64)
    sites = _site_count(steps)
    check_outcomes(outcomes, sites)
    return np.bincount(outcomes, minlength=sites)


def empirical_distribution(outcomes: np.ndarray, steps: int) -> Distribution:
    """Relative frequencies of a stream as a distribution on the support."""
    counts = counts_by_position(outcomes, steps)
    total = counts.sum()
    if total == 0:
        raise ValueError("cannot build an empirical distribution from zero samples")
    return Distribution(steps, counts / total)
