import functools

import numpy as np
import pytest

from qwrng import (
    NAMED_COIN_VECTORS,
    CoinSchedule,
    Distribution,
    build_sampler,
    counts_by_position,
    decode_bits,
    draw,
    empirical_distribution,
    encode_bits,
    initial_state,
    measure,
    pack_bits,
    run_walk,
    uniform_target,
    unpack_bits,
)
from qwrng.sampling import _CHUNK, ChunkedStream, bit_width

#: chi-square upper critical value at the 1% level for four degrees of freedom
CHI2_CRIT_DOF4_1PCT = 13.276704135987622


def degenerate(steps: int, site: int) -> Distribution:
    return Distribution(steps, [1.0 if m == site else 0.0 for m in range(-steps, steps + 1, 2)])


class TestBuildSampler:
    def test_uniform_cdf(self):
        s = build_sampler(uniform_target(4), 0)
        assert np.max(np.abs(s.cdf - [0.2, 0.4, 0.6, 0.8, 1.0])) <= 1e-12
        assert s.cdf[-1] == 1.0

    def test_degenerate_single_jump(self):
        s = build_sampler(degenerate(4, 0), 0)
        assert list(s.cdf) == [0.0, 0.0, 1.0, 1.0, 1.0]

    def test_same_seed_same_state(self):
        a = build_sampler(uniform_target(4), 77)
        b = build_sampler(uniform_target(4), 77)
        assert np.array_equal(draw(a, 1000).outcomes, draw(b, 1000).outcomes)

    def test_seed_range_enforced(self):
        with pytest.raises(ValueError, match="seed"):
            build_sampler(uniform_target(2), -1)
        with pytest.raises(ValueError, match="seed"):
            build_sampler(uniform_target(2), 2**64)


class TestDraw:
    def test_degenerate_distribution_yields_constant_stream(self):
        s = build_sampler(degenerate(4, 2), 5)
        stream = draw(s, 500)
        assert np.all(stream.outcomes == 3)  # index of position +2

    def test_reproducible_across_runs(self):
        a = draw(build_sampler(uniform_target(4), 123), 10000)
        b = draw(build_sampler(uniform_target(4), 123), 10000)
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_state_advances_and_concatenates(self):
        s = build_sampler(uniform_target(4), 9)
        first = draw(s, 1000)
        second = draw(s, 1000)
        combined = draw(build_sampler(uniform_target(4), 9), 2000)
        assert not np.array_equal(first.outcomes, second.outcomes)
        assert np.array_equal(
            np.concatenate([first.outcomes, second.outcomes]), combined.outcomes
        )

    def test_count_must_be_positive(self):
        s = build_sampler(uniform_target(4), 0)
        with pytest.raises(ValueError, match="count"):
            draw(s, 0)

    def test_million_draws_track_the_uniform_target(self):
        stream = draw(build_sampler(uniform_target(4), 42), 10**6)
        counts = np.bincount(stream.outcomes, minlength=5)
        freqs = counts / counts.sum()
        # 5-sigma binomial band around 0.2 at this sample size is +/- 0.002
        assert np.max(np.abs(freqs - 0.2)) <= 0.002
        expected = counts.sum() / 5.0
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < CHI2_CRIT_DOF4_1PCT

    def test_empirical_frequencies_converge_to_skewed_source(self):
        source = Distribution(2, [0.7, 0.2, 0.1])
        stream = draw(build_sampler(source, 8), 200000)
        emp = empirical_distribution(stream.outcomes, 2)
        for m, p in source.probs.items():
            sigma = np.sqrt(p * (1 - p) / stream.count)
            assert abs(emp.probs[m] - p) <= 5 * sigma


class _Uniforms:
    """Stands in for the sampler's generator: hands out fixed uniforms in order."""

    def __init__(self, u):
        self.u, self.used = np.asarray(u, dtype=np.float64), 0

    def random(self, out):
        out[:] = self.u[self.used : self.used + out.size]
        self.used += out.size
        return out


def _hadamard(steps: int) -> Distribution:
    # tails of order 2**-steps crowd many cdf entries into the first and last buckets
    state = initial_state(NAMED_COIN_VECTORS["circ-left"])
    return measure(run_walk(state, CoinSchedule.constant(steps, 0.5)))


LOOKUP_SOURCES = {
    "skewed": Distribution(16, np.random.default_rng(5).dirichlet(np.ones(17))),
    "zero-sites": Distribution(6, [0.0, 0.25, 0.0, 0.0, 0.5, 0.25, 0.0]),
    "degenerate": degenerate(4, 2),
    "one-outcome": Distribution(0, [1.0]),
    "hadamard-64": _hadamard(64),
}


class TestGuideTableLookup:
    """``draw`` must return exactly ``searchsorted(cdf, u, side="right")``."""

    @pytest.mark.parametrize("name", sorted(LOOKUP_SOURCES))
    def test_at_and_beside_every_cdf_entry(self, name):
        sampler = build_sampler(LOOKUP_SOURCES[name], 0)
        cdf = sampler.cdf
        u = np.concatenate([[0.0], cdf, np.nextafter(cdf, -np.inf), np.nextafter(cdf, np.inf)])
        u = u[(u >= 0.0) & (u < 1.0)]
        sampler.rng = _Uniforms(u)
        outcomes = draw(sampler, u.size).outcomes
        assert outcomes.dtype == np.int64
        assert np.array_equal(outcomes, np.searchsorted(cdf, u, side="right"))

    @pytest.mark.parametrize("name", sorted(LOOKUP_SOURCES))
    def test_seeded_stream(self, name):
        sampler = build_sampler(LOOKUP_SOURCES[name], 17)
        u = np.random.Generator(np.random.PCG64(17)).random(5000)
        expected = np.searchsorted(sampler.cdf, u, side="right")
        assert np.array_equal(draw(sampler, 5000).outcomes, expected)

    @pytest.mark.parametrize("count", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
    def test_chunk_edges_keep_the_pcg64_stream(self, count):
        source = LOOKUP_SOURCES["skewed"]
        u = np.random.Generator(np.random.PCG64(3)).random(count + 5)
        sampler = build_sampler(source, 3)
        first, rest = draw(sampler, count).outcomes, draw(sampler, 5).outcomes
        assert first.dtype == np.int64 and first.size == count
        assert np.array_equal(np.concatenate([first, rest]), np.searchsorted(sampler.cdf, u, side="right"))

    @pytest.mark.parametrize("name", sorted(LOOKUP_SOURCES))
    def test_split_marks_the_buckets_a_cdf_entry_cuts(self, name):
        sampler = build_sampler(LOOKUP_SOURCES[name], 0)
        buckets = sampler.guide.size
        below, above = np.arange(buckets) / buckets, np.arange(1, buckets + 1) / buckets
        cut = [bool(np.any((sampler.cdf > lo) & (sampler.cdf < hi))) for lo, hi in zip(below, above)]
        assert sampler.split.tolist() == cut


class TestChunkedStream:
    def test_a_chunk_is_its_slice_of_one_draw_in_any_order(self):
        source, count = LOOKUP_SOURCES["skewed"], 3 * _CHUNK + 5
        whole = draw(build_sampler(source, 3), count).outcomes
        sampler = build_sampler(source, 3)
        state = sampler.rng.bit_generator.state
        stream = ChunkedStream(sampler, count)
        for start in [3 * _CHUNK, _CHUNK, 0, 2 * _CHUNK, _CHUNK]:
            assert np.array_equal(stream.chunk(start), whole[start : start + _CHUNK])
        # a chunk is drawn from a copy: only reading every offset moves the sampler on
        assert sampler.rng.bit_generator.state == state
        assert list(stream.starts()) == [0, _CHUNK, 2 * _CHUNK, 3 * _CHUNK]
        moved_on = build_sampler(source, 3).rng.bit_generator.advance(count)
        assert sampler.rng.bit_generator.state == moved_on.state

    def test_chunks_equal_one_draw_and_leave_the_sampler_where_it_leaves_it(self):
        source, count = LOOKUP_SOURCES["hadamard-64"], _CHUNK + 7
        whole = build_sampler(source, 9)
        expected = draw(whole, count).outcomes
        sampler = build_sampler(source, 9)
        assert np.array_equal(np.concatenate(list(ChunkedStream(sampler, count).chunks())), expected)
        assert sampler.rng.bit_generator.state == whole.rng.bit_generator.state


# --- an independent reference for the stream: PCG64 and its seeding in pure Python ---
# numpy's generator is what the sampler runs; these rebuild its bytes from the
# published algorithms, so a library change that moves them fails here.

_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
#: PCG64's 128-bit LCG multiplier (O'Neill, HMC-CS-2014-0905)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(entropy: list[int], count: int) -> list[int]:
    """``SeedSequence(entropy).generate_state(count, np.uint32)``: NEP 19's
    pool of four 32-bit words, hashed and mixed from the entropy words."""
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, words = 0x8B51F9DD, []
    for i in range(count):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return words


def _pcg64_raw(seed: int, count: int) -> list[int]:
    """``PCG64(seed).random_raw(count)``: the seed's 32-bit words, least
    significant first, seed four uint64 words, which set the LCG's state and
    increment; each output steps the LCG and applies XSL-RR."""
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    w = _seed_words(entropy, 8)
    s0, s1, i0, i1 = (w[2 * k] | w[2 * k + 1] << 32 for k in range(4))  # uint64, little-endian
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128  # from 0: step, add, step
    raw = []
    for _ in range(count):
        state = (state * _PCG_MULT + inc) & _MASK128
        word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        raw.append((word >> rot | word << (64 - rot)) & _MASK64)
    return raw


@functools.lru_cache(maxsize=None)
def _reference_uniforms(seed: int, count: int) -> np.ndarray:
    """``Generator(PCG64(seed)).random(count)``: 53 high bits of each output, scaled."""
    return np.array([(raw >> 11) * 2.0**-53 for raw in _pcg64_raw(seed, count)])


class TestStreamReference:
    def test_seed_words_match_the_seed_sequence_reference_data(self):
        # from numpy's test_seed_sequence.py (O'Neill's C++ seed_seq_fe)
        entropy = [3735928559, 195939070, 229505742, 305419896]
        assert _seed_words(entropy, 4) == [3914649087, 576849849, 3593928901, 2229911004]

    @pytest.mark.parametrize(
        "seed, known",
        [
            # from numpy's pcg64-testset-1.csv and -2.csv: outputs 0, 1, 2 and 999
            (0xDEADBEAF, {0: 0x60D24054E17A0698, 1: 0xD5E79D89856E4F12,
                          2: 0xD254972FE64BD782, 999: 0xA5CB380B8DE10D10}),
            (0x0, {0: 0xA30FEBCFD9C2825F, 1: 0x4510BDF882D9D721,
                   2: 0xA7D3DA94ECDE8B8, 999: 0x6148329042F743B0}),
        ],
    )
    def test_raw_outputs_match_numpy_known_answers(self, seed, known):
        raw = _pcg64_raw(seed, 1000)
        assert {k: raw[k] for k in known} == known

    @pytest.mark.parametrize("seed", [0, 3, 17, 2**32 + 5, 2**64 - 1])
    def test_draw_is_the_reference_stream_looked_up(self, seed):
        # counts on both sides of a chunk: the restart neither skips nor repeats a uniform
        u = _reference_uniforms(seed, _CHUNK + 1)
        for count in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1):
            sampler = build_sampler(LOOKUP_SOURCES["skewed"], seed)
            expected = np.searchsorted(sampler.cdf, u[:count], side="right")
            assert np.array_equal(draw(sampler, count).outcomes, expected), count


class TestEncoding:
    def test_two_bit_fields(self):
        assert list(encode_bits(np.array([0, 1, 2, 3]), 4)) == [0, 0, 0, 1, 1, 0, 1, 1]

    def test_three_bit_field_for_five_outcomes(self):
        assert list(encode_bits(np.array([4]), 5)) == [1, 0, 0]

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            encode_bits(np.array([5]), 5)

    def test_widths(self):
        assert bit_width(1) == 0
        assert bit_width(2) == 1
        assert bit_width(4) == 2
        assert bit_width(5) == 3
        assert bit_width(8) == 3
        assert bit_width(9) == 4

    def test_decode_inverts_encode(self):
        rng = np.random.default_rng(3)
        for n_outcomes in (2, 3, 4, 5, 8, 11):
            idx = rng.integers(0, n_outcomes, size=257)
            bits = encode_bits(idx, n_outcomes)
            assert np.array_equal(decode_bits(bits, n_outcomes), idx)

    def test_decode_rejects_ragged_bitstream(self):
        with pytest.raises(ValueError, match="multiple"):
            decode_bits(np.array([1, 0], dtype=np.uint8), 5)

    def test_regrouping_by_width(self):
        assert list(decode_bits(np.array([1, 0, 0, 0, 1, 1], dtype=np.uint8), 5)) == [4, 3]


class TestPacking:
    def test_round_trip_with_padding(self):
        rng = np.random.default_rng(4)
        for size in (1, 7, 8, 9, 3000):
            bits = rng.integers(0, 2, size=size).astype(np.uint8)
            buf, pad = pack_bits(bits)
            assert (size + pad) % 8 == 0
            assert np.array_equal(unpack_bits(buf, pad), bits)

    def test_emission_order_is_most_significant_first(self):
        buf, pad = pack_bits(np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8))
        assert buf == bytes([0b10000001])
        assert pad == 0


class TestTallies:
    def test_counts_by_position(self):
        counts = counts_by_position(np.array([0, 0, 4, 2]), 4)
        assert counts.dtype == np.int64 and counts.tolist() == [2, 0, 1, 0, 1]

    def test_out_of_range_outcome_rejected(self):
        with pytest.raises(ValueError, match="outcome"):
            counts_by_position(np.array([9]), 4)

    def test_empirical_distribution_normalizes(self):
        emp = empirical_distribution(np.array([0, 1, 1, 2]), 2)
        assert emp.probs == {-2: 0.25, 0: 0.5, 2: 0.25}
