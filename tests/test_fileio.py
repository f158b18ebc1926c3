import errno
import os
import tracemalloc

import numpy as np
import pytest

from qwrng import CoinSchedule, Distribution, build_sampler, draw, fileio, uniform_target
from qwrng.fileio import (
    distribution_to_text,
    format_float,
    read_bits,
    read_distribution,
    read_indices,
    read_schedule,
    report_to_text,
    schedule_from_text,
    schedule_to_text,
    trace_to_text,
    write_bits,
    write_distribution,
    write_indices,
    write_schedule,
)
from qwrng.sampling import ChunkedStream
from qwrng.walk import schedule_keys

from util import random_schedule


class TestFloatFormat:
    def test_round_trips_doubles_exactly(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-1, 1, size=1000):
            assert float(format_float(float(x))) == float(x)
        for x in (0.1, 1 / 3, np.nextafter(1.0, 0.0), 1e-300):
            assert float(format_float(x)) == x


class TestScheduleFiles:
    def test_text_layout(self):
        sched = CoinSchedule(2, [0.5, 0.25, 1.0])
        text = schedule_to_text(sched)
        assert text.splitlines()[0] == "steps=2"
        assert text.splitlines()[1] == "1,0,0.5"
        assert text.endswith("\n")

    @pytest.mark.parametrize("steps", [0, 1, 2, 4, 8, 64, 256])
    def test_text_equals_the_row_format_reference(self, steps):
        edges = [0.0, -0.0, 1.0, 5e-324, 1e-300, float(np.nextafter(1.0, 0.0))]
        pool = edges + np.random.default_rng(steps).uniform(0.0, 1.0, 6).tolist()
        for lead in range(len(edges)):  # each edge ratio comes first once, so n = 1 sees them all
            sched = CoinSchedule(steps, np.resize(np.roll(pool, -lead), steps * (steps + 1) // 2))
            rows = zip(schedule_keys(steps), sched.values.tolist())
            reference = "\n".join(
                [f"steps={steps}", *("{},{},{:.17g}".format(t, m, r) for (t, m), r in rows)]
            ) + "\n"
            assert schedule_to_text(sched) == reference

    @pytest.mark.parametrize("steps", [999_999_999, 3_037_000_499])
    def test_forged_walk_length_fails_before_its_keys_are_built(self, steps):
        text = f"steps={steps}\n1,0,0.5\n2,-1,0.5\n2,1,0.5\n"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                schedule_from_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == (
            f"schedule key set does not match a {steps}-step walk"
            f" (3 rows for {steps * (steps + 1) // 2} entries)"
        )
        assert peak < 2**20

    def test_round_trip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        for i in range(10):
            sched = random_schedule(rng, int(rng.integers(1, 7)))
            path = tmp_path / f"s{i}.txt"
            write_schedule(sched, path)
            first = path.read_bytes()
            again = read_schedule(path)
            write_schedule(again, path)
            assert path.read_bytes() == first
            assert again.ratios == sched.ratios

    def test_truncated_file_rejected(self, tmp_path):
        sched = CoinSchedule.constant(3, 0.5)
        lines = schedule_to_text(sched).splitlines()
        path = tmp_path / "t.txt"
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError, match="key set"):
            read_schedule(path)

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="steps="):
            schedule_from_text("1,0,0.5\n")

    def test_malformed_row_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            schedule_from_text("steps=1\n1;0;0.5\n")

    @pytest.mark.parametrize("row", ["2,1,0.5,7", "2,1,abc", "2,1,", "2,1,0x1p-1"])
    def test_a_bad_ratio_in_the_writers_layout_fails_as_the_general_reader_does(self, row):
        # every key prefix is the writer's, so only the ratio stops the fast path
        text = schedule_to_text(CoinSchedule.constant(3)).replace("2,1,0.5\n", row + "\n")
        assert text.splitlines()[3] == row
        with pytest.raises(ValueError) as err:
            schedule_from_text(text)
        assert str(err.value) == f"line 4: expected 'step,position,r', got '{row}'"

    def test_duplicate_row_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            schedule_from_text("steps=1\n1,0,0.5\n1,0,0.6\n")

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            schedule_from_text("")


class TestDistributionFiles:
    def test_header_and_order(self):
        text = distribution_to_text(uniform_target(2))
        lines = text.splitlines()
        assert lines[0] == "position,probability"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["-2", "0", "2"]

    def test_read_write_round_trip(self, tmp_path):
        d = Distribution(3, [0.125, 0.375, 0.375, 0.125])
        path = tmp_path / "d.csv"
        write_distribution(d, path)
        again = read_distribution(path, 3)
        assert again.probs == d.probs
        inferred = read_distribution(path)
        assert inferred.steps == 3


class TestTraceFiles:
    def test_layout(self):
        text = trace_to_text([(0, 0.25, 0.5), (1, 0.125, 0.75)])
        lines = text.splitlines()
        assert lines[0] == "iteration,loss,fidelity"
        assert lines[1] == "0,0.25,0.5"
        assert len(lines) == 3


def _stream(seed, count):
    """A chunked stream over the 4-step uniform walk, and the same draw held in memory."""
    source = uniform_target(4)
    chunked = ChunkedStream(build_sampler(source, seed), count)
    return chunked, draw(build_sampler(source, seed), count)


class TestSampleFiles:
    def test_indices_round_trip(self, tmp_path):
        stream, drawn = _stream(3, 1000)
        path = tmp_path / "samples.txt"
        write_indices(stream, path)
        back = read_indices(path)
        assert np.array_equal(back, drawn.outcomes)

    def test_indices_reject_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\nx\n")
        with pytest.raises(ValueError, match="integer"):
            read_indices(path)
        path.write_text("\n")
        with pytest.raises(ValueError, match="no sample"):
            read_indices(path)

    def test_index_too_large_names_its_line(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("0\n\n  \n99999999999999999999\n")  # blank lines count
        with pytest.raises(ValueError, match="^line 4: sample index 99999999999999999999 is too large"):
            read_indices(path)
        path.write_text("0\n-99999999999999999999\n")
        with pytest.raises(ValueError, match="non-negative"):
            read_indices(path)

    def test_bits_round_trip_with_sidecar(self, tmp_path):
        stream, drawn = _stream(4, 999)
        path = tmp_path / "samples.bits"
        write_bits(stream, path)
        meta = (tmp_path / "samples.bits.meta").read_text()
        assert meta == f"count=999 width=3 padding_bits={(-999 * 3) % 8}\n"
        back = read_bits(path)
        assert np.array_equal(back, drawn.outcomes)

    def test_bits_payload_is_replaced_before_its_sidecar(self, tmp_path, monkeypatch):
        replaced, real_replace = [], os.replace

        def record(src, dst):
            replaced.append(os.path.basename(dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", record)
        write_bits(_stream(4, 10)[0], tmp_path / "s.bits")
        assert replaced == ["s.bits", "s.bits.meta"]

    def test_failed_sidecar_write_leaves_payload_and_sidecar_as_they_were(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "s.bits"
        write_bits(_stream(4, 100)[0], path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_open = open

        def full_after_the_payload(name, *args, **kwargs):
            if ".meta." in os.path.basename(name):
                raise OSError(errno.ENOSPC, "No space left on device", name)
            return real_open(name, *args, **kwargs)

        monkeypatch.setattr(fileio, "open", full_after_the_payload, raising=False)
        with pytest.raises(OSError, match="No space left") as failure:
            write_bits(_stream(5, 200)[0], path)
        assert failure.value.filename == f"{path}.meta"
        # the new payload was written in full, but nothing replaced its target
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_bits_sidecar_mismatch_rejected(self, tmp_path):
        path = tmp_path / "samples.bits"
        write_bits(_stream(4, 100)[0], path)
        meta_path = tmp_path / "samples.bits.meta"
        meta_path.write_text("count=101 width=3 padding_bits=4\n")
        with pytest.raises(ValueError, match="promises"):
            read_bits(path)
        malformed = [
            "nonsense\n",
            "count=100 width=64 padding_bits=4\n",  # an int64 index has at most 63 value bits
            "count=100 width=-1 padding_bits=4\n",
            "count=-1 width=0 padding_bits=0\n",
            "count=100 count=100 width=3 padding_bits=4\n",
            "width=3 count=100 padding_bits=4\n",
            "count=100 width=3 padding_bits=4\xff",
        ]
        for meta in malformed:
            meta_path.write_bytes(meta.encode("latin-1"))  # \xff: one byte that is not UTF-8
            with pytest.raises(ValueError, match="^malformed sidecar"):
                read_bits(path)
        # the payload must hold exactly count x width bits: one byte short or long is not
        meta_path.write_text("count=100 width=3 padding_bits=4\n")
        payload = path.read_bytes()
        for wrong in [payload[:-1], payload + b"\0"]:
            path.write_bytes(wrong)
            with pytest.raises(ValueError, match="^sidecar promises 100 outcomes"):
                read_bits(path)
        path.write_bytes(payload)
        assert read_bits(path).size == 100
        # a single-outcome stream takes no bits, so a stray payload byte is a mismatch
        write_bits(ChunkedStream(build_sampler(Distribution(0, [1.0]), 0), 10), path)
        assert path.read_bytes() == b""
        assert meta_path.read_text() == "count=10 width=0 padding_bits=0\n"
        path.write_bytes(b"\0")
        with pytest.raises(ValueError, match="^sidecar promises 10 outcomes"):
            read_bits(path)


class TestArtifactSets:
    def test_targets_are_replaced_after_the_block_in_write_order(self, tmp_path, monkeypatch):
        replaced, real_replace = [], os.replace

        def record(src, dst):
            replaced.append(os.path.basename(dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", record)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        with fileio.all_or_none():
            write_schedule(CoinSchedule.constant(1), b)
            fileio.write_trace([(0, 0.5, 0.5)], a)
            with pytest.raises(ValueError, match=f"^{b} and {b} name the same file$"):
                write_schedule(CoinSchedule.constant(2), b)  # a second write of one target
            assert replaced == [] and not a.exists() and not b.exists()
        assert replaced == ["b.csv", "a.csv"]
        assert b.read_text() == schedule_to_text(CoinSchedule.constant(1))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]

    def test_an_error_in_the_block_removes_every_temporary_file(self, tmp_path):
        (tmp_path / "a.csv").write_text("old\n")
        with pytest.raises(KeyboardInterrupt), fileio.all_or_none():
            fileio.write_trace([(0, 0.5, 0.5)], tmp_path / "a.csv")
            fileio.write_trace([(0, 0.5, 0.5)], tmp_path / "b.csv")
            raise KeyboardInterrupt
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {"a.csv": "old\n"}

    def test_a_failed_write_caught_in_the_block_leaves_its_target(self, tmp_path):
        (tmp_path / "a.csv").write_text("old\n")

        def chunks():
            yield b"half"
            raise OSError("detector offline")

        with fileio.all_or_none():
            with pytest.raises(OSError, match="detector offline"):
                fileio._write(tmp_path / "a.csv", chunks())
            fileio.write_trace([(0, 0.5, 0.5)], tmp_path / "b.csv")
        # the caught failure is neither replaced nor left as a temporary file
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {
            "a.csv": "old\n",
            "b.csv": fileio.trace_to_text([(0, 0.5, 0.5)]),
        }


class TestReports:
    def test_layout_and_types(self):
        text = report_to_text([("alpha", 1), ("beta", 0.5), ("note", "ok")])
        assert text == "metric,value\nalpha,1\nbeta,0.5\nnote,ok\n"
