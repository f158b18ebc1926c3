"""Pinned sha256 digests of every artifact format and of a fixed CLI chain.

The text digests guard the writers' exact bytes.  The CLI digests also pin
the trained schedule and the seeded PCG64 sample stream, whose guide-table
inverse-CDF lookup returns exactly ``searchsorted(cdf, u, side="right")``;
NumPy does not promise to keep the PCG64 stream across versions, so a failure
after a library upgrade means the same seed no longer gives the same random
numbers.  The values were computed once and are never edited to make a
change pass.
"""

import hashlib

import pytest

from qwrng import CoinSchedule, Distribution
from qwrng.cli import main
from qwrng.fileio import (
    distribution_to_text,
    report_to_text,
    schedule_to_text,
    trace_to_text,
    write_schedule,
)


def _sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _schedule() -> CoinSchedule:
    # golden-ratio offsets plus the exact edges 0 and 1, no RNG involved
    values = [((k + 1) * 0.6180339887498949) % 1.0 for k in range(21)]
    values[3], values[17] = 0.0, 1.0
    return CoinSchedule(6, values)


def _distribution() -> Distribution:
    return Distribution(8, [k / 45 for k in range(1, 10)])


TEXTS = {
    "schedule": lambda: schedule_to_text(_schedule()),
    "distribution": lambda: distribution_to_text(_distribution()),
    "trace": lambda: trace_to_text([(k, 1 / (k + 3), 1 - 1 / (k + 7)) for k in range(5)]),
    "report": lambda: report_to_text(
        [("samples", 50000), ("chi_square_statistic", 1 / 3), ("note", "ok"), ("p", 0.1)]
    ),
}

TEXT_DIGESTS = {
    "distribution": "00d1147667eae53dd57dfe78acf39d2c0b6893b46fffb96cd15cc3cefa5b7650",
    "report": "58ae3ebe087eca76fc78ca312ee65f1d2a08be56a17f2b4cf452cab0c05ceff9",
    "schedule": "5ba574b2f38e612107de784d32e0eead4e46695017c83701261d05d23e06ec21",
    "trace": "f16434fcdf528cfe4b2a9fd86b04ac53723fe33dca8cdf9f937934f8361a6a3e",
}


@pytest.mark.parametrize("name", sorted(TEXT_DIGESTS))
def test_text_format_digest(name):
    assert _sha(TEXTS[name]()) == TEXT_DIGESTS[name]


@pytest.fixture(scope="module")
def cli_chain(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    sched, trace = root / "u.sched", root / "u.trace.csv"
    assert main(
        ["train", "--steps", "4", "--target", "uniform", "--out", str(sched), "--log", str(trace)]
    ) == 0
    base = ["sample", "--schedule", str(sched), "--seed", "7", "--count", "50000"]
    idx, bits = root / "s.txt", root / "s.bits"
    assert main(base + ["--format", "indices", "--out", str(idx)]) == 0
    assert main(base + ["--format", "bits", "--out", str(bits)]) == 0
    report, quantized = root / "a.csv", root / "aq.csv"
    analyze = ["analyze", "--samples", str(idx), "--target", "uniform", "--steps", "4"]
    assert main(analyze + ["--out", str(report)]) == 0
    extra = ["--schedule", str(sched), "--quantize-deg", "0.25"]
    assert main(analyze + extra + ["--out", str(quantized)]) == 0
    return {
        "analyze": report,
        "analyze.quantized": quantized,
        "schedule": sched,
        "trace": trace,
        "indices": idx,
        "bits": bits,
        "bits.meta": root / "s.bits.meta",
    }


CLI_DIGESTS = {
    "analyze": "3e680810de676d5b4cfd153e7ff1b68d0865bf0cf415af4cf7c99f23625c28ee",
    "analyze.quantized": "df114c4a16e162b6df7ae68271c1628be0b3a85b6161e6a116c8b8fb0e77e5c7",
    "bits": "34fde100953d35c791d890f21744befc7c8c488aa60221ff0ed269ffabae2643",
    "bits.meta": "3101812f602c58a4bba84e4fea9fe1c94806c33f6ee7d7bd4b342f6cbacd85bf",
    "indices": "12260663f94d8c6870302db7ae0643a107e6a5ec90e3845a6e4f9dc00675bca2",
    "schedule": "a8e9c51ca1c1d0bbd7efc86b66436bc9b3b0ca4a351de86fae991a7af35f0476",
    "trace": "fad4ba244f35e9c34b57575f8de55ee63c0aa55042f8582a6912f3c01263430d",
}


@pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
def test_cli_artifact_digest(cli_chain, name):
    assert _sha(cli_chain[name].read_bytes()) == CLI_DIGESTS[name]


def test_multi_digit_index_stream_digest(tmp_path):
    """A 16-step stream, so the index file holds one- and two-digit rows
    (every index 0-16 occurs at this seed and count)."""
    values = [0.4 + 0.2 * (((k + 1) * 0.6180339887498949) % 1.0) for k in range(136)]
    sched, out = tmp_path / "n16.sched", tmp_path / "s16.txt"
    write_schedule(CoinSchedule(16, values), sched)
    argv = ["sample", "--schedule", str(sched), "--seed", "11", "--count", "100000"]
    assert main(argv + ["--format", "indices", "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == (
        "0bc62b72a3b7df70bfbc4d11f5220b79dd5c75a60a664215eee863b02b8001b0"
    )
