"""Pinned sha256 digests of every artifact format and of a fixed CLI chain.

The text digests guard the writers' exact bytes.  The kernel digests pin the
walk's own float bytes past the dense oracle's size cap: forward
probabilities, adjoint gradients and a batched robustness curve.  The CLI
digests also pin the trained schedule and the seeded PCG64 sample stream,
whose guide-table inverse-CDF lookup returns exactly ``searchsorted(cdf, u, side="right")``;
NumPy does not promise to keep the PCG64 stream across versions, so a failure
after a library upgrade means the same seed no longer gives the same random
numbers.  The values were computed once and are never edited to make a
change pass.
"""

import hashlib

import numpy as np
import pytest

from qwrng import (
    NAMED_COIN_VECTORS,
    CoinSchedule,
    Distribution,
    initial_state,
    loss_gradient,
    robustness_sweep,
    uniform_target,
)
from qwrng.cli import main
from qwrng.fileio import (
    distribution_to_text,
    report_to_text,
    schedule_to_text,
    trace_to_text,
    write_schedule,
)
from qwrng.training import FLOAT_PASS_MAX_STEPS
from qwrng.walk import _forward

from util import golden_ratios


def _sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _schedule(steps: int = 6) -> CoinSchedule:
    return CoinSchedule(steps, golden_ratios(steps))


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


CIRC_LEFT = initial_state(NAMED_COIN_VECTORS["circ-left"])

KERNELS = {
    "forward.n16": lambda: _forward(_schedule(16).values, 16, CIRC_LEFT)[1],
    "forward.n64": lambda: _forward(_schedule(64).values, 64, CIRC_LEFT)[1],
    "forward.n256": lambda: _forward(_schedule(256).values, 256, CIRC_LEFT)[1],
    "gradient.n64": lambda: loss_gradient(_schedule(64), CIRC_LEFT, uniform_target(64)),
    "gradient.n256": lambda: loss_gradient(_schedule(256), CIRC_LEFT, uniform_target(256)),
    # five trials per magnitude, walked as one batch
    "robustness.n16": lambda: np.array(
        robustness_sweep(_schedule(16), CIRC_LEFT, uniform_target(16), [0.0, 0.01, 0.05], 5, 3)
        .points
    ),
}

KERNEL_DIGESTS = {
    "forward.n16": "6b0550df8643461e5b797ebaf85608cd986ca1f96bdb2475f4968d4ceb4f1eec",
    "forward.n64": "e804cf96215a8e7146719ae99ab696d6d5ffe6fe9ddf10d2bab9988eb0e783b3",
    "forward.n256": "78da6f13cb6bc5b9da402c4ad974593e55374a98933a5442bdf91930cc421bf9",
    "gradient.n64": "3253078cd1c7e4bdc52d578353ff95acd781cdb11f292dd59f4841c5105f4c07",
    "gradient.n256": "305c7444b9923fe91ece84b3bd3c33c87afb9c83df8daf6507948ea9f45541bb",
    "robustness.n16": "16729e96ada0695dfdaefd239d46b0709a4292b1c3f2d9e56ec17d20d5238f9e",
}


@pytest.mark.parametrize("name", sorted(KERNEL_DIGESTS))
def test_kernel_output_digest(name):
    assert _sha(np.ascontiguousarray(KERNELS[name]()).tobytes()) == KERNEL_DIGESTS[name]


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


#: Schedule and trace digests of a 20-iteration uniform training from each non-default start.
INIT_DIGESTS = {
    "rand:7": (
        "f7b6313c6c8feb8133b9277b3e97e2cbab05f8834ee71ffe0b3fd1e8b585c6e8",
        "00601d743bd0d34ec1484a72ff1b72cc1677fee14db77564eec2655878aae257",
    ),
    "const:0.25": (
        "d817c58fec01f463ad88b2863c7c7946beecc96a87cf6b483c8727b2b3875649",
        "564d3161c91fcf8142e0ea2cf088bc72ceec92d7c393c9928bb35375a65fdcea",
    ),
}


@pytest.mark.parametrize("init", sorted(INIT_DIGESTS))
def test_training_start_digest(tmp_path, init):
    sched, trace = tmp_path / "s.sched", tmp_path / "s.trace.csv"
    argv = ["train", "--steps", "4", "--target", "uniform", "--max-iters", "20", "--init", init]
    assert main(argv + ["--out", str(sched), "--log", str(trace)]) == 2
    assert (_sha(sched.read_bytes()), _sha(trace.read_bytes())) == INIT_DIGESTS[init]


#: Schedule and trace digests of two more training jobs: the benchmark's n = 8
#: shape, and a start of -0.0 ratios, whose schedule keeps two -0 rows that a
#: clip dropping the sign of zero would change.
JOB_DIGESTS = {
    "n8-gaussian-rand": (
        ["--steps", "8", "--target", "gaussian:1.3,2.1", "--init", "rand:11",
         "--max-iters", "20", "--fidelity-goal", "1.0"],
        "4a2f706a8c89a323383caa78c24b28c0fe5cbe0647c1349393b96305c0f88a81",
        "9df954d545af3c8aa34dc3ed1bf2f83d956896cc0bf82e21ef6adfd37a8a60ad",
    ),
    "n4-const-minus-zero": (
        ["--steps", "4", "--target", "gaussian:0.5,1.5", "--init", "const:-0", "--max-iters", "3"],
        "f12e8ae5af5cd097167c7bca1e49ace0cc70eda34a7d9c0040ada7c770ac84ae",
        "d5a40355a7526262f1d2d03e40f60edc99c261369cb873bb6c2121f7953bdbb8",
    ),
}

#: The same budgeted training on each side of the choice between the float
#: and the array pass: the longest walk on floats, and one step more.  Both
#: were computed when every walk ran on arrays.
BOUNDARY_JOBS = {
    "n13-float-pass": (
        ["--steps", "13", "--target", "gaussian:-0.9,2.7", "--init", "rand:23",
         "--max-iters", "15", "--fidelity-goal", "1.0"],
        "1b0148291f5efbc15aaa4f5fbbeb669ae655186849999657345ed8aafcf8d745",
        "9bfb3e207c186951056bf7453053fbf73c7455d72ad5d43763a1a488d18ed3bb",
    ),
    "n14-array-pass": (
        ["--steps", "14", "--target", "gaussian:-0.9,2.7", "--init", "rand:23",
         "--max-iters", "15", "--fidelity-goal", "1.0"],
        "b49b6a6065b7977260ecf9a736262e919f4d39ab72bd396cfbabe2d1676a29eb",
        "99fc726822f0848738c791d0c1ded490d6245bbd76f58f4c1b403fe7ea8e5230",
    ),
}
JOB_DIGESTS.update(BOUNDARY_JOBS)


def test_boundary_jobs_straddle_the_pass_choice():
    steps = sorted(int(args[1]) for args, _, _ in BOUNDARY_JOBS.values())
    assert steps == [FLOAT_PASS_MAX_STEPS, FLOAT_PASS_MAX_STEPS + 1]


@pytest.mark.parametrize("job", sorted(JOB_DIGESTS))
def test_training_job_digest(tmp_path, job):
    args, sched_sha, trace_sha = JOB_DIGESTS[job]
    sched, trace = tmp_path / "s.sched", tmp_path / "s.trace.csv"
    assert main(["train", *args, "--out", str(sched), "--log", str(trace)]) == 2
    assert (_sha(sched.read_bytes()), _sha(trace.read_bytes())) == (sched_sha, trace_sha)


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
