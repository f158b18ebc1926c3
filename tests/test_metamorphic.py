"""Metamorphic cases for the files the command line reads.

A rewrite of an input that keeps its meaning (CRLF line ends, no final
newline, a blank line after every line, two leading blank lines) must leave
every artifact byte for byte as the written form of that input gives it.  A
byte that is not UTF-8 in row 3 must fail each run with one ``error: line 3:``
line and leave no output behind.
"""

import contextlib
import io
from pathlib import Path

import pytest

from qwrng import CoinSchedule, gaussian_target
from qwrng.cli import main
from qwrng.fileio import distribution_to_text, schedule_to_text

#: Outcome indices of a 4-step walk, every site about 60 times, so analyze's
#: chi-square has enough counts and shows no warning.
SAMPLES = "".join(f"{(7 * k + k // 3) % 5}\n" for k in range(300))
#: Each input as its writer writes it, and the runs that read it: ``{in}`` is
#: the input's path, ``{samples}`` a copy of ``SAMPLES`` beside it.
INPUTS = {
    "schedule": (
        schedule_to_text(CoinSchedule.random(4, seed=3)),
        [
            "simulate --schedule {in} --initial circ-left --out {dir}/dist.csv",
            "sample --schedule {in} --count 1000 --seed 7 --out {dir}/draws.txt",
        ],
    ),
    "samples": (SAMPLES, ["analyze --samples {in} --target uniform --steps 4 --out {dir}/report.csv"]),
    "target": (
        distribution_to_text(gaussian_target(4, 0.3, 1.5)),
        ["analyze --samples {samples} --target file:{in} --out {dir}/report.csv"],
    ),
}
REWRITES = {
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "no-final-newline": lambda data: data.removesuffix(b"\n"),
    "blank-after-every-line": lambda data: data.replace(b"\n", b"\n\n"),
    "two-leading-blank-lines": lambda data: b"\n\n" + data,
}


def _runs(root: Path, name: str, data: bytes) -> tuple[list[tuple[int, str]], dict[str, bytes]]:
    """Run every command that reads input ``name`` with ``data`` as that input;
    return each run's exit code and stderr, and the files the runs left."""
    root.mkdir()
    paths = {"in": root / "input", "samples": root / "samples.txt", "dir": root}
    paths["in"].write_bytes(data)
    paths["samples"].write_text(SAMPLES)
    results = []
    for argv in INPUTS[name][1]:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv.format(**paths).split())
        results.append((code, err.getvalue()))
    inputs = {paths["in"], paths["samples"]}
    return results, {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p not in inputs}


@pytest.mark.parametrize("rewrite", sorted(REWRITES))
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_a_rewrite_that_keeps_the_meaning_keeps_every_artifact(tmp_path, name, rewrite):
    data = INPUTS[name][0].encode()
    want_runs, want = _runs(tmp_path / "written", name, data)
    assert [code for code, _ in want_runs] == [0] * len(want_runs), want_runs
    got_runs, got = _runs(tmp_path / "rewritten", name, REWRITES[rewrite](data))
    assert got_runs == want_runs
    assert got == want and len(got) == len(want_runs)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_a_byte_that_is_not_utf8_names_its_line_and_writes_nothing(tmp_path, name):
    lines = INPUTS[name][0].encode().split(b"\n")
    lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
    runs, outputs = _runs(tmp_path / "spoiled", name, b"\n".join(lines))
    for code, err in runs:
        assert code == 1 and err.startswith("error: line 3: ") and err.count("\n") == 1, err
    assert outputs == {}
