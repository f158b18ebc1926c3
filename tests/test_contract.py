"""The command line's contract under mutated argv.

Each example takes one command's valid argv, changes at most one number in
its flags (a sign, 0, nan, inf, 1e308 or a 20-digit integer) and at most
one of its paths (a missing directory, a directory, a FIFO, a symlink, a
file named twice, or an input cut short or with one line repeated), and
runs :func:`qwrng.cli.main` in-process.  Whatever the
input, the exit code is 0, 1 or 2 and no temporary file is left; on 1,
stderr is one ``error:`` line that names no temporary file, no warning was
issued, and every file is as it was before the run; on 0 or 2, the only
warning is analyze's small-sample one, and a rerun leaves every file byte
for byte as the first run left it.
"""

import contextlib
import io
import os
import re
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwrng import CoinSchedule, uniform_target
from qwrng.cli import main
from qwrng.fileio import distribution_to_text, schedule_to_text
from util import PROPERTY

#: One valid argv per command variant; ``{name}`` stands for a number of
#: ``NUMBERS`` or a path of ``INPUTS`` or ``OUTPUTS``.
TEMPLATES = {
    "train": "train --steps {steps} --target gaussian:{mu},{sigma} --eta {eta}"
    " --max-iters {iters} --fidelity-goal {goal} --init const:{ratio} --out {out} --log {log}",
    "train-file": "train --steps {steps} --target file:{target} --init rand:{seed}"
    " --max-iters {iters} --out {out} --log {log}",
    "simulate": "simulate --schedule {schedule} --initial custom:{re_l},{im_l},{re_r},{im_r}"
    " --out {out}",
    "sample": "sample --schedule {schedule} --count {count} --seed {seed} --out {out}",
    "sample-bits": "sample --schedule {schedule} --count {count} --seed {seed} --format bits"
    " --out {out}",
    "analyze": "analyze --samples {samples} --target uniform --steps {steps} --out {out}",
    "analyze-quantized": "analyze --samples {samples} --target gaussian:{mu},{sigma}"
    " --schedule {schedule} --quantize-deg {deg} --out {out}",
}
# with any one number changed, training stops within about 800 iterations
NUMBERS = {
    "steps": "4", "mu": "0.5", "sigma": "2", "eta": "0.1", "iters": "50", "goal": "0.999",
    "ratio": "0.5", "seed": "7", "re_l": "1", "im_l": "0", "re_r": "0", "im_r": "0",
    "count": "1000", "deg": "0.25",
}
INPUTS = {
    "schedule": ("in.sched", schedule_to_text(CoinSchedule.constant(4))),
    # fewer than 5 per site, so analyze warns that its chi-square may be poor
    "samples": ("in.txt", "0\n1\n2\n3\n4\n" * 4),
    "target": ("in.csv", distribution_to_text(uniform_target(4))),
}
OUTPUTS = {"out": "out", "log": "log.csv"}
#: A cut in the target's row for site 0, after its position and before its comma.
TARGET_CUT = INPUTS["target"][1].index("\n0,") + 2
#: What may stand at a path; a FIFO as an input would block its reader.
PATH_KINDS = ["missing-dir", "directory", "symlink", "dangling-symlink", "twice"]
INPUT_KINDS = [*PATH_KINDS, "truncated", "duplicated-row"]
OUTPUT_KINDS = [*PATH_KINDS, "fifo", "symlink-to-fifo"]


class Plan(NamedTuple):
    command: str
    number: str | None = None  # the changed number of NUMBERS, and its text
    value: str | None = None
    path: str | None = None  # the changed path, what stands there, and the path it repeats
    kind: str | None = None
    other: str | None = None
    old: bool = False  # whether the outputs exist before the run
    at: int = 0  # where a truncated input is cut, or which line a duplicated row repeats


def _numbers(name: str):
    if name == "steps":  # never a large valid walk
        return st.sampled_from([-1, 0, *range(1, 17), sys.maxsize]).map(str)
    if name == "count":
        return st.sampled_from([-1, 0, 1, 1000, 10**18]).map(str)
    default = NUMBERS[name]
    signed = default[1:] if default.startswith("-") else f"-{default}"
    texts = st.sampled_from([signed, "0", "nan", "inf", "-inf", "1e308"])
    return texts | st.integers(10**19, 10**20 - 1).map(str)


@st.composite
def plans(draw):
    command = draw(st.sampled_from(sorted(TEMPLATES)))
    fields = re.findall(r"\{(\w+)\}", TEMPLATES[command])
    paths = [f for f in fields if f not in NUMBERS]
    number = draw(st.none() | st.sampled_from([f for f in fields if f in NUMBERS]))
    path = draw(st.none() | st.sampled_from(paths))
    kind = other = None
    at = 0
    if path is not None:
        kind = draw(st.sampled_from(OUTPUT_KINDS if path in OUTPUTS else INPUT_KINDS))
        if kind == "twice":
            other = draw(st.sampled_from([p for p in paths if p != path]))
        elif kind == "truncated":
            at = draw(st.integers(0, len(INPUTS[path][1]) - 1))
        elif kind == "duplicated-row":
            at = draw(st.integers(0, INPUTS[path][1].count("\n") - 1))
    value = None if number is None else draw(_numbers(number))
    return Plan(command, number, value, path, kind, other, draw(st.booleans()), at)


def _lay_out(root: Path, plan: Plan) -> list[str]:
    """Write the plan's files under ``root`` and return its argv."""
    paths = {}
    for name, (file, text) in INPUTS.items():
        paths[name] = root / file
        paths[name].write_text(text)
    paths.update((name, root / file) for name, file in OUTPUTS.items())
    if plan.old:
        for name in OUTPUTS:
            paths[name].write_bytes(b"old\n")
    odd = paths.get(plan.path)
    if plan.kind == "missing-dir":
        paths[plan.path] = root / "missing" / odd.name
    elif plan.kind == "twice":
        paths[plan.path] = paths[plan.other]
    elif plan.kind == "truncated":
        odd.write_bytes(odd.read_bytes()[: plan.at])
    elif plan.kind == "duplicated-row":
        lines = odd.read_bytes().splitlines(keepends=True)
        odd.write_bytes(b"".join(lines[: plan.at + 1] + lines[plan.at :]))
    elif plan.kind is not None:
        (root / "elsewhere").write_bytes(odd.read_bytes() if odd.exists() else b"elsewhere\n")
        odd.unlink(missing_ok=True)
        if plan.kind == "directory":
            odd.mkdir()
        elif plan.kind == "fifo":
            os.mkfifo(odd)
        elif plan.kind == "symlink-to-fifo":
            os.mkfifo(root / "fifo")
            odd.symlink_to("fifo")
        else:
            odd.symlink_to("elsewhere" if plan.kind == "symlink" else "nowhere")
    values = {**NUMBERS, **{name: str(path) for name, path in paths.items()}}
    if plan.number is not None:
        values[plan.number] = plan.value
    return [token.format(**values) for token in TEMPLATES[plan.command].split()]


def _snapshot(root: Path) -> dict[str, object]:
    """Every entry under ``root``: a file's bytes, a link's target, else its kind."""
    entries = {}
    for path in sorted(root.rglob("*")):
        name = str(path.relative_to(root))
        if path.is_symlink():
            entries[name] = ("link", os.readlink(path))
        elif path.is_file():
            entries[name] = path.read_bytes()
        else:
            entries[name] = "directory" if path.is_dir() else "other"
    return entries


def _run(argv: list[str]) -> tuple[int, str, list[warnings.WarningMessage]]:
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        with warnings.catch_warnings(record=True) as held:
            warnings.simplefilter("always")
            code = main(argv)
    return code, stderr.getvalue(), held


@settings(PROPERTY, max_examples=300)
@example(Plan("train", path="out", kind="missing-dir"))  # an error of open() names the target
@example(Plan("train", path="log", kind="twice", other="out", old=True))
@example(Plan("sample-bits", number="count", value=str(10**18), old=True))
@example(Plan("analyze", path="out", kind="twice", other="samples"))
@example(Plan("simulate", path="out", kind="twice", other="schedule", old=True))
@example(Plan("analyze", path="out", kind="missing-dir"))  # refused before the chi-square warns
@example(Plan("simulate", path="schedule", kind="duplicated-row", at=10))  # its last row
@example(Plan("analyze", path="samples", kind="duplicated-row", at=3))
@example(Plan("train-file", path="target", kind="truncated", at=TARGET_CUT))
@given(plans())
def test_every_argv_keeps_the_exit_code_and_file_contract(tmp_path_factory, plan):
    root = tmp_path_factory.mktemp("argv")
    argv = _lay_out(root, plan)
    before = _snapshot(root)
    code, err, held = _run(argv)
    assert code in (0, 1, 2), (argv, err)
    assert not list(root.rglob("*.tmp")), argv
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert f".{os.getpid()}.tmp" not in err, err
        assert not held, (argv, [str(w.message) for w in held])
        assert _snapshot(root) == before, (argv, err)
    else:  # the one warning a run may show, after its report is written
        assert all("chi-square approximation" in str(w.message) for w in held), argv
        after = _snapshot(root)
        assert _run(argv)[0] == code, argv
        assert _snapshot(root) == after, argv


@pytest.mark.parametrize(
    "plan, code, err",
    [
        (Plan("simulate", path="schedule", kind="duplicated-row", at=10), 1,
         "error: duplicate row for (step, position) (4, 3)\n"),
        (Plan("analyze", path="samples", kind="duplicated-row", at=3), 0, ""),
        (Plan("train-file", path="target", kind="truncated", at=TARGET_CUT), 1,
         "error: line 4: expected 'position,probability', got '0'\n"),
    ],
)
def test_a_cut_or_repeated_input_gives_its_pinned_outcome(tmp_path, plan, code, err):
    assert _run(_lay_out(tmp_path, plan))[:2] == (code, err)
