import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qwrng
from qwrng import fidelity, initial_state, measure, run_walk, uniform_target
from qwrng.cli import main
from qwrng.fileio import read_distribution, read_indices, read_schedule
from qwrng.oracle import dense_walk
from qwrng.sampling import _CHUNK


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One CLI-trained uniform schedule shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    schedule = root / "uniform.sched"
    trace = root / "uniform.trace.csv"
    code = main(
        [
            "train",
            "--steps", "4",
            "--target", "uniform",
            "--eta", "0.1",
            "--out", str(schedule),
            "--log", str(trace),
        ]
    )
    assert code == 0
    return {"root": root, "schedule": schedule, "trace": trace}


def _read_report(path):
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        key, value = line.split(",", 1)
        rows[key] = value
    return rows


class TestTrain:
    def test_uniform_run_converges_and_writes_artifacts(self, workspace):
        sched = read_schedule(workspace["schedule"])
        assert sched.steps == 4
        lines = workspace["trace"].read_text().splitlines()
        assert lines[0] == "iteration,loss,fidelity"
        final_fid = float(lines[-1].split(",")[2])
        assert final_fid >= 0.999

    def test_eta_out_of_range_fails_with_diagnostic(self, tmp_path, capsys):
        code = main(
            [
                "train",
                "--steps", "4",
                "--target", "uniform",
                "--eta", "1.5",
                "--out", str(tmp_path / "s"),
                "--log", str(tmp_path / "t"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "(0, 1]" in err

    def test_gaussian_run_reaches_nine_five_quickly(self, tmp_path):
        trace = tmp_path / "g.trace.csv"
        code = main(
            [
                "train",
                "--steps", "4",
                "--target", "gaussian:0,2",
                "--eta", "0.1",
                "--out", str(tmp_path / "g.sched"),
                "--log", str(trace),
            ]
        )
        # the default goal is strict; non-convergence still writes artifacts
        assert code in (0, 2)
        rows = trace.read_text().splitlines()[1:]
        fids = [float(r.split(",")[2]) for r in rows]
        assert any(f >= 0.95 for f in fids[:101])
        assert any(f >= 0.99 for f in fids)

    def test_non_convergence_exits_two_with_artifacts(self, tmp_path):
        out = tmp_path / "s"
        log = tmp_path / "t"
        code = main(
            [
                "train",
                "--steps", "4",
                "--target", "uniform",
                "--max-iters", "3",
                "--out", str(out),
                "--log", str(log),
            ]
        )
        assert code == 2
        assert out.exists() and log.exists()
        assert len(log.read_text().splitlines()) == 5  # header + iterations 0..3

    def test_random_init_accepted(self, tmp_path):
        code = main(
            [
                "train",
                "--steps", "3",
                "--target", "uniform",
                "--init", "rand:7",
                "--max-iters", "5",
                "--out", str(tmp_path / "s"),
                "--log", str(tmp_path / "t"),
            ]
        )
        assert code in (0, 2)

    def test_bad_init_spec_rejected(self, tmp_path, capsys):
        code = main(
            [
                "train",
                "--steps", "3",
                "--target", "uniform",
                "--init", "warm",
                "--out", str(tmp_path / "s"),
                "--log", str(tmp_path / "t"),
            ]
        )
        assert code == 1
        assert "init" in capsys.readouterr().err

    def test_file_target(self, tmp_path):
        target = tmp_path / "t.csv"
        target.write_text("-2,0.25\n0,0.5\n2,0.25\n")
        code = main(
            [
                "train",
                "--steps", "2",
                "--target", f"file:{target}",
                "--out", str(tmp_path / "s"),
                "--log", str(tmp_path / "l"),
            ]
        )
        assert code == 0


class TestSimulate:
    @pytest.mark.parametrize("name", ["L", "R", "circ-left", "circ-right"])
    def test_unbiased_walk_matches_dense_oracle(self, tmp_path, name):
        sched_path = tmp_path / "flat.sched"
        from qwrng.fileio import write_schedule

        write_schedule(qwrng.CoinSchedule.constant(4, 0.5), sched_path)
        out = tmp_path / f"{name}.csv"
        code = main(
            ["simulate", "--schedule", str(sched_path), "--initial", name, "--out", str(out)]
        )
        assert code == 0
        dist = read_distribution(out, 4)
        oracle = dense_walk(
            qwrng.CoinSchedule.constant(4, 0.5), qwrng.NAMED_COIN_VECTORS[name]
        )
        for m in dist.support():
            assert abs(dist.probs[m] - oracle.probs[m]) <= 1e-12

    def test_trained_schedule_hits_target(self, workspace, tmp_path):
        out = tmp_path / "trained.csv"
        code = main(
            [
                "simulate",
                "--schedule", str(workspace["schedule"]),
                "--initial", "circ-left",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert fidelity(read_distribution(out, 4), uniform_target(4)) >= 0.999

    def test_custom_state(self, tmp_path):
        from qwrng.fileio import write_schedule

        sched_path = tmp_path / "flat.sched"
        write_schedule(qwrng.CoinSchedule.constant(2, 0.5), sched_path)
        rt = 1 / np.sqrt(2)
        code = main(
            [
                "simulate",
                "--schedule", str(sched_path),
                "--initial", f"custom:{rt},0,0,{rt}",
                "--out", str(tmp_path / "c.csv"),
            ]
        )
        assert code == 0

    def test_unnormalized_custom_state_rejected(self, tmp_path, capsys):
        from qwrng.fileio import write_schedule

        sched_path = tmp_path / "flat.sched"
        write_schedule(qwrng.CoinSchedule.constant(2, 0.5), sched_path)
        code = main(
            [
                "simulate",
                "--schedule", str(sched_path),
                "--initial", "custom:0.6,0,0.9,0",
                "--out", str(tmp_path / "c.csv"),
            ]
        )
        assert code == 1
        assert "normalized" in capsys.readouterr().err

    def test_truncated_schedule_rejected(self, workspace, tmp_path, capsys):
        broken = tmp_path / "broken.sched"
        text = workspace["schedule"].read_text().splitlines()
        broken.write_text("\n".join(text[:-3]) + "\n")
        code = main(
            ["simulate", "--schedule", str(broken), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_schedule_file_is_io_error(self, tmp_path, capsys):
        # also when the output names it: only an existing input is refused as an output
        missing = tmp_path / "nope"
        for out in (tmp_path / "x", missing):
            assert main(["simulate", "--schedule", str(missing), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
        assert not list(tmp_path.iterdir())


class TestSample:
    def test_reproducible_byte_for_byte(self, workspace, tmp_path):
        args = [
            "sample",
            "--schedule", str(workspace["schedule"]),
            "--initial", "circ-left",
            "--count", "5000",
            "--seed", "11",
            "--format", "indices",
        ]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_count_rejected(self, workspace, tmp_path, capsys):
        code = main(
            [
                "sample",
                "--schedule", str(workspace["schedule"]),
                "--count", "0",
                "--seed", "1",
                "--out", str(tmp_path / "s.txt"),
            ]
        )
        assert code == 1
        assert "count" in capsys.readouterr().err

    def test_count_beyond_memory_is_one_error_line(self, workspace, tmp_path, capsys):
        # 10^18 index lines need at least 2 EB of disk, so the free-space
        # check fails before anything is drawn
        out = tmp_path / "s.txt"
        code = main(
            [
                "sample",
                "--schedule", str(workspace["schedule"]),
                "--count", str(10**18),
                "--seed", "1",
                "--out", str(out),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["indices", "bits"])
    def test_draws_at_most_one_chunk_at_a_time(self, workspace, tmp_path, monkeypatch, fmt):
        requested, real_draw = [], qwrng.sampling.draw

        def recording(sampler, count):
            requested.append(count)
            return real_draw(sampler, count)

        monkeypatch.setattr(qwrng.sampling, "draw", recording)
        count = 3 * _CHUNK + 5
        argv = ["sample", "--schedule", str(workspace["schedule"]), "--count", str(count)]
        assert main(argv + ["--seed", "1", "--format", fmt, "--out", str(tmp_path / "s")]) == 0
        assert max(requested) == _CHUNK and sum(requested) == count

    @pytest.mark.parametrize("fmt", ["indices", "bits"])
    def test_output_larger_than_the_free_space_is_one_error_line(
        self, workspace, tmp_path, monkeypatch, capsys, fmt
    ):
        # 1000 outcomes take at least 375 bytes as bits and 2000 as indices
        monkeypatch.setattr(shutil, "disk_usage", lambda path: SimpleNamespace(free=374))
        argv = ["sample", "--schedule", str(workspace["schedule"]), "--count", "1000"]
        code = main(argv + ["--seed", "1", "--format", fmt, "--out", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1 and "374" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("fmt", ["indices", "bits"])
    def test_non_regular_target_is_refused(self, workspace, tmp_path, capsys, fmt):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        (tmp_path / "link").symlink_to(fifo)
        (tmp_path / "s.meta").symlink_to(fifo)  # the sidecar of a bits file "s"
        sample = ["sample", "--schedule", str(workspace["schedule"]), "--count", "10"]
        runs = [sample + ["--seed", "1", "--format", fmt, "--out", str(tmp_path / out)]
                for out in ["fifo", "link", "s"][: 3 if fmt == "bits" else 2]]
        runs.append(["train", "--steps", "2", "--target", "uniform",
                     "--out", str(tmp_path / "link"), "--log", str(tmp_path / "fifo")])
        for argv in runs:
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert err.endswith("exists and is not a regular file\n")
        # a bits payload is not written when its sidecar is refused
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link", "s.meta"]
        assert fifo.is_fifo() and (tmp_path / "link").is_symlink()

    def test_bits_format_writes_sidecar(self, workspace, tmp_path):
        out = tmp_path / "s.bits"
        code = main(
            [
                "sample",
                "--schedule", str(workspace["schedule"]),
                "--count", "1000",
                "--seed", "5",
                "--format", "bits",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        meta = (tmp_path / "s.bits.meta").read_text()
        assert "count=1000" in meta and "width=3" in meta

    def test_indices_file_contents_match_library_draw(self, workspace, tmp_path):
        out = tmp_path / "s.txt"
        main(
            [
                "sample",
                "--schedule", str(workspace["schedule"]),
                "--initial", "circ-left",
                "--count", "2000",
                "--seed", "123",
                "--out", str(out),
            ]
        )
        sched = read_schedule(workspace["schedule"])
        dist = measure(run_walk(initial_state(qwrng.NAMED_COIN_VECTORS["circ-left"]), sched))
        expected = qwrng.draw(qwrng.build_sampler(dist, 123), 2000)
        assert np.array_equal(read_indices(out), expected.outcomes)

    @pytest.mark.parametrize("fmt", ["indices", "bits"])
    def test_failed_replace_keeps_the_old_artifact(
        self, workspace, tmp_path, monkeypatch, capsys, fmt
    ):
        out = tmp_path / "s.out"
        args = ["sample", "--schedule", str(workspace["schedule"]), "--count", str(3 * _CHUNK + 5)]
        args += ["--format", fmt, "--out", str(out)]
        assert main(args + ["--seed", "1"]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def refuse(src, dst):
            raise OSError("no space left on device")

        def third_draw_raises(error):
            calls, real_draw = [], qwrng.sampling.draw

            def failing(sampler, count):
                calls.append(count)
                if len(calls) == 3:
                    raise error
                return real_draw(sampler, count)

            return failing

        # the replace fails after the whole stream is written; a draw fails mid-stream
        for module, name, failure in [
            (os, "replace", refuse),
            (qwrng.sampling, "draw", third_draw_raises(OSError("detector offline"))),
            (qwrng.sampling, "draw", third_draw_raises(KeyboardInterrupt())),
        ]:
            with monkeypatch.context() as patch:
                patch.setattr(module, name, failure)
                code = main(args + ["--seed", "2"])
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith("error:") and err.count("\n") == 1
            # the old file and sidecar are untouched, and no temporary is left
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.fixture(scope="module")
def samples(workspace):
    path = workspace["root"] / "samples20k.txt"
    code = main(
        [
            "sample",
            "--schedule", str(workspace["schedule"]),
            "--initial", "circ-left",
            "--count", "20000",
            "--seed", "123",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestAnalyze:
    def test_self_consistency_report(self, workspace, samples, tmp_path):
        report = tmp_path / "report.csv"
        code = main(
            [
                "analyze",
                "--samples", str(samples),
                "--target", "uniform",
                "--schedule", str(workspace["schedule"]),
                "--out", str(report),
            ]
        )
        assert code == 0
        rows = _read_report(report)
        assert rows["samples"] == "20000"
        assert float(rows["chi_square_p_value"]) > 0.01
        assert int(rows["chi_square_dof"]) == 4
        assert abs(float(rows["shannon_entropy_bits"]) - np.log2(5)) <= 0.05
        assert float(rows["empirical_fidelity"]) >= 0.98

    def test_quantization_delta_reported_and_small(self, workspace, samples, tmp_path):
        report = tmp_path / "q.csv"
        code = main(
            [
                "analyze",
                "--samples", str(samples),
                "--target", "uniform",
                "--schedule", str(workspace["schedule"]),
                "--quantize-deg", "0.25",
                "--out", str(report),
            ]
        )
        assert code == 0
        rows = _read_report(report)
        assert abs(float(rows["quantized_fidelity_delta"])) <= 0.01
        assert float(rows["schedule_fidelity"]) >= 0.999

    def test_steps_flag_supports_bare_targets(self, samples, tmp_path):
        report = tmp_path / "r.csv"
        code = main(
            [
                "analyze",
                "--samples", str(samples),
                "--target", "uniform",
                "--steps", "4",
                "--out", str(report),
            ]
        )
        assert code == 0

    def test_steps_required_without_schedule(self, samples, tmp_path, capsys):
        code = main(
            [
                "analyze",
                "--samples", str(samples),
                "--target", "uniform",
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code == 1
        assert "--steps" in capsys.readouterr().err

    def test_file_target_infers_steps(self, samples, tmp_path):
        target = tmp_path / "t.csv"
        target.write_text("-4,0.2\n-2,0.2\n0,0.2\n2,0.2\n4,0.2\n")
        code = main(
            [
                "analyze",
                "--samples", str(samples),
                "--target", f"file:{target}",
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code == 0

    def test_quantize_without_schedule_rejected(self, samples, tmp_path, capsys):
        code = main(
            [
                "analyze",
                "--samples", str(samples),
                "--target", "uniform",
                "--steps", "4",
                "--quantize-deg", "0.25",
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code == 1
        assert "schedule" in capsys.readouterr().err

    def test_infinite_quantize_resolution_is_one_error_line(
        self, workspace, samples, tmp_path, capsys
    ):
        argv = [
            "analyze",
            "--samples", str(samples),
            "--target", "uniform",
            "--schedule", str(workspace["schedule"]),
            "--quantize-deg", "inf",
            "--out", str(tmp_path / "r.csv"),
        ]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: resolution must be positive and finite, got inf\n"
        assert not (tmp_path / "r.csv").exists()

    def test_bad_resolution_is_found_before_any_sample_is_read(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        argv = ["analyze", "--samples", str(empty), "--target", "uniform",
                "--schedule", str(workspace["schedule"]), "--quantize-deg", "-1",
                "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: resolution must be positive and finite, got -1.0\n"
        assert [p.name for p in tmp_path.iterdir()] == ["empty.txt"]


class TestParser:
    def test_unknown_command_exits_one(self, capsys):
        assert main(["transmogrify"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["train", "--bogus", "1"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "train" in capsys.readouterr().out

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "qwrng.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "qwrng" in result.stdout


BIG = 99999999999999999999  # above 2**63: rejected before anything is allocated


@pytest.mark.parametrize(
    "case, pinned",
    [("samples", "too large"), ("target", "missing"), ("train", "too large"), ("steps", "too large")],
)
def test_number_too_large_is_one_error_line(case, pinned, samples, tmp_path, capsys):
    big_samples, big_target = tmp_path / "big.txt", tmp_path / "t.csv"
    big_samples.write_text(f"0\n{BIG}\n")
    big_target.write_text(f"{-10**20},0.5\n{10**20},0.5\n")
    analyze = ["analyze", "--out", str(tmp_path / "r.csv"), "--target"]
    argv = {
        "samples": [*analyze, "uniform", "--steps", "4", "--samples", str(big_samples)],
        "target": [*analyze, f"file:{big_target}", "--samples", str(samples)],
        "train": ["train", "--steps", str(BIG), "--target", "uniform",
                  "--out", str(tmp_path / "s"), "--log", str(tmp_path / "l")],
        "steps": [*analyze, "uniform", "--steps", str(BIG), "--samples", str(samples)],
    }[case]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert pinned in err
    # the message names where the number came from
    assert {"samples": "line 2:", "train": "--steps", "steps": "--steps"}.get(case, "") in err


def test_interrupt_is_one_error_line_and_leaves_no_temporary(
    workspace, tmp_path, monkeypatch, capsys
):
    def interrupt(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupt)  # after the temporary file is written
    argv = ["sample", "--schedule", str(workspace["schedule"]), "--count", "100", "--seed", "1"]
    assert main(argv + ["--out", str(tmp_path / "s.txt")]) == 1
    assert capsys.readouterr().err == "error: interrupted\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["simulate", "train"])
def test_write_into_a_missing_directory_names_the_given_path(
    command, workspace, tmp_path, capsys
):
    target = tmp_path / "nodir" / "out.csv"
    argv = {
        "simulate": ["simulate", "--schedule", str(workspace["schedule"]), "--out", str(target)],
        "train": ["train", "--steps", "2", "--target", "uniform",
                  "--out", str(tmp_path / "s.sched"), "--log", str(target)],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert repr(str(target)) in err and ".tmp" not in err
    assert _fresh(argv).stderr == err  # another process, so another process id


def test_failed_trace_write_leaves_the_schedule_as_it_was(tmp_path, capsys):
    sched, log = tmp_path / "s.sched", tmp_path / "nodir" / "t.csv"
    argv = ["train", "--steps", "2", "--target", "uniform", "--out", str(sched), "--log", str(log)]
    for before in [{}, {"s.sched": b"steps=1\n1,0,0.5\n"}]:
        if before:
            sched.write_bytes(before["s.sched"])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and repr(str(log)) in err
        # no schedule, or the old one, and no temporary file
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("log", ["x.csv", "./x.csv", "alias/x.csv"])
def test_a_set_that_names_one_file_twice_is_refused(log, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "alias").symlink_to(".")
    argv = ["train", "--steps", "2", "--target", "uniform", "--out", "x.csv", "--log", log]
    for before in [{}, {"x.csv": b"steps=1\n1,0,0.5\n"}]:
        if before:
            (tmp_path / "x.csv").write_bytes(before["x.csv"])
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: x.csv and {log} name the same file\n"
        # no file, or the old one, and no temporary file
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name != "alias"}
        assert files == before


@pytest.mark.parametrize("log", ["x.csv", "./x.csv", "alias/x.csv"])
def test_a_set_that_names_one_file_twice_is_refused_before_training(
    log, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "alias").symlink_to(".")

    def unreached(*args, **kwargs):
        raise AssertionError("the clash is found after the work it should spare")

    for name in ("train", "target_from_spec"):
        monkeypatch.setattr(qwrng.cli, name, unreached)
    monkeypatch.setattr(qwrng.training, "train", unreached)
    argv = ["train", "--steps", "4", "--target", "uniform", "--max-iters", "3000",
            "--out", "x.csv", "--log", log]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: x.csv and {log} name the same file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["alias"]


def test_two_names_through_one_link_directory_are_two_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "alias").symlink_to(".")
    argv = ["train", "--steps", "2", "--target", "uniform", "--out", "alias/x.sched"]
    assert main(argv + ["--log", "y.csv"]) == 0
    assert main(argv + ["--log", "alias/y.csv"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["alias", "x.sched", "y.csv"]
    assert read_schedule(tmp_path / "x.sched").steps == 2


def test_an_input_that_links_to_the_output_is_refused(workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    schedule = workspace["schedule"].read_bytes()
    (tmp_path / "s").write_bytes(schedule)
    (tmp_path / "link").symlink_to("s")
    (tmp_path / "dir").symlink_to(".")
    for source, out in [("link", "s"), ("link", "dir/s"), ("dir/s", "./s"), ("dir/link", "s")]:
        assert main(["simulate", "--schedule", source, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {source} and {out} name the same file\n"
        assert (tmp_path / "s").read_bytes() == schedule and (tmp_path / "link").is_symlink()
    # an output that is a link to the input replaces the link, not the input
    assert main(["simulate", "--schedule", "s", "--out", "link"]) == 0
    assert (tmp_path / "s").read_bytes() == schedule and not (tmp_path / "link").is_symlink()
    assert read_distribution(tmp_path / "link").steps == 4


@pytest.mark.parametrize(
    "argv",
    [
        "train --steps 4 --target file:t.csv --max-iters 5 --out t.csv --log log.csv",
        "train --steps 4 --target file:t.csv --max-iters 5 --out s.sched --log ./t.csv",
        "simulate --schedule s.sched --out s.sched",
        "sample --schedule s.sched --count 10 --seed 1 --out ./s.sched",
        "sample --schedule s.sched.meta --count 10 --seed 1 --format bits --out s.sched",
        "analyze --samples x.txt --target uniform --steps 4 --out x.txt",
        "analyze --samples x.txt --target file:t.csv --out t.csv",
        "analyze --samples x.txt --target uniform --schedule s.sched --out s.sched",
    ],
)
def test_an_output_that_names_an_input_is_refused(argv, workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    schedule = workspace["schedule"].read_bytes()
    inputs = {
        "s.sched": schedule, "s.sched.meta": schedule, "x.txt": b"0\n1\n2\n3\n4\n",
        "t.csv": qwrng.fileio.distribution_to_text(uniform_target(4)).encode(),
    }
    for name, data in inputs.items():
        (tmp_path / name).write_bytes(data)
    assert main(argv.split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(" name the same file\n"), err
    assert err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == inputs


#: Per command, an argv ending in ``--out`` that reads some of ``s.sched``,
#: ``x.txt`` and ``t.csv``, and one of those inputs for ``--out ./<input>``.
GUARDED = {
    "train": ("train --steps 4 --target file:t.csv --max-iters 3000 --log log.csv --out", "t.csv"),
    "simulate": ("simulate --schedule s.sched --out", "s.sched"),
    "sample": ("sample --schedule s.sched --count 10 --seed 1 --format bits --out", "s.sched"),
    "analyze": (
        "analyze --samples x.txt --target file:t.csv --schedule s.sched --quantize-deg 0.25 --out",
        "s.sched",
    ),
}
REFUSALS = [
    *(
        pytest.param(f"{argv} {out}", error, id=f"{command}-{case}")
        for command, (argv, source) in GUARDED.items()
        for case, out, error in [
            ("fifo", "fifo", "fifo exists and is not a regular file"),
            ("link-to-fifo", "link", "link exists and is not a regular file"),
            ("missing-dir", "nodir/o", "[Errno 2] No such file or directory: 'nodir/o'"),
            ("input", f"./{source}", f"{source} and ./{source} name the same file"),
        ]
    ),
    pytest.param(f"{GUARDED['train'][0]} ./log.csv", "./log.csv and log.csv name the same file",
                 id="train-two-outputs"),
    pytest.param(f"{GUARDED['sample'][0]} s", "s.meta exists and is not a regular file",
                 id="sample-sidecar-link-to-fifo"),
]


@pytest.mark.parametrize("argv, error", REFUSALS)
def test_every_refused_output_is_refused_before_any_work(
    argv, error, workspace, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)

    def unreached(*args, **kwargs):
        raise AssertionError("the output is refused after the work it should spare")

    for name in ("read_schedule", "iter_indices", "read_distribution"):
        monkeypatch.setattr(qwrng.fileio, name, unreached)
    for name in ("target_from_spec", "train"):
        monkeypatch.setattr(qwrng.cli, name, unreached)
    (tmp_path / "s.sched").write_bytes(workspace["schedule"].read_bytes())
    (tmp_path / "x.txt").write_bytes(b"0\n1\n2\n3\n4\n")
    (tmp_path / "t.csv").write_text(qwrng.fileio.distribution_to_text(uniform_target(4)))
    os.mkfifo(tmp_path / "fifo")
    (tmp_path / "link").symlink_to("fifo")
    (tmp_path / "s.meta").symlink_to("fifo")  # the sidecar of a bits file "s"

    def snapshot():
        return {
            p.name: os.readlink(p) if p.is_symlink() else p.is_fifo() or p.read_bytes()
            for p in tmp_path.iterdir()
        }

    before = snapshot()
    assert main(argv.split()) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert snapshot() == before


#: Peak of the allocations that tracemalloc sees (numpy buffers included)
#: allowed to one `sample` or `analyze` of 2*10^6 outcomes.  Holding them all
#: takes ~80 MB; one chunk or block takes well under 1 MB.
MEMORY_BOUND = 8 * 2**20


@pytest.mark.parametrize("command", ["sample", "analyze", "analyze-crlf"])
def test_memory_does_not_grow_with_the_sample_count(command, workspace, tmp_path):
    samples = tmp_path / "s.txt"
    argv = {
        "sample": ["sample", "--schedule", str(workspace["schedule"]),
                   "--count", str(2 * 10**6), "--seed", "1", "--out", str(samples)],
        "analyze": ["analyze", "--samples", str(samples), "--target", "uniform",
                    "--steps", "4", "--out", str(tmp_path / "r.csv")],
    }
    if command.startswith("analyze"):
        assert main(argv["sample"]) == 0
    if command == "analyze-crlf":  # a first block for the line reader, then array blocks
        samples.write_bytes(b"\r\n" + samples.read_bytes())
    tracemalloc.start()
    try:
        assert main(argv[command.removesuffix("-crlf")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MEMORY_BOUND


@pytest.mark.parametrize(
    "flags, pinned",
    [
        (["train", "--steps", "four"], "argument --steps: invalid int value: 'four'"),
        (["simulate", "--initial", "custom:1,0,0"], "custom state needs four numbers"),
        (["simulate", "--initial", "custom:1,0,x,0"], "non-numeric component in 'custom:1,0,x,0'"),
        (["simulate", "--initial", "diagonal"], "unknown initial state 'diagonal'"),
        (["train", "--steps", "4", "--init", "const:abc"], "expected const:<ratio>, got"),
        (["train", "--steps", "4", "--init", "rand:1.5"], "expected rand:<seed>, got"),
        (["analyze", "--steps", "4"], "outcome index 5 outside [0, 4]"),
        (["train", "--steps", "4", "--init", "rand:-1"], "init seed must be non-negative, got -1"),
        (["train", "--steps", "4", "--init", "const:1.2"], "init ratio must lie in [0, 1], got 1.2"),
        (["train", "--steps", "4", "--init", "const:nan"], "init ratio must lie in [0, 1], got nan"),
        (["train", "--steps", "4", "--init", "peel"], "unknown init spec 'peel'"),
    ],
)
def test_bad_flag_value_is_one_error_line(flags, pinned, workspace, tmp_path, capsys):
    out = ["--out", str(tmp_path / "out")]
    command, rest = flags[0], flags[1:]
    if command == "train":
        argv = ["train", *rest, "--target", "uniform", *out, "--log", str(tmp_path / "log")]
    elif command == "simulate":
        argv = ["simulate", "--schedule", str(workspace["schedule"]), *rest, *out]
    else:
        samples = tmp_path / "samples.txt"
        samples.write_text("0\n5\n")
        argv = ["analyze", "--samples", str(samples), "--target", "uniform", *rest, *out]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert pinned in err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("mu", ["nan", "inf"])
def test_non_finite_gaussian_mean_is_one_error_line(mu, tmp_path, capsys):
    samples = tmp_path / "samples.txt"
    samples.write_text("0\n2\n")
    out = tmp_path / "r.csv"
    argv = ["analyze", "--samples", str(samples), "--target", f"gaussian:{mu},1", "--steps", "4"]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: mu must be finite, got {mu}\n"
    assert not out.exists()


@pytest.mark.parametrize("mu, sigma", [("0.5", "1e-200"), ("1e308", "1e-308")])
def test_gaussian_without_a_finite_weight_is_one_error_line(mu, sigma, tmp_path, capsys):
    out = tmp_path / "s.txt"
    argv = ["train", "--steps", "4", "--target", f"gaussian:{mu},{sigma}", "--out", str(out)]
    assert main(argv + ["--log", str(tmp_path / "t.csv")]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: gaussian mu={float(mu)!r}, sigma={float(sigma)!r}"
        " gives no finite weight on a 4-step walk\n"
    )
    assert not out.exists()


def test_infinite_gaussian_sigma_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "s.txt"
    argv = ["train", "--steps", "4", "--target", "gaussian:0,inf", "--out", str(out)]
    assert main(argv + ["--log", str(tmp_path / "t.csv")]) == 1
    assert capsys.readouterr().err == "error: sigma must be positive and finite, got inf\n"
    assert not out.exists()


def test_target_whose_sum_overflows_is_one_error_line(samples, tmp_path, capsys):
    target = tmp_path / "t.csv"
    target.write_text("position,probability\n-2,1e308\n0,1e308\n2,0\n")
    out = tmp_path / "r.csv"
    argv = ["analyze", "--samples", str(samples), "--target", f"file:{target}", "--out", str(out)]
    assert main(argv + ["--steps", "2"]) == 1
    assert capsys.readouterr().err == "error: probabilities sum to inf; expected 1 within 1e-06\n"
    assert not out.exists()


@pytest.mark.parametrize("steps, code", [("4", 0), ("6", 1)])
def test_analyze_steps_must_match_the_schedule(steps, code, workspace, samples, tmp_path, capsys):
    argv = [
        "analyze",
        "--samples", str(samples),
        "--target", "uniform",
        "--schedule", str(workspace["schedule"]),
        "--steps", steps,
        "--out", str(tmp_path / "r.csv"),
    ]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err == "error: --steps 6 does not match the 4-step schedule\n"
    else:
        assert err == "" and (tmp_path / "r.csv").exists()


def _fresh(argv):
    """``argv`` run as ``python -m qwrng.cli`` in a new interpreter."""
    return subprocess.run([sys.executable, "-m", "qwrng.cli", *argv], capture_output=True, text=True)


def test_failing_run_shows_no_warning_before_its_error_line(workspace, tmp_path):
    # two samples over five sites, which the chi-square warns about, and a failing quantization
    samples = tmp_path / "two.txt"
    samples.write_text("0\n4\n")
    argv = ["analyze", "--samples", str(samples), "--target", "uniform",
            "--schedule", str(workspace["schedule"])]
    failed = _fresh(argv + ["--quantize-deg", "inf", "--out", str(tmp_path / "f.csv")])
    assert failed.returncode == 1
    assert failed.stderr == "error: resolution must be positive and finite, got inf\n"
    assert not (tmp_path / "f.csv").exists()
    # a run that succeeds still shows the warning, as Python formats it, at the same call
    done = _fresh(argv + ["--quantize-deg", "0.25", "--out", str(tmp_path / "r.csv")])
    assert done.returncode == 0
    source = Path(qwrng.cli.__file__).read_text().splitlines()
    call = "chi2 = chi_square_test(counts, target)"
    lineno = next(n for n, line in enumerate(source, 1) if line.strip() == call)
    assert done.stderr == (
        f"{qwrng.cli.__file__}:{lineno}: UserWarning: only 2 observations over 5 sites;"
        f" the chi-square approximation may be poor\n  {call}\n"
    )
    assert _read_report(tmp_path / "r.csv")["samples"] == "2"


def test_report_that_cannot_be_written_shows_no_warning(tmp_path):
    # the chi-square warns about two samples over five sites, then the write fails
    samples = tmp_path / "two.txt"
    samples.write_text("0\n4\n")
    out = tmp_path / "missing" / "r.csv"
    failed = _fresh(["analyze", "--samples", str(samples), "--target", "uniform",
                     "--steps", "4", "--out", str(out)])
    assert failed.returncode == 1
    assert failed.stderr == f"error: [Errno 2] No such file or directory: '{out}'\n"


def test_huge_custom_coin_vector_fails_with_one_error_line(workspace, tmp_path):
    out = tmp_path / "d.csv"
    argv = ["simulate", "--schedule", str(workspace["schedule"]), "--out", str(out)]
    failed = _fresh(argv + ["--initial", "custom:1e308,0,0,0"])
    assert failed.returncode == 1
    assert failed.stderr == "error: coin vector is not normalized: |v|^2 = inf\n"
    assert not out.exists()


def _analyze_one_outcome(tmp_path, steps: int, rows: str, index: int):
    schedule, target, samples = tmp_path / "z.sched", tmp_path / "t.csv", tmp_path / "s.txt"
    schedule.write_text(f"steps={steps}\n" + "".join(
        f"{t},{m},0.5\n" for t in range(1, steps + 1) for m in range(1 - t, t, 2)
    ))
    target.write_text("position,probability\n" + rows)
    samples.write_text(f"{index}\n{index}\n")
    out = tmp_path / "r.csv"
    failed = _fresh(["analyze", "--samples", str(samples), "--target", f"file:{target}",
                     "--schedule", str(schedule), "--out", str(out)])
    assert failed.returncode == 1
    assert failed.stderr == "error: degrees of freedom must be positive, got 0\n"
    assert not out.exists()


def test_one_site_target_fails_with_one_error_line(tmp_path):
    # a walk of no steps leaves the chi-square no degree of freedom, an error
    # that its small-sample warning must not precede
    _analyze_one_outcome(tmp_path, 0, "0,1\n", 0)


def test_one_outcome_target_fails_as_a_one_site_target(tmp_path):
    # its two unreachable sites add no degree of freedom
    _analyze_one_outcome(tmp_path, 2, "-2,0\n0,1\n2,0\n", 1)


def test_grid_too_fine_for_a_float_is_one_error_line(workspace, samples, tmp_path):
    out = tmp_path / "r.csv"
    failed = _fresh(["analyze", "--samples", str(samples), "--target", "uniform",
                     "--schedule", str(workspace["schedule"]), "--quantize-deg", "5e-324",
                     "--out", str(out)])
    assert failed.returncode == 1
    assert failed.stderr == (
        "error: resolution 5e-324 is too fine: a plate angle's step count overflows\n"
    )
    assert not out.exists()


def test_one_parser_serves_successive_calls(tmp_path, capsys):
    # each later call sets options the earlier ones left at their defaults, and
    # the reverse, so a value kept from one parse would change an artifact
    runs = [
        (["train", "--steps", "4", "--target", "uniform", "--eta", "0.2", "--init", "rand:3",
          "--max-iters", "7", "--out", "{d}/a.sched", "--log", "{d}/a.csv"], 2),
        (["train", "--steps", "3", "--target", "uniform", "--fidelity-goal", "0.5",
          "--bogus", "--out", "{d}/x.sched", "--log", "{d}/x.csv"], 1),
        (["sample", "--schedule", "{d}/a.sched", "--initial", "L", "--count", "999",
          "--seed", "5", "--format", "bits", "--out", "{d}/s.bits"], 0),
        (["sample", "--schedule", "{d}/a.sched", "--count", "999",
          "--seed", "5", "--out", "{d}/s.txt"], 0),
        (["train", "--steps", "4", "--target", "uniform",
          "--out", "{d}/b.sched", "--log", "{d}/b.csv"], 0),
    ]
    same, fresh = tmp_path / "same", tmp_path / "fresh"
    for d in (same, fresh):
        d.mkdir()
    for argv, code in runs:
        assert main([a.format(d=same) for a in argv]) == code
        err = capsys.readouterr().err
        proc = _fresh([a.format(d=fresh) for a in argv])
        assert proc.returncode == code
        assert err == proc.stderr
        if code == 1:
            assert err == "error: unrecognized arguments: --bogus\n"
    names = sorted(p.name for p in fresh.iterdir())
    assert names == sorted(p.name for p in same.iterdir())
    assert names == ["a.csv", "a.sched", "b.csv", "b.sched", "s.bits", "s.bits.meta", "s.txt"]
    for name in names:
        assert (same / name).read_bytes() == (fresh / name).read_bytes(), name
