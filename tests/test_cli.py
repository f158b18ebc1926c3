import os
import subprocess
import sys

import numpy as np
import pytest

import qwrng
from qwrng import fidelity, initial_state, measure, run_walk, uniform_target
from qwrng.cli import main
from qwrng.fileio import read_distribution, read_indices, read_schedule
from qwrng.oracle import dense_walk


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
        code = main(
            ["simulate", "--schedule", str(tmp_path / "nope"), "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


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
        # 10^18 uniforms need 8 EiB, so the allocation fails when it is
        # requested and no memory is touched
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
        args = ["sample", "--schedule", str(workspace["schedule"]), "--count", "100"]
        args += ["--format", fmt, "--out", str(out)]
        assert main(args + ["--seed", "1"]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def refuse(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        code = main(args + ["--seed", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
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
