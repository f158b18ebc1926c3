"""Acceptance gates for the whole artifact.

One test per criterion; each prints a single PASS/FAIL line with the
measured numbers (run pytest with -s to see the lines for passing gates
too).  Two gates encode fixed thresholds that the implementation provably
cannot meet; they are kept as stated rather than loosened, and their
failure messages carry the full measurements:

* gate 3: plain gradient descent at learning rate 0.1 from the constant-0.5
  start first reaches fidelity 0.95 at iteration 117, above the pinned
  50-iteration budget (the 0.999-within-500 half holds at iteration 243);
* gate 6: the per-seed empirical fidelity of 10^6 multinomial samples from
  a 5-site uniform source has mean ~0.9984 (the positive part of the
  sampling noise enters the score at first order), so a 0.999 per-seed bar
  cannot hold for 95 of 100 seeds at this sample size; the chi-square half
  of the gate passes for ~98 of 100 seeds.
"""

import time

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

import qwrng
from qwrng import (
    CoinSchedule,
    apply_update,
    build_sampler,
    draw,
    fidelity,
    initial_state,
    loss_gradient,
    measure,
    quantize_schedule,
    run_walk,
    uniform_target,
)
from qwrng.cli import main
from qwrng.oracle import dense_walk, fd_gradient

from util import (
    first_iteration_reaching,
    random_coin_vector,
    random_distribution,
    random_schedule,
)


def _verdict(name: str, ok: bool, detail: str) -> str:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    return line


def test_gate_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        n = 1 + (i % 6)
        sched = random_schedule(rng, n)
        v = random_coin_vector(rng)
        fast = measure(run_walk(initial_state(v), sched))
        dense = dense_walk(sched, v)
        worst = max(worst, max(abs(fast.probs[m] - dense.probs[m]) for m in fast.support()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    detail = f"max per-site deviation {worst:.3e} over 200 walks (limit 1e-12), {elapsed:.2f}s"
    assert ok, _verdict("oracle equivalence", ok, detail)
    _verdict("oracle equivalence", ok, detail)


def test_gate_2_gradient_correctness():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        sched = random_schedule(rng, 4, 0.05, 0.95)
        state = initial_state(random_coin_vector(rng))
        target = random_distribution(rng, 4)
        analytic = loss_gradient(sched, state, target)
        numeric = fd_gradient(sched, state, target, h=1e-5)
        worst = max(worst, np.max(np.abs(analytic - numeric)))
    # second-order decay: halving h should divide the error by about four
    ratios = []
    for _ in range(20):
        sched = random_schedule(rng, 4, 0.2, 0.8)
        state = initial_state(random_coin_vector(rng))
        target = random_distribution(rng, 4)
        exact = loss_gradient(sched, state, target)
        errs = [
            np.max(np.abs(exact - fd_gradient(sched, state, target, h=h)))
            for h in (1e-2, 5e-3)
        ]
        if errs[1] > 1e-12:
            ratios.append(errs[0] / errs[1])
    median_ratio = float(np.median(ratios))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and 3.0 <= median_ratio <= 5.0 and elapsed < 10.0
    detail = (
        f"max |analytic - FD| {worst:.3e} over 100 instances (limit 1e-6), "
        f"error ratio at h halving {median_ratio:.2f} (expect ~4), {elapsed:.2f}s"
    )
    assert ok, _verdict("gradient correctness", ok, detail)
    _verdict("gradient correctness", ok, detail)


def test_gate_3_uniform_training_budget():
    t0 = time.perf_counter()
    report = qwrng.train(
        initial_state(qwrng.NAMED_COIN_VECTORS["circ-left"]), uniform_target(4)
    )
    elapsed = time.perf_counter() - t0
    first95 = first_iteration_reaching(report, 0.95)
    first999 = first_iteration_reaching(report, 0.999)
    ok95 = first95 is not None and first95 <= 50
    ok999 = first999 is not None and first999 <= 500
    ok = ok95 and ok999 and elapsed < 1.0
    detail = (
        f"eta=0.1, constant-0.5 start: fidelity 0.95 first reached at iteration {first95} "
        f"(budget 50), 0.999 at {first999} (budget 500), {elapsed:.2f}s; "
        f"final fidelity {report.final_fidelity:.6f}"
    )
    assert ok, _verdict("uniform training budget", ok, detail)
    _verdict("uniform training budget", ok, detail)


def test_gate_4_gaussian_training_budget():
    t0 = time.perf_counter()
    report = qwrng.train(
        initial_state(qwrng.NAMED_COIN_VECTORS["circ-left"]),
        qwrng.gaussian_target(4, 0.0, 2.0),
    )
    elapsed = time.perf_counter() - t0
    first95 = first_iteration_reaching(report, 0.95)
    first99 = first_iteration_reaching(report, 0.99)
    ok = (
        first95 is not None
        and first95 <= 100
        and first99 is not None
        and first99 <= 500
        and elapsed < 1.0
    )
    detail = (
        f"eta=0.1, constant-0.5 start: fidelity 0.95 first reached at iteration {first95} "
        f"(budget 100), 0.99 at {first99} (budget 500), {elapsed:.2f}s"
    )
    assert ok, _verdict("gaussian training budget", ok, detail)
    _verdict("gaussian training budget", ok, detail)


def test_gate_5_fidelity_metric():
    rng = np.random.default_rng(505)
    ok = True
    for i in range(1000):
        n = 1 + (i % 6)
        y = random_distribution(rng, n)
        t = random_distribution(rng, n)
        f = fidelity(y, t)
        ok &= abs(fidelity(t, t) - 1.0) <= 1e-12
        ok &= -1e-12 <= f <= 1.0 + 1e-12
        ok &= abs(f - fidelity(t, y)) <= 1e-12
        if f == 1.0:
            ok &= bool(np.max(np.abs(y.as_array() - t.as_array())) <= 1e-12)
    detail = "identity/symmetry/bounds/equality over 1000 random pairs at 1e-12"
    assert ok, _verdict("fidelity metric", ok, detail)
    _verdict("fidelity metric", ok, detail)


def test_gate_6_end_to_end_rng(trained_uniform_full):
    target = uniform_target(4)
    source = trained_uniform_full.output
    critical = float(chi2_dist.ppf(0.99, 4))
    expected = 1e6 * target.as_array()
    t0 = time.perf_counter()
    fid_pass = chi_pass = joint = 0
    fids = []
    pooled = np.zeros(5, dtype=np.int64)
    for seed in range(100):
        stream = draw(build_sampler(source, seed), 10**6)
        counts = np.bincount(stream.outcomes, minlength=5)
        pooled += counts
        emp = qwrng.Distribution(4, counts / counts.sum())
        f = fidelity(emp, target)
        stat = float(((counts - expected) ** 2 / expected).sum())
        fids.append(f)
        f_ok = f >= 0.999
        c_ok = stat < critical
        fid_pass += f_ok
        chi_pass += c_ok
        joint += f_ok and c_ok
    elapsed = time.perf_counter() - t0
    pooled_fid = fidelity(
        qwrng.Distribution(4, pooled / pooled.sum()), target
    )
    ok = joint >= 95 and elapsed < 30.0
    detail = (
        f"10^6 draws per seed: fidelity>=0.999 for {fid_pass}/100 seeds, "
        f"chi-square<{critical:.3f} for {chi_pass}/100, both for {joint}/100 (need 95); "
        f"per-seed fidelity mean {np.mean(fids):.6f} min {np.min(fids):.6f} "
        f"max {np.max(fids):.6f}; pooled 10^8-sample fidelity {pooled_fid:.6f}; {elapsed:.1f}s"
    )
    assert ok, _verdict("end-to-end rng", ok, detail)
    _verdict("end-to-end rng", ok, detail)


def test_gate_7_quantization_robustness(trained_uniform, circ_left, uniform4):
    sched = trained_uniform.final_schedule
    base = fidelity(measure(run_walk(circ_left, sched)), uniform4)
    quant = fidelity(measure(run_walk(circ_left, quantize_schedule(sched, 0.25))), uniform4)
    delta = abs(base - quant)
    ok = delta <= 0.01
    detail = (
        f"0.25-degree wave-plate rounding moves fidelity {base:.6f} -> {quant:.6f} "
        f"(|delta| {delta:.6f}, limit 0.01)"
    )
    assert ok, _verdict("quantization robustness", ok, detail)
    _verdict("quantization robustness", ok, detail)


def test_gate_8_conservation(circ_left, uniform4):
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        sched = random_schedule(rng, n)
        state = initial_state(random_coin_vector(rng))
        for t in range(1, n + 1):
            walked = run_walk(state, CoinSchedule(t, sched.values[: t * (t + 1) // 2]))
            worst = max(worst, abs(walked.norm() - 1.0))
    schedules_ok = True
    sched = CoinSchedule.constant(4, 0.5)
    expected_keys = set(sched.ratios)
    for _ in range(60):
        sched = apply_update(sched, loss_gradient(sched, circ_left, uniform4), eta=0.1)
        schedules_ok &= set(sched.ratios) == expected_keys
        schedules_ok &= all(0.0 <= r <= 1.0 for r in sched.ratios.values())
    ok = worst <= 1e-12 and schedules_ok
    detail = (
        f"max norm drift {worst:.3e} over 1000 random walks (limit 1e-12); "
        f"every training iterate kept valid ratios and the exact key set: {schedules_ok}"
    )
    assert ok, _verdict("conservation", ok, detail)
    _verdict("conservation", ok, detail)


def test_gate_9_cli_determinism(tmp_path):
    def run_all(root):
        root.mkdir()
        sched = root / "s.sched"
        trace = root / "t.csv"
        samples = root / "samples.txt"
        bits = root / "samples.bits"
        report = root / "report.csv"
        assert main(
            ["train", "--steps", "4", "--target", "uniform",
             "--out", str(sched), "--log", str(trace)]
        ) == 0
        assert main(
            ["sample", "--schedule", str(sched), "--count", "50000", "--seed", "7",
             "--format", "indices", "--out", str(samples)]
        ) == 0
        assert main(
            ["sample", "--schedule", str(sched), "--count", "50000", "--seed", "7",
             "--format", "bits", "--out", str(bits)]
        ) == 0
        assert main(
            ["analyze", "--samples", str(samples), "--target", "uniform",
             "--schedule", str(sched), "--quantize-deg", "0.25", "--out", str(report)]
        ) == 0
        return {
            p.name: p.read_bytes()
            for p in (sched, trace, samples, bits, root / "samples.bits.meta", report)
        }

    first = run_all(tmp_path / "a")
    second = run_all(tmp_path / "b")
    ok = first == second
    detail = f"schedule/trace/sample/bit/report files byte-identical across reruns: {ok}"
    assert ok, _verdict("cli determinism", ok, detail)
    _verdict("cli determinism", ok, detail)
