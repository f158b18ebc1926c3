"""Shape the walk's output into a bell curve.

Run with:  python demos/03_train_gaussian.py
"""

from qwrng import (
    NAMED_COIN_VECTORS,
    TrainConfig,
    fidelity,
    gaussian_target,
    initial_state,
    train,
)

state = initial_state(NAMED_COIN_VECTORS["circ-left"])
target = gaussian_target(4, mu=0.0, sigma=2.0)

report = train(state, target, TrainConfig(max_iters=500))

print(f"converged: {report.converged}; final fidelity {report.final_fidelity:.6f}")
for goal in (0.9, 0.95, 0.99):
    hit = next((k for k, _, f in report.iterations if f >= goal), None)
    print(f"  fidelity {goal} first reached at iteration {hit}")

print("\n          target    trained")
for m in target.support():
    t, y = target.probs[m], report.output.probs[m]
    print(f"  {m:+d}   {t:.5f}   {y:.5f}   {'#' * int(round(50 * y))}")

print(f"\nfinal fidelity vs target: {fidelity(report.output, target):.6f}")

# A custom target works the same way: any probability vector over the five
# sites that sums to one, e.g. a tilted ramp.
from qwrng import Distribution

ramp = Distribution(4, [0.05, 0.10, 0.20, 0.30, 0.35])
ramp_report = train(state, ramp, TrainConfig(max_iters=500))
print(f"\nramp target: final fidelity {ramp_report.final_fidelity:.6f}")
for m in ramp.support():
    print(f"  {m:+d}   {ramp.probs[m]:.3f}   {ramp_report.output.probs[m]:.5f}")
