"""Walk basics: coins, stepping, measurement, and the dense cross-check.

Run with:  python demos/01_walk_basics.py
"""

import numpy as np

from qwrng import (
    CoinSchedule,
    NAMED_COIN_VECTORS,
    coin_from_ratio,
    initial_state,
    measure,
    run_walk,
)
from qwrng.oracle import dense_walk

np.set_printoptions(precision=4, suppress=True)

# --- coins -----------------------------------------------------------------
# The bias ratio r is the weight with which each coin component keeps its
# label; r = 0.5 is the unbiased (Hadamard) coin, r = 1 freezes the labels.
print("unbiased coin (r = 0.5):")
print(coin_from_ratio(0.5).real)
print("\nfully biased coin (r = 1):")
print(coin_from_ratio(1.0).real)

# --- a four-step unbiased walk ----------------------------------------------
# Each step applies the coin at every occupied position, then shifts the L
# component left and the R component right.  Interference concentrates the
# mass depending on the input coin state.
for name in ("L", "circ-left"):
    state = initial_state(NAMED_COIN_VECTORS[name])
    dist = measure(run_walk(state, CoinSchedule.constant(4, 0.5)))
    print(f"\n4-step unbiased walk from {name}:")
    for m in dist.support():
        bar = "#" * int(round(60 * dist.probs[m]))
        print(f"  {m:+d}  {dist.probs[m]:.4f}  {bar}")

# --- trust but verify ---------------------------------------------------------
# The array evolution must agree with an explicit matrix-product simulation.
rng = np.random.default_rng(1)
sched = CoinSchedule(4, [rng.uniform(0, 1) for _ in range(10)])  # ten (step, position) ratios
v = NAMED_COIN_VECTORS["circ-right"]
fast = measure(run_walk(initial_state(v), sched))
slow = dense_walk(sched, v)
gap = max(abs(fast.probs[m] - slow.probs[m]) for m in fast.support())
print(f"\nrandom biased schedule: max deviation from the dense oracle = {gap:.2e}")
