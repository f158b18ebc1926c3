"""From a trained walk to validated random-number streams.

Run with:  python demos/04_random_numbers.py
"""

import numpy as np

from qwrng import (
    NAMED_COIN_VECTORS,
    build_sampler,
    chi_square_test,
    counts_by_position,
    draw,
    empirical_distribution,
    encode_bits,
    entropy_report,
    fidelity,
    initial_state,
    pack_bits,
    train,
    uniform_target,
)

# Train once, then treat the walk's output distribution as the source.
state = initial_state(NAMED_COIN_VECTORS["circ-left"])
target = uniform_target(4)
source = train(state, target).output
print("source:", {m: round(p, 5) for m, p in source.probs.items()})

# Seeded draws: the same (distribution, seed, count) always gives the same
# stream.  These are reproducible stand-ins for a detector click record.
sampler = build_sampler(source, seed=2024)
stream = draw(sampler, 200_000)
print(f"\ndrew {stream.count} outcomes; first ten: {stream.outcomes[:10]}")

emp = empirical_distribution(stream.outcomes, 4)
print("empirical:", {m: round(p, 5) for m, p in emp.probs.items()})
print(f"empirical fidelity vs target: {fidelity(emp, target):.6f}")

# Validation: chi-square goodness of fit plus entropy accounting.
report = chi_square_test(counts_by_position(stream.outcomes, 4), target)
print(f"\nchi-square: statistic {report.statistic:.3f}, dof {report.dof}, "
      f"p-value {report.p_value:.4f}")
shannon, min_h = entropy_report(emp)
print(f"entropy: shannon {shannon:.4f} bits/outcome, min-entropy {min_h:.4f} "
      f"(uniform ceiling {np.log2(5):.4f})")

# Multi-bit encoding: five outcomes need 3-bit fields.  Bits are only
# individually unbiased for a uniform source over a power-of-two support,
# so for five outcomes the stream is an encoding, not extracted randomness.
bits = encode_bits(stream.outcomes, stream.n_outcomes)
packed, padding = pack_bits(bits)
print(f"\nencoded {stream.count} outcomes -> {bits.size} bits "
      f"-> {len(packed)} bytes ({padding} padding bits)")
print("bit stream head:", "".join(map(str, bits[:24])))
ones = bits.mean()
print(f"fraction of ones: {ones:.4f} (biased by design for a 5-outcome source)")
