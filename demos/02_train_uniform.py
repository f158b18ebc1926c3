"""Fit the coin grid so a four-step walk outputs the flat distribution.

Run with:  python demos/02_train_uniform.py
"""

from qwrng import NAMED_COIN_VECTORS, initial_state, train, uniform_target

state = initial_state(NAMED_COIN_VECTORS["circ-left"])
target = uniform_target(4)

report = train(state, target)  # eta 0.1, constant-0.5 start, goal 0.999

print("target:", {m: round(p, 4) for m, p in target.probs.items()})
print(f"converged: {report.converged} after {report.iterations[-1][0]} updates")

print("\nfidelity milestones:")
shown = set()
for k, loss, fid in report.iterations:
    decade = round(fid, 1)
    if decade not in shown or k == report.iterations[-1][0]:
        shown.add(decade)
        print(f"  iteration {k:4d}   loss {loss:.3e}   fidelity {fid:.6f}")

print("\ntrained output:")
for m, p in report.output.probs.items():
    print(f"  {m:+d}  {p:.6f}")

# The learned grid: one bias per (step, position).  Step t acts on the t
# positions reachable before it, so the grid is triangular.
print("\nlearned coin bias grid (rows are steps):")
for t in range(1, 5):
    row = report.final_schedule.values[t * (t - 1) // 2 : t * (t + 1) // 2]
    cells = "  ".join(f"{m:+d}:{r:.3f}" for m, r in zip(range(1 - t, t, 2), row))
    print(f"  step {t}:  {cells}")

print("\nnote: many grids produce the same distribution; this is the one")
print("gradient descent reaches from the unbiased start.")
