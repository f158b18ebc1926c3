"""Generated-input properties of the array walk core against the brute-force
oracle: the forward walk (ratios exactly 0 and 1 included, up to the
oracle's size cap) and the adjoint gradient."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qwrng import CoinSchedule, Distribution, initial_state, loss_gradient, measure, run_walk
from qwrng.oracle import MAX_DENSE_STEPS, dense_walk, fd_gradient

# a fixed example sequence keeps the suite's verdict reproducible
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def coin_vectors(draw):
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    norm = np.linalg.norm(parts)
    if norm < 0.1:
        parts, norm = np.array([1.0, 0.0, 0.0, 0.0]), 1.0
    parts = parts / norm
    return complex(parts[0], parts[1]), complex(parts[2], parts[3])


@st.composite
def schedules(draw, max_steps, ratios):
    steps = draw(st.integers(1, max_steps))
    size = steps * (steps + 1) // 2
    return CoinSchedule(steps, draw(st.lists(ratios, min_size=size, max_size=size)))


@st.composite
def distributions(draw, steps):
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=steps + 1, max_size=steps + 1)))
    return Distribution.from_array(steps, w / w.sum())


EDGE_RATIOS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@PROPERTY
@given(schedules(MAX_DENSE_STEPS, EDGE_RATIOS), coin_vectors())
def test_walk_matches_dense_oracle_and_keeps_norm(sched, v):
    final = run_walk(initial_state(v), sched)
    fast = measure(final).as_array()
    dense = dense_walk(sched, v).as_array()
    assert np.max(np.abs(fast - dense)) <= 1e-12
    assert abs(final.norm() - 1.0) <= 1e-12


@PROPERTY
@given(st.data(), schedules(6, st.floats(0.05, 0.95)), coin_vectors())
def test_adjoint_gradient_matches_finite_differences(data, sched, v):
    target = data.draw(distributions(sched.steps))
    state = initial_state(v)
    analytic = loss_gradient(sched, state, target)
    numeric = fd_gradient(sched, state, target, h=1e-5)
    assert max(abs(analytic[k] - numeric[k]) for k in analytic) <= 1e-6
