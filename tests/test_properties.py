"""Generated-input properties: the array walk core against the brute-force
oracle (the forward walk alone and batched, ratios exactly 0 and 1 included,
up to the oracle's size cap, batched rows past that cap against their own
walks, a stack over two batch axes row by row, the float pass against the
array pass byte for byte, and the adjoint gradient), and the file formats
(byte-exact round trips, every bit width, streamed sample files against
one-piece ones across chunk edges, the word packer against the per-bit
reference, line-numbered diagnostics, the
array-speed index codec against the plain line-by-line one, the schedule
reader against its general path on mutated files, and the two ways a
mutated bit file may fail)."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qwrng import (
    NAMED_COIN_VECTORS,
    CoinSchedule,
    Distribution,
    TrainConfig,
    fileio,
    initial_state,
    load_target,
    loss_gradient,
    measure,
    run_walk,
    train,
    training,
    uniform_target,
)
from qwrng.fileio import (
    _columns,
    _digit_lines,
    _schedule_from_rows,
    distribution_to_text,
    read_bits,
    read_distribution,
    read_indices,
    read_schedule,
    schedule_from_text,
    schedule_to_text,
    write_bits,
    write_indices,
)
from qwrng.oracle import MAX_DENSE_STEPS, dense_walk, fd_gradient
from qwrng.sampling import _CHUNK, ChunkedStream, build_sampler, draw, encode_bits, pack_fields
from qwrng.training import FLOAT_PASS_MAX_STEPS
from qwrng.walk import _forward, _forward_floats, _forward_rows, _gradient_floats, _gradient_rows
from util import PROPERTY


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
    return Distribution(steps, w / w.sum())


EDGE_RATIOS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def _train_form(values, steps):
    """One walk's ratios in the form ``train`` hands them to ``_forward``."""
    return values.tolist() if steps <= FLOAT_PASS_MAX_STEPS else values


@PROPERTY
@given(schedules(MAX_DENSE_STEPS, EDGE_RATIOS), coin_vectors())
def test_walk_matches_dense_oracle_and_keeps_norm(sched, v):
    final = run_walk(initial_state(v), sched)
    fast = measure(final).as_array()
    dense = dense_walk(sched, v).as_array()
    assert np.max(np.abs(fast - dense)) <= 1e-12
    assert abs(final.norm() - 1.0) <= 1e-12


@PROPERTY
@given(st.data(), st.integers(1, MAX_DENSE_STEPS), st.integers(1, 4), coin_vectors())
def test_batched_walk_rows_equal_their_walks_alone(data, steps, rows, v):
    size = steps * (steps + 1) // 2
    values = np.array(data.draw(st.lists(EDGE_RATIOS, min_size=rows * size, max_size=rows * size)))
    values[0], values[-1] = 0.0, 1.0  # every batch holds both boundary ratios
    values = values.reshape(rows, size)
    initial = initial_state(v)
    (_, _, left, right), probs = _forward_rows(values, steps, initial)
    assert probs.shape == (rows, steps + 1)
    for b, row in enumerate(values):
        (_, _, row_left, row_right), row_probs = _forward_rows(row, steps, initial)
        assert probs[b].tobytes() == row_probs.tobytes()
        alone = _forward(_train_form(row, steps), steps, initial)[1]  # the pass it takes
        assert np.array(alone).tobytes() == row_probs.tobytes()
        assert left[:, b].tobytes() == row_left.tobytes()
        assert right[:, b].tobytes() == row_right.tobytes()
        dense = dense_walk(CoinSchedule(steps, row), v).as_array()
        assert np.max(np.abs(probs[b] - dense)) <= 1e-12
    # a second leading axis walks the same rows
    _, grid = _forward(values.reshape(1, rows, size), steps, initial)
    assert grid.tobytes() == probs.tobytes()


@PROPERTY
@given(st.sampled_from([16, 64]), st.integers(1, 4), st.integers(0, 2**32 - 1), coin_vectors())
def test_batched_walk_rows_equal_their_walks_alone_past_the_oracle_cap(steps, rows, seed, v):
    # no oracle runs this long; each row is held to its own walk, byte for byte
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, (rows, steps * (steps + 1) // 2))
    values[rng.random(values.shape) < 0.1] = 0.0
    values[rng.random(values.shape) < 0.1] = 1.0
    initial = initial_state(v)
    (_, _, left, right), probs = _forward_rows(values, steps, initial)
    assert probs.shape == (rows, steps + 1)
    for b, row in enumerate(values):
        (_, _, row_left, row_right), row_probs = _forward_rows(row, steps, initial)
        assert probs[b].tobytes() == row_probs.tobytes()
        alone = _forward(_train_form(row, steps), steps, initial)[1]  # the pass it takes
        assert np.array(alone).tobytes() == row_probs.tobytes()
        assert left[:, b].tobytes() == row_left.tobytes()
        assert right[:, b].tobytes() == row_right.tobytes()


@PROPERTY
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), coin_vectors())
def test_two_batch_axes_keep_their_order(steps, seed, v):
    # a (2, 3) stack: a reversed batch order would mismatch shapes or rows
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, (2, 3, steps * (steps + 1) // 2))
    values[rng.random(values.shape) < 0.1] = 0.0
    values[rng.random(values.shape) < 0.1] = 1.0
    initial = initial_state(v)
    (_, _, left, right), probs = _forward_rows(values, steps, initial)
    assert probs.shape == (2, 3, steps + 1)
    for i, j in np.ndindex(2, 3):
        (_, _, row_left, row_right), row_probs = _forward_rows(values[i, j], steps, initial)
        assert probs[i, j].tobytes() == row_probs.tobytes()
        alone = _forward(_train_form(values[i, j], steps), steps, initial)[1]  # the pass it takes
        assert np.array(alone).tobytes() == row_probs.tobytes()
        assert left[:, i, j].tobytes() == row_left.tobytes()
        assert right[:, i, j].tobytes() == row_right.tobytes()


@PROPERTY
@given(st.integers(1, 40), st.sampled_from(["circ-left", "circ-right"]), st.integers(0, 2**32 - 1))
def test_end_sites_follow_their_closed_form_past_the_oracle_cap(steps, name, seed):
    # from a circular start each end site is reached along one path: after
    # step 1 (probability 1/2 for any ratio) the edge amplitude keeps its own
    # label at every step, so p(+n) = 1/2 * prod_{t=2..n} r(t, t-1), and p(-n)
    # likewise along r(t, -(t-1))
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, steps * (steps + 1) // 2)
    values[rng.random(values.size) < 0.1] = 0.0
    values[rng.random(values.size) < 0.1] = 1.0
    starts = np.arange(1, steps + 1) * np.arange(steps) // 2  # step t's first ratio, m = -(t-1)
    lows, highs = starts[1:], starts[1:] + np.arange(1, steps)  # the ratios on the way to -n, +n
    edges = np.r_[lows, highs][rng.random(2 * steps - 2) < 0.9]  # in [0.5, 1]: few products vanish
    values[edges] = rng.uniform(0.5, 1.0, edges.size)
    left, right = (0.5 * math.prod(values[k].tolist()) for k in (lows, highs))
    initial = initial_state(NAMED_COIN_VECTORS[name])
    rows = measure(run_walk(initial, CoinSchedule(steps, values))).values
    for probs in (rows, _forward(values.tolist(), steps, initial)[1]):  # rows, then floats
        for p, closed in ((probs[0], left), (probs[-1], right)):
            # worst seen: 5e-16 absolute, 4e-15 relative (3000 random schedules)
            assert abs(p - closed) <= 1e-15, (p, closed)
            assert math.isclose(p, closed, rel_tol=1e-13, abs_tol=1e-300), (p, closed)
            assert p <= 0.5


FLOAT_PASS_RATIOS = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))
NAMED_OR_GENERATED = st.one_of(
    st.sampled_from(sorted(NAMED_COIN_VECTORS)).map(NAMED_COIN_VECTORS.get), coin_vectors()
)


@pytest.mark.parametrize("steps", range(1, FLOAT_PASS_MAX_STEPS + 1))
@settings(PROPERTY, max_examples=25)
@given(st.data(), NAMED_OR_GENERATED, st.booleans())
def test_float_pass_equals_the_array_pass_byte_for_byte(steps, data, v, zero_residual):
    size = steps * (steps + 1) // 2
    values = np.array(data.draw(st.lists(FLOAT_PASS_RATIOS, min_size=size, max_size=size)))
    initial = initial_state(v)
    floats, probs = _forward_floats(values.tolist(), steps, initial)
    rows, row_probs = _forward_rows(values, steps, initial)
    assert np.array(probs).tobytes() == row_probs.tobytes()
    goal = row_probs if zero_residual else data.draw(distributions(steps)).values
    residual = [p - g for p, g in zip(probs, goal.tolist())]
    grad, row_grad = _gradient_floats(floats, residual), _gradient_rows(rows, row_probs - goal)
    assert np.array(grad).tobytes() == row_grad.tobytes()


def _train_both_loops(initial, target, config, start):
    """``train`` as it stands, then with every walk sent to the array loop:
    each run's trace, final schedule and output bytes, and ``converged``."""
    reports = [train(initial, target, config, start)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "FLOAT_PASS_MAX_STEPS", 0)
        reports.append(train(initial, target, config, start))
    return [
        (
            repr(r.iterations),
            r.final_schedule.values.tobytes(),
            r.output.values.tobytes(),
            r.converged,
        )
        for r in reports
    ]


@pytest.mark.parametrize("steps", range(1, FLOAT_PASS_MAX_STEPS + 1))
@settings(PROPERTY, max_examples=12)
@given(st.data(), NAMED_OR_GENERATED, st.sampled_from(["goal", "loss", "budget"]))
def test_the_float_loop_trains_as_the_array_loop_byte_for_byte(steps, data, v, stop):
    size = steps * (steps + 1) // 2
    ratios = data.draw(st.lists(FLOAT_PASS_RATIOS, min_size=size, max_size=size))
    start = CoinSchedule(steps, ratios)
    sites = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.05, 1.0))  # zero sites too
    weights = np.array(data.draw(st.lists(sites, min_size=steps + 1, max_size=steps + 1)))
    assume(weights.max() > 0.0)
    target, initial = Distribution(steps, weights / weights.sum()), initial_state(v)
    eta = data.draw(st.one_of(st.sampled_from([1.0, 0.5, 0.1]), st.floats(0.01, 1.0)))
    config = TrainConfig(eta, data.draw(st.integers(1, 15)), fidelity_goal=1.0, loss_tol=0.0)
    if stop != "budget":  # stop on the fidelity or the loss of a drawn iteration
        trace = train(initial, target, config, start).iterations
        _, loss, fid = trace[data.draw(st.integers(0, len(trace) - 1))]
        assume(fid > 0.0)
        kept = {"fidelity_goal": min(fid, 1.0)} if stop == "goal" else {"loss_tol": loss}
        config = replace(config, **kept)
    floats, rows = _train_both_loops(initial, target, config, start)
    assert floats == rows
    assert floats[3] or stop == "budget"


@PROPERTY
@given(st.data(), schedules(6, st.floats(0.05, 0.95)), coin_vectors())
def test_adjoint_gradient_matches_finite_differences(data, sched, v):
    target = data.draw(distributions(sched.steps))
    state = initial_state(v)
    analytic = loss_gradient(sched, state, target)
    numeric = fd_gradient(sched, state, target, h=1e-5)
    assert np.max(np.abs(analytic - numeric)) <= 1e-6


@PROPERTY
@given(schedules(8, EDGE_RATIOS))
def test_schedule_text_round_trips_byte_for_byte(sched):
    text = schedule_to_text(sched)
    again = schedule_from_text(text)
    assert schedule_to_text(again) == text
    assert np.array_equal(again.values, sched.values)


@PROPERTY
@given(st.data(), st.integers(1, 12))
def test_distribution_text_round_trips(data, steps):
    dist = data.draw(distributions(steps))
    text = distribution_to_text(dist)
    again = load_target(text)
    # the reader renormalizes by the exact sum, so only a mass of exactly 1
    # leaves every value, and so every byte, unchanged
    total = math.fsum(dist.values)
    assert again.values.tolist() == [p / total for p in dist.values.tolist()]
    if total == 1.0:
        assert distribution_to_text(again) == text


@PROPERTY
@given(st.data(), schedules(8, EDGE_RATIOS), st.integers(1, 12))
def test_keyed_rows_read_back_in_any_order(data, sched, steps):
    header, *rows = schedule_to_text(sched).splitlines()
    shuffled = "\n".join([header, *data.draw(st.permutations(rows))])
    assert np.array_equal(schedule_from_text(shuffled).values, sched.values)
    text = distribution_to_text(data.draw(distributions(steps)))
    header, *rows = text.splitlines()
    shuffled = "\n".join([header, *data.draw(st.permutations(rows))])
    for given_steps in (None, steps):
        assert np.array_equal(load_target(shuffled, given_steps).values, load_target(text).values)


@st.composite
def outside_schedule_keys(draw, steps):
    """A (step, position) key off a ``steps``-step schedule: past the cone
    (|m| >= t), of the wrong parity, at t = 0 or after the last step."""
    t = draw(st.integers(1, steps))
    m = draw(st.integers(0, steps))
    return draw(st.sampled_from([
        (t, draw(st.sampled_from([-1, 1])) * (t + 1 + 2 * m)),
        (t + 1, -t + 1 + 2 * min(m, t - 1)),
        (0, m),
        (steps + 1 + m, 0),
    ]))


def _corrupted(data, rows, kind, outside):
    """``rows`` with one row dropped, one duplicated or ``outside`` added."""
    rows = list(rows)
    k = data.draw(st.integers(0, len(rows) - 1))
    if kind == "dropped":
        del rows[k]
    else:
        extra = rows[k] if kind == "duplicated" else outside
        rows.insert(data.draw(st.integers(0, len(rows))), extra)
    return rows


@PROPERTY
@given(st.data(), st.integers(1, 8), st.sampled_from(["dropped", "duplicated", "outside"]))
def test_schedule_reader_rejects_a_wrong_key_set(data, steps, kind):
    header, *rows = schedule_to_text(CoinSchedule.constant(steps)).splitlines()
    t, m = data.draw(outside_schedule_keys(steps))
    bad = _corrupted(data, rows, kind, f"{t},{m},0.5")
    wording = "duplicate" if kind == "duplicated" else "key set"
    with pytest.raises(ValueError, match=wording):
        schedule_from_text("\n".join([header, *bad]))


#: Text a mutation splices into a schedule file: every line break of
#: ``str.splitlines``, the typographic minus, a BOM, what ``int`` and ``float``
#: accept or strip, the words ``float`` reads, and an extra comma.
SCHEDULE_SPLICES = st.sampled_from([
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    "\u2212", "\ufeff", "_", "+", "-", " ", "\t", "0", "nan", "inf", ",",
])


@st.composite
def mutated_schedule_texts(draw):
    """A schedule file as the writer writes it, at 0 to 6 steps, then
    mutated up to three times: a splice into a line, two lines swapped, a line
    duplicated, a blank line added or the final newline dropped."""
    steps = draw(st.integers(0, 6))
    size = steps * (steps + 1) // 2
    ratios = st.sampled_from([0.0, -0.0, 1.0, 5e-324]) | st.floats(0.0, 1.0)
    sched = CoinSchedule(steps, draw(st.lists(ratios, min_size=size, max_size=size)))
    lines = schedule_to_text(sched).split("\n")
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["splice", "swap", "duplicate", "blank", "unterminate"]))
        k, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        if kind == "splice":
            at, cut = draw(st.integers(0, len(lines[k]))), draw(st.integers(0, 1))
            lines[k] = lines[k][:at] + draw(SCHEDULE_SPLICES) + lines[k][at + cut:]
        elif kind == "swap":
            lines[k], lines[j] = lines[j], lines[k]
        elif kind in ("duplicate", "blank"):
            lines.insert(j, lines[k] if kind == "duplicate" else draw(st.sampled_from(["", " "])))
        elif lines[-1] == "":
            lines.pop()
    return "\n".join(lines)


def _schedule_or_error(reader, text):
    try:
        sched = reader(text)
    except ValueError as exc:
        return str(exc)
    return sched.steps, sched.values.tobytes()


@settings(PROPERTY, max_examples=400)
@given(mutated_schedule_texts())
@example("steps=1\n1,0,\u20280.5\n")  # float strips U+2028, but splitlines breaks the row there
@example("steps=2\n1,0,0.5\n2,-1,0.5\n")  # one row short
@example("steps=2\n1,0,0.5\n2,-1,0.5\n2,1,0.5\n2,1,0.5\n")  # one row over
@example("steps=2\r\n1,0,0.25\r\n2,-1,0.5\r\n2,1,0.75\r\n")  # key order, CRLF
@example("steps=2\n1,0,0.25\x0c2,-1,0.5\n2,1,0.75\n")  # a \x0c after a ratio ends its row
@example("steps=2\n1,0,0.25\n2,-1,0.5\n2,1,0.75")  # no final newline
@example("steps=1\n1,0, \x0c 0.5\n")  # float strips \x0c, but splitlines breaks the row there
@example("steps=1\n1,0, \x0c 0.5")
def test_schedule_reader_matches_the_general_reader(text):
    assert _schedule_or_error(schedule_from_text, text) == _schedule_or_error(
        _schedule_from_rows, text
    )


@PROPERTY
@given(st.data(), st.integers(1, 12), st.sampled_from(["dropped", "duplicated", "outside"]))
def test_target_reader_rejects_a_wrong_site_set(data, steps, kind):
    header, *rows = distribution_to_text(uniform_target(steps)).splitlines()
    # past either end, or of the wrong parity
    m = data.draw(st.sampled_from([steps + 2, -steps - 2, 1 - steps]))
    bad = _corrupted(data, rows, kind, f"{m},0")
    wording = {"dropped": "missing", "duplicated": "duplicate", "outside": "unexpected"}[kind]
    with pytest.raises(ValueError, match=wording):
        load_target("\n".join([header, *bad]), steps)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("streams")


def _at_chunk_edges(test):
    """Add an example per stream length on either side of a writer chunk
    edge, at supports of bit width 0, 1, 3 and 9."""
    for count in [1, 7, 8, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]:
        for n_outcomes in [1, 2, 5, 300]:
            test = example(n_outcomes=n_outcomes, count=count, seed=count)(test)
    return test


@PROPERTY
@given(st.integers(1, 70), st.integers(1, 80), st.integers(0, 2**32 - 1))
@_at_chunk_edges
def test_sample_files_round_trip_at_every_width(workdir, n_outcomes, count, seed):
    # the files a stream drawn as it is written gives equal the one-piece
    # encodings of the same draw held in memory
    weights = np.random.default_rng(seed).dirichlet(np.ones(n_outcomes))
    source = Distribution(n_outcomes - 1, weights / weights.sum())
    outcomes = draw(build_sampler(source, seed), count).outcomes
    joined = "".join(f"{i}\n" for i in outcomes.tolist()).encode("ascii")
    bits = encode_bits(outcomes, n_outcomes)
    meta = f"count={count} width={bits.size // count} padding_bits={-bits.size % 8}\n"
    # a chunked stream is read once, so each write gets a fresh one
    write_indices(ChunkedStream(build_sampler(source, seed), count), workdir / "s.txt")
    write_bits(ChunkedStream(build_sampler(source, seed), count), workdir / "s.bits")
    assert (workdir / "s.txt").read_bytes() == joined
    assert (workdir / "s.bits").read_bytes() == np.packbits(bits).tobytes()
    assert (workdir / "s.bits.meta").read_text() == meta
    assert np.array_equal(read_indices(workdir / "s.txt"), outcomes)
    assert np.array_equal(read_bits(workdir / "s.bits"), outcomes)
    assert not list(workdir.glob("*.tmp"))


def test_packer_matches_the_per_bit_reference_at_every_width():
    # both supports of each width, one past a power of two and the power
    # itself, with n - 1 first and 0 last; the counts leave none or 1 to 7
    # outcomes in a short final group.  The long count, whose per-bit
    # reference is the slow part, runs at one support a width: 2**width at
    # even widths, the other one at odd widths.
    rng = np.random.default_rng(0)
    for width in range(1, 64):
        for n_outcomes in (2 ** (width - 1) + 1, 2**width):
            long = (n_outcomes == 2**width) == (width % 2 == 0)
            for count in [1, 7, 8, 9, 15, 17] + [_CHUNK + 3] * long:
                outcomes = rng.integers(0, n_outcomes, count)
                outcomes[[-1, 0]] = 0, n_outcomes - 1
                reference = np.packbits(encode_bits(outcomes, n_outcomes)).tobytes()
                assert pack_fields(outcomes, n_outcomes) == reference, (n_outcomes, count)


#: How :func:`read_bits` may reject a bit file: the two failure kinds it has.
BITS_REJECTIONS = ("malformed sidecar header", "sidecar promises")

# a sidecar field's value as the writer never writes it
FIELD_VALUES = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["", "+3", "1_0", "03", " 3", "3.0", "0x3", "٣", "9" * 30]),
)


def _mutated_bit_file(data, meta: bytes, payload: bytes) -> tuple[bytes, bytes]:
    """``meta`` and ``payload`` with one mutation drawn: a sidecar byte
    replaced, inserted or deleted, a field's value, key order, key set or
    encoding changed, or the payload made short or long."""
    kind = data.draw(st.sampled_from(
        ["replace", "insert", "delete", "value", "reorder", "repeat", "extra", "utf8",
         "short", "long"]
    ))
    fields = meta.split()
    k = data.draw(st.integers(0, len(fields) - 1))
    at = data.draw(st.integers(0, len(meta) - 1))
    byte = data.draw(st.binary(min_size=1, max_size=1))
    if kind == "replace":
        meta = meta[:at] + byte + meta[at + 1:]
    elif kind == "insert":
        meta = meta[:at] + byte + meta[at:]
    elif kind == "delete":
        meta = meta[:at] + meta[at + 1:]
    elif kind == "value":
        fields[k] = fields[k].split(b"=")[0] + b"=" + data.draw(FIELD_VALUES).encode()
        meta = b" ".join(fields) + b"\n"
    elif kind == "reorder":
        meta = b" ".join(data.draw(st.permutations(fields))) + b"\n"
    elif kind in ("repeat", "extra"):
        fields.insert(data.draw(st.integers(0, len(fields))),
                      fields[k] if kind == "repeat" else b"seed=3")
        meta = b" ".join(fields) + b"\n"
    elif kind == "utf8":
        meta = meta[:at] + b"\xff" + meta[at:]
    else:
        cut = data.draw(st.integers(1, 3))
        payload = payload[:-cut] if kind == "short" else payload + bytes(cut)
    return meta, payload


@settings(PROPERTY, max_examples=200)  # about 20 of each mutation kind
@given(st.data(), st.integers(2, 70), st.integers(1, 80), st.integers(0, 2**32 - 1))
def test_mutated_bit_file_reads_back_or_fails_in_one_of_two_ways(
    workdir, data, n_outcomes, count, seed
):
    # width 0 is left out: its payload is empty, so its count is the sidecar's alone
    weights = np.random.default_rng(seed).dirichlet(np.ones(n_outcomes))
    source = Distribution(n_outcomes - 1, weights / weights.sum())
    outcomes = draw(build_sampler(source, seed), count).outcomes
    path = workdir / "m.bits"
    write_bits(ChunkedStream(build_sampler(source, seed), count), path)
    meta_path = workdir / "m.bits.meta"
    meta, payload = _mutated_bit_file(data, meta_path.read_bytes(), path.read_bytes())
    meta_path.write_bytes(meta)
    path.write_bytes(payload)
    try:
        back = read_bits(path)
    except ValueError as exc:
        assert str(exc).startswith(BITS_REJECTIONS), exc
    else:
        assert np.array_equal(back, outcomes)


@PROPERTY
@given(st.integers(1, 3 * _CHUNK), st.integers(1, 3 * _CHUNK), st.integers(0, 2**64 - 1))
@example(_CHUNK, _CHUNK, 0)
@example(_CHUNK - 1, _CHUNK + 1, 0)
def test_successive_draws_continue_one_stream(first, second, seed):
    source = uniform_target(6)
    sampler = build_sampler(source, seed)
    parts = [draw(sampler, first).outcomes, draw(sampler, second).outcomes]
    whole = draw(build_sampler(source, seed), first + second).outcomes
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("n_outcomes", [1, 9, 10, 11, 99, 100, 101, 257, 1000, 1001, 10001])
def test_index_writer_matches_the_join_reference(workdir, n_outcomes):
    source = Distribution(n_outcomes - 1, np.full(n_outcomes, 1 / n_outcomes))
    count = 20 * n_outcomes + 300
    outcomes = draw(build_sampler(source, n_outcomes), count).outcomes
    assert np.unique(outcomes).size == n_outcomes  # every row of the writer's table is used
    write_indices(ChunkedStream(build_sampler(source, n_outcomes), count), workdir / "w.txt")
    reference = "\n".join(map(str, outcomes.tolist())) + "\n"
    assert (workdir / "w.txt").read_bytes() == reference.encode("ascii")


def _line_reader(text: str) -> list[int]:
    """The line-by-line reader that non-digit index files take: ``int`` per line."""
    (values,) = _columns(text, (int,), "an integer index")
    return values


#: Block sizes the index reader runs at: less than a line, a few lines, and
#: the default, which holds these small files whole.
BLOCKS = [1, 3, 64, fileio._BLOCK]


DIGIT_LINES = st.lists(
    st.one_of(st.just(""), st.text("0123456789", min_size=1, max_size=18)), min_size=1, max_size=40
)


@PROPERTY
@given(DIGIT_LINES.filter(any), st.booleans())
@example(["999999999999999999", "", "000000000000000007", "0"], False)
@example(["7", "123456789012345678"], True)  # ends - k wraps below 0: the mask zeroes it
@example(["12", "34", "56"], False)  # equal lengths: no digit is masked
def test_fast_index_reader_matches_the_line_reader(workdir, lines, final_newline):
    text = "\n".join(lines) + ("\n" if final_newline else "")
    assert _digit_lines(text.encode("ascii")) is not None  # the array path takes this file
    (workdir / "d.txt").write_bytes(text.encode("ascii"))
    for block in BLOCKS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fileio, "_BLOCK", block)
            assert read_indices(workdir / "d.txt").tolist() == _line_reader(text)


@pytest.mark.parametrize(
    "data, expected",
    [
        (b" 3\n", [3]),
        (b"+3\n", [3]),
        (b"1_0\n", [10]),
        (b"3\r\n", [3]),
        (b"1000000000000000000\n", [10**18]),  # 19 digits: past the array path
        ("4\n\u22123\n".encode("utf-8"), "non-negative"),
        # below the default block, the line reader takes over after array blocks
        pytest.param(b"7\n" * 40 + b" 3 \r\n\n12\n", [7] * 40 + [3, 12], id="late-crlf"),
        pytest.param(b"7\n" * 40 + b"  \n\nx\n", "^line 43: expected an integer", id="late-garbage"),
        pytest.param(b"7\n" * 40 + b"%d\n" % 10**20, "^line 41: sample index 10+ is too", id="late-big"),
        # each block is read on its own: after a line-read block, array blocks follow
        pytest.param(b" 3 \r\n" + b"7\n" * 40, [3] + [7] * 40, id="early-crlf"),
        pytest.param(
            b"3\r\n" + b"7\n" * 40 + b"x\n", "^line 42: expected an integer",
            id="early-crlf-late-garbage",
        ),
        pytest.param(b"7\n" * 40 + b"\xff\n", "^line 41: expected an integer index", id="late-undecodable"),
    ],
)
def test_other_index_files_take_the_line_reader(workdir, data, expected):
    assert _digit_lines(data) is None
    (workdir / "f.txt").write_bytes(data)
    for block in BLOCKS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fileio, "_BLOCK", block)
            if isinstance(expected, str):
                with pytest.raises(ValueError, match=expected):
                    read_indices(workdir / "f.txt")
            else:
                assert read_indices(workdir / "f.txt").tolist() == expected


#: "\udcff" is written as the byte 0xff, which is not UTF-8.
GARBAGE = st.sampled_from(["x", "1,2,3,4", "0.5,abc", "--1", "1;0", "\udcff"])
FILES = {
    "schedule": (read_schedule, schedule_to_text(CoinSchedule.constant(3, 0.5))),
    "target": (read_distribution, distribution_to_text(uniform_target(3))),
    "indices": (read_indices, "\n0\n1\n2\n3\n4\n"),
}


@PROPERTY
@given(st.data(), st.sampled_from(sorted(FILES)))
def test_garbage_row_is_named_by_its_line_number(workdir, data, kind):
    reader, text = FILES[kind]
    header, *rows = text.splitlines()  # an index file has no header: a blank line stands in
    bad = data.draw(st.integers(0, len(rows) - 1))
    rows[bad] = data.draw(GARBAGE)
    lines = [header]
    for i, row in enumerate(rows):
        lines += data.draw(st.lists(st.sampled_from(["", "  "]), max_size=2)) + [row]
        if i == bad:
            lineno = len(lines)
    path = workdir / "garbage.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
    for block in BLOCKS:  # small blocks give the index reader array blocks before the garbage
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fileio, "_BLOCK", block)
            with pytest.raises(ValueError, match=rf"^line {lineno}: "):
                reader(path)
