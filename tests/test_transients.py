"""What each step of a job holds beyond its state: every in-place kernel
works through pieces of at most `statevector.SLAB` amplitudes, so a step
at 18 active qubits (a 4 MiB state) holds at most two such pieces (the
block bound), and a transposed sweep its buffer and two pieces more. Each
result equals the allocating form in `oracles` bit for bit, and the
terminal sampler draws what `Generator.choice` draws."""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqcemu import engine, statevector
from dqcemu.algorithms import QpeConfig, build_distributed_qpe, build_qpe
from dqcemu.executor import merge_circuits
from dqcemu.statevector import (
    Fold,
    collapse,
    compile_gate,
    compile_gates,
    move_to_zero,
    sample_basis,
    sample_outcomes,
)

from oracles import (
    grow_by_copy,
    mix_by_copy,
    move_to_zero_by_copy,
    sample_by_choice,
    swap_by_copy,
)

N = 18
SLAB_BYTES = 16 * statevector.SLAB
#: the block bound: two pieces, and room for the Python objects of a step
BOUND = 2 * SLAB_BYTES + (32 << 10)
#: a sweep's buffer of 2^SWEEP_QUBITS rows of 2^SWEEP_QUBITS amplitudes
SWEEP_BYTES = 16 << 2 * statevector.SWEEP_QUBITS


def random_state(n: int, seed: int, room: int | None = None) -> np.ndarray:
    """A normalized state of `n` qubits, the head of an array of 2^room."""
    rng = np.random.default_rng(seed)
    buf = np.zeros(1 << (n if room is None else room), dtype=complex)
    amps = buf[:1 << n]
    amps.real, amps.imag = rng.normal(size=(2, 1 << n))
    amps /= np.linalg.norm(amps)
    return amps


def held(step, *args):
    """`step(*args)`'s result and the most it allocated beyond what it
    returns and what was live before, at the walk's ufunc buffer (numpy
    buffers an operand whose contiguous runs are short, up to that size)."""
    tracemalloc.start()
    try:
        with engine._ufunc_buffer():
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = step(*args)
            after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - max(before, after)


@pytest.mark.parametrize("bits", [{9: 1}, {17: 0}, {2: 0, 10: 1, 16: 0}, {0: 1, 1: 1, 3: 1}],
                         ids=["1-qubit-mid-at-1", "1-qubit-top", "3-qubits", "3-low-at-1"])
def test_growth_spreads_within_the_buffer(bits):
    """A growth step of 1 or 3 qubits to 18 active ones allocates nothing
    the size of a state and gives the new array's amplitudes."""
    fold = Fold(N, dict(bits))
    grow = fold.activate(list(bits))
    amps = random_state(N - len(bits), len(bits), room=N)
    want = grow_by_copy(grow, amps.copy())
    got, extra = held(grow, amps)
    assert extra <= BOUND
    assert got.base is amps.base and np.array_equal(got, want)


def test_growth_needs_room():
    with pytest.raises(ValueError, match="room"):
        Fold(4, {3: 0}).activate([3])(np.zeros(8, dtype=complex))


@pytest.mark.parametrize("name, qubits, params, kernel", [
    ("x", (4,), (), "swap"), ("x", (15,), (), "swap"),
    ("cx", (3, 12), (), "swap"), ("cx", (16, 0), (), "swap"),
    ("swap", (2, 14), (), "swap"), ("swap", (17, 16), (), "swap"),
    ("y", (9,), (), "mix"), ("u", (13,), (0.3, -1.1, 2.0), "mix"),
    ("u", (17,), (1.0, 0.5, -0.25), "mix"), ("cy", (2, 11), (), "mix"),
])
def test_kernels_hold_at_most_two_pieces(name, qubits, params, kernel):
    """`x`, `cx` and `swap` exchange, `y`, `u` and `cy` mix a piece at a
    time; the allocating forms give the same amplitudes."""
    start = random_state(N, 7)
    got = start.copy()
    _, extra = held(compile_gate(N, name, qubits, params), got)
    assert extra <= BOUND
    patch = {"swap": ("_swap", swap_by_copy), "mix": ("_mix", mix_by_copy)}[kernel]
    with mock.patch.object(statevector, *patch):
        want = start.copy()
        compile_gate(N, name, qubits, params)(want)
    assert np.array_equal(got, want)


def test_low_qubit_mix_holds_its_block_and_two_pieces():
    """A lone `u` below SWEEP_QUBITS of 18 qubits is a sweep of one: it
    holds one buffer of 2^SWEEP_QUBITS rows of 2^SWEEP_QUBITS amplitudes,
    and its mix two pieces. A lone `x` or `cx` there is no sweep and holds
    only two pieces."""
    start = random_state(N, 8)
    got = start.copy()
    _, extra = held(compile_gate(N, "u", (2,), (0.4, 0.2, -0.7)), got)
    assert extra <= SWEEP_BYTES + BOUND
    with mock.patch.object(statevector, "_mix", mix_by_copy):
        want = start.copy()
        compile_gate(N, "u", (2,), (0.4, 0.2, -0.7))(want)
    assert np.array_equal(got, want)
    for name, qubits in (("x", (2,)), ("cx", (5, 1))):
        _, extra = held(compile_gate(N, name, qubits), start.copy())
        assert extra <= BOUND, name


def test_sweep_holds_its_buffer_and_two_pieces():
    """A run of gates on qubits below SWEEP_QUBITS is one sweep."""
    gates = [("h", (0,), ()), ("u", (3,), (0.1, 0.2, 0.3)), ("swap", (1, 6), ()),
             ("cp", (2, 5), (0.7,)), ("cx", (7, 4), ()), ("y", (5,), ())]
    ((kernel, _),) = compile_gates(N, gates)
    start = random_state(N, 9)
    got = start.copy()
    _, extra = held(kernel, got)
    assert extra <= SWEEP_BYTES + BOUND
    with (mock.patch.object(statevector, "_mix", mix_by_copy),
          mock.patch.object(statevector, "_swap", swap_by_copy)):
        ((kernel, _),) = compile_gates(N, gates)
        want = start.copy()
        kernel(want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("qubit", [0, 6, 17])
@pytest.mark.parametrize("outcome", [0, 1])
def test_collapse_and_reset_stay_in_place(qubit, outcome):
    """A collapse writes in place; a reset onto 1 then moves the kept half
    to |0> a piece at a time."""
    start = random_state(N, qubit)
    _, weights = sample_outcomes(start, qubit, np.array([0.5]))
    got = start.copy()
    _, extra = held(collapse, got, qubit, outcome, weights)
    assert extra <= BOUND
    keep = (np.arange(1 << N) >> qubit & 1) == outcome
    assert np.array_equal(got, np.where(keep, start / np.sqrt(weights[outcome]), 0))
    want = got.copy()
    _, extra = held(move_to_zero, got, qubit)
    assert extra <= BOUND
    move_to_zero_by_copy(want, qubit)
    assert np.array_equal(got, want)


def test_terminal_sampler_draws_in_the_state():
    """The terminal draw of 18 qubits builds its table in the state's own
    array and draws SLAB shots at a time: 100,000 draws, taken a piece at a
    time, hold the two pieces and one piece of uniforms and outcomes (8
    bytes each per shot), not the draws' 1.6 MB."""
    shots = 100_000
    start = random_state(N, 3)
    got = np.empty(shots, dtype=np.int64)

    def draw(amps, rng):
        at = 0
        for piece in sample_basis(amps, rng, shots):
            assert len(piece) <= statevector.SLAB
            got[at:at + len(piece)] = piece
            at += len(piece)
        return at

    drawn, extra = held(draw, start.copy(), np.random.default_rng(5))
    assert drawn == shots
    assert extra <= BOUND + SLAB_BYTES
    assert np.array_equal(got, sample_by_choice(start, np.random.default_rng(5), shots))


def test_a_wide_sampled_job_stays_near_its_state():
    """A 22-qubit QPE, its target folded (a 32 MiB state), sampled 20,000
    times: the job's traced peak is within 4 MiB of its state."""
    circuit = build_qpe(QpeConfig(n_ancilla=21, theta=2.0))
    tracemalloc.start()
    try:
        _, meta = engine.run_branched(circuit, 20_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert meta["state_qubits"] == 21
    assert peak <= (16 << 21) + (4 << 20)


def test_telegate_walk_steps_hold_at_most_a_sweep_buffer(monkeypatch):
    """In 1c n=16's walk (19 merged qubits, an 8 MiB state) no step holds
    more than a sweep's buffer beyond the states live before and after
    it: the growth to the full width at the first draw allocates nothing,
    and `cx`, conditional `x` and `reset` hold their pieces only."""
    plan = merge_circuits(list(build_distributed_qpe(QpeConfig(n_ancilla=16, theta=2.0))))
    worst: dict[str, int] = {}
    step = engine._step

    def traced(op, *args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = step(op, *args)
        after, peak = tracemalloc.get_traced_memory()
        worst[op.kind] = max(worst.get(op.kind, 0), peak - max(before, after))
        return out

    monkeypatch.setattr(engine, "_step", traced)
    tracemalloc.start()
    try:
        _, meta = engine.run_branched(plan.merged, 2, seed=1, outputs=plan.user_clbits)
    finally:
        tracemalloc.stop()
    assert meta["state_qubits"] == 19
    assert {"grow", "gate", "cond", "measure", "reset"} <= worst.keys()
    assert max(worst.values()) <= SWEEP_BYTES + (32 << 10), worst


@st.composite
def weights(draw):
    """Amplitudes of lengths below, at and past SLAB, some not a multiple
    of it, with exact zeros and a zero tail."""
    n = draw(st.sampled_from([1, 2, 5, 8, 100, statevector.SLAB, statevector.SLAB + 3,
                              3 * statevector.SLAB - 7]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    amps[rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.95]))] = 0
    amps[n - draw(st.integers(0, n - 1)):] = 0  # a zero tail, of length 0 up
    if not amps.any():
        amps[0] = draw(st.sampled_from([1.0, 1e-3j, -2.0]))
    return amps


@settings(max_examples=60, deadline=None)
@given(weights(), st.integers(0, 2**32 - 1),
       st.one_of(st.integers(1, 3000), st.integers(statevector.SLAB - 2,
                                                   2 * statevector.SLAB + 3)))
def test_sampler_draws_what_choice_draws(amps, seed, shots):
    """`sample_basis`'s pieces, one after another, are the outcomes of
    `Generator.choice(p=...)` from the same stream, and leave the stream
    where `choice` does."""
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(np.concatenate(list(sample_basis(amps.copy(), mine, shots))),
                          sample_by_choice(amps, theirs, shots))
    assert mine.random() == theirs.random()


@pytest.mark.parametrize("amps", [np.zeros(4, dtype=complex),
                                  np.array([np.nan, 1, 0, 0], dtype=complex)],
                         ids=["zero", "nan"])
def test_sampler_refuses_a_state_without_weight(amps):
    with pytest.raises(engine.ZeroNorm):
        sample_basis(amps, np.random.default_rng(0), 3)
