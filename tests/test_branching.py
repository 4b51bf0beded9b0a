"""The shot-branching walk against the per-shot reference loop: a fixed
seed gives every shot the outcomes it gets when run alone, whatever the
merges and the chunking."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqcemu import engine, executor
from dqcemu.algorithms import QpeConfig, build_distributed_qpe
from dqcemu.circuit import Circuit
from dqcemu.gates import GATE_ARITY

from oracles import run_once_reference, run_shot_loop_reference

GATES = sorted(g for g, (arity, _) in GATE_ARITY.items() if arity <= 2)


@st.composite
def mid_circuit_programs(draw, linked=False):
    """Circuits up to 6 qubits mixing gates with mid-circuit measure,
    reset and c_if, so branches split, merge and condition; `linked` adds
    measure_and_send and remote_c_if to a peer."""
    n = draw(st.integers(1, 6))
    nc = draw(st.integers(1, 4))
    c = Circuit(n, nc, id="random")
    kinds = ["gate", "gate", "measure", "reset", "c_if"] + ["send", "recv"] * linked
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(kinds))
        q = draw(st.integers(0, n - 1))
        if kind == "measure":
            c.measure(q, draw(st.integers(0, nc - 1)))
        elif kind == "reset":
            c.reset(q)
        elif kind == "send":
            c.measure_and_send(q, "peer")
        elif kind == "recv":
            c.remote_c_if(draw(st.sampled_from(["x", "z", "h"])), q, "peer")
        else:
            name = draw(st.sampled_from(GATES if n > 1 else
                                        [g for g in GATES if GATE_ARITY[g][0] == 1]))
            arity, n_params = GATE_ARITY[name]
            qubits = [q] if arity == 1 else draw(st.permutations(range(n)))[:2]
            params = [draw(st.floats(-7, 7)) for _ in range(n_params)]
            if kind == "c_if":
                c.c_if(name, qubits, draw(st.integers(0, nc - 1)), params=params)
            else:
                c.append(name, qubits, params=params)
    return c


#: the default budget, and budgets small enough that chunks of random
#: circuits are cut, down to one shot per chunk for 6 qubits
BUDGETS = st.sampled_from([engine.BRANCH_BUDGET_BYTES, 1 << 12, 1 << 10])


@settings(max_examples=60, deadline=None)
@given(mid_circuit_programs(), st.integers(0, 2 ** 32 - 1), st.integers(1, 60), BUDGETS)
def test_walk_matches_the_shot_loop(circuit, seed, shots, budget):
    with mock.patch.object(engine, "BRANCH_BUDGET_BYTES", budget):
        counts = engine.run_shot_loop(circuit, shots, seed=seed)
    assert counts == run_shot_loop_reference(circuit, shots, seed)


@settings(max_examples=30, deadline=None)
@given(mid_circuit_programs(), st.integers(0, 2 ** 32 - 1))
def test_run_once_matches_the_reference(circuit, seed):
    state, bits = engine.run_once(circuit, np.random.default_rng(seed))
    ref_state, ref_bits = run_once_reference(
        circuit, np.random.default_rng(seed), engine.null_hooks())
    assert bits == ref_bits
    assert np.array_equal(state.amplitudes, ref_state.amplitudes)


def logging_hooks(log: list) -> engine.ChannelHooks:
    """Hooks that log every channel call; a received bit depends on the
    shot and the sequence number."""
    def send(peer, epoch, seq, bit):
        log.append(("send", epoch, seq, bit))

    def recv(peer, epoch, seq):
        log.append(("recv", epoch, seq))
        return (3 * epoch + seq) % 5 % 2
    return engine.ChannelHooks(send=send, recv=recv)


@settings(max_examples=60, deadline=None)
@given(mid_circuit_programs(linked=True), st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       BUDGETS)
def test_channel_linked_walk_matches_the_shot_loop(circuit, seed, shots, budget):
    """Same counts, and the same channel calls in the same order: shots
    share the walk only up to the first channel instruction."""
    walked, looped = [], []
    with mock.patch.object(engine, "BRANCH_BUDGET_BYTES", budget):
        counts = engine.run_shot_loop(circuit, shots, seed=seed,
                                      hooks=logging_hooks(walked))
    assert counts == run_shot_loop_reference(circuit, shots, seed,
                                             hooks=logging_hooks(looped))
    assert walked == looped


def test_any_seed_shot_rng_takes_works_in_every_mode():
    """Both execution styles take the seeds SeedSequence takes."""
    c = Circuit(2, 2, id="seeded")
    c.h(0).measure(0, 0).reset(0).h(1).measure(1, 1)
    assert (engine.run_shot_loop(c, 50, seed=[1, 2])
            == run_shot_loop_reference(c, 50, [1, 2]))
    sampled = Circuit(1, 1, id="sampled")
    sampled.h(0).measure(0, 0)
    assert sum(engine.run_sampled(sampled, 50, seed=[1, 2]).values()) == 50


def teledata_parts() -> list[Circuit]:
    a = Circuit(2, 1, id="a")
    a.h(0).cx(0, 1).qsend(1, "b").measure(0, 0)
    b = Circuit(2, 2, id="b")
    b.h(1).qrecv(0, "a").cx(0, 1).measure(0, 0).measure(1, 1)
    return [a, b]


@pytest.mark.parametrize("parts", [
    pytest.param(teledata_parts, id="teledata"),
    pytest.param(lambda: list(build_distributed_qpe(
        QpeConfig(n_ancilla=3, theta=2 * math.pi * 0.3))), id="telegate"),
])
@pytest.mark.parametrize("seed", [3, 1234])
def test_merged_plans_match_the_shot_loop(parts, seed):
    plan = executor.merge_circuits(parts())
    record = executor.execute_merged(plan, 400, seed=seed)
    assert record.counts == run_shot_loop_reference(
        plan.merged, 400, seed, outputs=plan.user_clbits)


def test_merges_keep_live_clbits_apart():
    c = Circuit(1, 1, id="kept")
    c.h(0).measure(0, 0).reset(0)  # equal states after the reset, bits differ
    counts, counters = engine.run_branched(c, 200, seed=6)
    assert counts == run_shot_loop_reference(c, 200, 6)
    assert set(counts) == {"0", "1"} and counters["peak_branches"] == 2


def test_merges_compare_whole_states(monkeypatch):
    """A fingerprint only groups merge candidates: with every fingerprint
    equal, branches whose states differ must still stay apart."""
    monkeypatch.setattr(engine, "_fingerprint", lambda amps, probe: b"")
    c = Circuit(1, 2, id="dead-bit")
    c.h(0).measure(0, 1).measure(0, 0)  # clbit 1 is no output: dead at once
    counts, _ = engine.run_branched(c, 200, seed=4, outputs=1)
    assert counts == run_shot_loop_reference(c, 200, 4, outputs=1)
    assert set(counts) == {"0", "1"}


def telegate_plan(n=4):
    return executor.merge_circuits(list(build_distributed_qpe(
        QpeConfig(n_ancilla=n, theta=2 * math.pi * 0.35))))


def budgeted_run(monkeypatch, circuit, shots, seed, budget, **kw):
    """run_branched under a budget of `budget` bytes; also returns the most
    shots a chunk started with."""
    monkeypatch.setattr(engine, "BRANCH_BUDGET_BYTES", budget)
    starts, root = [], engine._root
    monkeypatch.setattr(engine, "_root",
                        lambda prog, shots: (starts.append(shots), root(prog, shots))[1])
    counts, counters = engine.run_branched(circuit, shots, seed=seed, **kw)
    return counts, counters, max(starts)


def assert_within_budget(circuit, budget, counters, most_shots):
    """The chunk rule: a chunk's shots (8 bytes of uniform per draw and a row
    index each) take at most half the budget, unless the chunk is one shot,
    and its live states beyond the first fit in what they leave."""
    shot_bytes = 8 * (engine._compile(circuit).draws + 1)
    state_bytes = 16 << circuit.num_qubits
    assert most_shots == 1 or most_shots * shot_bytes <= budget // 2
    states = 1 + (budget - most_shots * shot_bytes) // state_bytes
    assert counters["peak_branches"] <= max(1, states)
    assert (most_shots * shot_bytes
            + (counters["peak_branches"] - 1) * state_bytes) <= budget
    if states < 2:  # no room for a second state: one shot per chunk
        assert most_shots == 1


@pytest.mark.parametrize("budget_states", [1, 3, 7])
def test_chunking_keeps_counts(monkeypatch, budget_states):
    """A budget of one state walks one shot per chunk; three and seven
    states make chunks that are cut where their branches outgrow the
    budget. The counts are those of one uncut chunk at the default budget."""
    plan = telegate_plan()
    merged = plan.merged
    whole, counters = engine.run_branched(merged, 50, seed=5,
                                          outputs=plan.user_clbits)
    assert counters["chunks"] == 1
    budget = budget_states * (16 << merged.num_qubits)
    chunked, counters, most = budgeted_run(monkeypatch, merged, 50, 5, budget,
                                           outputs=plan.user_clbits)
    assert chunked == whole
    assert_within_budget(merged, budget, counters, most)
    if budget_states == 1:
        assert counters["chunks"] == 50
    else:  # more chunks than the shots' uniforms alone ask for: cuts
        assert math.ceil(50 / most) < counters["chunks"] < 50


def test_live_branch_bytes_stay_within_the_budget(monkeypatch):
    c = Circuit(5, 8, id="spread")
    for r in range(8):  # every shot draws its own 8-bit history
        c.h(r % 5).measure(r % 5, r)
    budget = 20 * (16 << c.num_qubits)
    counts, counters, most = budgeted_run(monkeypatch, c, 300, 2, budget)
    assert_within_budget(c, budget, counters, most)
    assert counters["chunks"] >= 300 // 20
    assert counts == run_shot_loop_reference(c, 300, 2)


def test_channel_linked_chunks_are_cut_in_their_shared_prefix(monkeypatch):
    """Histories diverge before the first channel instruction, so chunks are
    cut there; bits still go out in shot order, call for call as the loop
    makes them."""
    c = Circuit(6, 3, id="src")
    for q in range(3):
        c.h(q).measure(q, q)
    c.measure_and_send(0, "dst").remote_c_if("x", 1, "dst").measure(1, 1)
    # room for every shot's 5 uniforms and row index, and for 3 more states
    shots = 40
    budget = shots * 8 * 6 + 3 * (16 << c.num_qubits)
    walked, looped = [], []
    counts, counters, most = budgeted_run(monkeypatch, c, shots, 8, budget,
                                          hooks=logging_hooks(walked))
    assert most == shots and counters["chunks"] > 1  # every chunk past the first is a cut
    assert_within_budget(c, budget, counters, most)
    assert [epoch for kind, epoch, *_ in walked if kind == "send"] == list(range(shots))
    assert counts == run_shot_loop_reference(c, shots, 8, hooks=logging_hooks(looped))
    assert walked == looped


def test_telegate8_walks_in_one_chunk():
    """The 2,000 shots of the merged 8-ancilla QPE, at a phase near a
    multiple of 1/256 as the benchmark draws them, reconverge after every
    telegate, so at the default budget they walk as one chunk."""
    plan = executor.merge_circuits(list(build_distributed_qpe(
        QpeConfig(n_ancilla=8, theta=2 * math.pi * (77 + 0.2) / 256))))
    record = executor.execute_merged(plan, 2000, seed=21)
    assert record.metadata["chunks"] == 1
    assert sum(record.counts.values()) == 2000
    assert_within_budget(plan.merged, engine.BRANCH_BUDGET_BYTES, record.metadata,
                         2000)


def test_telegate_histories_reconverge():
    """Protocol bits die after their corrections and the comm pair is
    reset, so the walk ends with at most one branch per output history."""
    n, shots = 4, 2000
    program = engine._compile(telegate_plan(n).merged, outputs=n)
    rows = np.array([engine.shot_rng(9, s).random(program.draws) for s in range(shots)])
    ends, peak, kept = engine._walk(program, program.ops, [engine._root(program, shots)],
                                    iter(rows.T).__next__, range(shots),
                                    engine.null_hooks())
    assert kept == range(shots)
    assert len(ends) <= 2 ** n
    assert sum(len(b.shots) for b in ends) == shots
    assert peak <= 2 ** n


def test_executor_result_carries_the_walk_counters():
    record = executor.execute_merged(telegate_plan(), 300, seed=1)
    assert record.metadata["chunks"] == 1
    assert 1 <= record.metadata["peak_branches"] <= 300


def test_channel_linked_shots_share_the_walk_up_to_the_channel():
    c = Circuit(2, 2, id="src")
    c.h(0).h(1).measure(1, 1).measure_and_send(0, "dst").measure(0, 0)
    sent = []
    hooks = engine.ChannelHooks(send=lambda *a: sent.append(a), recv=lambda *a: 0)
    counts, counters = engine.run_branched(c, 20, seed=8, hooks=hooks)
    assert [epoch for _, epoch, _, _ in sent] == list(range(20))
    # two branches from the shared measurement, plus the shot walking alone
    assert counters == {"peak_branches": 3, "chunks": 1}
    assert counts == run_shot_loop_reference(c, 20, 8, hooks=hooks)
