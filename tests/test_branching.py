"""The shot-branching walk against the per-shot reference loop: a fixed
seed gives every shot the outcomes it gets when run alone, whatever the
merges and the chunking."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqcemu import engine, executor, gates
from dqcemu.algorithms import QpeConfig, build_distributed_qpe, build_qpe
from dqcemu.circuit import Circuit
from dqcemu.errors import ZeroNorm
from dqcemu.statevector import StateVector, collapse, sample_outcomes

from oracles import (
    run_once_reference,
    run_sampled_reference,
    run_shot_loop_reference,
    sampled_admissible,
)

GATES = sorted(g for g, gate in gates.GATES.items() if gate.qubits <= 2)


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
                                        [g for g in GATES if gates.GATES[g].qubits == 1]))
            arity, n_params = gates.GATES[name].qubits, gates.GATES[name].params
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
    """A circuit that draws nothing before its terminal measurements is
    sampled from the job's stream, as the sampled reference does; any
    other gives every shot the outcomes of the reference loop."""
    with mock.patch.object(engine, "BRANCH_BUDGET_BYTES", budget):
        counts = engine.run_shot_loop(circuit, shots, seed=seed)
    reference = (run_sampled_reference if sampled_admissible(circuit)
                 else run_shot_loop_reference)
    assert counts == reference(circuit, shots, seed)


@st.composite
def terminal_programs(draw):
    """Circuits the old sampler admitted: gates, and measurements after
    which only other qubits see gates, into clbits that may be written
    again; a qubit may be measured more than once."""
    n = draw(st.integers(1, 6))
    nc = draw(st.integers(1, 4))
    c = Circuit(n, nc, id="terminal")
    measured: set[int] = set()
    for _ in range(draw(st.integers(1, 24))):
        free = [q for q in range(n) if q not in measured]
        if not free or draw(st.integers(0, 2)) == 0:
            q = draw(st.integers(0, n - 1))
            c.measure(q, draw(st.integers(0, nc - 1)))
            measured.add(q)
            continue
        name = draw(st.sampled_from(GATES if len(free) > 1 else
                                    [g for g in GATES if gates.GATES[g].qubits == 1]))
        arity, n_params = gates.GATES[name].qubits, gates.GATES[name].params
        qubits = draw(st.permutations(free))[:arity]
        c.append(name, qubits, params=[draw(st.floats(-7, 7)) for _ in range(n_params)])
    return c


def sampled_width(circuit) -> int:
    """The most qubits a state holds in a job that draws nothing before its
    terminal measurements: the engine.START_WIDTH lowest and those that a
    gate other than `x` or a diagonal one acts on; or all of them, where
    the measurements are sampled from the full state because a qubit left
    out lies below one held."""
    held = set(range(min(circuit.num_qubits, engine.START_WIDTH))) | {
        q for ins in circuit.instructions if ins.name not in ("measure", "x")
        and gates.GATES[ins.name].kernel != "diagonal" for q in ins.qubits}
    left = set(range(circuit.num_qubits)) - held
    measured = any(ins.name == "measure" for ins in circuit.instructions)
    if measured and left and min(left) < len(held):
        return circuit.num_qubits
    return len(held)


@settings(max_examples=60, deadline=None)
@given(terminal_programs(), st.integers(0, 2 ** 32 - 1), st.integers(1, 200))
def test_terminal_circuits_match_the_sampled_reference(circuit, seed, shots):
    """Such circuits are one branch of every shot to the end, and sample
    the terminal block as the old sampler did: the same counts."""
    assert sampled_admissible(circuit)
    counts, counters = engine.run_branched(circuit, shots, seed=seed)
    assert counts == run_sampled_reference(circuit, shots, seed)
    assert counters == {"peak_branches": 1, "chunks": 1,
                        "state_qubits": sampled_width(circuit)}


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
    share the walk only up to the first channel instruction. A circuit
    without channel instructions that draws nothing before its terminal
    measurements is sampled, as in test_walk_matches_the_shot_loop."""
    walked, looped = [], []
    with mock.patch.object(engine, "BRANCH_BUDGET_BYTES", budget):
        counts = engine.run_shot_loop(circuit, shots, seed=seed,
                                      hooks=logging_hooks(walked))
    if sampled_admissible(circuit):
        assert counts == run_sampled_reference(circuit, shots, seed)
    else:
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
    # clbit 1 is no output: dead at once; the closing h keeps both measures
    # out of the terminal block, so the walk merges after the first
    c.h(0).measure(0, 1).measure(0, 0).h(0)
    counts, _ = engine.run_branched(c, 200, seed=4, outputs=1)
    assert counts == run_shot_loop_reference(c, 200, 4, outputs=1)
    assert set(counts) == {"0", "1"}


def telegate_plan(n=4):
    return executor.merge_circuits(list(build_distributed_qpe(
        QpeConfig(n_ancilla=n, theta=2 * math.pi * 0.35))))


def diverging() -> Circuit:
    """Every shot draws its own 8-bit history mid-circuit: the closing h
    layer keeps each measurement out of the terminal block."""
    c = Circuit(5, 8, id="spread")
    for r in range(8):
        c.h(r % 5).measure(r % 5, r)
    for q in range(5):
        c.h(q)
    return c


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
    states make chunks that are cut where their mid-circuit histories
    outgrow the budget. The counts are those of one uncut chunk at the
    default budget, and of the reference loop, for a diverging circuit
    and for the merged telegate plan's outputs."""
    plan = telegate_plan()
    cases = [(diverging(), None), (plan.merged, plan.user_clbits)]
    wholes = [engine.run_branched(c, 50, seed=5, outputs=outputs) for c, outputs in cases]
    for (c, outputs), (whole, counters) in zip(cases, wholes):
        assert counters["chunks"] == 1
        assert whole == run_shot_loop_reference(c, 50, 5, outputs=outputs)
        budget = budget_states * (16 << c.num_qubits)
        chunked, counters, most = budgeted_run(monkeypatch, c, 50, 5, budget,
                                               outputs=outputs)
        assert chunked == whole
        assert_within_budget(c, budget, counters, most)
        if budget_states == 1:
            assert counters["chunks"] == 50
        elif outputs is None:  # more chunks than the uniforms alone ask for: cuts
            assert math.ceil(50 / most) < counters["chunks"] < 50


def test_live_branch_bytes_stay_within_the_budget(monkeypatch):
    c = diverging()
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
    # the terminal measurements resolve without branching: at most the
    # four states of the protocol's mid-circuit split are live at once
    assert record.metadata["peak_branches"] <= 4
    assert sum(record.counts.values()) == 2000
    assert_within_budget(plan.merged, engine.BRANCH_BUDGET_BYTES, record.metadata,
                         2000)


def test_telegate_histories_reconverge():
    """Protocol bits die after their corrections and the comm pair is
    reset, so the walk ends with at most one branch per output history."""
    n, shots = 4, 2000
    program = engine._compile(telegate_plan(n).merged, outputs=n, terminal=False)
    rows = np.array([engine.shot_rng(9, s).random(program.draws) for s in range(shots)])
    ends, peak, kept = engine._walk(program, program.walked, [engine._root(program, shots)],
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


def test_results_carry_the_widest_state():
    """QPE-20's target is prepared by one x and meets only crz, so it stays
    folded to the end and its states hold 19 qubits; the merged telegate8
    plan activates all 11 of its qubits before its first measure."""
    qpe = build_qpe(QpeConfig(n_ancilla=19, theta=2 * math.pi * 0.3721))
    assert engine.run_branched(qpe, 10, seed=1)[1]["state_qubits"] == 19
    plan = executor.merge_circuits(list(build_distributed_qpe(
        QpeConfig(n_ancilla=8, theta=2.0))))
    assert executor.execute_merged(plan, 100, seed=1).metadata["state_qubits"] == 11


def test_channel_linked_shots_share_the_walk_up_to_the_channel():
    c = Circuit(2, 2, id="src")
    c.h(0).h(1).measure(1, 1).measure_and_send(0, "dst").measure(0, 0)
    sent = []
    hooks = engine.ChannelHooks(send=lambda *a: sent.append(a), recv=lambda *a: 0)
    counts, counters = engine.run_branched(c, 20, seed=8, hooks=hooks)
    assert [epoch for _, epoch, _, _ in sent] == list(range(20))
    # two branches from the shared measurement, plus the shot walking alone
    assert counters == {"peak_branches": 3, "chunks": 1, "state_qubits": 2}
    assert counts == run_shot_loop_reference(c, 20, 8, hooks=hooks)


def test_channel_linked_terminal_block_matches_the_shot_loop():
    """Measurements that commute past a remote_c_if on another qubit join
    the terminal block of a linked circuit; each shot still sends and
    awaits its bits call for call as the reference loop does."""
    c = Circuit(3, 3, id="src")
    c.h(0).h(1).h(2).measure_and_send(0, "dst").measure(1, 1)
    c.remote_c_if("x", 2, "dst").cx(2, 0).measure(2, 2).measure(0, 0).measure(1, 2)
    assert len(engine._compile(c).block) == 4
    for seed in (1, 2, 3):
        walked, looped = [], []
        counts = engine.run_shot_loop(c, 60, seed=seed, hooks=logging_hooks(walked))
        assert counts == run_shot_loop_reference(c, 60, seed, hooks=logging_hooks(looped))
        assert walked == looped


def test_terminal_block_raises_zero_norm_where_a_collapse_would():
    """A shot whose uniform picks an outcome of conditional weight at most
    1e-12 fails with ZeroNorm naming it, as collapsing onto it does."""
    c = Circuit(2, 2, id="thin")
    c.ry(1e-7, 0).h(1).measure(1, 1).measure(0, 0)  # P(qubit 0 = 1) ~ 2.5e-15
    prog = engine._compile(c)
    assert prog.block == [(1, 1), (0, 0)]
    (branch,), _, _ = engine._walk(prog, prog.walked, [engine._root(prog, 3)], None,
                                   range(10, 13), engine.null_hooks())
    uniforms = np.array([[0.2, 0.6, 0.9], [0.5, 0.0, 0.3]])  # shot 11 takes 1
    with pytest.raises(ZeroNorm, match="shot 11"):
        engine._descend_block(prog, branch, uniforms, range(10, 13))
    uniforms[1, 1] = 0.4
    outcome = engine._descend_block(prog, branch, uniforms, range(10, 13))
    assert outcome(1).tolist() == [1, 0, 0] and outcome(0).tolist() == [0, 0, 0]

    state = StateVector.zero(2)
    engine.compile_gate(2, "ry", [0], [1e-7])(state.amplitudes)
    ones, weights = sample_outcomes(state.amplitudes, 0, np.array([0.0]))
    with pytest.raises(ZeroNorm):
        collapse(state.amplitudes, 0, int(ones[0]), weights)


def test_terminal_block_overwrites_walked_clbits():
    """A clbit a mid-circuit measurement wrote reads what the terminal
    block measures into it last."""
    c = Circuit(2, 2, id="overwrite")
    c.x(0).measure(0, 0).x(0).measure(0, 1).measure(1, 0)
    assert engine._compile(c).block == [(0, 1), (1, 0)]
    counts = engine.run_shot_loop(c, 20, seed=1)
    assert counts == run_shot_loop_reference(c, 20, 1) == {"00": 20}
