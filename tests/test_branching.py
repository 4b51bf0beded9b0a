"""The shot-branching walk against the per-shot reference loop: a fixed
seed gives every shot the outcomes it gets when run alone, whatever the
merges and the chunking."""

import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqcemu import channel, engine, executor, gates
from dqcemu.algorithms import QpeConfig, build_distributed_qpe, build_ipea_chain, build_qpe
from dqcemu.circuit import Circuit
from dqcemu.errors import ZeroNorm
from dqcemu.statevector import StateVector, collapse, sample_outcomes

from oracles import (
    check_end_branches,
    end_branches,
    reference_shot_bits,
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
    """Such circuits are one branch of every shot to the end, which holds
    the reference loop's state, and sample the terminal block as the old
    sampler did: the same counts."""
    assert sampled_admissible(circuit)
    counts, counters = engine.run_branched(circuit, shots, seed=seed)
    assert counts == run_sampled_reference(circuit, shots, seed)
    assert counters == {"peak_branches": 1, "chunks": 1,
                        "state_qubits": sampled_width(circuit)}
    assert len(check_end_branches(circuit, shots, seed)) == 1


@settings(max_examples=60, deadline=None)
@given(mid_circuit_programs(), st.integers(0, 2 ** 32 - 1), st.integers(1, 40), BUDGETS)
def test_end_branches_match_the_reference(circuit, seed, shots, budget):
    """Every end branch of a walk, through its forks, merges and chunk
    cuts, holds the state and bits of each of its shots run alone in the
    reference loop."""
    with mock.patch.object(engine, "BRANCH_BUDGET_BYTES", budget):
        check_end_branches(circuit, shots, seed)


def logging_hooks(log: set) -> engine.ChannelHooks:
    """Hooks that log every bit sent and read as (kind, peer, shot, seq,
    bit). A read bit depends on the shot and the sequence number, and a
    receive returns the bits of a prefix of its shots, of a length that
    depends on them too, down to one shot, as when the rest have not come."""
    def send(peer, epoch, seq, bits):
        log.update(("send", peer, e, seq, int(b)) for e, b in enumerate(bits, epoch))

    def recv(peer, epoch, seq, count):
        bits = [(3 * e + seq) % 5 % 2 for e in range(epoch, epoch + 1 + (epoch + seq) % count)]
        log.update(("recv", peer, e, seq, b) for e, b in enumerate(bits, epoch))
        return np.array(bits, np.uint8)
    return engine.ChannelHooks(send=send, recv=recv)


@settings(max_examples=60, deadline=None)
@given(mid_circuit_programs(linked=True), st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       BUDGETS)
def test_channel_linked_walk_matches_the_shot_loop(circuit, seed, shots, budget):
    """Same counts, and the same bits sent and read for every shot, though
    the walk makes one hook call per chunk and receives cut chunks. A
    circuit without channel instructions that draws nothing before its
    terminal measurements is sampled, as in test_walk_matches_the_shot_loop."""
    walked, looped = set(), set()
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
                        lambda prog, rows: (starts.append(len(rows)), root(prog, rows))[1])
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


def test_channel_linked_chunks_are_cut_like_any_other(monkeypatch):
    """Histories diverge before the channel instructions, so the budget
    cuts chunks there, and receives that get a prefix cut them too; every
    shot still sends and reads the bits the loop does."""
    c = Circuit(6, 3, id="src")
    for q in range(3):
        c.h(q).measure(q, q)
    c.measure_and_send(0, "dst").remote_c_if("x", 1, "dst").measure(1, 1)
    # room for every shot's 5 uniforms and row index, and for 3 more states
    shots = 40
    budget = shots * 8 * 6 + 3 * (16 << c.num_qubits)
    walked, looped = set(), set()
    cuts = spy_cuts(monkeypatch)
    counts, counters, most = budgeted_run(monkeypatch, c, shots, 8, budget,
                                          hooks=logging_hooks(walked))
    assert most == shots and counters["chunks"] > 1 and cuts
    assert_within_budget(c, budget, counters, most)
    assert {shot for kind, _, shot, *_ in walked if kind == "send"} == set(range(shots))
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
    reset, so the walk ends with at most one branch per output history:
    here one, since every output clbit is written by the terminal block."""
    n, shots = 4, 2000
    merged = telegate_plan(n).merged
    prog, ends = end_branches(merged, shots, 9, outputs=n)
    assert len(prog.block) == n
    assert [sorted(ids) for _, _, ids in ends] == [list(range(shots))]
    counters = engine.run_branched(merged, shots, 9, outputs=n)[1]
    assert counters["chunks"] == 1 and counters["peak_branches"] <= 2 ** n


def mid_circuit_resets() -> Circuit:
    """Measures and resets mid-circuit, a conditional on a measured bit,
    and a qubit reused after its reset."""
    c = Circuit(3, 3, id="resets")
    c.h(0).cx(0, 1).measure(1, 0).reset(1).ry(0.7, 2).cx(2, 1).measure(2, 1)
    c.c_if("x", 0, 0).reset(2).h(2).cx(2, 0).measure(0, 2).measure(1, 1).h(1)
    return c


@pytest.mark.parametrize("program, outputs, shots", [
    pytest.param(lambda: telegate_plan(8).merged, 8, 300, id="telegate8"),
    pytest.param(lambda: build_qpe(QpeConfig(n_ancilla=7, theta=2.0)), None, 100, id="qpe7"),
    pytest.param(lambda: build_qpe(QpeConfig(n_ancilla=12, theta=2.0)), None, 100, id="qpe12"),
])
def test_paper_programs_end_branches_match_the_reference(program, outputs, shots):
    """Telegate8 as the executor runs it (its outputs the ancillas), and
    QPE-7 and QPE-12, which draw nothing before their terminal block."""
    check_end_branches(program(), shots, 23, outputs=outputs)


@pytest.mark.parametrize("circuit", [
    pytest.param(lambda: telegate_plan().merged, id="telegate"),
    pytest.param(mid_circuit_resets, id="resets"),
])
def test_one_shot_runs_alone_from_its_place_in_the_job_stream(circuit):
    """shot_rng(seed, s, d) is the job stream positioned at shot s's first
    uniform, so one shot run alone on it gets the bits it gets in the
    reference loop, which runs shots 0 ... s in turn from one stream; the
    walk's side of that contract is `check_end_branches`, which runs every
    shot so, here through every end branch of 300 shots."""
    c = circuit()
    draws = engine._compile(c).draws
    looped = reference_shot_bits(c, 300, 13)
    for s in (0, 1, 2, 57, 299):
        alone = run_once_reference(c, engine.shot_rng(13, s, draws), engine.null_hooks(), s)
        assert alone[1] == looped[s]
    assert engine.shot_rng(13, 5).random() == engine.job_rng(13).random(6)[5]
    check_end_branches(c, 300, 13)


def spy_cuts(monkeypatch) -> list[tuple[int, int]]:
    """Log (shots, kept) of every cut `_split` makes, for a draw or a
    receive; the rows of the shots it drops are carried to the next chunk."""
    cuts, split = [], engine._split

    def spy(tests, shot_ids, room, stop):
        tests, kept = split(tests, shot_ids, room, stop)
        if len(kept) < len(shot_ids):
            cuts.append((len(shot_ids), len(kept)))
        return tests, kept
    monkeypatch.setattr(engine, "_split", spy)
    return cuts


def test_cut_telegate_chunks_keep_the_counts_of_one_chunk(monkeypatch):
    """At 5 states' bytes a chunk holds 22 shots' uniforms and 3 live
    states, so the protocol's four-way split cuts it: the rows it leaves
    over are the next shots' uniforms in stream order, and the counts are
    those of the one chunk the default budget walks."""
    plan = telegate_plan()
    c, outputs = plan.merged, plan.user_clbits
    whole, counters = engine.run_branched(c, 300, seed=5, outputs=outputs)
    assert counters["chunks"] == 1
    assert whole == run_shot_loop_reference(c, 300, 5, outputs=outputs)
    cuts = spy_cuts(monkeypatch)
    counts, counters, _ = budgeted_run(monkeypatch, c, 300, 5, 5 * (16 << c.num_qubits),
                                       outputs=outputs)
    assert cuts and counters["chunks"] >= 2
    assert counts == whole


def test_cut_chunks_of_a_channel_linked_pair_keep_their_counts(monkeypatch):
    """The later parts of the 3-part IPEA chain split on every bit they
    receive and on their own measure, so at 200 bytes (a few shots'
    uniforms and room for 2 states) the budget cuts their chunks, at
    receives and at draws. Every part counts as it does in one chunk at
    the default budget."""
    chain = build_ipea_chain(QpeConfig(n_ancilla=3, theta=2.0)).circuits

    def run():
        eps = channel.establish({c.id: c.id for c in chain})
        return [engine.run_branched(c, 300, seed=21 + i, hooks=eps[c.id].hooks())
                for i, c in enumerate(chain)]
    whole = run()
    assert [counters["chunks"] for _, counters in whole] == [1, 1, 1]
    cuts = spy_cuts(monkeypatch)
    monkeypatch.setattr(engine, "BRANCH_BUDGET_BYTES", 200)
    chunked = run()
    assert cuts and all(counters["chunks"] >= 2 for _, counters in chunked)
    assert [counts for counts, _ in chunked] == [counts for counts, _ in whole]


def run_linked(circuits, run) -> list:
    """`run(circuit, hooks, seed)` for every circuit on a thread of its own,
    linked by one in-memory channel whose receives time out after 2 s; the
    results in circuit order."""
    eps = channel.establish({c.id: c.id for c in circuits}, recv_timeout_ms=2000)
    results, errors = {}, []

    def worker(i, c):
        try:
            results[i] = run(c, eps[c.id].hooks(), 40 + i)
        except Exception as exc:  # raised after the join
            errors.append(exc)
    threads = [threading.Thread(target=worker, args=pair) for pair in enumerate(circuits)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
    return [results[i] for i in range(len(circuits))]


def cyclic_pair(width_a: int, width_b: int) -> list[Circuit]:
    """Two circuits whose bits go a -> b -> a -> b, each splitting its
    histories on every bit it draws or receives."""
    a, b = Circuit(width_a, width_a, id="a"), Circuit(width_b, width_b, id="b")
    for c in (a, b):
        for q in range(c.num_qubits):
            c.h(q)
    a.measure_and_send(0, "b").remote_c_if("x", 1, "b").ry(0.4, 1).measure_and_send(1, "b")
    b.remote_c_if("x", 0, "a").measure_and_send(0, "a").remote_c_if("h", 1, "a")
    for c in (a, b):
        c.cx(1, 2)
        for q in range(c.num_qubits):
            c.measure(q, q)
    return [a, b]


@pytest.mark.parametrize("widths", [(3, 12), (12, 3), (8, 8)])
@pytest.mark.parametrize("budget", [16 << 10, 128 << 10, 2 << 20])
def test_a_cyclic_pair_of_unequal_widths_matches_the_shot_loop(monkeypatch, widths, budget):
    """Bits that go both ways between parts whose chunks are cut at
    different shots: each receive waits only for the bit of its chunk's
    first shot, so neither part waits on the other for long, and both
    count as the reference loops do, run side by side."""
    monkeypatch.setattr(engine, "BRANCH_BUDGET_BYTES", budget)
    pair, shots = cyclic_pair(*widths), 300
    expected = run_linked(pair, lambda c, hooks, seed:
                          run_shot_loop_reference(c, shots, seed, hooks=hooks))
    walked = run_linked(pair, lambda c, hooks, seed:
                        engine.run_branched(c, shots, seed, hooks))
    assert [counts for counts, _ in walked] == expected
    for c, (_, counters) in zip(pair, walked):
        if c.num_qubits == 12 and budget == 16 << 10:  # no room for a second state
            assert counters["chunks"] == shots


def test_a_receive_that_gets_a_prefix_cuts_the_chunk(monkeypatch):
    """A receive that returns the bits of the first 7 shots only cuts the
    chunk to those 7: the others, which drew before it, start the next
    chunk with their uniforms, and every shot counts as in the loop."""
    c = Circuit(2, 2, id="r")
    c.h(0).h(1).measure(0, 0).remote_c_if("x", 1, "peer").h(1).measure(1, 1)
    asked = []

    def recv(peer, epoch, seq, count):
        asked.append((epoch, count))
        return (np.arange(epoch, epoch + min(count, 7)) % 3 == 0).astype(np.uint8)
    hooks = engine.ChannelHooks(send=None, recv=recv)
    cuts = spy_cuts(monkeypatch)
    counts, counters = engine.run_branched(c, 50, seed=3, hooks=hooks)
    assert [epoch for epoch, _ in asked] == list(range(0, 50, 7))
    assert asked[:2] == [(0, 50), (7, 7)] and cuts[0] == (50, 7)
    assert counters["chunks"] == 8
    assert counts == run_shot_loop_reference(c, 50, 3, hooks=hooks)


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


def test_channel_linked_shots_share_the_walk_through_the_channel():
    """A send is one hook call for the chunk, with the bits the loop sends
    shot by shot."""
    c = Circuit(2, 2, id="src")
    c.h(0).h(1).measure(1, 1).measure_and_send(0, "dst").measure(0, 0)
    sent = []
    hooks = engine.ChannelHooks(send=lambda *a: sent.append(a), recv=None)
    counts, counters = engine.run_branched(c, 20, seed=8, hooks=hooks)
    # the shared measurement's two branches, each split by the send
    assert counters == {"peak_branches": 4, "chunks": 1, "state_qubits": 2}
    assert counts == run_shot_loop_reference(c, 20, 8, hooks=hooks)
    (peer, epoch, seq, bits), *looped = sent
    assert (peer, epoch, seq) == ("dst", 0, 0)
    assert bits.tolist() == [b for *_, (b,) in looped] and len(looped) == 20


def test_channel_linked_terminal_block_matches_the_shot_loop():
    """Measurements that commute past a remote_c_if on another qubit join
    the terminal block of a linked circuit; each shot still sends and
    reads the bits the reference loop does."""
    c = Circuit(3, 3, id="src")
    c.h(0).h(1).h(2).measure_and_send(0, "dst").measure(1, 1)
    c.remote_c_if("x", 2, "dst").cx(2, 0).measure(2, 2).measure(0, 0).measure(1, 2)
    assert len(engine._compile(c).block) == 4
    for seed in (1, 2, 3):
        walked, looped = set(), set()
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
    (branch,), _, _ = engine._walk(prog, prog.walked, [engine._root(prog, np.arange(3))], None,
                                   range(10, 13), engine.null_hooks())
    uniforms = np.array([[0.2, 0.6, 0.9], [0.5, 0.0, 0.3]])  # shot 11 takes 1
    with pytest.raises(ZeroNorm, match="shot 11"):
        engine._descend_block(prog, branch, uniforms, range(10, 13))
    uniforms[1, 1] = 0.4
    outcome = engine._descend_block(prog, branch, uniforms, range(10, 13))
    assert outcome(1).tolist() == [1, 0, 0] and outcome(0).tolist() == [0, 0, 0]

    state = StateVector(2)
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
