from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqcemu import engine
from dqcemu.circuit import Circuit
from dqcemu.engine import ChannelHooks
from dqcemu.errors import ChannelTimeout, UnsupportedInstruction, WidthExceeded
from dqcemu.gates import GATES

from oracles import (
    chi2_exact_pvalue,
    random_unitary_circuit,
    run_once_reference,
    run_sampled_reference,
    run_shot_loop_reference,
    sampled_admissible,
    statevector_by_matmul,
)


def test_sampled_completeness():
    c = Circuit(1, 1, id="c")
    c.h(0).measure(0, 0)
    counts = engine.run_sampled(c, 100, seed=3)
    assert set(counts) <= {"0", "1"}
    assert sum(counts.values()) == 100


def test_sampled_trivial_zero_state():
    c = Circuit(1, 1, id="c")
    c.measure(0, 0)
    assert engine.run_sampled(c, 7, seed=0) == {"0": 7}


def test_sampled_runs_mid_circuit_effects():
    """run_sampled is the one engine under another name: circuits the old
    sampler refused give the reference loop's counts, or its error."""
    conditional = Circuit(2, 2, id="a")
    conditional.h(0).measure(0, 0).c_if("x", 1, 0).measure(1, 1)
    resetting = Circuit(1, 1, id="b")
    resetting.h(0).reset(0).measure(0, 0)
    remeasured = Circuit(1, 2, id="d")
    remeasured.h(0).measure(0, 0).h(0).measure(0, 1)
    for circuit in (conditional, resetting, remeasured):
        assert (engine.run_sampled(circuit, 200, seed=3)
                == run_shot_loop_reference(circuit, 200, 3))

    distributed = Circuit(1, 1, id="c")
    distributed.measure_and_send(0, "peer")
    with pytest.raises(UnsupportedInstruction):
        run_shot_loop_reference(distributed, 10, 0)
    with pytest.raises(UnsupportedInstruction):
        engine.run_sampled(distributed, 10, seed=0)


def test_width_cap():
    c = Circuit(5, 0, id="wide")
    c.h(0)
    with pytest.raises(WidthExceeded):
        engine.run_sampled(c, 1, seed=0, max_qubits=4)
    with pytest.raises(WidthExceeded):
        engine.run_shot_loop(c, 1, seed=0, max_qubits=4)


def test_shot_loop_deterministic_flip():
    c = Circuit(1, 1, id="c")
    c.x(0).measure(0, 0)
    assert engine.run_shot_loop(c, 5, seed=1) == {"1": 5}


def test_shot_loop_feed_forward_key_set():
    c = Circuit(2, 2, id="ff")
    c.h(0).measure(0, 0).c_if("x", 1, 0).measure(1, 1)
    counts = engine.run_shot_loop(c, 1000, seed=9)
    assert set(counts) == {"00", "11"}
    assert sum(counts.values()) == 1000


def test_remote_c_if_forced_bit_hook():
    c = Circuit(1, 1, id="rc")
    c.remote_c_if("x", [0], "peer")
    c.measure(0, 0)
    hooks = ChannelHooks(send=lambda *a: None, recv=lambda *a: 1)
    assert engine.run_shot_loop(c, 20, seed=4, hooks=hooks) == {"1": 20}
    hooks0 = ChannelHooks(send=lambda *a: None, recv=lambda *a: 0)
    assert engine.run_shot_loop(c, 20, seed=4, hooks=hooks0) == {"0": 20}


def test_measure_and_send_reaches_hook():
    c = Circuit(1, 1, id="src")
    c.x(0).measure_and_send(0, "dst").measure(0, 0)
    sent = []
    hooks = ChannelHooks(send=lambda peer, epoch, seq, bit:
                         sent.append((peer, epoch, seq, bit)),
                         recv=lambda *a: 0)
    counts = engine.run_shot_loop(c, 3, seed=5, hooks=hooks)
    assert counts == {"1": 3}
    assert sent == [("dst", 0, 0, 1), ("dst", 1, 0, 1), ("dst", 2, 0, 1)]


def test_distributed_without_hooks_is_an_error():
    c = Circuit(1, 0, id="c")
    c.remote_c_if("x", [0], "peer")
    with pytest.raises(UnsupportedInstruction):
        engine.run_shot_loop(c, 1, seed=0)


def test_quantum_link_instructions_rejected():
    c = Circuit(1, 0, id="c")
    c.qsend(0, "peer")
    with pytest.raises(UnsupportedInstruction):
        engine.run_shot_loop(c, 1, seed=0)


def test_hook_errors_name_the_shot():
    c = Circuit(1, 1, id="c")
    c.remote_c_if("x", [0], "peer")

    calls = []

    def recv(peer, epoch, seq):
        calls.append(epoch)
        if epoch == 2:
            raise ChannelTimeout("no bit arrived")
        return 0

    hooks = ChannelHooks(send=lambda *a: None, recv=recv)
    with pytest.raises(ChannelTimeout, match="shot 2"):
        engine.run_shot_loop(c, 5, seed=0, hooks=hooks)


def test_seed_determinism_bit_exact():
    rng = np.random.default_rng(77)
    c = random_unitary_circuit(rng, 3, 6, measured=True)
    a = engine.run_shot_loop(c, 300, seed=123)
    b = engine.run_shot_loop(c, 300, seed=123)
    assert a == b
    sampled_a = engine.run_sampled(c, 300, seed=123)
    sampled_b = engine.run_sampled(c, 300, seed=123)
    assert sampled_a == sampled_b
    assert engine.run_shot_loop(c, 300, seed=124) != a


@pytest.mark.parametrize("circuit_seed", [11, 29, 73])
def test_sampled_and_shot_loop_agree(circuit_seed):
    """Both names run one sampler: each fits the exact distribution."""
    rng = np.random.default_rng(circuit_seed)
    c = random_unitary_circuit(rng, 4, 10, measured=True)
    psi = statevector_by_matmul(c)
    exact = {engine.format_key(i, 4): float(abs(a) ** 2) for i, a in enumerate(psi)}
    shots = 10_000
    sampled = engine.run_sampled(c, shots, seed=circuit_seed)
    looped = engine.run_shot_loop(c, shots, seed=circuit_seed + 1)
    assert chi2_exact_pvalue(sampled, exact) > 0.001
    assert chi2_exact_pvalue(looped, exact) > 0.001


def test_final_state_matches_matrix_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        c = random_unitary_circuit(rng, n, int(rng.integers(1, 9)))
        state, _ = engine.run_once(c, np.random.default_rng(0))
        oracle = statevector_by_matmul(c)
        assert np.max(np.abs(state.amplitudes - oracle)) < 1e-10


def test_shots_must_be_positive():
    c = Circuit(1, 1, id="c")
    c.measure(0, 0)
    with pytest.raises(ValueError):
        engine.run_sampled(c, 0, seed=0)
    with pytest.raises(ValueError):
        engine.run_shot_loop(c, 0, seed=0)


def test_empty_clbits_key():
    c = Circuit(1, 0, id="c")
    c.h(0)
    assert engine.run_shot_loop(c, 4, seed=0) == {"": 4}


def test_run_once_matches_the_reference_through_low_qubit_blocks():
    """7 qubits: dense gates on the qubits below BLOCK_QUBITS take the
    transposed buffer, between mid-circuit measures, conditionals and resets."""
    rng = np.random.default_rng(17)
    dense = ["h", "rx", "ry", "y", "u"]
    c = Circuit(7, 3, id="blocks")
    for layer in range(6):
        for q in range(7):
            name = dense[(layer + q) % 5]
            c.append(name, [q], params=rng.uniform(-7, 7, GATES[name].params).tolist())
        c.cx(layer % 7, (layer + 3) % 7)
        c.measure(layer % 5, layer % 3)
        c.c_if("h", [(layer + 1) % 5], layer % 3)
        if layer % 2:
            c.reset(layer % 4)
    for seed in range(20):
        state, bits = engine.run_once(c, np.random.default_rng(seed))
        ref_state, ref_bits = run_once_reference(
            c, np.random.default_rng(seed), engine.null_hooks())
        assert bits == ref_bits
        assert np.array_equal(state.amplitudes, ref_state.amplitudes)



def test_run_once_matches_the_reference_through_diagonal_runs():
    """13 qubits: long runs of diagonal gates on both sides of qubit
    PHASE_LOW_QUBITS, fused into phase passes, between mid-circuit
    measures, conditionals and resets, and a conditional diagonal gate."""
    rng = np.random.default_rng(19)
    n = 13
    c = Circuit(n, 4, id="phases")
    for q in range(n):
        c.h(q)
    for layer in range(5):
        for k in range(12):
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            c.append(["cp", "crz", "cz"][k % 3], [a, b],
                     params=[] if k % 3 == 2 else [float(rng.uniform(-7, 7))])
            c.append(["rz", "t", "s"][k % 3], [int(rng.integers(n))],
                     params=[float(rng.uniform(-7, 7))] if k % 3 == 0 else [])
        c.h(layer)
        c.measure(layer % 4 + 9, layer % 4)
        c.c_if("z", [(layer + 1) % n], layer % 4)
        c.cp(0.3 * layer, 11, 12)
        c.c_if("h", [layer + 2], (layer + 1) % 4)
        if layer % 2:
            c.reset(layer + 8)
    for seed in range(20):
        state, bits = engine.run_once(c, np.random.default_rng(seed))
        ref_state, ref_bits = run_once_reference(
            c, np.random.default_rng(seed), engine.null_hooks())
        assert bits == ref_bits
        assert np.array_equal(state.amplitudes, ref_state.amplitudes)


@pytest.mark.parametrize("qubits", [[5, 1, 9], [0], [18, 0], [16, 17, 18], [3, 11, 4, 2]])
def test_terminal_block_descends_the_marginal_table(qubits):
    """The table `_descend_block` descends, against summing |amplitude|^2 by
    each index's bits (19 qubits): one shot per path of outcomes, each
    uniform 1e-10 on that path's side of its conditional P(1)."""
    n, k = 19, len(qubits)
    rng = np.random.default_rng(31)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    index = np.arange(1 << n)
    code = sum(((index >> q) & 1) << (k - 1 - j) for j, q in enumerate(qubits))
    table = np.bincount(code, weights=np.abs(amps) ** 2, minlength=1 << k)
    paths = np.arange(1 << k)  # shot s takes the outcomes of s's bits, the first highest
    uniforms = np.empty((k, 1 << k))
    for j in range(k):
        node = table.reshape(1 << j, 2, -1).sum(axis=2)[paths >> (k - j)]
        p1 = node[:, 1] / node.sum(axis=1)
        uniforms[j] = np.where((paths >> (k - 1 - j)) & 1, p1 - 1e-10, p1 + 1e-10)
    prog = SimpleNamespace(num_qubits=n, block=[(q, j) for j, q in enumerate(qubits)])
    branch = engine._Branch(amps, 0, paths)
    outcome = engine._descend_block(prog, branch, uniforms, range(1 << k))
    for j, q in enumerate(qubits):
        assert outcome(q).tolist() == ((paths >> (k - 1 - j)) & 1).tolist()


#: gates that leave a qubit in a basis state folded, and gates that activate it
KEEP = ["x", "z", "s", "t", "rz", "cz", "cp", "crz", "id"]
ACTIVATE = ["h", "rx", "u", "cx", "swap"]


@st.composite
def folding_programs(draw, mid_circuit: bool = True, widths=(1, 7)):
    """Circuits whose qubits stay in basis states for a while: `x` and
    diagonal gates, runs of them on basis-state qubits only among them,
    mixed with `h`, `rx`, `u`, `cx` and `swap` that put qubits in
    superposition, often the higher ones first. With `mid_circuit`,
    measures, resets and c_if anywhere; without, measures after which only
    other qubits see gates (a terminal block that may measure a qubit no
    gate put in superposition)."""
    n = draw(st.integers(*widths))
    nc = draw(st.integers(1, 3))
    c = Circuit(n, nc, id="fold")
    measured: set[int] = set()
    kinds = ["keep", "keep", "activate", "measure"] + ["reset", "c_if"] * mid_circuit
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(kinds))
        free = [q for q in range(n) if mid_circuit or q not in measured]
        if kind == "measure" or not free:
            q = draw(st.integers(0, n - 1))
            c.measure(q, draw(st.integers(0, nc - 1)))
            measured.add(q)
            continue
        if kind == "reset":
            c.reset(draw(st.integers(0, n - 1)))
            continue
        names = KEEP if kind == "keep" else ACTIVATE if kind == "activate" else KEEP + ACTIVATE
        name = draw(st.sampled_from([g for g in names if GATES[g].qubits <= len(free)]))
        arity, n_params = GATES[name].qubits, GATES[name].params
        top = draw(st.booleans())  # the highest free qubits first
        qubits = (sorted(free, reverse=True)[:arity] if top
                  else draw(st.permutations(free))[:arity])
        params = [draw(st.floats(-7, 7)) for _ in range(n_params)]
        if kind == "c_if":
            c.c_if(name, qubits, draw(st.integers(0, nc - 1)), params=params)
        else:
            c.append(name, qubits, params=params)
    return c


def _circuit(n: int, nc: int, *ops) -> Circuit:
    c = Circuit(n, nc, id="fold")
    for name, qubits, *params in ops:
        if name == "measure":
            c.measure(*qubits)
        else:
            c.append(name, list(qubits), params=list(params))
    return c


#: (qubits 0-2 are active from the start) folded qubits below an active
#: one (the terminal block unfolds first); the target of QPE held at 1
#: above three active qubits (it does not); only x and diagonal gates on
#: folded qubits, so every run is a global phase; a dense gate with a
#: complex matrix after phases on qubits 0 and 1, and two global phases on
#: a 2-qubit state: where these ran on one-amplitude slices, numpy rounded
#: their products otherwise than on the full state
FOLDING_EXAMPLES = [
    _circuit(6, 3, ("x", (3,)), ("h", (5,)), ("t", (3,)), ("cp", (3, 5), 0.4),
             ("measure", (3, 0)), ("measure", (5, 1)), ("measure", (4, 2))),
    _circuit(4, 3, ("h", (0,)), ("h", (1,)), ("h", (2,)), ("x", (3,)),
             ("crz", (0, 3), 1.3), ("crz", (1, 3), 2.6), ("crz", (2, 3), 5.2),
             ("h", (2,)), ("cp", (1, 2), -1.5), ("h", (1,)),
             ("measure", (0, 0)), ("measure", (1, 1)), ("measure", (2, 2))),
    _circuit(6, 2, ("x", (4,)), ("z", (4,)), ("s", (4,)), ("cp", (4, 5), 0.7),
             ("x", (5,)), ("rz", (5,), 0.9), ("measure", (4, 0)), ("measure", (5, 1))),
    _circuit(4, 2, ("x", (0,)), ("x", (1,)), ("rz", (0,), 1.1), ("rz", (1,), -2.3),
             ("u", (0,), 1.2, 0.5, 2.0), ("measure", (0, 0)), ("measure", (1, 1))),
    _circuit(2, 1, ("x", (0,)), ("z", (0,)), ("t", (0,)), ("x", (0,)), ("x", (0,)),
             ("z", (0,)), ("t", (0,)), ("measure", (0, 0))),
]


def assert_run_once_matches(circuit: Circuit, seed: int) -> None:
    state, bits = engine.run_once(circuit, np.random.default_rng(seed))
    ref_state, ref_bits = run_once_reference(
        circuit, np.random.default_rng(seed), engine.null_hooks())
    assert bits == ref_bits
    assert np.array_equal(state.amplitudes, ref_state.amplitudes)


@settings(max_examples=60, deadline=None)
@given(folding_programs(mid_circuit=False), st.integers(0, 2 ** 32 - 1), st.integers(1, 200))
@example(FOLDING_EXAMPLES[0], 7, 200)
@example(FOLDING_EXAMPLES[1], 8, 200)
@example(FOLDING_EXAMPLES[2], 9, 50)
@example(FOLDING_EXAMPLES[3], 11, 200)
@example(FOLDING_EXAMPLES[4], 0, 1)
def test_folded_terminal_programs_match_the_references(circuit, seed, shots):
    """A job that draws nothing before its terminal block walks folded to
    the end: its final state is the reference loop's, and its counts are
    the sampled reference's, whether the block samples the folded layout
    or unfolds first."""
    assert sampled_admissible(circuit)
    assert_run_once_matches(circuit, seed)
    assert engine.run_sampled(circuit, shots, seed=seed) == run_sampled_reference(
        circuit, shots, seed)


@settings(max_examples=60, deadline=None)
@given(folding_programs(), st.integers(0, 2 ** 32 - 1), st.integers(1, 40))
def test_folded_mid_circuit_programs_match_the_references(circuit, seed, shots):
    """Folding ends before the first measure, reset or c_if: the state and
    bits are the reference loop's, and so are the counts (the sampled
    reference's where nothing draws before the terminal block)."""
    assert_run_once_matches(circuit, seed)
    reference = (run_sampled_reference if sampled_admissible(circuit)
                 else run_shot_loop_reference)
    assert engine.run_shot_loop(circuit, shots, seed=seed) == reference(circuit, shots, seed)


@settings(max_examples=25, deadline=None)
@given(folding_programs(widths=(12, 14)), st.integers(0, 2 ** 32 - 1))
def test_folded_wide_programs_match_the_reference(circuit, seed):
    """12 to 14 qubits: phase tables in rows of 2^11 on the active qubits,
    run cuts at qubits 11 and up where some of them are folded."""
    assert_run_once_matches(circuit, seed)


def test_folded_runs_are_cut_on_the_original_qubits():
    """14 qubits, 11 to 13 held at 1 while 0-10 are active: runs of
    diagonal gates over qubits 11-13 are cut where they span three of
    them, as on the full state, and so round as the reference's do."""
    rng = np.random.default_rng(37)
    c = Circuit(14, 2, id="cuts")
    for q in range(11):
        c.h(q)
    for q in (11, 12, 13):
        c.x(q)
    for _ in range(40):
        a = int(rng.integers(11))
        c.crz(float(rng.uniform(-7, 7)), a, int(rng.integers(11, 14)))
        c.cp(float(rng.uniform(-7, 7)), int(rng.integers(11, 14)), a)
    c.h(0).measure(0, 0).h(12).measure(12, 1)  # the terminal block unfolds 11 and 13
    for seed in range(5):
        assert_run_once_matches(c, seed)
    counts, counters = engine.run_branched(c, 20, seed=1)
    assert counts == run_sampled_reference(c, 20, 1)
    assert counters["state_qubits"] == 14
