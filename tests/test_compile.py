"""The compile against its frozen form (`oracles.frozen_compile_gates`,
`oracles.frozen_compile`): kernels built from each gate's row, runs filled
in place and kernels shared between equal ops must leave every state bit
for bit as the compile before them did."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqcemu import engine, executor
from dqcemu.algorithms import QpeConfig, build_distributed_qpe, build_qpe
from dqcemu.circuit import Circuit
from dqcemu.gates import GATES
from dqcemu.statevector import PHASE_LOW_QUBITS, SWEEP_QUBITS, Fold, Grow, compile_gates

from oracles import frozen_compile, frozen_compile_gates

NAMES = sorted(GATES)


def random_gates(rng: np.random.Generator, n: int, count: int, low: bool = False) -> list:
    """`count` gates over every GATES row with random params; half the
    diagonal gates take their qubits from the top few, so runs span the
    qubits at or above PHASE_LOW_QUBITS on wide states, or with `low` every
    gate acts below SWEEP_QUBITS, where states sweep."""
    gates = []
    for _ in range(count):
        name = NAMES[rng.integers(len(NAMES))]
        arity = GATES[name].qubits
        if arity > n:
            continue
        pool = np.arange(min(n, SWEEP_QUBITS) if low else n)
        if GATES[name].kernel == "diagonal" and rng.random() < 0.5 and not low:
            pool = pool[max(0, min(n - 4, PHASE_LOW_QUBITS - 1)):]
        if len(pool) < arity:
            pool = np.arange(n)
        qubits = tuple(int(q) for q in rng.choice(pool, arity, replace=False))
        gates.append((name, qubits, tuple(rng.uniform(-7, 7, GATES[name].params))))
    return gates


def run_kernels(kernels, n: int, width: int, state: np.ndarray) -> np.ndarray:
    """Apply compiled kernels, growth steps included, to a copy of `state`
    at the head of an array with room for all `n` qubits."""
    buf = np.zeros(1 << n, dtype=complex)
    amps = buf[:1 << width]
    amps[...] = state
    with engine._ufunc_buffer():
        for kernel, _ in kernels:
            if isinstance(kernel, Grow):
                amps = kernel(amps)
            else:
                kernel(amps)
    return amps


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20),
       folded=st.booleans(), count=st.integers(1, 24), low=st.booleans())
@example(seed=1, n=20, folded=False, count=24, low=True)  # sweeps
@example(seed=2, n=17, folded=False, count=24, low=True)
@example(seed=3, n=20, folded=False, count=24, low=False)
@example(seed=4, n=20, folded=True, count=24, low=False)
# both sides of where the frozen compile changed kernels (its lone-gate
# block from 5 qubits, its sweep from 17) and of the sweep's buffers: (4, 4)
# at 4 qubits, (16, 16) at 8, (32, 64) at 11, (64, 64) at 12, one
# (256, 256) at 16 and from 17 more than one
@example(seed=5, n=4, folded=False, count=24, low=True)
@example(seed=6, n=5, folded=False, count=24, low=True)
@example(seed=7, n=8, folded=False, count=24, low=True)
@example(seed=8, n=11, folded=False, count=24, low=True)
@example(seed=9, n=12, folded=False, count=24, low=True)
@example(seed=10, n=16, folded=False, count=24, low=True)
@example(seed=11, n=17, folded=True, count=24, low=True)
def test_compile_gates_matches_the_frozen_compile(seed, n, folded, count, low):
    """Random gate sequences at 1-20 qubits, with and without a fold (the
    qubits from 3 up, each folded or not at a random bit), with sweeps on
    the low qubits and runs over high qubits: the kernels touch the qubits
    the frozen kernels touch, and leave a random state np.array_equal to
    the frozen kernels' result. Which steps share a kernel differs: the
    frozen compile ran a lone dense gate on qubits 0-4 in a block of its
    own and swept only states wider than 16 qubits."""
    rng = np.random.default_rng(seed)
    gates = random_gates(rng, n, count, low)
    bits = ({q: int(rng.integers(2)) for q in range(3, n) if rng.random() < 0.5}
            if folded else {})
    fold, frozen_fold = Fold(n, dict(bits)), Fold(n, dict(bits))
    width = n - len(bits)
    state = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
    kernels = compile_gates(n, gates, fold)
    frozen = frozen_compile_gates(n, gates, frozen_fold)
    assert ({q for _, qubits in kernels for q in qubits}
            == {q for _, qubits in frozen for q in qubits})
    assert fold.bits == frozen_fold.bits
    assert np.array_equal(run_kernels(kernels, n, width, state),
                          run_kernels(frozen, n, width, state))


def program_state(prog, n: int, state: np.ndarray) -> np.ndarray:
    """Every kernel of a compiled program, the conditional and received
    gates' too, applied in order to a copy of `state` (START_WIDTH qubits)."""
    kernels = [(op.kernel, op.qubits) for op in prog.walked if op.kernel is not None]
    return run_kernels(kernels, n, min(n, engine.START_WIDTH), state)


def walked_ops(prog) -> list:
    """The walked ops, each (kind, qubits, targets, live), with each stretch
    of gate ops between the others as one entry of the qubits they touch:
    which gates share a kernel is the compile's choice."""
    ops = []
    for op in prog.walked:
        if op.kind == "gate" and ops and ops[-1][0] == "gate":
            ops[-1] = ("gate", ops[-1][1] | set(op.qubits), (), None)
        else:
            ops.append((op.kind, set(op.qubits) if op.kind == "gate" else op.qubits,
                        op.targets, op.live))
    return ops


def assert_same_program(circuit: Circuit, rng: np.random.Generator) -> None:
    prog, frozen = engine._compile(circuit), frozen_compile(circuit)
    assert walked_ops(prog) == walked_ops(frozen)
    assert (prog.block, prog.draws, prog.end.bits, prog.expand, prog.widest) == (
        frozen.block, frozen.draws, frozen.end.bits, frozen.expand, frozen.widest)
    n, width = circuit.num_qubits, min(circuit.num_qubits, engine.START_WIDTH)
    state = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
    assert np.array_equal(program_state(prog, n, state), program_state(frozen, n, state))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 14))
def test_compile_matches_the_frozen_compile(seed, n):
    """Random circuits of gates, conditionals, measures and resets: the
    same ops, block, draws and fold as the frozen `_compile`, and kernels
    that leave a state bit for bit as its kernels do."""
    rng = np.random.default_rng(seed)
    c = Circuit(n, n)
    for name, qubits, params in random_gates(rng, n, int(rng.integers(1, 30))):
        roll = rng.random()
        if roll < 0.1:
            c.measure(qubits[0], int(rng.integers(n)))
        elif roll < 0.15:
            c.reset(qubits[0])
        elif roll < 0.25:
            c.c_if(name, qubits, int(rng.integers(n)), params)
        else:
            c.append(name, qubits, params=params)
    for q in range(n):
        c.measure(q, q)
    assert_same_program(c, rng)


def test_paper_programs_compile_as_before():
    """QPE-20, whose target stays folded, and the telegate8 merged circuit,
    with its conditionals and its repeated telegates."""
    rng = np.random.default_rng(5)
    assert_same_program(build_qpe(QpeConfig(n_ancilla=19, theta=2.0)), rng)
    plan = executor.merge_circuits(list(build_distributed_qpe(QpeConfig(n_ancilla=8, theta=2.0))))
    assert_same_program(plan.merged, rng)


def test_equal_ops_share_a_kernel_within_a_compile_only():
    """In telegate8's merged circuit each telegate applies the same gates
    again: one compile builds their kernels once, and a second compile
    builds its own."""
    merged = executor.merge_circuits(
        list(build_distributed_qpe(QpeConfig(n_ancilla=8, theta=2.0)))).merged
    first, second = engine._compile(merged), engine._compile(merged)
    conds = [op for op in first.walked if op.kind == "cond" and op.ins.name == "x"]
    assert len(conds) == 8 and len({id(op.kernel) for op in conds}) == 1
    kernels = [op.kernel for op in first.walked if op.kernel is not None]
    assert len({id(k) for k in kernels}) < len(kernels)
    assert not {id(k) for k in kernels} & {
        id(op.kernel) for op in second.walked if op.kernel is not None}

    shared: dict = {}
    gates = [("h", (3,), ()), ("cp", (2, 3), (0.3,)), ("h", (3,), ()), ("cp", (2, 3), (0.3,))]
    (h1, _), (cp1, _), (h2, _), (cp2, _) = compile_gates(4, gates, shared=shared)
    assert h1 is h2 and cp1 is cp2
    (h3, _), = compile_gates(4, gates[:1])
    assert h3 is not h1
