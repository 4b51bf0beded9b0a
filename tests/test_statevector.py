import copy
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqcemu import statevector
from dqcemu.errors import QubitOutOfRange, ZeroNorm
from dqcemu.gates import GATES
from dqcemu.statevector import (
    GateOp,
    StateVector,
    apply_gate,
    compile_gates,
    measure_qubit,
    reset_qubit,
)

from oracles import (
    apply_by_index,
    full_gate_matrix,
    random_unitary_circuit,
    reduced_density,
)


def bell_state() -> StateVector:
    s = StateVector.zero(2)
    apply_gate(s, GateOp("h", (0,)))
    apply_gate(s, GateOp("cx", (0, 1)))
    return s


def test_hadamard_on_zero():
    s = StateVector.zero(1)
    apply_gate(s, GateOp("h", (0,)))
    assert np.allclose(s.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_x_is_little_endian():
    s = StateVector.zero(2)
    apply_gate(s, GateOp("x", (0,)))
    expected = np.zeros(4)
    expected[1] = 1.0  # qubit 0 flips the least significant index bit
    assert np.allclose(s.amplitudes, expected)


def test_little_endian_consistency_all_positions():
    for n in range(1, 11):
        for k in range(n):
            s = StateVector.zero(n)
            apply_gate(s, GateOp("x", (k,)))
            assert abs(s.amplitudes[1 << k] - 1.0) < 1e-12
            assert abs(np.sum(np.abs(s.amplitudes)) - 1.0) < 1e-12


def test_crz_phase_against_matrix_oracle():
    # crz(4) on |11> with control=1, target=0 -> e^{2i}|11>
    s = StateVector.zero(2)
    apply_gate(s, GateOp("x", (0,)))
    apply_gate(s, GateOp("x", (1,)))
    apply_gate(s, GateOp("crz", (1, 0), (4.0,)))
    oracle = full_gate_matrix(2, "crz", [1, 0], [4.0]) @ np.array([0, 0, 0, 1.0])
    assert np.allclose(s.amplitudes, oracle, atol=1e-12)
    assert np.allclose(s.amplitudes[3], np.exp(2j), atol=1e-12)


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def test_two_qubit_gates_any_orientation():
    # every ordered pair of 4 qubits: qa > qb, adjacent, 0 and n-1
    rng = np.random.default_rng(5)
    for name in (g for g, gate in GATES.items() if gate.qubits == 2):
        for qubits in itertools.permutations(range(4), 2):
            params = [1.3] * GATES[name].params
            start = random_state(rng, 4)
            s = StateVector(4, start.copy())
            apply_gate(s, GateOp(name, qubits, tuple(params)))
            oracle = full_gate_matrix(4, name, qubits, params) @ start
            assert np.allclose(s.amplitudes, oracle, atol=1e-12), (name, qubits)


@st.composite
def gate_on_state(draw):
    name = draw(st.sampled_from(sorted(GATES)))
    arity, n_params = GATES[name].qubits, GATES[name].params
    n = draw(st.integers(arity, 10))
    qubits = tuple(draw(st.lists(st.integers(0, n - 1), min_size=arity,
                                 max_size=arity, unique=True)))
    params = tuple(draw(st.lists(st.floats(-2 * math.pi, 2 * math.pi),
                                 min_size=n_params, max_size=n_params)))
    return name, n, qubits, params, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(case=gate_on_state())
def test_every_gate_matches_dense_oracle(case):
    name, n, qubits, params, seed = case
    start = random_state(np.random.default_rng(seed), n)
    s = StateVector(n, start.copy())
    apply_gate(s, GateOp(name, qubits, params))
    oracle = full_gate_matrix(n, name, qubits, params) @ start
    assert np.allclose(s.amplitudes, oracle, atol=1e-12)


DENSE = sorted(g for g, gate in GATES.items() if gate.kernel == "dense")


@pytest.mark.parametrize("rows", [statevector.BLOCK_ROWS, 2])
@pytest.mark.parametrize("n", [4, 5, 6, 9])
@pytest.mark.parametrize("name", DENSE)
def test_dense_kernels_on_every_qubit(name, n, rows):
    """Both sides of BLOCK_QUBITS: the transposed buffer on the low qubits
    of a state at least that wide (and, with 2 rows a buffer, many buffers
    a state), the whole-state views above it and on narrower states."""
    assert DENSE == ["h", "rx", "ry", "u", "y"]
    rng = np.random.default_rng(n * 101 + rows)
    with mock.patch.object(statevector, "BLOCK_ROWS", rows):
        for q in range(n):
            params = tuple(rng.uniform(-2 * np.pi, 2 * np.pi, GATES[name].params))
            start = random_state(rng, n)
            s = StateVector(n, start.copy())
            apply_gate(s, GateOp(name, (q,), params))
            oracle = full_gate_matrix(n, name, (q,), params) @ start
            assert np.allclose(s.amplitudes, oracle, rtol=0, atol=1e-12), (name, q)
            assert abs(s.norm() - 1.0) <= 1e-12


DIAGONAL = sorted(g for g, gate in GATES.items() if gate.kernel == "diagonal")


@st.composite
def gate_runs(draw):
    """A width of 1 to 14 qubits, so runs span qubits on both sides of
    PHASE_LOW_QUBITS and more high qubits than PHASE_HIGH_QUBITS, and a
    sequence of gates, mostly diagonal, two-qubit ones in either order."""
    n = draw(st.integers(1, 14))
    diagonal = [g for g in DIAGONAL if GATES[g].qubits <= n]
    other = [g for g in ("h", "x", "ry", "cx", "swap") if GATES[g].qubits <= n]
    gates = []
    for _ in range(draw(st.integers(1, 30))):
        name = draw(st.sampled_from(other if draw(st.integers(0, 4)) == 0 else diagonal))
        arity, n_params = GATES[name].qubits, GATES[name].params
        qubits = tuple(draw(st.lists(st.integers(0, n - 1), min_size=arity,
                                     max_size=arity, unique=True)))
        params = tuple(draw(st.lists(st.floats(-2 * math.pi, 2 * math.pi),
                                     min_size=n_params, max_size=n_params)))
        gates.append((name, qubits, params))
    return n, gates, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=120, deadline=None)
@given(case=gate_runs())
def test_compile_gates_matches_index_arithmetic(case):
    """Fused runs of diagonal gates, between other gates, do what the gates
    do one by one, within rounding; each kernel names the qubits of its gates."""
    n, gates, seed = case
    start = random_state(np.random.default_rng(seed), n)
    amps = start.copy()
    kernels = compile_gates(n, gates)
    for kernel, _ in kernels:
        kernel(amps)
    oracle = start
    for name, qubits, params in gates:
        oracle = apply_by_index(oracle, name, qubits, params)
    assert np.allclose(amps, oracle, rtol=0, atol=1e-12)
    assert set().union(*(qubits for _, qubits in kernels)) == set().union(
        *(qubits for _, qubits, _ in gates))


@pytest.mark.parametrize("name", ["crz", "cp", "cz"])
def test_phase_pass_keeps_the_order_of_a_gates_qubits(name):
    """crz(a, b) is not crz(b, a): pairs below, across and above qubit
    PHASE_LOW_QUBITS, alone and fused with a run, and on a state no wider
    than PHASE_LOW_QUBITS."""
    low = statevector.PHASE_LOW_QUBITS
    rng = np.random.default_rng(23)
    params = (1.1,) * GATES[name].params
    for n, a, b in [(14, 2, 7), (14, 3, low + 1), (14, low, low + 2), (14, 0, 13),
                    (9, 2, 7), (low, 0, low - 1)]:
        for qubits in ((a, b), (b, a)):
            start = random_state(rng, n)
            gates = [("t", (a,), ()), (name, qubits, params), ("rz", (b,), (0.4,))]
            for run in (gates[1:2], gates):
                amps = start.copy()
                for kernel, _ in compile_gates(n, run):
                    kernel(amps)
                oracle = start
                for gate in run:
                    oracle = apply_by_index(oracle, *gate)
                assert np.allclose(amps, oracle, rtol=0, atol=1e-12), (qubits, len(run))


def test_phase_pass_skips_rows_of_ones():
    """cp on two high qubits writes only the quarter of the state where both
    are 1: an infinite amplitude elsewhere stays as it is (multiplied by
    1 + 0j its imaginary part would become nan)."""
    n, low = 14, statevector.PHASE_LOW_QUBITS
    amps = random_state(np.random.default_rng(29), n)
    both = ((np.arange(1 << n) >> low) & (np.arange(1 << n) >> (low + 1)) & 1) == 1
    amps[~both] = np.inf
    start = amps.copy()
    ((kernel, qubits),) = compile_gates(n, [("cp", (low, low + 1), (0.9,))])
    kernel(amps)
    assert qubits == (low, low + 1)
    assert np.array_equal(amps[~both], start[~both])
    assert np.allclose(amps[both], start[both] * np.exp(0.9j), rtol=0, atol=1e-12)


def test_compile_gates_cuts_runs():
    """A run of diagonal gates is one kernel until a gate of another class,
    or until it would span more than PHASE_HIGH_QUBITS high qubits."""
    n, low = 16, statevector.PHASE_LOW_QUBITS
    cap = statevector.PHASE_HIGH_QUBITS
    low_run = [("cp", (q, q + 1), (0.3,)) for q in range(low - 1)]
    assert [q for _, q in compile_gates(n, low_run)] == [tuple(range(low))]
    split = low_run[:3] + [("h", (0,), ())] + low_run[3:]
    assert len(compile_gates(n, split)) == 3
    high_run = [("crz", (0, low + k), (0.5,)) for k in range(cap + 1)]
    kernels = compile_gates(n, high_run)
    assert [q for _, q in kernels] == [(0,) + tuple(range(low, low + cap)), (0, low + cap)]


def projected(amps: np.ndarray, qubit: int, value: int) -> tuple[np.ndarray, float]:
    """The normalised projection of `amps` onto qubit == value, and its weight."""
    keep = ((np.arange(amps.size) >> qubit) & 1) == value
    out = np.where(keep, amps, 0)
    weight = float(np.sum(np.abs(out) ** 2))
    return out / math.sqrt(weight), weight


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 10), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_measure_and_reset_match_projector_oracle(n, data, seed):
    qubit = data.draw(st.integers(0, n - 1))
    start = random_state(np.random.default_rng(seed), n)
    rng = np.random.default_rng(seed + 1)
    once = copy.deepcopy(rng)
    outcome = 1 if once.random() < projected(start, qubit, 1)[1] else 0
    post = projected(start, qubit, outcome)[0]

    used = copy.deepcopy(rng)
    measured, s = measure_qubit(StateVector(n, start.copy()), qubit, used)
    assert measured == outcome
    assert np.allclose(s.amplitudes, post, atol=1e-12)
    assert used.random() == once.random()  # exactly one draw consumed

    s = reset_qubit(StateVector(n, start.copy()), qubit, copy.deepcopy(rng))
    flip = full_gate_matrix(n, "x", [qubit]) if outcome else np.eye(1 << n)
    assert np.allclose(s.amplitudes, flip @ post, atol=1e-12)


def test_measure_deterministic_basis_state():
    s = StateVector.zero(1)
    apply_gate(s, GateOp("x", (0,)))
    outcome, s = measure_qubit(s, 0, np.random.default_rng(0))
    assert outcome == 1
    assert np.allclose(s.amplitudes, [0, 1])


def test_bell_collapse_matches_density_oracle():
    for seed in range(6):
        s = bell_state()
        rho_before = reduced_density(s.amplitudes, 2, [0])
        assert np.allclose(rho_before, np.eye(2) / 2, atol=1e-12)
        outcome, s = measure_qubit(s, 0, np.random.default_rng(seed))
        expected = np.zeros(4)
        expected[outcome * 3] = 1.0  # |00> or |11>
        assert np.allclose(np.abs(s.amplitudes) ** 2, expected, atol=1e-12)


def test_measure_seed_determinism():
    results = set()
    for _ in range(5):
        s = StateVector.zero(1)
        apply_gate(s, GateOp("h", (0,)))
        outcome, _ = measure_qubit(s, 0, np.random.default_rng(42))
        results.add(outcome)
    assert len(results) == 1


def test_reset_one_to_zero():
    s = StateVector.zero(1)
    apply_gate(s, GateOp("x", (0,)))
    s = reset_qubit(s, 0, np.random.default_rng(1))
    assert np.allclose(s.amplitudes, [1, 0])


def test_reset_superposition_any_seed():
    for seed in range(8):
        s = StateVector.zero(1)
        apply_gate(s, GateOp("h", (0,)))
        s = reset_qubit(s, 0, np.random.default_rng(seed))
        assert np.allclose(s.amplitudes, [1, 0], atol=1e-12)


def test_reset_disentangles_bell_qubit():
    for seed in range(6):
        s = bell_state()
        s = reset_qubit(s, 1, np.random.default_rng(seed))
        rho1 = reduced_density(s.amplitudes, 2, [1])
        assert np.allclose(rho1, [[1, 0], [0, 0]], atol=1e-12)
        rho0 = reduced_density(s.amplitudes, 2, [0])
        # qubit 0 left in the measured basis state
        assert np.allclose(rho0 @ rho0, rho0, atol=1e-12)


def test_qubit_out_of_range():
    s = StateVector.zero(2)
    with pytest.raises(QubitOutOfRange):
        apply_gate(s, GateOp("x", (2,)))
    with pytest.raises(QubitOutOfRange):
        measure_qubit(s, 5, np.random.default_rng(0))
    with pytest.raises(QubitOutOfRange):
        apply_gate(s, GateOp("cx", (1, 1)))


def test_zero_norm_detected():
    s = StateVector(1, np.array([1.0, 0.0], dtype=complex))
    s.amplitudes[:] = [0.0, 1e-9]  # corrupt: negligible total weight
    with pytest.raises(ZeroNorm):
        measure_qubit(s, 0, np.random.default_rng(3))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), gates=st.integers(1, 12))
def test_norm_preserved_by_random_gate_sequences(seed, n, gates):
    rng = np.random.default_rng(seed)
    circuit = random_unitary_circuit(rng, n, gates)
    s = StateVector.zero(n)
    for ins in circuit.instructions:
        apply_gate(s, GateOp(ins.name, tuple(ins.qubits), tuple(ins.params)))
    assert abs(s.norm() - 1.0) <= 1e-12
