"""Independent verification oracles used by the tests.

These deliberately avoid the engine's strided in-place updates: full
unitaries are assembled as explicit 2^n x 2^n matrices and states evolve by
matrix-vector products, so the engine and the oracle share no code path.
The per-shot reference loop is the exception: it runs the engine's gate
kernels and measurement rule one shot at a time, as the engine did before
it walked shot branches, and so checks the walk and nothing below it. The
sampled reference is the same kind of check for jobs that draw nothing
before their terminal measurements: it is the engine's sampler from before
the walk resolved terminal measurements. Both apply each run of
consecutive unconditional gates through `compile_gates`, as the walk does,
since a fused run of diagonal gates rounds differently from the gates one
by one; `apply_by_index` checks that fusion against index arithmetic.
`end_branches` reads the walk's states where `run_branched` ends them, and
`check_end_branches` holds each against the reference loop, shot by shot.
The allocating forms at the end are the kernels that work in place
through bounded pieces, written as they were before: whole-slice copies,
a new array per growth step and `Generator.choice` for the terminal draw.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import partial
from typing import Callable
from unittest import mock

import numpy as np

from dqcemu import engine
from dqcemu.circuit import Circuit
from dqcemu.engine import START_WIDTH, _Op, _Program
from dqcemu.errors import EmulatorError, QubitOutOfRange, UnsupportedInstruction
from dqcemu.gates import GATES, LINKS, gate_matrix
from dqcemu.statevector import (
    PHASE_HIGH_QUBITS,
    PHASE_LOW_QUBITS,
    SWEEP_QUBITS,
    Fold,
    Grow,
    StateVector,
    _axes,
    _butterfly,
    _check_qubit,
    _mix,
    _slices,
    _swap,
    _transposed,
    compile_gate,
    compile_gates,
    measure_qubit,
    reset_qubit,
)


def full_gate_matrix(num_qubits: int, name: str, qubits, params=()) -> np.ndarray:
    """Explicit 2^n x 2^n matrix of a gate on the given qubits (qubit 0 = LSB)."""
    dim = 1 << num_qubits
    gate = gate_matrix(name, params)
    full = np.zeros((dim, dim), dtype=complex)
    if len(qubits) == 1:
        (q,) = qubits
        for j in range(dim):
            b = (j >> q) & 1
            for b_out in range(2):
                i = (j & ~(1 << q)) | (b_out << q)
                full[i, j] += gate[b_out, b]
    else:
        qa, qb = qubits  # qa is the most significant local bit
        for j in range(dim):
            a, b = (j >> qa) & 1, (j >> qb) & 1
            col = (a << 1) | b
            for row in range(4):
                a_out, b_out = row >> 1, row & 1
                i = (j & ~(1 << qa) & ~(1 << qb)) | (a_out << qa) | (b_out << qb)
                full[i, j] += gate[row, col]
    return full


def apply_by_index(amplitudes: np.ndarray, name: str, qubits, params=()) -> np.ndarray:
    """A gate applied by index arithmetic, out of place: amplitude i of the
    result sums M[r, c] * amplitudes[i with the gate's bits set to c] over
    the local basis states c, r being i's own (the first qubit the most
    significant). For a diagonal gate that is amplitude i times M[r, r]."""
    gate = gate_matrix(name, params)
    k = len(qubits)
    index = np.arange(amplitudes.size)
    row = sum(((index >> q) & 1) << (k - 1 - j) for j, q in enumerate(qubits))
    rest = index & ~sum(1 << q for q in qubits)
    out = np.zeros_like(amplitudes)
    for col in range(1 << k):
        source = rest | sum(((col >> (k - 1 - j)) & 1) << q for j, q in enumerate(qubits))
        out += gate[row, col] * amplitudes[source]
    return out


def statevector_by_matmul(circuit: Circuit) -> np.ndarray:
    """Evolve |0...0> by explicit full-matrix products over all unitaries."""
    dim = 1 << circuit.num_qubits
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    for ins in circuit.instructions:
        if ins.name == "measure":
            continue
        psi = full_gate_matrix(circuit.num_qubits, ins.name, ins.qubits,
                               ins.params) @ psi
    return psi


def sampled_admissible(circuit: Circuit) -> bool:
    """True when every measurement commutes to the end of the circuit: no
    distributed instruction, no reset, nothing acts on a qubit after it was
    measured, and no conditional reads a clbit a measurement wrote before
    it, so no conditional fires: what `is_sampled_admissible` admitted,
    and conditionals that cannot fire."""
    measured: set[int] = set()
    written: set[int] = set()
    for ins in circuit.instructions:
        if ins.name in LINKS or ins.name == "reset":
            return False
        if ins.name == "measure":
            measured.update(ins.qubits)
            written.update(ins.clbits)
            continue
        if ins.clbits and ins.clbits[0] in written:
            return False
        if any(q in measured for q in ins.qubits):
            return False
    return True


def apply_run(state: StateVector, run: list) -> None:
    """Apply a run of consecutive unconditional gates ((name, qubits,
    params) each) in place, as the engine does, and empty the list."""
    for kernel, _ in compile_gates(state.num_qubits, run):
        kernel(state.amplitudes)
    run.clear()


def run_sampled_reference(circuit: Circuit, shots: int, seed) -> dict[str, int]:
    """Counts of `shots` samples of the terminal measurement distribution,
    all from `engine.job_rng(seed)`: every gate applied once (conditionals,
    which never fire here, skipped), then one draw per shot over the basis
    states, each clbit reading the qubit measured into it last."""
    if not sampled_admissible(circuit):
        raise UnsupportedInstruction(
            "circuit has mid-circuit or distributed effects; use run_shot_loop_reference")
    state = StateVector(circuit.num_qubits)
    clbit_source: dict[int, int] = {}  # clbit -> measured qubit (last write wins)
    run: list = []
    for ins in circuit.instructions:
        if ins.name != "measure" and not ins.clbits:
            run.append((ins.name, ins.qubits, ins.params))
            continue
        apply_run(state, run)
        if ins.name == "measure":
            for q, c in zip(ins.qubits, ins.clbits):
                clbit_source[c] = q
    apply_run(state, run)

    outcomes = sample_by_choice(state.amplitudes, engine.job_rng(seed), shots)

    codes = np.zeros(shots, dtype=np.int64)
    for c, q in clbit_source.items():
        codes |= ((outcomes >> q) & 1) << c
    values, tallies = np.unique(codes, return_counts=True)
    nb = circuit.num_clbits
    return {engine.format_key(int(v), nb): int(t) for v, t in zip(values, tallies)}


def run_once_reference(circuit: Circuit, rng: np.random.Generator,
                       hooks: engine.ChannelHooks, shot_index: int = 0,
                       skip=frozenset()):
    """The instruction list executed once on a fresh state, one shot at a
    time: the per-shot loop the engine's branch walk must reproduce bit for
    bit. Each channel instruction is a one-shot hook call. The measures at
    the instruction indices in `skip` are left out, but each still ends a
    run of gates, as every measure ends one in the engine's compile.
    Returns the final state and the classical bit register."""
    n = circuit.num_qubits
    state = StateVector(n)
    bits = [0] * circuit.num_clbits
    run: list = []
    for i, ins in enumerate(circuit.instructions):
        name = ins.name
        if name not in ("measure", "reset", *LINKS) and not ins.clbits:
            run.append((name, ins.qubits, ins.params))
            continue
        apply_run(state, run)
        if i in skip:
            continue
        if name == "measure":
            for q, c in zip(ins.qubits, ins.clbits):
                bits[c], state = measure_qubit(state, q, rng)
        elif name == "reset":
            for q in ins.qubits:
                state = reset_qubit(state, q, rng)
        elif name == "measure_and_send":
            outcome, state = measure_qubit(state, ins.qubits[0], rng)
            hooks.send(ins.remote.peer_circuit_id, shot_index,
                       ins.remote.sequence, np.array([outcome], np.uint8))
        elif name == "remote_c_if":
            (bit,) = hooks.recv(ins.remote.peer_circuit_id, shot_index,
                                ins.remote.sequence, 1)
            if bit == 1:
                compile_gate(n, ins.remote.gate_name, ins.qubits,
                             ins.params)(state.amplitudes)
        elif name in LINKS:
            raise UnsupportedInstruction(
                f"{name} requires the quantum-communication executor")
        elif bits[ins.clbits[0]] == 1:
            compile_gate(n, ins.name, ins.qubits, ins.params)(state.amplitudes)
    apply_run(state, run)
    return state, bits


def terminal_measures(circuit: Circuit) -> list[int]:
    """The indices of the circuit's terminal measures, found from the
    instruction list alone: walking it backwards, a measure is terminal
    when no later instruction that is not does any of these: draws (a
    measure, reset or measure_and_send), touches one of its qubits, or
    reads one of its clbits as a condition."""
    drawn, touched, read, terminal = False, set(), set(), []
    for i in reversed(range(len(circuit.instructions))):
        ins = circuit.instructions[i]
        if ins.name == "measure":
            if not drawn and touched.isdisjoint(ins.qubits) and read.isdisjoint(ins.clbits):
                terminal.insert(0, i)
                continue
        elif ins.clbits:
            read.update(ins.clbits)
        drawn = drawn or ins.name in ("measure", "reset", "measure_and_send")
        touched.update(ins.qubits)
    return terminal


def end_branches(circuit: Circuit, shots: int, seed, outputs: int | None = None):
    """The end branches of one `engine.run_branched` call, chunk by chunk,
    taken by a spy on `engine._walk`: (state, bits, shot ids) each, the
    state copied before the terminal block is counted (the sampler consumes
    it) and unfolded into all 2^n amplitudes. Returns the job's compiled
    program with them."""
    progs, ends, walk = [], [], engine._walk

    def spy(prog, ops, branches, next_row, shot_ids, hooks, room=None):
        out, peak, kept = walk(prog, ops, branches, next_row, shot_ids, hooks, room)
        progs.append(prog)
        for b in out:
            amps = np.zeros(1 << prog.num_qubits, dtype=complex)[:len(b.amps)]
            amps[:] = b.amps
            ends.append((engine._unfold(prog.end)(amps) if prog.end.bits else amps,
                         b.bits, [kept[row] for row in b.shots]))
        return out, peak, kept

    with mock.patch.object(engine, "_walk", spy):
        engine.run_branched(circuit, shots, seed, outputs=outputs)
    return progs[0], ends


def check_end_branches(circuit: Circuit, shots: int, seed, outputs: int | None = None):
    """Every end branch of a `run_branched` call (`end_branches`) against
    the reference loop, shot by shot: the engine's terminal block is the
    circuit's `terminal_measures`, every shot ends in one branch, and each
    shot run alone from its place in the job stream, the terminal measures
    left out, gives the branch's state bit for bit and its bits, those the
    terminal block does not write (a merge may clear those). Returns the
    end branches."""
    prog, ends = end_branches(circuit, shots, seed, outputs)
    skip = terminal_measures(circuit)
    assert prog.block == [target for i in skip for target in zip(
        circuit.instructions[i].qubits, circuit.instructions[i].clbits)]
    assert sorted(s for _, _, ids in ends for s in ids) == list(range(shots))
    outputs = circuit.num_clbits if outputs is None else outputs
    kept = (1 << outputs) - 1 & ~sum(1 << c for c in {c for _, c in prog.block})
    for state, bits, ids in ends:
        # where the walk draws nothing, every shot runs alike
        for s in ids if prog.draws > len(prog.block) else ids[:1]:
            ref, ref_bits = run_once_reference(circuit, engine.shot_rng(seed, s, prog.draws),
                                               engine.null_hooks(), s, frozenset(skip))
            assert bits & kept == sum(b << c for c, b in enumerate(ref_bits)) & kept, s
            assert np.array_equal(state, ref.amplitudes), s
    return ends


def protocol_end_states(circuit: Circuit, seed: int = 0) -> list[np.ndarray]:
    """The state of every end branch of one 64-shot run of a teledata or
    telegate circuit: the protocol's two measurements are fair coins, so
    the shots take all four corrections, which its two clbits tell apart."""
    ends = end_branches(circuit, 64, seed)[1]
    assert sorted(bits for _, bits, _ in ends) == [0, 1, 2, 3]
    return [state for state, _, _ in ends]


def run_shot_loop_reference(circuit: Circuit, shots: int, seed,
                            hooks: engine.ChannelHooks | None = None,
                            outputs: int | None = None) -> dict[str, int]:
    """Counts over the first `outputs` clbits (all by default) of
    `reference_shot_bits`."""
    outputs = circuit.num_clbits if outputs is None else outputs
    tally = Counter(sum(b << c for c, b in enumerate(bits[:outputs]))
                    for bits in reference_shot_bits(circuit, shots, seed, hooks))
    return {engine.format_key(code, outputs): n for code, n in sorted(tally.items())}


def reference_shot_bits(circuit: Circuit, shots: int, seed,
                        hooks: engine.ChannelHooks | None = None) -> list[list[int]]:
    """Every clbit of `shots` executions run one after another from one
    `engine.job_rng(seed)` stream: each shot draws one uniform per measured
    qubit, reset and measure_and_send, so shot s takes the stream's
    uniforms s*d ... s*d + d - 1, as the engine gives them."""
    hooks = hooks or engine.null_hooks()
    rng, out = engine.job_rng(seed), []
    for shot in range(shots):
        try:
            out.append(run_once_reference(circuit, rng, hooks, shot)[1])
        except EmulatorError as exc:
            raise type(exc)(f"shot {shot}: {exc}") from exc
    return out


def reduced_density(amplitudes: np.ndarray, num_qubits: int, keep) -> np.ndarray:
    """Partial trace onto `keep` (list of qubit indices, little-endian)."""
    keep = list(keep)
    psi = amplitudes.reshape([2] * num_qubits)
    # numpy axis k corresponds to qubit (num_qubits - 1 - k); order the kept
    # axes so the reduced index is little-endian in `keep`
    axes_keep = [num_qubits - 1 - q for q in reversed(keep)]
    axes_rest = [ax for ax in range(num_qubits) if ax not in axes_keep]
    perm = axes_keep + axes_rest
    psi = np.transpose(psi, perm)
    d_keep = 1 << len(keep)
    psi = psi.reshape(d_keep, -1)
    return psi @ psi.conj().T


def state_fidelity(pure: np.ndarray, rho: np.ndarray) -> float:
    """<psi| rho |psi> for a pure reference state."""
    return float(np.real(pure.conj() @ rho @ pure))


def random_unitary_circuit(rng: np.random.Generator, num_qubits: int,
                           num_gates: int, measured: bool = False) -> Circuit:
    """Random circuit over the supported unitary set, optionally measured."""
    one_q = ["id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "u"]
    two_q = ["cx", "cy", "cz", "crz", "cp", "swap"]
    c = Circuit(num_qubits, num_qubits if measured else 0)
    for _ in range(num_gates):
        if num_qubits >= 2 and rng.random() < 0.4:
            name = two_q[rng.integers(len(two_q))]
            qubits = list(rng.choice(num_qubits, size=2, replace=False))
        else:
            name = one_q[rng.integers(len(one_q))]
            qubits = [int(rng.integers(num_qubits))]
        n_params = GATES[name].params
        params = [float(rng.uniform(-2 * np.pi, 2 * np.pi))
                  for _ in range(n_params)]
        c.append(name, [int(q) for q in qubits], params=params)
    if measured:
        for q in range(num_qubits):
            c.measure(q, q)
    return c


def haar_single_qubit(rng: np.random.Generator) -> tuple[float, float, float]:
    """u-gate parameters drawn so the resulting state is Haar random."""
    theta = 2.0 * np.arccos(np.sqrt(rng.uniform()))
    phi = rng.uniform(0, 2 * np.pi)
    lam = rng.uniform(0, 2 * np.pi)
    return float(theta), float(phi), float(lam)


def run_ipea_loopback(chain, shots: int, seed: int,
                      hub=None) -> list[dict[str, int]]:
    """Run an IPEA chain in-process: one thread per circuit, loopback hooks
    over the in-memory channel. Returns per-circuit counts in chain order."""
    import threading

    from dqcemu.channel import establish

    endpoints = establish({c.id: c.id for c in chain.circuits}, transport=hub)
    results: dict[str, dict[str, int]] = {}
    errors: list[BaseException] = []

    def worker(circuit, worker_seed):
        try:
            results[circuit.id] = engine.run_shot_loop(
                circuit, shots, seed=worker_seed,
                hooks=endpoints[circuit.id].hooks())
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(c, seed * 1000 + i))
               for i, c in enumerate(chain.circuits)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return [results[c.id] for c in chain.circuits]


def chi2_exact_pvalue(counts: dict[str, int], probs: dict[str, float]) -> float:
    """Chi-square goodness of fit of `counts` to the exact distribution
    `probs`, keys with fewer than 5 expected shots pooled into one cell;
    a shot on an outcome of probability 0 fails it outright."""
    from scipy.stats import chi2

    shots = sum(counts.values())
    stat, dof = 0.0, -1
    pooled_o = pooled_e = 0.0
    for key in set(counts) | set(probs):
        observed, expected = counts.get(key, 0), shots * probs.get(key, 0.0)
        if expected < 5:
            pooled_o += observed
            pooled_e += expected
            continue
        stat += (observed - expected) ** 2 / expected
        dof += 1
    if pooled_e > 0:
        stat += (pooled_o - pooled_e) ** 2 / pooled_e
        dof += 1
    elif pooled_o:
        return 0.0
    if dof < 1:
        return 1.0
    return float(chi2.sf(stat, dof))


def chi2_pvalue(counts_a: dict[str, int], counts_b: dict[str, int]) -> float:
    """Two-sample chi-square homogeneity test with rare-cell pooling."""
    from scipy.stats import chi2

    keys = sorted(set(counts_a) | set(counts_b))
    na = sum(counts_a.values())
    nb = sum(counts_b.values())
    total = na + nb
    pooled_a = pooled_b = 0.0
    stat = 0.0
    dof = -1
    for key in keys:
        oa, ob = counts_a.get(key, 0), counts_b.get(key, 0)
        ea = na * (oa + ob) / total
        eb = nb * (oa + ob) / total
        if ea < 5 or eb < 5:
            pooled_a += oa
            pooled_b += ob
            continue
        stat += (oa - ea) ** 2 / ea + (ob - eb) ** 2 / eb
        dof += 1
    pool_total = pooled_a + pooled_b
    if pool_total:
        ea = na * pool_total / total
        eb = nb * pool_total / total
        if ea >= 5 and eb >= 5:
            stat += (pooled_a - ea) ** 2 / ea + (pooled_b - eb) ** 2 / eb
            dof += 1
    if dof < 1:
        return 1.0
    return float(chi2.sf(stat, dof))


# -- allocating forms of the in-place kernels ---------------------------------


def grow_by_copy(grow, amps: np.ndarray) -> np.ndarray:
    """`grow` (a `statevector.Grow`) into a new zeroed array."""
    out = np.zeros(1 << grow.width, dtype=amps.dtype)
    view = out.reshape((2,) * grow.width)[grow.index + (...,)]
    view[...] = amps.reshape(view.shape)
    return out


def swap_by_copy(view: np.ndarray, i, j) -> None:
    t = view[i].copy()
    view[i] = view[j]
    view[j] = t


def mix_by_copy(view: np.ndarray, i, j, mat: np.ndarray) -> None:
    a, b = view[i], view[j]
    t = mat[1, 0] * a
    a *= mat[0, 0]
    a += mat[0, 1] * b
    b *= mat[1, 1]
    b += t


def move_to_zero_by_copy(amplitudes: np.ndarray, qubit: int) -> None:
    view = amplitudes.reshape(-1, 2, 1 << qubit)
    view[:, 0] = view[:, 1]
    view[:, 1] = 0.0


def sample_by_choice(amplitudes: np.ndarray, rng: np.random.Generator,
                     shots: int) -> np.ndarray:
    """`shots` basis states from `choice` over |a|^2, normalized."""
    probs = np.abs(amplitudes)
    np.square(probs, out=probs)
    probs /= probs.sum()
    return rng.choice(len(probs), size=shots, p=probs)

# -- the compile as it was before runs were built from their gates' rows ------
#
# `compile_gates` and `engine._compile` as they stood when a run's table
# was the product of each gate's full broadcast diagonal, every gate built
# its matrix, and no two ops shared a kernel: the new compile must give
# kernels that leave every state bit for bit as these do.


def frozen_resolve(num_qubits: int, name: str, qubits, params) -> np.ndarray:
    for q in qubits:
        _check_qubit(num_qubits, q)
    if len(set(qubits)) != len(qubits):
        raise QubitOutOfRange(f"{name} applied to duplicate qubits {tuple(qubits)}")
    return gate_matrix(name, params)


def frozen_body(num_qubits: int, name: str, qubits, mat: np.ndarray
          ) -> Callable[[np.ndarray], None]:
    shape, index = _slices(num_qubits, qubits)
    split, dtype, kind = shape[:-1] + (-1,), complex, GATES[name].kernel
    if kind == "controlled":  # the target's kernel on the control = 1 half
        kind, mat, index = GATES[GATES[name].target].kernel, mat[2:, 2:], index[2:]
    if kind == "permutation":  # the two basis states the matrix exchanges
        fn, args = _swap, tuple(index[k] for k in np.flatnonzero(np.diag(mat) == 0))
    elif name == "h":  # the butterfly on the float view
        fn, args, dtype = _butterfly, (index[0], index[1], mat[0, 0].real), np.float64
    else:  # dense, or the dense target of a controlled gate
        fn, args = _mix, (index[0], index[1], mat)
    return lambda amps: fn(amps.view(dtype).reshape(split), *args)


#: the lone-gate block: a one-qubit dense gate on a qubit below
#: FROZEN_BLOCK_QUBITS of a state at least that wide ran on the transpose
#: of FROZEN_BLOCK_ROWS rows of 2^FROZEN_BLOCK_QUBITS amplitudes at a time
FROZEN_BLOCK_QUBITS = 5
FROZEN_BLOCK_ROWS = 1024


def frozen_kernel(num_qubits: int, name: str, qubits, mat: np.ndarray
            ) -> Callable[[np.ndarray], None]:
    q = qubits[0]
    if GATES[name].kernel == "dense" and q < FROZEN_BLOCK_QUBITS <= num_qubits:
        body = frozen_body(FROZEN_BLOCK_QUBITS, name, qubits, mat)
        return partial(_transposed, kernels=[body], low=FROZEN_BLOCK_QUBITS,
                       rows=FROZEN_BLOCK_ROWS)
    return frozen_body(num_qubits, name, qubits, mat)


def frozen_phase_pass(fold: Fold, run: list[tuple[tuple[int, ...], np.ndarray]]) -> tuple:
    qubits = sorted({q for gate_qubits, _ in run for q in gate_qubits}, reverse=True)
    axis = {q: i for i, q in enumerate(qubits)}
    table = np.ones((2,) * len(qubits), dtype=complex)
    for gate_qubits, diag in run:  # gate-matrix order: the first qubit leads
        entries = diag.reshape((2,) * len(gate_qubits))
        if len(gate_qubits) == 2 and axis[gate_qubits[0]] > axis[gate_qubits[1]]:
            entries = entries.T
        table *= entries.reshape([2 if q in gate_qubits else 1 for q in qubits])
    table = table[tuple(fold.bits.get(q, slice(None)) for q in qubits) + (...,)]
    ranks = [fold.rank(q) for q in qubits if q not in fold.bits]
    return tuple(sorted(qubits)), ranks, None, table


def frozen_spread(table: np.ndarray, ranks: list[int], low: int) -> np.ndarray:
    high = [r for r in ranks if r >= low]
    full = np.empty((2,) * (len(high) + low), dtype=complex)
    full[...] = table.reshape([2] * len(high) + [2 if r in ranks else 1
                                                 for r in range(low - 1, -1, -1)])
    return full


def frozen_phase_kernel(width: int, ranks: list[int], table: np.ndarray
                  ) -> Callable[[np.ndarray], None]:
    if (table == 1).all():
        return lambda amps: None
    if width <= PHASE_LOW_QUBITS:
        shape = _axes(width, ranks)
        factors = table.reshape([1, 2] * len(ranks) + [1, 1])

        def narrow(amps: np.ndarray) -> None:
            view = amps.reshape(shape)
            view *= factors
        return narrow
    low = PHASE_LOW_QUBITS
    high = [r for r in ranks if r >= low]
    shape = _axes(width, high, low)
    index = [sum(((slice(None), bit) for bit in bits), ())
             for bits in itertools.product((0, 1), repeat=len(high))]
    rows = frozen_spread(table, ranks, low).reshape(-1, 1 << low)
    # each row kept is copied, so the table is freed; a row of one repeated
    # factor is that factor: numpy multiplies by a scalar about twice as fast
    same = (rows == rows[:, :1]).all(axis=1)
    passes = [(index[r], row[0] if same[r] else row.copy())
              for r, row in enumerate(rows) if not (same[r] and row[0] == 1)]

    def kernel(amps: np.ndarray) -> None:
        view = amps.reshape(shape)
        for at, row in passes:
            view[at] *= row
    return kernel


def frozen_sweep_body(step: tuple) -> Callable[[np.ndarray], None]:
    _, ranks, name, mat = step
    if name is not None:
        return frozen_body(SWEEP_QUBITS, name, ranks, mat)
    column = frozen_spread(mat, ranks, SWEEP_QUBITS).reshape(-1, 1)
    if (column == 1).all():
        return lambda buf: None

    def body(buf: np.ndarray) -> None:
        buf *= column
    return body


def frozen_compile_gates(num_qubits: int, gates, fold: Fold | None = None
                  ) -> list[tuple[Callable, tuple[int, ...]]]:
    """Resolve consecutive unconditional gates ((name, qubits, params) each)
    once for states of `num_qubits`: each maximal run of diagonal gates is
    one phase pass (`frozen_phase_pass`), cut before it would span more than
    PHASE_HIGH_QUBITS qubits at or above PHASE_LOW_QUBITS, and every other
    gate its own kernel. Returns the kernels in order, each with the
    qubits it acts on; a kernel applies its gates in place to the
    amplitude array of such a state. A run rounds as its table's product,
    not as the gates one after another.

    On a state wider than one sweep buffer (2^SWEEP_QUBITS rows of
    2^SWEEP_QUBITS amplitudes), each maximal sequence of these steps on
    qubits below SWEEP_QUBITS that holds two or more gates that are not
    diagonal is one kernel: it applies the steps in order to transposed
    buffers (`_transposed`), where every amplitude takes the operations
    the steps' own kernels would give it.

    With a `fold`, the state leaves out its folded qubits, and `fold` is
    updated as the gates go: `x` on a folded qubit flips its bit, a run is
    cut where it would be with nothing folded and its table is taken at
    the folded bits, and any other gate on a folded qubit is preceded by a
    `Grow` step that activates it (listed with the qubits it activates).
    Kernels act on the active qubits, numbered by rank."""
    fold = Fold(num_qubits) if fold is None else fold
    low = min(num_qubits, PHASE_LOW_QUBITS)
    # steps are (qubits, ranks, gate name or None for a run, matrix or table)
    kernels, run, high, sweep = [], [], set(), []

    def add(step: tuple) -> None:
        if fold.width > 2 * SWEEP_QUBITS and all(r < SWEEP_QUBITS for r in step[1]):
            sweep.append(step)
        else:
            flush()
            kernels.append(compiled(step))

    def compiled(step: tuple) -> tuple[Callable, tuple[int, ...]]:
        qubits, ranks, name, mat = step
        return (frozen_phase_kernel(fold.width, ranks, mat) if name is None
                else frozen_kernel(fold.width, name, ranks, mat)), qubits

    def flush() -> None:
        if sum(name is not None for _, _, name, _ in sweep) >= 2:
            bodies = [frozen_sweep_body(step) for step in sweep]
            kernels.append((partial(_transposed, kernels=bodies, low=SWEEP_QUBITS,
                                    rows=1 << SWEEP_QUBITS),
                            tuple(sorted({q for step in sweep for q in step[0]}))))
        else:
            kernels.extend(map(compiled, sweep))
        sweep.clear()

    for name, qubits, params in gates:
        mat = frozen_resolve(num_qubits, name, qubits, params)
        diagonal, above = GATES[name].kernel == "diagonal", {q for q in qubits if q >= low}
        if run and not (diagonal and len(high | above) <= PHASE_HIGH_QUBITS):
            add(frozen_phase_pass(fold, run))
            run, high = [], set()
        folded = [q for q in qubits if q in fold.bits]
        if diagonal:
            run.append((tuple(qubits), np.diag(mat)))
            high |= above
        elif name == "x" and folded:
            fold.bits[qubits[0]] ^= 1
        else:
            if folded:
                flush()
                kernels.append((fold.activate(folded), tuple(folded)))
            add((tuple(qubits), [fold.rank(q) for q in qubits], name, mat))
    if run:
        add(frozen_phase_pass(fold, run))
    flush()
    return kernels


def frozen_compile_gate(num_qubits: int, name: str, qubits, params=()
                 ) -> Callable[[np.ndarray], None]:
    return frozen_compile_gates(num_qubits, [(name, qubits, params)])[0][0]


def frozen_compile(circuit, outputs: int | None = None) -> _Program:
    """Resolve every gate once per job, count the uniforms each shot draws,
    mark where branches may merge (after every reset and wherever a clbit
    dies) and find the terminal block: the measures after which only other
    block measures draw, no op but a measure touches their qubits and none
    reads their clbits. The first `outputs` clbits (all by default) are the
    result; any other clbit is dead after its last conditional read.

    Every qubit but the lowest START_WIDTH starts folded
    (`statevector.Fold`): each run of consecutive
    unconditional gates goes through `frozen_compile_gates` with the fold, which
    emits gate ops (a run of diagonal ones is one, on the union of their
    qubits) and the grow ops that activate qubits, until the first walked
    op that draws, reads or sends a bit; a grow op before it activates
    every qubit still folded, and from there on the state is full width."""
    n = circuit.num_qubits
    ops, draws, run = [], 0, []

    def close_run() -> None:
        if run:
            ops.append(_Op("run", list(run), tuple({q for _, qs, _ in run for q in qs})))
            run.clear()

    for ins in circuit.instructions:
        name, qubits = ins.name, tuple(ins.qubits)
        if name in GATES and not ins.clbits:
            run.append((name, qubits, ins.params))
            continue
        close_run()
        if name in ("measure", "reset", "measure_and_send"):
            qubits = qubits[:1] if name == "measure_and_send" else qubits
            clbits = ins.clbits if name == "measure" else [None] * len(qubits)
            targets = tuple(zip(qubits, clbits))
            draws += len(targets)
            ops.append(_Op("send" if name == "measure_and_send" else name, ins, qubits,
                           targets=targets))
        elif name == "remote_c_if":
            ops.append(_Op("recv", ins, qubits, frozen_compile_gate(
                n, ins.remote.gate_name, qubits, ins.params)))
        elif name in LINKS:
            ops.append(_Op("unsupported", ins, qubits))
        else:
            ops.append(_Op("cond", ins, qubits, frozen_compile_gate(n, name, qubits, ins.params)))
    close_run()

    outputs = circuit.num_clbits if outputs is None else outputs
    live = (1 << outputs) - 1
    touched, read, drawn, block, walked = set(), set(), False, [], []
    for op in reversed(ops):
        after, writes = live, 0
        if op.kind == "measure":
            for c in op.ins.clbits:
                writes |= 1 << c
        live &= ~writes
        if op.kind == "cond":
            live |= 1 << op.ins.clbits[0]
        if op.kind == "reset" or (live | writes) & ~after:
            op.live = after
        if (op.kind == "measure" and not drawn
                and touched.isdisjoint(op.qubits) and read.isdisjoint(op.ins.clbits)):
            block[:0] = op.targets
            continue
        walked.insert(0, op)
        drawn = drawn or bool(op.targets)
        touched.update(op.qubits)
        read.update(op.ins.clbits if op.kind == "cond" else ())

    fold, ops = Fold(n, dict.fromkeys(range(START_WIDTH, n), 0)), []
    for op in walked:
        if op.kind == "run":
            ops.extend(_Op("grow" if isinstance(kernel, Grow) else "gate", None, qubits, kernel)
                       for kernel, qubits in frozen_compile_gates(n, op.ins, fold))
            continue
        if fold.bits:
            ops.append(_Op("grow", None, tuple(fold.bits), fold.activate(list(fold.bits))))
        ops.append(op)
    # the folded layout is sampled as it is only where its active qubits are
    # the lowest (START_WIDTH or more of them): then the nonzero amplitudes
    # are one aligned block, which numpy sums as it sums the full state
    expand = bool(block and fold.bits) and min(fold.bits) < fold.width
    widest = n if expand else max((op.kernel.width for op in ops if op.kind == "grow"),
                                  default=min(n, START_WIDTH))
    return _Program(n, outputs, ops, block, draws, fold, expand, widest)
