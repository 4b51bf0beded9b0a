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
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from dqcemu import engine
from dqcemu.circuit import Circuit
from dqcemu.errors import EmulatorError, UnsupportedInstruction
from dqcemu.gates import DISTRIBUTED, GATES, gate_matrix
from dqcemu.statevector import (
    StateVector,
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
        if ins.name in DISTRIBUTED or ins.name == "reset":
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
    state = StateVector.zero(circuit.num_qubits)
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

    probs = np.abs(state.amplitudes)
    np.square(probs, out=probs)
    probs /= probs.sum()
    outcomes = engine.job_rng(seed).choice(state.dim, size=shots, p=probs)

    codes = np.zeros(shots, dtype=np.int64)
    for c, q in clbit_source.items():
        codes |= ((outcomes >> q) & 1) << c
    values, tallies = np.unique(codes, return_counts=True)
    nb = circuit.num_clbits
    return {engine.format_key(int(v), nb): int(t) for v, t in zip(values, tallies)}


def run_once_reference(circuit: Circuit, rng: np.random.Generator,
                       hooks: engine.ChannelHooks, shot_index: int = 0):
    """The instruction list executed once on a fresh state, one shot at a
    time: the per-shot loop the engine's branch walk must reproduce bit for
    bit. Returns the final state and the classical bit register."""
    n = circuit.num_qubits
    state = StateVector.zero(n)
    bits = [0] * circuit.num_clbits
    run: list = []
    for ins in circuit.instructions:
        name = ins.name
        if name not in ("measure", "reset", *DISTRIBUTED) and not ins.clbits:
            run.append((name, ins.qubits, ins.params))
            continue
        apply_run(state, run)
        if name == "measure":
            for q, c in zip(ins.qubits, ins.clbits):
                bits[c], state = measure_qubit(state, q, rng)
        elif name == "reset":
            for q in ins.qubits:
                state = reset_qubit(state, q, rng)
        elif name == "measure_and_send":
            outcome, state = measure_qubit(state, ins.qubits[0], rng)
            hooks.send(ins.remote.peer_circuit_id, shot_index,
                       ins.remote.sequence, outcome)
        elif name == "remote_c_if":
            bit = hooks.recv(ins.remote.peer_circuit_id, shot_index,
                             ins.remote.sequence)
            if bit == 1:
                compile_gate(n, ins.remote.gate_name, ins.qubits,
                             ins.params)(state.amplitudes)
        elif name in DISTRIBUTED:
            raise UnsupportedInstruction(
                f"{name} requires the quantum-communication executor")
        elif bits[ins.clbits[0]] == 1:
            compile_gate(n, ins.name, ins.qubits, ins.params)(state.amplitudes)
    apply_run(state, run)
    return state, bits


def run_shot_loop_reference(circuit: Circuit, shots: int, seed,
                            hooks: engine.ChannelHooks | None = None,
                            outputs: int | None = None) -> dict[str, int]:
    """Counts over the first `outputs` clbits (all by default) from
    `shots` independent executions, each drawing from its own
    `engine.shot_rng(seed, shot)` stream."""
    hooks = hooks or engine.null_hooks()
    outputs = circuit.num_clbits if outputs is None else outputs
    tally: Counter[int] = Counter()
    for shot in range(shots):
        try:
            _, bits = run_once_reference(circuit, engine.shot_rng(seed, shot),
                                         hooks, shot)
        except EmulatorError as exc:
            raise type(exc)(f"shot {shot}: {exc}") from exc
        tally[sum(b << c for c, b in enumerate(bits[:outputs]))] += 1
    return {engine.format_key(code, outputs): n for code, n in sorted(tally.items())}


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
