"""Circuit execution: terminal-measurement sampling and the per-shot loop.

Two entry points mirror the two execution styles a vQPU supports:

* ``run_sampled``   - evolve the statevector once through all unitaries and
  sample the terminal measurement distribution; only admissible for circuits
  without mid-circuit effects (see ``is_sampled_admissible``).
* ``run_shot_loop`` - re-run the full instruction list once per shot with a
  fresh state, supporting mid-circuit measurement, reset, local conditionals
  and the classical-communication instructions via channel hooks.

Randomness: PCG64, one independent stream per shot derived from
(job seed, shot index), so distributed runs replay bit-identically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmulatorError, UnsupportedInstruction, WidthExceeded
from .gates import DISTRIBUTED
from .statevector import StateVector, compile_gate, measure_qubit, reset_qubit

DEFAULT_MAX_QUBITS = 26
RNG_ALGORITHM = "pcg64"
_NOT_GATES = ("measure", "reset", *DISTRIBUTED)


@dataclass
class ChannelHooks:
    """Callbacks wiring distributed classical instructions to a channel.

    send(peer_id, shot_epoch, seq, bit) must not block on the receiver;
    recv(peer_id, shot_epoch, seq) blocks until the matching bit arrives.
    """
    send: Callable[[str, int, int, int], None]
    recv: Callable[[str, int, int], int]


def null_hooks() -> ChannelHooks:
    def _no_channel(*_args):
        raise UnsupportedInstruction(
            "distributed instruction executed without channel hooks")
    return ChannelHooks(send=_no_channel, recv=_no_channel)


def shot_rng(seed, shot_index: int) -> np.random.Generator:
    """Independent per-shot stream; reproducible for a fixed (seed, index)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(shot_index,))
    return np.random.Generator(np.random.PCG64(ss))


def job_rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def format_key(code: int, num_clbits: int) -> str:
    """Counts key for a packed classical register; clbit 0 is rightmost."""
    return format(code, f"0{num_clbits}b") if num_clbits else ""


def is_sampled_admissible(circuit) -> bool:
    """True when the circuit can run on the evolve-once-then-sample path:
    no distributed instructions, no reset, no conditionals, and nothing acts
    on a qubit after it was measured."""
    measured: set[int] = set()
    for ins in circuit.instructions:
        if ins.name in DISTRIBUTED or ins.name == "reset":
            return False
        if ins.name == "measure":
            measured.update(ins.qubits)
            continue
        if ins.clbits:  # unitary conditioned on a classical bit
            return False
        if any(q in measured for q in ins.qubits):
            return False
    return True


def _check_width(circuit, max_qubits: int) -> None:
    if circuit.num_qubits > max_qubits:
        raise WidthExceeded(
            f"circuit needs {circuit.num_qubits} qubits, engine cap is {max_qubits}")


def run_sampled(circuit, shots: int, seed=None,
                max_qubits: int = DEFAULT_MAX_QUBITS) -> dict[str, int]:
    """Counts over `shots` samples of the terminal measurement distribution."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    _check_width(circuit, max_qubits)
    if not is_sampled_admissible(circuit):
        raise UnsupportedInstruction(
            "circuit has mid-circuit or distributed effects; use run_shot_loop")

    state = StateVector.zero(circuit.num_qubits)
    clbit_source: dict[int, int] = {}  # clbit -> measured qubit (last write wins)
    for ins in circuit.instructions:
        if ins.name == "measure":
            for q, c in zip(ins.qubits, ins.clbits):
                clbit_source[c] = q
        else:
            compile_gate(state.num_qubits, ins.name, ins.qubits,
                         ins.params)(state.amplitudes)

    probs = np.abs(state.amplitudes)
    np.square(probs, out=probs)
    probs /= probs.sum()
    rng = job_rng(seed)
    outcomes = rng.choice(state.dim, size=shots, p=probs)

    codes = np.zeros(shots, dtype=np.int64)
    for c, q in clbit_source.items():
        codes |= ((outcomes >> q) & 1) << c
    values, tallies = np.unique(codes, return_counts=True)
    nb = circuit.num_clbits
    return {format_key(int(v), nb): int(t) for v, t in zip(values, tallies)}


def _compile(circuit) -> Callable:
    """Resolve every gate once per job; the returned run(rng, hooks,
    shot_index) executes the instruction list once on a fresh state and
    returns the state and the classical bit register."""
    n = circuit.num_qubits
    kernels = []
    for ins in circuit.instructions:
        gate = ins.remote.gate_name if ins.name == "remote_c_if" else ins.name
        kernels.append(None if gate in _NOT_GATES else
                       compile_gate(n, gate, ins.qubits, ins.params))

    def run(rng: np.random.Generator, hooks: ChannelHooks, shot_index: int):
        state = StateVector.zero(n)
        bits = [0] * circuit.num_clbits
        for ins, kernel in zip(circuit.instructions, kernels):
            name = ins.name
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
                    kernel(state.amplitudes)
            elif name in DISTRIBUTED:
                raise UnsupportedInstruction(
                    f"{name} requires the quantum-communication executor")
            elif not ins.clbits or bits[ins.clbits[0]] == 1:
                kernel(state.amplitudes)
        return state, bits
    return run


def run_once(circuit, rng: np.random.Generator, hooks: ChannelHooks | None = None,
             shot_index: int = 0) -> tuple[StateVector, list[int]]:
    """Execute the instruction list once on a fresh state.

    Returns the final state and the classical bit register. Unitary
    instructions carrying a clbit are conditionals triggered on bit == 1.
    """
    return _compile(circuit)(rng, hooks or null_hooks(), shot_index)


def run_shot_loop(circuit, shots: int, seed=None,
                  hooks: ChannelHooks | None = None,
                  max_qubits: int = DEFAULT_MAX_QUBITS) -> dict[str, int]:
    """Counts assembled from `shots` independent executions of the circuit."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    _check_width(circuit, max_qubits)
    if seed is None:
        seed = int(np.random.SeedSequence().entropy) & 0xFFFFFFFF

    run, hooks = _compile(circuit), hooks or null_hooks()
    tally: Counter[int] = Counter()
    for shot in range(shots):
        try:
            _, bits = run(shot_rng(seed, shot), hooks, shot)
        except EmulatorError as exc:
            raise type(exc)(f"shot {shot}: {exc}") from exc
        code = 0
        for c, b in enumerate(bits):
            code |= b << c
        tally[code] += 1
    nb = circuit.num_clbits
    return {format_key(code, nb): n for code, n in sorted(tally.items())}
