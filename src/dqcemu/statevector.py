"""Dense statevector substrate with in-place gate application.

Endianness: little-endian (qubit 0 = bit 0 of the basis-state index = LSB).
All mutating operations preserve the norm to within 1e-12.

Gates act on reshape views of the amplitudes, never through index arrays,
as their kernel class in ``gates.KERNEL_CLASS`` says (README: Simulation
engine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import QubitOutOfRange, ZeroNorm
from .gates import CONTROLLED_TARGET, KERNEL_CLASS, gate_matrix

_NORM_TOL = 1e-12
#: a one-qubit dense gate on a qubit below BLOCK_QUBITS of a state at least
#: that wide mixes the transpose of BLOCK_ROWS rows of 2^BLOCK_QUBITS
#: contiguous amplitudes at a time (a power of two: the rows split evenly)
BLOCK_QUBITS = 5
BLOCK_ROWS = 1024


@dataclass
class GateOp:
    """A resolved engine-level operation: any classical condition has already
    been evaluated by the caller."""
    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()


@dataclass
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if self.amplitudes is None:
            self.amplitudes = np.zeros(1 << self.num_qubits, dtype=np.complex128)
            self.amplitudes[0] = 1.0

    @classmethod
    def zero(cls, num_qubits: int) -> "StateVector":
        return cls(num_qubits)

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


def _check_qubit(num_qubits: int, qubit: int) -> None:
    if not 0 <= qubit < num_qubits:
        raise QubitOutOfRange(
            f"qubit {qubit} out of range for {num_qubits}-qubit state")


def _slices(num_qubits: int, qubits) -> tuple[tuple[int, ...], list[tuple]]:
    """Reshape of the amplitudes that gives each qubit of the gate its own
    axis, and the index of the slice of every local basis state, in
    gate-matrix order (the first qubit is the most significant)."""
    if len(qubits) == 1:
        q = qubits[0]
        return (1 << (num_qubits - q - 1), 2, 1 << q), [np.s_[:, 0], np.s_[:, 1]]
    qa, qb = qubits
    hi, lo = max(qa, qb), min(qa, qb)
    shape = (1 << (num_qubits - hi - 1), 2, 1 << (hi - lo - 1), 2, 1 << lo)
    return shape, [np.s_[:, a, :, b] if qa > qb else np.s_[:, b, :, a]
                   for a in (0, 1) for b in (0, 1)]


def _scale(view: np.ndarray, slots) -> None:
    for index, factor in slots:
        view[index] *= factor


def _swap(view: np.ndarray, i, j) -> None:
    t = view[i].copy()
    view[i] = view[j]
    view[j] = t


def _mix(view: np.ndarray, i, j, mat: np.ndarray) -> None:
    a, b = view[i], view[j]
    t = mat[1, 0] * a
    a *= mat[0, 0]
    a += mat[0, 1] * b
    b *= mat[1, 1]
    b += t


def _butterfly(view: np.ndarray, i, j, s: float) -> None:
    """`h` on a float view: (a, b) -> s (a + b, a - b) in place."""
    a, b = view[i], view[j]
    b -= a
    a *= 2
    a += b
    a *= s
    b *= -s


def _transposed(amps: np.ndarray, kernel: Callable[[np.ndarray], None]) -> None:
    """`kernel` on the transpose of each BLOCK_ROWS rows of the
    (-1, 2^BLOCK_QUBITS) view, copied into one buffer and back: there a low
    qubit's slices run BLOCK_ROWS times longer than in the state."""
    rows = amps.reshape(-1, 1 << BLOCK_QUBITS)
    count = min(BLOCK_ROWS, len(rows))
    buf = np.empty((1 << BLOCK_QUBITS, count), dtype=amps.dtype)
    for start in range(0, len(rows), count):
        part = rows[start:start + count]
        buf[...] = part.T
        kernel(buf)
        part[...] = buf.T


def compile_gate(num_qubits: int, name: str, qubits, params=()
                 ) -> Callable[[np.ndarray], None]:
    """Resolve a gate once for states of `num_qubits`: the returned function
    applies it in place to such a state's amplitude array."""
    for q in qubits:
        _check_qubit(num_qubits, q)
    if len(set(qubits)) != len(qubits):
        raise QubitOutOfRange(f"{name} applied to duplicate qubits {tuple(qubits)}")
    mat = gate_matrix(name, params)
    shape, index = _slices(num_qubits, qubits)
    kind = KERNEL_CLASS[name]
    if kind == "controlled":  # the target's kernel on the control = 1 half
        kind, mat, index = KERNEL_CLASS[CONTROLLED_TARGET[name]], mat[2:, 2:], index[2:]
    if kind == "diagonal":
        fn, args = _scale, ([(i, d) for i, d in zip(index, np.diag(mat)) if d != 1],)
    elif kind == "permutation":  # the two basis states the matrix exchanges
        fn, args = _swap, tuple(index[k] for k in np.flatnonzero(np.diag(mat) == 0))
    elif len(qubits) == 2:  # the dense target of a controlled gate
        fn, args = _mix, (index[0], index[1], mat)
    else:  # dense: `h` is the butterfly on the float view
        fn, args, dtype = ((_butterfly, (index[0], index[1], mat[0, 0].real), np.float64)
                           if name == "h" else (_mix, (index[0], index[1], mat), complex))
        q = qubits[0]
        if q < BLOCK_QUBITS <= num_qubits:  # bit q of the buffer's row index
            split = (1 << (BLOCK_QUBITS - q - 1), 2, -1)
            return lambda amps: _transposed(
                amps, lambda buf: fn(buf.view(dtype).reshape(split), *args))
        split = shape[:-1] + (-1,)
        return lambda amps: fn(amps.view(dtype).reshape(split), *args)
    return lambda amps: fn(amps.reshape(shape), *args)


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Apply a unitary gate in place; conditions must be resolved already."""
    compile_gate(state.num_qubits, op.name, op.qubits, op.params)(state.amplitudes)
    return state


def sample_outcomes(amplitudes: np.ndarray, qubit: int, uniforms: np.ndarray
                    ) -> tuple[np.ndarray, tuple[float, float]]:
    """The outcome rule of every measurement: outcome 1 wherever a uniform
    falls below P(1) of `qubit`. Returns that mask and the weights (w0, w1)
    of the two halves; the state is not changed."""
    # |amplitude|^2 summed per half: dot products of the real and imaginary
    # parts over the float view, taken along its longer axis. einsum, not
    # `@`: numpy hands `@` to threaded BLAS, which took milliseconds where
    # this takes microseconds on a host with other busy processes
    lanes = amplitudes.view(np.float64).reshape(-1, 2, 2 << qubit)
    if lanes.shape[2] < lanes.shape[0]:
        lanes = lanes.transpose(2, 1, 0)
    w0, w1 = np.einsum("...i,...i->...", lanes, lanes).sum(axis=0)
    total = w0 + w1
    if total <= _NORM_TOL:
        raise ZeroNorm(f"state norm collapsed to {total:.3e}")
    return uniforms < w1 / total, (w0, w1)


def collapse(amplitudes: np.ndarray, qubit: int, outcome: int,
             weights: tuple[float, float]) -> None:
    """Project `qubit` onto `outcome` in place; `weights` are the halves'
    weights from `sample_outcomes`. When the other half weighs exactly 0
    the qubit is already in that basis state and nothing is written."""
    weight = weights[outcome]
    if weight <= _NORM_TOL:
        raise ZeroNorm(
            f"measurement of qubit {qubit} collapsed onto a branch of weight {weight:.3e}")
    if weights[1 - outcome] == 0.0:
        return
    view = amplitudes.reshape(-1, 2, 1 << qubit)
    view[:, outcome] /= np.sqrt(weight)
    view[:, 1 - outcome] = 0.0


def move_to_zero(amplitudes: np.ndarray, qubit: int) -> None:
    """After a collapse onto 1, move the kept half into the |0> slot."""
    view = amplitudes.reshape(-1, 2, 1 << qubit)
    view[:, 0] = view[:, 1]
    view[:, 1] = 0.0


def measure_qubit(state: StateVector, qubit: int,
                  rng: np.random.Generator) -> tuple[int, StateVector]:
    """Sample `qubit` in the computational basis, project and renormalize.

    Deterministic for a fixed generator state and input state: one
    rng.random() per call, outcome 1 when it falls below P(1).
    """
    _check_qubit(state.num_qubits, qubit)
    ones, weights = sample_outcomes(state.amplitudes, qubit, rng.random(1))
    outcome = int(ones[0])
    collapse(state.amplitudes, qubit, outcome, weights)
    return outcome, state


def reset_qubit(state: StateVector, qubit: int,
                rng: np.random.Generator) -> StateVector:
    """Measure and, on outcome 1, move the kept half to |0>: leaves `qubit`
    in |0> disentangled."""
    if measure_qubit(state, qubit, rng)[0] == 1:
        move_to_zero(state.amplitudes, qubit)
    return state
