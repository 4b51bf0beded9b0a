"""Dense statevector substrate with in-place gate application.

Endianness: little-endian (qubit 0 = bit 0 of the basis-state index = LSB).
All mutating operations preserve the norm to within 1e-12.

Gates act on reshape views of the amplitudes, never through index arrays,
as their kernel class in ``gates.GATES`` says; a run of consecutive
diagonal gates is one pass (README: Simulation engine). A state may leave
out qubits that are in known basis states (`Fold`, README: Folded qubits).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import QubitOutOfRange, ZeroNorm
from .gates import GATES, gate_matrix

_NORM_TOL = 1e-12
#: a one-qubit dense gate on a qubit below BLOCK_QUBITS of a state at least
#: that wide mixes the transpose of BLOCK_ROWS rows of 2^BLOCK_QUBITS
#: contiguous amplitudes at a time (a power of two: the rows split evenly)
BLOCK_QUBITS = 5
BLOCK_ROWS = 1024
#: a run of diagonal gates multiplies the state by one phase table: a row of
#: 2^PHASE_LOW_QUBITS factors over the qubits below that (on a narrower
#: state, a table over the run's qubits only), one row per value of the
#: run's qubits at or above it, of which it spans at most PHASE_HIGH_QUBITS
#: (more if one gate alone does)
PHASE_LOW_QUBITS = 11
PHASE_HIGH_QUBITS = 2


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


def _resolve(num_qubits: int, name: str, qubits, params) -> np.ndarray:
    """The gate's matrix, its qubits checked against a state of `num_qubits`."""
    for q in qubits:
        _check_qubit(num_qubits, q)
    if len(set(qubits)) != len(qubits):
        raise QubitOutOfRange(f"{name} applied to duplicate qubits {tuple(qubits)}")
    return gate_matrix(name, params)


def _kernel(num_qubits: int, name: str, qubits, mat: np.ndarray
            ) -> Callable[[np.ndarray], None]:
    """The in-place kernel of one gate that is not diagonal."""
    shape, index = _slices(num_qubits, qubits)
    kind = GATES[name].kernel
    if kind == "controlled":  # the target's kernel on the control = 1 half
        kind, mat, index = GATES[GATES[name].target].kernel, mat[2:, 2:], index[2:]
    if kind == "permutation":  # the two basis states the matrix exchanges
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


class Fold:
    """Which qubits a state leaves out. A folded qubit is in a known
    computational-basis state and is held as that bit (`bits`), not as an
    axis of the amplitudes; the state's axes are the other, active, qubits
    in their natural order, qubit q being bit `rank(q)` of the index. With
    nothing folded (the default) it is the usual state of `num_qubits`
    qubits."""

    def __init__(self, num_qubits: int, bits: dict[int, int] | None = None):
        self.num_qubits = num_qubits
        self.bits = {} if bits is None else bits

    @property
    def width(self) -> int:
        """The number of active qubits: the state has 2^width amplitudes."""
        return self.num_qubits - len(self.bits)

    def rank(self, qubit: int) -> int:
        return qubit - sum(q < qubit for q in self.bits)

    def activate(self, qubits) -> "Grow":
        """Take the folded `qubits` into the state: returns the step that
        widens a state to match."""
        at = {q: self.bits.pop(q) for q in qubits}
        index = [slice(None)] * self.width  # axis width - 1 - r is rank r
        for q, bit in at.items():
            index[self.width - 1 - self.rank(q)] = bit
        return Grow(self.width, tuple(index))


@dataclass(frozen=True)
class Grow:
    """A growth step: called on a state's amplitudes, returns those of the
    state with `width` active qubits, the old amplitudes where the new
    qubits hold their bits (`index` into the (2,) * width view) and zeros
    elsewhere. The old array and the new one are both live until the caller
    drops the old."""
    width: int
    index: tuple

    def __call__(self, amps: np.ndarray) -> np.ndarray:
        out = np.zeros(1 << self.width, dtype=amps.dtype)
        view = out.reshape((2,) * self.width)[self.index + (...,)]
        view[...] = amps.reshape(view.shape)
        return out


def _axes(width: int, ranks, low: int = 0) -> list[int]:
    """Reshape of a state of `width` qubits that gives each of `ranks`
    (highest first, none below `low`) an axis of 2, between the runs of
    the qubits in between, and ends with the 2^low amplitudes below `low`."""
    shape, edge = [], width
    for r in ranks:
        shape += [1 << (edge - r - 1), 2]
        edge = r
    return shape + [1 << (edge - low), 1 << low]


def _phase_pass(fold: Fold, run: list[tuple[tuple[int, ...], np.ndarray]]
                ) -> tuple[Callable[[np.ndarray], None], tuple[int, ...]]:
    """One kernel for a run of diagonal gates ((qubits, diagonal) each) and
    the qubits it acts on. Their product is a table with one axis per qubit
    of the run, built by broadcasting each gate's 2 or 4 entries onto its
    axes in the run's order; a folded qubit's axis is then fixed at its bit,
    and the active qubits are numbered by rank (`_phase_kernel`)."""
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
    return _phase_kernel(fold.width, ranks, table), tuple(sorted(qubits))


def _phase_kernel(width: int, ranks: list[int], table: np.ndarray
                  ) -> Callable[[np.ndarray], None]:
    """Multiply a state of `width` qubits by `table`, whose axes are the
    qubits `ranks`, highest first (none: a run on folded qubits only, whose
    table is one factor, a global phase). A table of ones does nothing. On
    a state wider than PHASE_LOW_QUBITS, each row of the state's
    (-1, 2^low) view is multiplied by the table's row for that row's values
    of the run's qubits at or above it; a table row of ones is skipped, one
    of a single repeated factor is a scalar. On a narrower state the table
    is broadcast onto the state in one multiply, so a job keeps no row as
    large as its state."""
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
    # the table over the high ranks and every rank below low
    full = np.empty((2,) * (len(high) + low), dtype=complex)
    full[...] = table.reshape([2] * len(high) + [2 if r in ranks else 1
                                                 for r in range(low - 1, -1, -1)])
    shape = _axes(width, high, low)
    index = [sum(((slice(None), bit) for bit in bits), ())
             for bits in itertools.product((0, 1), repeat=len(high))]
    rows = full.reshape(-1, 1 << low)
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


def compile_gates(num_qubits: int, gates, fold: Fold | None = None
                  ) -> list[tuple[Callable, tuple[int, ...]]]:
    """Resolve consecutive unconditional gates ((name, qubits, params) each)
    once for states of `num_qubits`: each maximal run of diagonal gates is
    one phase pass (`_phase_pass`), cut before it would span more than
    PHASE_HIGH_QUBITS qubits at or above PHASE_LOW_QUBITS, and every other
    gate its own kernel. Returns the kernels in order, each with the
    qubits it acts on; a kernel applies its gates in place to the
    amplitude array of such a state. A run rounds as its table's product,
    not as the gates one after another.

    With a `fold`, the state leaves out its folded qubits, and `fold` is
    updated as the gates go: `x` on a folded qubit flips its bit, a run is
    cut where it would be with nothing folded and its table is taken at
    the folded bits, and any other gate on a folded qubit is preceded by a
    `Grow` step that activates it (listed with the qubits it activates).
    Kernels act on the active qubits, numbered by rank."""
    fold = Fold(num_qubits) if fold is None else fold
    low = min(num_qubits, PHASE_LOW_QUBITS)
    kernels, run, high = [], [], set()
    for name, qubits, params in gates:
        mat = _resolve(num_qubits, name, qubits, params)
        diagonal, above = GATES[name].kernel == "diagonal", {q for q in qubits if q >= low}
        if run and not (diagonal and len(high | above) <= PHASE_HIGH_QUBITS):
            kernels.append(_phase_pass(fold, run))
            run, high = [], set()
        folded = [q for q in qubits if q in fold.bits]
        if diagonal:
            run.append((tuple(qubits), np.diag(mat)))
            high |= above
        elif name == "x" and folded:
            fold.bits[qubits[0]] ^= 1
        else:
            if folded:
                kernels.append((fold.activate(folded), tuple(folded)))
            kernels.append((_kernel(fold.width, name, [fold.rank(q) for q in qubits], mat),
                            tuple(qubits)))
    if run:
        kernels.append(_phase_pass(fold, run))
    return kernels


def compile_gate(num_qubits: int, name: str, qubits, params=()
                 ) -> Callable[[np.ndarray], None]:
    """Resolve one gate once for states of `num_qubits`: the returned
    function applies it in place to such a state's amplitude array. A
    diagonal gate is a phase pass of one."""
    return compile_gates(num_qubits, [(name, qubits, params)])[0][0]


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
