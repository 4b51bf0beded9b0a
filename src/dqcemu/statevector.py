"""Dense statevector substrate with in-place gate application.

Endianness: little-endian (qubit 0 = bit 0 of the basis-state index = LSB).
All mutating operations preserve the norm to within 1e-12.

Gates act on reshape views of the amplitudes, never through index arrays,
as their kernel class in ``gates.GATES`` says; a run of consecutive
diagonal gates is one pass, and a run of gates on the low qubits that
holds a dense gate, or two gates that are not diagonal, one sweep over
transposed buffers (README: Simulation engine). A state may leave out
qubits that are in known basis states (`Fold`, README: Folded qubits).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .errors import QubitOutOfRange, ZeroNorm
from .gates import GATES, gate_matrix

_NORM_TOL = 1e-12
#: a run of diagonal gates multiplies the state by one phase table: a row of
#: 2^PHASE_LOW_QUBITS factors over the qubits below that (on a narrower
#: state, a table over the run's qubits only), one row per value of the
#: run's qubits at or above it, of which it spans at most PHASE_HIGH_QUBITS
#: (more if one gate alone does)
PHASE_LOW_QUBITS = 11
PHASE_HIGH_QUBITS = 2
#: consecutive gates and runs on the qubits below min(SWEEP_QUBITS, half
#: the state's width) take one pass over transposed buffers, each the
#: transpose of at most 2^SWEEP_QUBITS rows of the state (`compile_gates`)
SWEEP_QUBITS = 8
#: the most amplitudes a kernel's temporary holds: a swap, a mix, a move to
#: |0> and the terminal sampler work through pieces of at most this many
#: (a power of two: every piece of a slice is the same size)
SLAB = 1 << 14


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


def _pieces(shape: tuple) -> tuple[tuple, list[tuple]]:
    """Cut an array of `shape` (powers of two) into boxes of at most SLAB
    elements: the shape of a box and the index of each, in memory order."""
    inner, k = 1, len(shape)
    while k and inner * shape[k - 1] <= SLAB:
        k -= 1
        inner *= shape[k]
    if not k:
        return shape, [()]
    step = SLAB // inner
    return ((1,) * (k - 1) + (step,) + shape[k:],
            [tuple(slice(o, o + 1) for o in outer) + (slice(s, s + step),)
             for outer in itertools.product(*map(range, shape[:k - 1]))
             for s in range(0, shape[k - 1], step)])


def _swap(view: np.ndarray, i, j) -> None:
    """Exchange two slices a piece at a time, each side through its own
    buffer: numpy copies through a temporary as large as the source
    whenever a copy's source and destination extents overlap, and the
    pieces of two interleaved slices do."""
    a, b = view[i], view[j]
    shape, pieces = _pieces(a.shape)
    ta, tb = np.empty(shape, a.dtype), np.empty(shape, a.dtype)
    for p in pieces:
        ta[...] = a[p]
        tb[...] = b[p]
        a[p] = tb
        b[p] = ta


def _mix(view: np.ndarray, i, j, mat: np.ndarray) -> None:
    """(a, b) -> (m00 a + m01 b, m10 a + m11 b) a piece at a time, the
    products `m10 * a` and `m01 * b` in two piece-sized buffers."""
    a, b = view[i], view[j]
    shape, pieces = _pieces(a.shape)
    t, u = np.empty(shape, a.dtype), np.empty(shape, a.dtype)
    for p in pieces:
        x, y = a[p], b[p]
        np.multiply(mat[1, 0], x, out=t)
        x *= mat[0, 0]
        np.multiply(mat[0, 1], y, out=u)
        x += u
        y *= mat[1, 1]
        y += t


def _butterfly(view: np.ndarray, i, j, s: float) -> None:
    """`h` on a float view: (a, b) -> s (a + b, a - b) in place."""
    a, b = view[i], view[j]
    b -= a
    a *= 2
    a += b
    a *= s
    b *= -s


def _transposed(amps: np.ndarray, kernels: list[Callable[[np.ndarray], None]],
                low: int, rows: int) -> None:
    """`kernels` in turn on the transpose of each `rows` rows of the
    (-1, 2^low) view, copied into one buffer and back: there a qubit below
    `low` indexes the buffer's rows, and its slices run `rows` times longer
    than in the state."""
    view = amps.reshape(-1, 1 << low)
    count = min(rows, len(view))
    buf = np.empty((1 << low, count), dtype=amps.dtype)
    for start in range(0, len(view), count):
        part = view[start:start + count]
        buf[...] = part.T
        for kernel in kernels:
            kernel(buf)
        part[...] = buf.T


def _resolve(num_qubits: int, name: str, qubits, params):
    """What the gate's row holds for `params`: its matrix, or a diagonal
    gate's diagonal; its qubits checked against a state of `num_qubits`."""
    gate = GATES.get(name)
    if gate is None or len(params) != gate.params:
        gate_matrix(name, params)  # raises UnknownGate or ArityMismatch
    for q in qubits:
        _check_qubit(num_qubits, q)
    if len(set(qubits)) != len(qubits):
        raise QubitOutOfRange(f"{name} applied to duplicate qubits {tuple(qubits)}")
    return gate.matrix(*params) if gate.params else gate.matrix


def _body(num_qubits: int, name: str, qubits, mat: np.ndarray
          ) -> Callable[[np.ndarray], None]:
    """The in-place kernel of one gate that is not diagonal on an array of
    2^num_qubits equal rows, row i standing for basis state i (a state's
    amplitudes are rows of one; a transposed buffer's are longer)."""
    shape, index = _slices(num_qubits, qubits)
    split, dtype, kind = shape[:-1] + (-1,), complex, GATES[name].kernel
    if kind == "controlled":  # the target's kernel on the control = 1 half
        kind, mat, index = GATES[GATES[name].target].kernel, mat[2:, 2:], index[2:]
    if kind == "permutation":  # the two basis states the matrix exchanges
        fn, args = _swap, tuple(index[k] for k in range(len(mat)) if mat[k, k] == 0)
    elif name == "h":  # the butterfly on the float view
        fn, args, dtype = _butterfly, (index[0], index[1], mat[0, 0].real), np.float64
    else:  # dense, or the dense target of a controlled gate
        fn, args = _mix, (index[0], index[1], mat)
    return lambda amps: fn(amps.view(dtype).reshape(split), *args)


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
        return qubit - sum(q < qubit for q in self.bits) if self.bits else qubit

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
    """A growth step: called on a state's amplitudes, the head of the array
    they view (`amps.base`), which has room for 2^width, it spreads them in
    place into the state with `width` active qubits, the old amplitudes
    where the new qubits hold their bits (`index` into the (2,) * width
    view) and zeros elsewhere, and returns that state, the array's head.

    The new qubits' bits never move an amplitude down, and the lowest new
    qubit moves every row of the amplitudes below it to at least twice its
    row index. So the rows move in halving pieces from the top, the piece
    of rows R/2^(t+1) ... R/2^t - 1 to rows from R/2^t up, each piece's
    source and destination disjoint (numpy would copy through a temporary
    if they overlapped); row 0 moves only when a new bit is 1. Then every
    amplitude where a new qubit does not hold its bit is zeroed."""
    width: int
    index: tuple

    def __call__(self, amps: np.ndarray) -> np.ndarray:
        buf = amps.base
        if (buf is None or buf.ndim != 1 or len(buf) < 1 << self.width
                or buf.ctypes.data != amps.ctypes.data):
            raise ValueError("a growth step needs the head of an array with room "
                             f"for {1 << self.width} amplitudes")
        out = buf[:1 << self.width]
        view = out.reshape((2,) * self.width)
        new = [a for a, i in enumerate(self.index) if i != slice(None)]
        rows = new[-1] + 1 - len(new)  # the old axes above the lowest new one
        src, dst = amps.reshape((2,) * (self.width - len(new))), view[self.index]
        for t in range(rows):
            dst[(0,) * t + (1,)] = src[(0,) * t + (1,)]
        if any(self.index[a] for a in new):
            dst[(0,) * rows] = src[(0,) * rows]
        held = list(self.index)
        for a in new:  # the amplitudes where qubit a is off its bit, and the
            held[a] = 1 - self.index[a]  # qubits before it on theirs
            view[tuple(held[:a + 1])] = 0
            held[a] = self.index[a]
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


def _phase_pass(fold: Fold, run: list[tuple[tuple[int, ...], tuple]]) -> tuple:
    """The step (`compile_gates`) of a run of diagonal gates ((qubits,
    diagonal) each): its qubits, the ranks of its active ones (highest
    first) and its table, with one axis per rank, whose entries are the
    products of the gates' entries in the run's order. The table is built
    flat, each active qubit a bit of the index in the order the gates
    first name it (a gate's last qubit first), the latest highest. So the
    entries filled so far, where the qubits not named yet are 0, are its
    first block: the first gate's entries fill it, a later gate that names
    a qubit copies it to the next block, and each entry of a gate other
    than 1 multiplies the slice of it where the gate's qubits hold its
    bits (none where a folded qubit holds the other bit)."""
    qubits = sorted({q for gate_qubits, _ in run for q in gate_qubits}, reverse=True)
    active = [q for q in qubits if q not in fold.bits]
    step = (tuple(reversed(qubits)), [fold.rank(q) for q in active], None)
    first, diag = run[0]
    entries = np.array(diag, dtype=complex).reshape((2,) * len(first))[
        tuple(fold.bits.get(q, slice(None)) for q in first)]
    if len(run) == 1:  # the table's axes go highest first
        return step + (entries.T if entries.ndim == 2 and first[0] < first[1] else entries,)
    named = [q for q in reversed(first) if q in active]  # bit k of the index: named[k]
    # until three qubits are named, a lowest bit that is then dropped: every
    # multiply spans two entries or more, which numpy rounds with the fused
    # multiply-add of its vector loops, as it did the whole tables it
    # multiplied before
    pad = 1
    flat = np.empty(max(1 << len(active), 16), dtype=complex)
    flat.reshape(-1, 2)[:1 << len(named), :] = entries.reshape(-1, 1)
    for gate_qubits, diag in run[1:]:
        for q in reversed(gate_qubits):
            if q in active and q not in named:
                size = 1 << (pad + len(named))
                flat[size:2 * size] = flat[:size]
                named.append(q)
                if pad and len(named) == 3:
                    flat[:8] = flat[:16:2]
                    pad = 0
        for k, factor in enumerate(diag):
            if factor == 1:
                continue
            bits = {}
            for j, q in enumerate(gate_qubits):
                bit = k >> (len(gate_qubits) - 1 - j) & 1
                if q in fold.bits:
                    if fold.bits[q] != bit:
                        break
                else:
                    bits[pad + named.index(q)] = bit
            else:
                at = sorted(bits, reverse=True)
                view = flat[:1 << (pad + len(named))].reshape(_axes(pad + len(named), at))
                view[sum(((slice(None), bits[b]) for b in at), ())] *= factor
    table = flat[:1 << (pad + len(named)):1 + pad].reshape((2,) * len(named))
    return step + (table.transpose([len(named) - 1 - named.index(q) for q in active]),)


def _spread(table: np.ndarray, ranks: list[int], low: int) -> np.ndarray:
    """`table`, whose axes are `ranks` (highest first), with one axis per
    rank at or above `low` and then one per rank below it, all of them."""
    high = [r for r in ranks if r >= low]
    full = np.empty((2,) * (len(high) + low), dtype=complex)
    full[...] = table.reshape([2] * len(high) + [2 if r in ranks else 1
                                                 for r in range(low - 1, -1, -1)])
    return full


def _phase_kernel(width: int, ranks: list[int], table: np.ndarray
                  ) -> Callable[[np.ndarray], None]:
    """Multiply a state of `width` qubits by `table`, whose axes are the
    qubits `ranks`, highest first (none: a run on folded qubits only, whose
    table is one factor, a global phase). A table of ones does nothing. On
    a state wider than PHASE_LOW_QUBITS, each row of the state's
    (-1, 2^low) view is multiplied by the table's row for that row's values
    of the run's qubits at or above it; a table row of ones is skipped, one
    of a single repeated factor is a scalar, and any other is spread over
    2^low factors in an array of its own. On a narrower state the table
    is broadcast onto the state in one multiply, so a job keeps no row as
    large as its state."""
    if width <= PHASE_LOW_QUBITS:
        if (table == 1).all():
            return lambda amps: None
        shape = _axes(width, ranks)
        factors = table.reshape([1, 2] * len(ranks) + [1, 1])

        def narrow(amps: np.ndarray) -> None:
            view = amps.reshape(shape)
            view *= factors
        return narrow
    low = PHASE_LOW_QUBITS
    high = [r for r in ranks if r >= low]
    shape = _axes(width, high, low)
    rows, passes = table.reshape(1 << len(high), -1), []
    # numpy multiplies by a scalar about twice as fast as by a row
    for bits, row, first in zip(itertools.product((0, 1), repeat=len(high)), rows,
                                rows[:, 0].tolist()):
        at = sum(((slice(None), bit) for bit in bits), ())
        if len(row) > 1 and (row[-1] != first or not (row == first).all()):
            passes.append((at, _spread(row.reshape([2] * (len(ranks) - len(high))),
                                       ranks[len(high):], low).reshape(-1)))
        elif first != 1:
            passes.append((at, first))

    def kernel(amps: np.ndarray) -> None:
        view = amps.reshape(shape)
        for at, row in passes:
            view[at] *= row
    return kernel


def _sweep_body(step: tuple, low: int) -> Callable[[np.ndarray], None]:
    """A step's kernel on a sweep's buffer of 2^low rows: a gate's `_body`,
    or for a run each row multiplied by its table entry, as `_phase_kernel`
    multiplies each amplitude of a wide state (and, as there, a table of
    ones does nothing)."""
    _, ranks, name, mat = step[:4]
    if name is not None:
        return _body(low, name, ranks, mat)
    column = _spread(mat, ranks, low).reshape(-1, 1)
    if (column == 1).all():
        return lambda buf: None

    def body(buf: np.ndarray) -> None:
        buf *= column
    return body


def compile_gates(num_qubits: int, gates, fold: Fold | None = None,
                  shared: dict | None = None) -> list[tuple[Callable, tuple[int, ...]]]:
    """Resolve consecutive unconditional gates ((name, qubits, params) each)
    once for states of `num_qubits`: each maximal run of diagonal gates is
    one phase pass (`_phase_pass`), cut before it would span more than
    PHASE_HIGH_QUBITS qubits at or above PHASE_LOW_QUBITS, and every other
    gate its own kernel (`_body`). Returns the kernels in order, each with
    the qubits it acts on; a kernel applies its gates in place to the
    amplitude array of such a state. A run rounds as its table's product,
    not as the gates one after another.

    Each maximal sequence of these steps on the qubits below
    low = min(SWEEP_QUBITS, width // 2) of a state of `width` active
    qubits that holds a dense gate, or two gates that are not diagonal,
    is one kernel: it applies the steps in order to the transpose of at
    most 2^SWEEP_QUBITS rows of the state's (-1, 2^low) view at a time
    (`_transposed`), where a qubit below `low` has longer slices than in
    the state and every amplitude takes the operations the steps' own
    kernels would give it. A one-qubit state (low 0) takes no sweep.

    With a `fold`, the state leaves out its folded qubits, and `fold` is
    updated as the gates go: `x` on a folded qubit flips its bit, a run is
    cut where it would be with nothing folded and its table is taken at
    the folded bits, and any other gate on a folded qubit is preceded by a
    `Grow` step that activates it (listed with the qubits it activates).
    Kernels act on the active qubits, numbered by rank.

    Equal steps (a gate with its qubits and params, or a run with its
    gates, on equal folds) share one kernel in calls given one `shared`."""
    fold = Fold(num_qubits) if fold is None else fold
    shared = {} if shared is None else shared
    low = min(num_qubits, PHASE_LOW_QUBITS)
    # steps are (qubits, ranks, gate name or None for a run, matrix or table, key)
    kernels, run, high, sweep = [], [], set(), []

    def add(step: tuple) -> None:
        if max(step[1], default=-1) < min(SWEEP_QUBITS, fold.width // 2):
            sweep.append(step)
        else:
            if sweep:
                flush()
            kernels.append(compiled(step))

    def compiled(step: tuple) -> tuple[Callable, tuple[int, ...]]:
        qubits, ranks, name, mat, key = step
        if key not in shared:
            shared[key] = (_phase_kernel(fold.width, ranks, mat) if name is None
                           else _body(fold.width, name, ranks, mat))
        return shared[key], qubits

    def flush() -> None:
        names = [step[2] for step in sweep if step[2] is not None]
        if len(names) > 1 or names and GATES[names[0]].kernel == "dense":
            swept = min(SWEEP_QUBITS, fold.width // 2)
            bodies = [_sweep_body(step, swept) for step in sweep]
            kernels.append((partial(_transposed, kernels=bodies, low=swept,
                                    rows=1 << SWEEP_QUBITS),
                            tuple(sorted({q for step in sweep for q in step[0]}))))
        else:
            kernels.extend(map(compiled, sweep))
        sweep.clear()

    def close_run() -> None:
        add(_phase_pass(fold, run) + ((fold.width, tuple(fold.bits.items()), tuple(run)),))
        run.clear()
        high.clear()

    for name, qubits, params in gates:
        mat, qubits = _resolve(num_qubits, name, qubits, params), tuple(qubits)
        diagonal = GATES[name].kernel == "diagonal"
        above = {q for q in qubits if q >= low} if diagonal else ()
        if run and not (diagonal and len(high | above) <= PHASE_HIGH_QUBITS):
            close_run()
        folded = [q for q in qubits if q in fold.bits]
        if diagonal:
            run.append((qubits, mat))
            high |= above
        elif name == "x" and folded:
            fold.bits[qubits[0]] ^= 1
        else:
            if folded:
                flush()
                kernels.append((fold.activate(folded), tuple(folded)))
            ranks = [fold.rank(q) for q in qubits]
            add((qubits, ranks, name, mat, (fold.width, name, tuple(ranks), tuple(params))))
    if run:
        close_run()
    flush()
    return kernels


def compile_gate(num_qubits: int, name: str, qubits, params=(),
                 shared: dict | None = None) -> Callable[[np.ndarray], None]:
    """Resolve one gate once for states of `num_qubits`: the returned
    function applies it in place to such a state's amplitude array. A
    diagonal gate is a phase pass of one."""
    return compile_gates(num_qubits, [(name, qubits, params)], shared=shared)[0][0]


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
    if not total > _NORM_TOL:  # NaN too
        raise ZeroNorm(f"state norm collapsed to {total:.3e}")
    return uniforms < w1 / total, (w0, w1)


def collapse(amplitudes: np.ndarray, qubit: int, outcome: int,
             weights: tuple[float, float]) -> None:
    """Project `qubit` onto `outcome` in place; `weights` are the halves'
    weights from `sample_outcomes`. When the other half weighs exactly 0
    the qubit is already in that basis state and nothing is written."""
    weight = weights[outcome]
    if not weight > _NORM_TOL:  # NaN too
        raise ZeroNorm(
            f"measurement of qubit {qubit} collapsed onto a branch of weight {weight:.3e}")
    if weights[1 - outcome] == 0.0:
        return
    view = amplitudes.reshape(-1, 2, 1 << qubit)
    view[:, outcome] /= np.sqrt(weight)
    view[:, 1 - outcome] = 0.0


def move_to_zero(amplitudes: np.ndarray, qubit: int) -> None:
    """After a collapse onto 1, move the kept half into the |0> slot, a
    piece at a time through one buffer (the halves interleave)."""
    view = amplitudes.reshape(-1, 2, 1 << qubit)
    zero, one = view[:, 0], view[:, 1]
    shape, pieces = _pieces(zero.shape)
    t = np.empty(shape, amplitudes.dtype)
    for p in pieces:
        t[...] = one[p]
        zero[p] = t
        one[p] = 0.0


def sample_basis(amplitudes: np.ndarray, rng: np.random.Generator, shots: int
                 ) -> Iterator[np.ndarray]:
    """`shots` basis states drawn with probabilities |a|^2 / sum |a|^2, the
    draws `rng.choice(len(amplitudes), shots, p=...)` makes, in pieces of
    SLAB shots: the table of cumulative probabilities, divided by its last
    entry, searched (side="right") for `rng.random(shots)`, drawn a piece at
    a time (doubles drawn in pieces are those of one draw). The table is
    built by the call, before any piece is drawn, in the amplitudes' own
    array, which holds garbage after: |a|^2 of each piece of SLAB
    amplitudes goes to floats that only amplitudes already read used, and
    each piece's cumulative sum starts from the last one's total added to
    its first entry, the order of one `cumsum`."""
    n = len(amplitudes)
    probs = amplitudes.view(np.float64)[:n]
    buf = np.empty(min(n, SLAB))
    for start in range(0, n, SLAB):
        part = buf[:min(SLAB, n - start)]
        np.abs(amplitudes[start:start + SLAB], out=part)
        np.square(part, out=part)
        probs[start:start + SLAB] = part
    total = probs.sum()
    if not total > _NORM_TOL:  # NaN too
        raise ZeroNorm(f"state norm collapsed to {total:.3e}")
    probs /= total
    carry = 0.0
    for start in range(0, n, SLAB):
        part = probs[start:start + SLAB]
        part[0] += carry
        np.cumsum(part, out=buf[:len(part)])
        part[...] = buf[:len(part)]
        carry = part[-1]
    probs /= probs[-1]
    return (probs.searchsorted(rng.random(min(SLAB, shots - start)), side="right")
            for start in range(0, shots, SLAB))


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
