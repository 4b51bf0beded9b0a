"""Circuit execution: one engine, the shot-branching walk.

``run_branched`` (``run_sampled`` and ``run_shot_loop`` are its counts)
walks the instruction list once for a chunk of shots, keeping one state
per distinct measurement history, and resolves the circuit's terminal
measurements from each state it ends with. Until the first instruction
that draws, reads or sends a bit, qubits in known basis states are held as
bits, out of the state (`statevector.Fold`).

Randomness: PCG64, one independent stream per shot derived from (job
seed, shot index), so runs replay bit-identically and every shot gets the
outcomes it would get run alone; a job that draws nothing before its
terminal measurements samples them from one job stream instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmulatorError, UnsupportedInstruction, WidthExceeded, ZeroNorm
from .gates import GATES, LINKS
from .statevector import (
    _NORM_TOL,
    Fold,
    Grow,
    StateVector,
    collapse,
    compile_gate,
    compile_gates,
    move_to_zero,
    sample_outcomes,
)

DEFAULT_MAX_QUBITS = 26
RNG_ALGORITHM = "pcg64"
#: bytes one chunk of shots may hold beyond its first state: at most half
#: for its shots' uniforms, the rest for live states. A chunk starts with as
#: many shots as half the budget holds and is cut when its branches would
#: outgrow the rest, so a job holds at most this much more than one state
BRANCH_BUDGET_BYTES = 2 << 20
#: qubits active from the start, the lowest ones (all of a narrower
#: circuit): numpy multiplies a one-element array without the fused
#: multiply-add of its vector loops, so every gate's slices must hold 2
#: amplitudes or more to round as they do on the full state; and the
#: terminal block sums a folded state's probabilities as one aligned block
#: of 8 or more (`_compile`)
START_WIDTH = 3


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


@dataclass
class _Op:
    kind: str  # gate | grow | cond | measure | reset | send | recv | unsupported
    ins: object  # a run's gates before it is compiled, None for a gate or grow op
    qubits: tuple
    kernel: Callable | None = None
    targets: tuple = ()  # (qubit, clbit) per draw
    live: int | None = None  # live clbit mask after the op where merges are tried


@dataclass
class _Program:
    num_qubits: int
    outputs: int
    walked: list[_Op]  # every instruction in order but the terminal block's measures
    block: list[tuple[int, int]]  # (qubit, clbit) per draw of the terminal block
    draws: int  # uniforms each shot consumes, the block's last
    probe: np.ndarray  # fingerprint weights over the state's float view
    solo: int  # the first channel op walked: from it on each shot walks alone
    solo_draws: int  # uniforms the walked ops before `solo` consume
    end: Fold  # the qubits still folded after the walked ops
    expand: bool  # whether `_sample_block` unfolds them before it samples
    widest: int  # the most qubits a state of the job holds


@dataclass
class _Branch:
    amps: np.ndarray
    bits: int  # packed classical register; clbit c is bit c
    shots: np.ndarray  # rows of the chunk's shots that share this history


def _compile(circuit, outputs: int | None = None, terminal: bool = True) -> _Program:
    """Resolve every gate once per job, count the uniforms each shot draws,
    mark where branches may merge (after every reset and wherever a clbit
    dies) and find the terminal block (none unless `terminal`): the measures
    after which only other block measures draw, no op but a measure touches
    their qubits and none reads their clbits. The first `outputs` clbits
    (all by default) are the result; any other clbit is dead after its last
    conditional read.

    Every qubit but the lowest START_WIDTH starts folded
    (`statevector.Fold`): each run of consecutive
    unconditional gates goes through `compile_gates` with the fold, which
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
            ops.append(_Op("recv", ins, qubits, compile_gate(
                n, ins.remote.gate_name, qubits, ins.params)))
        elif name in LINKS:
            ops.append(_Op("unsupported", ins, qubits))
        else:
            ops.append(_Op("cond", ins, qubits, compile_gate(n, name, qubits, ins.params)))
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
        if (terminal and op.kind == "measure" and not drawn
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
                       for kernel, qubits in compile_gates(n, op.ins, fold))
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
    floats = 2 << n
    probe = np.random.default_rng(0).random(floats // min(64, floats))
    solo = next((i for i, op in enumerate(ops) if op.kind in ("send", "recv")), len(ops))
    return _Program(n, outputs, ops, block, draws, probe, solo,
                    sum(len(op.targets) for op in ops[:solo]), fold, expand, widest)


def _unfold(fold: Fold) -> Grow:
    """The growth step that activates every qubit `fold` leaves out."""
    return Fold(fold.num_qubits, dict(fold.bits)).activate(list(fold.bits))


def _fork(branch: _Branch, take: np.ndarray) -> _Branch:
    """Split off the shots where `take` holds into a branch with a copy of
    the state; `branch` keeps the rest."""
    child = _Branch(branch.amps.copy(), branch.bits, branch.shots[take])
    branch.shots = branch.shots[~take]
    return child


def _split(branches: list[_Branch], qubit: int, uniforms: np.ndarray,
           shot_ids: range, room: int | None):
    """Test every branch's shots against P(1) of `qubit` before any state is
    copied: (branch, outcome-1 mask, its count, weights) per branch, and
    the shots kept. When the parts the branches split into would be more
    than `room` live states, the chunk is cut first: it keeps its shots
    below the first shot of the (room + 1)-th part, so exactly `room` parts
    remain, and branches left without shots are freed."""
    tests = []
    for b in branches:
        try:
            ones, weights = sample_outcomes(b.amps, qubit, uniforms[b.shots])
        except EmulatorError as exc:
            raise _at_shot(exc, b.shots, shot_ids) from exc
        tests.append((b, ones, np.count_nonzero(ones), weights))
    if room is None or room >= sum(1 + (0 < n1 < len(ones)) for _, ones, n1, _ in tests):
        return tests, shot_ids
    firsts = sorted(int(b.shots[side].min()) for b, ones, _, _ in tests
                    for side in (ones, ~ones) if side.any())
    shot_ids = shot_ids[:firsts[room]]
    cut = []
    for b, ones, _, weights in tests:
        keep = b.shots < len(shot_ids)
        if keep.any():
            b.shots, ones = b.shots[keep], ones[keep]
            cut.append((b, ones, np.count_nonzero(ones), weights))
    return cut, shot_ids


def _fingerprint(amps: np.ndarray, probe: np.ndarray) -> bytes:
    """Weighted sums over 64 blocks of the state: equal states give equal
    bytes, distinct ones almost never do."""
    return (amps.view(np.float64).reshape(-1, len(probe)) @ probe + 0.0).tobytes()


def _merge(branches: list[_Branch], probe: np.ndarray) -> list[_Branch]:
    """One branch per distinct (clbits, state): a fingerprint finds the
    candidates and np.array_equal decides."""
    kept: dict[tuple[int, bytes], list[_Branch]] = {}
    out = []
    for b in branches:
        same = kept.setdefault((b.bits, _fingerprint(b.amps, probe)), [])
        for r in same:
            if np.array_equal(r.amps, b.amps):
                r.shots = np.concatenate((r.shots, b.shots))
                break
        else:
            same.append(b)
            out.append(b)
    return out


def _step(op: _Op, branches: list[_Branch], next_row: Callable[[], np.ndarray],
          shot_ids: range, hooks: ChannelHooks, room: int | None
          ) -> tuple[list[_Branch], range]:
    """Run one op on every branch; each of its draws takes `next_row()`,
    every shot's next uniform, and may cut the chunk (`_split`). Returns
    the branches after it and the shots kept."""
    kind = op.kind
    if kind == "gate":
        for b in branches:
            op.kernel(b.amps)
    elif kind == "grow":
        for b in branches:
            b.amps = op.kernel(b.amps)
    elif kind == "cond":
        bit = op.ins.clbits[0]
        for b in branches:
            if b.bits >> bit & 1:
                op.kernel(b.amps)
    elif kind == "recv":
        remote, split = op.ins.remote, []
        for b in branches:
            try:
                got = [hooks.recv(remote.peer_circuit_id, shot_ids[s], remote.sequence)
                       for s in b.shots.tolist()]
            except EmulatorError as exc:
                raise _at_shot(exc, b.shots, shot_ids) from exc
            n1 = got.count(1)
            if n1 == len(got):
                op.kernel(b.amps)
            elif n1:
                split.append(_fork(b, np.array(got) == 1))
                op.kernel(split[-1].amps)
            split.append(b)
        return split, shot_ids
    elif kind == "unsupported":
        raise _at_shot(UnsupportedInstruction(
            f"{op.ins.name} requires the quantum-communication executor"),
            branches[0].shots, shot_ids)
    else:
        for qubit, clbit in op.targets:
            tests, shot_ids = _split(branches, qubit, next_row(), shot_ids, room)
            branches = []
            for b, ones, n1, weights in tests:
                parts = (((0, b), (1, _fork(b, ones))) if 0 < n1 < len(ones)
                         else ((1 if n1 else 0, b),))
                try:
                    for outcome, part in parts:
                        collapse(part.amps, qubit, outcome, weights)
                        if kind == "measure":
                            part.bits = part.bits & ~(1 << clbit) | outcome << clbit
                        elif kind == "reset" and outcome:
                            move_to_zero(part.amps, qubit)
                        elif kind == "send":
                            remote = op.ins.remote
                            for s in part.shots.tolist():
                                hooks.send(remote.peer_circuit_id, shot_ids[s],
                                           remote.sequence, outcome)
                except EmulatorError as exc:
                    raise _at_shot(exc, b.shots, shot_ids) from exc
                branches += [part for _, part in parts]
    return branches, shot_ids


def _at_shot(exc: EmulatorError, shots: np.ndarray, shot_ids: range) -> EmulatorError:
    """`exc` naming the first of the shots (rows of `shot_ids`) it hit."""
    return type(exc)(f"shot {shot_ids[int(shots.min())]}: {exc}")


def _root(prog: _Program, shots: int) -> _Branch:
    """Every shot in one branch, in |0...0> on the START_WIDTH lowest
    qubits, every other qubit folded at 0."""
    amps = np.zeros(1 << min(prog.num_qubits, START_WIDTH), dtype=np.complex128)
    amps[0] = 1.0
    return _Branch(amps, 0, np.arange(shots))


def _walk(prog: _Program, ops: list[_Op], branches: list[_Branch],
          next_row: Callable[[], np.ndarray], shot_ids: range,
          hooks: ChannelHooks, room: int | None = None
          ) -> tuple[list[_Branch], int, range]:
    """Evolve the branches through `ops` together, op by op; each draw
    takes `next_row()`, the next uniform of every shot of `shot_ids`. With
    a `room`, a draw that would leave more live states than that cuts the
    chunk first (`_split`). Returns the branches at the end, the peak
    number of live branches and the shots kept."""
    peak = len(branches)
    for op in ops:
        branches, shot_ids = _step(op, branches, next_row, shot_ids, hooks, room)
        peak = max(peak, len(branches))
        if op.live is not None and len(branches) > 1:
            for b in branches:
                b.bits &= op.live
            branches = _merge(branches, prog.probe)
    return branches, peak, shot_ids


def run_once(circuit, rng: np.random.Generator, hooks: ChannelHooks | None = None,
             shot_index: int = 0) -> tuple[StateVector, list[int]]:
    """Execute the instruction list once on a fresh state, drawing from `rng`.

    Returns the final state and the classical bit register. Unitary
    instructions carrying a clbit are conditionals triggered on bit == 1.
    """
    prog = _compile(circuit, terminal=False)
    (b,), _, _ = _walk(prog, prog.walked, [_root(prog, 1)],
                       iter(rng.random((prog.draws, 1))).__next__,
                       range(shot_index, shot_index + 1), hooks or null_hooks())
    return (StateVector(circuit.num_qubits, _unfold(prog.end)(b.amps) if prog.end.bits
                        else b.amps),
            [b.bits >> c & 1 for c in range(circuit.num_clbits)])


def _sample_block(prog: _Program, branch: _Branch, seed) -> Callable[[int], np.ndarray]:
    """The terminal block's outcome of each qubit for a branch of every shot
    of a job: one draw per shot over the full distribution from job_rng(seed).
    Where qubits are still folded, the draw is over the active qubits'
    distribution and a folded qubit reads its bit, unless the state is
    unfolded first (`prog.expand`). The branch's state is dropped once its
    weights are taken, its last use, so it is freed before `choice` builds
    its cumulative table."""
    probs, branch.amps = branch.amps, None
    if prog.expand:
        probs = _unfold(prog.end)(probs)
    probs = np.abs(probs)
    np.square(probs, out=probs)
    probs /= probs.sum()
    outcomes = job_rng(seed).choice(len(probs), size=len(branch.shots), p=probs)
    if not prog.expand:  # the active qubits are the lowest: set the folded bits
        outcomes += sum(bit << q for q, bit in prog.end.bits.items())
    return lambda q: (outcomes >> q) & 1


def _descend_block(prog: _Program, branch: _Branch, uniforms: np.ndarray,
                   shot_ids: range) -> Callable[[int], np.ndarray]:
    """The terminal block's outcome of each qubit for the branch's shots,
    its state neither copied nor collapsed: each shot descends the marginal
    table of the block's qubits in draw order with its own uniforms (one
    row per draw), taking 1 where u < P(1) given the outcomes above, the
    rule of sample_outcomes. A qubit measured again keeps its outcome."""
    n, qubits = prog.num_qubits, list(dict.fromkeys(q for q, _ in prog.block))
    floats = branch.amps.view(np.float64).reshape([2] * n + [2])
    axes = list(range(n + 1))  # axis n - 1 - q is qubit q
    table = np.einsum(floats, axes, floats, axes, [n - 1 - q for q in qubits]).ravel()
    node, outcome = 0, {}  # each shot's node: the outcomes so far, the first highest
    for (q, _), u in zip(prog.block, uniforms):
        if q not in outcome:  # weigh both outcomes below each shot's node
            w0, w1 = table.reshape(1 << len(outcome), 2, -1).sum(axis=2)[node].T
            total = w0 + w1
            ones = u < w1 / total
            if (np.minimum(w0, w1) <= _NORM_TOL * total).any():  # then check each shot
                low = np.where(ones, w1, w0) <= _NORM_TOL * total
                if low.any():
                    raise _at_shot(ZeroNorm(f"qubit {q} collapsed onto a weight <= 1e-12"),
                                   branch.shots[low], shot_ids)
            outcome[q] = ones.astype(np.int64)
            node = 2 * node + outcome[q]
    return outcome.__getitem__


def run_branched(circuit, shots: int, seed=None,
                 hooks: ChannelHooks | None = None,
                 max_qubits: int = DEFAULT_MAX_QUBITS,
                 outputs: int | None = None) -> tuple[dict[str, int], dict]:
    """Counts over the first `outputs` clbits (all by default) of `shots`
    shots, and the walk's counters: the peak number of live branches, the
    number of chunks and the most qubits a state held (`state_qubits`).

    Shot s draws its uniforms from shot_rng(seed, s) in instruction order,
    so the counts are those of running every shot alone. Shots are walked
    in chunks that hold at most BRANCH_BUDGET_BYTES beyond their first
    state: a chunk starts with at most as many shots as half the budget
    holds uniforms for, and a draw that would leave more live states than
    the rest holds cuts it, the dropped shots starting the next chunk. A
    chunk walks together up to the first instruction that talks to a
    classical channel, and is cut only before it; from there each shot
    walks alone, in shot order, as the channel's bits go out and are
    awaited in that order. Each end branch resolves the terminal block
    (`_descend_block`); a job that draws nothing before it is one branch,
    sampled at once (`_sample_block`), unless it is channel-linked.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if circuit.num_qubits > max_qubits:
        raise WidthExceeded(
            f"circuit needs {circuit.num_qubits} qubits, engine cap is {max_qubits}")
    if seed is None:
        seed = int(np.random.SeedSequence().entropy) & 0xFFFFFFFF

    prog, hooks = _compile(circuit, outputs), hooks or null_hooks()
    linked = prog.solo < len(prog.walked)
    mask = (1 << prog.outputs) - 1
    writer = {c: q for q, c in prog.block}  # each block clbit's last-measured qubit
    tally: Counter[int] = Counter()

    def count(ends: list[_Branch], rows: np.ndarray | None, ids: range) -> None:
        """Count the end branches' shots past the terminal block; `rows`
        holds the chunk's uniforms, None where nothing is drawn."""
        for b in ends:
            if not prog.block:
                tally[b.bits & mask] += len(b.shots)
                continue
            outcome = (_sample_block(prog, b, seed) if rows is None else _descend_block(
                prog, b, rows[b.shots, prog.draws - len(prog.block):].T, ids))
            codes = b.bits & ~sum(1 << c for c in writer)
            for c, q in writer.items():
                codes = codes | outcome(q) << c
            tally.update(map(int, codes & mask))

    if not linked and prog.draws == len(prog.block):  # one branch of every shot
        ends, peak, _ = _walk(prog, prog.walked, [_root(prog, shots)], None,
                              range(shots), hooks)
        count(ends, None, range(shots))
        return ({format_key(c, prog.outputs): n for c, n in sorted(tally.items())},
                {"peak_branches": peak, "chunks": 1, "state_qubits": prog.widest})

    # a chunk's shots, their uniforms and row indices, take at most half the
    # budget and live states beyond the first the rest; a chunk that cannot
    # hold a second state holds one shot
    shot_bytes = 8 * (prog.draws + 1)
    per = min(shots, max(1, BRANCH_BUDGET_BYTES // 2 // shot_bytes))
    states = 1 + (BRANCH_BUDGET_BYTES - per * shot_bytes) // (16 << prog.num_qubits)
    if states < 2:
        per = 1
    room = max(1, states - linked)  # a linked shot walking alone copies its state

    def alone(branch: _Branch, rows: np.ndarray, ids: range) -> None:
        """Walk one shot from the first channel instruction on and count it."""
        ends, _, _ = _walk(prog, prog.walked[prog.solo:], [branch],
                           iter(rows.T[prog.solo_draws:]).__next__, ids, hooks)
        count(ends, rows, ids)

    def walk(rows: np.ndarray, ids: range) -> tuple[int, range]:
        """Count the shots of one chunk that it keeps; its states are freed
        on return. Returns the peak of live branches and the shots kept."""
        shared, peak, ids = _walk(prog, prog.walked[:prog.solo], [_root(prog, len(ids))],
                                  iter(rows.T).__next__, ids, hooks, room)
        if not linked:
            count(shared, rows, ids)
            return peak, ids
        owner = {s: b for b in shared for s in b.shots.tolist()}
        last = {int(b.shots.max()) for b in shared}  # takes the branch's state
        for s in range(len(ids)):
            b = owner[s]
            alone(_Branch(b.amps if s in last else b.amps.copy(), b.bits, np.array([s])),
                  rows, ids)
        return max(peak, len(shared) + (1 if len(shared) < len(ids) else 0)), ids

    # rows[j] holds the uniforms of shot start + j for the first `drawn`
    # rows; the rows of shots a cut dropped move to the front, not drawn again
    rows = np.empty((per, prog.draws))
    start = drawn = peak = chunks = 0
    size = per
    while start < shots:
        ids = range(start, min(start + size, shots))
        for j in range(drawn, len(ids)):
            shot_rng(seed, ids[j]).random(out=rows[j])
        drawn = max(drawn, len(ids))
        chunk_peak, kept = walk(rows, ids)
        drawn -= len(kept)
        rows[:drawn] = rows[len(kept):len(kept) + drawn]
        # a cut shows how many shots fit: the next chunk starts with as many,
        # and doubles while no cut comes
        size = len(kept) if len(kept) < len(ids) else min(per, 2 * size)
        start, peak, chunks = kept.stop, max(peak, chunk_peak), chunks + 1
    return ({format_key(c, prog.outputs): n for c, n in sorted(tally.items())},
            {"peak_branches": peak, "chunks": chunks, "state_qubits": prog.widest})


def run_sampled(circuit, shots: int, seed=None,
                max_qubits: int = DEFAULT_MAX_QUBITS) -> dict[str, int]:
    """Counts over every clbit of `shots` shots, as `run_branched` gives them."""
    return run_branched(circuit, shots, seed, max_qubits=max_qubits)[0]


def run_shot_loop(circuit, shots: int, seed=None,
                  hooks: ChannelHooks | None = None,
                  max_qubits: int = DEFAULT_MAX_QUBITS) -> dict[str, int]:
    """Counts over every clbit of `shots` shots, as `run_branched` gives them."""
    return run_branched(circuit, shots, seed, hooks, max_qubits)[0]
