"""Circuit execution: one engine, the shot-branching walk.

``run_branched`` (``run_sampled`` and ``run_shot_loop`` are its counts)
walks the instruction list once for a chunk of shots, keeping one state
per distinct measurement history, and resolves the circuit's terminal
measurements from each state it ends with. Until the first instruction
that draws, reads or sends a bit, qubits in known basis states are held as
bits, out of the state (`statevector.Fold`).

Randomness: one PCG64 stream per job, `job_rng(seed)`. Shot s of a walked
job takes uniforms s*d ... s*d + d - 1, d being what a shot draws, so runs
replay bit-identically whatever the chunking, and `shot_rng` positions the
stream for one shot run by itself; a job that draws nothing before its
terminal measurements samples them from the stream instead.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .errors import EmulatorError, UnsupportedInstruction, WidthExceeded, ZeroNorm
from .gates import GATES, LINKS
from .statevector import (
    _NORM_TOL,
    Fold,
    Grow,
    collapse,
    compile_gate,
    compile_gates,
    move_to_zero,
    sample_basis,
    sample_outcomes,
)

MAX_QUBITS = 26  # the widest circuit the engine runs
MAX_CLBITS = 63  # a shot's clbits are packed into one int64 outcome code
NAME = "statevector"  # the engine a result's metadata names
RNG_ALGORITHM = "pcg64"
#: bytes one chunk of shots may hold beyond its first state: at most half
#: for its shots' uniforms, the rest for live states. A chunk starts with as
#: many shots as half the budget holds and is cut when its branches would
#: outgrow the rest, and every step works inside the arrays of its states
#: (a growth step too), with at most two pieces of `statevector.SLAB`
#: amplitudes or a sweep's buffer beside them, so a job holds at most this
#: much more than one state, and those buffers
BRANCH_BUDGET_BYTES = 2 << 20
#: qubits active from the start, the lowest ones (all of a narrower
#: circuit): numpy multiplies a one-element array without the fused
#: multiply-add of its vector loops, so every gate's slices must hold 2
#: amplitudes or more to round as they do on the full state; and the
#: terminal block sums a folded state's probabilities as one aligned block
#: of 8 or more (`_compile`)
START_WIDTH = 3
#: elements of numpy's ufunc buffer while a job walks, against numpy's
#: default 8192: an in-place op on a view whose contiguous runs are shorter
#: than the buffer took about twice as long, and the walk's dense gates on
#: qubits 0-11 and its phase passes' rows of 2^11 amplitudes are such
#: views. No arithmetic changes, so neither does any result. numpy 1.24
#: takes multiples of 16 only
UFUNC_BUFSIZE = 256


@contextmanager
def _ufunc_buffer():
    """numpy's ufunc buffer at UFUNC_BUFSIZE elements, the caller's size
    restored after: the setting is the calling thread's (numpy 1.x) or
    context's (numpy 2), so the thread that walks a job sets it."""
    old = np.setbufsize(UFUNC_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(old)


@dataclass
class ChannelHooks:
    """Callbacks wiring distributed classical instructions to a channel,
    once per chunk of shots from shot `epoch` on. send(peer_id, epoch, seq,
    bits) sends their bits (one uint8 each) and must not block on the
    receiver; recv(peer_id, epoch, seq, count) blocks until shot `epoch`'s
    bit arrives, then returns those of the first 1 to `count` shots."""
    send: Callable[[str, int, int, np.ndarray], None]
    recv: Callable[[str, int, int, int], np.ndarray]


def null_hooks() -> ChannelHooks:
    def _no_channel(*_args):
        raise UnsupportedInstruction(
            "distributed instruction executed without channel hooks")
    return ChannelHooks(send=_no_channel, recv=_no_channel)


def job_rng(seed) -> np.random.Generator:
    """The one stream a job draws from (see the module docstring)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def shot_rng(seed, shot_index: int, draws: int = 1) -> np.random.Generator:
    """job_rng(seed) positioned at shot `shot_index`'s first uniform, for
    shots that draw `draws` each (PCG64's jump-ahead): one shot run by itself."""
    rng = job_rng(seed)
    rng.bit_generator.advance(shot_index * draws)
    return rng


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
    end: Fold  # the qubits still folded after the walked ops
    expand: bool  # whether `_sample_block` unfolds them before it samples
    widest: int  # the most qubits a state of the job holds

    @cached_property
    def probe(self) -> np.ndarray:
        """Fingerprint weights over a state's float view (`_merge`), made
        when branches first merge."""
        floats = 2 << self.num_qubits
        return np.random.default_rng(0).random(floats // min(64, floats))


@dataclass
class _Branch:
    amps: np.ndarray
    bits: int  # packed classical register; clbit c is bit c
    shots: np.ndarray | range  # rows of the chunk's shots that share this history


def _compile(circuit, outputs: int | None = None) -> _Program:
    """Resolve every gate once per job, count the uniforms each shot draws,
    mark where branches may merge (after every reset and wherever a clbit
    dies) and find the terminal block: the measures after which only other
    block measures draw, no op but a measure touches their qubits and none
    reads their clbits. The first `outputs` clbits (all by default) are the
    result; any other clbit is dead after its last conditional read.

    Every qubit but the lowest START_WIDTH starts folded
    (`statevector.Fold`): each run of consecutive
    unconditional gates goes through `compile_gates` with the fold, which
    emits gate ops (a run of diagonal ones is one, on the union of their
    qubits) and the grow ops that activate qubits, until the first walked
    op that draws, reads or sends a bit; a grow op before it activates
    every qubit still folded, and from there on the state is full width."""
    n = circuit.num_qubits
    ops, draws, run, shared = [], 0, [], {}  # equal steps share a kernel

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
                n, ins.remote.gate_name, qubits, ins.params, shared)))
        elif name in LINKS:
            ops.append(_Op("unsupported", ins, qubits))
        else:
            ops.append(_Op("cond", ins, qubits,
                           compile_gate(n, name, qubits, ins.params, shared)))
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
                       for kernel, qubits in compile_gates(n, op.ins, fold, shared))
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


def _unfold(fold: Fold) -> Grow:
    """The growth step that activates every qubit `fold` leaves out."""
    return Fold(fold.num_qubits, dict(fold.bits)).activate(list(fold.bits))


def _fork(branch: _Branch, take: np.ndarray) -> _Branch:
    """Split off the shots where `take` holds into a branch with a copy of
    the state; `branch` keeps the rest."""
    child = _Branch(branch.amps.copy(), branch.bits, branch.shots[take])
    branch.shots = branch.shots[~take]
    return child


def _split(tests: list, shot_ids: range, room: int | None, stop: int):
    """The cut of draws and receives, given a test (branch, mask of its
    shots taking 1, their count, weights) per branch: the chunk keeps its
    shots below row `stop`, and below the first shot of the (room + 1)-th
    part where the parts would be more live states than `room`. Tests lose
    the shots dropped, and branches left without any are freed."""
    if room is not None and room < sum(1 + (0 < n1 < len(ones)) for _, ones, n1, _ in tests):
        firsts = sorted(int(b.shots[side].min()) for b, ones, _, _ in tests
                        for side in (ones, ~ones) if side.any())
        stop = min(stop, firsts[room])
    if stop >= len(shot_ids):
        return tests, shot_ids
    cut = []
    for b, ones, _, weights in tests:
        keep = b.shots < stop
        if keep.any():
            b.shots, ones = b.shots[keep], ones[keep]
            cut.append((b, ones, np.count_nonzero(ones), weights))
    return cut, shot_ids[:stop]


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
    every shot's next uniform, and may cut the chunk (`_split`), as may a
    receive, to the shots whose bits have come. A channel op makes one hook
    call for the chunk. Returns the branches after it and the shots kept."""
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
        remote = op.ins.remote
        try:
            got = hooks.recv(remote.peer_circuit_id, shot_ids[0], remote.sequence,
                             len(shot_ids))
        except EmulatorError as exc:
            raise _at_shot(exc, shot_ids[0]) from exc
        ones = np.resize(got, len(shot_ids)) == 1  # the shots past `got` are cut
        tests, shot_ids = _split([(b, mask := ones[b.shots], np.count_nonzero(mask), None)
                                  for b in branches], shot_ids, room, len(got))
        branches = []
        for b, ones, n1, _ in tests:
            if 0 < n1 < len(ones):
                branches.append(_fork(b, ones))
                op.kernel(branches[-1].amps)
            elif n1:
                op.kernel(b.amps)
            branches.append(b)
    elif kind == "unsupported":
        raise _at_shot(UnsupportedInstruction(
            f"{op.ins.name} requires the quantum-communication executor"), shot_ids[0])
    else:
        for qubit, clbit in op.targets:
            uniforms, tests = next_row(), []
            for b in branches:  # each tested before any state is copied
                try:
                    ones, weights = sample_outcomes(b.amps, qubit, uniforms[b.shots])
                except EmulatorError as exc:
                    raise _at_shot(exc, shot_ids[int(b.shots.min())]) from exc
                tests.append((b, ones, np.count_nonzero(ones), weights))
            tests, shot_ids = _split(tests, shot_ids, room, len(shot_ids))
            sent = np.zeros(len(shot_ids), np.uint8) if kind == "send" else None
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
                        elif kind == "send" and outcome:
                            sent[part.shots] = 1
                except EmulatorError as exc:
                    raise _at_shot(exc, shot_ids[int(b.shots.min())]) from exc
                branches += [part for _, part in parts]
            if kind == "send":  # a failed send is the peer's, not a shot's
                hooks.send(op.ins.remote.peer_circuit_id, shot_ids[0], op.ins.remote.sequence,
                           sent)
    return branches, shot_ids


def _at_shot(exc: EmulatorError, shot: int) -> EmulatorError:
    """`exc` naming the first shot it hit."""
    return type(exc)(f"shot {shot}: {exc}")


def _root(prog: _Program, shots: np.ndarray | range) -> _Branch:
    """The branch of every shot, `shots` its rows (a range where no row is
    drawn), in |0...0> on the START_WIDTH lowest qubits, every other qubit
    folded at 0. The state is the head of one array of the job's widest
    state's amplitudes, in which its growth steps spread it
    (`statevector.Grow`)."""
    buf = np.zeros(1 << prog.widest, dtype=np.complex128)
    buf[0] = 1.0
    return _Branch(buf[:1 << min(prog.num_qubits, START_WIDTH)], 0, shots)


def _walk(prog: _Program, ops: list[_Op], branches: list[_Branch],
          next_row: Callable[[], np.ndarray], shot_ids: range,
          hooks: ChannelHooks, room: int | None = None
          ) -> tuple[list[_Branch], int, range]:
    """Evolve the branches through `ops` together, op by op; each draw
    takes `next_row()`, the next uniform of every shot of `shot_ids`. With
    a `room`, a draw or receive that would leave more live states than that
    cuts the chunk first (`_split`). Returns the branches at the end, the peak
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


def _sample_block(prog: _Program, branch: _Branch, seed) -> Iterator[np.ndarray]:
    """The basis state each shot of a job draws for the terminal block of a
    branch of every shot, a piece of shots at a time: one draw per shot over
    the full distribution from job_rng(seed) (`statevector.sample_basis`,
    the draws of `choice`), which takes the branch's state, its last use.
    Where qubits are still folded, the draw is over the active qubits'
    distribution and a folded qubit reads its bit, unless the state is
    unfolded first (`prog.expand`), in its own array."""
    amps, branch.amps = branch.amps, None
    if prog.expand:
        amps = _unfold(prog.end)(amps)
    # the active qubits are the lowest: set the folded bits
    folded = 0 if prog.expand else sum(bit << q for q, bit in prog.end.bits.items())
    for outcomes in sample_basis(amps, job_rng(seed), len(branch.shots)):
        outcomes += folded
        yield outcomes


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
                                   shot_ids[int(branch.shots[low].min())])
            outcome[q] = ones.astype(np.int64)
            node = 2 * node + outcome[q]
    return outcome.__getitem__


def fresh_seed() -> int:
    """A job seed from OS entropy, for a job submitted without one."""
    return int(np.random.SeedSequence().entropy) & 0x7FFFFFFF


@_ufunc_buffer()
def run_branched(circuit, shots: int, seed=None,
                 hooks: ChannelHooks | None = None,
                 outputs: int | None = None) -> tuple[dict[str, int], dict]:
    """Counts over the first `outputs` clbits (all by default) of `shots`
    shots, and the walk's counters: the peak number of live branches, the
    number of chunks and the most qubits a state held (`state_qubits`).

    Shot s takes uniforms s*d ... s*d + d - 1 of job_rng(seed) in
    instruction order, so the counts are those of running the shots one
    after another from that stream. Shots are walked in chunks that hold
    at most BRANCH_BUDGET_BYTES beyond their first state: a chunk starts
    with at most as many shots as half the budget holds uniforms for, and
    a draw that would leave more live states than the rest holds cuts it;
    the dropped shots start the next chunk with their rows, the next in
    stream order, so chunking never changes what a shot draws. A channel
    instruction is one hook call for the chunk: a send hands over its
    shots' bits, and a receive gets those of a prefix of its shots, the
    first one's at least, and cuts the chunk to that prefix as a draw's cut
    does, so peers need not agree on chunk boundaries. Each end branch
    resolves the terminal block (`_descend_block`); a job that draws
    nothing before it is one branch, sampled at once (`_sample_block`) and
    tallied a piece of shots at a time, unless it is channel-linked.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if circuit.num_qubits > MAX_QUBITS:
        raise WidthExceeded(
            f"circuit needs {circuit.num_qubits} qubits, engine cap is {MAX_QUBITS}")
    if circuit.num_clbits > MAX_CLBITS:
        raise WidthExceeded(
            f"circuit needs {circuit.num_clbits} clbits, engine cap is {MAX_CLBITS}")
    if seed is None:
        seed = fresh_seed()

    prog, hooks = _compile(circuit, outputs), hooks or null_hooks()
    mask = (1 << prog.outputs) - 1
    writer = {c: q for q, c in prog.block}  # each block clbit's last-measured qubit
    written = sum(1 << c for c in writer)
    in_place = all(c == q for c, q in writer.items())
    tally: Counter[int] = Counter()

    def codes(bits: int, outcome: Callable[[int], np.ndarray]) -> np.ndarray:
        """Shots' clbits: `bits` but for each block clbit, the outcome of the
        qubit measured into it last."""
        out = bits & ~written
        for c, q in writer.items():
            out = out | outcome(q) << c
        return out

    def add(clbits: np.ndarray) -> None:
        values, counts = np.unique(clbits & mask, return_counts=True)
        tally.update(dict(zip(values.tolist(), counts.tolist())))

    def count(ends: list[_Branch], rows: np.ndarray | None, ids: range) -> None:
        """Count the end branches' shots past the terminal block; `rows`
        holds the chunk's uniforms, None where nothing is drawn. Where each
        block clbit c reads qubit c, drawn basis states hold the block's
        bits in place."""
        for b in ends:
            if not prog.block:
                tally[b.bits & mask] += len(b.shots)
            elif rows is not None:
                add(codes(b.bits, _descend_block(
                    prog, b, rows[b.shots, prog.draws - len(prog.block):].T, ids)))
            else:
                for drawn in _sample_block(prog, b, seed):
                    add(drawn & written | b.bits & ~written if in_place
                        else codes(b.bits, lambda q: (drawn >> q) & 1))  # noqa: B023

    if prog.draws == len(prog.block) and not any(  # one branch of every shot
            op.kind in ("send", "recv") for op in prog.walked):
        ends, peak, _ = _walk(prog, prog.walked, [_root(prog, range(shots))], None,
                              range(shots), hooks)
        count(ends, None, range(shots))
        return ({format_key(c, prog.outputs): n for c, n in sorted(tally.items())},
                {"peak_branches": peak, "chunks": 1, "state_qubits": prog.widest})

    # a chunk's shots, their uniforms and row indices, take at most half the
    # budget and live states beyond the first the rest; a chunk that cannot
    # hold a second state holds one shot
    shot_bytes = 8 * (prog.draws + 1)
    per = min(shots, max(1, BRANCH_BUDGET_BYTES // 2 // shot_bytes))
    room = 1 + (BRANCH_BUDGET_BYTES - per * shot_bytes) // (16 << prog.num_qubits)
    if room < 2:
        per = 1

    # rows[j] holds the uniforms of shot start + j for the first `drawn`
    # rows; the rows of shots a cut dropped move to the front, not drawn
    # again, and the stream stands at shot start + drawn
    rows, stream = np.empty((per, prog.draws)), job_rng(seed)
    start = drawn = peak = chunks = 0
    size = per
    while start < shots:
        ids = range(start, min(start + size, shots))
        stream.random(out=rows[drawn:len(ids)])
        drawn = max(drawn, len(ids))
        ends, chunk_peak, kept = _walk(prog, prog.walked,
                                       [_root(prog, np.arange(len(ids)))],
                                       iter(rows.T).__next__, ids, hooks, room)
        count(ends, rows, kept)
        drawn -= len(kept)
        rows[:drawn] = rows[len(kept):len(kept) + drawn]
        # a cut shows how many shots fit, or had their bits at a receive: the
        # next chunk starts with as many, and doubles while no cut comes
        size = len(kept) if len(kept) < len(ids) else min(per, 2 * size)
        start, peak, chunks = kept.stop, max(peak, chunk_peak), chunks + 1
    return ({format_key(c, prog.outputs): n for c, n in sorted(tally.items())},
            {"peak_branches": peak, "chunks": chunks, "state_qubits": prog.widest})


def run_sampled(circuit, shots: int, seed=None) -> dict[str, int]:
    """Counts over every clbit of `shots` shots, as `run_branched` gives them."""
    return run_branched(circuit, shots, seed)[0]


def run_shot_loop(circuit, shots: int, seed=None,
                  hooks: ChannelHooks | None = None) -> dict[str, int]:
    """Counts over every clbit of `shots` shots, as `run_branched` gives them."""
    return run_branched(circuit, shots, seed, hooks)[0]
