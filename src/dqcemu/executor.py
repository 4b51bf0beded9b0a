"""Quantum-communication backend: merges per-vQPU circuit parts into one
joint simulation.

The merged space is Sum(n_i) + 2 qubits; the top two indices are the shared
communication pair used by every protocol expansion and reset (recycled)
after each use. qsend/qrecv pairs expand to teleportation (teledata);
expose regions expand to a remotely controlled gate block (telegate:
cat-entangler, body gates controlled by the communication qubit,
cat-disentangler). Protocol measurements land in scratch clbits that are
stripped from the aggregated counts, so the result looks as if the whole
circuit ran on a single vQPU.

Run as a process with ``python -m dqcemu.executor --config <json-file>``.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

from . import engine
from .circuit import Circuit, Instruction
from .errors import (
    CommQubitCollision,
    DanglingProtocol,
    DuplicateId,
    EmptyBody,
    EmulatorError,
    MergeDeadlock,
)
from .gates import LINKS
from .protocol import FramedService, error_code, error_frame
from .server import ResultRecord
from .wire import circuit_from_obj

PART_TIMEOUT_S = 60.0


@dataclass
class MergePlan:
    parts: list[tuple[Circuit, int, int]]  # (circuit, qubit offset, clbit offset)
    total_qubits: int
    comm_qubits: tuple[int, int]
    user_clbits: int
    scratch_clbits: int = 0
    pairings: list[tuple] = field(default_factory=list)
    origin_map: dict[int, tuple[str, int]] = field(default_factory=dict)
    merged: Circuit | None = None

    def alloc_scratch(self) -> int:
        bit = self.user_clbits + self.scratch_clbits
        self.scratch_clbits += 1
        return bit


@dataclass
class _Step:
    kind: str  # local, or a sequence-tag kind of gates.LINKS
    ins: Instruction | None = None
    peer: str = ""
    seq: int = 0
    body: list = field(default_factory=list)  # (gate, peer-relative qubits, params)


def _part_steps(circuit: Circuit) -> list[_Step]:
    steps: list[_Step] = []
    body = None  # the open expose region's body
    for ins in circuit.instructions:
        if body is not None:
            if ins.name == "expose_end":
                body = None
            else:
                body.append((ins.name, list(ins.qubits), list(ins.params)))
        elif ins.name in LINKS and LINKS[ins.name].kind:
            steps.append(_Step(LINKS[ins.name].kind, ins, ins.remote.peer_circuit_id,
                               ins.remote.sequence))
            if ins.name == "expose_begin":
                body = steps[-1].body
        else:
            steps.append(_Step("local", ins))
    if body is not None:
        raise DanglingProtocol(f"circuit {circuit.id!r}: unterminated expose region")
    return steps


def expand_teledata(plan: MergePlan, send_qubit: int, recv_qubit: int) -> list[Instruction]:
    """Teleport `send_qubit` onto `recv_qubit` via the shared comm pair.

    The sender qubit is left in its post-measurement basis state; both comm
    qubits end in |0>.
    """
    c0, c1 = plan.comm_qubits
    if send_qubit in (c0, c1) or recv_qubit in (c0, c1):
        raise CommQubitCollision(
            f"teledata endpoints ({send_qubit}, {recv_qubit}) hit comm pair {plan.comm_qubits}")
    m1 = plan.alloc_scratch()
    m2 = plan.alloc_scratch()
    a, t = send_qubit, recv_qubit
    return [
        Instruction("reset", [c0]),
        Instruction("reset", [c1]),
        Instruction("h", [c0]),
        Instruction("cx", [c0, c1]),
        Instruction("cx", [a, c0]),
        Instruction("h", [a]),
        Instruction("measure", [a], [m1]),
        Instruction("measure", [c0], [m2]),
        Instruction("x", [c1], [m2]),
        Instruction("z", [c1], [m1]),
        Instruction("swap", [c1, t]),
        Instruction("reset", [c1]),
        Instruction("reset", [c0]),
    ]


def expand_telegate(plan: MergePlan, control_qubit: int, body) -> list[Instruction]:
    """Cat-entangle `control_qubit` onto the comm pair, run the body gates
    with the communication qubit substituted as control, then disentangle.

    `body` entries are (gate, merged-space target qubits, params); the
    control qubit's state is restored and the comm pair ends in |0>.
    """
    if not body:
        raise EmptyBody("telegate requires at least one body gate")
    c0, c1 = plan.comm_qubits
    a = control_qubit
    if a in (c0, c1):
        raise CommQubitCollision(f"telegate control {a} hits comm pair")
    for _, targets, _ in body:
        if any(t in (c0, c1) for t in targets):
            raise CommQubitCollision(f"telegate target {targets} hits comm pair")
    m = plan.alloc_scratch()
    mp = plan.alloc_scratch()
    out = [
        Instruction("reset", [c0]),
        Instruction("reset", [c1]),
        Instruction("h", [c0]),
        Instruction("cx", [c0, c1]),
        Instruction("cx", [a, c0]),
        Instruction("measure", [c0], [m]),
        Instruction("x", [c1], [m]),
    ]
    for gate, targets, params in body:
        out.append(Instruction(gate, [c1, *targets], params=list(params)))
    out += [
        Instruction("h", [c1]),
        Instruction("measure", [c1], [mp]),
        Instruction("z", [a], [mp]),
        Instruction("reset", [c1]),
        Instruction("reset", [c0]),
    ]
    return out


def merge_circuits(parts: list[Circuit]) -> MergePlan:
    """Deterministically merge circuit parts into one joint circuit.

    Offsets follow submission order. Instructions are emitted round-robin by
    part index; a part stalls at qsend/qrecv until its partner instruction
    is current, and at remote_c_if until the matching send was emitted.
    Expose regions expand in place. Raises DanglingProtocol for unmatched
    protocol instructions and MergeDeadlock when every part is stalled.
    """
    if len(parts) < 2:
        raise ValueError("merge needs at least two circuit parts")
    ids = [c.id for c in parts]
    if len(set(ids)) != len(ids):
        raise DuplicateId(f"duplicate circuit ids in {ids}")
    index_of = {cid: i for i, cid in enumerate(ids)}
    for c in parts:
        for peer in c.peer_ids():
            if peer not in index_of:
                raise DanglingProtocol(
                    f"circuit {c.id!r} references absent peer {peer!r}")

    qubit_offsets, clbit_offsets = [], []
    q_acc = c_acc = 0
    for c in parts:
        qubit_offsets.append(q_acc)
        clbit_offsets.append(c_acc)
        q_acc += c.num_qubits
        c_acc += c.num_clbits
    total = q_acc + 2
    plan = MergePlan(
        parts=[(c, qubit_offsets[i], clbit_offsets[i]) for i, c in enumerate(parts)],
        total_qubits=total, comm_qubits=(total - 2, total - 1),
        user_clbits=c_acc)
    for i, c in enumerate(parts):
        for local in range(c.num_clbits):
            plan.origin_map[clbit_offsets[i] + local] = (c.id, local)

    steps = [_part_steps(c) for c in parts]
    pos = [0] * len(parts)
    emitted: list[Instruction] = []
    sent_bits: dict[tuple[str, str, int], int] = {}

    def map_local(ins: Instruction, i: int) -> Instruction:
        moved = ins.copy()
        moved.qubits = [q + qubit_offsets[i] for q in moved.qubits]
        moved.clbits = [c + clbit_offsets[i] for c in moved.clbits]
        moved.remote = None
        return moved

    def q_of(i: int, q: int) -> int:
        return q + qubit_offsets[i]

    while any(pos[i] < len(steps[i]) for i in range(len(parts))):
        progressed = False
        for i in range(len(parts)):
            if pos[i] >= len(steps[i]):
                continue
            step = steps[i][pos[i]]
            if step.kind == "local":
                emitted.append(map_local(step.ins, i))
            elif step.kind == "send_bit":
                sbit = plan.alloc_scratch()
                emitted.append(Instruction("measure",
                                           [q_of(i, step.ins.qubits[0])], [sbit]))
                sent_bits[(ids[i], step.peer, step.seq)] = sbit
            elif step.kind == "recv_bit":
                key = (step.peer, ids[i], step.seq)
                if key not in sent_bits:
                    continue  # stall until the matching send is emitted
                sbit = sent_bits.pop(key)
                emitted.append(Instruction(
                    step.ins.remote.gate_name, [q_of(i, q) for q in step.ins.qubits],
                    [sbit], list(step.ins.params)))
                plan.pairings.append(("classical", step.peer, ids[i], step.seq))
            elif step.kind in ("qsend", "qrecv"):
                j = index_of[step.peer]
                if pos[j] >= len(steps[j]):
                    continue  # stall; dangling detection happens below
                other = steps[j][pos[j]]
                want = "qrecv" if step.kind == "qsend" else "qsend"
                if (other.kind != want or other.peer != ids[i]
                        or other.seq != step.seq):
                    continue  # stall until the partner is current
                if step.kind == "qsend":
                    send_q = q_of(i, step.ins.qubits[0])
                    recv_q = q_of(j, other.ins.qubits[0])
                    src, dst = ids[i], ids[j]
                else:
                    send_q = q_of(j, other.ins.qubits[0])
                    recv_q = q_of(i, step.ins.qubits[0])
                    src, dst = ids[j], ids[i]
                emitted.extend(expand_teledata(plan, send_q, recv_q))
                plan.pairings.append(("teledata", src, dst, step.seq))
                pos[j] += 1
            elif step.kind == "expose":
                j = index_of[step.peer]
                body = [(gate, [q_of(j, q) for q in qubits], params)
                        for gate, qubits, params in step.body]
                emitted.extend(expand_telegate(plan, q_of(i, step.ins.qubits[0]), body))
                plan.pairings.append(("telegate", ids[i], step.peer, step.seq))
            else:
                raise AssertionError(step.kind)
            pos[i] += 1
            progressed = True
        if not progressed:
            for i in range(len(parts)):
                if pos[i] >= len(steps[i]):
                    continue
                step = steps[i][pos[i]]
                j = index_of.get(step.peer)
                if j is not None and pos[j] >= len(steps[j]):
                    raise DanglingProtocol(
                        f"circuit {ids[i]!r}: unmatched {step.kind} "
                        f"(seq {step.seq}) to {step.peer!r}")
            stalled = [ids[i] for i in range(len(parts)) if pos[i] < len(steps[i])]
            raise MergeDeadlock(f"all remaining parts are stalled: {stalled}")

    plan.merged = Circuit._from_instructions(
        total, plan.user_clbits + plan.scratch_clbits, emitted,
        id="merged-" + "-".join(ids))
    return plan


def execute_merged(plan: MergePlan, shots: int, seed=None, job_id: str = "",
                   max_qubits: int = engine.DEFAULT_MAX_QUBITS) -> ResultRecord:
    """Run the merged circuit and count the user clbits only: the protocol
    scratch bits are no output, so they die after their last read."""
    if plan.merged is None:
        raise ValueError("plan is not expanded; call merge_circuits first")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    t0 = time.perf_counter()
    counts, counters = engine.run_branched(plan.merged, shots, seed=seed,
                                           max_qubits=max_qubits,
                                           outputs=plan.user_clbits)
    elapsed = time.perf_counter() - t0
    return ResultRecord(
        job_id=job_id, counts=counts, time_taken=elapsed,
        metadata={"seed": seed, "engine": "statevector", "shots": shots,
                  "rng": engine.RNG_ALGORITHM, "merged_qubits": plan.total_qubits,
                  "parts": [c.id for c, _, _ in plan.parts], **counters})


# -- executor server ---------------------------------------------------------


@dataclass
class ExecutorConfig:
    family: str
    listen_address: str = "127.0.0.1:0"
    ttl_seconds: int = 0
    executor_id: str = ""
    max_qubits: int = engine.DEFAULT_MAX_QUBITS
    listen_fd: int = -1  # an inherited listening socket, else bind listen_address

    def __post_init__(self):
        if not self.executor_id:
            self.executor_id = f"{self.family}-executor"


class _JobAssembly:
    def __init__(self, k: int):
        self.k = k
        self.parts: dict[int, tuple[Circuit, int, int | None]] = {}
        self.cond = threading.Condition()
        self.result: ResultRecord | None = None
        self.error: tuple[str, str] | None = None


class ExecutorServer(FramedService):
    """Collects the k parts of each job, merges and simulates them once, and
    answers every submitting connection with the same aggregated result.

    Jobs run one at a time on one long-lived `simulator` thread, as on a
    vQPU. Run on the connection thread of the part that completed them, as
    every forwarded part opens a connection of its own, their allocations
    landed in a new malloc arena each time and raised resident memory."""

    config_type = ExecutorConfig
    work_frames = ("part",)

    def __init__(self, config: ExecutorConfig):
        super().__init__(config, config.executor_id)
        self.handlers["part"] = self._handle_part
        self._jobs: dict[str, _JobAssembly] = {}
        self._lock = threading.Lock()
        self._complete: queue.Queue[tuple[str, _JobAssembly] | None] = queue.Queue()

    def start(self) -> None:
        super().start()
        threading.Thread(target=self._sim_worker, name="simulator",
                         daemon=True).start()

    def stop(self) -> None:
        super().stop()
        self._complete.put(None)  # wake the simulation worker

    def _queued(self) -> int:
        with self._lock:
            return len(self._jobs)

    def _handle_part(self, frame: dict):
        job_id = frame.get("job_id")
        k = frame.get("k")
        index = frame.get("index")
        cfg = frame.get("config") or {}
        if not job_id or not isinstance(k, int) or k < 2 \
                or not isinstance(index, int) or not 0 <= index < k \
                or "circuit" not in frame:
            return error_frame("SchemaViolation",
                               "part needs job_id, circuit, k >= 2 and 0 <= index < k")
        circuit = circuit_from_obj(frame["circuit"])
        shots = cfg.get("shots", 0)
        seed = cfg.get("seed")

        with self._lock:
            if self._draining:  # _refuse_pending fails the jobs already here
                return error_frame("Expired", f"{self.service_id} is shutting down")
            job = self._jobs.get(job_id)
            if job is None:
                job = self._jobs[job_id] = _JobAssembly(k)
        with job.cond:
            if job.error is not None:
                return error_frame(*job.error, job_id=job_id)
            if job.k != k:
                return error_frame("SchemaViolation",
                                   f"conflicting part count for job {job_id!r}")
            if index in job.parts:
                return error_frame("DuplicateId",
                                   f"part {index} of job {job_id!r} already received")
            job.parts[index] = (circuit, shots, seed)
            complete = len(job.parts) == k
            if complete:
                job.cond.notify_all()

        if complete:
            self._complete.put((job_id, job))
        with job.cond:
            # bounded wait for the sibling parts, then unbounded for the
            # joint simulation itself
            arrived = job.cond.wait_for(
                lambda: (len(job.parts) == job.k or job.result is not None
                         or job.error is not None),
                timeout=PART_TIMEOUT_S)
            if not arrived and job.result is None and job.error is None:
                job.error = ("PartsTimeout",
                             f"job {job_id!r}: only {len(job.parts)}/{job.k} "
                             f"parts arrived within {PART_TIMEOUT_S:.0f} s")
                job.cond.notify_all()
                with self._lock:
                    self._jobs.pop(job_id, None)
            else:
                job.cond.wait_for(
                    lambda: job.result is not None or job.error is not None)
            if job.error is not None:
                code, message = job.error
                return error_frame(code, message, job_id=job_id)
            return job.result.to_obj()

    def _refuse_pending(self) -> None:
        """A job still missing parts can no longer complete: its waiting
        parts get Expired now instead of at PART_TIMEOUT_S."""
        with self._lock:
            jobs = list(self._jobs.items())
        for job_id, job in jobs:
            with job.cond:
                if len(job.parts) < job.k and job.error is None:
                    job.error = ("Expired", f"job {job_id!r}: {self.service_id} is "
                                 f"shutting down with {len(job.parts)}/{job.k} parts")
                    job.cond.notify_all()
                    with self._lock:
                        self._jobs.pop(job_id, None)

    def _sim_worker(self) -> None:
        while (item := self._complete.get()) is not None:
            self._run_job(*item)

    def _run_job(self, job_id: str, job: _JobAssembly) -> None:
        try:
            shots_set = {shots for _, shots, _ in job.parts.values()}
            if len(shots_set) != 1:
                raise EmulatorError(
                    f"parts of job {job_id!r} disagree on shots: {sorted(shots_set)}")
            parts = [job.parts[i][0] for i in range(job.k)]
            seed = job.parts[0][2]
            shots = shots_set.pop()
            self._busy = True
            try:
                plan = merge_circuits(parts)
                record = execute_merged(plan, shots, seed=seed, job_id=job_id,
                                        max_qubits=self.config.max_qubits)
            finally:
                self._busy = False
            with job.cond:
                job.result = record
                job.cond.notify_all()
        except Exception as exc:
            with job.cond:
                job.error = error_code(exc)
                job.cond.notify_all()
        finally:
            with self._lock:
                self._jobs.pop(job_id, None)


if __name__ == "__main__":
    raise SystemExit(ExecutorServer.main())
