"""Quantum-communication backend: merges the circuit parts of a program
into one joint simulation.

The merged space is Sum(n_i) + 2 qubits; the top two indices are the shared
communication pair used by every protocol expansion and reset (recycled)
after each use. qsend/qrecv pairs expand to teleportation (teledata);
expose regions expand to a remotely controlled gate block (telegate:
cat-entangler, body gates controlled by the communication qubit,
cat-disentangler). Protocol measurements land in scratch clbits that are
stripped from the aggregated counts, so the result looks as if the whole
circuit ran on a single vQPU.

Run as a process with ``python -m dqcemu.executor --config <json-file>`` (or
``--config -`` for stdin), the file holding a family whose first member it
serves (`protocol.FramedService.main`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .backend import validate
from .circuit import Circuit, Instruction
from .errors import (
    CommQubitCollision,
    DanglingProtocol,
    DuplicateId,
    EmptyBody,
    MergeDeadlock,
    SchemaViolation,
    ValidationFailed,
)
from .gates import LINKS
from .protocol import FramedService, ResultRecord, run_job
from .wire import circuit_from_obj


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


def execute_merged(plan: MergePlan, shots: int, seed=None,
                   job_id: str = "") -> ResultRecord:
    """Run the merged circuit and count the user clbits only: the protocol
    scratch bits are no output, so they die after their last read."""
    if plan.merged is None:
        raise ValueError("plan is not expanded; call merge_circuits first")
    record = run_job(job_id, plan.merged, shots, seed, outputs=plan.user_clbits)
    record.metadata.update(merged_qubits=plan.total_qubits,
                           parts=[c.id for c, _, _ in plan.parts])
    return record


# -- executor server ---------------------------------------------------------


@dataclass
class Program:
    """A quantum-model program: its parts in order, run as one job."""
    job_id: str
    parts: list[Circuit]
    shots: int
    seed: int | None


class ExecutorServer(FramedService):
    """Runs each quantum-model program as one merged circuit.

    A program comes as one `run` frame whose `circuits` are its k >= 2
    parts in order. Every part is validated against the family backend as
    the frame arrives, and the frame of a part that fails is answered with
    ValidationFailed and queues nothing. The program runs on the
    `simulator` thread like a vQPU's task, and `result` answers its one
    aggregated result."""

    work_frames = ("run",)

    def _decode(self, job_id: str, frame: dict, config: dict) -> Program:
        parts = frame.get("circuits")
        if not isinstance(parts, list) or len(parts) < 2:
            raise SchemaViolation("circuits", "expected a list of at least two parts")
        parts = [circuit_from_obj(part) for part in parts]
        violations = [v for part in parts for v in validate(part, self.config.backend)]
        violations += [f"part {part.id!r} declares parameters {slots} but none "
                       "were bound" for part in parts if (slots := part.param_slots())]
        if violations:
            raise ValidationFailed(violations)
        return Program(job_id, parts, config["shots"], config.get("seed"))

    def _execute(self, program: Program) -> ResultRecord:
        return execute_merged(merge_circuits(program.parts), program.shots,
                              seed=program.seed, job_id=program.job_id)


if __name__ == "__main__":
    raise SystemExit(ExecutorServer.main())
