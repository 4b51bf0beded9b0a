"""Quantum-communication backend: merges the circuit parts of a program
into one joint simulation.

The merged space is Sum(n_i) + 2 qubits; the top two indices are the shared
communication pair used by every protocol expansion and reset (recycled)
after each use. qsend/qrecv pairs expand to teleportation (teledata);
an expose expands to a remotely controlled gate block (telegate:
cat-entangler, its body gates controlled by the communication qubit,
cat-disentangler). Protocol measurements land in scratch clbits that are
stripped from the aggregated counts, so the result looks as if the whole
circuit ran on a single vQPU.

Run as a process with ``python -m dqcemu.executor --config <json-file>`` (or
``--config -`` for stdin), the file holding a family whose first member it
serves (`protocol.FramedService.main`).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    merged: Circuit | None = None

    def alloc_scratch(self) -> int:
        bit = self.user_clbits + self.scratch_clbits
        self.scratch_clbits += 1
        return bit


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
    An expose expands in place. Raises DanglingProtocol for unmatched
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

    steps = [c.instructions for c in parts]
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
            ins = steps[i][pos[i]]
            name, link = ins.name, ins.remote
            if name not in LINKS:
                emitted.append(map_local(ins, i))
            elif name == "measure_and_send":
                sbit = plan.alloc_scratch()
                emitted.append(Instruction("measure", [q_of(i, ins.qubits[0])], [sbit]))
                sent_bits[(ids[i], link.peer_circuit_id, link.sequence)] = sbit
            elif name == "remote_c_if":
                key = (link.peer_circuit_id, ids[i], link.sequence)
                if key not in sent_bits:
                    continue  # stall until the matching send is emitted
                emitted.append(Instruction(
                    link.gate_name, [q_of(i, q) for q in ins.qubits],
                    [sent_bits.pop(key)], list(ins.params)))
            elif name == "expose":
                j = index_of[link.peer_circuit_id]
                body = [(gate.name, [q_of(j, q) for q in gate.qubits], gate.params)
                        for gate in ins.body or ()]
                emitted.extend(expand_telegate(plan, q_of(i, ins.qubits[0]), body))
            else:  # qsend or qrecv
                j = index_of[link.peer_circuit_id]
                if pos[j] >= len(steps[j]):
                    continue  # stall; dangling detection happens below
                other = steps[j][pos[j]]
                want = "qrecv" if name == "qsend" else "qsend"
                if (other.name != want or other.remote.peer_circuit_id != ids[i]
                        or other.remote.sequence != link.sequence):
                    continue  # stall until the partner is current
                if name == "qsend":
                    send_q, recv_q = q_of(i, ins.qubits[0]), q_of(j, other.qubits[0])
                else:
                    send_q, recv_q = q_of(j, other.qubits[0]), q_of(i, ins.qubits[0])
                emitted.extend(expand_teledata(plan, send_q, recv_q))
                pos[j] += 1
            pos[i] += 1
            progressed = True
        if not progressed:
            for i in range(len(parts)):
                if pos[i] >= len(steps[i]):
                    continue
                ins = steps[i][pos[i]]
                peer = ins.remote.peer_circuit_id
                if pos[index_of[peer]] >= len(steps[index_of[peer]]):
                    raise DanglingProtocol(
                        f"circuit {ids[i]!r}: unmatched {ins.name} "
                        f"(seq {ins.remote.sequence}) to {peer!r}")
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
