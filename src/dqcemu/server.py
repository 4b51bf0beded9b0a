"""The vQPU process: a framed-JSON TCP server with two cooperating workers.

The receiver worker accepts connections, answers status/result queries,
checks and enqueues quantum tasks into a bounded FIFO queue and routes
inbound channel bits to the inbox of their job; the simulation worker
dequeues and executes them. A status request is answered while a
simulation runs, and a failing task produces an error result without
taking the server down.

Run as a process with ``python -m dqcemu.server --config <json-file>`` (or
``--config -`` for stdin), the file holding a family whose first member it
serves (`protocol.FramedService.main`).
"""

from __future__ import annotations

import contextlib
import socket
import sys
import threading
from dataclasses import dataclass, replace

from .backend import Violation, validate
from .channel import BitMessage, ChannelEndpoint
from .circuit import Circuit, Param
from .errors import (
    ArityMismatch,
    ChannelTimeout,
    PeerUnreachable,
    SchemaViolation,
    ValidationFailed,
)
from .protocol import (
    MAX_FINISHED_JOBS,
    FramedService,
    Job,
    ResultRecord,
    ServiceConfig,
    _evicted,
    connect,
    encode,
    error_code,
    error_frame,
    job_id_of,
    parse_address,
    run_job,
    send_frame,
)
from .wire import _is_number, circuit_from_obj

#: bytes a vQPU holds for parts it has not acked yet (`ChannelEndpoint.size`),
#: over all jobs, and the most bits a frame carries; past it the job whose inbox
#: was made first fails with ChannelTimeout and its bits are dropped. 1b at
#: n=16, 10^4 shots, held up to 50,000 bits (README)
MAX_HELD_BITS = 1 << 20


def _check_params(params, path: str) -> None:
    if not isinstance(params, list) or not all(_is_number(v) for v in params):
        raise SchemaViolation(path, "expected a list of finite numbers")


def _check_plan(plan) -> None:
    """A channel plan maps circuit ids to the "host:port" of their vQPUs."""
    if not isinstance(plan, dict):
        raise SchemaViolation("config.plan", "expected an object")
    for cid, address in plan.items():
        host, _, port = str(address).rpartition(":")
        if not (cid and isinstance(address, str) and host and port.isdigit()):
            raise SchemaViolation("config.plan", "expected non-empty circuit "
                                  f"ids mapped to 'host:port', got {cid!r}: {address!r}")


@dataclass
class QuantumTask:
    job_id: str
    circuit: Circuit
    shots: int
    seed: int | None = None
    params: list | None = None  # initial values for declared slots
    plan: dict[str, str] | None = None  # circuit id -> host:port (classical)


class TcpBitTransport:
    """One-way bit frames to peer vQPU servers over persistent connections."""

    def __init__(self):
        self._socks: dict[str, socket.socket] = {}
        self._lock = threading.Lock()

    def send(self, address: str, msg: BitMessage) -> None:
        with self._lock:
            sock = self._socks.get(address)
            if sock is None:
                host, port = parse_address(address)
                try:
                    sock = connect(host, port, timeout=10.0)
                except OSError as exc:
                    raise PeerUnreachable(f"{address}: {exc}") from exc
                self._socks[address] = sock
            try:
                send_frame(sock, msg.to_obj())
            except OSError as exc:
                self._socks.pop(address, None)
                sock.close()
                raise PeerUnreachable(f"{address}: {exc}") from exc

    def close(self) -> None:
        with self._lock:
            for sock in self._socks.values():
                with contextlib.suppress(OSError):
                    sock.close()
            self._socks.clear()


class VqpuServer(FramedService):
    """In-process vQPU; `start()` binds it to a real listening port."""

    work_frames = ("run", "upgrade_parameters")
    # What a kept task holds, in bytes, as `tracemalloc` traced tasks decoded
    # from run frames: the task with its circuit and lists; an instruction
    # with its lists and name, or the remote link it carries; a qubit or
    # clbit entry; a parameter entry, a float or a slot. The strings a frame
    # names freely (ids, peers, slot names) and the plan count at their
    # `sys.getsizeof`.
    TASK_BYTES, INSTRUCTION_BYTES, BIT_BYTES, PARAM_BYTES = 2048, 384, 16, 128

    def __init__(self, config: ServiceConfig):
        super().__init__(config)
        self.handlers.update({"upgrade_parameters": self._handle_upgrade,
                              None: self._route_bit})
        self._inboxes: dict[str, ChannelEndpoint] = {}  # by job id, oldest first
        self._held = 0  # the sizes of the inboxes of parts not acked yet
        self._ghosts: dict[str, None] = {}  # jobs failed before their run, oldest first

    def _kept_bytes(self, task: QuantumTask) -> int:  # what upgrade_parameters reruns
        circuit = task.circuit
        if not circuit.param_slots():
            return 0
        plan = task.plan or {}
        strings = [task.job_id, circuit.id, *plan, *plan.values()]
        kept = self.TASK_BYTES + sys.getsizeof(plan) + self.PARAM_BYTES * len(task.params or ())
        for ins in circuit.instructions:
            kept += (self.INSTRUCTION_BYTES * (1 + (ins.remote is not None))
                     + self.BIT_BYTES * (len(ins.qubits) + len(ins.clbits))
                     + self.PARAM_BYTES * len(ins.params))
            strings += [p.name for p in ins.params if isinstance(p, Param)]
            if ins.remote is not None:
                strings.append(ins.remote.peer_circuit_id)
        return kept + sum(map(sys.getsizeof, strings))

    # -- receiver side --------------------------------------------------------

    def _decode(self, job_id: str, frame: dict, config: dict) -> QuantumTask:
        if config.get("params") is not None:
            _check_params(config["params"], "config.params")
        if config.get("plan") is not None:
            _check_plan(config["plan"])
        if "circuit" not in frame:
            raise SchemaViolation("circuit", "a vQPU's run needs one circuit")
        circuit = circuit_from_obj(frame["circuit"])
        violations = validate(circuit, self.config.backend)
        if circuit.has_link("quantum"):
            violations.append(Violation(
                "CommModeMismatch", "circuit uses a quantum link: its parts run "
                "as one job on the family executor, not on a vQPU"))
        elif circuit.has_link("classical") and self.config.comm_mode != "classical":
            violations.append(Violation(
                "CommModeMismatch", "circuit uses a classical link but vQPU "
                f"comm_mode is {self.config.comm_mode!r}"))
        elif circuit.has_link("classical") and not config.get("plan"):
            violations.append("distributed circuit submitted without a channel plan")
        slots, params = circuit.param_slots(), config.get("params")
        if slots and params is None:
            violations.append(f"circuit declares parameters {slots} but none were bound")
        if violations:
            raise ValidationFailed(violations)
        if params is not None and len(params) != len(slots):
            raise ArityMismatch(f"expected {len(slots)} values, got {len(params)}")
        return QuantumTask(job_id=job_id, circuit=circuit, shots=config["shots"],
                           seed=config.get("seed"), params=params,
                           plan=config.get("plan"))

    def _queue(self, task: QuantumTask) -> dict:
        """Queue `task`; a channel-linked part gets the inbox of its job,
        made now or by its first bit, which keeps at most the bits the part
        reads: one per shot and `remote_c_if`. The caller holds the lock."""
        reply = super()._queue(task)
        circuit = task.circuit
        if reply["type"] == "ack" and circuit.has_link("classical"):
            inbox = self._inboxes.get(task.job_id)
            self._held -= inbox.size if inbox else 0
            inbox = self._inboxes.setdefault(
                task.job_id, ChannelEndpoint(circuit.id, {}, None, job=task.job_id))
            inbox.bind(circuit.id, task.plan, TcpBitTransport(), task.shots * sum(
                ins.name == "remote_c_if" for ins in circuit.instructions))
        return reply

    def _handle_upgrade(self, frame: dict):
        job_id, params = job_id_of(frame), frame.get("params")
        if isinstance(params, list):  # anything else is an ArityMismatch
            _check_params(params, "params")
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return error_frame("UnknownJob", f"no completed job {job_id!r}",
                                   job_id=job_id)
            if job.state == "evicted" or job.dropped:
                return _evicted(job_id)
            if job.state != "done":
                return error_frame("InvalidState",
                                   f"job {job_id!r} is {job.state}, not done",
                                   job_id=job_id)
            task = job.task
            if task is None:  # only tasks with slots are kept
                return error_frame("NoParamSlots",
                                   f"job {job_id!r} has no parameter slots",
                                   job_id=job_id)
            slots = task.circuit.param_slots()
            if not isinstance(params, list) or len(params) != len(slots):
                return error_frame(
                    "ArityMismatch",
                    f"expected {len(slots)} values, got "
                    f"{len(params) if isinstance(params, list) else type(params).__name__}",
                    job_id=job_id)
            return self._queue(replace(task, params=list(params)))

    def _route_bit(self, frame: dict):
        """Deliver a bit frame's bits to the inbox of its job, or nothing
        where a field does not fit (`BitMessage.from_obj`). A job the table
        holds without an inbox has finished or reads no bits, and its bits
        are dropped; any other job's first bits make its inbox, which holds
        bits until the part is acked, at most MAX_HELD_BITS bytes over all
        jobs, a frame that keeps none included. A job failed so is kept as
        failed among MAX_FINISHED_JOBS such jobs, apart from the jobs that
        ran, so a flood of them forgets only each other."""
        msg = BitMessage.from_obj(frame, MAX_HELD_BITS)
        with self._lock:
            inbox = self._inboxes.get(msg.job)
            if inbox is None:
                if msg.job in self._jobs:
                    return None
                inbox = self._inboxes[msg.job] = ChannelEndpoint(
                    msg.dst_circuit, {}, None, job=msg.job)
                self._held += inbox.size
            grown = inbox.deliver(msg)
            if inbox.limit is None:
                self._held += grown
            while self._held > MAX_HELD_BITS:  # fail the job held longest
                oldest = next(j for j, box in self._inboxes.items() if box.limit is None)
                self._held -= self._inboxes.pop(oldest).size
                dropped = ChannelTimeout(
                    f"more than {MAX_HELD_BITS} bytes of bits came for parts not "
                    f"acked yet; those of job {oldest!r}, held longest, were dropped")
                self._jobs[oldest] = Job("failed", reply=encode(
                    error_frame(*error_code(dropped), job_id=oldest)))
                self._ghosts[oldest] = None
                if len(self._ghosts) > MAX_FINISHED_JOBS:
                    del self._jobs[(gone := next(iter(self._ghosts)))], self._ghosts[gone]
        return None  # bit frames are one-way

    # -- simulation side ------------------------------------------------------

    def _execute(self, task: QuantumTask) -> ResultRecord:
        with self._lock:
            inbox = self._inboxes.get(task.job_id)
        try:
            circuit = task.circuit
            if circuit.param_slots():
                circuit = circuit.bind_params(task.params)
            record = run_job(task.job_id, circuit, task.shots, task.seed,
                             hooks=None if inbox is None else inbox.hooks())
        finally:
            if inbox is not None:
                with self._lock:
                    del self._inboxes[task.job_id]
                inbox.close()
        record.metadata["vqpu_id"] = self.config.service_id
        return record


if __name__ == "__main__":
    raise SystemExit(VqpuServer.main())
