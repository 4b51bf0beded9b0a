"""The vQPU process: a framed-JSON TCP server with two cooperating workers.

The receiver worker accepts connections, answers status/result queries,
routes inbound channel bits and enqueues quantum tasks into a bounded FIFO
queue; the simulation worker dequeues and executes them. A status request
is answered while a simulation runs, and a failing task produces an error
result without taking the server down.

Run as a process with ``python -m dqcemu.server --config <json-file>`` (or
``--config -`` for stdin), the file holding a family whose first member it
serves (`protocol.FramedService.main`).
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass, field

from .backend import Violation, validate
from .channel import BitMessage, ChannelEndpoint, is_bit_frame
from .circuit import Circuit
from .errors import PeerUnreachable, SchemaViolation, ValidationFailed
from .protocol import (
    FramedService,
    ResultRecord,
    ServiceConfig,
    _evicted,
    connect,
    error_frame,
    parse_address,
    run_job,
    send_frame,
)
from .wire import _is_number, circuit_from_obj


def _check_params(params, path: str) -> None:
    if not isinstance(params, list) or not all(_is_number(v) for v in params):
        raise SchemaViolation(path, "expected a list of numbers")


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
    param_slots: list[str] = field(default_factory=list)
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
                try:
                    sock.close()
                except OSError:
                    pass
            self._socks.clear()


class VqpuServer(FramedService):
    """In-process vQPU; `start()` binds it to a real listening port."""

    work_frames = ("run", "upgrade_parameters")

    def __init__(self, config: ServiceConfig):
        super().__init__(config)
        self.handlers.update({"upgrade_parameters": self._handle_upgrade,
                              None: self._route_bit})
        self._endpoint: ChannelEndpoint | None = None
        self._stray_bits: list[BitMessage] = []

    def _rerunnable(self, task: QuantumTask) -> bool:
        return bool(task.param_slots)  # what upgrade_parameters reruns

    # -- receiver side --------------------------------------------------------

    def _decode(self, frame: dict) -> Circuit:
        config = frame.get("config", {})
        if config.get("params") is not None:
            _check_params(config["params"], "config.params")
        if config.get("plan") is not None:
            _check_plan(config["plan"])
        if "circuit" not in frame:
            raise SchemaViolation("circuit", "a vQPU's run needs one circuit")
        return circuit_from_obj(frame["circuit"])

    def _take(self, job_id: str, circuit: Circuit, config: dict) -> dict:
        return self._queue(QuantumTask(
            job_id=job_id, circuit=circuit, shots=config["shots"],
            seed=config.get("seed"), params=config.get("params"),
            plan=config.get("plan")))

    def _handle_upgrade(self, frame: dict):
        job_id = frame.get("job_id", "")
        params = frame.get("params")
        if isinstance(params, list):  # anything else is an ArityMismatch
            _check_params(params, "params")
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return error_frame("UnknownJob", f"no completed job {job_id!r}",
                                   job_id=job_id)
            if job.state == "evicted":
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
            if not isinstance(params, list) or len(params) != len(task.param_slots):
                return error_frame(
                    "ArityMismatch",
                    f"expected {len(task.param_slots)} values, got "
                    f"{len(params) if isinstance(params, list) else type(params).__name__}",
                    job_id=job_id)
            return self._queue(QuantumTask(
                job_id=job_id, circuit=task.circuit, shots=task.shots,
                seed=task.seed, params=list(params), plan=task.plan))

    def _route_bit(self, frame: dict):
        if not is_bit_frame(frame):
            return error_frame("SchemaViolation", "frame without type")
        msg = BitMessage.from_obj(frame)
        with self._lock:
            ep = self._endpoint
            if ep is not None and ep.local_circuit == msg.dst_circuit:
                target = ep
            else:
                self._stray_bits.append(msg)
                return None
        target.deliver(msg)
        return None  # bit frames are one-way

    # -- simulation side ------------------------------------------------------

    def _execute(self, task: QuantumTask) -> ResultRecord:
        config = self.config
        circuit = task.circuit
        violations = validate(circuit, config.backend)
        if circuit.has_link("quantum"):
            violations.append(Violation(
                "CommModeMismatch", "circuit uses a quantum link: its parts run "
                "as one job on the family executor, not on a vQPU"))
        if circuit.has_link("classical") and config.comm_mode != "classical":
            violations.append(Violation(
                "CommModeMismatch", "circuit uses a classical link but vQPU "
                f"comm_mode is {config.comm_mode!r}"))
        if violations:
            raise ValidationFailed(violations)

        slots = circuit.param_slots()
        task.param_slots = slots
        if slots:
            if task.params is None:
                raise ValidationFailed(
                    [f"circuit declares parameters {slots} but none were bound"])
            circuit = circuit.bind_params(task.params)

        endpoint = hooks = None
        if circuit.has_link("classical"):
            if not task.plan:
                raise ValidationFailed(
                    ["distributed circuit submitted without a channel plan"])
            peers = {cid: addr for cid, addr in task.plan.items()
                     if cid != circuit.id}
            endpoint = ChannelEndpoint(circuit.id, peers, TcpBitTransport())
            hooks = endpoint.hooks()
            with self._lock:
                self._endpoint = endpoint
                strays = [m for m in self._stray_bits
                          if m.dst_circuit == circuit.id]
                self._stray_bits = [m for m in self._stray_bits
                                    if m.dst_circuit != circuit.id]
            for msg in strays:
                endpoint.deliver(msg)

        try:
            record = run_job(task.job_id, circuit, task.shots, task.seed, hooks=hooks)
        finally:
            if endpoint is not None:
                with self._lock:
                    self._endpoint = None
                endpoint.close()
        record.metadata["vqpu_id"] = config.service_id
        return record


if __name__ == "__main__":
    raise SystemExit(VqpuServer.main())
