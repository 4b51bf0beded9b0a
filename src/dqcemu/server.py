"""The vQPU process: a framed-JSON TCP server with two cooperating workers.

The receiver worker accepts connections, answers status/result queries,
routes inbound channel bits and enqueues quantum tasks into a bounded FIFO
queue; the simulation worker dequeues and executes them. A status request
is answered while a simulation runs, and a failing task produces an error
result without taking the server down.

Run as a process with ``python -m dqcemu.server --config <json-file>``.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import engine
from .backend import BackendSpec, backend_from_obj, backend_to_obj, default_backend, validate
from .channel import BitMessage, ChannelEndpoint, is_bit_frame
from .circuit import Circuit
from .errors import Evicted, PeerUnreachable, ValidationFailed
from .protocol import (
    ConnectionClosed,
    FramedService,
    connect,
    error_code,
    error_frame,
    parse_address,
    request,
    send_frame,
)
from .wire import circuit_from_obj, circuit_to_obj

DEFAULT_QUEUE_SIZE = 64
#: cap on a `result` frame's wait_ms: how long it may wait for its job
RESULT_WAIT_MAX_MS = 1000
#: finished jobs whose result, error and parameter slots a vQPU keeps; past
#: it the one that finished first is evicted, its id kept as "evicted"
MAX_FINISHED_JOBS = 256


@dataclass
class VqpuConfig:
    family: str
    index: int
    listen_address: str = "127.0.0.1:0"
    backend: BackendSpec = field(default_factory=default_backend)
    comm_mode: str = "none"  # "none" | "classical" | "quantum"
    ttl_seconds: int = 0  # 0 = no expiry
    simulator: str = "statevector"
    vqpu_id: str = ""
    executor_endpoint: str | None = None  # required for comm_mode="quantum"
    queue_size: int = DEFAULT_QUEUE_SIZE
    max_qubits: int = engine.DEFAULT_MAX_QUBITS
    listen_fd: int = -1  # an inherited listening socket, else bind listen_address
    backend_path: str = ""

    def __post_init__(self):
        if not self.vqpu_id:
            self.vqpu_id = f"{self.family}-{self.index}"
        if isinstance(self.backend, dict):  # read from a config file
            self.backend = backend_from_obj(self.backend)

    def to_obj(self) -> dict:
        return {**asdict(self), "backend": backend_to_obj(self.backend)}


@dataclass
class QuantumTask:
    job_id: str
    circuit: Circuit
    shots: int
    seed: int | None = None
    params: list | None = None  # initial values for declared slots
    param_slots: list[str] = field(default_factory=list)
    plan: dict[str, str] | None = None  # circuit id -> host:port (classical)
    part_k: int | None = None  # quantum model: total parts
    part_index: int | None = None
    enqueued_at: float = 0.0


@dataclass
class ResultRecord:
    job_id: str
    counts: dict[str, int]
    time_taken: float
    metadata: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        return {"type": "result", "job_id": self.job_id, "counts": self.counts,
                "time_taken": self.time_taken, "metadata": self.metadata}


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

    config_type = VqpuConfig
    work_frames = ("run", "upgrade_parameters")

    def __init__(self, config: VqpuConfig):
        super().__init__(config, config.vqpu_id)
        self.handlers.update({
            "run": self._handle_run, "result": self._handle_result,
            "upgrade_parameters": self._handle_upgrade, None: self._route_bit,
        })
        self.tasks: queue.Queue[QuantumTask | None] = queue.Queue(config.queue_size)
        self._lock = threading.Lock()
        self._settled = threading.Condition(self._lock)  # a job done or failed
        self._states: dict[str, str] = {}  # job -> queued|running|done|failed|evicted
        self._results: dict[str, ResultRecord] = {}
        self._failures: dict[str, tuple[str, str]] = {}
        self._retained: dict[str, QuantumTask] = {}  # done, with param slots
        self._finished: dict[str, None] = {}  # done or failed, first finished first
        self._endpoint: ChannelEndpoint | None = None
        self._stray_bits: list[BitMessage] = []

    def start(self) -> None:
        super().start()
        threading.Thread(target=self._sim_worker, name="simulator",
                         daemon=True).start()

    def stop(self) -> None:
        super().stop()
        try:
            self.tasks.put_nowait(None)  # wake the simulation worker
        except queue.Full:
            pass

    def _queued(self) -> int:
        return self.tasks.qsize()

    # -- receiver side --------------------------------------------------------

    def _handle_run(self, frame: dict):
        job_id = frame.get("job_id")
        if not job_id or "circuit" not in frame:
            return error_frame("SchemaViolation", "run needs job_id and circuit")
        cfg = frame.get("config") or {}
        circuit = circuit_from_obj(frame["circuit"])
        shots = cfg.get("shots", 0)
        if not isinstance(shots, int) or shots < 1:
            return error_frame("SchemaViolation", "config.shots must be >= 1")
        task = QuantumTask(
            job_id=job_id, circuit=circuit, shots=shots,
            seed=cfg.get("seed"), params=cfg.get("params"), plan=cfg.get("plan"),
            part_k=cfg.get("k"), part_index=cfg.get("index"),
            enqueued_at=time.monotonic(),
        )
        return self._enqueue(task)

    def _enqueue(self, task: QuantumTask, rerun: bool = False):
        """Queue `task`; a `run` of a job id already known is acked again
        without queueing anything, so a resent `run` runs once."""
        with self._lock:
            if not rerun and task.job_id in self._states:
                return {"type": "ack", "job_id": task.job_id}
            try:
                self.tasks.put_nowait(task)
            except queue.Full:
                return error_frame("QueueFull", "task queue is full, retry later",
                                   retriable=True)
            self._begin_work()
            self._states[task.job_id] = "queued"
            if rerun:
                self._results.pop(task.job_id, None)  # superseded
                self._finished.pop(task.job_id, None)
        return {"type": "ack", "job_id": task.job_id}

    def _handle_result(self, frame: dict):
        """The job's result or error, or its state while it is pending; with
        `wait_ms`, a pending job is waited for up to that long."""
        job_id = frame.get("job_id", "")
        wait_ms = frame.get("wait_ms", 0)
        if (isinstance(wait_ms, bool) or not isinstance(wait_ms, int)
                or not 0 <= wait_ms <= RESULT_WAIT_MAX_MS):
            return error_frame("SchemaViolation",
                               f"wait_ms must be an integer in 0..{RESULT_WAIT_MAX_MS}")
        with self._settled:
            self._settled.wait_for(
                lambda: self._states.get(job_id) not in ("queued", "running"),
                timeout=wait_ms / 1000)
            state = self._states.get(job_id)
            if state is None:
                return error_frame("UnknownJob", f"no job {job_id!r}", job_id=job_id)
            if state == "evicted":
                return _evicted(job_id)
            if state == "failed":
                code, message = self._failures[job_id]
                return error_frame(code, message, job_id=job_id)
            if state == "done":
                return self._results[job_id].to_obj()
            return {"type": "ack", "job_id": job_id, "state": state}

    def _handle_upgrade(self, frame: dict):
        job_id = frame.get("job_id", "")
        params = frame.get("params")
        with self._lock:
            task = self._retained.get(job_id)
            state = self._states.get(job_id)
        if state == "evicted":
            return _evicted(job_id)
        if task is None and state == "done":  # only tasks with slots are kept
            return error_frame("NoParamSlots",
                               f"job {job_id!r} has no parameter slots", job_id=job_id)
        if task is None or state is None:
            return error_frame("UnknownJob", f"no completed job {job_id!r}",
                              job_id=job_id)
        if state != "done":
            return error_frame("InvalidState",
                               f"job {job_id!r} is {state}, not done", job_id=job_id)
        if not isinstance(params, list) or len(params) != len(task.param_slots):
            return error_frame(
                "ArityMismatch",
                f"expected {len(task.param_slots)} values, got "
                f"{len(params) if isinstance(params, list) else type(params).__name__}",
                job_id=job_id)
        new_task = QuantumTask(
            job_id=job_id, circuit=task.circuit, shots=task.shots,
            seed=task.seed, params=list(params), plan=task.plan,
            enqueued_at=time.monotonic(),
        )
        return self._enqueue(new_task, rerun=True)

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

    def _sim_worker(self) -> None:
        while not self._shutdown.is_set():
            task = self.tasks.get()
            if task is None:
                return
            with self._lock:
                self._states[task.job_id] = "running"
                self._busy = True
            try:
                record = self._execute(task)
                with self._settled:
                    self._results[task.job_id] = record
                    self._states[task.job_id] = "done"
                    if task.param_slots:  # what upgrade_parameters reruns
                        self._retained[task.job_id] = task
                    self._finish(task.job_id)
            except Exception as exc:  # crash isolation
                with self._settled:
                    self._failures[task.job_id] = error_code(exc)
                    self._states[task.job_id] = "failed"
                    self._finish(task.job_id)
            finally:
                with self._lock:
                    self._busy = False
                self._end_work()

    def _finish(self, job_id: str) -> None:
        """Record that `job_id` finished, evict the jobs that finished first
        beyond MAX_FINISHED_JOBS and wake the blocked `result`s; the caller
        holds the lock."""
        self._finished[job_id] = None
        while len(self._finished) > MAX_FINISHED_JOBS:
            old = next(iter(self._finished))
            del self._finished[old]
            self._results.pop(old, None)
            self._failures.pop(old, None)
            self._retained.pop(old, None)
            self._states[old] = "evicted"
        self._settled.notify_all()

    def _execute(self, task: QuantumTask) -> ResultRecord:
        config = self.config
        circuit = task.circuit
        violations = validate(circuit, config.backend)
        if circuit.has_link("quantum") and config.comm_mode != "quantum":
            violations.append(_mode_violation(config.comm_mode, "quantum link"))
        if (circuit.has_link("classical") and task.part_k is None
                and config.comm_mode != "classical"):
            violations.append(_mode_violation(config.comm_mode, "classical link"))
        if violations:
            raise ValidationFailed(violations)

        slots = circuit.param_slots()
        task.param_slots = slots
        if slots:
            if task.params is None:
                raise ValidationFailed(
                    [f"circuit declares parameters {slots} but none were bound"])
            circuit = circuit.bind_params(task.params)

        seed = task.seed
        if seed is None:
            seed = int(np.random.SeedSequence().entropy) & 0x7FFFFFFF
        queue_wait = time.monotonic() - task.enqueued_at

        if task.part_k is not None:
            return self._forward_part(task, circuit, seed, queue_wait)

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
            t0 = time.perf_counter()
            counts, counters = engine.run_branched(
                circuit, task.shots, seed=seed, hooks=hooks,
                max_qubits=config.max_qubits)
            elapsed = time.perf_counter() - t0
        finally:
            if endpoint is not None:
                with self._lock:
                    self._endpoint = None
                endpoint.close()
        return ResultRecord(
            job_id=task.job_id, counts=counts, time_taken=elapsed,
            metadata={"seed": seed, "engine": config.simulator,
                      "shots": task.shots, "rng": engine.RNG_ALGORITHM,
                      "queue_wait": queue_wait, "vqpu_id": config.vqpu_id, **counters})

    def _forward_part(self, task: QuantumTask, circuit: Circuit, seed: int,
                      queue_wait: float) -> ResultRecord:
        if not self.config.executor_endpoint:
            raise ValidationFailed(["no executor attached to this vQPU family"])
        host, port = parse_address(self.config.executor_endpoint)
        try:
            sock = connect(host, port, timeout=10.0)
        except OSError as exc:
            raise PeerUnreachable(
                f"executor {self.config.executor_endpoint}: {exc}") from exc
        try:
            sock.settimeout(None)  # joint simulation may be long
            reply = request(sock, {
                "type": "part", "job_id": task.job_id, "k": task.part_k,
                "index": task.part_index, "circuit": circuit_to_obj(circuit),
                "config": {"shots": task.shots, "seed": seed},
            })
        except (ConnectionClosed, OSError) as exc:
            raise PeerUnreachable(
                f"executor {self.config.executor_endpoint} dropped the "
                f"connection: {exc}") from exc
        finally:
            sock.close()
        if reply.get("type") == "result":
            metadata = dict(reply.get("metadata") or {})
            metadata["queue_wait"] = queue_wait
            metadata["vqpu_id"] = self.config.vqpu_id
            return ResultRecord(job_id=task.job_id, counts=reply["counts"],
                                time_taken=reply["time_taken"], metadata=metadata)
        code = reply.get("code", "InternalError")
        raise ValidationFailed([f"executor rejected part: {code}: "
                                f"{reply.get('message', '')}"])


def _evicted(job_id: str) -> dict:
    return error_frame(*error_code(Evicted(
        f"job {job_id!r} finished more than {MAX_FINISHED_JOBS} jobs ago and "
        "its result was dropped")), job_id=job_id)


def _mode_violation(comm_mode: str, needs: str):
    from .backend import Violation
    return Violation("CommModeMismatch",
                     f"circuit uses a {needs} but vQPU comm_mode is {comm_mode!r}")


if __name__ == "__main__":
    raise SystemExit(VqpuServer.main())
