"""Client SDK: discover vQPUs, submit circuits under any of the three
communication models, and collect results asynchronously.

Submission returns immediately after the server acknowledges the enqueue;
``QJob.result`` blocks until the job finishes, on `result` frames the server
answers once the job is done or failed (or after up to 1 s). The parts of a
quantum-model program go to the family executor in one `run` frame, and
every part's QJob resolves to the one aggregated result.
"""

from __future__ import annotations

import contextlib
import threading
import uuid

import numpy as np

from . import registry
from .backend import BackendSpec, load_backend, validate
from .circuit import Circuit
from .errors import (
    ERROR_CODES,
    CommModeMismatch,
    DistributedInstructionPresent,
    DuplicateId,
    EmulatorError,
    FamilyMismatch,
    InvalidState,
    JobFailed,
    NoQpusAvailable,
    NotEnoughQpus,
    NotSupported,
    PeerUnreachable,
    UnknownPeerId,
    UnreadableReply,
    ValidationFailed,
)
from .protocol import (
    RESULT_WAIT_MAX_MS,
    ConnectionClosed,
    ResultRecord,
    connect,
    parse_address,
    request,
)
from .registry import RegistryEntry, pid_alive
from .wire import circuit_to_obj

_STATE_RANK = {"submitted": 0, "running": 1, "done": 2, "failed": 2}
_WIRE_STATE = {"queued": "submitted", "running": "running"}


#: seconds a server may take to answer beyond the `wait_ms` a request asks
#: it to wait: the slowest reply measured, the ack of a `run` frame of
#: MAX_FRAME_BYTES, came after about 18 s on a 2-vCPU host (extrapolated
#: from 4.1 s at 14 MiB); a request not answered by then counts as a
#: transport failure
REPLY_TIMEOUT_S = 30.0


class QpuConnection:
    """One lazily opened wire session per server; request/reply under a
    lock, with a single reconnect attempt on transport failure, after which
    the server counts as gone (PeerUnreachable). A reply that does not come
    within the request's `wait_ms` and REPLY_TIMEOUT_S is such a failure,
    so a request to a frozen server ends within twice that. A reply that
    `recv_frame` refuses closes the session, whose stream may hold its
    unread payload, and raises UnreadableReply; the next request reconnects."""

    def __init__(self, host: str, port: int, frame_log: list[str] | None = None):
        self.host = host
        self.port = port
        self._sock = None
        self._lock = threading.Lock()
        # frame types sent, for diagnostics
        self.frame_log: list[str] = [] if frame_log is None else frame_log

    def _ensure(self, timeout: float):
        if self._sock is None:
            self._sock = connect(self.host, self.port, timeout=10.0)
        self._sock.settimeout(timeout)
        return self._sock

    def request(self, frame: dict) -> dict:
        timeout = frame.get("wait_ms", 0) / 1000 + REPLY_TIMEOUT_S
        with self._lock:
            self.frame_log.append(frame.get("type", "?"))
            for attempt in (1, 2):
                try:
                    return request(self._ensure(timeout), frame)
                except (ConnectionClosed, OSError) as exc:
                    self.close_locked()
                    if attempt == 2:
                        raise PeerUnreachable(f"{self.host}:{self.port}: {exc}") from exc
                except ValueError as exc:  # an oversized header or a payload not JSON
                    self.close_locked()
                    raise UnreadableReply(f"{self.host}:{self.port}: {exc}") from exc

    def close_locked(self):
        if self._sock is not None:
            with contextlib.suppress(OSError):
                self._sock.close()
            self._sock = None

    def close(self):
        with self._lock:
            self.close_locked()


class QpuHandle:
    """A live registry entry plus its wire session; never mutates the registry."""

    def __init__(self, entry: RegistryEntry):
        self.entry = entry
        self.connection = QpuConnection(entry.host, entry.port)
        self._executor: QpuConnection | None = None
        self._backend: BackendSpec | None = None

    @property
    def executor(self) -> QpuConnection:
        """A wire session to the family executor, opened on first use; it
        logs its frames to `connection.frame_log`."""
        if self._executor is None:
            self._executor = QpuConnection(
                *parse_address(self.entry.executor_endpoint),
                frame_log=self.connection.frame_log)
        return self._executor

    @property
    def backend(self) -> BackendSpec:
        if self._backend is None:
            self._backend = load_backend(self.entry.backend_path)
        return self._backend

    def status(self) -> dict:
        return self.connection.request({"type": "status"})

    def run(self, circuit: Circuit, **options) -> "QJob":
        return run(self, circuit, **options)

    def close(self) -> None:
        self.connection.close()
        if self._executor is not None:
            self._executor.close()

    def __repr__(self) -> str:
        return f"QpuHandle({self.entry.vqpu_id} @ {self.entry.endpoint})"


class QJob:
    """Tracks one asynchronous submission; state transitions are monotone.
    `connection` is the server that runs the job: the target vQPU's, or
    for a quantum-model part the family executor's."""

    def __init__(self, job_id: str, target: QpuHandle,
                 connection: QpuConnection | None = None):
        self.job_id = job_id
        self.target = target
        self.connection = connection or target.connection
        self.state = "submitted"
        self.cached_result: ResultRecord | None = None
        self._failure: tuple[str, str] | None = None

    def _advance(self, state: str) -> None:
        if _STATE_RANK[state] >= _STATE_RANK[self.state]:
            self.state = state

    def poll(self) -> str:
        """One nonblocking status refresh; returns the current state."""
        return self._refresh(0)

    def _refresh(self, wait_ms: int) -> str:
        """One `result` frame, which the server answers once the job is
        done or failed or `wait_ms` have passed; returns the current state."""
        if self.state in ("done", "failed"):
            return self.state
        try:
            reply = self.connection.request(
                {"type": "result", "job_id": self.job_id, "wait_ms": wait_ms})
        except (PeerUnreachable, UnreadableReply) as exc:
            reply = {"type": "error", "code": type(exc).__name__, "message": str(exc)}
        kind = reply.get("type")
        if kind == "result":
            self.cached_result = ResultRecord(
                job_id=reply["job_id"], counts=reply["counts"],
                time_taken=reply["time_taken"], metadata=reply.get("metadata", {}))
            self._advance("done")
        elif kind == "error":
            self._failure = (reply.get("code", "Error"), reply.get("message", ""))
            self._advance("failed")
        else:
            self._advance(_WIRE_STATE.get(reply.get("state"), "submitted"))
        return self.state

    def wait(self) -> ResultRecord:
        """Block until done; raises JobFailed with the server diagnostic."""
        while self._refresh(RESULT_WAIT_MAX_MS) not in ("done", "failed"):
            pass
        if self.state == "failed":
            code, message = self._failure or ("Error", "")
            raise JobFailed(self.job_id, f"{code}: {message}")
        return self.cached_result

    @property
    def result(self) -> ResultRecord:
        return self.wait()

    def __repr__(self) -> str:
        return f"QJob({self.job_id}, {self.state})"


def get_qpus(on_node: bool = True, family: str | None = None) -> list[QpuHandle]:
    """Live vQPU handles from the registry.

    With on_node=True (the default), families raised without --co-located
    are restricted to entries sharing the caller's node label; co-located
    families are visible regardless.
    """
    entries = registry.read_registry()
    node = registry.current_node()
    handles = []
    for e in entries:
        if e.is_executor:
            continue
        if not pid_alive(e.pid):
            continue
        if family is not None and e.family != family:
            continue
        if on_node and not e.co_located and e.node != node:
            continue
        handles.append(QpuHandle(e))
    if not handles:
        raise NoQpusAvailable(
            f"no live vQPUs (family={family!r}, on_node={on_node}, node={node!r})")
    return handles


def _new_job_id() -> str:
    return "job-" + uuid.uuid4().hex[:10]


def _part_seed(seed, index: int):
    if seed is None:
        return None
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(ss.generate_state(1)[0])


def _submit(connection: QpuConnection, job_id: str, config: dict,
            **circuits) -> None:
    """Send one `run` frame whose circuit field, `circuit` on a vQPU or
    `circuits` on the executor, is the one keyword given."""
    try:
        reply = connection.request({"type": "run", "job_id": job_id, **circuits,
                                    "config": config})
    except (PeerUnreachable, UnreadableReply) as exc:
        raise JobFailed(job_id, f"{type(exc).__name__}: {exc}") from exc
    if reply.get("type") != "ack":
        raise JobFailed(job_id, f"{reply.get('code')}: {reply.get('message')}")


def _checked(circuit: Circuit, qpus: list[QpuHandle]) -> dict:
    """The wire form of a circuit validated for each backend file of `qpus`."""
    if circuit.has_distributed():
        raise DistributedInstructionPresent(
            f"circuit {circuit.id!r} has distributed instructions; "
            "use run_distributed")
    for backend in {h.entry.backend_path: h.backend for h in qpus}.values():
        violations = validate(circuit, backend)
        if violations:
            raise ValidationFailed(violations)
    return circuit_to_obj(circuit)


def _enqueue(qpu: QpuHandle, obj: dict, shots: int, seed, params=None) -> QJob:
    """Submit a circuit's checked wire form as a job of its own."""
    config = {"shots": shots, "seed": seed,
              "params": None if params is None else list(params)}
    job_id = _new_job_id()
    _submit(qpu.connection, job_id, config, circuit=obj)
    return QJob(job_id, qpu)


def run(qpu: QpuHandle, circuit: Circuit, shots: int = 1024, seed=None,
        params=None) -> QJob:
    """Submit a non-distributed circuit; returns as soon as it is enqueued."""
    return _enqueue(qpu, _checked(circuit, [qpu]), shots, seed, params)


def run_distributed(circuits: list[Circuit], qpus: list[QpuHandle],
                    shots: int = 1024, seed=None) -> list[QJob]:
    """Submit the parts of one distributed program as one job, one circuit
    per vQPU; a program that names a vQPU twice is refused (DuplicateId).

    Classical model: each vQPU runs its part under the program's job id, in
    lockstep over a shared channel plan. Quantum model: the parts go in one
    frame to the executor the chosen vQPUs share, which runs them as one
    job; every returned QJob resolves to the same aggregated result.
    """
    if len(qpus) < len(circuits):
        raise NotEnoughQpus(
            f"{len(circuits)} circuits need at least that many vQPUs, "
            f"got {len(qpus)}")
    chosen = qpus[:len(circuits)]
    ids = [c.id for c in circuits]
    vqpus = [h.entry.vqpu_id for h in chosen]
    for what, names in (("circuit ids", ids), ("vQPUs", vqpus)):
        if len(set(names)) != len(names):
            raise DuplicateId(f"duplicate {what}: {names}")
    for c in circuits:
        for peer in c.peer_ids():
            if peer not in ids:
                raise UnknownPeerId(
                    f"circuit {c.id!r} references {peer!r}, which is not submitted")

    quantum = any(c.has_link("quantum") for c in circuits)
    classical = any(c.has_link("classical") for c in circuits)
    required = "quantum" if quantum else "classical" if classical else None
    if required is not None:
        wrong = [h.entry.vqpu_id for h in chosen
                 if h.entry.comm_mode != required]
        if wrong:
            raise CommModeMismatch(
                f"{required}-communication run needs comm_mode={required!r} "
                f"on every vQPU; violated by {wrong}")
    if required == "quantum":
        executors = {h.entry.executor_endpoint for h in chosen}
        if len(executors) > 1 or None in executors:
            raise FamilyMismatch(
                "the parts of a quantum-communication program run on one "
                f"executor, but the chosen vQPUs name {sorted(map(str, executors))}")

    for circuit, handle in zip(circuits, chosen):
        violations = validate(circuit, handle.backend)
        if violations:
            raise ValidationFailed(violations)

    job_id = _new_job_id()
    if required == "quantum":
        executor = chosen[0].executor
        _submit(executor, job_id, {"shots": shots, "seed": seed},
                circuits=[circuit_to_obj(c) for c in circuits])
        return [QJob(job_id, handle, executor) for handle in chosen]
    plan = {c.id: h.entry.endpoint for c, h in zip(circuits, chosen)}
    for i, (circuit, handle) in enumerate(zip(circuits, chosen)):
        _submit(handle.connection, job_id,
                {"shots": shots, "seed": _part_seed(seed, i), "plan": plan},
                circuit=circuit_to_obj(circuit))
    return [QJob(job_id, handle) for handle in chosen]


def gather(jobs: list[QJob]) -> list[ResultRecord]:
    """Barrier over all jobs, preserving input order; one failure does not
    block the others (their results stay cached on the jobs)."""
    records: list[ResultRecord | None] = []
    first_failure: JobFailed | None = None
    for job in jobs:
        try:
            records.append(job.wait())
        except JobFailed as exc:
            if first_failure is None:
                first_failure = exc
            records.append(None)
    if first_failure is not None:
        raise first_failure
    return records  # type: ignore[return-value]


def upgrade_parameters(job: QJob, params) -> QJob:
    """Rebind the parameter slots of a completed job's retained circuit and
    re-run it without re-uploading the circuit."""
    if job.connection is not job.target.connection:
        raise NotSupported(f"job {job.job_id!r} ran on the family executor, "
                           "which keeps no parameter slots")
    if job.state != "done":
        job.poll()
    if job.state != "done":
        raise InvalidState(f"job {job.job_id!r} is {job.state}; wait for result "
                           "before upgrading parameters")
    reply = job.target.connection.request({
        "type": "upgrade_parameters", "job_id": job.job_id,
        "params": list(params),
    })
    if reply.get("type") != "ack":
        code = reply.get("code", "Error")
        raise ERROR_CODES.get(code, EmulatorError)(f"{code}: {reply.get('message', '')}")
    return QJob(job.job_id, job.target)


def split_shots(total: int, k: int) -> list[int]:
    """Divide shots across k workers; remainders go to the lowest indices."""
    if k < 1:
        raise ValueError("need at least one worker")
    base, extra = divmod(total, k)
    return [base + (1 if i < extra else 0) for i in range(k)]


def distribute_shots(total_shots: int, qpus: list[QpuHandle], circuit: Circuit,
                     seed=None) -> list[QJob]:
    """Shot-distribution helper: the same circuit on every handle, with the
    total split evenly (remainder to the lowest-index handles). The circuit
    is validated once per distinct backend and encoded once, before any
    frame is sent."""
    shares = split_shots(total_shots, len(qpus))
    obj = _checked(circuit, [h for h, share in zip(qpus, shares) if share])
    return [_enqueue(handle, obj, share, _part_seed(seed, i))
            for i, (handle, share) in enumerate(zip(qpus, shares)) if share]


def aggregate_counts(records) -> dict[str, int]:
    """Sum counts over records (or plain counts dicts)."""
    total: dict[str, int] = {}
    for rec in records:
        counts = rec.counts if isinstance(rec, ResultRecord) else rec
        for key, num in counts.items():
            total[key] = total.get(key, 0) + num
    return total
