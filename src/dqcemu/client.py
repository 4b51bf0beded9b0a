"""Client SDK: discover vQPUs, submit circuits under any of the three
communication models, and collect results asynchronously.

Submission returns immediately after the server acknowledges the enqueue;
``QJob.result`` blocks until the job finishes, on `result` frames the vQPU
answers once the job is done or failed (or after up to 1 s). Quantum-model
jobs are submitted part-by-part to their vQPUs, which forward them to the
family executor and proxy back one aggregated result shared by all parts.
"""

from __future__ import annotations

import threading
import uuid

import numpy as np

from . import registry
from .backend import BackendSpec, load_backend, validate
from .circuit import Circuit
from .errors import (
    CommModeMismatch,
    DistributedInstructionPresent,
    DuplicateId,
    EmulatorError,
    InvalidState,
    JobFailed,
    NoQpusAvailable,
    NotEnoughQpus,
    UnknownPeerId,
    ValidationFailed,
)
from .protocol import connect, request
from .registry import RegistryEntry, pid_alive
from .server import RESULT_WAIT_MAX_MS, ResultRecord
from .wire import circuit_to_obj

_STATE_RANK = {"submitted": 0, "running": 1, "done": 2, "failed": 2}
_WIRE_STATE = {"queued": "submitted", "running": "running"}


class QpuConnection:
    """One lazily opened wire session per vQPU; request/reply under a lock,
    with a single reconnect attempt on transport failure."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._sock = None
        self._lock = threading.Lock()
        self.frame_log: list[str] = []  # frame types sent, for diagnostics

    def _ensure(self):
        if self._sock is None:
            self._sock = connect(self.host, self.port, timeout=10.0)
            self._sock.settimeout(None)
        return self._sock

    def request(self, frame: dict) -> dict:
        with self._lock:
            self.frame_log.append(frame.get("type", "?"))
            try:
                return request(self._ensure(), frame)
            except OSError:
                self.close_locked()
                return request(self._ensure(), frame)

    def close_locked(self):
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self):
        with self._lock:
            self.close_locked()


class QpuHandle:
    """A live registry entry plus its wire session; never mutates the registry."""

    def __init__(self, entry: RegistryEntry):
        self.entry = entry
        self.connection = QpuConnection(entry.host, entry.port)
        self._backend: BackendSpec | None = None

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

    def __repr__(self) -> str:
        return f"QpuHandle({self.entry.vqpu_id} @ {self.entry.endpoint})"


class QJob:
    """Tracks one asynchronous submission; state transitions are monotone."""

    def __init__(self, job_id: str, target: QpuHandle):
        self.job_id = job_id
        self.target = target
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
        """One `result` frame, which the vQPU answers once the job is done
        or failed or `wait_ms` have passed; returns the current state."""
        if self.state in ("done", "failed"):
            return self.state
        reply = self.target.connection.request(
            {"type": "result", "job_id": self.job_id, "wait_ms": wait_ms})
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


def _submit(handle: QpuHandle, job_id: str, circuit: Circuit, config: dict) -> QJob:
    reply = handle.connection.request({
        "type": "run", "job_id": job_id,
        "circuit": circuit_to_obj(circuit), "config": config,
    })
    if reply.get("type") != "ack":
        raise JobFailed(job_id, f"{reply.get('code')}: {reply.get('message')}")
    return QJob(job_id, handle)


def run(qpu: QpuHandle, circuit: Circuit, shots: int = 1024, seed=None,
        params=None) -> QJob:
    """Submit a non-distributed circuit; returns as soon as it is enqueued."""
    if circuit.has_distributed():
        raise DistributedInstructionPresent(
            f"circuit {circuit.id!r} has distributed instructions; "
            "use run_distributed")
    violations = validate(circuit, qpu.backend)
    if violations:
        raise ValidationFailed(violations)
    config = {"shots": shots}
    if seed is not None:
        config["seed"] = seed
    if params is not None:
        config["params"] = list(params)
    return _submit(qpu, _new_job_id(), circuit, config)


def run_distributed(circuits: list[Circuit], qpus: list[QpuHandle],
                    shots: int = 1024, seed=None) -> list[QJob]:
    """Submit the parts of one distributed program, one circuit per vQPU.

    Classical model: each vQPU runs its part in lockstep over a shared
    channel plan. Quantum model: each vQPU forwards its part to the family
    executor; every returned QJob resolves to the same aggregated result.
    """
    if len(qpus) < len(circuits):
        raise NotEnoughQpus(
            f"{len(circuits)} circuits need at least that many vQPUs, "
            f"got {len(qpus)}")
    ids = [c.id for c in circuits]
    if len(set(ids)) != len(ids):
        raise DuplicateId(f"duplicate circuit ids: {ids}")
    known = set(ids)
    for c in circuits:
        for peer in c.peer_ids():
            if peer not in known:
                raise UnknownPeerId(
                    f"circuit {c.id!r} references {peer!r}, which is not submitted")

    quantum = any(c.has_link("quantum") for c in circuits)
    classical = any(c.has_link("classical") for c in circuits)
    required = "quantum" if quantum else "classical" if classical else None
    chosen = qpus[:len(circuits)]
    if required is not None:
        wrong = [h.entry.vqpu_id for h in chosen
                 if h.entry.comm_mode != required]
        if wrong:
            raise CommModeMismatch(
                f"{required}-communication run needs comm_mode={required!r} "
                f"on every vQPU; violated by {wrong}")

    for circuit, handle in zip(circuits, chosen):
        violations = validate(circuit, handle.backend)
        if violations:
            raise ValidationFailed(violations)

    jobs = []
    if required == "quantum":
        job_id = _new_job_id()
        for i, (circuit, handle) in enumerate(zip(circuits, chosen)):
            config = {"shots": shots, "k": len(circuits), "index": i}
            if seed is not None:
                config["seed"] = seed
            jobs.append(_submit(handle, job_id, circuit, config))
    else:
        base = _new_job_id()
        plan = {c.id: h.entry.endpoint for c, h in zip(circuits, chosen)}
        for i, (circuit, handle) in enumerate(zip(circuits, chosen)):
            config = {"shots": shots}
            if required == "classical":
                config["plan"] = plan
            part_seed = _part_seed(seed, i)
            if part_seed is not None:
                config["seed"] = part_seed
            jobs.append(_submit(handle, f"{base}/{circuit.id}", circuit, config))
    return jobs


def result(job: QJob) -> ResultRecord:
    return job.wait()


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
        exc_type = _upgrade_error(code)
        raise exc_type(f"{code}: {reply.get('message', '')}")
    return QJob(job.job_id, job.target)


def _upgrade_error(code: str):
    from . import errors
    return errors.ERROR_CODES.get(code, EmulatorError)


def split_shots(total: int, k: int) -> list[int]:
    """Divide shots across k workers; remainders go to the lowest indices."""
    if k < 1:
        raise ValueError("need at least one worker")
    base, extra = divmod(total, k)
    return [base + (1 if i < extra else 0) for i in range(k)]


def distribute_shots(total_shots: int, qpus: list[QpuHandle], circuit: Circuit,
                     seed=None) -> list[QJob]:
    """Shot-distribution helper: the same circuit on every handle, with the
    total split evenly (remainder to the lowest-index handles)."""
    shares = split_shots(total_shots, len(qpus))
    jobs = []
    for i, (handle, share) in enumerate(zip(qpus, shares)):
        if share == 0:
            continue
        jobs.append(run(handle, circuit, shots=share, seed=_part_seed(seed, i)))
    return jobs


def aggregate_counts(records) -> dict[str, int]:
    """Sum counts over records (or plain counts dicts)."""
    total: dict[str, int] = {}
    for rec in records:
        counts = rec.counts if isinstance(rec, ResultRecord) else rec
        for key, num in counts.items():
            total[key] = total.get(key, 0) + num
    return total
