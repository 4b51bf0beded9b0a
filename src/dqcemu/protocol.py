"""Framed JSON wire protocol shared by vQPU servers, the executor, the
classical channel and the client SDK, and the one service definition both
server processes are built on: their config, their result record and the
service skeleton, job table included.

Frame = 4-byte big-endian payload length + UTF-8 JSON payload. Protocol
messages carry a "type" field; classical-channel bit messages are bare
{"src", "dst", "epoch", "seq", "bits", "count", "job"} objects and are told
apart by the absence of "type".
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import queue
import signal
import socket
import socketserver
import struct
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

from . import engine, registry
from .backend import BackendSpec, backend_from_obj, backend_to_obj, default_backend
from .errors import BindFailure, EmulatorError, Evicted, ReplyTooLarge, SchemaViolation
from .wire import _is_int

_HEADER = struct.Struct(">I")
MAX_FRAME_BYTES = 64 * 1024 * 1024
DRAIN_S = 10.0  # bound on the work a shutdown or TTL expiry waits for
QUEUE_SIZE = 64  # tasks a service holds queued; past it `run` gets QueueFull
#: cap on a `result` frame's wait_ms: how long it may wait for its job
RESULT_WAIT_MAX_MS = 1000
#: finished jobs whose encoded reply and kept task a service keeps; past it,
#: or past MAX_FRAME_BYTES of their replies and tasks, the one that finished
#: first is evicted, its id kept as "evicted" (a `result` answers Evicted)
#: for as many ids again, then forgotten (UnknownJob)
MAX_FINISHED_JOBS = 256
#: bound on the wait of a family's first member, once it stops, for the
#: members it forked: a shutdown or TTL expiry drains each within DRAIN_S
FORKED_WAIT_S = DRAIN_S


class ConnectionClosed(Exception):
    pass


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionClosed("peer closed the connection")
        buf.extend(chunk)
    return bytes(buf)


def encode(obj) -> bytes:
    """A frame's payload: `obj` as compact UTF-8 JSON."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def send_frame(sock: socket.socket, obj: dict | bytes) -> None:
    """Send `obj` as one frame; bytes are a payload encoded already."""
    payload = obj if isinstance(obj, bytes) else encode(obj)
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> dict:
    header = _recv_exact(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} cap")
    return json.loads(_recv_exact(sock, length).decode("utf-8"))


def request(sock: socket.socket, obj: dict) -> dict:
    send_frame(sock, obj)
    return recv_frame(sock)


def connect(host: str, port: int, timeout: float | None = 10.0) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def parse_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    return host, int(port)


def error_frame(code: str, message: str, retriable: bool = False, **extra) -> dict:
    frame = {"type": "error", "code": code, "message": message,
             "retriable": retriable}
    frame.update(extra)
    return frame


def error_code(exc: Exception) -> tuple[str, str]:
    """The wire code and message of a failure: an EmulatorError goes by its
    class name, any other exception is an InternalError."""
    if isinstance(exc, EmulatorError):
        return type(exc).__name__, str(exc)
    return "InternalError", f"{type(exc).__name__}: {exc}"


def job_id_of(frame: dict) -> str:
    """The job a `run`, `result` or `upgrade_parameters` frame names."""
    job_id = frame.get("job_id")
    if not isinstance(job_id, str) or not job_id:
        raise SchemaViolation("job_id", "expected a non-empty string")
    return job_id


def _evicted(job_id: str) -> dict:
    return error_frame(*error_code(Evicted(
        f"job {job_id!r} finished more than {MAX_FINISHED_JOBS} jobs ago and "
        "its result was dropped")), job_id=job_id)


@dataclass
class ServiceConfig:
    """What a family process is started with: a vQPU and the executor alike.

    The process listens on the socket inherited as fd `listen_fd` or, when
    that is -1, on one it binds to `listen_address`. `backend` is the
    family's, `comm_mode` is "none", "classical" or "quantum", and a
    `ttl_seconds` of 0 means no expiry. The registry rows `qraise` writes
    name each process's family."""
    service_id: str
    backend: BackendSpec = field(default_factory=default_backend)
    comm_mode: str = "none"
    ttl_seconds: int = 0
    listen_fd: int = -1
    listen_address: str = "127.0.0.1:0"

    def __post_init__(self):
        if isinstance(self.backend, dict):  # read from a config file
            self.backend = backend_from_obj(self.backend)

    def to_obj(self) -> dict:
        return {**asdict(self), "backend": backend_to_obj(self.backend)}


@dataclass
class ResultRecord:
    job_id: str
    counts: dict[str, int]
    time_taken: float
    metadata: dict = field(default_factory=dict)

    def to_obj(self) -> dict:
        return {"type": "result", "job_id": self.job_id, "counts": self.counts,
                "time_taken": self.time_taken, "metadata": self.metadata}


def run_job(job_id: str, circuit, shots: int, seed=None, hooks=None,
            outputs: int | None = None) -> ResultRecord:
    """Run `circuit` with `engine.run_branched` under `seed`, or a fresh one
    when it is None. The record's `time_taken` is the engine run's; its
    metadata names the seed, the engine, the RNG and the shots, and holds
    the engine's counters."""
    seed = engine.fresh_seed() if seed is None else seed
    t0 = time.perf_counter()
    counts, counters = engine.run_branched(circuit, shots, seed, hooks, outputs)
    elapsed = time.perf_counter() - t0
    return ResultRecord(job_id, counts, elapsed, {
        "seed": seed, "engine": engine.NAME, "shots": shots,
        "rng": engine.RNG_ALGORITHM, **counters})


@dataclass
class Job:
    """A row of the job table."""
    state: str  # queued|running|done|failed|evicted
    task: object = None  # what `_execute` runs; kept once done if `_kept_bytes` > 0
    reply: bytes | None = None  # the encoded `result` reply, once done or failed
    dropped: bool = False  # done, its task too large to keep beside its reply


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        service = self.server.service
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while True:
            try:
                frame = recv_frame(self.request)
            except (ConnectionClosed, OSError, ValueError):
                return
            service._begin_work()
            try:
                reply = service._dispatch(frame)
                if reply is not None:
                    send_frame(self.request, reply)
            except OSError:
                return
            finally:
                service._end_work()


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class FramedService:
    """A long-lived framed-JSON TCP process: the vQPU and the executor.

    `start` serves every connection on a receiver thread, on the listening
    socket its ServiceConfig names, starts the `simulator` thread and the
    TTL timer.

    Both keep one job table. A `run` frame's job id, shots and seed are
    checked here, and `_decode` decodes and checks the task it asks for; a
    job id the table holds is acked again and runs nothing, any other task
    is queued with `_queue`. The `simulator` thread runs the
    queued tasks one at a time with `_execute` and adds to each result
    record the time its task waited in the queue (`queue_wait`). A finished
    job keeps the reply `result` sends for it, its result or error encoded
    once, and a done job that can run again keeps its task (`_kept_bytes`).
    `result` answers it, waiting up to `wait_ms` for a pending job. Past
    MAX_FINISHED_JOBS finished jobs, or MAX_FRAME_BYTES bytes of their
    replies and kept tasks, the one that finished first is evicted, and
    past as many evicted ids the one evicted first is forgotten, so the
    table holds at most 2 * MAX_FINISHED_JOBS finished jobs.

    Each frame is answered by `handlers[frame type]`, frames without a type
    by `handlers[None]` where there is one; a reply of None sends nothing. A
    frame that is not a JSON object or names no handler gets
    SchemaViolation. A handler's EmulatorError becomes an error frame under
    its class name and any other exception an InternalError, so the
    receiver keeps serving.

    `shutdown` and TTL expiry take the same drain path: frames listed in
    `work_frames` are refused with Expired, the process leaves the registry,
    the requests being answered and the work a subclass counts with
    `_begin_work`/`_end_work` get up to DRAIN_S seconds to finish, and the
    service stops.
    """

    work_frames: tuple[str, ...] = ()

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.handlers = {"status": self._handle_status,
                         "shutdown": self._handle_shutdown,
                         "run": self._handle_run, "result": self._handle_result}
        self.host = ""
        self.port = 0
        self._busy = False
        self._draining = False
        self._work = 0
        self._work_changed = threading.Condition()
        self._shutdown = threading.Event()
        self._tcp: _Server | None = None
        self.tasks: queue.Queue = queue.Queue(QUEUE_SIZE)  # (task, enqueued at)
        self._lock = threading.Lock()
        self._settled = threading.Condition(self._lock)  # a job done or failed
        self._jobs: dict[str, Job] = {}
        self._finished: dict[str, int] = {}  # bytes stored, first finished first
        self._stored = 0  # bytes of the finished jobs' replies and kept tasks
        self._evicted: dict[str, None] = {}  # first evicted first

    def _decode(self, job_id: str, frame: dict, config: dict):
        """The task of a `run` frame, decoded and checked outside the lock;
        a frame it fails is answered with the error raised."""
        raise NotImplementedError

    def _execute(self, task):
        """Run `task` on the simulator thread; returns its result record."""
        raise NotImplementedError

    def _kept_bytes(self, task) -> int:
        """What a done job is charged for keeping its task to be run again,
        in bytes; 0 where it keeps none."""
        return 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        fd = self.config.listen_fd
        try:  # an inherited socket is bound and listening already
            self._tcp = _Server(parse_address(self.config.listen_address),
                                _Handler, bind_and_activate=fd < 0)
            if fd >= 0:
                self._tcp.socket.close()
                self._tcp.socket = socket.socket(fileno=fd)
        except OSError as exc:
            raise BindFailure(f"cannot listen on {self.config.listen_address} "
                              f"(listen_fd {fd}): {exc}") from exc
        self._tcp.service = self
        self.host, self.port = self._tcp.socket.getsockname()[:2]
        threading.Thread(target=self._tcp.serve_forever, name="receiver",
                         daemon=True).start()
        if self.config.ttl_seconds > 0:
            threading.Thread(target=self._expire, name="ttl", daemon=True).start()
        threading.Thread(target=self._sim_worker, name="simulator",
                         daemon=True).start()

    def stop(self) -> None:
        """Stop at once, without draining."""
        self._shutdown.set()
        if self._tcp is not None:
            self._tcp.shutdown()
            self._tcp.server_close()
        try:
            self.tasks.put_nowait(None)  # wake the simulation worker
        except queue.Full:
            pass

    def wait(self) -> None:
        self._shutdown.wait()

    def _expire(self) -> None:
        if not self._shutdown.wait(self.config.ttl_seconds):
            self._drain()

    def _drain(self) -> None:
        self._draining = True
        try:
            registry.remove_entries(lambda e: e.vqpu_id == self.config.service_id)
        except OSError:
            pass
        with self._work_changed:
            self._work_changed.wait_for(lambda: self._work == 0, timeout=DRAIN_S)
        self.stop()

    def _begin_work(self) -> None:
        with self._work_changed:
            self._work += 1

    def _end_work(self) -> None:
        with self._work_changed:
            self._work -= 1
            self._work_changed.notify_all()

    # -- frames ---------------------------------------------------------------

    def _dispatch(self, frame):
        if not isinstance(frame, dict):
            return error_frame("SchemaViolation",
                               f"frame is not a JSON object: {json.dumps(frame)[:40]}")
        kind = frame.get("type")
        if self._draining and kind in self.work_frames:
            return error_frame("Expired",
                               f"{self.config.service_id} is shutting down")
        handler = (self.handlers.get(kind)
                   if kind is None or isinstance(kind, str) else None)
        if handler is None:
            return error_frame("SchemaViolation", f"unknown frame type {kind!r}")
        try:
            return handler(frame)
        except Exception as exc:  # the receiver must keep serving
            return error_frame(*error_code(exc))

    def _handle_run(self, frame: dict) -> dict:
        job_id, config = job_id_of(frame), frame.get("config", {})
        if not isinstance(config, dict):
            raise SchemaViolation("config", "expected an object")
        if not _is_int(config.get("shots")) or config["shots"] < 1:
            raise SchemaViolation("config.shots", "expected an integer >= 1")
        seed = config.get("seed")
        if seed is not None and (not _is_int(seed) or seed < 0):
            raise SchemaViolation("config.seed", "expected an integer >= 0")
        task = self._decode(job_id, frame, config)
        with self._lock:
            if job_id in self._jobs:
                return {"type": "ack", "job_id": job_id}  # a resent run runs once
            return self._queue(task)

    def _queue(self, task) -> dict:
        """Queue `task` as a run of its job; the caller holds the lock."""
        try:
            self.tasks.put_nowait((task, time.monotonic()))
        except queue.Full:
            return error_frame("QueueFull", "task queue is full, retry later",
                               retriable=True)
        self._begin_work()
        self._stored -= self._finished.pop(task.job_id, 0)  # a job run again finishes anew
        self._jobs[task.job_id] = Job("queued", task)
        return {"type": "ack", "job_id": task.job_id}

    def _handle_result(self, frame: dict) -> dict | bytes:
        """The job's encoded result or error, or its state while it is
        pending; with `wait_ms`, a pending job is waited for up to that long."""
        job_id, wait_ms = job_id_of(frame), frame.get("wait_ms", 0)
        if (isinstance(wait_ms, bool) or not isinstance(wait_ms, int)
                or not 0 <= wait_ms <= RESULT_WAIT_MAX_MS):
            return error_frame("SchemaViolation",
                               f"wait_ms must be an integer in 0..{RESULT_WAIT_MAX_MS}")
        with self._settled:
            self._settled.wait_for(
                lambda: job_id not in self._jobs or self._jobs[job_id].state
                in ("done", "failed", "evicted"), timeout=wait_ms / 1000)
            job = self._jobs.get(job_id)
            if job is None:
                return error_frame("UnknownJob", f"no job {job_id!r}", job_id=job_id)
            if job.state == "evicted":
                return _evicted(job_id)
            if job.reply is not None:
                return job.reply
            return {"type": "ack", "job_id": job_id, "state": job.state}

    def _sim_worker(self) -> None:
        while not self._shutdown.is_set() and (item := self.tasks.get()) is not None:
            task, enqueued_at = item
            queue_wait = time.monotonic() - enqueued_at
            with self._lock:
                self._jobs[task.job_id].state = "running"
                self._busy = True
            try:
                record = self._execute(task)
                record.metadata["queue_wait"] = queue_wait
                self._finish(task, record.to_obj())
            except Exception as exc:  # crash isolation
                self._finish(task, failure=error_code(exc))
            finally:
                with self._lock:
                    self._busy = False
                self._end_work()

    def _finish(self, task, result: dict | None = None, failure=None) -> None:
        """Record that `task`'s job is done with `result` or failed with
        `failure` (code, message), keeping the reply `result` sends for it,
        encoded here, outside the lock; a result larger than a frame fails
        the job with ReplyTooLarge, as no client could read it. A done job
        keeps its task if `_kept_bytes` charges it and the charge fits in a
        frame beside the reply (else the task is `dropped`). Then evict the
        jobs that finished first beyond MAX_FINISHED_JOBS jobs or
        MAX_FRAME_BYTES bytes of replies and kept tasks, forget the ids
        evicted first beyond MAX_FINISHED_JOBS, and wake the blocked
        `result`s."""
        reply = None if result is None else encode(result)
        if reply is not None and len(reply) > MAX_FRAME_BYTES:
            reply, failure = None, error_code(ReplyTooLarge(
                f"the result of {len(reply)} bytes exceeds the {MAX_FRAME_BYTES} "
                "bytes a frame may carry"))
        if reply is None:
            reply = encode(error_frame(*failure, job_id=task.job_id))
        kept = 0 if failure else self._kept_bytes(task)
        if dropped := len(reply) + kept > MAX_FRAME_BYTES:
            kept = 0
        with self._settled:
            self._jobs[task.job_id] = Job("failed" if failure else "done",
                                          task if kept else None, reply, dropped)
            self._finished[task.job_id] = len(reply) + kept
            self._stored += len(reply) + kept
            while (len(self._finished) > MAX_FINISHED_JOBS
                   or self._stored > MAX_FRAME_BYTES):
                old = next(iter(self._finished))
                self._stored -= self._finished.pop(old)
                self._jobs[old] = Job("evicted")
                self._evicted[old] = None
            while len(self._evicted) > MAX_FINISHED_JOBS:
                old = next(iter(self._evicted))
                del self._evicted[old], self._jobs[old]
            self._settled.notify_all()

    def _handle_status(self, frame: dict) -> dict:
        return {"type": "ack", "state": "busy" if self._busy else "idle",
                "queued": self.tasks.qsize()}

    def _handle_shutdown(self, frame: dict) -> dict:
        self._draining = True  # before the ack: no work frame after it is taken
        threading.Thread(target=self._drain, name="drain", daemon=True).start()
        return {"type": "ack"}

    @classmethod
    def main(cls, argv=None) -> int:
        """Process entry point of a family's first member: read the family
        from --config (a JSON file, or - for stdin), raise it and serve as
        its first member until the service stops.

        The family is {"members": [{"kind": "module:Class", "config": a
        ServiceConfig}, ...]}, the first member run as `cls`. This process
        imports every member's kind and builds its own service; before it
        starts any thread it forks each other member (`_serve_forked`),
        writes their pids on one line to its stdout, and then points its
        stdout at its stderr. The members it forked are reaped as they exit
        (SIGCHLD is ignored); once it stops, on its own or at SIGTERM, it
        waits up to FORKED_WAIT_S for those still running before it exits."""
        parser = argparse.ArgumentParser(prog=cls.__name__)
        parser.add_argument("--config", required=True,
                            type=argparse.FileType("r", encoding="utf-8"),
                            help="path to a JSON family, or - for stdin")
        args = parser.parse_args(argv)
        with args.config as fh:
            first, *others = json.load(fh)["members"]
        kinds = {first["kind"]: cls}
        for member in others:
            if member["kind"] not in kinds:
                module, _, name = member["kind"].partition(":")
                kinds[member["kind"]] = getattr(importlib.import_module(module), name)
        # a bad config of its own fails the family before anything is forked
        service = cls(ServiceConfig(**first["config"]))
        listen_fds = [m["config"].get("listen_fd", -1) for m in (first, *others)]
        sys.stdout.flush()
        sys.stderr.flush()
        pids = []
        for member in others:
            if (pid := os.fork()) == 0:
                _serve_forked(kinds[member["kind"]], member["config"], listen_fds)
            pids.append(pid)
        _close_all_but(listen_fds, listen_fds[0])
        print(*pids, flush=True)
        os.dup2(2, 1)
        signal.signal(signal.SIGCHLD, signal.SIG_IGN)  # no forked member stays a zombie,
        with contextlib.suppress(ChildProcessError):  # nor one that exited before this
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
        try:
            service.start()
            service.wait()
        finally:
            _wait_for_children(FORKED_WAIT_S)
        return 0


def _serve_forked(cls, config: dict, listen_fds: list[int]) -> None:
    """Serve a member forked by its family's first member, as `cls` on
    `config`: in a session of its own, holding only its own listening
    socket, with its stdout and stderr on its own log. Never returns: it
    exits the process when the service stops, with 1 if it fails."""
    code = 1
    try:
        os.setsid()
        _close_all_but(listen_fds, config.get("listen_fd", -1))
        log = os.open(registry.cunqa_home() / "logs" / f"{config['service_id']}.log",
                      os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.dup2(log, 1)
        os.dup2(log, 2)
        os.close(log)
        service = cls(ServiceConfig(**config))
        service.start()
        service.wait()
        code = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())  # the traceback, to its log
    finally:
        with contextlib.suppress(OSError, ValueError):
            sys.stdout.flush()
            sys.stderr.flush()
        os._exit(code)


def _close_all_but(fds: list[int], own: int) -> None:
    """Close the inherited listening sockets of the other family members."""
    for fd in fds:
        if fd >= 0 and fd != own:
            os.close(fd)


def _wait_for_children(timeout: float) -> None:
    """Wait up to `timeout` s until no child of this process runs."""
    deadline = time.monotonic() + timeout
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(-1, os.WNOHANG) == (0, 0) and time.monotonic() < deadline:
            time.sleep(0.01)
