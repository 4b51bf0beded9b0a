"""Framed JSON wire protocol shared by vQPU servers, the executor, the
classical channel and the client SDK, and the service skeleton both server
processes are built on.

Frame = 4-byte big-endian payload length + UTF-8 JSON payload. Protocol
messages carry a "type" field; classical-channel bit messages are bare
{"src", "dst", "epoch", "seq", "bit"} objects and are told apart by the
absence of "type".
"""

from __future__ import annotations

import argparse
import json
import socket
import socketserver
import struct
import threading

from . import registry
from .errors import BindFailure, EmulatorError

_HEADER = struct.Struct(">I")
MAX_FRAME_BYTES = 64 * 1024 * 1024
DRAIN_S = 10.0  # bound on the work a shutdown or TTL expiry waits for


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


def send_frame(sock: socket.socket, obj: dict) -> None:
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
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
    socket inherited as fd `listen_fd` or, when that is -1, one bound to
    `listen_address`, and starts the TTL timer. Each frame is answered by
    `handlers[frame type]`, frames without a type by `handlers[None]` where
    there is one; a reply of None sends nothing. A frame that is not a JSON
    object or names no handler gets SchemaViolation. A handler's
    EmulatorError becomes an error frame under its class name and any other
    exception an InternalError, so the receiver keeps serving.

    `shutdown` and TTL expiry take the same drain path: frames listed in
    `work_frames` are refused with Expired, work that waits for such frames
    fails with Expired (`_refuse_pending`), the process leaves the registry,
    the requests being answered and the work a subclass counts with
    `_begin_work`/`_end_work` get up to DRAIN_S seconds to finish, and the
    service stops.
    """

    config_type: type
    work_frames: tuple[str, ...] = ()

    def __init__(self, config, service_id: str):
        self.config = config
        self.service_id = service_id
        self.handlers = {"status": self._handle_status,
                         "shutdown": self._handle_shutdown}
        self.host = ""
        self.port = 0
        self._busy = False
        self._draining = False
        self._work = 0
        self._work_changed = threading.Condition()
        self._shutdown = threading.Event()
        self._tcp: _Server | None = None

    def _queued(self) -> int:
        """The `queued` count `status` reports."""
        raise NotImplementedError

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

    def stop(self) -> None:
        """Stop at once, without draining."""
        self._shutdown.set()
        if self._tcp is not None:
            self._tcp.shutdown()
            self._tcp.server_close()

    def wait(self) -> None:
        self._shutdown.wait()

    def _expire(self) -> None:
        if not self._shutdown.wait(self.config.ttl_seconds):
            self._drain()

    def _drain(self) -> None:
        self._draining = True
        self._refuse_pending()
        try:
            registry.remove_entries(lambda e: e.vqpu_id == self.service_id)
        except OSError:
            pass
        with self._work_changed:
            self._work_changed.wait_for(lambda: self._work == 0, timeout=DRAIN_S)
        self.stop()

    def _refuse_pending(self) -> None:
        """Called as the drain starts: fail accepted work that could only
        complete with frames the drain now refuses."""

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
            return error_frame("Expired", f"{self.service_id} is shutting down")
        handler = (self.handlers.get(kind)
                   if kind is None or isinstance(kind, str) else None)
        if handler is None:
            return error_frame("SchemaViolation", f"unknown frame type {kind!r}")
        try:
            return handler(frame)
        except Exception as exc:  # the receiver must keep serving
            return error_frame(*error_code(exc))

    def _handle_status(self, frame: dict) -> dict:
        return {"type": "ack", "state": "busy" if self._busy else "idle",
                "queued": self._queued()}

    def _handle_shutdown(self, frame: dict) -> dict:
        self._draining = True  # before the ack: no work frame after it is taken
        threading.Thread(target=self._drain, name="drain", daemon=True).start()
        return {"type": "ack"}

    @classmethod
    def main(cls, argv=None) -> int:
        """Process entry point: run from a JSON config file until the
        service stops."""
        parser = argparse.ArgumentParser(prog=cls.__name__)
        parser.add_argument("--config", required=True,
                            help=f"path to a JSON {cls.config_type.__name__}")
        args = parser.parse_args(argv)
        with open(args.config, "r", encoding="utf-8") as fh:
            service = cls(cls.config_type(**json.load(fh)))
        service.start()
        service.wait()
        return 0
