"""Framed JSON wire protocol shared by vQPU servers, the executor, the
classical channel and the client SDK.

Frame = 4-byte big-endian payload length + UTF-8 JSON payload. Protocol
messages carry a "type" field; classical-channel bit messages are bare
{"src", "dst", "epoch", "seq", "bit"} objects and are told apart by the
absence of "type".
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct

_HEADER = struct.Struct(">I")
MAX_FRAME_BYTES = 64 * 1024 * 1024


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


def frame_server(address: str, dispatch) -> socketserver.ThreadingTCPServer:
    """A server (not yet serving) that answers each frame of a connection
    with dispatch(frame), sending nothing when that is None, until the peer
    closes."""
    class Handler(socketserver.BaseRequestHandler):
        def handle(self):
            self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                try:
                    frame = recv_frame(self.request)
                except (ConnectionClosed, OSError, ValueError):
                    return
                reply = dispatch(frame)
                if reply is not None:
                    try:
                        send_frame(self.request, reply)
                    except OSError:
                        return

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    return Server(parse_address(address), Handler)


def error_frame(code: str, message: str, retriable: bool = False, **extra) -> dict:
    frame = {"type": "error", "code": code, "message": message,
             "retriable": retriable}
    frame.update(extra)
    return frame
