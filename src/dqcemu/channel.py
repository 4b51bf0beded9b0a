"""Runtime bit-exchange fabric between vQPUs for the classical model.

Delivery is reliable and FIFO per ordered (src, dst) pair; receives block,
sends do not. Every message is tagged with the sender's shot epoch so a
desynchronized shot loop surfaces as a hard EpochMismatch instead of a
silently reordered bit. Endpoints are job-scoped: every bit names its job.

The transport is pluggable: an in-memory hub serves single-process runs and
tests, a socket transport sends frames to peer vQPU servers (whose receiver
worker feeds the local inbox).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from .engine import ChannelHooks
from .errors import ChannelTimeout, EpochMismatch, PeerUnreachable

DEFAULT_RECV_TIMEOUT_MS = 30_000


@dataclass(frozen=True, slots=True)
class BitMessage:
    src_circuit: str
    dst_circuit: str
    shot_epoch: int
    seq: int
    bit: int
    job: str = ""  # the job id of the program both circuits are parts of

    def to_obj(self) -> dict:
        return {"src": self.src_circuit, "dst": self.dst_circuit,
                "epoch": self.shot_epoch, "seq": self.seq, "bit": self.bit,
                "job": self.job}

    @classmethod
    def from_obj(cls, obj: dict) -> "BitMessage":
        return cls(obj["src"], obj["dst"], obj["epoch"], obj["seq"], obj["bit"],
                   obj.get("job", ""))


class ChannelEndpoint:
    """One participant's view of the channel for a single distributed job,
    which every bit it sends names. Once `bind` gives it a `limit`, the bits
    that arrive past that many are dropped and `recv_bit` raises ChannelTimeout."""

    def __init__(self, local_circuit: str, peer_map: dict[str, object],
                 transport, recv_timeout_ms: int = DEFAULT_RECV_TIMEOUT_MS,
                 job: str = ""):
        self.local_circuit = local_circuit
        self.peer_map = dict(peer_map)
        self.recv_timeout_ms = recv_timeout_ms
        self.job, self.limit, self.taken = job, None, 0  # taken: bits arrived
        self._transport = transport
        self._cond = threading.Condition()
        self._queues: dict[str, deque[BitMessage]] = {}

    def bind(self, local_circuit: str, peer_map: dict, transport, limit: int) -> None:
        """Give an endpoint made by its first bits its part's circuit, peers and limit."""
        self.local_circuit, self.peer_map = local_circuit, dict(peer_map)
        self._transport, self.limit = transport, limit

    # inbound path, fed by the transport reader
    def deliver(self, msg: BitMessage) -> None:
        with self._cond:
            self.taken += 1
            if self.limit is None or self.taken <= self.limit:
                self._queues.setdefault(msg.src_circuit, deque()).append(msg)
            self._cond.notify_all()

    def send_bit(self, msg: BitMessage) -> None:
        if msg.src_circuit != self.local_circuit:
            raise ValueError(
                f"endpoint {self.local_circuit!r} cannot send as {msg.src_circuit!r}")
        if msg.dst_circuit not in self.peer_map:
            raise PeerUnreachable(f"no address for peer {msg.dst_circuit!r}")
        self._transport.send(self.peer_map[msg.dst_circuit], msg)

    def recv_bit(self, from_circuit: str, shot_epoch: int, seq: int) -> int:
        deadline = time.monotonic() + self.recv_timeout_ms / 1000.0
        with self._cond:
            while True:
                if self.limit is not None and self.taken > self.limit:
                    raise ChannelTimeout(
                        f"{self.taken} bits came for {self.local_circuit!r} of job "
                        f"{self.job!r}, which reads {self.limit}; the rest were dropped")
                q = self._queues.get(from_circuit)
                if q:
                    msg = q.popleft()
                    if msg.shot_epoch != shot_epoch or msg.seq != seq:
                        raise EpochMismatch(
                            f"expected (epoch {shot_epoch}, seq {seq}) from "
                            f"{from_circuit!r}, got (epoch {msg.shot_epoch}, "
                            f"seq {msg.seq})")
                    return msg.bit
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ChannelTimeout(
                        f"no bit from {from_circuit!r} (epoch {shot_epoch}, "
                        f"seq {seq}) within {self.recv_timeout_ms} ms")
                self._cond.wait(remaining)

    def close(self) -> None:
        close = getattr(self._transport, "close", None)
        if close:
            close()

    def hooks(self) -> ChannelHooks:
        """Adapter for the engine's shot loop."""
        def send(peer: str, epoch: int, seq: int, bit: int) -> None:
            self.send_bit(BitMessage(self.local_circuit, peer, epoch, seq, bit,
                                     self.job))
        return ChannelHooks(send=send, recv=self.recv_bit)


class InMemoryHub:
    """Single-process transport: addresses are circuit ids.

    An optional delay function (seconds, called per message) runs in the
    sending thread, preserving per-pair FIFO while randomizing cross-pair
    interleavings for the ordering property tests.
    """

    def __init__(self, delay=None):
        self._by_circuit: dict[str, ChannelEndpoint] = {}
        self._delay = delay
        self._lock = threading.Lock()

    def register(self, circuit_id: str, endpoint: ChannelEndpoint) -> None:
        with self._lock:
            self._by_circuit[circuit_id] = endpoint

    def send(self, address, msg: BitMessage) -> None:
        if self._delay is not None:
            time.sleep(self._delay(msg))
        with self._lock:
            ep = self._by_circuit.get(address)
        if ep is None:
            raise PeerUnreachable(f"no endpoint registered for {address!r}")
        ep.deliver(msg)


def establish(job_plan: dict[str, object], transport: InMemoryHub | None = None,
              recv_timeout_ms: int = DEFAULT_RECV_TIMEOUT_MS):
    """Endpoints for every participant of a job plan (circuit id ->
    address), by circuit id, wired through one in-memory hub (`transport`,
    or a new one), for single-process runs. Endpoints connect lazily.
    """
    hub = transport or InMemoryHub()
    endpoints = {}
    for cid in job_plan:
        peers = {other: other for other in job_plan if other != cid}
        ep = ChannelEndpoint(cid, peers, hub, recv_timeout_ms)
        hub.register(cid, ep)
        endpoints[cid] = ep
    return endpoints
