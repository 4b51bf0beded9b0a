"""Runtime bit-exchange fabric between vQPUs for the classical model.

A message carries the bits of consecutive shots for one sequence tag. A
receiver keeps, per (sender, seq), the bits of shots 0, 1, ... and reads
them without popping, so a shot walked again reads its bits again and a
bit sent again is kept once. Receives block, sends do not. A message that
would leave a gap, or reach past an earlier seq of its sender, is a
desynchronized sender: a hard EpochMismatch. Every message names its job.

The transport is pluggable: an in-memory hub serves single-process runs and
tests, a socket transport sends frames to peer vQPU servers (whose receiver
worker feeds the local inbox).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from .engine import ChannelHooks
from .errors import ChannelTimeout, EpochMismatch, PeerUnreachable, SchemaViolation
from .wire import _is_int

DEFAULT_RECV_TIMEOUT_MS = 30_000


@dataclass(frozen=True, slots=True)
class BitMessage:
    src_circuit: str
    dst_circuit: str
    shot_epoch: int  # the first shot whose bit it carries
    seq: int
    bits: object  # an int is one bit, else one uint8 per shot
    job: str = ""  # the job id of the program both circuits are parts of

    def to_obj(self) -> dict:
        bits = np.atleast_1d(np.asarray(self.bits, np.uint8))
        return {"src": self.src_circuit, "dst": self.dst_circuit,
                "epoch": self.shot_epoch, "seq": self.seq, "job": self.job,
                "bits": np.packbits(bits).tobytes().hex(), "count": len(bits)}

    @classmethod
    def from_obj(cls, obj: dict, most: int) -> "BitMessage":
        """The message of a bit frame of at most `most` bits, input from
        outside the program; a field that does not fit is a SchemaViolation."""
        src, dst, job, epoch, seq, count, bits = (
            obj.get(k) for k in ("src", "dst", "job", "epoch", "seq", "count", "bits"))
        if not all(isinstance(v, str) for v in (src, dst, job)):
            raise SchemaViolation("src, dst, job", "expected strings")
        if not all(_is_int(v) and v >= 0 for v in (epoch, seq)):
            raise SchemaViolation("epoch, seq", "expected integers >= 0")
        if not _is_int(count) or not 1 <= count <= most:
            raise SchemaViolation("count", f"expected an integer from 1 to {most}")
        try:  # the length first, so no more than `most` bits are decoded
            packed = bytes.fromhex(bits) if len(bits) == (count + 7) // 8 * 2 else None
        except (TypeError, ValueError):
            packed = None
        if packed is None or len(packed) != (count + 7) // 8:
            raise SchemaViolation("bits", f"expected {count} bits packed in hex")
        return cls(src, dst, epoch, seq,
                   np.unpackbits(np.frombuffer(packed, np.uint8), count=count), job)


class ChannelEndpoint:
    """One participant's view of the channel for a single distributed job,
    which every message it sends names. Once `bind` gives it a `limit`, the
    bits that arrive past that many are dropped and its receives raise
    ChannelTimeout. `size` is about the bytes it holds (`tracemalloc`): SIZE,
    KEY_SIZE per (sender, seq) kept, their names, and a byte a bit."""

    SIZE, KEY_SIZE = 2048, 256

    def __init__(self, local_circuit: str, peer_map: dict[str, object],
                 transport, recv_timeout_ms: int = DEFAULT_RECV_TIMEOUT_MS,
                 job: str = ""):
        self.local_circuit = local_circuit
        self.peer_map = dict(peer_map)
        self.recv_timeout_ms = recv_timeout_ms
        self.job, self.limit, self.taken = job, None, 0  # taken: bits arrived
        self.size = self.SIZE + len(job) + len(local_circuit)
        self._transport = transport
        self._cond = threading.Condition()
        self._bits: dict[tuple[str, int], bytearray] = {}  # by (sender, seq)
        self._fault: str | None = None  # why every receive fails

    def bind(self, local_circuit: str, peer_map: dict, transport, limit: int) -> None:
        """Give an endpoint made by its first bits its part's circuit, peers and limit."""
        self.local_circuit, self.peer_map = local_circuit, dict(peer_map)
        self._transport, self.limit = transport, limit

    # inbound path, fed by the transport reader
    def deliver(self, msg: BitMessage) -> int:
        """Keep the bits of `msg` not held yet; returns how much `size`
        grew. A message that leaves a gap, or reaches past an earlier seq of
        its sender, keeps none and fails every receive from then on; once
        one has, no message keeps any."""
        bits = np.atleast_1d(np.asarray(msg.bits, np.uint8))
        src, seq, first = msg.src_circuit, msg.seq, msg.shot_epoch
        with self._cond:
            self._cond.notify_all()  # the receives wake once this returns
            held = self._bits.get((src, seq), b"")
            if self._fault or first > len(held) or seq and first + len(bits) > len(
                    self._bits.get((src, seq - 1), b"")):
                self._fault = self._fault or (
                    f"bits of shots {first}-{first + len(bits) - 1} (seq {seq}) from {src!r} "
                    f"leave a gap after the {len(held)} held or reach past seq {seq - 1}")
                return 0
            new, size = bits[len(held) - first:], self.size
            self.taken += len(new)
            if len(new) and (self.limit is None or self.taken <= self.limit):
                if not held:
                    held = self._bits[src, seq] = bytearray()
                    self.size += self.KEY_SIZE + len(src)
                held += new.tobytes()
                self.size += len(new)
            return self.size - size

    def send_bit(self, msg: BitMessage) -> None:
        if msg.src_circuit != self.local_circuit:
            raise ValueError(
                f"endpoint {self.local_circuit!r} cannot send as {msg.src_circuit!r}")
        if msg.dst_circuit not in self.peer_map:
            raise PeerUnreachable(f"no address for peer {msg.dst_circuit!r}")
        self._transport.send(self.peer_map[msg.dst_circuit], msg)

    def recv(self, from_circuit: str, shot_epoch: int, seq: int, count: int) -> np.ndarray:
        """The bits for `seq` from `from_circuit` of the first 1 to `count`
        shots from `shot_epoch` on that have arrived, once the first has."""
        deadline = time.monotonic() + self.recv_timeout_ms / 1000.0
        with self._cond:
            while True:
                if self.limit is not None and self.taken > self.limit:
                    raise ChannelTimeout(
                        f"{self.taken} bits came for {self.local_circuit!r} of job "
                        f"{self.job!r}, which reads {self.limit}; the rest were dropped")
                if self._fault:
                    raise EpochMismatch(self._fault)
                held = self._bits.get((from_circuit, seq), b"")
                if len(held) > shot_epoch:
                    return np.frombuffer(held[shot_epoch:shot_epoch + count], np.uint8)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ChannelTimeout(
                        f"no bit from {from_circuit!r} (epoch {shot_epoch}, "
                        f"seq {seq}) within {self.recv_timeout_ms} ms")
                self._cond.wait(remaining)

    def recv_bit(self, from_circuit: str, shot_epoch: int, seq: int) -> int:
        return int(self.recv(from_circuit, shot_epoch, seq, 1)[0])

    def close(self) -> None:
        getattr(self._transport, "close", lambda: None)()

    def send(self, peer: str, epoch: int, seq: int, bits) -> None:
        self.send_bit(BitMessage(self.local_circuit, peer, epoch, seq, bits, self.job))

    def hooks(self) -> ChannelHooks:
        return ChannelHooks(send=self.send, recv=self.recv)


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
