import threading
import time

import numpy as np
import pytest

from dqcemu.channel import BitMessage, InMemoryHub, establish
from dqcemu.errors import ChannelTimeout, EpochMismatch, JobAborted, PeerUnreachable


def two_endpoints(**kw):
    eps = establish({"a": "a", "b": "b"}, **kw)
    return eps["a"], eps["b"]


def test_send_then_recv():
    a, b = two_endpoints()
    a.send_bit(BitMessage("a", "b", 0, 0, 1))
    assert b.recv_bit("a", 0, 0) == 1


def test_fifo_within_pair():
    a, b = two_endpoints()
    a.send_bit(BitMessage("a", "b", 0, 0, 1))
    a.send_bit(BitMessage("a", "b", 0, 1, 0))
    assert b.recv_bit("a", 0, 0) == 1
    assert b.recv_bit("a", 0, 1) == 0


def test_recv_blocks_until_arrival():
    a, b = two_endpoints()
    got = {}

    def receiver():
        got["bit"] = b.recv_bit("a", 0, 0)

    t = threading.Thread(target=receiver)
    t.start()
    time.sleep(0.05)
    assert "bit" not in got
    a.send_bit(BitMessage("a", "b", 0, 0, 1))
    t.join(timeout=2)
    assert got["bit"] == 1


def test_timeout():
    eps = establish({"a": "a", "b": "b"}, recv_timeout_ms=80)
    t0 = time.monotonic()
    with pytest.raises(ChannelTimeout, match="epoch 3"):
        eps["b"].recv_bit("a", 3, 0)
    assert time.monotonic() - t0 >= 0.07


def test_epoch_mismatch_on_desync():
    a, b = two_endpoints()
    a.send_bit(BitMessage("a", "b", 3, 0, 1))  # sender raced ahead
    with pytest.raises(EpochMismatch):
        b.recv_bit("a", 2, 0)


def test_seq_mismatch_is_a_protocol_error():
    a, b = two_endpoints()
    a.send_bit(BitMessage("a", "b", 0, 1, 1))
    with pytest.raises(EpochMismatch):
        b.recv_bit("a", 0, 0)


def test_unknown_peer():
    a, _ = two_endpoints()
    with pytest.raises(PeerUnreachable):
        a.send_bit(BitMessage("a", "nobody", 0, 0, 1))


def test_send_as_wrong_source_rejected():
    a, _ = two_endpoints()
    with pytest.raises(ValueError):
        a.send_bit(BitMessage("b", "a", 0, 0, 1))


def test_abort_wakes_receiver_and_blocks_send():
    a, b = two_endpoints()
    failure = {}

    def receiver():
        try:
            b.recv_bit("a", 0, 0)
        except JobAborted as exc:
            failure["err"] = exc

    t = threading.Thread(target=receiver)
    t.start()
    time.sleep(0.03)
    b.abort()
    t.join(timeout=2)
    assert isinstance(failure["err"], JobAborted)
    a.abort()
    with pytest.raises(JobAborted):
        a.send_bit(BitMessage("a", "b", 0, 0, 1))


def test_sixteen_participant_plan_is_lazy():
    plan = {f"c{i}": f"c{i}" for i in range(16)}
    eps = establish(plan)
    assert len(eps) == 16
    assert all(len(ep.peer_map) == 15 for ep in eps.values())
    eps["c3"].send_bit(BitMessage("c3", "c11", 0, 0, 1))
    assert eps["c11"].recv_bit("c3", 0, 0) == 1


def test_fifo_order_with_randomized_delays():
    rng = np.random.default_rng(8)
    hub = InMemoryHub(delay=lambda msg: float(rng.uniform(0, 0.002)))
    participants = {f"p{i}": f"p{i}" for i in range(4)}
    eps = establish(participants, transport=hub)

    sent: dict[tuple[str, str], list[int]] = {}
    pairs = [("p0", "p1"), ("p1", "p2"), ("p2", "p0"), ("p3", "p1")]

    def sender(src, dst):
        for seq in range(40):
            bit = (seq * 7 + hash(dst)) % 2
            sent.setdefault((src, dst), []).append(bit)
            eps[src].send_bit(BitMessage(src, dst, 0, seq, bit))

    threads = [threading.Thread(target=sender, args=pair) for pair in pairs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    for src, dst in pairs:
        received = [eps[dst].recv_bit(src, 0, seq) for seq in range(40)]
        assert received == sent[(src, dst)]


def test_no_loss_or_duplication_under_delay_injection():
    rng = np.random.default_rng(15)
    hub = InMemoryHub(delay=lambda msg: float(rng.uniform(0, 0.001)))
    eps = establish({"a": "a", "b": "b", "c": "c"}, transport=hub)
    total = 120

    def sender(src):
        for seq in range(total):
            for dst in eps:
                if dst != src:
                    eps[src].send_bit(BitMessage(src, dst, 0, seq, seq % 2))

    threads = [threading.Thread(target=sender, args=(src,)) for src in eps]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    for dst in eps:
        for src in eps:
            if src == dst:
                continue
            bits = [eps[dst].recv_bit(src, 0, seq) for seq in range(total)]
            assert bits == [seq % 2 for seq in range(total)]
            # nothing left over
            assert not eps[dst]._queues.get(src)


def test_lockstep_bounded_skew_on_a_ring():
    """Ring topology: every participant sends then receives each epoch. A
    node logs epoch e only after its predecessor sent e, which the
    predecessor does only after logging e-1; so when anyone logs e, every
    node of a k-ring has logged e-(k-1) or later."""
    k, epochs = 4, 25
    rng = np.random.default_rng(21)
    hub = InMemoryHub(delay=lambda msg: float(rng.uniform(0, 0.001)))
    names = [f"r{i}" for i in range(k)]
    eps = establish({n: n for n in names}, transport=hub)
    log: list[tuple[str, int]] = []
    log_lock = threading.Lock()

    def worker(i):
        me, nxt, prev = names[i], names[(i + 1) % k], names[(i - 1) % k]
        for epoch in range(epochs):
            eps[me].send_bit(BitMessage(me, nxt, epoch, 0, epoch % 2))
            assert eps[me].recv_bit(prev, epoch, 0) == epoch % 2
            with log_lock:
                log.append((me, epoch))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(k)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    completed: dict[str, int] = {}
    for name, epoch in log:
        completed[name] = epoch
        # everyone must have completed epoch-(k-1) before anyone logs epoch
        assert all(completed.get(n, -1) >= epoch - (k - 1) for n in names), log
