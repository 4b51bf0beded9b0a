import sys
import threading

import pytest

import dqcemu.executor as executor_mod
from dqcemu.channel import BitMessage
from dqcemu.circuit import Circuit
from dqcemu.errors import PeerUnreachable
from dqcemu.executor import ExecutorConfig, ExecutorServer
from dqcemu.protocol import connect, request
from dqcemu.server import TcpBitTransport
from dqcemu.wire import circuit_to_obj


@pytest.fixture()
def executor():
    srv = ExecutorServer(ExecutorConfig(family="exec-test"))
    srv.start()
    yield srv
    srv.stop()


def part_frame(job_id, index, circuit, k=2, shots=50, seed=1):
    return {"type": "part", "job_id": job_id, "k": k, "index": index,
            "circuit": circuit_to_obj(circuit),
            "config": {"shots": shots, "seed": seed}}


def teleport_parts():
    a = Circuit(1, 0, id="a")
    a.x(0)
    a.qsend(0, "b")
    b = Circuit(1, 1, id="b")
    b.qrecv(0, "a")
    b.measure(0, 0)
    return a, b


def test_executor_joint_run(executor):
    a, b = teleport_parts()
    replies = {}

    def submit(index, circuit):
        sock = connect(executor.host, executor.port)
        sock.settimeout(30.0)
        replies[index] = request(sock, part_frame("j", index, circuit))
        sock.close()

    threads = [threading.Thread(target=submit, args=(0, a)),
               threading.Thread(target=submit, args=(1, b))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert replies[0]["type"] == "result"
    assert replies[0]["counts"] == {"1": 50}
    assert replies[0]["counts"] == replies[1]["counts"]  # aggregated once


def test_jobs_run_one_at_a_time_on_the_simulator_thread(executor, monkeypatch):
    """Merged jobs run on the executor's one simulation thread, never on the
    connection thread of the part that completed them, and never two at
    once, however many parts arrive together."""
    ran, active, most = [], [0], [0]
    lock = threading.Lock()
    execute = executor_mod.execute_merged

    def watched(*args, **kw):
        with lock:
            active[0] += 1
            most[0] = max(most[0], active[0])
            ran.append(threading.current_thread().name)
        try:
            return execute(*args, **kw)
        finally:
            with lock:
                active[0] -= 1

    monkeypatch.setattr(executor_mod, "execute_merged", watched)
    replies = {}

    def submit(job_id, index, circuit):
        sock = connect(executor.host, executor.port)
        sock.settimeout(30.0)
        replies[job_id, index] = request(sock, part_frame(job_id, index, circuit))
        sock.close()

    threads = [threading.Thread(target=submit, args=(f"j{j}", i, c))
               for j in range(4) for i, c in enumerate(teleport_parts())]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert all(r.get("counts") == {"1": 50} for r in replies.values()), replies
    assert len(replies) == 8
    assert ran == ["simulator"] * 4 and most[0] == 1


def test_executor_status(executor):
    sock = connect(executor.host, executor.port)
    sock.settimeout(2.0)
    reply = request(sock, {"type": "status"})
    sock.close()
    assert reply["type"] == "ack" and reply["state"] == "idle"


def test_missing_sibling_part_times_out(executor, monkeypatch):
    monkeypatch.setattr(executor_mod, "PART_TIMEOUT_S", 0.3)
    a, _ = teleport_parts()
    sock = connect(executor.host, executor.port)
    sock.settimeout(5.0)
    reply = request(sock, part_frame("lonely", 0, a))
    sock.close()
    assert reply["type"] == "error"
    assert reply["code"] == "PartsTimeout"
    assert "1/2" in reply["message"]


def test_conflicting_shots_rejected(executor):
    a, b = teleport_parts()
    replies = {}

    def submit(index, circuit, shots):
        sock = connect(executor.host, executor.port)
        sock.settimeout(10.0)
        replies[index] = request(sock, part_frame("c", index, circuit,
                                                  shots=shots))
        sock.close()

    threads = [threading.Thread(target=submit, args=(0, a, 10)),
               threading.Thread(target=submit, args=(1, b, 20))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r["type"] == "error" for r in replies.values())
    assert any("disagree on shots" in r["message"] for r in replies.values())


def test_duplicate_part_index(executor, monkeypatch):
    monkeypatch.setattr(executor_mod, "PART_TIMEOUT_S", 0.5)
    a, _ = teleport_parts()
    sock = connect(executor.host, executor.port)
    sock.settimeout(5.0)
    done = threading.Event()
    first_reply = {}

    def first():
        s = connect(executor.host, executor.port)
        s.settimeout(5.0)
        first_reply["r"] = request(s, part_frame("dup", 0, a))
        s.close()
        done.set()

    t = threading.Thread(target=first)
    t.start()
    import time
    time.sleep(0.1)
    reply = request(sock, part_frame("dup", 0, a))
    sock.close()
    assert reply["type"] == "error" and reply["code"] == "DuplicateId"
    done.wait(5.0)
    t.join()


def test_tcp_bit_transport_peer_unreachable():
    transport = TcpBitTransport()
    with pytest.raises(PeerUnreachable):
        transport.send("127.0.0.1:1", BitMessage("a", "b", 0, 0, 1))
    transport.close()
