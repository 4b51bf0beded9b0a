import sys
import threading
import time
from types import SimpleNamespace

import pytest

import dqcemu.executor as executor_mod
from dqcemu.backend import BackendSpec
from dqcemu.channel import BitMessage
from dqcemu.circuit import Circuit, Param
from dqcemu.client import QJob, QpuConnection
from dqcemu.errors import JobFailed, PeerUnreachable
from dqcemu.executor import ExecutorServer
from dqcemu.protocol import RESULT_WAIT_MAX_MS, ServiceConfig, connect, request
from dqcemu.server import TcpBitTransport
from dqcemu.wire import circuit_to_obj


@pytest.fixture()
def executor():
    srv = ExecutorServer(ServiceConfig("exec-test-executor"))
    srv.start()
    yield srv
    srv.stop()


def open_conn(srv, timeout=10.0):
    sock = connect(srv.host, srv.port)
    sock.settimeout(timeout)
    return sock


def part_frame(job_id, index, circuit, k=2, shots=50, seed=1):
    return {"type": "run", "job_id": job_id, "circuit": circuit_to_obj(circuit),
            "config": {"shots": shots, "seed": seed, "k": k, "index": index}}


def wait_result(sock, job_id, timeout=10.0) -> dict:
    """Blocking `result` frames until the job is done or failed."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        reply = request(sock, {"type": "result", "job_id": job_id,
                               "wait_ms": RESULT_WAIT_MAX_MS})
        if reply["type"] != "ack":
            return reply
    raise TimeoutError(f"job {job_id} still pending")


def teleport_parts():
    a = Circuit(1, 0, id="a")
    a.x(0)
    a.qsend(0, "b")
    b = Circuit(1, 1, id="b")
    b.qrecv(0, "a")
    b.measure(0, 0)
    return a, b


def test_executor_joint_run(executor):
    socks = [open_conn(executor) for _ in range(2)]
    for index, (sock, circuit) in enumerate(zip(socks, teleport_parts())):
        assert request(sock, part_frame("j", index, circuit)) == {
            "type": "ack", "job_id": "j"}
    replies = [wait_result(sock, "j") for sock in socks]
    for sock in socks:
        sock.close()
    assert replies[0]["type"] == "result"
    assert replies[0]["counts"] == {"1": 50}
    assert replies[0] == replies[1]  # aggregated once


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
        sock = open_conn(executor, timeout=30.0)
        assert request(sock, part_frame(job_id, index, circuit))["type"] == "ack"
        replies[job_id, index] = wait_result(sock, job_id, timeout=30.0)
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
    """PartsTimeout is checked as frames arrive: the part's own blocking
    `result` frames see it."""
    monkeypatch.setattr(executor_mod, "PART_TIMEOUT_S", 0.3)
    a, _ = teleport_parts()
    sock = open_conn(executor)
    assert request(sock, part_frame("lonely", 0, a))["type"] == "ack"
    t0 = time.monotonic()
    reply = wait_result(sock, "lonely")
    sock.close()
    assert reply["type"] == "error"
    assert reply["code"] == "PartsTimeout"
    assert "1/2" in reply["message"]
    assert time.monotonic() - t0 < 0.3 + RESULT_WAIT_MAX_MS / 1000 + 0.5


def test_conflicting_shots_rejected(executor):
    sock = open_conn(executor)
    for index, (circuit, shots) in enumerate(zip(teleport_parts(), (10, 20))):
        reply = request(sock, part_frame("c", index, circuit, shots=shots))
        assert reply["type"] == "ack"
    replies = [wait_result(sock, "c") for _ in range(2)]  # one per part
    sock.close()
    assert all(r["type"] == "error" for r in replies)
    assert all("disagree on shots" in r["message"] for r in replies)


def test_duplicate_part_index(executor):
    a, _ = teleport_parts()
    sock = open_conn(executor)
    assert request(sock, part_frame("dup", 0, a))["type"] == "ack"
    reply = request(sock, part_frame("dup", 0, a))
    sock.close()
    assert reply["type"] == "error" and reply["code"] == "DuplicateId"


def merge_deadlock_parts():
    a = Circuit(1, 0, id="a")
    a.qrecv(0, "b")
    b = Circuit(1, 0, id="b")
    b.qrecv(0, "a")
    return [a, b]


def duplicate_id_parts():
    a, _ = teleport_parts()
    return [a, a]


@pytest.mark.parametrize("code, parts", [
    ("PartsTimeout", teleport_parts()[:1]),
    ("MergeDeadlock", merge_deadlock_parts()),
    ("DuplicateId", duplicate_id_parts()),
])
def test_failed_job_reports_the_executors_own_code(executor, monkeypatch, code,
                                                   parts):
    """A part's QJob fails with the code the executor gave the job."""
    monkeypatch.setattr(executor_mod, "PART_TIMEOUT_S", 0.2)
    connection = QpuConnection(executor.host, executor.port)
    for index, circuit in enumerate(parts):
        assert connection.request(part_frame("f", index, circuit))["type"] == "ack"
    job = QJob("f", SimpleNamespace(connection=connection))
    with pytest.raises(JobFailed, match=f"failed: {code}: "):
        job.wait()
    connection.close()


def test_parts_are_validated_against_the_family_backend():
    """A part the family backend refuses fails its whole job at once."""
    srv = ExecutorServer(ServiceConfig("narrow-executor", backend=BackendSpec(
        name="narrow", n_qubits=1, basis_gates=["x", "h", "measure"])))
    srv.start()
    try:
        sock = open_conn(srv)
        a, _ = teleport_parts()
        wide = Circuit(2, 1, id="b")
        wide.qrecv(0, "a")
        wide.measure(0, 0)
        assert request(sock, part_frame("w", 0, a))["type"] == "ack"
        refused = request(sock, part_frame("w", 1, wide))
        assert (refused["type"], refused["code"]) == ("error", "ValidationFailed")
        assert "WidthExceeded" in refused["message"]
        reply = request(sock, {"type": "result", "job_id": "w"})
        assert (reply["code"], reply["message"]) == (refused["code"], refused["message"])
        unbound = Circuit(1, 0, id="a")
        unbound.rx(Param("t"), 0)
        unbound.qsend(0, "b")
        refused = request(sock, part_frame("p", 0, unbound))
        assert (refused["type"], refused["code"]) == ("error", "ValidationFailed")
        assert "none were bound" in refused["message"]
        sock.close()
    finally:
        srv.stop()


def test_tcp_bit_transport_peer_unreachable():
    transport = TcpBitTransport()
    with pytest.raises(PeerUnreachable):
        transport.send("127.0.0.1:1", BitMessage("a", "b", 0, 0, 1))
    transport.close()
