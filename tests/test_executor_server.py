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


def program_frame(job_id, circuits, shots=50, seed=1):
    return {"type": "run", "job_id": job_id,
            "circuits": [circuit_to_obj(c) for c in circuits],
            "config": {"shots": shots, "seed": seed}}


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
    assert request(socks[0], program_frame("j", teleport_parts())) == {
        "type": "ack", "job_id": "j"}
    replies = [wait_result(sock, "j") for sock in socks]
    for sock in socks:
        sock.close()
    assert replies[0]["type"] == "result"
    assert replies[0]["counts"] == {"1": 50}
    assert replies[0] == replies[1]  # aggregated once


def test_jobs_run_one_at_a_time_on_the_simulator_thread(executor, monkeypatch):
    """Merged jobs run on the executor's one simulation thread, never on the
    connection thread that sent them, and never two at once, however many
    programs (each sent twice) arrive together."""
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

    def submit(job_id, copy):
        sock = open_conn(executor, timeout=30.0)
        assert request(sock, program_frame(job_id, teleport_parts()))["type"] == "ack"
        replies[job_id, copy] = wait_result(sock, job_id, timeout=30.0)
        sock.close()

    threads = [threading.Thread(target=submit, args=(f"j{j}", copy))
               for j in range(4) for copy in range(2)]
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


def merge_deadlock_parts():
    a = Circuit(1, 0, id="a")
    a.qrecv(0, "b")
    b = Circuit(1, 0, id="b")
    b.qrecv(0, "a")
    return [a, b]


def duplicate_id_parts():
    a, _ = teleport_parts()
    return [a, a]


@pytest.mark.parametrize("code, parts", [  # the ids they had beside a third case
    pytest.param("MergeDeadlock", merge_deadlock_parts(), id="MergeDeadlock-parts1"),
    pytest.param("DuplicateId", duplicate_id_parts(), id="DuplicateId-parts2"),
])
def test_failed_job_reports_the_executors_own_code(executor, code, parts):
    """A part's QJob fails with the code the executor gave the job."""
    connection = QpuConnection(executor.host, executor.port)
    assert connection.request(program_frame("f", parts))["type"] == "ack"
    job = QJob("f", SimpleNamespace(connection=connection))
    with pytest.raises(JobFailed, match=f"failed: {code}: "):
        job.wait()
    connection.close()


def test_parts_are_validated_against_the_family_backend():
    """A part the family backend refuses fails its program's `run` at once,
    and nothing is queued."""
    srv = ExecutorServer(ServiceConfig("narrow-executor", backend=BackendSpec(
        name="narrow", n_qubits=1, basis_gates=["x", "h", "measure"])))
    srv.start()
    try:
        sock = open_conn(srv)
        a, b = teleport_parts()
        wide = Circuit(2, 1, id="b")
        wide.qrecv(0, "a")
        wide.measure(0, 0)
        refused = request(sock, program_frame("w", [a, wide]))
        assert (refused["type"], refused["code"]) == ("error", "ValidationFailed")
        assert "WidthExceeded" in refused["message"]
        unbound = Circuit(1, 0, id="a")
        unbound.rx(Param("t"), 0)
        unbound.qsend(0, "b")
        refused = request(sock, program_frame("p", [unbound, b]))
        assert (refused["type"], refused["code"]) == ("error", "ValidationFailed")
        assert "none were bound" in refused["message"]
        for job_id in ("w", "p"):
            reply = request(sock, {"type": "result", "job_id": job_id})
            assert reply["code"] == "UnknownJob"
        sock.close()
    finally:
        srv.stop()


@pytest.mark.parametrize("field", [
    {}, {"circuits": {"a": 1}}, {"circuits": []},
    {"circuits": [circuit_to_obj(teleport_parts()[0])]},
], ids=["absent", "object", "empty", "one-part"])
def test_a_program_needs_a_list_of_two_or_more_parts(executor, field):
    """An executor `run` frame without `circuits`, with anything but a list,
    or with fewer than two parts gets SchemaViolation and leaves no job."""
    sock = open_conn(executor)
    reply = request(sock, {"type": "run", "job_id": "bad", **field,
                           "config": {"shots": 10}})
    assert (reply["type"], reply["code"]) == ("error", "SchemaViolation")
    assert reply["message"].startswith("circuits:")
    assert request(sock, {"type": "status"})["queued"] == 0
    sock.close()
    assert "bad" not in executor._jobs


def test_tcp_bit_transport_peer_unreachable():
    transport = TcpBitTransport()
    with pytest.raises(PeerUnreachable):
        transport.send("127.0.0.1:1", BitMessage("a", "b", 0, 0, 1))
    transport.close()
