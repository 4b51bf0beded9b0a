"""The service skeleton both server processes share: dispatch and error
mapping, idempotent `run`, the drain path of `shutdown` and TTL expiry, and
faults (a peer that dies, a frame cut off mid-payload)."""

import os
import signal
import socket
import struct
import threading
import time

import pytest

from dqcemu import registry
from dqcemu.circuit import Circuit
from dqcemu.client import get_qpus, run_distributed
from dqcemu.errors import JobFailed
from dqcemu.executor import ExecutorConfig, ExecutorServer
from dqcemu.orchestrator import _probe_status
from dqcemu.protocol import DRAIN_S, connect, recv_frame, request, send_frame
from dqcemu.registry import RegistryEntry
from dqcemu.server import VqpuConfig, VqpuServer
from dqcemu.wire import circuit_to_obj

SERVICES = {
    "vqpu": lambda **kw: VqpuServer(VqpuConfig(family="svc", index=0, **kw)),
    "executor": lambda **kw: ExecutorServer(ExecutorConfig(family="svc", **kw)),
}


@pytest.fixture(params=sorted(SERVICES))
def service(request):
    srv = SERVICES[request.param]()
    srv.start()
    yield srv
    srv.stop()


def open_conn(srv, timeout=10.0):
    sock = connect(srv.host, srv.port)
    sock.settimeout(timeout)
    return sock


def slow_circuit() -> Circuit:
    """About a millisecond per shot on the shot loop: two fresh
    superpositions per round are measured into clbits of their own, so
    nearly every shot has its own measurement history and its own branch."""
    c = Circuit(4, 28, id="slow")
    for r in range(12):
        for q in range(4):
            c.h(q)
        c.cx(0, 1)
        c.measure([2, 3], [4 + 2 * r, 5 + 2 * r])
    for q in range(4):
        c.measure(q, q)
    return c


def run_frame(job_id, circuit, **config) -> dict:
    return {"type": "run", "job_id": job_id, "circuit": circuit_to_obj(circuit),
            "config": config}


def teleport_circuits(idle: int = 0) -> list[Circuit]:
    """Part a teleports |1> to part b, which measures it: b's bit reads 1.
    a puts each of its `idle` extra qubits in superposition and measures it
    into its one clbit, which a measurement of a reset qubit overwrites at
    the end, so the counts are {"10": shots} whatever `idle` is. The idle
    outcomes leave each shot in one of 2^idle states: few shots share a
    branch, so a chunk holds few shots and the job takes a while."""
    a = Circuit(1 + idle, 1, id="a")
    a.x(0)
    for q in range(1, 1 + idle):
        a.h(q).measure(q, 0)
    a.qsend(0, "b")
    a.reset(0).measure(0, 0)
    b = Circuit(1, 1, id="b")
    b.qrecv(0, "a")
    b.measure(0, 0)
    return [a, b]


SLOW_IDLE = 6  # about 0.5 s for 2,000 shots of the merged 10-qubit circuit


def teleport_part(index, job_id, shots, idle=0) -> dict:
    return {"type": "part", "job_id": job_id, "k": 2, "index": index,
            "circuit": circuit_to_obj(teleport_circuits(idle)[index]),
            "config": {"shots": shots, "seed": 3}}


def wait_until(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError(what)
        time.sleep(0.01)


def wait_in_thread(srv, timeout: float) -> None:
    waiter = threading.Thread(target=srv.wait, daemon=True)
    waiter.start()
    waiter.join(timeout)
    assert not waiter.is_alive(), f"wait() did not return within {timeout} s"


@pytest.mark.parametrize("payload", [5, None, [1], "x"])
def test_non_object_frame_gets_schema_violation(service, payload):
    sock = open_conn(service)
    send_frame(sock, payload)
    reply = recv_frame(sock)
    assert reply["type"] == "error" and reply["code"] == "SchemaViolation"
    assert request(sock, {"type": "status"})["type"] == "ack"
    sock.close()


def test_frame_cut_mid_payload(service):
    raw = socket.create_connection((service.host, service.port), timeout=1.0)
    raw.sendall(struct.pack(">I", 100) + b"x" * 10)
    raw.close()
    t0 = time.monotonic()
    sock = open_conn(service, timeout=1.0)
    assert request(sock, {"type": "status"})["type"] == "ack"
    sock.close()
    assert time.monotonic() - t0 < 1.0


def test_repeated_run_is_acked_and_runs_once():
    srv = SERVICES["vqpu"]()
    executed = []
    execute = srv._execute
    srv._execute = lambda task: (executed.append(task.job_id), execute(task))[1]
    srv.start()
    try:
        sock = open_conn(srv)
        frame = run_frame("same", slow_circuit(), shots=200)
        acks = [request(sock, frame) for _ in range(2)]
        wait_until(lambda: request(sock, {"type": "result", "job_id": "same"})
                   ["type"] == "result", 10, "job same never finished")
        acks.append(request(sock, frame))  # resent after the job is done
        assert acks == [{"type": "ack", "job_id": "same"}] * 3
        status = request(sock, {"type": "status"})
        assert status == {"type": "ack", "state": "idle", "queued": 0}
        assert executed == ["same"]
        sock.close()
    finally:
        srv.stop()


def test_ttl_expiry_drains_running_and_queued_work(cunqa_home):
    srv = SERVICES["vqpu"](ttl_seconds=1)
    registry.add_entries([RegistryEntry(
        family="svc", vqpu_id=srv.config.vqpu_id, host="127.0.0.1", port=1,
        backend_path="", comm_mode="none", co_located=False, pid=os.getpid(),
        raised_at=time.time(), ttl_seconds=1)])
    srv.start()
    try:
        sock = open_conn(srv)
        for job_id, shots in (("running", 1200), ("queued", 400)):
            reply = request(sock, run_frame(job_id, slow_circuit(), shots=shots))
            assert reply["type"] == "ack"
        sock.close()
        wait_in_thread(srv, timeout=15.0)
        assert srv._states == {"running": "done", "queued": "done"}
        assert registry.read_registry() == []
    finally:
        srv.stop()


def test_shutdown_during_merged_job_drains_it(cunqa_home):
    srv = SERVICES["executor"]()
    srv.start()
    replies = {}

    def submit(index):
        sock = open_conn(srv, timeout=30.0)
        replies[index] = request(sock, teleport_part(index, "merged", 2000,
                                                     idle=SLOW_IDLE))
        sock.close()

    parts = [threading.Thread(target=submit, args=(i,)) for i in (0, 1)]
    try:
        for t in parts:
            t.start()
        sock = open_conn(srv)
        wait_until(lambda: request(sock, {"type": "status"})["state"] == "busy",
                   10, "merged job never started")
        assert request(sock, {"type": "shutdown"}) == {"type": "ack"}
        refused = request(sock, teleport_part(0, "late", 10))
        assert refused["type"] == "error" and refused["code"] == "Expired"
        sock.close()
        wait_in_thread(srv, timeout=30.0)
        assert not srv._busy and not srv._jobs
        for t in parts:
            t.join(5.0)
            assert not t.is_alive()
        assert [replies[i]["type"] for i in (0, 1)] == ["result", "result"]
        assert replies[0]["counts"] == replies[1]["counts"] == {"10": 2000}
    finally:
        srv.stop()


def test_shutdown_fails_a_half_assembled_job_at_once(cunqa_home):
    srv = SERVICES["executor"]()
    srv.start()
    replies = {}

    def submit():
        sock = open_conn(srv, timeout=30.0)
        replies[0] = request(sock, teleport_part(0, "half", 10))
        sock.close()

    part0 = threading.Thread(target=submit)
    try:
        part0.start()
        wait_until(lambda: srv._queued() == 1, 10, "part 0 never arrived")
        sock = open_conn(srv)
        assert request(sock, {"type": "shutdown"}) == {"type": "ack"}
        late = request(sock, teleport_part(1, "half", 10))
        assert late["type"] == "error" and late["code"] == "Expired"
        sock.close()
        t0 = time.monotonic()
        wait_in_thread(srv, timeout=DRAIN_S)
        assert time.monotonic() - t0 < 2.0
        part0.join(5.0)
        assert not part0.is_alive()
        assert replies[0]["type"] == "error" and replies[0]["code"] == "Expired"
    finally:
        srv.stop()


def test_killed_executor_fails_both_parts(raise_family):
    fam = raise_family(2, quantum_comm=True)
    executor = next(e for e in registry.read_registry()
                    if e.family == fam and e.is_executor)
    jobs = run_distributed(teleport_circuits(SLOW_IDLE), get_qpus(family=fam),
                           shots=20_000, seed=1)
    wait_until(lambda: (_probe_status(executor.host, executor.port) or {})
               .get("state") == "busy", 10, "merged job never started")
    os.kill(executor.pid, signal.SIGKILL)
    t0 = time.monotonic()
    for job in jobs:
        with pytest.raises(JobFailed, match="PeerUnreachable"):
            job.wait()
    assert time.monotonic() - t0 < 10.0
