"""The service skeleton both server processes share: dispatch and error
mapping, the job table with its idempotent `run` and its encoded replies,
the drain path of `shutdown` and TTL expiry, and faults (a peer that dies,
a frame cut off mid-payload, a reply the client cannot read)."""

import contextlib
import copy
import gc
import json
import os
import signal
import socket
import struct
import threading
import time
import tracemalloc

import pytest

from dqcemu import protocol, registry
from dqcemu.algorithms import inverse_qft
from dqcemu.circuit import Circuit, Param
from dqcemu.client import QpuConnection, get_qpus, run, run_distributed
from dqcemu.errors import JobFailed, UnreadableReply
from dqcemu.executor import ExecutorServer
from dqcemu.orchestrator import _probe_status
from dqcemu.protocol import (
    RESULT_WAIT_MAX_MS,
    ServiceConfig,
    connect,
    encode,
    recv_frame,
    request,
    send_frame,
)
from dqcemu.registry import RegistryEntry
from dqcemu.server import VqpuServer
from dqcemu.wire import circuit_to_obj

SERVICES = {
    "vqpu": lambda **kw: VqpuServer(ServiceConfig("svc-0", **kw)),
    "executor": lambda **kw: ExecutorServer(ServiceConfig("svc-executor", **kw)),
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


def teleport_program(job_id, shots, idle=0) -> dict:
    return {"type": "run", "job_id": job_id,
            "circuits": [circuit_to_obj(c) for c in teleport_circuits(idle)],
            "config": {"shots": shots, "seed": 3}}


def job_frame(kind, job_id, shots) -> dict:
    """The `run` frame of one slow job: a circuit on a vQPU, a program of
    two parts on the executor."""
    if kind == "vqpu":
        return run_frame(job_id, slow_circuit(), shots=shots)
    return teleport_program(job_id, shots, idle=SLOW_IDLE)


def wait_result(sock, job_id) -> dict:
    """Blocking `result` frames until the job is done or failed."""
    while (reply := request(sock, {"type": "result", "job_id": job_id,
                                   "wait_ms": RESULT_WAIT_MAX_MS}))["type"] == "ack":
        pass
    return reply


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


def test_both_services_report_the_same_run_metadata():
    """A vQPU's result and the executor's name the seed, engine, RNG and
    shots of their run, its queue wait and the engine's counters alike."""
    common = {"seed", "engine", "rng", "shots", "queue_wait", "peak_branches",
              "chunks", "state_qubits"}
    for kind, make in SERVICES.items():
        srv = make()
        srv.start()
        try:
            sock = open_conn(srv)
            assert request(sock, job_frame(kind, "meta", 20))["type"] == "ack", kind
            meta = wait_result(sock, "meta")["metadata"]
            sock.close()
        finally:
            srv.stop()
        assert common <= set(meta), kind
        assert isinstance(meta["seed"], int), kind
        assert (meta["engine"], meta["rng"], meta["shots"]) == (
            "statevector", "pcg64", 20), kind
        assert meta["queue_wait"] >= 0, kind


@pytest.mark.parametrize("payload", [5, None, [1], "x"])
def test_non_object_frame_gets_schema_violation(service, payload):
    sock = open_conn(service)
    send_frame(sock, payload)
    reply = recv_frame(sock)
    assert reply["type"] == "error" and reply["code"] == "SchemaViolation"
    assert request(sock, {"type": "status"})["type"] == "ack"
    sock.close()


@pytest.mark.parametrize("job_id", [[1], {"id": "j"}, 7, "", None, "absent"])
@pytest.mark.parametrize("kind, name", [
    ("run", "vqpu"), ("run", "executor"), ("result", "vqpu"), ("result", "executor"),
    ("upgrade_parameters", "vqpu")])
def test_a_malformed_job_id_is_a_schema_violation(kind, name, job_id):
    """Every frame that names a job answers a job id that is not a
    non-empty string with SchemaViolation at `job_id`, not InternalError."""
    frame = {"type": kind, "config": {"shots": 1}, "params": []}
    if job_id != "absent":
        frame["job_id"] = job_id
    reply = SERVICES[name]()._dispatch(frame)
    assert (reply["code"], reply["message"]) == (
        "SchemaViolation", "job_id: expected a non-empty string")


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
    """On both services: a job's `run` frame, sent again while the job is
    queued or running or after it is done, is acked and runs nothing."""
    for kind, make in SERVICES.items():
        srv = make()
        executed = []
        execute = srv._execute
        srv._execute = lambda task: (executed.append(task.job_id), execute(task))[1]
        srv.start()
        try:
            sock = open_conn(srv)
            frame = job_frame(kind, "same", 200)
            acks = [request(sock, frame) for _ in range(2)]
            wait_until(lambda: request(sock, {"type": "result", "job_id": "same"})
                       ["type"] == "result", 10, "job same never finished")
            acks.append(request(sock, frame))  # after the job is done
            assert acks == [{"type": "ack", "job_id": "same"}] * 3, kind
            status = request(sock, {"type": "status"})
            assert status == {"type": "ack", "state": "idle", "queued": 0}, kind
            assert executed == ["same"], kind
            sock.close()
        finally:
            srv.stop()


def test_ttl_expiry_drains_running_and_queued_work(cunqa_home):
    srv = SERVICES["vqpu"](ttl_seconds=1)
    registry.add_entries([RegistryEntry(
        family="svc", vqpu_id=srv.config.service_id, host="127.0.0.1", port=1,
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
        assert {j: job.state for j, job in srv._jobs.items()} == {
            "running": "done", "queued": "done"}
        assert registry.read_registry() == []
    finally:
        srv.stop()


def test_shutdown_during_merged_job_drains_it(cunqa_home):
    srv = SERVICES["executor"]()
    srv.start()
    replies = {}

    def collect(index):
        sock = open_conn(srv, timeout=30.0)
        replies[index] = wait_result(sock, "merged")
        sock.close()

    parts = [threading.Thread(target=collect, args=(i,)) for i in (0, 1)]
    try:
        sock = open_conn(srv)
        assert request(sock, teleport_program("merged", 2000,
                                              idle=SLOW_IDLE))["type"] == "ack"
        for t in parts:
            t.start()
        wait_until(lambda: request(sock, {"type": "status"})["state"] == "busy",
                   10, "merged job never started")
        assert request(sock, {"type": "shutdown"}) == {"type": "ack"}
        refused = request(sock, teleport_program("late", 10))
        assert refused["type"] == "error" and refused["code"] == "Expired"
        sock.close()
        wait_in_thread(srv, timeout=30.0)
        assert not srv._busy
        for t in parts:
            t.join(5.0)
            assert not t.is_alive()
        assert [replies[i]["type"] for i in (0, 1)] == ["result", "result"]
        assert replies[0]["counts"] == replies[1]["counts"] == {"10": 2000}
    finally:
        srv.stop()


def test_killed_executor_fails_both_parts(adopt_orphans, raise_family):
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


def test_killed_vqpu_fails_its_job_with_peer_unreachable(raise_family):
    """A job whose vQPU dies fails with JobFailed, not a transport error."""
    fam = raise_family(1)
    qpu = get_qpus(family=fam)[0]
    job = run(qpu, slow_circuit(), shots=50_000, seed=1)
    wait_until(lambda: (_probe_status(qpu.entry.host, qpu.entry.port) or {})
               .get("state") == "busy", 10, "job never started")
    os.kill(qpu.entry.pid, signal.SIGKILL)
    t0 = time.monotonic()
    with pytest.raises(JobFailed, match="PeerUnreachable"):
        job.wait()
    assert time.monotonic() - t0 < 2.0
    assert job.state == "failed" and job.poll() == "failed"


# -- the reply table: a finished job keeps its encoded `result` reply -------


def all_h_frame(service, job_id, shots, seed=1) -> dict:
    """The `run` frame of a 12-qubit all-`h` job, whose reply lists about as
    many counts as it has shots, up to 4,096: the circuit on a vQPU; on the
    executor a program of it and an idle one-qubit peer."""
    c = Circuit(12, 12, id="all-h")
    for q in range(12):
        c.h(q)
    c.measure(list(range(12)), list(range(12)))
    config = {"shots": shots, "seed": seed}
    if isinstance(service, VqpuServer):
        return run_frame(job_id, c, **config)
    return {"type": "run", "job_id": job_id, "config": config,
            "circuits": [circuit_to_obj(c), circuit_to_obj(Circuit(1, 0, id="idle"))]}


def raw_reply(sock, frame) -> bytes:
    """The payload of the reply to `frame`, as it came over the wire."""
    send_frame(sock, frame)
    (length,) = struct.unpack(">I", sock.recv(4, socket.MSG_WAITALL))
    return sock.recv(length, socket.MSG_WAITALL)


def test_a_done_job_keeps_the_reply_its_record_encodes_to(service):
    """The stored reply of a done job is its ResultRecord's `to_obj()` as
    compact JSON, byte for byte, and `result` sends those bytes."""
    records = []
    execute = service._execute
    service._execute = lambda task: (records.append(execute(task)), records[-1])[1]
    sock = open_conn(service)
    assert request(sock, all_h_frame(service, "enc", 300))["type"] == "ack"
    reply = wait_result(sock, "enc")
    (record,) = records
    want = json.dumps(record.to_obj(), separators=(",", ":")).encode("utf-8")
    assert reply == record.to_obj() and "queue_wait" in reply["metadata"]
    with service._lock:
        assert service._jobs["enc"].reply == want
    assert raw_reply(sock, {"type": "result", "job_id": "enc"}) == want
    sock.close()


def test_stored_replies_stay_under_a_frame_and_evict_oldest_first(service, monkeypatch):
    """With a 64 KiB frame cap, 12-qubit all-`h` jobs of about 14 KiB of
    reply each are kept only while their replies fit in one frame: past it
    the job that finished first is evicted (`Evicted`), long before
    MAX_FINISHED_JOBS jobs."""
    cap = 64 << 10
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", cap)
    sock = open_conn(service)
    sizes = []
    for i in range(10):
        assert request(sock, all_h_frame(service, f"h{i}", 1000, seed=i))["type"] == "ack"
        assert wait_result(sock, f"h{i}")["type"] == "result"
        with service._lock:
            sizes.append(len(service._jobs[f"h{i}"].reply))
            stored = sum(len(job.reply) for job in service._jobs.values() if job.reply)
            assert stored == service._stored <= cap
    answers = [request(sock, {"type": "result", "job_id": f"h{i}"}) for i in range(10)]
    kept = [a["type"] == "result" for a in answers]
    assert kept == sorted(kept) and 1 < sum(kept) < 10  # an evicted prefix
    assert {a["code"] for a in answers if a["type"] == "error"} == {"Evicted"}
    assert sum(sizes[kept.index(True):]) <= cap < sum(sizes[kept.index(True) - 1:])
    sock.close()


def test_a_reply_larger_than_a_frame_fails_its_job(service, monkeypatch):
    """A result whose reply alone is larger than MAX_FRAME_BYTES could never
    be read: its job fails with ReplyTooLarge, which `result` answers, and
    the service keeps running jobs."""
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 16 << 10)
    sock = open_conn(service)
    assert request(sock, all_h_frame(service, "huge", 4096))["type"] == "ack"
    reply = wait_result(sock, "huge")
    assert (reply["type"], reply["code"], reply["job_id"]) == ("error", "ReplyTooLarge", "huge")
    assert "exceeds the 16384 bytes a frame may carry" in reply["message"]
    assert request(sock, all_h_frame(service, "small", 10))["type"] == "ack"
    assert wait_result(sock, "small")["type"] == "result"
    with service._lock:
        assert service._jobs["huge"].state == "failed"
    sock.close()


def parametric_circuit(gates: int) -> Circuit:
    """12 qubits in `h`, `gates` `rz` on one parameter, all measured: a
    kept task is charged about 580 bytes per `rz`."""
    c = Circuit(12, 12, id="param")
    for q in range(12):
        c.h(q)
    for k in range(gates):
        c.rz(Param("a"), k % 12)
    c.measure(list(range(12)), list(range(12)))
    return c


OLD_EXPOSE = [  # an expose as a region: a begin marker, the body, an end marker
    {"name": "expose_begin", "qubits": [0], "clbits": [], "params": [],
     "remote": {"peer": "tgt", "seq": 0}},
    {"name": "crz", "qubits": [0], "clbits": [], "params": [0.5]},
    {"name": "expose_end", "qubits": [0], "clbits": [], "params": [],
     "remote": {"peer": "tgt", "seq": 0}}]


@pytest.mark.parametrize("old", ["region", "region-with-roles", "send-with-role"])
def test_frames_of_the_old_form_fail_typed(service, old):
    """A part whose expose is a region of markers, or whose links carry a
    role, is refused at its frame with SchemaViolation or ValidationFailed,
    on a vQPU and on the executor, never with an InternalError; the
    service serves the next job."""
    instructions = copy.deepcopy(OLD_EXPOSE)
    if old == "send-with-role":
        instructions = [{"name": "measure_and_send", "qubits": [0], "clbits": [],
                         "params": [], "remote": {"peer": "tgt", "seq": 0}}]
    if old != "region":
        for ins in instructions:
            if "remote" in ins:
                ins["remote"]["role"] = "sender"
    part = {"id": "anc", "num_qubits": 1, "num_clbits": 0, "instructions": instructions}
    frame = {"type": "run", "job_id": f"old-{old}", "config": {"shots": 10, "seed": 1}}
    if isinstance(service, VqpuServer):
        frame["circuit"] = part
    else:
        frame["circuits"] = [part, circuit_to_obj(Circuit(1, 0, id="tgt"))]
    sock = open_conn(service)
    reply = request(sock, frame)
    expected = "ValidationFailed" if old == "region" else "SchemaViolation"
    assert (reply["type"], reply["code"]) == ("error", expected), reply
    assert request(sock, all_h_frame(service, "next", 10))["type"] == "ack"
    assert wait_result(sock, "next")["type"] == "result"
    sock.close()


def charge(srv, frame) -> int:
    """What `srv` charges a done job of the run `frame` for keeping its task."""
    return srv._kept_bytes(srv._decode(frame["job_id"], frame, frame["config"]))


def test_kept_tasks_stay_under_a_frame_and_evict_oldest_first(monkeypatch):
    """A done job whose circuit has parameter slots keeps its task for
    `upgrade_parameters`, charged what the task holds beside its reply.
    With a 64 KiB frame cap, done jobs charged about 12 KiB keep the
    replies plus charges under the cap, and past it the jobs that finished
    first are evicted; a rerun gives its charge back until it finishes
    anew. A job whose task and reply would not fit in one frame keeps its
    reply, drops its task, and `upgrade_parameters` answers it Evicted."""
    cap = 64 << 10
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", cap)
    srv = VqpuServer(ServiceConfig("svc-0"))
    srv.start()
    sock = open_conn(srv)

    def charged() -> int:  # what the table holds: replies, and kept tasks' charges
        with srv._lock:
            stored = sum(len(job.reply) + (job.task and srv._kept_bytes(job.task) or 0)
                         for job in srv._jobs.values() if job.reply)
            assert stored == srv._stored <= cap
            return stored

    circuit = parametric_circuit(8)
    assert 11 << 10 < charge(srv, run_frame("p0", circuit, shots=10, params=[0.0])) < 13 << 10
    for i in range(10):
        frame = run_frame(f"p{i}", circuit, shots=10, seed=i, params=[0.1 * i])
        assert request(sock, frame)["type"] == "ack"
        assert wait_result(sock, f"p{i}")["type"] == "result"
        charged()
    answers = [request(sock, {"type": "result", "job_id": f"p{i}"}) for i in range(10)]
    kept = [a["type"] == "result" for a in answers]
    assert kept == sorted(kept) and 1 < sum(kept) < 10  # an evicted prefix
    assert {a["code"] for a in answers if a["type"] == "error"} == {"Evicted"}
    upgrade = {"type": "upgrade_parameters", "job_id": "p9", "params": [2.0]}
    assert request(sock, upgrade)["type"] == "ack"
    charged()
    assert wait_result(sock, "p9")["type"] == "result"
    charged()

    big = run_frame("big", parametric_circuit(56), shots=4096, seed=1, params=[0.3])
    assert 38 << 10 < charge(srv, big) < 42 << 10
    assert request(sock, big)["type"] == "ack"
    assert wait_result(sock, "big")["type"] == "result"
    reply = raw_reply(sock, {"type": "result", "job_id": "big"})
    assert len(reply) + charge(srv, big) > cap
    with srv._lock:
        assert srv._jobs["big"].task is None and srv._jobs["big"].state == "done"
    charged()
    upgrade = {"type": "upgrade_parameters", "job_id": "big", "params": [0.5]}
    assert request(sock, upgrade)["code"] == "Evicted"
    sock.close()
    srv.stop()


def kept_task_frames(peers: dict[str, str]) -> list[dict]:
    """Run frames of circuits with parameter slots, of several shapes: 5,000
    `rz` on one slot; a 26-qubit `measure`; a 7-qubit QPE with a slot per
    controlled rotation; `u` gates, slots with long and non-ASCII names;
    and the two parts of a classical program (one job on two vQPUs) with
    long peer ids, linked as `peers` (circuit id -> host:port) says."""
    wide = Circuit(26, 26, id="wide")
    wide.rz(Param("a"), 0).measure(list(range(26)), list(range(26)))
    qpe = Circuit(7, 6, id="qpe-param")
    for t in range(6):
        qpe.h(t)
    qpe.x(6)
    for t in range(6):
        qpe.crz(Param(f"a{t}"), t, 6)
    inverse_qft(qpe, range(6))
    for t in range(6):
        qpe.measure(t, t)
    names = Circuit(3, 3, id="names")
    for k in range(300):
        names.u(0.1 * k, Param("θ" * 40), Param(f"slot-{k % 7}" * 9), k % 3)
    names.measure([0, 1, 2], [0, 1, 2])
    sender_id, receiver_id = sorted(peers)
    sender = Circuit(1, 1, id=sender_id)
    receiver = Circuit(2, 1, id=receiver_id)
    for k in range(200):
        sender.rx(Param("a"), 0).measure_and_send(0, receiver_id)
        receiver.remote_c_if("rz", [k % 2], sender_id, params=[0.5 + k]).rz(Param("b"), 1)
    sender.measure(0, 0)
    receiver.measure(1, 0)
    return [run_frame("rz5000", parametric_circuit(5000), shots=10, seed=1, params=[0.2]),
            run_frame("wide", wide, shots=100, seed=2, params=[0.3]),
            run_frame("qpe", qpe, shots=1000, seed=3, params=[0.1 * t for t in range(6)]),
            run_frame("names", names, shots=20, seed=4, params=[0.4] * 8),
            run_frame("link", sender, shots=20, seed=5, params=[0.5], plan=peers),
            run_frame("link", receiver, shots=20, seed=6, params=[0.6], plan=peers)]


def traced_task(srv, frame) -> int:
    """The bytes a task decoded from `frame`'s payload keeps, as the
    receiver decodes it, traced with `tracemalloc`."""
    payload = encode(frame)
    charge(srv, frame)  # anything the first decode caches is no part of a task
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        obj = json.loads(payload.decode("utf-8"))
        task = srv._decode(obj["job_id"], obj, obj["config"])
        del obj
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        del task


def test_a_kept_task_holds_no_more_than_its_charge():
    """What a done job is charged in `_finished` for keeping its task, its
    entry less its reply, is at least what the task holds: `tracemalloc`
    traced over circuits of several shapes, among them 5,000 `rz` on one
    slot and a 26-qubit `measure`. A charge of the circuit's wire bytes
    fell short by 4-12 times."""
    servers = [VqpuServer(ServiceConfig(f"kept-{i}", comm_mode="classical")) for i in (0, 1)]
    for srv in servers:
        srv.start()
    try:
        peers = {f"{'s' * 60}-{i}": f"{srv.host}:{srv.port}" for i, srv in enumerate(servers)}
        frames = kept_task_frames(peers)
        where = [servers[f["circuit"]["id"] == max(peers)] for f in frames]  # receiver: 1
        socks = [open_conn(srv) for srv in where]
        for sock, frame in zip(socks, frames):
            assert request(sock, frame)["type"] == "ack"
        for sock, frame in zip(socks, frames):  # no job runs while tasks are traced
            assert wait_result(sock, frame["job_id"])["type"] == "result", frame["job_id"]
            sock.close()
        for frame, srv in zip(frames, where):
            with srv._lock:
                job = srv._jobs[frame["job_id"]]
                kept = srv._finished[frame["job_id"]] - len(job.reply)
            assert job.task is not None and kept == srv._kept_bytes(job.task)
            assert traced_task(srv, frame) <= kept, frame["job_id"]
    finally:
        for srv in servers:
            srv.stop()


def test_an_unreadable_reply_closes_the_connection(monkeypatch):
    """A reply `recv_frame` refuses, here a header over MAX_FRAME_BYTES
    whose payload never comes, raises UnreadableReply and closes the
    connection, so the next request reconnects instead of reading a stale
    payload as its header, and gets its reply."""
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()[:2]

    def stub():
        for reply in (struct.pack(">I", protocol.MAX_FRAME_BYTES + 1),
                      {"type": "ack", "state": "idle", "queued": 0}):
            conn, _ = listener.accept()
            with conn:
                recv_frame(conn)
                if isinstance(reply, bytes):
                    conn.sendall(reply + b"x" * 64)  # the start of a payload
                else:
                    send_frame(conn, reply)
                with contextlib.suppress(OSError):  # a reset, unread bytes left
                    conn.recv(1)  # until the client closes

    server = threading.Thread(target=stub, daemon=True)
    server.start()
    connection = QpuConnection(host, port)
    try:
        with pytest.raises(UnreadableReply, match="exceeds"):
            connection.request({"type": "status"})
        assert connection._sock is None
        assert connection.request({"type": "status"}) == {
            "type": "ack", "state": "idle", "queued": 0}
    finally:
        connection.close()
        server.join(5.0)
        listener.close()
    assert not server.is_alive()
