import socket
import time
from types import SimpleNamespace

import pytest

from dqcemu import engine
from dqcemu import server as server_module
from dqcemu.circuit import Circuit, Param
from dqcemu.client import QJob, QpuConnection
from dqcemu.protocol import DRAIN_S, connect, recv_frame, request, send_frame
from dqcemu.server import RESULT_WAIT_MAX_MS, VqpuConfig, VqpuServer
from dqcemu.wire import circuit_to_obj


@pytest.fixture()
def server():
    srv = VqpuServer(VqpuConfig(family="test", index=0))
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture()
def conn(server):
    sock = connect(server.host, server.port)
    sock.settimeout(10.0)
    yield sock
    sock.close()


def bell() -> Circuit:
    c = Circuit(2, 2, id="bell")
    c.h(0).cx(0, 1).measure(0, 0).measure(1, 1)
    return c


def submit(sock, circuit, job_id="j1", **config) -> dict:
    config.setdefault("shots", 100)
    return request(sock, {"type": "run", "job_id": job_id,
                          "circuit": circuit_to_obj(circuit),
                          "config": config})


def poll_result(sock, job_id, timeout=10.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        reply = request(sock, {"type": "result", "job_id": job_id})
        if reply["type"] != "ack":
            return reply
        time.sleep(0.01)
    raise TimeoutError(f"job {job_id} still pending")


def slow_circuit(shots_scale=200) -> tuple[Circuit, int]:
    """About a millisecond per shot: mid-circuit measurements into clbits
    of their own give nearly every shot its own branch."""
    c = Circuit(4, 28, id="slow")
    for r in range(12):
        for q in range(4):
            c.h(q)
        c.cx(0, 1)
        c.measure([2, 3], [4 + 2 * r, 5 + 2 * r])
    for q in range(4):
        c.measure(q, q)
    return c, shots_scale


def test_bell_task_roundtrip(conn):
    ack = submit(conn, bell(), shots=200, seed=5)
    assert ack == {"type": "ack", "job_id": "j1"}
    reply = poll_result(conn, "j1")
    assert reply["type"] == "result"
    assert set(reply["counts"]) <= {"00", "11"}
    assert sum(reply["counts"].values()) == 200
    assert reply["metadata"]["seed"] == 5
    assert reply["metadata"]["rng"] == "pcg64"
    assert reply["time_taken"] > 0


def test_tasks_execute_fifo_and_both_retrievable(conn):
    c1 = Circuit(1, 1, id="c1")
    c1.x(0).measure(0, 0)
    c2 = Circuit(1, 1, id="c2")
    c2.measure(0, 0)
    submit(conn, c1, job_id="a", shots=10)
    submit(conn, c2, job_id="b", shots=10)
    ra = poll_result(conn, "a")
    rb = poll_result(conn, "b")
    assert ra["counts"] == {"1": 10}
    assert rb["counts"] == {"0": 10}


def test_status_answered_while_simulating(server, conn):
    circuit, shots = slow_circuit()
    submit(conn, circuit, job_id="long", shots=shots * 20)
    time.sleep(0.15)  # let the simulation start
    probe = connect(server.host, server.port)
    probe.settimeout(2.0)
    t0 = time.monotonic()
    reply = request(probe, {"type": "status"})
    elapsed = time.monotonic() - t0
    probe.close()
    assert reply["type"] == "ack"
    assert reply["state"] == "busy"
    assert elapsed < 0.1
    assert poll_result(conn, "long", timeout=30)["type"] == "result"


def test_unknown_job(conn):
    reply = request(conn, {"type": "result", "job_id": "ghost"})
    assert reply["type"] == "error" and reply["code"] == "UnknownJob"


def test_failed_task_isolated(conn):
    bad = Circuit(1, 0, id="bad")
    bad.qsend(0, "peer")  # quantum link on a comm_mode=none vQPU
    submit(conn, bad, job_id="bad")
    reply = poll_result(conn, "bad")
    assert reply["type"] == "error"
    assert reply["code"] == "ValidationFailed"
    assert "CommModeMismatch" in reply["message"]
    # the server keeps serving
    submit(conn, bell(), job_id="good", shots=10)
    assert poll_result(conn, "good")["type"] == "result"


def test_classical_circuit_needs_classical_mode(conn):
    c = Circuit(1, 1, id="cl")
    c.measure_and_send(0, "peer")
    submit(conn, c, job_id="cl")
    reply = poll_result(conn, "cl")
    assert reply["type"] == "error"
    assert "CommModeMismatch" in reply["message"]


def test_every_circuit_runs_on_the_one_engine(conn):
    """A mid-circuit and a terminal-only circuit both run on run_branched:
    the job gives the engine's counts and counters for its seed."""
    conditional = Circuit(2, 2, id="cond")
    conditional.h(0).measure(0, 0).c_if("x", 1, 0).measure(1, 1)
    for job_id, circuit in (("cond", conditional), ("plain", bell())):
        submit(conn, circuit, job_id=job_id, shots=50, seed=1)
        reply = poll_result(conn, job_id)
        counts, counters = engine.run_branched(circuit, 50, seed=1)
        assert reply["counts"] == counts
        assert {k: reply["metadata"][k] for k in counters} == counters
        assert "mode" not in reply["metadata"]


def test_result_carries_the_walk_counters(conn):
    circuit, shots = slow_circuit()
    submit(conn, circuit, job_id="walk", shots=shots, seed=2)
    reply = poll_result(conn, "walk")
    counts, counters = engine.run_branched(circuit, shots, seed=2)
    assert reply["counts"] == counts
    meta = reply["metadata"]
    assert (meta["peak_branches"], meta["chunks"]) == (counters["peak_branches"], 1)
    assert 1 < meta["peak_branches"] <= shots
    submit(conn, bell(), job_id="once", shots=50, seed=2)
    reply = poll_result(conn, "once")
    assert reply["counts"] == engine.run_branched(bell(), 50, seed=2)[0]
    assert (reply["metadata"]["peak_branches"], reply["metadata"]["chunks"]) == (1, 1)


def test_queue_backpressure():
    srv = VqpuServer(VqpuConfig(family="tiny", index=0, queue_size=2))
    srv.start()
    try:
        sock = connect(srv.host, srv.port)
        sock.settimeout(10.0)
        circuit, shots = slow_circuit()
        replies = [submit(sock, circuit, job_id=f"q{i}", shots=shots * 10)
                   for i in range(4)]
        kinds = [r["type"] for r in replies]
        assert "error" in kinds
        rejected = [r for r in replies if r["type"] == "error"]
        assert all(r["code"] == "QueueFull" and r["retriable"] for r in rejected)
        sock.close()
    finally:
        srv.stop()


def test_upgrade_parameters_sweep(conn):
    c = Circuit(1, 1, id="sweep")
    c.h(0)
    c.rz(Param("theta"), 0)
    c.h(0)
    c.measure(0, 0)
    submit(conn, c, job_id="s", shots=400, seed=7, params=[0.4])
    first = poll_result(conn, "s")
    assert first["type"] == "result"

    reply = request(conn, {"type": "upgrade_parameters", "job_id": "s",
                           "params": [2.8]})
    assert reply["type"] == "ack"
    second = poll_result(conn, "s")
    assert second["type"] == "result"
    assert second["counts"] != first["counts"]


def test_upgrade_errors(conn):
    reply = request(conn, {"type": "upgrade_parameters", "job_id": "none",
                           "params": [1.0]})
    assert reply["code"] == "UnknownJob"

    submit(conn, bell(), job_id="fixed", shots=10)
    poll_result(conn, "fixed")
    reply = request(conn, {"type": "upgrade_parameters", "job_id": "fixed",
                           "params": [1.0]})
    assert reply["code"] == "NoParamSlots"

    c = Circuit(1, 1, id="p")
    c.rz(Param("a"), 0)
    c.measure(0, 0)
    submit(conn, c, job_id="p", shots=10, params=[0.1])
    poll_result(conn, "p")
    reply = request(conn, {"type": "upgrade_parameters", "job_id": "p",
                           "params": [1.0, 2.0]})
    assert reply["code"] == "ArityMismatch"


def test_finished_jobs_are_evicted_oldest_first(server, conn, monkeypatch):
    """Past MAX_FINISHED_JOBS finished jobs the one that finished first
    loses its result, error or parameter slots; its id stays known, so a
    resent `run` is acked and not run again, and `result` and
    `upgrade_parameters` answer Evicted. A job run again by
    `upgrade_parameters` finishes anew."""
    monkeypatch.setattr(server_module, "MAX_FINISHED_JOBS", 2)
    param = Circuit(1, 1, id="p")
    param.rz(Param("a"), 0)
    param.measure(0, 0)
    bad = Circuit(1, 0, id="bad")
    bad.qsend(0, "peer")  # fails validation on a comm_mode=none vQPU

    submit(conn, param, job_id="p", shots=10, params=[0.1])
    assert poll_result(conn, "p")["type"] == "result"
    submit(conn, bad, job_id="bad")
    assert poll_result(conn, "bad")["code"] == "ValidationFailed"
    submit(conn, bell(), job_id="b1", shots=10)
    assert poll_result(conn, "b1")["type"] == "result"  # evicts p
    for frame in ({"type": "result", "job_id": "p"},
                  {"type": "upgrade_parameters", "job_id": "p", "params": [0.2]}):
        reply = request(conn, frame)
        assert (reply["type"], reply["code"], reply["job_id"]) == ("error", "Evicted", "p")
    assert submit(conn, param, job_id="p", shots=10, params=[0.1]) == {
        "type": "ack", "job_id": "p"}
    assert server.tasks.qsize() == 0
    assert poll_result(conn, "p")["code"] == "Evicted"

    submit(conn, param, job_id="q", shots=10, params=[0.1])
    assert poll_result(conn, "q")["type"] == "result"  # evicts bad
    assert poll_result(conn, "bad")["code"] == "Evicted"
    submit(conn, bell(), job_id="b2", shots=10)
    assert poll_result(conn, "b2")["type"] == "result"  # evicts b1
    assert poll_result(conn, "b1")["code"] == "Evicted"
    assert request(conn, {"type": "upgrade_parameters", "job_id": "q",
                          "params": [0.3]})["type"] == "ack"
    assert poll_result(conn, "q")["type"] == "result"  # now finished after b2
    submit(conn, bell(), job_id="b3", shots=10)
    assert poll_result(conn, "b3")["type"] == "result"  # evicts b2, not q
    assert poll_result(conn, "b2")["code"] == "Evicted"
    assert poll_result(conn, "q")["type"] == "result"
    with server._lock:
        assert sorted(server._results) == ["b3", "q"]
        assert not server._failures and list(server._retained) == ["q"]


def test_unbound_params_rejected(conn):
    c = Circuit(1, 1, id="u")
    c.rz(Param("theta"), 0)
    c.measure(0, 0)
    submit(conn, c, job_id="u", shots=10)
    reply = poll_result(conn, "u")
    assert reply["type"] == "error"
    assert reply["code"] == "ValidationFailed"


def test_counts_always_sum_to_shots(conn):
    for i, shots in enumerate((1, 17, 333)):
        submit(conn, bell(), job_id=f"n{i}", shots=shots, seed=i)
        reply = poll_result(conn, f"n{i}")
        assert sum(reply["counts"].values()) == shots


def test_bit_frames_are_one_way(server):
    sock = connect(server.host, server.port)
    sock.settimeout(0.3)
    send_frame(sock, {"src": "a", "dst": "b", "epoch": 0, "seq": 0, "bit": 1})
    send_frame(sock, {"type": "status"})
    reply = recv_frame(sock)  # only the status reply comes back
    assert reply["type"] == "ack"
    with pytest.raises((socket.timeout, TimeoutError)):
        recv_frame(sock)
    sock.close()


def test_shutdown_frame(cunqa_home):
    srv = VqpuServer(VqpuConfig(family="bye", index=0))
    srv.start()
    sock = connect(srv.host, srv.port)
    sock.settimeout(2.0)
    assert request(sock, {"type": "shutdown"})["type"] == "ack"
    sock.close()
    srv._shutdown.wait(5.0)
    assert srv._shutdown.is_set()


def timed(sock, frame) -> tuple[dict, float]:
    t0 = time.monotonic()
    reply = request(sock, frame)
    return reply, time.monotonic() - t0


def test_job_finishing_within_wait_ms_takes_one_result_frame(server):
    """QJob.wait blocks on the vQPU, not in a client sleep loop."""
    connection = QpuConnection(server.host, server.port)
    circuit, shots = slow_circuit()  # about 0.2 s
    reply = connection.request({"type": "run", "job_id": "w",
                                "circuit": circuit_to_obj(circuit),
                                "config": {"shots": shots}})
    assert reply["type"] == "ack"
    t0 = time.monotonic()
    record = QJob("w", SimpleNamespace(connection=connection)).wait()
    elapsed = time.monotonic() - t0
    assert sum(record.counts.values()) == shots
    assert connection.frame_log == ["run", "result"]
    assert elapsed < record.time_taken + 0.5  # answered as the job ended
    connection.close()


def test_unfinished_job_is_acked_after_wait_ms(conn):
    circuit, shots = slow_circuit()
    submit(conn, circuit, job_id="long", shots=shots * 5)  # about 1 s
    reply, elapsed = timed(conn, {"type": "result", "job_id": "long", "wait_ms": 300})
    assert reply == {"type": "ack", "job_id": "long", "state": "running"}
    assert 0.29 <= elapsed < 1.0
    assert poll_result(conn, "long", timeout=30)["type"] == "result"


def test_failed_and_unknown_jobs_answer_at_once(conn):
    bad = Circuit(1, 0, id="bad")
    bad.qsend(0, "peer")  # quantum link on a comm_mode=none vQPU
    submit(conn, bad, job_id="bad")
    reply, elapsed = timed(conn, {"type": "result", "job_id": "bad",
                                  "wait_ms": RESULT_WAIT_MAX_MS})
    assert reply["type"] == "error" and reply["code"] == "ValidationFailed"
    assert elapsed < 0.5
    reply, elapsed = timed(conn, {"type": "result", "job_id": "ghost",
                                  "wait_ms": RESULT_WAIT_MAX_MS})
    assert reply["type"] == "error" and reply["code"] == "UnknownJob"
    assert elapsed < 0.5


@pytest.mark.parametrize("wait_ms", [-1, 1.5, "100", True, None,
                                     RESULT_WAIT_MAX_MS + 1])
def test_bad_wait_ms_is_a_schema_violation(conn, wait_ms):
    submit(conn, bell(), job_id="j", shots=10)
    reply = request(conn, {"type": "result", "job_id": "j", "wait_ms": wait_ms})
    assert reply["type"] == "error" and reply["code"] == "SchemaViolation"


def test_shutdown_during_a_blocked_result_answers_it_and_drains(cunqa_home):
    """The drain waits for the job and the blocked `result`, which gets the
    job's result when it finishes."""
    srv = VqpuServer(VqpuConfig(family="bye", index=0))
    srv.start()
    conn = connect(srv.host, srv.port)
    conn.settimeout(5.0)
    circuit, shots = slow_circuit()
    submit(conn, circuit, job_id="long", shots=shots * 2)  # about 0.4 s
    send_frame(conn, {"type": "result", "job_id": "long",
                      "wait_ms": RESULT_WAIT_MAX_MS})
    time.sleep(0.1)  # the result is blocked
    other = connect(srv.host, srv.port)
    other.settimeout(2.0)
    t0 = time.monotonic()
    assert request(other, {"type": "shutdown"})["type"] == "ack"
    reply = recv_frame(conn)
    assert reply["type"] == "result" and reply["job_id"] == "long"
    assert sum(reply["counts"].values()) == shots * 2
    assert srv._shutdown.wait(DRAIN_S)
    assert time.monotonic() - t0 < DRAIN_S
    conn.close()
    other.close()
