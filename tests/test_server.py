import socket
import time
from contextlib import contextmanager
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from dqcemu import engine
from dqcemu import protocol
from dqcemu import server as server_module
from dqcemu.algorithms import QpeConfig, build_ipea_chain
from dqcemu.channel import BitMessage, ChannelEndpoint, establish
from dqcemu.circuit import Circuit, Param
from dqcemu.client import QJob, QpuConnection
from dqcemu.executor import ExecutorServer
from dqcemu.protocol import (
    DRAIN_S,
    RESULT_WAIT_MAX_MS,
    ServiceConfig,
    connect,
    recv_frame,
    request,
    send_frame,
)
from dqcemu.server import MAX_HELD_BITS, VqpuServer
from dqcemu.wire import circuit_to_obj

from oracles import run_shot_loop_reference


@pytest.fixture()
def server():
    srv = VqpuServer(ServiceConfig("test-0"))
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


def refused(sock, circuit, job_id, **config) -> dict:
    """The error a vQPU answers a `run` with at the frame; nothing is queued
    and the job stays unknown."""
    reply = submit(sock, circuit, job_id=job_id, **config)
    assert reply["type"] == "error"
    assert request(sock, {"type": "status"})["queued"] == 0
    assert request(sock, {"type": "result", "job_id": job_id})["code"] == "UnknownJob"
    return reply


def one_slot() -> Circuit:
    c = Circuit(1, 1, id="p")
    c.rz(Param("a"), 0)
    c.measure(0, 0)
    return c


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


def test_failed_task_isolated(monkeypatch):
    """A task that fails on the simulator thread fails alone: a classical
    part whose peer never sends times out waiting for its bit (under a
    recv timeout of 0.2 s), and the vQPU keeps serving."""
    monkeypatch.setattr(server_module, "ChannelEndpoint",
                        partial(ChannelEndpoint, recv_timeout_ms=200))
    srv = VqpuServer(ServiceConfig("test-0", comm_mode="classical"))
    srv.start()
    try:
        conn = connect(srv.host, srv.port)
        conn.settimeout(10.0)
        bad = Circuit(1, 0, id="bad")
        bad.qsend(0, "peer")  # a quantum link never runs on a vQPU
        reply = refused(conn, bad, "bad")
        assert reply["code"] == "ValidationFailed"
        assert "CommModeMismatch" in reply["message"]
        lonely = Circuit(1, 1, id="lonely")
        lonely.remote_c_if("x", [0], "peer").measure(0, 0)
        plan = {"lonely": f"{srv.host}:{srv.port}", "peer": "127.0.0.1:9"}
        assert submit(conn, lonely, job_id="lonely", shots=3, plan=plan)["type"] == "ack"
        reply = poll_result(conn, "lonely")
        assert (reply["type"], reply["code"]) == ("error", "ChannelTimeout")
        submit(conn, bell(), job_id="good", shots=10)
        assert poll_result(conn, "good")["type"] == "result"
        conn.close()
    finally:
        srv.stop()


def test_params_of_the_wrong_count_are_refused_at_the_frame(conn):
    """A `run` binding another number of values than the circuit has slots
    is refused as `upgrade_parameters` refuses it; nothing is queued."""
    for job_id, circuit, params in (("two", one_slot(), [0.1, 0.2]),
                                    ("none", one_slot(), []),
                                    ("slotless", bell(), [0.5])):
        reply = refused(conn, circuit, job_id, params=params)
        want = len(circuit.param_slots())
        assert (reply["code"], reply["message"]) == (
            "ArityMismatch", f"expected {want} values, got {len(params)}")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_numbers_are_refused_at_the_frame(conn, value):
    """NaN and +-Infinity, which JSON carries, are refused with
    SchemaViolation as a circuit parameter, in `config.params` and in
    `upgrade_parameters` values."""
    x = float(value)
    c = Circuit(2, 2, id="nan")
    c.rx(x, 0).measure(0, 0).x(0).h(1).measure(1, 1)
    reply = refused(conn, c, "circuit")
    assert reply["code"] == "SchemaViolation" and "finite" in reply["message"]
    reply = refused(conn, one_slot(), "config", params=[x])
    assert (reply["code"], reply["message"]) == (
        "SchemaViolation", "config.params: expected a list of finite numbers")
    submit(conn, one_slot(), job_id="p", shots=10, params=[0.1])
    assert poll_result(conn, "p")["type"] == "result"
    reply = request(conn, {"type": "upgrade_parameters", "job_id": "p", "params": [x]})
    assert (reply["code"], reply["message"]) == (
        "SchemaViolation", "params: expected a list of finite numbers")


def too_wide() -> Circuit:
    """A circuit the backend takes and the engine refuses on the simulator
    thread: one qubit past the engine's cap."""
    c = Circuit(engine.MAX_QUBITS + 1, 1, id="wide")
    c.h(0).measure(0, 0)
    return c


def test_clbits_beyond_the_engines_cap_are_a_validation_failure(conn):
    wide = Circuit(1, engine.MAX_CLBITS + 1, id="wide")
    wide.measure(0, engine.MAX_CLBITS)
    reply = refused(conn, wide, "wide")
    assert (reply["type"], reply["code"]) == ("error", "ValidationFailed")
    assert "WidthExceeded" in reply["message"] and "clbits" in reply["message"]


@pytest.mark.parametrize("comm_mode", ["none", "classical", "quantum"])
def test_quantum_link_is_refused_in_every_comm_mode(comm_mode):
    """Quantum-link parts run on the family executor, never on a vQPU."""
    srv = VqpuServer(ServiceConfig("test-0", comm_mode=comm_mode))
    srv.start()
    try:
        sock = connect(srv.host, srv.port)
        sock.settimeout(10.0)
        part = Circuit(1, 0, id="part")
        part.qsend(0, "peer")
        reply = refused(sock, part, "q")
        assert (reply["type"], reply["code"]) == ("error", "ValidationFailed")
        assert "CommModeMismatch" in reply["message"]
        assert "executor" in reply["message"]
        sock.close()
    finally:
        srv.stop()


def test_classical_circuit_needs_classical_mode(conn):
    c = Circuit(1, 1, id="cl")
    c.measure_and_send(0, "peer")
    reply = refused(conn, c, "cl")
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


def test_queue_backpressure(monkeypatch):
    monkeypatch.setattr(protocol, "QUEUE_SIZE", 2)
    srv = VqpuServer(ServiceConfig("tiny-0"))
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
    monkeypatch.setattr(protocol, "MAX_FINISHED_JOBS", 2)
    param = Circuit(1, 1, id="p")
    param.rz(Param("a"), 0)
    param.measure(0, 0)

    submit(conn, param, job_id="p", shots=10, params=[0.1])
    assert poll_result(conn, "p")["type"] == "result"
    submit(conn, too_wide(), job_id="bad", shots=10)  # fails on the simulator thread
    assert poll_result(conn, "bad")["code"] == "WidthExceeded"
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
        jobs = server._jobs
        assert sorted(j for j in jobs if jobs[j].reply) == ["b3", "q"]
        assert [j for j in jobs if jobs[j].task] == ["q"]


def test_unbound_params_rejected(conn):
    c = Circuit(1, 1, id="u")
    c.rz(Param("theta"), 0)
    c.measure(0, 0)
    reply = refused(conn, c, "u", shots=10)
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
    send_frame(sock, BitMessage("a", "b", 0, 0, 1, "j").to_obj())
    send_frame(sock, {"type": "status"})
    reply = recv_frame(sock)  # only the status reply comes back
    assert reply["type"] == "ack"
    with pytest.raises((socket.timeout, TimeoutError)):
        recv_frame(sock)
    sock.close()


def held_bits(srv) -> int:
    """Bits the inboxes of a vQPU hold."""
    with srv._lock:
        return sum(len(bits) for inbox in srv._inboxes.values()
                   for bits in inbox._bits.values())


def held_size(srv) -> int:
    """The sizes of the inboxes of the parts a vQPU has not acked."""
    with srv._lock:
        return sum(inbox.size for inbox in srv._inboxes.values() if inbox.limit is None)


def test_bits_that_arrive_before_their_part_are_handed_over():
    """Bits for a job that reach its vQPU before the part's `run` wait in
    the job's inbox and reach the part once it runs. `run_distributed`
    submits a program's parts in circuit order, senders first, so over TCP
    a receiver's vQPU can get bits before it has acked, or started, the
    receiving part."""
    sender, receiver = build_ipea_chain(QpeConfig(n_ancilla=2, theta=2.0)).circuits
    shots, bits = 200, []

    def send(peer, epoch, seq, values):
        bits.append(BitMessage(sender.id, peer, epoch, seq, values, "r"))

    run_shot_loop_reference(sender, shots, 1, hooks=engine.ChannelHooks(send, None))
    inbox = ChannelEndpoint(receiver.id, {}, transport=None)
    for msg in bits:
        inbox.deliver(msg)
    expected = run_shot_loop_reference(receiver, shots, 2, hooks=inbox.hooks())
    srv = VqpuServer(ServiceConfig("early-0", comm_mode="classical"))
    srv.start()
    try:
        sock = connect(srv.host, srv.port)
        sock.settimeout(10.0)
        for msg in bits:
            send_frame(sock, msg.to_obj())
        assert request(sock, {"type": "status"})["type"] == "ack"  # after the bits
        assert held_bits(srv) == shots and held_size(srv) == srv._held == (
            ChannelEndpoint.SIZE + len("r") + len(receiver.id)
            + ChannelEndpoint.KEY_SIZE + len(sender.id) + shots)
        plan = {sender.id: "127.0.0.1:1", receiver.id: f"{srv.host}:{srv.port}"}
        ack = submit(sock, receiver, job_id="r", shots=shots, seed=2, plan=plan)
        assert ack == {"type": "ack", "job_id": "r"}
        reply = poll_result(sock, "r")
        assert reply["type"] == "result" and reply["counts"] == expected
        assert held_bits(srv) == srv._held == 0 and srv._inboxes == {}
        sock.close()
    finally:
        srv.stop()


def test_bits_no_part_reads_are_bounded():
    """A vQPU flooded with bits for jobs it never runs, in frames of 8192
    bits, holds at most MAX_HELD_BITS of them, dropping the bits of the job
    held longest and failing that job with ChannelTimeout; an acked part
    flooded past the bits it reads drops them and ends in ChannelTimeout.
    The vQPU then runs a classical program, one part of it fed from
    another vQPU, with the counts the program gets alone."""
    sender, receiver = build_ipea_chain(QpeConfig(n_ancilla=2, theta=2.0)).circuits
    flooded = VqpuServer(ServiceConfig("flood-0", comm_mode="classical"))
    peer = VqpuServer(ServiceConfig("flood-1", comm_mode="classical"))
    flooded.start()
    peer.start()
    try:
        sock = connect(flooded.host, flooded.port)
        sock.settimeout(10.0)
        plan = {sender.id: f"{peer.host}:{peer.port}",
                receiver.id: f"{flooded.host}:{flooded.port}"}
        # acked, it waits for its peer's bits; it reads 10 (one per shot)
        assert submit(sock, receiver, job_id="acked", shots=10, plan=plan)["type"] == "ack"
        frame = np.ones(8192, np.uint8)
        for i in range(2 * MAX_HELD_BITS // len(frame)):  # 50 jobs, each's shots in turn
            send_frame(sock, BitMessage("x", receiver.id, i // 50 * len(frame), 0, frame,
                                        f"ghost-{i % 50}").to_obj())
        for i in range(100):
            send_frame(sock, BitMessage("x", receiver.id, i, 0, 1, "acked").to_obj())
        reply = poll_result(sock, "acked")  # after the bits
        assert (reply["type"], reply["code"]) == ("error", "ChannelTimeout")
        assert held_size(flooded) == flooded._held <= MAX_HELD_BITS
        reply = request(sock, {"type": "result", "job_id": "ghost-0"})
        assert (reply["type"], reply["code"]) == ("error", "ChannelTimeout")

        shots, seeds = 300, (11, 12)
        hub = establish({c.id: c.id for c in (sender, receiver)})
        alone = [engine.run_branched(c, shots, seed, hub[c.id].hooks())[0]
                 for c, seed in zip((sender, receiver), seeds)]
        other = connect(peer.host, peer.port)
        other.settimeout(10.0)
        submit(other, sender, job_id="prog", shots=shots, seed=seeds[0], plan=plan)
        submit(sock, receiver, job_id="prog", shots=shots, seed=seeds[1], plan=plan)
        assert [poll_result(other, "prog")["counts"],
                poll_result(sock, "prog")["counts"]] == alone
        assert held_size(flooded) == flooded._held <= MAX_HELD_BITS
        other.close()
        sock.close()
    finally:
        flooded.stop()
        peer.stop()


def test_bit_frames_that_keep_nothing_are_bounded():
    """Each new job's first frame makes its inbox and counts toward
    MAX_HELD_BITS, even when it keeps no bit: a frame that leaves a gap or
    runs ahead of its sender's earlier seq makes no (sender, seq) entry and
    fails its inbox, which keeps no bit from then on. A flood of such frames
    over many jobs, or of one-bit frames from many senders to one job,
    holds at most MAX_HELD_BITS bytes and fails the jobs held longest."""
    srv = VqpuServer(ServiceConfig("ghost-0", comm_mode="classical"))
    srv.start()
    try:
        sock = connect(srv.host, srv.port)
        sock.settimeout(10.0)
        floods = MAX_HELD_BITS // ChannelEndpoint.SIZE // 2 + 50  # 100 inboxes too many
        for i in range(floods):  # a gap, then a seq ahead of seq 0, on a new job
            send_frame(sock, BitMessage("x", "r", 1, 0, 1, f"gap-{i}").to_obj())
            send_frame(sock, BitMessage("x", "r", 0, 1, 1, f"ahead-{i}").to_obj())
        for i in range(floods):  # more bits of a failed inbox keep none
            send_frame(sock, BitMessage(f"x{i}", "r", 0, 0, 1, f"ahead-{floods - 1}").to_obj())
        assert request(sock, {"type": "status"})["type"] == "ack"  # after the frames
        assert held_bits(srv) == 0
        assert held_size(srv) == srv._held <= MAX_HELD_BITS
        assert len(srv._inboxes) <= MAX_HELD_BITS // ChannelEndpoint.SIZE
        reply = request(sock, {"type": "result", "job_id": "gap-0"})
        assert (reply["type"], reply["code"]) == ("error", "ChannelTimeout")

        for i in range(2 * MAX_HELD_BITS // ChannelEndpoint.KEY_SIZE):
            send_frame(sock, BitMessage(f"x{i}", "r", 0, 0, 1, "senders").to_obj())
        assert request(sock, {"type": "status"})["type"] == "ack"
        assert held_size(srv) == srv._held <= MAX_HELD_BITS
        assert len(srv._inboxes) <= MAX_HELD_BITS // ChannelEndpoint.SIZE
        reply = request(sock, {"type": "result", "job_id": "senders"})
        assert (reply["type"], reply["code"]) == ("error", "ChannelTimeout")
        sock.close()
    finally:
        srv.stop()


def test_ghost_jobs_do_not_evict_real_results(conn, server):
    """Jobs failed for bits no part of theirs was acked to read are kept
    apart from the jobs that ran: a flood of more than MAX_FINISHED_JOBS of
    them leaves a finished job's result in place, and a late `run` of the
    last one still ends in ChannelTimeout without running."""
    assert submit(conn, bell(), job_id="real", shots=50, seed=2)["type"] == "ack"
    assert poll_result(conn, "real")["type"] == "result"
    ghosts = (MAX_HELD_BITS // ChannelEndpoint.SIZE + 2 * protocol.MAX_FINISHED_JOBS)
    for i in range(ghosts):
        send_frame(conn, BitMessage("x", "r", 0, 0, 1, f"ghost-{i}").to_obj())
    assert request(conn, {"type": "status"})["type"] == "ack"  # after the frames
    assert len(server._ghosts) == protocol.MAX_FINISHED_JOBS
    reply = request(conn, {"type": "result", "job_id": "real"})
    assert reply["type"] == "result" and sum(reply["counts"].values()) == 50
    last = next(reversed(server._ghosts))
    assert submit(conn, bell(), job_id=last, shots=10)["type"] == "ack"
    reply = request(conn, {"type": "result", "job_id": last})
    assert (reply["type"], reply["code"]) == ("error", "ChannelTimeout")
    reply = request(conn, {"type": "result", "job_id": "ghost-0"})  # pushed out
    assert (reply["type"], reply["code"]) == ("error", "UnknownJob")


def test_malformed_bit_frames_are_refused_at_the_frame():
    """Bit frames are input from outside the program. One with a bit that
    is not 0 or 1, or a field that does not fit, is answered with
    SchemaViolation and delivers nothing, over a live socket. The vQPU then
    runs a classical program whose receiving part it holds, with the counts
    the program gets alone."""
    sender, receiver = build_ipea_chain(QpeConfig(n_ancilla=2, theta=2.0)).circuits
    good = BitMessage(sender.id, receiver.id, 0, 0, 1, "prog").to_obj()
    old_style = {k: v for k, v in good.items() if k not in ("bits", "count")}
    bad = ([{**good, "bits": v} for v in ("1", 2, None, "zz", "0101", ["80"])]
           + [{**good, "count": v} for v in (0, -1, "1", 9, True, None)]
           + [{**good, "count": MAX_HELD_BITS + 1, "bits": "00" * (MAX_HELD_BITS // 8 + 1)}]
           + [{**good, k: v} for k in ("epoch", "seq") for v in (-1, 1.5, "0", True, None)]
           + [{**good, k: v} for k in ("src", "dst", "job") for v in (3, None)]
           + [{**old_style, "bit": v} for v in ("1", 2, None, 1)])
    srv = VqpuServer(ServiceConfig("strict-0", comm_mode="classical"))
    peer = VqpuServer(ServiceConfig("strict-1", comm_mode="classical"))
    srv.start()
    peer.start()
    try:
        sock = connect(srv.host, srv.port)
        sock.settimeout(10.0)
        for frame in bad:
            reply = request(sock, frame)
            assert (reply["type"], reply["code"]) == ("error", "SchemaViolation"), frame
        assert held_bits(srv) == srv._held == 0 and srv._inboxes == {}

        shots, seeds = 300, (11, 12)
        hub = establish({c.id: c.id for c in (sender, receiver)})
        alone = [engine.run_branched(c, shots, seed, hub[c.id].hooks())[0]
                 for c, seed in zip((sender, receiver), seeds)]
        plan = {sender.id: f"{peer.host}:{peer.port}", receiver.id: f"{srv.host}:{srv.port}"}
        other = connect(peer.host, peer.port)
        other.settimeout(10.0)
        submit(sock, receiver, job_id="prog", shots=shots, seed=seeds[1], plan=plan)
        submit(other, sender, job_id="prog", shots=shots, seed=seeds[0], plan=plan)
        assert [poll_result(other, "prog")["counts"],
                poll_result(sock, "prog")["counts"]] == alone
        other.close()
        sock.close()
    finally:
        srv.stop()
        peer.stop()


def test_shutdown_frame(cunqa_home):
    srv = VqpuServer(ServiceConfig("bye-0"))
    srv.start()
    sock = connect(srv.host, srv.port)
    sock.settimeout(2.0)
    assert request(sock, {"type": "shutdown"})["type"] == "ack"
    sock.close()
    srv._shutdown.wait(5.0)
    assert srv._shutdown.is_set()


SERVICES = {"vqpu": lambda: VqpuServer(ServiceConfig("bye-0")),
            "executor": lambda: ExecutorServer(ServiceConfig("bye-executor"))}


@contextmanager
def serving(kind):
    srv = SERVICES[kind]()
    srv.start()
    try:
        yield srv
    finally:
        srv.stop()


def job_frame(kind, job_id, circuit, **config) -> dict:
    """The `run` frame of a job of `circuit`: the circuit on a vQPU; on
    the executor a program of two parts, the circuit and an idle one-qubit
    peer."""
    config.setdefault("shots", 100)
    if kind == "vqpu":
        return {"type": "run", "job_id": job_id,
                "circuit": circuit_to_obj(circuit), "config": config}
    parts = [circuit, Circuit(1, 0, id="idle-peer")]
    return {"type": "run", "job_id": job_id,
            "circuits": [circuit_to_obj(c) for c in parts], "config": config}


def submit_job(sock, kind, job_id, circuit, **config) -> None:
    assert request(sock, job_frame(kind, job_id, circuit, **config)) == {
        "type": "ack", "job_id": job_id}


def timed(sock, frame) -> tuple[dict, float]:
    t0 = time.monotonic()
    reply = request(sock, frame)
    return reply, time.monotonic() - t0


def test_evicted_ids_are_forgotten_oldest_first(monkeypatch):
    """Past MAX_FINISHED_JOBS evicted ids the one evicted first is
    forgotten: its `result` answers UnknownJob, and the job table holds at
    most twice MAX_FINISHED_JOBS rows however many jobs finish."""
    monkeypatch.setattr(protocol, "MAX_FINISHED_JOBS", 2)
    for kind in SERVICES:
        with serving(kind) as server:
            conn = connect(server.host, server.port)
            conn.settimeout(10.0)
            for i in range(7):
                submit_job(conn, kind, f"j{i}", bell(), shots=10)
                assert poll_result(conn, f"j{i}")["type"] == "result", kind
                with server._lock:
                    assert len(server._jobs) == min(i + 1, 4), kind
            answers = [poll_result(conn, f"j{i}") for i in range(7)]
            assert [a.get("code", a["type"]) for a in answers] == [
                "UnknownJob"] * 3 + ["Evicted"] * 2 + ["result"] * 2, kind
            conn.close()


def test_job_finishing_within_wait_ms_takes_one_result_frame():
    """QJob.wait blocks on the server, not in a client sleep loop."""
    circuit, shots = slow_circuit()  # about 0.2 s
    for kind in SERVICES:
        with serving(kind) as server:
            connection = QpuConnection(server.host, server.port)
            frame = job_frame(kind, "w", circuit, shots=shots)
            assert connection.request(frame)["type"] == "ack"
            t0 = time.monotonic()
            record = QJob("w", SimpleNamespace(connection=connection)).wait()
            elapsed = time.monotonic() - t0
            assert sum(record.counts.values()) == shots
            assert connection.frame_log == ["run", "result"]
            assert elapsed < record.time_taken + 0.5, kind  # answered as the job ended
            connection.close()


def test_unfinished_job_is_acked_after_wait_ms():
    circuit, shots = slow_circuit()
    for kind in SERVICES:
        with serving(kind) as server:
            conn = connect(server.host, server.port)
            conn.settimeout(10.0)
            submit_job(conn, kind, "long", circuit, shots=shots * 5)  # about 1 s
            reply, elapsed = timed(conn, {"type": "result", "job_id": "long",
                                          "wait_ms": 300})
            assert reply == {"type": "ack", "job_id": "long", "state": "running"}
            assert 0.29 <= elapsed < 1.0, kind
            assert poll_result(conn, "long", timeout=30)["type"] == "result"
            conn.close()


def test_failed_and_unknown_jobs_answer_at_once():
    bad = Circuit(1, 0, id="bad")
    bad.qsend(0, "peer")  # no part "peer" on the executor
    runs = {"vqpu": (too_wide(), {}, "WidthExceeded"),
            "executor": (bad, {}, "DanglingProtocol")}
    for kind, (circuit, config, code) in runs.items():
        with serving(kind) as server:
            conn = connect(server.host, server.port)
            conn.settimeout(10.0)
            submit_job(conn, kind, "bad", circuit, **config)
            reply, elapsed = timed(conn, {"type": "result", "job_id": "bad",
                                          "wait_ms": RESULT_WAIT_MAX_MS})
            assert reply["type"] == "error" and reply["code"] == code
            assert elapsed < 0.5, kind
            reply, elapsed = timed(conn, {"type": "result", "job_id": "ghost",
                                          "wait_ms": RESULT_WAIT_MAX_MS})
            assert reply["type"] == "error" and reply["code"] == "UnknownJob"
            assert elapsed < 0.5, kind
            conn.close()


@pytest.mark.parametrize("wait_ms", [-1, 1.5, "100", True, None,
                                     RESULT_WAIT_MAX_MS + 1])
def test_bad_wait_ms_is_a_schema_violation(wait_ms):
    for kind in SERVICES:
        with serving(kind) as server:
            conn = connect(server.host, server.port)
            conn.settimeout(10.0)
            submit_job(conn, kind, "j", bell(), shots=10)
            reply = request(conn, {"type": "result", "job_id": "j", "wait_ms": wait_ms})
            assert reply["type"] == "error" and reply["code"] == "SchemaViolation"
            conn.close()


BAD_RUNS = {  # id: (field of the frame, or of its config, set; None deletes it)
    "config-list": ("config", [1]),
    "config-number": ("config", 5),
    "shots-bool": ("config.shots", True),
    "shots-str": ("config.shots", "10"),
    "shots-float": ("config.shots", 1.5),
    "shots-zero": ("config.shots", 0),
    "shots-absent": ("config.shots", None),
    "seed-str": ("config.seed", "x"),
    "seed-negative": ("config.seed", -3),
    "seed-float": ("config.seed", 1.5),
    "seed-bool": ("config.seed", True),
    "job_id-int": ("job_id", 5),
    "job_id-empty": ("job_id", ""),
    "job_id-absent": ("job_id", None),
}


@pytest.mark.parametrize("path, value", BAD_RUNS.values(), ids=list(BAD_RUNS))
@pytest.mark.parametrize("kind", sorted(SERVICES))
def test_bad_run_frame_is_a_schema_violation(kind, path, value):
    """Both services check a `run` frame's job id and config at the frame:
    a bad one gets SchemaViolation naming the field, and nothing is queued."""
    frame = job_frame(kind, "j", bell(), shots=10, seed=1)
    key = path.removeprefix("config.")
    target = frame if key == path else frame["config"]
    if value is None:
        del target[key]
    else:
        target[key] = value
    with serving(kind) as server:
        conn = connect(server.host, server.port)
        conn.settimeout(10.0)
        reply = request(conn, frame)
        assert (reply["type"], reply["code"]) == ("error", "SchemaViolation")
        assert reply["message"].startswith(path + ":")
        assert request(conn, {"type": "status"})["queued"] == 0
        conn.close()
        assert server._jobs == {}


BAD_VQPU_RUNS = {  # id: (field of a vQPU run's config, value)
    "params-number": ("params", 5),
    "params-str-item": ("params", ["x"]),
    "params-bool-item": ("params", [True]),
    "params-object": ("params", {"a": 1.0}),
    "plan-list": ("plan", [1]),
    "plan-int-address": ("plan", {"b": 7}),
    "plan-no-port": ("plan", {"b": "127.0.0.1"}),
    "plan-no-host": ("plan", {"b": ":5000"}),
    "plan-empty-id": ("plan", {"": "127.0.0.1:5000"}),
}


@pytest.mark.parametrize("key, value", BAD_VQPU_RUNS.values(),
                         ids=list(BAD_VQPU_RUNS))
def test_bad_vqpu_run_config_is_a_schema_violation(server, conn, key, value):
    """A vQPU checks a `run`'s params and channel plan at the frame, not on
    the simulator thread: a bad one gets SchemaViolation naming the field,
    and nothing is queued."""
    c = Circuit(1, 1, id="p")
    c.rz(Param("a"), 0)
    c.measure(0, 0)
    reply = submit(conn, c, job_id="j", shots=10, **{key: value})
    assert (reply["type"], reply["code"]) == ("error", "SchemaViolation")
    assert reply["message"].startswith(f"config.{key}:")
    assert request(conn, {"type": "status"})["queued"] == 0
    assert server._jobs == {}


@pytest.mark.parametrize("params", [["x"], [1.0, None], [False]])
def test_upgrade_with_a_value_that_is_not_a_number(server, conn, params):
    """upgrade_parameters checks its values at the frame: the job keeps its
    result and nothing is queued."""
    c = Circuit(1, 1, id="p")
    c.rz(Param("a"), 0)
    c.measure(0, 0)
    submit(conn, c, job_id="p", shots=10, seed=3, params=[0.1])
    done = poll_result(conn, "p")
    reply = request(conn, {"type": "upgrade_parameters", "job_id": "p",
                           "params": params})
    assert (reply["type"], reply["code"]) == ("error", "SchemaViolation")
    assert reply["message"].startswith("params:")
    assert request(conn, {"type": "status"})["queued"] == 0
    assert request(conn, {"type": "result", "job_id": "p"}) == done


def test_shutdown_during_a_blocked_result_answers_it_and_drains(cunqa_home):
    """The drain waits for the job and the blocked `result`, which gets the
    job's result when it finishes."""
    circuit, shots = slow_circuit()
    for kind in SERVICES:
        srv = SERVICES[kind]()
        srv.start()
        conn = connect(srv.host, srv.port)
        conn.settimeout(5.0)
        submit_job(conn, kind, "long", circuit, shots=shots * 2)  # about 0.4 s
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
        assert time.monotonic() - t0 < DRAIN_S, kind
        conn.close()
        other.close()
        srv.stop()
