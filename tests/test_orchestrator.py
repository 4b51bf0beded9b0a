import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from dqcemu import orchestrator, registry
from dqcemu.backend import backend_to_obj, default_backend
from dqcemu.circuit import Circuit
from dqcemu.cli import qdrop_main, qinfo_main, qraise_main
from dqcemu.errors import (
    ConflictingFlags,
    DuplicateFamilyName,
    NotSupported,
    PortExhausted,
)
from dqcemu.orchestrator import (
    PROBE_TIMEOUT_S,
    _probe_status,
    _request_once,
    parse_ttl,
    qdrop,
    qinfo,
    qraise,
)
from dqcemu.registry import pid_alive
from dqcemu.protocol import ConnectionClosed, ServiceConfig, recv_frame
from dqcemu.wire import circuit_to_obj


def test_parse_ttl():
    assert parse_ttl("00:10:00") == 600
    assert parse_ttl("01:02:03") == 3723
    with pytest.raises(ValueError):
        parse_ttl("10:00")
    with pytest.raises(ValueError):
        parse_ttl("00:99:00")


def test_lifecycle_via_cli(cunqa_home, capsys):
    assert qraise_main(["-n", "4", "-t", "00:10:00", "--name", "fam"]) == 0
    capsys.readouterr()

    assert qinfo_main([]) == 0
    out = capsys.readouterr().out
    assert out.count("alive") == 0  # column shows idle/busy states
    assert out.count("fam-") == 4

    assert qinfo_main(["--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 4
    assert all(r["state"] == "idle" for r in rows)
    assert all(r["comm_mode"] == "none" for r in rows)

    assert qdrop_main(["fam"]) == 0
    capsys.readouterr()
    assert qinfo_main(["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == []


@pytest.fixture()
def spawn_log(monkeypatch):
    """Records, in order, every spawn qraise makes ("spawn", the family's
    member ids, the first member's process), the pids of the members that
    process forked ("forked", pids), and every readiness probe ("probe",
    host, port)."""
    log = []
    spawn, forked = orchestrator._spawn, orchestrator._forked_pids
    probe = orchestrator._probe_status

    def recording_spawn(members, home, env):
        proc = spawn(members, home, env)
        log.append(("spawn", [m[0] for m in members], proc))
        return proc

    def recording_forked(first, timeout):
        pids = forked(first, timeout)
        log.append(("forked", pids))
        return pids

    def recording_probe(host, port, *args):
        log.append(("probe", host, port))
        return probe(host, port, *args)

    monkeypatch.setattr(orchestrator, "_spawn", recording_spawn)
    monkeypatch.setattr(orchestrator, "_forked_pids", recording_forked)
    monkeypatch.setattr(orchestrator, "_probe_status", recording_probe)
    return log


def test_quantum_family_spawns_executor(raise_family, spawn_log):
    fam = raise_family(2, quantum_comm=True)
    (_, ids, first), (_, forked) = spawn_log[:2]
    assert ids[0] == f"{fam}-executor"
    spawned = {first.pid, *forked}
    for e in registry.read_registry():
        assert e.pid in spawned and pid_alive(e.pid), e.vqpu_id
        assert _probe_status(e.host, e.port)["type"] == "ack", e.vqpu_id
    rows = qinfo(family=fam)
    assert len(rows) == 3
    kinds = sorted(r["kind"] for r in rows)
    assert kinds == ["executor", "vqpu", "vqpu"]
    vqpus = [r for r in rows if r["kind"] == "vqpu"]
    executor = next(r for r in rows if r["kind"] == "executor")
    entries = registry.read_registry()
    for e in entries:
        if not e.is_executor:
            assert e.executor_endpoint == executor["endpoint"]
    assert all(r["state"] == "idle" for r in rows)
    count = qdrop(fam, quiet=True)
    assert count == 3


def test_family_spawns_in_one_round(raise_family, spawn_log):
    """A quantum family is one spawn, the executor's, which forks both vQPUs
    before the first probe."""
    fam = raise_family(2, quantum_comm=True)
    kinds = [e[0] for e in spawn_log]
    assert kinds == ["spawn", "forked"] + ["probe"] * 3
    assert spawn_log[0][1] == [f"{fam}-executor", f"{fam}-0", f"{fam}-1"]
    assert len(spawn_log[1][1]) == 2


def test_process_exiting_before_it_serves_fails_fast(cunqa_home, spawn_log,
                                                       monkeypatch):
    """A vQPU that exits at start closes its inherited port: qraise names it
    and the last line of its log within about 2 s (not SPAWN_WAIT_S), and
    leaves no process, registry entry or config file behind. The vQPU is
    forked by the executor, not by qraise, so qraise cannot learn its exit
    code; the log line names the cause."""

    class BadSecondVqpu(ServiceConfig):
        def to_obj(self):  # ServiceConfig rejects the unknown field
            obj = super().to_obj()
            if self.service_id.endswith("-1"):
                obj["no_such_field"] = 1
            return obj

    monkeypatch.setattr(orchestrator, "ServiceConfig", BadSecondVqpu)
    t0 = time.monotonic()
    with pytest.raises(PortExhausted, match="bad-1 exited before answering "
                       "status: TypeError: .*'no_such_field'"):
        qraise(n=2, ttl="00:01:00", quantum_comm=True, name="bad", quiet=True)
    assert time.monotonic() - t0 < 3.0
    (_, _, first), (_, forked) = spawn_log[:2]
    assert len(forked) == 2
    assert first.returncode is not None
    assert not any(os.path.exists(f"/proc/{pid}") for pid in forked)
    assert not pid_alive(first.pid) and all(not pid_alive(p) for p in forked)
    assert registry.read_registry() == []
    assert not (cunqa_home / "tmp").exists()


def test_dropped_family_leaves_no_tmp_file(cunqa_home):
    fam = qraise(n=2, ttl="00:01:00", quantum_comm=True, quiet=True)
    assert qdrop(fam, quiet=True) == 3
    assert not (cunqa_home / "tmp").exists()


def _stat(pid: int) -> list[bytes]:
    """The fields of /proc/<pid>/stat after the command: state, ppid, pgrp,
    session, ..."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        return fh.read().rpartition(b")")[2].split()


@pytest.mark.parametrize("flags", [{}, {"quantum_comm": True}],
                         ids=["no-comm", "quantum"])
def test_first_member_forks_the_others(cunqa_home, raise_family, flags):
    """Each member is a process of its own: its own pid answering status,
    its own session, its stdout and stderr on its own log; every member
    after the first is the first's child."""
    if not os.path.isdir("/proc/self"):
        pytest.skip("needs /proc")
    fam = raise_family(3, **flags)
    entries = [e for e in registry.read_registry() if e.family == fam]
    assert len(entries) == 3 + bool(flags)
    assert len({e.pid for e in entries}) == len(entries)
    first = entries[0]
    assert first.is_executor == bool(flags)
    for e in entries:
        assert _probe_status(e.host, e.port)["type"] == "ack", e.vqpu_id
        state, ppid, _pgrp, session = _stat(e.pid)[:4]
        assert int(session) == e.pid, e.vqpu_id
        if e is not first:
            assert int(ppid) == first.pid, e.vqpu_id
        log = str(cunqa_home / "logs" / f"{e.vqpu_id}.log")
        assert os.readlink(f"/proc/{e.pid}/fd/1") == log, e.vqpu_id
        assert os.readlink(f"/proc/{e.pid}/fd/2") == log, e.vqpu_id


@pytest.mark.parametrize("flags", [{}, {"quantum_comm": True}],
                         ids=["no-comm", "quantum"])
def test_dropped_family_leaves_no_process(raise_family, flags):
    """qdrop returns once the first member has exited, and it exits only
    after it has reaped the others, here the last one, which drains a job
    of about half a second: no pid of the family is left, zombies
    included."""
    fam = raise_family(3, **flags)
    entries = [e for e in registry.read_registry() if e.family == fam]
    slow = Circuit(4, 28, id="slow")  # about a millisecond per shot
    for r in range(12):
        for q in range(4):
            slow.h(q)
        slow.cx(0, 1)
        slow.measure([2, 3], [4 + 2 * r, 5 + 2 * r])
    last = entries[-1]
    reply = _request_once(last.host, last.port, {
        "type": "run", "job_id": "slow", "circuit": circuit_to_obj(slow),
        "config": {"shots": 500, "seed": 1}}, timeout=5.0)
    assert reply["type"] == "ack", reply
    deadline = time.monotonic() + 5
    while (_probe_status(last.host, last.port) or {}).get("state") != "busy":
        assert time.monotonic() < deadline, "the job never started"
        time.sleep(0.01)
    assert qdrop(fam, quiet=True) == len(entries)
    assert [e.pid for e in entries if os.path.exists(f"/proc/{e.pid}")] == []


def test_family_outlives_its_first_member(adopt_orphans, raise_family):
    """The members forked by a first member that is killed keep serving:
    qinfo prunes the dead one and qdrop drops the rest."""
    fam = raise_family(3)
    entries = [e for e in registry.read_registry() if e.family == fam]
    os.kill(entries[0].pid, signal.SIGKILL)
    deadline = time.monotonic() + 5
    while len(qinfo(family=fam)) != 2 and time.monotonic() < deadline:
        time.sleep(0.05)
    rows = qinfo(family=fam)
    assert [r["vqpu_id"] for r in rows] == [f"{fam}-1", f"{fam}-2"]
    assert all(r["state"] == "idle" for r in rows)
    c = Circuit(1, 1, id="flip")
    c.x(0).measure(0, 0)
    for e in entries[1:]:
        reply = _request_once(e.host, e.port, {
            "type": "run", "job_id": "j", "circuit": circuit_to_obj(c),
            "config": {"shots": 10, "seed": 1}}, timeout=5.0)
        assert reply["type"] == "ack", reply
        reply = _request_once(e.host, e.port, {
            "type": "result", "job_id": "j", "wait_ms": 1000}, timeout=5.0)
        assert reply["counts"] == {"1": 10}, reply
    assert qdrop(fam, quiet=True) == 2
    assert [e.pid for e in entries if os.path.exists(f"/proc/{e.pid}")] == []


def test_dropped_family_leaves_no_empty_log(cunqa_home):
    fam = qraise(n=2, ttl="00:01:00", quantum_comm=True, quiet=True)
    logs = cunqa_home / "logs"
    assert len([p for p in logs.iterdir() if p.name.startswith(fam)]) == 3
    assert qdrop(fam, quiet=True) == 3
    assert [p for p in logs.iterdir() if p.name.startswith(fam)] == []
    # a log that holds something, e.g. a failure's traceback, is kept
    kept = qraise(n=1, ttl="00:01:00", quiet=True)
    (logs / f"{kept}-0.log").write_text("Traceback ...\n")
    assert qdrop(kept, quiet=True) == 1
    assert [p.name for p in logs.iterdir()] == [f"{kept}-0.log"]


def test_spawned_processes_run_one_blas_thread(raise_family, monkeypatch):
    """The thread variables are 1 whatever the caller's environment says."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    fam = raise_family(2, quantum_comm=True)
    entries = [e for e in registry.read_registry() if e.family == fam]
    assert len(entries) == 3
    for e in entries:
        try:
            with open(f"/proc/{e.pid}/environ", "rb") as fh:
                env = dict(item.split(b"=", 1) for item in fh.read().split(b"\0") if item)
        except OSError:
            pytest.skip("no /proc/<pid>/environ on this host")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            assert env.get(var.encode()) == b"1", (e.vqpu_id, var)


def test_conflicting_flags(cunqa_home):
    with pytest.raises(ConflictingFlags):
        qraise(n=1, ttl="00:01:00", classical_comm=True, quantum_comm=True,
               quiet=True)


def test_cli_reports_conflicting_flags(cunqa_home, capsys):
    rc = qraise_main(["-n", "1", "-t", "00:01:00", "--classical_comm",
                      "--quantum_comm"])
    assert rc == 1
    assert "mutually exclusive" in capsys.readouterr().err


def test_noise_prop_rejected(cunqa_home):
    with pytest.raises(NotSupported, match="unsupported in this build"):
        qraise(n=1, ttl="00:01:00", noise_prop="noise.json", quiet=True)


def test_unknown_simulator_rejected(cunqa_home, spawn_log):
    """statevector is the only engine: another --sim starts nothing."""
    with pytest.raises(NotSupported, match="--sim aer is unsupported"):
        qraise(n=1, ttl="00:01:00", sim="aer", quiet=True)
    assert spawn_log == []
    assert registry.read_registry() == []


def test_family_raised_by_a_caller_importing_dqcemu_from_sys_path(cunqa_home,
                                                                   tmp_path):
    """A caller that finds dqcemu on sys.path, with PYTHONPATH unset, raises
    a family whose processes import the same dqcemu and serve its jobs."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(orchestrator.__file__)))
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from dqcemu.circuit import Circuit\n"
        "from dqcemu.client import get_qpus, run\n"
        "from dqcemu.orchestrator import qdrop, qraise\n"
        "family = qraise(n=1, ttl='00:01:00', quiet=True)\n"
        "try:\n"
        "    c = Circuit(1, 1, id='flip')\n"
        "    c.x(0).measure(0, 0)\n"
        "    print(run(get_qpus(family=family)[0], c, shots=10).result.counts)\n"
        "finally:\n"
        "    qdrop(family, quiet=True)\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "{'1': 10}"
    assert registry.read_registry() == []


def test_duplicate_family_name(raise_family):
    raise_family(1, name="twin")
    with pytest.raises(DuplicateFamilyName):
        qraise(n=1, ttl="00:01:00", name="twin", quiet=True)


def test_qdrop_unknown_family(cunqa_home, capsys):
    assert qdrop_main(["nobody"]) == 0
    assert "no live vQPUs" in capsys.readouterr().err


def test_qdrop_all_counts_everything(raise_family):
    raise_family(2, name="fam-a")
    raise_family(3, name="fam-b")
    assert qdrop("all", quiet=True) == 5


@pytest.fixture()
def closes_without_reply():
    """A local listener that reads one request per connection and closes it
    without replying, like a vQPU exiting before it acks `shutdown`."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.1)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            with conn:
                try:
                    recv_frame(conn)
                except (ConnectionClosed, OSError):
                    pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield listener.getsockname()
    stop.set()
    thread.join(timeout=5)
    assert not thread.is_alive()
    listener.close()


def test_peer_closing_mid_request_is_not_an_error(cunqa_home, closes_without_reply):
    host, port = closes_without_reply
    assert _probe_status(host, port) is None

    exited = subprocess.Popen([sys.executable, "-c", "pass"])
    exited.wait(timeout=30)
    registry.add_entries([registry.RegistryEntry(
        family="closing", vqpu_id="closing-0", host=host, port=port,
        backend_path="", comm_mode="none", co_located=False, pid=exited.pid,
        raised_at=time.time(), ttl_seconds=600)])
    assert qdrop("closing", quiet=True) == 1


def test_qinfo_family_filter(raise_family):
    fam_a = raise_family(2)
    fam_b = raise_family(1)
    assert len(qinfo(family=fam_a)) == 2
    assert len(qinfo(family=fam_b)) == 1
    assert len(qinfo()) == 3


def test_qinfo_prunes_dead_processes(adopt_orphans, raise_family):
    fam = raise_family(2)
    entries = registry.read_registry()
    os.kill(entries[0].pid, signal.SIGKILL)
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        rows = qinfo(family=fam)
        if len(rows) == 1:
            break
        time.sleep(0.05)
    assert len(qinfo(family=fam)) == 1


def test_qinfo_reaps_the_dead_children_it_prunes(adopt_orphans, raise_family):
    """A vQPU raised in this process and killed stays a zombie child until
    someone waits for it: the qinfo that prunes it reaps it."""
    fam = raise_family(2)
    pid = registry.read_registry()[0].pid
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 5
    while pid_alive(pid) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not pid_alive(pid)
    if os.path.isdir("/proc/self"):  # exited, not yet reaped
        with open(f"/proc/{pid}/stat", "rb") as fh:
            assert fh.read().rpartition(b")")[2].split()[0] == b"Z"
    assert len(qinfo(family=fam)) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    assert not os.path.exists(f"/proc/{pid}")


def test_ttl_self_expiry(raise_family):
    fam = raise_family(1, ttl="00:00:02")
    assert len(qinfo(family=fam)) == 1
    deadline = time.monotonic() + 8
    while time.monotonic() < deadline and qinfo(family=fam):
        time.sleep(0.2)
    assert qinfo(family=fam) == []


def test_qinfo_across_ttl_expiry(raise_family):
    """qinfo polled while a family's TTL runs out: every call returns within
    PROBE_TIMEOUT_S per entry plus slack, and every row reads live or stale
    until the entries are gone."""
    fam = raise_family(2, ttl="00:00:02", quantum_comm=True)
    bound = 3 * PROBE_TIMEOUT_S + 1.0
    deadline = time.monotonic() + 10
    calls = []
    while time.monotonic() < deadline:
        t0 = time.monotonic()
        rows = qinfo(family=fam)
        calls.append((time.monotonic() - t0, [r["state"] for r in rows]))
        if not rows:
            break
        time.sleep(0.05)
    assert len(calls[0][1]) == 3 and calls[-1][1] == [], calls
    assert max(took for took, _ in calls) < bound, calls
    assert {state for _, states in calls for state in states} <= {
        "idle", "busy", "stale"}, calls


def test_backend_flag_and_invalid_file(cunqa_home, raise_family, tmp_path):
    path = tmp_path / "backend.json"
    spec = default_backend()
    spec.name = "custom-8q"
    spec.n_qubits = 8
    path.write_text(json.dumps(backend_to_obj(spec)))
    fam = raise_family(1, backend=str(path))
    rows = qinfo(family=fam)
    assert rows[0]["backend"] == str(path)

    from dqcemu.errors import BackendFileInvalid
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"}')
    with pytest.raises(BackendFileInvalid):
        qraise(n=1, ttl="00:01:00", backend=str(bad), quiet=True)


def test_executor_validates_parts_against_the_family_backend(raise_family,
                                                             tmp_path):
    path = tmp_path / "backend.json"
    spec = default_backend()
    spec.name, spec.n_qubits, spec.coupling_map = "custom-2q", 2, [[0, 1]]
    path.write_text(json.dumps(backend_to_obj(spec)))
    fam = raise_family(2, quantum_comm=True, backend=str(path))
    executor = next(e for e in registry.read_registry()
                    if e.family == fam and e.is_executor)
    wide = Circuit(3, 0, id="a")
    wide.qsend(0, "b")
    peer = Circuit(1, 0, id="b")
    peer.qrecv(0, "a")
    reply = _request_once(executor.host, executor.port, {
        "type": "run", "job_id": "w",
        "circuits": [circuit_to_obj(wide), circuit_to_obj(peer)],
        "config": {"shots": 1}}, timeout=5.0)
    assert (reply["type"], reply["code"]) == ("error", "ValidationFailed")
    assert "WidthExceeded" in reply["message"]


def test_concurrent_qraise_keeps_registry_consistent(cunqa_home):
    errors = []

    def worker(name):
        try:
            qraise(n=1, ttl="00:02:00", name=name, quiet=True)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(f"c{i}",)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    entries = registry.read_registry()
    assert len(entries) == 3
    assert len({(e.host, e.port) for e in entries}) == 3
    assert qdrop("all", quiet=True) == 3


def test_node_labels_round_robin(raise_family):
    fam = raise_family(4, n_nodes=2)
    entries = [e for e in registry.read_registry() if e.family == fam]
    assert [e.node for e in sorted(entries, key=lambda e: e.vqpu_id)] == [
        "node0", "node1", "node0", "node1"]
