"""Lifecycle management: raise, inspect and drop local vQPU processes.

qraise binds one listening socket per family member (the vQPUs plus, for
the quantum model, one executor that runs each program's parts as one job)
and spawns one process, the family's first member: the executor of a
quantum family, vQPU 0 of any other. It gets every member's
`protocol.ServiceConfig` on its stdin and every listening socket; it
imports the family's modules once, forks each other member, reports their
pids on its stdout and reaps them as they exit. qraise waits for each
member's first `status` reply, records every member in the registry under
its own pid, each vQPU's row naming its executor, and prints the
endpoints. The qraise command accepts -c and --mem-per-qpu for CUNQA
command-line compatibility and ignores them; --n_nodes only sizes the
simulated node-label cycle used by the SDK's on-node filter. qdrop removes
each dropped process's log when it is empty.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
import uuid
from pathlib import Path

from . import engine, registry
from .backend import load_backend
from .errors import (
    ConflictingFlags,
    DuplicateFamilyName,
    NotSupported,
    PortExhausted,
)
from .protocol import ConnectionClosed, ServiceConfig, _Server, connect, request
from .registry import RegistryEntry, pid_alive

SPAWN_WAIT_S = 10.0
#: what each family member runs as, for `protocol.FramedService.main`
VQPU_KIND = "dqcemu.server:VqpuServer"
EXECUTOR_KIND = "dqcemu.executor:ExecutorServer"
PROBE_TIMEOUT_S = 0.2
#: thread-count variables of the BLAS and OpenMP runtimes numpy may load,
#: set to 1 in the environment of every spawned vQPU and executor
SPAWN_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_ttl(text: str) -> int:
    """HH:MM:SS -> seconds."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"TTL must be HH:MM:SS, got {text!r}")
    try:
        h, m, s = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"TTL must be HH:MM:SS, got {text!r}") from None
    if h < 0 or not 0 <= m < 60 or not 0 <= s < 60:
        raise ValueError(f"TTL out of range: {text!r}")
    return h * 3600 + m * 60 + s


def format_ttl(seconds: int) -> str:
    return f"{seconds // 3600:02d}:{seconds % 3600 // 60:02d}:{seconds % 60:02d}"


def _spawn(members: list[tuple[str, str, dict, str]], home: Path,
           env: dict) -> subprocess.Popen:
    """Start the family's first member (`protocol.FramedService.main`),
    handing it every member's kind and config on its stdin and every
    `listen_fd`; it forks the others."""
    log_dir = home / "logs"
    log_dir.mkdir(parents=True, exist_ok=True)
    first_id, first_kind, *_ = members[0]
    with open(log_dir / f"{first_id}.log", "ab") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", first_kind.partition(":")[0], "--config", "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
            pass_fds=[cfg["listen_fd"] for _, _, cfg, _ in members],
            start_new_session=True, env=env)
    family = {"members": [{"kind": kind, "config": cfg}
                          for _, kind, cfg, _ in members]}
    with contextlib.suppress(BrokenPipeError):  # it exited: it is named later
        with proc.stdin:
            proc.stdin.write(json.dumps(family).encode())
    return proc


def _forked_pids(first: subprocess.Popen, timeout: float) -> list[int]:
    """The pids of the members `first` forked, from the line it writes on
    its stdout once it has forked them all; [] when it exits, or stays
    silent for `timeout` s, before it writes it."""
    with first.stdout:
        if not select.select([first.stdout], [], [], timeout)[0]:
            return []
        return [int(word) for word in first.stdout.readline().split()
                if word.isdigit()]


def _kill_family(first: subprocess.Popen, forked: list[int]) -> None:
    """Kill a family being raised: the forked members first, so that the
    first member, if it still runs, reaps them, then the first member, which
    this process reaps."""
    for pid in forked:
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 1.0
    while (first.poll() is None and time.monotonic() < deadline
           and any(os.path.exists(f"/proc/{pid}") for pid in forked)):
        time.sleep(0.005)
    first.kill()
    first.wait()


def _request_once(host: str, port: int, frame: dict, timeout: float):
    """The reply to `frame` on a fresh connection, or None when the process
    cannot be reached or closes without replying (e.g. it is exiting)."""
    try:
        sock = connect(host, port, timeout=timeout)
        try:
            sock.settimeout(timeout)
            return request(sock, frame)
        finally:
            sock.close()
    except (ConnectionClosed, OSError, ValueError):
        return None


def _probe_status(host: str, port: int, timeout: float = PROBE_TIMEOUT_S):
    return _request_once(host, port, {"type": "status"}, timeout)


def _not_ready(proc_id: str, pid: int) -> PortExhausted:
    """The error for a family member that never answered `status`; one that
    exited is named with the last line of its log."""
    deadline = time.monotonic() + 1.0
    while pid_alive(pid):  # a closed port: it is exiting
        if time.monotonic() >= deadline:
            return PortExhausted(
                f"{proc_id} did not answer status within {SPAWN_WAIT_S:.0f} s")
        time.sleep(0.01)
    try:
        log = registry.cunqa_home() / "logs" / f"{proc_id}.log"
        last = log.read_text(errors="replace").strip().rpartition("\n")[2]
    except OSError as exc:
        last = f"its log cannot be read ({exc})"
    return PortExhausted(f"{proc_id} exited before answering status: "
                         f"{last or 'its log is empty'}")


def qraise(n: int, ttl: str, backend: str | None = None, sim: str = "statevector",
           classical_comm: bool = False, quantum_comm: bool = False,
           co_located: bool = False, name: str | None = None,
           n_nodes: int | None = None, noise_prop: str | None = None,
           quiet: bool = False) -> str:
    """Spawn a family of n vQPUs (and, for the quantum model, an executor
    on the family backend, to which the client sends each program's parts);
    returns the family name once every process answers its status endpoint."""
    if n < 1:
        raise ValueError("need n >= 1 vQPUs")
    if classical_comm and quantum_comm:
        raise ConflictingFlags(
            "--classical_comm and --quantum_comm are mutually exclusive")
    if noise_prop is not None:
        raise NotSupported("--noise-prop is unsupported in this build")
    if sim != engine.NAME:
        raise NotSupported(f"--sim {sim} is unsupported in this build: the "
                           f"only simulator is {engine.NAME}")
    ttl_seconds = parse_ttl(ttl)
    comm_mode = ("classical" if classical_comm
                 else "quantum" if quantum_comm else "none")

    home = registry.cunqa_home()
    live = registry.read_registry(home)
    family = name or f"qf-{uuid.uuid4().hex[:6]}"
    if any(e.family == family for e in live):
        raise DuplicateFamilyName(f"family {family!r} already registered")

    backend_path = backend or ""
    backend_spec = load_backend(backend_path)

    env = dict(os.environ)
    env["CUNQA_HOME"] = str(home)
    # the processes import the dqcemu this one runs, on sys.path or not
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        str(Path(__file__).resolve().parents[1]), env.get("PYTHONPATH"))))
    # each process simulates on one thread: a BLAS thread pool only slows
    # its start and contends with the other processes (README: Simulation engine)
    env.update(dict.fromkeys(SPAWN_THREAD_VARS, "1"))

    # qraise binds every listening socket and the family inherits them: all
    # endpoints, the executor's included, are known before any process
    # starts. One process is spawned, the first member; it imports the
    # family's kinds once and forks each other member
    quantum = comm_mode == "quantum"
    node_cycle = max(1, n_nodes or 1)
    socks: list[socket.socket] = []
    members: list[tuple[str, str, dict, str]] = []  # id, kind, config, node
    first: subprocess.Popen | None = None
    pids: list[int] = []  # the first member's, then those it forked
    raised_at = time.time()
    try:
        socks = [socket.create_server(  # SO_REUSEADDR, as _Server binds
            ("127.0.0.1", 0), backlog=_Server.request_queue_size)
            for _ in range(n + quantum)]
        addresses = [sock.getsockname()[:2] for sock in socks]
        executor_endpoint = "%s:%d" % addresses[0] if quantum else None
        for i, sock in enumerate(socks):
            vqpu = i - quantum  # the executor, when there is one, comes first
            proc_id = f"{family}-{vqpu}" if vqpu >= 0 else f"{family}-executor"
            cfg = ServiceConfig(
                service_id=proc_id, backend=backend_spec, comm_mode=comm_mode,
                ttl_seconds=ttl_seconds, listen_fd=sock.fileno())
            members.append((
                proc_id, VQPU_KIND if vqpu >= 0 else EXECUTOR_KIND, cfg.to_obj(),
                "node0" if co_located or vqpu < 0 else f"node{vqpu % node_cycle}"))
        first = _spawn(members, home, env)
        for sock in socks:  # the family holds the only copies: a member's
            sock.close()    # exit closes its port

        # ready at the first status reply; a member that exits first
        # closes its port, so its probe fails at once
        deadline = time.monotonic() + SPAWN_WAIT_S
        pids = [first.pid, *_forked_pids(first, SPAWN_WAIT_S)]
        if len(pids) < len(members):
            raise _not_ready(members[0][0], first.pid)
        for (proc_id, *_), pid, (host, port) in zip(members, pids, addresses):
            timeout = max(deadline - time.monotonic(), 0.01)
            if _probe_status(host, port, timeout) is None:
                raise _not_ready(proc_id, pid)
    except BaseException:
        if first is not None:
            _kill_family(first, pids[1:])
        raise
    finally:
        for sock in socks:
            sock.close()

    entries = [RegistryEntry(
        family=family, vqpu_id=proc_id, host=host, port=port,
        backend_path=backend_path, comm_mode=comm_mode, co_located=co_located,
        pid=pid, raised_at=raised_at, ttl_seconds=ttl_seconds,
        executor_endpoint=executor_endpoint, node=node)
        for (proc_id, _kind, _cfg, node), pid, (host, port)
        in zip(members, pids, addresses)]
    registry.add_entries(entries, home)

    if not quiet:
        print(f"family {family}")
        for e in entries:
            kind = "executor" if e.is_executor else "vqpu"
            print(f"  {e.vqpu_id}  {kind}  {e.endpoint}  comm={e.comm_mode}")
    return family


def qdrop(selector: str, quiet: bool = False) -> int:
    """Terminate a family (or every family with selector 'all'); returns the
    number of terminated processes. Unknown families drop nothing."""
    home = registry.cunqa_home()
    targets = registry.remove_entries(
        lambda e: selector == "all" or e.family == selector, home)
    # a corrupt registry must never let qdrop signal the calling process
    targets = [e for e in targets if e.pid != os.getpid()]
    if not targets:
        if not quiet:
            print(f"qdrop: no live vQPUs match {selector!r}", file=sys.stderr)
        return 0

    for entry in targets:
        _request_once(entry.host, entry.port, {"type": "shutdown"}, timeout=0.5)

    count = 0
    deadline = time.monotonic() + 5.0
    pending = {e.vqpu_id: e for e in targets}
    while pending and time.monotonic() < deadline:
        for vid in list(pending):
            entry = pending[vid]
            if not pid_alive(entry.pid):
                _reap(entry.pid, PROBE_TIMEOUT_S)
                count += 1
                del pending[vid]
        if pending:
            time.sleep(0.05)
    # still alive: escalate, the first member last, so that it reaps the
    # others before it exits
    for entry in reversed(pending.values()):
        try:
            os.kill(entry.pid, signal.SIGTERM)
        except OSError:
            pass
    if pending:
        time.sleep(0.3)
        for entry in reversed(pending.values()):
            if pid_alive(entry.pid):
                try:
                    os.kill(entry.pid, signal.SIGKILL)
                except OSError:
                    pass
            _reap(entry.pid, PROBE_TIMEOUT_S)
            count += 1
    for entry in targets:  # a log that holds something (a traceback) stays
        log = home / "logs" / f"{entry.vqpu_id}.log"
        with contextlib.suppress(FileNotFoundError):
            if log.stat().st_size == 0:
                log.unlink()
    if not quiet:
        print(f"qdrop: terminated {count} process(es)")
    return count


def _reap(pid: int, wait_s: float) -> None:
    """Collect the exit status of `pid` if it is an exited child of this
    process (a family raised in-process), so it leaves no zombie; any other
    pid is left alone, and a pid below 1 never names one process. A killed
    child reads as a zombie while its other threads still exit, and cannot
    be collected until they have: that is waited for up to `wait_s`."""
    deadline = time.monotonic() + wait_s
    while pid > 0:
        try:
            if os.waitpid(pid, os.WNOHANG)[0] or time.monotonic() >= deadline:
                return
        except OSError:  # not a child of this process, or already collected
            return
        time.sleep(0.005)


def qinfo(family: str | None = None) -> list[dict]:
    """Rows describing live registry entries; dead pids are pruned, and
    reaped where they are this process's children."""
    home = registry.cunqa_home()
    entries = registry.read_registry(home)
    dead = [e.vqpu_id for e in entries if not pid_alive(e.pid)]
    if dead:
        for e in entries:
            if e.vqpu_id in dead:
                _reap(e.pid, PROBE_TIMEOUT_S)
        registry.remove_entries(lambda e: e.vqpu_id in dead, home)
        entries = [e for e in entries if e.vqpu_id not in dead]
    if family is not None:
        entries = [e for e in entries if e.family == family]
    rows = []
    for e in entries:
        status = _probe_status(e.host, e.port)
        rows.append({
            "family": e.family,
            "vqpu_id": e.vqpu_id,
            "endpoint": e.endpoint,
            "kind": "executor" if e.is_executor else "vqpu",
            "comm_mode": e.comm_mode,
            "node": e.node,
            "co_located": e.co_located,
            "pid": e.pid,
            "ttl": format_ttl(e.ttl_seconds),
            "backend": e.backend_path or "default",
            "state": (status.get("state", "alive") if status else "stale"),
            "queued": status.get("queued") if status else None,
        })
    return rows
