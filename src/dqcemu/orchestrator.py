"""Lifecycle management: raise, inspect and drop local vQPU processes.

qraise binds one listening socket per process, spawns the detached server
processes (plus one executor for the quantum model) in one round, each on the
socket it inherits, waits for each one's first `status` reply, records
everything in the registry and prints the endpoints. -c and --mem-per-qpu are
accepted for CUNQA command-line compatibility and ignored; --n_nodes only
sizes the simulated node-label cycle used by the SDK's on-node filter. qdrop
removes each dropped process's log when it is empty.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import time
import uuid
from dataclasses import asdict
from pathlib import Path

from . import registry
from .backend import load_backend
from .errors import (
    ConflictingFlags,
    DuplicateFamilyName,
    NotSupported,
    PortExhausted,
)
from .protocol import ConnectionClosed, _Server, connect, request
from .registry import RegistryEntry, pid_alive

SPAWN_WAIT_S = 10.0
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


def _spawn(module: str, config_obj: dict, home: Path, name: str,
           env: dict) -> subprocess.Popen:
    """Start `module` on `config_obj`, handing it its `listen_fd`."""
    cfg_path = home / "tmp" / f"{name}.json"
    cfg_path.parent.mkdir(parents=True, exist_ok=True)
    cfg_path.write_text(json.dumps(config_obj))
    log_path = home / "logs" / f"{name}.log"
    log_path.parent.mkdir(parents=True, exist_ok=True)
    log = open(log_path, "ab")
    try:
        return subprocess.Popen(
            [sys.executable, "-m", module, "--config", str(cfg_path)],
            stdout=log, stderr=log, stdin=subprocess.DEVNULL,
            pass_fds=(config_obj["listen_fd"],), start_new_session=True, env=env)
    finally:
        log.close()


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


def _not_ready(proc_id: str, proc: subprocess.Popen) -> PortExhausted:
    """The error for a spawned process that never answered `status`."""
    try:
        code = proc.wait(timeout=1.0)  # a closed port: it is exiting
    except subprocess.TimeoutExpired:
        return PortExhausted(
            f"{proc_id} did not answer status within {SPAWN_WAIT_S:.0f} s")
    return PortExhausted(f"{proc_id} exited with code {code} before answering "
                         f"status; see its log for details")


def qraise(n: int, ttl: str, backend: str | None = None, sim: str = "statevector",
           classical_comm: bool = False, quantum_comm: bool = False,
           co_located: bool = False, name: str | None = None,
           cores: int | None = None, mem_per_qpu: str | None = None,
           n_nodes: int | None = None, noise_prop: str | None = None,
           quiet: bool = False) -> str:
    """Spawn a family of n vQPUs (and an executor for the quantum model);
    returns the family name once every process answers its status endpoint."""
    if n < 1:
        raise ValueError("need n >= 1 vQPUs")
    if classical_comm and quantum_comm:
        raise ConflictingFlags(
            "--classical_comm and --quantum_comm are mutually exclusive")
    if noise_prop is not None:
        raise NotSupported("--noise-prop is unsupported in this build")
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
    # each process simulates on one thread: a BLAS thread pool only slows
    # its start and contends with the other processes (README: Simulation engine)
    env.update(dict.fromkeys(SPAWN_THREAD_VARS, "1"))

    from .server import VqpuConfig  # local import: avoid cycles at module load
    from .executor import ExecutorConfig

    # qraise binds every listening socket and each process inherits its own:
    # all endpoints, the executor's included, are known before any process
    # starts, so the whole family is spawned in one round
    quantum = comm_mode == "quantum"
    node_cycle = max(1, n_nodes or 1)
    socks: list[socket.socket] = []
    members: list[tuple[str, str, dict, str]] = []  # id, module, config, node
    procs: list[subprocess.Popen] = []
    raised_at = time.time()
    try:
        socks = [socket.create_server(  # SO_REUSEADDR, as _Server binds
            ("127.0.0.1", 0), backlog=_Server.request_queue_size)
            for _ in range(n + quantum)]
        addresses = [sock.getsockname()[:2] for sock in socks]
        executor_endpoint = "%s:%d" % addresses[0] if quantum else None
        if quantum:
            exec_id = f"{family}-executor"
            members.append((exec_id, "dqcemu.executor", asdict(ExecutorConfig(
                family=family, ttl_seconds=ttl_seconds, executor_id=exec_id,
                listen_fd=socks[0].fileno())), "node0"))
        for i, sock in enumerate(socks[quantum:]):
            cfg = VqpuConfig(
                family=family, index=i, backend=backend_spec,
                comm_mode=comm_mode, ttl_seconds=ttl_seconds, simulator=sim,
                vqpu_id=f"{family}-{i}", executor_endpoint=executor_endpoint,
                listen_fd=sock.fileno(), backend_path=backend_path)
            members.append((cfg.vqpu_id, "dqcemu.server", cfg.to_obj(),
                            "node0" if co_located else f"node{i % node_cycle}"))
        for (proc_id, module, cfg, _node), sock in zip(members, socks):
            procs.append(_spawn(module, cfg, home, proc_id, env))
            sock.close()  # the process holds the only copy: its exit closes the port

        # ready at the first status reply; a process that exits first
        # closes its port, so its probe fails at once
        deadline = time.monotonic() + SPAWN_WAIT_S
        for (proc_id, *_), proc, (host, port) in zip(members, procs, addresses):
            timeout = max(deadline - time.monotonic(), 0.01)
            if _probe_status(host, port, timeout) is None:
                raise _not_ready(proc_id, proc)
    except BaseException:
        for proc in procs:
            proc.kill()
            proc.wait()
        raise
    finally:
        for sock in socks:
            sock.close()
        for proc_id, *_ in members:  # read by now, or never to be read
            (home / "tmp" / f"{proc_id}.json").unlink(missing_ok=True)

    entries = [RegistryEntry(
        family=family, vqpu_id=proc_id, host=host, port=port,
        backend_path=backend_path, comm_mode=comm_mode, co_located=co_located,
        pid=proc.pid, raised_at=raised_at, ttl_seconds=ttl_seconds,
        executor_endpoint=executor_endpoint, node=node)
        for (proc_id, _module, _cfg, node), proc, (host, port)
        in zip(members, procs, addresses)]
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
            try:  # reap if it is our child (in-process tests); ignore otherwise
                os.waitpid(entry.pid, os.WNOHANG)
            except (ChildProcessError, OSError):
                pass
            if not pid_alive(entry.pid):
                count += 1
                del pending[vid]
        if pending:
            time.sleep(0.05)
    for entry in pending.values():  # still alive: escalate
        try:
            os.kill(entry.pid, signal.SIGTERM)
        except OSError:
            pass
    if pending:
        time.sleep(0.3)
        for entry in pending.values():
            if pid_alive(entry.pid):
                try:
                    os.kill(entry.pid, signal.SIGKILL)
                except OSError:
                    pass
            try:
                os.waitpid(entry.pid, os.WNOHANG)
            except (ChildProcessError, OSError):
                pass
            count += 1
    for entry in targets:  # a log that holds something (a traceback) stays
        log = home / "logs" / f"{entry.vqpu_id}.log"
        with contextlib.suppress(FileNotFoundError):
            if log.stat().st_size == 0:
                log.unlink()
    if not quiet:
        print(f"qdrop: terminated {count} process(es)")
    return count


def qinfo(family: str | None = None) -> list[dict]:
    """Rows describing live registry entries; dead pids are pruned."""
    home = registry.cunqa_home()
    entries = registry.read_registry(home)
    dead = [e.vqpu_id for e in entries if not pid_alive(e.pid)]
    if dead:
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
