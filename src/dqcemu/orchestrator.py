"""Lifecycle management: raise, inspect and drop local vQPU processes.

qraise spawns detached server processes (plus one executor for the quantum
model), waits for each to announce its bound port, records everything in the
registry and prints the endpoints. Resource flags (-c, --mem-per-qpu,
--n_nodes) are parsed and recorded but advisory at desk scale; --n_nodes
also sizes the simulated node-label cycle used by the SDK's on-node filter.
"""

from __future__ import annotations

import json
import os
import signal
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
from .protocol import ConnectionClosed, connect, request
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


def _wait_announce(path: Path, proc: subprocess.Popen, what: str,
                   deadline: float) -> tuple[str, int, int]:
    while time.monotonic() < deadline:
        if path.exists():
            text = path.read_text().strip()
            if text:
                host, port, pid = text.split()
                return host, int(port), int(pid)
        if proc.poll() is not None:
            raise PortExhausted(
                f"{what} exited with code {proc.returncode} before announcing; "
                f"see its log for details")
        time.sleep(0.02)
    proc.kill()
    raise PortExhausted(f"{what} did not announce within {SPAWN_WAIT_S:.0f} s")


def _spawn(module: str, config_obj: dict, home: Path, name: str,
           env: dict) -> subprocess.Popen:
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
            start_new_session=True, env=env)
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

    procs: list[tuple[str, subprocess.Popen, Path]] = []
    executor_endpoint = None
    raised_at = time.time()

    def announce_path(proc_name: str) -> Path:
        return home / "tmp" / f"{proc_name}.addr"

    try:
        if comm_mode == "quantum":
            exec_id = f"{family}-executor"
            apath = announce_path(exec_id)
            apath.unlink(missing_ok=True)
            cfg = ExecutorConfig(family=family, ttl_seconds=ttl_seconds,
                                 executor_id=exec_id, announce_path=str(apath))
            proc = _spawn("dqcemu.executor", asdict(cfg), home, exec_id, env)
            procs.append((exec_id, proc, apath))

        deadline = time.monotonic() + SPAWN_WAIT_S
        if comm_mode == "quantum":
            exec_id, proc, apath = procs[0]
            host, port, pid = _wait_announce(apath, proc, exec_id, deadline)
            executor_endpoint = f"{host}:{port}"
            announced = [(exec_id, host, port, pid)]
        else:
            announced = []

        node_cycle = max(1, n_nodes or 1)
        for i in range(n):
            vqpu_id = f"{family}-{i}"
            apath = announce_path(vqpu_id)
            apath.unlink(missing_ok=True)
            cfg = VqpuConfig(
                family=family, index=i, backend=backend_spec,
                comm_mode=comm_mode, ttl_seconds=ttl_seconds, simulator=sim,
                vqpu_id=vqpu_id, executor_endpoint=executor_endpoint,
                announce_path=str(apath), backend_path=backend_path)
            proc = _spawn("dqcemu.server", cfg.to_obj(), home, vqpu_id, env)
            procs.append((vqpu_id, proc, apath))

        for vqpu_id, proc, apath in procs[len(announced):]:
            host, port, pid = _wait_announce(apath, proc, vqpu_id, deadline)
            announced.append((vqpu_id, host, port, pid))

        # block until every status endpoint responds (or the window closes)
        for vqpu_id, host, port, _pid in announced:
            while _probe_status(host, port) is None:
                if time.monotonic() > deadline:
                    raise PortExhausted(f"{vqpu_id} never answered status")
                time.sleep(0.02)
    except BaseException:
        for _name, proc, _apath in procs:
            if proc.poll() is None:
                proc.kill()
        raise

    entries = []
    for idx, (proc_name, host, port, pid) in enumerate(announced):
        is_exec = proc_name.endswith("-executor") and comm_mode == "quantum" \
            and idx == 0
        vqpu_index = idx - (1 if comm_mode == "quantum" else 0)
        node = ("node0" if is_exec or co_located
                else f"node{vqpu_index % node_cycle}")
        entries.append(RegistryEntry(
            family=family, vqpu_id=proc_name, host=host, port=port,
            backend_path=backend_path, comm_mode=comm_mode,
            co_located=co_located, pid=pid, raised_at=raised_at,
            ttl_seconds=ttl_seconds,
            executor_endpoint=(f"{host}:{port}" if is_exec else executor_endpoint),
            node=node))
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
