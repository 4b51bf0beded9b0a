"""Durable registry of live vQPU (and executor) processes.

One JSON array under $CUNQA_HOME (default ~/.cunqa). Writers take an
advisory flock on a sibling lock file and replace the file atomically, so
concurrent CLI invocations never corrupt it.
"""

from __future__ import annotations

import fcntl
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

REGISTRY_FILE = "registry.json"
LOCK_FILE = "registry.lock"


@dataclass
class RegistryEntry:
    family: str
    vqpu_id: str
    host: str
    port: int
    backend_path: str
    comm_mode: str  # "none" | "classical" | "quantum"
    co_located: bool
    pid: int
    raised_at: float
    ttl_seconds: int
    executor_endpoint: str | None = None
    node: str = "node0"

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def is_executor(self) -> bool:
        # the executor's registry row points at itself
        return self.executor_endpoint == self.endpoint

    def to_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_obj(cls, obj: dict) -> "RegistryEntry":
        return cls(**obj)


def cunqa_home() -> Path:
    home = Path(os.environ.get("CUNQA_HOME", "~/.cunqa")).expanduser()
    home.mkdir(parents=True, exist_ok=True)
    return home


def current_node() -> str:
    return os.environ.get("CUNQA_NODE", "node0")


def registry_path(home: Path | None = None) -> Path:
    return (home or cunqa_home()) / REGISTRY_FILE


@contextmanager
def locked_registry(home: Path | None = None):
    home = home or cunqa_home()
    lock_file = home / LOCK_FILE
    with open(lock_file, "w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield home
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def read_registry(home: Path | None = None) -> list[RegistryEntry]:
    path = registry_path(home)
    if not path.exists():
        return []
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return [RegistryEntry.from_obj(obj) for obj in data]


def write_registry(entries: list[RegistryEntry], home: Path | None = None) -> None:
    """Atomic replace; callers mutating existing content must hold the lock."""
    home = home or cunqa_home()
    path = registry_path(home)
    fd, tmp = tempfile.mkstemp(dir=home, prefix=".registry-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump([e.to_obj() for e in entries], fh, indent=1)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def add_entries(new: list[RegistryEntry], home: Path | None = None) -> None:
    with locked_registry(home) as h:
        entries = read_registry(h)
        entries.extend(new)
        write_registry(entries, h)


def remove_entries(predicate, home: Path | None = None) -> list[RegistryEntry]:
    """Drop entries matching `predicate`; returns what was removed."""
    with locked_registry(home) as h:
        entries = read_registry(h)
        removed = [e for e in entries if predicate(e)]
        if removed:
            write_registry([e for e in entries if not predicate(e)], h)
        return removed


def pid_alive(pid: int) -> bool:
    """True while a process with this pid runs, ours or not. A zombie (an
    exited process nobody has reaped yet) reads as dead: its state, the field
    after the last ")" of /proc/<pid>/stat, is Z or X. Where /proc is absent,
    os.kill(pid, 0) decides, and it cannot tell a zombie apart."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rpartition(b")")[2].split()[0] not in (b"Z", b"X")
    except (FileNotFoundError, ProcessLookupError):
        if os.path.isdir("/proc/self"):  # /proc is there: no such process
            return False
    except OSError:
        pass
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
