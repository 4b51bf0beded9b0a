from __future__ import annotations

import ctypes
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles helper module

from dqcemu.orchestrator import qdrop, qraise  # noqa: E402


@pytest.fixture()
def cunqa_home(tmp_path, monkeypatch):
    """Isolated registry root; anything raised during the test is dropped."""
    home = tmp_path / "cunqa"
    monkeypatch.setenv("CUNQA_HOME", str(home))
    monkeypatch.delenv("CUNQA_NODE", raising=False)
    yield home
    try:
        from dqcemu import registry
        import os
        # drop synthetic fixture entries that reuse the test process pid
        registry.remove_entries(lambda e: e.pid == os.getpid())
        qdrop("all", quiet=True)
    except Exception:
        pass


@pytest.fixture()
def raise_family(cunqa_home):
    """Factory raising families that are always dropped at teardown."""
    raised: list[str] = []

    def _raise(n: int, ttl: str = "00:05:00", **flags) -> str:
        fam = qraise(n=n, ttl=ttl, quiet=True, **flags)
        raised.append(fam)
        return fam

    yield _raise
    for fam in raised:
        try:
            qdrop(fam, quiet=True)
        except Exception:
            pass


PR_SET_CHILD_SUBREAPER = 36


@pytest.fixture()
def adopt_orphans():
    """Make this process, for the test, the subreaper of its descendants. A
    family member is forked by the family's first member; if a test kills
    that one, the others are adopted by this process, and qinfo and qdrop
    reap them at once, instead of by an init that may reap them seconds
    later or never. Request it before `raise_family`, so it is undone after
    the drop."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):  # not Linux: nothing is adopted
        yield
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    yield
    prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)
