import math
import os
import time

import pytest

from dqcemu import registry
from dqcemu.algorithms import QpeConfig, build_ipea_chain
from dqcemu.circuit import Circuit, Param
from dqcemu.client import (
    aggregate_counts,
    distribute_shots,
    gather,
    get_qpus,
    run,
    run_distributed,
    split_shots,
    upgrade_parameters,
)
from dqcemu.errors import (
    CommModeMismatch,
    DistributedInstructionPresent,
    InvalidState,
    JobFailed,
    NoQpusAvailable,
    NotEnoughQpus,
    UnknownPeerId,
    ValidationFailed,
)
from dqcemu.registry import RegistryEntry


def bell() -> Circuit:
    c = Circuit(2, 2, id="bell")
    c.h(0).cx(0, 1).measure(0, 0).measure(1, 1)
    return c


def fake_entry(vqpu_id, node="node0", comm_mode="none", co_located=False,
               executor_endpoint=None):
    # a live pid that is never dialed: filter tests stop before connecting
    return RegistryEntry(
        family="fake", vqpu_id=vqpu_id, host="127.0.0.1", port=1,
        backend_path="", comm_mode=comm_mode, co_located=co_located,
        pid=os.getpid(), raised_at=time.time(), ttl_seconds=600,
        executor_endpoint=executor_endpoint, node=node)


# -- registry filtering (constructed fixtures, no processes) -------------------

def test_get_qpus_node_filtering(cunqa_home):
    registry.add_entries([
        fake_entry("off-0", node="node7"),
        fake_entry("off-1", node="node7"),
        fake_entry("here-0", node="node0"),
    ])
    assert len(get_qpus(on_node=False)) == 3
    assert [h.entry.vqpu_id for h in get_qpus(on_node=True)] == ["here-0"]


def test_get_qpus_off_node_only_family_raises(cunqa_home):
    registry.add_entries([fake_entry("off-0", node="node9")])
    with pytest.raises(NoQpusAvailable, match="on_node=True"):
        get_qpus(on_node=True)


def test_get_qpus_co_located_visible_regardless(cunqa_home):
    registry.add_entries([fake_entry("co-0", node="node9", co_located=True)])
    assert len(get_qpus(on_node=True)) == 1


def test_get_qpus_family_filter(cunqa_home):
    registry.add_entries([fake_entry("a-0"), fake_entry("a-1")])
    entries = registry.read_registry()
    entries[0].family = "other"
    registry.write_registry(entries)
    assert len(get_qpus(family="fake")) == 1
    with pytest.raises(NoQpusAvailable):
        get_qpus(family="ghost")


def test_get_qpus_skips_executor_entries(cunqa_home):
    registry.add_entries([
        fake_entry("q-0", comm_mode="quantum", executor_endpoint="127.0.0.1:9"),
        fake_entry("q-executor", comm_mode="quantum",
                   executor_endpoint="127.0.0.1:1"),  # points at itself
    ])
    handles = get_qpus()
    assert [h.entry.vqpu_id for h in handles] == ["q-0"]


def test_run_rejects_distributed_circuit(cunqa_home):
    registry.add_entries([fake_entry("v-0")])
    handle = get_qpus()[0]
    c = Circuit(1, 0, id="d")
    c.qsend(0, "peer")
    with pytest.raises(DistributedInstructionPresent):
        run(handle, c, shots=1)


def test_run_validates_against_backend(cunqa_home):
    registry.add_entries([fake_entry("v-0")])
    handle = get_qpus()[0]
    wide = Circuit(33, 0, id="wide")
    wide.h(0)
    with pytest.raises(ValidationFailed):
        run(handle, wide, shots=1)


def test_run_distributed_argument_errors(cunqa_home):
    registry.add_entries([fake_entry("v-0", comm_mode="classical"),
                          fake_entry("v-1", comm_mode="classical")])
    handles = get_qpus()
    chain = build_ipea_chain(QpeConfig(n_ancilla=3, theta=1.0))
    with pytest.raises(NotEnoughQpus):
        run_distributed(chain.circuits, handles, shots=10)

    a = Circuit(1, 0, id="a")
    a.measure_and_send(0, "ghost")
    b = Circuit(1, 0, id="b")
    with pytest.raises(UnknownPeerId):
        run_distributed([a, b], handles, shots=10)


def test_run_distributed_comm_mode_checks(cunqa_home):
    registry.add_entries([fake_entry("n-0"), fake_entry("n-1")])
    handles = get_qpus()
    a = Circuit(1, 0, id="a")
    a.measure_and_send(0, "b")
    b = Circuit(1, 1, id="b")
    b.remote_c_if("x", [0], "a")
    with pytest.raises(CommModeMismatch):
        run_distributed([a, b], handles, shots=10)

    s = Circuit(1, 0, id="s")
    s.qsend(0, "r")
    r = Circuit(1, 0, id="r")
    r.qrecv(0, "s")
    with pytest.raises(CommModeMismatch):
        run_distributed([s, r], handles, shots=10)


def test_split_shots():
    assert split_shots(10, 4) == [3, 3, 2, 2]
    assert split_shots(1_000_000, 4) == [250_000] * 4
    assert split_shots(3, 5) == [1, 1, 1, 0, 0]
    with pytest.raises(ValueError):
        split_shots(5, 0)


def test_aggregate_counts():
    assert aggregate_counts([{"0": 2, "1": 1}, {"1": 4}]) == {"0": 2, "1": 5}


# -- against live vQPUs ---------------------------------------------------------

def test_run_and_gather_preserve_order(raise_family):
    raise_family(4)
    qpus = get_qpus()
    jobs = [run(q, bell(), shots=50, seed=i) for i, q in enumerate(qpus)]
    records = gather(jobs)
    assert [r.job_id for r in records] == [j.job_id for j in jobs]
    assert all(sum(r.counts.values()) == 50 for r in records)
    assert all(j.state == "done" for j in jobs)


def test_shot_distribution_aggregates(raise_family):
    raise_family(4)
    qpus = get_qpus()
    jobs = distribute_shots(10_000, qpus, bell(), seed=3)
    total = aggregate_counts(gather(jobs))
    assert sum(total.values()) == 10_000
    assert set(total) == {"00", "11"}


def test_link_free_parts_run_as_run_runs_them(raise_family):
    """A part of a link-free run_distributed job gives the counts `run`
    gives that circuit at the part's seed, with or without mid-circuit
    effects."""
    raise_family(2)
    qpus = get_qpus()
    terminal = Circuit(2, 2, id="terminal")
    terminal.ry(1.1, 0).cx(0, 1).ry(0.4, 1).measure(0, 0).measure(1, 1)
    mid = Circuit(2, 2, id="mid")
    mid.h(0).measure(0, 0).c_if("x", 1, 0).h(1).measure(1, 1)
    parts = gather(run_distributed([terminal, mid], qpus, shots=500, seed=12))
    for circuit, part, handle in zip((terminal, mid), parts, qpus):
        alone = run(handle, circuit, shots=500, seed=part.metadata["seed"]).wait()
        assert part.counts == alone.counts


def test_job_failure_surfaces_with_diagnostic(raise_family):
    raise_family(1)
    handle = get_qpus()[0]
    c = Circuit(1, 1, id="unbound")
    c.rz(Param("theta"), 0)
    c.measure(0, 0)
    job = run(handle, c, shots=10)  # slots declared but no values bound
    with pytest.raises(JobFailed, match="ValidationFailed"):
        job.wait()
    assert job.state == "failed"


def test_gather_collects_before_raising(raise_family):
    raise_family(2)
    qpus = get_qpus()
    bad = Circuit(1, 1, id="bad")
    bad.rz(Param("x"), 0)
    bad.measure(0, 0)
    jobs = [run(qpus[0], bad, shots=5), run(qpus[1], bell(), shots=5, seed=1)]
    with pytest.raises(JobFailed):
        gather(jobs)
    assert jobs[1].cached_result is not None  # others were still retrieved


def test_upgrade_parameters_uploads_circuit_once(raise_family):
    raise_family(1)
    handle = get_qpus()[0]
    c = Circuit(1, 1, id="sweep")
    c.h(0)
    c.rz(Param("theta"), 0)
    c.h(0)
    c.measure(0, 0)

    thetas = [0.1, 0.9, 1.7, 2.5, math.pi]
    job = run(handle, c, shots=300, seed=11, params=[thetas[0]])
    results = [job.wait()]
    for theta in thetas[1:]:
        job = upgrade_parameters(job, [theta])
        results.append(job.wait())

    assert len(results) == 5
    assert len({frozenset(r.counts.items()) for r in results}) > 1
    log = handle.connection.frame_log
    assert log.count("run") == 1  # wire capture: the circuit went up once
    assert log.count("upgrade_parameters") == 4


def test_upgrade_before_completion_is_invalid(raise_family):
    raise_family(1)
    handle = get_qpus()[0]
    c = Circuit(4, 24, id="slow")
    c.rz(Param("t"), 0)
    for r in range(10):  # a branch per shot: every round's bits are kept
        for q in range(4):
            c.h(q)
        c.measure([2, 3], [4 + 2 * r, 5 + 2 * r])
    for q in range(4):
        c.measure(q, q)
    job = run(handle, c, shots=4000, params=[0.3])
    with pytest.raises(InvalidState):
        upgrade_parameters(job, [1.0])
    job.wait()


def test_qjob_nonblocking_poll(raise_family):
    raise_family(1)
    handle = get_qpus()[0]
    job = run(handle, bell(), shots=100, seed=0)
    state = job.poll()
    assert state in ("submitted", "running", "done")
    job.wait()
    assert job.poll() == "done"
