"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The n=16 classical run
must finish within 60 s (about a second on 2 cores); the n=16 quantum run
is opt-in via `-m longrun` (hours of single-process simulation).
"""

import math
import os
import time

import numpy as np
import pytest

from dqcemu import engine
from dqcemu.algorithms import (
    QpeConfig,
    build_distributed_qpe,
    build_ipea_chain,
    build_qpe,
    extract_phase,
    ipea_bits_to_phase,
    most_frequent_bits,
)
from dqcemu.circuit import Circuit, Param
from dqcemu.client import (
    aggregate_counts,
    distribute_shots,
    gather,
    get_qpus,
    run,
    run_distributed,
    upgrade_parameters,
)
from dqcemu.errors import NotEnoughQpus
from dqcemu.executor import MergePlan, expand_teledata, expand_telegate
from dqcemu.orchestrator import qdrop, qinfo
from dqcemu.statevector import GateOp, StateVector, apply_gate

from oracles import (
    end_branches,
    haar_single_qubit,
    protocol_end_states,
    reduced_density,
    run_ipea_loopback,
    state_fidelity,
    statevector_by_matmul,
)

PHI_TRUE = 1 / math.pi
TABLE_PHI_HAT = 0.3183135986328125  # xi = 20861, n = 16


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"\n[acceptance {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- 1. three-model agreement ---------------------------------------------------

def test_criterion_1a_no_communication(raise_family):
    t0 = time.monotonic()
    fam = raise_family(4)
    qpus = get_qpus(family=fam)
    circuit = build_qpe(QpeConfig(n_ancilla=16, theta=2.0), id="qpe16")
    jobs = distribute_shots(100_000, qpus, circuit, seed=20250810)
    records = gather(jobs)
    assert all(r.metadata["shots"] == 25_000 for r in records)
    counts = aggregate_counts(records)
    est = extract_phase(counts, 16)
    wall = time.monotonic() - t0
    report("1a", est.phi_hat == TABLE_PHI_HAT and est.xi == 20861 and wall < 60,
           f"phi_hat={est.phi_hat!r} xi={est.xi} wall={wall:.1f}s")


def test_criterion_1b_classical_n8(raise_family):
    fam = raise_family(8, classical_comm=True)
    qpus = get_qpus(family=fam)
    chain = build_ipea_chain(QpeConfig(n_ancilla=8, theta=2.0))
    jobs = run_distributed(chain.circuits, qpus, shots=4000, seed=7)
    records = gather(jobs)
    bits = most_frequent_bits([r.counts for r in records])
    est = ipea_bits_to_phase(bits, n=8)
    err = abs(est.phi_hat - PHI_TRUE)
    report("1b-n8", err <= 2.0 ** -8,
           f"phi_hat={est.phi_hat} err={err:.6f} bound={2.0 ** -8:.6f}")


def test_criterion_1b_classical_n16(raise_family):
    t0 = time.monotonic()
    fam = raise_family(16, classical_comm=True)
    qpus = get_qpus(family=fam)
    chain = build_ipea_chain(QpeConfig(n_ancilla=16, theta=2.0))
    jobs = run_distributed(chain.circuits, qpus, shots=10_000, seed=42)
    records = gather(jobs)
    bits = most_frequent_bits([r.counts for r in records])
    est = ipea_bits_to_phase(bits, n=16)
    wall = time.monotonic() - t0
    report("1b-n16", est.phi_hat == TABLE_PHI_HAT and wall < 60,
           f"phi_hat={est.phi_hat!r} wall={wall:.0f}s")


def test_criterion_1c_quantum_n8(raise_family):
    t0 = time.monotonic()
    fam = raise_family(2, quantum_comm=True)
    qpus = get_qpus(family=fam)
    anc, tgt = build_distributed_qpe(QpeConfig(n_ancilla=8, theta=2.0))
    jobs = run_distributed([anc, tgt], qpus, shots=10_000, seed=2718)
    records = gather(jobs)
    assert records[0].counts == records[1].counts  # one aggregated result
    est = extract_phase(records[0].counts, 8)
    err = abs(est.phi_hat - PHI_TRUE)
    wall = time.monotonic() - t0
    report("1c-n8", err <= 2.0 ** -8 and wall < 300,
           f"phi_hat={est.phi_hat} err={err:.6f} wall={wall:.0f}s")


@pytest.mark.longrun
def test_criterion_1c_quantum_n16(raise_family):
    # minutes of single-process joint simulation: give the family a long TTL
    fam = raise_family(2, ttl="23:59:59", quantum_comm=True)
    qpus = get_qpus(family=fam)
    anc, tgt = build_distributed_qpe(QpeConfig(n_ancilla=16, theta=2.0))
    jobs = run_distributed([anc, tgt], qpus, shots=10_000, seed=31459)
    records = gather(jobs)
    est = extract_phase(records[0].counts, 16)
    report("1c-n16", est.phi_hat == TABLE_PHI_HAT, f"phi_hat={est.phi_hat!r}")


# -- 2. protocol oracles ---------------------------------------------------------

def _fresh_plan(data_qubits: int) -> MergePlan:
    total = data_qubits + 2
    return MergePlan(parts=[], total_qubits=total,
                     comm_qubits=(total - 2, total - 1), user_clbits=0)


def test_criterion_2_teledata():
    rng = np.random.default_rng(1001)
    worst = 1.0
    for case in range(200):
        params = haar_single_qubit(rng)
        target = np.array([math.cos(params[0] / 2),
                           np.exp(1j * params[1]) * math.sin(params[0] / 2)])
        plan = _fresh_plan(2)
        c = Circuit(4, 2, id="td")
        c.u(*params, 0)
        c.instructions.extend(expand_teledata(plan, 0, 1))
        for state in protocol_end_states(c, case):  # all 4 corrections
            fid = state_fidelity(target, reduced_density(state, 4, [1]))
            worst = min(worst, fid)
            rho_sender = reduced_density(state, 4, [0])
            assert max(abs(rho_sender[0, 0]), abs(rho_sender[1, 1])) >= 1 - 1e-10
            for q in (2, 3):  # recycling: comm qubits back to |0>
                rho = reduced_density(state, 4, [q])
                assert abs(rho[0, 0] - 1) <= 1e-10
    report("2-teledata", worst >= 1 - 1e-10,
           f"min fidelity={worst!r} (200 states, every correction)")


def test_criterion_2_telegate():
    rng = np.random.default_rng(2002)
    bodies = [("cx", []), ("cz", []), ("crz", None)]
    worst = 1.0
    for case in range(200):
        cp, tp = haar_single_qubit(rng), haar_single_qubit(rng)
        name, params = bodies[case % 3]
        if params is None:
            params = [float(rng.uniform(-2 * math.pi, 2 * math.pi))]
        direct = StateVector(2)
        apply_gate(direct, GateOp("u", (0,), cp))
        apply_gate(direct, GateOp("u", (1,), tp))
        apply_gate(direct, GateOp(name, (0, 1), tuple(params)))

        plan = _fresh_plan(2)
        c = Circuit(4, 2, id="tg")
        c.u(*cp, 0)
        c.u(*tp, 1)
        c.instructions.extend(expand_telegate(plan, 0, [(name, [1], params)]))
        for state in protocol_end_states(c, case):  # all 4 corrections
            fid = state_fidelity(direct.amplitudes, reduced_density(state, 4, [0, 1]))
            worst = min(worst, fid)
            for q in (2, 3):
                rho = reduced_density(state, 4, [q])
                assert abs(rho[0, 0] - 1) <= 1e-10
    report("2-telegate", worst >= 1 - 1e-10,
           f"min fidelity={worst!r} (200 cases, every correction)")


# -- 3. deferred-measurement equivalence ----------------------------------------

def test_criterion_3_ipea_reproduces_qpe():
    mismatches = []
    for k in range(16):
        cfg = QpeConfig(n_ancilla=4, theta=2 * math.pi * k / 16)
        qpe_xi = extract_phase(
            engine.run_sampled(build_qpe(cfg), 64, seed=k), 4).xi
        counts = run_ipea_loopback(build_ipea_chain(cfg), shots=32, seed=300 + k)
        ipea_xi = ipea_bits_to_phase(most_frequent_bits(counts), n=4).xi
        if not (qpe_xi == ipea_xi == k):
            mismatches.append((k, qpe_xi, ipea_xi))
    report("3", not mismatches, f"mismatches={mismatches} (16 exact phases)")


# -- 4. deterministic exactness --------------------------------------------------

def test_criterion_4_exact_three_bit_phase():
    cfg = QpeConfig(n_ancilla=3, theta=math.pi / 2)  # phi = 0.25
    counts = engine.run_sampled(build_qpe(cfg), 100, seed=4)
    report("4", counts == {"010": 100}, f"counts={counts}")


# -- 5. distribution bookkeeping --------------------------------------------------

def test_criterion_5_shot_distribution(raise_family):
    fam = raise_family(4)
    qpus = get_qpus(family=fam)
    bell = Circuit(2, 2, id="bell")
    bell.h(0).cx(0, 1).measure(0, 0).measure(1, 1)
    jobs = distribute_shots(1_000_000, qpus, bell, seed=55)
    total = aggregate_counts(gather(jobs))
    report("5-shots", sum(total.values()) == 1_000_000,
           f"aggregated={sum(total.values())}")


def _calibrated_workload() -> tuple[Circuit, int]:
    """A shot-loop circuit and a shot count tuned to about 1 s."""
    c = Circuit(6, 22, id="work")
    c.rz(Param("t"), 0)  # unbound slots are rejected; bind at submit
    for r in range(8):  # a branch per shot: every round's bits are kept
        for q in range(6):
            c.h(q)
        c.cx(0, 1)
        c.cx(2, 3)
        c.measure([4, 5], [6 + 2 * r, 7 + 2 * r])
    for q in range(6):
        c.measure(q, q)
    probe_shots = 300
    bound = c.bind_params([0.3])
    t0 = time.perf_counter()
    engine.run_shot_loop(bound, probe_shots, seed=1)
    per_shot = (time.perf_counter() - t0) / probe_shots
    return c, max(100, int(1.0 / per_shot))


def test_criterion_5_parallel_dispatch(raise_family):
    if (os.cpu_count() or 1) < 4:
        pytest.skip("needs >= 4 cores")
    circuit, shots = _calibrated_workload()
    fam = raise_family(4)
    qpus = get_qpus(family=fam)

    solo = run(qpus[0], circuit, shots=shots, seed=9,
               params=[0.3]).wait()
    single_s = solo.time_taken
    t0 = time.monotonic()
    jobs = [run(q, circuit, shots=shots, seed=9 + i,
                params=[0.3]) for i, q in enumerate(qpus)]
    gather(jobs)
    wall = time.monotonic() - t0
    report("5-parallel", wall < 2.8 and wall < 0.7 * 4 * max(single_s, 0.5),
           f"single={single_s:.2f}s wall4={wall:.2f}s budget=2.8s")


# -- 6. lifecycle -----------------------------------------------------------------

def test_criterion_6_lifecycle(raise_family, cunqa_home):
    fam = raise_family(4, ttl="00:10:00")
    alive = [r for r in qinfo(family=fam) if r["state"] != "stale"]
    ok_raise = len(alive) == 4
    qdrop(fam, quiet=True)
    ok_drop = qinfo(family=fam) == []

    qfam = raise_family(2, quantum_comm=True)
    rows = qinfo(family=qfam)
    kinds = sorted(r["kind"] for r in rows)
    ok_quantum = kinds == ["executor", "vqpu", "vqpu"]

    tfam = raise_family(1, ttl="00:00:02")
    deadline = time.monotonic() + 8
    while time.monotonic() < deadline and qinfo(family=tfam):
        time.sleep(0.2)
    ok_ttl = qinfo(family=tfam) == []
    report("6", ok_raise and ok_drop and ok_quantum and ok_ttl,
           f"raise4={ok_raise} drop={ok_drop} quantum3={ok_quantum} ttl={ok_ttl}")


# -- 7. API contracts --------------------------------------------------------------

def test_criterion_7_api_contracts(raise_family):
    fam = raise_family(2, classical_comm=True)
    qpus = get_qpus(family=fam)
    chain = build_ipea_chain(QpeConfig(n_ancilla=3, theta=1.0))
    raised = False
    try:
        run_distributed(chain.circuits, qpus, shots=10)
    except NotEnoughQpus:
        raised = True

    sweep = Circuit(1, 1, id="sweep")
    sweep.h(0)
    sweep.rz(Param("theta"), 0)
    sweep.h(0)
    sweep.measure(0, 0)
    handle = qpus[0]
    job = run(handle, sweep, shots=200, seed=1, params=[0.1])
    job.wait()
    for theta in (0.5, 1.1, 1.9, 2.7):
        job = upgrade_parameters(job, [theta])
        job.wait()
    log = handle.connection.frame_log
    ok_wire = log.count("run") == 1 and log.count("upgrade_parameters") == 4
    report("7", raised and ok_wire,
           f"NotEnoughQpus={raised} run_frames={log.count('run')} "
           f"upgrade_frames={log.count('upgrade_parameters')}")


# -- 8. simulator soundness ---------------------------------------------------------

def test_criterion_8_simulator_soundness():
    from oracles import random_unitary_circuit

    rng = np.random.default_rng(808)
    worst = 0.0
    worst_norm = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 4))
        c = random_unitary_circuit(rng, n, int(rng.integers(1, 9)))
        (state, _, _), = end_branches(c, 1, 0)[1]
        oracle = statevector_by_matmul(c)
        worst = max(worst, float(np.max(np.abs(state - oracle))))
        worst_norm = max(worst_norm, abs(float(np.sum(np.abs(state) ** 2)) - 1.0))

    c = random_unitary_circuit(rng, 3, 8, measured=True)
    a = engine.run_shot_loop(c, 500, seed=4242)
    b = engine.run_shot_loop(c, 500, seed=4242)
    deterministic = a == b

    report("8", worst < 1e-10 and worst_norm <= 1e-12 and deterministic,
           f"max|dpsi|={worst:.2e} max|dnorm|={worst_norm:.2e} "
           f"seed_replay={deterministic} (500 circuits)")
