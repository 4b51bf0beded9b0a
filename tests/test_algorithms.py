import math

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
from dqcemu.channel import InMemoryHub
from dqcemu.errors import EmptyCounts, LengthMismatch
from dqcemu.executor import execute_merged, merge_circuits

from oracles import chi2_pvalue, run_ipea_loopback, statevector_by_matmul

PHI_PI = 1 / math.pi
TABLE_PHI_HAT = 0.3183135986328125  # = 20861 / 2^16


def test_phi_true_wraps():
    assert QpeConfig(n_ancilla=2, theta=2.0).phi_true == pytest.approx(PHI_PI)
    assert QpeConfig(n_ancilla=2, theta=2 * math.pi + 1).phi_true == \
        pytest.approx(1 / (2 * math.pi), rel=1e-12)


def test_qpe_single_bit():
    cfg = QpeConfig(n_ancilla=1, theta=math.pi)  # phi = 0.5
    counts = engine.run_sampled(build_qpe(cfg), 100, seed=0)
    assert counts == {"1": 100}
    assert extract_phase(counts, 1).phi_hat == 0.5


def test_qpe_three_bit_deterministic():
    cfg = QpeConfig(n_ancilla=3, theta=math.pi / 2)  # phi = 0.25
    circuit = build_qpe(cfg)
    counts = engine.run_sampled(circuit, 100, seed=17)
    assert counts == {"010": 100}
    est = extract_phase(counts, 3)
    assert (est.xi, est.phi_hat) == (2, 0.25)
    # the pre-measurement statevector is exactly |xi=2> on the ancillas
    psi = statevector_by_matmul(circuit)
    probs = np.abs(psi) ** 2
    ancilla_two = [i for i in range(len(probs)) if (i & 0b111) == 2]
    assert sum(probs[i] for i in ancilla_two) == pytest.approx(1.0, abs=1e-12)


def test_qpe_structure():
    cfg = QpeConfig(n_ancilla=4, theta=0.7)
    c = build_qpe(cfg)
    assert c.num_qubits == 5 and c.num_clbits == 4
    crzs = [i for i in c.instructions if i.name == "crz"]
    assert [i.qubits for i in crzs] == [[t, 4] for t in range(4)]
    assert [i.params[0] for i in crzs] == [2 * 0.7 * (1 << t) for t in range(4)]
    measures = [i for i in c.instructions if i.name == "measure"]
    assert [(i.qubits[0], i.clbits[0]) for i in measures] == \
        [(t, t) for t in range(4)]


def test_qpe_table_value():
    cfg = QpeConfig(n_ancilla=16, theta=2.0)
    counts = engine.run_sampled(build_qpe(cfg), 20_000, seed=99)
    est = extract_phase(counts, 16)
    assert est.xi == 20861
    assert est.phi_hat == TABLE_PHI_HAT
    assert abs(est.phi_hat - PHI_PI) <= est.error_bound


def test_extract_phase_rules():
    with pytest.raises(EmptyCounts):
        extract_phase({}, 3)
    with pytest.raises(LengthMismatch):
        extract_phase({"01": 5}, 3)
    est = extract_phase({"010": 900, "011": 100}, 3)
    assert (est.xi, est.phi_hat) == (2, 0.25)
    # ties break toward smaller xi
    assert extract_phase({"001": 5, "100": 5}, 3).xi == 1
    # extra (non-ancilla) bits are marginalized out
    est = extract_phase({"1010": 6, "0010": 5}, 3)
    assert est.xi == 2 and est.phi_hat == 0.25
    assert extract_phase({"000": 9}, 3).phi_hat == 0.0


def test_ipea_bits_to_phase():
    assert ipea_bits_to_phase([0, 1, 0]).xi == 2
    assert ipea_bits_to_phase([0, 0, 0]).phi_hat == 0.0
    assert ipea_bits_to_phase([1, 0, 1, 1]).xi == 0b1101
    with pytest.raises(LengthMismatch):
        ipea_bits_to_phase([0, 1], n=3)
    with pytest.raises(LengthMismatch):
        ipea_bits_to_phase([])


def test_most_frequent_bits():
    assert most_frequent_bits([{"0": 3, "1": 9}, {"0": 7}]) == [1, 0]
    assert most_frequent_bits([{"0": 5, "1": 5}]) == [0]  # tie toward 0
    with pytest.raises(EmptyCounts):
        most_frequent_bits([{}])


def test_ipea_chain_structure():
    cfg = QpeConfig(n_ancilla=3, theta=0.9)
    chain = build_ipea_chain(cfg)
    assert len(chain.circuits) == 3
    assert all(c.num_qubits == 2 for c in chain.circuits)
    # powers descend: circuit i applies U^{2^{n-i-1}}
    angles = [next(i.params[0] for i in c.instructions if i.name == "crz")
              for c in chain.circuits]
    assert angles == [2 * 0.9 * 4, 2 * 0.9 * 2, 2 * 0.9 * 1]
    # circuit 2 carries both feedback rotations, -pi/2^2 then -pi/2
    feedback = [i for i in chain.circuits[2].instructions
                if i.name == "remote_c_if"]
    assert [i.remote.peer_circuit_id for i in feedback] == ["ipea-0", "ipea-1"]
    assert [i.params[0] for i in feedback] == [-math.pi / 4, -math.pi / 2]
    assert chain.bit_flow == {0: [1, 2], 1: [2], 2: []}


def test_ipea_single_circuit_degenerates():
    chain = build_ipea_chain(QpeConfig(n_ancilla=1, theta=math.pi))
    assert len(chain.circuits) == 1
    assert not chain.circuits[0].has_distributed()
    counts = engine.run_shot_loop(chain.circuits[0], 50, seed=0)
    assert counts == {"1": 50}


def test_ipea_message_volume():
    sends = []
    hub = InMemoryHub()
    original = hub.send

    def counting_send(address, msg):
        sends.append(msg)
        original(address, msg)

    hub.send = counting_send
    n, shots = 5, 400
    chain = build_ipea_chain(QpeConfig(n_ancilla=n, theta=1.3))
    run_ipea_loopback(chain, shots=shots, seed=3, hub=hub)
    # one bit per shot and pair of parts, each pair's sent in one frame:
    # every part walks its shots in one chunk, and receives every bit it
    # reads at once, since a sender hands over a whole chunk in one frame
    assert sum(len(msg.bits) for msg in sends) == shots * n * (n - 1) // 2
    assert len(sends) == n * (n - 1) // 2


def test_ipea_equals_qpe_for_all_exact_phases():
    n = 4
    for k in range(1 << n):
        theta = 2 * math.pi * k / (1 << n)
        cfg = QpeConfig(n_ancilla=n, theta=theta)
        qpe_counts = engine.run_sampled(build_qpe(cfg), 64, seed=k)
        xi_qpe = extract_phase(qpe_counts, n).xi
        assert xi_qpe == k
        counts = run_ipea_loopback(build_ipea_chain(cfg), shots=32, seed=50 + k)
        est = ipea_bits_to_phase(most_frequent_bits(counts), n=n)
        assert est.xi == k


def test_qpe_exact_whenever_phase_is_dyadic():
    rng = np.random.default_rng(6)
    for n in (2, 3, 5):
        for k in rng.choice(1 << n, size=3, replace=False):
            cfg = QpeConfig(n_ancilla=n, theta=2 * math.pi * int(k) / (1 << n))
            counts = engine.run_sampled(build_qpe(cfg), 200, seed=int(k))
            assert len(counts) == 1
            assert extract_phase(counts, n).xi == k


@pytest.mark.parametrize("n", [4, 6, 8])
def test_qpe_error_bound(n):
    rng = np.random.default_rng(1000 + n)
    hits = 0
    for trial in range(64):
        theta = float(rng.uniform(0, 2 * math.pi))
        cfg = QpeConfig(n_ancilla=n, theta=theta)
        counts = engine.run_sampled(build_qpe(cfg), 1000, seed=trial)
        est = extract_phase(counts, n)
        err = abs(est.phi_hat - cfg.phi_true)
        err = min(err, 1 - err)  # phase distance wraps at 1
        hits += err <= 2.0 ** (-n)
    assert hits >= int(0.95 * 64)


def test_distributed_qpe_structure():
    cfg = QpeConfig(n_ancilla=3, theta=1.1)
    anc, tgt = build_distributed_qpe(cfg)
    assert (anc.num_qubits, anc.num_clbits) == (3, 3)
    assert (tgt.num_qubits, tgt.num_clbits) == (1, 0)
    assert tgt.instructions[0].name == "x"
    exposes = [i for i in anc.instructions if i.name == "expose"]
    assert [i.qubits for i in exposes] == [[0], [1], [2]]
    assert [[(g.name, g.qubits) for g in i.body] for i in exposes] == [[("crz", [0])]] * 3
    plan = merge_circuits([anc, tgt])
    assert plan.total_qubits == 3 + 1 + 2
    # audit: each expose adds a 7-instruction entangler, the body gate and a
    # 5-instruction disentangler to the merged stream; its body gate is
    # controlled by the communication qubit and targets the target part's
    # qubit, and the entangler reads the exposed qubit
    c0, c1 = plan.comm_qubits
    merged = plan.merged.instructions
    assert [i.qubits for i in merged if i.name == "crz"] == [[c1, 3]] * 3
    assert [i.qubits[0] for i in merged if i.qubits[1:] == [c0]] == [0, 1, 2]
    assert [i.name for i in merged].count("reset") == 3 * 4


def test_distributed_qpe_matches_monolithic_distribution():
    n, shots = 4, 10_000
    cfg = QpeConfig(n_ancilla=n, theta=2.0)
    mono = engine.run_sampled(build_qpe(cfg), shots, seed=21)
    anc, tgt = build_distributed_qpe(cfg)
    plan = merge_circuits([anc, tgt])
    merged = execute_merged(plan, shots, seed=22)
    assert sum(merged.counts.values()) == shots
    assert chi2_pvalue(mono, merged.counts) > 0.001
    assert extract_phase(merged.counts, n).xi == extract_phase(mono, n).xi
