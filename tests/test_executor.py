import math

import numpy as np
import pytest

from dqcemu import engine
from dqcemu.backend import default_backend, validate
from dqcemu.circuit import Circuit, Instruction
from dqcemu.errors import (
    CommQubitCollision,
    DanglingProtocol,
    DuplicateId,
    EmptyBody,
    MergeDeadlock,
    WidthExceeded,
)
from dqcemu.executor import (
    MergePlan,
    execute_merged,
    expand_teledata,
    expand_telegate,
    merge_circuits,
)
from dqcemu.statevector import GateOp, StateVector, apply_gate

from oracles import haar_single_qubit, protocol_end_states, reduced_density, state_fidelity


# -- merge bookkeeping ---------------------------------------------------------

def test_two_single_qubit_parts():
    a = Circuit(1, 0, id="a")
    a.qsend(0, "b")
    b = Circuit(1, 0, id="b")
    b.qrecv(0, "a")
    plan = merge_circuits([a, b])
    assert plan.total_qubits == 4
    assert plan.comm_qubits == (2, 3)
    assert plan.merged.instructions == expand_teledata(fresh_plan([1, 1]), 0, 1)
    assert not plan.merged.has_distributed()


def test_offsets_follow_submission_order():
    big = Circuit(16, 16, id="anc")
    big.h(0)
    big.expose(0, [("crz", [0], [1.0])], "tgt")
    big.measure(3, 3)
    small = Circuit(1, 0, id="tgt")
    small.x(0)
    plan = merge_circuits([big, small])
    assert plan.total_qubits == 19
    assert [off for _, off, _ in plan.parts] == [0, 16]
    assert plan.user_clbits == 16
    merged = plan.merged.instructions
    assert Instruction("measure", [3], [3]) in merged  # anc's clbit 3 is clbit 3
    assert Instruction("x", [16]) in merged
    assert Instruction("crz", [18, 16], params=[1.0]) in merged


def test_dangling_qsend():
    a = Circuit(1, 0, id="a")
    a.qsend(0, "b")
    a.qsend(0, "b")
    b = Circuit(1, 0, id="b")
    b.qrecv(0, "a")
    with pytest.raises(DanglingProtocol, match="seq 1"):
        merge_circuits([a, b])


def test_absent_peer():
    a = Circuit(1, 0, id="a")
    a.qsend(0, "ghost")
    b = Circuit(1, 0, id="b")
    with pytest.raises(DanglingProtocol, match="ghost"):
        merge_circuits([a, b])


def test_duplicate_ids():
    with pytest.raises(DuplicateId):
        merge_circuits([Circuit(1, 0, id="x"), Circuit(1, 0, id="x")])


def test_merge_deadlock():
    a = Circuit(1, 0, id="a")
    a.qsend(0, "b")
    b = Circuit(1, 0, id="b")
    b.qsend(0, "a")
    with pytest.raises(MergeDeadlock):
        merge_circuits([a, b])


def test_merge_determinism():
    def parts():
        a = Circuit(2, 1, id="a")
        a.h(0)
        a.measure_and_send(0, "b")
        a.qsend(1, "b")
        a.measure(0, 0)
        b = Circuit(2, 1, id="b")
        b.remote_c_if("x", [0], "a")
        b.qrecv(1, "a")
        b.measure(1, 0)
        return [a, b]

    first = merge_circuits(parts())
    second = merge_circuits(parts())
    assert first.merged.instructions == second.merged.instructions
    assert first.scratch_clbits == second.scratch_clbits


def test_classical_link_becomes_local_conditional():
    a = Circuit(1, 0, id="a")
    a.x(0)
    a.measure_and_send(0, "b")
    b = Circuit(1, 1, id="b")
    b.remote_c_if("x", [0], "a")
    b.measure(0, 0)
    plan = merge_circuits([a, b])
    rec = execute_merged(plan, 50, seed=2)
    assert rec.counts == {"1": 50}
    # a's send measures into scratch clbit 1, which b's x then reads
    assert plan.merged.instructions == [
        Instruction("x", [0]), Instruction("measure", [0], [1]),
        Instruction("x", [1], [1]), Instruction("measure", [1], [0])]


# -- teledata ------------------------------------------------------------------

def fresh_plan(widths, clbits=0) -> MergePlan:
    total = sum(widths) + 2
    return MergePlan(parts=[], total_qubits=total,
                     comm_qubits=(total - 2, total - 1), user_clbits=clbits)


def teledata_circuit(state_params) -> Circuit:
    """Sender qubit 0 prepared by u(params), receiver qubit 1."""
    plan = fresh_plan([1, 1])
    c = Circuit(4, 2, id="td")
    c.u(*state_params, 0)
    for ins in expand_teledata(plan, 0, 1):
        c.instructions.append(ins)
    return c


def test_teledata_deterministic_one():
    c = Circuit(4, 2, id="td")
    c.x(0)
    plan = fresh_plan([1, 1])
    c.instructions.extend(expand_teledata(plan, 0, 1))
    for state in protocol_end_states(c):
        rho = reduced_density(state, 4, [1])
        assert state_fidelity(np.array([0, 1.0]), rho) >= 1 - 1e-10


def test_teledata_fidelity_random_states():
    """Every end branch of each case's run, one per correction, all four
    corrections in each (`protocol_end_states`)."""
    rng = np.random.default_rng(1717)
    for case in range(40):
        params = haar_single_qubit(rng)
        target = np.array([math.cos(params[0] / 2),
                           np.exp(1j * params[1]) * math.sin(params[0] / 2)])
        for state in protocol_end_states(teledata_circuit(params), seed=case):
            rho = reduced_density(state, 4, [1])
            assert state_fidelity(target, rho) >= 1 - 1e-10
            # sender destroyed: left in a computational basis state
            rho_s = reduced_density(state, 4, [0])
            assert max(abs(rho_s[0, 0]), abs(rho_s[1, 1])) >= 1 - 1e-10
            # comm qubits recycled to |0>
            for q in (2, 3):
                rho_c = reduced_density(state, 4, [q])
                assert abs(rho_c[0, 0] - 1) <= 1e-10


def test_teledata_overwrites_receiver():
    c = Circuit(4, 2, id="td")
    c.x(0)
    c.h(1)  # receiver not |0>
    plan = fresh_plan([1, 1])
    c.instructions.extend(expand_teledata(plan, 0, 1))
    for state in protocol_end_states(c):
        rho = reduced_density(state, 4, [1])
        assert state_fidelity(np.array([0, 1.0]), rho) >= 1 - 1e-10


def test_teledata_comm_collision():
    plan = fresh_plan([1, 1])
    with pytest.raises(CommQubitCollision):
        expand_teledata(plan, 2, 1)


# -- telegate ------------------------------------------------------------------

def telegate_states(control_prep, body, seed=0, extra_qubits=2):
    """Run prep + telegate on (control=0, targets=1..); return the state of
    every end branch (`protocol_end_states`)."""
    total = extra_qubits + 2
    c = Circuit(total, 2, id="tg")
    for name, qubits, params in control_prep:
        c.append(name, qubits, params=params)
    plan = fresh_plan([1] * extra_qubits)
    c.instructions.extend(expand_telegate(plan, 0, body))
    return protocol_end_states(c, seed)


def test_telegate_crz_matches_direct_gate():
    # control |1>, target |1>: crz(4) phase e^{2i} up to global phase
    prep = [("x", [0], []), ("x", [1], [])]
    direct = StateVector(2)
    apply_gate(direct, GateOp("x", (0,)))
    apply_gate(direct, GateOp("x", (1,)))
    apply_gate(direct, GateOp("crz", (0, 1), (4.0,)))
    for state in telegate_states(prep, [("crz", [1], [4.0])]):
        rho = reduced_density(state, 4, [0, 1])
        assert state_fidelity(direct.amplitudes, rho) >= 1 - 1e-10


def test_telegate_remote_cnot_builds_bell():
    prep = [("h", [0], [])]
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    for state in telegate_states(prep, [("cx", [1], [])]):
        rho = reduced_density(state, 4, [0, 1])
        assert state_fidelity(bell, rho) >= 1 - 1e-10


def test_telegate_random_cases_match_direct():
    rng = np.random.default_rng(909)
    bodies = [("cx", []), ("cz", []), ("crz", [1.234])]
    for case in range(30):
        cp = haar_single_qubit(rng)
        tp = haar_single_qubit(rng)
        name, params = bodies[case % len(bodies)]
        direct = StateVector(2)
        apply_gate(direct, GateOp("u", (0,), cp))
        apply_gate(direct, GateOp("u", (1,), tp))
        apply_gate(direct, GateOp(name, (0, 1), tuple(params)))
        prep = [("u", [0], list(cp)), ("u", [1], list(tp))]
        for state in telegate_states(prep, [(name, [1], list(params))], seed=case):
            rho = reduced_density(state, 4, [0, 1])
            assert state_fidelity(direct.amplitudes, rho) >= 1 - 1e-10
            for q in (2, 3):
                rho_c = reduced_density(state, 4, [q])
                assert abs(rho_c[0, 0] - 1) <= 1e-10


def test_telegate_identity_body_preserves_control():
    prep = [("h", [0], [])]
    plus = np.array([1, 1]) / math.sqrt(2)
    for state in telegate_states(prep, [("crz", [1], [0.0])]):
        rho = reduced_density(state, 4, [0])
        assert state_fidelity(plus, rho) >= 1 - 1e-10


def test_telegate_empty_body():
    with pytest.raises(EmptyBody):
        expand_telegate(fresh_plan([1, 1]), 0, [])


def test_telegate_comm_collision():
    plan = fresh_plan([1, 1])
    with pytest.raises(CommQubitCollision):
        expand_telegate(plan, 3, [("cx", [1], [])])
    with pytest.raises(CommQubitCollision):
        expand_telegate(plan, 0, [("cx", [2], [])])


# -- execute_merged ------------------------------------------------------------

def distributed_bell() -> MergePlan:
    s = Circuit(1, 0, id="s")
    s.h(0)
    s.qsend(0, "r")
    r = Circuit(2, 2, id="r")
    r.qrecv(0, "s")
    r.cx(0, 1)
    r.measure(0, 0)
    r.measure(1, 1)
    return merge_circuits([s, r])


def test_distributed_bell_counts():
    rec = execute_merged(distributed_bell(), 1000, seed=6)
    assert set(rec.counts) == {"00", "11"}
    assert sum(rec.counts.values()) == 1000
    assert len(next(iter(rec.counts))) == 2  # scratch bits stripped


def test_unseeded_run_records_the_seed_that_replays_it():
    rec = execute_merged(distributed_bell(), 500)
    seed = rec.metadata["seed"]
    assert isinstance(seed, int)
    assert execute_merged(distributed_bell(), 500, seed=seed).counts == rec.counts


@pytest.mark.parametrize("user_clbits", [61, 62])
def test_merged_scratch_clbits_count_against_the_engines_cap(user_clbits):
    """Teleporting a qubit adds two scratch clbits: a receiver of 62
    clbits, valid alone, makes a merged circuit of 64, which the engine
    refuses; 61 make 63, which run."""
    s = Circuit(1, 0, id="s")
    s.x(0)
    s.qsend(0, "r")
    r = Circuit(1, user_clbits, id="r")
    r.qrecv(0, "s")
    r.measure(0, user_clbits - 1)
    assert validate(r, default_backend()) == []
    plan = merge_circuits([s, r])
    assert plan.merged.num_clbits == user_clbits + 2
    if plan.merged.num_clbits > engine.MAX_CLBITS:
        with pytest.raises(WidthExceeded, match="64 clbits"):
            execute_merged(plan, 20, seed=1)
    else:
        assert execute_merged(plan, 20, seed=1).counts == {"1" + "0" * (user_clbits - 1): 20}


def test_zero_shots_rejected():
    s = Circuit(1, 0, id="s")
    s.qsend(0, "r")
    r = Circuit(1, 0, id="r")
    r.qrecv(0, "s")
    plan = merge_circuits([s, r])
    with pytest.raises(ValueError):
        execute_merged(plan, 0, seed=1)


def test_counts_key_layout_concatenates_parts():
    a = Circuit(1, 1, id="a")
    a.x(0)
    a.measure(0, 0)
    a.qsend(0, "b")
    b = Circuit(1, 1, id="b")
    b.qrecv(0, "a")
    b.measure(0, 0)
    plan = merge_circuits([a, b])
    rec = execute_merged(plan, 20, seed=3)
    # part a's clbit is rightmost; a measured 1 before teleporting, b reads 1
    assert rec.counts == {"11": 20}
    user = [(i.qubits, i.clbits) for i in plan.merged.instructions
            if i.name == "measure" and i.clbits[0] < plan.user_clbits]
    assert user == [([0], [0]), ([1], [1])]
