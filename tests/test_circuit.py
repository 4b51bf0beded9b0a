import numpy as np
import pytest

from dqcemu import engine
from dqcemu.backend import default_backend, validate
from dqcemu.circuit import Circuit, Instruction, Param, RemoteLink, concat, tensor_union
from dqcemu.errors import (
    ArityMismatch,
    EmptyBody,
    IndexOutOfRange,
    NotSupported,
    QubitOutOfRange,
    SelfLink,
    StraddlingGate,
    UnknownGate,
    WidthMismatch,
)

from oracles import check_end_branches, random_unitary_circuit


def bell() -> Circuit:
    c = Circuit(2, 2, id="bell")
    c.h(0).cx(0, 1).measure(0, 0).measure(1, 1)
    return c


# -- builders ----------------------------------------------------------------

def test_builder_arity_checks():
    c = Circuit(2, 1, id="c")
    with pytest.raises(ArityMismatch):
        c.append("cx", [0])
    with pytest.raises(ArityMismatch):
        c.append("rz", [0])
    with pytest.raises(UnknownGate):
        c.append("nope", [0])
    with pytest.raises(QubitOutOfRange):
        c.h(2)
    with pytest.raises(QubitOutOfRange):
        c.measure(0, 3)


def test_param_slots_and_binding():
    c = Circuit(1, 1, id="p")
    c.rz(Param("theta"), 0)
    c.rz(0.5, 0)
    c.rz(Param("theta"), 0)
    c.measure(0, 0)
    assert c.param_slots() == ["theta"]
    bound = c.bind_params([1.25])
    assert bound.param_slots() == []
    assert bound.instructions[0].params == [1.25]
    assert bound.instructions[2].params == [1.25]
    with pytest.raises(ArityMismatch):
        c.bind_params([1.0, 2.0])


# -- distributed builders ------------------------------------------------------

def test_measure_and_send_sequencing():
    """Sequence tags count up per (peer, instruction name)."""
    c = Circuit(1, 0, id="src")
    c.measure_and_send(0, "dst")
    c.measure_and_send(0, "dst")
    c.measure_and_send(0, "other")
    c.remote_c_if("x", [0], "dst")
    seqs = [ins.remote.sequence for ins in c.instructions]
    peers = [ins.remote.peer_circuit_id for ins in c.instructions]
    assert seqs == [0, 1, 0, 0]
    assert peers == ["dst", "dst", "other", "dst"]


def test_self_link_rejected():
    c = Circuit(1, 0, id="me")
    with pytest.raises(SelfLink):
        c.measure_and_send(0, "me")
    with pytest.raises(SelfLink):
        c.qsend(0, "me")


def test_remote_c_if_arity_and_gate():
    c = Circuit(2, 0, id="rc")
    c.remote_c_if("rz", [0], "peer", params=[-np.pi / 2])
    ins = c.instructions[-1]
    assert ins.remote == RemoteLink("peer", "rz", 0)
    assert ins.params == [-np.pi / 2]
    with pytest.raises(ArityMismatch):
        c.remote_c_if("cx", [0], "peer")
    with pytest.raises(UnknownGate):
        c.remote_c_if("bogus", [0], "peer")


def test_qsend_qrecv_fifo_tags():
    a = Circuit(1, 0, id="a")
    b = Circuit(1, 0, id="b")
    a.qsend(0, "b")
    b.qrecv(0, "a")
    assert a.instructions[0].remote.sequence == 0
    assert b.instructions[0].remote.sequence == 0
    a.qsend(0, "b")
    assert a.instructions[1].remote.sequence == 1


def test_expose_carries_its_body():
    """An expose is one instruction on its control qubit; its body gates
    name their peer-relative targets only. It counts once, on its control:
    in depth and in the instruction list, and `in` does not see its body."""
    c = Circuit(2, 0, id="anc")
    c.expose(0, [("crz", [0], [4.0])], "qpe_target")
    c.expose(1, [("cx", 2), ("cp", [1], [0.5])], "qpe_target")
    first, second = c.instructions
    assert (first.name, first.qubits, first.clbits, first.params) == ("expose", [0], [], [])
    assert first.remote == RemoteLink("qpe_target", None, 0)
    assert first.body == [Instruction("crz", [0], params=[4.0])]
    assert second.remote.sequence == 1
    assert second.body == [Instruction("cx", [2]), Instruction("cp", [1], params=[0.5])]
    assert c.depth() == 1 and "crz" not in c and "expose" in c


def test_expose_rejects_empty_and_nested():
    c = Circuit(1, 0, id="anc")
    with pytest.raises(EmptyBody):
        c.expose(0, [], "t")
    with pytest.raises(NotSupported):
        c.expose(0, [("qsend", [0])], "t")
    with pytest.raises(NotSupported):
        c.expose(0, [("expose", [0])], "t")
    with pytest.raises(NotSupported):  # the executor binds no slot
        c.expose(0, [("crz", [0], [Param("a")])], "t")
    assert c.instructions == []
    with pytest.raises(UnknownGate):
        c.expose(0, [("rz", [0], [1.0])], "t")  # body gates must be controlled
    with pytest.raises(ArityMismatch):
        c.expose(0, [("crz", [0, 1], [1.0])], "t")


# -- operators -----------------------------------------------------------------

def test_concat_order_and_identity():
    a = Circuit(1, 0, id="a")
    a.h(0)
    b = Circuit(1, 0, id="b")
    b.x(0)
    joined = a + b
    assert [i.name for i in joined.instructions] == ["h", "x"]
    empty = Circuit(1, 0, id="e")
    again = concat(a, empty)
    assert again.instructions == a.instructions
    assert again.id != a.id


def test_concat_width_mismatch():
    with pytest.raises(WidthMismatch):
        concat(Circuit(1, 0, id="a"), Circuit(2, 0, id="b"))


def test_tensor_union_offsets():
    a = Circuit(1, 1, id="a")
    a.h(0).measure(0, 0)
    b = Circuit(1, 1, id="b")
    b.x(0).measure(0, 0)
    u = a | b
    assert u.num_qubits == 2 and u.num_clbits == 2
    assert [(i.name, i.qubits, i.clbits) for i in u.instructions] == [
        ("h", [0], []), ("measure", [0], [0]), ("x", [1], []),
        ("measure", [1], [1])]


def test_tensor_union_statevector_is_kron():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = random_unitary_circuit(rng, 2, 5)
        b = random_unitary_circuit(rng, 2, 5)
        u = tensor_union(a, b)
        (sa, _, _), (sb, _, _), (su, _, _) = (
            end for c in (a, b, u) for end in check_end_branches(c, 1, 0))
        assert np.allclose(su, np.kron(sb, sa), atol=1e-12)


def test_union_does_not_offset_expose_body():
    a = Circuit(1, 0, id="a")
    a.h(0)
    b = Circuit(2, 0, id="b")
    b.expose(1, [("crz", [5], [0.3])], "peer")  # body qubit 5 is peer-relative
    u = a | b
    (exposed,) = u.instructions[1:]
    assert exposed.qubits == [2]  # control offset by a's width
    assert exposed.body == [Instruction("crz", [5], params=[0.3])]  # body untouched
    assert b.instructions[0].body[0].qubits == [5]


def test_splits_keep_an_expose_whole():
    """hor_split moves an expose with its control qubit, body and all; a
    vert_split position counts it once."""
    a = Circuit(1, 0, id="a")
    a.h(0)
    b = Circuit(2, 0, id="b")
    b.expose(1, [("crz", [0], [0.3]), ("cx", [1])], "peer").h(1)
    first, second = (a | b).hor_split(0)
    assert first.instructions == a.instructions
    assert second.instructions == b.instructions
    one, two = b.vert_split(1)
    assert one.instructions == b.instructions[:1] and two.instructions == b.instructions[1:]
    assert one.has_link("quantum") and not two.has_distributed()


def test_splits_invert_union_and_concat():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_unitary_circuit(rng, 2, 6, measured=True)
        b = random_unitary_circuit(rng, 3, 6, measured=True)
        first, second = tensor_union(a, b).hor_split(a.num_qubits - 1)
        assert first.instructions == a.instructions
        assert second.instructions == b.instructions
        assert (first.num_qubits, second.num_qubits) == (2, 3)
        assert (first.num_clbits, second.num_clbits) == (2, 3)

        c = random_unitary_circuit(rng, 2, 6)
        d = random_unitary_circuit(rng, 2, 6)
        one, two = concat(c, d).vert_split(len(c.instructions))
        assert one.instructions == c.instructions
        assert two.instructions == d.instructions


def test_hor_split_straddling_gate():
    c = Circuit(2, 0, id="c")
    c.cx(0, 1)
    with pytest.raises(StraddlingGate):
        c.hor_split(0)


def test_split_bounds():
    c = bell()
    with pytest.raises(IndexOutOfRange):
        c.hor_split(1)  # boundary must leave both sides non-empty
    with pytest.raises(IndexOutOfRange):
        c.vert_split(99)


def test_depth_examples():
    parallel = Circuit(2, 0, id="p")
    parallel.h(0).h(1)
    assert parallel.depth() == 1
    chained = Circuit(2, 0, id="c")
    chained.h(0).cx(0, 1).h(1)
    assert chained.depth() == 3
    assert len(chained) == 3


def test_depth_layered_oracle():
    def oracle_depth(circuit):
        # longest path over the shares-a-qubit dependency DAG
        n = len(circuit.instructions)
        qubit_sets = [set(ins.qubits) for ins in circuit.instructions]
        best = [1] * n
        for i in range(n):
            for j in range(i):
                if qubit_sets[i] & qubit_sets[j]:
                    best[i] = max(best[i], best[j] + 1)
        return max(best, default=0)

    rng = np.random.default_rng(13)
    for _ in range(30):
        c = random_unitary_circuit(rng, 3, int(rng.integers(1, 12)),
                                   measured=True)
        for _ in range(int(rng.integers(3))):  # an expose counts on its control only
            c.expose(int(rng.integers(3)), [("cz", [0])] * int(rng.integers(1, 4)), "peer")
        assert c.depth() == oracle_depth(c)


def test_depth_subadditive_under_concat():
    rng = np.random.default_rng(99)
    for _ in range(20):
        a = random_unitary_circuit(rng, 3, 5)
        b = random_unitary_circuit(rng, 3, 5)
        assert (a + b).depth() <= a.depth() + b.depth()


def test_contains():
    c = bell()
    assert c.contains("cx")
    assert "cx" in c
    assert "rz" not in c


# -- validation ----------------------------------------------------------------

def test_validate_ok_bell():
    assert validate(bell(), default_backend()) == []


def test_validate_width():
    wide = Circuit(33, 0, id="wide")
    wide.h(0)
    codes = [v.code for v in validate(wide, default_backend())]
    assert codes == ["WidthExceeded"]


@pytest.mark.parametrize("clbits", [63, 64])
def test_validate_clbits(clbits):
    """The engine packs a shot's clbits into int64 codes: 63 at most."""
    c = Circuit(1, clbits, id="c")
    c.measure(0, clbits - 1)
    codes = [v.code for v in validate(c, default_backend())]
    assert codes == ([] if clbits <= engine.MAX_CLBITS else ["WidthExceeded"])


def test_validate_malformed_remote():
    c = Circuit(1, 0, id="c")
    c.remote_c_if("x", [0], "peer")
    c.instructions[0].remote.gate_name = None  # force a malformed link
    codes = [v.code for v in validate(c, default_backend())]
    assert "MalformedRemote" in codes


def test_validate_dangling_clbit_and_range():
    c = bell()
    c.instructions[2].clbits = [5]
    c.instructions[1].qubits = [0, 7]
    codes = {v.code for v in validate(c, default_backend())}
    assert {"DanglingClbit", "QubitOutOfRange"} <= codes


def test_validate_basis_gates():
    limited = default_backend()
    limited.basis_gates = ["h", "cx"]
    c = Circuit(1, 0, id="c")
    c.t(0)
    codes = [v.code for v in validate(c, limited)]
    assert codes == ["UnsupportedGate"]


def test_validate_sequence_gaps():
    c = Circuit(1, 0, id="c")
    c.measure_and_send(0, "dst")
    c.instructions[0].remote.sequence = 3
    codes = [v.code for v in validate(c, default_backend())]
    assert "MalformedRemote" in codes
    # tags out of program order: a receiver's seq 1 would come before its seq 0
    c = Circuit(2, 0, id="c")
    c.measure_and_send(0, "dst").measure_and_send(1, "dst")
    c.instructions[0].remote.sequence, c.instructions[1].remote.sequence = 1, 0
    codes = [v.code for v in validate(c, default_backend())]
    assert "MalformedRemote" in codes
    # the executor pairs quantum links by tag, so their order is free
    c = Circuit(2, 0, id="c")
    c.qsend(0, "dst").qsend(1, "dst")
    c.instructions[0].remote.sequence, c.instructions[1].remote.sequence = 1, 0
    assert validate(c, default_backend()) == []


def test_validate_expose_bodies():
    """An expose needs a body of controlled gates with finite numbers for
    parameters and no remote, clbit or body of their own; no other
    instruction carries a body."""
    def codes(**changes):
        c = Circuit(2, 1, id="c")
        c.expose(0, [("crz", [0], [0.5])], "peer")
        gate = c.instructions[0].body[0]
        for key, value in changes.items():
            target, _, field = key.rpartition("_")
            setattr(gate if target == "gate" else c.instructions[0], field, value)
        return [v.code for v in validate(c, default_backend())]

    assert codes() == []
    assert codes(expose_body=[]) == codes(expose_body=None) == ["EmptyBody"]
    assert codes(gate_params=[Param("a")]) == ["NotSupported"]
    assert codes(gate_params=[float("nan")]) == ["SchemaViolation"]
    assert codes(gate_clbits=[0]) == codes(gate_body=[]) == ["MalformedRemote"]
    assert codes(gate_remote=RemoteLink("peer")) == ["MalformedRemote"]
    assert codes(gate_name="rz") == ["UnknownGate"]
    assert codes(gate_qubits=[0, 1]) == ["ArityMismatch"]
    c = bell()
    c.instructions[0].body = [Instruction("cx", [1])]
    assert [v.code for v in validate(c, default_backend())] == ["MalformedRemote"]


def test_validate_never_raises():
    c = Circuit(1, 0, id="c")
    c.instructions.append(
        bell().instructions[0].__class__("garbage", [9], [9], [1.0]))
    violations = validate(c, default_backend())
    assert violations  # total function: findings, not exceptions
