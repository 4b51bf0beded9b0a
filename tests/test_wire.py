import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqcemu.backend import backend_from_obj, backend_to_obj, default_backend
from dqcemu.circuit import Circuit, Param
from dqcemu.errors import SchemaViolation
from dqcemu.wire import circuit_from_obj, circuit_to_obj, from_wire, to_wire

from oracles import random_unitary_circuit

# produced by the implementation once and frozen
GOLDEN_BELL = (
    '{"id":"bell","num_qubits":2,"num_clbits":2,"instructions":['
    '{"name":"h","qubits":[0],"clbits":[],"params":[]},'
    '{"name":"cx","qubits":[0,1],"clbits":[],"params":[]},'
    '{"name":"measure","qubits":[0],"clbits":[0],"params":[]},'
    '{"name":"measure","qubits":[1],"clbits":[1],"params":[]}]}'
)


def bell() -> Circuit:
    c = Circuit(2, 2, id="bell")
    c.h(0).cx(0, 1).measure(0, 0).measure(1, 1)
    return c


def distributed_sample() -> Circuit:
    c = Circuit(2, 1, id="dist")
    c.h(0)
    c.measure_and_send(0, "peer")
    c.remote_c_if("rz", [1], "other", params=[-0.5])
    c.qsend(1, "peer")
    c.expose(0, [("crz", [3], [1.5])], "other")
    c.rz(Param("theta"), 0)
    c.measure(0, 0)
    return c


def test_golden_bell_fixture():
    assert to_wire(bell()).decode() == GOLDEN_BELL
    assert from_wire(GOLDEN_BELL) == bell()


def test_round_trip_seeded_random_circuits():
    rng = np.random.default_rng(424242)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        c = random_unitary_circuit(rng, n, int(rng.integers(0, 10)),
                                   measured=bool(rng.integers(2)))
        assert from_wire(to_wire(c)) == c


def test_round_trip_distributed_and_params():
    c = distributed_sample()
    back = from_wire(to_wire(c))
    assert back == c
    assert back.param_slots() == ["theta"]
    # sequence counters are rebuilt from the payload
    back.measure_and_send(0, "peer")
    assert back.instructions[-1].remote.sequence == 1


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    c = random_unitary_circuit(rng, int(rng.integers(1, 4)),
                               int(rng.integers(0, 8)), measured=True)
    assert from_wire(to_wire(c)) == c


def test_missing_field_paths():
    obj = circuit_to_obj(bell())
    del obj["num_qubits"]
    with pytest.raises(SchemaViolation) as err:
        circuit_from_obj(obj)
    assert err.value.path == "num_qubits"


def test_unknown_field_rejected():
    obj = circuit_to_obj(bell())
    obj["noise"] = {}
    with pytest.raises(SchemaViolation) as err:
        circuit_from_obj(obj)
    assert err.value.path == "noise"


def test_nested_field_paths():
    obj = circuit_to_obj(distributed_sample())
    del obj["instructions"][1]["remote"]["seq"]
    with pytest.raises(SchemaViolation) as err:
        circuit_from_obj(obj)
    assert err.value.path == "instructions[1].remote.seq"

    obj = circuit_to_obj(bell())
    obj["instructions"][0]["qubits"] = ["zero"]
    with pytest.raises(SchemaViolation) as err:
        circuit_from_obj(obj)
    assert err.value.path == "instructions[0].qubits"


def test_bool_is_not_an_int():
    obj = circuit_to_obj(bell())
    obj["num_qubits"] = True
    with pytest.raises(SchemaViolation):
        circuit_from_obj(obj)


def test_bad_role_rejected():
    obj = circuit_to_obj(distributed_sample())
    obj["instructions"][1]["remote"]["role"] = "observer"
    with pytest.raises(SchemaViolation) as err:
        circuit_from_obj(obj)
    assert err.value.path.endswith("remote.role")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
def test_non_finite_params_rejected(token):
    """JSON's NaN and +-Infinity tokens, and an integer past a float's
    range, are no parameter values."""
    c = Circuit(1, 1, id="nan")
    c.rx(0.5, 0).measure(0, 0)
    data = to_wire(c).replace(b"[0.5]", b"[" + token.encode() + b"]")
    with pytest.raises(SchemaViolation) as err:
        from_wire(data)
    assert err.value.path == "instructions[0].params[0]"


def test_invalid_json():
    with pytest.raises(SchemaViolation):
        from_wire(b"{not json")


def test_backend_round_trip_and_schema():
    spec = default_backend()
    spec.coupling_map = [[0, 1], [1, 2]]
    assert backend_from_obj(backend_to_obj(spec)) == spec

    obj = backend_to_obj(spec)
    obj["extra"] = 1
    with pytest.raises(SchemaViolation):
        backend_from_obj(obj)

    obj = backend_to_obj(spec)
    obj["basis_gates"] = ["h", "warp"]
    with pytest.raises(SchemaViolation):
        backend_from_obj(obj)

    obj = backend_to_obj(spec)
    obj["coupling_map"] = [[0, 1, 2]]
    with pytest.raises(SchemaViolation):
        backend_from_obj(obj)


def test_floats_survive_json_exactly():
    c = Circuit(1, 0, id="f")
    c.rz(np.pi, 0).rz(1 / 3, 0).rz(-2.5e-17, 0)
    back = from_wire(to_wire(c))
    assert [i.params for i in back.instructions] == [i.params
                                                     for i in c.instructions]
    payload = json.loads(to_wire(c))
    assert payload["instructions"][0]["params"][0] == np.pi
