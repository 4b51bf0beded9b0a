import copy
import json
import math

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
    """A link's role is no field: the instruction's name says it."""
    obj = circuit_to_obj(distributed_sample())
    obj["instructions"][1]["remote"]["role"] = "sender"
    with pytest.raises(SchemaViolation) as err:
        circuit_from_obj(obj)
    assert err.value.path.endswith("remote.role")
    assert str(err.value).endswith("unknown field")


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

# -- every path and message a bad frame is refused with -------------------------

BAD_FRAME_BASE = {"id": "dist", "num_qubits": 2, "num_clbits": 1, "instructions": [
    {"name": "h", "qubits": [0], "clbits": [], "params": []},
    {"name": "measure_and_send", "qubits": [0], "clbits": [], "params": [],
     "remote": {"peer": "peer", "seq": 0}},
    {"name": "remote_c_if", "qubits": [1], "clbits": [], "params": [-0.5],
     "remote": {"peer": "other", "gate": "rz", "seq": 0}},
    {"name": "rz", "qubits": [0], "clbits": [], "params": [{"param": "theta"}]},
    {"name": "measure", "qubits": [0], "clbits": [0], "params": []},
    {"name": "expose", "qubits": [1], "clbits": [], "params": [],
     "remote": {"peer": "peer", "seq": 0},
     "body": [{"name": "crz", "qubits": [0], "clbits": [], "params": [0.5]}]}]}


def put(path, value):
    """A mutation of a frame: the field at `path` set to `value`."""
    def f(obj):
        *head, last = path
        for k in head:
            obj = obj[k]
        obj[last] = value
    return f


def drop(path):
    """A mutation of a frame: the field at `path` removed."""
    def f(obj):
        *head, last = path
        for k in head:
            obj = obj[k]
        del obj[last]
    return f


I = "instructions"
# (case, mutation of BAD_FRAME_BASE; None: a frame that is no object)
BAD_FRAMES = [
    ("root-list", None),
    ("root-unknown", put(["noise"], {})),
    *[(f"root-missing-{k}", drop([k])) for k in ("id", "num_qubits", "num_clbits", "instructions")],
    ("id-empty", put(["id"], "")), ("id-int", put(["id"], 5)),
    ("nq-zero", put(["num_qubits"], 0)), ("nq-bool", put(["num_qubits"], True)),
    ("nq-str", put(["num_qubits"], "2")), ("nc-neg", put(["num_clbits"], -1)),
    ("ins-dict", put([I], {})),
    ("ins-int", put([I, 0], 5)),
    ("ins-unknown", put([I, 4, "cond"], 1)),
    *[(f"ins-missing-{k}", drop([I, 3, k])) for k in ("name", "qubits", "clbits", "params")],
    ("name-empty", put([I, 0, "name"], "")), ("name-int", put([I, 0, "name"], 3)),
    ("qubits-str", put([I, 0, "qubits"], ["zero"])), ("qubits-int", put([I, 0, "qubits"], 5)),
    ("qubits-bool", put([I, 4, "qubits"], [True])), ("clbits-float", put([I, 4, "clbits"], [1.5])),
    ("params-str", put([I, 2, "params"], "x")),
    ("param-nan", put([I, 2, "params", 0], math.nan)), ("param-inf", put([I, 2, "params", 0], -math.inf)),
    ("param-huge", put([I, 2, "params", 0], 10 ** 400)), ("param-str", put([I, 2, "params", 0], "a")),
    ("param-bool", put([I, 2, "params", 0], True)), ("param-none", put([I, 2, "params", 0], None)),
    ("slot-empty", put([I, 3, "params", 0], {"param": ""})), ("slot-int", put([I, 3, "params", 0], {"param": 3})),
    ("slot-unknown", put([I, 3, "params", 0], {"x": "a"})),
    ("slot-extra", put([I, 3, "params", 0], {"param": "a", "y": 1})),
    ("slot-missing", put([I, 3, "params", 0], {})),
    ("remote-list", put([I, 1, "remote"], [])),
    ("remote-unknown", put([I, 1, "remote", "tag"], 1)),
    *[(f"remote-missing-{k}", drop([I, 2, "remote", k])) for k in ("peer", "seq")],
    ("peer-empty", put([I, 1, "remote", "peer"], "")), ("peer-int", put([I, 1, "remote", "peer"], 4)),
    ("seq-neg", put([I, 1, "remote", "seq"], -1)), ("seq-bool", put([I, 1, "remote", "seq"], True)),
    ("seq-float", put([I, 1, "remote", "seq"], 1.0)),
    ("gate-int", put([I, 2, "remote", "gate"], 5)),
    ("body-int", put([I, 5, "body"], 5)), ("body-null", put([I, 5, "body"], None)),
    ("body-in-body", put([I, 5, "body", 0, "body"], [])),
    *[(f"body-missing-{k}", drop([I, 5, "body", 0, k])) for k in ("name", "qubits", "clbits", "params")],
    ("body-param-nan", put([I, 5, "body", 0, "params", 0], math.nan)),
]

# the message of each bad frame, as the decoder gave it when every path was
# formatted before its check
BAD_FRAME_MESSAGES = dict([
    ("root-list", '<root>: expected an object'),
    ("root-unknown", 'noise: unknown field'),
    ("root-missing-id", 'id: missing'),
    ("root-missing-num_qubits", 'num_qubits: missing'),
    ("root-missing-num_clbits", 'num_clbits: missing'),
    ("root-missing-instructions", 'instructions: missing'),
    ("id-empty", 'id: expected a non-empty string'),
    ("id-int", 'id: expected a non-empty string'),
    ("nq-zero", 'num_qubits: expected an integer >= 1'),
    ("nq-bool", 'num_qubits: expected an integer >= 1'),
    ("nq-str", 'num_qubits: expected an integer >= 1'),
    ("nc-neg", 'num_clbits: expected an integer >= 0'),
    ("ins-dict", 'instructions: expected a list'),
    ("ins-int", 'instructions[0]: expected an object'),
    ("ins-unknown", 'instructions[4].cond: unknown field'),
    ("ins-missing-name", 'instructions[3].name: missing'),
    ("ins-missing-qubits", 'instructions[3].qubits: missing'),
    ("ins-missing-clbits", 'instructions[3].clbits: missing'),
    ("ins-missing-params", 'instructions[3].params: missing'),
    ("name-empty", 'instructions[0].name: expected a non-empty string'),
    ("name-int", 'instructions[0].name: expected a non-empty string'),
    ("qubits-str", 'instructions[0].qubits: expected a list of integers'),
    ("qubits-int", 'instructions[0].qubits: expected a list of integers'),
    ("qubits-bool", 'instructions[4].qubits: expected a list of integers'),
    ("clbits-float", 'instructions[4].clbits: expected a list of integers'),
    ("params-str", 'instructions[2].params: expected a list'),
    ("param-nan", "instructions[2].params[0]: expected a finite number or a {'param': name} slot"),
    ("param-inf", "instructions[2].params[0]: expected a finite number or a {'param': name} slot"),
    ("param-huge", "instructions[2].params[0]: expected a finite number or a {'param': name} slot"),
    ("param-str", "instructions[2].params[0]: expected a finite number or a {'param': name} slot"),
    ("param-bool", "instructions[2].params[0]: expected a finite number or a {'param': name} slot"),
    ("param-none", "instructions[2].params[0]: expected a finite number or a {'param': name} slot"),
    ("slot-empty", 'instructions[3].params[0].param: expected a non-empty string'),
    ("slot-int", 'instructions[3].params[0].param: expected a non-empty string'),
    ("slot-unknown", 'instructions[3].params[0].x: unknown field'),
    ("slot-extra", 'instructions[3].params[0].y: unknown field'),
    ("slot-missing", 'instructions[3].params[0].param: missing'),
    ("remote-list", 'instructions[1].remote: expected an object'),
    ("remote-unknown", 'instructions[1].remote.tag: unknown field'),
    ("remote-missing-peer", 'instructions[2].remote.peer: missing'),
    ("remote-missing-seq", 'instructions[2].remote.seq: missing'),
    ("peer-empty", 'instructions[1].remote.peer: expected a non-empty string'),
    ("peer-int", 'instructions[1].remote.peer: expected a non-empty string'),
    ("seq-neg", 'instructions[1].remote.seq: expected an integer >= 0'),
    ("seq-bool", 'instructions[1].remote.seq: expected an integer >= 0'),
    ("seq-float", 'instructions[1].remote.seq: expected an integer >= 0'),
    ("gate-int", 'instructions[2].remote.gate: expected a string'),
    ("body-int", 'instructions[5].body: expected a list'),
    ("body-null", 'instructions[5].body: expected a list'),
    ("body-in-body", 'instructions[5].body[0].body: unknown field'),
    ("body-missing-name", 'instructions[5].body[0].name: missing'),
    ("body-missing-qubits", 'instructions[5].body[0].qubits: missing'),
    ("body-missing-clbits", 'instructions[5].body[0].clbits: missing'),
    ("body-missing-params", 'instructions[5].body[0].params: missing'),
    ("body-param-nan", "instructions[5].body[0].params[0]: expected a finite number or a {'param': name} slot"),
])


@pytest.mark.parametrize("name, mutate", BAD_FRAMES, ids=[name for name, _ in BAD_FRAMES])
def test_bad_frames_keep_their_paths_and_messages(name, mutate):
    obj = []
    if mutate is not None:
        obj = copy.deepcopy(BAD_FRAME_BASE)
        mutate(obj)
    with pytest.raises(SchemaViolation) as err:
        circuit_from_obj(obj)
    assert str(err.value) == BAD_FRAME_MESSAGES[name]
    assert str(err.value).startswith(err.value.path + ": ")


def test_the_bad_frame_base_decodes():
    circuit = circuit_from_obj(copy.deepcopy(BAD_FRAME_BASE))
    assert circuit.param_slots() == ["theta"]
    assert circuit_to_obj(circuit) == BAD_FRAME_BASE
