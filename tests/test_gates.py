import itertools

import numpy as np
import pytest

from dqcemu.backend import default_backend, validate
from dqcemu.circuit import Circuit, Instruction, Param, RemoteLink
from dqcemu.errors import ArityMismatch, EmulatorError, UnknownGate
from dqcemu.gates import GATES, arity_error, gate_matrix

RNG = np.random.default_rng(20240817)


@pytest.mark.parametrize("name", sorted(GATES))
def test_every_gate_is_unitary(name):
    n_params = GATES[name].params
    for _ in range(5):
        params = RNG.uniform(-3 * np.pi, 3 * np.pi, size=n_params)
        mat = gate_matrix(name, list(params))
        dim = mat.shape[0]
        assert np.allclose(mat @ mat.conj().T, np.eye(dim), atol=1e-12)


def test_rz_convention():
    lam = 1.7
    mat = gate_matrix("rz", [lam])
    assert np.allclose(np.diag(mat), [np.exp(-1j * lam / 2), np.exp(1j * lam / 2)])


def test_cp_convention():
    lam = 0.9
    mat = gate_matrix("cp", [lam])
    assert np.allclose(np.diag(mat), [1, 1, 1, np.exp(1j * lam)])
    assert np.allclose(mat, np.diag(np.diag(mat)))


def test_crz_acts_only_on_control_one():
    mat = gate_matrix("crz", [4.0])
    assert np.allclose(mat[:2, :2], np.eye(2))
    assert np.allclose(mat[2:, 2:], gate_matrix("rz", [4.0]))


def test_unknown_gate():
    with pytest.raises(UnknownGate):
        gate_matrix("toffoli")


def test_param_arity():
    with pytest.raises(ArityMismatch):
        gate_matrix("rz", [])
    with pytest.raises(ArityMismatch):
        gate_matrix("u", [0.1])


def test_qubit_arity_check():
    assert arity_error("cx", 1, 0)
    assert arity_error("cx", 2, 0) is None
    assert arity_error("u", 1, 3) is None
    assert arity_error("cx", 1, 0, body=True) is None


@pytest.mark.parametrize("name", sorted(GATES))
def test_gate_row_agrees_with_its_matrix(name):
    """Each row's kernel class is what its matrix is: the kernels trust the
    class, so a row whose matrix disagrees would apply the wrong gate."""
    gate = GATES[name]
    mat = gate_matrix(name, list(RNG.uniform(-3, 3, size=gate.params)))
    dim = 1 << gate.qubits
    assert mat.shape == (dim, dim)
    assert np.allclose(mat @ mat.conj().T, np.eye(dim), atol=1e-12)
    assert np.array_equal(mat, np.diag(np.diag(mat))) == (gate.kernel == "diagonal")
    if gate.kernel == "permutation":
        assert set(np.unique(mat)) <= {0, 1}
        assert (mat.sum(axis=0) == 1).all() and (mat.sum(axis=1) == 1).all()
    if gate.kernel == "dense":
        assert gate.qubits == 1
    if gate.control:  # block-diagonal (I2, M): the first qubit only controls
        assert gate.qubits == 2
        assert np.array_equal(mat[:2, :2], np.eye(2))
        assert not mat[:2, 2:].any() and not mat[2:, :2].any()
    assert (gate.target is not None) == (gate.kernel == "controlled")
    if gate.kernel == "controlled":
        assert gate.control and GATES[gate.target].qubits == 1
        assert np.array_equal(mat[2:, 2:], gate_matrix(gate.target))


def _builder_code(kind, name, qubits, params):
    """The error code the builder raises for one instruction, or None."""
    c = Circuit(3, 1, id="c")
    try:
        if kind == "append":
            c.append(name, qubits, params=params)
        elif kind == "remote_c_if":
            c.remote_c_if(name, qubits, "peer", params=params)
        else:
            c.expose(0, [(name, qubits, params)], "peer")
    except EmulatorError as exc:
        return type(exc).__name__
    return None


def _validate_codes(kind, name, qubits, params):
    """The violation codes validate finds for the same instruction, written
    without the builder."""
    c = Circuit(3, 1, id="c")
    if kind == "append":
        c.instructions = [Instruction(name, qubits, params=params)]
    elif kind == "remote_c_if":
        c.instructions = [Instruction("remote_c_if", qubits, params=params,
                                      remote=RemoteLink("peer", name))]
    else:
        c.instructions = [Instruction("expose", [0], remote=RemoteLink("peer"),
                                      body=[Instruction(name, qubits, params=params)])]
    return {v.code for v in validate(c, default_backend())}


# the malformed-arity cases of test_circuit.py, then every gate (and an
# unknown name) at every qubit count 0-3 and parameter count 0-3
ARITY_CASES = [
    ("append", "cx", [0], []), ("append", "rz", [0], []), ("append", "nope", [0], []),
    ("remote_c_if", "cx", [0], []), ("remote_c_if", "bogus", [0], []),
    ("expose", "rz", [0], [1.0]), ("expose", "crz", [0, 1], [1.0]),
] + [(kind, name, [0, 1, 2][:nq], [0.5] * npar)
     for kind, name, nq, npar in itertools.product(
         ("append", "remote_c_if", "expose"), sorted(GATES) + ["nope"], range(4), range(4))]


def test_builder_and_validate_reject_the_same_instructions():
    for case in ARITY_CASES:
        code = _builder_code(*case)
        assert code in (None, "ArityMismatch", "UnknownGate"), case
        assert _validate_codes(*case) == ({code} if code else set()), case


@pytest.mark.parametrize("gate", ["crz", "cp"])
def test_builder_and_validate_refuse_a_slot_in_an_expose_body(gate):
    """The executor binds no parameter slot, so an expose body takes
    numbers only: the builder raises NotSupported, and validate finds it
    in a body written without the builder."""
    assert _builder_code("expose", gate, [0], [Param("a")]) == "NotSupported"
    assert _validate_codes("expose", gate, [0], [Param("a")]) == {"NotSupported"}
