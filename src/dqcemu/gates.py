"""The instruction set: one row per gate (`GATES`) and one per distributed
instruction (`LINKS`, its communication model). Each distributed
instruction is one instruction; an `expose` carries its body gates. The
circuit builder, the validator, the kernels and the executor all read
these two tables, so a new gate is one row.

Two-qubit matrices are written in the (q0, q1) sub-basis with q0 the most
significant local bit, i.e. rows/columns ordered |q0 q1> = 00, 01, 10, 11.
For controlled gates q0 is the control.

Conventions that matter downstream:
  rz(lam) = diag(e^{-i lam/2}, e^{+i lam/2})
  cp(lam) = diag(1, 1, 1, e^{i lam})
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ArityMismatch, UnknownGate

_SQ2 = 1.0 / math.sqrt(2.0)


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(lam: float) -> tuple:
    return cmath.exp(-1j * lam / 2), cmath.exp(1j * lam / 2)


def _u(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [[c, -cmath.exp(1j * lam) * s],
         [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c]],
        dtype=complex)


def _crz(lam: float) -> tuple:
    return (1, 1) + _rz(lam)


def _cp(lam: float) -> tuple:
    return 1, 1, 1, cmath.exp(1j * lam)


def _m(*rows) -> np.ndarray:
    return np.array(rows, dtype=complex)


@dataclass(frozen=True)
class Gate:
    """One gate. `kernel` is how the statevector applies it:
      diagonal    - multiply the state by a phase table, once for each run of
                    consecutive diagonal gates (statevector.compile_gates)
      permutation - exchange the two slices the matrix swaps
      controlled  - apply `target`'s kernel where the first qubit is 1
      dense       - mix a qubit's two slices (one-qubit gates only); on the
                    low qubits, in one sweep over transposed copies of rows
                    with the gates beside it on those qubits
    `matrix` is the matrix itself for a gate without parameters, else the
    function of the parameters that builds it; a diagonal gate's is its
    diagonal, the entries the kernels read (`gate_matrix` makes the
    matrix). A `control` gate's first
    qubit is a control, so it may sit in an expose body, where the
    communication qubit supplies that control."""
    qubits: int
    params: int
    kernel: str
    matrix: np.ndarray | tuple | Callable[..., np.ndarray | tuple]
    control: bool = False
    target: str | None = None


GATES: dict[str, Gate] = {
    "id": Gate(1, 0, "diagonal", (1, 1)),
    "x": Gate(1, 0, "permutation", _m([0, 1], [1, 0])),
    "y": Gate(1, 0, "dense", _m([0, -1j], [1j, 0])),
    "z": Gate(1, 0, "diagonal", (1, -1)),
    "h": Gate(1, 0, "dense", _m([_SQ2, _SQ2], [_SQ2, -_SQ2])),
    "s": Gate(1, 0, "diagonal", (1, 1j)),
    "sdg": Gate(1, 0, "diagonal", (1, -1j)),
    "t": Gate(1, 0, "diagonal", (1, cmath.exp(1j * math.pi / 4))),
    "tdg": Gate(1, 0, "diagonal", (1, cmath.exp(-1j * math.pi / 4))),
    "rx": Gate(1, 1, "dense", _rx),
    "ry": Gate(1, 1, "dense", _ry),
    "rz": Gate(1, 1, "diagonal", _rz),
    "u": Gate(1, 3, "dense", _u),
    "cx": Gate(2, 0, "controlled", _m([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]),
               control=True, target="x"),
    "cy": Gate(2, 0, "controlled", _m([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]),
               control=True, target="y"),
    "cz": Gate(2, 0, "diagonal", (1, 1, 1, -1), control=True),
    "crz": Gate(2, 1, "diagonal", _crz, control=True),
    "cp": Gate(2, 1, "diagonal", _cp, control=True),
    "swap": Gate(2, 0, "permutation", _m([1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1])),
}


# each distributed instruction (resolved by channels or the executor) and
# the communication model it needs; sequence tags count up per (peer, name)
LINKS: dict[str, str] = {
    "measure_and_send": "classical",
    "remote_c_if": "classical",
    "qsend": "quantum",
    "qrecv": "quantum",
    "expose": "quantum",
}


def arity_error(name: str, num_qubits: int, num_params: int,
                body: bool = False) -> str | None:
    """Why `num_qubits` qubits and `num_params` parameters do not fit the
    gate `name`, or None when they do. In an expose `body` the gate names
    one qubit fewer: the communication qubit supplies its control."""
    gate = GATES[name]
    qubits = gate.qubits - body
    if num_qubits == qubits and num_params == gate.params:
        return None
    return (f"{'expose body ' * body}{name} takes {qubits} qubit(s) and "
            f"{gate.params} parameter(s), got {num_qubits} and {num_params}")


def gate_matrix(name: str, params=()) -> np.ndarray:
    """Unitary matrix for a supported gate, given its parameters."""
    gate = GATES.get(name)
    if gate is None:
        raise UnknownGate(f"unknown gate {name!r}")
    if len(params) != gate.params:
        raise ArityMismatch(arity_error(name, gate.qubits, len(params)))
    mat = gate.matrix(*params) if gate.params else gate.matrix
    return np.diag(np.array(mat, dtype=complex)) if gate.kernel == "diagonal" else mat
