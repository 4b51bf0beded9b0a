"""Supported gate set: names, arities and unitary matrices.

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

import numpy as np

from .errors import ArityMismatch, UnknownGate

#: gate name -> (number of qubits, number of parameters)
GATE_ARITY: dict[str, tuple[int, int]] = {
    "id": (1, 0),
    "x": (1, 0),
    "y": (1, 0),
    "z": (1, 0),
    "h": (1, 0),
    "s": (1, 0),
    "sdg": (1, 0),
    "t": (1, 0),
    "tdg": (1, 0),
    "rx": (1, 1),
    "ry": (1, 1),
    "rz": (1, 1),
    "u": (1, 3),
    "cx": (2, 0),
    "cy": (2, 0),
    "cz": (2, 0),
    "crz": (2, 1),
    "cp": (2, 1),
    "swap": (2, 0),
}

#: gate name -> kernel class, i.e. how the statevector applies the gate:
#:   diagonal    - multiply the state by a phase table, once for each run of
#:                 consecutive diagonal gates (statevector.compile_gates)
#:   permutation - exchange the two slices the matrix swaps
#:   controlled  - apply CONTROLLED_TARGET's gate where the first qubit is 1
#:   dense       - mix a qubit's two slices (one-qubit gates only); on the
#:                 low qubits of a wide state, on a transposed copy of rows
KERNEL_CLASS: dict[str, str] = {
    **dict.fromkeys(("id", "z", "s", "sdg", "t", "tdg", "rz", "cz", "crz", "cp"),
                    "diagonal"),
    **dict.fromkeys(("x", "swap"), "permutation"),
    **dict.fromkeys(("cx", "cy"), "controlled"),
    **dict.fromkeys(("h", "rx", "ry", "y", "u"), "dense"),
}

#: one-qubit gate a controlled gate applies to its second qubit
CONTROLLED_TARGET: dict[str, str] = {"cx": "x", "cy": "y"}

#: distributed instruction names (resolved by channels or the executor)
DISTRIBUTED = ("measure_and_send", "remote_c_if", "qsend", "qrecv",
               "expose_begin", "expose_end")

_SQ2 = 1.0 / math.sqrt(2.0)

_FIXED = {
    "id": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex),
    "cx": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                   dtype=complex),
    "cy": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]],
                   dtype=complex),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                     dtype=complex),
}


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(lam: float) -> np.ndarray:
    return np.array([[cmath.exp(-1j * lam / 2), 0],
                     [0, cmath.exp(1j * lam / 2)]], dtype=complex)


def _u(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [[c, -cmath.exp(1j * lam) * s],
         [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c]],
        dtype=complex)


def _crz(lam: float) -> np.ndarray:
    m = np.eye(4, dtype=complex)
    m[2, 2] = cmath.exp(-1j * lam / 2)
    m[3, 3] = cmath.exp(1j * lam / 2)
    return m


def _cp(lam: float) -> np.ndarray:
    m = np.eye(4, dtype=complex)
    m[3, 3] = cmath.exp(1j * lam)
    return m


_PARAMETRIC = {"rx": _rx, "ry": _ry, "rz": _rz, "u": _u, "crz": _crz, "cp": _cp}


def check_arity(name: str, num_qubits: int, num_params: int) -> None:
    """Raise unless (num_qubits, num_params) matches the gate's arity."""
    if name not in GATE_ARITY:
        raise UnknownGate(f"unknown gate {name!r}")
    want_q, want_p = GATE_ARITY[name]
    if num_qubits != want_q or num_params != want_p:
        raise ArityMismatch(
            f"{name} takes {want_q} qubit(s) and {want_p} parameter(s), "
            f"got {num_qubits} and {num_params}")


def gate_matrix(name: str, params=()) -> np.ndarray:
    """Unitary matrix for a supported gate, given its parameters."""
    if name not in GATE_ARITY:
        raise UnknownGate(f"unknown gate {name!r}")
    check_arity(name, GATE_ARITY[name][0], len(params))
    if name in _FIXED:
        return _FIXED[name]
    return _PARAMETRIC[name](*params)
