"""Backend capability descriptions and total circuit validation.

A backend declares what a vQPU advertises (qubit count, basis gates); the
engine's own width cap is enforced separately at execution time, so a
backend may advertise more qubits than the engine will actually simulate.
The engine's clbit cap holds whatever the backend, so validation reports it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .circuit import Circuit, Param
from .engine import MAX_CLBITS
from .errors import BackendFileInvalid, SchemaViolation
from .gates import GATES, LINKS, arity_error
from .wire import _check_fields, _is_int, _is_number

DEFAULT_BACKEND_QUBITS = 32


@dataclass
class BackendSpec:
    name: str
    n_qubits: int
    basis_gates: list[str]
    coupling_map: list[list[int]] | None = None
    version: str = "1"


def default_backend() -> BackendSpec:
    """Noiseless 32-qubit backend supporting the full engine gate set."""
    return BackendSpec(name="default", n_qubits=DEFAULT_BACKEND_QUBITS,
                       basis_gates=sorted(GATES), version="1")


def backend_to_obj(spec: BackendSpec) -> dict:
    obj = {"name": spec.name, "n_qubits": spec.n_qubits,
           "basis_gates": list(spec.basis_gates), "version": spec.version}
    if spec.coupling_map is not None:
        obj["coupling_map"] = [list(pair) for pair in spec.coupling_map]
    return obj


def backend_from_obj(obj) -> BackendSpec:
    _check_fields(obj, (), required=("name", "n_qubits", "basis_gates", "version"),
                  optional=("coupling_map",))
    if not isinstance(obj["name"], str) or not obj["name"]:
        raise SchemaViolation("name", "expected a non-empty string")
    if not _is_int(obj["n_qubits"]) or obj["n_qubits"] < 1:
        raise SchemaViolation("n_qubits", "expected an integer >= 1")
    gates = obj["basis_gates"]
    if not isinstance(gates, list) or not all(isinstance(g, str) for g in gates):
        raise SchemaViolation("basis_gates", "expected a list of gate names")
    unknown = [g for g in gates if g not in GATES]
    if unknown:
        raise SchemaViolation("basis_gates", f"not engine-supported: {unknown}")
    if not isinstance(obj["version"], str):
        raise SchemaViolation("version", "expected a string")
    coupling = obj.get("coupling_map")
    if coupling is not None:
        if (not isinstance(coupling, list)
                or not all(isinstance(p, list) and len(p) == 2
                           and all(_is_int(x) for x in p) for p in coupling)):
            raise SchemaViolation("coupling_map", "expected a list of index pairs")
        coupling = [list(p) for p in coupling]
    return BackendSpec(obj["name"], obj["n_qubits"], list(gates), coupling,
                       obj["version"])


def load_backend(path: str) -> BackendSpec:
    """Read a backend JSON file; empty path means the default backend."""
    if not path:
        return default_backend()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        return backend_from_obj(obj)
    except (OSError, json.JSONDecodeError, SchemaViolation) as exc:
        raise BackendFileInvalid(f"{path}: {exc}") from exc


@dataclass
class Violation:
    """One validation finding; violations are data, never raised."""
    code: str
    message: str
    index: int | None = None

    def __str__(self) -> str:
        where = f" @{self.index}" if self.index is not None else ""
        return f"{self.code}{where}: {self.message}"


def _check_remote(ins, idx, circuit_id, out):
    link = ins.remote
    if link is None:
        out.append(Violation("MalformedRemote", f"{ins.name} needs a remote link", idx))
        return
    if not link.peer_circuit_id:
        out.append(Violation("MalformedRemote", "empty peer id", idx))
    elif link.peer_circuit_id == circuit_id:
        out.append(Violation("MalformedRemote", "circuit linked to itself", idx))
    if link.sequence < 0:
        out.append(Violation("MalformedRemote", "negative sequence tag", idx))
    if ins.name == "remote_c_if":
        if link.gate_name is None:
            out.append(Violation("MalformedRemote", "remote_c_if missing gate name", idx))
        elif link.gate_name not in GATES:
            out.append(Violation("UnknownGate",
                                 f"remote gate {link.gate_name!r}", idx))
        elif error := arity_error(link.gate_name, len(ins.qubits), len(ins.params)):
            out.append(Violation("ArityMismatch", error, idx))
    elif link.gate_name is not None:
        out.append(Violation("MalformedRemote",
                             f"{ins.name} does not take a gate name", idx))


def _check_body(ins, idx, out):
    """An expose's body: one or more controlled gates, each naming its
    target qubit only (peer-relative), with finite-number parameters and no
    remote, clbit or body. No other instruction carries a body."""
    if ins.name != "expose":
        if ins.body is not None:
            out.append(Violation("MalformedRemote", f"{ins.name} cannot carry a body", idx))
        return
    if not ins.body:
        out.append(Violation("EmptyBody", "expose needs at least one body gate", idx))
    for gate in ins.body or ():
        name = gate.name
        if gate.remote is not None or gate.clbits or gate.body is not None:
            out.append(Violation("MalformedRemote", f"expose body gate {name!r} "
                                 "cannot carry a remote link, clbits or a body", idx))
        if name not in GATES or not GATES[name].control:
            out.append(Violation("UnknownGate", f"invalid expose body gate {name!r}", idx))
        elif error := arity_error(name, len(gate.qubits), len(gate.params), body=True):
            out.append(Violation("ArityMismatch", error, idx))
        for p in gate.params:
            if isinstance(p, Param):
                out.append(Violation("NotSupported", f"parameter slot {p.name!r} in an "
                                     "expose body: the executor binds no slot", idx))
            elif not _is_number(p):
                out.append(Violation("SchemaViolation", f"parameter {p!r} of expose "
                                     f"body gate {name} is not a finite number", idx))


def validate(circuit: Circuit, backend: BackendSpec) -> list[Violation]:
    """Every violation of the backend contract and structural invariants.

    Total: never raises; an empty list means the circuit is acceptable.
    """
    out: list[Violation] = []
    if circuit.num_qubits > backend.n_qubits:
        out.append(Violation(
            "WidthExceeded",
            f"{circuit.num_qubits} qubits exceed backend's {backend.n_qubits}"))
    if circuit.num_clbits > MAX_CLBITS:
        out.append(Violation(
            "WidthExceeded", f"{circuit.num_clbits} clbits exceed the engine's {MAX_CLBITS}"))
    basis = set(backend.basis_gates)
    seq_tags: dict[tuple[str, str], list[int]] = {}

    for idx, ins in enumerate(circuit.instructions):
        name = ins.name
        for p in ins.params:
            if not (_is_number(p) or isinstance(p, Param)):
                out.append(Violation("SchemaViolation",
                                     f"parameter {p!r} of {name} is not a finite number", idx))
        _check_body(ins, idx, out)
        if name in LINKS:
            _check_remote(ins, idx, circuit.id, out)
            if ins.remote is not None:
                key = (ins.remote.peer_circuit_id, name)
                seq_tags.setdefault(key, []).append(ins.remote.sequence)
        elif ins.remote is not None:
            out.append(Violation("MalformedRemote",
                                 f"{name} cannot carry a remote link", idx))
        for q in ins.qubits:
            if not 0 <= q < circuit.num_qubits:
                out.append(Violation("QubitOutOfRange", f"qubit {q} in {name}", idx))
        if name in LINKS:
            continue
        if len(ins.qubits) > 1 and len(set(ins.qubits)) != len(ins.qubits):
            out.append(Violation("QubitOutOfRange",
                                 f"duplicate qubits in {name}", idx))
        for c in ins.clbits:
            if not 0 <= c < circuit.num_clbits:
                out.append(Violation("DanglingClbit", f"clbit {c} in {name}", idx))

        if name == "measure":
            if len(ins.qubits) != len(ins.clbits):
                out.append(Violation("ArityMismatch",
                                     "measure maps each qubit to one clbit", idx))
        elif name == "reset":
            pass
        elif name in GATES:
            if name not in basis:
                out.append(Violation("UnsupportedGate",
                                     f"{name} not in backend basis", idx))
            gate = GATES[name]
            if len(ins.qubits) != gate.qubits or len(ins.params) != gate.params:
                out.append(Violation("ArityMismatch", arity_error(
                    name, len(ins.qubits), len(ins.params)), idx))
            if len(ins.clbits) > 1:
                out.append(Violation("MalformedCondition",
                                     "conditional gate takes a single clbit", idx))
        else:
            out.append(Violation("UnknownGate", f"{name!r}", idx))

    for (peer, name), tags in seq_tags.items():
        if LINKS[name] == "quantum":  # the executor pairs these by tag
            tags = sorted(tags)
        if tags != list(range(len(tags))):  # a channel takes bits in tag order
            out.append(Violation(
                "MalformedRemote",
                f"sequence tags to {peer!r} ({name}) not 0, 1, ... in order: {tags}"))
    return out
