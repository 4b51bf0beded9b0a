"""Circuit wire format: UTF-8 JSON with a fixed schema, unknown fields rejected.

    {"id": str, "num_qubits": int, "num_clbits": int,
     "instructions": [{"name": str, "qubits": [int], "clbits": [int],
                       "params": [float | {"param": str}],
                       "remote": {"peer": str, "gate": str?, "seq": int}?,
                       "body": [instruction without "body"]?}]}

Every distributed instruction is one entry; an `expose` carries its body
gates, on the peer's qubits, in `body`.
"""

from __future__ import annotations

import json
import math
from numbers import Real

from .circuit import Circuit, Instruction, Param, RemoteLink
from .errors import SchemaViolation


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A real number that is a finite float: JSON carries NaN, +-Infinity
    and integers past a float's range too."""
    if type(x) is float:
        return math.isfinite(x)
    try:
        return isinstance(x, Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


def _path(at: tuple) -> str:
    """A field path from its parts, made only for an error: names joined
    by dots, list indices in brackets, "<root>" for none."""
    path = ""
    for part in at:
        path += f"[{part}]" if isinstance(part, int) else f".{part}" if path else part
    return path or "<root>"


def _check_fields(obj, at: tuple, required: tuple, optional: tuple = ()) -> None:
    if not isinstance(obj, dict):
        raise SchemaViolation(_path(at), "expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaViolation(_path(at + (key,)), "unknown field")
    for key in required:
        if key not in obj:
            raise SchemaViolation(_path(at + (key,)), "missing")


def _int_list(value, at: tuple, field: str) -> list[int]:
    if isinstance(value, list):
        for x in value:  # a loop, not all(...): a generator costs 3x as much
            if not (type(x) is int or _is_int(x)):
                break
        else:
            return list(value)
    raise SchemaViolation(_path(at + (field,)), "expected a list of integers")


def _param_to_obj(p):
    if isinstance(p, Param):
        return {"param": p.name}
    return float(p)



def _param_from_obj(p, obj_at: tuple, i: int):
    if _is_number(p):
        return float(p)
    at = obj_at + ("params", i)
    if isinstance(p, dict):
        _check_fields(p, at, required=("param",))
        if not isinstance(p["param"], str) or not p["param"]:
            raise SchemaViolation(_path(at + ("param",)), "expected a non-empty string")
        return Param(p["param"])
    raise SchemaViolation(_path(at), "expected a finite number or a {'param': name} slot")


def _remote_to_obj(link: RemoteLink) -> dict:
    obj = {"peer": link.peer_circuit_id, "seq": link.sequence}
    if link.gate_name is not None:
        obj["gate"] = link.gate_name
    return obj



def _remote_from_obj(obj, at: tuple) -> RemoteLink:
    _check_fields(obj, at, required=("peer", "seq"), optional=("gate",))
    if not isinstance(obj["peer"], str) or not obj["peer"]:
        raise SchemaViolation(_path(at + ("peer",)), "expected a non-empty string")
    if not _is_int(obj["seq"]) or obj["seq"] < 0:
        raise SchemaViolation(_path(at + ("seq",)), "expected an integer >= 0")
    gate = obj.get("gate")
    if gate is not None and not isinstance(gate, str):
        raise SchemaViolation(_path(at + ("gate",)), "expected a string")
    return RemoteLink(obj["peer"], gate, obj["seq"])


def instruction_to_obj(ins: Instruction) -> dict:
    obj = {
        "name": ins.name,
        "qubits": list(ins.qubits),
        "clbits": list(ins.clbits),
        "params": [_param_to_obj(p) for p in ins.params],
    }
    if ins.remote is not None:
        obj["remote"] = _remote_to_obj(ins.remote)
    if ins.body is not None:
        obj["body"] = [instruction_to_obj(gate) for gate in ins.body]
    return obj


def instruction_from_obj(obj, at: tuple, optional=("remote", "body")) -> Instruction:
    """The instruction at `at`; the entries of its body are decoded with
    no "body" field, so a body never holds one."""
    _check_fields(obj, at, required=("name", "qubits", "clbits", "params"),
                  optional=optional)
    if not isinstance(obj["name"], str) or not obj["name"]:
        raise SchemaViolation(_path(at + ("name",)), "expected a non-empty string")
    qubits, clbits = _int_list(obj["qubits"], at, "qubits"), _int_list(obj["clbits"], at, "clbits")
    if not isinstance(obj["params"], list):
        raise SchemaViolation(_path(at + ("params",)), "expected a list")
    params = [_param_from_obj(p, at, i) for i, p in enumerate(obj["params"])]
    remote = body = None
    if "remote" in obj:
        remote = _remote_from_obj(obj["remote"], at + ("remote",))
    if "body" in obj:
        if not isinstance(obj["body"], list):
            raise SchemaViolation(_path(at + ("body",)), "expected a list")
        body = [instruction_from_obj(o, at + ("body", i), ("remote",))
                for i, o in enumerate(obj["body"])]
    return Instruction(obj["name"], qubits, clbits, params, remote, body)


def circuit_to_obj(circuit: Circuit) -> dict:
    return {
        "id": circuit.id,
        "num_qubits": circuit.num_qubits,
        "num_clbits": circuit.num_clbits,
        "instructions": [instruction_to_obj(ins) for ins in circuit.instructions],
    }


def circuit_from_obj(obj) -> Circuit:
    _check_fields(obj, (), required=("id", "num_qubits", "num_clbits", "instructions"))
    if not isinstance(obj["id"], str) or not obj["id"]:
        raise SchemaViolation("id", "expected a non-empty string")
    if not _is_int(obj["num_qubits"]) or obj["num_qubits"] < 1:
        raise SchemaViolation("num_qubits", "expected an integer >= 1")
    if not _is_int(obj["num_clbits"]) or obj["num_clbits"] < 0:
        raise SchemaViolation("num_clbits", "expected an integer >= 0")
    if not isinstance(obj["instructions"], list):
        raise SchemaViolation("instructions", "expected a list")
    instructions = [instruction_from_obj(o, ("instructions", i))
                    for i, o in enumerate(obj["instructions"])]
    return Circuit._from_instructions(obj["num_qubits"], obj["num_clbits"],
                                      instructions, id=obj["id"], copy=False)


def to_wire(circuit: Circuit) -> bytes:
    return json.dumps(circuit_to_obj(circuit), separators=(",", ":")).encode("utf-8")


def from_wire(data) -> Circuit:
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaViolation("<root>", f"invalid JSON: {exc}") from exc
    return circuit_from_obj(obj)
