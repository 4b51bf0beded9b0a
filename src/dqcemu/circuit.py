"""Portable circuit representation: builders, distributed instructions,
structural operators, validation and the wire serialization scheme.

Circuits are mutated only while being built; once handed to an operator or
submitted they are treated as immutable values.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field

from .errors import (
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
from .gates import GATES, LINKS, arity_error


@dataclass(frozen=True)
class Param:
    """Symbolic parameter slot, bound later by position through
    upgrade_parameters-style calls."""
    name: str


@dataclass
class RemoteLink:
    peer_circuit_id: str
    gate_name: str | None = None  # remote_c_if only
    sequence: int = 0

    def copy(self) -> "RemoteLink":
        return RemoteLink(self.peer_circuit_id, self.gate_name, self.sequence)


@dataclass
class Instruction:
    name: str
    qubits: list[int] = field(default_factory=list)
    clbits: list[int] = field(default_factory=list)
    params: list = field(default_factory=list)
    remote: RemoteLink | None = None
    # an expose's body: controlled gates on peer-relative qubits, each
    # naming its target only (the communication qubit is the control)
    body: list["Instruction"] | None = None

    def copy(self) -> "Instruction":
        return Instruction(self.name, list(self.qubits), list(self.clbits),
                           list(self.params),
                           self.remote.copy() if self.remote else None,
                           None if self.body is None else [b.copy() for b in self.body])


def _new_id() -> str:
    return "circ-" + uuid.uuid4().hex[:8]


class Circuit:
    """Instruction-list circuit over `num_qubits` qubits and `num_clbits`
    classical bits.

    A unitary instruction carrying a clbit is a local conditional: the gate
    fires when that bit equals 1. Distributed instructions reference peer
    circuits by id through a RemoteLink with per-(peer, name) FIFO sequence
    tags.
    """

    def __init__(self, num_qubits: int, num_clbits: int = 0, id: str | None = None):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if num_clbits < 0:
            raise ValueError("num_clbits must be >= 0")
        if id is not None and not id:
            raise ValueError("circuit id must be a non-empty string")
        self.id = id or _new_id()
        self.num_qubits = num_qubits
        self.num_clbits = num_clbits
        self.instructions: list[Instruction] = []
        self._seq: dict[tuple[str, str], int] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def _from_instructions(cls, num_qubits, num_clbits, instructions,
                           id=None, copy: bool = True) -> "Circuit":
        c = cls(num_qubits, num_clbits, id=id)
        c.instructions = [ins.copy() for ins in instructions] if copy else instructions
        for ins in c.instructions:
            if ins.remote is not None and ins.name in LINKS:
                key = (ins.remote.peer_circuit_id, ins.name)
                c._seq[key] = max(c._seq.get(key, 0), ins.remote.sequence + 1)
        return c

    def copy(self, id: str | None = None) -> "Circuit":
        return Circuit._from_instructions(self.num_qubits, self.num_clbits,
                                          self.instructions, id=id or self.id)

    def _check_qubit(self, q: int) -> None:
        if not 0 <= q < self.num_qubits:
            raise QubitOutOfRange(f"qubit {q} out of range (width {self.num_qubits})")

    def _check_clbit(self, c: int) -> None:
        if not 0 <= c < self.num_clbits:
            raise QubitOutOfRange(f"clbit {c} out of range ({self.num_clbits} declared)")

    def append(self, name: str, qubits, clbits=(), params=(),
               remote: RemoteLink | None = None) -> "Circuit":
        """Append a raw instruction; gate arity is checked for unitaries."""
        qubits = list(qubits)
        clbits = list(clbits)
        params = list(params)
        if name in GATES:
            error = arity_error(name, len(qubits), len(params))
            if error:
                raise ArityMismatch(error)
            if len(clbits) > 1:
                raise ArityMismatch("a conditional gate takes a single clbit")
        elif name == "measure":
            if len(qubits) != len(clbits):
                raise ArityMismatch("measure maps each qubit to one clbit")
        elif name == "reset":
            pass
        else:
            raise UnknownGate(f"unknown instruction {name!r}")
        for q in qubits:
            self._check_qubit(q)
        for c in clbits:
            self._check_clbit(c)
        self.instructions.append(Instruction(name, qubits, clbits, params, remote))
        return self

    # single-qubit gates
    def i(self, q):   return self.append("id", [q])
    def x(self, q):   return self.append("x", [q])
    def y(self, q):   return self.append("y", [q])
    def z(self, q):   return self.append("z", [q])
    def h(self, q):   return self.append("h", [q])
    def s(self, q):   return self.append("s", [q])
    def sdg(self, q): return self.append("sdg", [q])
    def t(self, q):   return self.append("t", [q])
    def tdg(self, q): return self.append("tdg", [q])
    def rx(self, theta, q): return self.append("rx", [q], params=[theta])
    def ry(self, theta, q): return self.append("ry", [q], params=[theta])
    def rz(self, lam, q):   return self.append("rz", [q], params=[lam])

    def u(self, theta, phi, lam, q):
        return self.append("u", [q], params=[theta, phi, lam])

    # two-qubit gates (control first)
    def cx(self, control, target): return self.append("cx", [control, target])
    def cy(self, control, target): return self.append("cy", [control, target])
    def cz(self, control, target): return self.append("cz", [control, target])

    def crz(self, lam, control, target):
        return self.append("crz", [control, target], params=[lam])

    def cp(self, lam, control, target):
        return self.append("cp", [control, target], params=[lam])

    def swap(self, a, b): return self.append("swap", [a, b])

    def measure(self, qubit, clbit) -> "Circuit":
        qubits = [qubit] if isinstance(qubit, int) else list(qubit)
        clbits = [clbit] if isinstance(clbit, int) else list(clbit)
        return self.append("measure", qubits, clbits)

    def reset(self, qubit) -> "Circuit":
        qubits = [qubit] if isinstance(qubit, int) else list(qubit)
        return self.append("reset", qubits)

    def c_if(self, gate: str, qubits, clbit: int, params=()) -> "Circuit":
        """Apply `gate` only when `clbit` reads 1 at execution time."""
        qubits = [qubits] if isinstance(qubits, int) else list(qubits)
        return self.append(gate, qubits, clbits=[clbit], params=params)

    # -- distributed instructions ------------------------------------------

    def _check_peer(self, peer: str) -> None:
        if not peer:
            raise ValueError("peer circuit id must be non-empty")
        if peer == self.id:
            raise SelfLink(f"circuit {self.id!r} cannot link to itself")

    def _append_link(self, name: str, qubits, peer: str, params=(),
                     gate_name: str | None = None, body=None) -> "Circuit":
        """Append a `name` instruction linked to `peer` with the next
        sequence tag of its name."""
        self._check_peer(peer)
        key = (peer, name)
        self._seq[key] = self._seq.get(key, 0) + 1
        remote = RemoteLink(peer, gate_name, self._seq[key] - 1)
        self.instructions.append(Instruction(name, list(qubits), params=list(params),
                                             remote=remote, body=body))
        return self

    def measure_and_send(self, control_qubit: int, target_circuit: str) -> "Circuit":
        """Measure `control_qubit` and transmit the outcome bit to the peer."""
        self._check_qubit(control_qubit)
        return self._append_link("measure_and_send", [control_qubit], target_circuit)

    def remote_c_if(self, gate: str, target_qubits, control_circuit: str,
                    params=()) -> "Circuit":
        """Blocking receive of one bit from the peer; apply `gate` when it is 1."""
        if gate not in GATES:
            raise UnknownGate(f"unknown gate {gate!r}")
        target_qubits = ([target_qubits] if isinstance(target_qubits, int)
                         else list(target_qubits))
        error = arity_error(gate, len(target_qubits), len(params))
        if error:
            raise ArityMismatch(error)
        for q in target_qubits:
            self._check_qubit(q)
        return self._append_link("remote_c_if", target_qubits, control_circuit,
                                 params, gate_name=gate)

    def qsend(self, send_qubit: int, target_circuit: str) -> "Circuit":
        """Teleport `send_qubit`'s state to the peer; the local state is
        destroyed (left in the protocol's measurement basis state)."""
        self._check_qubit(send_qubit)
        return self._append_link("qsend", [send_qubit], target_circuit)

    def qrecv(self, recv_qubit: int, control_circuit: str) -> "Circuit":
        """Receive a teleported state into `recv_qubit` (overwritten)."""
        self._check_qubit(recv_qubit)
        return self._append_link("qrecv", [recv_qubit], control_circuit)

    def expose(self, control_qubit: int, body, target_circuit: str) -> "Circuit":
        """Run `body` on the peer under the control of a local qubit
        (telegate): one instruction on `control_qubit` that carries its body.

        `body` is a list of (gate, target_qubits, params) entries naming
        controlled gates (`gates.GATES` rows with `control`); their control
        is the exposed local qubit, their target indices refer to the *peer*
        circuit, and their parameters are numbers (the executor binds no
        slot). A body holds no distributed instruction.
        """
        self._check_qubit(control_qubit)
        gates = []
        for item in body:
            gate, qubits, params = item if len(item) == 3 else (*item, [])
            qubits = [qubits] if isinstance(qubits, int) else list(qubits)
            if gate in LINKS:
                raise NotSupported("an expose body cannot hold distributed instructions")
            if gate not in GATES or not GATES[gate].control:
                raise UnknownGate(f"expose body gate must be controlled, got {gate!r}")
            error = arity_error(gate, len(qubits), len(params), body=True)
            if error:
                raise ArityMismatch(error)
            if any(isinstance(p, Param) for p in params):
                raise NotSupported("expose body parameters are numbers: "
                                   "the executor binds no slot")
            gates.append(Instruction(gate, qubits, params=list(params)))
        if not gates:
            raise EmptyBody("expose requires at least one body gate")
        return self._append_link("expose", [control_qubit], target_circuit, body=gates)

    # -- introspection -----------------------------------------------------

    def has_distributed(self) -> bool:
        return any(ins.name in LINKS for ins in self.instructions)

    def has_link(self, model: str) -> bool:
        """True when an instruction needs the `model` ("classical" or
        "quantum") communication of `gates.LINKS`."""
        return any(LINKS.get(ins.name) == model for ins in self.instructions)

    def peer_ids(self) -> set[str]:
        return {ins.remote.peer_circuit_id for ins in self.instructions
                if ins.remote is not None}

    def param_slots(self) -> list[str]:
        """Symbolic parameter names in first-appearance order."""
        slots: list[str] = []
        for ins in self.instructions:
            for p in ins.params:
                if isinstance(p, Param) and p.name not in slots:
                    slots.append(p.name)
        return slots

    def bind_params(self, values) -> "Circuit":
        """New circuit with symbolic slots substituted by position."""
        slots = self.param_slots()
        if len(values) != len(slots):
            raise ArityMismatch(
                f"expected {len(slots)} parameter value(s), got {len(values)}")
        table = dict(zip(slots, values))
        bound = self.copy()
        for ins in bound.instructions:
            ins.params = [table[p.name] if isinstance(p, Param) else p
                          for p in ins.params]
        return bound

    def depth(self) -> int:
        """Layered schedule length: longest chain of instructions sharing
        qubits. An expose counts once, on its local control qubit."""
        level: dict[int, int] = {}
        d = 0
        for ins in self.instructions:
            nd = 1 + max((level.get(q, 0) for q in ins.qubits), default=0)
            for q in ins.qubits:
                level[q] = nd
            d = max(d, nd)
        return d

    def contains(self, gate: str) -> bool:
        return any(ins.name == gate for ins in self.instructions)

    def __contains__(self, gate: str) -> bool:
        return self.contains(gate)

    def __len__(self) -> int:
        return self.depth()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (self.id == other.id and self.num_qubits == other.num_qubits
                and self.num_clbits == other.num_clbits
                and self.instructions == other.instructions)

    def __repr__(self) -> str:
        return (f"Circuit(id={self.id!r}, qubits={self.num_qubits}, "
                f"clbits={self.num_clbits}, instructions={len(self.instructions)})")

    # -- structural operators ----------------------------------------------

    def __add__(self, other: "Circuit") -> "Circuit":
        return concat(self, other)

    def __or__(self, other: "Circuit") -> "Circuit":
        return tensor_union(self, other)

    def hor_split(self, after_qubit: int) -> tuple["Circuit", "Circuit"]:
        return hor_split(self, after_qubit)

    def vert_split(self, after_position: int) -> tuple["Circuit", "Circuit"]:
        return vert_split(self, after_position)


def concat(a: Circuit, b: Circuit) -> Circuit:
    """a's instructions followed by b's; widths must match."""
    if a.num_qubits != b.num_qubits:
        raise WidthMismatch(
            f"cannot concatenate widths {a.num_qubits} and {b.num_qubits}")
    return Circuit._from_instructions(
        a.num_qubits, max(a.num_clbits, b.num_clbits),
        list(a.instructions) + list(b.instructions))


def tensor_union(a: Circuit, b: Circuit) -> Circuit:
    """Stack b below a: b's qubit and clbit indices are offset by a's counts
    (an expose's body stays peer-relative)."""
    moved = []
    for ins in b.instructions:
        ins = ins.copy()
        ins.qubits = [q + a.num_qubits for q in ins.qubits]
        ins.clbits = [c + a.num_clbits for c in ins.clbits]
        moved.append(ins)
    return Circuit._from_instructions(a.num_qubits + b.num_qubits,
                                      a.num_clbits + b.num_clbits, a.instructions + moved)


def hor_split(c: Circuit, after_qubit: int) -> tuple[Circuit, Circuit]:
    """Inverse of tensor_union: split after `after_qubit`.

    Every instruction must live entirely on one side of the boundary.
    Clbits are assigned to the side that uses them; the first side keeps
    clbits 0..max_used, the second side's clbits are rebased. Trailing
    clbits never referenced by the first side migrate to the second.
    """
    if not 0 <= after_qubit < c.num_qubits - 1:
        raise IndexOutOfRange(
            f"hor_split boundary {after_qubit} invalid for width {c.num_qubits}")
    first_ins: list[Instruction] = []
    second_ins: list[Instruction] = []
    lo_clbits: set[int] = set()
    hi_clbits: set[int] = set()
    for ins in c.instructions:
        lo = any(q <= after_qubit for q in ins.qubits)
        hi = any(q > after_qubit for q in ins.qubits)
        if lo and hi:
            raise StraddlingGate(
                f"{ins.name} on qubits {ins.qubits} straddles boundary {after_qubit}")
        moved = ins.copy()
        if lo:
            first_ins.append(moved)
            lo_clbits.update(ins.clbits)
        else:
            moved.qubits = [q - after_qubit - 1 for q in moved.qubits]
            second_ins.append(moved)
            hi_clbits.update(ins.clbits)
    first_nb = max(lo_clbits) + 1 if lo_clbits else 0
    if any(cb < first_nb for cb in hi_clbits):
        raise StraddlingGate("clbits are shared across the qubit boundary")
    for ins in second_ins:
        ins.clbits = [cb - first_nb for cb in ins.clbits]
    first = Circuit._from_instructions(after_qubit + 1, first_nb, first_ins)
    second = Circuit._from_instructions(
        c.num_qubits - after_qubit - 1, c.num_clbits - first_nb, second_ins)
    return first, second


def vert_split(c: Circuit, after_position: int) -> tuple[Circuit, Circuit]:
    """Inverse of concat: cut the instruction list at `after_position`."""
    if not 0 <= after_position <= len(c.instructions):
        raise IndexOutOfRange(
            f"position {after_position} invalid for {len(c.instructions)} instructions")
    first = Circuit._from_instructions(
        c.num_qubits, c.num_clbits, c.instructions[:after_position])
    second = Circuit._from_instructions(
        c.num_qubits, c.num_clbits, c.instructions[after_position:])
    return first, second
