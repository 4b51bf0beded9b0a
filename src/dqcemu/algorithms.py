"""Reference constructions of quantum phase estimation in its three
distributed flavors, plus phase extraction.

The estimated unitary is the z-rotation diag(e^{-i theta}, e^{+i theta})
(i.e. rz(2*theta)) with eigenvector |1>, so the true phase is
phi = theta / (2 pi) mod 1 and U^{2^t} is realized exactly by scaling the
rotation angle rather than repeating the gate.

Bit order: ancilla t is measured into clbit t and the outcome integer xi is
read little-endian, so phi_hat = xi / 2^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .circuit import Circuit
from .errors import EmptyCounts, LengthMismatch


@dataclass
class QpeConfig:
    n_ancilla: int
    theta: float
    shots: int = 1000
    target_qubits: int = 1
    prepare_one: bool = True  # prepare the |1> eigenvector (a single x gate)

    @property
    def phi_true(self) -> float:
        return (self.theta / (2 * math.pi)) % 1.0


@dataclass
class PhaseEstimate:
    xi: int
    n: int

    @property
    def phi_hat(self) -> float:
        return self.xi / (1 << self.n)

    @property
    def error_bound(self) -> float:
        return 2.0 ** (-self.n)


@dataclass
class IpeaChain:
    """One circuit per phase bit; circuit i computes bit b~_i (b~_0 = LSB)
    and forwards it to every later circuit."""
    circuits: list[Circuit]
    bit_flow: dict[int, list[int]] = field(default_factory=dict)


def inverse_qft(circuit: Circuit, qubits) -> Circuit:
    """Textbook inverse QFT: qubit-order swaps, then the H / controlled-phase
    ladder with cp(-pi / 2^k)."""
    qs = list(qubits)
    n = len(qs)
    for i in range(n // 2):
        circuit.swap(qs[i], qs[n - 1 - i])
    for target in range(n):
        for control in range(target):
            circuit.cp(-math.pi / (1 << (target - control)), qs[control], qs[target])
        circuit.h(qs[target])
    return circuit


def build_qpe(cfg: QpeConfig, id: str = "qpe") -> Circuit:
    """Monolithic QPE over n ancillas and m target qubits."""
    n, m = cfg.n_ancilla, cfg.target_qubits
    c = Circuit(n + m, n, id=id)
    for t in range(n):
        c.h(t)
    if cfg.prepare_one:
        c.x(n)
    for t in range(n):
        c.crz(2.0 * cfg.theta * (1 << t), t, n)
    inverse_qft(c, range(n))
    for t in range(n):
        c.measure(t, t)
    return c


def build_ipea_chain(cfg: QpeConfig) -> IpeaChain:
    """Iterative phase estimation split across n single-ancilla circuits
    linked by classical feed-forward."""
    n, m = cfg.n_ancilla, cfg.target_qubits
    ids = [f"ipea-{i}" for i in range(n)]
    circuits = []
    for i in range(n):
        c = Circuit(1 + m, 1, id=ids[i])
        c.h(0)
        if cfg.prepare_one:
            c.x(1)
        c.crz(2.0 * cfg.theta * (1 << (n - i - 1)), 0, 1)
        for j in range(i):
            c.remote_c_if("rz", [0], ids[j], params=[-math.pi / (1 << (i - j))])
        c.h(0)
        c.measure(0, 0)
        for j in range(i + 1, n):
            c.measure_and_send(0, ids[j])
        circuits.append(c)
    flow = {i: list(range(i + 1, n)) for i in range(n)}
    return IpeaChain(circuits, flow)


def build_distributed_qpe(cfg: QpeConfig) -> tuple[Circuit, Circuit]:
    """QPE split into an ancilla circuit and a target circuit; every
    controlled rotation becomes an expose resolved via telegate."""
    n, m = cfg.n_ancilla, cfg.target_qubits
    anc = Circuit(n, n, id="qpe-ancilla")
    tgt = Circuit(m, 0, id="qpe-target")
    if cfg.prepare_one:
        tgt.x(0)
    for t in range(n):
        anc.h(t)
    for t in range(n):
        anc.expose(t, [("crz", [0], [2.0 * cfg.theta * (1 << t)])], tgt.id)
    inverse_qft(anc, range(n))
    for t in range(n):
        anc.measure(t, t)
    return anc, tgt


def extract_phase(counts: dict[str, int], n: int) -> PhaseEstimate:
    """Decode the most frequent ancilla substring (clbits 0..n-1) of the
    counts keys; ties break toward smaller xi."""
    if not counts:
        raise EmptyCounts("no counts to extract a phase from")
    acc: dict[int, int] = {}
    for key, num in counts.items():
        if len(key) < n:
            raise LengthMismatch(f"key {key!r} shorter than {n} ancilla bits")
        xi = int(key[-n:], 2)
        acc[xi] = acc.get(xi, 0) + num
    best = max(acc.items(), key=lambda kv: (kv[1], -kv[0]))
    return PhaseEstimate(xi=best[0], n=n)


def ipea_bits_to_phase(bits, n: int | None = None) -> PhaseEstimate:
    """Reassemble the phase from per-circuit majority bits; b~_0 (from the
    U^{2^{n-1}} circuit) is the least significant bit."""
    bits = list(bits)
    if n is not None and len(bits) != n:
        raise LengthMismatch(f"expected {n} bits, got {len(bits)}")
    if not bits:
        raise LengthMismatch("no bits")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    xi = sum(b << i for i, b in enumerate(bits))
    return PhaseEstimate(xi=xi, n=len(bits))


def most_frequent_bits(counts_list) -> list[int]:
    """Majority single-bit outcome per counts dict; ties break toward 0."""
    bits = []
    for counts in counts_list:
        if not counts:
            raise EmptyCounts("empty counts in bit series")
        ones = sum(v for k, v in counts.items() if k and k[-1] == "1")
        zeros = sum(v for k, v in counts.items() if not k or k[-1] == "0")
        bits.append(1 if ones > zeros else 0)
    return bits
