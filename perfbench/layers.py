"""Per-layer measurements for traced runs.

Live probes time single requests against the workload's running family.
Replays run the workloads' generated inputs in the benchmark process,
through the public functions of each layer, with nothing else running.
Each measurement is recorded as a span; a span covering a batch of n calls
carries n, so its per-call time is duration / n.
"""

from __future__ import annotations

import json
import statistics

import numpy as np

from dqcemu import channel, engine, executor
from dqcemu.algorithms import QpeConfig, build_distributed_qpe
from dqcemu.backend import default_backend, validate
from dqcemu.channel import BitMessage
from dqcemu.circuit import Circuit, Param
from dqcemu.client import run, upgrade_parameters
from dqcemu.gates import gate_matrix
from dqcemu.protocol import connect, parse_address, request
from dqcemu.server import TcpBitTransport
from dqcemu.statevector import GateOp, StateVector, apply_gate, measure_qubit, reset_qubit
from dqcemu.wire import circuit_from_obj, circuit_to_obj

import workloads

KERNEL_WIDTHS = (2, 11, 20)
KERNEL_CLASSES = {"diag": "cp", "ctrl": "cx", "perm": "swap", "dense": "h"}
# (batches, calls per batch) per width: enough calls to outlast the timer
KERNEL_REPS = {2: (10, 200), 11: (10, 20), 20: (5, 1)}
AMPLITUDE_BYTES = np.dtype(np.complex128).itemsize
PROBE_REQUESTS = 200
UPGRADE_PROBES = 20
IPEA_SUITE_SHOTS = 2000  # per program of a live chain raised for the trace
MERGED_SUITE_SHOTS = 100
Q19_ANCILLAS = 16  # merged width 16 + 1 target + 2 communication qubits
Q19_SHOTS = 2


def batched(tracer, name: str, fn, batches: int, per_batch: int) -> None:
    for _ in range(batches):
        with tracer.span(name, n=per_batch):
            for _ in range(per_batch):
                fn()


# -- live probes ---------------------------------------------------------------

def upgrade_probe(qpu, tracer) -> None:
    """Rebind a one-qubit Param job repeatedly on a live vQPU."""
    c = Circuit(1, 1, id="upgrade-probe")
    c.rx(Param("a"), 0).measure(0, 0)
    job = run(qpu, c, shots=100, seed=1, params=[0.5])
    job.wait()
    for i in range(UPGRADE_PROBES):
        with tracer.span("client.upgrade"):
            job = upgrade_parameters(job, [0.1 * i])
        job.wait()


def status_probe(endpoint: str, tracer) -> None:
    host, port = parse_address(endpoint)
    sock = connect(host, port)
    try:
        request(sock, {"type": "status"})
        batched(tracer, "protocol.status_rtt",
                lambda: request(sock, {"type": "status"}), 10,
                PROBE_REQUESTS // 10)
    finally:
        sock.close()


def tcp_send_probe(endpoint: str, tracer) -> None:
    """One-way bit frames to a live vQPU; it keeps them as strays."""
    transport = TcpBitTransport()
    seq = iter(range(10 ** 9))
    try:
        transport.send(endpoint, BitMessage("probe-src", "probe-dst", 0, 0, 1))
        batched(tracer, "channel.tcp_send",
                lambda: transport.send(endpoint, BitMessage(
                    "probe-src", "probe-dst", next(seq), 0, 1)),
                10, PROBE_REQUESTS // 10)
    finally:
        transport.close()


# -- replays -----------------------------------------------------------------------

def request_layers(circuits, params, tracer) -> dict:
    """Wire, backend and circuit layers on one program's circuits."""
    backend = default_backend()
    frame_bytes = 0
    for c in circuits:
        obj = circuit_to_obj(c)
        frame_bytes += len(json.dumps(
            {"type": "run", "job_id": "job-0123456789", "circuit": obj,
             "config": {"shots": 1, "seed": 1}}, separators=(",", ":")))
        values = params if c.param_slots() else []
        batched(tracer, "wire.encode", lambda: circuit_to_obj(c), 10, 20)
        batched(tracer, "wire.decode", lambda: circuit_from_obj(obj), 10, 20)
        batched(tracer, "backend.validate", lambda: validate(c, backend), 10, 20)
        batched(tracer, "circuit.bind_params", lambda: c.bind_params(values), 10, 20)
    return {"wire.run_frame_bytes": frame_bytes}


def random_state(rng, width: int) -> np.ndarray:
    amps = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
    return amps / np.linalg.norm(amps)


def kernel_layers(rng, tracer) -> dict:
    """Gate kernels per class and width, measure and reset, gate_matrix."""
    out = {}
    for width in KERNEL_WIDTHS:
        batches, per_batch = KERNEL_REPS[width]
        base = random_state(rng, width)
        state = StateVector(width, base.copy())
        qa, qb = (int(q) for q in rng.choice(width, size=2, replace=False))
        angle = float(rng.uniform(0, 2 * np.pi))
        for cls, gate in KERNEL_CLASSES.items():
            qubits = (qa,) if gate == "h" else (qa, qb)
            op = GateOp(gate, qubits, (angle,) if gate == "cp" else ())
            apply_gate(state, op)  # let lazy caches fill
            name = f"statevector.apply.{cls}.q{width}"
            batched(tracer, name, lambda: apply_gate(state, op), batches, per_batch)
            if width == 20:
                # computed from array sizes: one read and one write of every
                # amplitude, the least traffic any kernel for the gate needs
                seconds = statistics.median(tracer.durations(name))
                out[f"statevector.bytes_per_s.{cls}.q20"] = (
                    2 * AMPLITUDE_BYTES * (1 << width) / seconds)
        for kind, fn in (("measure", measure_qubit), ("reset", reset_qubit)):
            for _ in range(batches):
                np.copyto(state.amplitudes, base)  # a fresh superposition
                with tracer.span(f"statevector.{kind}.q{width}"):
                    fn(state, qa, rng)
    batched(tracer, "gates.gate_matrix", lambda: gate_matrix("crz", (0.3,)), 10, 500)
    batched(tracer, "engine.shot_rng", lambda: engine.shot_rng(7, 11), 10, 200)
    return out


def inmem_bit_layer(tracer) -> None:
    eps = channel.establish({"a": "a", "b": "b"})
    send, recv = eps["a"].send_bit, eps["b"].recv_bit
    epoch = iter(range(10 ** 9))

    def one_bit():
        e = next(epoch)
        send(BitMessage("a", "b", e, 0, 1))
        recv("a", e, 0)
    batched(tracer, "channel.inmem_bit", one_bit, 10, 200)


def ipea_alone(circuits, seeds, shots: int, tracer) -> None:
    """Both chain parts in this process through channel.establish's
    in-memory hub: the sender runs to completion first, so the receiver
    never waits and its time is pure compute."""
    eps = channel.establish({c.id: c.id for c in circuits})
    for c, seed in zip(circuits, seeds):
        with tracer.span(f"engine.ipea_part.{c.id}", n=shots):
            engine.run_shot_loop(c, shots, seed=seed, hooks=eps[c.id].hooks())


def merged_plan(n: int, theta: float):
    return executor.merge_circuits(
        list(build_distributed_qpe(QpeConfig(n_ancilla=n, theta=theta))))


def suite(w, seed: int, samples, chained, tracer) -> dict:
    """Replays after the families are gone. `samples` are the measured
    programs of workload `w`, `chained` those of a live classical-ipea2
    family (w's own when it is that workload); the last of each is
    replayed alone."""
    rng = np.random.default_rng(seed)
    last = samples[-1]
    inp = w.inputs(seed, last.k)
    records = last.records
    params = w.params(inp)
    out = request_layers(w.circuits(inp), params, tracer)
    out.update(kernel_layers(rng, tracer))
    inmem_bit_layer(tracer)

    # the nocomm-qpe20 share of one vQPU, alone in this process
    qpe20 = workloads.WORKLOADS["nocomm-qpe20"]
    if w is qpe20:
        circuit, meta = w.circuits(inp)[0], records[0].metadata
        shots, job_seed = meta["shots"], meta["seed"]
    else:
        q_inp = qpe20.inputs(seed, 1)
        circuit, shots, job_seed = qpe20.circuits(q_inp)[0], qpe20.shots // 2, q_inp.seed
    with tracer.span("engine.run_sampled"):
        engine.run_sampled(circuit, shots, seed=job_seed)

    # the 2-part IPEA chain: its last live program, replayed alone
    ipea = workloads.WORKLOADS["classical-ipea2"]
    chain = ipea.circuits(ipea.inputs(seed, chained[-1].k))
    shots = chained[-1].records[0].metadata["shots"]
    ipea_alone(chain, [r.metadata["seed"] for r in chained[-1].records],
               shots, tracer)
    send_s = tracer.median(f"engine.ipea_part.{chain[0].id}") * shots
    recv_s = tracer.median(f"engine.ipea_part.{chain[1].id}") * shots
    out["engine.run_once_us.ipea"] = (send_s + recv_s) / (2 * shots) * 1e6
    out["channel.bits_per_shot"] = sum(
        ins.name == "measure_and_send" for c in chain for ins in c.instructions)
    received = statistics.median(s.records[1].time_taken for s in chained)
    out["channel.wait_share"] = 1 - recv_s / received

    # the executor's merged circuits
    telegate = workloads.WORKLOADS["quantum-telegate8"]
    parts = telegate.circuits(telegate.inputs(seed, 1))
    for _ in range(10):
        with tracer.span("executor.merge"):
            plan = executor.merge_circuits(parts)
    out["executor.merged_instructions"] = len(plan.merged.instructions)
    if w is telegate:
        plan = executor.merge_circuits(w.circuits(inp))
        shots, job_seed = w.shots, records[0].metadata["seed"]
        out["engine.instructions_per_shot"] = len(plan.merged.instructions)
    else:
        shots, job_seed = MERGED_SUITE_SHOTS, seed
        out["engine.instructions_per_shot"] = sum(
            len(c.instructions) for c in w.circuits(inp))
    with tracer.span("executor.shot.q11", n=shots):
        executor.execute_merged(plan, shots, seed=job_seed)
    plan19 = merged_plan(Q19_ANCILLAS, telegate.inputs(seed, 1).theta)
    with tracer.span("executor.shot.q19", n=Q19_SHOTS):
        executor.execute_merged(plan19, Q19_SHOTS, seed=seed)

    # in-family time_taken over the same engine call alone in this process
    taken = [r.time_taken for s in samples for r in s.records]
    if w is qpe20:
        alone = tracer.median("engine.run_sampled")
    elif w is ipea:
        taken = [s.records[0].time_taken for s in samples]  # the sender part
        alone = send_s
    elif w is telegate:
        alone = tracer.median("executor.shot.q11") * shots
    else:  # nocomm-small-jobs: its bound circuit on the sampled path
        bound = w.circuits(inp)[0].bind_params(params)
        meta = records[0].metadata
        for _ in range(5):
            with tracer.span("engine.small_job"):
                engine.run_sampled(bound, meta["shots"], seed=meta["seed"])
        alone = tracer.median("engine.small_job")
    out["server.contention_ratio"] = statistics.median(taken) / alone
    return out
