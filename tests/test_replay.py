"""Fixed seeds replay bit for bit: counts recorded from the engine before its
kernels moved to reshape views must come out unchanged, on the three
execution paths (merged executor run, channel-linked shot loop, sampled).
"""

import math

from dqcemu import channel, engine, executor
from dqcemu.algorithms import QpeConfig, build_distributed_qpe, build_ipea_chain, build_qpe


def test_telegate_qpe_replays():
    parts = build_distributed_qpe(QpeConfig(n_ancilla=4, theta=2 * math.pi * 0.35))
    plan = executor.merge_circuits(list(parts))
    assert executor.execute_merged(plan, 200, seed=11).counts == {
        "0001": 2, "0010": 2, "0100": 9, "0101": 44, "0110": 121, "0111": 11,
        "1000": 1, "1001": 1, "1010": 3, "1011": 1, "1100": 2, "1101": 3}


def test_ipea_chain_replays():
    chain = build_ipea_chain(QpeConfig(n_ancilla=2, theta=2.0)).circuits
    eps = channel.establish({c.id: c.id for c in chain})
    # the sender finishes first, so every bit is waiting for the receiver
    counts = [engine.run_shot_loop(c, 300, seed=21 + i, hooks=eps[c.id].hooks())
              for i, c in enumerate(chain)]
    assert counts == [{"0": 49, "1": 251}, {"0": 253, "1": 47}]


def test_sampled_qpe_replays():
    circuit = build_qpe(QpeConfig(n_ancilla=10, theta=2.0))
    assert engine.run_sampled(circuit, 2000, seed=31) == {
        "0100110111": 1, "0101000001": 1, "0101000010": 1, "0101000100": 2,
        "0101000101": 4, "0101000110": 1986, "0101000111": 3, "0101001000": 2}
