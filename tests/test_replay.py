"""Fixed seeds replay bit for bit, on the three execution paths (merged
executor run, channel-linked shot loop, sampled).

The two walked replays were recorded from the reference loops
(`oracles.run_shot_loop_reference`), which run the shots one after another
from one `engine.job_rng(seed)` stream; the engine must give the same
counts. The sampled replay was recorded from the engine before its kernels
moved to reshape views and has not changed since: the sampled path's
stream is the one it always was.
"""

import math

from dqcemu import channel, engine, executor
from dqcemu.algorithms import QpeConfig, build_distributed_qpe, build_ipea_chain, build_qpe

from oracles import run_shot_loop_reference


def test_telegate_qpe_replays():
    parts = build_distributed_qpe(QpeConfig(n_ancilla=4, theta=2 * math.pi * 0.35))
    plan = executor.merge_circuits(list(parts))
    recorded = {
        "0001": 1, "0010": 1, "0011": 3, "0100": 5, "0101": 51, "0110": 126,
        "0111": 4, "1000": 1, "1001": 2, "1010": 2, "1011": 1, "1100": 2, "1111": 1}
    assert run_shot_loop_reference(plan.merged, 200, 11, outputs=plan.user_clbits) == recorded
    assert executor.execute_merged(plan, 200, seed=11).counts == recorded


def test_ipea_chain_replays():
    chain = build_ipea_chain(QpeConfig(n_ancilla=2, theta=2.0)).circuits
    recorded = [{"0": 50, "1": 250}, {"0": 255, "1": 45}]
    # the sender finishes first, so every bit is waiting for the receiver
    eps = channel.establish({c.id: c.id for c in chain})
    assert [run_shot_loop_reference(c, 300, 21 + i, hooks=eps[c.id].hooks())
            for i, c in enumerate(chain)] == recorded
    eps = channel.establish({c.id: c.id for c in chain})
    counts = [engine.run_shot_loop(c, 300, seed=21 + i, hooks=eps[c.id].hooks())
              for i, c in enumerate(chain)]
    assert counts == recorded


def test_sampled_qpe_replays():
    circuit = build_qpe(QpeConfig(n_ancilla=10, theta=2.0))
    assert engine.run_sampled(circuit, 2000, seed=31) == {
        "0100110111": 1, "0101000001": 1, "0101000010": 1, "0101000100": 2,
        "0101000101": 4, "0101000110": 1986, "0101000111": 3, "0101001000": 2}
