"""Closed-form outcome laws for the benchmark's phase-estimation programs,
and the checks that compare a program's counts against them.

The checks compare distributions, not bit patterns, so an engine that
samples differently but correctly (for example by sampling a branch
distribution instead of looping over shots) still passes.

Bounds: for N samples the expected total-variation distance between the
empirical and the true law is at most 0.5 * sum_x sqrt(p_x (1 - p_x) / N),
and one sample moves the distance by at most 1/N, so by McDiarmid the
distance exceeds that mean bound by sqrt(10 / N) with probability below
exp(-20) (about 2e-9).
"""

from __future__ import annotations

import math

import numpy as np

DEVIATION_EXPONENT = 10.0  # failure probability exp(-2 * this)


def phase_grid(n: int, xi: int, offset: float) -> float:
    """Phase phi = (xi + offset) / 2^n; offset in (0, 0.5) keeps xi the mode."""
    return (xi + offset) / (1 << n)


def qpe_law(n: int, phi: float) -> np.ndarray:
    """P(x) for the n-ancilla QPE of phase phi, x read little-endian from
    clbits 0..n-1: |(1/N) sum_k exp(2 pi i k (phi - x/N))|^2 with N = 2^n."""
    size = 1 << n
    delta = phi - np.arange(size) / size
    num = np.sin(math.pi * size * delta)
    den = size * np.sin(math.pi * delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(np.abs(den) < 1e-12, 1.0, (num / den) ** 2)
    return p / p.sum()


def ipea_marginals(n: int, phi: float) -> list[float]:
    """P(bit_i = 1) for each part of the n-part iterative chain.

    Part i sees the relative phase 2 pi phi 2^(n-1-i), corrected by
    -pi / 2^(i-j) for every earlier bit b_j = 1, and measures 1 with
    probability sin^2(alpha / 2). The marginal sums over earlier bits.
    """
    prefixes = {(): 1.0}  # earlier bits -> probability
    marginals = []
    for i in range(n):
        nxt: dict[tuple, float] = {}
        p_one = 0.0
        for bits, weight in prefixes.items():
            alpha = 2 * math.pi * phi * (1 << (n - 1 - i))
            alpha -= sum(math.pi / (1 << (i - j)) for j, b in enumerate(bits) if b)
            p1 = math.sin(alpha / 2) ** 2
            p_one += weight * p1
            nxt[bits + (1,)] = nxt.get(bits + (1,), 0.0) + weight * p1
            nxt[bits + (0,)] = nxt.get(bits + (0,), 0.0) + weight * (1 - p1)
        marginals.append(p_one)
        prefixes = nxt
    return marginals


def tv_bound(p: np.ndarray, shots: int) -> float:
    mean = 0.5 * float(np.sum(np.sqrt(p * (1 - p) / shots)))
    return mean + math.sqrt(DEVIATION_EXPONENT / shots)


def check_qpe(counts: dict[str, int], n: int, phi: float, xi: int) -> str | None:
    """None when the counts fit the QPE law and their mode is xi, else why not."""
    shots = sum(counts.values())
    p = qpe_law(n, phi)
    observed = np.zeros(1 << n)
    for key, num in counts.items():
        if len(key) != n:
            return f"key {key!r} is not {n} bits"
        observed[int(key, 2)] += num
    mode = int(np.argmax(observed))
    if mode != xi:
        return f"phi_hat is {mode}/2^{n}, expected {xi}/2^{n}"
    tv = 0.5 * float(np.abs(observed / shots - p).sum())
    bound = tv_bound(p, shots)
    if tv > bound:
        return f"total variation {tv:.4f} exceeds {bound:.4f} over {shots} shots"
    return None


def check_ipea(part_counts: list[dict[str, int]], n: int, phi: float,
               xi: int) -> str | None:
    """None when every part's bit frequency fits its marginal and the
    majority bits reassemble xi exactly, else why not."""
    bits = []
    for i, (counts, p1) in enumerate(zip(part_counts, ipea_marginals(n, phi))):
        shots = sum(counts.values())
        ones = sum(v for k, v in counts.items() if k.endswith("1"))
        bits.append(1 if 2 * ones > shots else 0)
        dev = abs(ones / shots - p1)
        bound = tv_bound(np.array([p1, 1 - p1]), shots)
        if dev > bound:
            return (f"part {i}: frequency of 1 is {ones / shots:.4f}, "
                    f"law gives {p1:.4f} (bound {bound:.4f})")
    got = sum(b << i for i, b in enumerate(bits))
    if got != xi:
        return f"reassembled phase {got}/2^{n}, expected {xi}/2^{n}"
    return None
