"""The splitmix64 stream one Python-int draw at a time, and the scalar
helpers built on it.

This is the oracle that the block draws of `moeforge.tensor.Rng` are checked
against, and the source of the test inputs that were drawn one value at a
time. Each function takes an `Rng` and advances its `_state` exactly as the
same draws from the block stream would, so a test can interleave the two.
"""

from dataclasses import replace

import numpy as np

from moeforge.sampler import DEFAULT_DOMAINS, DomainWeights, SamplerMode, SamplerState
from moeforge.tensor import Rng, sigmoid

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX_A, MIX_B = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def next_u64(rng: Rng) -> int:
    rng._state = z = (rng._state + GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * MIX_B) & MASK64
    return z ^ (z >> 31)


def next_float(rng: Rng) -> float:
    """Uniform in [0, 1) with 53 random bits: (next_u64 >> 11) * 2**-53."""
    return (next_u64(rng) >> 11) * (1.0 / (1 << 53))


def next_below(rng: Rng, n: int) -> int:
    """Uniform integer in [0, n) by rejection (no modulo bias)."""
    if n <= 0:
        raise ValueError("n must be positive")
    limit = MASK64 - (MASK64 + 1) % n
    while True:
        x = next_u64(rng)
        if x <= limit:
            return x % n


def shuffle(rng: Rng, items: list) -> list:
    """In-place Fisher-Yates shuffle with one next_below draw per step."""
    for i in range(len(items) - 1, 0, -1):
        j = next_below(rng, i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def choice_one(rng: Rng, weights) -> int:
    """One index drawn with probability proportional to `weights`: the first
    whose running sum exceeds next_float * sum(weights), else the last."""
    u = next_float(rng) * float(np.sum(weights))
    acc = 0.0
    for i, w in enumerate(weights):
        acc += float(w)
        if u < acc:
            return i
    return len(weights) - 1


def next_domain_one(state: SamplerState, rng: Rng):
    """One domain under the current weights and the state one token on."""
    domain = state.current.domains[choice_one(rng, state.current.weights)]
    return domain, replace(state, tokens_since_update=state.tokens_since_update + 1)


def unmix(z: int) -> int:
    """The inverse of the splitmix64 output mix."""
    z ^= (z >> 31) ^ (z >> 62)
    z = z * pow(MIX_B, -1, 1 << 64) & MASK64
    z ^= (z >> 27) ^ (z >> 54)
    z = z * pow(MIX_A, -1, 1 << 64) & MASK64
    return z ^ (z >> 30) ^ (z >> 60)


def state_before_output(out: int, draws_before: int) -> int:
    """A state from which the (draws_before + 1)-th next_u64 returns `out`."""
    return (unmix(out) - (draws_before + 1) * GAMMA) & MASK64


def swish(z: np.ndarray) -> np.ndarray:
    """Swish activation z * sigmoid(z) (the nonlinearity inside SwiGLU)."""
    z = np.asarray(z, dtype=np.float64)
    return z * sigmoid(z)


def uniform_weights() -> DomainWeights:
    n = len(DEFAULT_DOMAINS)
    return DomainWeights(domains=DEFAULT_DOMAINS, weights=np.full(n, 1.0 / n))


def static_state(weights: DomainWeights) -> SamplerState:
    return SamplerState(
        current=weights,
        reference_weights=weights,
        reference_loss=np.zeros(len(weights.domains)),
        mode=SamplerMode.STATIC,
        update_interval_tokens=1,
    )
