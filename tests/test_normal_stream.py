"""The bulk draws of `Rng` against a scalar splitmix64 oracle.

The oracle is the stream one Python-int `next_u64()` at a time: each draw
turned into the float (x >> 11) * 2**-53, consecutive floats (u1, u2) into
the Box-Muller pair of (1 - u1, u2), and the sin half of an odd count's last
pair dropped. `_u64_block`, `normal_array` and bulk `choice_weighted` must
give the same values bit for bit and leave the generator in the same state.
"""

import tracemalloc

import numpy as np
import pytest

from moeforge.tensor import Rng

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX_A, MIX_B = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
COUNTS = [0, 1, 2, 3, 4, 5, 255, 256, 257, 65535, 65536, 65537, 131073]


def reference_floats(rng: Rng, n: int) -> list[float]:
    return [(rng.next_u64() >> 11) * 2.0**-53 for _ in range(n)]


def reference_normals(rng: Rng, n: int) -> np.ndarray:
    u = reference_floats(rng, n + n % 2)
    out = []
    for u1, u2 in zip(u[0::2], u[1::2]):
        r = np.sqrt(-2.0 * np.log(1.0 - u1))
        out += [float(r * np.cos(2.0 * np.pi * u2)), float(r * np.sin(2.0 * np.pi * u2))]
    return np.array(out[:n], dtype=np.float64)


def assert_same_stream(seed, shape, scale=1.0, after_single=False, state=None):
    block, ref = Rng(seed), Rng(seed)
    for rng in (block, ref):
        if state is not None:
            rng._state = state
    if after_single:  # one normal_array(()) first: two draws, its sin half dropped
        first = block.normal_array(())
        assert np.float64(first).view(np.uint64) == reference_normals(ref, 1).view(np.uint64)[0]
    got = block.normal_array(shape, scale)
    want = reference_normals(ref, int(np.prod(shape))).reshape(shape) * scale
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert block._state == ref._state


def unmix(z: int) -> int:
    """The inverse of the splitmix64 output mix."""
    z ^= (z >> 31) ^ (z >> 62)
    z = z * pow(MIX_B, -1, 1 << 64) & MASK64
    z ^= (z >> 27) ^ (z >> 54)
    z = z * pow(MIX_A, -1, 1 << 64) & MASK64
    return z ^ (z >> 30) ^ (z >> 60)


def state_before_output(out: int, draws_before: int) -> int:
    """A state from which the (draws_before + 1)-th next_u64() returns `out`."""
    return (unmix(out) - (draws_before + 1) * GAMMA) & MASK64


def test_next_u64_is_splitmix64():
    # the published splitmix64 outputs for seed 1234567
    rng = Rng(1234567)
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821,
    ]
    assert Rng(-1)._state == MASK64 and Rng(1 << 64)._state == 0


@pytest.mark.parametrize("count", COUNTS)
def test_u64_block_matches_single_draws(count):
    block, ref = Rng(5), Rng(5)
    block.next_u64(), ref.next_u64()
    got = block._u64_block(count)
    assert got.dtype == np.uint64
    assert got.tolist() == [ref.next_u64() for _ in range(count)]
    assert block._state == ref._state


@pytest.mark.parametrize("count", COUNTS)
def test_choice_weighted_matches_single_draws(count):
    weights = np.array([0.1, 0.0, 0.25, 0.05, 0.3, 0.0, 0.3])
    block, ref = Rng(6), Rng(6)
    got = block.choice_weighted(weights, count)
    assert got.tolist() == [ref.choice_weighted(weights) for _ in range(count)]
    assert block._state == ref._state


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 255, 256, 257, 511, 512, 513])
@pytest.mark.parametrize("after_single", [False, True])
def test_small_counts(seed, n, after_single):
    assert_same_stream(seed, (n,), after_single=after_single)


@pytest.mark.parametrize("n", [65535, 65536, 65537, 131073])
def test_block_edges(n):
    assert_same_stream(3, (n,))


@pytest.mark.parametrize("after_single", [False, True])
def test_importance_shape(after_single):
    assert_same_stream(12345, (128, 2, 1024), after_single=after_single)


@pytest.mark.parametrize("shape", [(3, 5), (7,), (1,), (0,), (4, 0, 2), ()])
def test_shapes_and_scale(shape):
    assert_same_stream(1, shape, scale=0.1, after_single=True)
    assert_same_stream(1, shape, scale=-3.0)


def test_chain_of_odd_calls():
    # each odd call drops its last sin half; the next call starts a new pair
    block, ref = Rng(9), Rng(9)
    parts = [block.normal_array((n,)) for n in (3, 5, 1, 2, 7)]
    want = np.concatenate([reference_normals(ref, n) for n in (3, 5, 1, 2, 7)])
    assert np.array_equal(np.concatenate(parts), want)
    assert block._state == ref._state
    assert block.next_u64() == ref.next_u64()


def test_inverse_builds_the_wanted_output():
    rng = Rng(0)
    rng._state = state_before_output(12345, 4)
    assert [rng.next_u64() for _ in range(5)][-1] == 12345


@pytest.mark.parametrize("draws_before", [0, 1, 10, 11, 600])
@pytest.mark.parametrize("n", [2, 7, 1000])
def test_zero_uniform(draws_before, n):
    # an output below 2**11 is the uniform 0.0. As u1 it becomes 1 - 0 = 1,
    # so r = 0; as u2 the angle is 0. Either way the sin half of its pair is
    # 0 and nothing is redrawn, so every later pair keeps its place.
    state = state_before_output(1, draws_before)
    rng = Rng(0)
    rng._state = state
    assert reference_floats(rng, draws_before + 1)[-1] == 0.0
    rng._state = state
    z = rng.normal_array((n,))
    if draws_before | 1 < n:
        assert z[draws_before | 1] == 0.0
    assert_same_stream(0, (n,), state=state)
    assert_same_stream(0, (n,), state=state, after_single=True)


def test_peak_memory_bounded():
    rng = Rng(0)
    tracemalloc.start()
    try:
        out = rng.normal_array((2048, 2048))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes + 8e6
