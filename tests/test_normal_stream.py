"""The block normal stream of `Rng.normal_array` against per-draw Box-Muller.

`reference_normals` below is the per-draw loop `normal_array` replaced: one
xorshift64* uniform at a time, a zero u1 redrawn, the sin half of each pair
cached as the spare. The block stream must give the same values bit for bit
and leave the generator in the same state, spare normal included.
"""

import tracemalloc

import numpy as np
import pytest

from moeforge.tensor import Rng

MASK64 = (1 << 64) - 1
MUL = 0x2545F4914F6CDD1D


def reference_normals(rng: Rng, n: int) -> np.ndarray:
    out = []
    for _ in range(n):
        if rng._spare_normal is not None:
            out.append(rng._spare_normal)
            rng._spare_normal = None
            continue
        u1 = rng.next_float()
        while u1 == 0.0:
            u1 = rng.next_float()
        u2 = rng.next_float()
        r = np.sqrt(-2.0 * np.log(u1))
        rng._spare_normal = float(r * np.sin(2.0 * np.pi * u2))
        out.append(float(r * np.cos(2.0 * np.pi * u2)))
    return np.array(out, dtype=np.float64)


def assert_same_stream(seed, shape, scale=1.0, spare=False, state=None):
    block, ref = Rng(seed), Rng(seed)
    for rng in (block, ref):
        if state is not None:
            rng._state = state
        if spare:
            rng.next_normal()
    got = block.normal_array(shape, scale)
    want = reference_normals(ref, int(np.prod(shape))).reshape(shape) * scale
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert block._state == ref._state
    assert block._spare_normal == ref._spare_normal


def xorshift_inverse(y: int) -> int:
    """The state whose xorshift (12, 25, 27) step gives y."""
    x = y ^ (y >> 27) ^ (y >> 54)
    x = (x ^ (x << 25) ^ (x << 50)) & MASK64
    return x ^ (x >> 12) ^ (x >> 24) ^ (x >> 36) ^ (x >> 48) ^ (x >> 60)


def state_before_output(out: int, draws_before: int) -> int:
    """A state from which the (draws_before + 1)-th next_u64() returns `out`."""
    x = out * pow(MUL, -1, 1 << 64) & MASK64
    for _ in range(draws_before + 1):
        x = xorshift_inverse(x)
    return x


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 255, 256, 257, 511, 512, 513])
@pytest.mark.parametrize("spare", [False, True])
def test_small_counts(seed, n, spare):
    assert_same_stream(seed, (n,), spare=spare)


@pytest.mark.parametrize("n", [65535, 65536, 65537, 131073])
def test_block_edges(n):
    assert_same_stream(3, (n,))


@pytest.mark.parametrize("spare", [False, True])
def test_importance_shape(spare):
    assert_same_stream(12345, (128, 2, 1024), spare=spare)


@pytest.mark.parametrize("shape", [(3, 5), (7,), (1,), (0,), (4, 0, 2), ()])
def test_shapes_and_scale(shape):
    assert_same_stream(1, shape, scale=0.1, spare=True)
    assert_same_stream(1, shape, scale=-3.0)


def test_spare_left_out_then_carried_in():
    block, ref = Rng(9), Rng(9)
    parts = [block.normal_array((n,)) for n in (3, 5, 1, 2, 7)]
    assert np.array_equal(np.concatenate(parts), reference_normals(ref, 18))
    assert block._state == ref._state and block._spare_normal == ref._spare_normal


def test_inverse_builds_the_wanted_output():
    rng = Rng(0)
    rng._state = state_before_output(12345, 4)
    assert [rng.next_u64() for _ in range(5)][-1] == 12345


@pytest.mark.parametrize("draws_before", [0, 1, 10, 11, 600])
@pytest.mark.parametrize("n", [2, 7, 1000])
def test_zero_uniform(draws_before, n):
    # an output below 2**11 is the uniform 0.0: as u1 it is redrawn, which
    # shifts every later pair; as u2 it is used
    state = state_before_output(1, draws_before)
    assert_same_stream(0, (n,), state=state)
    assert_same_stream(0, (n,), state=state, spare=True)


def test_peak_memory_bounded():
    rng = Rng(0)
    tracemalloc.start()
    try:
        out = rng.normal_array((2048, 2048))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes + 8e6
