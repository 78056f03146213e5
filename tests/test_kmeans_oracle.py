"""The shared k-means against the two broadcast-distance loops it replaced.

The oracles below are the balanced (neuron clustering) and unbalanced (data
grouping) Lloyd loops as they stood before `partition.kmeans`: each builds
the full (rows, n, d) difference tensor for its distances. The shared loop
takes distances in Gram form, which differ from these in the last bits, so
the assignments are compared, and must be identical.
"""

import tracemalloc

import numpy as np
import pytest

from moeforge.dense_ffn import DenseFfn
from moeforge.importance import group_data_by_clustering
from moeforge.partition import split_independent_clustering
from moeforge.tensor import Rng

MAX_ITERS = 100


def oracle_balanced(ffn, n, rng):
    """Balanced k-means over the columns of W_up; returns the index sets."""
    m = ffn.d_h // n
    points = ffn.w_up.T.copy()
    d_h = ffn.d_h
    idx = rng.shuffle(list(range(d_h)))[:n]
    centroids = points[idx].copy()

    assign = np.full(d_h, -1, dtype=int)
    for _ in range(MAX_ITERS):
        dist = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=2)
        margin = dist - dist.mean(axis=1, keepdims=True)
        order = np.argsort(margin, axis=None, kind="stable")
        new_assign = np.full(d_h, -1, dtype=int)
        capacity = np.full(n, m, dtype=int)
        placed = 0
        for flat in order:
            p, c = divmod(int(flat), n)
            if new_assign[p] == -1 and capacity[c] > 0:
                new_assign[p] = c
                capacity[c] -= 1
                placed += 1
                if placed == d_h:
                    break
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(n):
            centroids[c] = points[assign == c].mean(axis=0)
    return tuple(tuple(int(i) for i in np.flatnonzero(assign == c)) for c in range(n))


def oracle_grouping(samples, n, rng):
    """Unbalanced k-means on the samples; returns n index groups."""
    pts = np.asarray(samples, dtype=np.float64)
    idx = rng.shuffle(list(range(len(samples))))[:n]
    centroids = pts[idx].copy()

    assign = np.full(len(samples), -1, dtype=int)
    for _ in range(MAX_ITERS):
        dist = np.linalg.norm(pts[:, None, :] - centroids[None, :, :], axis=2)
        new_assign = np.argmin(dist, axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(n):
            members = pts[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return [[int(i) for i in np.flatnonzero(assign == c)] for c in range(n)]


def as_groups(labels, n):
    """The n index groups of a label vector, in group order."""
    assert labels.shape == (labels.size,)
    return [[int(i) for i in np.flatnonzero(labels == c)] for c in range(n)]


def ffn_with_up(w_up):
    d, d_h = w_up.shape
    return DenseFfn(w_up=w_up, w_gate=np.zeros((d, d_h)), w_down=np.zeros((d_h, d)))


def gaussian(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


@pytest.mark.parametrize(
    "d,d_h,n", [(4, 16, 4), (8, 32, 1), (16, 64, 8), (64, 256, 16), (128, 512, 8)]
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_balanced_matches_oracle(d, d_h, n, seed):
    ffn = ffn_with_up(gaussian((d, d_h), seed) / np.sqrt(d))
    got = split_independent_clustering(ffn, n, Rng(seed + 10)).sets
    assert got == oracle_balanced(ffn, n, Rng(seed + 10))


@pytest.mark.parametrize("column", ["ones", "gaussian"])
def test_balanced_identical_vectors_match_oracle(column):
    v = np.ones(6) if column == "ones" else gaussian(6, 4)
    ffn = ffn_with_up(np.tile(v[:, None], (1, 24)))
    got = split_independent_clustering(ffn, 4, Rng(5)).sets
    assert got == oracle_balanced(ffn, 4, Rng(5))


@pytest.mark.parametrize(
    "d,count,n", [(128, 256, 8), (1024, 128, 16), (16, 16, 4), (3, 20, 1)]
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_grouping_matches_oracle(d, count, n, seed):
    samples = list(gaussian((count, d), seed))
    got = as_groups(group_data_by_clustering(samples, n, Rng(seed + 10)), n)
    assert got == oracle_grouping(samples, n, Rng(seed + 10))


@pytest.mark.parametrize("column", ["ones", "gaussian"])
def test_grouping_identical_samples_match_oracle(column):
    v = np.ones(5) if column == "ones" else gaussian(5, 6)
    samples = [v.copy() for _ in range(12)]
    got = as_groups(group_data_by_clustering(samples, 3, Rng(7)), 3)
    assert got == oracle_grouping(samples, 3, Rng(7))
    # every centroid starts on the same point, so ties send all to group 0
    assert got == [list(range(12)), [], []]


def test_grouping_with_an_empty_group_matches_oracle():
    # 4 distinct points, 5 copies each, 6 groups: two seed centroids coincide
    # and the higher-indexed one never wins a sample
    points = gaussian((4, 3), 8) * 10.0
    samples = [points[i % 4] for i in range(20)]
    got = as_groups(group_data_by_clustering(samples, 6, Rng(9)), 6)
    assert got == oracle_grouping(samples, 6, Rng(9))
    assert any(not g for g in got)


def peak_traced_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_no_rows_by_clusters_by_dim_temporary():
    # a (1024, 16, 256) float64 difference tensor alone is 33.5 MB
    d, d_h, n = 256, 1024, 16
    ffn = ffn_with_up(gaussian((d, d_h), 11) / np.sqrt(d))
    assert peak_traced_mb(split_independent_clustering, ffn, n, Rng(12)) < 16.0
    samples = list(gaussian((1024, d), 13))
    assert peak_traced_mb(group_data_by_clustering, samples, n, Rng(14)) < 16.0
