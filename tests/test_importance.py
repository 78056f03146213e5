import hashlib
import sys
import tracemalloc

import numpy as np
import pytest

from moeforge import dense_ffn, importance
from moeforge.cli import ffn_to_mft, main
from moeforge.dense_ffn import EVAL_ROWS, DenseFfn, ffn_forward
from moeforge.importance import (
    DataGroup,
    accumulate_importance,
    group_data_by_clustering,
    importance_by_groups,
    synthetic_importance,
)
from moeforge.tensor import Rng

SIGMOID_1 = 0.7310585786300049


def score(ffn, samples):
    """One group's (d_h,) vector: every sample labelled 0 of one group."""
    return accumulate_importance(ffn, DataGroup(samples), [0] * len(samples), 1)[0]


def as_groups(labels, n):
    """The n index groups of a label vector, in group order."""
    return [[int(i) for i in np.flatnonzero(labels == c)] for c in range(n)]


def make_samples(ffn, rng, count):
    """(x, target) pairs for L = 0.5 * ||y - target||^2."""
    return [(rng.normal_array((ffn.d,)), rng.normal_array((ffn.d,))) for _ in range(count)]


class TestAccumulate:
    def test_empty_group(self):
        ffn = DenseFfn.random(4, 8, Rng(0))
        v = score(ffn, [])
        assert v.tobytes() == np.zeros(8).tobytes()

    def test_zero_gradient(self):
        # every target is the teacher's own output, so grad_y = y - target = 0
        ffn = DenseFfn.random(4, 8, Rng(1))
        xs = np.repeat(Rng(2).normal_array((1, 4)), 3, axis=0)
        targets, _ = ffn_forward(ffn, xs)
        assert np.array_equal(score(ffn, list(zip(xs, targets))), np.zeros(8))

    def test_scalar_hand_evaluation(self):
        ffn = DenseFfn(w_up=[[1.0]], w_gate=[[1.0]], w_down=[[1.0]])
        v = score(ffn, [(np.array([1.0]), np.array([0.0]))])
        # h = sigma(1), y = h * w_down = sigma(1), grad_y = y - target =
        # sigma(1), grad_h = grad_y * w_down = sigma(1), increment = sigma(1)^2
        assert v.shape == (1,) and abs(v[0] - SIGMOID_1**2) < 1e-12

    def test_additivity(self):
        ffn = DenseFfn.random(4, 8, Rng(3))
        samples = make_samples(ffn, Rng(4), 10)
        v_a = score(ffn, samples[:6])
        v_b = score(ffn, samples[6:])
        v_union = score(ffn, samples)
        assert np.abs(v_a + v_b - v_union).max() <= 1e-12

    def test_nonnegative(self):
        ffn = DenseFfn.random(4, 8, Rng(5))
        for seed in range(5):
            v = score(ffn, make_samples(ffn, Rng(seed), 4))
            assert v.shape == (8,) and np.all(v >= 0.0)

    @pytest.mark.parametrize("shape", [(4, 2, 3), (2, 3, 4), (6,)])
    def test_samples_must_be_pairs_of_length_d(self, shape):
        # 24 values would reshape into three pairs of length 4 if only the
        # total counted
        ffn = DenseFfn.random(4, 8, Rng(6))
        with pytest.raises(ValueError):
            score(ffn, np.zeros(shape))

    def test_samples_must_be_finite(self):
        ffn = DenseFfn.random(4, 8, Rng(6))
        pairs = np.zeros((3, 2, 4))
        pairs[2, 1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            score(ffn, pairs)


class TestGrouping:
    def test_single_group(self):
        samples = [Rng(7).normal_array((3,)) for _ in range(5)]
        groups = as_groups(group_data_by_clustering(samples, 1, Rng(8)), 1)
        assert sorted(groups[0]) == list(range(5))

    def test_two_blobs_are_pure(self):
        rng = Rng(9)
        blob_a = [rng.normal_array((2,)) * 0.1 for _ in range(10)]
        blob_b = [rng.normal_array((2,)) * 0.1 + 20.0 for _ in range(10)]
        groups = as_groups(group_data_by_clustering(blob_a + blob_b, 2, Rng(10)), 2)
        sets = [set(g) for g in groups]
        assert {frozenset(s) for s in sets} == {
            frozenset(range(10)),
            frozenset(range(10, 20)),
        }
        # every sample sits with its nearest converged centroid
        pts = np.asarray(blob_a + blob_b)
        centroids = [pts[g].mean(axis=0) for g in groups]
        for c, g in enumerate(groups):
            for i in g:
                dists = [np.linalg.norm(pts[i] - mu) for mu in centroids]
                assert int(np.argmin(dists)) == c

    def test_determinism(self):
        samples = [Rng(11).normal_array((3,)) for _ in range(20)]
        a = group_data_by_clustering(samples, 3, Rng(12))
        b = group_data_by_clustering(samples, 3, Rng(12))
        assert a.shape == (20,) and np.array_equal(a, b)

    def test_too_many_groups(self):
        with pytest.raises(ValueError):
            group_data_by_clustering([np.zeros(2)], 2, Rng(0))


class TestTaylorSanity:
    def test_pruning_least_important_changes_loss_least(self):
        # first-order sanity: over many seeds, zeroing the least-important
        # neuron changes the loss (on average) no more than zeroing the most
        # important one does
        deltas_low, deltas_high = [], []
        for seed in range(100):
            rng = Rng(seed)
            ffn = DenseFfn.random(4, 8, rng)
            samples = make_samples(ffn, rng, 16)
            v = score(ffn, samples)
            lo = int(np.argmin(v))
            hi = int(np.argmax(v))

            def loss_without(neuron):
                # re-evaluate the loss with the neuron zeroed
                total = 0.0
                pruned = DenseFfn(
                    w_up=ffn.w_up,
                    w_gate=ffn.w_gate,
                    w_down=np.vstack(
                        [
                            ffn.w_down[j] if j != neuron else np.zeros(ffn.d)
                            for j in range(ffn.d_h)
                        ]
                    ),
                )
                for x, target in samples:
                    y, _ = ffn_forward(ffn, x)
                    yp, _ = ffn_forward(pruned, x)
                    total += 0.5 * np.sum((yp - target) ** 2) - 0.5 * np.sum(
                        (y - target) ** 2
                    )
                return abs(total)

            deltas_low.append(loss_without(lo))
            deltas_high.append(loss_without(hi))
        assert np.mean(deltas_high) - np.mean(deltas_low) >= 0.0


def one_pass(ffn, pairs):
    """Oracle: the group's score from one forward and one pull-back of
    grad_y = y - target over all its rows, summed over the rows in one go."""
    pairs = np.asarray(pairs)
    y, h = ffn_forward(ffn, pairs[:, 0])
    return np.zeros(ffn.d_h) + np.abs(h * ((y - pairs[:, 1]) @ ffn.w_down.T)).sum(axis=0)


def synthetic_pairs(ffn, rng, count):
    """(count, 2, d): inputs, then targets, as the CLI draws them."""
    return rng.normal_array((count, 2, ffn.d))


def assert_matches_one_pass(v, expect, rows):
    """Bit for bit from 16 rows up. A smaller group takes another BLAS kernel
    alone than inside a chunk (for y = H @ W_down over d_h = 512, OpenBLAS's
    small-matrix path, which sums in another order), so it may differ in its
    last bits."""
    if rows >= 16:
        assert v.tobytes() == expect.tobytes()
    else:
        assert np.abs(v - expect).max() <= 1e-12 * expect.max()


class TestChunkedScoring:
    """All groups are scored in one pass, EVAL_ROWS samples at a time; each
    group's vector must be its one-pass score, so no split output moves."""

    @pytest.mark.parametrize("rows", [1, 2, 64, 65, 66, 129, 150, 300])
    def test_matches_one_pass_bitwise(self, rows):
        ffn = DenseFfn.random(128, 512, Rng(rows))
        pairs = synthetic_pairs(ffn, Rng(1000 + rows), rows)
        for samples in (pairs, list(map(tuple, pairs))):
            v = score(ffn, samples)
            assert v.tobytes() == one_pass(ffn, pairs).tobytes()

    def test_groups_match_one_pass_bitwise(self):
        ffn = DenseFfn.random(128, 512, Rng(21))
        pairs = synthetic_pairs(ffn, Rng(22), 400)
        vecs = importance_by_groups(ffn, pairs, 3, Rng(23))
        groups = as_groups(group_data_by_clustering(list(pairs[:, 0]), 3, Rng(23)), 3)
        assert max(map(len, groups)) > EVAL_ROWS
        assert vecs.shape == (3, 512)
        for v, idx in zip(vecs, groups):
            assert v.tobytes() == one_pass(ffn, pairs[idx]).tobytes()

    def test_small_clustered_groups_match_one_pass(self):
        # 16 groups over 128 samples, as in the wide benchmark split
        ffn = DenseFfn.random(128, 512, Rng(21))
        pairs = synthetic_pairs(ffn, Rng(22), 128)
        vecs = importance_by_groups(ffn, pairs, 16, Rng(23))
        groups = as_groups(group_data_by_clustering(pairs[:, 0], 16, Rng(23)), 16)
        assert {1, 2} <= set(map(len, groups))
        for v, idx in zip(vecs, groups):
            assert_matches_one_pass(v, one_pass(ffn, pairs[idx]), len(idx))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_labelled_groups_match_one_pass(self, seed):
        # groups of 1, 2, 3, 70 and 74 samples, shuffled so that each spans
        # chunks, and a sixth group with no sample
        sizes = [1, 2, 3, 70, 74, 0]
        ffn = DenseFfn.random(128, 512, Rng(30 + seed))
        pairs = synthetic_pairs(ffn, Rng(40 + seed), sum(sizes))
        labels = np.random.default_rng(seed).permutation(np.repeat(np.arange(6), sizes))
        vecs = accumulate_importance(ffn, DataGroup(pairs), labels, 6)
        assert vecs.shape == (6, 512)
        for c, rows in enumerate(sizes[:-1]):
            assert_matches_one_pass(vecs[c], one_pass(ffn, pairs[labels == c]), rows)
        assert vecs[5].tobytes() == np.zeros(512).tobytes()

    @pytest.mark.parametrize("labels", [
        [0, 1], [0, 1, 2, 0], [[0, 1, 2]], [0, 1, 3], [0, -1, 1], [0.0, 1.0, 2.0],
    ])
    def test_labels_must_be_group_indices(self, labels):
        ffn = DenseFfn.random(4, 8, Rng(6))
        with pytest.raises(ValueError, match="label"):
            accumulate_importance(ffn, DataGroup(np.zeros((3, 2, 4))), labels, 3)


def small_split(tmp_path):
    """`main`'s exit code for a small sharing_inter split of 150 samples."""
    teacher = str(tmp_path / "teacher.mft")
    ffn_to_mft(teacher, DenseFfn.random(8, 32, Rng(5)))
    return main([
        "split", "--ffn", teacher, "--method", "sharing_inter", "--experts", "4",
        "--topk", "2", "--importance-samples", "150", "--seed", "3",
        "--out-partition", str(tmp_path / "p.json"), "--out-layer", str(tmp_path / "l.mft"),
    ])


def test_split_scores_every_sample_in_one_call(tmp_path, monkeypatch):
    # the teacher is read once per chunk of samples, not once per group
    calls = []

    def counted(ffn, group, labels, n):
        calls.append((len(group.samples), n))
        return scorer(ffn, group, labels, n)

    scorer = importance.accumulate_importance
    monkeypatch.setattr(importance, "accumulate_importance", counted)
    assert small_split(tmp_path) == 0
    assert calls == [(150, 4)]


def test_split_runs_no_separate_teacher_forward(tmp_path, monkeypatch):
    # scoring takes y from the h it already forms, so no path of a split
    # calls `ffn_forward`
    calls = []

    def counted(*args):
        calls.append(args)
        return forward(*args)

    forward = dense_ffn.ffn_forward
    for name, module in list(sys.modules.items()):
        if name.startswith("moeforge") and getattr(module, "ffn_forward", None) is forward:
            monkeypatch.setattr(module, "ffn_forward", counted)
    assert small_split(tmp_path) == 0
    assert calls == []


def test_synthetic_importance_memory_is_bounded():
    # one (4096, 1024) float64 temporary alone is 32 MB; scored in chunks the
    # peak stays near the (4096, 2, 16) pairs array
    ffn = DenseFfn.random(16, 1024, Rng(0))
    tracemalloc.start()
    try:
        vecs = synthetic_importance(ffn, 8, 1, 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(vecs) == 8
    assert peak < 16 * 2**20


@pytest.mark.parametrize("d, d_h, n, num_samples, digest", [
    (128, 512, 8, 256, "af6d980dc0cdd9fa7634654ae455749832d6de37efdf9cb7c928c49052aa94a5"),
    (1024, 2752, 16, 128, "2508c87bfcd0261e8bb001d43a3ee19b5e81f4da49ffb58b6d7a2df7e5a3c0b3"),
])
def test_synthetic_importance_bytes_are_pinned(d, d_h, n, num_samples, digest):
    # the desk and wide benchmark shapes, seed 1
    vecs = synthetic_importance(DenseFfn.random(d, d_h, Rng(1)), n, 1, num_samples)
    assert [v.shape for v in vecs] == [(d_h,)] * n
    assert hashlib.sha256(b"".join(v.tobytes() for v in vecs)).hexdigest() == digest
