import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from moeforge.dense_ffn import DenseFfn, ffn_forward
from moeforge.partition import (
    ExpertPartition,
    PartitionMethod,
    slice_expert,
    slice_experts,
    split_independent_clustering,
    split_independent_random,
    split_sharing_inner,
    split_sharing_inter,
)
from moeforge.tensor import Rng, top_k_indices


def assert_disjoint_cover(partition, d_h):
    """Set-algebra oracle: union == U and pairwise intersections empty."""
    all_indices = [i for s in partition.sets for i in s]
    assert sorted(all_indices) == list(range(d_h))
    for a, b in itertools.combinations(partition.sets, 2):
        assert not (set(a) & set(b))


class TestIndependentRandom:
    def test_trivial_partition(self):
        p = split_independent_random(8, 1, Rng(0))
        assert p.sets == (tuple(range(8)),)

    def test_singleton_partition(self):
        p = split_independent_random(8, 8, Rng(0))
        assert sorted(s[0] for s in p.sets) == list(range(8))
        assert all(len(s) == 1 for s in p.sets)

    def test_disjoint_cover(self):
        p = split_independent_random(16, 4, Rng(42))
        assert_disjoint_cover(p, 16)
        assert all(len(s) == 4 for s in p.sets)

    def test_indivisible_errors(self):
        with pytest.raises(ValueError):
            split_independent_random(16, 3, Rng(0))

    def test_determinism(self):
        a = split_independent_random(32, 4, Rng(7))
        b = split_independent_random(32, 4, Rng(7))
        assert a.sets == b.sets


class TestIndependentClustering:
    def test_single_cluster(self):
        ffn = DenseFfn.random(4, 8, Rng(1))
        p = split_independent_clustering(ffn, 1, Rng(2))
        assert p.sets == (tuple(range(8)),)

    def test_two_blobs_vs_brute_force(self):
        # neuron vectors are the columns of w_up
        w_up = np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 0.1, 10.0, 10.1]])
        ffn = DenseFfn(w_up=w_up, w_gate=np.zeros((2, 4)), w_down=np.zeros((4, 2)))

        # brute force over all balanced 2-partitions: minimize within-cluster
        # sum of squared distances to the cluster mean
        pts = w_up.T
        best = None
        best_cost = np.inf
        for combo in itertools.combinations(range(4), 2):
            a = list(combo)
            b = [i for i in range(4) if i not in combo]
            cost = 0.0
            for grp in (a, b):
                mu = pts[grp].mean(axis=0)
                cost += sum(np.sum((pts[i] - mu) ** 2) for i in grp)
            if cost < best_cost:
                best_cost = cost
                best = frozenset([tuple(a), tuple(sorted(b))])
        assert best == frozenset([(0, 1), (2, 3)])

        p = split_independent_clustering(ffn, 2, Rng(3))
        assert frozenset(p.sets) == best

    def test_sizes_always_balanced(self):
        for seed in range(10):
            ffn = DenseFfn.random(5, 20, Rng(seed))
            p = split_independent_clustering(ffn, 4, Rng(seed + 100))
            assert all(len(s) == 5 for s in p.sets)
            assert_disjoint_cover(p, 20)

    def test_degenerate_identical_vectors(self):
        ffn = DenseFfn(
            w_up=np.ones((3, 8)), w_gate=np.zeros((3, 8)), w_down=np.zeros((8, 3))
        )
        p = split_independent_clustering(ffn, 2, Rng(5))
        assert all(len(s) == 4 for s in p.sets)
        assert_disjoint_cover(p, 8)

    def test_determinism(self):
        ffn = DenseFfn.random(4, 16, Rng(9))
        a = split_independent_clustering(ffn, 4, Rng(10))
        b = split_independent_clustering(ffn, 4, Rng(10))
        assert a.sets == b.sets


class TestSharingInner:
    def test_single_expert(self):
        v = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        p = split_sharing_inner([v], 2)
        assert p.sets == ((2, 4),)

    def test_identical_vectors_full_overlap(self):
        v = np.array([1.0, 5.0, 3.0, 2.0])
        p = split_sharing_inner([v, v.copy()], 2)
        assert p.sets[0] == p.sets[1]

    def test_hand_topk_with_tie_rule(self):
        v1 = np.array([3.0, 1.0, 2.0, 0.0])
        v2 = np.array([0.0, 1.0, 2.0, 3.0])
        p = split_sharing_inner([v1, v2], 2)
        assert p.sets == ((0, 2), (2, 3))

    def test_ties_break_toward_lower_index(self):
        v = np.array([1.0, 1.0, 1.0, 1.0])
        p = split_sharing_inner([v], 2)
        assert p.sets == ((0, 1),)

    def test_m_too_large(self):
        with pytest.raises(ValueError):
            split_sharing_inner([np.zeros(4)], 5)

    def test_union_subset_of_universe(self):
        rng = Rng(12)
        vecs = [np.abs(rng.normal_array((10,))) for _ in range(3)]
        p = split_sharing_inner(vecs, 4)
        assert all(len(s) == 4 for s in p.sets)
        assert set().union(*map(set, p.sets)) <= set(range(10))


class TestSharingInter:
    def test_disjoint_provisional_equals_inner(self):
        v1 = np.array([9.0, 8.0, 0.0, 0.0])
        v2 = np.array([0.0, 0.0, 9.0, 8.0])
        inter = split_sharing_inter([v1, v2], 2, residual_threshold=1.0)
        inner = split_sharing_inner([v1, v2], 2)
        assert inter.shared_residual == ()
        assert inter.sets == inner.sets

    def test_hand_trace_full_overlap(self):
        v = np.array([9.0, 8.0, 1.0, 0.0])
        p = split_sharing_inter([v, v.copy()], 2, residual_threshold=1.0)
        assert p.shared_residual == (0, 1)
        assert p.sets == ((2, 3), (2, 3))

    def test_residual_disjoint_from_sets(self):
        rng = Rng(13)
        vecs = [np.abs(rng.normal_array((12,))) for _ in range(4)]
        p = split_sharing_inter(vecs, 3, residual_threshold=0.5)
        assert list(p.shared_residual) == sorted(p.shared_residual)
        for s in p.sets:
            assert len(s) == 3
            assert not (set(s) & set(p.shared_residual))

    def test_insufficient_candidates_errors(self):
        v = np.array([9.0, 8.0, 7.0, 6.0])
        # threshold met by everything in the provisional sets
        with pytest.raises(ValueError, match="only 1 candidates available, need 3"):
            split_sharing_inter([v, v.copy()], 3, residual_threshold=0.5)


def top_m_oracle(values, m, exclude=()):
    """Per-expert oracle: indices of the m largest entries of one importance
    vector outside `exclude`, ascending; ties break toward the lower index."""
    candidates = np.delete(np.arange(len(values)), exclude)
    if len(candidates) < m:
        raise ValueError(f"only {len(candidates)} candidates available, need {m}")
    return tuple(candidates[top_k_indices(values[candidates], m)].tolist())


def sharing_oracle(vecs, m, residual_threshold):
    """The inner sets, then the inter residual and sets, one expert at a
    time; the inter pair is the oracle's ValueError if it raises one."""
    inner = tuple(top_m_oracle(v, m) for v in vecs)
    need = int(np.ceil(residual_threshold * len(vecs)))
    membership = np.bincount(np.concatenate(inner), minlength=len(vecs[0]))
    residual = tuple(int(i) for i in np.flatnonzero(membership >= need))
    try:
        return inner, (tuple(top_m_oracle(v, m, exclude=residual) for v in vecs), residual)
    except ValueError as err:
        return inner, err


@st.composite
def importance_cases(draw):
    """Small matrices of a few integer values, so ties are common, and NaN in
    some of them; an expert size m; a threshold in (0, 1]; list or array."""
    n, d_h = draw(st.integers(1, 5)), draw(st.integers(1, 10))
    entry = st.sampled_from([0.0, 1.0, 2.0, 3.0] + [np.nan] * draw(st.booleans()))
    rows = [draw(st.lists(entry, min_size=d_h, max_size=d_h)) for _ in range(n)]
    threshold = draw(st.one_of(
        st.floats(0.0, 1.0, exclude_min=True), st.sampled_from([1 / 3, 0.5, 2 / 3, 1.0])
    ))
    return np.array(rows), draw(st.integers(1, d_h)), threshold, draw(st.booleans())


class TestSharingOracle:
    """Both sharing splits select all experts with one `top_k_indices` call
    over the (n, d_h) matrix; each row must be the per-expert oracle's set."""

    @given(importance_cases())
    def test_matches_per_expert_oracle(self, case):
        imp, m, threshold, as_list = case
        arg = list(imp) if as_list else imp
        inner, inter = sharing_oracle(list(imp), m, threshold)
        assert split_sharing_inner(arg, m).sets == inner
        if isinstance(inter, ValueError):
            with pytest.raises(ValueError, match=str(inter)):
                split_sharing_inter(arg, m, threshold)
        else:
            p = split_sharing_inter(arg, m, threshold)
            assert (p.sets, p.shared_residual) == inter

    @pytest.mark.parametrize("importance", [
        [np.zeros(4), np.zeros(5)], np.zeros(4), np.zeros((2, 2, 4)), [],
    ], ids=["ragged", "vector", "3-d", "empty"])
    def test_importance_must_be_a_matrix(self, importance):
        with pytest.raises(ValueError):
            split_sharing_inner(importance, 2)
        with pytest.raises(ValueError):
            split_sharing_inter(importance, 2)


class TestSliceExpert:
    def test_full_slice_equals_dense(self):
        rng = Rng(20)
        ffn = DenseFfn.random(4, 6, rng)
        ex = slice_expert(ffn, range(6))
        x = rng.normal_array((4,))
        y, _ = ffn_forward(ffn, x)
        assert np.array_equal(ex.forward(x), y)

    def test_rank_one_slice(self):
        rng = Rng(21)
        ffn = DenseFfn.random(4, 6, rng)
        x = rng.normal_array((4,))
        _, h = ffn_forward(ffn, x)
        ex = slice_expert(ffn, [3])
        assert np.abs(ex.forward(x) - h[3] * ffn.w_down[3]).max() < 1e-12

    def test_out_of_range(self):
        ffn = DenseFfn.random(4, 6, Rng(22))
        with pytest.raises(ValueError):
            slice_expert(ffn, [5, 6])

    def test_slices_are_row_major_copies(self):
        # training updates expert weights in place, so a slice must never
        # share memory with its teacher
        ffn = DenseFfn.random(4, 6, Rng(23))
        ex = slice_expert(ffn, [1, 3, 4])
        for part in ("w_up", "w_gate", "w_down"):
            w = getattr(ex, part)
            assert w.flags["C_CONTIGUOUS"]
            assert not np.shares_memory(w, getattr(ffn, part))
        assert np.array_equal(ex.w_up, ffn.w_up[:, [1, 3, 4]])
        assert np.array_equal(ex.w_down, ffn.w_down[[1, 3, 4]])

    def test_partition_sum_identity(self):
        # flagship: sum of expert outputs over a disjoint cover == dense FFN
        for seed in range(20):
            rng = Rng(seed)
            ffn = DenseFfn.random(4, 12, rng)
            p = split_independent_random(12, 3, rng)
            experts = [slice_expert(ffn, s) for s in p.sets]
            for _ in range(5):
                x = rng.normal_array((4,))
                y, _ = ffn_forward(ffn, x)
                total = sum(e.forward(x) for e in experts)
                assert np.abs(total - y).max() <= 1e-9


def take_expert(ffn, s):
    """Oracle: one expert cut out by its own three gathers."""
    cols = np.asarray(s)
    return (np.take(ffn.w_up, cols, axis=1), np.take(ffn.w_gate, cols, axis=1),
            ffn.w_down[cols])


class TestSliceExperts:
    @pytest.mark.parametrize("d", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("n", [1, 4])
    def test_matches_per_expert_take_bitwise(self, d, n):
        # row blocks of EVAL_ROWS = 64: one short block, exact blocks, a tail
        ffn = DenseFfn.random(d, 24, Rng(d))
        sets = split_independent_random(24, n, Rng(n)).sets
        self.assert_matches_oracle(ffn, sets)

    def test_overlapping_sharing_sets(self):
        ffn = DenseFfn.random(65, 40, Rng(31))
        vecs = [np.abs(Rng(32 + i).normal_array((40,))) for i in range(5)]
        sets = split_sharing_inner(vecs, 12).sets
        assert len(set().union(*map(set, sets))) < 5 * 12
        self.assert_matches_oracle(ffn, sets)

    @staticmethod
    def assert_matches_oracle(ffn, sets):
        experts = slice_experts(ffn, sets)
        assert len(experts) == len(sets)
        for ex, s in zip(experts, sets):
            assert ex.source_indices == tuple(s)
            for w, expect in zip((ex.w_up, ex.w_gate, ex.w_down), take_expert(ffn, s)):
                assert w.flags["C_CONTIGUOUS"] and w.shape == expect.shape
                assert w.tobytes() == expect.tobytes()

    def test_unequal_sizes(self):
        ffn = DenseFfn.random(4, 8, Rng(33))
        with pytest.raises(ValueError, match=r"sizes \[2, 3\]"):
            slice_experts(ffn, [(0, 1), (2, 3, 4)])

    def test_experts_do_not_share_writes(self):
        # training updates expert weights in place, each on its own
        ffn = DenseFfn.random(5, 12, Rng(35))
        experts = slice_experts(ffn, split_independent_random(12, 3, Rng(36)).sets)
        before = [[w.copy() for w in (e.w_up, e.w_gate, e.w_down)] for e in experts]
        experts[1].w_up[...] = 7.0
        for j, ex in enumerate(experts):
            if j != 1:
                for w, old in zip((ex.w_up, ex.w_gate, ex.w_down), before[j]):
                    assert np.array_equal(w, old)
        assert not np.shares_memory(experts[1].w_up, ffn.w_up)

    def test_memory_is_bounded(self):
        # a one-shot np.take of W_up would add a (d, n*m) temporary of 8 MB
        # here; gathered in row blocks, the peak stays near the experts' bytes
        d, d_h, n = 512, 2048, 8
        ffn = DenseFfn.random(d, d_h, Rng(37))
        sets = split_independent_random(d_h, n, Rng(38)).sets
        tracemalloc.start()
        try:
            experts = slice_experts(ffn, sets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(e.param_count() for e in experts) * 8 == 3 * d * d_h * 8
        assert peak < 3 * d * d_h * 8 + 3 * 2**20


class TestIndexSets:
    @pytest.mark.parametrize("residual", [(3, 1), (1, 1), (-1, 2), (2, 4)])
    def test_residual_must_be_an_index_set(self, residual):
        with pytest.raises(ValueError):
            ExpertPartition(
                sets=((0, 1),), d_h=4, method=PartitionMethod.SHARING_INTER,
                shared_residual=residual,
            )

    @pytest.mark.parametrize("s", [(), (1, 0), (2, 2), (-1, 0), (0, 4)])
    def test_expert_set_must_be_an_index_set(self, s):
        with pytest.raises(ValueError):
            ExpertPartition(sets=(s,), d_h=4, method=PartitionMethod.SHARING_INNER)


class TestOverlapReport:
    def test_identical_sets_full_overlap(self):
        p = ExpertPartition(
            sets=((0, 1), (0, 1)), d_h=4, method=PartitionMethod.SHARING_INNER
        )
        assert p.mean_pairwise_overlap() == 1.0

    def test_disjoint_sets_zero_overlap(self):
        p = split_independent_random(8, 2, Rng(1))
        assert p.mean_pairwise_overlap() == 0.0
