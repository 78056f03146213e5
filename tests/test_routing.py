import numpy as np
import pytest

from moeforge.routing import (
    RoutingColumns,
    collect_routing,
    dead_expert_report,
    heatmap_csv,
    routing_l2_matrix,
)
from moeforge.tensor import Rng

from scalar_stream import next_below, shuffle

DOMAINS = ("alpha", "beta", "gamma")


def columns(records, domains=DOMAINS):
    """RoutingColumns of (token_id, domain, layer, expert) records."""
    token_id, domain, layer, expert = zip(*records) if records else ((),) * 4
    code = [domains.index(d) for d in domain]
    return RoutingColumns(*(np.array(c, dtype=np.int64) for c in (token_id, code, layer, expert)))


def synthetic_stream(n_tokens, k, n_experts, n_layers, domains, seed):
    """k distinct expert selections per token per layer, seeded."""
    rng = Rng(seed)
    records = []
    for t in range(n_tokens):
        domain = domains[next_below(rng, len(domains))]
        for layer in range(n_layers):
            picks = shuffle(rng, list(range(n_experts)))[:k]
            for e in picks:
                records.append((t, domain, layer, e))
    return records


class TestCollect:
    def test_empty_stream(self):
        stats = collect_routing(columns([]), 2, 4, DOMAINS)
        assert stats.counts.sum() == 0
        assert np.array_equal(stats.tokens_per_domain, np.zeros(3, dtype=np.int64))

    def test_column_sums_equal_k_tokens(self):
        records = synthetic_stream(50, k=4, n_experts=8, n_layers=1, domains=DOMAINS, seed=1)
        stats = collect_routing(columns(records), 1, 8, DOMAINS)
        for d in range(3):
            assert stats.counts[0, :, d].sum() == 4 * stats.tokens_per_domain[d]

    def test_single_domain_single_expert(self):
        records = [(t, "alpha", 0, 0) for t in range(7)]
        stats = collect_routing(columns(records), 1, 2, DOMAINS)
        assert stats.counts[0, 0, 0] == 7
        assert stats.counts[0, 1, 0] == 0
        assert stats.tokens_per_domain[0] == 7

    def test_order_invariance(self):
        records = synthetic_stream(30, k=2, n_experts=4, n_layers=2, domains=DOMAINS, seed=2)
        stats_fwd = collect_routing(columns(records), 2, 4, DOMAINS)
        stats_rev = collect_routing(columns(list(reversed(records))), 2, 4, DOMAINS)
        assert np.array_equal(stats_fwd.counts, stats_rev.counts)
        assert np.array_equal(stats_fwd.tokens_per_domain, stats_rev.tokens_per_domain)

    def test_out_of_range_indices(self):
        bad_layer = [(0, "alpha", 5, 0)]
        with pytest.raises(ValueError):
            collect_routing(columns(bad_layer), 2, 4, DOMAINS)
        bad_expert = [(0, "alpha", 0, 9)]
        with pytest.raises(ValueError):
            collect_routing(columns(bad_expert), 2, 4, DOMAINS)

    def test_domain_code_out_of_range(self):
        for code in (3, -1):
            bad = RoutingColumns(*(np.array([v]) for v in (0, code, 0, 0)))
            with pytest.raises(ValueError, match=rf"domain code {code} out of range \[0, 3\)"):
                collect_routing(bad, 1, 1, DOMAINS)


class TestL2Matrix:
    def test_identical_distributions_zero(self):
        records = []
        for d in DOMAINS:
            for t in range(10):
                records.append((t, d, 0, t % 4))
        stats = collect_routing(columns(records), 1, 4, DOMAINS)
        mat = routing_l2_matrix(stats, 0)
        assert np.abs(mat).max() <= 1e-12

    def test_disjoint_one_hot_sqrt2(self):
        records = [(t, "alpha", 0, 0) for t in range(5)]
        records += [(t, "beta", 0, 1) for t in range(5)]
        records += [(t, "gamma", 0, 2) for t in range(5)]
        stats = collect_routing(columns(records), 1, 3, DOMAINS)
        mat = routing_l2_matrix(stats, 0)
        assert abs(mat[0, 1] - np.sqrt(2.0)) <= 1e-12
        assert mat[0, 0] == 0.0

    def test_against_naive_oracle(self):
        records = synthetic_stream(40, k=2, n_experts=6, n_layers=1, domains=DOMAINS, seed=3)
        stats = collect_routing(columns(records), 1, 6, DOMAINS)
        mat = routing_l2_matrix(stats, 0)
        # naive pairwise loop over normalized columns
        table = stats.counts[0].astype(float)
        for i in range(3):
            for j in range(3):
                pi = table[:, i] / table[:, i].sum()
                pj = table[:, j] / table[:, j].sum()
                expected = np.sqrt(np.sum((pi - pj) ** 2))
                assert abs(mat[i, j] - expected) <= 1e-12

    def test_symmetry_zero_diagonal(self):
        records = synthetic_stream(25, k=1, n_experts=4, n_layers=1, domains=DOMAINS, seed=4)
        stats = collect_routing(columns(records), 1, 4, DOMAINS)
        mat = routing_l2_matrix(stats, 0)
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0.0)

    def test_empty_domain_errors(self):
        records = [(0, "alpha", 0, 0)]
        stats = collect_routing(columns(records), 1, 1, DOMAINS)
        with pytest.raises(ValueError):
            routing_l2_matrix(stats, 0)


class TestDeadExperts:
    def test_uniform_routing_none_dead(self):
        records = [(t, "alpha", 0, t % 4) for t in range(40)]
        stats = collect_routing(columns(records), 1, 4, DOMAINS)
        assert dead_expert_report(stats, 0.99) == []

    def test_never_selected_always_reported(self):
        records = [(t, "alpha", 0, 0) for t in range(10)]
        stats = collect_routing(columns(records), 1, 2, DOMAINS)
        for threshold in (0.01, 0.5, 0.99):
            assert (0, 1) in dead_expert_report(stats, threshold)

    def test_ninety_ten_split(self):
        records = [(t, "alpha", 0, 0) for t in range(90)]
        records += [(90 + t, "alpha", 0, 1) for t in range(10)]
        stats = collect_routing(columns(records), 1, 2, DOMAINS)
        # minority share 0.1 < 0.5/2 so it is reported at threshold 0.5
        assert dead_expert_report(stats, 0.5) == [(0, 1)]
        # but not at threshold 0.1 (0.1 >= 0.1/2)
        assert dead_expert_report(stats, 0.1) == []

    def test_invalid_threshold(self):
        stats = collect_routing(columns([]), 1, 2, DOMAINS)
        with pytest.raises(ValueError):
            dead_expert_report(stats, 1.0)


class TestCsvExport:
    def test_heatmap_shape(self):
        records = synthetic_stream(10, k=2, n_experts=3, n_layers=1, domains=DOMAINS, seed=5)
        stats = collect_routing(columns(records), 1, 3, DOMAINS)
        lines = heatmap_csv(stats, 0).strip().split("\n")
        assert lines[0] == "expert,alpha,beta,gamma"
        assert len(lines) == 4
