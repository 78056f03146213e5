"""Acceptance suite: one test per exit criterion, each printing a PASS line
(run with `pytest -s tests/test_acceptance.py -v` to see them)."""

import itertools
import json
import os
import time

import numpy as np
import pytest

from moeforge.cli import main
from moeforge.dense_ffn import DenseFfn, ffn_forward
from moeforge.mft import write_mft
from moeforge.moe import GateNetwork, assemble_moe, balance_sums, cv_squared, route
from moeforge.partition import (
    slice_expert,
    split_independent_clustering,
    split_independent_random,
    split_sharing_inner,
    split_sharing_inter,
)
from moeforge.routing import RoutingColumns, collect_routing, routing_l2_matrix
from moeforge.sampler import (
    DEFAULT_DOMAINS,
    DomainWeights,
    SamplerMode,
    SamplerState,
    dynamic_update,
    next_domain,
)
from moeforge.tensor import Rng
from moeforge.trainer import (
    TrainConfig,
    batch_loss_and_grads,
    distill_mse,
    random_init_like,
    train_distill,
)

from scalar_stream import next_below, shuffle


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_partition_sum_identity():
    start = time.monotonic()
    dims = list(itertools.product((4, 8, 16), (8, 16, 32)))
    for trial in range(100):
        rng = Rng(trial)
        d, d_h = dims[trial % len(dims)]
        ffn = DenseFfn.random(d, d_h, rng)
        n = (2, 4)[trial % 2]
        partitions = [split_independent_random(d_h, n, rng)]
        if trial % 5 == 0:  # clustering is costlier; sample it
            partitions.append(split_independent_clustering(ffn, n, rng))
        for partition in partitions:
            experts = [slice_expert(ffn, s) for s in partition.sets]
            x = rng.normal_array((10, d))
            y, _ = ffn_forward(ffn, x)
            total = sum(ffn_forward(e, x)[0] for e in experts)
            assert np.abs(total - y).max() <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    report(1, f"partition-sum identity over 100 instances ({elapsed:.2f}s)")


def test_criterion_2_set_algebra():
    for trial in range(1000):
        rng = Rng(trial)
        d_h = (8, 16, 32)[trial % 3]
        n = (2, 4)[trial % 2]
        m = d_h // n

        indep = split_independent_random(d_h, n, rng)
        covered = sorted(i for s in indep.sets for i in s)
        assert covered == list(range(d_h))  # union == U and disjoint
        for a, b in itertools.combinations(indep.sets, 2):
            assert not (set(a) & set(b))

        vecs = [np.abs(rng.normal_array((d_h,))) for _ in range(n)]
        inner = split_sharing_inner(vecs, m)
        inter = split_sharing_inter(vecs, m, residual_threshold=1.0)
        for p in (inner, inter):
            for s in p.sets:
                assert len(s) == m
                assert set(s) <= set(range(d_h))
    report(2, "Eq.6/Eq.8 set algebra over 1000 seeded trials")


def test_criterion_3_rescaling_configuration():
    rng = Rng(3)
    ffn = DenseFfn.random(4, 16, rng)
    dense_params = ffn.w_up.size + ffn.w_gate.size + ffn.w_down.size
    for n, k in ((16, 4), (8, 2)):
        partition = split_independent_random(16, n, rng)
        layer = assemble_moe(ffn, partition, k=k)
        assert layer.scale_factor == 4.0
        # exact integer bookkeeping: activated / total == k / N
        assert layer.activated_ffn_params() * n == dense_params * k
        assert layer.total_ffn_params() == dense_params
    report(3, "4/16 and 2/8 both scale by 4.0 with exact k/N parameter ratio")


def test_criterion_4_gate_contract():
    d, n = 6, 8
    decisions = 0
    for k in (1, 2, 4):
        rng = Rng(1000 + k)
        gate = GateNetwork(
            w_g=rng.normal_array((d, n)),
            w_noise=rng.normal_array((d, n)),
            k=k,
            noise_enabled=True,
        )
        noise_rng = Rng(2000 + k)
        _, top, g = route(gate, rng.normal_array((3334, d)), noise_rng)
        assert top.shape == g.shape == (3334, k)
        assert np.all(np.diff(top, axis=1) > 0)  # k distinct experts, ascending
        assert top.min() >= 0 and top.max() < n
        assert np.all(g > 0)
        assert np.abs(g.sum(axis=1) - 1.0).max() <= 1e-12
        decisions += len(top)
    assert decisions >= 10_000
    report(4, f"gate simplex and exact-k selection over {decisions} noisy decisions")


def test_criterion_5_gradient_oracle():
    start = time.monotonic()
    eps = 1e-6
    for seed in range(5):
        rng = Rng(seed)
        teacher = DenseFfn.random(3, 4, rng)
        partition = split_independent_random(4, 2, rng)
        layer = assemble_moe(teacher, partition, k=1, gate_init="random", seed=seed)
        data = [rng.normal_array((3,)) for _ in range(4)]

        _, grads, _ = batch_loss_and_grads(layer, teacher, data, 0.01)
        for arr, g in zip(layer.parameters(), grads):
            flat, gflat = arr.ravel(), g.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                lp, _, _ = batch_loss_and_grads(layer, teacher, data, 0.01)
                flat[idx] = orig - eps
                lm, _, _ = batch_loss_and_grads(layer, teacher, data, 0.01)
                flat[idx] = orig
                fd = (lp - lm) / (2 * eps)
                assert abs(gflat[idx] - fd) <= 1e-8 + 1e-5 * max(
                    abs(gflat[idx]), abs(fd)
                )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(5, f"analytic gradients match finite differences ({elapsed:.2f}s)")


def test_criterion_6_recovery_and_scratch_gap():
    # part A: split-initialized layer (independent random, k == N) recovers
    # the teacher to MSE < 1e-6 within 500 steps on d=8, d_h=16
    teacher = DenseFfn.random(8, 16, Rng(7), scale=0.35 / np.sqrt(8))
    partition = split_independent_random(16, 2, Rng(8))
    layer = assemble_moe(teacher, partition, k=2)
    data = [Rng(9 + i).normal_array((8,)) for i in range(32)]
    cfg = TrainConfig(
        lr_max=40.0,
        lr_final=10.0,
        warmup_steps=20,
        total_steps=500,
        batch_size=32,
        balance_coeff=0.0,
    )
    rep = train_distill(layer, teacher, data, cfg)
    assert rep.final_mse < 1e-6, f"final MSE {rep.final_mse}"

    # part B: scratch init starts strictly worse in >= 95 of 100 trials
    wins = 0
    for seed in range(100):
        rng = Rng(10_000 + seed)
        teacher_i = DenseFfn.random(8, 16, rng)
        partition_i = split_independent_random(16, 2, rng)
        split_layer = assemble_moe(teacher_i, partition_i, k=2)
        scratch_layer = random_init_like(split_layer, rng)
        xs = [rng.normal_array((8,)) for _ in range(16)]
        if distill_mse(scratch_layer, teacher_i, xs) > distill_mse(
            split_layer, teacher_i, xs
        ):
            wins += 1
    assert wins >= 95, f"scratch higher in only {wins}/100"
    report(6, f"recovery MSE {rep.final_mse:.2e} < 1e-6; scratch worse in {wins}/100")


def test_criterion_7_balance_cv_closed_forms():
    probs_hot = np.zeros((12, 4))
    probs_hot[:, 0] = 1.0
    imp, load = balance_sums(probs_hot, np.zeros((12, 1), dtype=int))
    assert cv_squared(imp) == 3.0 and cv_squared(load) == 3.0

    uniform_top = (np.arange(12) % 4)[:, None]
    imp, load = balance_sums(np.full((12, 4), 0.25), uniform_top)
    assert cv_squared(imp) == 0.0 and cv_squared(load) == 0.0
    report(7, "one-hot CV^2 == 3 and uniform CV^2 == 0, exactly")


def test_criterion_8_sampler():
    uniform = DomainWeights(domains=DEFAULT_DOMAINS, weights=np.full(7, 1.0 / 7))
    ref_loss = np.linspace(1.0, 2.0, 7)
    dyn = SamplerState(
        current=uniform,
        reference_weights=uniform,
        reference_loss=ref_loss,
        mode=SamplerMode.DYNAMIC,
        update_interval_tokens=10,
    )
    after = dynamic_update(dyn, ref_loss)
    assert np.array_equal(after.current.weights, uniform.weights)

    two = DomainWeights(domains=("a", "b"), weights=np.array([0.5, 0.5]))
    dyn2 = SamplerState(
        current=two,
        reference_weights=two,
        reference_loss=np.array([1.0, 1.0]),
        mode=SamplerMode.DYNAMIC,
        update_interval_tokens=10,
    )
    upd = dynamic_update(dyn2, np.array([1.0 + np.log(2.0), 1.0]))
    assert abs(upd.current.weights[0] - 2 / 3) <= 1e-12
    assert abs(upd.current.weights[1] - 1 / 3) <= 1e-12

    static = SamplerState(
        current=uniform,
        reference_weights=uniform,
        reference_loss=np.zeros(7),
        mode=SamplerMode.STATIC,
        update_interval_tokens=1,
    )
    rng = Rng(17)
    start = static.current.weights.copy()
    for _ in range(10_000):
        _, static = next_domain(static, rng, 1)
        assert np.array_equal(static.current.weights, start)
    report(8, "dynamic revert/ln-2 closed forms and 10^4-draw static flatness")


def test_criterion_9_routing_analysis():
    domains = ("alpha", "beta")

    def columns(records):
        """RoutingColumns of (token_id, domain, layer, expert) records."""
        token_id, domain, layer, expert = zip(*records)
        code = [domains.index(d) for d in domain]
        return RoutingColumns(*(np.array(c, dtype=np.int64)
                                for c in (token_id, code, layer, expert)))

    # fuzzed conservation: each token contributes exactly k records per layer
    for seed in range(20):
        rng = Rng(seed)
        k = 1 + next_below(rng, 3)
        n_experts = 4 + next_below(rng, 4)
        records = []
        for t in range(30):
            dom = domains[next_below(rng, 2)]
            for layer in range(2):
                for e in sorted(shuffle(rng, list(range(n_experts)))[:k]):
                    records.append((t, dom, layer, e))
        stats = collect_routing(columns(records), 2, n_experts, domains)
        for layer in range(2):
            for d in range(2):
                assert (
                    stats.counts[layer, :, d].sum()
                    == k * stats.tokens_per_domain[d]
                )

    identical = [(t, d, 0, t % 3) for d in domains for t in range(9)]
    stats = collect_routing(columns(identical), 1, 3, domains)
    assert routing_l2_matrix(stats, 0)[0, 1] <= 1e-12

    disjoint = [(t, "alpha", 0, 0) for t in range(5)]
    disjoint += [(t, "beta", 0, 1) for t in range(5)]
    stats = collect_routing(columns(disjoint), 1, 2, domains)
    assert abs(routing_l2_matrix(stats, 0)[0, 1] - np.sqrt(2.0)) <= 1e-12
    report(9, "column-sum conservation and L2 distances 0 / sqrt(2)")


def test_criterion_10_cli_determinism(tmp_path):
    teacher = DenseFfn.random(8, 16, Rng(77))
    teacher_path = str(tmp_path / "teacher.mft")
    write_mft(teacher_path,
              {"w_up": teacher.w_up, "w_gate": teacher.w_gate, "w_down": teacher.w_down})
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump({"lr_max": 0.05, "lr_final": 0.005, "warmup_steps": 5,
                   "total_steps": 30, "batch_size": 8, "seed": 4,
                   "num_samples": 16}, f)
    routing_path = str(tmp_path / "routing.csv")
    with open(routing_path, "w") as f:
        f.write("token_id,domain,layer,expert,weight\n")
        for t in range(20):
            f.write(f"{t},CommonCrawl,0,{t % 4},1.0\n")
            f.write(f"{t},C4,0,{(t + 1) % 4},1.0\n")

    def run_all(tag):
        base = tmp_path / tag
        os.makedirs(base)
        part = str(base / "p.json")
        layer = str(base / "l.mft")
        assert main(["split", "--ffn", teacher_path, "--method",
                     "independent_random", "--experts", "4", "--topk", "2",
                     "--seed", "9", "--out-partition", part,
                     "--out-layer", layer]) == 0
        train_out = str(base / "train")
        assert main(["train", "--layer", layer, "--teacher", teacher_path,
                     "--config", cfg_path, "--out", train_out]) == 0
        sched = str(base / "sched.csv")
        assert main(["schedule", "--preset", "llama_v1", "--mode", "static",
                     "--draws", "200", "--seed", "5", "--out", sched]) == 0
        analysis = str(base / "analysis")
        assert main(["analyze", "--routing", routing_path, "--out",
                     analysis]) == 0
        blobs = {}
        for root, _, files in os.walk(base):
            for name in files:
                full = os.path.join(root, name)
                blobs[os.path.relpath(full, base)] = open(full, "rb").read()
        return blobs

    assert run_all("run1") == run_all("run2")
    report(10, "split/train/schedule/analyze re-runs are bytewise identical")
