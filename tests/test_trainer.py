import copy

import numpy as np
import pytest

from moeforge import trainer
from moeforge.dense_ffn import DenseFfn
from moeforge.moe import assemble_moe
from moeforge.partition import split_independent_random, split_sharing_inter
from moeforge.tensor import Rng
from moeforge.trainer import (
    DivergenceError,
    TrainConfig,
    _apply_sgd,
    batch_loss_and_grads,
    distill_mse,
    lr_at,
    random_init_like,
    train_distill,
)


def make_instance(d, d_h, n, k, seed, gate_init="random"):
    rng = Rng(seed)
    teacher = DenseFfn.random(d, d_h, rng)
    part = split_independent_random(d_h, n, rng)
    layer = assemble_moe(teacher, part, k=k, gate_init=gate_init, seed=seed)
    data = [rng.normal_array((d,)) for _ in range(8)]
    return teacher, layer, data


class TestLrSchedule:
    CFG = TrainConfig(lr_max=2e-4, lr_final=2e-5, warmup_steps=100, total_steps=500)

    def test_warmup_start(self):
        assert lr_at(0, self.CFG) == 0.0

    def test_warmup_peak(self):
        assert lr_at(100, self.CFG) == 2e-4

    def test_cosine_endpoint(self):
        assert abs(lr_at(500, self.CFG) - 2e-5) < 1e-18

    def test_warmup_linear(self):
        assert abs(lr_at(50, self.CFG) - 1e-4) < 1e-18

    def test_cosine_midpoint(self):
        mid = lr_at(300, self.CFG)
        assert abs(mid - (2e-5 + (2e-4 - 2e-5) * 0.5)) < 1e-18

    def test_monotone_decay_after_warmup(self):
        vals = [lr_at(s, self.CFG) for s in range(100, 501)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_no_warmup(self):
        cfg = TrainConfig(lr_max=0.1, lr_final=0.01, warmup_steps=0, total_steps=10)
        assert lr_at(0, cfg) == 0.1

    def test_step_beyond_total_rejected(self):
        with pytest.raises(ValueError):
            lr_at(501, self.CFG)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_max=1e-5, lr_final=1e-4)
        with pytest.raises(ValueError):
            TrainConfig(warmup_steps=10, total_steps=5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(batch_size=0),
            dict(batch_size=-4),
            dict(total_steps=0, warmup_steps=0),
            dict(lr_max=-1.0, lr_final=-2.0),
            dict(lr_max=1e-3, lr_final=-1e-4),
            dict(batch_size=2.5),
            dict(lr_max="0.1"),
            dict(total_steps=True, warmup_steps=0),
            dict(num_samples=True),
            dict(num_samples=0),
            dict(lr_max=float("nan")),
            dict(balance_coeff=float("inf")),
            dict(warmup_steps=-5),
            dict(balance_coeff=-0.01),
        ],
    )
    def test_rejected_config(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_num_samples_defaults_to_batch_size_or_64(self):
        assert TrainConfig(batch_size=8).num_samples == 64
        assert TrainConfig(batch_size=100).num_samples == 100
        assert TrainConfig(batch_size=100, num_samples=5).num_samples == 5


class TestGradients:
    def fd_check(self, layer, teacher, data, coeff, rtol=1e-5, atol=1e-8):
        _, grads, _ = batch_loss_and_grads(layer, teacher, data, coeff)
        eps = 1e-6
        for arr, g in zip(layer.parameters(), grads):
            flat = arr.ravel()
            gflat = g.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                lp, _, _ = batch_loss_and_grads(layer, teacher, data, coeff)
                flat[idx] = orig - eps
                lm, _, _ = batch_loss_and_grads(layer, teacher, data, coeff)
                flat[idx] = orig
                fd = (lp - lm) / (2 * eps)
                assert abs(gflat[idx] - fd) <= atol + rtol * max(
                    abs(gflat[idx]), abs(fd)
                ), f"param {idx}: analytic {gflat[idx]} vs fd {fd}"

    def test_fd_small_instance(self):
        teacher, layer, data = make_instance(3, 4, n=2, k=1, seed=0)
        self.fd_check(layer, teacher, data[:4], coeff=0.01)

    def test_fd_k2_of_4(self):
        teacher, layer, data = make_instance(3, 8, n=4, k=2, seed=1)
        self.fd_check(layer, teacher, data[:4], coeff=0.01)

    def test_fd_with_residual_expert(self):
        rng = Rng(2)
        teacher = DenseFfn.random(3, 6, rng)
        v = [np.abs(rng.normal_array((6,))) for _ in range(2)]
        v[1] = v[0] + 0.01 * np.abs(rng.normal_array((6,)))  # force overlap
        part = split_sharing_inter(v, 2, residual_threshold=1.0)
        layer = assemble_moe(teacher, part, k=1, gate_init="random", seed=2)
        data = [rng.normal_array((3,)) for _ in range(4)]
        if layer.residual_expert is None:
            pytest.skip("fixture produced no residual")
        self.fd_check(layer, teacher, data, coeff=0.01)


class TestTrainDistill:
    def test_zero_lr_leaves_params_untouched(self):
        teacher, layer, data = make_instance(4, 8, n=2, k=2, seed=3)
        before = copy.deepcopy(layer)
        cfg = TrainConfig(lr_max=0.0, lr_final=0.0, warmup_steps=0, total_steps=20)
        report = train_distill(layer, teacher, data, cfg)
        for a, b in zip(layer.parameters(), before.parameters()):
            assert np.array_equal(a, b)
        assert len(set(report.losses)) == 1  # constant loss series

    def test_report_series_lengths(self):
        teacher, layer, data = make_instance(4, 8, n=2, k=2, seed=4)
        cfg = TrainConfig(lr_max=0.01, lr_final=0.001, warmup_steps=5, total_steps=30)
        report = train_distill(layer, teacher, data, cfg)
        for series in (
            report.losses,
            report.importance_losses,
            report.load_losses,
            report.routing_entropies,
            report.lrs,
        ):
            assert len(series) == 30

    def test_recovery_below_1e6(self):
        # split init with k == N: teacher is representable; verified fixture
        teacher = DenseFfn.random(8, 16, Rng(7), scale=0.35 / np.sqrt(8))
        part = split_independent_random(16, 2, Rng(8))
        layer = assemble_moe(teacher, part, k=2)
        data = [Rng(9 + i).normal_array((8,)) for i in range(32)]
        cfg = TrainConfig(
            lr_max=40.0,
            lr_final=10.0,
            warmup_steps=20,
            total_steps=500,
            batch_size=32,
            balance_coeff=0.0,
        )
        report = train_distill(layer, teacher, data, cfg)
        assert report.final_mse < 1e-6

    def test_line_search_sanity(self):
        # with balance off, a tiny step never increases the same-batch loss
        teacher, layer, data = make_instance(4, 8, n=4, k=2, seed=6)
        for step in range(20):
            xs = [Rng(1000 + step * 8 + j).normal_array((4,)) for j in range(8)]
            before, grads, _ = batch_loss_and_grads(layer, teacher, xs, 0.0)
            _apply_sgd(layer, grads, 1e-6)
            after, _, _ = batch_loss_and_grads(layer, teacher, xs, 0.0)
            assert after <= before

    def test_divergence_guard(self):
        teacher, layer, data = make_instance(4, 8, n=2, k=2, seed=8)
        cfg = TrainConfig(
            lr_max=1e9, lr_final=1e9, warmup_steps=0, total_steps=200, batch_size=8
        )
        with pytest.raises(DivergenceError) as err:
            with np.errstate(all="ignore"):
                train_distill(layer, teacher, data, cfg)
        assert len(err.value.report.losses) >= 1

    def test_dimension_mismatch(self):
        teacher, layer, _ = make_instance(4, 8, n=2, k=2, seed=9)
        other = DenseFfn.random(5, 8, Rng(10))
        with pytest.raises(ValueError):
            train_distill(layer, other, [np.zeros(5)], TrainConfig())


def per_batch_teacher_run(layer, teacher, data, cfg):
    """Oracle for train_distill: the teacher runs on every batch, inside
    batch_loss_and_grads. Returns the loss series and the final MSE."""
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.total_steps):
            idx = (step * cfg.batch_size + np.arange(cfg.batch_size)) % len(data)
            loss, grads, _ = batch_loss_and_grads(layer, teacher, data[idx], cfg.balance_coeff)
            losses.append(loss)
            _apply_sgd(layer, grads, lr_at(step + 1, cfg))
    return losses, distill_mse(layer, teacher, data)


class TestTargetCache:
    @pytest.mark.parametrize("batch, steps, samples", [
        (48, 6, 100),  # the cursor wraps around the samples
        (8, 3, 64),  # it never reaches the last 40 samples
        (64, 80, 256),  # the desk_train benchmark's batches
    ])
    def test_teacher_rows_per_run(self, monkeypatch, batch, steps, samples):
        rows, ffn_forward = [], trainer.ffn_forward

        def counting_forward(ffn, x):
            rows.append(len(x))
            return ffn_forward(ffn, x)

        monkeypatch.setattr(trainer, "ffn_forward", counting_forward)
        teacher, layer, _ = make_instance(4, 8, n=2, k=1, seed=52)
        cfg = TrainConfig(lr_max=0.01, lr_final=0.001, warmup_steps=0, total_steps=steps,
                          batch_size=batch, num_samples=samples)
        train_distill(layer, teacher, Rng(53).normal_array((samples, 4)), cfg)
        assert sum(rows) == min(samples, batch * steps) + samples

    def test_matches_per_batch_teacher(self):
        # batches of 48 wrap around the 100 samples
        rng = Rng(50)
        teacher = DenseFfn.random(8, 32, rng)
        layer = assemble_moe(teacher, split_independent_random(32, 4, rng), k=2,
                             gate_init="random", seed=51)
        data = rng.normal_array((100, 8))
        cfg = TrainConfig(lr_max=0.05, lr_final=0.005, warmup_steps=2, total_steps=6,
                          batch_size=48, num_samples=100)
        oracle_layer = copy.deepcopy(layer)
        report = train_distill(layer, teacher, data, cfg)
        losses, final_mse = per_batch_teacher_run(oracle_layer, teacher, data, cfg)
        np.testing.assert_allclose(report.losses, losses, rtol=1e-12, atol=0)
        np.testing.assert_allclose(report.final_mse, final_mse, rtol=1e-12, atol=0)
        for a, b in zip(layer.parameters(), oracle_layer.parameters()):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_given_target_is_used(self):
        teacher, layer, data = make_instance(4, 8, n=2, k=2, seed=54)
        xs = np.array(data)
        target, _ = trainer.ffn_forward(teacher, xs)
        base = batch_loss_and_grads(layer, teacher, xs, 0.01)
        given = batch_loss_and_grads(layer, teacher, xs, 0.01, target=target)
        assert given[0] == base[0]
        shifted = batch_loss_and_grads(layer, teacher, xs, 0.01, target=target + 1.0)
        assert shifted[0] != base[0]


class TestTopOneGate:
    def test_router_gets_no_gradient_without_balance(self):
        # the softmax over one selected logit is identically 1
        teacher, layer, data = make_instance(4, 8, n=4, k=1, seed=55)
        _, grads, _ = batch_loss_and_grads(layer, teacher, data, 0.0)
        assert np.all(grads[0] == 0.0)
        _, grads, _ = batch_loss_and_grads(layer, teacher, data, 0.01)
        assert np.any(grads[0] != 0.0)


def train_from_scratch(teacher, part, cfg, rng):
    """Distill a randomly initialised layer shaped as the split one."""
    data = rng.normal_array((cfg.num_samples, teacher.d))
    layer = random_init_like(assemble_moe(teacher, part, k=part.n), rng)
    return train_distill(layer, teacher, data, cfg)


class TestRandomInitLike:
    def test_identical_seed_identical_scratch(self):
        teacher = DenseFfn.random(8, 16, Rng(23))
        part = split_independent_random(16, 2, Rng(24))
        cfg = TrainConfig(lr_max=0.1, lr_final=0.01, warmup_steps=5, total_steps=40,
                          batch_size=16)
        a = train_from_scratch(teacher, part, cfg, Rng(25))
        b = train_from_scratch(teacher, part, cfg, Rng(25))
        assert a.losses == b.losses and a.final_mse == b.final_mse

    def test_smoothed_losses_nonincreasing(self):
        teacher = DenseFfn.random(8, 16, Rng(26), scale=0.2)
        part = split_independent_random(16, 2, Rng(27))
        cfg = TrainConfig(
            lr_max=1.0, lr_final=0.1, warmup_steps=10, total_steps=200, batch_size=32
        )
        rep = train_from_scratch(teacher, part, cfg, Rng(28))
        w = 50
        sm = np.convolve(rep.losses, np.ones(w) / w, mode="valid")
        assert sm[-1] <= sm[0]

    def test_keeps_residual_expert_shape(self):
        rng = Rng(40)
        teacher = DenseFfn.random(4, 12, rng)
        base = np.abs(rng.normal_array((12,)))
        vecs = [base + 0.01 * np.abs(rng.normal_array((12,))) for _ in range(3)]
        part = split_sharing_inter(vecs, 4, residual_threshold=0.5)
        split_layer = assemble_moe(teacher, part, k=1)
        assert split_layer.residual_expert is not None
        scratch = random_init_like(split_layer, Rng(41))
        r, s = split_layer.residual_expert, scratch.residual_expert
        assert s is not None
        assert s.source_indices == r.source_indices
        for a, b in ((s.w_up, r.w_up), (s.w_gate, r.w_gate), (s.w_down, r.w_down)):
            assert a.shape == b.shape and not np.array_equal(a, b)
        assert scratch.parameters()[-1].shape == split_layer.parameters()[-1].shape


class TestDistillMse:
    def test_zero_for_identical(self):
        teacher, layer, data = make_instance(4, 8, n=1, k=1, seed=30, gate_init="zeros")
        assert distill_mse(layer, teacher, data) < 1e-24
