import json
import os

import numpy as np
import pytest

from moeforge.cli import (
    EXIT_DATA,
    EXIT_DIVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    ffn_to_mft,
    layer_to_tensors,
    main,
    partition_from_json,
    read_layer,
    write_layer,
)
from moeforge.dense_ffn import DenseFfn, ffn_forward
from moeforge.mft import read_mft, write_mft
from moeforge.moe import assemble_moe, moe_forward
from moeforge.partition import split_independent_random, split_sharing_inter
from moeforge.tensor import Rng


@pytest.fixture
def teacher_file(tmp_path):
    ffn = DenseFfn.random(8, 16, Rng(55))
    path = str(tmp_path / "teacher.mft")
    ffn_to_mft(path, ffn)
    return path, ffn


def run(argv):
    return main(argv)


class TestSplit:
    def test_independent_random_roundtrip(self, teacher_file, tmp_path):
        path, ffn = teacher_file
        part_path = str(tmp_path / "part.json")
        layer_path = str(tmp_path / "layer.mft")
        code = run(
            [
                "split", "--ffn", path, "--method", "independent_random",
                "--experts", "4", "--topk", "2", "--seed", "7",
                "--out-partition", part_path, "--out-layer", layer_path,
            ]
        )
        assert code == EXIT_OK
        partition = partition_from_json(open(part_path).read())
        covered = sorted(i for s in partition.sets for i in s)
        assert covered == list(range(16))

        layer = read_layer(layer_path)
        assert layer.n_experts == 4
        assert layer.scale_factor == 2.0
        # partition-sum identity through the file round trip
        x = Rng(1).normal_array((8,))
        total = sum(e.forward(x) for e in layer.experts)
        y, _ = ffn_forward(ffn, x)
        assert np.abs(total - y).max() <= 1e-9

    def test_layer_file_roundtrip_bitwise(self, teacher_file, tmp_path):
        path, ffn = teacher_file
        part = split_independent_random(16, 4, Rng(3))
        layer = assemble_moe(ffn, part, k=2)
        f1 = str(tmp_path / "l1.mft")
        write_layer(f1, layer)
        back = read_layer(f1)
        f2 = str(tmp_path / "l2.mft")
        write_layer(f2, back)
        assert open(f1, "rb").read() == open(f2, "rb").read()

    def test_all_methods_run(self, teacher_file, tmp_path):
        path, _ = teacher_file
        for method in (
            "independent_random",
            "independent_clustering",
            "sharing_inner",
            "sharing_inter",
        ):
            code = run(
                [
                    "split", "--ffn", path, "--method", method,
                    "--experts", "4", "--topk", "2", "--seed", "11",
                    "--out-partition", str(tmp_path / f"{method}.json"),
                    "--out-layer", str(tmp_path / f"{method}.mft"),
                ]
            )
            assert code == EXIT_OK, method

    def test_indivisible_expert_count(self, teacher_file, tmp_path):
        path, _ = teacher_file
        code = run(
            [
                "split", "--ffn", path, "--method", "independent_random",
                "--experts", "3", "--seed", "0",
                "--out-partition", str(tmp_path / "p.json"),
                "--out-layer", str(tmp_path / "l.mft"),
            ]
        )
        assert code == EXIT_DATA

    def test_missing_tensor(self, tmp_path):
        bad = str(tmp_path / "bad.mft")
        write_mft(bad, {"w_up": np.ones((2, 4)), "w_gate": np.ones((2, 4))})
        code = run(
            [
                "split", "--ffn", bad, "--method", "independent_random",
                "--experts", "2", "--seed", "0",
                "--out-partition", str(tmp_path / "p.json"),
                "--out-layer", str(tmp_path / "l.mft"),
            ]
        )
        assert code == EXIT_DATA

    def test_determinism_bytewise(self, teacher_file, tmp_path):
        path, _ = teacher_file
        outputs = []
        for tag in ("a", "b"):
            part_path = str(tmp_path / f"p{tag}.json")
            layer_path = str(tmp_path / f"l{tag}.mft")
            assert run(
                [
                    "split", "--ffn", path, "--method", "independent_clustering",
                    "--experts", "4", "--topk", "2", "--seed", "21",
                    "--out-partition", part_path, "--out-layer", layer_path,
                ]
            ) == EXIT_OK
            outputs.append(
                (open(part_path, "rb").read(), open(layer_path, "rb").read())
            )
        assert outputs[0] == outputs[1]


class TestTrain:
    def make_layer_file(self, teacher_file, tmp_path, tag=""):
        path, ffn = teacher_file
        part = split_independent_random(16, 4, Rng(5))
        layer = assemble_moe(ffn, part, k=2)
        layer_path = str(tmp_path / f"layer{tag}.mft")
        write_layer(layer_path, layer)
        return layer_path

    def write_config(self, tmp_path, **overrides):
        cfg = {
            "lr_max": 0.05,
            "lr_final": 0.005,
            "warmup_steps": 10,
            "total_steps": 50,
            "batch_size": 16,
            "balance_coeff": 0.01,
            "seed": 9,
            "num_samples": 32,
        }
        cfg.update(overrides)
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump(cfg, f)
        return cfg_path

    def test_smoke_run_improves(self, teacher_file, tmp_path):
        path, _ = teacher_file
        layer_path = self.make_layer_file(teacher_file, tmp_path)
        cfg_path = self.write_config(tmp_path, total_steps=200)
        out = str(tmp_path / "out")
        assert run(
            ["train", "--layer", layer_path, "--teacher", path,
             "--config", cfg_path, "--out", out]
        ) == EXIT_OK
        lines = open(os.path.join(out, "train_report.csv")).read().splitlines()
        assert lines[0] == "step,loss,importance_loss,load_loss,routing_entropy,lr"
        assert len(lines) == 201
        first_loss = float(lines[1].split(",")[1])
        last_loss = float(lines[-1].split(",")[1])
        assert last_loss < first_loss
        assert os.path.exists(os.path.join(out, "layer_final.mft"))

    def test_zero_lr_layer_unchanged(self, teacher_file, tmp_path):
        path, _ = teacher_file
        layer_path = self.make_layer_file(teacher_file, tmp_path)
        cfg_path = self.write_config(tmp_path, lr_max=0.0, lr_final=0.0)
        out = str(tmp_path / "out0")
        assert run(
            ["train", "--layer", layer_path, "--teacher", path,
             "--config", cfg_path, "--out", out]
        ) == EXIT_OK
        before = read_mft(layer_path)
        after = read_mft(os.path.join(out, "layer_final.mft"))
        for name in before:
            assert np.array_equal(before[name], after[name])

    def test_divergence_exit_code_and_partial_csv(self, teacher_file, tmp_path):
        path, _ = teacher_file
        layer_path = self.make_layer_file(teacher_file, tmp_path)
        cfg_path = self.write_config(tmp_path, lr_max=1e9, lr_final=1e9, warmup_steps=0)
        out = str(tmp_path / "outdiv")
        with np.errstate(all="ignore"):
            code = run(
                ["train", "--layer", layer_path, "--teacher", path,
                 "--config", cfg_path, "--out", out]
            )
        assert code == EXIT_DIVERGENCE
        assert os.path.exists(os.path.join(out, "train_report.csv"))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_samples": 0},
            {"lr_max": -1, "lr_final": -2},
            {"batch_size": 0},
            {"lr-max": 0.1},
            {"total_steps": 2.5, "warmup_steps": 0},
        ],
    )
    def test_bad_config_exits_data_error(self, teacher_file, tmp_path, overrides):
        path, _ = teacher_file
        layer_path = self.make_layer_file(teacher_file, tmp_path)
        cfg_path = self.write_config(tmp_path, **overrides)
        out = str(tmp_path / "outbad")
        code = run(
            ["train", "--layer", layer_path, "--teacher", path,
             "--config", cfg_path, "--out", out]
        )
        assert code == EXIT_DATA
        assert not os.path.exists(os.path.join(out, "layer_final.mft"))

    def test_missing_tensor_error(self, teacher_file, tmp_path):
        path, _ = teacher_file
        bad = str(tmp_path / "bad_layer.mft")
        write_mft(bad, {"gate.w_g": np.zeros((8, 2))})
        cfg_path = self.write_config(tmp_path)
        code = run(
            ["train", "--layer", bad, "--teacher", path,
             "--config", cfg_path, "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_DATA

    def test_determinism_bytewise(self, teacher_file, tmp_path):
        path, _ = teacher_file
        cfg_path = self.write_config(tmp_path)
        outputs = []
        for tag in ("a", "b"):
            layer_path = self.make_layer_file(teacher_file, tmp_path, tag)
            out = str(tmp_path / f"out{tag}")
            assert run(
                ["train", "--layer", layer_path, "--teacher", path,
                 "--config", cfg_path, "--out", out]
            ) == EXIT_OK
            outputs.append(
                (
                    open(os.path.join(out, "train_report.csv"), "rb").read(),
                    open(os.path.join(out, "layer_final.mft"), "rb").read(),
                )
            )
        assert outputs[0] == outputs[1]


class TestSchedule:
    def test_static_constant_weights(self, tmp_path):
        out = str(tmp_path / "sched.csv")
        assert run(
            ["schedule", "--preset", "llama_v1", "--mode", "static",
             "--draws", "500", "--seed", "3", "--out", out]
        ) == EXIT_OK
        lines = open(out).read().splitlines()
        assert len(lines) == 501
        weight_cols = {line.split(",", 2)[2] for line in lines[1:]}
        assert len(weight_cols) == 1  # flat static curve

    def test_dynamic_updates_change_weights(self, tmp_path):
        ref = {d: 2.0 for d in (
            "CommonCrawl", "C4", "GitHub", "Wikipedia", "Books", "arXiv",
            "StackExchange")}
        ref_path = str(tmp_path / "ref.json")
        json.dump(ref, open(ref_path, "w"))
        obs_path = str(tmp_path / "obs.json")
        json.dump([[3.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]], open(obs_path, "w"))
        out = str(tmp_path / "dyn.csv")
        assert run(
            ["schedule", "--preset", "uniform", "--mode", "dynamic",
             "--draws", "300", "--interval", "100", "--seed", "3",
             "--reference-loss", ref_path, "--observed-loss", obs_path,
             "--out", out]
        ) == EXIT_OK
        lines = open(out).read().splitlines()
        weight_cols = {line.split(",", 2)[2] for line in lines[1:]}
        assert len(weight_cols) == 2  # reweighted after the first interval

    def test_negative_draws_usage_error(self, tmp_path):
        out = str(tmp_path / "neg.csv")
        with pytest.raises(SystemExit) as exc:
            run(["schedule", "--draws", "-1", "--out", out])
        assert exc.value.code == EXIT_USAGE
        assert not os.path.exists(out)


class TestLayerFile:
    """A malformed layer file fed to `train` exits 3 with a message."""

    def tensors(self, ffn):
        # expert top-8 sets 0..7 and 4..11 share 4..7, the residual block
        first = np.arange(16.0)[::-1]
        part = split_sharing_inter([first, np.roll(first, 4)], 8, residual_threshold=1.0)
        return layer_to_tensors(assemble_moe(ffn, part, k=1))

    def train(self, teacher_file, tmp_path, tensors):
        path, _ = teacher_file
        layer_path = str(tmp_path / "layer.mft")
        write_mft(layer_path, tensors)
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as f:
            json.dump({"total_steps": 2, "warmup_steps": 0, "batch_size": 4, "num_samples": 8}, f)
        out = str(tmp_path / "out")
        code = run(["train", "--layer", layer_path, "--teacher", path,
                    "--config", cfg_path, "--out", out])
        assert os.path.exists(os.path.join(out, "layer_final.mft")) == (code == EXIT_OK)
        return code

    def test_valid_file_trains(self, teacher_file, tmp_path):
        tensors = self.tensors(teacher_file[1])
        assert tensors["residual.indices"].tolist() == [4, 5, 6, 7]
        assert self.train(teacher_file, tmp_path, tensors) == EXIT_OK

    @pytest.mark.parametrize(
        "name,value",
        [
            ("gate.k", np.array([np.inf])),
            ("gate.k", np.array([])),
            ("gate.k", np.array([2.7])),
            ("gate.k", np.array([1.0, 1.0])),
            ("gate.k", np.array([[1.0]])),
            ("expert.0.indices", np.array([0.0, np.inf])),
            ("expert.0.indices", np.array([0.5, 1.0])),
            ("expert.0.indices", np.array([np.nan, 1.0])),
            ("expert.0.indices", np.array([[0.0, 1.0]])),
            ("residual.indices", np.array([0.25])),
        ],
    )
    def test_bad_integer_tensor(self, teacher_file, tmp_path, capsys, name, value):
        tensors = self.tensors(teacher_file[1])
        tensors[name] = value
        assert self.train(teacher_file, tmp_path, tensors) == EXIT_DATA
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,value",
        [
            ("expert.0.indices", [-5, 1, 2, 3, 8, 9, 10, 11]),
            ("expert.0.indices", [1, 2]),
            ("expert.0.indices", [0, 1, 2, 3, 8, 9, 10, 11, 12]),
            ("expert.0.indices", [0, 1, 2, 3, 9, 8, 10, 11]),
            ("expert.0.indices", [0, 1, 2, 3, 8, 8, 10, 11]),
            ("expert.1.indices", [8, 9, 10, 11, 12, 13, 14, 16]),
            ("residual.indices", [4, 5, 6]),
            ("residual.indices", [-1, 5, 6, 7]),
            ("residual.indices", [4, 5, 6, 99]),
        ],
    )
    def test_indices_must_fit_expert_and_teacher(
        self, teacher_file, tmp_path, capsys, name, value
    ):
        # experts are 8 neurons wide, the residual 4, the teacher's d_h is 16
        tensors = self.tensors(teacher_file[1])
        tensors[name] = np.array(value, dtype=np.float64)
        assert self.train(teacher_file, tmp_path, tensors) == EXIT_DATA
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name", ["residual.w_gate", "residual.indices", "expert.1.w_down"]
    )
    def test_partial_expert_names_missing_tensor(
        self, teacher_file, tmp_path, capsys, name
    ):
        tensors = self.tensors(teacher_file[1])
        del tensors[name]
        assert self.train(teacher_file, tmp_path, tensors) == EXIT_DATA
        assert f"missing tensor {name!r}" in capsys.readouterr().err


class TestAnalyze:
    HEADER = "token_id,domain,layer,expert,weight"

    def write_csv(self, tmp_path, rows):
        path = str(tmp_path / "routing.csv")
        with open(path, "w") as f:
            f.write("\n".join([self.HEADER] + rows) + "\n")
        return path

    def test_golden_fixture(self, tmp_path):
        # domains alpha->expert 0, beta->expert 1, 5 tokens each, k=1
        rows = [f"{t},CommonCrawl,0,0,1.0" for t in range(5)]
        rows += [f"{t},C4,0,1,1.0" for t in range(5)]
        path = self.write_csv(tmp_path, rows)
        out = str(tmp_path / "analysis")
        assert run(["analyze", "--routing", path, "--domains",
                    "CommonCrawl,C4", "--out", out]) == EXIT_OK
        heat = open(os.path.join(out, "heatmap_layer0.csv")).read()
        assert heat == "expert,CommonCrawl,C4\n0,5,0\n1,0,5\n"
        l2 = open(os.path.join(out, "l2_layer0.csv")).read().splitlines()
        assert l2[0] == "domain,CommonCrawl,C4"
        assert float(l2[1].split(",")[2]) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_empty_input_success(self, tmp_path):
        path = self.write_csv(tmp_path, [])
        assert run(["analyze", "--routing", path,
                    "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_unknown_domain_cited(self, tmp_path, capsys):
        path = self.write_csv(tmp_path, ["0,NotADomain,0,0,1.0"])
        code = run(["analyze", "--routing", path, "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert "NotADomain" in capsys.readouterr().err

    def test_malformed_row_cites_line(self, tmp_path, capsys):
        path = self.write_csv(tmp_path, ["0,CommonCrawl,0,0,1.0", "garbage,row"])
        code = run(["analyze", "--routing", path, "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert "line 3" in capsys.readouterr().err

    def test_determinism_bytewise(self, tmp_path):
        rows = []
        rng = Rng(8)
        for t in range(40):
            dom = ("CommonCrawl", "C4", "GitHub")[rng.next_below(3)]
            for e in sorted(rng.shuffle(list(range(4)))[:2]):
                rows.append(f"{t},{dom},0,{e},0.5")
        path = self.write_csv(tmp_path, rows)
        blobs = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"an{tag}")
            assert run(["analyze", "--routing", path, "--domains",
                        "CommonCrawl,C4,GitHub", "--out", out]) == EXIT_OK
            blobs.append(
                tuple(
                    open(os.path.join(out, name), "rb").read()
                    for name in sorted(os.listdir(out))
                )
            )
        assert blobs[0] == blobs[1]
