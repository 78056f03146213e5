import hashlib
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
    main,
    read_layer,
    write_layer,
)
from moeforge.dense_ffn import DenseFfn, ffn_forward
from moeforge.layerio import ffn_to_tensors, layer_from_tensors, layer_to_tensors
from moeforge.mft import MftError, read_mft, write_mft
from moeforge.moe import assemble_moe, moe_forward
from moeforge.partition import split_independent_random, split_sharing_inter
from moeforge.sampler import DEFAULT_DOMAINS
from moeforge.tensor import Rng


@pytest.fixture
def teacher_file(tmp_path):
    ffn = DenseFfn.random(8, 16, Rng(55))
    path = str(tmp_path / "teacher.mft")
    ffn_to_mft(path, ffn)
    return path, ffn


def run(argv):
    return main(argv)


def exit_code(argv):
    """`main`'s exit code, also when argparse exits on a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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
        with open(part_path) as f:
            partition = json.load(f)
        covered = sorted(i for s in partition["sets"] for i in s)
        assert covered == list(range(16))

        layer = read_layer(layer_path, ffn.d_h)
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
        back = read_layer(f1, ffn.d_h)
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

    @pytest.mark.parametrize("topk, code", [("9", EXIT_DATA), ("0", EXIT_USAGE)],
                             ids=["9", "0"])
    def test_bad_topk_writes_no_file(self, teacher_file, tmp_path, topk, code):
        # k > n fails in the gate; k = 0 already in argparse
        path, _ = teacher_file
        part, layer = tmp_path / "p.json", tmp_path / "l.mft"
        assert exit_code(
            [
                "split", "--ffn", path, "--method", "independent_random",
                "--experts", "4", "--topk", topk, "--seed", "0",
                "--out-partition", str(part), "--out-layer", str(layer),
            ]
        ) == code
        assert not part.exists() and not layer.exists()

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("option", ["--experts", "--topk", "--importance-samples"])
    def test_nonpositive_count_usage_error(self, teacher_file, tmp_path, capsys, option, value):
        path, _ = teacher_file
        part, layer = tmp_path / "p.json", tmp_path / "l.mft"
        argv = {"--experts": "4", "--topk": "2", "--importance-samples": "8", option: value}
        assert exit_code(["split", "--ffn", path, "--method", "sharing_inter",
                          *(x for item in argv.items() for x in item),
                          "--out-partition", str(part), "--out-layer", str(layer)]) == EXIT_USAGE
        assert f"must be at least 1, got {value}" in capsys.readouterr().err
        assert not part.exists() and not layer.exists()

    @pytest.mark.parametrize("value", ["5", "0", "-1", "nan", "1.0001", "half"])
    @pytest.mark.parametrize("method", [
        "independent_random", "independent_clustering", "sharing_inner", "sharing_inter",
    ])
    def test_residual_threshold_outside_unit_interval(
        self, teacher_file, tmp_path, capsys, method, value
    ):
        # a usage error for every method, not only the one that reads it
        path, _ = teacher_file
        part, layer = tmp_path / "p.json", tmp_path / "l.mft"
        assert exit_code([
            "split", "--ffn", path, "--method", method, "--experts", "4",
            "--residual-threshold", value,
            "--out-partition", str(part), "--out-layer", str(layer),
        ]) == EXIT_USAGE
        assert "--residual-threshold" in capsys.readouterr().err
        assert not part.exists() and not layer.exists()

    @pytest.mark.parametrize("value", ["1", "1e-9"])
    def test_residual_threshold_inside_unit_interval(self, teacher_file, tmp_path, value):
        path, _ = teacher_file
        assert run([
            "split", "--ffn", path, "--method", "independent_random", "--experts", "4",
            "--residual-threshold", value, "--out-partition", str(tmp_path / "p.json"),
            "--out-layer", str(tmp_path / "l.mft"),
        ]) == EXIT_OK

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


# the benchmark's desk and wide split shapes: d, d_h, --experts, --topk,
# --importance-samples, --residual-threshold, --gate-init
SPLIT_SHAPES = {
    "desk": (128, 512, 8, 2, 256, 0.375, "random"),
    "wide": (1024, 2752, 16, 4, 128, 0.25, "zeros"),
}


@pytest.fixture(scope="module")
def shape_teachers(tmp_path_factory):
    """Seed-1 teacher files at each split shape, written once per module."""
    paths = {}

    def teacher(shape):
        if shape not in paths:
            d, d_h = SPLIT_SHAPES[shape][:2]
            paths[shape] = str(tmp_path_factory.mktemp(shape) / "teacher.mft")
            ffn_to_mft(paths[shape], DenseFfn.random(d, d_h, Rng(1)))
        return paths[shape]

    return teacher


@pytest.mark.parametrize("shape, method, part_digest, layer_digest", [
    ("desk", "sharing_inner",
     "129947b010606e4e684e135f72132d9ad7e87294818cd8a989927325b0a3242c",
     "1666d831b460ab867083684d3124828b26973112e22da29cb9d6626bb0260751"),
    ("desk", "sharing_inter",
     "233e2e7a6d4f3aee90b0d36a5dc98199bb81d908fa14e2c18538df7cccf231e2",
     "81ed87dca5531eefe62b24283b75cb6cabeb4616193dc99473da2e921aa22418"),
    ("wide", "sharing_inner",
     "fa0c614fc956d278391ee386238110d3fa2e06e24e95247b75a9e1c34f6603ce",
     "d2e2a4bb25b4e8f4d69ddce1888f4e1a71097faee58de60633b3b12fee76d17f"),
    ("wide", "sharing_inter",
     "0d514430623c8bed34bf6f1252c61ee2ce5ba684e507626f65ccf971a71e2723",
     "81d2e6d31a37a9f3eaa180a30b09b5f1f4e81cfb37b852300fcba9120c9ea5ef"),
], ids=["desk-inner", "desk-inter", "wide-inner", "wide-inter"])
def test_sharing_split_outputs_are_pinned(
    shape_teachers, tmp_path, shape, method, part_digest, layer_digest
):
    # what `split` writes, byte for byte, at seed 1; a change to how
    # importance is scored must not move a single neuron or weight
    assert split_digests(shape_teachers(shape), tmp_path, shape, method) == (
        part_digest, layer_digest
    )


@pytest.mark.parametrize("shape, method, part_digest, layer_digest", [
    ("desk", "independent_random",
     "c5c9eeab81bc5026e557e76486a5b7b12dc639900b92aa7e5ce85d571f523166",
     "a367865e2a895a20037603f79f5c0da5650f247d5dcc3af4da6cd5f3ebd7706c"),
    ("desk", "independent_clustering",
     "d299c5a4fe6bf07aaf3d2e7bb7ee1fde6a7bf099b8251af6c3da95024e1664e7",
     "9180a5c2654b014f9d617514dad4237e1e127620e1abc924eaa63cdf005c2742"),
    ("wide", "independent_random",
     "629e5aea53f17780680133d764c52bfb947b742753700cb053cb0287477811a5",
     "b0e77777f6d35cc408703c1381004022409503e7d827b42cb6b7f7897fd33be4"),
    ("wide", "independent_clustering",
     "1efbd339f9ad05a563ea96cb6231f271ec68c9a02259780bb467cf8289000e67",
     "f57a7391fb63a3e54eb65ee43121637a10dc23ace006d672a0b126b9474c519f"),
], ids=["desk-random", "desk-clustering", "wide-random", "wide-clustering"])
def test_independent_split_outputs_are_pinned(
    shape_teachers, tmp_path, shape, method, part_digest, layer_digest
):
    # what `split` writes, byte for byte, at seed 1; a change to how experts
    # are sliced must not move a single weight
    assert split_digests(shape_teachers(shape), tmp_path, shape, method) == (
        part_digest, layer_digest
    )


def split_digests(teacher, tmp_path, shape, method):
    """sha256 of the partition JSON and the layer MFT that `split` writes
    for `teacher` at a SPLIT_SHAPES shape and seed 1."""
    _, _, n, k, samples, threshold, gate_init = SPLIT_SHAPES[shape]
    part, layer = tmp_path / "part.json", tmp_path / "layer.mft"
    assert run([
        "split", "--ffn", teacher, "--method", method,
        "--experts", str(n), "--topk", str(k), "--seed", "1",
        "--importance-samples", str(samples), "--residual-threshold", str(threshold),
        "--gate-init", gate_init, "--out-partition", str(part), "--out-layer", str(layer),
    ]) == EXIT_OK
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (part, layer))


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

    def test_huge_finite_weights_diverge_without_warnings(self, teacher_file, tmp_path, capsys):
        # The suite turns RuntimeWarning into an error, so a numpy overflow
        # warning on the way to the non-finite loss check would fail here.
        path, _ = teacher_file
        tensors = read_mft(self.make_layer_file(teacher_file, tmp_path))
        for name in tensors:
            if name.endswith((".w_up", ".w_gate", ".w_down")):
                tensors[name] = np.full_like(tensors[name], 1e300)
        layer_path = str(tmp_path / "huge.mft")
        write_mft(layer_path, tensors)
        cfg_path = self.write_config(tmp_path, total_steps=3, warmup_steps=0)
        out = str(tmp_path / "outhuge")
        code = run(["train", "--layer", layer_path, "--teacher", path,
                    "--config", cfg_path, "--out", out])
        assert code == EXIT_DIVERGENCE
        assert "non-finite loss at step 0" in capsys.readouterr().err
        assert os.path.exists(os.path.join(out, "train_report.csv"))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_samples": 0},
            {"lr_max": -1, "lr_final": -2},
            {"batch_size": 0},
            {"lr-max": 0.1},
            {"total_steps": 2.5, "warmup_steps": 0},
            {"total_steps": True, "warmup_steps": 0},
            {"batch_size": True},
            {"num_samples": True},
            {"lr_max": float("nan")},
            {"balance_coeff": float("inf")},
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
        assert not os.path.exists(out)

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

    @pytest.mark.parametrize("cut", ["--layer", "--teacher"])
    def test_truncated_input_names_its_file(self, teacher_file, tmp_path, capsys, cut):
        files = {"--layer": self.make_layer_file(teacher_file, tmp_path),
                 "--teacher": teacher_file[0]}
        data = open(files[cut], "rb").read()
        files[cut] = str(tmp_path / "cut.mft")
        with open(files[cut], "wb") as f:
            f.write(data[:-8])
        code = run(["train", "--layer", files["--layer"], "--teacher", files["--teacher"],
                    "--config", self.write_config(tmp_path), "--out", str(tmp_path / "x")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "truncated payload" in err and err.rstrip().endswith(f" in {files[cut]}")

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

    REFERENCE = json.dumps({d: 2.0 for d in DEFAULT_DOMAINS})

    @pytest.mark.parametrize("flag,reference,observed", [
        ("--reference-loss", "[2, 2, 2, 2, 2, 2, 2]", "[]"),
        ("--reference-loss", REFERENCE.replace("2.0", "{}", 1), "[]"),
        ("--observed-loss", REFERENCE, '[{"C4": 3.0}]'),
        ("--observed-loss", REFERENCE, "3.0"),
        ("--reference-loss has no loss for domain 'CommonCrawl'",
         json.dumps({d: 2.0 for d in DEFAULT_DOMAINS[1:]}), "[]"),
    ], ids=["reference-list", "reference-object-value", "observed-object-row", "observed-number",
            "reference-missing-domain"])
    def test_malformed_loss_json_exits_data_error(
        self, tmp_path, capsys, flag, reference, observed
    ):
        (tmp_path / "ref.json").write_text(reference)
        (tmp_path / "obs.json").write_text(observed)
        out = tmp_path / "dyn.csv"
        code = run(["schedule", "--preset", "uniform", "--mode", "dynamic",
                    "--reference-loss", str(tmp_path / "ref.json"),
                    "--observed-loss", str(tmp_path / "obs.json"), "--out", str(out)])
        assert code == EXIT_DATA
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("preset", [
        '{"a": NaN, "b": 1}', '{"a": Infinity, "b": 1}', '{"a": 0, "b": 0}',
    ])
    def test_preset_without_a_distribution_exits_data_error(self, tmp_path, capsys, preset):
        # json reads NaN and Infinity; neither, nor all-zero weights, can be
        # normalised into a distribution
        path = tmp_path / "preset.json"
        path.write_text(preset)
        out = str(tmp_path / "sched.csv")
        assert run(["schedule", "--preset", str(path), "--out", out]) == EXIT_DATA
        assert "positive, finite sum" in capsys.readouterr().err
        assert not os.path.exists(out)


def swiglu_shapes(prefix, d, m):
    return {prefix + "w_up": (d, m), prefix + "w_gate": (d, m), prefix + "w_down": (m, d)}


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

    def test_indices_bounded_by_the_teacher(self, teacher_file):
        tensors = self.tensors(teacher_file[1])
        tensors["expert.1.indices"] = np.array([8, 9, 10, 11, 12, 13, 14, 99.0])
        with pytest.raises(MftError, match="expert.1.indices"):
            layer_from_tensors(tensors, teacher_d_h=16)
        tensors["expert.1.indices"] = np.array([8, 9, 10, 11, 12, 14, 13, 15.0])
        with pytest.raises(MftError, match="strictly increasing"):
            layer_from_tensors(tensors, teacher_d_h=16)

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

    @pytest.mark.parametrize("prefix, shapes", [
        ("gate.", {"gate.w_g": (8, 1)}),
        ("gate.", {"gate.w_g": (6, 2)}),
        ("gate.", {"gate.w_g": (8, 3), "gate.w_noise": (8, 3)}),
        ("expert.0.", {"gate.w_g": (6, 2), "gate.w_noise": (6, 2)}),
        ("expert.0.", swiglu_shapes("expert.0.", 6, 8)),
        ("expert.1.", swiglu_shapes("expert.1.", 16, 8)),
        ("expert.1.", {"expert.1.w_down": (8, 7)}),
        ("residual.", swiglu_shapes("residual.", 6, 4)),
    ], ids=["gate-cols", "gate-rows", "gate-experts", "gate-d", "expert0-d", "expert1-d",
            "expert1-w_down", "residual-d"])
    def test_inconsistent_shapes_name_tensors_and_file(
        self, teacher_file, tmp_path, capsys, prefix, shapes
    ):
        # the teacher and the layer have d = 8, two experts of 8 neurons and
        # a residual of 4; the reader takes d from the gate
        tensors = self.tensors(teacher_file[1])
        tensors.update({name: np.full(shape, 0.5) for name, shape in shapes.items()})
        assert self.train(teacher_file, tmp_path, tensors) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"tensors {prefix}*" in err and str(tmp_path / "layer.mft") in err


class TestTeacherFile:
    """A malformed teacher fed to `split --ffn` or `train --teacher` exits 3
    with a message that names its tensors and the file."""

    @pytest.mark.parametrize("command", ["split", "train"])
    @pytest.mark.parametrize("fault", ["nan", "w_gate-cols"])
    def test_bad_teacher_names_file(self, teacher_file, tmp_path, capsys, command, fault):
        good, ffn = teacher_file
        tensors = {name: w.copy() for name, w in ffn_to_tensors(ffn).items()}
        if fault == "nan":
            tensors["w_up"][3, 5] = np.nan
        else:
            tensors["w_gate"] = tensors["w_gate"][:, :15]
        bad = str(tmp_path / "bad_teacher.mft")
        write_mft(bad, tensors)
        out = tmp_path / "out"
        if command == "split":
            argv = ["split", "--ffn", bad, "--method", "independent_random", "--experts", "2",
                    "--out-partition", str(out / "p.json"), "--out-layer", str(out / "l.mft")]
        else:
            layer = str(tmp_path / "layer.mft")
            ok = run(["split", "--ffn", good, "--method", "independent_random", "--experts", "2",
                      "--out-partition", str(tmp_path / "p.json"), "--out-layer", layer])
            assert ok == EXIT_OK
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"total_steps": 1, "warmup_steps": 0}))
            argv = ["train", "--layer", layer, "--teacher", bad, "--config", str(cfg),
                    "--out", str(out)]
        capsys.readouterr()
        assert run(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "tensors w_*: " in err and err.rstrip().endswith(f" in {bad}")
        assert not out.exists()


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

    @pytest.mark.parametrize("row, flags", [
        ("0,C4,0,0,1.0", ["--experts", str(10**15)]),
        (f"0,C4,{10**15},0,1.0", []),
        ("0,C4,0,0,1.0", ["--experts", str(10**8)]),
    ])
    def test_count_table_too_large_exits_data_error(self, tmp_path, capsys, row, flags):
        # the (layers, experts, domains) table is sized from the input; one
        # of more than 2**24 counts is refused before it is allocated, even
        # where it would fit in memory (10**8 experts is 5.6 GB of int64)
        path = self.write_csv(tmp_path, [row])
        out = tmp_path / "o"
        assert run(["analyze", "--routing", path, "--out", str(out), *flags]) == EXIT_DATA
        assert "domains exceeds 16777216 counts" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("experts", ["0", "-2"])
    def test_nonpositive_experts_usage_error(self, tmp_path, experts):
        path = self.write_csv(tmp_path, ["0,C4,0,0,1.0"])
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run(["analyze", "--routing", path, "--experts", experts, "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert not out.exists()

    def test_repeated_domain_usage_error(self, tmp_path, capsys):
        # a repeated label would get a heatmap column that is always 0
        path = self.write_csv(tmp_path, ["0,a,0,0,1.0", "1,b,0,1,1.0"])
        out = tmp_path / "o"
        argv = ["analyze", "--routing", path, "--domains", "a,a,b", "--out", str(out)]
        assert exit_code(argv) == EXIT_USAGE
        assert "--domains: repeats a label: a,a,b" in capsys.readouterr().err
        assert not out.exists()

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
