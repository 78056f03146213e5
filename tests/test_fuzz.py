"""Fuzzing of the file inputs: MFT containers and the layers read from them.

The rule: a malformed file makes `read_mft` raise MftError and nothing
else, and the CLI exits 3 with a message, never with a traceback. A layer
that reads cleanly may still train (exit 0) or diverge (exit 4).
"""

import json
import os
import struct
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from moeforge.cli import EXIT_DATA, EXIT_DIVERGENCE, EXIT_OK, main
from moeforge.dense_ffn import DenseFfn
from moeforge.layerio import write_layer
from moeforge.mft import MftError, read_mft, write_mft
from moeforge.moe import assemble_moe
from moeforge.partition import split_sharing_inter
from moeforge.tensor import Rng

FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

TEACHER = DenseFfn.random(8, 16, Rng(55))


def valid_layer_tensors():
    first = np.arange(16.0)[::-1]
    part = split_sharing_inter([first, np.roll(first, 4)], 8, residual_threshold=1.0)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "layer.mft")
        write_layer(path, assemble_moe(TEACHER, part, k=1))
        return read_mft(path)


def mft_bytes(tensors) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.mft")
        write_mft(path, tensors)
        with open(path, "rb") as f:
            return f.read()


def read_bytes(tmp_path, data: bytes):
    path = str(tmp_path / "fuzz.mft")
    with open(path, "wb") as f:
        f.write(data)
    return read_mft(path)


def split(tmp_path, teacher_path) -> int:
    return main(["split", "--ffn", teacher_path, "--method", "sharing_inter",
                 "--experts", "2", "--importance-samples", "4",
                 "--out-partition", str(tmp_path / "p.json"),
                 "--out-layer", str(tmp_path / "l.mft")])


def train(tmp_path, layer_path, teacher_path) -> int:
    cfg = str(tmp_path / "cfg.json")
    with open(cfg, "w") as f:
        json.dump({"total_steps": 1, "warmup_steps": 0, "batch_size": 4, "num_samples": 4}, f)
    return main(["train", "--layer", layer_path, "--teacher", teacher_path,
                 "--config", cfg, "--out", str(tmp_path / "run")])


floats = st.floats(allow_nan=True, allow_infinity=True, width=64)
shapes = st.lists(st.integers(0, 3), min_size=0, max_size=3).map(tuple)
tensor_dicts = st.dictionaries(
    st.text(min_size=1, max_size=8),
    shapes.flatmap(
        lambda shape: st.lists(floats, min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape)))
        .map(lambda v, shape=shape: np.array(v, dtype=np.float64).reshape(shape))
    ),
    max_size=4,
)


@FUZZ
@given(tensors=tensor_dicts)
def test_round_trip_bitwise(tmp_path, tensors):
    back = read_bytes(tmp_path, mft_bytes(tensors))
    assert list(back) == list(tensors)
    for name, arr in tensors.items():
        want = np.ascontiguousarray(arr)
        assert back[name].shape == want.shape
        assert np.array_equal(back[name].view(np.uint64), want.view(np.uint64))


@FUZZ
@given(tensors=tensor_dicts.filter(bool), data=st.data())
def test_truncated_file_raises_mft_error(tmp_path, tensors, data):
    raw = mft_bytes(tensors)
    cut = data.draw(st.integers(0, len(raw) - 1))
    try:
        read_bytes(tmp_path, raw[:cut])
    except MftError:
        return
    raise AssertionError(f"read a file cut at {cut} of {len(raw)} bytes")


dims = st.one_of(st.integers(0, 6), st.integers(0, 2**64 - 1), st.sampled_from([2**62, 2**63]))


@FUZZ
@given(
    rank=st.integers(0, 70),
    dim_list=st.lists(dims, max_size=70),
    payload=st.binary(max_size=256),
)
def test_random_header_dims(tmp_path, rank, dim_list, payload):
    shape = (dim_list * rank)[:rank] if dim_list else [1] * rank
    raw = (b"MFT1" + struct.pack("<II", 1, 1) + b"x"
           + struct.pack(f"<I{rank}Q", rank, *shape) + payload)
    try:
        tensors = read_bytes(tmp_path, raw)
    except MftError:
        return
    assert tensors["x"].shape == tuple(shape)
    assert tensors["x"].nbytes == len(payload)


@FUZZ
@given(name=st.sampled_from(["w_up", "w_gate", "w_down"]), data=st.data())
def test_nonfinite_teacher_split_exits_3(tmp_path, name, data):
    tensors = {"w_up": TEACHER.w_up, "w_gate": TEACHER.w_gate, "w_down": TEACHER.w_down}
    bad = tensors[name].copy()
    bad.flat[data.draw(st.integers(0, bad.size - 1))] = data.draw(
        st.sampled_from([np.nan, np.inf, -np.inf]))
    tensors[name] = bad
    path = str(tmp_path / "teacher.mft")
    write_mft(path, tensors)
    assert split(tmp_path, path) == EXIT_DATA


@FUZZ
@given(data=st.data())
def test_truncated_teacher_split_exits_3(tmp_path, data):
    raw = mft_bytes({"w_up": TEACHER.w_up, "w_gate": TEACHER.w_gate, "w_down": TEACHER.w_down})
    path = str(tmp_path / "teacher.mft")
    with open(path, "wb") as f:
        f.write(raw[:data.draw(st.integers(0, len(raw) - 1))])
    assert split(tmp_path, path) == EXIT_DATA


# Any finite value, however large: a layer whose weights overflow must take
# the divergence path (exit 4) without a numpy warning, which this suite
# turns into an error.
layer_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.integers(-2, 20).map(float),
)


@FUZZ
@given(data=st.data())
def test_mutated_layer_train_exits_cleanly(tmp_path, data):
    tensors = valid_layer_tensors()
    name = data.draw(st.sampled_from(sorted(tensors)))
    shape = data.draw(st.sampled_from([tensors[name].shape, (0,), (1,), (8,), (2, 2)]))
    size = int(np.prod(shape))
    values = data.draw(st.lists(layer_values, min_size=size, max_size=size))
    tensors[name] = np.array(values, dtype=np.float64).reshape(shape)
    teacher_path, layer_path = str(tmp_path / "teacher.mft"), str(tmp_path / "layer.mft")
    write_mft(teacher_path,
              {"w_up": TEACHER.w_up, "w_gate": TEACHER.w_gate, "w_down": TEACHER.w_down})
    write_mft(layer_path, tensors)
    assert train(tmp_path, layer_path, teacher_path) in (EXIT_OK, EXIT_DATA, EXIT_DIVERGENCE)
