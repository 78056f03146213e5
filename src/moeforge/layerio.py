"""The artifact files: the teacher FFN and the MoE layer as MFT tensors
(integers stored as float64), the expert partition as JSON. Only this module
reads or writes them or knows their tensor names and keys, which README lists."""

from __future__ import annotations

import json
import os

import numpy as np

from .dense_ffn import DenseFfn, ExpertFfn
from .mft import MftError, read_mft, write_mft
from .moe import GateNetwork, MoeLayer
from .partition import ExpertPartition, check_index_set

SWIGLU_PARTS = ("w_up", "w_gate", "w_down")


def _tensor(tensors: dict[str, np.ndarray], name: str) -> np.ndarray:
    if name not in tensors:
        raise MftError(f"missing tensor {name!r}")
    return tensors[name]


def _swiglu_weights(tensors: dict[str, np.ndarray], prefix: str = "") -> dict:
    """The `prefix`w_up/w_gate/w_down tensors, keyed as DenseFfn's fields."""
    return {part: _tensor(tensors, prefix + part) for part in SWIGLU_PARTS}


def _named(prefix: str, build):
    """build(); a ShapeError or ValueError names the tensors under `prefix`."""
    try:
        return build()
    except ValueError as err:
        raise MftError(f"tensors {prefix}*: {err}") from err


def _integers(tensors: dict[str, np.ndarray], name: str) -> tuple[int, ...]:
    """A 1-D tensor of finite, integer-valued entries, as Python ints."""
    v = _tensor(tensors, name)
    if v.ndim != 1 or not np.all(np.isfinite(v) & (v == np.round(v))):
        raise MftError(f"tensor {name!r} must be a 1-D run of finite integers")
    return tuple(int(i) for i in v)


def _decode(path: str, codec, *args):
    """`codec` applied to the tensors in `path`; an MftError names the file."""
    try:
        return codec(read_mft(path), *args)
    except MftError as err:
        raise MftError(f"{err} in {path}") from err


def _ffn_from_tensors(tensors: dict[str, np.ndarray]) -> DenseFfn:
    weights = _swiglu_weights(tensors)
    return _named("w_", lambda: DenseFfn(**weights))


def read_ffn(path: str) -> DenseFfn:
    """The teacher FFN in `path`, from its w_up, w_gate and w_down tensors."""
    return _decode(path, _ffn_from_tensors)


def _expert(
    tensors: dict[str, np.ndarray], prefix: str, gate: GateNetwork, teacher_d_h: int
) -> ExpertFfn:
    """The expert under `prefix`, read by `gate`. Its indices name one teacher
    neuron per column of its w_up and form an index set (`check_index_set`)
    of the teacher's d_h neurons."""
    name = prefix + "indices"
    weights, idx = _swiglu_weights(tensors, prefix), _integers(tensors, name)
    ex = _named(prefix, lambda: ExpertFfn(**weights, source_indices=idx))
    _named(prefix, lambda: MoeLayer.check_expert(gate, ex))
    if len(idx) != ex.d_h:
        raise MftError(f"tensor {name!r} holds {len(idx)} indices for {ex.d_h} neurons")
    try:
        check_index_set(idx, teacher_d_h)
    except ValueError as err:
        raise MftError(f"tensor {name!r}: {err}") from err
    return ex


def _layer_from_tensors(tensors: dict[str, np.ndarray], teacher_d_h: int) -> MoeLayer:
    n = 0
    while f"expert.{n}.w_up" in tensors:
        n += 1
    if n == 0:
        raise MftError("no expert tensors found")
    w_g, w_noise = _tensor(tensors, "gate.w_g"), _tensor(tensors, "gate.w_noise")
    k = _integers(tensors, "gate.k")
    if len(k) != 1:
        raise MftError(f"tensor 'gate.k' must hold one value, got {len(k)}")
    gate = _named("gate.", lambda: GateNetwork(w_g=w_g, w_noise=w_noise, k=k[0]))
    experts = [_expert(tensors, f"expert.{i}.", gate, teacher_d_h) for i in range(n)]
    residual = None
    if any(name.startswith("residual.") for name in tensors):
        residual = _expert(tensors, "residual.", gate, teacher_d_h)
    return _named("gate.", lambda: MoeLayer(experts=experts, gate=gate, residual_expert=residual))


def read_layer(path: str, teacher_d_h: int) -> MoeLayer:
    """The MoE layer in `path`, over a teacher of `teacher_d_h` neurons."""
    return _decode(path, _layer_from_tensors, teacher_d_h)


def write_layer(path: str, layer: MoeLayer) -> None:
    tensors: dict[str, np.ndarray] = {
        "gate.w_g": layer.gate.w_g,
        "gate.w_noise": layer.gate.w_noise,
        "gate.k": np.array([float(layer.gate.k)]),
    }
    experts = [(f"expert.{i}.", ex) for i, ex in enumerate(layer.experts)]
    if layer.residual_expert is not None:
        experts.append(("residual.", layer.residual_expert))
    for prefix, ex in experts:
        for part in SWIGLU_PARTS:
            tensors[prefix + part] = getattr(ex, part)
        tensors[prefix + "indices"] = np.array(ex.source_indices, dtype=np.float64)
    write_mft(path, tensors)


def write_split(partition_path: str, layer_path: str, p: ExpertPartition, layer: MoeLayer) -> None:
    """A split's two files, both or neither: the partition goes first and
    is removed again if the layer cannot be written."""
    doc = {
        "n": p.n,
        "m": p.m,
        "d_h": p.d_h,
        "method": p.method.value,
        "sets": [list(s) for s in p.sets],
        "residual": list(p.shared_residual),
    }
    with open(partition_path, "w") as f:
        f.write(json.dumps(doc, indent=2) + "\n")
    try:
        write_layer(layer_path, layer)
    except BaseException:
        os.remove(partition_path)
        raise
