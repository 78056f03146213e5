"""The artifact layouts: the tensor names that hold a teacher FFN or an MoE
layer in an MFT file (integer tensors stored as float64), and the JSON keys
that hold an expert partition. Only this module knows either; README's CLI
section lists them."""

from __future__ import annotations

import json

import numpy as np

from .dense_ffn import DenseFfn, ExpertFfn
from .mft import MftError
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


def ffn_to_tensors(ffn: DenseFfn) -> dict[str, np.ndarray]:
    return {part: getattr(ffn, part) for part in SWIGLU_PARTS}


def ffn_from_tensors(tensors: dict[str, np.ndarray]) -> DenseFfn:
    weights = _swiglu_weights(tensors)
    return _named("w_", lambda: DenseFfn(**weights))


def layer_to_tensors(layer: MoeLayer) -> dict[str, np.ndarray]:
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
    return tensors


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


def layer_from_tensors(tensors: dict[str, np.ndarray], teacher_d_h: int) -> MoeLayer:
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


def partition_to_json(p: ExpertPartition) -> str:
    return json.dumps(
        {
            "n": p.n,
            "m": p.m,
            "d_h": p.d_h,
            "method": p.method.value,
            "sets": [list(s) for s in p.sets],
            "residual": list(p.shared_residual),
        },
        indent=2,
    ) + "\n"
