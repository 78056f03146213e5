"""Command-line surface: split a dense FFN into an MoE layer, train it
against the teacher, emit mixture schedules, and analyze routing logs.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .dense_ffn import DenseFfn, ffn_forward
from .importance import importance_by_groups
from .mft import MftError, read_mft, write_mft
from .moe import ExpertFfn, GateNetwork, MoeLayer, assemble_moe
from .partition import (
    ExpertPartition,
    PartitionMethod,
    split_independent_clustering,
    split_independent_random,
    split_sharing_inner,
    split_sharing_inter,
)
from .routing import RoutingRecord, collect_routing, heatmap_csv, l2_matrix_csv
from .sampler import (
    DEFAULT_DOMAINS,
    SamplerMode,
    SamplerState,
    dynamic_update,
    load_preset,
    next_domain,
    update_due,
)
from .tensor import Rng
from .trainer import DivergenceError, TrainConfig, train_distill

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4

TRAIN_KEYS = {f.name for f in fields(TrainConfig)} | {"num_samples"}


# ---------------------------------------------------------------- serialization

def _tensor(tensors: dict[str, np.ndarray], name: str) -> np.ndarray:
    if name not in tensors:
        raise MftError(f"missing tensor {name!r}")
    return tensors[name]


def _swiglu_weights(tensors: dict[str, np.ndarray], prefix: str = "") -> dict:
    """The `prefix`w_up/w_gate/w_down tensors, keyed as DenseFfn's fields."""
    return {part: _tensor(tensors, prefix + part) for part in ("w_up", "w_gate", "w_down")}


def _integers(tensors: dict[str, np.ndarray], name: str) -> tuple[int, ...]:
    """A 1-D tensor of finite, integer-valued entries, as Python ints."""
    v = _tensor(tensors, name)
    if v.ndim != 1 or not np.all(np.isfinite(v) & (v == np.round(v))):
        raise MftError(f"tensor {name!r} must be a 1-D run of finite integers")
    return tuple(int(i) for i in v)


def ffn_from_mft(path: str) -> DenseFfn:
    try:
        return DenseFfn(**_swiglu_weights(read_mft(path)))
    except MftError as err:
        raise MftError(f"{err} in {path}") from err


def ffn_to_mft(path: str, ffn: DenseFfn) -> None:
    write_mft(
        path, {"w_up": ffn.w_up, "w_gate": ffn.w_gate, "w_down": ffn.w_down}
    )


def layer_to_tensors(layer: MoeLayer) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {
        "gate.w_g": layer.gate.w_g,
        "gate.w_noise": layer.gate.w_noise,
        "gate.k": np.array([float(layer.gate.k)]),
    }
    for i, ex in enumerate(layer.experts):
        tensors[f"expert.{i}.w_up"] = ex.w_up
        tensors[f"expert.{i}.w_gate"] = ex.w_gate
        tensors[f"expert.{i}.w_down"] = ex.w_down
        tensors[f"expert.{i}.indices"] = np.array(ex.source_indices, dtype=np.float64)
    if layer.residual_expert is not None:
        r = layer.residual_expert
        tensors["residual.w_up"] = r.w_up
        tensors["residual.w_gate"] = r.w_gate
        tensors["residual.w_down"] = r.w_down
        tensors["residual.indices"] = np.array(r.source_indices, dtype=np.float64)
    return tensors


def _expert(
    tensors: dict[str, np.ndarray], prefix: str, teacher_d_h: int | None
) -> ExpertFfn:
    """The expert under `prefix`. Its indices name one teacher neuron per
    column of its w_up, strictly increasing, in [0, teacher_d_h) when the
    teacher is known."""
    name = prefix + "indices"
    ex = ExpertFfn(**_swiglu_weights(tensors, prefix), source_indices=_integers(tensors, name))
    idx = ex.source_indices
    if len(idx) != ex.d_h:
        raise MftError(f"tensor {name!r} holds {len(idx)} indices for {ex.d_h} neurons")
    if idx[0] < 0 or any(b <= a for a, b in zip(idx, idx[1:])):
        raise MftError(f"tensor {name!r} must be strictly increasing and nonnegative")
    if teacher_d_h is not None and idx[-1] >= teacher_d_h:
        raise MftError(f"tensor {name!r} has index {idx[-1]} >= the teacher's d_h={teacher_d_h}")
    return ex


def layer_from_tensors(
    tensors: dict[str, np.ndarray], teacher_d_h: int | None = None
) -> MoeLayer:
    n = 0
    while f"expert.{n}.w_up" in tensors:
        n += 1
    if n == 0:
        raise MftError("no expert tensors found")
    w_g, w_noise = _tensor(tensors, "gate.w_g"), _tensor(tensors, "gate.w_noise")
    k = _integers(tensors, "gate.k")
    if len(k) != 1:
        raise MftError(f"tensor 'gate.k' must hold one value, got {len(k)}")
    experts = [_expert(tensors, f"expert.{i}.", teacher_d_h) for i in range(n)]
    gate = GateNetwork(w_g=w_g, w_noise=w_noise, k=k[0])
    residual = None
    if any(name.startswith("residual.") for name in tensors):
        residual = _expert(tensors, "residual.", teacher_d_h)
    return MoeLayer(experts=experts, gate=gate, scale_factor=n / k[0], residual_expert=residual)


def write_layer(path: str, layer: MoeLayer) -> None:
    write_mft(path, layer_to_tensors(layer))


def read_layer(path: str, teacher_d_h: int | None = None) -> MoeLayer:
    return layer_from_tensors(read_mft(path), teacher_d_h)


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


def partition_from_json(text: str) -> ExpertPartition:
    doc = json.loads(text)
    return ExpertPartition(
        sets=tuple(tuple(s) for s in doc["sets"]),
        d_h=doc["d_h"],
        method=PartitionMethod(doc["method"]),
        shared_residual=tuple(doc.get("residual", [])),
    )


# ---------------------------------------------------------------- commands

def _synthetic_importance(ffn: DenseFfn, n: int, seed: int, num_samples: int):
    """Importance vectors from seeded synthetic data: gaussian inputs,
    squared-error loss against gaussian targets (grad_y = y - target)."""
    rng = Rng(seed ^ 0xDA7A)
    # per sample: x, then its target, as consecutive draws
    drawn = rng.normal_array((num_samples, 2, ffn.d))
    x, target = drawn[:, 0], drawn[:, 1]
    y, _ = ffn_forward(ffn, x)
    vecs = importance_by_groups(ffn, list(zip(x, y - target)), n, rng)
    return [v.values for v in vecs]


def cmd_split(args) -> int:
    ffn = ffn_from_mft(args.ffn)
    method = PartitionMethod(args.method)
    rng = Rng(args.seed)
    if method is PartitionMethod.INDEPENDENT_RANDOM:
        partition = split_independent_random(ffn.d_h, args.experts, rng)
    elif method is PartitionMethod.INDEPENDENT_CLUSTERING:
        partition = split_independent_clustering(ffn, args.experts, rng)
    else:
        if ffn.d_h % args.experts != 0:
            raise ValueError(
                f"expert count {args.experts} must divide d_h={ffn.d_h}"
            )
        m = ffn.d_h // args.experts
        vecs = _synthetic_importance(
            ffn, args.experts, args.seed, args.importance_samples
        )
        if method is PartitionMethod.SHARING_INNER:
            partition = split_sharing_inner(vecs, m)
        else:
            partition = split_sharing_inter(vecs, m, args.residual_threshold)

    with open(args.out_partition, "w") as f:
        f.write(partition_to_json(partition))
    layer = assemble_moe(
        ffn, partition, k=args.topk, gate_init=args.gate_init, seed=args.seed
    )
    write_layer(args.out_layer, layer)

    print(f"method={method.value} n={partition.n} m={partition.m} d_h={partition.d_h}")
    print(f"scale_factor={layer.scale_factor} residual={len(partition.shared_residual)}")
    print(f"mean_pairwise_overlap={partition.mean_pairwise_overlap():.4f}")
    return EXIT_OK


def cmd_train(args) -> int:
    teacher = ffn_from_mft(args.teacher)
    layer = read_layer(args.layer, teacher.d_h)
    with open(args.config) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError("train config must be a JSON object")
    unknown = sorted(set(doc) - TRAIN_KEYS)
    if unknown:
        raise ValueError(f"unknown train config keys: {', '.join(unknown)}")
    cfg = TrainConfig(**{k: v for k, v in doc.items() if k != "num_samples"})
    num_samples = doc.get("num_samples", max(cfg.batch_size, 64))
    if not isinstance(num_samples, int) or num_samples < 1:
        raise ValueError("num_samples must be a positive integer")
    data = Rng(cfg.seed).normal_array((num_samples, teacher.d))

    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "train_report.csv")
    try:
        report = train_distill(layer, teacher, data, cfg)
    except DivergenceError as err:
        with open(report_path, "w") as f:
            f.write(err.report.to_csv())
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    with open(report_path, "w") as f:
        f.write(report.to_csv())
    write_layer(os.path.join(args.out, "layer_final.mft"), layer)
    print(f"final_mse={report.final_mse!r}")
    return EXIT_OK


def cmd_schedule(args) -> int:
    weights = load_preset(args.preset)
    mode = SamplerMode(args.mode)
    reference_loss = np.zeros(len(weights.domains))
    observed_seq: list[np.ndarray] = []
    if args.reference_loss:
        with open(args.reference_loss) as f:
            doc = json.load(f)
        reference_loss = np.array([doc[d] for d in weights.domains])
    if args.observed_loss:
        with open(args.observed_loss) as f:
            seq = json.load(f)
        observed_seq = [np.asarray(row, dtype=np.float64) for row in seq]

    state = SamplerState(
        current=weights,
        reference_weights=weights,
        reference_loss=reference_loss,
        mode=mode,
        update_interval_tokens=args.interval,
    )
    rng = Rng(args.seed)
    lines = ["step,domain," + ",".join(state.current.domains)]
    update_idx = 0
    for step in range(args.draws):
        if update_due(state):
            obs = (
                observed_seq[update_idx % len(observed_seq)]
                if observed_seq
                else state.reference_loss
            )
            state = dynamic_update(state, obs)
            update_idx += 1
        domain, state = next_domain(state, rng)
        row = ",".join(repr(float(w)) for w in state.current.weights)
        lines.append(f"{step},{domain},{row}")
    with open(args.out, "w") as f:
        f.write("\n".join(lines) + "\n")
    print(f"wrote {args.draws} draws to {args.out}")
    return EXIT_OK


def _parse_routing_csv(path: str, domains: tuple[str, ...]) -> list[RoutingRecord]:
    records = []
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        return records
    header = lines[0].split(",")
    expected = ["token_id", "domain", "layer", "expert", "weight"]
    if header != expected:
        raise ValueError(f"line 1: expected header {','.join(expected)}")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            records.append(
                RoutingRecord(
                    token_id=int(parts[0]),
                    domain=parts[1],
                    layer=int(parts[2]),
                    expert=int(parts[3]),
                    weight=float(parts[4]),
                )
            )
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from err
        if parts[1] not in domains:
            raise ValueError(f"line {lineno}: unknown domain label {parts[1]!r}")
    return records


def cmd_analyze(args) -> int:
    domains = tuple(args.domains.split(",")) if args.domains else DEFAULT_DOMAINS
    records = _parse_routing_csv(args.routing, domains)
    os.makedirs(args.out, exist_ok=True)
    if not records:
        print("no records; nothing to write")
        return EXIT_OK
    n_layers = max(r.layer for r in records) + 1
    n_experts = (
        args.experts if args.experts else max(r.expert for r in records) + 1
    )
    stats = collect_routing(records, n_layers, n_experts, domains)
    for layer in range(n_layers):
        with open(os.path.join(args.out, f"heatmap_layer{layer}.csv"), "w") as f:
            f.write(heatmap_csv(stats, layer))
        present = stats.counts[layer].sum(axis=0) > 0
        if present.all():
            with open(os.path.join(args.out, f"l2_layer{layer}.csv"), "w") as f:
                f.write(l2_matrix_csv(stats, layer))
    print(f"analyzed {len(records)} records over {n_layers} layers")
    return EXIT_OK


# ---------------------------------------------------------------- entry point

def count(text: str) -> int:
    """argparse type for a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="moeforge",
        description="Convert dense SwiGLU FFNs into sparse MoE layers and exercise them.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("split", help="partition a dense FFN into experts")
    sp.add_argument("--ffn", required=True, help="teacher MFT with w_up/w_gate/w_down")
    sp.add_argument(
        "--method",
        required=True,
        choices=[m.value for m in PartitionMethod],
    )
    sp.add_argument("--experts", type=int, required=True)
    sp.add_argument("--topk", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--residual-threshold", type=float, default=0.5)
    sp.add_argument("--importance-samples", type=int, default=64)
    sp.add_argument("--gate-init", choices=["zeros", "random"], default="zeros")
    sp.add_argument("--out-partition", required=True)
    sp.add_argument("--out-layer", required=True)
    sp.set_defaults(func=cmd_split)

    tp = sub.add_parser("train", help="distill the teacher into an MoE layer")
    tp.add_argument("--layer", required=True)
    tp.add_argument("--teacher", required=True)
    tp.add_argument("--config", required=True, help="JSON training config")
    tp.add_argument("--out", required=True, help="output directory")
    tp.set_defaults(func=cmd_train)

    hp = sub.add_parser("schedule", help="emit a domain-mixture schedule log")
    hp.add_argument("--preset", default="llama_v1")
    hp.add_argument("--mode", choices=["static", "dynamic"], default="static")
    hp.add_argument("--draws", type=count, default=1000)
    hp.add_argument("--interval", type=int, default=100)
    hp.add_argument("--seed", type=int, default=0)
    hp.add_argument("--reference-loss", help="JSON {domain: loss}")
    hp.add_argument("--observed-loss", help="JSON list of per-domain loss rows")
    hp.add_argument("--out", required=True)
    hp.set_defaults(func=cmd_schedule)

    ap = sub.add_parser("analyze", help="routing statistics and L2 matrices")
    ap.add_argument("--routing", required=True, help="routing records CSV")
    ap.add_argument("--domains", help="comma-separated domain labels")
    ap.add_argument("--experts", type=int, help="declared expert count")
    ap.add_argument("--out", required=True, help="output directory")
    ap.set_defaults(func=cmd_analyze)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (MftError, ValueError, OSError, json.JSONDecodeError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
