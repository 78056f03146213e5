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

from .dense_ffn import DenseFfn
from .importance import synthetic_importance
from .layerio import (
    ffn_from_tensors,
    ffn_to_tensors,
    layer_from_tensors,
    layer_to_tensors,
    partition_to_json,
)
from .mft import MftError, read_mft, write_mft
from .moe import MoeLayer, assemble_moe
from .partition import (
    PartitionMethod,
    check_divides,
    split_independent_clustering,
    split_independent_random,
    split_sharing_inner,
    split_sharing_inter,
)
from .routing import collect_routing, heatmap_csv, l2_matrix_csv, read_routing_csv
from .sampler import DEFAULT_DOMAINS, SamplerMode, SamplerState, load_preset, schedule_log
from .tensor import Rng
from .trainer import DivergenceError, TrainConfig, train_distill

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4


# ---------------------------------------------------------------- files

def _decode(path: str, codec, *args):
    """`codec` applied to the tensors in `path`; an MftError names the file."""
    try:
        return codec(read_mft(path), *args)
    except MftError as err:
        raise MftError(f"{err} in {path}") from err


def ffn_from_mft(path: str) -> DenseFfn:
    return _decode(path, ffn_from_tensors)


def ffn_to_mft(path: str, ffn: DenseFfn) -> None:
    write_mft(path, ffn_to_tensors(ffn))


def read_layer(path: str, teacher_d_h: int) -> MoeLayer:
    return _decode(path, layer_from_tensors, teacher_d_h)


def write_layer(path: str, layer: MoeLayer) -> None:
    write_mft(path, layer_to_tensors(layer))


# ---------------------------------------------------------------- commands

def _json(path: str, kind: type, message: str):
    """The JSON document in `path`; ValueError(message) unless it is a `kind`."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, kind):
        raise ValueError(message)
    return doc


def _losses(values, what: str) -> np.ndarray:
    """JSON loss values as a float64 array; a non-number is a data error."""
    try:
        return np.asarray(values, dtype=np.float64)
    except TypeError as err:
        raise ValueError(f"{what} must hold numbers: {err}") from err


def cmd_split(args) -> int:
    ffn = ffn_from_mft(args.ffn)
    method = PartitionMethod(args.method)
    rng = Rng(args.seed)
    if method is PartitionMethod.INDEPENDENT_RANDOM:
        partition = split_independent_random(ffn.d_h, args.experts, rng)
    elif method is PartitionMethod.INDEPENDENT_CLUSTERING:
        partition = split_independent_clustering(ffn, args.experts, rng)
    else:
        m = check_divides(ffn.d_h, args.experts)
        vecs = synthetic_importance(ffn, args.experts, args.seed, args.importance_samples)
        if method is PartitionMethod.SHARING_INNER:
            partition = split_sharing_inner(vecs, m)
        else:
            partition = split_sharing_inter(vecs, m, args.residual_threshold)

    # assembled first, so a bad --topk writes neither file
    layer = assemble_moe(
        ffn, partition, k=args.topk, gate_init=args.gate_init, seed=args.seed
    )
    with open(args.out_partition, "w") as f:
        f.write(partition_to_json(partition))
    write_layer(args.out_layer, layer)

    print(f"method={method.value} n={partition.n} m={partition.m} d_h={partition.d_h}")
    print(f"scale_factor={layer.scale_factor} residual={len(partition.shared_residual)}")
    print(f"mean_pairwise_overlap={partition.mean_pairwise_overlap():.4f}")
    return EXIT_OK


def cmd_train(args) -> int:
    teacher = ffn_from_mft(args.teacher)
    layer = read_layer(args.layer, teacher.d_h)
    doc = _json(args.config, dict, "train config must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(TrainConfig)})
    if unknown:
        raise ValueError(f"unknown train config keys: {', '.join(unknown)}")
    cfg = TrainConfig(**doc)
    data = Rng(cfg.seed).normal_array((cfg.num_samples, teacher.d))

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
        doc = _json(args.reference_loss, dict, "--reference-loss must be a JSON {domain: loss}")
        if missing := [d for d in weights.domains if d not in doc]:
            raise ValueError(f"--reference-loss has no loss for domain {missing[0]!r}")
        reference_loss = _losses([doc[d] for d in weights.domains], "--reference-loss")
    if args.observed_loss:
        seq = _json(args.observed_loss, list, "--observed-loss must be a JSON list of loss rows")
        observed_seq = [_losses(row, "--observed-loss") for row in seq]

    state = SamplerState(
        current=weights,
        reference_weights=weights,
        reference_loss=reference_loss,
        mode=mode,
        update_interval_tokens=args.interval,
    )
    pieces = schedule_log(state, Rng(args.seed), args.draws, observed_seq)
    with open(args.out, "w") as f:
        f.writelines(pieces)
    print(f"wrote {args.draws} draws to {args.out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    domains = tuple(args.domains.split(",")) if args.domains else DEFAULT_DOMAINS
    records = read_routing_csv(args.routing, domains)
    os.makedirs(args.out, exist_ok=True)
    if not len(records):
        print("no records; nothing to write")
        return EXIT_OK
    n_layers = int(records.layer.max()) + 1
    n_experts = args.experts or int(records.expert.max()) + 1
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

def at_least(low: int):
    """argparse type for an integer of at least `low`."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return count


def fraction(text: str) -> float:
    """argparse type for a float in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {text}")
    return value


def labels(text: str) -> str:
    """argparse type for comma-separated labels, none of them repeated."""
    if len(set(text.split(","))) < len(text.split(",")):
        raise argparse.ArgumentTypeError(f"repeats a label: {text}")
    return text


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
    sp.add_argument("--experts", type=at_least(1), required=True)
    sp.add_argument("--topk", type=at_least(1), default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--residual-threshold", type=fraction, default=0.5)
    sp.add_argument("--importance-samples", type=at_least(1), default=64)
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
    hp.add_argument("--draws", type=at_least(0), default=1000)
    hp.add_argument("--interval", type=int, default=100)
    hp.add_argument("--seed", type=int, default=0)
    hp.add_argument("--reference-loss", help="JSON {domain: loss}")
    hp.add_argument("--observed-loss", help="JSON list of per-domain loss rows")
    hp.add_argument("--out", required=True)
    hp.set_defaults(func=cmd_schedule)

    ap = sub.add_parser("analyze", help="routing statistics and L2 matrices")
    ap.add_argument("--routing", required=True, help="routing records CSV")
    ap.add_argument("--domains", type=labels, help="comma-separated domain labels")
    ap.add_argument("--experts", type=at_least(1), help="declared expert count")
    ap.add_argument("--out", required=True, help="output directory")
    ap.set_defaults(func=cmd_analyze)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MftError, ValueError, OSError, json.JSONDecodeError, KeyError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
