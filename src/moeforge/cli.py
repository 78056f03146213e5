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

from .importance import synthetic_importance
from .layerio import read_ffn, read_layer, write_layer, write_split
from .moe import assemble_moe
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


# ---------------------------------------------------------------- commands

def _json(path: str, kind: type, message: str, parse_int=float):
    """The JSON document in `path`, its integers read by `parse_int` (as
    floats by default, so one too large for a float reads as inf);
    ValueError(message) unless it is a `kind`."""
    with open(path) as f:
        doc = json.load(f, parse_int=parse_int)
    if not isinstance(doc, kind):
        raise ValueError(message)
    return doc


def _losses(rows: list, flag: str, n: int) -> list[np.ndarray]:
    """Rows of n finite losses as float64 arrays; anything else (a bool, a
    string, a row of another length) is a data error that names `flag`."""
    for i, row in enumerate(rows, start=1):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"{flag} row {i} must be a list with one entry per domain")
        if bad := [v for v in row if not (isinstance(v, float) and np.isfinite(v))]:
            raise ValueError(f"{flag} must hold finite numbers, got {bad[0]!r}")
    return [np.array(row) for row in rows]


def cmd_split(args) -> int:
    ffn = read_ffn(args.ffn)
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

    layer = assemble_moe(
        ffn, partition, k=args.topk, gate_init=args.gate_init, seed=args.seed
    )
    write_split(args.out_partition, args.out_layer, partition, layer)

    print(f"method={method.value} n={partition.n} m={partition.m} d_h={partition.d_h}")
    print(f"scale_factor={layer.scale_factor} residual={len(partition.shared_residual)}")
    print(f"mean_pairwise_overlap={partition.mean_pairwise_overlap():.4f}")
    return EXIT_OK


def cmd_train(args) -> int:
    teacher = read_ffn(args.teacher)
    layer = read_layer(args.layer, teacher.d_h)
    doc = _json(args.config, dict, "train config must be a JSON object", parse_int=int)
    unknown = sorted(set(doc) - {f.name for f in fields(TrainConfig)})
    if unknown:
        raise ValueError(f"unknown train config keys: {', '.join(unknown)}")
    cfg = TrainConfig(**doc)
    data = Rng(cfg.seed).normal_array((cfg.num_samples, teacher.d))

    os.makedirs(args.out, exist_ok=True)
    try:
        report, diverged = train_distill(layer, teacher, data, cfg), None
    except DivergenceError as err:
        report, diverged = err.report, err
    with open(os.path.join(args.out, "train_report.csv"), "w") as f:
        f.write(report.to_csv())
    if diverged:
        print(f"error: {diverged}", file=sys.stderr)
        return EXIT_DIVERGENCE
    write_layer(os.path.join(args.out, "layer_final.mft"), layer)
    print(f"final_mse={report.final_mse!r}")
    return EXIT_OK


def cmd_schedule(args) -> int:
    weights = load_preset(args.preset)
    mode = SamplerMode(args.mode)
    n = len(weights.domains)
    reference_loss, observed_seq = np.zeros(n), []
    if args.reference_loss:
        doc = _json(args.reference_loss, dict, "--reference-loss must be a JSON {domain: loss}")
        if missing := [d for d in weights.domains if d not in doc]:
            raise ValueError(f"--reference-loss has no loss for domain {missing[0]!r}")
        [reference_loss] = _losses([[doc[d] for d in weights.domains]], "--reference-loss", n)
    if args.observed_loss:
        seq = _json(args.observed_loss, list, "--observed-loss must be a JSON list of loss rows")
        observed_seq = _losses(seq, "--observed-loss", n)

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
    domains = args.domains or DEFAULT_DOMAINS
    records = read_routing_csv(args.routing, domains)
    os.makedirs(args.out, exist_ok=True)
    if not len(records):
        print("no records; nothing to write")
        return EXIT_OK
    # a negative id sizes its axis 1, so collect_routing names the record
    n_layers = max(int(records.layer.max()), 0) + 1
    n_experts = args.experts or max(int(records.expert.max()), 0) + 1
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


def labels(text: str) -> tuple[str, ...]:
    """argparse type for comma-separated labels, none of them empty or repeated."""
    names = text.split(",")
    if "" in names:
        raise argparse.ArgumentTypeError(f"has an empty label: {text!r}")
    if len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(f"repeats a label: {text}")
    return tuple(names)


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
    hp.add_argument("--mode", choices=[m.value for m in SamplerMode], default="static")
    hp.add_argument("--draws", type=at_least(0), default=1000)
    hp.add_argument("--interval", type=at_least(1), default=100)
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
    except (ValueError, OSError, KeyError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
