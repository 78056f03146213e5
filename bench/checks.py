"""Output checks for the benchmark workloads.

Every check returns a list of problems; an empty list means it passed. The
checks read the CLI's output files with their own MFT reader and their own
numpy SwiGLU, so a defect in moeforge's reader or kernels cannot hide a
defect in what it wrote.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np


def read_mft(path: str) -> dict[str, np.ndarray]:
    """Minimal reader for the MFT layout documented in moeforge/mft.py."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"MFT1":
        raise ValueError(f"{path}: bad magic")
    (count,) = struct.unpack_from("<I", data, 4)
    off = 8
    out = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", data, off)
        name = data[off + 4:off + 4 + name_len].decode("utf-8")
        off += 4 + name_len
        (rank,) = struct.unpack_from("<I", data, off)
        dims = struct.unpack_from(f"<{rank}Q", data, off + 4)
        off += 4 + 8 * rank
        n = math.prod(dims)
        out[name] = np.frombuffer(data, "<f8", n, off).reshape(dims)
        off += 8 * n
    if off != len(data):
        raise ValueError(f"{path}: {len(data) - off} trailing bytes")
    return out


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def swiglu(x: np.ndarray, w_up, w_gate, w_down) -> np.ndarray:
    z = x @ w_gate
    return ((x @ w_up) * z / (1.0 + np.exp(-z))) @ w_down


def _sets(doc: dict) -> list[list[int]]:
    return [list(s) for s in doc["sets"]]


def check_independent_partition(doc: dict, d_h: int, n: int) -> list[str]:
    """n disjoint equal-sized sets that together cover 0..d_h-1."""
    sets = _sets(doc)
    if len(sets) != n:
        return [f"{len(sets)} sets, expected {n}"]
    problems = []
    if any(len(s) != d_h // n for s in sets):
        problems.append(f"set sizes {sorted({len(s) for s in sets})}, expected {d_h // n}")
    flat = sorted(i for s in sets for i in s)
    if flat != list(range(d_h)):
        problems.append("sets are not a disjoint cover of 0..d_h-1")
    if doc.get("residual"):
        problems.append("independent split has a residual")
    return problems


def check_sharing_partition(doc: dict, d_h: int, n: int, inter: bool) -> list[str]:
    """n sorted sets of size m = d_h/n; the inter residual is non-empty and
    disjoint from every set."""
    sets = _sets(doc)
    if len(sets) != n:
        return [f"{len(sets)} sets, expected {n}"]
    problems = []
    m = d_h // n
    for i, s in enumerate(sets):
        if len(s) != m:
            problems.append(f"set {i} has size {len(s)}, expected {m}")
        if s != sorted(set(s)) or not all(0 <= v < d_h for v in s):
            problems.append(f"set {i} is not a sorted subset of 0..d_h-1")
    residual = set(doc.get("residual", []))
    if inter:
        if not residual:
            problems.append("sharing_inter residual is empty")
        if any(residual & set(s) for s in sets):
            problems.append("residual overlaps an expert set")
    elif residual:
        problems.append("sharing_inner split has a residual")
    return problems


def check_layer(teacher: dict, layer: dict, doc: dict, k: int) -> list[str]:
    """The written layer holds one expert per set, each the teacher's slice
    at that set's indices, a gate with the requested k, and the residual."""
    problems = []
    sets = _sets(doc)
    if int(layer["gate.k"][0]) != k:
        problems.append(f"gate.k={layer['gate.k'][0]}, expected {k}")
    blocks = [(f"expert.{i}", s) for i, s in enumerate(sets)]
    if doc.get("residual"):
        blocks.append(("residual", list(doc["residual"])))
    for prefix, idx in blocks:
        if f"{prefix}.w_up" not in layer:
            problems.append(f"missing {prefix}")
            continue
        if [int(v) for v in layer[f"{prefix}.indices"]] != idx:
            problems.append(f"{prefix}.indices differ from the partition")
            continue
        cols = np.asarray(idx)
        if not (
            np.array_equal(layer[f"{prefix}.w_up"], teacher["w_up"][:, cols])
            and np.array_equal(layer[f"{prefix}.w_gate"], teacher["w_gate"][:, cols])
            and np.array_equal(layer[f"{prefix}.w_down"], teacher["w_down"][cols, :])
        ):
            problems.append(f"{prefix} weights are not the teacher's slice")
    if f"expert.{len(sets)}.w_up" in layer:
        problems.append("layer has more experts than the partition")
    return problems


def check_sum_identity(
    teacher: dict, layer: dict, n: int, probes: np.ndarray, tol: float = 1e-9
) -> list[str]:
    """For an independent split the experts' outputs sum to the teacher's."""
    y = swiglu(probes, teacher["w_up"], teacher["w_gate"], teacher["w_down"])
    total = sum(
        swiglu(probes, layer[f"expert.{i}.w_up"], layer[f"expert.{i}.w_gate"],
               layer[f"expert.{i}.w_down"])
        for i in range(n)
    )
    rel = float(np.linalg.norm(total - y) / np.linalg.norm(y))
    return [] if rel <= tol else [f"expert sum differs from teacher: rel {rel:.3e}"]


def check_train_report(path: str, total_steps: int) -> list[str]:
    """One row per step, finite losses, last-step loss below the first."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0].split(",")[:2] != ["step", "loss"]:
        return ["train_report.csv has no step,loss header"]
    losses = [float(line.split(",")[1]) for line in lines[1:]]
    problems = []
    if len(losses) != total_steps:
        problems.append(f"{len(losses)} report rows, expected {total_steps}")
    if not all(math.isfinite(v) for v in losses):
        problems.append("non-finite loss in report")
    elif losses and not losses[-1] < losses[0]:
        problems.append(f"loss did not fall: {losses[0]!r} -> {losses[-1]!r}")
    return problems


def check_schedule(path: str, draws: int, domains: tuple[str, ...]) -> list[str]:
    """One row per draw, known domain labels, weights summing to 1."""
    with open(path) as f:
        lines = f.read().splitlines()
    if lines[0] != "step,domain," + ",".join(domains):
        return ["schedule header does not list the domains"]
    rows = lines[1:]
    problems = []
    if len(rows) != draws:
        problems.append(f"{len(rows)} schedule rows, expected {draws}")
    known = set(domains)
    for i, line in enumerate(rows):
        parts = line.split(",")
        if int(parts[0]) != i or parts[1] not in known:
            problems.append(f"row {i}: bad step or domain {parts[:2]}")
            break
        if abs(sum(float(w) for w in parts[2:]) - 1.0) > 1e-9:
            problems.append(f"row {i}: weights do not sum to 1")
            break
    return problems


def _read_table(path: str) -> tuple[list[str], list[str], np.ndarray]:
    with open(path) as f:
        rows = [line.split(",") for line in f.read().splitlines()]
    header = rows[0][1:]
    labels = [r[0] for r in rows[1:]]
    values = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    return header, labels, values


def check_heatmaps(out_dir: str, expected: np.ndarray, domains) -> list[str]:
    """Per layer, the heatmap counts total that layer's records and match the
    generator's per-(expert, domain) counts."""
    problems = []
    for layer in range(expected.shape[0]):
        header, _, table = _read_table(os.path.join(out_dir, f"heatmap_layer{layer}.csv"))
        if header != list(domains):
            problems.append(f"layer {layer}: heatmap columns {header}")
            continue
        if int(table.sum()) != int(expected[layer].sum()):
            problems.append(
                f"layer {layer}: heatmap total {int(table.sum())}, "
                f"expected {int(expected[layer].sum())}"
            )
        elif not np.array_equal(table, expected[layer]):
            problems.append(f"layer {layer}: heatmap cells differ from the records")
    return problems


def check_l2_matrices(out_dir: str, expected: np.ndarray, domains) -> list[str]:
    """Per layer, the L2 matrix is symmetric with a zero diagonal and equals
    the distances between the normalized expected count columns."""
    problems = []
    for layer in range(expected.shape[0]):
        header, labels, mat = _read_table(os.path.join(out_dir, f"l2_layer{layer}.csv"))
        if header != list(domains) or labels != list(domains):
            problems.append(f"layer {layer}: L2 matrix labels differ")
            continue
        if not np.array_equal(mat, mat.T) or np.any(np.diag(mat) != 0.0):
            problems.append(f"layer {layer}: L2 matrix not symmetric with zero diagonal")
        dist = expected[layer] / expected[layer].sum(axis=0)
        ref = np.linalg.norm(dist[:, :, None] - dist[:, None, :], axis=0)
        if not np.allclose(mat, ref, rtol=1e-12, atol=1e-12):
            problems.append(f"layer {layer}: L2 distances differ from the records")
    return problems


def load_json(path: str):
    with open(path) as f:
        return json.load(f)
