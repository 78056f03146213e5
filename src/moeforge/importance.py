"""Per-neuron importance scoring for neuron-sharing expert construction.

Each sample contributes |h * grad_h| to its group's importance vector,
where h is the FFN's intermediate activation and grad_h the loss gradient
pulled back from the output (the first-order Taylor criterion). The loss
is squared error: samples are (x, target) pairs, held as one (N, 2, d)
array and checked once, and grad_y = y - target. All groups are scored in
one pass over the samples, EVAL_ROWS rows at a time, and each chunk runs
the teacher forward once: its h gives both y and the score, so the
teacher's weights are read once per chunk, not once per group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dense_ffn import DenseFfn, row_chunks, swiglu_hidden
from .partition import kmeans
from .tensor import Rng


@dataclass
class DataGroup:
    """(input, target) pairs: an (N, 2, d) array or a list of (x, target)
    tuples."""

    samples: list[tuple[np.ndarray, np.ndarray]] | np.ndarray = field(default_factory=list)


def accumulate_importance(
    ffn: DenseFfn, group: DataGroup, labels: np.ndarray | list[int], n: int
) -> np.ndarray:
    """(n, d_h) importance: row c sums the scores of the samples labelled c,
    from zeros. Each row is added to its group's vector in sample order,
    whatever the chunking."""
    # one pair per sample: a pair of any other length fails to reshape
    pairs = np.asarray(group.samples, dtype=np.float64).reshape(len(group.samples), 2, ffn.d)
    if not np.all(np.isfinite(pairs)):
        raise ValueError("samples must be finite")
    labels = np.asarray(labels)
    if labels.shape != (len(pairs),):
        raise ValueError(f"need one label per sample: {labels.shape} for {len(pairs)} samples")
    if labels.size and (labels.dtype.kind not in "iu" or labels.min() < 0 or labels.max() >= n):
        raise ValueError(f"labels must be group indices in [0, {n})")
    values = np.zeros((n, ffn.d_h))
    for chunk, chunk_labels in zip(row_chunks(pairs), row_chunks(labels)):
        h = swiglu_hidden(chunk[:, 0], ffn.w_up, ffn.w_gate).h
        grad_y = h @ ffn.w_down
        grad_y -= chunk[:, 1]
        h *= grad_y @ ffn.w_down.T
        # a Python loop: np.add.at adds in the same order but is ~8x slower
        # on (64, 2752) rows
        for c, row in zip(chunk_labels.tolist(), np.abs(h, out=h)):
            values[c] += row
    return values


def group_data_by_clustering(
    samples: list[np.ndarray] | np.ndarray, n: int, rng: Rng
) -> list[list[int]]:
    """Standard (unbalanced) k-means on the inputs, each sample joining its
    nearest centroid; returns n index groups. See `partition.kmeans`."""
    pts = np.ascontiguousarray(samples, dtype=np.float64)
    assign = kmeans(pts, n, rng, lambda dist: np.argmin(dist, axis=1))
    return [[int(i) for i in np.flatnonzero(assign == c)] for c in range(n)]


def importance_by_groups(ffn: DenseFfn, pairs: np.ndarray, n: int, rng: Rng) -> list[np.ndarray]:
    """Cluster the inputs `pairs[:, 0]` of (N, 2, d) (x, target) pairs into n
    groups and score them in one pass; one importance vector per group, in
    group order."""
    labels = np.empty(len(pairs), dtype=np.intp)
    for c, idx in enumerate(group_data_by_clustering(pairs[:, 0], n, rng)):
        labels[idx] = c
    return list(accumulate_importance(ffn, DataGroup(pairs), labels, n))


def synthetic_importance(ffn: DenseFfn, n: int, seed: int, num_samples: int) -> list[np.ndarray]:
    """Importance vectors from seeded synthetic data: gaussian inputs,
    squared-error loss against gaussian targets."""
    rng = Rng(seed ^ 0xDA7A)
    # per sample: x, then its target, as consecutive draws
    pairs = rng.normal_array((num_samples, 2, ffn.d))
    return importance_by_groups(ffn, pairs, n, rng)
