"""Per-neuron importance scoring for neuron-sharing expert construction.

Each sample contributes |h * grad_h| to the running importance vector,
where h is the FFN's intermediate activation and grad_h the loss gradient
pulled back from the output. The loss itself is abstracted: callers supply
grad_y per sample (for a squared-error loss, grad_y = y - target). A group
is scored in one batch: |H * (G_y @ W_down^T)| summed over its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dense_ffn import DenseFfn, ffn_forward, ffn_output_grad_to_h
from .partition import kmeans
from .tensor import Rng, ShapeError


@dataclass
class ImportanceVector:
    """Accumulated |h * grad_h| per intermediate neuron."""

    values: np.ndarray
    samples_seen: int = 0

    @staticmethod
    def zeros(d_h: int) -> "ImportanceVector":
        return ImportanceVector(values=np.zeros(d_h), samples_seen=0)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ShapeError("importance values must be a vector")
        if np.any(self.values < 0):
            raise ValueError("importance values must be nonnegative")


@dataclass
class DataGroup:
    """Labelled group of (input, output-gradient) pairs."""

    id: str
    samples: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)


def accumulate_importance(
    ffn: DenseFfn, group: DataGroup, v: ImportanceVector
) -> ImportanceVector:
    """Fold a data group into the importance vector (returns a new one)."""
    if len(v.values) != ffn.d_h:
        raise ShapeError(f"importance vector length {len(v.values)} != d_h {ffn.d_h}")
    values = v.values.copy()
    if group.samples:
        _, h = ffn_forward(ffn, np.array([x for x, _ in group.samples]))
        grad_h = ffn_output_grad_to_h(ffn, np.array([g for _, g in group.samples]))
        values += np.abs(h * grad_h).sum(axis=0)
    return ImportanceVector(values=values, samples_seen=v.samples_seen + len(group.samples))


def group_data_by_clustering(
    samples: list[np.ndarray], n: int, rng: Rng
) -> list[list[int]]:
    """Standard (unbalanced) k-means on the inputs, each sample joining its
    nearest centroid; returns n index groups. See `partition.kmeans`."""
    pts = np.asarray(samples, dtype=np.float64)
    assign = kmeans(pts, n, rng, lambda dist: np.argmin(dist, axis=1))
    return [[int(i) for i in np.flatnonzero(assign == c)] for c in range(n)]


def importance_by_groups(
    ffn: DenseFfn,
    samples: list[tuple[np.ndarray, np.ndarray]],
    n: int,
    rng: Rng,
) -> list[ImportanceVector]:
    """Cluster inputs into n groups and accumulate one importance vector per
    group, in group order."""
    groups_idx = group_data_by_clustering([x for x, _ in samples], n, rng)
    groups = [
        DataGroup(id=f"group{c}", samples=[samples[i] for i in idx])
        for c, idx in enumerate(groups_idx)
    ]
    return [accumulate_importance(ffn, g, ImportanceVector.zeros(ffn.d_h)) for g in groups]
