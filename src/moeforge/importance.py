"""Per-neuron importance scoring for neuron-sharing expert construction.

Each sample contributes |h * grad_h| to the running importance vector,
where h is the FFN's intermediate activation and grad_h the loss gradient
pulled back from the output (the first-order Taylor criterion; it never
needs the output y itself). The loss is abstracted: callers supply grad_y
per sample (for a squared-error loss, grad_y = y - target). Samples are
(x, grad_y) pairs, held as one (N, 2, d) array, checked once, and a group
is scored EVAL_ROWS rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dense_ffn import DenseFfn, ffn_forward, row_chunks, swiglu_hidden
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
    """Labelled group of (input, output-gradient) pairs: an (N, 2, d) array
    or a list of (x, grad_y) tuples."""

    id: str
    samples: list[tuple[np.ndarray, np.ndarray]] | np.ndarray = field(default_factory=list)


def accumulate_importance(
    ffn: DenseFfn, group: DataGroup, v: ImportanceVector
) -> ImportanceVector:
    """Fold a data group into the importance vector (returns a new one).
    Rows are added one after another, in order, whatever the chunking."""
    if len(v.values) != ffn.d_h:
        raise ShapeError(f"importance vector length {len(v.values)} != d_h {ffn.d_h}")
    # one pair per sample: a pair of any other length fails to reshape
    pairs = np.asarray(group.samples, dtype=np.float64).reshape(len(group.samples), 2, ffn.d)
    if not np.all(np.isfinite(pairs)):
        raise ValueError("samples must be finite")
    values = v.values
    for chunk in row_chunks(pairs):
        h = swiglu_hidden(chunk[:, 0], ffn.w_up, ffn.w_gate).h
        grad_h = chunk[:, 1] @ ffn.w_down.T
        values = np.vstack((values, np.abs(h * grad_h))).sum(axis=0)
    return ImportanceVector(values=values, samples_seen=v.samples_seen + len(pairs))


def group_data_by_clustering(
    samples: list[np.ndarray] | np.ndarray, n: int, rng: Rng
) -> list[list[int]]:
    """Standard (unbalanced) k-means on the inputs, each sample joining its
    nearest centroid; returns n index groups. See `partition.kmeans`."""
    pts = np.ascontiguousarray(samples, dtype=np.float64)
    assign = kmeans(pts, n, rng, lambda dist: np.argmin(dist, axis=1))
    return [[int(i) for i in np.flatnonzero(assign == c)] for c in range(n)]


def importance_by_groups(
    ffn: DenseFfn, pairs: np.ndarray, n: int, rng: Rng
) -> list[ImportanceVector]:
    """Cluster the inputs `pairs[:, 0]` of (N, 2, d) (x, grad_y) pairs into n
    groups and accumulate one importance vector per group, in group order."""
    groups_idx = group_data_by_clustering(pairs[:, 0], n, rng)
    return [
        accumulate_importance(
            ffn, DataGroup(id=f"group{c}", samples=pairs[idx]), ImportanceVector.zeros(ffn.d_h)
        )
        for c, idx in enumerate(groups_idx)
    ]


def synthetic_importance(ffn: DenseFfn, n: int, seed: int, num_samples: int):
    """Importance vectors from seeded synthetic data: gaussian inputs,
    squared-error loss against gaussian targets (grad_y = y - target)."""
    rng = Rng(seed ^ 0xDA7A)
    # per sample: x, then its target, as consecutive draws; the target half
    # is then overwritten with grad_y, chunk by chunk
    pairs = rng.normal_array((num_samples, 2, ffn.d))
    for chunk in row_chunks(pairs):
        y, _ = ffn_forward(ffn, chunk[:, 0])
        chunk[:, 1] = y - chunk[:, 1]
    return [v.values for v in importance_by_groups(ffn, pairs, n, rng)]
