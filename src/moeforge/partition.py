"""Expert construction: carve the intermediate neurons of a dense SwiGLU FFN
into n expert index sets, then slice expert weight matrices.

Two families:
  * neuron-independent (random / balanced k-means): disjoint equal-sized
    sets covering all of 0..d_h-1;
  * neuron-sharing (inner / inter): per-expert top-m neurons by importance,
    possibly overlapping; the inter variant extracts widely-shared neurons
    into an always-on residual block.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .dense_ffn import EVAL_ROWS, DenseFfn, ExpertFfn
from .tensor import Rng, top_k_indices

KMEANS_ITERS = 100


class PartitionMethod(enum.Enum):
    INDEPENDENT_RANDOM = "independent_random"
    INDEPENDENT_CLUSTERING = "independent_clustering"
    SHARING_INNER = "sharing_inner"
    SHARING_INTER = "sharing_inter"


@dataclass(frozen=True)
class ExpertPartition:
    """n sorted index sets over the intermediate neurons, plus an optional
    residual set (sharing_inter only)."""

    sets: tuple[tuple[int, ...], ...]
    d_h: int
    method: PartitionMethod
    shared_residual: tuple[int, ...] = field(default=())

    def __post_init__(self):
        for s in self.sets:
            check_index_set(s, self.d_h)
        if self.shared_residual:
            check_index_set(self.shared_residual, self.d_h)

    @property
    def n(self) -> int:
        return len(self.sets)

    @property
    def m(self) -> int:
        return len(self.sets[0])

    def mean_pairwise_overlap(self) -> float:
        """Mean |S_i ∩ S_j| / m over expert pairs (sharing diagnostics)."""
        pairs = list(itertools.combinations(map(set, self.sets), 2))
        if not pairs:
            return 0.0
        return sum(len(a & b) / self.m for a, b in pairs) / len(pairs)


def check_index_set(s, d_h: int) -> np.ndarray:
    """`s` as an array, or ValueError unless it is a nonempty, strictly
    increasing run of indices in [0, d_h)."""
    idx = np.asarray(s)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("expert index set must be a nonempty vector")
    if np.any(np.diff(idx) <= 0):
        raise ValueError("expert index set must be strictly increasing")
    if idx[0] < 0 or idx[-1] >= d_h:
        raise ValueError(f"index out of range [0, {d_h})")
    return idx


def check_divides(d_h: int, n: int) -> int:
    """The expert size m = d_h / n, or ValueError unless n divides d_h."""
    if n < 1 or d_h % n != 0:
        raise ValueError(f"expert count {n} must divide d_h={d_h}")
    return d_h // n


def split_independent_random(d_h: int, n: int, rng: Rng) -> ExpertPartition:
    """Uniform random permutation of 0..d_h-1 chunked into n blocks of m."""
    m = check_divides(d_h, n)
    perm = rng.shuffle(list(range(d_h)))
    sets = tuple(tuple(sorted(perm[j * m:(j + 1) * m])) for j in range(n))
    return ExpertPartition(sets=sets, d_h=d_h, method=PartitionMethod.INDEPENDENT_RANDOM)


def kmeans(
    points: np.ndarray, n: int, rng: Rng, assign: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Lloyd's k-means over the rows of `points`; returns each row's cluster.

    Centroids start at n distinct rows picked by a seeded shuffle. `assign`
    maps the (rows, n) Euclidean distances, taken in Gram form so no
    (rows, n, d) temporary is built, to a cluster per row; each centroid
    then moves to the mean of its rows, and one left empty stays put. Stops
    when the assignment repeats, or after KMEANS_ITERS steps.
    """
    rows = len(points)
    if n > rows:
        raise ValueError(f"cannot form {n} groups from {rows} samples")
    centroids = points[rng.shuffle(list(range(rows)))[:n]].copy()
    p_sq = np.einsum("ij,ij->i", points, points)[:, None]

    labels = np.full(rows, -1, dtype=int)
    for _ in range(KMEANS_ITERS):
        c_sq = np.einsum("ij,ij->i", centroids, centroids)
        dist = np.sqrt(np.maximum(p_sq - 2.0 * (points @ centroids.T) + c_sq, 0.0))
        new_labels = assign(dist)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(n):
            members = points[labels == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return labels


def _balanced_assign(dist: np.ndarray, m: int) -> np.ndarray:
    """Greedy capacity-m assignment by ascending margin (distance to a
    centroid minus that point's mean distance over all centroids): the most
    clear-cut point/cluster pairs claim their slots first."""
    rows, n = dist.shape
    margin = dist - dist.mean(axis=1, keepdims=True)
    order = np.argsort(margin, axis=None, kind="stable")
    new_assign = [-1] * rows
    capacity = [m] * n
    placed = 0
    for p, c in zip((order // n).tolist(), (order % n).tolist()):
        if new_assign[p] == -1 and capacity[c] > 0:
            new_assign[p] = c
            capacity[c] -= 1
            placed += 1
            if placed == rows:
                break
    return np.array(new_assign)


def split_independent_clustering(ffn: DenseFfn, n: int, rng: Rng) -> ExpertPartition:
    """Balanced k-means over per-neuron W_up vectors (the columns of W_up),
    exactly m per cluster."""
    m = check_divides(ffn.d_h, n)
    assign = kmeans(ffn.w_up.T.copy(), n, rng, lambda dist: _balanced_assign(dist, m))
    sets = tuple(tuple(int(i) for i in np.flatnonzero(assign == c)) for c in range(n))
    return ExpertPartition(sets=sets, d_h=ffn.d_h, method=PartitionMethod.INDEPENDENT_CLUSTERING)


def _top_m(values: np.ndarray, m: int, exclude: tuple[int, ...] = ()) -> tuple[int, ...]:
    """Indices of the m largest entries outside `exclude`, ascending; ties
    break toward the lower index."""
    candidates = np.delete(np.arange(len(values)), exclude)  # a keep mask, not a sort
    if len(candidates) < m:
        raise ValueError(f"only {len(candidates)} candidates available, need {m}")
    return tuple(candidates[top_k_indices(values[candidates], m)].tolist())


def split_sharing_inner(importance: list[np.ndarray], m: int) -> ExpertPartition:
    """S_i = top-m neurons by the i-th importance vector; sets may overlap."""
    vecs = [np.asarray(v, dtype=np.float64) for v in importance]
    d_h = len(vecs[0])
    if any(len(v) != d_h for v in vecs):
        raise ValueError("importance vectors must share length d_h")
    if m > d_h:
        raise ValueError(f"expert size {m} exceeds d_h={d_h}")
    sets = tuple(_top_m(v, m) for v in vecs)
    return ExpertPartition(sets=sets, d_h=d_h, method=PartitionMethod.SHARING_INNER)


def split_sharing_inter(
    importance: list[np.ndarray], m: int, residual_threshold: float = 0.5
) -> ExpertPartition:
    """Top-m per expert, but neurons present in at least
    ceil(residual_threshold * n) provisional sets move to a shared residual
    block; each expert's freed slots are refilled from its own ranking."""
    if not (0.0 < residual_threshold <= 1.0):
        raise ValueError("residual_threshold must lie in (0, 1]")
    provisional = split_sharing_inner(importance, m)
    n, d_h = provisional.n, provisional.d_h
    need = int(np.ceil(residual_threshold * n))

    membership = np.bincount(np.concatenate(provisional.sets), minlength=d_h)
    residual = tuple(int(i) for i in np.flatnonzero(membership >= need))

    vecs = [np.asarray(v, dtype=np.float64) for v in importance]
    sets = tuple(_top_m(v, m, exclude=residual) for v in vecs)
    return ExpertPartition(
        sets=sets,
        d_h=d_h,
        method=PartitionMethod.SHARING_INTER,
        shared_residual=residual,
    )


def slice_experts(ffn: DenseFfn, sets) -> list[ExpertFfn]:
    """Cut one expert per index set out of the dense FFN: columns s of
    W_up/W_gate, rows s of W_down, in index order. The sets must share one
    size m. Each weight is gathered once, into one (n, d, m) or (n, m, d)
    array, and expert j holds row-major views of its slice j. W_up/W_gate
    are gathered EVAL_ROWS teacher rows at a time, so the only temporary is
    one such block and never a (d, n*m) array."""
    cols = [check_index_set(s, ffn.d_h) for s in sets]
    sizes = sorted({len(c) for c in cols})
    if len(sizes) > 1:
        raise ValueError(f"expert index sets must share one size, got sizes {sizes}")
    idx = np.array(cols, dtype=np.intp)
    down = ffn.w_down[idx]
    up, gate = (np.empty((len(idx), ffn.d, idx.shape[1])) for _ in range(2))
    for w, out in ((ffn.w_up, up), (ffn.w_gate, gate)):
        for lo in range(0, ffn.d, EVAL_ROWS):
            hi = lo + EVAL_ROWS
            out[:, lo:hi] = np.take(w[lo:hi], idx, axis=1).transpose(1, 0, 2)
    return [
        ExpertFfn(w_up=up[j], w_gate=gate[j], w_down=down[j], source_indices=tuple(row))
        for j, row in enumerate(idx.tolist())
    ]


def slice_expert(ffn: DenseFfn, s) -> ExpertFfn:
    """One expert cut out of the dense FFN; see `slice_experts`."""
    return slice_experts(ffn, [s])[0]
