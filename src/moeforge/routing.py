"""Expert-specialization statistics over routing record streams.

Counts how many tokens each (layer, expert) pair received per domain,
then compares domains by the L2 distance between their normalized
per-expert routing distributions. A token selected by k experts
contributes k counts (selections, not first choices).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

ROUTING_HEADER = ["token_id", "domain", "layer", "expert", "weight"]
CHUNK_LINES = 8192


@dataclass(frozen=True)
class RoutingRecord:
    """One expert selection: token `token_id` from `domain` was routed to
    `expert` at `layer` with the given gate weight."""

    token_id: int
    domain: str
    layer: int
    expert: int
    weight: float


@dataclass(frozen=True, eq=False)
class RoutingColumns:
    """Routing records column by column, as counting reads them: integer
    token ids, layers and experts (int64, or Python ints where one does not
    fit) and domain labels. Gate weights are not counted, so not kept."""

    token_id: np.ndarray
    domain: list[str]
    layer: np.ndarray
    expert: np.ndarray

    def __len__(self) -> int:
        return len(self.domain)

    @staticmethod
    def from_records(records) -> "RoutingColumns":
        rows = [(r.token_id, r.domain, r.layer, r.expert) for r in records]
        token_id, domain, layer, expert = zip(*rows) if rows else ((),) * 4
        return RoutingColumns(
            _int_column(token_id), list(domain), _int_column(layer), _int_column(expert)
        )


def _int_column(values) -> np.ndarray:
    """Integers as int64, or as Python ints if some do not fit int64."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass
class RoutingStats:
    counts: np.ndarray  # [layer][expert][domain], integer selections
    domains: tuple[str, ...]
    tokens_per_domain: np.ndarray

    @property
    def n_layers(self) -> int:
        return self.counts.shape[0]

    @property
    def n_experts(self) -> int:
        return self.counts.shape[1]


def collect_routing(
    records,
    n_layers: int,
    n_experts: int,
    domains: tuple[str, ...],
) -> RoutingStats:
    """Exact counts over RoutingRecords, or over RoutingColumns as they
    are; order-independent.

    Selections are one bincount over the flat (layer, expert, domain) index;
    tokens per domain are the distinct (domain, token) pairs. A bad record
    raises as a loop over the records would: the first one in order, its
    layer checked first, then its expert, then its domain label.
    """
    if not isinstance(records, RoutingColumns):
        records = RoutingColumns.from_records(records)
    token_id, domain = records.token_id, records.domain
    layer, expert = records.layer, records.expert
    index = {d: i for i, d in enumerate(domains)}
    counts = np.zeros((n_layers, n_experts, len(domains)), dtype=np.int64)
    code = np.fromiter(map(index.get, domain, repeat(-1)), dtype=np.intp, count=len(domain))
    bad_layer = ~((layer >= 0) & (layer < n_layers))
    bad_expert = ~((expert >= 0) & (expert < n_experts))
    bad = np.flatnonzero(bad_layer | bad_expert | (code < 0))
    if len(bad):
        i = bad[0]
        if bad_layer[i]:
            raise ValueError(f"layer {layer[i]} out of range [0, {n_layers})")
        if bad_expert[i]:
            raise ValueError(f"expert {expert[i]} out of range [0, {n_experts})")
        raise ValueError(f"unknown domain label {domain[i]!r}")
    flat = (layer.astype(np.intp) * n_experts + expert.astype(np.intp)) * len(domains) + code
    counts += np.bincount(flat, minlength=counts.size).reshape(counts.shape)

    # sort by (domain, token); the first of each run is one distinct pair
    order = np.lexsort((token_id, code))
    code, token_id = code[order], token_id[order]
    first = np.ones(len(code), dtype=bool)
    first[1:] = (code[1:] != code[:-1]) | (token_id[1:] != token_id[:-1])
    tokens = np.bincount(code[first], minlength=len(domains)).astype(np.int64)
    return RoutingStats(counts=counts, domains=domains, tokens_per_domain=tokens)


def parse_routing_csv(path: str, domains: tuple[str, ...]) -> list[RoutingRecord]:
    """One RoutingRecord per non-blank line of a routing CSV; a bad line
    raises with its line number."""
    records = []
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        return records
    if lines[0].split(",") != ROUTING_HEADER:
        raise ValueError(f"line 1: expected header {','.join(ROUTING_HEADER)}")
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


def read_routing_csv(path: str, domains: tuple[str, ...]) -> RoutingColumns:
    """The records of a routing CSV, column by column.

    Lines are cut as `str.splitlines` cuts them and converted CHUNK_LINES
    at a time with the same int/float builtins, so no object is built per
    record. A file this reader does not take whole (a bad field, an integer
    beyond int64, an unknown domain, ...) goes through parse_routing_csv
    instead, which returns the same records or raises with a line number.
    """
    try:
        return _read_columns(path, domains)
    except (ValueError, OverflowError, KeyError):
        return RoutingColumns.from_records(parse_routing_csv(path, domains))


def _line_chunks(f):
    """The lines of text file `f`, as `str.splitlines` cuts its whole text,
    in lists of about CHUNK_LINES. Reading in text mode has already turned
    each CR LF and CR into LF, and a chunk ends after an LF, so no cut
    falls inside a line break."""
    while text := "".join(islice(f, CHUNK_LINES)):
        yield text.splitlines()


def _read_columns(path: str, domains: tuple[str, ...]) -> RoutingColumns:
    label = {d: d for d in domains}  # one str object per domain, not per record
    token_id, domain, layer, expert = [], [], [], []
    with open(path) as f:
        for i, lines in enumerate(_line_chunks(f)):
            if i == 0 and lines.pop(0).split(",") != ROUTING_HEADER:
                raise ValueError("bad header")
            lines = list(filter(str.strip, lines))  # skip blank lines
            if any(c != 4 for c in map(str.count, lines, repeat(","))):
                raise ValueError("a line without 5 fields")
            fields = ",".join(lines).split(",") if lines else []
            n = len(lines)
            token_id.append(np.fromiter(map(int, fields[0::5]), np.int64, n))
            domain += map(label.__getitem__, fields[1::5])
            layer.append(np.fromiter(map(int, fields[2::5]), np.int64, n))
            expert.append(np.fromiter(map(int, fields[3::5]), np.int64, n))
            np.fromiter(map(float, fields[4::5]), np.float64, n)  # checked, not kept
    empty = np.zeros(0, dtype=np.int64)
    return RoutingColumns(
        np.concatenate([empty, *token_id]), domain,
        np.concatenate([empty, *layer]), np.concatenate([empty, *expert]),
    )


def routing_l2_matrix(stats: RoutingStats, layer: int) -> np.ndarray:
    """Pairwise L2 distances between per-domain routing distributions at one
    layer. Each domain's expert-count vector is normalized to sum 1."""
    table = stats.counts[layer].astype(np.float64)  # [expert][domain]
    totals = table.sum(axis=0)
    empty = [stats.domains[i] for i in np.flatnonzero(totals == 0)]
    if empty:
        raise ValueError(f"domains with no routed tokens at layer {layer}: {empty}")
    dist = table / totals  # columns are distributions
    n = len(stats.domains)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(dist[:, i] - dist[:, j]))
            out[i, j] = out[j, i] = d
    return out


def dead_expert_report(
    stats: RoutingStats, threshold: float
) -> list[tuple[int, int]]:
    """(layer, expert) pairs whose share of that layer's routed tokens falls
    below threshold / N (seldom-selected experts)."""
    if not (0.0 <= threshold < 1.0):
        raise ValueError("threshold must lie in [0, 1)")
    out = []
    n = stats.n_experts
    for layer in range(stats.n_layers):
        per_expert = stats.counts[layer].sum(axis=1).astype(np.float64)
        total = per_expert.sum()
        if total == 0:
            continue
        share = per_expert / total
        for e in range(n):
            if share[e] < threshold / n:
                out.append((layer, e))
    return out


def heatmap_csv(stats: RoutingStats, layer: int) -> str:
    """Per-layer counts table: rows are experts, columns are domains."""
    lines = ["expert," + ",".join(stats.domains)]
    for e in range(stats.n_experts):
        row = ",".join(str(int(c)) for c in stats.counts[layer, e])
        lines.append(f"{e},{row}")
    return "\n".join(lines) + "\n"


def l2_matrix_csv(stats: RoutingStats, layer: int) -> str:
    mat = routing_l2_matrix(stats, layer)
    lines = ["domain," + ",".join(stats.domains)]
    for i, d in enumerate(stats.domains):
        row = ",".join(repr(float(v)) for v in mat[i])
        lines.append(f"{d},{row}")
    return "\n".join(lines) + "\n"
