"""Expert-specialization statistics over routing record streams.

Counts how many tokens each (layer, expert) pair received per domain,
then compares domains by the L2 distance between their normalized
per-expert routing distributions. A token selected by k experts
contributes k counts (selections, not first choices).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

ROUTING_HEADER = ["token_id", "domain", "layer", "expert", "weight"]
# A plain file, which np.loadtxt reads as parse_routing_csv does: this header
# line, then only LF and printable ASCII but space, '#' and '"'. VT, FF and
# FS/GS/RS end a line for str.splitlines but not for loadtxt, a NUL ends an
# `S` field early, '#' and '"' are comment and quote characters, and CR,
# space and tab are left out so that no whitespace rule is relied on.
_PLAIN_HEADER = (",".join(ROUTING_HEADER) + "\n").encode("ascii")
_PLAIN_BYTES = bytes(range(0x21, 0x7F)).translate(None, b'#"') + b"\n"
_PLAIN_PIECE = 1 << 20


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
    fit) and each record's domain code: its index in the reader's domains,
    or -1 for a label not among them, the first of which is `unknown`. Gate
    weights are not counted, so not kept."""

    token_id: np.ndarray
    code: np.ndarray
    layer: np.ndarray
    expert: np.ndarray
    unknown: str | None = None

    def __len__(self) -> int:
        return len(self.code)

    @staticmethod
    def from_records(records, domains: tuple[str, ...]) -> "RoutingColumns":
        index = {d: i for i, d in enumerate(domains)}
        rows = [(r.token_id, index.get(r.domain, -1), r.layer, r.expert, r.domain)
                for r in records]
        token_id, code, layer, expert, domain = zip(*rows) if rows else ((),) * 5
        unknown = next((d for d, c in zip(domain, code) if c < 0), None)
        return RoutingColumns(
            _int_column(token_id), np.array(code, dtype=np.intp),
            _int_column(layer), _int_column(expert), unknown,
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
        records = RoutingColumns.from_records(records, domains)
    token_id, code = records.token_id, records.code
    layer, expert = records.layer, records.expert
    counts = np.zeros((n_layers, n_experts, len(domains)), dtype=np.int64)
    bad_layer = ~((layer >= 0) & (layer < n_layers))
    bad_expert = ~((expert >= 0) & (expert < n_experts))
    bad = np.flatnonzero(bad_layer | bad_expert | (code < 0))
    if len(bad):
        i = bad[0]
        if bad_layer[i]:
            raise ValueError(f"layer {layer[i]} out of range [0, {n_layers})")
        if bad_expert[i]:
            raise ValueError(f"expert {expert[i]} out of range [0, {n_experts})")
        raise ValueError(f"unknown domain label {records.unknown!r}")
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
    """The records of a routing CSV, column by column: a plain file by one
    np.loadtxt call. Any other file, or one loadtxt does not take whole (a
    bad field, an integer beyond int64, an unknown domain, ...), goes
    through parse_routing_csv, which gives the same records or raises with
    a line number."""
    columns = _read_plain(path, domains) if _is_plain(path) else None
    if columns is None:
        columns = RoutingColumns.from_records(parse_routing_csv(path, domains), domains)
    return columns


def _read_plain(path: str, domains: tuple[str, ...]) -> RoutingColumns | None:
    """The columns of a plain file, or None. Each label is cut to one byte
    more than the longest domain, so a longer one matches none; a row whose
    label matches no domain gives None. NumPy releases from 1.23 until the
    deprecation expired read an integer field such as "2.7" through a float
    with only a DeprecationWarning; as an error it becomes a ValueError."""
    labels = [d.encode() for d in domains]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(
                path, delimiter=",", skiprows=1, comments=None, quotechar=None,
                ndmin=1, encoding="ascii",
                dtype=[("token_id", "i8"), ("domain", f"S{max(map(len, labels), default=0) + 1}"),
                       ("layer", "i8"), ("expert", "i8"), ("weight", "f8")],  # weights only checked
            )
    except (ValueError, DeprecationWarning):
        return None
    code = np.full(len(rows), -1, dtype=np.intp)
    for i, label in enumerate(labels):  # the last of a repeated domain wins
        code[(rows["domain"] == label) & (b"\0" not in label)] = i  # `S` drops trailing NULs
    if code.min() < 0:
        return None
    return RoutingColumns(rows["token_id"], code, rows["layer"], rows["expert"])


def _is_plain(path: str) -> bool:
    """Whether the file is plain and has a record; read piece by piece."""
    records = False
    with open(path, "rb") as f:
        if f.read(len(_PLAIN_HEADER)) != _PLAIN_HEADER:
            return False
        while piece := f.read(_PLAIN_PIECE):
            if piece.translate(None, _PLAIN_BYTES):
                return False
            records = records or piece.count(b"\n") < len(piece)
    return records


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
