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
# line, then only line ends and printable ASCII but space, '#' and '"'. Both
# readers open the file in text mode, where LF, CRLF and CR each end a line.
# VT, FF and FS/GS/RS end a line for str.splitlines but not for loadtxt, a
# NUL ends an `S` field early, '#' and '"' are comment and quote characters,
# and space and tab are left out so that no whitespace rule is relied on.
_PLAIN_HEADER = ",".join(ROUTING_HEADER).encode("ascii")
_PLAIN_BYTES = bytes(range(0x21, 0x7F)).translate(None, b'#"') + b"\r\n"
_PLAIN_PIECE = 1 << 20
# The largest (layers, experts, domains) count table collect_routing allocates
MAX_COUNTS = 1 << 24


@dataclass(frozen=True, eq=False)
class RoutingColumns:
    """Routing records column by column, as counting reads them: integer
    token ids, layers and experts (int64, or Python ints where one does not
    fit) and each record's domain code, its index in the reader's domains.
    Gate weights are not counted, so not kept."""

    token_id: np.ndarray
    code: np.ndarray
    layer: np.ndarray
    expert: np.ndarray

    def __len__(self) -> int:
        return len(self.code)


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
    records: RoutingColumns,
    n_layers: int,
    n_experts: int,
    domains: tuple[str, ...],
) -> RoutingStats:
    """Exact counts over routing columns; order-independent.

    Selections are one bincount over the flat (layer, expert, domain) index;
    tokens per domain are the distinct (domain, token) pairs. A bad record
    raises as a loop over the records would: the first one in order, its
    layer checked first, then its expert, then its domain code. A table
    of more than MAX_COUNTS counts is refused before anything is allocated.
    """
    if n_layers * n_experts * len(domains) > MAX_COUNTS:
        raise ValueError(
            f"count table of {n_layers} layers x {n_experts} experts x "
            f"{len(domains)} domains exceeds {MAX_COUNTS} counts"
        )
    token_id, code, layer, expert = records.token_id, records.code, records.layer, records.expert
    counts = np.zeros((n_layers, n_experts, len(domains)), dtype=np.int64)
    bad_layer = ~((layer >= 0) & (layer < n_layers))
    bad_expert = ~((expert >= 0) & (expert < n_experts))
    bad_code = ~((code >= 0) & (code < len(domains)))
    bad = np.flatnonzero(bad_layer | bad_expert | bad_code)
    if len(bad):
        i = bad[0]
        if bad_layer[i]:
            raise ValueError(f"layer {layer[i]} out of range [0, {n_layers})")
        if bad_expert[i]:
            raise ValueError(f"expert {expert[i]} out of range [0, {n_experts})")
        raise ValueError(f"domain code {code[i]} out of range [0, {len(domains)})")
    flat = (layer.astype(np.intp) * n_experts + expert.astype(np.intp)) * len(domains) + code
    counts += np.bincount(flat, minlength=counts.size).reshape(counts.shape)

    # sort by (domain, token); the first of each run is one distinct pair
    order = np.lexsort((token_id, code))
    code, token_id = code[order], token_id[order]
    first = np.ones(len(code), dtype=bool)
    first[1:] = (code[1:] != code[:-1]) | (token_id[1:] != token_id[:-1])
    tokens = np.bincount(code[first], minlength=len(domains)).astype(np.int64)
    return RoutingStats(counts=counts, domains=domains, tokens_per_domain=tokens)


def parse_routing_csv(path: str, domains: tuple[str, ...]) -> RoutingColumns:
    """The columns of a routing CSV, one non-blank line at a time; a bad
    line raises with its line number."""
    index = {d: i for i, d in enumerate(domains)}  # the last of a repeated domain wins
    rows = []
    with open(path) as f:
        lines = f.read().splitlines()
    if lines and lines[0].split(",") != ROUTING_HEADER:
        raise ValueError(f"line 1: expected header {','.join(ROUTING_HEADER)}")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            row = (int(parts[0]), index.get(parts[1]), int(parts[2]), int(parts[3]))
            float(parts[4])  # weights are only checked
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from err
        if row[1] is None:
            raise ValueError(f"line {lineno}: unknown domain label {parts[1]!r}")
        rows.append(row)
    token_id, code, layer, expert = zip(*rows) if rows else ((),) * 4
    return RoutingColumns(_int_column(token_id), np.array(code, dtype=np.intp),
                          _int_column(layer), _int_column(expert))


def read_routing_csv(path: str, domains: tuple[str, ...]) -> RoutingColumns:
    """The records of a routing CSV, column by column: a plain file by one
    np.loadtxt call. Any other file, or one loadtxt does not take whole (a
    bad field, an integer beyond int64, an unknown domain, ...), goes
    through parse_routing_csv, which gives the same columns or raises with
    a line number."""
    columns = _read_plain(path, domains) if _is_plain(path) else None
    return parse_routing_csv(path, domains) if columns is None else columns


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
        if f.read(len(_PLAIN_HEADER) + 1) not in (_PLAIN_HEADER + b"\n", _PLAIN_HEADER + b"\r"):
            return False
        while piece := f.read(_PLAIN_PIECE):
            if piece.translate(None, _PLAIN_BYTES):
                return False
            records = records or piece.count(b"\n") + piece.count(b"\r") < len(piece)
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
