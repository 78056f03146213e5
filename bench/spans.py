"""In-memory spans around moeforge's public functions, for the traced run.

A span records a name, a start, an end, its parent span and a run id. Spans
stay in memory until the run ends and are then written out as gzipped CSV.

Wrappers go on every module binding of a traced function, because callers
look a name up in their own module: ``moeforge.cli.train_distill`` and
``moeforge.trainer.train_distill`` are separate bindings, and
``moeforge.moe.moe_forward`` and ``moeforge.partition.slice_expert`` are
imported at call time from their modules. ``Rng`` methods are wrapped on the
class. Spans nest through one stack, so the traced code must call the
wrapped functions from a single thread (``MOEFORGE_THREADS=1``).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import os
import sys
import time
from collections import defaultdict


def _arg(i: int, name: str):
    def get(args, kwargs):
        return args[i] if len(args) > i else kwargs[name]

    return get


_path, _group, _records = _arg(0, "path"), _arg(1, "group"), _arg(0, "records")

# (module, attribute, counter name, counter). A counter maps
# (args, kwargs, result) to the amount of work the call did.
TRACED = [
    ("tensor", "Rng.normal_array", "tensor.normals", lambda a, k, r: int(r.size)),
    ("tensor", "Rng.choice_weighted", None, None),
    ("dense_ffn", "ffn_forward", None, None),
    ("importance", "importance_by_groups", None, None),
    ("importance", "group_data_by_clustering", None, None),
    ("importance", "accumulate_importance", "importance.samples",
     lambda a, k, r: len(_group(a, k).samples)),
    ("partition", "split_independent_random", None, None),
    ("partition", "split_independent_clustering", None, None),
    ("partition", "split_sharing_inner", None, None),
    ("partition", "split_sharing_inter", None, None),
    ("partition", "slice_expert", None, None),
    ("moe", "assemble_moe", None, None),
    ("moe", "moe_forward", None, None),
    ("trainer", "train_distill", None, None),
    ("trainer", "batch_loss_and_grads", None, None),
    ("trainer", "distill_mse", None, None),
    ("sampler", "next_domain", None, None),
    ("sampler", "dynamic_update", None, None),
    ("routing", "collect_routing", "routing.records",
     lambda a, k, r: len(_records(a, k))),
    ("routing", "heatmap_csv", None, None),
    ("routing", "l2_matrix_csv", None, None),
    ("mft", "read_mft", "mft.read_mft.bytes",
     lambda a, k, r: os.path.getsize(_path(a, k))),
    ("mft", "write_mft", "mft.write_mft.bytes",
     lambda a, k, r: os.path.getsize(_path(a, k))),
    ("cli", "main", None, None),
    ("cli", "cmd_split", None, None),
    ("cli", "cmd_train", None, None),
    ("cli", "cmd_schedule", None, None),
    ("cli", "cmd_analyze", None, None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "count")

    def __init__(self, name: str, start: float, parent: int, run_id: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index into the tracer's span list, -1 for a root
        self.run_id = run_id
        self.count = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else -1, self.run_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                span.count = counter(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function while the block runs, then restore."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "moeforge" or n.startswith("moeforge."))]
        patches = []  # (owner, attribute, original)
        try:
            for module_name, attr, _, counter in TRACED:
                module = sys.modules[f"moeforge.{module_name}"]
                short = attr.rsplit(".", 1)[-1]
                name = f"{module_name}.{short}"
                if "." in attr:
                    owner = getattr(module, attr.split(".")[0])
                    original = owner.__dict__[short]
                    patches.append((owner, short, original))
                    setattr(owner, short, self._wrap(name, original, counter))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, counter)
                for m in modules:
                    for binding in [k for k, v in vars(m).items() if v is original]:
                        patches.append((m, binding, original))
                        setattr(m, binding, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def write_csv(self, path: str) -> None:
        """Gzipped CSV, one row per span; `parent` is a row index or -1."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("run_id,name,start_s,end_s,parent,count\n")
            for s in self.spans:
                count = "" if s.count is None else s.count
                f.write(f"{s.run_id},{s.name},{s.start!r},{s.end!r},{s.parent},{count}\n")


COUNTER_NAMES = {f"{m}.{a.rsplit('.', 1)[-1]}": c for m, a, c, _ in TRACED if c}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def tree_problems(spans: list[Span]) -> list[str]:
    """Every child lies inside its parent and shares its run id; every span
    ends after it starts and has non-negative self time."""
    problems = []
    for i, (s, own) in enumerate(zip(spans, self_times(spans))):
        if s.end < s.start:
            problems.append(f"span {i} {s.name} ends before it starts")
        if own < 0:
            problems.append(f"span {i} {s.name} has self time {own}")
        if s.parent >= 0:
            p = spans[s.parent]
            if not (p.start <= s.start and s.end <= p.end) or p.run_id != s.run_id:
                problems.append(f"span {i} {s.name} lies outside parent {p.name}")
    return problems


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per run id and span name: `.calls`, inclusive `.s`, `.self_s`, plus
    the counters named in TRACED."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, self_times(spans)):
        run = out[s.run_id]
        run[f"{s.name}.calls"] += 1
        run[f"{s.name}.s"] += s.duration
        run[f"{s.name}.self_s"] += own
        if s.count is not None:
            run[COUNTER_NAMES[s.name]] += s.count
    return {k: dict(v) for k, v in out.items()}
