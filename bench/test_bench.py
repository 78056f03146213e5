"""Self-tests for the benchmark. Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

assert run.use_checkout_package()

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(tmp_root, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(tmp_root / "bench" / "run.py"), *args],
        capture_output=True, text=True, timeout=180, cwd=tmp_root,
    )


@pytest.fixture(scope="module")
def smoke():
    """Each workload at tiny size, untraced and traced: name -> result."""
    out = {}
    for name in WORKLOADS:
        for trace in ("0", "1"):
            proc = bench(run.ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                         "--trace", trace, "--size", "tiny")
            assert proc.returncode == 0, proc.stderr
            out[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_spec_follows_its_own_rules():
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_reports_every_metric_with_its_unit(smoke, workload, trace):
    result = smoke[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_layer_metric_moves_on_some_workload(smoke):
    idle = [
        m["name"] for m in SPEC["per_layer"]
        if m["name"] != "trace.overhead_s"
        and all(smoke[w, "1"]["metrics"][m["name"]]["value"] == 0 for w in WORKLOADS)
    ]
    assert idle == []


def _round(tmp_path, name):
    """One untraced in-process round of a tiny workload; returns it and
    its command results."""
    import moeforge.cli as cli

    workload = WORKLOADS[name](str(tmp_path), 5, "tiny")
    workload.setup()
    results = [run.run_inprocess(c.label, cli.main, c.argv) for c in workload.commands()]
    return workload, results


def _error_rate(workload, results) -> float:
    tally = run.Tally()
    run.verify_round(workload, results, tally, {})
    return tally.error_rate


def test_dropped_partition_index_raises_error_rate(tmp_path):
    workload, results = _round(tmp_path, "wide_split")
    assert _error_rate(workload, results) == 0.0
    path = workload.path("independent_random.json")
    doc = checks.load_json(path)
    doc["sets"][0] = doc["sets"][0][1:]
    with open(path, "w") as f:
        json.dump(doc, f)
    assert _error_rate(workload, results) > 0.0


def test_heatmap_off_by_one_raises_error_rate(tmp_path):
    workload, results = _round(tmp_path, "mixture_analyze")
    assert _error_rate(workload, results) == 0.0
    path = workload.path("analysis", "heatmap_layer0.csv")
    lines = open(path).read().splitlines()
    cells = lines[1].split(",")
    cells[1] = str(int(cells[1]) + 1)
    lines[1] = ",".join(cells)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    assert _error_rate(workload, results) > 0.0


def test_changed_output_between_rounds_is_a_failure(tmp_path):
    workload, results = _round(tmp_path, "mixture_analyze")
    tally, digests = run.Tally(), {}
    run.verify_round(workload, results, tally, digests)
    with open(workload.path("schedule.csv"), "a") as f:
        f.write("\n")
    run.verify_round(workload, results, tally, digests)
    assert tally.failed == 1


def test_span_tree_is_well_formed(tmp_path):
    import moeforge.cli as cli

    workload = WORKLOADS["desk_train"](str(tmp_path), 5, "tiny")
    workload.setup()
    tracer = spans.Tracer()
    tracer.run_id = "r0"
    with tracer.installed():
        for c in workload.commands():
            assert run.run_inprocess(c.label, lambda argv: cli.main(argv), c.argv).code == 0
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "trainer.batch_loss_and_grads", "moe.moe_forward",
            "partition.slice_expert", "tensor.normal_array"} <= names
    assert spans.tree_problems(tracer.spans) == []
    assert all(t >= 0 for t in spans.self_times(tracer.spans))
    # the wrappers are gone after the block
    assert cli.main.__module__ == "moeforge.cli" and not hasattr(cli.main, "__wrapped__")


def test_tree_problems_flags_a_child_outside_its_parent():
    parent = spans.Span("a", 0.0, -1, "r")
    parent.end = 1.0
    child = spans.Span("b", 0.5, 0, "r")
    child.end = 1.5
    assert spans.tree_problems([parent, child])
    child.end = 0.75
    assert spans.tree_problems([parent, child]) == []
    assert spans.self_times([parent, child]) == [0.75, 0.25]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "--workload", "desk_train", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
    assert not os.path.exists(tmp_path / ".bench_work")
