"""The three benchmark workloads: their inputs, CLI commands and checks.

Each workload is a closed loop of sequential CLI commands; the next command
starts when the last one has exited. Shapes are part of a workload's
definition. Step, sample, draw and record counts are sized so that one round
of a workload takes a few seconds on a 2-core machine ("full"); "tiny" runs
the same commands at the test suite's sizes, for the benchmark's self-tests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import inputs


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]  # arguments after the program name
    outputs: tuple[str, ...]  # files whose bytes must repeat for one seed


Check = tuple[str, Callable[[], list[str]]]


class Workload:
    name = ""
    sizes: dict[str, dict] = {}

    def __init__(self, work: str, seed: int, size: str):
        self.work = work
        self.seed = seed
        self.size = dict(self.sizes[size])

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def setup(self) -> None:
        """Write the seeded input files into the work directory."""
        raise NotImplementedError

    def input_files(self) -> list[str]:
        raise NotImplementedError

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def checks(self) -> list[Check]:
        """Checks on the outputs of one round."""
        raise NotImplementedError

    def report(self, walls: dict[str, float], rss: dict[str, float]) -> list[tuple]:
        """Workload-specific (name, value, unit) metrics from median command
        wall times and peak RSS per command label."""
        raise NotImplementedError


class _SplitWorkload(Workload):
    """Shared by the workloads that split a seeded teacher."""

    def setup(self) -> None:
        s = self.size
        inputs.write_teacher(self.path("teacher.mft"), s["d"], s["d_h"], self.seed)

    def input_files(self) -> list[str]:
        return [self.path("teacher.mft")]

    def split(self, method: str, seed: int, gate_init: str = "zeros") -> Command:
        s = self.size
        part, layer = self.path(f"{method}.json"), self.path(f"{method}.mft")
        argv = [
            "split", "--ffn", self.path("teacher.mft"), "--method", method,
            "--experts", str(s["n"]), "--topk", str(s["k"]),
            "--seed", str(seed),
            "--importance-samples", str(s["importance_samples"]),
            "--residual-threshold", str(s["residual_threshold"]),
            "--gate-init", gate_init, "--out-partition", part, "--out-layer", layer,
        ]
        return Command(f"split_{method}", tuple(argv), (part, layer))

    def split_checks(self, method: str) -> list[Check]:
        s = self.size
        part, layer = self.path(f"{method}.json"), self.path(f"{method}.mft")
        independent = method.startswith("independent")

        def partition() -> list[str]:
            doc = checks.load_json(part)
            if independent:
                return checks.check_independent_partition(doc, s["d_h"], s["n"])
            return checks.check_sharing_partition(
                doc, s["d_h"], s["n"], inter=method == "sharing_inter"
            )

        def sliced() -> list[str]:
            return checks.check_layer(
                self.teacher(), checks.read_mft(layer), checks.load_json(part), s["k"]
            )

        def sum_identity() -> list[str]:
            probes = np.random.default_rng([self.seed, 3]).standard_normal((8, s["d"]))
            return checks.check_sum_identity(
                self.teacher(), checks.read_mft(layer), s["n"], probes
            )

        out = [(f"{method}.partition", partition), (f"{method}.layer", sliced)]
        if independent:
            out.append((f"{method}.sum_identity", sum_identity))
        return out

    def teacher(self) -> dict:
        return checks.read_mft(self.path("teacher.mft"))


class DeskTrain(_SplitWorkload):
    name = "desk_train"
    sizes = {
        "full": dict(d=128, d_h=512, n=8, k=2, importance_samples=256,
                     residual_threshold=0.375,
                     train=dict(lr_max=0.05, lr_final=0.005, warmup_steps=10,
                                total_steps=80, batch_size=64, balance_coeff=0.01,
                                num_samples=256)),
        "tiny": dict(d=16, d_h=32, n=4, k=2, importance_samples=16,
                     residual_threshold=0.5,
                     train=dict(lr_max=0.05, lr_final=0.005, warmup_steps=2,
                                total_steps=8, batch_size=8, balance_coeff=0.01,
                                num_samples=8)),
    }

    def setup(self) -> None:
        super().setup()
        inputs.write_json(self.path("train.json"), dict(self.size["train"], seed=self.seed))

    def input_files(self) -> list[str]:
        return super().input_files() + [self.path("train.json")]

    def commands(self) -> list[Command]:
        run = self.path("run")
        train = Command(
            "train",
            ("train", "--layer", self.path("sharing_inter.mft"),
             "--teacher", self.path("teacher.mft"),
             "--config", self.path("train.json"), "--out", run),
            (os.path.join(run, "train_report.csv"), os.path.join(run, "layer_final.mft")),
        )
        return [self.split("sharing_inter", self.seed, gate_init="random"), train]

    def checks(self) -> list[Check]:
        steps = self.size["train"]["total_steps"]
        report = self.path("run", "train_report.csv")
        return self.split_checks("sharing_inter") + [
            ("train.report", lambda: checks.check_train_report(report, steps)),
            ("train.layer", lambda: [] if checks.read_mft(self.path("run", "layer_final.mft"))
             else ["empty final layer"]),
        ]

    def report(self, walls, rss):
        t = self.size["train"]
        return [
            ("split_sharing_inter_s", walls["split_sharing_inter"], "s"),
            ("train_tokens_per_s", t["batch_size"] * t["total_steps"] / walls["train"],
             "tokens/s"),
        ]


class WideSplit(_SplitWorkload):
    name = "wide_split"
    methods = ("independent_random", "independent_clustering",
               "sharing_inner", "sharing_inter")
    sizes = {
        "full": dict(d=1024, d_h=2752, n=16, k=4, importance_samples=128,
                     residual_threshold=0.25),
        "tiny": dict(d=16, d_h=64, n=4, k=2, importance_samples=16,
                     residual_threshold=0.5),
    }
    # k-means seeds its centroids from --seed; a fixed value with the
    # shape-fixed w_up geometry keeps its iteration count the same for every
    # seed.
    clustering_seed = 0

    def commands(self) -> list[Command]:
        return [
            self.split(m, self.clustering_seed if m == "independent_clustering" else self.seed)
            for m in self.methods
        ]

    def checks(self) -> list[Check]:
        return [c for m in self.methods for c in self.split_checks(m)]

    def report(self, walls, rss):
        out = [(f"split_{m}_s", walls[f"split_{m}"], "s") for m in self.methods]
        out += [(f"peak_rss_mb.split_{m}", rss[f"split_{m}"], "MB") for m in self.methods]
        return out


class MixtureAnalyze(Workload):
    name = "mixture_analyze"
    sizes = {
        "full": dict(draws=40000, interval=100, observed_rows=16,
                     tokens=10000, layers=4, experts=16, topk=4),
        "tiny": dict(draws=300, interval=20, observed_rows=4,
                     tokens=120, layers=2, experts=4, topk=2),
    }
    preset = "llama_v1"

    def setup(self) -> None:
        from moeforge.sampler import DEFAULT_DOMAINS, load_preset

        s = self.size
        self.domains = DEFAULT_DOMAINS
        self.expected = inputs.write_routing_csv(
            self.path("routing.csv"), self.seed, s["tokens"], s["layers"],
            s["experts"], s["topk"], self.domains, load_preset(self.preset).weights,
        )
        inputs.write_loss_files(
            self.path("reference_loss.json"), self.path("observed_loss.json"),
            self.seed, self.domains, s["observed_rows"],
        )

    def input_files(self) -> list[str]:
        return [self.path(f) for f in
                ("routing.csv", "reference_loss.json", "observed_loss.json")]

    @property
    def records(self) -> int:
        s = self.size
        return s["tokens"] * s["layers"] * s["topk"]

    def commands(self) -> list[Command]:
        s = self.size
        sched, out = self.path("schedule.csv"), self.path("analysis")
        schedule = Command(
            "schedule",
            ("schedule", "--mode", "dynamic", "--preset", self.preset,
             "--draws", str(s["draws"]), "--interval", str(s["interval"]),
             "--seed", str(self.seed),
             "--reference-loss", self.path("reference_loss.json"),
             "--observed-loss", self.path("observed_loss.json"), "--out", sched),
            (sched,),
        )
        tables = [os.path.join(out, f"{kind}_layer{i}.csv")
                  for i in range(s["layers"]) for kind in ("heatmap", "l2")]
        analyze = Command(
            "analyze",
            ("analyze", "--routing", self.path("routing.csv"),
             "--experts", str(s["experts"]), "--out", out),
            tuple(tables),
        )
        return [schedule, analyze]

    def checks(self) -> list[Check]:
        out = self.path("analysis")
        return [
            ("schedule.rows", lambda: checks.check_schedule(
                self.path("schedule.csv"), self.size["draws"], self.domains)),
            ("analyze.heatmaps", lambda: checks.check_heatmaps(
                out, self.expected, self.domains)),
            ("analyze.l2", lambda: checks.check_l2_matrices(
                out, self.expected, self.domains)),
        ]

    def report(self, walls, rss):
        return [
            ("schedule_draws_per_s", self.size["draws"] / walls["schedule"], "draws/s"),
            ("analyze_records_per_s", self.records / walls["analyze"], "records/s"),
        ]


WORKLOADS = {w.name: w for w in (DeskTrain, WideSplit, MixtureAnalyze)}
