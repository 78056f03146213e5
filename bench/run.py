#!/usr/bin/env python3
"""moeforge benchmark: run one workload through the moeforge CLI, check its
outputs and print its metrics.

Run from the root of a checkout; the package is imported from its ``src/``
directory, so nothing needs installing:

    python3 bench/run.py --workload desk_train --seed 1 --seconds 40 --trace 0

``--trace 0`` runs every CLI command in its own child process and reports the
end-to-end metrics listed in BENCHMARK.json. ``--trace 1`` instead calls
``moeforge.cli.main`` in this process, alternating untraced rounds with rounds
traced by the wrappers in spans.py, and reports the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See bench/README.md.
"""

import os

# One BLAS / worker thread on every run (never more than nproc), set before
# numpy loads here and inherited by every child command.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "MOEFORGE_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"

DEADLINE_S = 165.0  # every run must exit within 180 s
MIN_ROUNDS = 2  # output digests are compared across rounds
SETUP_REPEATS = 5  # set-ups per run at least; each must write the same bytes
IMPORT_REPEATS = 5
ENTRY = "import sys; from moeforge.cli import main; sys.exit(main())"

T0 = time.perf_counter()


def use_checkout_package() -> bool:
    """Put this checkout's src/ first on sys.path; False if it is absent."""
    if not (SRC / "moeforge" / "cli.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


@dataclass
class CmdResult:
    label: str
    wall_s: float
    code: int
    rss_mb: float
    stdout: str
    stderr: str


def run_child(label: str, argv: list[str], log_dir: Path, env: dict) -> CmdResult:
    """Run one command to completion; wall time from spawn to reap, and the
    child's own peak RSS from os.wait4."""
    timeout = max(1.0, DEADLINE_S - (time.perf_counter() - T0))
    out_path, err_path = log_dir / f"{label}.out", log_dir / f"{label}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=log_dir)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CmdResult(label, wall, proc.returncode, usage.ru_maxrss / 1024.0,
                     out_path.read_text(errors="replace"),
                     err_path.read_text(errors="replace"))


def run_inprocess(label: str, main, argv: list[str]) -> CmdResult:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return CmdResult(label, time.perf_counter() - start, code, 0.0,
                     out.getvalue(), err.getvalue())


class Tally:
    """Commands and output checks attempted, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems]

    def run_check(self, name: str, check) -> None:
        try:
            problems = check()
        except Exception as err:  # a check that cannot read its output fails
            problems = [f"check raised {type(err).__name__}: {err}"]
        self.record(name, problems)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def verify_round(workload, results: list[CmdResult], tally: Tally, digests: dict) -> None:
    """Exit codes every round; full output checks on the first round, and on
    later rounds every output must hash the same as the first round's."""
    from checks import file_digest

    for r in results:
        tally.record(f"{r.label}.exit", [] if r.code == 0 else
                     [f"exit {r.code}: {r.stderr.strip()[-300:]}"])
    current = {}
    for cmd in workload.commands():
        for path in cmd.outputs:
            current[path] = file_digest(path) if os.path.exists(path) else "missing"
    if not digests:
        for name, check in workload.checks():
            tally.run_check(name, check)
        digests.update(current)
    else:
        tally.record("outputs_repeat", [
            f"{os.path.basename(p)} differs from the first round"
            for p in digests if current.get(p) != digests[p]
        ])


def timed_setup(workload) -> tuple[float, list[str]]:
    """Write the seeded inputs once; its time and the inputs' digests."""
    from checks import file_digest

    start = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - start
    return elapsed, [file_digest(p) for p in workload.input_files()]


def check_setup_repeats(digests: list[list[str]], tally: Tally) -> None:
    tally.record("setup.inputs_repeat",
                 [] if all(d == digests[0] for d in digests) else ["inputs differ"])


def keep_going(rounds: int, started: float, last: float, seconds: float) -> bool:
    now = time.perf_counter()
    if now - T0 + last > DEADLINE_S:
        return False
    return rounds < MIN_ROUNDS or now - started + last <= seconds


def measure_untraced(workload, seconds: float, tally: Tally) -> tuple[dict, list]:
    """Rounds of set-up then the workload's commands, until `seconds` is up.

    The machine's speed changes from one second to the next, so set-up is
    timed once before every round (and at least SETUP_REPEATS times) rather
    than in one burst, and each reported time is a median over the run.
    """
    env = child_env()
    work = Path(workload.work)
    run_child("warmup", [sys.executable, "-c", "import moeforge.cli"], work, env)
    rounds: list[list[CmdResult]] = []
    setups: list[tuple[float, list[str]]] = []
    digests: dict = {}
    started, last = time.perf_counter(), 0.0
    while keep_going(len(rounds), started, last, seconds):
        t = time.perf_counter()
        setups.append(timed_setup(workload))
        results = [
            run_child(c.label, [sys.executable, "-c", ENTRY, *c.argv], work, env)
            for c in workload.commands()
        ]
        verify_round(workload, results, tally, digests)
        rounds.append(results)
        last = time.perf_counter() - t
    while len(setups) < SETUP_REPEATS:
        setups.append(timed_setup(workload))
    check_setup_repeats([inputs for _, inputs in setups], tally)
    setup_times = [t for t, _ in setups]

    labels = [r.label for r in rounds[0]]
    walls = {k: statistics.median(r[i].wall_s for r in rounds) for i, k in enumerate(labels)}
    rss = {k: max(r[i].rss_mb for r in rounds) for i, k in enumerate(labels)}
    totals = [sum(c.wall_s for c in r) for r in rounds]
    print("  round_totals_s = " + " ".join(f"{t:.4f}" for t in totals))
    print("  setup_runs_s = " + " ".join(f"{t:.4f}" for t in setup_times))
    values = {
        "total_s": statistics.median(totals),
        "peak_rss_mb": max(rss.values()),
        "setup_s": statistics.median(setup_times),
    }
    return values, workload.report(walls, rss) + [("rounds", len(rounds), "count")]


def cli_import_s() -> float:
    env = child_env()
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import moeforge.cli"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_traced(workload, seconds: float, tally: Tally, seed: int) -> tuple[dict, list]:
    import moeforge.cli as cli
    import numpy as np
    from spans import Tracer, layer_totals, tree_problems

    tracer = Tracer()
    digests: dict = {}

    def one_round(traced: bool) -> list[CmdResult]:
        with tracer.installed() if traced else contextlib.nullcontext():
            results = [run_inprocess(c.label, lambda argv: cli.main(argv), c.argv)
                       for c in workload.commands()]
        verify_round(workload, results, tally, digests)
        return results

    one_round(False)  # warm-up: first-call costs would bias the overhead
    walls = {False: [], True: []}
    final_mse = 0.0
    rounds = 0
    started, last = time.perf_counter(), 0.0
    while keep_going(rounds, started, last, seconds):
        t = time.perf_counter()
        tracer.run_id = f"{workload.name}-seed{seed}-round{rounds}"
        for traced in (True, False):
            results = one_round(traced)
            walls[traced].append(sum(r.wall_s for r in results))
            for r in results:
                if r.label == "train" and traced and r.code == 0:
                    final_mse = float(r.stdout.split("final_mse=")[1].split()[0])
        rounds += 1
        last = time.perf_counter() - t

    OUT_ROOT.mkdir(exist_ok=True)
    tracer.write_csv(str(OUT_ROOT / f"spans-{workload.name}-seed{seed}.csv.gz"))
    tally.record("trace.span_tree", tree_problems(tracer.spans))
    per_round = list(layer_totals(tracer.spans).values())
    counts = [{k: v for k, v in r.items() if not k.endswith((".s", ".self_s"))}
              for r in per_round]
    tally.record("trace.counts_repeat",
                 [] if all(c == counts[0] for c in counts) else ["counts differ by round"])

    names = {k for r in per_round for k in r}
    values = {k: statistics.median(r.get(k, 0.0) for r in per_round) for k in names}
    batch_ms = [s.duration * 1e3 for s in tracer.spans
                if s.name == "trainer.batch_loss_and_grads"]
    if batch_ms:
        values["trainer.batch_loss_and_grads.p50_ms"] = float(np.percentile(batch_ms, 50))
        values["trainer.batch_loss_and_grads.p95_ms"] = float(np.percentile(batch_ms, 95))
    values["trainer.final_mse"] = final_mse
    values["cli.import_s"] = cli_import_s()
    print("  traced_round_s = " + " ".join(f"{t:.4f}" for t in walls[True]))
    print("  untraced_round_s = " + " ".join(f"{t:.4f}" for t in walls[False]))
    traced_s, untraced_s = statistics.median(walls[True]), statistics.median(walls[False])
    values["trace.overhead_s"] = traced_s - untraced_s
    details = [("trace.traced_round_s", traced_s, "s"),
               ("trace.untraced_round_s", untraced_s, "s"),
               ("rounds", rounds, "count")]
    return values, details


def machine_facts() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def parse_args(argv):
    from workloads import WORKLOADS

    def nonneg(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    p = argparse.ArgumentParser(description="moeforge benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=nonneg, required=True)
    p.add_argument("--seconds", type=nonneg, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny: test-suite sizes, for the benchmark's self-tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not use_checkout_package():
        print(f"error: no moeforge package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    args = parse_args(argv)
    from workloads import WORKLOADS

    print(f"moeforge benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    print("machine: " + json.dumps(machine_facts()))
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        workload = WORKLOADS[args.workload](str(work), args.seed, args.size)
        tally = Tally()
        if args.trace:
            check_setup_repeats([timed_setup(workload)[1] for _ in range(SETUP_REPEATS)],
                                tally)
            values, details = measure_traced(workload, args.seconds, tally, args.seed)
            declared = spec["per_layer"]
        else:
            values, details = measure_untraced(workload, args.seconds, tally)
            details.append(("error_rate", tally.error_rate, "failed/attempted"))
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        print(f"  {m['name']} = {metrics[m['name']]['value']:.6g} {m['unit']}")
    for name, value, unit in details:
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  attempted = {tally.attempted}, failed = {tally.failed}")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
