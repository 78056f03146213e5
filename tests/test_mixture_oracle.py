"""The bulk mixture path against the per-draw and per-line code it replaced.

`schedule` draws each run of domains between two dynamic updates as one
block (`Rng.choice_weighted(weights, count)`); `analyze` parses the routing
CSV column by column and counts with one bincount. The oracles below are
the per-draw `cmd_schedule` loop, and the record-based per-line parser that
the column reader's fallback replaced (kept here as it was) plus the record
loop that counted before: outputs, exit codes and messages must be identical.
"""

import contextlib
import io
import json
import os
import tempfile
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from moeforge import cli, routing
from moeforge.routing import ROUTING_HEADER, RoutingColumns, RoutingStats, read_routing_csv
from moeforge.sampler import (
    DEFAULT_DOMAINS,
    SamplerMode,
    SamplerState,
    dynamic_update,
    load_preset,
    next_domain,
    update_due,
)
from moeforge.tensor import Rng

from scalar_stream import (
    choice_one,
    next_domain_one,
    next_float,
    state_before_output,
    static_state,
)

PRESETS = ("llama_v1", "sheared_final", "uniform")


# ---------------------------------------------------------------- bulk draws

def weight_sets():
    rng = np.random.default_rng(5)
    sets = {name: load_preset(name).weights for name in PRESETS}
    sets["random9"] = rng.random(9) * 3.0
    sets["random300"] = rng.random(300)
    sets["zeros"] = np.array([0.0, 0.2, 0.0, 0.0, 0.5, 0.3, 0.0])
    return sets


WEIGHTS = weight_sets()
COUNTS = (0, 1, 65535, 65536, 65537)


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_bulk_draws_match_single_draws(name):
    weights = WEIGHTS[name]
    ref = Rng(17)
    single, states = [], {0: ref._state}
    for n in range(1, max(COUNTS) + 1):
        single.append(choice_one(ref, weights))
        states[n] = ref._state
    for count in COUNTS:
        rng = Rng(17)
        got = rng.choice_weighted(weights, count)
        assert got.shape == (count,)
        assert got.tolist() == single[:count]
        assert rng._state == states[count]


def test_bulk_draws_continue_the_stream():
    bulk, ref = Rng(3), Rng(3)
    weights = WEIGHTS["llama_v1"]
    got = [choice_one(bulk, weights)]
    for count in (5, 0, 1, 300, 2):
        got += bulk.choice_weighted(weights, count).tolist()
        got.append(choice_one(bulk, weights))
    want = [choice_one(ref, weights) for _ in range(len(got))]
    assert got == want and bulk._state == ref._state


def rng_first_uniform(u: float) -> Rng:
    """An Rng whose first next_float is exactly u: the state before the draw
    of u's 53 bits, shifted up by 11."""
    rng = Rng(0)
    rng._state = state_before_output(int(u * 2.0**53) << 11, 0)
    return rng


def assert_bulk_draw_is_single_draw(u, weights):
    check, bulk, ref = (rng_first_uniform(u) for _ in range(3))
    assert next_float(check) == u
    assert bulk.choice_weighted(weights, 1).tolist() == [choice_one(ref, weights)]


@pytest.mark.parametrize("u", [0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53])
def test_uniform_on_an_edge(u):
    # on an edge of the running sum the draw goes to the next index, as
    # `u < acc` does
    assert_bulk_draw_is_single_draw(u, np.array([0.25, 0.25, 0.0, 0.25, 0.25]))


def test_scale_is_the_pairwise_sum():
    # for n >= 8 numpy's pairwise np.sum can differ from the running sum in
    # its last bit; find a uniform that lands on different sides of an edge
    # under the two scales and check the draw still follows np.sum
    rng = np.random.default_rng(11)
    for _ in range(1000):
        weights = rng.random(9)
        total, running = float(np.sum(weights)), float(np.cumsum(weights)[-1])
        if total != running:
            break
    edge = float(np.cumsum(weights)[4])
    f = np.ceil(edge / max(total, running) * 2.0**53) / 2.0**53
    assert (f * total < edge) != (f * running < edge)
    assert_bulk_draw_is_single_draw(float(f), weights)


def test_bulk_draws_reject_negative_weights():
    with pytest.raises(ValueError, match="nonnegative"):
        Rng(0).choice_weighted(np.array([0.5, -0.1, 0.6]), 4)


def test_next_domain_count_matches_single_draws():
    state = static_state(load_preset("llama_v1"))
    drawn, bulk_state = next_domain(state, Rng(8), 50)
    rng, single = Rng(8), []
    for _ in range(50):
        name, state = next_domain_one(state, rng)
        single.append(name)
    assert drawn == single
    assert bulk_state.tokens_since_update == state.tokens_since_update == 50


# ---------------------------------------------------------------- schedule

def schedule_oracle(args) -> int:
    """The per-draw `cmd_schedule` loop that `sampler.schedule_log` replaced."""
    weights = load_preset(args.preset)
    mode = SamplerMode(args.mode)
    reference_loss = np.zeros(len(weights.domains))
    observed_seq = []
    if args.reference_loss:
        with open(args.reference_loss) as f:
            doc = json.load(f)
        reference_loss = np.array([doc[d] for d in weights.domains])
    if args.observed_loss:
        with open(args.observed_loss) as f:
            seq = json.load(f)
        for i, row in enumerate(seq, start=1):  # every row is checked before the first draw
            if len(row) != len(weights.domains):
                raise ValueError(f"--observed-loss row {i} must be a list with one entry per domain")
        observed_seq = [np.asarray(row, dtype=np.float64) for row in seq]

    state = SamplerState(
        current=weights,
        reference_weights=weights,
        reference_loss=reference_loss,
        mode=mode,
        update_interval_tokens=args.interval,
    )
    rng = Rng(args.seed)
    lines = ["step,domain," + ",".join(state.current.domains)]
    update_idx = 0
    for step in range(args.draws):
        if update_due(state):
            obs = (
                observed_seq[update_idx % len(observed_seq)]
                if observed_seq
                else state.reference_loss
            )
            state = dynamic_update(state, obs)
            update_idx += 1
        domain, state = next_domain_one(state, rng)
        row = ",".join(repr(float(w)) for w in state.current.weights)
        lines.append(f"{step},{domain},{row}")
    with open(args.out, "w") as f:
        f.write("\n".join(lines) + "\n")
    print(f"wrote {args.draws} draws to {args.out}")
    return cli.EXIT_OK


def run_cli(argv, command=None, oracle=None):
    """Exit code, stdout and stderr of `moeforge argv`, with `command`
    replaced by `oracle` when both are given. A usage error is exit code 2,
    as argparse gives it, not an exception."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if oracle is not None:
            stack.enter_context(pytest.MonkeyPatch.context()).setattr(cli, command, oracle)
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def read_or_none(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        return f.read()


def assert_schedule_matches(tmp_path, argv):
    results = []
    for tag, oracle in (("bulk", None), ("oracle", schedule_oracle)):
        out = str(tmp_path / f"{tag}.csv")
        code, stdout, stderr = run_cli(
            ["schedule", *argv, "--out", out], command="cmd_schedule", oracle=oracle
        )
        results.append((code, stdout.replace(out, "OUT"), stderr, read_or_none(out)))
    assert results[0] == results[1]
    return results[0]


@pytest.fixture
def loss_files(tmp_path):
    rng = np.random.default_rng(3)
    ref = dict(zip(DEFAULT_DOMAINS, (2.0 + rng.random(7)).tolist()))
    ref_path, obs_path = str(tmp_path / "ref.json"), str(tmp_path / "obs.json")
    with open(ref_path, "w") as f:
        json.dump(ref, f)
    rows = np.array(list(ref.values()))[None, :] + rng.normal(0.0, 0.3, (3, 7))
    with open(obs_path, "w") as f:
        json.dump(rows.tolist(), f)
    return ["--reference-loss", ref_path, "--observed-loss", obs_path]


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("draws", [0, 1, 777])
def test_static_schedule_identical(tmp_path, preset, draws):
    code, *_, text = assert_schedule_matches(
        tmp_path, ["--preset", preset, "--mode", "static", "--draws", str(draws), "--seed", "4"])
    assert code == cli.EXIT_OK and text.count(b"\n") == draws + 1


@pytest.mark.parametrize("interval", [1, 7, 100, 5000])
@pytest.mark.parametrize("draws", [0, 1, 1000])
def test_dynamic_schedule_identical(tmp_path, loss_files, interval, draws):
    # 3 observed rows: with interval 1 and 7 the rows cycle many times
    code, *_, text = assert_schedule_matches(
        tmp_path, ["--mode", "dynamic", "--draws", str(draws), "--interval", str(interval),
                   "--seed", "11", *loss_files])
    assert code == cli.EXIT_OK and text.count(b"\n") == draws + 1


def test_dynamic_schedule_without_observed_rows(tmp_path, loss_files):
    assert_schedule_matches(
        tmp_path, ["--mode", "dynamic", "--preset", "sheared_final", "--draws", "250",
                   "--interval", "9", *loss_files[:2]])


def test_zero_interval_error_identical(tmp_path, loss_files):
    code, _, stderr, text = assert_schedule_matches(
        tmp_path, ["--mode", "dynamic", "--draws", "10", "--interval", "0", *loss_files])
    # refused by argparse before either schedule runs
    assert code == cli.EXIT_USAGE and "--interval: must be at least 1" in stderr and text is None


def test_wrong_length_observed_row_error_identical(tmp_path, loss_files):
    # the fourth row is short: it is refused before the first draw, and no
    # partial file is left
    obs_path = loss_files[3]
    with open(obs_path) as f:
        rows = json.load(f)
    with open(obs_path, "w") as f:
        json.dump(rows + [[1.0, 2.0]], f)
    code, _, stderr, text = assert_schedule_matches(
        tmp_path, ["--mode", "dynamic", "--draws", "100", "--interval", "10", *loss_files])
    assert code == cli.EXIT_DATA and "one entry per domain" in stderr and text is None


# ---------------------------------------------------------------- analyze

@dataclass(frozen=True)
class RoutingRecord:
    """One expert selection: token `token_id` from `domain` was routed to
    `expert` at `layer` with the given gate weight."""

    token_id: int
    domain: str
    layer: int
    expert: int
    weight: float


def parse_routing_oracle(path: str, domains: tuple[str, ...]) -> list[RoutingRecord]:
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


def oracle_rows(records, domains):
    """(token_id, domain code, layer, expert) of each RoutingRecord; the
    last of a repeated domain wins."""
    index = {d: i for i, d in enumerate(domains)}
    return [(r.token_id, index[r.domain], r.layer, r.expert) for r in records]


def int_column(values):
    """Integers as int64, or as Python ints if some do not fit int64."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def oracle_columns(rows):
    """RoutingColumns of (token_id, domain code, layer, expert) rows."""
    token_id, code, layer, expert = zip(*rows) if rows else ((),) * 4
    return RoutingColumns(int_column(token_id), np.array(code, dtype=np.intp),
                          int_column(layer), int_column(expert))


def collect_oracle(rows, n_layers, n_experts, domains):
    """The record loop that `collect_routing` replaced, over (token_id,
    domain code, layer, expert) rows, under the program's rule that a table
    of more than MAX_COUNTS counts is refused unallocated."""
    if n_layers * n_experts * len(domains) > routing.MAX_COUNTS:
        raise ValueError(
            f"count table of {n_layers} layers x {n_experts} experts x "
            f"{len(domains)} domains exceeds {routing.MAX_COUNTS} counts"
        )
    counts = np.zeros((n_layers, n_experts, len(domains)), dtype=np.int64)
    token_ids = [set() for _ in domains]
    for token_id, code, layer, expert in rows:
        if not (0 <= layer < n_layers):
            raise ValueError(f"layer {layer} out of range [0, {n_layers})")
        if not (0 <= expert < n_experts):
            raise ValueError(f"expert {expert} out of range [0, {n_experts})")
        if not (0 <= code < len(domains)):
            raise ValueError(f"domain code {code} out of range [0, {len(domains)})")
        counts[layer, expert, code] += 1
        token_ids[code].add(token_id)
    tokens = np.array([len(s) for s in token_ids], dtype=np.int64)
    return RoutingStats(counts=counts, domains=domains, tokens_per_domain=tokens)


records_strategy = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 6), st.sampled_from([-1, 2**63, 2**70])),
        st.sampled_from([0, 1, 2, 0, 3, -1]),
        st.one_of(st.integers(0, 2), st.integers(0, 2), st.sampled_from([-1, 3, 2**64])),
        st.one_of(st.integers(0, 3), st.integers(0, 3), st.sampled_from([-2, 4])),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(records=records_strategy)
def test_collect_matches_record_loop(records):
    # the same token id in several domains, ids beyond int64, and every
    # kind of bad record: the same counts, or the same first error
    domains = ("alpha", "beta", "gamma")
    results = []
    for collect, given_records in ((cli.collect_routing, oracle_columns(records)),
                                   (collect_oracle, records)):
        try:
            stats = collect(given_records, 3, 4, domains)
            results.append((stats.counts.tolist(), stats.tokens_per_domain.tolist(),
                            stats.counts.dtype, stats.tokens_per_domain.dtype))
        except ValueError as err:
            results.append(str(err))
    assert results[0] == results[1]


def analyze_oracle(args) -> int:
    """The per-line `cmd_analyze`: a RoutingRecord per line, counted one by one."""
    domains = args.domains or DEFAULT_DOMAINS
    records = parse_routing_oracle(args.routing, domains)
    os.makedirs(args.out, exist_ok=True)
    if not records:
        print("no records; nothing to write")
        return cli.EXIT_OK
    n_layers = max(max(r.layer for r in records), 0) + 1
    n_experts = args.experts if args.experts else max(max(r.expert for r in records), 0) + 1
    stats = collect_oracle(oracle_rows(records, domains), n_layers, n_experts, domains)
    for layer in range(n_layers):
        with open(os.path.join(args.out, f"heatmap_layer{layer}.csv"), "w") as f:
            f.write(cli.heatmap_csv(stats, layer))
        if (stats.counts[layer].sum(axis=0) > 0).all():
            with open(os.path.join(args.out, f"l2_layer{layer}.csv"), "w") as f:
                f.write(cli.l2_matrix_csv(stats, layer))
    print(f"analyzed {len(records)} records over {n_layers} layers")
    return cli.EXIT_OK


def tree(path):
    if not os.path.isdir(path):
        return None
    return {name: read_or_none(os.path.join(path, name)) for name in sorted(os.listdir(path))}


def assert_analyze_matches(text: str, options: list[str]):
    """`analyze` as it reads the file, and with every file sent to the
    per-line fallback, against the oracle."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "routing.csv")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        results = []
        for tag, oracle in (("bulk", None), ("fallback", None), ("oracle", analyze_oracle)):
            out = os.path.join(d, tag)
            with pytest.MonkeyPatch.context() as mp:
                if tag == "fallback":
                    mp.setattr(routing, "_is_plain", lambda path: False)
                code, stdout, stderr = run_cli(
                    ["analyze", "--routing", path, *options, "--out", out],
                    command="cmd_analyze", oracle=oracle,
                )
            results.append((code, stdout, stderr, tree(out)))
    assert results[0] == results[1] == results[2]
    return results[0]


def csv_text(rows, header="token_id,domain,layer,expert,weight", sep="\n"):
    return sep.join([header, *rows]) + sep


def test_analyze_fixture_identical():
    rows = [f"{t},{('CommonCrawl', 'C4', 'GitHub')[t % 3]},{t % 2},{t % 5},0.5"
            for t in range(300)]
    code, stdout, _, files = assert_analyze_matches(csv_text(rows), [])
    assert code == cli.EXIT_OK and "analyzed 300 records over 2 layers" in stdout
    assert sorted(files) == ["heatmap_layer0.csv", "heatmap_layer1.csv"]


@pytest.mark.parametrize("rows, options", [
    ([], []),
    (["", "  ", "\t"], []),
    (["1,C4,0,0,0.5", "2,C4,0,0,0.5\x0c3,C4,0,1,0.25"], []),
    (["1,C4,0,0,0.5\x853,C4,0,1,0.25", "4,C4,0,0,0.5 5,C4,1,1,0.5"], []),
    (["+1,C4,0,0,0.5", " 2 ,C4,0,1_0,1e3", "3_0,C4,00,0,nan"], []),
    ([f"{2**63},C4,0,0,0.5", f"{2**63},C4,0,1,0.5", "1,C4,0,1,0.5"], []),
    ([f"{-2**63 - 1},arXiv,1,0,0.5", "-4,arXiv,0,2,0.5"], []),
    (["1,C4,-1,0,0.5"], []),
    (["1,C4,0,-2,0.5"], []),
    (["1,C4,0,3,0.5", "1,C4,0,9,0.5"], ["--experts", "4"]),
    (["1,C4,0,3,0.5"], ["--experts", "-2"]),
    (["1,Nope,0,0,0.5"], []),
    (["1,C4,0,0,heavy"], []),
    (["1,C4,0,0"], []),
    (["1,C4,0,0,0.5,7"], []),
    (["1,0,0,0", "0,1,0,0,0,0.5"], ["--domains", "0,1"]),
    (["1,a,0,0,0.5", "2,b,0,1,0.5"], ["--domains", "a,b"]),
])
def test_analyze_cases_identical(rows, options):
    assert_analyze_matches(csv_text(rows), options)


@pytest.mark.parametrize("text", [
    "", "\n", "token_id,domain,layer,expert\n1,C4,0,0,0.5\n",
    "\ntoken_id,domain,layer,expert,weight\n1,C4,0,0,0.5\n",
    csv_text(["1,C4,0,0,0.5", "2,C4,0,0,0.5"], sep="\r\n"),
    csv_text(["1,C4,0,0,0.5", "2,C4,0,0,0.5"], sep="\r"),
    "token_id,domain,layer,expert,weight",
])
def test_analyze_files_identical(text):
    assert_analyze_matches(text, [])


def test_analyze_chunk_edges_identical():
    # blank lines and a bad line in the middle of a long file
    rows = [f"{t},C4,{t % 3},{t % 4},0.5" for t in range(20000)]
    rows[8190] = ""
    rows[8192] = "   "
    assert_analyze_matches(csv_text(rows), [])
    rows[8193] = "7,C4,0,0"
    assert_analyze_matches(csv_text(rows), [])


def read_both(data: bytes, domains=DEFAULT_DOMAINS):
    """Which path `read_routing_csv` takes for a file holding `data`, and
    its columns or error, which must be those of the per-line fallback and
    of the oracle parser."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "routing.csv")
        with open(path, "wb") as f:
            f.write(data)
        results = []
        for read in (read_routing_csv, routing.parse_routing_csv,
                     lambda p, ds: oracle_columns(oracle_rows(parse_routing_oracle(p, ds), ds))):
            try:
                c = read(path, domains)
                results.append([(a.dtype, a.tolist()) for a in
                                (c.token_id, c.code, c.layer, c.expert)])
            except ValueError as err:
                results.append(str(err))
        taken = routing._is_plain(path) and routing._read_plain(path, domains) is not None
    assert results[0] == results[1] == results[2]
    return ("loadtxt" if taken else "fallback"), results[0]


# every byte the plain-file gate refuses, by kind: line breaks of
# str.splitlines other than LF and CR, space and tab, NUL, comment and quote
# characters, and a non-ASCII digit
GATE_BYTES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", " ", "\t",
              "\x00", "#", '"', "\u0661"]


def field_edges(line: str) -> list[int]:
    """Where each field of `line` starts and ends."""
    return [0, len(line)] + [i + j for i, c in enumerate(line) if c == "," for j in (0, 1)]


GATE_CASES = {
    # one file per gate rule
    "space in a field": (["1,C4,0,0, 0.5"], "fallback"),
    "space around a label": (["1, C4,0,0,0.5"], "fallback"),
    "tab": (["1,C4,0,0,0.5\t"], "fallback"),
    "hash": (["1,C4,0,0,0.5#x"], "fallback"),
    "quote": (['1,"C4",0,0,0.5'], "fallback"),
    "CR": (["1,C4,0,0,0.5\r2,C4,0,1,0.5"], "loadtxt"),
    "CRLF": (["1,C4,0,0,0.5\r\n2,C4,0,1,0.5"], "loadtxt"),
    "LF CR": (["1,C4,0,0,0.5\n\r2,C4,0,1,0.5"], "loadtxt"),
    "CR only between records": (["\r\r"], "fallback"),
    "VT": (["1,C4,0,0,0.5\x0b2,C4,0,1,0.5"], "fallback"),
    "FF": (["1,C4,0,0,0.5\x0c2,C4,0,1,0.5"], "fallback"),
    "FS": (["1,C4,0,0,0.5\x1c2,C4,0,1,0.5"], "fallback"),
    "GS": (["1,C4,0,0,0.5\x1d2,C4,0,1,0.5"], "fallback"),
    "RS": (["1,C4,0,0,0.5\x1e2,C4,0,1,0.5"], "fallback"),
    "NUL after a label": (["1,C4\x00,0,0,0.5"], "fallback"),
    "NUL inside a label": (["1,C\x004,0,0,0.5"], "fallback"),
    "non-ASCII digit": (["\u0661,C4,0,0,0.5", "\uff12,C4,0,1,0.5"], "fallback"),
    # integer fields
    "plus sign": (["+5,C4,+0,+1,0.5"], "loadtxt"),
    "leading zeros": (["007,C4,00,01,0.5"], "loadtxt"),
    "minus zero": (["-0,C4,-0,-0,0.5"], "loadtxt"),
    "int64 edges": ([f"{2**63 - 1},C4,0,0,0.5", f"{-2**63},C4,0,1,0.5"], "loadtxt"),
    "beyond int64": ([f"{2**63},C4,0,0,0.5", "1,C4,0,1,0.5"], "fallback"),
    "beyond int64 layer": ([f"1,C4,{2**64},0,0.5"], "fallback"),
    "underscore int": (["1_0,C4,0,0,0.5"], "fallback"),
    "float as int": (["1.0,C4,0,0,0.5"], "fallback"),
    "fraction as int": (["2.7,C4,0,0,0.5"], "fallback"),
    # weights
    "nan and inf": (["1,C4,0,0,nan", "2,C4,0,1,inf", "3,C4,0,2,-inf"], "loadtxt"),
    "exponent": (["1,C4,0,0,1e5", "2,C4,0,1,-2.5E-3"], "loadtxt"),
    "underscore weight": (["1,C4,0,0,1_0"], "fallback"),
    "bad weight": (["1,C4,0,0,heavy"], "fallback"),
    # labels
    "one byte longer than any domain": (["1,StackExchangeX,0,0,0.5"], "fallback"),
    "longer than any domain": (["1,StackExchangeXYZ,0,0,0.5"], "fallback"),
    "known label as a prefix": (["1,C4x,0,0,0.5"], "fallback"),
    "empty label": (["1,,0,0,0.5"], "fallback"),
    # check order: the integers, then the weight, then the label
    "unknown label and bad int": (["1,Nope,x,0,0.5"], "fallback"),
    "unknown label and bad weight": (["1,Nope,0,0,heavy"], "fallback"),
    # layout
    "blank lines": (["", "1,C4,0,0,0.5", "", "", "2,arXiv,1,3,0.5", ""], "loadtxt"),
    "short line": (["1,C4,0,0"], "fallback"),
    "long line": (["1,C4,0,0,0.5,"], "fallback"),
}


@pytest.mark.parametrize("name", sorted(GATE_CASES))
def test_gate_cases_match_per_line_parser(name):
    rows, path = GATE_CASES[name]
    assert read_both(csv_text(rows).encode())[0] == path


@pytest.mark.parametrize("text", ["2.7,C4,0,0,0.5", f"{2**64},C4,0,0,0.5"])
def test_gate_refuses_integers_read_through_a_float(monkeypatch, text):
    # NumPy releases from 1.23 until the deprecation expired read such an
    # integer field through a float, with only a DeprecationWarning; the
    # reader must still fall back, as int() raises or keeps the exact value
    real = np.loadtxt

    def loadtxt_reading_ints_via_float(*args, **kwargs):
        rows = real(csv_text(["2,C4,0,0,0.5"]).splitlines(), **{**kwargs, "encoding": None})
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return rows

    monkeypatch.setattr(np, "loadtxt", loadtxt_reading_ints_via_float)
    assert read_both(csv_text([text]).encode())[0] == "fallback"


@pytest.mark.parametrize("data, path", [
    (b"token_id,domain,layer,expert,weight\n1,C4,0,0,0.5", "loadtxt"),  # no final newline
    (b"token_id,domain,layer,expert,weight\n", "fallback"),  # header only
    (b"token_id,domain,layer,expert,weight", "fallback"),
    (b"token_id,domain,layer,expert,weight\n\n\n", "fallback"),  # no record
    (b"token_id,domain,layer,expert,weight\r\n1,C4,0,0,0.5\r\n", "loadtxt"),  # CRLF
    (b"token_id,domain,layer,expert,weight\r1,C4,0,0,0.5\r2,C4,0,1,0.5", "loadtxt"),  # CR
    (b"token_id,domain,layer,expert,weight\r1,C4,0,0,0.5\r\n2,C4,0,1,0.5\n", "loadtxt"),
    (b"token_id,domain,layer,expert,weight\r\n", "fallback"),
    (b"token_id,domain,layer,expert,weight\r\r\n\n\r", "fallback"),
    (b"token_id,domain,layer,expert,weight\n\r\n1,C4,0,0,0.5\r", "loadtxt"),
    (b"token_id,domain,layer,expert,weight\r\r1,C4,0,0,0.5", "loadtxt"),
    (b"token_id,domain,layer,expert,weight \r\n1,C4,0,0,0.5", "fallback"),
    (b"token_id,domain,layer,expert,weigh\n1,C4,0,0,0.5\n", "fallback"),
    (b"token_id,domain,layer,expert\n1,C4,0,0\n", "fallback"),
])
def test_gate_layouts_match_per_line_parser(data, path):
    assert read_both(data)[0] == path


def test_gate_domains_match_per_line_parser():
    text = csv_text(["1,a#,0,0,0.5", "2,b,0,1,0.5"]).encode()
    assert read_both(text, ("a#", "b"))[0] == "fallback"
    text = csv_text(["1,,0,0,0.5", "2,b,0,1,0.5", "3,bb,0,1,0.5"]).encode()
    assert read_both(text, ("", "b", "bb"))[0] == "loadtxt"
    # a domain ending in NUL matches no field, although `S` fields drop NULs
    assert read_both(csv_text(["1,C4,0,0,0.5"]).encode(), ("C4\x00", "b"))[0] == "fallback"
    # a repeated domain counts as its last copy
    path, columns = read_both(csv_text(["1,b,0,0,0.5", "2,a,0,1,0.5"]).encode(), ("b", "a", "b"))
    assert path == "loadtxt" and columns[1][1] == [2, 1]


def test_gate_piece_edges(tmp_path):
    # refused bytes on either side of a piece boundary, and a first record
    # that lies beyond the first piece
    header = b"token_id,domain,layer,expert,weight\n"
    line = b"1,C4,0,0,0.5\n"
    body = line * (routing._PLAIN_PIECE // len(line) + 2)
    path = str(tmp_path / "routing.csv")
    for at in (routing._PLAIN_PIECE - 1, routing._PLAIN_PIECE):
        for byte in (b" ", b"\t"):
            with open(path, "wb") as f:
                f.write(header + body[:at] + byte + body[at:])
            assert not routing._is_plain(path)
        # a CRLF cut in two by the boundary, or just after it: leading zeros
        # on the first token id put a CR at `at`
        crlf = b"1,C4,0,0,0.5\r\n"
        pad = (at - crlf.index(b"\r")) % len(crlf)
        data = header + b"0" * pad + crlf * (at // len(crlf) + 2)
        assert data[len(header) + at] == ord("\r")
        assert read_both(data)[0] == "loadtxt"
    for ends in (b"\n", b"\r", b"\r\n"):
        with open(path, "wb") as f:
            f.write(header + ends * routing._PLAIN_PIECE)
        assert not routing._is_plain(path)
        assert read_both(header + ends * routing._PLAIN_PIECE + line)[0] == "loadtxt"


@pytest.mark.parametrize("byte", [*GATE_BYTES, "\r", "x"])
def test_gate_byte_at_every_field_edge(byte):
    # one refused byte, or a CR, in an otherwise good file, at each start and
    # end of a field: a reader that took NUL would read "C4\x00" as C4
    good = "7,GitHub,1,2,0.5"
    for cut in field_edges(good):
        bad = good[:cut] + byte + good[cut:]
        read_both(csv_text(["1,C4,0,0,0.5", bad, "2,arXiv,1,3,0.5"]).encode("utf-8"))


ints = st.one_of(
    st.integers(0, 6), st.integers(-3, -1), st.sampled_from([2**63 - 1, 2**63, -2**63, 2**70]),
)
int_text = st.one_of(
    ints.map(str),
    st.builds(lambda i, fmt: fmt.format(i), st.integers(0, 30),
              st.sampled_from(["+{}", " {} ", "{}_0", "0{}", "{}.0", "x{}"])),
)
token_text = st.one_of(st.integers(0, 40).map(str), int_text)
domain_text = st.sampled_from(["C4", "C4", "arXiv", "GitHub", "Nope", " C4", "c4", "",
                               "C4\x00", "StackExchangeX", "GitHubX", "C4#"])
weight_text = st.sampled_from(["0.5", "1", "-2.5e-3", "nan", "inf", " 0.25 ", "1_0", "w", ""])
small = st.integers(0, 3).map(str)


@st.composite
def routing_lines(draw):
    fields = [
        draw(st.one_of(token_text, token_text)),
        draw(domain_text),
        draw(st.one_of(small, small, small, int_text)),
        draw(st.one_of(small, small, small, int_text)),
        draw(weight_text),
    ]
    shape = draw(st.sampled_from(["ok"] * 8 + ["short", "long"]))
    if shape == "short":
        fields = fields[:4]
    elif shape == "long":
        fields.append("0")
    line = ",".join(fields)
    if draw(st.integers(0, 15)) == 0:  # a line break character inside the line
        cut = draw(st.integers(0, len(line)))
        line = line[:cut] + draw(st.sampled_from(GATE_BYTES)) + line[cut:]
    return line


good_lines = st.builds("{},{},{},{},{}".format, st.integers(0, 40),
                       st.sampled_from(["C4", "arXiv", "GitHub", "StackExchange"]), small, small,
                       st.sampled_from(["0.5", "1e5", "nan"]))


@st.composite
def refused(draw, line):
    """`line` with a byte the gate refuses, or a letter that makes its label
    unknown, at the start or end of a field."""
    cut = draw(st.sampled_from(field_edges(line)))
    return line[:cut] + draw(st.sampled_from([*GATE_BYTES, "x"])) + line[cut:]


# plain bytes and fields that the gate lets through to loadtxt, each of
# which makes a good line bad, or reads the same only if both readers agree
PLAIN_EDITS = ["x", "_", "+", "-", ".", "e", "0", ",", "'", "\n", "\r", "\r\n", "2.7", "1" * 20]


@st.composite
def one_edit_files(draw):
    """Good lines, one of which gets one edit at a field edge, often at an
    edge of its label, where loadtxt's fixed-width bytes field cuts and drops
    trailing NULs: one the gate lets through to loadtxt, a byte it refuses,
    or none."""
    lines = draw(st.lists(good_lines, min_size=1, max_size=8))
    edit = draw(st.one_of(st.sampled_from(PLAIN_EDITS), st.sampled_from(GATE_BYTES),
                          st.just("")))
    i = draw(st.integers(0, len(lines) - 1))
    token, label = lines[i].split(",")[:2]
    label_edges = [len(token) + 1, len(token) + 1 + len(label)]
    cut = draw(st.one_of(st.sampled_from(field_edges(lines[i])), st.sampled_from(label_edges)))
    lines[i] = lines[i][:cut] + edit + lines[i][cut:]
    return lines


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    # (lines, line separator); most files are plain but for one edit
    body=st.one_of(
        st.tuples(
            st.one_of(
                st.lists(st.one_of(routing_lines(), routing_lines(), routing_lines(),
                                   st.sampled_from(["", " ", "\t "])), max_size=25),
                st.lists(good_lines.flatmap(lambda line: st.one_of(st.just(line), refused(line))),
                         min_size=1, max_size=6),
            ),
            st.sampled_from(["\n", "\n", "\r\n", "\r"]),
        ),
        st.tuples(one_edit_files(), st.just("\n")),
        st.tuples(one_edit_files(), st.sampled_from(["\n", "\r\n", "\r"])),
    ),
    experts=st.sampled_from([None, 1, 2, 4]),
    domains=st.sampled_from([None, "C4,arXiv,GitHub"]),
    bad_header=st.integers(0, 30),
)
# an expert id at int64's top: more counts than MAX_COUNTS, refused unallocated
@example(body=(["0,C4,0,9223372036854775807,0.5"], "\n"), experts=None, domains=None,
         bad_header=1)
def test_analyze_fuzz_identical(body, experts, domains, bad_header):
    lines, sep = body
    header = "token_id,domain,layer,expert,weight" if bad_header else "token,domain"
    options = ["--experts", str(experts)] if experts is not None else []
    options += ["--domains", domains] if domains else []
    assert_analyze_matches(csv_text(lines, header=header, sep=sep), options)


def test_column_reader_memory_below_record_list(tmp_path):
    # at this size the per-line parser's record list peaks at ~50 MB
    path = str(tmp_path / "routing.csv")
    rng = np.random.default_rng(0)
    experts = rng.integers(0, 16, 160_000).tolist()
    weights = rng.random(160_000).tolist()
    with open(path, "w") as f:
        f.write("token_id,domain,layer,expert,weight\n")
        f.writelines(f"{i // 16},{DEFAULT_DOMAINS[(i // 16) % 7]},{(i // 4) % 4},{e},{w!r}\n"
                     for i, (e, w) in enumerate(zip(experts, weights)))
    tracemalloc.start()
    try:
        columns = read_routing_csv(path, DEFAULT_DOMAINS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(columns) == 160_000 and columns.expert.tolist() == experts
    assert peak < 16e6
