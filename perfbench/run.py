"""Benchmark of universal_words: one caller in a closed loop, seeded inputs.

    python3 perfbench/run.py --workload readme --seed 1 --seconds 20 --trace 0

It imports the package from src/ of the checkout it sits in, and starts at
most one `python -m universal_words` child process at a time. Every operation
is checked outside its timed region. The last line of stdout is one JSON
object: with --trace 0 it holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (spans go to .perfbench_out/).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from collections import Counter
from math import ceil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "universal_words" / "__init__.py").is_file():
    sys.exit(f"perfbench: no package at {SRC / 'universal_words'}; run it from a full checkout")
sys.path.insert(0, str(SRC))

import universal_words  # noqa: E402
from universal_words import (  # noqa: E402
    arch_factorize,
    build_table,
    count_universal,
    enumerate_words,
    format_word,
    make_word,
    parse_word,
    rank,
    unrank,
)
from universal_words import cli as uw_cli  # noqa: E402

import checks  # noqa: E402
from tracing import LAYERS, NullTracer, Tracer  # noqa: E402
from workloads import SLICE_LIMIT, WORKLOADS  # noqa: E402

perf = time.perf_counter

# A run is cut into SEGMENTS; each one starts with its own set-up and cold
# counts, so those samples are spread over the run and not all taken in the
# host's state of its first seconds.
SEGMENTS = 10
SETUP_SPAWNS = 1  # `cli` set-ups per segment
COUNT_SEGMENT_S, COUNT_MAX_REPS = 0.2, 10  # cold counts per segment: at least one
SPAWN_REPS = 7  # interpreter and import probes of the traced run
# each percentile keeps at least ten samples beyond it: p90 needs 100
# and p99 needs 1000
MIN_SAMPLES = {"unrank": 100, "rank": 100, "delay": 1000, "cli": 100}
EXTRA_S = 60.0  # how far the last segment may overrun to reach MIN_SAMPLES
CHILD_TIMEOUT_S = 60
PROBE_ROUNDS = 8
OUT_DIR = ROOT / ".perfbench_out"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(env, args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )


def spawn_times(env, code: str, reps: int) -> list[float]:
    times = []
    for _ in range(reps):
        t0 = perf()
        proc = run_child(env, ["-c", code])
        times.append(perf() - t0)
        if proc.returncode:
            raise RuntimeError(f"child {code!r} failed: {proc.stderr.strip()}")
    return times


def random_text(rng, n: int, sigma: int) -> str:
    """A uniformly random word of length n in the documented text format."""
    syms = map(str, rng.choices(range(1, sigma + 1), k=n))
    return ("" if sigma <= 9 else ",").join(syms)


def count_cells(table) -> int:
    """Integers stored in the table, found by walking its list attributes."""
    names = getattr(type(table), "__slots__", None) or vars(table)
    stack = [v for v in (getattr(table, a, None) for a in names) if isinstance(v, (list, tuple))]
    cells = 0
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(item)
        elif isinstance(item, int):
            cells += 1
    return cells


def cli_in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = uw_cli.main(argv)
    return code, out.getvalue()


# Timed operations. Every call into the package goes through tr.call, which
# records a span when the run is traced.

def op_unrank(tr, r, n, k, sigma, table):
    w = tr.call("unranking.unrank", unrank, r, n, k, sigma, table)
    return w, tr.call("words.format_word", format_word, w)


def op_rank(tr, text, k, sigma, table):
    w = tr.call("words.parse_word", parse_word, text, sigma)
    return w, tr.call("ranking.rank", rank, w, k, table)


def op_slice(tr, n, k, sigma, table, from_rank, limit, gaps):
    """Enumerate one slice; each gap ends when a word is yielded.

    The first gap starts before the cursor exists, so it holds the cursor's
    seed unrank.
    """
    start = perf()
    cursor = tr.call(
        "unranking.enumerate_words", enumerate_words, n, k, sigma, from_rank, limit, table
    )
    words = []
    for _ in range(limit):
        words.append(tr.call("unranking.cursor_next", next, cursor))
        now = perf()
        gaps.append(now - start)
        start = now
    return words, cursor


class Bench:
    def __init__(self, workload, seed: int, tracer):
        self.wl = workload
        self.seed = seed
        self.tr = tracer
        self.env = child_env()
        self.tables: dict = {}
        self.totals: dict = {}
        self.expected = {workload.params: checks.gf_count(*workload.params)}
        self.attempted = 0
        self.failed_ops = 0
        self.failed = Counter()
        self.layer = "bench"
        self.errors_shown = 0
        # separate streams, so the library inputs do not depend on how many
        # child processes ran before them
        self.rng_lib = random.Random(self.seed)
        self.rng_cli = random.Random(self.seed + 1_000_003)
        self.samples = {name: [] for name in MIN_SAMPLES}
        self.cycle: list = []
        self.cycle_pos = 0

    def verdict(self, bad_layers) -> None:
        self.attempted += 1
        if bad_layers:
            self.failed_ops += 1
            for layer in set(bad_layers):
                self.failed[layer] += 1

    def crashed(self) -> None:
        self.verdict([self.layer])
        if self.errors_shown < 3:
            self.errors_shown += 1
            traceback.print_exc(file=sys.stderr)

    def arch_count(self, w) -> int:
        return self.tr.call("arches.arch_factorize", arch_factorize, w).arch_count

    def add_table(self, params, table=None):
        """Keep one table per parameter set; check its count independently."""
        if params not in self.tables:
            if table is None:
                table = self.tr.call("counting.build_table", build_table, *params)
            self.tables[params] = table
            if params not in self.expected:
                self.expected[params] = checks.gf_count(*params)
            self.totals[params] = count_universal(*params, table)
            self.verdict([] if self.totals[params] == self.expected[params] else ["counting"])

    # -- set-up --------------------------------------------------------------

    def segment_setup(self) -> tuple[list[float], list[float]]:
        """Set-up and cold-count times of one segment.

        The main table is dropped first and each cold count_universal builds
        and drops its own, so no more than one table is alive at a time.
        """
        params = self.wl.params
        if self.wl.setup == "table":
            self.tables.pop(params, None)
        counts = []
        while not counts or (sum(counts) < COUNT_SEGMENT_S and len(counts) < COUNT_MAX_REPS):
            t0 = perf()
            value = self.tr.call("counting.count_universal", count_universal, *params)
            counts.append(perf() - t0)
            self.verdict([] if value == self.expected[params] else ["counting"])
        table = None
        if self.wl.setup == "interpreter":
            setup = spawn_times(self.env, "import universal_words.cli", SETUP_SPAWNS)
        else:
            t0 = perf()
            table = self.tr.call("counting.build_table", build_table, *params)
            setup = [perf() - t0]
        self.add_table(params, table)
        for _, case_params in self.wl.cli_cases:
            self.add_table(case_params)
        gc.collect()
        return setup, counts

    # -- the loop --------------------------------------------------------------

    def library_round(self) -> float:
        """unrank→format, parse→rank of a member and of a random word, one slice."""
        n, k, sigma = params = self.wl.params
        table, total, tr, rng = self.tables[params], self.totals[params], self.tr, self.rng_lib
        r = rng.randrange(total)
        rand_text = random_text(rng, n, sigma)
        spent = 0.0

        self.layer = "unranking"
        t0 = perf()
        w, text = tr.call("op.unrank", op_unrank, tr, r, n, k, sigma, table)
        dt = perf() - t0
        self.samples["unrank"].append(dt)
        spent += dt
        self.verdict([] if self.arch_count(w) >= k else ["arches"])

        self.layer = "ranking"
        t0 = perf()
        parsed, res = tr.call("op.rank", op_rank, tr, text, k, sigma, table)
        dt = perf() - t0
        self.samples["rank"].append(dt)
        spent += dt
        bad = [] if parsed == w else ["words"]
        if (res.rank, res.member) != (r, True):
            bad.append("ranking")
        self.verdict(bad)

        t0 = perf()
        parsed, res = tr.call("op.rank", op_rank, tr, rand_text, k, sigma, table)
        dt = perf() - t0
        self.samples["rank"].append(dt)
        spent += dt
        bad = [] if format_word(parsed) == rand_text else ["words"]
        bad += checks.check_position(parsed, res, n, k, sigma, table, total, self.arch_count)
        self.verdict(bad)

        self.layer = "unranking"
        limit = min(SLICE_LIMIT, total)
        from_rank = min(r, total - limit)
        t0 = perf()
        words, cursor = tr.call(
            "op.enum", op_slice, tr, n, k, sigma, table, from_rank, limit, self.samples["delay"]
        )
        spent += perf() - t0
        first = w.symbols if from_rank == r else unrank(from_rank, n, k, sigma, table).symbols
        last = unrank(from_rank + limit - 1, n, k, sigma, table).symbols
        bad = checks.check_slice(words, first, last, limit, k, self.arch_count)
        if next(cursor, None) is not None:
            bad.append("unranking")
        if tr.call("words.make_word", make_word, words[-1].symbols, sigma) != words[-1]:
            bad.append("words")
        self.verdict(bad)
        return spent

    def next_cli_case(self):
        if self.cycle_pos == len(self.cycle):
            self.cycle = [
                (case, p, as_json) for case, p in self.wl.cli_cases for as_json in (False, True)
            ]
            self.rng_cli.shuffle(self.cycle)
            self.cycle_pos = 0
        self.cycle_pos += 1
        return self.cycle[self.cycle_pos - 1]

    def cli_case(self, case, params):
        """argv of one uwords call and the library's answer to it."""
        n, k, sigma = params
        table, total, rng = self.tables[params], self.totals[params], self.rng_cli
        nks = ["--n", str(n), "--k", str(k), "--sigma", str(sigma)]
        if case == "count":
            return ["count", *nks], "count", ([str(total)], [str(total)])
        if case == "closed-forms":
            argv = ["closed-forms", "--n", str(n), "--sigma", str(sigma)]
            return argv, case, checks.closed_forms_answer(n, sigma)
        if case == "enum":
            limit = min(SLICE_LIMIT, total)
            from_rank = rng.randrange(total - limit + 1)
            texts = [format_word(v) for v in enumerate_words(n, k, sigma, from_rank, limit, table)]
            argv = ["enum", *nks, "--from", str(from_rank), "--limit", str(limit)]
            return argv, "enum", checks.enum_answer(from_rank, texts)
        r = rng.randrange(total)
        if case.endswith("-random"):
            text = random_text(rng, n, sigma)
            w = parse_word(text, sigma)
        else:
            w = unrank(r, n, k, sigma, table)
            text = format_word(w)
        if case == "unrank":
            return ["unrank", *nks, str(r)], "unrank", ([text], [{"word": text}])
        if case.startswith("rank"):
            answer = checks.rank_answer(rank(w, k, table))
            return ["rank", "--k", str(k), "--sigma", str(sigma), text], "rank", answer
        return ["arch", "--sigma", str(sigma), text], "arch", checks.arch_answer(w, sigma)

    def cli_round(self) -> float:
        self.layer = "cli"
        case, params, as_json = self.next_cli_case()
        argv, command, answer = self.cli_case(case, params)
        if as_json:
            argv.append("--json")
        t0 = perf()
        proc = self.tr.call("cli.process", run_child, self.env, ["-m", "universal_words", *argv])
        dt = perf() - t0
        self.samples["cli"].append(dt)
        ok = proc.returncode == 0 and checks.cli_output_matches(
            proc.stdout, command, as_json, answer
        )
        if self.tr.enabled:
            ok = ok and self.tr.call("cli.main", cli_in_process, argv) == (0, proc.stdout)
        self.verdict([] if ok else ["cli"])
        return dt

    def paired_round(self, tracer, costs) -> None:
        """The same library inputs once untraced and once traced.

        The order alternates between pairs, so neither side always runs on
        caches the other one warmed.
        """
        state = self.rng_lib.getstate()
        order = [NullTracer(), tracer]
        if len(costs) % 2:
            order.reverse()
        spent = {}
        for tr in order:
            self.rng_lib.setstate(state)
            self.tr = tr
            spent[tr.enabled] = self.library_round()
        costs.append((spent[False], spent[True]))

    def run(self, seconds: float, tracer=None):
        """All segments: set-up times, cold-count times and paired costs."""
        setup, counts, costs = [], [], []
        for segment in range(SEGMENTS):
            s, c = self.segment_setup()
            setup += s
            counts += c
            costs += self.measure(seconds / SEGMENTS, tracer, last=segment == SEGMENTS - 1)
        return setup, counts, costs

    def measure(self, seconds: float, tracer=None, last=True) -> list:
        """Run the closed loop for `seconds`.

        Child processes get cli_share of the wall time. Past the deadline of
        the last segment the loop finishes the current cycle of CLI cases and
        tops up any sample list still short of MIN_SAMPLES. With a tracer,
        every library round is a pair (see paired_round) and the pairs' costs
        are returned.
        """
        costs: list = []
        cli_time = 0.0
        start = perf()
        while True:
            elapsed = perf() - start
            if elapsed < seconds:
                do_cli = cli_time < self.wl.cli_share * elapsed
            elif not last:
                return costs
            else:
                short = [
                    name for name, need in MIN_SAMPLES.items() if len(self.samples[name]) < need
                ]
                cycle_open = self.cycle_pos < len(self.cycle)
                if (not short and not cycle_open) or elapsed > seconds + EXTRA_S:
                    return costs
                do_cli = cycle_open or "cli" in short
            try:
                if do_cli:
                    cli_time += self.cli_round()
                elif tracer is None:
                    self.library_round()
                else:
                    self.paired_round(tracer, costs)
            except Exception:
                self.crashed()
            finally:
                if tracer is not None:
                    self.tr = tracer


def pct(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(p * len(ordered)) - 1)]


def end_to_end(bench, setup, counts) -> dict:
    s = bench.samples
    who = resource.RUSAGE_CHILDREN if bench.wl.setup == "interpreter" else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "count_s": (pct(counts, 0.75), "s"),
        "unrank_p75_ms": (pct(s["unrank"], 0.75) * 1e3, "ms"),
        "unrank_p90_ms": (pct(s["unrank"], 0.90) * 1e3, "ms"),
        "rank_p75_ms": (pct(s["rank"], 0.75) * 1e3, "ms"),
        "rank_p90_ms": (pct(s["rank"], 0.90) * 1e3, "ms"),
        "word_delay_p75_us": (pct(s["delay"], 0.75) * 1e6, "us"),
        "word_delay_p99_us": (pct(s["delay"], 0.99) * 1e6, "us"),
        "cli_p75_ms": (pct(s["cli"], 0.75) * 1e3, "ms"),
        "cli_p90_ms": (pct(s["cli"], 0.90) * 1e3, "ms"),
    }


def lookup_counts(bench) -> dict:
    """Table reads of a fixed, seeded set of calls: identical on every run."""
    n, k, sigma = params = bench.wl.params
    table, total = bench.tables[params], bench.totals[params]
    rng = random.Random(bench.seed + 2_000_003)
    unrank_reads = rank_reads = 0
    for _ in range(PROBE_ROUNDS):
        r = rng.randrange(total)
        before = table.lookups
        w = unrank(r, n, k, sigma, table)
        unrank_reads += table.lookups - before
        for word in (w, parse_word(random_text(rng, n, sigma), sigma)):
            before = table.lookups
            rank(word, k, table)
            rank_reads += table.lookups - before
    limit = min(SLICE_LIMIT, total)
    per_word_max = 0
    before = table.lookups
    for _ in enumerate_words(n, k, sigma, min(r, total - limit), limit, table):
        per_word_max = max(per_word_max, table.lookups - before)
        before = table.lookups
    return {
        "counting.cells": count_cells(table),
        "counting.build_ops": table.build_ops,
        "unranking.lookups_per_call": unrank_reads / PROBE_ROUNDS,
        "ranking.lookups_per_call": rank_reads / (2 * PROBE_ROUNDS),
        "unranking.lookups_per_word_max": per_word_max,
    }


def table_peak_mb(params) -> float:
    tracemalloc.start()
    try:
        table = build_table(*params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del table
    return peak / 2**20


def per_layer(bench, tracer, pairs, counts) -> dict:
    interpreter = statistics.median(spawn_times(bench.env, "pass", SPAWN_REPS))
    imported = statistics.median(spawn_times(bench.env, "import universal_words.cli", SPAWN_REPS))
    overhead = 100.0 * (sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1.0)
    ms = lambda name: tracer.median_s(name) * 1e3  # noqa: E731
    us = lambda name: tracer.median_s(name) * 1e6  # noqa: E731
    out = {
        "counting.build_table_s": (tracer.median_s("counting.build_table"), "s"),
        "counting.cells": (counts["counting.cells"], "count"),
        "counting.build_ops": (counts["counting.build_ops"], "count"),
        "counting.table_peak_mb": (table_peak_mb(bench.wl.params), "MB"),
        "counting.count_universal_s": (tracer.median_s("counting.count_universal"), "s"),
        "unranking.unrank_ms": (ms("unranking.unrank"), "ms"),
        "unranking.lookups_per_call": (counts["unranking.lookups_per_call"], "count"),
        "unranking.cursor_next_us": (us("unranking.cursor_next"), "us"),
        "unranking.lookups_per_word_max": (counts["unranking.lookups_per_word_max"], "count"),
        "ranking.rank_ms": (ms("ranking.rank"), "ms"),
        "ranking.lookups_per_call": (counts["ranking.lookups_per_call"], "count"),
        "words.format_word_us": (us("words.format_word"), "us"),
        "words.parse_word_us": (us("words.parse_word"), "us"),
        "words.make_word_us": (us("words.make_word"), "us"),
        "arches.arch_factorize_us": (us("arches.arch_factorize"), "us"),
        "cli.interpreter_ms": (interpreter * 1e3, "ms"),
        "cli.import_ms": ((imported - interpreter) * 1e3, "ms"),
        "cli.main_ms": (ms("cli.main"), "ms"),
    }
    shares = tracer.self_shares()
    for layer in LAYERS:
        out[f"{layer}.failed"] = (bench.failed[layer], "count")
        out[f"{layer}.self_pct"] = (shares[layer], "%")
    out["trace_overhead"] = (overhead, "%")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    bench = Bench(wl, args.seed, tracer or NullTracer())
    setup, counts, pairs = bench.run(args.seconds, tracer)
    if tracer:
        metrics = per_layer(bench, tracer, pairs, lookup_counts(bench))
        tracer.write(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json")
    else:
        metrics = end_to_end(bench, setup, counts)

    origin = Path(universal_words.__file__).resolve().relative_to(ROOT.resolve())
    print(f"perfbench: workload={wl.name} params={wl.params} seed={args.seed} "
          f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()} "
          f"import={origin}")
    print("samples: " + " ".join(f"{name}={len(v)}" for name, v in bench.samples.items())
          + f" setup={len(setup)} count={len(counts)}")
    rate = bench.failed_ops / bench.attempted
    print(f"error_rate: {bench.failed_ops}/{bench.attempted} = {rate:g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": bench.failed_ops == 0,
        "attempted": bench.attempted,
        "failed": bench.failed_ops,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
