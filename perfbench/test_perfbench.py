"""Tests of the benchmark itself: run with `python -m pytest perfbench`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # first: it puts the checkout's src/ on sys.path
import checks
from universal_words import RankResult, build_table, count_universal
from workloads import Workload

HERE = Path(__file__).resolve().parent
SMALL = (12, 2, 3)


def small_workload(cli_share=0.0, cases=()):
    return Workload(
        name="small", params=SMALL, cli_share=cli_share,
        cli_cases=tuple((case, SMALL) for case in cases), setup="table",
    )


@pytest.fixture(autouse=True)
def short_runs(monkeypatch):
    monkeypatch.setattr(run, "MIN_SAMPLES", {"unrank": 5, "rank": 5, "delay": 5, "cli": 0})
    monkeypatch.setattr(run, "SEGMENTS", 2)
    monkeypatch.setattr(run, "COUNT_MAX_REPS", 2)


def run_small(seconds=0.4):
    bench = run.Bench(small_workload(), 7, run.NullTracer())
    bench.run(seconds)
    return bench


def test_clean_run_has_no_failures():
    bench = run_small()
    assert bench.attempted > 10
    assert bench.failed_ops == 0


def test_corrupted_unrank_is_counted(monkeypatch):
    real = run.unrank
    monkeypatch.setattr(run, "unrank", lambda r, *rest: real(max(r - 1, 0), *rest))
    bench = run_small()
    assert bench.failed_ops > 0
    assert bench.failed["ranking"] > 0


def test_corrupted_rank_is_counted(monkeypatch):
    real = run.rank
    monkeypatch.setattr(run, "rank", lambda *a: RankResult(real(*a).rank + 1, real(*a).member))
    bench = run_small()
    assert bench.failed["ranking"] > 0


def test_corrupted_count_is_counted(monkeypatch):
    real = run.count_universal
    monkeypatch.setattr(run, "count_universal", lambda *a: real(*a) + 1)
    bench = run.Bench(small_workload(), 7, run.NullTracer())
    bench.segment_setup()
    assert bench.failed["counting"] == 3  # two cold counts and the table


def test_cli_output_is_checked(monkeypatch):
    cases = ("count", "rank-member", "rank-random", "unrank", "enum", "arch-random", "closed-forms")
    bench = run.Bench(small_workload(1.0, cases), 7, run.NullTracer())
    bench.segment_setup()
    before = bench.attempted
    for _ in range(2 * len(cases)):
        bench.cli_round()
    assert bench.attempted == before + 2 * len(cases)
    assert bench.failed_ops == 0

    real = run.run_child

    def corrupted(env, args):
        proc = real(env, args)
        proc.stdout += "extra line\n"
        return proc

    monkeypatch.setattr(run, "run_child", corrupted)
    bench.cli_round()
    assert bench.failed["cli"] == 1


def test_gf_count_matches_table():
    assert checks.gf_count(4, 2, 2) == 4
    for n in range(0, 16):
        for sigma in range(1, 5):
            for k in range(0, 5):
                assert checks.gf_count(n, k, sigma) == count_universal(n, k, sigma), (n, k, sigma)


def test_lookup_counts_repeat_with_one_seed():
    def counts():
        bench = run.Bench(small_workload(), 3, run.NullTracer())
        bench.segment_setup()
        return run.lookup_counts(bench)

    first = counts()
    assert first == counts()
    table = build_table(*SMALL)
    assert first["counting.cells"] == (SMALL[2] + 1) * (SMALL[0] + 1) * (SMALL[1] + 1)
    assert first["counting.build_ops"] == table.build_ops


def test_metric_names_match_benchmark_json(monkeypatch, capsys):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workload = small_workload(0.3, ("arch-random", "closed-forms"))
    monkeypatch.setattr(run, "WORKLOADS", {"small": workload})
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    monkeypatch.setattr(run, "SPAWN_REPS", 1)
    monkeypatch.setattr(run, "OUT_DIR", HERE.parent / ".perfbench_out" / "test")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "small", "--seed", "1", "--seconds", "0.5",
                         "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert [(name, m["unit"]) for name, m in result["metrics"].items()] == [
            (m["name"], m["unit"]) for m in spec[key]
        ]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "readme", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
