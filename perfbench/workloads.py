"""The benchmark's workloads.

Every workload runs the same closed loop with one caller: a library round at
the workload's (n, k, sigma) and, for a fixed share of the wall time, one
`python -m universal_words` child process at a time. The workloads differ in
parameters and in how much of the time goes to child processes, so each one
loads a different layer hardest. Why each was chosen is in README.md and
BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass

# Words per enumeration slice. The first gap of a slice holds the cursor's
# seed unrank, so at 20 words these are 5% of the gaps and set the 99th
# percentile. With 200 words p99 fell in the per-word tail instead, which
# host noise moved by up to 0.38 (IQR over median) across ten seeds.
SLICE_LIMIT = 20

# CLI cases: (subcommand case, (n, k, sigma)). Each case runs once as text and
# once with --json in every cycle, so a cycle's composition never depends on
# the seed and neither does the largest child's memory.
LIBRARY_CLI_CASES = ("arch-member", "arch-random", "closed-forms")
FULL_CLI_CASES = (
    "count",
    "rank-member",
    "rank-random",
    "unrank",
    "enum",
    "arch-random",
    "closed-forms",
)


@dataclass(frozen=True)
class Workload:
    name: str
    params: tuple[int, int, int]  # (n, k, sigma) of the library rounds
    cli_share: float  # share of the loop's wall time spent in child processes
    cli_cases: tuple[tuple[str, tuple[int, int, int]], ...]
    setup: str  # "table": build_table; "interpreter": start + import of the CLI


def _library_cases(params):
    return tuple((case, params) for case in LIBRARY_CLI_CASES)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="readme",
            params=(2000, 20, 10),
            cli_share=0.6,
            cli_cases=_library_cases((2000, 20, 10)),
            setup="table",
        ),
        Workload(
            name="tight",
            params=(1000, 450, 2),
            cli_share=0.6,
            cli_cases=_library_cases((1000, 450, 2)),
            setup="table",
        ),
        Workload(
            name="stream",
            params=(2000, 1, 10),
            cli_share=0.6,
            cli_cases=_library_cases((2000, 1, 10)),
            setup="table",
        ),
        Workload(
            name="cli",
            params=(300, 10, 4),
            cli_share=0.9,
            cli_cases=tuple(
                (case, params)
                for params in ((300, 10, 4), (120, 3, 12))
                for case in FULL_CLI_CASES
            ),
            setup="interpreter",
        ),
    )
}
