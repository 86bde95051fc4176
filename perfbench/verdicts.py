"""Expected verdicts, written by hand, and the gate that checks a pipeline
report against them.

Every stage of `snl pipeline` answers one question about a counter program:
does it halt without leaving the simulated bound B = 2^(2^n)?  The answers
below were read off the programs in `corpus/`, not taken from any stage of
the compiler chain.  For example `infinite_loop` is "no" although the
counter stage itself only reports FuelExhausted.
"""

from __future__ import annotations

STAGES = ("counter", "rnp", "tdpn", "dcps")

# program -> n -> does the program halt within bound 2^(2^n)?  Only the
# programs and n that a workload in run.py runs are listed.
EXPECTED: dict[str, dict[int, str]] = {
    "halt": {1: "yes"},  # halts at once
    "branch_nonzero": {1: "yes"},  # x = 1, takes the nonzero branch, halts
    "branch_zero": {1: "yes"},  # x = 0, takes the zero branch, halts
    "count4": {1: "yes"},  # peak 4 <= B
    "two_vars": {1: "yes"},  # a and b each reach 1
    "updown_loop": {1: "yes"},  # peak 2, the loop drains x to 0
    "abort_dec": {1: "no"},  # decrements a zero counter
    "infinite_loop": {1: "no"},  # jumps to itself forever
}

# Exit codes of `snl pipeline` that are not failures: 0 all verdicts
# certified and agreeing, 3 some verdict Unknown.  2 (bad input), 4
# (disagreement) and anything else (a crash) are failures.
OK_EXIT_CODES = (0, 3)


def expected(program: str, n: int) -> str:
    return EXPECTED[program][n]


def gate_report(report: dict, program: str, n: int) -> tuple[int, list[str]]:
    """(certified verdicts, problems) for one pipeline report.

    A certified verdict ("yes" or "no") that differs from the expected
    answer is a problem; an Unknown is neither certified nor a problem.
    """
    want = expected(program, n)
    by_stage = {s["stage"]: s for s in report.get("stages", ())}
    certified = 0
    problems = []
    for stage in STAGES:
        if stage not in by_stage:
            problems.append(f"{program}: stage {stage} missing from the report")
            continue
        got = by_stage[stage]["normalized"]
        if got == "unknown":
            continue
        certified += 1
        if got != want:
            problems.append(f"{program}: {stage} says {got!r}, expected {want!r}")
    return certified, problems


def gate_exit(code: int, program: str) -> list[str]:
    if code in OK_EXIT_CODES:
        return []
    if code < 0:
        return [f"{program}: killed by signal {-code}"]
    return [f"{program}: exit code {code}"]
