#!/usr/bin/env python3
"""The snl benchmark.  One command runs one workload, checks every verdict
and prints the metrics named in BENCHMARK.json:

    python3 perfbench/run.py --workload pipeline-n1-decided --seed 1 --seconds 60 --trace 0

The load is a closed loop from this one process: it starts one child
interpreter at a time and waits for it, never two at once.  Each
`snl pipeline` call runs in a fresh interpreter, as users run it, so the
library's per-process caches never carry over from one call to the next.
This process and its children share one CPU; between children it times a
fixed reference computation, and every time it reports is divided by the
slowdown those blocks show (see "Machine speed" below).

--trace 0 measures untraced and prints the end-to-end metrics.  --trace 1
runs one untraced and one traced pass and prints the per-layer metrics.  The
last line of standard output is always one JSON object.  Results, including
one row per program, are also written to perfbench/.work/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path

import spans
import verdicts

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"

# A run ends within this many seconds of its start, whatever --seconds says.
HARD_LIMIT_S = 170.0
# setup_s is the median of at least this many set-up children, two before
# each measured call and the rest after the last, so that they sample the
# machine's speed across the whole run.
SETUP_MIN_REPEATS = 21
SETUP_PER_CALL = 2
# A reference block runs reference_work() this many times; REFERENCE_NOMINAL_S
# is one run's time at the machine's nominal speed (the fastest seen on a
# 2-core Intel Xeon virtual machine with Python 3.11).
REFERENCE_REPEATS = 4
REFERENCE_NOMINAL_S = 0.036
# A child's slowdown is the mean of the reference blocks from this many
# children before it to this many after it.
SPEED_WINDOW = 2
ARTIFACT_SUFFIXES = (".rnp", ".tdpn", ".dcps", ".addr", ".names")
# What the `snl` console script runs.
CONSOLE_SCRIPT = "import sys; from snl.cli import main; sys.exit(main())"
TIMING_RE = re.compile(r"^snl: timing (\S+): ([0-9.]+)s$", re.M)


@dataclass(frozen=True)
class Pipeline:
    n: int
    programs: tuple[str, ...]


ORACLES = "oracles-micro"

# Why each workload exists is in README.md.
WORKLOADS = {
    "pipeline-n1-decided": Pipeline(
        1, ("branch_nonzero", "branch_zero", "count4", "halt", "two_vars", "updown_loop")
    ),
    # Not in BENCHMARK.json (a pass takes 30-45 s): run by hand for dcps-search changes.
    "pipeline-n1-capped": Pipeline(1, ("abort_dec", "infinite_loop")),
    ORACLES: None,
}


# ---------------------------------------------------------------------------
# Children


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(BENCH), env.get("PYTHONPATH")]))
    env.pop("SNL_MAX_CONFIGS", None)  # children run with the library's own caps
    return env


def run_child(argv: list[str], deadline: float) -> Child:
    """Run one child to completion and return its exit code, wall time and
    peak RSS.  A child still running at the deadline is killed."""
    WORK.mkdir(parents=True, exist_ok=True)
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode,
        wall,
        usage.ru_maxrss / 1024,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
    )


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


# ---------------------------------------------------------------------------
# Machine speed.  On a shared host the same work can take twice as long in a
# slow spell as in a fast one, and a spell lasts from seconds to minutes.  So
# a block of a fixed reference computation runs in this process after every
# measured child, never beside one, and the child's time is divided by the
# slowdown the blocks around it show.


def reference_work(size: int = 12) -> int:
    """A fixed breadth-first search over a synthetic state graph, made of what
    the library's searches spend their time on: tuples, frozensets, a set and
    a deque.  It is the benchmark's own code, so no change to src/ moves it."""
    start = (0, 0, 0, frozenset())
    seen = {start}
    queue = deque([start])
    while queue:
        a, b, c, marks = queue.popleft()
        for nxt in ((a + 1, b, c, marks), (a, b + 1, c, marks),
                    (a, b, c + 1, marks | {a % 3}), (a - 1, b + 1, c, marks)):
            if max(nxt[:3]) < size and min(nxt[:3]) >= 0 and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen)


class Speed:
    """Reference blocks between measured children: block i runs just before
    child i and block i + 1 just after it."""

    def __init__(self):
        self.blocks: list[float] = []
        self.block()

    def block(self) -> None:
        """One reference block, kept as the mean time of its runs."""
        t0 = time.perf_counter()
        for _ in range(REFERENCE_REPEATS):
            reference_work()
        self.blocks.append((time.perf_counter() - t0) / REFERENCE_REPEATS)

    def measure(self, run):
        """(run(), i): run, then a reference block; i numbers the child."""
        result = run()
        self.block()
        return result, len(self.blocks) - 2

    def slowdown(self, i: int) -> float:
        """Child i's slowdown: the mean time of the blocks from SPEED_WINDOW
        children before it to SPEED_WINDOW after it, over REFERENCE_NOMINAL_S."""
        near = self.blocks[max(0, i - SPEED_WINDOW): i + 2 + SPEED_WINDOW]
        return statistics.mean(near) / REFERENCE_NOMINAL_S


# ---------------------------------------------------------------------------
# Determinism: digests of every output, per source tree


def source_digest() -> str:
    """Digest of the code and inputs: the library, the corpus and this
    benchmark's own modules."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(CORPUS.glob("*")) + sorted(BENCH.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class DigestBook:
    """Digests of report.json and every artifact, kept across runs in the
    checkout for every source tree seen there.  The same code on the same
    input must give the same bytes; any difference is a failure of the run
    that sees it."""

    def __init__(self, path: Path):
        self.path = path
        self.key = source_digest()
        try:
            self.all = json.loads(path.read_text())
        except (OSError, ValueError):
            self.all = {}
        self.seen = self.all.setdefault(self.key, {})

    def check(self, item: str, digests: dict[str, str]) -> list[str]:
        before = self.seen.setdefault(item, digests)
        return [
            f"{item}: {name} differs from an earlier run of the same code"
            for name in sorted(set(before) | set(digests))
            if before.get(name) != digests.get(name)
        ]

    def save(self) -> None:
        self.path.write_text(json.dumps(self.all, indent=1, sort_keys=True))


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Pipeline calls


@dataclass
class Call:
    program: str
    wall_s: float
    peak_rss_mb: float
    code: int
    slowdown: float = 1.0
    verdicts: dict[str, str] = field(default_factory=dict)
    stage_s: dict[str, float] = field(default_factory=dict)
    certified: int = 0
    artifact_bytes: int = 0
    report: dict = field(default_factory=dict)
    report_bytes: bytes = b""
    problems: list[str] = field(default_factory=list)


def pipeline_call(program: str, n: int, deadline: float, book: DigestBook,
                  spans_path: Path | None = None) -> Call:
    out_dir = WORK / f"n{n}" / program / ("traced" if spans_path else "plain")
    shutil.rmtree(out_dir, ignore_errors=True)
    args = ["pipeline", str(CORPUS / f"{program}.cp"), "--n", str(n), "--out-dir", str(out_dir)]
    if spans_path is None:
        argv = python("-c", CONSOLE_SCRIPT, *args)
    else:
        argv = python(str(BENCH / "child.py"), "traced-cli", str(spans_path), "--", *args)
    child = run_child(argv, deadline)
    call = Call(program, child.wall_s, child.peak_rss_mb, child.code)
    call.stage_s = {name: float(s) for name, s in TIMING_RE.findall(child.stderr)}
    call.problems += verdicts.gate_exit(child.code, program)
    report_path = out_dir / "report.json"
    if not report_path.is_file():
        call.problems.append(f"{program}: no report.json; stderr: {child.stderr.strip()[-300:]}")
        return call
    call.report_bytes = report_path.read_bytes()
    call.report = json.loads(call.report_bytes)
    call.verdicts = {s["stage"]: s["verdict"] for s in call.report.get("stages", ())}
    call.certified, problems = verdicts.gate_report(call.report, program, n)
    call.problems += problems
    digests = {"report.json": file_digest(report_path)}
    for path in sorted(out_dir.iterdir()):
        if path.suffix in ARTIFACT_SUFFIXES:
            call.artifact_bytes += path.stat().st_size
            digests[path.name] = file_digest(path)
    call.problems += book.check(f"pipeline n={n} {program}", digests)
    return call


def closed_loop(keys, run_one, seconds: float, deadline: float, setup: SetupProbe) -> list:
    """run_one(key) for each key in turn, one child at a time, until
    --seconds is spent.  Every key runs once; after that a step starts only
    if that key's earlier steps still fit in --seconds.  A step is the
    set-up probes, the measured run and a reference block.  Each result gets
    the slowdown around it, and so do the probes."""
    done = []
    end = time.perf_counter() + seconds
    speed = setup.speed
    for i in itertools.count():
        key = keys[i % len(keys)]
        if i >= len(keys):
            guess = statistics.median(step_s for k, _, _, step_s in done if k == key)
            if time.perf_counter() + guess > end or time.monotonic() + 2 * guess > deadline:
                break
        t0 = time.perf_counter()
        (probes, result), index = speed.measure(
            lambda: ([setup.once() for _ in range(SETUP_PER_CALL)], run_one(key)))
        setup.times += [(t, index) for t in probes]
        done.append((key, result, index, time.perf_counter() - t0))
    for _, result, index, _ in done:
        result.slowdown = speed.slowdown(index)
    return [result for _, result, _, _ in done]


def program_rows(calls: list[Call], programs: tuple[str, ...]) -> list[dict]:
    rows = []
    for program in programs:
        mine = [c for c in calls if c.program == program]
        last = mine[-1]
        rows.append({
            "program": program,
            "runs": len(mine),
            "wall_s": statistics.median(c.wall_s / c.slowdown for c in mine),
            "raw_s": statistics.median(c.wall_s for c in mine),
            "calls_s": [c.wall_s for c in mine],
            "slowdowns": [c.slowdown for c in mine],
            "stage_s": {k: statistics.median(c.stage_s.get(k, 0.0) / c.slowdown for c in mine)
                        for k in last.stage_s},
            "peak_rss_mb": max(c.peak_rss_mb for c in mine),
            "artifact_bytes": last.artifact_bytes,
            "verdicts": last.verdicts,
            "exit": last.code,
        })
    return rows


def print_program_rows(rows: list[dict], total: float) -> None:
    print(f"{'program':<16}{'runs':>5}{'wall_s':>9}{'raw_s':>9}{'of pass':>9}{'rss_mb':>8}"
          "  stage seconds (share of the program's wall time)")
    for r in rows:
        stages = "  ".join(
            f"{k} {v:.3f} ({v / r['wall_s']:.0%})" for k, v in r["stage_s"].items() if v >= 0.0005
        )
        print(f"{r['program']:<16}{r['runs']:>5}{r['wall_s']:>9.3f}{r['raw_s']:>9.3f}{r['wall_s'] / total:>9.1%}"
              f"{r['peak_rss_mb']:>8.1f}  {stages}")
        print(f"{'':<16}exit {r['exit']}: " + "; ".join(f"{k} {v}" for k, v in r["verdicts"].items()))
    print(f"{'pass':<16}{'':>5}{total:>9.3f}{sum(r['raw_s'] for r in rows):>9.3f}"
          "  (wall_s: each program's median call at nominal speed; raw_s: as timed)")


# ---------------------------------------------------------------------------
# Oracle passes


@dataclass
class OraclePass:
    wall_s: float
    peak_rss_mb: float
    result: dict
    problems: list[str]
    slowdown: float = 1.0


def oracle_pass(seed: int, deadline: float, book: DigestBook, spans_path: Path | None = None) -> OraclePass:
    result_path = WORK / "oracles.json"
    result_path.unlink(missing_ok=True)
    extra = [str(spans_path)] if spans_path else []
    child = run_child(python(str(BENCH / "child.py"), "oracles", str(seed), str(result_path), *extra), deadline)
    if child.code != 0 or not result_path.is_file():
        tail = child.stderr.strip()[-300:]
        return OraclePass(child.wall_s, child.peak_rss_mb, {}, [f"oracle pass exit {child.code}: {tail}"])
    result = json.loads(result_path.read_text())
    problems = result["failures"] + book.check(f"oracles seed={seed}", {"verdicts": result["digest"]})
    return OraclePass(result["pass_s"], child.peak_rss_mb, result, problems)


def oracle_wall_s(passes: list[OraclePass]) -> float:
    """The median pass at nominal speed.  A failed pass has no time; a run
    whose passes all failed reads 0 and is not correct."""
    times = [p.wall_s / p.slowdown for p in passes if p.result]
    return statistics.median(times) if times else 0.0


def print_family_rows(passes: list[OraclePass], total: float) -> None:
    done = [p for p in passes if p.result]
    family_s: dict[str, float] = {}
    for p in done:
        for family, s in zip(p.result["families"], p.result["comparison_s"]):
            family_s[family] = family_s.get(family, 0.0) + s / p.slowdown / len(done)
    print(f"{'family':<10}{'seconds':>9}{'of pass':>9}")
    for family, s in family_s.items():
        print(f"{family:<10}{s:>9.3f}{s / sum(family_s.values()):>9.1%}")
    print(f"{'pass':<10}{total:>9.3f}  (wall_s: the median of {len(done)} passes at nominal speed;"
          f" as timed, the median pass took {statistics.median(p.wall_s for p in done):.3f})")


# ---------------------------------------------------------------------------
# Metrics


class SetupProbe:
    """Times a child that starts an interpreter, imports snl and reads or
    generates the workload's inputs: everything before the first timed
    call."""

    def __init__(self, workload: str, seed: int, deadline: float, speed: Speed):
        wl = WORKLOADS[workload]
        if wl is None:
            self.argv = python(str(BENCH / "child.py"), "setup-oracles", str(seed))
        else:
            self.argv = python(str(BENCH / "child.py"), "setup-pipeline",
                               *(str(CORPUS / f"{p}.cp") for p in wl.programs))
        self.deadline = deadline
        self.speed = speed
        self.times: list[tuple[float, int]] = []  # (probe time as timed, its child's index in speed)

    def once(self) -> float:
        """One probe's time, as timed."""
        child = run_child(self.argv, self.deadline)
        if child.code != 0:
            raise SystemExit(f"setup failed: {child.stderr.strip()[-500:]}")
        return child.wall_s

    def median(self) -> float:
        """The median set-up time at nominal speed."""
        while len(self.times) < SETUP_MIN_REPEATS:
            self.times.append(self.speed.measure(self.once))
        return statistics.median(t / self.speed.slowdown(i) for t, i in self.times)


def end_to_end(workload: str, seed: int, seconds: float, deadline: float, book: DigestBook):
    """(metrics, attempted, failed, failures, report) of one untraced run."""
    setup = SetupProbe(workload, seed, deadline, Speed())
    wl = WORKLOADS[workload]
    if wl is None:
        passes = closed_loop([seed], lambda _: oracle_pass(seed, deadline, book),
                             seconds, deadline, setup)
        done = [p.result for p in passes if p.result]
        attempted = sum(r["attempted"] for r in done) + sum(1 for p in passes if not p.result)
        failures = [msg for p in passes for msg in p.problems]
        metrics = {
            "wall_s": oracle_wall_s(passes),
            "peak_rss_mb": max(p.peak_rss_mb for p in passes),
            "decided_frac": sum(r["decided"] for r in done) / max(1, sum(r["attempted"] for r in done)),
            "artifact_bytes": done[-1]["artifact_bytes"] if done else 0,
        }
        print_family_rows(passes, metrics["wall_s"])
        report = {"passes_s": [p.wall_s for p in passes], "slowdowns": [p.slowdown for p in passes]}
        detail = f"{sum(r['decided'] for r in done)} of {sum(r['attempted'] for r in done)} comparisons decided"
    else:
        calls = closed_loop(wl.programs, lambda p: pipeline_call(p, wl.n, deadline, book),
                            seconds, deadline, setup)
        rows = program_rows(calls, wl.programs)
        attempted = len(calls)
        failures = [msg for c in calls for msg in c.problems]
        verdict_count = len(verdicts.STAGES) * len(calls)
        metrics = {
            "wall_s": sum(r["wall_s"] for r in rows),
            "peak_rss_mb": max(c.peak_rss_mb for c in calls),
            "decided_frac": sum(c.certified for c in calls) / verdict_count,
            "artifact_bytes": sum(r["artifact_bytes"] for r in rows),
        }
        print_program_rows(rows, metrics["wall_s"])
        report = {"programs": rows}
        detail = f"{sum(c.certified for c in calls)} of {verdict_count} verdicts certified"
    metrics["setup_s"] = setup.median()
    blocks = setup.speed.blocks
    print(f"speed: {len(blocks)} reference blocks, slowdown median {statistics.median(blocks) / REFERENCE_NOMINAL_S:.3f},"
          f" range {min(blocks) / REFERENCE_NOMINAL_S:.3f} to {max(blocks) / REFERENCE_NOMINAL_S:.3f}")
    report["reference_blocks_s"] = blocks
    report["setup_s"] = [t for t, _ in setup.times]
    # a failed comparison is one failed operation; a failed call is one, however many problems it has
    failed = len(failures) if wl is None else sum(1 for c in calls if c.problems)
    print(f"decided: {detail}; failed: {failed} of {attempted} operations")
    return metrics, attempted, failed, failures, report


def traced(workload: str, seed: int, deadline: float, book: DigestBook):
    """(metrics, attempted, failed, failures, report) of one untraced and
    one traced pass."""
    wl = WORKLOADS[workload]
    dumps = []
    problems: list[str] = []
    if wl is None:
        plain = oracle_pass(seed, deadline, book)
        spans_path = WORK / "spans-oracles.json"
        traced_pass = oracle_pass(seed, deadline, book, spans_path)
        if traced_pass.result:
            dumps.append(json.loads(spans_path.read_text()))
        problems += plain.problems + traced_pass.problems
        if plain.result and traced_pass.result and plain.result["digest"] != traced_pass.result["digest"]:
            problems.append("traced oracle verdicts differ from the untraced ones")
        untraced_s, traced_s = plain.wall_s, traced_pass.wall_s
        attempted = sum(p.result.get("attempted", 1) for p in (plain, traced_pass))
        failed = len(problems)
    else:
        plain_calls, traced_calls = [], []
        for program in wl.programs:
            plain_calls.append(pipeline_call(program, wl.n, deadline, book))
        for program in wl.programs:
            spans_path = WORK / f"spans-{program}.json"
            spans_path.unlink(missing_ok=True)
            call = pipeline_call(program, wl.n, deadline, book, spans_path)
            if spans_path.is_file():
                dumps.append(json.loads(spans_path.read_text()))
            traced_calls.append(call)
        for call in plain_calls + traced_calls:
            problems += call.problems
        program_spans = spans.counts_by_trace(spans.merge(dumps))  # trace id = program
        for plain_call, traced_call in zip(plain_calls, traced_calls):
            mismatch = count_mismatches(plain_call, traced_call, program_spans.get(plain_call.program, {}))
            traced_call.problems += mismatch
            problems += mismatch
        untraced_s = sum(c.wall_s for c in plain_calls)
        traced_s = sum(c.wall_s for c in traced_calls)
        attempted = len(plain_calls) + len(traced_calls)
        failed = sum(1 for c in plain_calls + traced_calls if c.problems)
    all_spans = spans.merge(dumps)
    layer = spans.layer_metrics(all_spans)
    layer["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    print_layer_table(all_spans, traced_s)
    report = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "self_s_by_trace": self_by_trace(all_spans),
    }
    return layer, attempted, failed, problems, report


def count_mismatches(plain: Call, traced_call: Call, counts: dict) -> list[str]:
    """The traced run must behave exactly like the untraced one: the same
    report bytes, and span counts equal to the counts in the report."""
    name = plain.program
    if not plain.report_bytes or not traced_call.report_bytes:
        return []  # already a failure of its own
    problems = []
    if plain.report_bytes != traced_call.report_bytes:
        problems.append(f"{name}: traced report.json differs from the untraced one")
    details = {s["stage"]: s.get("detail", {}) for s in plain.report.get("stages", ())}
    pairs = [
        (details.get("rnp", {}).get("configs_explored"), counts.get("rnp.configs", 0), "rnp configs_explored"),
        (details.get("tdpn", {}).get("witness_steps"), counts.get("tdpn.witness_steps", 0), "tdpn witness_steps"),
        (details.get("dcps", {}).get("configs_explored"), counts.get("dcps.configs", 0), "dcps configs_explored"),
        (details.get("dcps", {}).get("events"), counts.get("tdpn2dcps.witness_events", 0), "dcps events"),
    ]
    for reported, seen, what in pairs:
        if reported is not None and reported != seen:
            problems.append(f"{name}: {what} is {reported} in report.json but {seen} in the trace")
    return problems


def self_by_trace(all_spans: list[spans.Span]) -> dict[str, dict[str, float]]:
    selfs = spans.self_times(all_spans)
    out: dict[str, dict[str, float]] = {}
    for s in all_spans:
        trace = s.trace.split("#")[0]  # oracle instances are grouped by family
        row = out.setdefault(trace, {})
        row[s.name] = row.get(s.name, 0.0) + selfs[s.id]
    return out


def print_layer_table(all_spans: list[spans.Span], traced_s: float) -> None:
    inclusive: Counter[str] = Counter()
    for s in all_spans:
        inclusive[s.name] += s.duration
    calls = Counter(s.name for s in all_spans)
    selfs = spans.self_time_by_name(all_spans)
    print(f"{'span':<22}{'calls':>9}{'total_s':>10}{'self_s':>10}{'self share':>11}")
    for name in sorted(selfs, key=selfs.get, reverse=True):
        print(f"{name:<22}{calls[name]:>9}{inclusive[name]:>10.3f}{selfs[name]:>10.3f}{selfs[name] / traced_s:>11.1%}")
    print(f"{'traced pass':<22}{'':>9}{traced_s:>10.3f}  (base of 'self share': child wall time, traced)")


# ---------------------------------------------------------------------------
# Main


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_checkout() -> None:
    missing = [p for p in (SRC / "snl" / "cli.py", CORPUS, ROOT / "BENCHMARK.json") if not p.exists()]
    if missing:
        print(f"perfbench: not an snl checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_checkout()
    # This process and its children share one CPU, so the reference blocks
    # time the CPU the measured children run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.monotonic() + HARD_LIMIT_S
    spec = load_spec()
    WORK.mkdir(parents=True, exist_ok=True)
    book = DigestBook(WORK / "digests.json")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"
          "  (closed loop, one child at a time)")
    if args.trace:
        values, attempted, failed, failures, report = traced(args.workload, args.seed, deadline, book)
        wanted = spec["per_layer"]
    else:
        values, attempted, failed, failures, report = end_to_end(
            args.workload, args.seed, args.seconds, deadline, book)
        wanted = spec["end_to_end"]
    book.save()
    for msg in failures:
        print(f"FAILED {msg}")
    metrics = {}
    for m in wanted:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<28}{value:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"{'failed_frac':<28}{failed / max(1, attempted):>16.6g} ratio  ({failed} of {attempted} operations)")
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "metrics": metrics, "failures": failures, **report}, indent=1))
    print(json.dumps({
        "correct": not failures,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
