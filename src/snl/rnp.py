"""Recursive net programs: counter programs with bounded-depth procedure calls.

A program has a main command sequence, a set of procedures, and a maximum
call depth k.  Each procedure carries two bodies: one used while the call
stack is still shallow (lt_max) and one used at the depth limit (eq_max,
which may not contain calls).  Every counter exists in k+1 copies, one per
depth; inc/dec act on the copy at the current depth, so a procedure works
with fresh counters and the caller's values are untouched until it returns.

Commands:

    l: inc x;                 l: goto l2;               l: call p;
    l: dec x;                 l: goto l1 or goto l2;    l: return;
    l: halt;

A configuration is a site, the call stack and a valuation.  The program
fixes its counter copies, so the valuation is a plain tuple with one count
per copy, at the slot `Rnp.tables` gives it: counters in sorted order, each
with its depths 0..k in turn.

Semantics are nondeterministic only at `goto .. or goto ..`.  A decrement
of a zero counter has no successor (the branch is stuck, there is no abort
verdict).  Calling pushes the call command's label; depth is the stack
length; the callee body is lt_max when the new depth is below k and eq_max
when it equals k.  Returning pops a label and resumes right after it.

`Inc`, `Dec`, `Goto` and `Halt` are the counter-program commands of
`snl.counter`, re-exported here; this module adds `GotoOr`, `Call` and
`Return`.  Bodies are parsed and printed by a `counter.Grammar` whose table
extends the shared statement forms with these three.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, NamedTuple

from snl.counter import IDENT, SHARED_FORMS, Grammar, duplicates, jump_targets, non_identifiers
from snl.counter import Dec, Goto, Halt, Inc  # the commands both languages share
from snl.record import Record
from snl.search import Capped, Found, bfs
from snl.text import strip_comments

MAIN_SEQ = ("main",)

DEFAULT_MAX_CONFIGS = 1_000_000


class RnpParseError(ValueError):
    pass


class RnpValidationError(ValueError):
    pass


class RnpStructureError(RuntimeError):
    """Raised when execution itself is ill-formed, e.g. a return with an
    empty call stack from a hand-built start configuration."""


# records like counter's commands: as tuples `Halt("l") == Return("l")`
class GotoOr(Record):
    label: str
    target1: str
    target2: str


class Call(Record):
    label: str
    proc: str


class Return(Record):
    label: str


Command = Inc | Dec | Goto | GotoOr | Call | Return | Halt


class Proc(Record):
    name: str
    lt_max: tuple[Command, ...]
    eq_max: tuple[Command, ...]


class Rnp(Record):
    """A program checked where it is built: see validate_rnp."""

    max_depth: int
    main: tuple[Command, ...]
    procs: tuple[Proc, ...]

    def __post_init__(self) -> None:
        validate_rnp(self)

    def sequences(self) -> list[tuple[tuple, tuple[Command, ...]]]:
        """All command sequences with their ids, in canonical order:
        main, then per procedure lt_max then eq_max."""
        out: list[tuple[tuple, tuple[Command, ...]]] = [(MAIN_SEQ, self.main)]
        for p in self.procs:
            out.append((("lt", p.name), p.lt_max))
            out.append((("eq", p.name), p.eq_max))
        return out

    def size(self) -> int:
        """Depth encoding width plus total command count."""
        bits = (self.max_depth - 1).bit_length() if self.max_depth > 1 else 0
        return bits + sum(len(cmds) for _, cmds in self.sequences())

    @cached_property
    def tables(self) -> tuple[dict, dict, dict]:
        """(label -> (seq id, index), seq id -> command tuple,
        (counter, depth) -> valuation slot)."""
        sites: dict[str, tuple[tuple, int]] = {}
        seqs: dict[tuple, tuple[Command, ...]] = {}
        for seq_id, cmds in self.sequences():
            seqs[seq_id] = cmds
            for i, cmd in enumerate(cmds):
                sites[cmd.label] = (seq_id, i)
        counters = {cmd.var for cmds in seqs.values() for cmd in cmds if isinstance(cmd, (Inc, Dec))}
        copies = product(sorted(counters), range(self.max_depth + 1))
        return sites, seqs, {copy: slot for slot, copy in enumerate(copies)}


def command_at(rnp: Rnp, site: tuple[tuple, int]) -> Command:
    _, seqs, _ = rnp.tables
    seq_id, idx = site
    return seqs[seq_id][idx]


# ---------------------------------------------------------------------------
# Configurations


class RnpConfig(NamedTuple):
    """Where the run is, the labels of the pending calls, and one count per
    counter copy, at the copy's slot in `Rnp.tables`."""

    site: tuple[tuple, int]
    stack: tuple[str, ...]
    valuation: tuple[int, ...]


def valuation_dict(rnp: Rnp, config: RnpConfig) -> dict[tuple[str, int], int]:
    """The nonzero counter copies of a configuration: (counter, depth) -> count."""
    _, _, slots = rnp.tables
    return {copy: config.valuation[slot] for copy, slot in slots.items() if config.valuation[slot]}


def make_config(
    rnp: Rnp,
    site: tuple[tuple, int] = (MAIN_SEQ, 0),
    stack: tuple[str, ...] = (),
    valuation: dict[tuple[str, int], int] | None = None,
) -> RnpConfig:
    """A configuration; `valuation` maps (counter, depth) to a count, and a
    copy it does not name holds 0."""
    _, _, slots = rnp.tables
    counts = [0] * len(slots)
    for copy, count in (valuation or {}).items():
        counts[slots[copy]] = count
    return RnpConfig(site, stack, tuple(counts))


def initial_config(rnp: Rnp) -> RnpConfig:
    return make_config(rnp)


def successors(rnp: Rnp, config: RnpConfig) -> list[tuple[int | None, RnpConfig]]:
    """Successor configurations, paired with the branch choice taken
    (0 or 1 at a goto-or, None elsewhere).  Halt and a stuck decrement
    yield no successors."""
    sites, seqs, slots = rnp.tables
    (seq_id, idx), stack, valuation = config
    cmd = seqs[seq_id][idx]
    if isinstance(cmd, Halt):
        return []
    if isinstance(cmd, (Inc, Dec)):
        slot = slots[cmd.var, len(stack)]
        count = valuation[slot] + (1 if isinstance(cmd, Inc) else -1)
        if count < 0:
            return []
        valuation = valuation[:slot] + (count,) + valuation[slot + 1 :]
        return [(None, RnpConfig((seq_id, idx + 1), stack, valuation))]
    if isinstance(cmd, Goto):
        return [(None, RnpConfig(sites[cmd.target], stack, valuation))]
    if isinstance(cmd, GotoOr):
        return [
            (0, RnpConfig(sites[cmd.target1], stack, valuation)),
            (1, RnpConfig(sites[cmd.target2], stack, valuation)),
        ]
    if isinstance(cmd, Call):
        depth = len(stack) + 1
        if depth > rnp.max_depth:
            raise RnpStructureError(f"call {cmd.label!r} would exceed depth {rnp.max_depth}")
        body = ("lt" if depth < rnp.max_depth else "eq", cmd.proc)
        return [(None, RnpConfig((body, 0), stack + (cmd.label,), valuation))]
    # Return
    if not stack:
        raise RnpStructureError(f"return at {cmd.label!r} with empty call stack")
    caller_seq, caller_idx = sites[stack[-1]]
    return [(None, RnpConfig((caller_seq, caller_idx + 1), stack[:-1], valuation))]


# ---------------------------------------------------------------------------
# Validation


def validate_rnp(rnp: Rnp) -> None:
    """Raise RnpValidationError, naming each problem, unless the depth is
    positive, every name an identifier, labels and procedures distinct, and
    the bodies well formed: jumps local, calls defined and not in eq_max,
    returns only in procedures, one halt, ending main."""
    problems: list[str] = []
    if rnp.max_depth < 1:
        problems.append(f"max depth must be at least 1, got {rnp.max_depth}")
    names = [p.name for p in rnp.procs]
    if dupes := duplicates("procedure names", names):
        problems.append(dupes)
    all_labels: list[str] = []
    for seq_id, cmds in rnp.sequences():
        where = "/".join(map(str, seq_id))
        if not cmds:
            problems.append(f"empty sequence {where}")
            continue
        all_labels.extend(cmd.label for cmd in cmds)
        local = {cmd.label for cmd in cmds}
        for i, cmd in enumerate(cmds):
            last = i == len(cmds) - 1
            if isinstance(cmd, (Inc, Dec, Call)) and last:
                problems.append(
                    f"{type(cmd).__name__.lower()} at {cmd.label!r} may not end sequence {where}"
                )
            for t in jump_targets(cmd):
                if t not in local:
                    problems.append(
                        f"jump target {t!r} of {cmd.label!r} is outside sequence {where}"
                    )
            if isinstance(cmd, Call):
                if cmd.proc not in set(names):
                    problems.append(f"call to undefined procedure {cmd.proc!r} at {cmd.label!r}")
                if seq_id[0] == "eq":
                    problems.append(f"call at {cmd.label!r} inside depth-limit body {where}")
            if isinstance(cmd, Return) and seq_id == MAIN_SEQ:
                problems.append(f"return at {cmd.label!r} in main")
            if isinstance(cmd, Halt):
                if seq_id != MAIN_SEQ:
                    problems.append(f"halt at {cmd.label!r} outside main")
                elif not last:
                    problems.append(f"halt at {cmd.label!r} is not the last command of main")
    if not rnp.main or not isinstance(rnp.main[-1], Halt):
        problems.append("main must end with halt")
    if dupes := duplicates("labels", all_labels):
        problems.append(dupes)
    counters = [c.var for _, cmds in rnp.sequences() for c in cmds if isinstance(c, (Inc, Dec))]
    problems += non_identifiers("label", all_labels) + non_identifiers("counter", counters)
    problems += non_identifiers("procedure name", names)
    if problems:
        raise RnpValidationError("; ".join(problems))


# ---------------------------------------------------------------------------
# Exploration


class RnpHalts(NamedTuple):
    witness: tuple[int, ...]
    config: RnpConfig
    configs_explored: int


class RnpNo(NamedTuple):
    configs_explored: int


class RnpUnknown(NamedTuple):
    reason: str
    configs_explored: int


ExploreVerdict = RnpHalts | RnpNo | RnpUnknown


def explore_halting(
    rnp: Rnp,
    max_configs: int = DEFAULT_MAX_CONFIGS,
    max_value: int | None = None,
    start: RnpConfig | None = None,
) -> ExploreVerdict:
    """Breadth-first search for a halting run.

    Returns RnpHalts with the goto-or choice sequence of a shortest halting
    run, RnpNo when the whole configuration space was exhausted, and
    RnpUnknown when a cap interfered: max_configs bounds the configurations
    expanded, and a counter copy exceeding max_value prunes that branch.
    """
    if start is None:
        start = initial_config(rnp)
    over_value = None
    if max_value is not None:
        def over_value(config: RnpConfig) -> str | None:
            return "max_value" if max(config.valuation, default=0) > max_value else None

    result = bfs(
        start,
        lambda config: successors(rnp, config),
        lambda config: isinstance(command_at(rnp, config.site), Halt),
        max_configs,
        "max_configs",
        over_value,
    )
    if isinstance(result, Found):
        choices = tuple(c for c in result.labels if c is not None)
        return RnpHalts(choices, result.state, result.explored)
    if isinstance(result, Capped):
        return RnpUnknown(result.reason, result.explored)
    return RnpNo(result.explored)


class ScheduledRun(NamedTuple):
    stop: str  # halted | stuck_dec | choices_exhausted | step_limit | structural_error
    steps: int
    config: RnpConfig
    stuck_var: str | None = None
    stuck_depth: int | None = None


def run_scheduled(
    rnp: Rnp,
    choices: Iterable[int],
    start: RnpConfig | None = None,
    max_steps: int = DEFAULT_MAX_CONFIGS,
) -> ScheduledRun:
    """Replay a run, resolving each goto-or with the next scheduled choice
    (0 = first branch, 1 = second; any other choice is a ValueError).
    Reports how and where the run stopped; a stuck decrement reports the
    variable and its depth.  A run that halts after max_steps steps halts."""
    if start is None:
        start = initial_config(rnp)
    stream: Iterator[int] = iter(choices)
    config = start
    for steps in range(max_steps + 1):
        cmd = command_at(rnp, config.site)
        if isinstance(cmd, Halt):
            return ScheduledRun("halted", steps, config)
        if steps == max_steps:
            break
        try:
            succ = successors(rnp, config)
        except RnpStructureError:
            return ScheduledRun("structural_error", steps, config)
        if not succ:
            if not isinstance(cmd, Dec):
                raise RuntimeError(f"{cmd.label!r} has no successor but is not a decrement")
            return ScheduledRun("stuck_dec", steps, config, stuck_var=cmd.var, stuck_depth=len(config.stack))
        if isinstance(cmd, GotoOr):
            try:
                pick = next(stream)
            except StopIteration:
                return ScheduledRun("choices_exhausted", steps, config)
            if pick not in (0, 1):
                raise ValueError(f"choice {pick!r} at step {steps} is neither 0 nor 1")
            config = succ[pick][1]
        else:
            config = succ[0][1]
    return ScheduledRun("step_limit", max_steps, config)


# ---------------------------------------------------------------------------
# Parsing and serialization


GRAMMAR = Grammar(
    SHARED_FORMS
    | {GotoOr: "goto {target1} or goto {target2}", Call: "call {proc}", Return: "return"},
    RnpParseError,
)


_MAXDEPTH_RE = re.compile(r"\s*maxdepth\s+(\d+)\s*;")
_MAIN_RE = re.compile(r"\s*main\s*:\s*\{([^}]*)\}")
_PROC_RE = re.compile(
    rf"\s*proc\s+({IDENT})\s+ltmax\s*\{{([^}}]*)\}}\s*eqmax\s*\{{([^}}]*)\}}"
)


def parse_rnp(text: str) -> Rnp:
    text = strip_comments(text)
    m = _MAXDEPTH_RE.match(text)
    if not m:
        raise RnpParseError("expected 'maxdepth <k>;' header")
    max_depth = int(m.group(1))
    pos = m.end()
    m = _MAIN_RE.match(text, pos)
    if not m:
        raise RnpParseError("expected 'main: { ... }' after maxdepth")
    main = GRAMMAR.parse(m.group(1), "main")
    pos = m.end()
    procs: list[Proc] = []
    while True:
        m = _PROC_RE.match(text, pos)
        if not m:
            break
        name, lt_body, eq_body = m.groups()
        procs.append(
            Proc(
                name,
                GRAMMAR.parse(lt_body, f"proc {name} ltmax"),
                GRAMMAR.parse(eq_body, f"proc {name} eqmax"),
            )
        )
        pos = m.end()
    if text[pos:].strip():
        raise RnpParseError(f"trailing input: {text[pos:].strip()[:60]!r}")
    return Rnp(max_depth, main, tuple(procs))


def serialize_rnp(rnp: Rnp) -> str:
    lines = [f"maxdepth {rnp.max_depth};", "main: {"]
    lines.extend(f"  {GRAMMAR.format(c)}" for c in rnp.main)
    lines.append("}")
    for p in rnp.procs:
        lines.append(f"proc {p.name} ltmax {{")
        lines.extend(f"  {GRAMMAR.format(c)}" for c in p.lt_max)
        lines.append("} eqmax {")
        lines.extend(f"  {GRAMMAR.format(c)}" for c in p.eq_max)
        lines.append("}")
    return "\n".join(lines) + "\n"
