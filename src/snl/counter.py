"""Bounded counter programs.

A counter program is a finite sequence of labelled commands over a set of
counters that hold natural numbers (all initially zero):

    l: inc x;                                  increment x
    l: dec x;                                  decrement x, abort if x = 0
    l: goto l2;                                unconditional jump
    l: if x = 0 then goto l1 else goto l2;     zero test
    l: halt;                                   stop (must be the last command)

Execution is deterministic.  Decrementing a zero counter aborts the run,
which is distinct from halting.  A B-bounded run additionally stops the
moment an increment *would* push a counter above B, so the peak counter
value of a completed run never exceeds B.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from snl.text import strip_comments

DEFAULT_FUEL = 10_000_000

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class CounterParseError(ValueError):
    pass


class CounterValidationError(ValueError):
    pass


@dataclass(frozen=True)
class Inc:
    label: str
    var: str


@dataclass(frozen=True)
class Dec:
    label: str
    var: str


@dataclass(frozen=True)
class Goto:
    label: str
    target: str


@dataclass(frozen=True)
class IfZero:
    label: str
    var: str
    target_zero: str
    target_nonzero: str


@dataclass(frozen=True)
class Halt:
    label: str


Command = Inc | Dec | Goto | IfZero | Halt


@dataclass(frozen=True)
class CounterProgram:
    commands: tuple[Command, ...]

    @property
    def variables(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for cmd in self.commands:
            if isinstance(cmd, (Inc, Dec, IfZero)):
                seen.setdefault(cmd.var, None)
        return tuple(sorted(seen))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(cmd.label for cmd in self.commands)

    def size(self) -> int:
        return len(self.commands)


# ---------------------------------------------------------------------------
# Run verdicts


@dataclass(frozen=True)
class Halts:
    peak: int
    steps: int


@dataclass(frozen=True)
class Aborts:
    steps: int
    label: str


@dataclass(frozen=True)
class BoundExceeded:
    steps: int
    var: str


@dataclass(frozen=True)
class FuelExhausted:
    steps: int


Verdict = Halts | Aborts | BoundExceeded | FuelExhausted


# ---------------------------------------------------------------------------
# Parsing and serialization


def _check_ident(name: str, what: str, stmt: str) -> str:
    if not IDENT.match(name):
        raise CounterParseError(f"bad {what} {name!r} in statement {stmt!r}")
    return name


_IF_RE = re.compile(
    r"if\s+(\w+)\s*=\s*0\s+then\s+goto\s+(\w+)\s+else\s+goto\s+(\w+)\Z"
)


def parse_counter(text: str) -> CounterProgram:
    """Parse counter program source.  A missing semicolon after the final
    command is tolerated; the serializer always emits one."""
    commands: list[Command] = []
    for stmt in strip_comments(text).split(";"):
        stmt = stmt.strip()
        if not stmt:
            continue
        label, colon, body = stmt.partition(":")
        if not colon:
            raise CounterParseError(f"missing label in statement {stmt!r}")
        label = _check_ident(label.strip(), "label", stmt)
        body = " ".join(body.split())
        if body == "halt":
            commands.append(Halt(label))
            continue
        m = _IF_RE.match(body)
        if m:
            var, lz, lnz = m.groups()
            commands.append(IfZero(label, _check_ident(var, "variable", stmt), lz, lnz))
            continue
        parts = body.split(" ")
        if len(parts) == 2 and parts[0] == "inc":
            commands.append(Inc(label, _check_ident(parts[1], "variable", stmt)))
        elif len(parts) == 2 and parts[0] == "dec":
            commands.append(Dec(label, _check_ident(parts[1], "variable", stmt)))
        elif len(parts) == 2 and parts[0] == "goto":
            commands.append(Goto(label, _check_ident(parts[1], "label", stmt)))
        else:
            raise CounterParseError(f"unrecognized command {body!r} in {stmt!r}")
    return CounterProgram(tuple(commands))


def serialize_counter(program: CounterProgram) -> str:
    lines = []
    for cmd in program.commands:
        if isinstance(cmd, Inc):
            lines.append(f"{cmd.label}: inc {cmd.var};")
        elif isinstance(cmd, Dec):
            lines.append(f"{cmd.label}: dec {cmd.var};")
        elif isinstance(cmd, Goto):
            lines.append(f"{cmd.label}: goto {cmd.target};")
        elif isinstance(cmd, IfZero):
            lines.append(
                f"{cmd.label}: if {cmd.var} = 0 then goto {cmd.target_zero}"
                f" else goto {cmd.target_nonzero};"
            )
        else:
            lines.append(f"{cmd.label}: halt;")
    return "\n".join(lines) + "\n"


def validate_counter(program: CounterProgram) -> None:
    """Raise CounterValidationError unless the program is well formed:
    distinct labels, all jump targets defined, and exactly one halt sitting
    at the very end."""
    problems = []
    labels = [cmd.label for cmd in program.commands]
    label_set = set(labels)
    if len(label_set) != len(labels):
        dupes = sorted({l for l in labels if labels.count(l) > 1})
        problems.append(f"duplicate labels: {', '.join(dupes)}")
    if not program.commands:
        problems.append("empty program")
    else:
        halts = [cmd for cmd in program.commands if isinstance(cmd, Halt)]
        if len(halts) != 1 or not isinstance(program.commands[-1], Halt):
            problems.append("program must contain exactly one halt, as its last command")
    for cmd in program.commands:
        targets = []
        if isinstance(cmd, Goto):
            targets = [cmd.target]
        elif isinstance(cmd, IfZero):
            targets = [cmd.target_zero, cmd.target_nonzero]
        for t in targets:
            if t not in label_set:
                problems.append(f"jump target {t!r} of {cmd.label!r} is undefined")
    if problems:
        raise CounterValidationError("; ".join(problems))


# ---------------------------------------------------------------------------
# Bounded execution


def run_bounded(program: CounterProgram, bound: int, fuel: int = DEFAULT_FUEL) -> Verdict:
    """Run the program with every counter capped at `bound`.

    The step count of a verdict is the number of commands executed before
    the run stopped; the halt command itself is not counted.  An increment
    that would push a counter above the bound stops the run *before* the
    counter moves, so `peak <= bound` on every Halts verdict.
    """
    index = {cmd.label: i for i, cmd in enumerate(program.commands)}
    values: dict[str, int] = {}
    pc = 0
    peak = 0
    for steps in range(fuel):
        cmd = program.commands[pc]
        if isinstance(cmd, Halt):
            return Halts(peak=peak, steps=steps)
        if isinstance(cmd, Inc):
            v = values.get(cmd.var, 0)
            if v + 1 > bound:
                return BoundExceeded(steps=steps, var=cmd.var)
            values[cmd.var] = v + 1
            peak = max(peak, v + 1)
            pc += 1
        elif isinstance(cmd, Dec):
            v = values.get(cmd.var, 0)
            if v == 0:
                return Aborts(steps=steps, label=cmd.label)
            values[cmd.var] = v - 1
            pc += 1
        elif isinstance(cmd, Goto):
            pc = index[cmd.target]
        else:
            target = cmd.target_zero if values.get(cmd.var, 0) == 0 else cmd.target_nonzero
            pc = index[target]
    return FuelExhausted(steps=fuel)
