"""Bounded counter programs, and the command vocabulary and statement grammar
that recursive net programs share.

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

`Inc`, `Dec`, `Goto` and `Halt` are defined here once; `snl.rnp` imports
them and adds its own commands.  Each language is a `Grammar`, a table from
command class to statement form, which both parses and prints statements.
"""

from __future__ import annotations

import collections
import re
from typing import NamedTuple

from snl.record import Record
from snl.text import strip_comments

DEFAULT_FUEL = 10_000_000

IDENT = r"[A-Za-z_][A-Za-z0-9_]*"


class CounterParseError(ValueError):
    pass


class CounterValidationError(ValueError):
    pass


# Commands and models are records (snl.record); results are NamedTuples.
# Commands must not be tuples: programs are compared and hashed, and
# `Inc("l", "x") == Dec("l", "x")` as tuples.  Models check themselves in
# `__post_init__` or hold a `cached_property`, so they need a `__dict__`.
class Inc(Record):
    label: str
    var: str


class Dec(Record):
    label: str
    var: str


class Goto(Record):
    label: str
    target: str


class IfZero(Record):
    label: str
    var: str
    target_zero: str
    target_nonzero: str


class Halt(Record):
    label: str


Command = Inc | Dec | Goto | IfZero | Halt


class CounterProgram(Record):
    """A program checked where it is built: see validate_counter."""

    commands: tuple[Command, ...]

    def __post_init__(self) -> None:
        validate_counter(self)

    @property
    def variables(self) -> tuple[str, ...]:
        counters = {cmd.var for cmd in self.commands if isinstance(cmd, (Inc, Dec, IfZero))}
        return tuple(sorted(counters))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(cmd.label for cmd in self.commands)

    def size(self) -> int:
        return len(self.commands)


# ---------------------------------------------------------------------------
# Run verdicts, compared by class only: as tuples `Aborts(0, "l") == BoundExceeded(0, "l")`


class Halts(NamedTuple):
    peak: int
    steps: int


class Aborts(NamedTuple):
    steps: int
    label: str


class BoundExceeded(NamedTuple):
    steps: int
    var: str


class FuelExhausted(NamedTuple):
    steps: int


Verdict = Halts | Aborts | BoundExceeded | FuelExhausted


# ---------------------------------------------------------------------------
# Statement grammar


class Grammar:
    """A statement language: a table from command class to statement form.

    A form is the text after `label:`, with `{field}` standing for an
    identifier that fills that field of the command.  Between two words of
    a form a space is required; next to a symbol such as `=` it is optional,
    so `if x=0 then ...` still parses.  The same table prints a command.
    """

    def __init__(self, forms: dict[type, str], error: type[ValueError]):
        self.forms = forms
        self.error = error
        self.patterns = [(cls, re.compile(_pattern(form))) for cls, form in forms.items()]

    def parse(self, text: str, where: str) -> tuple:
        """Parse `label: command;` statements.  A missing semicolon after
        the final statement is tolerated; format always emits one."""
        commands = []
        for stmt in text.split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            label, colon, body = stmt.partition(":")
            label = label.strip()
            if not colon:
                raise self.error(f"missing label in {where}: {stmt!r}")
            if not re.fullmatch(IDENT, label):
                raise self.error(f"bad label {label!r} in {where}")
            body = " ".join(body.split())
            for cls, pattern in self.patterns:
                m = pattern.fullmatch(body)
                if m:
                    commands.append(cls(label, **m.groupdict()))
                    break
            else:
                raise self.error(f"unrecognized command {body!r} in {where}")
        return tuple(commands)

    def format(self, cmd) -> str:
        return f"{cmd.label}: {self.forms[type(cmd)].format_map(vars(cmd))};"


def _pattern(form: str) -> str:
    words = form.split(" ")
    wordy = [w.startswith("{") or w[0].isalnum() for w in words]
    out = []
    for i, word in enumerate(words):
        if i:
            out.append(r"\s+" if wordy[i - 1] and wordy[i] else r"\s*")
        out.append(f"(?P<{word[1:-1]}>{IDENT})" if word.startswith("{") else re.escape(word))
    return "".join(out)


SHARED_FORMS = {Inc: "inc {var}", Dec: "dec {var}", Goto: "goto {target}", Halt: "halt"}

GRAMMAR = Grammar(
    SHARED_FORMS | {IfZero: "if {var} = 0 then goto {target_zero} else goto {target_nonzero}"},
    CounterParseError,
)


def parse_counter(text: str) -> CounterProgram:
    return CounterProgram(GRAMMAR.parse(strip_comments(text), "counter program"))


def serialize_counter(program: CounterProgram) -> str:
    return "\n".join(GRAMMAR.format(cmd) for cmd in program.commands) + "\n"


def duplicates(what: str, names: list[str]) -> str | None:
    """The problem line naming every one of `names` that occurs twice."""
    dupes = sorted(name for name, count in collections.Counter(names).items() if count > 1)
    return f"duplicate {what}: {', '.join(dupes)}" if dupes else None


def non_identifiers(what: str, names) -> list[str]:
    """A problem line for each distinct one of `names` that is not an
    identifier, the one name shape the statement grammar reads back."""
    return [f"{what} {n!r} is not an identifier"
            for n in dict.fromkeys(names) if not re.fullmatch(IDENT, n)]


def jump_targets(cmd) -> tuple[str, ...]:
    """The labels a command may jump to: its `target...` fields."""
    return tuple(value for field, value in vars(cmd).items() if field.startswith("target"))


def validate_counter(program: CounterProgram) -> None:
    """Raise CounterValidationError unless the program is well formed:
    identifier labels and counters, distinct labels, all jump targets
    defined, and exactly one halt sitting at the very end."""
    problems = []
    labels = [cmd.label for cmd in program.commands]
    label_set = set(labels)
    if dupes := duplicates("labels", labels):
        problems.append(dupes)
    if not program.commands:
        problems.append("empty program")
    else:
        halts = [cmd for cmd in program.commands if isinstance(cmd, Halt)]
        if len(halts) != 1 or not isinstance(program.commands[-1], Halt):
            problems.append("program must contain exactly one halt, as its last command")
    for cmd in program.commands:
        for t in jump_targets(cmd):
            if t not in label_set:
                problems.append(f"jump target {t!r} of {cmd.label!r} is undefined")
    problems += non_identifiers("label", labels) + non_identifiers("counter", program.variables)
    if problems:
        raise CounterValidationError("; ".join(problems))


# ---------------------------------------------------------------------------
# Bounded execution


def run_bounded(program: CounterProgram, bound: int, fuel: int = DEFAULT_FUEL) -> Verdict:
    """Run the program with every counter capped at `bound`.

    The step count of a verdict is the number of commands executed before
    the run stopped; the halt command itself is not counted, so a run that
    halts after exactly `fuel` steps halts.  An increment
    that would push a counter above the bound stops the run *before* the
    counter moves, so `peak <= bound` on every Halts verdict.
    """
    index = {cmd.label: i for i, cmd in enumerate(program.commands)}
    values: dict[str, int] = {}
    pc = 0
    peak = 0
    for steps in range(fuel + 1):
        cmd = program.commands[pc]
        if isinstance(cmd, Halt):
            return Halts(peak=peak, steps=steps)
        if steps == fuel:
            break
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
