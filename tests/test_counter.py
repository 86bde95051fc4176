"""Counter program parsing, validation, and bounded execution."""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import BAD_NAMES, names_in, renamed
from snl import counter
from snl.counter import (
    Aborts,
    BoundExceeded,
    CounterParseError,
    CounterValidationError,
    FuelExhausted,
    Halts,
    parse_counter,
    run_bounded,
    serialize_counter,
)

COUNT4 = """\
l1: inc x;
l2: inc x;
l3: inc x;
l4: inc x;
l5: halt;
"""


def test_parse_count4():
    prog = parse_counter(COUNT4)
    assert len(prog.commands) == 5
    assert prog.labels == ("l1", "l2", "l3", "l4", "l5")
    assert prog.variables == ("x",)


def test_serialize_round_trip_is_identity():
    prog = parse_counter(COUNT4)
    assert serialize_counter(prog) == COUNT4
    assert parse_counter(serialize_counter(prog)) == prog


def test_parse_tolerates_missing_final_semicolon_and_comments():
    src = "# counting\nl1: inc x;  # up\nl2: halt"
    prog = parse_counter(src)
    assert len(prog.commands) == 2
    # canonical form always carries the semicolon
    assert serialize_counter(prog).endswith("halt;\n")


def test_parse_if_zero_without_spaces_around_equals():
    prog = parse_counter("l1: if x=0 then goto l2 else goto l2; l2: halt")
    assert prog.commands[0] == counter.IfZero("l1", "x", "l2", "l2")


def test_parse_if_zero():
    prog = parse_counter("l1: if x = 0 then goto l2 else goto l3; l2: inc x; l3: halt;")
    cmd = prog.commands[0]
    assert isinstance(cmd, counter.IfZero)
    assert (cmd.var, cmd.target_zero, cmd.target_nonzero) == ("x", "l2", "l3")


@pytest.mark.parametrize(
    "src",
    [
        "inc x;",  # no label
        "l1: bump x;",  # unknown command
        "l1: inc;",  # missing operand
        "l1: if x = 1 then goto a else goto b;",  # only zero tests exist
        "1l: inc x;",  # bad identifier
        "l1: call p;",  # net-program commands are not counter commands
        "l1: return;",
        "l1: goto a or goto b;",
    ],
)
def test_parse_errors(src):
    with pytest.raises(CounterParseError):
        parse_counter(src)


@pytest.mark.parametrize(
    "src",
    [
        "l1: inc x; l1: halt;",  # duplicate label
        "l1: goto l9; l2: halt;",  # dangling target
        "l1: halt; l2: inc x;",  # halt not last
        "l1: halt; l2: halt;",  # two halts
        "l1: inc x;",  # no halt
    ],
)
def test_validation_errors(src):
    with pytest.raises(CounterValidationError):
        parse_counter(src)


# ---------------------------------------------------------------------------
# Execution.  Golden trace for the up-counting corpus program, simulated by
# hand: four increments then halt, so peak 4 after 4 executed commands.


def assert_verdict(got, expected):
    # verdicts are tuples, so `==` alone takes Aborts(0, "l1") for BoundExceeded(0, "l1")
    assert (type(got), got) == (type(expected), expected)


def test_count4_golden_trace():
    prog = parse_counter(COUNT4)
    assert_verdict(run_bounded(prog, 4), Halts(peak=4, steps=4))


def test_bound_check_fires_before_the_counter_moves():
    prog = parse_counter(COUNT4)
    verdict = run_bounded(prog, 3)
    assert_verdict(verdict, BoundExceeded(steps=3, var="x"))


def test_dec_at_zero_aborts():
    prog = parse_counter("l1: dec x; l2: halt;")
    assert_verdict(run_bounded(prog, 4), Aborts(steps=0, label="l1"))


def test_nonterminating_program_exhausts_fuel():
    prog = parse_counter("l1: goto l1; l2: halt;")
    assert_verdict(run_bounded(prog, 4, fuel=1000), FuelExhausted(steps=1000))


def test_if_zero_branches():
    taken_zero = parse_counter(
        "l1: if x = 0 then goto l2 else goto l3; l2: inc x; l3: halt;"
    )
    assert_verdict(run_bounded(taken_zero, 4), Halts(peak=1, steps=2))
    taken_nonzero = parse_counter(
        "l1: inc x;"
        "l2: if x = 0 then goto l4 else goto l3;"
        "l3: goto l4;"
        "l4: halt;"
    )
    assert_verdict(run_bounded(taken_nonzero, 4), Halts(peak=1, steps=3))


def test_up_down_loop():
    # inc twice, then dec in a loop until the zero test fires
    prog = parse_counter(
        "l1: inc x; l2: inc x;"
        "l3: dec x;"
        "l4: if x = 0 then goto l6 else goto l5;"
        "l5: goto l3;"
        "l6: halt;"
    )
    assert_verdict(run_bounded(prog, 4), Halts(peak=2, steps=7))


# ---------------------------------------------------------------------------
# Properties over random straight-line programs (forward jumps only, so
# every run terminates one way or another without fuel pressure).


@st.composite
def straightline_programs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    commands = []
    for i in range(n):
        kind = draw(st.sampled_from(["inc", "dec", "goto", "if"]))
        var = draw(st.sampled_from(["x", "y"]))
        target = f"l{draw(st.integers(min_value=i + 1, max_value=n))}"
        target2 = f"l{draw(st.integers(min_value=i + 1, max_value=n))}"
        label = f"l{i}"
        if kind == "inc":
            commands.append(counter.Inc(label, var))
        elif kind == "dec":
            commands.append(counter.Dec(label, var))
        elif kind == "goto":
            commands.append(counter.Goto(label, target))
        else:
            commands.append(counter.IfZero(label, var, target, target2))
    commands.append(counter.Halt(f"l{n}"))
    return counter.CounterProgram(tuple(commands))


@given(straightline_programs(), st.integers(min_value=1, max_value=6))
@settings(max_examples=200, deadline=None)
def test_bounded_run_properties(prog, bound):
    verdict = run_bounded(prog, bound)
    # deterministic
    assert run_bounded(prog, bound) == verdict
    if isinstance(verdict, Halts):
        assert verdict.peak <= bound
        # raising the bound never changes a halting run
        assert run_bounded(prog, bound + 3) == verdict
    # round-trip through the text format preserves behavior
    reparsed = parse_counter(serialize_counter(prog))
    assert run_bounded(reparsed, bound) == verdict


# ---------------------------------------------------------------------------
# The statement grammar round-trips every command class, whatever the
# identifiers; a program round-trips whenever it can be built at all.

IDENTS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True)
COMMANDS = st.one_of(
    st.builds(counter.Inc, IDENTS, IDENTS),
    st.builds(counter.Dec, IDENTS, IDENTS),
    st.builds(counter.Goto, IDENTS, IDENTS),
    st.builds(counter.IfZero, IDENTS, IDENTS, IDENTS, IDENTS),
    st.builds(counter.Halt, IDENTS),
)


@given(st.lists(COMMANDS, max_size=8).map(tuple))
@settings(max_examples=200, deadline=None)
def test_format_then_parse_is_identity(commands):
    text = "\n".join(counter.GRAMMAR.format(cmd) for cmd in commands)
    assert counter.GRAMMAR.parse(text, "counter program") == commands


@st.composite
def sometimes_misnamed_commands(draw):
    """Distinct labels, defined targets and one final halt, so a valid
    program, in which half the time one name is replaced throughout by one
    the statement grammar would not read back."""
    labels = draw(st.lists(IDENTS, min_size=1, max_size=6, unique=True))
    targets = st.sampled_from(labels)
    body = [
        draw(st.one_of(
            st.builds(counter.Inc, st.just(label), IDENTS),
            st.builds(counter.Dec, st.just(label), IDENTS),
            st.builds(counter.Goto, st.just(label), targets),
            st.builds(counter.IfZero, st.just(label), IDENTS, targets, targets),
        ))
        for label in labels[:-1]
    ]
    commands = (*body, counter.Halt(labels[-1]))
    old = draw(st.sampled_from(sorted(names_in(commands))))
    return renamed(commands, old, draw(st.just(old) | st.sampled_from(BAD_NAMES)))


@given(sometimes_misnamed_commands())
@example((counter.Inc("l-1", "x"), counter.Halt("h")))
@example((counter.Inc("a", "x y"), counter.Halt("h")))
@example((counter.Goto("a b", "h"), counter.Halt("h")))
@settings(max_examples=200, deadline=None)
def test_every_program_that_builds_round_trips(commands):
    if all(re.fullmatch(counter.IDENT, name) for name in names_in(commands)):
        prog = counter.CounterProgram(commands)
        assert parse_counter(serialize_counter(prog)) == prog
    else:
        with pytest.raises(CounterValidationError, match="is not an identifier"):
            counter.CounterProgram(commands)
