"""Recursive net program semantics, exploration, and the text format."""

import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from genutil import random_rnp, tiny_rnps
from helpers import BAD_NAMES, corpus_names, corpus_program, names_in, renamed
from snl import counter, rnp
from snl.lipton import compile_lipton
from snl.rnp import (
    Call,
    Dec,
    Goto,
    GotoOr,
    Halt,
    Inc,
    Proc,
    Return,
    Rnp,
    RnpHalts,
    RnpNo,
    RnpParseError,
    RnpStructureError,
    RnpUnknown,
    RnpValidationError,
    explore_halting,
    initial_config,
    make_config,
    parse_rnp,
    run_scheduled,
    serialize_rnp,
    successors,
    valuation_dict,
)

CANONICAL = """\
maxdepth 2;
main: {
  l1: inc x;
  l2: goto l1 or goto l3;
  l3: call p;
  l4: halt;
}
proc p ltmax {
  a1: inc x;
  a2: return;
} eqmax {
  b1: return;
}
"""


def test_parse_serialize_round_trip():
    prog = parse_rnp(CANONICAL)
    assert prog.max_depth == 2
    assert len(prog.main) == 4
    assert serialize_rnp(prog) == CANONICAL
    assert parse_rnp(serialize_rnp(prog)) == prog


def test_parse_errors():
    with pytest.raises(RnpParseError):
        parse_rnp("main: { l1: halt; }")  # missing maxdepth
    with pytest.raises(RnpParseError):
        parse_rnp("maxdepth 2;\nmain: { l1: halt; }\nstray")
    with pytest.raises(RnpParseError):
        parse_rnp("maxdepth 2;\nmain: { l1: jump l2; }")


@pytest.mark.parametrize("body", [
    "l1: inc 3x;",  # operands are identifiers
    "l1: call 9p;",
    "l1: goto 1l;",
    "l1: if x = 0 then goto l2 else goto l2;",  # zero tests are counter-only
])
def test_parse_rejects_bad_commands(body):
    with pytest.raises(RnpParseError):
        parse_rnp(f"maxdepth 1;\nmain: {{ {body} l2: halt; }}")


def test_shared_commands_are_the_counter_commands():
    assert (rnp.Inc, rnp.Dec, rnp.Goto, rnp.Halt) == (
        counter.Inc, counter.Dec, counter.Goto, counter.Halt
    )


IDENTS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True)
BODIES = st.lists(
    st.one_of(
        st.builds(Inc, IDENTS, IDENTS),
        st.builds(Dec, IDENTS, IDENTS),
        st.builds(Goto, IDENTS, IDENTS),
        st.builds(GotoOr, IDENTS, IDENTS, IDENTS),
        st.builds(Call, IDENTS, IDENTS),
        st.builds(Return, IDENTS),
        st.builds(Halt, IDENTS),
    ),
    max_size=6,
).map(tuple)


@given(BODIES)
@settings(max_examples=200, deadline=None)
def test_format_then_parse_is_identity(body):
    # every command class, whatever the identifiers
    text = "\n".join(rnp.GRAMMAR.format(cmd) for cmd in body)
    assert rnp.GRAMMAR.parse(text, "main") == body


@st.composite
def sometimes_misnamed_parts(draw):
    """(depth, main, procs) with distinct labels, local jumps, calls to
    defined procedures outside the depth-limit bodies and a halt ending
    main, so a valid program, in which half the time one name is replaced
    throughout by one the statement grammar would not read back."""
    names = draw(st.lists(IDENTS, max_size=2, unique=True))
    sizes = [draw(st.integers(1, 4)) for _ in range(1 + 2 * len(names))]
    labels = draw(st.lists(IDENTS, min_size=sum(sizes), max_size=sum(sizes), unique=True))
    bodies = []
    for i, size in enumerate(sizes):  # main, then each procedure's lt_max and eq_max
        own, labels = labels[:size], labels[size:]
        targets = st.sampled_from(own)
        body = []
        for label in own[:-1]:
            forms = [
                st.builds(Inc, st.just(label), IDENTS),
                st.builds(Dec, st.just(label), IDENTS),
                st.builds(Goto, st.just(label), targets),
                st.builds(GotoOr, st.just(label), targets, targets),
            ]
            if names and (i == 0 or i % 2 == 1):
                forms.append(st.builds(Call, st.just(label), st.sampled_from(names)))
            body.append(draw(st.one_of(forms)))
        body.append((Halt if i == 0 else Return)(own[-1]))
        bodies.append(tuple(body))
    procs = tuple(Proc(name, bodies[1 + 2 * j], bodies[2 + 2 * j]) for j, name in enumerate(names))
    parts = (draw(st.integers(1, 3)), bodies[0], procs)
    old = draw(st.sampled_from(sorted(names_in(parts))))
    return renamed(parts, old, draw(st.just(old) | st.sampled_from(BAD_NAMES)))


@given(sometimes_misnamed_parts())
@example((2, (Call("m0", "p-q"), Halt("m1")), (Proc("p-q", (Return("u0"),), (Return("v0"),)),)))
@settings(max_examples=200, deadline=None)
def test_every_program_that_builds_round_trips(parts):
    if all(re.fullmatch(counter.IDENT, name) for name in names_in(parts)):
        prog = Rnp(*parts)
        assert parse_rnp(serialize_rnp(prog)) == prog
    else:
        with pytest.raises(RnpValidationError, match="is not an identifier"):
            Rnp(*parts)


def test_valid_programs_round_trip():
    programs = [program for _, program in tiny_rnps()]
    programs += [random_rnp(random.Random(seed)) for seed in range(20)]
    programs += [compile_lipton(corpus_program(name), 1).rnp for name in corpus_names()]
    for prog in programs:
        assert parse_rnp(serialize_rnp(prog)) == prog


def _simple(k, main, procs=()):
    return Rnp(max_depth=k, main=tuple(main), procs=tuple(procs))


PROC_UV = Proc("p", (Inc("a1", "u"), Return("a2")), (Inc("b1", "v"), Return("b2")))


def test_validation_rejects_bad_programs():
    bad = [
        # call inside a depth-limit body
        (2, [Call("l1", "p"), Halt("l2")],
         [Proc("p", (Return("a1"),), (Call("b1", "p"), Return("b2")))]),
        # duplicate labels across sequences
        (2, [Inc("a1", "x"), Halt("l2")],
         [Proc("p", (Return("a1"),), (Return("b1"),))]),
        # jump across sequences
        (2, [Goto("l1", "a1"), Halt("l2")],
         [Proc("p", (Return("a1"),), (Return("b1"),))]),
        # return in main
        (2, [Return("l1"), Halt("l2")]),
        # halt inside a procedure
        (2, [Call("l1", "p"), Halt("l2")],
         [Proc("p", (Halt("a1"),), (Return("b1"),))]),
        # empty body
        (2, [Call("l1", "p"), Halt("l2")], [Proc("p", (), (Return("b1"),))]),
        # inc may not end a sequence
        (2, [Inc("l1", "x"), Halt("l2")],
         [Proc("p", (Inc("a1", "x"),), (Return("b1"),))]),
        # undefined procedure
        (2, [Call("l1", "q"), Halt("l2")], [PROC_UV]),
        # halt not last in main
        (2, [Halt("l1"), Inc("l2", "x"), Halt("l3")]),
        # depth must be positive
        (0, [Halt("l1")]),
    ]
    for parts in bad:
        with pytest.raises(RnpValidationError):
            _simple(*parts)


# ---------------------------------------------------------------------------
# Depth semantics: which body runs is decided after pushing the call label.


def test_call_at_depth_limit_runs_eq_body():
    prog = _simple(1, [Call("l1", "p"), Halt("l2")], [PROC_UV])
    verdict = explore_halting(prog)
    assert isinstance(verdict, RnpHalts)
    assert valuation_dict(prog, verdict.config) == {("v", 1): 1}


def test_call_below_depth_limit_runs_lt_body():
    prog = _simple(2, [Call("l1", "p"), Halt("l2")], [PROC_UV])
    verdict = explore_halting(prog)
    assert isinstance(verdict, RnpHalts)
    assert valuation_dict(prog, verdict.config) == {("u", 1): 1}


def test_counters_are_per_depth():
    # inc x in main, then inc x inside the procedure: two separate copies
    prog = _simple(
        1,
        [Inc("l1", "x"), Call("l2", "p"), Halt("l3")],
        [Proc("p", (Return("a1"),), (Inc("b1", "x"), Return("b2")))],
    )
    verdict = explore_halting(prog)
    assert valuation_dict(prog, verdict.config) == {("x", 0): 1, ("x", 1): 1}


def test_return_resumes_after_the_call():
    prog = _simple(
        2,
        [Call("l1", "p"), Inc("l2", "w"), Halt("l3")],
        [PROC_UV],
    )
    verdict = explore_halting(prog)
    assert valuation_dict(prog, verdict.config) == {("u", 1): 1, ("w", 0): 1}


def test_dec_at_zero_is_stuck_not_abort():
    prog = _simple(1, [Dec("l1", "x"), Halt("l2")])
    verdict = explore_halting(prog)
    assert isinstance(verdict, RnpNo)
    # and successors() agrees there is nowhere to go
    assert successors(prog, initial_config(prog)) == []


def test_goto_or_explores_both_branches():
    # one branch loops forever, the other halts: exploration must find halt
    prog = _simple(
        1,
        [GotoOr("l1", "l2", "l3"), Goto("l2", "l1"), Halt("l3")],
    )
    verdict = explore_halting(prog)
    assert isinstance(verdict, RnpHalts)
    assert verdict.witness == (1,)


def test_witness_replays_to_the_same_config():
    prog = parse_rnp(CANONICAL)
    verdict = explore_halting(prog)
    assert isinstance(verdict, RnpHalts)
    replay = run_scheduled(prog, verdict.witness)
    assert replay.stop == "halted"
    assert replay.config == verdict.config


def test_explore_no_on_pure_loop():
    prog = _simple(1, [Goto("l1", "l1"), Halt("l2")])
    verdict = explore_halting(prog)
    assert isinstance(verdict, RnpNo)


def test_explore_unknown_on_config_budget():
    # unbounded counter growth: the only run never halts and never repeats
    prog = _simple(1, [Inc("l1", "x"), Goto("l2", "l1"), Halt("l3")])
    verdict = explore_halting(prog, max_configs=50)
    assert isinstance(verdict, RnpUnknown)
    assert verdict.reason == "max_configs"


def test_explore_unknown_on_value_cap():
    prog = _simple(1, [Inc("l1", "x"), Goto("l2", "l1"), Halt("l3")])
    verdict = explore_halting(prog, max_value=10)
    assert isinstance(verdict, RnpUnknown)
    assert verdict.reason == "max_value"


def test_run_scheduled_reports_stuck_dec_with_depth():
    prog = _simple(
        1,
        [Call("l1", "p"), Halt("l2")],
        [Proc("p", (Return("a1"),), (Dec("b1", "x"), Return("b2")))],
    )
    run = run_scheduled(prog, [])
    assert run.stop == "stuck_dec"
    assert (run.stuck_var, run.stuck_depth) == ("x", 1)


@pytest.mark.parametrize("max_steps, stop", [(1, "step_limit"), (2, "halted")])
def test_run_scheduled_halts_within_exactly_its_steps(max_steps, stop):
    # inc, then the goto-or to halt: the run halts after 2 steps
    prog = _simple(1, [Inc("l1", "x"), GotoOr("l2", "l3", "l4"), Goto("l3", "l2"), Halt("l4")])
    run = run_scheduled(prog, [1], max_steps=max_steps)
    assert (run.stop, run.steps) == (stop, max_steps)


def test_run_scheduled_choices_exhausted():
    prog = _simple(1, [GotoOr("l1", "l2", "l3"), Goto("l2", "l1"), Halt("l3")])
    run = run_scheduled(prog, [])
    assert run.stop == "choices_exhausted"


@pytest.mark.parametrize("choice", [-1, 2])
def test_run_scheduled_refuses_a_choice_other_than_0_or_1(choice):
    # -1 would index the second branch and report halted; 2 would raise IndexError
    prog = _simple(1, [Inc("l1", "x"), GotoOr("l2", "l3", "l4"), Goto("l3", "l2"), Halt("l4")])
    with pytest.raises(ValueError, match=f"choice {choice} at step 1 is neither 0 nor 1"):
        run_scheduled(prog, [choice])


def test_return_with_empty_stack_is_structural_error():
    prog = _simple(2, [Call("l1", "p"), Halt("l2")], [PROC_UV])
    # start execution inside the procedure body without having called it
    start = make_config(prog, site=(("lt", "p"), 1), stack=())
    with pytest.raises(RnpStructureError):
        successors(prog, start)
    assert run_scheduled(prog, [], start=start).stop == "structural_error"


def test_valuations_are_canonical():
    # a counter copy back at 0 leaves the configuration it would have had
    # without the increment, so the two are one configuration to the search
    prog = _simple(1, [Inc("l1", "x"), Dec("l2", "x"), Halt("l3")])
    verdict = explore_halting(prog)
    assert verdict.config == make_config(prog, site=(("main",), 2))
