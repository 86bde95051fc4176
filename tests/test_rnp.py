"""Recursive net program semantics, exploration, and the text format."""

import pytest
from hypothesis import given, settings, strategies as st

from snl import counter, rnp
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
    validate_rnp,
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


@given(
    st.integers(min_value=0, max_value=9),
    BODIES,
    st.lists(st.builds(Proc, IDENTS, BODIES, BODIES), max_size=3).map(tuple),
)
@settings(max_examples=200, deadline=None)
def test_format_then_parse_is_identity(k, main, procs):
    # every command class, unvalidated, whatever the identifiers
    prog = Rnp(k, main, procs)
    assert parse_rnp(serialize_rnp(prog)) == prog


def _simple(k, main, procs=()):
    return Rnp(max_depth=k, main=tuple(main), procs=tuple(procs))


PROC_UV = Proc("p", (Inc("a1", "u"), Return("a2")), (Inc("b1", "v"), Return("b2")))


def test_validation_rejects_bad_programs():
    bad = [
        # call inside a depth-limit body
        _simple(2, [Call("l1", "p"), Halt("l2")],
                [Proc("p", (Return("a1"),), (Call("b1", "p"), Return("b2")))]),
        # duplicate labels across sequences
        _simple(2, [Inc("a1", "x"), Halt("l2")],
                [Proc("p", (Return("a1"),), (Return("b1"),))]),
        # jump across sequences
        _simple(2, [Goto("l1", "a1"), Halt("l2")],
                [Proc("p", (Return("a1"),), (Return("b1"),))]),
        # return in main
        _simple(2, [Return("l1"), Halt("l2")]),
        # halt inside a procedure
        _simple(2, [Call("l1", "p"), Halt("l2")],
                [Proc("p", (Halt("a1"),), (Return("b1"),))]),
        # empty body
        _simple(2, [Call("l1", "p"), Halt("l2")], [Proc("p", (), (Return("b1"),))]),
        # inc may not end a sequence
        _simple(2, [Inc("l1", "x"), Halt("l2")],
                [Proc("p", (Inc("a1", "x"),), (Return("b1"),))]),
        # undefined procedure
        _simple(2, [Call("l1", "q"), Halt("l2")], [PROC_UV]),
        # halt not last in main
        _simple(2, [Halt("l1"), Inc("l2", "x"), Halt("l3")]),
        # depth must be positive
        _simple(0, [Halt("l1")]),
    ]
    for prog in bad:
        with pytest.raises(RnpValidationError):
            validate_rnp(prog)


# ---------------------------------------------------------------------------
# Depth semantics: which body runs is decided after pushing the call label.


def test_call_at_depth_limit_runs_eq_body():
    prog = _simple(1, [Call("l1", "p"), Halt("l2")], [PROC_UV])
    verdict = explore_halting(prog)
    assert isinstance(verdict, RnpHalts)
    assert valuation_dict(verdict.config) == {("v", 1): 1}


def test_call_below_depth_limit_runs_lt_body():
    prog = _simple(2, [Call("l1", "p"), Halt("l2")], [PROC_UV])
    verdict = explore_halting(prog)
    assert isinstance(verdict, RnpHalts)
    assert valuation_dict(verdict.config) == {("u", 1): 1}


def test_counters_are_per_depth():
    # inc x in main, then inc x inside the procedure: two separate copies
    prog = _simple(
        1,
        [Inc("l1", "x"), Call("l2", "p"), Halt("l3")],
        [Proc("p", (Return("a1"),), (Inc("b1", "x"), Return("b2")))],
    )
    verdict = explore_halting(prog)
    assert valuation_dict(verdict.config) == {("x", 0): 1, ("x", 1): 1}


def test_return_resumes_after_the_call():
    prog = _simple(
        2,
        [Call("l1", "p"), Inc("l2", "w"), Halt("l3")],
        [PROC_UV],
    )
    verdict = explore_halting(prog)
    assert valuation_dict(verdict.config) == {("u", 1): 1, ("w", 0): 1}


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


def test_run_scheduled_choices_exhausted():
    prog = _simple(1, [GotoOr("l1", "l2", "l3"), Goto("l2", "l1"), Halt("l3")])
    run = run_scheduled(prog, [])
    assert run.stop == "choices_exhausted"


def test_return_with_empty_stack_is_structural_error():
    prog = _simple(2, [Call("l1", "p"), Halt("l2")], [PROC_UV])
    # start execution inside the procedure body without having called it
    start = make_config(prog, site=(("lt", "p"), 1), stack=())
    with pytest.raises(RnpStructureError):
        successors(prog, start)
    assert run_scheduled(prog, [], start=start).stop == "structural_error"


def test_valuations_are_canonical_and_sparse():
    prog = _simple(1, [Inc("l1", "x"), Dec("l2", "x"), Halt("l3")])
    verdict = explore_halting(prog)
    assert verdict.config.valuation == ()  # the zero entry is dropped
