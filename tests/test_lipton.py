"""The counter-to-recursive-net compiler and its procedure gadgets.

The exact-effect expectations below were derived by hand-simulating the
gadgets at n = 1 (helper budget 2^(2^1) = 4 at depth 1, 2^(2^0) = 2 at
depth 2) before the implementation existed; see the harness docstrings.
"""

import hashlib

import pytest

from helpers import (
    FULL_DEPTH2,
    corpus_program,
    dec_depth2_harness,
    dec_harness,
    halting_effect,
    inc_harness,
    zero_test_harness,
)
from snl import counter, rnp
from snl.counter import parse_counter
from snl.lipton import (
    LiptonInputError,
    compile_lipton,
    complement,
    expand_test,
    expand_test_plus1,
    helper_procs,
    max_depth_for,
    simulated_bound,
)
from snl.rnp import Call, GotoOr, RnpHalts, RnpNo, explore_halting, serialize_rnp


def test_complement_is_an_involution():
    assert complement("x") == "bar_x"
    assert complement("bar_x") == "x"


def test_helper_procs_shape():
    procs = helper_procs()
    assert len(procs) == 14
    names = {p.name for p in procs}
    assert names == {
        "s_inc", "s_dec", "bar_s_inc", "bar_s_dec",
        "y_inc", "y_dec", "bar_y_inc", "bar_y_dec",
        "z_inc", "z_dec", "bar_z_inc", "bar_z_dec",
        "dec", "inc",
    }
    by_name = {p.name: p for p in procs}
    for name, p in by_name.items():
        if name in ("dec", "inc"):
            continue
        assert len(p.lt_max) == 2 and len(p.eq_max) == 2  # one step and return
    assert len(by_name["dec"].lt_max) == 29
    assert len(by_name["dec"].eq_max) == 5
    assert len(by_name["inc"].lt_max) == 31
    assert len(by_name["inc"].eq_max) == 7


@pytest.mark.parametrize("expand", [expand_test, expand_test_plus1])
def test_expansion_shape(expand):
    cmds = expand("y", "lz", "ln", entry="e0")
    assert len(cmds) == 11
    assert cmds[0].label == "e0"  # entry label lands on the first command
    assert sum(isinstance(c, GotoOr) for c in cmds) == 2
    drains = [c for c in cmds if isinstance(c, Call) and c.proc == "dec"]
    assert len(drains) == 1  # the zero branch validates by draining s
    labels = [c.label for c in cmds]
    assert len(set(labels)) == len(labels)
    assert all(l == "e0" or l.startswith("e0__") for l in labels)


def test_guide_names_every_goto_or():
    compiled = compile_lipton(corpus_program("branch_zero.cp"), 1)
    labels = {c.label for _, cmds in compiled.rnp.sequences() for c in cmds if isinstance(c, GotoOr)}
    assert set(compiled.guide) == labels
    # the source's zero tests read depth 0; the helpers' and init's read one deeper
    assert {(t.var, t.offset) for t in compiled.guide.values()} == {
        ("x", 0), ("bar_x", 0), ("y", 1), ("z", 1)}


def test_compile_structure():
    prog = parse_counter(
        "l1: inc x; l2: inc x; l3: inc x; l4: inc x; l5: halt;"
    )
    compiled = compile_lipton(prog, n=1).rnp
    assert compiled.max_depth == 2
    # init prefix: 3 calls + one complement seed per variable + 11-command
    # gadget; simulation: 2 commands per inc, 1 for halt
    assert len(compiled.main) == (3 + 1 + 11) + (2 * 4 + 1)
    assert len(compiled.procs) == 14
    # the compiled program is a valid recursive net program (validated on
    # construction, but make the intent explicit)
    rnp.validate_rnp(compiled)


def test_compile_rejections():
    with pytest.raises(LiptonInputError):
        compile_lipton(parse_counter("l1: inc s; l2: halt;"), n=1)
    with pytest.raises(LiptonInputError):
        compile_lipton(parse_counter("l1: inc bar_q; l2: halt;"), n=1)
    with pytest.raises(LiptonInputError):
        compile_lipton(parse_counter("l1__x: inc q; l2: halt;"), n=1)
    with pytest.raises(LiptonInputError):
        compile_lipton(parse_counter("l1: halt;"), n=0)


def test_depth_modes():
    assert max_depth_for(2, "double") == 3
    assert max_depth_for(2, "triple") == 5
    assert simulated_bound(1, "double") == 4
    assert simulated_bound(1, "triple") == 16
    prog = parse_counter("l1: halt;")
    double = compile_lipton(prog, n=1, depth_mode="double").rnp
    triple = compile_lipton(prog, n=1, depth_mode="triple").rnp
    assert triple.max_depth == 3
    # only the depth limit differs
    assert double.main == triple.main
    assert double.procs == triple.procs


# SHA-256 of the serialized compiled program at each (n, depth mode) of
# RNP_SETTINGS; a change to the gadgets, the generated labels or the printer
# shows here
RNP_SETTINGS = ((1, "double"), (2, "double"), (1, "triple"))
STABLE_RNP_DIGESTS = {
    "branch_zero.cp": (
        "95d5b25886e902763dfb2761db720d27e2c4944202c08f746dbc51ceb720a961",
        "db3506711d02e74b1e213658f1e0c4e27ffcef1a409df5d2dd6fac0adf3ac739",
        "db3506711d02e74b1e213658f1e0c4e27ffcef1a409df5d2dd6fac0adf3ac739",
    ),
    "count4.cp": (
        "3ee45161099af0f5291440101a28bcdba478e094e63db1a177912a2bff6928c3",
        "82aa2b15af5931628ab168e733292450fff9e056560c768c7a33b8b224af18c6",
        "82aa2b15af5931628ab168e733292450fff9e056560c768c7a33b8b224af18c6",
    ),
    "updown_loop.cp": (
        "1a15c4d82b2a44c073e35fa65867f8e5b98f83c952ed295dd16bf43e73dfec9f",
        "0467a81be4319427cde678a814614220de358fb32983fc9143f863c11d50264c",
        "0467a81be4319427cde678a814614220de358fb32983fc9143f863c11d50264c",
    ),
}


@pytest.mark.parametrize("name", sorted(STABLE_RNP_DIGESTS))
def test_compiled_program_is_byte_stable(name):
    program = corpus_program(name)
    digests = tuple(
        hashlib.sha256(serialize_rnp(compile_lipton(program, n, mode).rnp).encode()).hexdigest()
        for n, mode in RNP_SETTINGS
    )
    assert digests == STABLE_RNP_DIGESTS[name]


@pytest.mark.parametrize("n, mode", [(0, "double"), (-1, "triple"), (1, "quad")])
def test_depth_rule_rejects_n_below_one_and_unknown_modes(n, mode):
    for rule in (max_depth_for, simulated_bound):
        with pytest.raises(LiptonInputError):
            rule(n, mode)


def test_bound_is_refused_past_the_printable_digits():
    # the largest bounds Python prints by default, and the first ones it would not
    assert len(str(simulated_bound(13))) == 2467
    assert len(str(simulated_bound(3, "triple"))) == 78
    for n, mode in ((14, "double"), (4, "triple"), (40, "double"), (40, "triple")):
        # at n=40 the bound alone would take 2^40 bits, or far more: refused before it is built
        with pytest.raises(LiptonInputError, match="has more than 4300 digits"):
            simulated_bound(n, mode)


def _straightline(m: int) -> counter.CounterProgram:
    # m commands: alternating inc/dec on one counter, halt at the end;
    # started with enough incs that it never aborts
    cmds = []
    for i in range(m - 1):
        cmds.append(counter.Inc(f"l{i}", "x") if i % 2 == 0 or i < 2 else counter.Dec(f"l{i}", "x"))
    cmds.append(counter.Halt(f"l{m - 1}"))
    return counter.CounterProgram(tuple(cmds))


def test_output_size_is_linear_in_source_size():
    sizes = {m: len(compile_lipton(_straightline(m), n=1).rnp.main) for m in (5, 10, 20)}
    # each non-halt command costs exactly 2 emitted commands here, so the
    # growth from 10 to 20 is twice the growth from 5 to 10
    assert sizes[20] - sizes[10] == 2 * (sizes[10] - sizes[5])
    # and the procedure family does not grow at all
    assert all(
        len(compile_lipton(_straightline(m), n=1).rnp.procs) == 14 for m in (5, 10, 20)
    )


# ---------------------------------------------------------------------------
# Exact effects of the compiled procedures (hand-derived, n = 1).


def test_dec_at_depth_one_drains_exactly_four():
    effect = halting_effect(dec_harness(), {("s", 1): 4, **FULL_DEPTH2})
    assert effect == {("bar_s", 1): 4, **FULL_DEPTH2}


def test_dec_at_depth_limit_drains_exactly_two():
    effect = halting_effect(dec_depth2_harness(), {("s", 2): 2})
    assert effect == {("bar_s", 2): 2}


def test_inc_from_zero_builds_the_ladder():
    effect = halting_effect(inc_harness(), {})
    assert effect == {
        ("bar_s", 1): 4, ("y", 1): 4, ("z", 1): 4,
        ("bar_s", 2): 2, ("y", 2): 2, ("z", 2): 2,
    }


def test_zero_test_gadget_zero_branch_swaps_the_pair():
    start = {("bar_y", 1): 4, ("bar_s", 1): 4, **FULL_DEPTH2}
    effect = halting_effect(zero_test_harness("zero"), start)
    assert effect == {("y", 1): 4, ("bar_s", 1): 4, **FULL_DEPTH2}


def test_zero_test_gadget_nonzero_branch_preserves_the_valuation():
    start = {("y", 1): 4, ("bar_s", 1): 4, **FULL_DEPTH2}
    effect = halting_effect(zero_test_harness("nonzero"), start)
    assert effect == start


# ---------------------------------------------------------------------------
# End-to-end agreement smoke checks (the full corpus sweep lives in the
# acceptance suite).


def test_halting_program_compiles_to_halting_net_program():
    prog = parse_counter("l1: inc x; l2: dec x; l3: halt;")
    verdict = explore_halting(compile_lipton(prog, n=1).rnp, max_value=5)
    assert isinstance(verdict, RnpHalts)


def test_aborting_program_compiles_to_stuck_net_program():
    prog = parse_counter("l1: dec x; l2: halt;")
    verdict = explore_halting(compile_lipton(prog, n=1).rnp, max_value=5)
    assert isinstance(verdict, RnpNo)
