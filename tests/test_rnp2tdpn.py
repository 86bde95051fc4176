import functools
import random

import pytest

from genutil import random_rnp
from helpers import CORPUS
from snl.lipton import compile_lipton, guided_run
from snl.counter import parse_counter
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
    explore_halting,
    initial_config,
    parse_rnp,
    successors,
)
from snl.rnp2tdpn import (
    compile_rnp_to_tdpn,
    depth_range_checker,
    depth_successor_checker,
    expected_language_sizes,
    serialize_addr,
    translate_run,
)
from snl.tdpn import (
    TdpnCoverable,
    TdpnNotCoverable,
    coverable,
    parse_tdpn,
    replay,
    serialize_tdpn,
)
from snl.transducer import accepts, enumerate_accepted


# ---------------------------------------------------------------------------
# depth-suffix automata


def test_successor_checker_accepts_exact_increments():
    t = depth_successor_checker(1, 2, 2)
    assert accepts(t, ("01", "10", "01"))
    assert accepts(t, ("10", "11", "10"))
    assert not accepts(t, ("11", "00", "11"))  # wrap-around is not +1
    assert not accepts(t, ("00", "01", "00"))  # below the interval
    assert not accepts(t, ("01", "11", "01"))  # +2
    assert not accepts(t, ("01", "10", "10"))  # third coordinate differs


def test_successor_checker_rejects_overflow():
    t = depth_successor_checker(3, 3, 2)
    assert list(enumerate_accepted(t, 2)) == []


def test_successor_checker_single_bit():
    t = depth_successor_checker(0, 0, 1)
    assert list(enumerate_accepted(t, 1)) == [("0", "1", "0")]


def test_successor_checker_state_bound():
    for w in (1, 2, 3, 4):
        for lo in range(2**w):
            for hi in range(lo, 2**w):
                t = depth_successor_checker(lo, hi, w)
                assert len(t.states) <= 8 * (w + 1)


def test_range_checker_language():
    t = depth_range_checker(2, 1, 2, 2)
    assert list(enumerate_accepted(t, 2)) == [("01", "01"), ("10", "10")]
    t3 = depth_range_checker(3, 0, 3, 2)
    assert len(list(enumerate_accepted(t3, 2))) == 4
    assert all(a == b == c for a, b, c in enumerate_accepted(t3, 2))


def test_range_checker_singleton_is_a_path():
    for w in (1, 2, 3):
        for d in range(2**w):
            t = depth_range_checker(2, d, d, w)
            assert len(t.states) == w + 1
            assert list(enumerate_accepted(t, w)) == [(format(d, f"0{w}b"),) * 2]


def test_range_checker_state_bound():
    for w in (1, 2, 3, 4):
        for lo in range(2**w):
            for hi in range(lo, 2**w):
                t = depth_range_checker(2, lo, hi, w)
                assert len(t.states) <= 4 * (w + 1)


# ---------------------------------------------------------------------------
# compilation oracle


@pytest.fixture
def inc_call_dec():
    # main: inc x; call p; dec x; halt      p: return at either depth
    return Rnp(
        max_depth=2,
        main=(Inc("l1", "x"), Call("l2", "p"), Dec("l3", "x"), Halt("l4")),
        procs=(Proc("p", (Return("u1"),), (Return("v1"),)),),
    )


def test_compiled_word_layout(inc_call_dec):
    comp = compile_rnp_to_tdpn(inc_call_dec)
    book = comp.book
    assert book.bases == (
        "label:l1", "label:l2", "label:l3", "label:l4",
        "start:p", "return:p", "aux:l2", "var:x", "halt",
    )
    assert book.prefix_width == 4 and book.suffix_width == 2
    assert comp.tdpn.width == 6
    assert comp.tdpn.w_init == book.word("label:l1", 0) == "000000"
    assert comp.tdpn.w_final == book.word("halt", 0) == "100000"
    assert book.decode("010001") == ("start:p", 1)
    with pytest.raises(ValueError):
        book.decode("111111")  # index 15 has no base place
    with pytest.raises(ValueError):
        book.decode("000011")  # depth 3 exceeds the bound


def test_compiled_languages_exactly(inc_call_dec):
    comp = compile_rnp_to_tdpn(inc_call_dec)
    net = comp.tdpn
    w = comp.book.word
    assert set(enumerate_accepted(net.t_move, 6)) == {
        (w("start:p", 1), w("return:p", 1)),
        (w("start:p", 2), w("return:p", 2)),
        (w("label:l4", 0), w("halt", 0)),
    }
    assert set(enumerate_accepted(net.t_fork, 6)) == {
        (w("label:l1", 0), w("label:l2", 0), w("var:x", 0)),
        (w("label:l2", 0), w("start:p", 1), w("aux:l2", 0)),
    }
    assert set(enumerate_accepted(net.t_join, 6)) == {
        (w("label:l3", 0), w("var:x", 0), w("label:l4", 0)),
        (w("aux:l2", 0), w("return:p", 1), w("label:l3", 0)),
    }
    sizes = expected_language_sizes(inc_call_dec)
    assert sizes == {"move": 3, "fork": 2, "join": 2}


def test_halting_program_covers(inc_call_dec):
    assert isinstance(explore_halting(inc_call_dec), RnpHalts)
    net = compile_rnp_to_tdpn(inc_call_dec).tdpn
    assert isinstance(coverable(net, mode="backward"), TdpnCoverable)
    assert isinstance(coverable(net, mode="symbolic"), TdpnCoverable)


def test_stuck_program_does_not_cover():
    rnp = Rnp(
        max_depth=2,
        main=(Call("l1", "p"), Dec("l2", "x"), Halt("l3")),
        procs=(Proc("p", (Return("u1"),), (Return("v1"),)),),
    )
    assert isinstance(explore_halting(rnp), RnpNo)
    net = compile_rnp_to_tdpn(rnp).tdpn
    back = coverable(net, mode="backward")
    forw = coverable(net, mode="symbolic")
    assert isinstance(back, TdpnNotCoverable) and back.complete
    assert isinstance(forw, TdpnNotCoverable) and forw.complete


def test_recursion_to_depth_three():
    rnp = Rnp(
        max_depth=3,
        main=(Call("l1", "p"), Halt("l2")),
        procs=(Proc("p", (Call("u1", "p"), Return("u2")), (Return("v1"),)),),
    )
    assert isinstance(explore_halting(rnp), RnpHalts)
    net = compile_rnp_to_tdpn(rnp).tdpn
    verdict = coverable(net, mode="symbolic")
    assert isinstance(verdict, TdpnCoverable)
    assert isinstance(coverable(net, mode="backward"), TdpnCoverable)


def test_depth_one_program_skips_lt_bodies():
    rnp = Rnp(
        max_depth=1,
        main=(Call("l1", "p"), Halt("l2")),
        procs=(Proc("p", (Goto("u1", "u1"),), (Return("v1"),)),),
    )
    sizes = expected_language_sizes(rnp)
    # the non-terminating lt body runs at no depth at all when k = 1
    assert sizes == {"move": 2, "fork": 1, "join": 1}
    comp = compile_rnp_to_tdpn(rnp)
    assert len(list(enumerate_accepted(comp.tdpn.t_move, comp.tdpn.width))) == 2
    assert isinstance(explore_halting(rnp), RnpHalts)
    assert isinstance(coverable(comp.tdpn, mode="symbolic"), TdpnCoverable)


def test_branching_gotos_and_shared_targets():
    rnp = Rnp(
        max_depth=1,
        main=(
            Inc("l1", "x"),
            GotoOr("l2", "l4", "l3"),
            Goto("l3", "l2"),
            Dec("l4", "x"),
            Halt("l5"),
        ),
        procs=(),
    )
    sizes = expected_language_sizes(rnp)
    assert sizes == {"move": 4, "fork": 1, "join": 1}
    comp = compile_rnp_to_tdpn(rnp)
    assert len(list(enumerate_accepted(comp.tdpn.t_move, comp.tdpn.width))) == 4
    self_loop = Rnp(
        max_depth=1,
        main=(GotoOr("a1", "a2", "a2"), Halt("a2")),
        procs=(),
    )
    assert expected_language_sizes(self_loop)["move"] == 2  # branch deduped + halt


def test_language_sizes_match_on_lipton_output(tmp_path):
    source = parse_counter(
        "l1: inc x; l2: inc x; l3: if x = 0 then goto l5 else goto l4; "
        "l4: dec x; l5: halt;"
    )
    rnp = compile_lipton(source, n=1).rnp
    comp = compile_rnp_to_tdpn(rnp)
    sizes = expected_language_sizes(rnp)
    width = comp.tdpn.width
    assert len(list(enumerate_accepted(comp.tdpn.t_move, width))) == sizes["move"]
    assert len(list(enumerate_accepted(comp.tdpn.t_fork, width))) == sizes["fork"]
    assert len(list(enumerate_accepted(comp.tdpn.t_join, width))) == sizes["join"]


# ---------------------------------------------------------------------------
# succinctness across n: the compiled sizes grow by the laws pinned here


@functools.cache
def sizes_across_n(name, depth_mode):
    """(rnp size, tdpn width, tdpn size, move, fork and join language sizes)
    of a corpus program compiled at n = 1..6, each language size checked
    against expected_language_sizes."""
    program = parse_counter((CORPUS / f"{name}.cp").read_text())
    rows = []
    for n in range(1, 7):
        rnp = compile_lipton(program, n, depth_mode).rnp
        net = compile_rnp_to_tdpn(rnp).tdpn
        langs = {
            kind: len(list(enumerate_accepted(t, net.width))) for kind, t, _ in net.transducers()
        }
        assert langs == expected_language_sizes(rnp)
        rows.append((rnp.size(), net.width, net.size(), *langs.values()))
    return rows


def differences(values):
    return [b - a for a, b in zip(values, values[1:])]


# n = 1 and n = 6 in triple mode
TRIPLE_ENDS = {
    "count4": ((146, 10, 3727, 97, 123, 110), (151, 15, 4372, 2453, 3037, 2838)),
    "two_vars": ((147, 10, 3658, 97, 124, 110), (152, 15, 4303, 2453, 3038, 2838)),
}


@pytest.mark.parametrize("name", sorted(TRIPLE_ENDS))
def test_triple_mode_sizes_across_n(name):
    rows = sizes_across_n(name, "triple")
    assert (rows[0], rows[-1]) == TRIPLE_ENDS[name]
    rnp_size, width, tdpn_size, *langs = zip(*rows)
    # the net program and the net grow linearly in n
    assert differences(rnp_size) == [1] * 5
    assert differences(width) == [1] * 5
    assert differences(tdpn_size) == [129] * 5
    # each language's growth doubles at every step (move: 97, 173, 325, ..., 2453)
    for lang in langs:
        steps = differences(lang)
        assert steps == [steps[0] * 2**k for k in range(5)]


# n = 1..6 in double mode; the tdpn size is not monotone in n
DOUBLE = {
    "count4": [
        (145, 10, 3358, 59, 76, 66), (146, 10, 3727, 97, 123, 110),
        (146, 11, 3467, 135, 170, 154), (147, 11, 3856, 173, 217, 198),
        (147, 11, 3876, 211, 264, 242), (147, 11, 3870, 249, 311, 286),
    ],
    "two_vars": [
        (146, 10, 3289, 59, 77, 66), (147, 10, 3658, 97, 124, 110),
        (147, 11, 3398, 135, 171, 154), (148, 11, 3787, 173, 218, 198),
        (148, 11, 3807, 211, 265, 242), (148, 11, 3801, 249, 312, 286),
    ],
}


@pytest.mark.parametrize("name", sorted(DOUBLE))
def test_double_mode_sizes_across_n(name):
    rows = sizes_across_n(name, "double")
    assert rows == DOUBLE[name]
    # the languages grow by a constant per n
    for lang in list(zip(*rows))[3:]:
        assert len(set(differences(lang))) == 1
    # double mode at n = 2 compiles to the same sizes as triple mode at n = 1
    assert rows[1] == sizes_across_n(name, "triple")[0]


def test_round_trip_of_compiled_net(inc_call_dec):
    net = compile_rnp_to_tdpn(inc_call_dec).tdpn
    assert parse_tdpn(serialize_tdpn(net)) == net


def test_addr_sidecar(inc_call_dec):
    comp = compile_rnp_to_tdpn(inc_call_dec)
    text = serialize_addr(comp.book)
    lines = text.strip().splitlines()
    assert lines[0] == "width 6; prefix 4; suffix 2; maxdepth 2;"
    assert len(lines) == 1 + len(comp.book.bases) * 3
    assert f"{comp.tdpn.w_final} halt 0" in lines
    for line in lines[1:]:
        word, base, depth = line.split()
        assert comp.book.decode(word) == (base, int(depth))


# ---------------------------------------------------------------------------
# A halting run carried down the chain: the pipeline replays these in place
# of the two searches, which must keep finding the same witnesses


HALTING = ("branch_nonzero", "branch_zero", "count4", "halt", "two_vars", "updown_loop")


@pytest.mark.parametrize("name", HALTING)
def test_carried_run_is_the_search_witness(name):
    compiled = compile_lipton(parse_counter((CORPUS / f"{name}.cp").read_text()), 1)
    run = list(guided_run(compiled))
    assert tuple(pick for _, pick in run if pick is not None) == explore_halting(compiled.rnp).witness
    compilation = compile_rnp_to_tdpn(compiled.rnp)
    steps = tuple(translate_run(compilation, compiled.rnp, run))
    assert steps == coverable(compilation.tdpn, mode="symbolic").witness
    assert compilation.tdpn.w_final in replay(compilation.tdpn, steps)


def scheduled_run(program, choices):
    """Each configuration of the run that takes `choices` at the goto-ors,
    with the branch taken there, as `guided_run` gives it."""
    config, stream = initial_config(program), iter(choices)
    while succ := successors(program, config):
        pick = next(stream) if len(succ) == 2 else None
        yield config, pick
        config = succ[pick or 0][1]
    yield config, None


# a body whose run must jump back to its first command, the start place
LOOP_TO_ENTRY = Rnp(2, (Call("m0", "p"), Halt("m1")), (Proc(
    "p", (Inc("u0", "x"), GotoOr("u1", "u0", "u2"), Dec("u2", "x"), Dec("u3", "x"), Return("u4")),
    (Return("v0"),)),))


def test_translated_search_witnesses_cover_on_random_programs():
    # these reach what the corpus never does: goto-ors with equal targets,
    # and goto-ors into a procedure's entry, whose word is the start place
    halting = 0
    for program in [random_rnp(random.Random(seed)) for seed in range(300)] + [LOOP_TO_ENTRY]:
        verdict = explore_halting(program, max_configs=10_000)
        if not isinstance(verdict, RnpHalts):
            continue
        compilation = compile_rnp_to_tdpn(program)
        steps = translate_run(compilation, program, scheduled_run(program, verdict.witness))
        assert compilation.tdpn.w_final in replay(compilation.tdpn, steps), program
        halting += 1
    assert halting == 96
