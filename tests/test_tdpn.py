import random
import re

import pytest

from snl.petri import canonical, fire
from snl.tdpn import (
    PlaceLimitExceeded,
    Tdpn,
    TdpnCoverable,
    TdpnNotCoverable,
    TdpnParseError,
    TdpnUnknown,
    TdpnValidationError,
    coverable,
    expand,
    fire_symbolic,
    parse_tdpn,
    serialize_tdpn,
    validate_tdpn,
)

from genutil import random_tdpn, transducer_from_tuples


def make_tdpn(width, moves, forks, joins, init, final, alphabet=("0", "1")):
    return Tdpn(
        width,
        alphabet,
        init,
        final,
        transducer_from_tuples(2, alphabet, moves),
        transducer_from_tuples(3, alphabet, forks),
        transducer_from_tuples(3, alphabet, joins),
    )


@pytest.fixture
def chain1():
    # one-letter words: 0 -> fork to (1,1) -> join back to 0 is never needed;
    # final reached by a join of two 1 tokens.
    return make_tdpn(
        1,
        moves=[("0", "1")],
        forks=[],
        joins=[("1", "1", "0")],
        init="0",
        final="0",
        alphabet=("0", "1"),
    )


def test_validate_rejects_bad_words():
    t2 = transducer_from_tuples(2, ("0", "1"), [])
    t3 = transducer_from_tuples(3, ("0", "1"), [])
    with pytest.raises(TdpnValidationError):
        validate_tdpn(Tdpn(2, ("0", "1"), "0", "11", t2, t3, t3))
    with pytest.raises(TdpnValidationError):
        validate_tdpn(Tdpn(2, ("0", "1"), "02", "11", t2, t3, t3))
    with pytest.raises(TdpnValidationError):
        validate_tdpn(Tdpn(2, ("0", "1"), "00", "11", t3, t3, t3))


def test_expand_width_one():
    net = make_tdpn(
        1,
        moves=[("0", "1")],
        forks=[("0", "1", "0")],
        joins=[("0", "1", "1")],
        init="0",
        final="1",
    )
    expanded = expand(net)
    assert expanded.places == ("0", "1")
    ids = [t[0] for t in expanded.transitions]
    assert ids == ["move_0_1", "fork_0_1_0", "join_0_1_1"]
    by_id = {t[0]: t for t in expanded.transitions}
    assert by_id["fork_0_1_0"][1] == frozenset({"0"})
    assert by_id["fork_0_1_0"][2] == frozenset({"1", "0"})
    assert by_id["join_0_1_1"][1] == frozenset({"0", "1"})
    assert expanded.initial == "0" and expanded.final == "1"


def test_expand_respects_place_limit():
    net = make_tdpn(3, moves=[("000", "111")], forks=[], joins=[], init="000", final="111")
    with pytest.raises(PlaceLimitExceeded):
        expand(net, place_limit=7)
    assert len(expand(net, place_limit=8).places) == 8


def test_symbolic_join_with_equal_pre_needs_two_tokens():
    net = make_tdpn(1, moves=[], forks=[], joins=[("0", "0", "1")], init="0", final="1")
    assert fire_symbolic(net, {"0": 1}) == []
    succ = fire_symbolic(net, {"0": 2})
    assert succ == [(("join", ("0", "0", "1")), {"1": 1})]
    # the expanded net disagrees here: set-valued pre sees a single token
    expanded = expand(net)
    m = fire(expanded, {"0": 1}, expanded.transitions[0][0])
    assert m == {"1": 1}


def test_symbolic_fork_with_equal_post_adds_two_tokens():
    net = make_tdpn(1, moves=[], forks=[("0", "1", "1")], joins=[], init="0", final="1")
    succ = fire_symbolic(net, {"0": 1})
    assert succ == [(("fork", ("0", "1", "1")), {"1": 2})]
    expanded = expand(net)
    m = fire(expanded, {"0": 1}, expanded.transitions[0][0])
    assert m == {"1": 1}


def test_symbolic_only_enumerates_marked_pre_words():
    # the move transducer accepts pairs from every place, but only the
    # marked source should be explored
    moves = [("00", "01"), ("01", "10"), ("10", "11")]
    net = make_tdpn(2, moves=moves, forks=[], joins=[], init="00", final="11")
    succ = fire_symbolic(net, {"01": 1})
    assert succ == [(("move", ("01", "10")), {"10": 1})]


def test_cover_backward_and_symbolic_agree_on_fork_join(chain1):
    # needs two tokens on 1: fork is absent, so double the move
    back = coverable(chain1, mode="backward")
    forw = coverable(chain1, mode="symbolic")
    # init token moves 0->1, but a second token never exists: join can
    # never fire, yet the final word 0 is already the initial word
    assert isinstance(back, TdpnCoverable) and back.witness == ()
    assert isinstance(forw, TdpnCoverable) and forw.witness == ()


def test_cover_needs_fork_to_feed_join():
    # the join's two pre tokens exist only because the fork duplicates
    net2 = make_tdpn(
        2,
        moves=[("00", "01")],
        forks=[("01", "10", "10")],
        joins=[("10", "10", "11")],
        init="00",
        final="11",
    )
    forw = coverable(net2, mode="symbolic")
    assert isinstance(forw, TdpnCoverable)
    assert forw.witness == (
        ("move", ("00", "01")),
        ("fork", ("01", "10", "10")),
        ("join", ("10", "10", "11")),
    )
    # backward disagrees by design here: the degenerate fork/join collapse
    # in the expansion, which still happens to cover
    back = coverable(net2, mode="backward")
    assert isinstance(back, TdpnCoverable)


def test_symbolic_witness_replays():
    net = make_tdpn(
        2,
        moves=[("00", "01"), ("01", "11")],
        forks=[],
        joins=[],
        init="00",
        final="11",
    )
    verdict = coverable(net, mode="symbolic")
    assert isinstance(verdict, TdpnCoverable)
    marking = {net.w_init: 1}
    for desc in verdict.witness:
        successors = dict(
            (d, m) for d, m in fire_symbolic(net, marking)
        )
        assert desc in successors
        marking = successors[desc]
    assert marking.get(net.w_final, 0) >= 1


def test_not_coverable_complete():
    net = make_tdpn(1, moves=[("0", "0")], forks=[], joins=[], init="0", final="1")
    back = coverable(net, mode="backward")
    forw = coverable(net, mode="symbolic")
    assert isinstance(back, TdpnNotCoverable) and back.complete
    assert isinstance(forw, TdpnNotCoverable) and forw.complete


def test_symbolic_token_cap_is_unknown():
    # unbounded forking grows token counts past any cap; the target word
    # never appears, so the capped search must not certify "no"
    net = make_tdpn(
        2,
        moves=[],
        forks=[("00", "00", "01")],
        joins=[],
        init="00",
        final="11",
    )
    verdict = coverable(net, mode="symbolic", max_tokens=6)
    assert isinstance(verdict, TdpnUnknown)
    assert verdict.reason == "max_tokens"


def test_symbolic_budget_exhaustion_is_unknown():
    net = make_tdpn(
        2,
        moves=[],
        forks=[("00", "00", "01")],
        joins=[],
        init="00",
        final="11",
    )
    verdict = coverable(net, mode="symbolic", max_tokens=64, max_markings=3)
    assert isinstance(verdict, TdpnUnknown)
    assert verdict.reason == "max_markings"


def test_backward_place_limit_is_unknown():
    net = make_tdpn(3, moves=[("000", "111")], forks=[], joins=[], init="000", final="111")
    verdict = coverable(net, mode="backward", place_limit=4)
    assert isinstance(verdict, TdpnUnknown)
    assert verdict.reason == "place_limit"


def test_round_trip():
    net = make_tdpn(
        2,
        moves=[("00", "01"), ("01", "10")],
        forks=[("01", "10", "11")],
        joins=[("10", "11", "00")],
        init="00",
        final="10",
    )
    text = serialize_tdpn(net)
    again = parse_tdpn(text)
    assert again == net
    assert serialize_tdpn(again) == text


def tiny_text():
    return serialize_tdpn(
        make_tdpn(1, moves=[("0", "1")], forks=[], joins=[], init="0", final="1")
    )


def test_parse_errors():
    with pytest.raises(TdpnParseError):
        parse_tdpn("width 1; alphabet 0 1; init 0; final 1;")
    good = tiny_text()
    with pytest.raises(TdpnParseError):
        parse_tdpn(good.replace("initial r;", "initial;", 1))
    with pytest.raises(TdpnParseError):
        parse_tdpn(good.replace("on (0,1)", "on (0,1,1)", 1))


def test_parse_rejects_a_second_transducer_block():
    # the second block used to replace the first
    second = "transducer move arity 2 {\n  states r;\n  initial r;\n  finals;\n}\n"
    with pytest.raises(TdpnParseError, match="second transducer block 'move'"):
        parse_tdpn(tiny_text() + second)


def test_parse_rejects_a_second_width():
    # the first of two width lines used to win
    with pytest.raises(TdpnParseError, match="second width declaration"):
        parse_tdpn(tiny_text().replace("width 1;", "width 1;\nwidth 2;"))


@pytest.mark.parametrize("line", ["states r q1 q9;", "initial q1;", "finals r;"])
def test_parse_rejects_a_second_block_keyword(line):
    # a second states, initial or finals line used to replace the first
    key = line.split()[0]
    text = tiny_text().replace(f"  {key} ", f"  {line}\n  {key} ", 1)
    with pytest.raises(TdpnParseError, match=f"second {key} line in move block"):
        parse_tdpn(text)


@pytest.mark.parametrize("line", ["statesX r q1;", "initialX r;", "finalsX q1;"])
def test_parse_rejects_a_block_keyword_with_a_suffix(line):
    # a statement used to be told by its prefix, so statesX read as states
    key = line.split()[0][:-1]
    text = re.sub(rf"  {key} [^;]*;", f"  {line}", tiny_text(), count=1)
    with pytest.raises(TdpnParseError, match=f"unrecognized line in move block: '{line[:-1]}'"):
        parse_tdpn(text)


def test_parse_rejects_unrecognized_text():
    # text outside the blocks used to be ignored
    with pytest.raises(TdpnParseError, match="unrecognized statement 'this is junk'"):
        parse_tdpn(tiny_text().replace("init 0;", "init 0;\nthis is junk;"))


def test_parse_ignores_comments():
    good = tiny_text()
    commented = "# tiny example\n" + good.replace("init 0;", "init 0;  # token starts here")
    assert parse_tdpn(commented) == parse_tdpn(good)


def test_symbolic_successors_match_expansion_on_nondegenerate_nets():
    rng = random.Random(20260819)
    for _ in range(40):
        width = rng.randint(1, 2)
        net = random_tdpn(rng, width)
        expanded = expand(net)
        marking = {w: rng.randint(0, 2) for w in rng.sample(expanded.places, k=min(3, len(expanded.places)))}
        marking = {w: c for w, c in marking.items() if c}
        symbolic = sorted(
            canonical(m) for _, m in fire_symbolic(net, marking)
        )
        explicit = []
        for t in expanded.transitions:
            m = fire(expanded, marking, t[0])
            if m is not None:
                explicit.append(canonical(m))
        assert symbolic == sorted(explicit)


def test_backward_and_symbolic_verdicts_agree_on_random_nets():
    rng = random.Random(999)
    checked = 0
    for _ in range(25):
        net = random_tdpn(rng, rng.randint(1, 2))
        back = coverable(net, mode="backward")
        forw = coverable(net, mode="symbolic", max_tokens=16, max_markings=200_000)
        if isinstance(forw, TdpnUnknown):
            continue
        assert isinstance(back, TdpnCoverable) == isinstance(forw, TdpnCoverable)
        checked += 1
    assert checked >= 20
