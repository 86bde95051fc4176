"""Petri net coverability: backward basis vs forward search."""

import random
from collections import deque

import pytest

from genutil import random_pnet, random_rnp, tiny_rnps
from snl import petri
from snl.petri import (
    Coverable,
    ForwardCoverable,
    NotCoverable,
    NotCoverableWithinCaps,
    ForwardUnknown,
    PetriNet,
    PetriParseError,
    PetriValidationError,
    canonical,
    cover_backward,
    cover_forward_bfs,
    covers,
    fire,
    from_canonical,
    initial_marking,
    parse_pnet,
    serialize_pnet,
    target_marking,
    validate_petri,
)
from snl.rnp2tdpn import compile_rnp_to_tdpn
from snl.tdpn import expand


def chain() -> PetriNet:
    return PetriNet(
        places=("p0", "p1", "p2"),
        transitions=(
            ("t0", frozenset({"p0"}), frozenset({"p1"})),
            ("t1", frozenset({"p1"}), frozenset({"p2"})),
        ),
        initial="p0",
        final="p2",
    )


def spawner_join() -> PetriNet:
    # t0 duplicates into p1 while keeping p0; t1 needs both at once
    return PetriNet(
        places=("p0", "p1", "pf"),
        transitions=(
            ("t0", frozenset({"p0"}), frozenset({"p0", "p1"})),
            ("t1", frozenset({"p0", "p1"}), frozenset({"pf"})),
        ),
        initial="p0",
        final="pf",
    )


def unreachable_goal() -> PetriNet:
    return PetriNet(
        places=("p0", "p1", "pf"),
        transitions=(("t0", frozenset({"p0"}), frozenset({"p1"})),),
        initial="p0",
        final="pf",
    )


def test_fire_semantics():
    net = chain()
    m = fire(net, initial_marking(net), "t0")
    assert m == {"p1": 1}
    assert fire(net, m, "t0") is None  # p0 empty now
    assert fire(net, m, "t1") == {"p2": 1}


def test_backward_finds_chain_witness():
    verdict = cover_backward(chain())
    assert isinstance(verdict, Coverable)
    assert verdict.witness == ("t0", "t1")


def test_backward_join_needs_two_tokens():
    verdict = cover_backward(spawner_join())
    assert isinstance(verdict, Coverable)
    # replay by hand: t0 creates the second token, t1 joins
    net = spawner_join()
    m = initial_marking(net)
    for tid in verdict.witness:
        m = fire(net, m, tid)
        assert m is not None
    assert covers(m, {"pf": 1})


def test_backward_witness_is_checked_by_replay(monkeypatch):
    # the replay check must raise, not assert: python -O strips asserts
    monkeypatch.setattr(petri, "_fire", lambda marking, pre, post: None)
    with pytest.raises(RuntimeError, match="disabled transition"):
        cover_backward(chain())


def test_backward_not_coverable():
    verdict = cover_backward(unreachable_goal())
    assert isinstance(verdict, NotCoverable)


def test_forward_agrees_on_hand_nets():
    assert isinstance(cover_forward_bfs(chain()), ForwardCoverable)
    assert isinstance(cover_forward_bfs(spawner_join()), ForwardCoverable)
    verdict = cover_forward_bfs(unreachable_goal())
    assert isinstance(verdict, NotCoverableWithinCaps)
    assert verdict.complete


def test_forward_witness_replays():
    net = spawner_join()
    verdict = cover_forward_bfs(net)
    m = initial_marking(net)
    for tid in verdict.witness:
        m = fire(net, m, tid)
        assert m is not None
    assert covers(m, {"pf": 1})


def test_forward_token_cap_is_unknown():
    # pure token factory: every marking expands past any cap eventually
    net = PetriNet(
        places=("p0", "pf"),
        transitions=(("t0", frozenset({"p0"}), frozenset({"p0", "pf"})),),
        initial="p0",
        final="pf",
    )
    verdict = cover_forward_bfs(net, target={"pf": 3}, max_tokens=2)
    assert isinstance(verdict, ForwardUnknown)
    assert verdict.reason == "max_tokens"
    # with room to grow, the target is found
    assert isinstance(cover_forward_bfs(net, target={"pf": 3}, max_tokens=8), ForwardCoverable)


def test_forward_budget_aborts_to_unknown():
    net = spawner_join()
    verdict = cover_forward_bfs(net, target={"p1": 50}, max_tokens=1000, max_markings=10)
    assert isinstance(verdict, ForwardUnknown)


def test_self_loop_place():
    net = PetriNet(
        places=("p0", "pf"),
        transitions=(("t0", frozenset({"p0"}), frozenset({"p0", "pf"})),),
        initial="p0",
        final="pf",
    )
    assert isinstance(cover_backward(net), Coverable)
    m = fire(net, {"p0": 1}, "t0")
    assert m == {"p0": 1, "pf": 1}


def test_canonical_drops_zero_entries():
    assert canonical({"a": 0, "b": 2}) == (("b", 2),)


def test_validation_and_parse_errors():
    with pytest.raises(PetriValidationError):
        validate_petri(
            PetriNet(("p0",), (("t0", frozenset({"zz"}), frozenset()),), "p0", "p0")
        )
    with pytest.raises(PetriParseError):
        parse_pnet("place p0; weird p1; initial p0; final p0;")
    with pytest.raises(PetriParseError):
        parse_pnet("place p0;")  # missing initial/final


@pytest.mark.parametrize("role", ["initial", "final"])
def test_parse_rejects_a_second_role_place(role):
    # the second line used to override the first
    with pytest.raises(PetriParseError, match=f"second {role} place"):
        parse_pnet(f"place p0; place p1; initial p0; final p0; {role} p1;")


def test_pnet_round_trip():
    net = spawner_join()
    text = serialize_pnet(net)
    assert parse_pnet(text) == net
    assert serialize_pnet(parse_pnet(text)) == text


def test_backward_and_forward_agree_on_random_nets():
    rng = random.Random(2024)
    checked = 0
    for _ in range(30):
        net = random_pnet(rng)
        backward = cover_backward(net)
        forward = cover_forward_bfs(net, max_tokens=16, max_markings=200_000)
        if isinstance(forward, ForwardUnknown):
            continue  # budget verdicts carry no information
        assert isinstance(backward, Coverable) == isinstance(forward, ForwardCoverable)
        if isinstance(forward, NotCoverableWithinCaps) and forward.complete:
            assert isinstance(backward, NotCoverable)
        checked += 1
    assert checked >= 25  # the caps are generous enough for almost all draws


def reference_cover_backward(net, target=None):
    """A plain reference for the backward loop, with no support masks:
    every domination test in full, the basis rebuilt on each insertion, and
    the witness replayed by transition id."""

    def dominates(big, small):
        return all(big.get(p, 0) >= c for p, c in small)

    validate_petri(net)
    if target is None:
        target = target_marking(net)
    target_c = canonical(target)
    basis = {target_c: from_canonical(target_c)}
    parents = {target_c: None}
    frontier = deque([target_c])
    while frontier:
        m_c = frontier.popleft()
        if m_c not in basis:
            continue
        m = basis[m_c]
        for tid, pre, post in net.transitions:
            req = {}
            for p in set(m) | pre:
                need = max(
                    (1 if p in pre else 0),
                    m.get(p, 0) - (1 if p in post else 0) + (1 if p in pre else 0),
                )
                if need > 0:
                    req[p] = need
            req_c = canonical(req)
            if any(dominates(req, b_c) for b_c in basis):
                continue
            basis = {b_c: b for b_c, b in basis.items() if not dominates(b, req_c)}
            basis[req_c] = req
            if req_c not in parents:
                parents[req_c] = (tid, m_c)
            frontier.append(req_c)
    start = initial_marking(net)
    hits = sorted(b_c for b_c in basis if dominates(start, b_c))
    if not hits:
        return NotCoverable(basis_size=len(basis))
    witness = []
    cursor = hits[0]
    marking = start
    while parents[cursor] is not None:
        tid, cursor = parents[cursor]
        marking = fire(net, marking, tid)
        witness.append(tid)
    assert covers(marking, target)
    return Coverable(witness=tuple(witness), basis_size=len(basis))


def test_backward_matches_the_reference_loop_on_random_nets():
    rng = random.Random(20261019)
    kinds = set()
    for trial in range(240):
        net = random_pnet(rng, max_places=6, max_trans=9)
        # every fourth net has 8 to 12 places
        while trial % 4 == 0 and len(net.places) < 8:
            net = random_pnet(rng, max_places=12, max_trans=12)
        got = cover_backward(net)
        assert got == reference_cover_backward(net), serialize_pnet(net)
        kinds.add((type(got), got.basis_size > 3))
        # a two-token target that the initial marking never covers alone
        target = {net.final: 2}
        assert cover_backward(net, target) == reference_cover_backward(net, target)
    assert {kind for kind, _ in kinds} == {Coverable, NotCoverable}
    assert (Coverable, True) in kinds and (NotCoverable, True) in kinds


def test_backward_matches_the_reference_loop_on_expanded_net_programs():
    rng = random.Random(20261019)
    programs = [program for _, program in tiny_rnps()]
    programs += [random_rnp(rng) for _ in range(12)]
    kinds = set()
    for program in programs:
        net = expand(compile_rnp_to_tdpn(program).tdpn)
        got = cover_backward(net)
        assert got == reference_cover_backward(net), program
        kinds.add(type(got))
    assert kinds == {Coverable, NotCoverable}
