"""Transducer acceptance, enumeration order, validation, and pruning, and
symbolic firing against the language it reads."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from genutil import brute_force_language, brute_force_successors, random_tdpn, random_transducer
from snl.petri import canonical
from snl.tdpn import fire_symbolic
from snl.transducer import (
    Transducer,
    TransducerError,
    accepts,
    enumerate_accepted,
    prune_transducer,
    validate_transducer,
)


def copy_transducer() -> Transducer:
    # accepts exactly the pairs (w, w)
    return Transducer(
        arity=2,
        alphabet=("0", "1"),
        states=("q0",),
        initial="q0",
        finals=frozenset({"q0"}),
        transitions=(("q0", ("0", "0"), "q0"), ("q0", ("1", "1"), "q0")),
    )


def test_accepts_copy_pairs():
    t = copy_transducer()
    assert accepts(t, ("0110", "0110"))
    assert not accepts(t, ("01", "10"))
    assert not accepts(t, ("01", "011"))  # length mismatch is rejection
    assert accepts(t, ("", ""))  # empty run ends in the (final) initial state


def test_arity_mismatch_raises():
    with pytest.raises(TransducerError):
        accepts(copy_transducer(), ("0",))


def test_enumeration_follows_declaration_order():
    t = copy_transducer()
    got = list(enumerate_accepted(t, 2))
    # depth-first over declared transitions: 0-branch fully before 1-branch
    assert got == [("00", "00"), ("01", "01"), ("10", "10"), ("11", "11")]


def test_enumeration_deduplicates():
    # two parallel transitions spelling the same tuple
    t = Transducer(
        arity=1,
        alphabet=("a",),
        states=("q0", "q1", "q2"),
        initial="q0",
        finals=frozenset({"q1", "q2"}),
        transitions=(("q0", ("a",), "q1"), ("q0", ("a",), "q2")),
    )
    assert list(enumerate_accepted(t, 1)) == [("a",)]


def test_validate_reports_unreachable_and_dead_states():
    t = Transducer(
        arity=1,
        alphabet=("a",),
        states=("q0", "q1", "q2", "q3"),
        initial="q0",
        finals=frozenset({"q1"}),
        transitions=(
            ("q0", ("a",), "q1"),
            ("q2", ("a",), "q1"),  # q2 unreachable
            ("q0", ("a",), "q3"),  # q3 dead
        ),
    )
    report = validate_transducer(t)
    assert report.ok
    assert report.unreachable == ("q2",)
    assert report.dead == ("q3",)


def test_validate_catches_structural_errors():
    t = Transducer(
        arity=2,
        alphabet=("a",),
        states=("q0",),
        initial="q9",
        finals=frozenset({"q0"}),
        transitions=(("q0", ("a",), "q0"),),
    )
    report = validate_transducer(t)
    assert not report.ok
    assert any("q9" in e for e in report.errors)
    bad_arity = Transducer(
        arity=2,
        alphabet=("a",),
        states=("q0",),
        initial="q0",
        finals=frozenset({"q0"}),
        transitions=(("q0", ("a",), "q0"),),
    )
    assert not validate_transducer(bad_arity).ok


def test_prune_drops_useless_states_and_keeps_language():
    rng = random.Random(7)
    for _ in range(25):
        t = random_transducer(rng, arity=2)
        pruned = prune_transducer(t)
        assert set(pruned.states) <= set(t.states)
        for length in (0, 1, 2):
            assert brute_force_language(t, length) == brute_force_language(pruned, length)
        report = validate_transducer(pruned)
        # pruning is idempotent: nothing useless remains
        assert not report.unreachable or pruned.states == (t.initial,)
        assert not report.dead or pruned.states == (t.initial,)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_brute_force(seed, arity):
    rng = random.Random(seed)
    t = random_transducer(rng, arity=arity)
    for length in (1, 2, 3):
        assert set(enumerate_accepted(t, length)) == brute_force_language(t, length)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=2))
@settings(max_examples=80, deadline=None)
def test_fire_symbolic_fires_the_marked_rows_in_language_order(seed, width):
    # the rows fire_symbolic reads filter the full language on the marked
    # pre words and keep its move, fork, join walk order
    rng = random.Random(seed)
    net = random_tdpn(rng, width, degenerate=True)
    marking = {}
    for w in ("".join(p) for p in product(net.alphabet, repeat=width)):
        count = rng.randint(0, 2)
        if count or rng.random() < 0.5:  # an unmarked word may be absent or held at 0
            marking[w] = count
    expected = brute_force_successors(net, marking)
    got = [(d, canonical(m)) for d, m in fire_symbolic(net, marking)]
    assert got == expected
    # the second call reads the table kept by the first
    assert [(d, canonical(m)) for d, m in fire_symbolic(net, marking)] == expected
