"""Transducer acceptance, enumeration order and validation, and symbolic
firing against the language it reads."""

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


def test_validate_catches_structural_errors():
    with pytest.raises(TransducerError, match="initial state 'q9' not declared"):
        Transducer(
            arity=2,
            alphabet=("a",),
            states=("q0",),
            initial="q9",
            finals=frozenset({"q0"}),
            transitions=(("q0", ("a",), "q0"),),
        )
    with pytest.raises(TransducerError, match="has 1 letters, arity is 2"):
        Transducer(
            arity=2,
            alphabet=("a",),
            states=("q0",),
            initial="q0",
            finals=frozenset({"q0"}),
            transitions=(("q0", ("a",), "q0"),),
        )


def test_undeclared_transition_state_is_refused_when_built():
    # once built, its language walk would raise a bare KeyError from by_source
    with pytest.raises(TransducerError, match="transition 'q9'->'q0' uses undeclared state"):
        Transducer(1, ("a",), ("q0",), "q0", frozenset({"q0"}), (("q9", ("a",), "q0"),))


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
