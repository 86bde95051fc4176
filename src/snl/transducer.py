"""Length-preserving word transducers over synchronous letter tuples.

A transducer of arity n reads n words of equal length in lockstep: each
transition consumes one letter per coordinate.  The accepted language is a
set of n-tuples of words.  There are no epsilon moves, so every accepted
tuple has exactly the length of the run that accepted it.  A transducer
checks its structure where it is built: see `validate_transducer`.

Every consumer reads one language per (transducer, length): `language`
walks the transitions depth-first in declaration order once and keeps the
result in `Transducer.languages`.  It is a plain dict from each accepted
tuple to its first accepting path (the declaration indices of its
transitions), in walk order, so its keys are the rows and walk order is
path order.  The fixed order makes every artifact built from a transducer
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator


class TransducerError(ValueError):
    pass


Transition = tuple[str, tuple[str, ...], str]  # (source, letters, target)
Edge = tuple[int, tuple[str, ...], str]  # (declaration index, letters, target)
Language = dict[tuple[str, ...], tuple[int, ...]]  # words -> first accepting path, in walk order


@dataclass(frozen=True)
class Transducer:
    """A transducer checked where it is built: see validate_transducer."""

    arity: int
    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    initial: str
    finals: frozenset[str]
    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        validate_transducer(self)

    def size(self) -> int:
        return self.arity * len(self.transitions)

    @cached_property
    def by_source(self) -> dict[str, tuple[Edge, ...]]:
        """Outgoing edges of each state with their declaration indices, in
        declaration order."""
        table: dict[str, list[Edge]] = {q: [] for q in self.states}
        for j, (src, letters, dst) in enumerate(self.transitions):
            table[src].append((j, letters, dst))
        return {q: tuple(edges) for q, edges in table.items()}

    @cached_property
    def languages(self) -> dict[int, Language]:
        """The accepted language per length; filled by `language`."""
        return {}


def validate_transducer(t: Transducer) -> None:
    """Raise TransducerError, naming each problem, unless the states are
    distinct, the initial, final and transition states declared, and every
    transition reads one letter of the alphabet per coordinate."""
    errors = []
    state_set = set(t.states)
    if len(state_set) != len(t.states):
        errors.append("duplicate states")
    if t.initial not in state_set:
        errors.append(f"initial state {t.initial!r} not declared")
    for f in sorted(t.finals):
        if f not in state_set:
            errors.append(f"final state {f!r} not declared")
    sigma = set(t.alphabet)
    for src, letters, dst in t.transitions:
        if src not in state_set or dst not in state_set:
            errors.append(f"transition {src!r}->{dst!r} uses undeclared state")
        if len(letters) != t.arity:
            errors.append(f"transition {src!r}->{dst!r} has {len(letters)} letters, arity is {t.arity}")
        for a in letters:
            if a not in sigma:
                errors.append(f"letter {a!r} not in alphabet")
    if errors:
        raise TransducerError("; ".join(errors))


def accepts(t: Transducer, words: tuple[str, ...]) -> bool:
    if len(words) != t.arity:
        raise TransducerError(f"expected {t.arity} words, got {len(words)}")
    length = len(words[0])
    if any(len(w) != length for w in words):
        return False
    current = {t.initial}
    table = t.by_source
    for i in range(length):
        letters = tuple(w[i] for w in words)
        current = {
            dst
            for q in current
            for _, lab, dst in table[q]
            if lab == letters
        }
        if not current:
            return False
    return bool(current & t.finals)


def _walk(t: Transducer, length: int) -> Iterator[tuple[tuple[str, ...], tuple[int, ...]]]:
    """(words, path) for every accepting path of the given length, in walk
    order; a tuple with several accepting paths comes once per path."""
    table = t.by_source

    def walk(state: str, path: tuple[int, ...], words: tuple[str, ...]):
        if len(path) == length:
            if state in t.finals:
                yield words, path
            return
        for j, letters, dst in table[state]:
            yield from walk(dst, path + (j,), tuple(w + a for w, a in zip(words, letters)))

    yield from walk(t.initial, (), ("",) * t.arity)


def language(t: Transducer, length: int) -> Language:
    """The accepted tuples of the given length, each mapped to its first
    accepting path, in walk order; walked once per `t`."""
    lang = t.languages.get(length)
    if lang is None:
        lang = {}
        for words, path in _walk(t, length):
            lang.setdefault(words, path)
        t.languages[length] = lang
    return lang


def enumerate_accepted(t: Transducer, length: int) -> Iterator[tuple[str, ...]]:
    """All accepted tuples of the given length, each once, in walk order."""
    return iter(language(t, length))
