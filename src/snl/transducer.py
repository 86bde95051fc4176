"""Length-preserving word transducers over synchronous letter tuples.

A transducer of arity n reads n words of equal length in lockstep: each
transition consumes one letter per coordinate.  The accepted language is a
set of n-tuples of words.  There are no epsilon moves, so every accepted
tuple has exactly the length of the run that accepted it.

Tuples are enumerated depth-first following transition declaration order,
which makes every artifact built from a transducer reproducible down to
ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator


class TransducerError(ValueError):
    pass


Transition = tuple[str, tuple[str, ...], str]  # (source, letters, target)


@dataclass(frozen=True)
class Transducer:
    arity: int
    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    initial: str
    finals: frozenset[str]
    transitions: tuple[Transition, ...]

    def size(self) -> int:
        return self.arity * len(self.transitions)

    @cached_property
    def by_source(self) -> dict[str, tuple[Transition, ...]]:
        """Outgoing transitions of each state, in declaration order."""
        table: dict[str, list[Transition]] = {q: [] for q in self.states}
        for tr in self.transitions:
            table[tr[0]].append(tr)
        return {q: tuple(trs) for q, trs in table.items()}


@dataclass(frozen=True)
class TransducerReport:
    errors: tuple[str, ...]
    unreachable: tuple[str, ...]
    dead: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_transducer(t: Transducer) -> TransducerReport:
    """Structural checks plus reachability analysis.  Unreachable and dead
    (non-co-reachable) states are reported but are not errors: they cannot
    change the language."""
    errors = []
    state_set = set(t.states)
    if len(state_set) != len(t.states):
        errors.append("duplicate states")
    if t.initial not in state_set:
        errors.append(f"initial state {t.initial!r} not declared")
    for f in t.finals:
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
        return TransducerReport(tuple(errors), (), ())

    forward = {t.initial}
    frontier = [t.initial]
    table = t.by_source
    while frontier:
        q = frontier.pop()
        for _, _, dst in table[q]:
            if dst not in forward:
                forward.add(dst)
                frontier.append(dst)
    backward = set(t.finals)
    changed = True
    while changed:
        changed = False
        for src, _, dst in t.transitions:
            if dst in backward and src not in backward:
                backward.add(src)
                changed = True
    unreachable = tuple(q for q in t.states if q not in forward)
    dead = tuple(q for q in t.states if q not in backward)
    return TransducerReport((), unreachable, dead)


def prune_transducer(t: Transducer) -> Transducer:
    """Drop states that are unreachable or cannot reach a final state.
    The language is preserved.  The initial state is kept even when the
    language is empty."""
    report = validate_transducer(t)
    if not report.ok:
        raise TransducerError("; ".join(report.errors))
    drop = set(report.unreachable) | set(report.dead)
    drop.discard(t.initial)
    keep = tuple(q for q in t.states if q not in drop)
    live = tuple(
        tr for tr in t.transitions if tr[0] not in drop and tr[2] not in drop
    )
    return Transducer(
        t.arity, t.alphabet, keep, t.initial,
        frozenset(f for f in t.finals if f not in drop), live,
    )


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
            for src, lab, dst in table[q]
            if lab == letters
        }
        if not current:
            return False
    return bool(current & t.finals)


def enumerate_accepted(
    t: Transducer,
    length: int,
    constraints: dict[int, set[str]] | None = None,
) -> Iterator[tuple[str, ...]]:
    """All accepted tuples of the given length, deduplicated, in the order
    the depth-first walk over declared transitions discovers them.

    `constraints` restricts coordinates to finite word sets; branches whose
    prefix already falls outside a constrained set are pruned, so the walk
    stays cheap even when the unconstrained language is huge.
    """
    prefix_sets: dict[int, list[set[str]]] = {}
    for coord, words in (constraints or {}).items():
        by_len = [set() for _ in range(length + 1)]
        for w in words:
            if len(w) == length:
                for i in range(length + 1):
                    by_len[i].add(w[:i])
        prefix_sets[coord] = by_len

    table = t.by_source
    seen: set[tuple[str, ...]] = set()

    def walk(state: str, words: tuple[str, ...], depth: int) -> Iterator[tuple[str, ...]]:
        if depth == length:
            if state in t.finals and words not in seen:
                seen.add(words)
                yield words
            return
        for _, letters, dst in table[state]:
            nxt = tuple(w + a for w, a in zip(words, letters))
            if any(nxt[c] not in ps[depth + 1] for c, ps in prefix_sets.items()):
                continue
            yield from walk(dst, nxt, depth + 1)

    yield from walk(t.initial, ("",) * t.arity, 0)
