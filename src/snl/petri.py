"""Petri nets with relation flow and coverability procedures.

The flow is a relation: a transition consumes at most one token per place
(its pre set) and produces at most one per place (its post set).  Markings
are multisets of places.  Coverability asks whether, starting from one
token on the initial place, some reachable marking dominates the target
(by default one token on the final place).

Two deciders are provided: a complete backward procedure computing the
antichain basis of markings from which the target is coverable, and a
forward breadth-first search bounded by token and marking caps, useful as
an independent oracle and as a witness finder.  The forward search says
"no" only when it exhausts the markings with no cap touched; a search a cap
touched is Unknown, named by the caps.  The backward procedure numbers a
net's places once and keeps each basis element's support as a bitmask
beside it: a marking dominates another only if its support contains the
other's, so a full domination test runs only where the masks allow it.
From a basis element it fires backwards only the transitions whose post set
meets the element's support, found through an index by post place.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Iterable, NamedTuple

from snl.record import Record
from snl.search import Capped, Found, bfs
from snl.text import non_words, strip_comments

Marking = dict[str, int]
CanonMarking = tuple[tuple[str, int], ...]

DEFAULT_MAX_TOKENS = 64
DEFAULT_MAX_MARKINGS = 1_000_000


class PetriParseError(ValueError):
    pass


class PetriValidationError(ValueError):
    pass


class PetriNet(Record):
    """A net checked where it is built: see validate_petri."""

    places: tuple[str, ...]
    transitions: tuple[tuple[str, frozenset[str], frozenset[str]], ...]
    initial: str
    final: str

    def __post_init__(self) -> None:
        validate_petri(self)

    def size(self) -> int:
        return len(self.places) + len(self.transitions)


def validate_petri(net: PetriNet) -> None:
    """Raise PetriValidationError unless the places and transition ids are
    distinct word identifiers and every place a transition or role names
    is declared."""
    place_set = set(net.places)
    ids = [tid for tid, _, _ in net.transitions]
    problems = non_words((*net.places, *ids))
    if len(place_set) != len(net.places):
        problems.append("duplicate places")
    if len(set(ids)) != len(ids):
        problems.append("duplicate transition ids")
    for tid, pre, post in net.transitions:
        for p in sorted(pre | post):
            if p not in place_set:
                problems.append(f"transition {tid!r} uses undeclared place {p!r}")
    for role, p in (("initial", net.initial), ("final", net.final)):
        if p not in place_set:
            problems.append(f"{role} place {p!r} not declared")
    if problems:
        raise PetriValidationError("; ".join(problems))


def canonical(marking: Marking) -> CanonMarking:
    return tuple(sorted((p, c) for p, c in marking.items() if c > 0))


def from_canonical(canon: CanonMarking) -> Marking:
    return dict(canon)


def initial_marking(net: PetriNet) -> Marking:
    return {net.initial: 1}


def target_marking(net: PetriNet) -> Marking:
    return {net.final: 1}


def covers(marking: Marking, target: Marking) -> bool:
    return all(marking.get(p, 0) >= c for p, c in target.items())


def moved(marking: Marking, moves: Iterable[tuple[str, int]]) -> Marking | None:
    """The marking after adding each (place, delta) of `moves` in turn, or
    None when a place would drop below zero; emptied places are dropped."""
    out = dict(marking)
    for p, d in moves:
        c = out.pop(p, 0) + d
        if c < 0:
            return None
        if c:
            out[p] = c
    return out


def _fire(marking: Marking, pre: frozenset[str], post: frozenset[str]) -> Marking | None:
    return moved(marking, [(p, -1) for p in pre] + [(p, 1) for p in post])


def fire(net: PetriNet, marking: Marking, tid: str) -> Marking | None:
    for t, pre, post in net.transitions:
        if t == tid:
            return _fire(marking, pre, post)
    raise KeyError(tid)


# ---------------------------------------------------------------------------
# Backward coverability


class Coverable(NamedTuple):
    witness: tuple[str, ...]
    basis_size: int


class NotCoverable(NamedTuple):
    basis_size: int


BackwardVerdict = Coverable | NotCoverable


def cover_backward(net: PetriNet, target: Marking | None = None) -> BackwardVerdict:
    """Complete backward coverability via a minimal-basis fixpoint.

    Maintains an antichain basis of markings from which the target is
    coverable.  For each basis element m and transition t the predecessor
    requirement takes, per place, the larger of t's pre and what m still
    needs after t's effect; new requirements dominated by the basis are
    discarded, and basis elements dominated by a new requirement are
    removed.  Markings over a fixed place set are well-quasi-ordered, so no
    infinite antichain extension exists and the loop terminates.

    Only the transitions whose post meets supp(m) are fired backwards from
    m, in ascending order.  Lemma: if t's post misses supp(m), t's
    requirement is m plus one token per place of t's pre, which dominates m
    or the smaller element that replaced m; so the basis, its order, the
    parents and the witness are those of a scan over all transitions.

    When some basis element is dominated by the initial marking, the chain
    of parent pointers replays into a concrete firing sequence, which is
    verified before being returned.
    """
    if target is None:
        target = target_marking(net)
    bit = {p: 1 << i for i, p in enumerate(dict.fromkeys((*net.places, *target)))}
    target_c = canonical(target)
    by_post: dict[str, list[int]] = {}
    for t, (_, _, post) in enumerate(net.transitions):
        for p in post:
            by_post.setdefault(p, []).append(t)
    # each basis element beside its support mask and its dict form
    basis: dict[CanonMarking, tuple[int, Marking]] = {
        target_c: (sum(bit[p] for p, _ in target_c), from_canonical(target_c))
    }
    parents: dict[CanonMarking, tuple[int, CanonMarking] | None] = {target_c: None}
    frontier: deque[CanonMarking] = deque([target_c])
    while frontier:
        m_c = frontier.popleft()
        if m_c not in basis:
            continue  # removed as dominated after being queued
        m = basis[m_c][1]
        for t in sorted({t for p in m for t in by_post.get(p, ())}):
            _, pre, post = net.transitions[t]
            req = {p: n for p, c in m.items() if (n := c - (p in post) + (p in pre))}
            for p in pre:
                req.setdefault(p, 1)
            req_c = tuple(sorted(req.items()))  # canonical: every count is positive
            if req_c in basis:
                continue
            mask = sum(bit[p] for p in req)
            # the basis is an antichain, so no element is both below req
            # and above it: one pass finds either kind
            dominated = []
            for b_c, (b_mask, b) in basis.items():
                joint = b_mask | mask
                if joint == mask and all(req[p] >= c for p, c in b_c):
                    break
                if joint == b_mask and all(b[p] >= c for p, c in req_c):
                    dominated.append(b_c)
            else:
                for b_c in dominated:
                    del basis[b_c]
                # a marking leaves the basis only for a smaller one, so none
                # enters twice and each keeps its first parent
                basis[req_c] = (mask, req)
                parents[req_c] = (t, m_c)
                frontier.append(req_c)

    start = initial_marking(net)
    hits = sorted(b_c for b_c in basis if covers(start, dict(b_c)))
    if not hits:
        return NotCoverable(basis_size=len(basis))
    witness: list[str] = []
    cursor = hits[0]
    marking = start
    while parents[cursor] is not None:
        t, nxt = parents[cursor]
        tid, pre, post = net.transitions[t]
        fired = _fire(marking, pre, post)
        if fired is None:
            raise RuntimeError(f"backward witness replay hit disabled transition {tid!r}")
        witness.append(tid)
        marking = fired
        cursor = nxt
    if not covers(marking, target):
        raise RuntimeError("backward witness replay does not cover the target")
    return Coverable(witness=tuple(witness), basis_size=len(basis))


# ---------------------------------------------------------------------------
# Forward coverability with caps


class ForwardCoverable(NamedTuple):
    witness: tuple[str, ...]
    markings_explored: int


class NotCoverableWithinCaps(NamedTuple):
    """The forward search exhausted the markings and no cap touched it."""

    markings_explored: int
    complete = True  # still read by perfbench/oracles.py; not a field


class ForwardUnknown(NamedTuple):
    reason: str
    markings_explored: int


ForwardVerdict = ForwardCoverable | NotCoverableWithinCaps | ForwardUnknown


def cover_forward_bfs(
    net: PetriNet,
    target: Marking | None = None,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    max_markings: int = DEFAULT_MAX_MARKINGS,
) -> ForwardVerdict:
    """Forward breadth-first coverability.

    Markings above the token cap are not expanded.  Exhausting the space
    with no cap touched yields NotCoverableWithinCaps; a search that pruned
    a marking above max_tokens or stopped after max_markings markings is
    ForwardUnknown, named by every cap it tripped.
    """
    if target is None:
        target = target_marking(net)

    def successors(m_c: CanonMarking):
        marking = dict(m_c)
        for tid, pre, post in net.transitions:
            fired = _fire(marking, pre, post)
            if fired is not None:
                yield tid, canonical(fired)

    result = bfs(
        canonical(initial_marking(net)),
        successors,
        lambda m_c: covers(dict(m_c), target),
        max_markings,
        "max_markings",
        lambda m_c: "max_tokens" if sum(c for _, c in m_c) > max_tokens else None,
    )
    if isinstance(result, Found):
        return ForwardCoverable(result.labels, result.explored)
    if isinstance(result, Capped):
        return ForwardUnknown(result.reason, result.explored)
    return NotCoverableWithinCaps(result.explored)


# ---------------------------------------------------------------------------
# Text format


_PLACE_RE = re.compile(r"place\s+(\w+)\Z")
_TRANS_RE = re.compile(r"trans\s+(\w+)\s+pre\s*\{([^}]*)\}\s*post\s*\{([^}]*)\}\Z")
_ROLE_RE = re.compile(r"(initial|final)\s+(\w+)\Z")


def parse_pnet(text: str) -> PetriNet:
    places: list[str] = []
    transitions: list[tuple[str, frozenset[str], frozenset[str]]] = []
    roles: dict[str, str] = {}
    for stmt in strip_comments(text).split(";"):
        stmt = " ".join(stmt.split())
        if not stmt:
            continue
        if m := _PLACE_RE.match(stmt):
            places.append(m.group(1))
        elif m := _TRANS_RE.match(stmt):
            tid, pre, post = m.groups()
            transitions.append((tid, frozenset(pre.split()), frozenset(post.split())))
        elif m := _ROLE_RE.match(stmt):
            role, place = m.groups()
            if role in roles:
                raise PetriParseError(f"second {role} place {stmt!r}")
            roles[role] = place
        else:
            raise PetriParseError(f"unrecognized statement {stmt!r}")
    if len(roles) < 2:
        raise PetriParseError("missing initial or final place")
    return PetriNet(tuple(places), tuple(transitions), roles["initial"], roles["final"])


def serialize_pnet(net: PetriNet) -> str:
    lines = [f"place {p};" for p in net.places]
    for tid, pre, post in net.transitions:
        lines.append(
            f"trans {tid} pre {{{' '.join(sorted(pre))}}} post {{{' '.join(sorted(post))}}};"
        )
    lines.append(f"initial {net.initial};")
    lines.append(f"final {net.final};")
    return "\n".join(lines) + "\n"
