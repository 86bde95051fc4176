"""Transducer-defined Petri nets.

The net's places are all words of a fixed width over a finite alphabet;
its transitions are given symbolically by three transducers: `move`
(arity 2: one pre place, one post place), `fork` (arity 3: one pre, two
post), and `join` (arity 3: two pre, one post).  A triple appearing in
both fork and join denotes two distinct transitions.

The net's one table (`Tdpn.table`) lists its transitions, and every
consumer reads them there.  Coverability of the final word from one token
on the initial word can be decided two ways: expanding each row into an
explicit transition (feasible only for small widths) and running the
backward procedure, or searching forward over markings, firing only the
rows filed under the marked words.  Forks and joins are multiset-true in the symbolic
semantics: a join whose two pre words coincide needs two tokens on that
word, and a fork whose post words coincide adds two.  Either way "no" means
an exhaustive search; a search a cap touched is Unknown, named by the caps.
`replay` checks a given firing sequence instead, each step by its row.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import product
from typing import Iterable, NamedTuple

from snl.petri import (
    DEFAULT_MAX_MARKINGS,
    DEFAULT_MAX_TOKENS,
    PetriNet,
    canonical,
    cover_backward,
    moved,
    Coverable as PetriCoverable,
)
from snl.record import Record
from snl.search import Capped, Found, bfs
from snl.text import non_words, strip_comments
from snl.transducer import Transducer, TransducerError, enumerate_accepted

Marking = dict[str, int]

Descriptor = tuple[str, tuple[str, ...]]  # ("move"|"fork"|"join", words)
ARITY = {"move": 2, "fork": 3, "join": 3}

DEFAULT_PLACE_LIMIT = 4096


class TdpnParseError(ValueError):
    pass


class TdpnValidationError(ValueError):
    pass


class Tdpn(Record):
    """A net checked where it is built: see validate_tdpn."""

    width: int
    alphabet: tuple[str, ...]
    w_init: str
    w_final: str
    t_move: Transducer
    t_fork: Transducer
    t_join: Transducer

    def __post_init__(self) -> None:
        validate_tdpn(self)

    def size(self) -> int:
        return self.width + self.t_move.size() + self.t_fork.size() + self.t_join.size()

    def transducers(self) -> tuple[tuple[str, Transducer, int], ...]:
        """(kind, transducer, number of pre words) in move, fork, join order,
        the order of the rows of `table`."""
        return (("move", self.t_move, 1), ("fork", self.t_fork, 1), ("join", self.t_join, 2))

    @cached_property
    def table(self) -> tuple[tuple, dict[str, list[int]]]:
        """The net's one list of transitions, which every consumer reads: a
        row per transition, in move, fork, join order and walk order within
        each kind, holding its descriptor and its token moves, a -1 per pre
        word and then a +1 per post word.  Beside the rows, the row numbers
        filed under each coordinate-0 word, ascending."""
        rows = tuple(
            ((kind, words), tuple((w, -1) for w in words[:pre]) + tuple((w, 1) for w in words[pre:]))
            for kind, t, pre in self.transducers()
            for words in enumerate_accepted(t, self.width)
        )
        filed: dict[str, list[int]] = {}
        for r, ((_, words), _) in enumerate(rows):
            filed.setdefault(words[0], []).append(r)
        return rows, filed


def validate_tdpn(net: Tdpn) -> None:
    """Raise TdpnValidationError unless the width is positive, the alphabet
    single characters, both words width-long words over it, and each
    transducer (valid as built) of its kind's arity, over the net's
    alphabet, with word-identifier states."""
    problems = []
    if net.width < 1:
        problems.append("width must be positive")
    for a in net.alphabet:
        if not re.fullmatch(r"[0-9A-Za-z]", a):
            problems.append(f"alphabet symbol {a!r} must be a single alphanumeric character")
    for role, w in (("init", net.w_init), ("final", net.w_final)):
        if len(w) != net.width or any(a not in net.alphabet for a in w):
            problems.append(f"{role} word {w!r} is not a width-{net.width} word over the alphabet")
    for name, t, _ in net.transducers():
        if t.arity != ARITY[name]:
            problems.append(f"{name} transducer must have arity {ARITY[name]}, got {t.arity}")
        if tuple(t.alphabet) != tuple(net.alphabet):
            problems.append(f"{name} transducer alphabet differs from the net alphabet")
        problems.extend(f"{name}: {e}" for e in non_words(t.states))
    if problems:
        raise TdpnValidationError("; ".join(problems))


# ---------------------------------------------------------------------------
# Explicit expansion


class PlaceLimitExceeded(ValueError):
    pass


def expand(net: Tdpn, place_limit: int = DEFAULT_PLACE_LIMIT) -> PetriNet:
    """Materialize the net: one place per word, one transition per table
    row (pre: the words it takes from, post: those it adds to).  Because
    Petri flow is a relation, a degenerate tuple (a fork with equal post
    words, a join with equal pre words) collapses to a single arc in the
    expansion; the symbolic semantics keeps multiset counts, so it differs
    from the expansion exactly on such tuples."""
    n_places = len(net.alphabet) ** net.width
    if n_places > place_limit:
        raise PlaceLimitExceeded(
            f"{n_places} places exceed the limit {place_limit}"
        )
    places = tuple("".join(p) for p in product(net.alphabet, repeat=net.width))
    rows, _ = net.table
    transitions = tuple(
        (f"{kind}_{'_'.join(words)}", frozenset(w for w, c in moves if c < 0),
         frozenset(w for w, c in moves if c > 0))
        for (kind, words), moves in rows
    )
    return PetriNet(places, transitions, net.w_init, net.w_final)


def descriptor_of_transition_id(tid: str) -> Descriptor:
    kind, _, rest = tid.partition("_")
    return (kind, tuple(rest.split("_")))


# ---------------------------------------------------------------------------
# Symbolic firing


def fire_symbolic(net: Tdpn, marking: Marking) -> list[tuple[Descriptor, Marking]]:
    """All single-transition successors of a marking, found without
    expanding the net: the `Tdpn.table` rows filed under the marked words,
    in row order, each fired unless a word would drop below zero.  A join
    whose two pre words coincide needs two tokens there; a fork whose post
    words coincide adds two."""
    rows, filed = net.table
    out: list[tuple[Descriptor, Marking]] = []
    for r in sorted(r for w in marking for r in filed.get(w, ())):
        descriptor, moves = rows[r]
        m = moved(marking, moves)
        if m is not None:
            out.append((descriptor, m))
    return out


def replay(net: Tdpn, steps: Iterable[Descriptor]) -> Marking:
    """The marking a firing sequence ends in, from one token on the initial
    word, each step fired by its table row as in fire_symbolic; the first
    step with no row (an unknown kind, or a tuple its transducer does not
    accept), or whose pre words are not marked, raises ValueError."""
    moves = dict(net.table[0])
    marking = {net.w_init: 1}
    for i, (kind, words) in enumerate(steps):
        if (kind, words) not in moves:
            raise ValueError(f"step {i} {kind} {words!r} is not a transition of the net")
        marking = moved(marking, moves[kind, words])
        if marking is None:
            raise ValueError(f"step {i} {kind} {words!r} is not enabled")
    return marking


# ---------------------------------------------------------------------------
# Coverability


class TdpnCoverable(NamedTuple):
    witness: tuple[Descriptor, ...]
    mode: str


class TdpnNotCoverable(NamedTuple):
    """An exhaustive search found no cover."""

    mode: str
    complete = True  # still read by perfbench/oracles.py and perfbench/spans.py; not a field


class TdpnUnknown(NamedTuple):
    mode: str
    reason: str


TdpnVerdict = TdpnCoverable | TdpnNotCoverable | TdpnUnknown


def coverable(
    net: Tdpn,
    mode: str = "backward",
    place_limit: int = DEFAULT_PLACE_LIMIT,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    max_markings: int = DEFAULT_MAX_MARKINGS,
) -> TdpnVerdict:
    """Decide coverability of the final word.

    backward: expand and run the complete backward procedure (refusing the
    expansion yields Unknown).  symbolic: forward search with fire_symbolic;
    exhausting the markings with no cap touched reports NotCoverable, and a
    search that pruned a marking above max_tokens or stopped after
    max_markings markings reports Unknown, named by every cap it tripped.
    """
    if mode == "backward":
        try:
            expanded = expand(net, place_limit=place_limit)
        except PlaceLimitExceeded:
            return TdpnUnknown(mode, "place_limit")
        verdict = cover_backward(expanded)
        if isinstance(verdict, PetriCoverable):
            return TdpnCoverable(
                tuple(descriptor_of_transition_id(t) for t in verdict.witness), mode
            )
        return TdpnNotCoverable(mode)
    if mode != "symbolic":
        raise ValueError(f"unknown mode {mode!r}")

    result = bfs(
        canonical({net.w_init: 1}),
        lambda m_c: [(desc, canonical(nxt)) for desc, nxt in fire_symbolic(net, dict(m_c))],
        lambda m_c: net.w_final in dict(m_c),
        max_markings,
        "max_markings",
        lambda m_c: "max_tokens" if sum(c for _, c in m_c) > max_tokens else None,
    )
    if isinstance(result, Found):
        return TdpnCoverable(result.labels, mode)
    if isinstance(result, Capped):
        return TdpnUnknown(mode, result.reason)
    return TdpnNotCoverable(mode)


# ---------------------------------------------------------------------------
# Text format


_TRANSDUCER_RE = re.compile(
    r"transducer\s+(move|fork|join)\s+arity\s+(\d+)\s*\{([^}]*)\}"
)
# each header statement and the value it takes, in serialization order
_HEADER = {"width": r"\d+", "alphabet": r".+", "init": r"\w+", "final": r"\w+"}
# each transducer-block statement and the value it takes; only trans repeats
_BLOCK = {"states": r".*", "initial": r"\S+", "finals": r".*",
          "trans": r"(\w+)\s*->\s*(\w+)\s+on\s*\(([^)]*)\)"}


def _parse_transducer_block(kind: str, arity: int, body: str, alphabet: tuple[str, ...]) -> Transducer:
    declared: dict[str, list[str]] = {}
    transitions: list[tuple[str, tuple[str, ...], str]] = []
    for stmt in body.split(";"):
        stmt = " ".join(stmt.split())
        if not stmt:
            continue
        key, _, value = stmt.partition(" ")
        if not (m := key in _BLOCK and re.fullmatch(_BLOCK[key], value)):
            raise TdpnParseError(f"unrecognized line in {kind} block: {stmt!r}")
        if key == "trans":
            src, dst, letters = m.groups()
            letter_tuple = tuple(a.strip() for a in letters.split(","))
            if len(letter_tuple) != arity:
                raise TdpnParseError(f"{kind}: {stmt!r} has {len(letter_tuple)} letters, arity {arity}")
            transitions.append((src, letter_tuple, dst))
        elif key in declared:
            raise TdpnParseError(f"second {key} line in {kind} block: {stmt!r}")
        else:
            declared[key] = value.split()
    if "initial" not in declared:
        raise TdpnParseError(f"{kind} block has no initial state")
    states, finals = declared.get("states", ()), declared.get("finals", ())
    return Transducer(arity, alphabet, tuple(states), declared["initial"][0], frozenset(finals),
                      tuple(transitions))


def parse_tdpn(text: str) -> Tdpn:
    text = strip_comments(text)
    header: dict[str, str] = {}
    for stmt in _TRANSDUCER_RE.sub(";", text).split(";"):
        stmt = " ".join(stmt.split())
        if not stmt:
            continue
        key, _, value = stmt.partition(" ")
        if key not in _HEADER or not re.fullmatch(_HEADER[key], value):
            raise TdpnParseError(f"unrecognized statement {stmt!r}")
        if key in header:
            raise TdpnParseError(f"second {key} declaration {stmt!r}")
        header[key] = value
    for key in _HEADER:
        if key not in header:
            raise TdpnParseError(f"missing {key} declaration")
    width = int(header["width"])
    alphabet = tuple(header["alphabet"].split())
    blocks, bad = {}, {}
    for m in _TRANSDUCER_RE.finditer(text):
        kind, arity, body = m.group(1), int(m.group(2)), m.group(3)
        if kind in blocks:
            raise TdpnParseError(f"second transducer block {kind!r}")
        try:
            blocks[kind] = _parse_transducer_block(kind, arity, body, alphabet)
        except TransducerError as err:
            blocks[kind], bad[kind] = None, f"{kind}: {err}"
    for kind in ARITY:
        if kind not in blocks:
            raise TdpnParseError(f"missing transducer block {kind!r}")
    if bad:
        raise TdpnParseError("; ".join(bad[kind] for kind in ARITY if kind in bad))
    return Tdpn(
        width, alphabet, header["init"], header["final"],
        blocks["move"], blocks["fork"], blocks["join"],
    )


def _serialize_transducer_block(kind: str, t: Transducer) -> list[str]:
    lines = [f"transducer {kind} arity {t.arity} {{"]
    lines.append(f"  states {' '.join(t.states)};")
    lines.append(f"  initial {t.initial};")
    lines.append(f"  finals{''.join(' ' + f for f in sorted(t.finals))};")
    for src, letters, dst in t.transitions:
        lines.append(f"  trans {src} -> {dst} on ({','.join(letters)});")
    lines.append("}")
    return lines


def serialize_tdpn(net: Tdpn) -> str:
    lines = [
        f"width {net.width};",
        f"alphabet {' '.join(net.alphabet)};",
        f"init {net.w_init};",
        f"final {net.w_final};",
    ]
    for kind, t, _ in net.transducers():
        lines.extend(_serialize_transducer_block(kind, t))
    return "\n".join(lines) + "\n"
