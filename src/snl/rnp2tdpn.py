"""Compile recursive net programs into transducer-defined Petri nets.

Every place of the target net is a pair (base, depth) encoded as a binary
word: a most-significant-bit-first index into a base-place table followed
by the depth, also MSB first.  Base places are the program's control
labels (with each procedure's two body entry labels identified into a
single start place), one return place per procedure, one pending-call
place per call site, one place per counter, and a halt place.

A control token at (label, d) is the program counter of a frame running
at depth d; a token on (x, d) is one unit of counter x at depth d; a
token on a call site's pending place at depth d remembers where to resume
once the callee, running at depth d+1, reaches its return place.

Commands become transducer tuples guarded by the depths at which the
owning body can actually run: main at depth 0, a less-than-max body at
depths 1..k-1, a depth-k body at k exactly.  Increments are forks
(duplicate the control token into the counter), decrements are joins
(consume a counter token or block, exactly the program's stuck-on-zero
rule), calls are forks to the callee start one level down, and returns
meet their pending call in a join.  Each depth guard is a small suffix
automaton: an interval check over the depth bits, or, for call and
resume tuples, a successor check accepting exactly the triples
(d, d+1, d).  The transducers are tries over the base-index prefixes
spliced into these shared suffix automata, so their state counts stay
logarithmic in the depth bound.
`translate_run` maps a run of the program, step by step, to the transitions
that simulate it, read from the compiled net's table (`Tdpn.table`): the
rows filed under the control word of the step, and after a return the
join that resumes the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from snl.rnp import (
    Call,
    Dec,
    Goto,
    GotoOr,
    Halt,
    Inc,
    Rnp,
    RnpConfig,
    Return,
)
from snl.tdpn import Descriptor, Tdpn
from snl.transducer import Transducer

ALPHABET = ("0", "1")


def _bits(value: int, width: int) -> str:
    return format(value, f"0{width}b")


# ---------------------------------------------------------------------------
# Address book


@dataclass
class AddressBook:
    """Word layout of a compiled net: base-place table and bit widths."""

    bases: tuple[str, ...]
    max_depth: int
    prefix_width: int
    suffix_width: int
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._index = {b: i for i, b in enumerate(self.bases)}

    @property
    def width(self) -> int:
        return self.prefix_width + self.suffix_width

    def word(self, base: str, depth: int) -> str:
        if depth < 0 or depth > self.max_depth:
            raise ValueError(f"depth {depth} outside 0..{self.max_depth}")
        return _bits(self._index[base], self.prefix_width) + _bits(depth, self.suffix_width)

    def decode(self, word: str) -> tuple[str, int]:
        if len(word) != self.width or any(c not in "01" for c in word):
            raise ValueError(f"{word!r} is not a width-{self.width} bit word")
        idx = int(word[: self.prefix_width], 2)
        depth = int(word[self.prefix_width:], 2)
        if idx >= len(self.bases):
            raise ValueError(f"{word!r} has no base place (index {idx})")
        if depth > self.max_depth:
            raise ValueError(f"{word!r} has depth {depth} > {self.max_depth}")
        return self.bases[idx], depth


def serialize_addr(book: AddressBook) -> str:
    """Sidecar listing every meaningful word of the compiled net."""
    lines = [
        f"width {book.width}; prefix {book.prefix_width}; "
        f"suffix {book.suffix_width}; maxdepth {book.max_depth};"
    ]
    for base in book.bases:
        for depth in range(book.max_depth + 1):
            lines.append(f"{book.word(base, depth)} {base} {depth}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Depth-suffix automata


def _depth_automaton(arity: int, lo: int, hi: int, suffix_width: int, name: str,
                     steps: dict, start_mode: str, final_mode: str) -> Transducer:
    """Digit automaton over MSB-first depth bits, confined to lo <= d <= hi.
    A state is the position, whether the bits read so far still sit on
    lo's and on hi's, and a mode; steps[mode] lists each move's (bit,
    letters, next mode) in order, and a state past the last bit is final
    when its mode is final_mode.  States are named after their fields."""
    lo_bits = _bits(lo, suffix_width)
    hi_bits = _bits(hi, suffix_width)
    states: dict[tuple, str] = {}
    transitions: list[tuple[str, tuple[str, ...], str]] = []
    frontier: list[tuple] = []

    def visit(state: tuple) -> str:
        if state not in states:
            i, lo_t, hi_t, mode = state
            states[state] = f"{name}_{i}_{int(lo_t)}{int(hi_t)}{mode}"
            frontier.append(state)
        return states[state]

    initial = visit((0, True, True, start_mode))
    while frontier:
        i, lo_t, hi_t, mode = state = frontier.pop()
        if i == suffix_width:
            continue
        for b, letters, nxt_mode in steps[mode]:
            if (lo_t and b < lo_bits[i]) or (hi_t and b > hi_bits[i]):
                continue
            nxt = visit((i + 1, lo_t and b == lo_bits[i], hi_t and b == hi_bits[i], nxt_mode))
            transitions.append((states[state], letters, nxt))
    finals = frozenset(v for (i, _, _, mode), v in states.items() if i == suffix_width and mode == final_mode)
    return Transducer(arity, ALPHABET, tuple(states.values()), initial, finals, tuple(transitions))


def depth_range_checker(arity: int, lo: int, hi: int, suffix_width: int, name: str = "rng") -> Transducer:
    """Accepts tuples whose coordinates all spell one depth d with
    lo <= d <= hi.  At most 4*(suffix_width+1) states; a singleton
    interval degenerates to a bare path."""
    steps = {"": [(b, (b,) * arity, "") for b in "01"]}
    return _depth_automaton(arity, lo, hi, suffix_width, name, steps, "", "")


def depth_successor_checker(lo: int, hi: int, suffix_width: int, name: str = "suc") -> Transducer:
    """Accepts exactly the triples (d, d+1, d) with lo <= d <= hi, all
    three coordinates MSB first.  Adding one flips the trailing block of
    ones, so the words agree up to a flip position (letters (a,a,a), mode
    0), differ there ((0,1,0)), and are complementary after it ((1,0,1),
    mode 1); a word of all ones has no flip position and is rejected.  At
    most 8*(suffix_width+1) states."""
    steps = {
        "0": [("0", ("0", "0", "0"), "0"), ("1", ("1", "1", "1"), "0"), ("0", ("0", "1", "0"), "1")],
        "1": [("1", ("1", "0", "1"), "1")],
    }
    return _depth_automaton(3, lo, hi, suffix_width, name, steps, "0", "1")


# ---------------------------------------------------------------------------
# Emission

# an emission is (base names, checker kind, lo, hi); kind "rng" keeps all
# coordinates at one depth in [lo, hi], kind "suc" sends the middle
# coordinate one deeper
Emission = tuple[tuple[str, ...], str, int, int]


def _body_range(seq_id: tuple, k: int) -> tuple[int, int]:
    if seq_id == ("main",):
        return (0, 0)
    if seq_id[0] == "lt":
        return (1, k - 1)
    return (k, k)


def _collect(rnp: Rnp) -> tuple[tuple[str, ...], dict[str, str], list[Emission], list[Emission], list[Emission]]:
    k = rnp.max_depth
    label_to_base: dict[str, str] = {}
    bases: list[str] = []

    for cmd in rnp.main:
        base = f"label:{cmd.label}"
        label_to_base[cmd.label] = base
        bases.append(base)
    for p in rnp.procs:
        start = f"start:{p.name}"
        bases.append(start)
        label_to_base[p.lt_max[0].label] = start
        label_to_base[p.eq_max[0].label] = start
        for cmd in (*p.lt_max[1:], *p.eq_max[1:]):
            base = f"label:{cmd.label}"
            label_to_base[cmd.label] = base
            bases.append(base)
        bases.append(f"return:{p.name}")
    variables: set[str] = set()
    for seq_id, cmds in rnp.sequences():
        for cmd in cmds:
            if isinstance(cmd, Call):
                bases.append(f"aux:{cmd.label}")
            elif isinstance(cmd, (Inc, Dec)):
                variables.add(cmd.var)
    bases.extend(f"var:{x}" for x in sorted(variables))
    bases.append("halt")

    moves: list[Emission] = []
    forks: list[Emission] = []
    joins: list[Emission] = []
    for seq_id, cmds in rnp.sequences():
        lo, hi = _body_range(seq_id, k)
        proc_name = seq_id[1] if seq_id != ("main",) else None
        for idx, cmd in enumerate(cmds):
            here = label_to_base[cmd.label]
            after = label_to_base[cmds[idx + 1].label] if idx + 1 < len(cmds) else None
            if isinstance(cmd, Inc):
                forks.append(((here, after, f"var:{cmd.var}"), "rng", lo, hi))
            elif isinstance(cmd, Dec):
                joins.append(((here, f"var:{cmd.var}", after), "rng", lo, hi))
            elif isinstance(cmd, Goto):
                moves.append(((here, label_to_base[cmd.target]), "rng", lo, hi))
            elif isinstance(cmd, GotoOr):
                for t in sorted({cmd.target1, cmd.target2}):
                    moves.append(((here, label_to_base[t]), "rng", lo, hi))
            elif isinstance(cmd, Call):
                forks.append(((here, f"start:{cmd.proc}", f"aux:{cmd.label}"), "suc", lo, hi))
                joins.append(((f"aux:{cmd.label}", f"return:{cmd.proc}", after), "suc", lo, hi))
            elif isinstance(cmd, Return):
                moves.append(((here, f"return:{proc_name}"), "rng", lo, hi))
            elif isinstance(cmd, Halt):
                moves.append(((here, "halt"), "rng", lo, hi))
    return tuple(bases), label_to_base, moves, forks, joins


def _assemble(arity: int, emissions: list[Emission], book: AddressBook) -> Transducer:
    """Trie over base-index bit tuples, with each leaf wired into the
    shared depth-suffix automaton of its emission."""
    states: list[str] = ["t0"]
    transitions: list[tuple[str, tuple[str, ...], str]] = []
    finals: set[str] = set()
    trie: dict[tuple, str] = {(): "t0"}
    checkers: dict[tuple[str, int, int], Transducer] = {}
    spliced: set[tuple[str, tuple[str, int, int]]] = set()

    for bases, kind, lo, hi in emissions:
        if lo > hi:
            continue
        words = [_bits(book._index[b], book.prefix_width) for b in bases]
        node: tuple = ()
        for m in range(book.prefix_width):
            letters = tuple(w[m] for w in words)
            nxt = node + (letters,)
            if nxt not in trie:  # a trie node has one edge in, made with it
                name = f"t{len(trie)}"
                trie[nxt] = name
                states.append(name)
                transitions.append((trie[node], letters, name))
            node = nxt
        key = (kind, lo, hi)
        if key not in checkers:
            tag = f"{kind}{len(checkers)}"
            if kind == "rng":
                checkers[key] = depth_range_checker(arity, lo, hi, book.suffix_width, name=tag)
            else:
                checkers[key] = depth_successor_checker(lo, hi, book.suffix_width, name=tag)
        frag = checkers[key]
        if (trie[node], key) not in spliced:
            spliced.add((trie[node], key))
            for src, letters, dst in frag.transitions:
                if src == frag.initial:
                    transitions.append((trie[node], letters, dst))

    for frag in checkers.values():
        states.extend(s for s in frag.states if s != frag.initial)
        transitions.extend(t for t in frag.transitions if t[0] != frag.initial)
        finals.update(frag.finals)

    return Transducer(arity, ALPHABET, tuple(states), "t0", frozenset(finals), tuple(transitions))


class RnpCompilation(NamedTuple):
    tdpn: Tdpn
    book: AddressBook
    label_to_base: dict[str, str]


def compile_rnp_to_tdpn(rnp: Rnp) -> RnpCompilation:
    k = rnp.max_depth
    bases, label_to_base, moves, forks, joins = _collect(rnp)
    prefix_width = max(1, (len(bases) - 1).bit_length())
    suffix_width = max(1, k.bit_length())
    book = AddressBook(bases, k, prefix_width, suffix_width)
    net = Tdpn(
        book.width,
        ALPHABET,
        book.word(label_to_base[rnp.main[0].label], 0),
        book.word("halt", 0),
        _assemble(2, moves, book),
        _assemble(3, forks, book),
        _assemble(3, joins, book),
    )
    return RnpCompilation(net, book, label_to_base)


def translate_run(
    compilation: RnpCompilation, rnp: Rnp, run: Iterable[tuple[RnpConfig, int | None]]
) -> Iterator[Descriptor]:
    """The firing sequence that simulates a run of `rnp`, given as in
    `lipton.guided_run`, read from the compiled net's table, which files
    each row under its first word.  `_collect` puts first in each tuple a
    command emits its control word (its label's place, or the start place
    for a body's first command; bodies sharing one run at disjoint depths),
    and a call site's aux place first in the join that resumes it.  So the
    rows filed under a step's control word at depth d are what its command
    emits at d: one row, or a move per distinct target of a goto-or, of
    which the step keeps the taken branch's; and a return adds the one row
    filed under its call site's aux place one level up.  Should the filing
    break, `tdpn.replay` refuses the sequence."""
    _, seqs, _ = rnp.tables
    base, book = compilation.label_to_base, compilation.book
    rows, filed = compilation.tdpn.table
    word = {(b, d): book.word(b, d) for b in book.bases for d in range(book.max_depth + 1)}
    for ((seq_id, idx), stack, _), pick in run:
        cmd, d = seqs[seq_id][idx], len(stack)
        fired = [rows[r][0] for r in filed.get(word[base[cmd.label], d], ())]
        if isinstance(cmd, GotoOr):
            taken = word[base[(cmd.target1, cmd.target2)[pick]], d]
            fired = [(kind, words) for kind, words in fired if words[1] == taken]
        elif isinstance(cmd, Return):
            fired += [rows[r][0] for r in filed.get(word[f"aux:{stack[-1]}", d - 1], ())]
        yield from fired


def expected_language_sizes(rnp: Rnp) -> dict[str, int]:
    """Closed-form accepted-tuple counts for the three transducers of the
    compiled net: each command contributes one tuple per depth its body
    can run at (two for a branching goto with distinct targets, plus a
    call's pending-resume join); bodies with an empty depth range
    contribute nothing."""
    k = rnp.max_depth
    counts = {"move": 0, "fork": 0, "join": 0}
    for seq_id, cmds in rnp.sequences():
        lo, hi = _body_range(seq_id, k)
        span = max(0, hi - lo + 1)
        for cmd in cmds:
            if isinstance(cmd, Inc):
                counts["fork"] += span
            elif isinstance(cmd, Dec):
                counts["join"] += span
            elif isinstance(cmd, Goto):
                counts["move"] += span
            elif isinstance(cmd, GotoOr):
                counts["move"] += span * len({cmd.target1, cmd.target2})
            elif isinstance(cmd, Call):
                counts["fork"] += span
                counts["join"] += span
            elif isinstance(cmd, (Return, Halt)):
                counts["move"] += span
    return counts
