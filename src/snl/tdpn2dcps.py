"""Compile a width-l TDPN into a thread-pool pushdown system with kill rules.

Tokens become threads: a thread holding word w keeps it as the stack ⊤w,
where the lock symbol ⊤ marks a completed, resumable token.  One transducer
move is simulated in three stages between two visits of the hub state
g_main:

* read: unlock a token, pop its letters one by one, spawning one bit-thread
  per letter (tagged with the position and the pop1/pop2 role).  A join
  reads two tokens, tagging the second read pop2.
* guess: a freshly spawned guess-marker thread builds the produced word
  bottom-up, spawning a push-tagged bit-thread per guessed letter, and is
  finally capped with ⊤, making it the new token.  A fork runs the guess
  twice (push1 then push2).
* verify: a verify-marker thread walks a transducer path position by
  position; each step is a kill rule removing exactly the bit-thread that
  matches the transition's letter at that position and role.  The walk
  pre-commits to the next transition in the state, so only genuine
  accepting paths reach g_main again.

Reaching the final word is checked letter by letter from g_main (popping
the lock first), ending in g_halt.  The whole round trip works with every
thread switched in at most once, so coverability of the TDPN matches g_halt
reachability at switch budget SWITCH_BUDGET = 1.  Witness synthesis relies
on that rule: a token is parked once, complete, and switched in once, to be
read, at count SWITCH_BUDGET; a marker is switched in once, at count 0.

Emission is stage order (init, check, read, guess, verify), schema order
within a stage, and index/letter order within a schema, so compiled systems
are byte-stable.  All verify schemas are kill rules; everything else is a
plain rule.  States that no rule mentions are not emitted: a verify state
is minted when a rule first mentions it, from a table with one row per mode,
position and tag, indexed by transducer transition.  Its name shape is
unique by construction, so it is written without a fresh-name probe.

The compiler returns one KillDcps record: the system, its names and halt
state, and the schema tables.  Witness synthesis takes that record and fires
each event by the schema arguments it was emitted under, read from its
tables, so the schemas are written once.  It works by round (boot, one
per net step, final check), each made from its key alone: the step kind,
its words and the word of the active unread token (the initial word until
a step reads it, then None).  A round needs the parked ((lock, *w),
SWITCH_BUDGET) tokens it switches to.  A plain rule is recorded under a
key of its arguments, such as ("read", mode, i, tag, letter).  Kills are
recorded by block: the kills of one mode, position i and step (the role
whose bit is killed) are keyed ("verify", mode, i, step) to the index of
their first kill.  Inside a block the kill for transducer transition j sits
at a fixed offset: j in a full block (i < l, not the last step); in the
chained block (i < l, last step), which also commits to the next transition
j2, chain_start[j] + rank[j2], where chain_start sums the out-degrees of the
earlier transitions' targets and rank[j2] is j2's position among its
source's edges; at i = l, j's position among the transitions into a final
state.  The compiler checks that the blocks tile the kills.
"""

from __future__ import annotations

import functools
from itertools import chain
from typing import Iterator, NamedTuple

from snl.dcps import Dcps, DcpsRule, Event, KillRule, Thread, mint_name
from snl.tdpn import Descriptor, Tdpn
from snl.transducer import Transducer, language

# the switch budget the construction is built for: a thread is switched in at most once
SWITCH_BUDGET = 1

MODES = ("move", "join", "fork")
TAGS = ("pop1", "pop2", "push1", "push2")

# (mode, tag) pairs of the read stage; join reads its second token as pop2
READ_PAIRS = (("move", "pop1"), ("join", "pop1"), ("join", "pop2"), ("fork", "pop1"))
# pairs that hand over from reading to guessing (join hands over after pop2)
HANDOFF_PAIRS = (("move", "pop1"), ("join", "pop2"), ("fork", "pop1"))
# pairs of the guess stage; fork guesses twice
GUESS_PAIRS = (("move", "push1"), ("join", "push1"), ("fork", "push1"), ("fork", "push2"))
# pairs whose completed guess enters verification
VERIFY_ENTRY_PAIRS = (("move", "push1"), ("join", "push1"), ("fork", "push2"))
# per mode, the tag of each letter position a verify round walks, in walk order
VERIFY_ROLES = {"move": ("pop1", "push1"), "join": ("pop1", "pop2", "push1"),
                "fork": ("pop1", "push1", "push2")}


class KillDcps(NamedTuple):
    """One compiled kill-dcps: the system, its names and halt state, and the
    schema tables witness synthesis fires events from."""

    net: Tdpn
    system: Dcps
    names: dict[str, str]  # identifier -> structured name, in minting order
    halt: str  # g_halt, the accepting control state
    # witness event of each emitted plain rule, keyed by its schema arguments
    event: dict[tuple, Event]
    # first kill index of each verify block, keyed ("verify", mode, i, step)
    block: dict[tuple, int]
    # per mode, the tables that place a kill inside its block, see _Offsets
    offsets: dict[str, _Offsets]
    lock: str
    guess_sym: str
    verify_sym: str

    # the traced benchmark's tdpn2dcps.compile span counts these on the result
    @property
    def rules(self) -> tuple[DcpsRule, ...]:
        return self.system.rules

    @property
    def kills(self) -> tuple[KillRule, ...]:
        return self.system.kills


class _Offsets(NamedTuple):
    """Where the kill of transition j sits inside a verify block of one mode:
    at j in a full block, at chain_start[j] + rank[j2] in the chained block
    (j2 the next transition), and at final[j] in the blocks of position l."""

    chain_start: tuple[int, ...]  # running sum of the targets' out-degrees; last is the block size
    rank: tuple[int, ...]  # each transition's position among its source's edges
    final: dict[int, int]  # transitions into a final state, by their position among them

    @classmethod
    def of(cls, t: Transducer) -> _Offsets:
        rank = [0] * len(t.transitions)
        for edges in t.by_source.values():
            for r, (j, _, _) in enumerate(edges):
                rank[j] = r
        chain_start = [0]
        for _, _, dst in t.transitions:
            chain_start.append(chain_start[-1] + len(t.by_source[dst]))
        final = [j for j, (_, _, dst) in enumerate(t.transitions) if dst in t.finals]
        return cls(tuple(chain_start), tuple(rank), {j: r for r, j in enumerate(final)})


class _VerifyRow(dict):
    """The verify states of one mode, position and tag, by transition index.
    Each is minted on its first lookup, so names keep first-mention order;
    heads holds each transition's source and label.  The name shape is
    unique by construction, so it is written without a fresh-name probe."""

    def __init__(self, names: dict[str, str], mode: str, i: int, tag: str,
                 heads: list[tuple[str, str]]):
        super().__init__()
        self.names, self.heads = names, heads
        # the parts of the name and the structured name that the row shares
        self.parts = f"{mode}_v_", f"_{i}_{tag}_t", f",{i},{tag},"

    def __missing__(self, j: int) -> str:
        (src, label), (head, mid, pretty_mid), names = self.heads[j], self.parts, self.names
        name = f"{head}{src}{mid}{j}"
        if name in names:
            raise RuntimeError(f"verify state {name!r} is minted twice")
        names[name] = f"({src}{pretty_mid}{label})"
        self[j] = name
        return name


def _by_mode(net: Tdpn) -> dict[str, Transducer]:
    return {kind: t for kind, t, _ in net.transducers()}


def compile_tdpn_to_killdcps(net: Tdpn) -> KillDcps:
    """The full five-stage system with its verify-stage kill rules, returned
    with its names, halt state and synthesis tables."""
    l, sigma, by_mode = net.width, net.alphabet, _by_mode(net)
    names: dict[str, str] = {}
    event: dict[tuple, Event] = {}
    block_start: dict[tuple, int] = {}
    offsets: dict[str, _Offsets] = {}
    mint = functools.partial(mint_name, set(sigma), names)
    lock = mint("ytop", "(lock)")
    guess_sym = mint("yguess", "(guess marker)")
    verify_sym = mint("yverify", "(verify marker)")
    bit = {
        (a, i, tag): mint(f"b{a}_{i}_{tag}", f"({a},{i},{tag})")
        for a in sigma
        for i in range(1, l + 1)
        for tag in TAGS
    }

    g_main = mint("g_main", "(main)")
    g_halt = mint("g_halt", "(halt)")
    g_init = {i: mint(f"init_{i}", f"(init,{i})") for i in range(1, l + 1)}
    g_check = {i: mint(f"check_{i}", f"(check,{i})") for i in range(1, l + 1)}
    dispatch = {m: mint(f"gguess_{m}", f"(guess,{m})") for m in MODES}
    unlock = {
        (m, tag): mint(f"{m}_unlock_1_{tag}", f"({m},unlock,1,{tag})")
        for m, tag in READ_PAIRS
    }
    read = {
        (m, i, tag): mint(f"{m}_read_{i}_{tag}", f"({m},read,{i},{tag})")
        for m, tag in READ_PAIRS
        for i in range(1, l + 1)
    }
    guess_indices = list(range(1, l + 1)) + ["toplock"]
    guess = {
        (m, i, tag): mint(f"{m}_guess_{i}_{tag}", f"({m},{i},{tag})")
        for m, tag in GUESS_PAIRS
        for i in guess_indices
    }

    w0 = net.w_init
    wf = net.w_final
    rules: list[DcpsRule] = []
    kills: list[KillRule] = []

    def rule(key: tuple, r: DcpsRule) -> None:
        event[key] = ("rule", len(rules))
        rules.append(r)

    # --- init: fill one thread with w_init, bottom letter first
    for i in range(2, l + 1):
        rule(("init", i), DcpsRule(g_init[i], w0[i - 1], g_init[i - 1], (w0[i - 2], w0[i - 1])))
    rule(("init", 1), DcpsRule(g_init[1], w0[0], g_main, (lock, w0[0])))

    # --- check: dispatch to a mode, or match w_final letter by letter
    for m in MODES:
        rule(("start", m), DcpsRule(g_main, lock, unlock[(m, "pop1")], (lock,)))
    rule(("check", 0), DcpsRule(g_main, lock, g_check[1], ()))
    for i in range(1, l):
        rule(("check", i), DcpsRule(g_check[i], wf[i - 1], g_check[i + 1], ()))
    rule(("check", l), DcpsRule(g_check[l], wf[l - 1], g_halt, ()))
    for m in MODES:
        for a in sigma:
            rule(("dispatch", m, a), DcpsRule(dispatch[m], a, guess[(m, l, "push1")], (), guess_sym))

    # --- read: unlock, then pop letters spawning position-tagged bit-threads
    for m, tag in READ_PAIRS:
        rule(("unlock", m, tag), DcpsRule(unlock[(m, tag)], lock, read[(m, 1, tag)], ()))
    for m, tag in READ_PAIRS:
        for i in range(1, l):
            for a in sigma:
                rule(
                    ("read", m, i, tag, a),
                    DcpsRule(read[(m, i, tag)], a, read[(m, i + 1, tag)], (), bit[(a, i, tag)]),
                )
    for m, tag in HANDOFF_PAIRS:
        for a in sigma:
            rule(("read", m, l, tag, a), DcpsRule(read[(m, l, tag)], a, dispatch[m], (a,), bit[(a, l, tag)]))
    for a in sigma:
        rule(
            ("read", "join", l, "pop1", a),
            DcpsRule(read[("join", l, "pop1")], a, unlock[("join", "pop2")], (), bit[(a, l, "pop1")]),
        )

    # --- guess: build the produced word bottom-up on the marker thread
    below_top = l - 1 if l > 1 else "toplock"  # below index 1 the next stop is the toplock
    for m, tag in GUESS_PAIRS:
        for a in sigma:
            rule(
                ("guess", m, l, tag, a),
                DcpsRule(guess[(m, l, tag)], guess_sym, guess[(m, below_top, tag)], (a,), bit[(a, l, tag)]),
            )
    # positions 2..l-1 step down one position; position 1 (when l >= 2) steps to the toplock
    for positions in (range(2, l), range(1, min(l, 2))):
        for m, tag in GUESS_PAIRS:
            for i in positions:
                below = guess[(m, i - 1 if i > 1 else "toplock", tag)]
                for a in sigma:
                    for c in sigma:
                        rule(
                            ("guess", m, i, tag, c, a),
                            DcpsRule(guess[(m, i, tag)], a, below, (c, a), bit[(c, i, tag)]),
                        )
    # a row of verify states per (mode, position, tag), see _VerifyRow
    verify: dict[tuple[str, int, str], _VerifyRow] = {}
    for m, roles in VERIFY_ROLES.items():
        heads = [(src, f"{src}-{''.join(w)}->{dst}") for src, w, dst in by_mode[m].transitions]
        for i in range(1, l + 1):
            for tag in roles:
                verify[m, i, tag] = _VerifyRow(names, m, i, tag, heads)
    for m, tag in VERIFY_ENTRY_PAIRS:
        t = by_mode[m]
        entry = verify[m, 1, "pop1"]
        for a in sigma:
            for j, _, _ in t.by_source[t.initial]:
                rule(
                    ("enter", m, a, j),
                    DcpsRule(guess[(m, "toplock", tag)], a, entry[j], (lock, a), verify_sym),
                )
    for a in sigma:
        rule(
            ("fork2", a),
            DcpsRule(guess[("fork", "toplock", "push1")], a, guess[("fork", l, "push2")], (lock, a), guess_sym),
        )

    # --- verify: kill matching bit-threads along a pre-committed path
    sizes: list[int] = []  # each verify block's size, in emission order

    def walk(mode: str, roles: tuple[str, ...]) -> None:
        """Kill schemas for one mode, block by block; roles maps letter
        position to tag.  Within a block kills go in offset order."""
        t = by_mode[mode]
        last = len(roles) - 1
        chain_start, _, final = offsets[mode] = _Offsets.of(t)

        def block(i: int, step: int, size: int, triples) -> None:
            # triples are (source, target, transition) in offset order; a kill takes the
            # bit of role `step` at position i off the transition, popping the marker at g_main
            block_start["verify", mode, i, step] = len(kills)
            sizes.append(size)
            victim = {a: bit[a, i, roles[step]] for a in sigma}
            kills.extend([tuple.__new__(KillRule, (source, verify_sym, target, target != g_main,
                                                   victim[label[step]]))
                          for source, target, (_, label, _) in triples])

        # a triple looks its source up before its target, so names keep first-mention order
        for step in range(last):
            for i in range(1, l):
                here, there = verify[mode, i, roles[step]], verify[mode, i, roles[step + 1]]
                block(i, step, len(t.transitions),
                      ((here[j], there[j], tr) for j, tr in enumerate(t.transitions)))
        for i in range(1, l):
            here, there = verify[mode, i, roles[last]], verify[mode, i + 1, roles[0]]
            block(i, last, chain_start[-1],
                  ((here[j], there[j2], tr) for j, tr in enumerate(t.transitions)
                   for j2, _, _ in t.by_source[tr[2]]))
        for step in range(last):
            here, there = verify[mode, l, roles[step]], verify[mode, l, roles[step + 1]]
            block(l, step, len(final), ((here[j], there[j], t.transitions[j]) for j in final))
        here = verify[mode, l, roles[last]]
        block(l, last, len(final), ((here[j], g_main, t.transitions[j]) for j in final))

    for mode, roles in VERIFY_ROLES.items():
        walk(mode, roles)

    if len(event) != len(rules):
        raise RuntimeError("two schema instances share a witness key; witness events would be ambiguous")
    # the verify blocks tile the kills in emission order, each as long as its offset range
    starts = list(block_start.values())
    if len(starts) != len(sizes) or starts[0] != 0 or any(
        end - start != size for start, end, size in zip(starts, starts[1:] + [len(kills)], sizes)
    ):
        raise RuntimeError("verify blocks do not tile the kill rules; witness events would be ambiguous")
    kill_syms = frozenset({verify_sym}) | frozenset(bit.values())
    system = Dcps(g_init[l], w0[l - 1], tuple(rules), tuple(kills), kill_syms)
    return KillDcps(net, system, names, g_halt, event, block_start, offsets, lock, guess_sym, verify_sym)


def expected_rule_counts(net: Tdpn) -> dict[str, int]:
    """Closed-form per-stage emission counts, derived from the schema tables.

    With l the width, s the alphabet size, and per transducer T: |T| its
    transition count, out(T) the out-degree of its initial state, S(T) the
    sum over transitions of the out-degree of their target, F(T) the number
    of transitions ending in a final state, and r(T) its arity:

      init   = l
      check  = l + 4 + 3s
      read   = 4 + 4sl
      guess  = 4s + 4s^2*max(0, l-2) + (4s^2 if l >= 2 else 0)
               + s*(out(move) + out(join) + out(fork)) + s
      verify = sum over T of (r(T)-1)(l-1)|T| + (l-1)S(T) + r(T)*F(T)

    The verify count is the kill-rule count; the other stages emit plain
    rules.
    """
    l = net.width
    s = len(net.alphabet)
    by_mode = _by_mode(net)

    def out_degree(t: Transducer, state: str) -> int:
        return sum(1 for src, _, _ in t.transitions if src == state)

    def verify_count(t: Transducer) -> int:
        n = len(t.transitions)
        chained = sum(out_degree(t, dst) for _, _, dst in t.transitions)
        finals = sum(1 for _, _, dst in t.transitions if dst in t.finals)
        return (t.arity - 1) * (l - 1) * n + (l - 1) * chained + t.arity * finals

    guess = 4 * s + 4 * s * s * max(0, l - 2) + (4 * s * s if l >= 2 else 0)
    guess += s * sum(out_degree(t, t.initial) for t in by_mode.values()) + s
    return {
        "init": l,
        "check": l + 4 + 3 * s,
        "read": 4 + 4 * s * l,
        "guess": guess,
        "verify": sum(verify_count(t) for t in by_mode.values()),
    }


# ---------------------------------------------------------------------------
# Witness synthesis


class CoverWitness:
    """The events of a synthesized witness, by round (see the module
    docstring).  Each distinct round is made once, on first use, and held by
    this witness alone; iterating chains the rounds into the event stream,
    and len() sums their lengths, kept from the first full pass."""

    def __init__(self, compiled: KillDcps, steps: tuple[Descriptor, ...]):
        self.compiled, self.steps, self.count = compiled, steps, None
        # each distinct round key's (index, events, needs), in first-use order
        self.made: dict[tuple, tuple[int, list[Event], tuple[Thread, ...]]] = {}
        self.make = _round_maker(compiled)

    def rounds(self) -> Iterator[tuple[int, list[Event], tuple[Thread, ...]]]:
        """Each round's (index, events, needs), as dcps.replay_rounds takes them."""
        made, make, count = self.made, self.make, 0
        for key in _round_keys(self.compiled.net, self.steps):
            if (got := made.get(key)) is None:
                got = made[key] = len(made), *make(*key)
            count += len(got[1])
            yield got
        self.count = count

    def __iter__(self) -> Iterator[Event]:
        return chain.from_iterable(events for _, events, _ in self.rounds())

    def __len__(self) -> int:
        if self.count is None:
            self.count = sum(len(events) for _, events, _ in self.rounds())
        return self.count


def synthesize_cover_witness(compiled: KillDcps, steps: tuple[Descriptor, ...]) -> CoverWitness:
    """Turn a coverability witness into a replayable event sequence.

    The exhaustive search cannot face compiled systems of realistic width
    (each round guesses a full word), but a net-level witness pins every
    choice: which token each round consumes, which words are guessed, and
    which transducer path the verifier commits to.  The resulting events
    drive the compiled system from its initial configuration to g_halt at
    SWITCH_BUDGET; replaying them is a machine check of the whole round
    trip.  Each rule or kill event is looked up by the schema key under
    which the compiler emitted it, in the tables of `compiled`.  A step
    that cannot be synthesized raises ValueError when its round is reached.
    """
    return CoverWitness(compiled, steps)


def _round_keys(net: Tdpn, steps: tuple[Descriptor, ...]) -> Iterator[tuple]:
    """Each round's key (kind, words, active): ("init", (), None), one per
    step, then ("check", (w_final,), active).  The tokens parked per word
    are counted by the one-switch rule, so a step that reads a token no
    round made raises ValueError."""
    parked: dict[str, int] = {}
    active: str | None = net.w_init

    def read(kind: str, words: tuple[str, ...]) -> tuple:
        nonlocal active
        start, reads = active, 2 if kind == "join" else 1
        for word in words[:reads]:
            if active == word:
                active = None
            elif parked.get(word):
                parked[word] -= 1
            else:
                raise ValueError(f"witness needs a token on {word!r} that was never produced")
        for word in words[reads:]:
            parked[word] = parked.get(word, 0) + 1
        return kind, words, start

    yield "init", (), None
    for kind, words in steps:
        if kind not in MODES:
            raise ValueError(f"unknown step kind {kind!r}")
        yield read(kind, words)
    yield read("check", (net.w_final,))


def _round_maker(compiled: KillDcps):
    """make(kind, words, active) -> (events, needs): a round's events, and
    the parked token threads it switches to, in order."""
    net = compiled.net
    l, lock, by_mode = net.width, compiled.lock, _by_mode(net)
    event, block, positions = compiled.event, compiled.block, range(1, l + 1)
    # rows read from the tables once per witness: per (mode, tag) the read
    # and guess events of each position by letter (a guess below l by its
    # letter and the one above), per (mode, position) the first kill of each
    # step's block, the last step's apart, as its offset differs
    reads = {(m, tag): [{a: event["read", m, i, tag, a] for a in net.alphabet} for i in positions]
             for m, tag in READ_PAIRS}
    guesses = {(m, tag): [{(c, a): event["guess", m, i, tag, c, a]
                           for c in net.alphabet for a in net.alphabet} for i in range(1, l)]
               + [{a: event["guess", m, l, tag, a] for a in net.alphabet}]
               for m, tag in GUESS_PAIRS}
    kill_rows = {m: [([block["verify", m, i, step] for step in range(len(roles) - 1)],
                      block["verify", m, i, len(roles) - 1]) for i in positions]
                 for m, roles in VERIFY_ROLES.items()}

    def make(kind: str, words: tuple[str, ...], active: str | None):
        if kind == "init":
            # boot: fill the initial token from the bottom letter upward
            return [event["init", i] for i in range(l, 0, -1)], ()
        events: list[Event] = []
        needs: list[Thread] = []

        def fire(*key) -> None:
            events.append(event[key])

        def switch_to(word: str) -> None:
            """Make a parked token on word the active thread, to be read."""
            needs.append(((lock, *word), SWITCH_BUDGET))
            events.append(("switch", needs[-1]))

        def read_token(mode: str, word: str, tag: str) -> None:
            if tag == "pop1":
                fire("start", mode)
            fire("unlock", mode, tag)
            events.extend(map(dict.__getitem__, reads[mode, tag], word))
            if (mode, tag) in HANDOFF_PAIRS:
                fire("dispatch", mode, word[l - 1])

        def guess_word(mode: str, word: str, tag: str) -> None:
            events.append(("switch", ((compiled.guess_sym,), 0)))
            row = guesses[mode, tag]
            events.append(row[l - 1][word[l - 1]])
            events.extend([row[i - 1][word[i - 1], word[i]] for i in range(l - 1, 0, -1)])

        def verify(mode: str, words: tuple[str, ...], path: tuple[int, ...]) -> None:
            fire("enter", mode, words[-1][0], path[0])
            # the capped guess is now a complete token; hand control to the verifier
            events.append(("switch", ((compiled.verify_sym,), 0)))
            chain_start, rank, final = compiled.offsets[mode]
            for i, (firsts, last_first) in enumerate(kill_rows[mode], 1):
                j = path[i - 1]
                offset = j if i < l else final[j]
                for first in firsts:
                    events.append(("kill", first + offset, 0))
                last = chain_start[j] + rank[path[i]] if i < l else offset
                events.append(("kill", last_first + last, 0))

        if active != words[0]:
            switch_to(words[0])
        if kind == "check":
            for i in range(l + 1):
                fire("check", i)
            return events, tuple(needs)
        # every word's letters index schema keys, so check the tuple before using them
        path = language(by_mode[kind], len(words[0])).get(words)
        if path is None:
            raise ValueError(f"transducer does not accept {words!r}")
        read_token(kind, words[0], "pop1")
        if kind == "join":
            switch_to(words[1])
            read_token("join", words[1], "pop2")
        if kind == "fork":
            guess_word("fork", words[1], "push1")
            fire("fork2", words[1][0])
            guess_word("fork", words[2], "push2")
        else:
            guess_word(kind, words[-1], "push1")
        verify(kind, words, path)
        return events, tuple(needs)

    return make
