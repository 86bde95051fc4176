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
thread undergoing at most one context switch, so coverability of the TDPN
matches g_halt reachability at switch budget 1.

Emission is stage order (init, check, read, guess, verify), schema order
within a stage, and index/letter order within a schema, so compiled systems
are byte-stable.  All verify schemas are kill rules; everything else is a
plain rule.  States that no rule mentions are not emitted.
"""

from __future__ import annotations

import functools
from collections import Counter

from snl.dcps import Dcps, DcpsRule, Event, KillRule, fresh_name, make_dcps, validate_dcps
from snl.tdpn import Descriptor, Tdpn, validate_tdpn
from snl.transducer import Transducer, accepted_rows

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


class _Builder:
    def __init__(self, net: Tdpn):
        self.net = net
        self.l = net.width
        self.sigma = net.alphabet
        self.taken = set(net.alphabet)
        self.names: dict[str, str] = {}
        self.by_mode = {"move": net.t_move, "join": net.t_join, "fork": net.t_fork}
        self._verify: dict[tuple[str, object, str, int], str] = {}

    def mint(self, base: str, pretty: str) -> str:
        name = fresh_name(self.taken, base)
        self.names[name] = pretty
        return name

    @staticmethod
    def guess_after(index: int):
        # below index 1 the next stop is the toplock
        return index - 1 if index > 1 else "toplock"

    def verify_state(self, mode: str, index, tag: str, tr_idx: int) -> str:
        key = (mode, index, tag, tr_idx)
        if key not in self._verify:
            src, letters, dst = self.by_mode[mode].transitions[tr_idx]
            pretty = f"({src},{index},{tag},{src}-{''.join(letters)}->{dst})"
            self._verify[key] = self.mint(f"{mode}_v_{src}_{index}_{tag}_t{tr_idx}", pretty)
        return self._verify[key]


@functools.lru_cache(maxsize=16)
def _construction(net: Tdpn) -> _Builder:
    validate_tdpn(net)
    b = _Builder(net)
    l, sigma = b.l, b.sigma

    lock = b.lock = b.mint("ytop", "(lock)")
    guess_sym = b.guess_sym = b.mint("yguess", "(guess marker)")
    verify_sym = b.verify_sym = b.mint("yverify", "(verify marker)")
    bit = b.bit = {
        (a, i, tag): b.mint(f"b{a}_{i}_{tag}", f"({a},{i},{tag})")
        for a in sigma
        for i in range(1, l + 1)
        for tag in TAGS
    }

    g_main = b.g_main = b.mint("g_main", "(main)")
    g_halt = b.g_halt = b.mint("g_halt", "(halt)")
    g_init = b.g_init = {i: b.mint(f"init_{i}", f"(init,{i})") for i in range(1, l + 1)}
    g_check = b.g_check = {i: b.mint(f"check_{i}", f"(check,{i})") for i in range(1, l + 1)}
    dispatch = b.dispatch = {m: b.mint(f"gguess_{m}", f"(guess,{m})") for m in MODES}
    unlock = b.unlock = {
        (m, tag): b.mint(f"{m}_unlock_1_{tag}", f"({m},unlock,1,{tag})")
        for m, tag in READ_PAIRS
    }
    read = b.read = {
        (m, i, tag): b.mint(f"{m}_read_{i}_{tag}", f"({m},read,{i},{tag})")
        for m, tag in READ_PAIRS
        for i in range(1, l + 1)
    }
    guess_indices = list(range(1, l + 1)) + ["toplock"]
    guess = b.guess = {
        (m, i, tag): b.mint(f"{m}_guess_{i}_{tag}", f"({m},{i},{tag})")
        for m, tag in GUESS_PAIRS
        for i in guess_indices
    }

    guess_after = b.guess_after

    w0 = net.w_init
    wf = net.w_final
    rules: list[DcpsRule] = []
    kills: list[KillRule] = []

    # --- init: fill one thread with w_init, bottom letter first
    for i in range(2, l + 1):
        rules.append(DcpsRule(g_init[i], w0[i - 1], g_init[i - 1], (w0[i - 2], w0[i - 1])))
    rules.append(DcpsRule(g_init[1], w0[0], g_main, (lock, w0[0])))

    # --- check: dispatch to a mode, or match w_final letter by letter
    for m in MODES:
        rules.append(DcpsRule(g_main, lock, unlock[(m, "pop1")], (lock,)))
    rules.append(DcpsRule(g_main, lock, g_check[1], ()))
    for i in range(1, l):
        rules.append(DcpsRule(g_check[i], wf[i - 1], g_check[i + 1], ()))
    rules.append(DcpsRule(g_check[l], wf[l - 1], g_halt, ()))
    for m in MODES:
        for a in sigma:
            rules.append(
                DcpsRule(dispatch[m], a, guess[(m, l, "push1")], (), guess_sym)
            )

    # --- read: unlock, then pop letters spawning position-tagged bit-threads
    for m, tag in READ_PAIRS:
        rules.append(DcpsRule(unlock[(m, tag)], lock, read[(m, 1, tag)], ()))
    for m, tag in READ_PAIRS:
        for i in range(1, l):
            for a in sigma:
                rules.append(
                    DcpsRule(read[(m, i, tag)], a, read[(m, i + 1, tag)], (), bit[(a, i, tag)])
                )
    for m, tag in HANDOFF_PAIRS:
        for a in sigma:
            rules.append(
                DcpsRule(read[(m, l, tag)], a, dispatch[m], (a,), bit[(a, l, tag)])
            )
    for a in sigma:
        rules.append(
            DcpsRule(read[("join", l, "pop1")], a, unlock[("join", "pop2")], (), bit[(a, l, "pop1")])
        )

    # --- guess: build the produced word bottom-up on the marker thread
    for m, tag in GUESS_PAIRS:
        for a in sigma:
            rules.append(
                DcpsRule(guess[(m, l, tag)], guess_sym, guess[(m, guess_after(l), tag)], (a,), bit[(a, l, tag)])
            )
    for m, tag in GUESS_PAIRS:
        for i in range(2, l):
            for a in sigma:
                for c in sigma:
                    rules.append(
                        DcpsRule(guess[(m, i, tag)], a, guess[(m, i - 1, tag)], (c, a), bit[(c, i, tag)])
                    )
    if l >= 2:
        for m, tag in GUESS_PAIRS:
            for a in sigma:
                for c in sigma:
                    rules.append(
                        DcpsRule(guess[(m, 1, tag)], a, guess[(m, "toplock", tag)], (c, a), bit[(c, 1, tag)])
                    )
    for m, tag in VERIFY_ENTRY_PAIRS:
        t = b.by_mode[m]
        for a in sigma:
            for j, _, _ in t.by_source[t.initial]:
                rules.append(
                    DcpsRule(
                        guess[(m, "toplock", tag)], a, b.verify_state(m, 1, "pop1", j), (lock, a), verify_sym
                    )
                )
    for a in sigma:
        rules.append(
            DcpsRule(guess[("fork", "toplock", "push1")], a, guess[("fork", l, "push2")], (lock, a), guess_sym)
        )

    # --- verify: kill matching bit-threads along a pre-committed path
    def walk(mode: str, roles: tuple[str, ...]):
        """Kill schemas for one mode; roles maps letter position to tag."""
        t = b.by_mode[mode]
        last = len(roles) - 1
        for step in range(last):
            for i in range(1, l):
                for j, (_, letters, _) in enumerate(t.transitions):
                    kills.append(
                        KillRule(
                            b.verify_state(mode, i, roles[step], j),
                            verify_sym,
                            b.verify_state(mode, i, roles[step + 1], j),
                            True,
                            bit[(letters[step], i, roles[step])],
                        )
                    )
        for i in range(1, l):
            for j, (_, letters, dst) in enumerate(t.transitions):
                for j2, _, _ in t.by_source[dst]:
                    kills.append(
                        KillRule(
                            b.verify_state(mode, i, roles[last], j),
                            verify_sym,
                            b.verify_state(mode, i + 1, roles[0], j2),
                            True,
                            bit[(letters[last], i, roles[last])],
                        )
                    )
        for step in range(last):
            for j, (_, letters, dst) in enumerate(t.transitions):
                if dst not in t.finals:
                    continue
                kills.append(
                    KillRule(
                        b.verify_state(mode, l, roles[step], j),
                        verify_sym,
                        b.verify_state(mode, l, roles[step + 1], j),
                        True,
                        bit[(letters[step], l, roles[step])],
                    )
                )
        for j, (_, letters, dst) in enumerate(t.transitions):
            if dst not in t.finals:
                continue
            kills.append(
                KillRule(
                    b.verify_state(mode, l, roles[last], j),
                    verify_sym,
                    g_main,
                    False,
                    bit[(letters[last], l, roles[last])],
                )
            )

    walk("move", ("pop1", "push1"))
    walk("join", ("pop1", "pop2", "push1"))
    walk("fork", ("pop1", "push1", "push2"))

    kill_syms = frozenset({verify_sym}) | frozenset(bit.values())
    b.system = make_dcps(g_init[l], w0[l - 1], tuple(rules), tuple(kills), kill_syms)
    validate_dcps(b.system)
    b.rule_idx = {rule: i for i, rule in enumerate(b.system.rules)}
    b.kill_idx = {kill: i for i, kill in enumerate(b.system.kills)}
    if len(b.rule_idx) != len(b.system.rules):
        raise RuntimeError("compiled system repeats a rule; witness events would be ambiguous")
    if len(b.kill_idx) != len(b.system.kills):
        raise RuntimeError("compiled system repeats a kill rule; witness events would be ambiguous")
    return b


def compile_tdpn_to_killdcps(net: Tdpn) -> Dcps:
    """The full five-stage system with its verify-stage kill rules."""
    return _construction(net).system


def killdcps_names(net: Tdpn) -> dict[str, str]:
    """Identifier-to-structured-name mapping for the compiled system."""
    return dict(_construction(net).names)


def halt_state(net: Tdpn) -> str:
    """Name of the accepting control state in the compiled system."""
    return _construction(net).g_halt


def compile_tdpn_to_dcps(net: Tdpn) -> tuple[Dcps, str]:
    """Compile and desugar the kills away; returns the system and g_halt."""
    from snl.dcps import desugar_kill

    b = _construction(net)
    return desugar_kill(b.system), b.g_halt


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
    by_mode = {"move": net.t_move, "join": net.t_join, "fork": net.t_fork}

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


def synthesize_cover_witness(net: Tdpn, steps: tuple[Descriptor, ...]) -> tuple[Event, ...]:
    """Turn a coverability witness into a replayable event sequence.

    The exhaustive search cannot face compiled systems of realistic width
    (each round guesses a full word), but a net-level witness pins every
    choice: which token each round consumes, which words are guessed, and
    which transducer path the verifier commits to.  The resulting event
    list drives the compiled system from its initial configuration to
    g_halt at switch budget 1; replaying it is a machine check of the
    whole round trip.
    """
    b = _construction(net)
    l = b.l
    lock = b.lock
    events: list[Event] = []
    pool: Counter = Counter()  # live parked tokens as (word, switch count)
    active_word: str | None = net.w_init
    active_count = 0

    def rule(r: DcpsRule) -> None:
        events.append(("rule", b.rule_idx[r]))

    def kill(k: KillRule) -> None:
        events.append(("kill", b.kill_idx[k], 0))

    def park_and_switch(stack: tuple[str, ...], count: int) -> None:
        nonlocal active_word
        if active_word is not None:
            pool[(active_word, active_count + 1)] += 1
        active_word = None
        events.append(("switch", (stack, count)))

    def activate(word: str) -> None:
        nonlocal active_word, active_count
        if active_word == word:
            return
        counts = sorted(c for (w, c), n in pool.items() if w == word and n > 0)
        if not counts:
            raise ValueError(f"witness needs a token on {word!r} that was never produced")
        pool[(word, counts[0])] -= 1
        park_and_switch((lock,) + tuple(word), counts[0])
        active_word, active_count = word, counts[0]

    def read_token(mode: str, word: str, tag: str) -> None:
        nonlocal active_word
        if tag == "pop1":
            rule(DcpsRule(b.g_main, lock, b.unlock[(mode, "pop1")], (lock,)))
        rule(DcpsRule(b.unlock[(mode, tag)], lock, b.read[(mode, 1, tag)], ()))
        for i in range(1, l):
            a = word[i - 1]
            rule(DcpsRule(b.read[(mode, i, tag)], a, b.read[(mode, i + 1, tag)], (), b.bit[(a, i, tag)]))
        last = word[l - 1]
        if mode == "join" and tag == "pop1":
            rule(DcpsRule(b.read[("join", l, "pop1")], last, b.unlock[("join", "pop2")], (), b.bit[(last, l, "pop1")]))
        else:
            rule(DcpsRule(b.read[(mode, l, tag)], last, b.dispatch[mode], (last,), b.bit[(last, l, tag)]))
            rule(DcpsRule(b.dispatch[mode], last, b.guess[(mode, l, "push1")], (), b.guess_sym))
        active_word = None

    def guess_word(mode: str, word: str, tag: str) -> None:
        nonlocal active_word, active_count
        rule(DcpsRule(b.guess[(mode, l, tag)], b.guess_sym, b.guess[(mode, b.guess_after(l), tag)], (word[l - 1],), b.bit[(word[l - 1], l, tag)]))
        for i in range(l - 1, 0, -1):
            top = word[i]
            rule(DcpsRule(b.guess[(mode, i, tag)], top, b.guess[(mode, b.guess_after(i), tag)], (word[i - 1], top), b.bit[(word[i - 1], i, tag)]))
        active_word, active_count = word, 0

    def verify(mode: str, words: tuple[str, ...], roles: tuple[str, ...]) -> None:
        rows = accepted_rows(b.by_mode[mode], len(words[0]), words[0])
        path = next((p for p, accepted in rows if accepted == words), None)
        if path is None:
            raise ValueError(f"transducer does not accept {words!r}")
        entry = b.verify_state(mode, 1, "pop1", path[0])
        rule(DcpsRule(b.guess[(mode, "toplock", roles[-1])], words[-1][0], entry, (lock, words[-1][0]), b.verify_sym))
        # the capped guess is now a complete token; hand control to the verifier
        nonlocal active_word, active_count
        active_word, active_count = words[-1], 0
        park_and_switch((b.verify_sym,), 0)
        last = len(roles) - 1
        for i in range(1, l + 1):
            j = path[i - 1]
            for step in range(last):
                kill(KillRule(
                    b.verify_state(mode, i, roles[step], j),
                    b.verify_sym,
                    b.verify_state(mode, i, roles[step + 1], j),
                    True,
                    b.bit[(words[step][i - 1], i, roles[step])],
                ))
            if i < l:
                kill(KillRule(
                    b.verify_state(mode, i, roles[last], j),
                    b.verify_sym,
                    b.verify_state(mode, i + 1, roles[0], path[i]),
                    True,
                    b.bit[(words[last][i - 1], i, roles[last])],
                ))
            else:
                kill(KillRule(
                    b.verify_state(mode, l, roles[last], j),
                    b.verify_sym,
                    b.g_main,
                    False,
                    b.bit[(words[last][l - 1], l, roles[last])],
                ))

    # boot: fill the initial token from the bottom letter upward
    w0 = net.w_init
    for i in range(l, 1, -1):
        rule(DcpsRule(b.g_init[i], w0[i - 1], b.g_init[i - 1], (w0[i - 2], w0[i - 1])))
    rule(DcpsRule(b.g_init[1], w0[0], b.g_main, (lock, w0[0])))

    for kind, words in steps:
        if kind == "move":
            w_in, w_out = words
            activate(w_in)
            read_token("move", w_in, "pop1")
            park_and_switch((b.guess_sym,), 0)
            guess_word("move", w_out, "push1")
            verify("move", (w_in, w_out), ("pop1", "push1"))
        elif kind == "join":
            w_a, w_b, w_out = words
            activate(w_a)
            read_token("join", w_a, "pop1")
            activate(w_b)
            read_token("join", w_b, "pop2")
            park_and_switch((b.guess_sym,), 0)
            guess_word("join", w_out, "push1")
            verify("join", (w_a, w_b, w_out), ("pop1", "pop2", "push1"))
        elif kind == "fork":
            w_in, w_one, w_two = words
            activate(w_in)
            read_token("fork", w_in, "pop1")
            park_and_switch((b.guess_sym,), 0)
            guess_word("fork", w_one, "push1")
            rule(DcpsRule(b.guess[("fork", "toplock", "push1")], w_one[0], b.guess[("fork", l, "push2")], (lock, w_one[0]), b.guess_sym))
            active_word, active_count = w_one, 0
            park_and_switch((b.guess_sym,), 0)
            guess_word("fork", w_two, "push2")
            verify("fork", (w_in, w_one, w_two), ("pop1", "push1", "push2"))
        else:
            raise ValueError(f"unknown step kind {kind!r}")

    activate(net.w_final)
    rule(DcpsRule(b.g_main, lock, b.g_check[1], ()))
    wf = net.w_final
    for i in range(1, l):
        rule(DcpsRule(b.g_check[i], wf[i - 1], b.g_check[i + 1], ()))
    rule(DcpsRule(b.g_check[l], wf[l - 1], b.g_halt, ()))
    return tuple(events)
