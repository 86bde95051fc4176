"""Seeded random micro-instance generators for cross-validation tests.

Everything takes an explicit random.Random so test runs are reproducible.
Instances are deliberately tiny: the point is agreement between independent
procedures, not stress testing.
"""

import random

from snl.petri import PetriNet
from snl.transducer import Transducer


def random_pnet(rng: random.Random, max_places: int = 6, max_trans: int = 7) -> PetriNet:
    n_places = rng.randint(2, max_places)
    places = [f"p{i}" for i in range(n_places)]
    transitions = []
    for i in range(rng.randint(1, max_trans)):
        pre = frozenset(rng.sample(places, rng.randint(1, 2)))
        # mostly token-conserving so forward search spaces stay small
        post_size = rng.choice([0, 1, 1, 1, 2])
        post = frozenset(rng.sample(places, post_size))
        transitions.append((f"t{i}", pre, post))
    return PetriNet(
        tuple(places),
        tuple(transitions),
        initial=rng.choice(places),
        final=rng.choice(places),
    )


def random_transducer(
    rng: random.Random,
    arity: int,
    alphabet: tuple[str, ...] = ("0", "1"),
    max_states: int = 4,
    max_transitions: int = 8,
) -> Transducer:
    n = rng.randint(1, max_states)
    states = tuple(f"q{i}" for i in range(n))
    transitions = []
    for _ in range(rng.randint(0, max_transitions)):
        src = rng.choice(states)
        dst = rng.choice(states)
        letters = tuple(rng.choice(alphabet) for _ in range(arity))
        transitions.append((src, letters, dst))
    n_finals = rng.randint(0, n)
    finals = frozenset(rng.sample(states, n_finals))
    return Transducer(arity, alphabet, states, states[0], finals, tuple(transitions))


def brute_force_language(t: Transducer, length: int) -> set[tuple[str, ...]]:
    """Reference oracle: try every tuple of words of the given length."""
    from itertools import product

    from snl.transducer import accepts

    words = ["".join(p) for p in product(t.alphabet, repeat=length)]
    return {
        combo for combo in product(words, repeat=t.arity) if accepts(t, combo)
    }


def brute_force_successors(net, marking: dict[str, int]) -> list:
    """Reference for fire_symbolic: the full language of each kind, in move,
    fork, join walk order, keeping the tuples whose pre words are marked
    (a pre word given twice needs two tokens); each is fired by counting
    and given with its successor as a canonical marking."""
    from collections import Counter

    from snl.petri import canonical
    from snl.transducer import enumerate_accepted

    out = []
    for kind, t, pre in net.transducers():
        for words in enumerate_accepted(t, net.width):
            need = Counter(words[:pre])
            if all(marking.get(w, 0) >= c for w, c in need.items()):
                after = Counter(marking)
                after.subtract(need)
                after.update(words[pre:])
                out.append(((kind, words), canonical(after)))
    return out


def transducer_from_tuples(
    arity: int,
    alphabet: tuple[str, ...],
    tuples: list[tuple[str, ...]],
) -> Transducer:
    """A trie transducer accepting exactly the given word tuples (all of
    one common length)."""
    states = ["r"]
    transitions: list[tuple[str, tuple[str, ...], str]] = []
    finals: set[str] = set()
    index: dict[tuple[tuple[str, ...], ...], str] = {(): "r"}
    if tuples and len({tuple(map(len, combo)) for combo in tuples}) != 1:
        raise ValueError("tuples must share a common word length")
    for combo in tuples:
        length = len(combo[0])
        prefix: tuple[tuple[str, ...], ...] = ()
        for i in range(length):
            letters = tuple(w[i] for w in combo)
            nxt = prefix + (letters,)
            if nxt not in index:
                name = f"q{len(states)}"
                index[nxt] = name
                states.append(name)
                transitions.append((index[prefix], letters, name))
            prefix = nxt
        finals.add(index[prefix])
    if tuples and tuples[0][0] == "":
        finals.add("r")
    return Transducer(arity, alphabet, tuple(states), "r", frozenset(finals), tuple(transitions))


def random_tdpn(
    rng: random.Random, width: int, alphabet: tuple[str, ...] = ("0", "1"), degenerate: bool = False
):
    """A small net given by explicit tuple sets turned into tries.

    Unless `degenerate`, forks never duplicate their post words and joins
    never duplicate their pre words, so the symbolic semantics and the
    expanded net agree transition for transition.  With `degenerate`, the
    net also has a fork with equal post words and a join with equal pre
    words.
    """
    from itertools import product

    from snl.tdpn import Tdpn

    words = ["".join(p) for p in product(alphabet, repeat=width)]

    def pick_pairs(n):
        return [tuple(rng.choices(words, k=2)) for _ in range(n)]

    def pick_triples(n, distinct):
        out = []
        for _ in range(n):
            a, b, c = rng.choices(words, k=3)
            if distinct == "post" and b == c:
                c = rng.choice([w for w in words if w != b]) if len(words) > 1 else c
            if distinct == "pre" and a == b:
                b = rng.choice([w for w in words if w != a]) if len(words) > 1 else b
            out.append((a, b, c))
        return out

    moves = pick_pairs(rng.randint(1, 4))
    forks = [t for t in pick_triples(rng.randint(0, 2), "post") if t[1] != t[2]]
    joins = [t for t in pick_triples(rng.randint(0, 2), "pre") if t[0] != t[1]]
    if degenerate:
        a, b, c = rng.choices(words, k=3)
        forks.append((a, b, b))
        joins.append((b, b, c))
    return Tdpn(
        width,
        alphabet,
        rng.choice(words),
        rng.choice(words),
        transducer_from_tuples(2, alphabet, moves),
        transducer_from_tuples(3, alphabet, forks),
        transducer_from_tuples(3, alphabet, joins),
    )


def random_kill_dcps(rng: random.Random):
    """Random well-formed micro system with kill rules.

    Kill symbols only ever enter stacks as spawned singletons or via
    kill-top pushes, so every kill-topped thread is a stack singleton.
    """
    from snl.dcps import Dcps, DcpsRule, KillRule

    states = [f"g{i}" for i in range(rng.randint(2, 4))]
    regular = [f"a{i}" for i in range(rng.randint(1, 2))]
    kill = [f"v{i}" for i in range(rng.randint(1, 2))]
    rules = []
    for i in range(rng.randint(2, 6)):
        src, dst = rng.choice(states), rng.choice(states)
        top = rng.choice(regular + kill)
        if top in kill:
            push = rng.choice([(), (rng.choice(kill),)])
        else:
            depth = rng.choice([0, 1, 1, 2])
            push = tuple(rng.choice(regular) for _ in range(depth))
        spawn = rng.choice([None, None] + kill + regular)
        rules.append(DcpsRule(src, top, dst, push, spawn))
    kills = []
    for _ in range(rng.randint(1, 2)):
        kills.append(
            KillRule(
                rng.choice(states),
                rng.choice(kill),
                rng.choice(states),
                rng.choice([True, False]),
                rng.choice(kill),
            )
        )
    # sometimes start on a kill symbol: allowed, the stack starts a singleton
    init_sym = rng.choice(regular + regular + kill)
    return Dcps(states[0], init_sym, tuple(rules), tuple(kills), frozenset(kill))


def random_firing_kill_dcps(rng: random.Random):
    """Random well-formed micro system whose kill rules fire.

    The initial thread walks a spine of regular rules g0 -> g1 -> ...,
    each spawning a kill-symbol thread.  A kill rule sits on a spine state
    past two spawns and takes two of the threads spawned so far as its top
    and victim, so switching one in lets it kill the other.  Kills mostly
    lead to h-states, which no spine rule reaches.
    """
    from snl.dcps import Dcps, DcpsRule, KillRule

    spine = [f"g{i}" for i in range(rng.randint(3, 4))]
    after = [f"h{i}" for i in range(rng.randint(2, 3))]
    regular = [f"a{i}" for i in range(rng.randint(1, 2))]
    kill = [f"v{i}" for i in range(rng.randint(1, 2))]
    spawned = [rng.choice(kill) for _ in spine[1:]]
    rules = [
        DcpsRule(src, regular[0], dst, (regular[0],), v)
        for src, dst, v in zip(spine, spine[1:], spawned)
    ]
    for _ in range(rng.randint(1, 3)):
        # a kill-symbol top may push at most one kill symbol, a regular top none
        top = rng.choice(regular + kill)
        push = rng.choice([(), (rng.choice(kill),)]) if top in kill else (rng.choice(regular),)
        spawn = rng.choice([None, None] + kill)
        rules.append(DcpsRule(rng.choice(after), top, rng.choice(spine + after), push, spawn))
    kills = []
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(2, len(spine) - 1)
        top, victim = rng.sample(spawned[:at], 2)
        target = rng.choice(after + after + spine)
        kills.append(KillRule(spine[at], top, target, rng.choice([True, False]), victim))
    return Dcps(spine[0], regular[0], tuple(rules), tuple(kills), frozenset(kill))


def random_plain_dcps(rng: random.Random):
    """Random micro system without kill rules, for the spawn-count reduction.

    Pushes are kept short so compiled stacks stay shallow and capped
    explorations exhaust quickly.
    """
    from snl.dcps import Dcps, DcpsRule

    states = [f"g{i}" for i in range(rng.randint(2, 3))]
    symbols = [f"a{i}" for i in range(rng.randint(1, 3))]
    rules = []
    for _ in range(rng.randint(2, 5)):
        src, dst = rng.choice(states), rng.choice(states)
        top = rng.choice(symbols)
        push = tuple(rng.choice(symbols) for _ in range(rng.choice([0, 1, 1])))
        spawn = rng.choice([None, None, None] + symbols)
        rules.append(DcpsRule(src, top, dst, push, spawn))
    return Dcps(states[0], rng.choice(symbols), tuple(rules))


def tiny_rnps():
    """Three depth-2 net programs: one halts, one gets stuck, one recurses."""
    from snl.rnp import Call, Dec, Halt, Inc, Proc, Return, Rnp

    halting = Rnp(
        max_depth=2,
        main=(Inc("l1", "x"), Dec("l2", "x"), Halt("l3")),
        procs=(),
    )
    stuck = Rnp(
        max_depth=2,
        main=(Call("l1", "p"), Dec("l2", "x"), Halt("l3")),
        procs=(Proc("p", (Return("u1"),), (Return("v1"),)),),
    )
    recursive = Rnp(
        max_depth=2,
        main=(Inc("l1", "x"), Call("l2", "p"), Halt("l3")),
        procs=(Proc("p", (Dec("u1", "x"), Return("u2")), (Return("v1"),)),),
    )
    return [("halting", halting), ("stuck", stuck), ("recursive", recursive)]


def random_rnp(rng: random.Random):
    """Random depth-2 net program over one or two counters and one procedure
    whose first body may call it again."""
    from snl.rnp import Call, Dec, GotoOr, Halt, Inc, Proc, Return, Rnp

    variables = ["x", "y"][: rng.randint(1, 2)]

    def body(prefix, length, last, may_call):
        labels = [f"{prefix}{i}" for i in range(length)]
        out = []
        for label in labels[:-1]:
            kind = rng.choice(("inc", "dec", "or", "call") if may_call else ("inc", "dec", "or"))
            if kind == "inc":
                out.append(Inc(label, rng.choice(variables)))
            elif kind == "dec":
                out.append(Dec(label, rng.choice(variables)))
            elif kind == "call":
                out.append(Call(label, "p"))
            else:
                out.append(GotoOr(label, rng.choice(labels), rng.choice(labels)))
        out.append(last(labels[-1]))
        return tuple(out)

    proc = Proc("p", body("u", rng.randint(2, 4), Return, True),
                body("v", rng.randint(1, 3), Return, False))
    return Rnp(2, body("m", rng.randint(3, 7), Halt, True), (proc,))
