"""Dynamic networks of concurrent pushdown systems under context-switch budgets.

A system has one global state shared by all threads; each thread is a stack
over a common alphabet together with a context-switch count.  One thread is
active at a time.  Rules rewrite the active thread's top symbol (pushing at
most two symbols) and may spawn one new thread; a context switch parks the
active thread, incrementing its count, and activates a pool thread whose
count is within the budget K.  Spawn counting is a global exploration flag:
spawned threads start at count 0 ("noinherit") or at the spawner's count
plus one ("inherit").

Kill extension: the alphabet may carry a designated subset of kill symbols.
A kill rule fires when the active thread's stack is exactly one kill symbol;
it removes one pool thread whose stack is exactly the designated victim
symbol (the victim's count must be within budget), resets the active
thread's count to zero, and either keeps or pops the active top.
Well-formedness keeps every kill-symbol-topped stack a singleton: rules on
kill-symbol tops push at most one kill symbol, rules on regular tops push no
kill symbols (spawning kill symbols is unrestricted).

`desugar_kill` compiles kill rules away: four plain rules and three fresh
states per kill rule, plus one marker symbol shared by all gadgets.
`compile_to_inheritance` reduces plain-semantics state reachability at
budget K to inheriting-semantics reachability of a shifted target at budget
K+2; the construction itself does not depend on K.

Threads whose stack has emptied are inert: no rule applies to them and kills
cannot target them, but they may still be switched in and out.  Canonical
configurations keep at most one empty-stack thread per switch count, which
preserves state reachability while keeping pools finite.

`_successors` yields every enabled event with the configuration it leads
to, built where the event's guard passes, from what `Dcps.buckets` holds
for the state and top.  The searches behind `reach_state` and
`reachable_states` ask it to skip each switch to a thread that could only
switch out again (a dead thread), and every switch out of a configuration
a switch first admitted.  Lemma (see `_search`): lower counts dominate
(Finkel and Schnoebelen, TCS 2001), and a switch right after a switch
ends where one switch or none would, with higher counts.  Neither pruning
is a cap: an exhausted search still certifies "no", witnesses stay
shortest, and every one replays unpruned.  `_run` replays
events on a multiset pool (thread -> copies), updated in place: it is the
one place that states each event's guard and what it does to the pool, and
`_enabled` asks it about one event on a copy.  A replay never scans for the
other enabled events.  Configurations are plain tuples in DcpsConfig's
layout, (state, (stack, count), pool): a search's pool is a canonical
sorted tuple, equal to a DcpsConfig's and a seen key, as is replay_witness's,
which `_apply` updates one event at a time; replay_final's is `_run`'s
multiset.  A DcpsConfig is built only where the API returns it.

Compiled kill systems are replayed, not searched, where the TDPN has a
witness: `tdpn2dcps` synthesizes it by round, and `replay_rounds` runs each
distinct round once.  Lemma: the semantics is monotone in the pool.  A rule
reads only the state and the active thread, a kill or switch only its own
thread, so events that apply from a pool apply, taking and giving the same
threads, with other threads added.  The exception is `_run`'s park of an
empty-stack thread, only where its count has none.  So a round is run once
per (round, state, active thread, the pool's empty-stack threads), on its
footprint: the threads it takes before it makes them, plus those empty
ones.  `replay_final`, one `_run` over the whole stream, is the tests'
oracle for the round replay.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from functools import cached_property, partial, reduce
from itertools import chain, repeat
from math import inf
from types import MappingProxyType
from typing import Iterator, NamedTuple

from snl.record import DERIVED, Record
from snl.search import Capped, Exhausted, Found, bfs
from snl.text import non_words, strip_comments

Stack = tuple[str, ...]
Thread = tuple[Stack, int]
Event = tuple
# a configuration in DcpsConfig's layout: (state, (stack, count), pool)
Config = tuple

SEMANTICS = ("noinherit", "inherit")

DEFAULT_MAX_THREADS = 32
DEFAULT_MAX_STACK = 64
DEFAULT_MAX_CONFIGS = 10**6
_NO_ROWS = MappingProxyType({})  # a state's missing rule or kill buckets


class DcpsParseError(ValueError):
    pass


class DcpsValidationError(ValueError):
    pass


class DcpsRule(NamedTuple):
    """Rewrite the active top symbol; optionally spawn one thread."""

    state: str
    top: str
    new_state: str
    push: tuple[str, ...] = ()
    spawn: str | None = None


class KillRule(NamedTuple):
    """Remove one pool thread whose stack is exactly (victim,).

    Applies only when the active stack is exactly (top,); the active
    thread's switch count resets to zero.  keep=True leaves the top in
    place, keep=False pops it.
    """

    state: str
    top: str
    new_state: str
    keep: bool
    victim: str


class Dcps(Record):
    """A thread pool, checked where it is built.

    The text format carries no declaration lines, so `states` and `symbols`
    are derived in mention order: initial first, then rule and kill
    mentions in declaration order, then any kill symbols never mentioned
    (sorted).  parse(serialize(x)) is therefore the identity.  Every name
    is a word identifier and no symbol is `eps`, the text format's empty
    push; a rule pushes at most two symbols and keeps every kill-topped
    stack a singleton; a kill's top and victim are kill symbols.  A system
    that breaks any of these raises DcpsValidationError naming each problem.
    """

    initial_state: str
    initial_symbol: str
    rules: tuple[DcpsRule, ...] = ()
    kills: tuple[KillRule, ...] = ()
    kill_syms: frozenset[str] = frozenset()
    states: tuple[str, ...] = DERIVED
    symbols: tuple[str, ...] = DERIVED

    def __post_init__(self) -> None:
        kill_syms = self.kill_syms
        states: dict[str, None] = {self.initial_state: None}
        symbols: dict[str, None] = {self.initial_symbol: None}
        problems = []
        for i, (state, top, new_state, push, spawn) in enumerate(self.rules):
            states[state] = None
            states[new_state] = None
            symbols[top] = None
            for s in push:
                symbols[s] = None
            if spawn is not None:
                symbols[spawn] = None
            if len(push) > 2:
                problems.append(f"rule {i}: pushes {len(push)} symbols (limit 2)")
            if top in kill_syms:
                if len(push) > 1 or not kill_syms.issuperset(push):
                    problems.append(f"rule {i}: kill-symbol top may push at most one kill symbol")
            elif not kill_syms.isdisjoint(push):
                problems.append(f"rule {i}: regular top must not push kill symbols")
        # the kills' tops and victims, in mention order, checked all at once
        killed: dict[str, None] = {}
        for state, top, new_state, _, victim in self.kills:
            states[state] = states[new_state] = killed[top] = killed[victim] = None
        if not kill_syms.issuperset(killed):
            for i, (_, top, _, _, victim) in enumerate(self.kills):
                for role, s in (("top", top), ("victim", victim)):
                    if s not in kill_syms:
                        problems.append(f"kill rule {i}: {role} {s!r} is not a kill symbol")
        symbols.update(killed)
        symbols.update(dict.fromkeys(sorted(kill_syms)))
        problems += non_words(chain(states, symbols))
        if "eps" in symbols:
            problems.append("symbol 'eps' is reserved for the empty push")
        if problems:
            raise DcpsValidationError("; ".join(problems))
        self.__dict__.update(states=tuple(states), symbols=tuple(symbols))

    def size(self) -> int:
        return len(self.states) + len(self.symbols) + len(self.rules) + len(self.kills)

    @cached_property
    def buckets(self) -> tuple[dict, dict]:
        """What a step reads of each rule and kill, by state, then top,
        declaration order kept: a rule's ("rule", index) event, new state,
        push and spawn; a kill's index, the victim's one-symbol stack, the
        new state and the stack the kill leaves."""
        rule_buckets: dict[str, dict[str, list[tuple]]] = {}
        kill_buckets: dict[str, dict[str, list[tuple]]] = {}
        for idx, (state, top, new_state, push, spawn) in enumerate(self.rules):
            row = ("rule", idx), new_state, push, spawn
            rule_buckets.setdefault(state, {}).setdefault(top, []).append(row)
        for idx, (state, top, new_state, keep, victim) in enumerate(self.kills):
            row = idx, (victim,), new_state, (top,) if keep else ()
            kill_buckets.setdefault(state, {}).setdefault(top, []).append(row)
        return rule_buckets, kill_buckets


make_dcps = Dcps  # the name perfbench/oracles.py builds systems by


# ---------------------------------------------------------------------------
# Operational semantics


class DcpsConfig(NamedTuple):
    """Global state, active thread, and the inactive pool (canonical)."""

    state: str
    active: Thread
    pool: tuple[Thread, ...]


def make_config(state: str, active: Thread, pool) -> DcpsConfig:
    return DcpsConfig(state, active, reduce(_insert, pool, ()))


def initial_config(system: Dcps) -> DcpsConfig:
    return DcpsConfig(system.initial_state, ((system.initial_symbol,), 0), ())


def _insert(pool: tuple[Thread, ...], thread: Thread) -> tuple[Thread, ...]:
    """Add a thread to a canonical pool; an empty-stack thread whose count
    the pool already holds is dropped."""
    pos = bisect_left(pool, thread)
    if not thread[0] and pos < len(pool) and pool[pos] == thread:
        return pool
    return pool[:pos] + (thread,) + pool[pos:]


def _remove(pool: tuple[Thread, ...], thread: Thread) -> tuple[Thread, ...]:
    """Take the (leftmost) copy of a thread out of a canonical pool."""
    pos = bisect_left(pool, thread)
    if pos == len(pool) or pool[pos] != thread:
        raise ValueError(f"{thread!r} is not in the pool")
    return pool[:pos] + pool[pos + 1 :]


def _enabled(system: Dcps, config: Config, event: Event, budget: int) -> bool:
    """Whether one event applies at config (its pool a canonical tuple):
    whether _run, on a multiset copy of the pool, accepts it (under either
    semantics: only a spawn's count depends on it)."""
    state, active, pool = config
    try:
        _run(system, (state, active, Counter(pool)), (event,), budget, "noinherit")
    except ValueError:
        return False
    return True


def _successors(system: Dcps, config: Config, budget: int, semantics: str, prune_dead: bool = False,
                arrived_by: Event | None = None) -> Iterator[tuple[Event, Config]]:
    """Unpruned, exactly the events _enabled accepts, in successor order,
    each with the configuration _apply gives for it, built where its guard
    passes.  A search (see _search) skips switches before building them:
    with prune_dead, each to a dead thread, and all of them when
    arrived_by, the event that admitted config, is a switch.

    The pool is sorted, so a kill's candidate victims are one run of
    (victim,) threads in ascending count, found by bisection, and equal
    switch entries are adjacent; the first of a run is the copy _remove
    takes.
    """
    rule_buckets, kill_buckets = system.buckets
    state, (stack, count), pool = config
    ruled, killed = rule_buckets.get(state, _NO_ROWS), kill_buckets.get(state, _NO_ROWS)
    if stack:
        top, rest = stack[0], stack[1:]
        for event, new_state, push, spawn in ruled.get(top, ()):
            if spawn is None:
                yield event, (new_state, (push + rest, count), pool)
            else:
                spawned = (spawn,), count + 1 if semantics == "inherit" else 0
                yield event, (new_state, (push + rest, count), _insert(pool, spawned))
        if not rest:
            for idx, victim, new_state, left in killed.get(top, ()):
                last = None
                for pos in range(bisect_left(pool, (victim,)), len(pool)):
                    w, j = pool[pos]
                    if w != victim or j > budget:
                        break
                    if j != last:
                        last = j
                        yield ("kill", idx, j), (new_state, (left, 0), pool[:pos] + pool[pos + 1 :])
    if arrived_by is not None and arrived_by[0] == "switch":
        return
    parked, last = (stack, count + 1), None
    for pos, entry in enumerate(pool):
        if entry[1] <= budget and entry != last:
            last, w = entry, entry[0]
            if prune_dead and (not w or w[0] not in ruled and (len(w) != 1 or w[0] not in killed)):
                continue  # a dead thread
            yield ("switch", entry), (state, entry, _insert(pool[:pos] + pool[pos + 1 :], parked))


def _apply(system: Dcps, config: Config, event: Event, semantics: str) -> Config:
    """The configuration one enabled event leads to, as a plain tuple whose
    pool is canonical: replay_witness's step, where _successors builds the
    same for every enabled event of a search."""
    state, (stack, count), pool = config
    kind = event[0]
    if kind == "rule":
        _, _, new_state, push, spawn = system.rules[event[1]]
        if spawn is not None:
            pool = _insert(pool, ((spawn,), count + 1 if semantics == "inherit" else 0))
        return new_state, (push + stack[1:], count), pool
    if kind == "kill":
        _, top, new_state, keep, victim = system.kills[event[1]]
        return new_state, ((top,) if keep else (), 0), _remove(pool, ((victim,), event[2]))
    entry = event[1]
    return state, entry, _insert(_remove(pool, entry), (stack, count + 1))


def successors(
    system: Dcps, config: DcpsConfig, budget: int, semantics: str = "noinherit"
) -> list[tuple[Event, DcpsConfig]]:
    """All one-step successors, each labeled with a replayable event.

    Events: ("rule", index), ("kill", index, victim_count),
    ("switch", (stack, count)).  Successor order is rule declaration order,
    then kill declaration order, then pool order for switches, so searches
    are deterministic.
    """
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}")
    return [(event, DcpsConfig._make(nxt))
            for event, nxt in _successors(system, config, budget, semantics)]


def _run(system: Dcps, config: Config, events, budget: int, semantics: str) -> Config:
    """Apply events from config, whose pool is a multiset (thread -> copies)
    updated in place, and return where they end: the one statement of each
    event's guard, and its effect on the multiset.

    A rule or kill needs its state and top to be the global state and the
    active top; a kill also needs a singleton active stack and a (victim,)
    pool thread of its count, a switch its pool thread, each count within
    budget.  An event that is not enabled, an index out of range or a
    malformed event too, raises ValueError naming its step.
    """
    rules, kills = system.rules, system.kills
    n_rules, n_kills = len(rules), len(kills)
    inherit = semantics == "inherit"
    state, (stack, count), pool = config
    for step, event in enumerate(events):
        kind = event[0]
        if kind == "rule":
            if len(event) == 2 and stack and 0 <= event[1] < n_rules:
                rule_state, top, new_state, push, spawn = rules[event[1]]
                if rule_state == state and top == stack[0]:
                    if spawn is not None:
                        thread = (spawn,), count + 1 if inherit else 0
                        pool[thread] = pool.get(thread, 0) + 1
                    state, stack = new_state, push + stack[1:]
                    continue
        elif kind == "kill":
            if len(event) == 3 and len(stack) == 1 and 0 <= event[1] < n_kills and event[2] <= budget:
                kill_state, top, new_state, keep, victim = kills[event[1]]
                thread = (victim,), event[2]
                if kill_state == state and top == stack[0] and thread in pool:
                    if (copies := pool.pop(thread)) > 1:
                        pool[thread] = copies - 1
                    state, stack, count = new_state, (top,) if keep else (), 0
                    continue
        elif kind == "switch":
            # membership first: a pool key is a (stack, count) pair
            if len(event) == 2 and (thread := event[1]) in pool and thread[1] <= budget:
                if (copies := pool.pop(thread)) > 1:
                    pool[thread] = copies - 1
                # an empty-stack thread is parked only if its count has none (see _insert)
                parked = stack, count + 1
                if stack or parked not in pool:
                    pool[parked] = pool.get(parked, 0) + 1
                stack, count = thread
                continue
        raise ValueError(f"witness event {event!r} does not apply at step {step}")
    return state, (stack, count), pool


def _canonical(state: str, active: Thread, pool: dict[Thread, int]) -> DcpsConfig:
    """A replayed configuration as a DcpsConfig, its pool a sorted tuple."""
    return DcpsConfig(state, active, tuple(chain.from_iterable([repeat(t, pool[t]) for t in sorted(pool)])))


def _check_run(budget: int, semantics: str) -> None:
    check_budget(budget)
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}")


def replay_witness(
    system: Dcps, witness, budget: int, semantics: str = "noinherit"
) -> list[DcpsConfig]:
    """Apply a witness event sequence from the initial configuration, each
    event checked by _enabled, and return every configuration of the run."""
    _check_run(budget, semantics)
    configs = [initial_config(system)]
    for step, event in enumerate(witness):
        if not _enabled(system, configs[-1], event, budget):
            raise ValueError(f"witness event {event!r} does not apply at step {step}")
        configs.append(DcpsConfig._make(_apply(system, configs[-1], event, semantics)))
    return configs


def replay_final(
    system: Dcps, witness, budget: int, semantics: str = "noinherit"
) -> DcpsConfig:
    """The configuration a witness ends in, every event checked as in
    replay_witness, holding one configuration at a time."""
    _check_run(budget, semantics)
    initial = system.initial_state, ((system.initial_symbol,), 0), {}
    return _canonical(*_run(system, initial, witness, budget, semantics))


def replay_rounds(system: Dcps, rounds, budget: int, semantics: str = "noinherit") -> Iterator[Config]:
    """The configuration after each (key, events, needs) of rounds, its pool
    the multiset updated in place, each distinct round run once as the module
    docstring says; needs are the threads the events take before they make
    them, the same for one key.  A round that does not apply, or whose needs
    the pool lacks, raises ValueError naming it."""
    _check_run(budget, semantics)
    state, active, pool = system.initial_state, ((system.initial_symbol,), 0), {}
    empty: frozenset[Thread] = frozenset()  # the pool's empty-stack threads, one copy each
    deltas: dict[tuple, tuple] = {}
    for n, (key, events, needs) in enumerate(rounds):
        if (delta := deltas.get((key, state, active, empty))) is None:
            need = Counter(needs)
            footprint = need | Counter({thread: pool[thread] for thread in empty})
            try:
                end, moved, after = _run(system, (state, active, footprint.copy()), events, budget, semantics)
            except ValueError as err:
                raise ValueError(f"round {n}: {err}") from None
            # per thread it needs or changes: the copies it needs, and the change
            moves = tuple((t, need[t], after[t] - footprint[t]) for t in after | footprint
                          if need[t] or after[t] != footprint[t])
            delta = deltas[key, state, active, empty] = end, moved, moves, frozenset(t for t in after if not t[0])
        state, active, moves, empty = delta
        for thread, needed, change in moves:
            if (have := pool.get(thread, 0)) < needed:
                raise ValueError(f"round {n}: the pool lacks {thread!r}")
            if left := have + change:
                pool[thread] = left
            else:
                del pool[thread]
        yield state, active, pool


class DcpsReachable(NamedTuple):
    witness: tuple[Event, ...]
    configs_explored: int


class DcpsNo(NamedTuple):
    configs_explored: int


class DcpsUnknown(NamedTuple):
    reason: str
    configs_explored: int


def check_budget(budget: int) -> None:
    """Reject a negative switch budget, under which a "no" would say nothing."""
    if budget < 0:
        raise ValueError(f"switch budget K must be at least 0, got {budget}")


def _cap_rule(max_threads: int, max_stack: int):
    """The cap a search prunes by: "max_threads" when more than max_threads
    threads have a non-empty stack, else "max_stack" when a stack is deeper
    than max_stack, else None.  Only on the configurations a search reaches:
    there a parked stack is a one-symbol spawn or initial stack, or was the
    active stack of a configuration this cap passed, so it can be too deep
    only when max_stack is 0."""

    def cap(config: Config) -> str | None:
        _, (stack, _), pool = config
        # empty stacks sort first in a canonical pool: the live threads are its
        # tail, and a pool this small cannot hold more than the cap
        n = len(pool)
        if n >= max_threads and n - bisect_left(pool, ((), inf)) + bool(stack) > max_threads:
            return "max_threads"
        # at max_stack 0, any live parked thread is too deep: the last sorted one
        if len(stack) > max_stack or not max_stack and pool and pool[-1][0]:
            return "max_stack"
        return None

    return cap


def _search(system: Dcps, budget: int, goal, max_threads: int, max_stack: int,
            max_configs: int, semantics: str):
    """Breadth-first search over canonical configurations.

    Its step never switches in a dead thread: one whose top has no rule
    in the current global state and, unless its stack is a singleton with
    a kill rule on that top, no kill either (an empty stack is dead too).
    Such a switch keeps the global state, and the thread can do nothing
    once active, so only another switch can follow.  The pair ends where
    one direct switch would (or, if it switches the parked thread back,
    where it began), only with the dead thread's count one higher (and,
    in the second case, the parked thread's).  Lower counts dominate under
    both semantics, so dropping these detours keeps the reachable
    global-state set and target reachability exactly.  It is not a cap:
    an exhausted search still certifies "no".

    Nor does a configuration that `bfs` first admitted by a switch switch
    again.  Lemma: say P switches to u into C, and C to v into D.  If v is
    the thread P parked, D is P with two counts raised; else D is P's own
    switch to v, which P generated (a switch did not admit P), with u's
    count raised.  Same state and stacks with counts no higher dominate:
    every event sequence from D applies there (a spawn or park raises the
    count it reads, a kill resets it) and reaches the same states, and the
    caps read stacks only.  The dominator is nearer the start than D, so
    BFS distances, and so witness lengths, are kept too.
    """
    _check_run(budget, semantics)

    def step(config: Config, arrived_by: Event | None):
        return _successors(system, config, budget, semantics, True, arrived_by)

    cap = _cap_rule(max_threads, max_stack)
    return bfs(initial_config(system), step, goal, max_configs, "max_configs", cap, labelled=True)


def reach_state(
    system: Dcps,
    target: str,
    budget: int,
    *,
    max_threads: int = DEFAULT_MAX_THREADS,
    max_stack: int = DEFAULT_MAX_STACK,
    max_configs: int = DEFAULT_MAX_CONFIGS,
    semantics: str = "noinherit",
):
    """Breadth-first search for a configuration whose global state is target.

    Returns DcpsReachable with a shortest event witness (verified by
    replay), DcpsNo when the canonical configuration space was exhausted
    with no cap ever pruning a successor, or DcpsUnknown naming every cap
    that interfered (comma-separated when several did).
    """
    result = _search(
        system, budget, lambda key: key[0] == target,
        max_threads, max_stack, max_configs, semantics,
    )
    if isinstance(result, Found):
        final = replay_final(system, result.labels, budget, semantics)
        if final.state != target:
            raise RuntimeError(f"witness replay ends in {final.state!r}, not {target!r}")
        return DcpsReachable(result.labels, result.explored)
    if isinstance(result, Capped):
        return DcpsUnknown(result.reason, result.explored)
    return DcpsNo(result.explored)


def reachable_states(
    system: Dcps,
    budget: int,
    *,
    max_threads: int = DEFAULT_MAX_THREADS,
    max_stack: int = DEFAULT_MAX_STACK,
    max_configs: int = DEFAULT_MAX_CONFIGS,
    semantics: str = "noinherit",
) -> tuple[frozenset[str], bool]:
    """All global states seen by the capped exploration, plus a complete flag.

    complete=True means no cap pruned anything, so the set is exactly the
    K-bounded reachable state set.
    """
    result = _search(
        system, budget, lambda config: False, max_threads, max_stack, max_configs, semantics
    )
    return frozenset(key[0] for key in result.seen), isinstance(result, Exhausted)


# ---------------------------------------------------------------------------
# Kill desugaring


def fresh_name(taken: set[str], base: str) -> str:
    name = base
    n = 2
    while name in taken:
        name = f"{base}{n}"
        n += 1
    taken.add(name)
    return name


def mint_name(taken: set[str], names: dict[str, str], base: str, pretty: str) -> str:
    """A fresh name for `base`, with its readable form recorded in `names`."""
    name = fresh_name(taken, base)
    names[name] = pretty
    return name


def desugar_kill(system: Dcps) -> Dcps:
    """Compile kill rules into plain rules.

    Per kill rule g|t -> g'|(keep/pop) kill v, three fresh states and four
    rules: mark the moment by spawning a shared marker thread, pop the top
    (the active thread goes inert), have the victim pop itself once
    activated, then resume from the marker thread at g' with switch count
    zero.  Stranded partial gadgets only ever leave inert threads behind,
    so the reachable global states within the original state set are
    unchanged.
    """
    taken = set(system.states) | set(system.symbols)
    marker = fresh_name(taken, "spawnmark")
    rules = list(system.rules)
    for i, k in enumerate(system.kills):
        g_spawn = fresh_name(taken, f"kspawn{i}")
        g_kill = fresh_name(taken, f"kkill{i}")
        g_return = fresh_name(taken, f"kreturn{i}")
        rules.append(DcpsRule(k.state, k.top, g_spawn, (k.top,), marker))
        rules.append(DcpsRule(g_spawn, k.top, g_kill, ()))
        rules.append(DcpsRule(g_kill, k.victim, g_return, ()))
        rules.append(DcpsRule(g_return, marker, k.new_state, (k.top,) if k.keep else ()))
    return Dcps(system.initial_state, system.initial_symbol, tuple(rules))


# ---------------------------------------------------------------------------
# Inheritance reduction


def _inheritance_namer(system: Dcps):
    """Deterministic fresh names for every construction ingredient."""
    names: dict[str, str] = {}
    mint = partial(mint_name, set(system.states) | set(system.symbols), names)
    boot = mint("gboot", "(boot)")
    run = {g: mint(f"run_{g}", f"({g},0)") for g in system.states}
    mid = {g: mint(f"mid_{g}", f"({g},1)") for g in system.states}
    swp = {g: mint(f"swp_{g}", f"({g},2)") for g in system.states}
    hand = {
        (g, y): mint(f"hand_{g}_{y}", f"({g},{y})")
        for g in system.states
        for y in system.symbols
    }
    boot_sym = mint("yboot", "(boot symbol)")
    dorm = mint("ydorm", "(dormant)")
    step = mint("ystep", "(step)")
    bot = mint("ybot", "(bottom)")
    cap = mint("ytop", "(lock)")
    bar = {y: mint(f"bar_{y}", f"({y} bar)") for y in system.symbols}
    return boot, run, mid, swp, hand, boot_sym, dorm, step, bot, cap, bar, names


def compile_to_inheritance(system: Dcps, g_target: str) -> tuple[Dcps, str]:
    """Reduce plain-spawn reachability to inheriting-spawn reachability.

    g_target is reachable in `system` under "noinherit" at budget K iff the
    returned target state is reachable in the returned system under
    "inherit" at budget K+2.  Requires a plain system (no kill rules).

    The compiled system pre-spawns dormant threads during a boot phase, then
    simulates the original one thread at a time: a simulated stack v lives
    as lock.v.bottom on some compiled thread; original spawns park a barred
    note that a later handoff turns into a dormant thread adopting the
    spawned symbol.  All simulated threads therefore descend from the boot
    thread, which is what makes inherited counts track the original counts
    shifted by one.
    """
    if system.kills or system.kill_syms:
        raise DcpsValidationError("inheritance reduction expects a plain system (desugar kills first)")
    if g_target not in set(system.states):
        raise DcpsValidationError(f"target state {g_target!r} not declared")
    boot, run, mid, swp, hand, boot_sym, dorm, step, bot, cap, bar, _ = _inheritance_namer(
        system
    )
    rules = [
        DcpsRule(boot, boot_sym, boot, (boot_sym,), dorm),
        DcpsRule(boot, boot_sym, boot, (), bot),
        DcpsRule(boot, bot, run[system.initial_state], (system.initial_symbol, bot)),
    ]
    for r in system.rules:
        spawned = None if r.spawn is None else bar[r.spawn]
        rules.append(DcpsRule(run[r.state], r.top, run[r.new_state], r.push, spawned))
    for g in system.states:
        for y in system.symbols + (bot,):
            rules.append(DcpsRule(run[g], y, mid[g], (cap, y), step))
    for g in system.states:
        rules.append(DcpsRule(mid[g], step, swp[g], ()))
    for g in system.states:
        rules.append(DcpsRule(swp[g], cap, run[g], ()))
    for g in system.states:
        for y in system.symbols:
            rules.append(DcpsRule(swp[g], bar[y], hand[(g, y)], ()))
    for g in system.states:
        for y in system.symbols:
            rules.append(DcpsRule(hand[(g, y)], dorm, run[g], (y, bot)))
    compiled = Dcps(boot, boot_sym, tuple(rules))
    return compiled, swp[g_target]


def inheritance_names(system: Dcps) -> dict[str, str]:
    """Mangled-name to readable-name mapping for compile_to_inheritance."""
    return _inheritance_namer(system)[-1]


def inheritance_rule_count(n_states: int, n_symbols: int, n_rules: int) -> int:
    """Closed form for the compiled rule count.

    3 boot rules, one rule per original rule, lock rules over G x (Gamma and
    bottom), one unlock and one swap-out rule per state, and handoff pairs
    over G x Gamma twice.
    """
    return 3 + n_rules + n_states * (n_symbols + 1) + 2 * n_states + 2 * n_states * n_symbols


# ---------------------------------------------------------------------------
# Text format

_STATE_RE = re.compile(r"state\s+g0\s+(\w+)\s*;\Z")
_STACKINIT_RE = re.compile(r"stackinit\s+(\w+)\s*;\Z")
_KILLSYMS_RE = re.compile(r"killsyms\s*\{([^}]*)\}\s*;\Z")
_RULE_RE = re.compile(
    r"rule\s+(\w+)\s*\|\s*(\w+)\s*->\s*(\w+)\s*\|\s*([\w.]+)(?:\s+spawn\s+(\w+))?\s*;\Z"
)
_KILL_RE = re.compile(
    r"kill\s+(\w+)\s*\|\s*(\w+)\s*->\s*(\w+)\s*\|\s*(keep|pop)\s+kill\s+(\w+)\s*;\Z"
)


def _parse_push(word: str, lineno: int) -> tuple[str, ...]:
    if word == "eps":
        return ()
    parts = word.split(".")
    if non_words(parts):
        raise DcpsParseError(f"line {lineno}: bad push word {word!r}")
    return tuple(parts)


def parse_dcps(text: str) -> Dcps:
    initial_state = None
    initial_symbol = None
    kill_syms: frozenset[str] = frozenset()
    saw_killsyms = False
    rules: list[DcpsRule] = []
    kills: list[KillRule] = []
    for lineno, line in enumerate(strip_comments(text).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if m := _STATE_RE.match(line):
            if initial_state is not None:
                raise DcpsParseError(f"line {lineno}: duplicate state line")
            initial_state = m.group(1)
        elif m := _STACKINIT_RE.match(line):
            if initial_symbol is not None:
                raise DcpsParseError(f"line {lineno}: duplicate stackinit line")
            initial_symbol = m.group(1)
        elif m := _KILLSYMS_RE.match(line):
            if saw_killsyms:
                raise DcpsParseError(f"line {lineno}: duplicate killsyms line")
            saw_killsyms = True
            names = m.group(1).split()
            if non_words(names):
                raise DcpsParseError(f"line {lineno}: bad kill symbol name")
            kill_syms = frozenset(names)
        elif m := _RULE_RE.match(line):
            state, top, new_state, word, spawn = m.groups()
            rules.append(DcpsRule(state, top, new_state, _parse_push(word, lineno), spawn))
        elif m := _KILL_RE.match(line):
            state, top, new_state, kind, victim = m.groups()
            kills.append(KillRule(state, top, new_state, kind == "keep", victim))
        else:
            raise DcpsParseError(f"line {lineno}: cannot parse {line!r}")
    if initial_state is None:
        raise DcpsParseError("missing state g0 line")
    if initial_symbol is None:
        raise DcpsParseError("missing stackinit line")
    try:
        return Dcps(initial_state, initial_symbol, tuple(rules), tuple(kills), kill_syms)
    except DcpsValidationError as exc:
        raise DcpsParseError(str(exc)) from None


def dcps_lines(system: Dcps) -> Iterator[str]:
    """The text format, one newline-terminated line at a time, so a large
    system can be written without holding its text."""
    yield f"state g0 {system.initial_state};\n"
    yield f"stackinit {system.initial_symbol};\n"
    if system.kill_syms:
        yield "killsyms { " + " ".join(sorted(system.kill_syms)) + " };\n"
    for state, top, new_state, push, spawn in system.rules:
        word = ".".join(push) if push else "eps"
        spawned = f" spawn {spawn}" if spawn is not None else ""
        yield f"rule {state}|{top} -> {new_state}|{word}{spawned};\n"
    for state, top, new_state, keep, victim in system.kills:
        kind = "keep" if keep else "pop"
        yield f"kill {state}|{top} -> {new_state}|{kind} kill {victim};\n"


def serialize_dcps(system: Dcps) -> str:
    return "".join(dcps_lines(system))
