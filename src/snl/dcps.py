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

The searches behind `reach_state` and `reachable_states` never switch in a
thread that could only switch out again (a dead thread, see `_search`).
That pruning is exact, not a cap: an exhausted search still certifies "no",
and every witness it finds replays under the unpruned semantics.  A replay
checks each event by its own guard (`_enabled`) and never scans for the
other enabled events.  Both hold plain tuples in DcpsConfig's layout,
(state, (stack, count), pool): a search's pool is a canonical sorted tuple,
equal to a DcpsConfig's and a seen key, a replay's a multiset (thread ->
copies) updated in place.  A DcpsConfig is built only where the API returns it.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, repeat
from math import inf
from operator import itemgetter
from typing import Iterator, NamedTuple

from snl.search import Capped, Exhausted, Found, bfs
from snl.text import strip_comments

Stack = tuple[str, ...]
Thread = tuple[Stack, int]
Event = tuple
# a configuration in DcpsConfig's layout: (state, (stack, count), pool)
Config = tuple

SEMANTICS = ("noinherit", "inherit")

DEFAULT_MAX_THREADS = 32
DEFAULT_MAX_STACK = 64
DEFAULT_MAX_CONFIGS = 10**6


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


@dataclass(frozen=True)
class Dcps:
    states: tuple[str, ...]
    symbols: tuple[str, ...]
    initial_state: str
    initial_symbol: str
    rules: tuple[DcpsRule, ...]
    kills: tuple[KillRule, ...] = ()
    kill_syms: frozenset[str] = frozenset()

    def size(self) -> int:
        return len(self.states) + len(self.symbols) + len(self.rules) + len(self.kills)

    @cached_property
    def buckets(self) -> tuple[dict, dict]:
        """Rule indices and (index, kill rule) pairs by (state, top),
        declaration order kept."""
        rule_buckets: dict[tuple[str, str], list[int]] = {}
        kill_buckets: dict[tuple[str, str], list[tuple[int, KillRule]]] = {}
        for idx, r in enumerate(self.rules):
            rule_buckets.setdefault((r.state, r.top), []).append(idx)
        for idx, k in enumerate(self.kills):
            kill_buckets.setdefault((k.state, k.top), []).append((idx, k))
        return rule_buckets, kill_buckets


def make_dcps(
    initial_state: str,
    initial_symbol: str,
    rules: tuple[DcpsRule, ...] = (),
    kills: tuple[KillRule, ...] = (),
    kill_syms: frozenset[str] = frozenset(),
) -> Dcps:
    """Build a system with states/symbols derived in mention order.

    The text format carries no declaration lines, so the state and symbol
    tuples are always reconstructed the same way: initial first, then rule
    mentions in declaration order, then any kill symbols never mentioned by
    a rule (sorted).  Compilers build their outputs through this factory so
    parse(serialize(x)) is the identity.
    """
    rules = tuple(rules)
    kills = tuple(kills)
    kill_syms = frozenset(kill_syms)
    states: dict[str, None] = {initial_state: None}
    symbols: dict[str, None] = {initial_symbol: None}
    for r in rules:
        states.setdefault(r.state)
        states.setdefault(r.new_state)
        symbols.setdefault(r.top)
        for s in r.push:
            symbols.setdefault(s)
        if r.spawn is not None:
            symbols.setdefault(r.spawn)
    for k in kills:
        states.setdefault(k.state)
        states.setdefault(k.new_state)
        symbols.setdefault(k.top)
        symbols.setdefault(k.victim)
    for s in sorted(kill_syms):
        symbols.setdefault(s)
    return Dcps(
        tuple(states), tuple(symbols), initial_state, initial_symbol, rules, kills, kill_syms
    )


_NAME_RE = re.compile(r"\w+\Z")


def validate_dcps(system: Dcps) -> None:
    problems = []
    state_set = set(system.states)
    sym_set = set(system.symbols)
    if len(state_set) != len(system.states):
        problems.append("duplicate states")
    if len(sym_set) != len(system.symbols):
        problems.append("duplicate symbols")
    if not all(map(_NAME_RE.match, chain(system.states, system.symbols))):
        for name in chain(system.states, system.symbols):
            if not _NAME_RE.match(name):
                problems.append(f"name {name!r} is not a word identifier")
    if system.initial_state not in state_set:
        problems.append(f"initial state {system.initial_state!r} not declared")
    if system.initial_symbol not in sym_set:
        problems.append(f"initial symbol {system.initial_symbol!r} not declared")
    if not system.kill_syms <= sym_set:
        extra = sorted(system.kill_syms - sym_set)
        problems.append(f"kill symbols {extra} not declared")
    kill_syms = system.kill_syms

    def at(where: str, i: int, problem: str) -> None:
        problems.append(f"{where} {i}: {problem}")

    for i, (state, top, new_state, push, spawn) in enumerate(system.rules):
        if len(push) > 2:
            at("rule", i, f"pushes {len(push)} symbols (limit 2)")
        for role, name in (("state", state), ("target state", new_state)):
            if name not in state_set:
                at("rule", i, f"{role} {name!r} not declared")
        for s in (top, *push) if spawn is None else (top, *push, spawn):
            if s not in sym_set:
                at("rule", i, f"symbol {s!r} not declared")
        if top in kill_syms:
            # kill-topped stacks must stay singletons
            if len(push) > 1 or any(s not in kill_syms for s in push):
                at("rule", i, "kill-symbol top may push at most one kill symbol")
        elif any(s in kill_syms for s in push):
            at("rule", i, "regular top must not push kill symbols")
    # field by field first (state, top, target, keep, victim); the per-kill
    # loop only words the problems
    def column(field: int):
        return map(itemgetter(field), system.kills)

    if not (state_set.issuperset(column(0)) and state_set.issuperset(column(2))
            and kill_syms.issuperset(column(1)) and kill_syms.issuperset(column(4))):
        for i, (state, top, new_state, _, victim) in enumerate(system.kills):
            for role, name in (("state", state), ("target state", new_state)):
                if name not in state_set:
                    at("kill rule", i, f"{role} {name!r} not declared")
            for role, s in (("top", top), ("victim", victim)):
                if s not in kill_syms:
                    at("kill rule", i, f"{role} {s!r} is not a kill symbol")
    if problems:
        raise DcpsValidationError("; ".join(problems))


# ---------------------------------------------------------------------------
# Operational semantics


class DcpsConfig(NamedTuple):
    """Global state, active thread, and the inactive pool (canonical)."""

    state: str
    active: Thread
    pool: tuple[Thread, ...]


def _canon_pool(entries) -> tuple[Thread, ...]:
    live = []
    corpse_counts = set()
    for w, j in entries:
        if w:
            live.append((w, j))
        else:
            corpse_counts.add(j)
    live.extend(((), j) for j in corpse_counts)
    return tuple(sorted(live))


def make_config(state: str, active: Thread, pool) -> DcpsConfig:
    return DcpsConfig(state, active, _canon_pool(pool))


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


def _add(pool: dict[Thread, int], thread: Thread) -> dict[Thread, int]:
    """_insert on a multiset pool (thread -> copies), in place."""
    if thread[0] or thread not in pool:
        pool[thread] = pool.get(thread, 0) + 1
    return pool


def _take(pool: dict[Thread, int], thread: Thread) -> dict[Thread, int]:
    """_remove on a multiset pool, in place: the last copy takes the key."""
    if (copies := pool.pop(thread)) > 1:
        pool[thread] = copies - 1
    return pool


def _enabled(system: Dcps, config: Config, event: Event, budget: int) -> bool:
    """Whether one event applies at config: the one place that says so;
    _apply says what it does.

    A rule or kill needs its state and top to be the global state and the
    active top; a kill also needs a singleton active stack and a (victim,)
    pool thread of its count, a switch its pool thread, each count within
    budget.  Anything else, an index out of range too, is not enabled.
    """
    state, (stack, _), pool = config
    match event:
        case ("rule", idx) if stack and 0 <= idx < len(system.rules):
            r = system.rules[idx]
            return r.state == state and r.top == stack[0]
        case ("kill", idx, j) if len(stack) == 1 and 0 <= idx < len(system.kills) and j <= budget:
            k = system.kills[idx]
            return k.state == state and k.top == stack[0] and ((k.victim,), j) in pool
        case ("switch", (_, j) as entry):
            return j <= budget and entry in pool
    return False


def _events(
    system: Dcps,
    config: Config,
    budget: int,
    *,
    skip_dead_switch: bool = False,
) -> Iterator[Event]:
    """Exactly the events _enabled accepts, in successor order.

    The pool is sorted, so a kill's candidate victims are one run of
    (victim,) threads in ascending count, found by bisection, and equal
    switch entries, like threads with equal tops, are adjacent.

    skip_dead_switch leaves out the switches a search may drop (see
    _search): those to any thread that could do nothing but switch out
    again.
    """
    rule_buckets, kill_buckets = system.buckets
    state, (stack, _), pool = config
    if stack:
        top = stack[0]
        for idx in rule_buckets.get((state, top), ()):
            yield ("rule", idx)
        if len(stack) == 1:
            for idx, k in kill_buckets.get((state, top), ()):
                victim = (k.victim,)
                last = None
                for pos in range(bisect_left(pool, (victim,)), len(pool)):
                    w, j = pool[pos]
                    if w != victim or j > budget:
                        break
                    if j != last:
                        last = j
                        yield ("kill", idx, j)
    last = top = None
    for entry in pool:
        if entry[1] > budget or entry == last:
            continue
        w = entry[0]
        if skip_dead_switch:
            if w and w[0] != top:  # equal tops are adjacent: probe once per run
                top = w[0]
                ruled, killed = (state, top) in rule_buckets, (state, top) in kill_buckets
            if not w or not ruled and (len(w) != 1 or not killed):
                continue
        last = entry
        yield ("switch", entry)


def _apply(system: Dcps, config: Config, event: Event, semantics: str,
           insert=_insert, remove=_remove) -> Config:
    """The configuration an enabled event leads to, as a plain tuple.

    insert and remove are the pool's operations: a canonical tuple's by
    default, which a search keys by, or a replay's multiset's (_add, _take).
    """
    state, (stack, count), pool = config
    kind = event[0]
    if kind == "rule":
        _, _, new_state, push, spawn = system.rules[event[1]]
        if spawn is not None:
            pool = insert(pool, ((spawn,), count + 1 if semantics == "inherit" else 0))
        return new_state, (push + stack[1:], count), pool
    if kind == "kill":
        _, top, new_state, keep, victim = system.kills[event[1]]
        return new_state, ((top,) if keep else (), 0), remove(pool, ((victim,), event[2]))
    entry = event[1]
    return state, entry, insert(remove(pool, entry), (stack, count + 1))


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
    events = _events(system, config, budget)
    return [(event, DcpsConfig._make(_apply(system, config, event, semantics)))
            for event in events]


def _replay(system: Dcps, witness, budget: int, semantics: str) -> Iterator[Config]:
    """The configurations of a witness run, from the initial one on, each
    event checked by _enabled before it is applied.  They share one
    multiset pool, updated in place: read each before taking the next."""
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}")
    config = system.initial_state, ((system.initial_symbol,), 0), {}
    yield config
    for step, event in enumerate(witness):
        if not _enabled(system, config, event, budget):
            raise ValueError(f"witness event {event!r} does not apply at step {step}")
        config = _apply(system, config, event, semantics, _add, _take)
        yield config


def _canonical(state: str, active: Thread, pool: dict[Thread, int]) -> DcpsConfig:
    """A replayed configuration as a DcpsConfig, its pool a sorted tuple."""
    return DcpsConfig(state, active, tuple(chain.from_iterable([repeat(t, pool[t]) for t in sorted(pool)])))


def replay_witness(
    system: Dcps, witness, budget: int, semantics: str = "noinherit"
) -> list[DcpsConfig]:
    """Apply a witness event sequence from the initial configuration."""
    return [_canonical(*c) for c in _replay(system, witness, budget, semantics)]


def replay_final(
    system: Dcps, witness, budget: int, semantics: str = "noinherit"
) -> DcpsConfig:
    """The configuration a witness ends in, every event checked as in
    replay_witness, holding one configuration at a time."""
    return _canonical(*deque(_replay(system, witness, budget, semantics), maxlen=1)[0])


@dataclass(frozen=True)
class DcpsReachable:
    witness: tuple[Event, ...]
    configs_explored: int


@dataclass(frozen=True)
class DcpsNo:
    configs_explored: int


@dataclass(frozen=True)
class DcpsUnknown:
    reason: str
    configs_explored: int


def check_budget(budget: int) -> None:
    """Reject a negative switch budget, under which a "no" would say nothing."""
    if budget < 0:
        raise ValueError(f"switch budget K must be at least 0, got {budget}")


def _cap_rule(max_threads: int, max_stack: int):
    """The cap a search prunes by: "max_threads" when more than max_threads
    threads have a non-empty stack, else "max_stack" when a stack is deeper
    than max_stack, else None."""

    def cap(config: Config) -> str | None:
        _, (stack, _), pool = config
        # empty stacks sort first in a canonical pool: the live threads are its
        # tail, and a pool this small cannot hold more than the cap
        n = len(pool)
        if n >= max_threads and n - bisect_left(pool, ((), inf)) + bool(stack) > max_threads:
            return "max_threads"
        if len(stack) > max_stack:
            return "max_stack"
        for w, _ in pool:
            if len(w) > max_stack:
                return "max_stack"
        return None

    return cap


def _search(system: Dcps, budget: int, goal, max_threads: int, max_stack: int,
            max_configs: int, semantics: str):
    """Breadth-first search over canonical configurations.

    The search never switches in a dead thread: one whose top has no rule
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
    """
    validate_dcps(system)
    check_budget(budget)
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}")

    def step(config: Config):
        events = _events(system, config, budget, skip_dead_switch=True)
        return [(event, _apply(system, config, event, semantics)) for event in events]

    cap = _cap_rule(max_threads, max_stack)
    return bfs(initial_config(system), step, goal, max_configs, "max_configs", cap)


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
    validate_dcps(system)
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
    return make_dcps(system.initial_state, system.initial_symbol, tuple(rules))


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
    validate_dcps(system)
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
    compiled = make_dcps(boot, boot_sym, tuple(rules))
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
    if not all(_NAME_RE.match(p) for p in parts):
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
            if not all(_NAME_RE.match(n) for n in names):
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
    system = make_dcps(initial_state, initial_symbol, tuple(rules), tuple(kills), kill_syms)
    try:
        validate_dcps(system)
    except DcpsValidationError as exc:
        raise DcpsParseError(str(exc)) from None
    return system


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
