"""Semantics, exploration, kill desugaring, and the spawn-count reduction."""

import hashlib
import random
from collections import Counter
from itertools import chain

import pytest

from snl import dcps
from snl.dcps import (
    SEMANTICS,
    Dcps,
    DcpsConfig,
    DcpsNo,
    DcpsParseError,
    DcpsReachable,
    DcpsRule,
    DcpsUnknown,
    DcpsValidationError,
    KillRule,
    compile_to_inheritance,
    desugar_kill,
    inheritance_names,
    inheritance_rule_count,
    initial_config,
    make_config,
    parse_dcps,
    reach_state,
    reachable_states,
    replay_final,
    replay_rounds,
    replay_witness,
    serialize_dcps,
    successors,
)
from snl.dcps import _apply, _canonical, _cap_rule, _enabled, _remove, _run, _search, _successors
from snl.search import Capped, Exhausted, Found, bfs
from genutil import random_firing_kill_dcps, random_kill_dcps, random_plain_dcps


def kill_demo() -> Dcps:
    rules = (
        DcpsRule("g0", "v", "g0", ("v",), "u"),
        DcpsRule("g1", "a", "g1", ()),
    )
    kills = (KillRule("g0", "v", "g1", True, "u"),)
    return Dcps("g0", "v", rules, kills, frozenset({"v", "u"}))


# ---------------------------------------------------------------------------
# Validation


def test_validate_rejects_triple_push():
    with pytest.raises(DcpsValidationError, match="limit 2"):
        Dcps("g0", "a", (DcpsRule("g0", "a", "g0", ("a", "a", "a")),))


def test_validate_rejects_kill_push_on_regular_top():
    with pytest.raises(DcpsValidationError, match="regular top"):
        Dcps(
            "g0",
            "a",
            (DcpsRule("g0", "a", "g0", ("v",)),),
            kill_syms=frozenset({"v"}),
        )


def test_validate_rejects_widening_kill_top():
    with pytest.raises(DcpsValidationError, match="kill-symbol top"):
        Dcps(
            "g0",
            "v",
            (DcpsRule("g0", "v", "g0", ("v", "v")),),
            kill_syms=frozenset({"v"}),
        )
    with pytest.raises(DcpsValidationError, match="kill-symbol top"):
        Dcps(
            "g0",
            "v",
            (DcpsRule("g0", "v", "g0", ("a",)),),
            kill_syms=frozenset({"v"}),
        )


def test_validate_rejects_kill_rule_on_regular_symbols():
    with pytest.raises(DcpsValidationError, match="not a kill symbol"):
        Dcps(
            "g0",
            "a",
            (),
            (KillRule("g0", "a", "g1", True, "a"),),
            frozenset(),
        )


def test_spawning_kill_symbols_is_allowed():
    kill_demo()


def test_eps_is_no_symbol():
    # "g1|eps" is the empty push: pushing a symbol eps would not read back
    with pytest.raises(DcpsParseError, match="'eps' is reserved"):
        parse_dcps("state g0 g0;\nstackinit a;\nrule g0|a -> g1|a.eps;\n")
    with pytest.raises(DcpsValidationError, match="'eps' is reserved"):
        Dcps("g0", "a", (DcpsRule("g0", "a", "g1", ("eps",)),))


def test_names_must_be_word_identifiers():
    with pytest.raises(DcpsValidationError, match="'g-1' is not a word identifier"):
        Dcps("g0", "a", (DcpsRule("g0", "a", "g-1", ()),))


# ---------------------------------------------------------------------------
# Step semantics


def test_rule_step_rewrites_top_and_keeps_count():
    system = Dcps("g0", "a", (DcpsRule("g0", "a", "g1", ("b", "a")),))
    cfg = make_config("g0", (("a", "c"), 2), [])
    steps = successors(system, cfg, budget=0)
    assert steps == [
        (("rule", 0), DcpsConfig("g1", (("b", "a", "c"), 2), ()))
    ]


def test_no_rule_fires_on_empty_stack():
    system = Dcps("g0", "a", (DcpsRule("g0", "a", "g1", ()),))
    cfg = make_config("g0", ((), 0), [])
    assert successors(system, cfg, budget=1) == []


def test_spawn_count_depends_on_semantics():
    system = Dcps("g0", "a", (DcpsRule("g0", "a", "g0", ("a",), "u"),))
    cfg = make_config("g0", (("a",), 2), [])
    (_, plain), = successors(system, cfg, budget=2, semantics="noinherit")
    assert plain.pool == ((("u",), 0),)
    (_, inh), = successors(system, cfg, budget=2, semantics="inherit")
    assert inh.pool == ((("u",), 3),)


def test_switch_respects_budget_and_dedupes():
    system = Dcps("g0", "a", ())
    cfg = make_config("g0", (("a",), 0), [(("u",), 1), (("u",), 1)])
    assert successors(system, cfg, budget=0) == []
    steps = successors(system, cfg, budget=1)
    assert len(steps) == 1
    event, nxt = steps[0]
    assert event == ("switch", (("u",), 1))
    assert nxt == DcpsConfig("g0", (("u",), 1), ((("a",), 1), (("u",), 1)))


def test_switch_can_activate_a_corpse():
    system = Dcps("g0", "a", ())
    cfg = make_config("g0", (("a",), 0), [((), 0)])
    steps = successors(system, cfg, budget=0)
    assert steps == [
        (("switch", ((), 0)), DcpsConfig("g0", ((), 0), ((("a",), 1),)))
    ]


def test_kill_needs_singleton_active_and_victim():
    system = kill_demo()
    deep_active = make_config("g0", (("v", "a"), 0), [(("u",), 0)])
    assert not [e for e, _ in successors(system, deep_active, 0) if e[0] == "kill"]
    deep_victim = make_config("g0", (("v",), 0), [(("u", "a"), 0)])
    assert not [e for e, _ in successors(system, deep_victim, 0) if e[0] == "kill"]


def test_kill_removes_victim_and_resets_count():
    system = kill_demo()
    cfg = make_config("g0", (("v",), 2), [(("u",), 1), (("u",), 1)])
    kills = [(e, c) for e, c in successors(system, cfg, budget=1) if e[0] == "kill"]
    assert len(kills) == 1
    event, nxt = kills[0]
    assert event == ("kill", 0, 1)
    assert nxt == DcpsConfig("g1", (("v",), 0), ((("u",), 1),))
    assert not [e for e, c in successors(system, cfg, budget=0) if e[0] == "kill"]


def test_pop_kill_leaves_empty_active():
    rules = ()
    kills = (KillRule("g0", "v", "g1", False, "u"),)
    system = Dcps("g0", "v", rules, kills, frozenset({"v", "u"}))
    cfg = make_config("g0", (("v",), 0), [(("u",), 0)])
    (_, nxt), = [s for s in successors(system, cfg, 0) if s[0][0] == "kill"]
    assert nxt.active == ((), 0)


def test_corpse_canonicalization_keeps_one_per_count():
    cfg = make_config("g0", (("a",), 0), [((), 1), ((), 1), ((), 2)])
    assert cfg.pool == (((), 1), ((), 2))


def test_remove_takes_the_leftmost_copy_and_refuses_a_missing_thread():
    pool = ((("a",), 0), (("a",), 0), (("a",), 1), (("b",), 0))
    assert _remove(pool, (("a",), 0)) == pool[1:]
    assert _remove(pool, (("b",), 0)) == pool[:3]
    for missing in ((("a",), 2), ((), 0), (("c",), 0)):
        with pytest.raises(ValueError, match="not in the pool"):
            _remove(pool, missing)


def test_bucket_index_is_built_once_and_leaves_equality_alone():
    system, fresh = kill_demo(), kill_demo()
    text = serialize_dcps(system)
    successors(system, initial_config(system), 0)
    assert system.buckets is system.buckets
    assert system == fresh and hash(system) == hash(fresh)
    assert serialize_dcps(system) == text


def scan_events(system, config, budget, skip_corpse_switch):
    """Enabled events by a full scan of the rules and the pool, repeats
    kept out by sets: the order _successors must keep."""
    stack = config.active[0]
    if stack:
        here = (config.state, stack[0])
        for idx, r in enumerate(system.rules):
            if (r.state, r.top) == here:
                yield ("rule", idx)
        if len(stack) == 1:
            for idx, k in enumerate(system.kills):
                if (k.state, k.top) != here:
                    continue
                seen_counts = set()
                for w, j in config.pool:
                    if w == (k.victim,) and j <= budget and j not in seen_counts:
                        seen_counts.add(j)
                        yield ("kill", idx, j)
    seen_entries = set()
    for entry in config.pool:
        if entry[1] > budget or entry in seen_entries:
            continue
        if skip_corpse_switch and not entry[0]:
            continue
        seen_entries.add(entry)
        yield ("switch", entry)


def is_corpse_switch(event):
    return event[0] == "switch" and not event[1][0]


def is_dead_switch(system, config, event):
    """A switch to a thread with no rule on its top in the global state,
    nor a kill when its stack is one symbol, by a full scan."""
    if event[0] != "switch":
        return False
    w = event[1][0]
    live = {(r.state, r.top) for r in system.rules}
    live |= {(k.state, k.top) for k in system.kills} if len(w) == 1 else set()
    return not w or (config[0], w[0]) not in live


def successor_events(system, config, budget, semantics="noinherit"):
    """The events _successors yields unpruned, after checking that the
    pruned call yields the same pairs minus the switches to dead threads."""
    pairs = list(_successors(system, config, budget, semantics))
    pruned = list(_successors(system, config, budget, semantics, prune_dead=True))
    assert pruned == [p for p in pairs if not is_dead_switch(system, config, p[0])], (
        config, budget)
    return [event for event, _ in pairs]


def hand_built_configs():
    """A kill system and configurations of it built by hand."""
    rules = (
        DcpsRule("g0", "v", "g0", ("v",), "u"),
        DcpsRule("g1", "v", "g0", ()),
        DcpsRule("g0", "v", "g1", ()),
    )
    kills = (
        KillRule("g0", "v", "g1", True, "u"),
        KillRule("g0", "v", "g0", False, "w"),
        KillRule("g1", "v", "g1", True, "u"),
        KillRule("g0", "v", "g1", False, "u"),
    )
    system = Dcps("g0", "v", rules, kills, frozenset({"t", "u", "v", "w"}))
    # sorted by hand, not canonical: repeated live threads, (u,) threads
    # on both sides of every budget, a longer stack starting with u, and
    # several empty-stack threads, one of them twice, and v threads, which
    # a switch may wake in either state
    pools = [
        (),
        ((("u",), 0),),
        (((), 0), ((), 1), ((), 1), ((), 3), (("t",), 0), (("u",), 0), (("u",), 0),
         (("u",), 1), (("u",), 1), (("u",), 2), (("u",), 3), (("u", "a"), 0),
         (("w",), 0), (("w",), 2), (("w",), 2)),
        ((("t",), 1), (("u",), 3), (("u",), 4), (("u", "u"), 0), (("w",), 1)),
        (((), 2), (("v",), 1), (("v", "a"), 0), (("w",), 0), (("w",), 0), (("w",), 1)),
    ]
    actives = [(("v",), 0), (("v",), 2), (("v", "a"), 0), ((), 1)]
    for pool in pools:
        assert list(pool) == sorted(pool)
    configs = [
        DcpsConfig(state, active, pool)
        for pool in pools for state in ("g0", "g1") for active in actives
    ]
    return system, configs


def test_events_keep_the_full_scan_order():
    system, configs = hand_built_configs()
    counted_kills = 0
    live_and_dead = set()
    for config in configs:
        for budget in (0, 1, 2):
            for skip in (False, True):
                got = [e for e in successor_events(system, config, budget)
                       if not (skip and is_corpse_switch(e))]
                assert got == list(scan_events(system, config, budget, skip)), (
                    config, budget, skip)
                counted_kills += sum(1 for e in got if e[:2] == ("kill", 0)) > 1
                live_and_dead |= {(is_dead_switch(system, config, e), bool(e[1][0]))
                                  for e in got if e[0] == "switch"}
    # the order of several victim counts for one kill was really compared
    assert counted_kills
    # pruning dropped empty and non-empty dead threads and kept live ones
    assert live_and_dead == {(True, False), (True, True), (False, True)}


def candidate_events(system, config, budget):
    """Events to ask _enabled about: every index one past either end, every
    count one past the budget either way, a stack no thread has, and a
    few malformed events."""
    counts = range(-1, budget + 2)
    yield from (("rule", idx) for idx in range(-1, len(system.rules) + 1))
    for idx in range(-1, len(system.kills) + 1):
        yield from (("kill", idx, j) for j in counts)
    stacks = {w for w, _ in config.pool} | {config.active[0], ("nosuch",)}
    for w in sorted(stacks):
        yield from (("switch", (w, j)) for j in counts)
    yield from (("kill", 0), ("rule",), ("switch",), ("spawn", 0))


def check_enabled_matches_events(system, config, budget):
    enabled = set(successor_events(system, config, budget))
    for event in candidate_events(system, config, budget):
        assert _enabled(system, config, event, budget) == (event in enabled), (
            config, event, budget)
    return {event[0] for event in enabled}


def test_enabled_accepts_exactly_the_events_on_hand_built_configs():
    system, configs = hand_built_configs()
    for config in configs:
        for budget in (0, 1, 2):
            check_enabled_matches_events(system, config, budget)


def kill_or_plain(rng, trial):
    return random_kill_dcps(rng) if trial % 2 else random_plain_dcps(rng)


def kill_firing(rng, trial):
    return random_firing_kill_dcps(rng)


def check_step_matches_apply(system, config, budget, semantics):
    """The replay's multiset step against _apply and the search's
    _successors: on a multiset copy of the pool it does what _apply does to
    each enabled event, both build the successor _successors yields with
    it, and it refuses every other candidate, naming its step."""
    pairs = list(_successors(system, config, budget, semantics))
    enabled = [event for event, _ in pairs]
    state, active, pool = config
    for event, nxt in pairs:
        got = _run(system, (state, active, Counter(pool)), (event,), budget, semantics)
        assert _canonical(*got) == _apply(system, config, event, semantics) == nxt, (config, event)
    for event in candidate_events(system, config, budget):
        if event not in enabled:
            with pytest.raises(ValueError, match=r"does not apply at step 0\Z"):
                _run(system, (state, active, Counter(pool)), (event,), budget, semantics)


def enabled_kinds_on_walks(rng, make_system, trials):
    """Check _enabled against _successors, and the replay step under both
    semantics against _apply and _successors, along random walks of the
    systems make_system draws; return the kinds of event enabled somewhere."""
    kinds = set()
    for trial in range(trials):
        system = make_system(rng, trial)
        for budget in (0, 1, 2):
            config = initial_config(system)
            for _ in range(30):
                kinds |= check_enabled_matches_events(system, config, budget)
                for semantics in SEMANTICS:
                    check_step_matches_apply(system, config, budget, semantics)
                steps = successors(system, config, budget)
                if not steps:
                    break
                # kills are rarely enabled, so take one whenever it is
                event, config = rng.choice([s for s in steps if s[0][0] == "kill"] or steps)
    return kinds


def test_enabled_accepts_exactly_the_events_on_random_walks():
    kinds = enabled_kinds_on_walks(random.Random(20261018), kill_or_plain, 60)
    # every kind of event was enabled somewhere
    assert kinds == {"rule", "kill", "switch"}


def test_enabled_accepts_exactly_the_events_on_kill_firing_walks():
    kinds = enabled_kinds_on_walks(random.Random(20261020), kill_firing, 30)
    assert kinds == {"rule", "kill", "switch"}


# ---------------------------------------------------------------------------
# Exploration


def test_reach_trivial_chain():
    rules = (
        DcpsRule("g0", "a", "g1", ("b",), "c"),
        DcpsRule("g1", "b", "g2", ("b",)),
    )
    system = Dcps("g0", "a", rules)
    result = reach_state(system, "g2", 0)
    assert isinstance(result, DcpsReachable)
    assert result.witness == (("rule", 0), ("rule", 1))


def test_reach_initial_state_immediately():
    system = Dcps("g0", "a", ())
    result = reach_state(system, "g0", 0)
    assert isinstance(result, DcpsReachable)
    assert result.witness == ()


def test_reach_no_on_clean_exhaustion():
    system = Dcps("g0", "a", (DcpsRule("g0", "a", "g1", ()),))
    result = reach_state(system, "g2", 1)
    assert isinstance(result, DcpsNo)
    assert result.configs_explored == 2


def test_reach_unknown_when_thread_cap_prunes():
    system = Dcps("g0", "a", (DcpsRule("g0", "a", "g0", ("a",), "b"),))
    result = reach_state(system, "gx", 0, max_threads=3)
    assert isinstance(result, DcpsUnknown)
    assert result.reason == "max_threads"


def test_reach_unknown_when_stack_cap_prunes():
    system = Dcps("g0", "a", (DcpsRule("g0", "a", "g0", ("a", "a")),))
    result = reach_state(system, "gx", 0, max_stack=4)
    assert isinstance(result, DcpsUnknown)
    assert result.reason == "max_stack"


def test_reach_unknown_on_config_budget():
    system = Dcps("g0", "a", (DcpsRule("g0", "a", "g0", ("a",), "b"),))
    result = reach_state(system, "gx", 0, max_threads=3, max_configs=2)
    assert isinstance(result, DcpsUnknown)
    assert "max_configs" in result.reason


def test_witness_needs_budget_for_resume():
    # d is reachable only by parking the main thread and coming back to it
    rules = (
        DcpsRule("a", "x", "b", ("x",), "z"),
        DcpsRule("b", "z", "c", ("z",)),
        DcpsRule("c", "x", "d", ("x",)),
    )
    system = Dcps("a", "x", rules)
    assert isinstance(reach_state(system, "d", 1), DcpsReachable)
    assert not isinstance(reach_state(system, "d", 0), DcpsReachable)


def test_replay_rejects_inapplicable_event():
    system = Dcps("g0", "a", (DcpsRule("g0", "a", "g1", ()),))
    with pytest.raises(ValueError, match="does not apply"):
        replay_witness(system, (("rule", 5),), 0)


@pytest.mark.parametrize("bad", [
    ("rule", -1), ("rule", 1), ("kill", -1, 0), ("kill", 0),
    ("switch", (("u",), 1)), ("switch", (("w",), 0)), ("spawn", 0),
])
def test_replay_rejects_malformed_and_out_of_range_events(bad):
    # the one rule and the one kill are both enabled after the spawn, so a
    # negative index that wrapped around would be taken
    rules = (DcpsRule("g0", "v", "g0", ("v",), "u"),)
    kills = (KillRule("g0", "v", "g1", True, "u"),)
    system = Dcps("g0", "v", rules, kills, frozenset({"u", "v"}))
    assert replay_final(system, (("rule", 0), ("kill", 0, 0)), 1).state == "g1"
    for replay in (replay_witness, replay_final):
        with pytest.raises(ValueError, match=r"does not apply at step 1\Z"):
            replay(system, (("rule", 0), bad), 1)


def test_replay_rejects_a_negative_budget():
    # a replay checks the budget before any event, as the searches do
    u0 = (("u",), 0)
    for replay in (replay_witness, replay_final):
        for witness in ((("rule", 0),), (("rule", 0), ("switch", u0))):
            with pytest.raises(ValueError, match=r"switch budget K must be at least 0, got -1\Z"):
                replay(kill_demo(), witness, -1)


def walk_successors(system, witness, budget):
    """Where a witness leads when each event is looked up among successors."""
    config = initial_config(system)
    for event in witness:
        config = dict(successors(system, config, budget))[event]
    return config


def test_replay_parks_two_empty_threads_at_one_count():
    # both b threads pop to empty stacks and are parked at count 1: the pool
    # keeps one empty-stack thread per count, so the second is not added
    rules = (
        DcpsRule("g0", "a", "g0", ("c",), "b"),
        DcpsRule("g0", "c", "g0", (), "b"),
        DcpsRule("g0", "b", "g0", ()),
    )
    system = Dcps("g0", "a", rules)
    b0 = (("b",), 0)
    witness = (("rule", 0), ("rule", 1), ("switch", b0), ("rule", 2), ("switch", b0))
    configs = replay_witness(system, witness, 1)
    assert configs[3].pool == (((), 1), b0)
    assert configs[-1] == DcpsConfig("g0", b0, (((), 1),))
    assert replay_final(system, witness, 1) == configs[-1] == walk_successors(system, witness, 1)


def test_replay_kills_a_victim_held_twice():
    system = kill_demo()
    u0 = (("u",), 0)
    witness = (("rule", 0), ("rule", 0), ("kill", 0, 0))
    configs = replay_witness(system, witness, 0)
    assert configs[2].pool == (u0, u0)
    assert configs[-1] == DcpsConfig("g1", (("v",), 0), (u0,))
    assert replay_final(system, witness, 0) == configs[-1] == walk_successors(system, witness, 0)


def test_replay_refuses_a_switch_to_a_thread_whose_last_copy_is_taken():
    system = kill_demo()
    u0 = (("u",), 0)
    # two copies of u0, each switched in once
    twice = (("rule", 0), ("rule", 0), ("switch", u0), ("switch", u0))
    assert replay_final(system, twice, 1) == walk_successors(system, twice, 1)
    for replay in (replay_witness, replay_final):
        with pytest.raises(ValueError, match=r"does not apply at step 4\Z"):
            replay(system, (*twice, ("switch", u0)), 1)
        # the kill takes the only copy
        with pytest.raises(ValueError, match=r"does not apply at step 2\Z"):
            replay(system, (("rule", 0), ("kill", 0, 0), ("switch", u0)), 1)


def replay_kill_walks(rng, make_system, trials):
    """Check that replay_final and replay_witness agree, on random walks and
    on each walk with one event spoiled; return how many walks held a kill."""
    kill_walks = 0
    for trial in range(trials):
        system = make_system(rng, trial)
        # events that apply nowhere: no such rule, a count over any budget,
        # a thread of a symbol the system lacks
        never = [("rule", len(system.rules)), ("kill", 0, 3), ("switch", (("nosuch",), 0))]
        for budget in (0, 1, 2):
            for semantics in SEMANTICS:
                config = initial_config(system)
                walk = []
                for _ in range(rng.randint(0, 30)):
                    steps = successors(system, config, budget, semantics)
                    if not steps:
                        break
                    # kills are rarely enabled, so take one whenever it is
                    event, config = rng.choice([s for s in steps if s[0][0] == "kill"] or steps)
                    walk.append(event)
                kill_walks += any(event[0] == "kill" for event in walk)
                final = replay_final(system, walk, budget, semantics)
                assert final == replay_witness(system, walk, budget, semantics)[-1] == config
                if not walk:
                    continue
                step = rng.randrange(len(walk))
                bad = walk[:step] + [rng.choice(never)] + walk[step + 1 :]
                with pytest.raises(ValueError) as full:
                    replay_witness(system, bad, budget, semantics)
                with pytest.raises(ValueError) as last:
                    replay_final(system, bad, budget, semantics)
                assert str(full.value) == str(last.value)
                assert str(full.value).endswith(f"does not apply at step {step}")
    return kill_walks


def test_replay_final_matches_replay_witness_on_random_walks():
    assert replay_kill_walks(random.Random(20261018), kill_or_plain, 60)


def test_replay_final_matches_replay_witness_on_kill_firing_walks():
    walks = 30 * 3 * len(SEMANTICS)
    # a walk takes a kill whenever one is enabled; on these systems a third
    # of the walks hold one (the walks above: 6 of 360)
    assert replay_kill_walks(random.Random(20261020), kill_firing, 30) >= walks // 3


def footprint(system, config, events, budget, semantics):
    """The pool threads that events take from config before they make
    them, found by replaying the events one at a time."""
    state, active, pool = config
    pool, made, needs = Counter(pool), Counter(), Counter()
    for event in events:
        kind = event[0]
        taken = event[1] if kind == "switch" else ((system.kills[event[1]].victim,), event[2]) if kind == "kill" else None
        rest = Counter(pool)
        state, active, pool = _run(system, (state, active, pool), (event,), budget, semantics)
        if taken is not None:
            rest[taken] -= 1
            if made[taken]:
                made[taken] -= 1
            else:
                needs[taken] += 1
        made += pool - rest
    return needs


def taken_and_given(system, state, active, pool, events, budget, semantics):
    """Where events end from (state, active, pool), and the pool threads
    they take and give."""
    start = Counter(pool)
    end, moved, after = _run(system, (state, active, Counter(start)), events, budget, semantics)
    return end, moved, start - after, after - start


def random_run(rng, system, budget, semantics, length, config=None):
    """Up to length random enabled events from config (the initial one by
    default), taking a kill whenever one is enabled, and where they end."""
    config = config or initial_config(system)
    events = []
    for _ in range(length):
        steps = successors(system, config, budget, semantics)
        if not steps:
            break
        event, config = rng.choice([s for s in steps if s[0][0] == "kill"] or steps)
        events.append(event)
    return events, config


def test_a_run_takes_and_gives_the_same_threads_from_a_larger_pool():
    # the pool semantics is monotone in the pool: a run that applies on its
    # footprint (the threads it takes before it makes them, plus the pool's
    # empty-stack threads) applies with other non-empty threads added, and
    # takes and gives the same threads; without one footprint thread it does not apply
    rng = random.Random(20261026)
    runs = kills = 0
    for trial in range(80):
        system = kill_firing(rng, trial) if trial % 2 else kill_or_plain(rng, trial)
        for budget in (0, 1, 2):
            for semantics in SEMANTICS:
                _, start = random_run(rng, system, budget, semantics, rng.randint(0, 8))
                events, _ = random_run(rng, system, budget, semantics, rng.randint(1, 12), start)
                if not events:
                    continue
                state, active, pool = start
                needs = footprint(system, start, events, budget, semantics)
                base = needs | Counter(t for t in pool if not t[0])
                extra = Counter((tuple(rng.choice(system.symbols) for _ in range(rng.randint(1, 2))),
                                 rng.randint(0, budget + 1)) for _ in range(rng.randint(1, 4)))
                delta = taken_and_given(system, state, active, base, events, budget, semantics)
                assert delta == taken_and_given(system, state, active, base + extra, events, budget, semantics)
                assert delta == taken_and_given(system, state, active, pool, events, budget, semantics)
                for thread in needs:
                    if thread[0]:
                        with pytest.raises(ValueError, match="does not apply"):
                            _run(system, (state, active, base - Counter([thread])), events, budget, semantics)
                runs += 1
                kills += any(event[0] == "kill" for event in events)
    # 220 runs, 51 of them with a kill
    assert runs >= 200 and kills >= 40, (runs, kills)


def test_an_empty_thread_in_the_pool_changes_what_a_park_gives():
    # _run parks an empty-stack thread only where its count has none: the one
    # guard that reads the rest of the pool, so a footprint holds the pool's empty threads
    system = kill_demo()
    u0, e1 = (("u",), 0), ((), 1)
    events = [("switch", u0)]
    assert taken_and_given(system, "g0", ((), 0), [u0], events, 1, "noinherit")[3] == Counter([e1])
    assert taken_and_given(system, "g0", ((), 0), [u0, e1], events, 1, "noinherit")[3] == Counter()


def random_rounds(rng, system, budget, semantics, events):
    """events cut into rounds of one to three, each keyed by its events and
    carrying its footprint, as replay_rounds takes them."""
    rounds, config, done = [], (system.initial_state, ((system.initial_symbol,), 0), {}), 0
    while done < len(events):
        cut = tuple(events[done:done + rng.randint(1, 3)])
        rounds.append((cut, cut, tuple(footprint(system, config, cut, budget, semantics).elements())))
        config = _run(system, config, cut, budget, semantics)
        done += len(cut)
    return rounds


def test_round_replay_matches_the_full_replay_on_random_walks(monkeypatch):
    rng = random.Random(20261027)
    rounds_seen, replayed = 0, []
    monkeypatch.setattr(dcps, "_run", lambda *args: replayed.append(args[2]) or _run(*args))
    for trial in range(40):
        system = kill_firing(rng, trial) if trial % 2 else kill_or_plain(rng, trial)
        for budget in (1, 2):
            for semantics in SEMANTICS:
                events, end = random_run(rng, system, budget, semantics, rng.randint(0, 30))
                rounds = random_rounds(rng, system, budget, semantics, events)
                full = system.initial_state, ((system.initial_symbol,), 0), {}
                for (_, cut, _), got in zip(rounds, replay_rounds(system, rounds, budget, semantics), strict=True):
                    full = _run(system, full, cut, budget, semantics)
                    assert _canonical(*got) == _canonical(*full)
                assert _canonical(*full) == end
                rounds_seen += len(rounds)
    # a round met again in the same state, active thread and empty threads is not replayed again
    assert len(replayed) < rounds_seen, (len(replayed), rounds_seen)


def test_round_replay_refuses_a_round_whose_needs_are_missing():
    system = kill_demo()
    u0 = (("u",), 0)
    spawn = ((("rule", 0),), [("rule", 0)], ())
    kill = ((("kill", 0, 0),), [("kill", 0, 0)], (u0,))
    assert _canonical(*list(replay_rounds(system, [spawn, kill], 0))[-1]) == DcpsConfig("g1", (("v",), 0), ())
    # the kill's round applies on its footprint, but the pool holds no u thread
    with pytest.raises(ValueError, match=r"\Around 0: the pool lacks \(\('u',\), 0\)\Z"):
        list(replay_rounds(system, [kill], 0))
    with pytest.raises(ValueError, match=r"\Around 1: witness event \('kill', 0, 0\) does not apply at step 0\Z"):
        list(replay_rounds(system, [spawn, ((("kill", 0, 0),), [("kill", 0, 0)], ())], 0))


def test_kill_firing_systems_fire_kills_in_their_witnesses():
    # no witness of the golden pin's random_kill_dcps systems holds a kill;
    # at least a sixth of these shortest witnesses must
    rng = random.Random(20261020)
    witnesses = with_kill = 0
    for _ in range(16):
        system = random_firing_kill_dcps(rng)
        for semantics in SEMANTICS:
            for budget in (0, 1, 2):
                for target in system.states:
                    got = reach_state(system, target, budget, semantics=semantics, **GOLDEN_CAPS)
                    if isinstance(got, DcpsReachable):
                        witnesses += 1
                        with_kill += any(event[0] == "kill" for event in got.witness)
    assert witnesses and with_kill >= witnesses / 6, (with_kill, witnesses)


def firing_pruning_cases():
    rng = random.Random(20261020)
    for _ in range(12):
        system = random_firing_kill_dcps(rng)
        for semantics in SEMANTICS:
            for budget in (0, 1, 2):
                yield system, budget, semantics


def test_dead_switch_pruning_is_exact_on_kill_firing_systems():
    exhaustive_pairs = 0
    for system, budget, semantics in firing_pruning_cases():
        exhaustive_pairs += check_pruning_is_exact(system, budget, semantics)[2]
    assert exhaustive_pairs


def test_negative_budget_is_refused():
    # no switch is within a negative budget, so a search would certify a hollow "no"
    system = Dcps("g0", "a", (DcpsRule("g0", "a", "g1", ()),))
    with pytest.raises(ValueError, match="K must be at least 0"):
        reach_state(system, "g2", -1)
    with pytest.raises(ValueError, match="K must be at least 0"):
        reachable_states(system, -1)


def test_reachable_states_reports_completeness():
    finite = Dcps("g0", "a", (DcpsRule("g0", "a", "g1", ()),))
    states, complete = reachable_states(finite, 0)
    assert states == frozenset({"g0", "g1"}) and complete
    pump = Dcps("g0", "a", (DcpsRule("g0", "a", "g0", ("a",), "b"),))
    _, complete = reachable_states(pump, 0, max_threads=3)
    assert not complete


# ---------------------------------------------------------------------------
# Switch pruning against the unpruned search


def live_threads(config):
    n = 1 if config.active[0] else 0
    return n + sum(1 for w, _ in config.pool if w)


def deepest_stack(config):
    depth = len(config.active[0])
    for w, _ in config.pool:
        depth = max(depth, len(w))
    return depth


def reference_cap(config, max_threads, max_stack):
    if live_threads(config) > max_threads:
        return "max_threads"
    if deepest_stack(config) > max_stack:
        return "max_stack"
    return None


def reference_search(system, budget, goal, semantics, max_threads, max_stack, max_configs):
    """The search without switch pruning: it skips only switches to an
    empty stack, and caps by the two helpers above."""

    def step(config):
        events = [e for e, _ in _successors(system, config, budget, semantics)
                  if not is_corpse_switch(e)]
        return [(event, DcpsConfig._make(_apply(system, config, event, semantics))) for event in events]

    def cap(config):
        return reference_cap(config, max_threads, max_stack)

    return bfs(initial_config(system), step, goal, max_configs, "max_configs", cap)


ANSWERS = {
    Found: "yes", Exhausted: "no", Capped: "unknown",
    DcpsReachable: "yes", DcpsNo: "no", DcpsUnknown: "unknown",
}


DIFF_CAPS = dict(max_threads=5, max_stack=6, max_configs=3000)


def check_pruning_is_exact(system, budget, semantics):
    """Compare the pruned search with the reference on reachable states and
    on every declared target.  Return the two explored totals and whether
    the reference was exhaustive, so that the state sets were compared."""
    caps = (DIFF_CAPS["max_threads"], DIFF_CAPS["max_stack"], DIFF_CAPS["max_configs"])
    where = (serialize_dcps(system), budget, semantics)
    full = reference_search(system, budget, lambda c: False, semantics, *caps)
    pruned = _search(system, budget, lambda c: False, *caps, semantics)
    assert pruned.explored <= full.explored, where
    states, complete = reachable_states(system, budget, semantics=semantics, **DIFF_CAPS)
    assert complete == isinstance(pruned, Exhausted), where
    exhaustive = isinstance(full, Exhausted)
    if exhaustive:
        # the pruned configurations are some of the reference's, so no cap trips
        assert complete and states == {c.state for c in full.seen}, where
    totals = [full.explored, pruned.explored, exhaustive]
    for target in system.states:
        ref = reference_search(system, budget, lambda c: c.state == target, semantics, *caps)
        got = reach_state(system, target, budget, semantics=semantics, **DIFF_CAPS)
        assert got.configs_explored <= ref.explored, (where, target)
        assert {ANSWERS[type(ref)], ANSWERS[type(got)]} != {"yes", "no"}, (where, target)
        if isinstance(got, DcpsReachable):
            assert replay_final(system, got.witness, budget, semantics).state == target
        totals[0] += ref.explored
        totals[1] += got.configs_explored
    return totals


def random_pruning_cases():
    rng = random.Random(20261018)
    for trial in range(24):
        system = random_kill_dcps(rng) if trial % 2 else random_plain_dcps(rng)
        for semantics in SEMANTICS:
            for budget in (0, 1, 2):
                yield system, budget, semantics


def test_dead_switch_pruning_is_exact_on_random_systems():
    exhaustive_pairs = 0
    for system, budget, semantics in random_pruning_cases():
        exhaustive_pairs += check_pruning_is_exact(system, budget, semantics)[2]
    # the state-set comparison really ran
    assert exhaustive_pairs


def test_pruned_witnesses_stay_shortest():
    # on the systems above, wherever both searches find a target
    caps = (DIFF_CAPS["max_threads"], DIFF_CAPS["max_stack"], DIFF_CAPS["max_configs"])
    compared = 0
    for system, budget, semantics in chain(random_pruning_cases(), firing_pruning_cases()):
        for target in system.states:
            ref = reference_search(system, budget, lambda c: c.state == target, semantics, *caps)
            got = reach_state(system, target, budget, semantics=semantics, **DIFF_CAPS)
            if isinstance(ref, Found) and isinstance(got, DcpsReachable):
                assert len(got.witness) == len(ref.labels), (serialize_dcps(system), budget, semantics, target)
                compared += 1
    assert compared


def test_dead_switch_pruning_on_hand_built_systems():
    # a spawns d, a thread with no rule at all: switching it in is a detour
    # that only permutes counts, so the pruned search explores strictly less
    rules = (
        DcpsRule("g0", "a", "g0", ("b",), "d"),
        DcpsRule("g0", "b", "g1", ("b",), "d"),
        DcpsRule("g1", "b", "g2", ()),
    )
    idle = Dcps("g0", "a", rules)
    for semantics in SEMANTICS:
        for budget in (0, 1, 2):
            full, pruned, exhaustive = check_pruning_is_exact(idle, budget, semantics)
            assert exhaustive
            if budget:
                assert pruned < full, (budget, semantics)
    # v can kill u, but no u is parked when v would be switched in: the
    # switch itself parks the active u, so v is live although no victim is
    rules = (DcpsRule("g0", "u", "g2", ("u",), "v"),)
    kills = (KillRule("g2", "v", "g1", True, "u"),)
    victim = Dcps("g0", "u", rules, kills, frozenset({"u", "v"}))
    for semantics in SEMANTICS:
        for budget in (0, 1, 2):
            check_pruning_is_exact(victim, budget, semantics)
        assert isinstance(reach_state(victim, "g1", 1, semantics=semantics), DcpsReachable)
        assert isinstance(reach_state(victim, "g1", 0, semantics=semantics), DcpsNo)


def test_switch_after_switch_pruning_on_a_hand_built_system():
    # at g2, a has parked b and c, and all three have a rule there: every
    # switch out of a configuration a switch admitted is a detour, so the
    # search explores strictly less than with dead-switch pruning alone
    rules = (
        DcpsRule("g0", "a", "g1", ("a",), "b"),
        DcpsRule("g1", "a", "g2", ("a",), "c"),
        DcpsRule("g2", "a", "g2", ()),
        DcpsRule("g2", "b", "g2", ()),
        DcpsRule("g2", "c", "g3", ()),
    )
    system = Dcps("g0", "a", rules)
    for semantics in SEMANTICS:
        for budget in (1, 2):
            full, pruned, exhaustive = check_pruning_is_exact(system, budget, semantics)
            assert exhaustive and pruned < full
            dead_only = bfs(initial_config(system), lambda c: _successors(system, c, budget, semantics, True),
                            lambda c: False, 10**4, "max_configs")
            both = _search(system, budget, lambda c: False, 5, 6, 10**4, semantics)
            assert isinstance(dead_only, Exhausted) and isinstance(both, Exhausted)
            assert {c[0] for c in both.seen} == {c[0] for c in dead_only.seen} == {"g0", "g1", "g2", "g3"}
            assert both.explored < dead_only.explored, (budget, semantics)


def dominated(config, by):
    """Whether `by` dominates config: the same state, the same active stack
    with a count no higher, and the parked non-empty threads matched by
    stack with counts no higher."""

    def counts(c):
        by_stack = {}
        for w, j in c.pool:  # canonical: ascending counts per stack
            if w:
                by_stack.setdefault(w, []).append(j)
        return by_stack

    (stack, count), (their_stack, their_count) = config.active, by.active
    if config.state != by.state or stack != their_stack or their_count > count:
        return False
    mine, theirs = counts(config), counts(by)
    return mine.keys() == theirs.keys() and all(
        len(mine[w]) == len(theirs[w]) and all(b <= a for a, b in zip(mine[w], theirs[w])) for w in mine)


def test_dominated_compares_counts_and_stacks():
    p = make_config("g0", (("a",), 1), [(("b",), 0), (("b",), 2), ((), 0)])
    assert dominated(p, p)
    assert dominated(make_config("g0", (("a",), 2), [(("b",), 1), (("b",), 2)]), p)
    assert not dominated(make_config("g0", (("a",), 0), [(("b",), 0), (("b",), 2)]), p)
    assert not dominated(make_config("g0", (("a",), 1), [(("b",), 0), (("b",), 1)]), p)
    assert not dominated(make_config("g0", (("a",), 1), [(("b",), 2)]), p)
    assert not dominated(make_config("g1", (("a",), 1), [(("b",), 0), (("b",), 2)]), p)
    assert not dominated(make_config("g0", (("a",), 1), [(("b",), 0), (("c",), 2)]), p)


def test_a_switch_after_a_switch_is_dominated():
    # _search's lemma: P switches to u into C, and C to v into D; then P, if
    # v is the thread P parked, or else P's own switch to v dominates D
    rng = random.Random(20261021)
    by_parent = by_switch = 0
    for trial in range(12):
        system = random_kill_dcps(rng) if trial % 2 else random_plain_dcps(rng)
        for semantics in SEMANTICS:
            for budget in (0, 1, 2):
                reached = reference_search(system, budget, lambda c: False, semantics, 5, 6, 300).seen
                for p in reached:
                    direct = dict(successors(system, p, budget, semantics))
                    parked = (p.active[0], p.active[1] + 1)
                    for u, c in direct.items():
                        if u[0] != "switch":
                            continue
                        for v, d in successors(system, c, budget, semantics):
                            if v[0] != "switch":
                                continue
                            where = (serialize_dcps(system), semantics, budget, p, u, v)
                            if v[1] == parked:
                                assert dominated(d, p), where
                                by_parent += 1
                            else:
                                assert dominated(d, direct[v]), where
                                by_switch += 1
    assert by_parent and by_switch


def random_canonical_config(rng, deepest_parked=5):
    def stack(deepest=5):
        return tuple(rng.choice("ab") for _ in range(min(deepest, rng.choice([0, 0, 1, 1, 2, 3, 4, 5]))))

    pool = [(stack(deepest_parked), rng.randint(0, 2)) for _ in range(rng.randint(0, 6))]
    return make_config("g0", (stack(), rng.randint(0, 2)), pool)


def test_cap_rule_matches_the_two_helpers():
    # on the configurations a search reaches, where no parked stack is deeper
    # than one symbol or the stack cap (see _cap_rule)
    rng = random.Random(9)
    tripped = set()
    for _ in range(400):
        for max_stack in range(5):
            config = random_canonical_config(rng, max(1, max_stack))
            for max_threads in range(5):
                got = _cap_rule(max_threads, max_stack)(config)
                want = reference_cap(config, max_threads, max_stack)
                assert got == want, (config, max_threads, max_stack)
                tripped.add(got)
    assert tripped == {"max_threads", "max_stack", None}


def test_cap_rule_matches_the_scanning_rule_in_searches(monkeypatch):
    # the searches explore, find and trip exactly what they did when the cap
    # scanned every parked stack
    rng = random.Random(20261020)
    searches = []
    for trial in range(8):
        plain = random_plain_dcps(rng)
        for system in (random_kill_dcps(rng), plain, compile_to_inheritance(plain, plain.states[-1])[0]):
            for semantics in SEMANTICS:
                for max_stack in range(4):
                    for budget in (0, 1):
                        searches.append((system, budget, semantics, max_stack))

    def run_all():
        return [_search(system, budget, lambda c: False, 5, max_stack, 300, semantics)
                for system, budget, semantics, max_stack in searches]

    got = run_all()
    monkeypatch.setattr(
        "snl.dcps._cap_rule",
        lambda max_threads, max_stack: lambda c: reference_cap(DcpsConfig._make(c), max_threads, max_stack),
    )
    assert got == run_all()
    tripped = set().union(*(r.tripped for r in got if isinstance(r, Capped)))
    assert tripped == {"max_stack", "max_threads", "max_configs"}


# ---------------------------------------------------------------------------
# Golden pin: the searches' verdicts, witnesses, explored counts and state
# sets on seeded systems and their two compiled images


GOLDEN_CAPS = dict(max_threads=7, max_stack=3, max_configs=400)
GOLDEN_DIGEST = "1f88e641d3898cb778b4e884497f543709d892f350ff5ab6f6d2e09fb97d84e3"


def golden_systems():
    # kills rarely fire in the random systems, so hand-built ones lead; in
    # the last, g4 needs the kill's count reset to come back to v at K=1
    yield "kill_demo", kill_demo()
    yield "hand_built", hand_built_configs()[0]
    rules = (
        DcpsRule("g0", "v", "g0", ("v",), "u"),
        DcpsRule("g1", "v", "g2", ("v",), "w"),
        DcpsRule("g2", "w", "g3", ()),
        DcpsRule("g3", "v", "g4", ("v",)),
    )
    kills = (KillRule("g0", "v", "g1", True, "u"),)
    yield "kill_reset", Dcps("g0", "v", rules, kills, frozenset({"u", "v"}))
    rng = random.Random(20261019)
    for trial in range(16):
        kill = random_kill_dcps(rng)
        yield f"kill{trial}", kill
        yield f"desugared{trial}", desugar_kill(kill)
        plain = random_plain_dcps(rng)
        yield f"plain{trial}", plain
        yield f"inherit{trial}", compile_to_inheritance(plain, plain.states[-1])[0]


def golden_text():
    lines = []
    for name, system in golden_systems():
        for semantics in SEMANTICS:
            for budget in (0, 1, 2):
                where = f"{name} {semantics} K={budget}"
                states, complete = reachable_states(
                    system, budget, semantics=semantics, **GOLDEN_CAPS)
                lines.append(f"{where} reachable {sorted(states)} {complete}")
                if budget == 2:
                    continue
                for target in system.states:
                    verdict = reach_state(
                        system, target, budget, semantics=semantics, **GOLDEN_CAPS)
                    lines.append(f"{where} {target} {verdict!r}")
    return "\n".join(lines) + "\n"


def test_searches_match_the_golden_digest():
    # any change to a verdict, witness, explored count, tripped cap or
    # reached state set of these searches changes the digest
    assert hashlib.sha256(golden_text().encode()).hexdigest() == GOLDEN_DIGEST


# ---------------------------------------------------------------------------
# Kill desugaring


def test_desugar_adds_four_rules_three_states_one_symbol():
    system = kill_demo()
    plain = desugar_kill(system)
    assert plain.kills == () and plain.kill_syms == frozenset()
    assert len(plain.rules) == len(system.rules) + 4
    assert set(plain.states) - set(system.states) == {"kspawn0", "kkill0", "kreturn0"}
    assert set(plain.symbols) - set(system.symbols) == {"spawnmark"}


def test_desugar_without_kills_is_plain_passthrough():
    system = Dcps(
        "g0", "a", (DcpsRule("g0", "a", "g1", ()),), (), frozenset({"v"})
    )
    # v never occurs in a rule, so it only existed via the kill declaration
    plain = desugar_kill(system)
    assert plain.rules == system.rules
    assert plain.kill_syms == frozenset()


def test_desugar_kill_replays_in_seven_configs():
    system = kill_demo()
    plain = desugar_kill(system)
    result = reach_state(plain, "g1", 0)
    assert isinstance(result, DcpsReachable)
    # spawn the victim, then the six-event gadget
    assert len(result.witness) == 7
    configs = replay_witness(plain, result.witness, 0)
    assert configs[-1].state == "g1"
    assert configs[-1].active == (("v",), 0)
    # the original reaches g1 in two events: spawn, then the kill itself
    direct = reach_state(system, "g1", 0)
    assert isinstance(direct, DcpsReachable)
    assert len(direct.witness) == 2
    assert direct.witness[1] == ("kill", 0, 0)


def test_desugar_preserves_reachable_states_on_random_systems():
    rng = random.Random(20260819)
    for trial in range(15):
        system = random_kill_dcps(rng)
        plain = desugar_kill(system)
        for budget in (0, 1):
            base, _ = reachable_states(
                system, budget, max_threads=6, max_stack=8, max_configs=60_000
            )
            lifted, _ = reachable_states(
                plain, budget, max_threads=7, max_stack=8, max_configs=60_000
            )
            original = frozenset(system.states)
            assert base & original == lifted & original, (trial, budget)


# ---------------------------------------------------------------------------
# Spawn-count reduction


def plain_demo() -> Dcps:
    rules = (
        DcpsRule("a", "x", "b", ("x",), "z"),
        DcpsRule("b", "z", "c", ("z",)),
        DcpsRule("c", "x", "d", ("x",)),
    )
    return Dcps("a", "x", rules)


def test_inheritance_requires_plain_system():
    with pytest.raises(DcpsValidationError, match="plain"):
        compile_to_inheritance(kill_demo(), "g1")
    with pytest.raises(DcpsValidationError, match="not declared"):
        compile_to_inheritance(plain_demo(), "nope")


def test_inheritance_rule_count_matches_closed_form():
    system = plain_demo()
    compiled, _ = compile_to_inheritance(system, "d")
    expected = inheritance_rule_count(
        len(system.states), len(system.symbols), len(system.rules)
    )
    assert len(compiled.rules) == expected


def test_inheritance_bootstrap_trace():
    system = plain_demo()
    compiled, target = compile_to_inheritance(system, "d")
    assert target == "swp_d"
    # skip the dormant pump, drop the boot symbol, switch to the bottom
    # thread (spawned at count 1 under inheriting semantics), unfold it
    events = (
        ("rule", 1),
        ("switch", (("ybot",), 1)),
        ("rule", 2),
    )
    configs = replay_witness(compiled, events, 2, semantics="inherit")
    final = configs[-1]
    assert final.state == "run_a"
    assert final.active == (("x", "ybot"), 1)


def test_inheritance_names_cover_generated_states():
    system = plain_demo()
    compiled, target = compile_to_inheritance(system, "d")
    names = inheritance_names(system)
    assert names[target] == "(d,2)"
    assert names["run_a"] == "(a,0)"
    generated = set(compiled.states) | set(compiled.symbols)
    original = set(system.states) | set(system.symbols)
    assert generated - original == set(names)


def test_inheritance_shifts_budget_on_directed_example():
    system = plain_demo()
    compiled, target = compile_to_inheritance(system, "d")
    caps = dict(max_threads=7, max_stack=6, max_configs=80_000)
    hit = reach_state(compiled, target, 3, semantics="inherit", **caps)
    assert isinstance(hit, DcpsReachable)
    miss = reach_state(compiled, target, 2, semantics="inherit", **caps)
    assert not isinstance(miss, DcpsReachable)


def test_inheritance_agrees_on_random_systems():
    rng = random.Random(77)
    caps = dict(max_threads=7, max_stack=6, max_configs=60_000)
    for trial in range(5):
        system = random_plain_dcps(rng)
        for budget in (0, 1):
            for goal in system.states:
                base = reach_state(
                    system, goal, budget, max_threads=6, max_stack=4, max_configs=40_000
                )
                compiled, target = compile_to_inheritance(system, goal)
                lifted = reach_state(
                    compiled, target, budget + 2, semantics="inherit", **caps
                )
                assert isinstance(base, DcpsReachable) == isinstance(
                    lifted, DcpsReachable
                ), (trial, budget, goal)


# ---------------------------------------------------------------------------
# Text format


def test_round_trip_kill_system():
    system = kill_demo()
    text = serialize_dcps(system)
    assert parse_dcps(text) == system


def test_round_trip_desugared_system():
    plain = desugar_kill(kill_demo())
    assert parse_dcps(serialize_dcps(plain)) == plain


def test_parse_reports_line_numbers():
    text = "state g0 a;\nstackinit x;\nrule nonsense\n"
    with pytest.raises(DcpsParseError, match="line 3"):
        parse_dcps(text)


def test_parse_rejects_duplicates_and_missing_headers():
    with pytest.raises(DcpsParseError, match="duplicate state"):
        parse_dcps("state g0 a;\nstate g0 b;\nstackinit x;\n")
    with pytest.raises(DcpsParseError, match="missing stackinit"):
        parse_dcps("state g0 a;\n")
    with pytest.raises(DcpsParseError, match="missing state"):
        parse_dcps("stackinit x;\n")


def test_parse_strips_comments_and_blanks():
    text = """
    # a tiny system
    state g0 main;   # initial global state
    stackinit a;

    rule main|a -> stop|eps;  # empty push
    """
    system = parse_dcps(text)
    assert system.rules == (DcpsRule("main", "a", "stop", ()),)


def test_parse_validates_system():
    text = "state g0 m;\nstackinit a;\nrule m|a -> m|a.a.a;\n"
    with pytest.raises(DcpsParseError, match="limit 2"):
        parse_dcps(text)


def test_serialize_spawn_and_kill_lines():
    system = kill_demo()
    text = serialize_dcps(system)
    assert "rule g0|v -> g0|v spawn u;" in text
    assert "kill g0|v -> g1|keep kill u;" in text
    assert "killsyms { u v };" in text
