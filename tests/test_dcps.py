"""Semantics, exploration, kill desugaring, and the spawn-count reduction."""

import hashlib
import random

import pytest

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
    make_dcps,
    parse_dcps,
    reach_state,
    reachable_states,
    replay_final,
    replay_witness,
    serialize_dcps,
    successors,
    validate_dcps,
)
from snl.dcps import _apply, _cap_rule, _enabled, _events, _remove, _search
from snl.search import Capped, Exhausted, Found, bfs
from genutil import random_firing_kill_dcps, random_kill_dcps, random_plain_dcps


def kill_demo() -> Dcps:
    rules = (
        DcpsRule("g0", "v", "g0", ("v",), "u"),
        DcpsRule("g1", "a", "g1", ()),
    )
    kills = (KillRule("g0", "v", "g1", True, "u"),)
    return make_dcps("g0", "v", rules, kills, frozenset({"v", "u"}))


# ---------------------------------------------------------------------------
# Validation


def test_validate_rejects_triple_push():
    system = make_dcps("g0", "a", (DcpsRule("g0", "a", "g0", ("a", "a", "a")),))
    with pytest.raises(DcpsValidationError, match="limit 2"):
        validate_dcps(system)


def test_validate_rejects_kill_push_on_regular_top():
    system = make_dcps(
        "g0",
        "a",
        (DcpsRule("g0", "a", "g0", ("v",)),),
        kill_syms=frozenset({"v"}),
    )
    with pytest.raises(DcpsValidationError, match="regular top"):
        validate_dcps(system)


def test_validate_rejects_widening_kill_top():
    bad = make_dcps(
        "g0",
        "v",
        (DcpsRule("g0", "v", "g0", ("v", "v")),),
        kill_syms=frozenset({"v"}),
    )
    with pytest.raises(DcpsValidationError, match="kill-symbol top"):
        validate_dcps(bad)
    swapped = make_dcps(
        "g0",
        "v",
        (DcpsRule("g0", "v", "g0", ("a",)),),
        kill_syms=frozenset({"v"}),
    )
    with pytest.raises(DcpsValidationError, match="kill-symbol top"):
        validate_dcps(swapped)


def test_validate_rejects_kill_rule_on_regular_symbols():
    system = make_dcps(
        "g0",
        "a",
        (),
        (KillRule("g0", "a", "g1", True, "a"),),
        frozenset(),
    )
    with pytest.raises(DcpsValidationError, match="not a kill symbol"):
        validate_dcps(system)


def test_validate_rejects_undeclared_mentions():
    system = Dcps(("g0",), ("a",), "g0", "a", (DcpsRule("g0", "a", "g9", ()),))
    with pytest.raises(DcpsValidationError, match="g9"):
        validate_dcps(system)


def test_spawning_kill_symbols_is_allowed():
    validate_dcps(kill_demo())


# ---------------------------------------------------------------------------
# Step semantics


def test_rule_step_rewrites_top_and_keeps_count():
    system = make_dcps("g0", "a", (DcpsRule("g0", "a", "g1", ("b", "a")),))
    cfg = make_config("g0", (("a", "c"), 2), [])
    steps = successors(system, cfg, budget=0)
    assert steps == [
        (("rule", 0), DcpsConfig("g1", (("b", "a", "c"), 2), ()))
    ]


def test_no_rule_fires_on_empty_stack():
    system = make_dcps("g0", "a", (DcpsRule("g0", "a", "g1", ()),))
    cfg = make_config("g0", ((), 0), [])
    assert successors(system, cfg, budget=1) == []


def test_spawn_count_depends_on_semantics():
    system = make_dcps("g0", "a", (DcpsRule("g0", "a", "g0", ("a",), "u"),))
    cfg = make_config("g0", (("a",), 2), [])
    (_, plain), = successors(system, cfg, budget=2, semantics="noinherit")
    assert plain.pool == ((("u",), 0),)
    (_, inh), = successors(system, cfg, budget=2, semantics="inherit")
    assert inh.pool == ((("u",), 3),)


def test_switch_respects_budget_and_dedupes():
    system = make_dcps("g0", "a", ())
    cfg = make_config("g0", (("a",), 0), [(("u",), 1), (("u",), 1)])
    assert successors(system, cfg, budget=0) == []
    steps = successors(system, cfg, budget=1)
    assert len(steps) == 1
    event, nxt = steps[0]
    assert event == ("switch", (("u",), 1))
    assert nxt == DcpsConfig("g0", (("u",), 1), ((("a",), 1), (("u",), 1)))


def test_switch_can_activate_a_corpse():
    system = make_dcps("g0", "a", ())
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
    system = make_dcps("g0", "v", rules, kills, frozenset({"v", "u"}))
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
    kept out by sets: the order _events must keep."""
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
    system = make_dcps("g0", "v", rules, kills, frozenset({"t", "u", "v", "w"}))
    # sorted by hand, not canonical: repeated live threads, (u,) threads
    # on both sides of every budget, a longer stack starting with u, and
    # several empty-stack threads, one of them twice
    pools = [
        (),
        ((("u",), 0),),
        (((), 0), ((), 1), ((), 1), ((), 3), (("t",), 0), (("u",), 0), (("u",), 0),
         (("u",), 1), (("u",), 1), (("u",), 2), (("u",), 3), (("u", "a"), 0),
         (("w",), 0), (("w",), 2), (("w",), 2)),
        ((("t",), 1), (("u",), 3), (("u",), 4), (("u", "u"), 0), (("w",), 1)),
        (((), 2), (("w",), 0), (("w",), 0), (("w",), 1)),
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
    for config in configs:
        for budget in (0, 1, 2):
            for skip in (False, True):
                got = [e for e in _events(system, config, budget)
                       if not (skip and is_corpse_switch(e))]
                assert got == list(scan_events(system, config, budget, skip)), (
                    config, budget, skip)
                counted_kills += sum(1 for e in got if e[:2] == ("kill", 0)) > 1
    # the order of several victim counts for one kill was really compared
    assert counted_kills


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
    enabled = set(_events(system, config, budget))
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


def enabled_kinds_on_walks(rng, make_system, trials):
    """Check _enabled against _events along random walks of the systems
    make_system draws; return the kinds of event enabled somewhere."""
    kinds = set()
    for trial in range(trials):
        system = make_system(rng, trial)
        for budget in (0, 1, 2):
            config = initial_config(system)
            for _ in range(30):
                kinds |= check_enabled_matches_events(system, config, budget)
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
    system = make_dcps("g0", "a", rules)
    result = reach_state(system, "g2", 0)
    assert isinstance(result, DcpsReachable)
    assert result.witness == (("rule", 0), ("rule", 1))


def test_reach_initial_state_immediately():
    system = make_dcps("g0", "a", ())
    result = reach_state(system, "g0", 0)
    assert isinstance(result, DcpsReachable)
    assert result.witness == ()


def test_reach_no_on_clean_exhaustion():
    system = make_dcps("g0", "a", (DcpsRule("g0", "a", "g1", ()),))
    result = reach_state(system, "g2", 1)
    assert isinstance(result, DcpsNo)
    assert result.configs_explored == 2


def test_reach_unknown_when_thread_cap_prunes():
    system = make_dcps("g0", "a", (DcpsRule("g0", "a", "g0", ("a",), "b"),))
    result = reach_state(system, "gx", 0, max_threads=3)
    assert isinstance(result, DcpsUnknown)
    assert result.reason == "max_threads"


def test_reach_unknown_when_stack_cap_prunes():
    system = make_dcps("g0", "a", (DcpsRule("g0", "a", "g0", ("a", "a")),))
    result = reach_state(system, "gx", 0, max_stack=4)
    assert isinstance(result, DcpsUnknown)
    assert result.reason == "max_stack"


def test_reach_unknown_on_config_budget():
    system = make_dcps("g0", "a", (DcpsRule("g0", "a", "g0", ("a",), "b"),))
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
    system = make_dcps("a", "x", rules)
    assert isinstance(reach_state(system, "d", 1), DcpsReachable)
    assert not isinstance(reach_state(system, "d", 0), DcpsReachable)


def test_replay_rejects_inapplicable_event():
    system = make_dcps("g0", "a", (DcpsRule("g0", "a", "g1", ()),))
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
    system = make_dcps("g0", "v", rules, kills, frozenset({"u", "v"}))
    assert replay_final(system, (("rule", 0), ("kill", 0, 0)), 1).state == "g1"
    for replay in (replay_witness, replay_final):
        with pytest.raises(ValueError, match=r"does not apply at step 1\Z"):
            replay(system, (("rule", 0), bad), 1)


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
    system = make_dcps("g0", "a", rules)
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


def test_dead_switch_pruning_is_exact_on_kill_firing_systems():
    rng = random.Random(20261020)
    exhaustive_pairs = 0
    for _ in range(12):
        system = random_firing_kill_dcps(rng)
        for semantics in SEMANTICS:
            for budget in (0, 1, 2):
                exhaustive_pairs += check_pruning_is_exact(system, budget, semantics)[2]
    assert exhaustive_pairs


def test_negative_budget_is_refused():
    # no switch is within a negative budget, so a search would certify a hollow "no"
    system = make_dcps("g0", "a", (DcpsRule("g0", "a", "g1", ()),))
    with pytest.raises(ValueError, match="K must be at least 0"):
        reach_state(system, "g2", -1)
    with pytest.raises(ValueError, match="K must be at least 0"):
        reachable_states(system, -1)


def test_reachable_states_reports_completeness():
    finite = make_dcps("g0", "a", (DcpsRule("g0", "a", "g1", ()),))
    states, complete = reachable_states(finite, 0)
    assert states == frozenset({"g0", "g1"}) and complete
    pump = make_dcps("g0", "a", (DcpsRule("g0", "a", "g0", ("a",), "b"),))
    _, complete = reachable_states(pump, 0, max_threads=3)
    assert not complete


# ---------------------------------------------------------------------------
# Dead-switch pruning against the unpruned search


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
    """The search without dead-switch pruning: it skips only switches to an
    empty stack, and caps by the two helpers above."""

    def step(config):
        events = [e for e in _events(system, config, budget) if not is_corpse_switch(e)]
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


def test_dead_switch_pruning_is_exact_on_random_systems():
    rng = random.Random(20261018)
    exhaustive_pairs = 0
    for trial in range(24):
        system = random_kill_dcps(rng) if trial % 2 else random_plain_dcps(rng)
        for semantics in SEMANTICS:
            for budget in (0, 1, 2):
                exhaustive_pairs += check_pruning_is_exact(system, budget, semantics)[2]
    # the state-set comparison really ran
    assert exhaustive_pairs


def test_dead_switch_pruning_on_hand_built_systems():
    # a spawns d, a thread with no rule at all: switching it in is a detour
    # that only permutes counts, so the pruned search explores strictly less
    rules = (
        DcpsRule("g0", "a", "g0", ("b",), "d"),
        DcpsRule("g0", "b", "g1", ("b",), "d"),
        DcpsRule("g1", "b", "g2", ()),
    )
    idle = make_dcps("g0", "a", rules)
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
    victim = make_dcps("g0", "u", rules, kills, frozenset({"u", "v"}))
    for semantics in SEMANTICS:
        for budget in (0, 1, 2):
            check_pruning_is_exact(victim, budget, semantics)
        assert isinstance(reach_state(victim, "g1", 1, semantics=semantics), DcpsReachable)
        assert isinstance(reach_state(victim, "g1", 0, semantics=semantics), DcpsNo)


def random_canonical_config(rng):
    def stack():
        return tuple(rng.choice("ab") for _ in range(rng.choice([0, 0, 1, 1, 2, 3, 4, 5])))

    pool = [(stack(), rng.randint(0, 2)) for _ in range(rng.randint(0, 6))]
    return make_config("g0", (stack(), rng.randint(0, 2)), pool)


def test_cap_rule_matches_the_two_helpers():
    rng = random.Random(9)
    tripped = set()
    for _ in range(400):
        config = random_canonical_config(rng)
        for max_threads in range(5):
            for max_stack in range(5):
                got = _cap_rule(max_threads, max_stack)(config)
                want = reference_cap(config, max_threads, max_stack)
                assert got == want, (config, max_threads, max_stack)
                tripped.add(got)
    assert tripped == {"max_threads", "max_stack", None}


# ---------------------------------------------------------------------------
# Golden pin: the searches' verdicts, witnesses, explored counts and state
# sets on seeded systems and their two compiled images


GOLDEN_CAPS = dict(max_threads=7, max_stack=3, max_configs=400)
GOLDEN_DIGEST = "6f30c47006d0c44792e4f60b18ba281682656a617cac31c799e13e5fd0ae481c"


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
    yield "kill_reset", make_dcps("g0", "v", rules, kills, frozenset({"u", "v"}))
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
    system = make_dcps(
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
    return make_dcps("a", "x", rules)


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
