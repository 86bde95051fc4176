"""The oracles-micro workload: seeded micro instances, each checked against an
independent oracle.

Four families, in the style of the acceptance suite's oracle criteria:

* kill: a random thread pool with kill rules against its desugared plain
  pool (`desugar_kill`), comparing `reachable_states` for K = 0, 1, 2;
* plain: a random plain pool against its spawn-count variant
  (`compile_to_inheritance`), comparing `reach_state` at K with inheriting
  `reach_state` at K + 2 for every goal state;
* pnet: a random Petri net, `cover_backward` against `cover_forward_bfs`;
* rnp: a random depth-2 recursive net program with at most 16 control
  places (64 expanded places under the current word layout),
  `explore_halting` against `cover_backward(expand(...))` and against
  symbolic `coverable`.

Every library call goes through its module attribute (`dcps.reach_state`,
never a name imported from it), so the traced run's shims see each call.

A comparison is decided when neither side was cut short by a cap; only a
decided comparison can disagree.  Caps are small on purpose: the workload is
many short searches, where per-search set-up matters.
"""

from __future__ import annotations

import hashlib
import random
import time

from snl import dcps, petri, rnp, rnp2tdpn, tdpn
from snl.dcps import DcpsRule, KillRule
from snl.rnp import Call, Dec, GotoOr, Halt, Inc, Proc, Return, Rnp

# Every family is a fixed pool generated from POOL_SEED, and the workload
# seed only shuffles the order in which a pass runs each pool.  Instance costs
# are heavy-tailed (the few searches that run into their caps dominate a
# pass), so every seed runs every instance and does the same work.
POOL_SEED = 2011_05825
POOL_SIZES = {"kill": 60, "plain": 40, "pnet": 150, "rnp": 60}

KILL_CAPS = dict(max_threads=6, max_stack=8, max_configs=1_500)
KILL_PLAIN_CAPS = dict(max_threads=7, max_stack=8, max_configs=1_500)
PLAIN_CAPS = dict(max_threads=6, max_stack=4, max_configs=1_500)
INHERIT_CAPS = dict(max_threads=7, max_stack=6, max_configs=1_500)
FORWARD_CAPS = dict(max_tokens=16, max_markings=20_000)
RNP_MAX_CONFIGS = 2_000
SYMBOLIC_CAPS = dict(max_tokens=8, max_markings=2_000)
# Control places of a pooled rnp: 9 to 16 take 4 address bits, and depth 2
# takes 2 more, so the expanded net has 2**6 = 64 places.
RNP_CONTROL_PLACES = range(9, 17)


# ---------------------------------------------------------------------------
# Generators


def random_kill_dcps(rng: random.Random) -> dcps.Dcps:
    """A well-formed pool with kill rules: a kill symbol enters a stack only
    as a spawned singleton or by replacing a kill-symbol top, so every
    kill-topped stack stays a singleton."""
    states = [f"g{i}" for i in range(rng.randint(2, 4))]
    regular = [f"a{i}" for i in range(rng.randint(1, 2))]
    kill = [f"v{i}" for i in range(rng.randint(1, 2))]
    rules = []
    for _ in range(rng.randint(2, 6)):
        top = rng.choice(regular + kill)
        if top in kill:
            push = tuple(rng.sample(kill, rng.randint(0, 1)))
        else:
            push = tuple(rng.choice(regular) for _ in range(rng.choice((0, 1, 1, 2))))
        spawn = rng.choice([None, None, *kill, *regular])
        rules.append(DcpsRule(rng.choice(states), top, rng.choice(states), push, spawn))
    kills = [
        KillRule(rng.choice(states), rng.choice(kill), rng.choice(states),
                 rng.random() < 0.5, rng.choice(kill))
        for _ in range(rng.randint(1, 2))
    ]
    initial = rng.choice(regular + regular + kill)
    return dcps.make_dcps(states[0], initial, tuple(rules), tuple(kills), frozenset(kill))


def random_plain_dcps(rng: random.Random) -> dcps.Dcps:
    states = [f"g{i}" for i in range(rng.randint(2, 3))]
    symbols = [f"a{i}" for i in range(rng.randint(1, 3))]
    rules = []
    for _ in range(rng.randint(2, 5)):
        push = tuple(rng.choice(symbols) for _ in range(rng.choice((0, 1, 1))))
        spawn = rng.choice([None, None, None, *symbols])
        rules.append(
            DcpsRule(rng.choice(states), rng.choice(symbols), rng.choice(states), push, spawn)
        )
    return dcps.make_dcps(states[0], rng.choice(symbols), tuple(rules))


def random_pnet(rng: random.Random) -> petri.PetriNet:
    places = [f"p{i}" for i in range(rng.randint(2, 6))]
    transitions = []
    for i in range(rng.randint(1, 7)):
        pre = frozenset(rng.sample(places, rng.randint(1, 2)))
        # mostly token-conserving, so forward searches stay small
        post = frozenset(rng.sample(places, rng.choice((0, 1, 1, 1, 2))))
        transitions.append((f"t{i}", pre, post))
    return petri.PetriNet(tuple(places), tuple(transitions), rng.choice(places), rng.choice(places))


def _random_body(rng, prefix, length, variables, procs, last, may_call):
    labels = [f"{prefix}{i}" for i in range(length)]
    body = []
    for label in labels[:-1]:
        kind = rng.choice(("inc", "dec", "or", "call") if may_call else ("inc", "dec", "or"))
        if kind == "inc":
            body.append(Inc(label, rng.choice(variables)))
        elif kind == "dec":
            body.append(Dec(label, rng.choice(variables)))
        elif kind == "call":
            body.append(Call(label, rng.choice(procs)))
        else:
            body.append(GotoOr(label, rng.choice(labels), rng.choice(labels)))
    body.append(last(labels[-1]))
    return tuple(body)


def control_places(program: Rnp) -> int:
    """The places a program's control needs, counted from the program
    alone: one per label (a procedure's two body entries share one), one
    return per procedure, one pending call per call site, one per counter
    and a halt place."""
    bodies = [program.main, *(body for p in program.procs for body in (p.lt_max, p.eq_max))]
    commands = [cmd for body in bodies for cmd in body]
    calls = sum(isinstance(cmd, Call) for cmd in commands)
    counters = {cmd.var for cmd in commands if isinstance(cmd, (Inc, Dec))}
    labels = len(commands) - len(program.procs)
    return labels + len(program.procs) + calls + len(counters) + 1


def random_rnp(rng: random.Random) -> Rnp:
    """A depth-2 program with RNP_CONTROL_PLACES control places, drawn by
    rejection on a count made here, so the pool does not depend on the
    compiler under test."""
    while True:
        variables = ["x", "y"][: rng.randint(1, 2)]
        names = ["p", "q"][: rng.randint(1, 2)]
        procs = tuple(
            Proc(
                name,
                _random_body(rng, f"{name}u", rng.randint(2, 4), variables, names, Return, True),
                _random_body(rng, f"{name}v", rng.randint(1, 3), variables, names, Return, False),
            )
            for name in names
        )
        main = _random_body(rng, "m", rng.randint(3, 6), variables, names, Halt, True)
        program = Rnp(2, main, procs)
        if control_places(program) in RNP_CONTROL_PLACES:
            return program


GENERATORS = {
    "kill": random_kill_dcps,
    "plain": random_plain_dcps,
    "pnet": random_pnet,
    "rnp": random_rnp,
}


def make_pool(family: str) -> list:
    """One family's fixed pool; each family has its own random stream."""
    rng = random.Random(f"{POOL_SEED}:{family}")
    return [GENERATORS[family](rng) for _ in range(POOL_SIZES[family])]


def make_instances(seed: int) -> dict[str, list]:
    """The workload's inputs: every pool in full, each in an order drawn
    from the seed."""
    rng = random.Random(seed)
    out = {}
    for family in POOL_SIZES:
        pool = make_pool(family)
        rng.shuffle(pool)
        out[family] = pool
    return out


# ---------------------------------------------------------------------------
# Checks.  Each returns (decided, disagree, key, artifacts); key records the
# verdicts for the determinism digest, artifacts are the compiled systems'
# serialized text.


def check_kill(system, k):
    plain = dcps.desugar_kill(system)
    base, base_complete = dcps.reachable_states(system, k, **KILL_CAPS)
    lifted, lifted_complete = dcps.reachable_states(plain, k, **KILL_PLAIN_CAPS)
    original = frozenset(system.states)
    decided = base_complete and lifted_complete
    disagree = decided and (base & original) != (lifted & original)
    key = (sorted(base), base_complete, sorted(lifted), lifted_complete)
    return decided, disagree, key, [dcps.serialize_dcps(plain)]


def _certified(verdict):
    if isinstance(verdict, dcps.DcpsReachable):
        return "yes"
    if isinstance(verdict, dcps.DcpsNo):
        return "no"
    return None


def check_plain(system, k, goal):
    base = dcps.reach_state(system, goal, k, **PLAIN_CAPS)
    compiled, target = dcps.compile_to_inheritance(system, goal)
    lifted = dcps.reach_state(compiled, target, k + 2, semantics="inherit", **INHERIT_CAPS)
    a, b = _certified(base), _certified(lifted)
    decided = a is not None and b is not None
    key = (repr(base), repr(lifted))
    return decided, decided and a != b, key, [dcps.serialize_dcps(compiled)]


def check_pnet(net):
    backward = petri.cover_backward(net)
    forward = petri.cover_forward_bfs(net, **FORWARD_CAPS)
    back_yes = isinstance(backward, petri.Coverable)
    if isinstance(forward, petri.ForwardCoverable):
        decided, disagree = True, not back_yes
    elif isinstance(forward, petri.NotCoverableWithinCaps) and forward.complete:
        decided, disagree = True, back_yes
    else:
        decided, disagree = False, False
    return decided, disagree, (repr(backward), repr(forward)), []


def check_rnp(program):
    """Two comparisons against the backward engine on the expanded net."""
    net = rnp2tdpn.compile_rnp_to_tdpn(program).tdpn
    expanded = tdpn.expand(net)
    back_yes = isinstance(petri.cover_backward(expanded), petri.Coverable)
    explored = rnp.explore_halting(program, max_configs=RNP_MAX_CONFIGS)
    symbolic = tdpn.coverable(net, mode="symbolic", **SYMBOLIC_CAPS)
    if isinstance(explored, rnp.RnpHalts):
        direct = True
    elif isinstance(explored, rnp.RnpNo):
        direct = False
    else:
        direct = None
    if isinstance(symbolic, tdpn.TdpnCoverable):
        sym = True
    elif isinstance(symbolic, tdpn.TdpnNotCoverable) and symbolic.complete:
        sym = False
    else:
        sym = None
    key = (back_yes, type(explored).__name__, explored.configs_explored, repr(symbolic))
    artifacts = [tdpn.serialize_tdpn(net), petri.serialize_pnet(expanded)]
    return [
        (direct is not None, direct is not None and direct != back_yes, key, artifacts),
        (sym is not None, sym is not None and sym != back_yes, key, []),
    ]


def comparisons(instances):
    """(family, index, thunk) for every comparison of a pass, in a fixed
    order.  A thunk returns a list of check results."""
    out = []
    for i, system in enumerate(instances["kill"]):
        for k in (0, 1, 2):
            out.append(("kill", i, lambda s=system, k=k: [check_kill(s, k)]))
    for i, system in enumerate(instances["plain"]):
        for k in (0, 1):
            for goal in system.states:
                out.append(("plain", i, lambda s=system, k=k, g=goal: [check_plain(s, k, g)]))
    for i, net in enumerate(instances["pnet"]):
        out.append(("pnet", i, lambda n=net: [check_pnet(n)]))
    for i, program in enumerate(instances["rnp"]):
        out.append(("rnp", i, lambda p=program: check_rnp(p)))
    return out


def run_pass(instances, on_instance=None) -> dict:
    """Run every comparison once.  `on_instance(name)` is called before each
    comparison (the tracer uses it to group spans by instance)."""
    attempted = decided = 0
    failures: list[str] = []
    artifact_bytes = 0
    digest = hashlib.sha256()
    families: list[str] = []
    comparison_s: list[float] = []
    for family, index, thunk in comparisons(instances):
        name = f"{family}#{index}"
        if on_instance is not None:
            on_instance(name)
        t0 = time.perf_counter()
        try:
            results = thunk()
        except Exception as err:  # a crash is a failed operation, not the end of the pass
            results = []
            attempted += 1
            failures.append(f"{name}: crashed: {type(err).__name__}: {err}")
        families.append(family)
        comparison_s.append(time.perf_counter() - t0)
        for ok_decided, disagree, key, artifacts in results:
            attempted += 1
            decided += ok_decided
            if disagree:
                failures.append(f"{name}: oracle disagreement {key!r}")
            digest.update(repr(key).encode())
            artifact_bytes += sum(len(text.encode()) for text in artifacts)
    return {
        "attempted": attempted,
        "decided": decided,
        "failures": failures,
        "artifact_bytes": artifact_bytes,
        "digest": digest.hexdigest(),
        "families": families,
        "comparison_s": comparison_s,
    }
