"""Acceptance suite: one test per advertised guarantee, each with its time
budget enforced.

Every test here re-checks a headline property end to end, independently of
the per-module unit tests: the exact arithmetic effects of the compiled
helper procedures, verdict agreement across all four models on real corpora,
semantic preservation of the two thread-pool reductions, the documented
closed-form size formulas, and the oracle pairs that keep the search
engines honest.  Run with -v to get one pass/fail line per criterion.
"""

import contextlib
import hashlib
import random
import time

import pytest

from genutil import (
    brute_force_language,
    random_kill_dcps,
    random_plain_dcps,
    random_pnet,
    random_tdpn,
    random_transducer,
    tiny_rnps,
    transducer_from_tuples,
)
from helpers import (
    CORPUS,
    FULL_DEPTH2,
    corpus_names,
    corpus_program,
    dec_depth2_harness,
    dec_harness,
    halting_effect,
    inc_harness,
    zero_test_harness,
)
from snl.counter import BoundExceeded, Halts, run_bounded
from snl.dcps import (
    DcpsNo,
    DcpsReachable,
    compile_to_inheritance,
    desugar_kill,
    inheritance_rule_count,
    reach_state,
    reachable_states,
    replay_witness,
)
from snl.lipton import compile_lipton, simulated_bound
from snl.petri import Coverable, ForwardCoverable, ForwardUnknown, cover_backward, cover_forward_bfs
from snl.petri import canonical, fire
from snl.rnp import RnpHalts, RnpNo, explore_halting
from snl.rnp2tdpn import compile_rnp_to_tdpn, expected_language_sizes
from snl.tdpn import (
    Tdpn,
    TdpnCoverable,
    TdpnNotCoverable,
    coverable,
    expand,
    fire_symbolic,
)
from snl.tdpn2dcps import compile_tdpn_to_killdcps, expected_rule_counts
from snl.transducer import enumerate_accepted


@contextlib.contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"time budget exceeded: {elapsed:.2f}s >= {seconds}s"


# ---------------------------------------------------------------------------
# 1-3: exact integer effects of the compiled helper procedures (n = 1, so
# the simulated bound is 4 at depth 1 and 2 at the depth limit)


def test_criterion_1_dec_drains_exactly():
    with budget(1):
        effect = halting_effect(dec_harness(), {("s", 1): 4, **FULL_DEPTH2})
        assert effect == {("bar_s", 1): 4, **FULL_DEPTH2}
        effect = halting_effect(dec_depth2_harness(), {("s", 2): 2})
        assert effect == {("bar_s", 2): 2}


def test_criterion_2_inc_builds_the_full_ladder():
    with budget(1):
        effect = halting_effect(inc_harness(), {})
        assert effect == {
            ("bar_s", 1): 4, ("y", 1): 4, ("z", 1): 4,
            ("bar_s", 2): 2, ("y", 2): 2, ("z", 2): 2,
        }


def test_criterion_3_zero_test_gadget_both_branches():
    with budget(1):
        nonzero_start = {("y", 1): 4, ("bar_s", 1): 4, **FULL_DEPTH2}
        assert halting_effect(zero_test_harness("nonzero"), nonzero_start) == nonzero_start
        zero_start = {("bar_y", 1): 4, ("bar_s", 1): 4, **FULL_DEPTH2}
        effect = halting_effect(zero_test_harness("zero"), zero_start)
        assert effect == {("y", 1): 4, ("bar_s", 1): 4, **FULL_DEPTH2}


# ---------------------------------------------------------------------------
# 4: counter programs agree with their compiled recursive net programs on
# the whole corpus (halting, aborting, bound-exceeding, branching, looping)


def test_criterion_4_counter_agrees_with_compiled_rnp_on_corpus():
    names = corpus_names()
    assert len(names) >= 8
    for name in names:
        with budget(60):
            program = corpus_program(name)
            direct = run_bounded(program, 4, fuel=200_000)
            verdict = explore_halting(compile_lipton(program, n=1).rnp)
            assert isinstance(verdict, (RnpHalts, RnpNo)), (name, verdict)
            assert isinstance(direct, Halts) == isinstance(verdict, RnpHalts), name


def test_criterion_4_bound_flip_follows_n():
    # five increments exceed 2^(2^1) = 4 but fit in 2^(2^2) = 16: the
    # compiled program's verdict flips with n exactly where the counter's does
    program = corpus_program("exceed_straight.cp")
    for n, direct_kind, rnp_kind in ((1, BoundExceeded, RnpNo), (2, Halts, RnpHalts)):
        with budget(30):
            assert isinstance(run_bounded(program, simulated_bound(n)), direct_kind), n
            verdict = explore_halting(compile_lipton(program, n).rnp)
            assert isinstance(verdict, rnp_kind), n
    assert (simulated_bound(1), simulated_bound(2)) == (4, 16)
    # the n=2 search order and shortest witness, which no change to how a
    # configuration is stored may move
    assert verdict.configs_explored == 281146
    assert len(verdict.witness) == 244
    assert hashlib.sha256(repr(verdict.witness).encode()).hexdigest().startswith("ed499afec103aae6")


# ---------------------------------------------------------------------------
# 5: tiny recursive net programs agree with both coverability engines on
# their compiled nets


def test_criterion_5_rnp_agrees_with_both_cover_engines():
    for name, program in tiny_rnps():
        with budget(60):
            halts = isinstance(explore_halting(program), RnpHalts)
            net = compile_rnp_to_tdpn(program).tdpn
            expanded = expand(net, place_limit=1024)
            assert len(expanded.places) <= 1024, name
            backward = cover_backward(expanded)
            symbolic = coverable(net, mode="symbolic")
            assert isinstance(backward, Coverable) == halts, name
            assert isinstance(symbolic, TdpnCoverable) == halts, name


# ---------------------------------------------------------------------------
# 6: coverability of a symbolic net coincides with halt-state reachability
# of its compiled thread pool at switch budget 1, and the witnesses obey
# the one-switch locking discipline


def micro_nets():
    alpha = ("0", "1")
    empty = transducer_from_tuples(2, alpha, [])
    empty3 = transducer_from_tuples(3, alpha, [])

    def net(width, w_init, w_final, moves=(), forks=(), joins=()):
        return Tdpn(
            width, alpha, w_init, w_final,
            transducer_from_tuples(2, alpha, list(moves)),
            transducer_from_tuples(3, alpha, list(forks)),
            transducer_from_tuples(3, alpha, list(joins)),
        )

    return [
        ("move", net(1, "0", "1", moves=[("0", "1")])),
        ("forkjoin", net(1, "0", "1", forks=[("0", "0", "0")], joins=[("0", "0", "1")])),
        ("width2", net(2, "00", "11", moves=[("00", "11")])),
        ("deadend", net(1, "0", "1")),
    ]


def test_criterion_6_cover_iff_halt_reachable_with_disciplined_witness():
    for name, net in micro_nets():
        with budget(300):
            covered = isinstance(coverable(net, mode="backward"), TdpnCoverable)
            system = compile_tdpn_to_killdcps(net).system
            caps = dict(
                max_threads=3 * net.width + 4,
                max_stack=net.width + 1,
                max_configs=1_000_000,
            )
            verdict = reach_state(system, "g_halt", 1, **caps)
            assert isinstance(verdict, (DcpsReachable, DcpsNo)), (name, verdict)
            assert isinstance(verdict, DcpsReachable) == covered, name
            if not isinstance(verdict, DcpsReachable):
                continue
            for config in replay_witness(system, verdict.witness, 1):
                for stack, count in (config.active,) + config.pool:
                    assert len(stack) <= net.width + 1, name
                    if stack:
                        assert count <= 1, name  # one switch per thread
                if config.state == "g_main":
                    for stack, _ in config.pool:
                        if stack:
                            assert stack[0] == "ytop", name  # parked tokens stay locked


# ---------------------------------------------------------------------------
# 7: desugaring kill rules preserves the K-bounded reachable state sets


def test_criterion_7_desugared_systems_reach_the_same_states():
    with budget(60):
        rng = random.Random(20260819)
        for trial in range(20):
            system = random_kill_dcps(rng)
            plain = desugar_kill(system)
            original = frozenset(system.states)
            for k in (0, 1, 2):
                base, _ = reachable_states(
                    system, k, max_threads=6, max_stack=8, max_configs=60_000
                )
                lifted, _ = reachable_states(
                    plain, k, max_threads=7, max_stack=8, max_configs=60_000
                )
                assert base & original == lifted & original, (trial, k)


# ---------------------------------------------------------------------------
# 8: the spawn-count reduction shifts the switch budget by exactly two


def test_criterion_8_inheritance_reduction_shifts_budget_by_two():
    with budget(120):
        rng = random.Random(77)
        for trial in range(10):
            system = random_plain_dcps(rng)
            for k in (0, 1):
                for goal in system.states:
                    base = reach_state(
                        system, goal, k, max_threads=6, max_stack=4, max_configs=40_000
                    )
                    compiled, target = compile_to_inheritance(system, goal)
                    lifted = reach_state(
                        compiled, target, k + 2, semantics="inherit",
                        max_threads=7, max_stack=6, max_configs=60_000,
                    )
                    assert isinstance(base, DcpsReachable) == isinstance(
                        lifted, DcpsReachable
                    ), (trial, k, goal)


# ---------------------------------------------------------------------------
# 9: emitted sizes match the documented closed forms


def _straightline(m):
    from snl import counter

    cmds = []
    for i in range(m - 1):
        cmds.append(counter.Inc(f"l{i}", "x") if i % 2 == 0 or i < 2 else counter.Dec(f"l{i}", "x"))
    cmds.append(counter.Halt(f"l{m - 1}"))
    return counter.CounterProgram(tuple(cmds))


def test_criterion_9_sizes_match_documented_closed_forms():
    with budget(60):
        # compiled command counts grow linearly in the source length
        sizes = {m: len(compile_lipton(_straightline(m), n=1).rnp.main) for m in (5, 10, 20)}
        assert sizes[20] - sizes[10] == 2 * (sizes[10] - sizes[5])

        # transducer language sizes on a compiled program
        program = corpus_program("count4.cp")
        compiled = compile_lipton(program, n=1).rnp
        comp = compile_rnp_to_tdpn(compiled)
        expected = expected_language_sizes(compiled)
        width = comp.tdpn.width
        for mode, t in (
            ("move", comp.tdpn.t_move),
            ("fork", comp.tdpn.t_fork),
            ("join", comp.tdpn.t_join),
        ):
            assert len(list(enumerate_accepted(t, width))) == expected[mode]

        # thread-pool rule counts, stage by stage, on handcrafted and random nets
        rng = random.Random(7)
        nets = [net for _, net in micro_nets()] + [
            random_tdpn(rng, rng.choice([1, 2])) for _ in range(6)
        ]
        for net in nets:
            system = compile_tdpn_to_killdcps(net).system
            counts = expected_rule_counts(net)
            assert len(system.rules) == (
                counts["init"] + counts["check"] + counts["read"] + counts["guess"]
            )
            assert len(system.kills) == counts["verify"]

        # spawn-count reduction rule count
        for _ in range(5):
            system = random_plain_dcps(rng)
            compiled_sys, _ = compile_to_inheritance(system, system.states[0])
            assert len(compiled_sys.rules) == inheritance_rule_count(
                len(system.states), len(system.symbols), len(system.rules)
            )


# ---------------------------------------------------------------------------
# 10: oracle pairs agree


def test_criterion_10_search_engines_agree_with_their_oracles():
    with budget(60):
        # backward coverability vs forward breadth-first search
        rng = random.Random(2024)
        compared = 0
        for _ in range(80):
            if compared == 50:
                break
            net = random_pnet(rng)
            backward = cover_backward(net)
            forward = cover_forward_bfs(net, max_tokens=16, max_markings=200_000)
            if isinstance(forward, ForwardUnknown):
                continue  # budget verdicts carry no information
            assert isinstance(backward, Coverable) == isinstance(forward, ForwardCoverable)
            compared += 1
        assert compared == 50

        # symbolic firing vs expand-then-fire
        rng = random.Random(20260819)
        for _ in range(20):
            net = random_tdpn(rng, rng.randint(1, 3))
            expanded = expand(net)
            sample = rng.sample(expanded.places, k=min(3, len(expanded.places)))
            marking = {w: rng.randint(1, 2) for w in sample}
            symbolic = sorted(canonical(m) for _, m in fire_symbolic(net, marking))
            explicit = []
            for t in expanded.transitions:
                m = fire(expanded, marking, t[0])
                if m is not None:
                    explicit.append(canonical(m))
            assert symbolic == sorted(explicit)

        # transducer enumeration vs brute-force filtering
        rng = random.Random(4242)
        for _ in range(10):
            arity = rng.choice([2, 3])
            t = random_transducer(rng, arity)
            for length in (1, 2, 3):
                assert set(enumerate_accepted(t, length)) == brute_force_language(t, length)
