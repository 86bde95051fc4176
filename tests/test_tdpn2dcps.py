import functools
import gc
import hashlib
import json
import random
import tracemalloc
import weakref
from collections import Counter
from itertools import islice

import pytest

from genutil import random_tdpn, transducer_from_tuples
from helpers import CORPUS, corpus_program
from snl import cli, dcps, lipton, rnp2tdpn
from snl.dcps import (
    Dcps,
    DcpsNo,
    DcpsReachable,
    DcpsUnknown,
    _canonical,
    _run,
    desugar_kill,
    parse_dcps,
    reach_state,
    replay_final,
    replay_rounds,
    replay_witness,
    serialize_dcps,
)
from snl.tdpn import Tdpn, TdpnCoverable, TdpnNotCoverable, coverable, parse_tdpn
from snl.tdpn2dcps import compile_tdpn_to_killdcps, expected_rule_counts

ALPHA = ("0", "1")


def micro_tdpn(width, w_init, w_final, moves=(), forks=(), joins=()):
    return Tdpn(
        width,
        ALPHA,
        w_init,
        w_final,
        transducer_from_tuples(2, ALPHA, list(moves)),
        transducer_from_tuples(3, ALPHA, list(forks)),
        transducer_from_tuples(3, ALPHA, list(joins)),
    )


@functools.cache
def move_chain_net():
    # one token, one rewrite: 0 -> 1
    return micro_tdpn(1, "0", "1", moves=[("0", "1")])


@functools.cache
def fork_join_net():
    # duplicate the token, then join the pair: 0 -> 0,0 -> 1
    return micro_tdpn(1, "0", "1", forks=[("0", "0", "0")], joins=[("0", "0", "1")])


@functools.cache
def width2_net():
    return micro_tdpn(2, "00", "11", moves=[("00", "11")])


def explore(system, width, **overrides):
    caps = dict(max_threads=3 * width + 4, max_stack=width + 1, max_configs=500_000)
    caps.update(overrides)
    return reach_state(system, "g_halt", 1, **caps)


@functools.cache
def compiled_and_explored(net):
    system = compile_tdpn_to_killdcps(net).system
    return system, explore(system, net.width)


def verify_entries(witness):
    return [i for i, e in enumerate(witness) if e == ("switch", (("yverify",), 0))]


# ---------------------------------------------------------------------------
# Emission shape


def test_width1_init_stage_is_single_rule():
    system = compile_tdpn_to_killdcps(move_chain_net()).system
    assert system.initial_state == "init_1"
    assert system.initial_symbol == "0"
    first = system.rules[0]
    assert (first.state, first.top, first.new_state) == ("init_1", "0", "g_main")
    assert first.push == ("ytop", "0")
    assert not any(r.state.startswith("init_") for r in system.rules[1:])


def test_width2_init_stage_builds_word_from_the_bottom():
    system = compile_tdpn_to_killdcps(width2_net()).system
    assert system.initial_state == "init_2"
    assert [r for r in system.rules if r.state == "init_2"][0].push == ("0", "0")
    assert [r for r in system.rules if r.state == "init_1"][0].push == ("ytop", "0")


@pytest.mark.parametrize(
    "net", [move_chain_net(), fork_join_net(), width2_net()], ids=["move", "forkjoin", "w2"]
)
def test_rule_counts_match_closed_forms(net):
    system = compile_tdpn_to_killdcps(net).system
    c = expected_rule_counts(net)
    assert len(system.rules) == c["init"] + c["check"] + c["read"] + c["guess"]
    assert len(system.kills) == c["verify"]


def test_rule_counts_match_on_random_nets():
    rng = random.Random(7)
    for _ in range(6):
        net = random_tdpn(rng, rng.choice([1, 2]))
        system = compile_tdpn_to_killdcps(net).system
        c = expected_rule_counts(net)
        assert len(system.rules) == c["init"] + c["check"] + c["read"] + c["guess"]
        assert len(system.kills) == c["verify"]


def test_compilation_is_deterministic():
    a = compile_tdpn_to_killdcps(fork_join_net()).system
    b = compile_tdpn_to_killdcps(fork_join_net()).system
    assert a == b
    assert serialize_dcps(a) == serialize_dcps(b)


def test_round_trip_through_text_format():
    for net in (move_chain_net(), fork_join_net(), width2_net()):
        system = compile_tdpn_to_killdcps(net).system
        assert parse_dcps(serialize_dcps(system)) == system


def test_names_cover_generated_identifiers():
    net = move_chain_net()
    compiled = compile_tdpn_to_killdcps(net)
    system, names = compiled.system, compiled.names
    assert names["g_main"] == "(main)"
    assert names["g_halt"] == "(halt)"
    assert names["ytop"] == "(lock)"
    assert names["b0_1_pop1"] == "(0,1,pop1)"
    for state in system.states:
        assert state in names
    for sym in system.symbols:
        assert sym in ALPHA or sym in names


# Transducer states named like the tail of a verify-state name, so that the
# verify names look alike; the rounds of all three modes interleave.
LOOKALIKE_TDPN = """
width 2;
alphabet 0 1;
init 00;
final 11;
transducer move arity 2 {
  states r q_1_pop1_t0 f;
  initial r;
  finals f;
  trans r -> q_1_pop1_t0 on (0,1);
  trans q_1_pop1_t0 -> f on (0,1);
  trans f -> r on (1,0);
  trans r -> f on (1,1);
}
transducer fork arity 3 {
  states p q_2_push2_t1;
  initial p;
  finals q_2_push2_t1;
  trans p -> q_2_push2_t1 on (0,0,1);
  trans q_2_push2_t1 -> q_2_push2_t1 on (1,1,0);
}
transducer join arity 3 {
  states j_1_pop2_t0;
  initial j_1_pop2_t0;
  finals j_1_pop2_t0;
  trans j_1_pop2_t0 -> j_1_pop2_t0 on (1,0,1);
}
"""


def test_verify_names_are_minted_in_first_mention_order():
    # SHA-256 of the .dcps text, the sorted names and the names in the order
    # they were minted (a state is minted where a rule first mentions it)
    net = parse_tdpn(LOOKALIKE_TDPN)
    compiled = compile_tdpn_to_killdcps(net)
    names = compiled.names
    texts = (
        serialize_dcps(compiled.system),
        "".join(f"{key}\t{pretty}\n" for key, pretty in sorted(names.items())),
        "".join(f"{key}\t{pretty}\n" for key, pretty in names.items()),
    )
    assert tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts) == (
        "d36e81b939461b246e4f4507a8158e9369bf7b719cd2986a49b9eb18b3646d7d",
        "5a20a1e67a2abd0752e29c28f56b2b511eed82b97d9d1bb3eedc729c5d2009fb",
        "13eabd01a7e8a040bee04dbbb00792423b8bc26e8d0b871c9fab668c21d35600",
    )


def test_a_verify_state_minted_twice_is_refused():
    from snl.tdpn2dcps import _VerifyRow

    names = {"move_v_r_1_pop1_t0": "(taken)"}
    row = _VerifyRow(names, "move", 1, "pop1", [("r", "r-01->f")])
    with pytest.raises(RuntimeError, match="minted twice"):
        row[0]


def test_verify_blocks_must_tile_the_kills(monkeypatch):
    from snl import tdpn2dcps

    of = tdpn2dcps._Offsets.of

    def one_too_long(t):
        offsets = of(t)
        return offsets._replace(chain_start=offsets.chain_start[:-1] + (offsets.chain_start[-1] + 1,))

    monkeypatch.setattr(tdpn2dcps._Offsets, "of", one_too_long)
    # the chained blocks exist from width 2 on
    with pytest.raises(RuntimeError, match="do not tile"):
        tdpn2dcps.compile_tdpn_to_killdcps(width2_net())


# ---------------------------------------------------------------------------
# Round behaviour


def test_move_round_replays_two_kills_then_hub():
    system, verdict = compiled_and_explored(move_chain_net())
    assert isinstance(verdict, DcpsReachable)
    configs = replay_witness(system, verdict.witness, 1)
    assert configs[-1].state == "g_halt"
    entries = verify_entries(verdict.witness)
    assert len(entries) == 1
    i = entries[0] + 1
    segment = []
    while configs[i].state != "g_main":
        segment.append(verdict.witness[i])
        i += 1
    assert [e[0] for e in segment] == ["kill", "kill"]


def test_width2_move_round_kills_two_bits_per_position():
    system, verdict = compiled_and_explored(width2_net())
    assert isinstance(verdict, DcpsReachable)
    kills = [e for e in verdict.witness if e[0] == "kill"]
    assert len(kills) == 4


def test_fork_then_join_reaches_halt_with_two_verify_rounds():
    system, verdict = compiled_and_explored(fork_join_net())
    assert isinstance(verdict, DcpsReachable)
    configs = replay_witness(system, verdict.witness, 1)
    assert configs[-1].state == "g_halt"
    entries = verify_entries(verdict.witness)
    modes = {configs[i + 1].state.split("_v_")[0] for i in entries}
    assert modes == {"fork", "join"}


def test_verify_stage_starts_with_exact_bit_thread_counts():
    # one bit-thread per letter read or guessed: 2l for move, 3l for the rest
    for net, per_mode in (
        (move_chain_net(), {"move": 2}),
        (fork_join_net(), {"fork": 3, "join": 3}),
        (width2_net(), {"move": 4}),
    ):
        system, verdict = compiled_and_explored(net)
        assert isinstance(verdict, DcpsReachable)
        configs = replay_witness(system, verdict.witness, 1)
        bit_syms = set(system.kill_syms) - {"yverify"}
        for i in verify_entries(verdict.witness):
            at_entry = configs[i + 1]
            mode = at_entry.state.split("_v_")[0]
            bits = [
                stack[0]
                for stack, _ in at_entry.pool
                if len(stack) == 1 and stack[0] in bit_syms
            ]
            assert len(bits) == per_mode[mode]
            roles = {tuple(name.split("_")[1:]) for name in bits}
            assert len(roles) == len(bits)  # distinct (position, role) pairs


def test_witness_respects_one_switch_locking_and_stack_bound():
    for net in (move_chain_net(), fork_join_net(), width2_net()):
        system, verdict = compiled_and_explored(net)
        assert isinstance(verdict, DcpsReachable)
        for config in replay_witness(system, verdict.witness, 1):
            threads = (config.active,) + config.pool
            for stack, count in threads:
                assert len(stack) <= net.width + 1
                if stack:
                    assert count <= 1
            if config.state == "g_main":
                for stack, _ in config.pool:
                    if stack:
                        assert stack[0] == "ytop"


def test_stage_discipline_between_hub_visits():
    # after the verifier is switched in, only kills happen until g_main
    system, verdict = compiled_and_explored(fork_join_net())
    configs = replay_witness(system, verdict.witness, 1)
    for i in verify_entries(verdict.witness):
        j = i + 1
        while configs[j].state != "g_main":
            assert verdict.witness[j][0] == "kill"
            j += 1


# ---------------------------------------------------------------------------
# Coverability correspondence


def test_empty_language_net_exhausts_to_no():
    net = micro_tdpn(1, "0", "1")
    verdict = explore(compile_tdpn_to_killdcps(net).system, 1)
    assert isinstance(verdict, DcpsNo)


def test_self_loop_move_cannot_fake_the_final_word():
    net = micro_tdpn(1, "0", "1", moves=[("0", "0")])
    verdict = explore(compile_tdpn_to_killdcps(net).system, 1)
    assert isinstance(verdict, DcpsNo)


def test_equal_words_covered_without_any_round():
    net = micro_tdpn(1, "1", "1")
    verdict = explore(compile_tdpn_to_killdcps(net).system, 1)
    assert isinstance(verdict, DcpsReachable)
    assert all(e[0] != "kill" for e in verdict.witness)


def test_agreement_with_symbolic_coverability_on_random_nets():
    rng = random.Random(20260819)
    decided = 0
    for _ in range(10):
        net = random_tdpn(rng, 1)
        cov = coverable(net, mode="symbolic", max_tokens=8, max_markings=20_000)
        verdict = explore(compile_tdpn_to_killdcps(net).system, 1, max_configs=250_000)
        if isinstance(cov, TdpnCoverable):
            assert not isinstance(verdict, DcpsNo)
            decided += isinstance(verdict, DcpsReachable)
        elif isinstance(cov, TdpnNotCoverable) and cov.complete:
            assert not isinstance(verdict, DcpsReachable)
            decided += isinstance(verdict, DcpsNo)
    assert decided >= 5


# ---------------------------------------------------------------------------
# Desugared variant


def test_desugared_system_has_no_kills_and_still_reaches_halt():
    compiled = compile_tdpn_to_killdcps(move_chain_net())
    plain, g_halt = desugar_kill(compiled.system), compiled.halt
    assert g_halt == "g_halt"
    assert plain.kills == ()
    assert plain.kill_syms == frozenset()
    # the kill gadget keeps one extra marker thread alive mid-replacement
    verdict = reach_state(plain, g_halt, 1, max_threads=8, max_stack=2, max_configs=500_000)
    assert isinstance(verdict, DcpsReachable)


def test_desugared_negative_still_exhausts():
    compiled = compile_tdpn_to_killdcps(micro_tdpn(1, "0", "1"))
    plain, g_halt = desugar_kill(compiled.system), compiled.halt
    verdict = reach_state(plain, g_halt, 1, max_threads=8, max_stack=2, max_configs=500_000)
    assert isinstance(verdict, DcpsNo)


# ---------------------------------------------------------------------------
# Witness synthesis


def test_synthesized_witness_replays_on_micro_nets():
    from snl.tdpn2dcps import synthesize_cover_witness

    for net in (move_chain_net(), fork_join_net(), width2_net()):
        cov = coverable(net, mode="symbolic")
        assert isinstance(cov, TdpnCoverable)
        compiled = compile_tdpn_to_killdcps(net)
        events = synthesize_cover_witness(compiled, cov.witness)
        configs = replay_witness(compiled.system, events, 1)
        assert configs[-1].state == "g_halt"


def test_synthesized_witness_is_made_afresh_by_each_pass():
    from snl.tdpn2dcps import synthesize_cover_witness

    net = fork_join_net()
    compiled = compile_tdpn_to_killdcps(net)
    events = synthesize_cover_witness(compiled, coverable(net, mode="symbolic").witness)
    count = len(events)  # counted by a pass of its own
    assert list(events) == list(events) and len(list(events)) == count == len(events)
    assert replay_final(compiled.system, events, 1).state == "g_halt"


def test_language_is_walked_once_per_transducer_and_length(monkeypatch):
    from snl import transducer
    from snl.tdpn import expand
    from snl.tdpn2dcps import synthesize_cover_witness

    walks = []
    walk = transducer._walk

    def counted(t, length):
        walks.append((id(t), length))
        return walk(t, length)

    monkeypatch.setattr(transducer, "_walk", counted)
    # a fresh net, so no earlier test has walked its transducers; the move
    # and join languages have two first words each, so a walk per marked
    # word would show as extra walks
    net = micro_tdpn(
        2, "00", "11",
        moves=[("00", "01"), ("10", "10")],
        forks=[("01", "01", "10")],
        joins=[("01", "10", "11"), ("10", "01", "11")],
    )
    cov = coverable(net, mode="symbolic")
    assert isinstance(cov, TdpnCoverable)
    assert {kind for kind, _ in cov.witness} == {"move", "fork", "join"}
    expand(net)
    expand(net)
    tuple(synthesize_cover_witness(compile_tdpn_to_killdcps(net), cov.witness))
    assert sorted(walks) == sorted((id(t), 2) for t in (net.t_move, net.t_fork, net.t_join))


def test_synthesized_witnesses_on_random_coverable_nets():
    from snl.tdpn2dcps import synthesize_cover_witness

    rng = random.Random(4242)
    replayed = 0
    for _ in range(12):
        net = random_tdpn(rng, rng.choice([1, 2]))
        cov = coverable(net, mode="symbolic", max_tokens=8, max_markings=20_000)
        if not isinstance(cov, TdpnCoverable):
            continue
        compiled = compile_tdpn_to_killdcps(net)
        events = synthesize_cover_witness(compiled, cov.witness)
        configs = replay_witness(compiled.system, events, 1)
        assert configs[-1].state == "g_halt"
        replayed += 1
    assert replayed >= 4


def test_synthesis_rejects_steps_without_tokens():
    from snl.tdpn2dcps import synthesize_cover_witness

    net = move_chain_net()
    with pytest.raises(ValueError, match="never produced"):
        tuple(synthesize_cover_witness(compile_tdpn_to_killdcps(net), (("move", ("1", "0")),)))


def test_synthesis_rejects_tuples_the_transducer_does_not_accept():
    from snl.tdpn2dcps import synthesize_cover_witness

    compiled = compile_tdpn_to_killdcps(move_chain_net())
    # the token on "0" exists, but the move transducer only accepts ("0", "1")
    with pytest.raises(ValueError, match="does not accept"):
        tuple(synthesize_cover_witness(compiled, (("move", ("0", "0")),)))
    # a letter outside the alphabet is rejected before any schema is looked up
    with pytest.raises(ValueError, match="does not accept"):
        tuple(synthesize_cover_witness(compiled, (("move", ("0", "2")),)))
    # both join tokens exist after the fork, but only ("0", "0", "1") joins
    steps = (("fork", ("0", "0", "0")), ("join", ("0", "0", "0")))
    with pytest.raises(ValueError, match="does not accept"):
        tuple(synthesize_cover_witness(compile_tdpn_to_killdcps(fork_join_net()), steps))


# SHA-256 of the compiled .dcps text, the sorted names and the synthesized
# events; a change to emission order, minted names or synthesis shows here
STABLE_DIGESTS = {
    "count4.cp": (
        "18b1a4908e7259d1c7e02bb248f01b59a09d4e22b971985b4f3e4d002a38d4dc",
        "ac785d240f1492f4d732e104e64528e7763559003c323f31d7540f2d6ec07052",
        "86ce2095bd10149010cd261905a24ba776dd22734be4be31963f5aac7d3169ba",
    ),
    "updown_loop.cp": (
        "3b3bd5ec63b5258c0db9345e43ea6195cbbdbd06c86695e8ca4fb0953a74155a",
        "91303ab50c065310e991cb902ceb9526cf941aadf7c71533f7f3935f88253c47",
        "1f804d2e011c06323c76db905d954329afe115b08bed47f2bb4111812986ac79",
    ),
}


@pytest.mark.parametrize("name", sorted(STABLE_DIGESTS))
def test_compiled_system_and_witness_are_byte_stable(name):
    from snl.tdpn2dcps import synthesize_cover_witness

    net = rnp2tdpn.compile_rnp_to_tdpn(lipton.compile_lipton(corpus_program(name), 1).rnp).tdpn
    cov = coverable(net, mode="symbolic", max_tokens=64, max_markings=2_000_000)
    assert isinstance(cov, TdpnCoverable)
    compiled = compile_tdpn_to_killdcps(net)
    names = "".join(f"{key}\t{pretty}\n" for key, pretty in sorted(compiled.names.items()))
    events = tuple(synthesize_cover_witness(compiled, cov.witness))
    digests = tuple(
        hashlib.sha256(text.encode()).hexdigest()
        for text in (serialize_dcps(compiled.system), names, repr(events))
    )
    assert digests == STABLE_DIGESTS[name]


def test_final_replay_holds_one_configuration():
    from snl.tdpn2dcps import synthesize_cover_witness

    net = rnp2tdpn.compile_rnp_to_tdpn(lipton.compile_lipton(corpus_program("count4.cp"), 1).rnp).tdpn
    cov = coverable(net, mode="symbolic", max_tokens=64, max_markings=2_000_000)
    assert isinstance(cov, TdpnCoverable)
    compiled = compile_tdpn_to_killdcps(net)
    system = compiled.system
    events = tuple(synthesize_cover_witness(compiled, cov.witness))
    system.buckets  # built once, outside both measurements

    def peak(replay):
        tracemalloc.start()
        try:
            replay(system, events, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a replay that collects the run again grows with the witness
    assert peak(replay_final) < peak(replay_witness) / 4


def carried_witness(name, n):
    """The compiled kill-dcps of a halting corpus program at n, and the
    pipeline's carried steps: its guided run, translated."""
    compiled_rnp = lipton.compile_lipton(corpus_program(name), n)
    compilation = rnp2tdpn.compile_rnp_to_tdpn(compiled_rnp.rnp)
    steps = tuple(rnp2tdpn.translate_run(compilation, compiled_rnp.rnp, lipton.guided_run(compiled_rnp)))
    return compile_tdpn_to_killdcps(compilation.tdpn), steps


@pytest.mark.parametrize("name, n", [
    *((name, 1) for name in ("branch_nonzero.cp", "branch_zero.cp", "count4.cp", "halt.cp", "two_vars.cp",
                             "updown_loop.cp")),
    ("halt.cp", 2), ("count4.cp", 2), ("exceed_straight.cp", 2),
])
def test_round_replay_matches_the_full_replay_at_every_round_boundary(name, n):
    from snl.tdpn2dcps import synthesize_cover_witness

    compiled, steps = carried_witness(name, n)
    system = compiled.system
    witness = synthesize_cover_witness(compiled, steps)
    rounds = list(witness.rounds())
    # the whole stream, made by a pass of its own, replayed by _run a round's length at a time
    stream = iter(witness)
    full = system.initial_state, ((system.initial_symbol,), 0), {}
    replayed = 0
    for (_, events, _), (state, active, pool) in zip(rounds, replay_rounds(system, rounds, 1), strict=True):
        full = _run(system, full, list(islice(stream, len(events))), 1, "noinherit")
        assert _canonical(state, active, pool) == _canonical(*full)
        replayed += len(events)
    assert next(stream, None) is None
    assert replayed == len(witness) == len(list(witness))
    assert _canonical(state, active, pool) == replay_final(system, witness, 1) and state == compiled.halt


def test_pipeline_replays_each_distinct_round_once(capsys, tmp_path, monkeypatch):
    # count4 at n=2 replays 274563 events in 4396 rounds: boot, 4394 steps and
    # the final check; 312 of them are distinct in round, state, active thread
    # and empty-stack threads
    passed = []

    def counted(system, config, events, budget, semantics):
        events = list(events)
        passed.append(len(events))
        return run(system, config, events, budget, semantics)

    run = dcps._run
    monkeypatch.setattr(dcps, "_run", counted)
    out_dir = tmp_path / "count4"
    assert cli.main(["pipeline", "--n", "2", str(CORPUS / "count4.cp"), "--out-dir", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["stages"][-1]["detail"] == {"method": "replay", "events": 274563}
    assert len(passed) == 312 and sum(passed) < 25000, (len(passed), sum(passed))


def test_witness_length_makes_each_distinct_round_once(monkeypatch):
    from snl import tdpn2dcps

    made = Counter()
    maker = tdpn2dcps._round_maker

    def counted(compiled):
        make = maker(compiled)

        def counting(*key):
            made[key] += 1
            return make(*key)

        return counting

    monkeypatch.setattr(tdpn2dcps, "_round_maker", counted)
    compiled, steps = carried_witness("halt.cp", 1)
    witness = tdpn2dcps.synthesize_cover_witness(compiled, steps)
    keys = set(tdpn2dcps._round_keys(compiled.net, steps))
    # len() makes each distinct round once, and the stream that follows reuses them
    count = len(witness)
    assert set(made) == keys and set(made.values()) == {1}
    assert count == len(list(witness)) == len(witness)
    assert set(made) == keys and set(made.values()) == {1}


def test_compiled_construction_retains_under_400_bytes_per_kill():
    # what the compiled record keeps: the system, its names, one event per
    # plain rule and one first-kill index per verify block (574 bytes per
    # kill when every kill had its own event key)
    net = rnp2tdpn.compile_rnp_to_tdpn(lipton.compile_lipton(corpus_program("count4.cp"), 1).rnp).tdpn
    tracemalloc.start()
    try:
        compiled = compile_tdpn_to_killdcps(net)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    kills = compiled.system.kills
    assert retained < 400 * len(kills), (retained, len(kills))


def test_construction_peaks_near_what_it_retains():
    # the compiler and the system's own check work block by block and name
    # by name; a check that transposed the kills (zip(*kills)) made compiling
    # peak at 1.53 times what it retains
    net = rnp2tdpn.compile_rnp_to_tdpn(lipton.compile_lipton(corpus_program("count4.cp"), 1).rnp).tdpn
    tracemalloc.start()
    try:
        compiled = compile_tdpn_to_killdcps(net)
        retained, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        system = compiled.system
        base = tracemalloc.get_traced_memory()[0]
        Dcps(system.initial_state, system.initial_symbol, system.rules, system.kills, system.kill_syms)
        rebuild = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.45 * retained, (peak, retained)
    assert rebuild < 2_000_000, rebuild


def test_no_construction_outlives_its_caller():
    # nothing in the library keeps a compiled record alive once its caller
    # lets go of it
    net = rnp2tdpn.compile_rnp_to_tdpn(lipton.compile_lipton(corpus_program("count4.cp"), 1).rnp).tdpn
    compiled = compile_tdpn_to_killdcps(net)
    system = weakref.ref(compiled.system)
    del compiled
    gc.collect()
    assert system() is None


# count4 compiled in triple mode at n = 1 and n = 6: kill-dcps (states, rules, kills)
KILLDCPS_ENDS = ((34934, 292, 37661), (62772, 422, 71856))


def test_killdcps_sizes_across_n():
    # the tdpn grows linearly in n (tests/test_rnp2tdpn.py); the kill-dcps
    # grows quadratically, with constant second differences from n = 2 on
    program = corpus_program("count4.cp")
    rows = []
    for n in range(1, 7):
        net = rnp2tdpn.compile_rnp_to_tdpn(lipton.compile_lipton(program, n, "triple").rnp).tdpn
        system = compile_tdpn_to_killdcps(net).system
        c = expected_rule_counts(net)
        assert len(system.rules) == c["init"] + c["check"] + c["read"] + c["guess"]
        assert len(system.kills) == c["verify"]
        rows.append((len(system.states), len(system.rules), len(system.kills)))
    assert (rows[0], rows[-1]) == KILLDCPS_ENDS
    states, rules, kills = zip(*rows)

    def differences(values):
        return [b - a for a, b in zip(values, values[1:])]

    assert differences(rules) == [26] * 5
    assert differences(differences(states))[1:] == [256] * 3
    assert differences(differences([r + k for r, k in zip(rules, kills)]))[1:] == [312] * 3
