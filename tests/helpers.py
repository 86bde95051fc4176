"""Shared test machinery: statement harnesses, corpus access, and renaming
inside a program.

The statement harnesses wrap single compiled procedures in a tiny main so
that one call (plus, for the depth-limit case, a shim that adds one stack
frame) exercises exactly the effect under test, starting from a
preconditioned valuation.
"""

import dataclasses
from pathlib import Path

from snl import counter
from snl.lipton import expand_test_plus1, helper_procs
from snl.rnp import (
    Call,
    Goto,
    Halt,
    Proc,
    Return,
    Rnp,
    RnpHalts,
    explore_halting,
    make_config,
    run_scheduled,
    valuation_dict,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# depth-2 helper counters at their full capacity 2^(2^0) = 2 (n = 1)
FULL_DEPTH2 = {("bar_s", 2): 2, ("y", 2): 2, ("z", 2): 2}


def harness(main, extra_procs=(), k=2):
    prog = Rnp(max_depth=k, main=tuple(main), procs=helper_procs() + tuple(extra_procs))
    return prog


def halting_effect(prog, start_val, max_configs=500_000):
    """Explore from a preconditioned start, replay the witness, and return
    the final valuation.  Asserts the program halts and the replay agrees
    with the exploration."""
    start = make_config(prog, valuation=start_val)
    verdict = explore_halting(prog, max_configs=max_configs, start=start)
    assert isinstance(verdict, RnpHalts), verdict
    replay = run_scheduled(prog, verdict.witness, start=start)
    assert replay.stop == "halted"
    assert replay.config == verdict.config
    return valuation_dict(prog, replay.config)


def dec_harness():
    """call dec from main: the drain runs at depth 1."""
    return harness([Call("h1", "dec"), Halt("h2")])


def dec_depth2_harness():
    """A shim procedure adds one frame so dec runs its depth-limit body."""
    shim = Proc("shim", (Call("sh1", "dec"), Return("sh2")), (Return("sh3"),))
    return harness([Call("h1", "shim"), Halt("h2")], extra_procs=(shim,))


def inc_harness():
    return harness([Call("h1", "inc"), Halt("h2")])


def zero_test_harness(observe: str):
    """Zero-test gadget on y's depth-1 copy, run at depth 0.  The observed
    branch ends in halt; the other branch spins forever, so reaching halt
    proves which branch was taken."""
    body = list(expand_test_plus1("y", "lz", "ln", entry="h1"))
    if observe == "zero":
        body += [Goto("ln", "ln2"), Goto("ln2", "ln"), Halt("lz")]
    else:
        body += [Goto("lz", "lz2"), Goto("lz2", "lz"), Halt("ln")]
    return harness(body)


def corpus_program(name: str) -> counter.CounterProgram:
    return counter.parse_counter((CORPUS / name).read_text())


def corpus_names() -> list[str]:
    return sorted(p.name for p in CORPUS.glob("*.cp"))


# names that no statement grammar reads back
BAD_NAMES = ("l-1", "a b", "x y", "p-q", "1a", "")


def names_in(obj) -> set[str]:
    """Every string in a tree of tuples and dataclasses: the names of a
    program or of its parts."""
    if isinstance(obj, str):
        return {obj}
    if isinstance(obj, tuple):
        return set().union(*map(names_in, obj))
    if dataclasses.is_dataclass(obj):
        return names_in(tuple(vars(obj).values()))
    return set()


def renamed(obj, old: str, new: str):
    """A tree of tuples and dataclasses with every string `old` replaced by
    `new`."""
    if obj == old:
        return new
    if isinstance(obj, tuple):
        return tuple(renamed(x, old, new) for x in obj)
    if dataclasses.is_dataclass(obj):
        return type(obj)(*(renamed(v, old, new) for v in vars(obj).values()))
    return obj
