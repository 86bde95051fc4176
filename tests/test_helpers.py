"""The test helpers see every name in a command, a procedure and a program,
so a round-trip test built on them cannot pass by walking nothing."""

from snl.counter import Inc
from snl.rnp import Call, GotoOr, Halt, Proc, Return, Rnp

from helpers import corpus_program, names_in, renamed


def test_names_in_finds_every_name():
    inc = Inc("l0", "x")
    proc = Proc("p", (Inc("a1", "y"), Return("a2")), (Return("a3"),))
    prog = Rnp(2, (Call("m1", "p"), GotoOr("m2", "m1", "m3"), Halt("m3")), (proc,))
    assert names_in(inc) == {"l0", "x"}
    assert names_in(proc) == {"p", "a1", "y", "a2", "a3"}
    assert names_in(prog) == {"m1", "m2", "m3", "p", "a1", "y", "a2", "a3"}


def test_renamed_round_trips_a_program():
    prog = corpus_program("updown_loop.cp")
    there = renamed(prog, "x", "z")
    assert names_in(there) == names_in(prog) - {"x"} | {"z"}
    assert renamed(there, "z", "x") == prog
