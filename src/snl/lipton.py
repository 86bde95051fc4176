"""Compile bounded counter programs into recursive net programs.

The target program simulates the source with counters capped at a doubly
exponential bound B = 2^(2^n) while its own size stays linear in the source:
every source counter x gets a complement bar_x maintained so that
x + bar_x = B, and zero tests become nondeterministic gadgets whose wrong
branches get stuck instead of lying.

The heavy lifting is done by a fixed family of fourteen procedures over six
reserved helper counters (s, bar_s, y, bar_y, z, bar_z).  At call depth d
the pair (s, bar_s) holds 2^(2^(n+1-d)) units; the `dec` procedure drains
exactly that many s units at its depth, and `inc` rebuilds the ladder one
depth further down.  With max call depth k = n+1 the depth-1 budget is
exactly B, which is what the zero-test gadget needs to validate a swap of
x and bar_x.  A "triple" depth mode keeps the same bodies but sets
k = 2^n + 1, pushing the budget to a triply exponential value.
"""

from __future__ import annotations

from snl import counter
from snl.rnp import (
    Call,
    Command,
    Dec,
    Goto,
    GotoOr,
    Halt,
    Inc,
    Proc,
    Return,
    Rnp,
    validate_rnp,
)

HELPER_VARS = ("s", "bar_s", "y", "bar_y", "z", "bar_z")


class LiptonInputError(ValueError):
    pass


def complement(var: str) -> str:
    return var[4:] if var.startswith("bar_") else "bar_" + var


def simulated_bound(n: int, depth_mode: str = "double") -> int:
    """Counter cap the compiled program enforces on the source counters."""
    if depth_mode == "double":
        return 2 ** (2**n)
    if depth_mode == "triple":
        return 2 ** (2 ** (2**n))
    raise LiptonInputError(f"unknown depth mode {depth_mode!r}")


def max_depth_for(n: int, depth_mode: str = "double") -> int:
    if depth_mode == "double":
        return n + 1
    if depth_mode == "triple":
        return 2**n + 1
    raise LiptonInputError(f"unknown depth mode {depth_mode!r}")


# ---------------------------------------------------------------------------
# Gadget expansions


def expand_test(var: str, l_zero: str, l_nonzero: str, entry: str) -> tuple[Command, ...]:
    """Zero test on a simulated counter (depth 0 copies, direct inc/dec).

    Nondeterministic: the nonzero branch proves var > 0 by moving it down
    and up; the zero branch swaps var with its complement, validating the
    swap by draining a full s budget at depth 1 via `call dec`.  Whichever
    branch does not match the truth gets stuck.
    """
    bar = complement(var)
    lab = lambda role: f"{entry}__test__{var}__{role}"
    return (
        GotoOr(entry, lab("nztest"), lab("loop")),
        Dec(lab("nztest"), var),
        Inc(lab("nz2"), var),
        Goto(lab("nz3"), l_nonzero),
        Dec(lab("loop"), bar),
        Inc(lab("lp2"), var),
        Call(lab("lp3"), "bar_s_dec"),
        Call(lab("lp4"), "s_inc"),
        GotoOr(lab("lp5"), lab("exit"), lab("loop")),
        Call(lab("exit"), "dec"),
        Goto(lab("ex2"), l_zero),
    )


def expand_test_plus1(var: str, l_zero: str, l_nonzero: str, entry: str) -> tuple[Command, ...]:
    """Zero test on a helper counter one depth below the current one.

    Same shape as expand_test, but every counter move goes through the
    one-step helper procedures so it lands on the depth d+1 copies.
    """
    bar = complement(var)
    lab = lambda role: f"{entry}__testp1__{var}__{role}"
    return (
        GotoOr(entry, lab("nztest"), lab("loop")),
        Call(lab("nztest"), f"{var}_dec"),
        Call(lab("nz2"), f"{var}_inc"),
        Goto(lab("nz3"), l_nonzero),
        Call(lab("loop"), f"{bar}_dec"),
        Call(lab("lp2"), f"{var}_inc"),
        Call(lab("lp3"), "bar_s_dec"),
        Call(lab("lp4"), "s_inc"),
        GotoOr(lab("lp5"), lab("exit"), lab("loop")),
        Call(lab("exit"), "dec"),
        Goto(lab("ex2"), l_zero),
    )


# ---------------------------------------------------------------------------
# The fixed procedure family


def _one_step_procs() -> list[Proc]:
    procs = []
    for var in HELPER_VARS:
        for op, cls in (("inc", Inc), ("dec", Dec)):
            name = f"{var}_{op}"
            procs.append(
                Proc(
                    name,
                    (cls(f"{name}__lt1", var), Return(f"{name}__lt2")),
                    (cls(f"{name}__eq1", var), Return(f"{name}__eq2")),
                )
            )
    return procs


def _dec_proc() -> Proc:
    lt = (
        Call("dec__lt__outer", "y_dec"),
        Call("dec__lt__o2", "bar_y_inc"),
        Call("dec__lt__inner", "z_dec"),
        Call("dec__lt__i2", "bar_z_inc"),
        Dec("dec__lt__i3", "s"),
        Inc("dec__lt__i4", "bar_s"),
        *expand_test_plus1("z", "dec__lt__next", "dec__lt__inner", entry="dec__lt__t1"),
        *expand_test_plus1("y", "dec__lt__exit", "dec__lt__outer", entry="dec__lt__next"),
        Return("dec__lt__exit"),
    )
    eq = (
        Dec("dec__eq__1", "s"),
        Inc("dec__eq__2", "bar_s"),
        Dec("dec__eq__3", "s"),
        Inc("dec__eq__4", "bar_s"),
        Return("dec__eq__5"),
    )
    return Proc("dec", lt, eq)


def _inc_proc() -> Proc:
    lt = (
        Call("inc__lt__start", "inc"),
        Call("inc__lt__outer", "y_dec"),
        Call("inc__lt__o2", "bar_y_inc"),
        Call("inc__lt__inner", "z_dec"),
        Call("inc__lt__i2", "bar_z_inc"),
        Inc("inc__lt__i3", "y"),
        Inc("inc__lt__i4", "z"),
        Inc("inc__lt__i5", "bar_s"),
        *expand_test_plus1("z", "inc__lt__next", "inc__lt__inner", entry="inc__lt__t1"),
        *expand_test_plus1("y", "inc__lt__exit", "inc__lt__outer", entry="inc__lt__next"),
        Return("inc__lt__exit"),
    )
    eq = (
        Inc("inc__eq__1", "y"),
        Inc("inc__eq__2", "y"),
        Inc("inc__eq__3", "z"),
        Inc("inc__eq__4", "z"),
        Inc("inc__eq__5", "bar_s"),
        Inc("inc__eq__6", "bar_s"),
        Return("inc__eq__7"),
    )
    return Proc("inc", lt, eq)


def helper_procs() -> tuple[Proc, ...]:
    """The fourteen fixed procedures: twelve one-step helpers plus the
    budget-draining dec and the ladder-building inc."""
    return tuple(_one_step_procs() + [_dec_proc(), _inc_proc()])


# ---------------------------------------------------------------------------
# Compilation


def _translate_sim(program: counter.CounterProgram) -> list[Command]:
    out: list[Command] = []
    for cmd in program.commands:
        if isinstance(cmd, counter.Inc):
            out.append(Dec(cmd.label, complement(cmd.var)))
            out.append(Inc(f"{cmd.label}__inc2", cmd.var))
        elif isinstance(cmd, counter.Dec):
            out.append(Dec(cmd.label, cmd.var))
            out.append(Inc(f"{cmd.label}__dec2", complement(cmd.var)))
        elif isinstance(cmd, counter.Goto):
            out.append(Goto(cmd.label, cmd.target))
        elif isinstance(cmd, counter.Halt):
            out.append(Halt(cmd.label))
        else:
            cont = f"{cmd.label}__cont"
            out.extend(expand_test(cmd.var, cont, cmd.target_nonzero, entry=cmd.label))
            out.extend(
                expand_test(complement(cmd.var), cmd.target_zero, cmd.target_nonzero, entry=cont)
            )
    return out


def validate_source(program: counter.CounterProgram, n: int) -> None:
    """Raise a ValueError unless compile_lipton accepts the program at n:
    n >= 1, a valid counter program, no label containing '__' (reserved for
    generated labels) and no counter named like a helper or 'bar_...'."""
    if n < 1:
        raise LiptonInputError(f"n must be at least 1, got {n}")
    counter.validate_counter(program)
    for label in program.labels:
        if "__" in label:
            raise LiptonInputError(f"label {label!r} uses reserved separator '__'")
    for var in program.variables:
        if var in HELPER_VARS or var.startswith("bar_"):
            raise LiptonInputError(f"variable {var!r} is reserved")


def compile_lipton(
    program: counter.CounterProgram, n: int, depth_mode: str = "double"
) -> Rnp:
    """Compile a counter program into an equivalent recursive net program.

    The result halts iff the source halts under a B-bounded run with
    B = 2^(2^n) (or the triply exponential variant).  The input must pass
    validate_source.
    """
    validate_source(program, n)
    sim = _translate_sim(program)
    first_sim_label = sim[0].label
    init: list[Command] = [
        Call("init__start", "inc"),
        Call("init__loop", "y_dec"),
        Call("init__l2", "bar_y_inc"),
    ]
    init.extend(Inc(f"init__x__{x}", complement(x)) for x in program.variables)
    init.extend(expand_test_plus1("y", first_sim_label, "init__loop", entry="init__t1"))

    result = Rnp(
        max_depth=max_depth_for(n, depth_mode),
        main=tuple(init) + tuple(sim),
        procs=helper_procs(),
    )
    validate_rnp(result)
    return result
