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

Source and target share `Inc`, `Dec`, `Goto` and `Halt` (`snl.counter`
defines them), so jumps and the halt pass through.  `max_depth_for` is the
one depth-mode rule; the simulated bound follows as B = 2^(2^(k-1)).

`compile_lipton` also records how each gadget's goto-ors read the counters
(`ZeroTest`); `guided_run` takes the run that reads them right.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from snl import counter, rnp
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
    RnpConfig,
)

HELPER_VARS = ("s", "bar_s", "y", "bar_y", "z", "bar_z")

MAX_BOUND_DIGITS = 4300  # Python prints no longer int by default


class LiptonInputError(ValueError):
    pass


def complement(var: str) -> str:
    return var[4:] if var.startswith("bar_") else "bar_" + var


def max_depth_for(n: int, depth_mode: str = "double") -> int:
    """Call depth limit k of the compiled program; rejects n < 1."""
    if n < 1:
        raise LiptonInputError(f"n must be at least 1, got {n}")
    if depth_mode == "double":
        return n + 1
    if depth_mode == "triple":
        return 2**n + 1
    raise LiptonInputError(f"unknown depth mode {depth_mode!r}")


def simulated_bound(n: int, depth_mode: str = "double") -> int:
    """Counter cap the compiled program enforces on the source counters.
    Refuses a cap of more than MAX_BOUND_DIGITS digits, checking its
    exponent first: at large n the cap would not fit in memory."""
    e = max_depth_for(n, depth_mode) - 1  # the cap 2^(2^e) has 2^e·log10(2) digits
    if e >= math.log2(MAX_BOUND_DIGITS / math.log10(2)):
        raise LiptonInputError(f"the bound 2^(2^{e}) at n={n} has more than {MAX_BOUND_DIGITS} digits")
    return 2 ** (2**e)


# ---------------------------------------------------------------------------
# Gadget expansions


class ZeroTest(NamedTuple):
    """How a gadget's goto-or reads the counters, at the current depth plus
    `offset`: the entry takes the nonzero branch iff `var` is positive, the
    loop exit takes `exit` iff the complement is 0."""

    var: str
    offset: int  # 0 for expand_test, 1 for expand_test_plus1
    exit: bool


def _zero_test(
    var: str, l_zero: str, l_nonzero: str, entry: str, tag: str, inc, dec, offset: int, guide
) -> tuple[Command, ...]:
    """Zero test on `var`; `inc(label, counter)` and `dec(label, counter)`
    make the command that moves a counter, `offset` below the current depth,
    `tag` marks the labels, and a `guide` dict gets each goto-or's ZeroTest.

    Nondeterministic: the nonzero branch proves var > 0 by moving it down
    and up; the zero branch swaps var with its complement, validating the
    swap by draining a full s budget at depth 1 via `call dec`.  Whichever
    branch does not match the truth gets stuck.
    """
    bar = complement(var)
    lab = lambda role: f"{entry}__{tag}__{var}__{role}"
    if guide is not None:
        guide[entry] = ZeroTest(var, offset, False)
        guide[lab("lp5")] = ZeroTest(var, offset, True)
    return (
        GotoOr(entry, lab("nztest"), lab("loop")),
        dec(lab("nztest"), var),
        inc(lab("nz2"), var),
        Goto(lab("nz3"), l_nonzero),
        dec(lab("loop"), bar),
        inc(lab("lp2"), var),
        Call(lab("lp3"), "bar_s_dec"),
        Call(lab("lp4"), "s_inc"),
        GotoOr(lab("lp5"), lab("exit"), lab("loop")),
        Call(lab("exit"), "dec"),
        Goto(lab("ex2"), l_zero),
    )


def expand_test(var: str, l_zero: str, l_nonzero: str, entry: str, guide=None) -> tuple[Command, ...]:
    """Zero test on a simulated counter (depth 0 copies, direct inc/dec)."""
    return _zero_test(var, l_zero, l_nonzero, entry, "test", Inc, Dec, 0, guide)


def expand_test_plus1(var: str, l_zero: str, l_nonzero: str, entry: str, guide=None) -> tuple[Command, ...]:
    """Zero test on a helper counter one depth below the current one: every
    counter move goes through the one-step helper procedures, so it lands
    on the depth d+1 copies."""
    return _zero_test(
        var, l_zero, l_nonzero, entry, "testp1",
        lambda label, v: Call(label, f"{v}_inc"),
        lambda label, v: Call(label, f"{v}_dec"),
        1, guide,
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


def _ladder_proc(name: str, start: tuple[Command, ...], moves, eq_moves, guide) -> Proc:
    """`dec` or `inc`: after `start`, the lt_max body makes `moves` once per
    pass of a loop over z nested in a loop over y (the depth d+1 helpers);
    the eq_max body makes `eq_moves`.  A move is a (command, counter) pair."""
    lt = lambda role: f"{name}__lt__{role}"
    eq = [cls(f"{name}__eq__{i}", var) for i, (cls, var) in enumerate(eq_moves, 1)]
    return Proc(
        name,
        (
            *start,
            Call(lt("outer"), "y_dec"),
            Call(lt("o2"), "bar_y_inc"),
            Call(lt("inner"), "z_dec"),
            Call(lt("i2"), "bar_z_inc"),
            *(cls(lt(f"i{i}"), var) for i, (cls, var) in enumerate(moves, 3)),
            *expand_test_plus1("z", lt("next"), lt("inner"), lt("t1"), guide),
            *expand_test_plus1("y", lt("exit"), lt("outer"), lt("next"), guide),
            Return(lt("exit")),
        ),
        (*eq, Return(f"{name}__eq__{len(eq) + 1}")),
    )


def helper_procs(guide=None) -> tuple[Proc, ...]:
    """The fourteen fixed procedures: twelve one-step helpers plus the
    budget-draining dec and the ladder-building inc."""
    drain = [(Dec, "s"), (Inc, "bar_s")]
    build = [(Inc, "y"), (Inc, "z"), (Inc, "bar_s")]
    return (
        *_one_step_procs(),
        _ladder_proc("dec", (), drain, drain * 2, guide),
        _ladder_proc(
            "inc",
            (Call("inc__lt__start", "inc"),),
            build,
            [(Inc, var) for var in ("y", "y", "z", "z", "bar_s", "bar_s")],
            guide,
        ),
    )


# ---------------------------------------------------------------------------
# Compilation


def _translate_sim(program: counter.CounterProgram, guide) -> list[Command]:
    out: list[Command] = []
    for cmd in program.commands:
        if isinstance(cmd, Inc):
            out.append(Dec(cmd.label, complement(cmd.var)))
            out.append(Inc(f"{cmd.label}__inc2", cmd.var))
        elif isinstance(cmd, Dec):
            out.append(Dec(cmd.label, cmd.var))
            out.append(Inc(f"{cmd.label}__dec2", complement(cmd.var)))
        elif isinstance(cmd, (Goto, Halt)):
            out.append(cmd)
        else:
            cont = f"{cmd.label}__cont"
            out.extend(expand_test(cmd.var, cont, cmd.target_nonzero, cmd.label, guide))
            out.extend(
                expand_test(complement(cmd.var), cmd.target_zero, cmd.target_nonzero, cont, guide)
            )
    return out


def validate_source(program: counter.CounterProgram, n: int) -> None:
    """Raise a ValueError unless compile_lipton accepts the (already valid)
    program at n: n >= 1, no label containing '__' (reserved for generated
    labels) and no counter named like a helper or 'bar_...'."""
    max_depth_for(n)
    for label in program.labels:
        if "__" in label:
            raise LiptonInputError(f"label {label!r} uses reserved separator '__'")
    for var in program.variables:
        if var in HELPER_VARS or var.startswith("bar_"):
            raise LiptonInputError(f"variable {var!r} is reserved")


class LiptonCompilation(NamedTuple):
    """The compiled program and each goto-or's ZeroTest, by label."""

    rnp: Rnp
    guide: dict[str, ZeroTest]

    def size(self) -> int:  # the traced benchmark's lipton.compile span reads it
        return self.rnp.size()


def compile_lipton(program: counter.CounterProgram, n: int, depth_mode: str = "double") -> LiptonCompilation:
    """Compile a counter program into an equivalent recursive net program.

    The result halts iff the source halts under a B-bounded run with
    B = 2^(2^n) (or the triply exponential variant).  The input must pass
    validate_source.
    """
    validate_source(program, n)
    guide: dict[str, ZeroTest] = {}
    sim = _translate_sim(program, guide)
    init = (
        Call("init__start", "inc"),
        Call("init__loop", "y_dec"),
        Call("init__l2", "bar_y_inc"),
        *(Inc(f"init__x__{x}", complement(x)) for x in program.variables),
        *expand_test_plus1("y", sim[0].label, "init__loop", "init__t1", guide),
    )
    return LiptonCompilation(Rnp(max_depth_for(n, depth_mode), init + tuple(sim), helper_procs(guide)), guide)


def guided_run(compiled: LiptonCompilation) -> Iterator[tuple[RnpConfig, int | None]]:
    """The run whose zero tests read the counters right: each configuration
    up to the first without a successor, with the branch taken there (None
    off a goto-or).  It halts when the source halts within the bound."""
    program, guide = compiled.rnp, compiled.guide
    _, seqs, slots = program.tables
    config = rnp.initial_config(program)
    while True:
        succ = rnp.successors(program, config)
        pick = None
        if len(succ) == 2:
            (seq_id, idx), stack, valuation = config
            var, offset, at_exit = guide[seqs[seq_id][idx].label]
            read = complement(var) if at_exit else var
            pick = int((valuation[slots[read, len(stack) + offset]] == 0) != at_exit)
        yield config, pick
        if not succ:
            return
        config = succ[pick or 0][1]
