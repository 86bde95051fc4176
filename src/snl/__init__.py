"""Verification toolchain for four machine models and the reductions between them.

The package covers:

* bounded counter programs (deterministic, abort-on-zero-decrement),
* recursive net programs (bounded-depth procedure calls over shared counters),
* transducer-defined Petri nets (exponentially large nets given symbolically),
* dynamic networks of concurrent pushdown systems (thread pools with
  context-switch budgets, optionally with thread-kill rules).

Each model has a text format, a well-formedness check, and an executable
semantics; the compilers connect them so that a single counter program can be
pushed through the whole chain and the verdicts cross-checked.  Every model,
and every transducer, checks itself where it is built, so every consumer holds
a well-formed one.
"""

from snl.counter import (
    CounterProgram,
    parse_counter,
    serialize_counter,
    run_bounded,
)
from snl.rnp import Rnp, parse_rnp, serialize_rnp, explore_halting, run_scheduled
from snl.lipton import compile_lipton
from snl.transducer import Transducer
from snl.petri import PetriNet, cover_backward, cover_forward_bfs
from snl.tdpn import Tdpn, parse_tdpn, serialize_tdpn
from snl.rnp2tdpn import compile_rnp_to_tdpn
from snl.dcps import (
    Dcps,
    parse_dcps,
    serialize_dcps,
    reach_state,
    desugar_kill,
    compile_to_inheritance,
)
from snl.tdpn2dcps import KillDcps, compile_tdpn_to_killdcps, synthesize_cover_witness

__all__ = [
    "CounterProgram",
    "parse_counter",
    "serialize_counter",
    "run_bounded",
    "Rnp",
    "parse_rnp",
    "serialize_rnp",
    "explore_halting",
    "run_scheduled",
    "compile_lipton",
    "Transducer",
    "PetriNet",
    "cover_backward",
    "cover_forward_bfs",
    "Tdpn",
    "parse_tdpn",
    "serialize_tdpn",
    "compile_rnp_to_tdpn",
    "Dcps",
    "parse_dcps",
    "serialize_dcps",
    "reach_state",
    "desugar_kill",
    "KillDcps",
    "compile_tdpn_to_killdcps",
    "synthesize_cover_witness",
    "compile_to_inheritance",
]

__version__ = "0.1.0"
