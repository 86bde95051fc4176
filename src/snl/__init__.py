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
a well-formed one.  The package re-exports nothing: import the module you need.
"""

__version__ = "0.1.0"
