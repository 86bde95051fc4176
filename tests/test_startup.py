"""What `import snl.cli` costs each call: result records are NamedTuples,
commands and models are `snl.record` records, and neither defines methods
by generating code, so `dataclasses` (and the `inspect` it pulls in) is
never imported; the internal-error branch alone imports `traceback`.
Commands and models compare by class, which tuples would not."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from snl.counter import Dec, Halt, Inc
from snl.dcps import Dcps, DcpsRule
from snl.rnp import Return
from snl.transducer import Transducer

SRC = Path(__file__).resolve().parent.parent / "src"
LOADED = "import sys, snl.cli; print('traceback' in sys.modules)"
GENERATORS = "import sys, snl.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"

# each result record's fields, in the order its NamedTuple declares them
RECORDS = {
    "search.Found": ("labels", "state", "explored"),
    "search.Exhausted": ("seen", "explored"),
    "search.Capped": ("tripped", "seen", "explored"),
    "rnp.RnpHalts": ("witness", "config", "configs_explored"),
    "rnp.RnpNo": ("configs_explored",),
    "rnp.RnpUnknown": ("reason", "configs_explored"),
    "rnp.ScheduledRun": ("stop", "steps", "config", "stuck_var", "stuck_depth"),
    "dcps.DcpsReachable": ("witness", "configs_explored"),
    "dcps.DcpsNo": ("configs_explored",),
    "dcps.DcpsUnknown": ("reason", "configs_explored"),
    "tdpn.TdpnCoverable": ("witness", "mode"),
    "tdpn.TdpnNotCoverable": ("mode",),
    "tdpn.TdpnUnknown": ("mode", "reason"),
    "petri.Coverable": ("witness", "basis_size"),
    "petri.NotCoverable": ("basis_size",),
    "petri.ForwardCoverable": ("witness", "markings_explored"),
    "petri.NotCoverableWithinCaps": ("markings_explored",),
    "petri.ForwardUnknown": ("reason", "markings_explored"),
    "lipton.LiptonCompilation": ("rnp", "guide"),
    "rnp2tdpn.RnpCompilation": ("tdpn", "book", "label_to_base"),
    "tdpn2dcps.KillDcps": ("net", "system", "names", "halt", "event", "block", "offsets", "lock",
                           "guess_sym", "verify_sym"),
    "counter.Halts": ("peak", "steps"),
    "counter.Aborts": ("steps", "label"),
    "counter.BoundExceeded": ("steps", "var"),
    "counter.FuelExhausted": ("steps",),
    "cli.StageResult": ("stage", "artifact", "verdict", "normalized", "detail"),
    "cli.PipelineReport": ("input", "settings", "stages", "cross_checks"),
}


def record(name: str):
    module, cls = name.split(".")
    return getattr(importlib.import_module(f"snl.{module}"), cls)


def test_importing_the_cli_does_not_import_traceback():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", LOADED], env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "False\n"


def test_importing_the_cli_imports_no_code_generator():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", GENERATORS], env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


@pytest.mark.parametrize("name", RECORDS)
def test_each_record_is_a_tuple_with_its_fields(name):
    cls = record(name)
    assert issubclass(cls, tuple)
    assert cls._fields == RECORDS[name]


def test_records_keep_their_defaults_class_attributes_and_reprs():
    assert record("rnp.ScheduledRun")._field_defaults == {"stuck_var": None, "stuck_depth": None}
    assert record("tdpn.TdpnNotCoverable")("symbolic").complete is True
    assert record("petri.NotCoverableWithinCaps")(3).complete is True
    assert repr(record("rnp.RnpUnknown")("max_value", 4)) == "RnpUnknown(reason='max_value', configs_explored=4)"


def test_commands_of_different_classes_differ():
    assert Inc("l0", "x") != Dec("l0", "x")
    assert Halt("l") != Return("l")
    assert len({Inc("l0", "x"), Dec("l0", "x"), Halt("l"), Return("l")}) == 4


def test_commands_and_models_compare_and_hash_by_class_and_fields():
    assert Inc("l0", "x") == Inc("l0", "x")
    assert hash(Inc("l0", "x")) == hash(Inc("l0", "x"))
    assert Inc("l0", "x") != Inc("l0", "y")
    assert Inc("l0", "x") != ("l0", "x")
    assert Dcps("s", "a") == Dcps("s", "a") and hash(Dcps("s", "a")) == hash(Dcps("s", "a"))
    assert Dcps("s", "a") != Dcps("s", "b")


def test_commands_and_models_keep_their_reprs():
    assert repr(Inc("l0", "x")) == "Inc(label='l0', var='x')"
    rule = DcpsRule("s", "a", "t", ("b",))
    assert repr(Dcps("s", "a", (rule,))) == (
        "Dcps(initial_state='s', initial_symbol='a', rules=(" + repr(rule) + ",), kills=(), "
        "kill_syms=frozenset(), states=('s', 't'), symbols=('a', 'b'))"
    )


def test_models_refuse_assignment():
    t = Transducer(1, ("0",), ("r",), "r", frozenset({"r"}), ())
    with pytest.raises(AttributeError):
        t.arity = 2
    with pytest.raises(AttributeError):
        del Halt("l").label
    assert t.arity == 1
    assert t.by_source == {"r": ()}  # a cached_property still fills in


def test_dcps_is_built_by_position_keyword_and_default():
    rule = DcpsRule("s", "a", "t")
    full = Dcps("s", "a", (rule,), (), frozenset())
    assert Dcps("s", "a", (rule,)) == full
    assert Dcps(initial_symbol="a", initial_state="s", rules=(rule,)) == full
    assert Dcps("s", "a", kill_syms=frozenset(), rules=(rule,)) == full
    assert Dcps("s", "a").rules == () and Dcps("s", "a").kill_syms == frozenset()
    with pytest.raises(TypeError):
        Dcps("s")
    with pytest.raises(TypeError):
        Dcps("s", "a", states=("s",))
