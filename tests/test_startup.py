"""What `import snl.cli` costs each call: result records are NamedTuples,
which define no methods by generating code, and the internal-error branch
alone imports `traceback`.  Commands stay dataclasses, which compare by class."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from snl.counter import Dec, Halt, Inc
from snl.rnp import Return

SRC = Path(__file__).resolve().parent.parent / "src"
LOADED = "import sys, snl.cli; print('traceback' in sys.modules)"

# each record's fields, in the order its dataclass declared them
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
}


def record(name: str):
    module, cls = name.split(".")
    return getattr(importlib.import_module(f"snl.{module}"), cls)


def test_importing_the_cli_does_not_import_traceback():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", LOADED], env=env, capture_output=True, text=True, check=True)
    assert run.stdout == "False\n"


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
