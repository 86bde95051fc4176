"""The package re-exports nothing: importing one module loads that module
and the ones it imports, not the whole chain of compilers and explorers."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
LOADED = "import sys, snl.search; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'snl'))"


def test_importing_the_search_core_loads_no_other_module():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", LOADED], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["snl", "snl.search"]
