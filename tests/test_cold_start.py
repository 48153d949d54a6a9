"""Which commands load scipy: each case runs in a fresh interpreter.

Importing scipy.linalg takes longer than any command that needs none of
it, so only the oracle's banded solves (``verify``) may load it; every
model family, chains included, runs on numpy alone.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tenfold1d

SRC = str(Path(tenfold1d.__file__).resolve().parents[1])

FILES = {
    "pos": "kind dirac\nW [[1.0]]\n",
    "neg": "kind dirac\nW [[-1.0]]\n",
    "schrodinger": "kind schrodinger\nV [[1.0]]\nenergy 0.0\n",
    "ssh": "kind tight_binding\na0 [[1.0]]\na1 [[2.0]]\nb0 [[0.0]]\nb1 [[0.0]]\n",
    "ssh_trivial": "kind tight_binding\na0 [[1.0]]\na1 [[0.5]]\nb0 [[0.0]]\nb1 [[0.0]]\n",
    "ssh_family": "kind tight_binding\na0 [[1.0]]\na1 [[?]]\nb0 [[0.0]]\nb1 [[0.0]]\n",
    "wall": "kind dirac_profile\nW0 [[-1.0]]\nW1 [[1.0]]\nbreakpoints [0.0]\n",
    "family": "kind dirac\nW [[?]]\n",
}

# the child prints whether scipy was loaded after the command, or after
# the bare import when it is given no command
CHILD = """\
import sys
import tenfold1d.cli
code = tenfold1d.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print("scipy" in sys.modules)
sys.exit(code)
"""


@pytest.mark.parametrize("argv, loads_scipy", [
    ([], False),
    (["table"], False),
    (["classify", "--model", "{pos}"], False),
    (["classify", "--model", "{schrodinger}"], False),
    (["junction", "--left", "{neg}", "--right", "{pos}", "--class", "D"], False),
    (["junction", "--profile", "{wall}", "--class", "D"], False),
    (["sweep", "--model", "{family}", "--class", "D", "--values=-1:1:101"], False),
    (["classify", "--model", "{ssh}"], False),
    (["sweep", "--model", "{ssh_family}", "--class", "BDI", "--values=0.5:2:31"], False),
    (["junction", "--left", "{ssh_trivial}", "--right", "{ssh}", "--class", "BDI"], False),
    (["verify", "--profile", "{wall}", "--class", "D", "--length", "20",
      "--step", "0.1", "--energy-window", "0.1"], True),
], ids=["import", "table", "classify-dirac", "classify-schrodinger", "junction-pair",
        "junction-profile", "sweep-dirac", "classify-chain", "sweep-chain", "junction-chains",
        "verify-profile"])
def test_scipy_is_loaded_only_where_needed(tmp_path, argv, loads_scipy):
    files = {}
    for name, text in FILES.items():
        files[name] = str(tmp_path / f"{name}.tf")
        Path(files[name]).write_text(text)
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
         "-c", CHILD, *(a.format(**files) for a in argv)],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == str(loads_scipy)
