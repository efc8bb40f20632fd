"""The command line runs on the standard library alone, and its stages import in one direction.

Each test starts a fresh interpreter with ``PYTHONPATH=src``, so that no
module a test or pytest itself imported is counted.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"

# Refuses mpmath at import, then runs the CLI on the remaining arguments.
REFUSE_MPMATH = """
import sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "mpmath":
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, Refuse())
from seqopt import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_import_loads_neither_mpmath_nor_dataclasses():
    # -S skips site, so that no site hook's imports are counted against the package.
    proc = python("-S", "-c", "import sys, seqopt.cli; "
                  "print(sorted({'mpmath', 'dataclasses', 'inspect', 'json'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Imports run render <- verify <- cli: a stage loads no stage after it, nor argparse.
@pytest.mark.parametrize("module, later", [
    ("seqopt.render", ["argparse", "seqopt.cli", "seqopt.verify"]),
    ("seqopt.verify", ["argparse", "seqopt.cli"]),
])
def test_stage_import_loads_no_later_stage(module, later):
    proc = python("-S", "-c",
                  f"import sys, {module}; print(sorted(set({later!r}) & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv, golden", [
    (("verify", "--mask", "011", "--n", "12", "--oracle"), "verify_011_n12_oracle.txt"),
    (("bounds", "--mask", "01", "--n", "12", "--m1", "1,2,3"), "bounds_01_n12_m1.txt"),
], ids=["verify-011-n12-oracle", "bounds-01-n12-m1"])
def test_goldens_with_mpmath_refused(argv, golden):
    proc = python("-c", REFUSE_MPMATH, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_text()
