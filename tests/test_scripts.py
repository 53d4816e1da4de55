"""Each script under `scripts/` runs to its closing line: one subprocess per
script, with the package this suite imports on its path."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import awfs_forge

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = str(Path(awfs_forge.__file__).resolve().parent.parent)


@pytest.mark.parametrize(
    "argv, last_line",
    [
        (["quillen_demo.py", "--adjunction", "lan"], "all laws pass"),
        (["quillen_demo.py", "--adjunction", "ident"], "all laws pass"),
        (
            ["split_epi_survey.py", "--max-size", "3", "--verify"],
            "sample stage trace for 2->1: [2, 3]",
        ),
        (["divergence_trace.py", "--max-steps", "6"], "stage sizes: [1, 2, 3, 4, 5, 6, 7]"),
    ],
    ids=["quillen-lan", "quillen-ident", "split-epi-survey", "divergence-trace"],
)
def test_script_runs_to_its_last_line(argv, last_line):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == last_line
