"""Certificates do not depend on the string hash seed.  The engine and the
verifier key their cell indexes and caches by hashed tuples, so no order
that a hash gives may reach a certificate: three producing commands run in
fresh processes under two values of `PYTHONHASHSEED`, and each certificate
must hash to its entry in `test_golden.py`."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import awfs_forge
from test_golden import GOLDEN

SRC = str(Path(awfs_forge.__file__).resolve().parent.parent)
COMMANDS = (
    "soa --fixture FIX-G --variant standard",
    "model --fixture FIX-M",
    "quillen-check --fixture FIX-PROJ --adjunction lan",
)
RUN_CLI = "import sys; from awfs_forge.cli import main; sys.exit(main(sys.argv[1:]))"


def test_certificates_are_the_golden_ones_under_two_hash_seeds(tmp_path):
    golden = dict(GOLDEN)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    runs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
        for i, argv in enumerate(COMMANDS):
            out = tmp_path / f"{seed}-{i}.json"
            cmd = [sys.executable, "-c", RUN_CLI, *argv.split(), "--out", str(out)]
            runs.append((seed, argv, out, subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)))
    got, want = [], []
    for seed, argv, out, proc in runs:
        assert proc.wait(timeout=120) == 0, (seed, argv)
        got.append((seed, argv, hashlib.sha256(out.read_bytes()).hexdigest()))
        want.append((seed, argv, golden[argv]))
    assert got == want
