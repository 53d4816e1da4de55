"""graph-soa at n=5: perfbench's `graph_instance(seed=1)`, FIX-G's graph base
and generators with arrows into a path of 5 vertices, factored under I.  Its
records run to six stages, more than any bundled fixture's, so its `soa`
certificate is pinned byte for byte beside the golden ones, and must verify.

At n=6 and n=7 the same command writes `423cb6d7…` and `0d7bcb7d…`; to
refreeze, print ``sha256(cert bytes)`` as `test_golden.py` says."""

import hashlib
import importlib
import json
from pathlib import Path

from awfs_forge.cli import main

ROOT = Path(__file__).resolve().parents[1]
GRAPH_SOA_5 = "7b974e37b076f38360c7b72ef9857503b93c23f9fd89e6d13967739a55d3612e"


def test_graph_soa_certificate_bytes_are_pinned(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    inputs = importlib.import_module("inputs")
    monkeypatch.setattr(inputs, "GRAPH_PATH", 5)
    instance = tmp_path / "graph.json"
    instance.write_text(json.dumps(inputs.graph_instance(seed=1)), encoding="utf-8")
    out = tmp_path / "cert.json"
    argv = ["--generators", "I", "--arrows", "f_vp,f_ep,id_p", "--out", str(out)]
    assert main(["soa", str(instance), *argv]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GRAPH_SOA_5
    assert main(["verify-cert", str(instance), str(out)]) == 0
