"""Each output check rejects a corrupted output.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py
    python3 perfbench/test_checks.py        (from the root of the checkout)
"""

import copy
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402


def _soa_certificate() -> dict:
    from awfs_forge.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "cert.json")
        assert main(["soa", "--fixture", "FIX-M", "--out", out]) == 0
        with open(out, "r", encoding="utf-8") as handle:
            return json.load(handle)


def _rekey(cert: dict, old: str, content: dict) -> dict:
    """Store `content` under a fresh, correct pool key and repoint every
    reference, so only the table check can see the change."""
    new = "m" + checks.sha256_hex(checks.canonical(content))[:16]
    payload = cert["payload"]
    del payload["maps"][old]
    payload["maps"][new] = content
    return json.loads(json.dumps(cert).replace(old, new))


def test_certificate_checks_accept_a_real_certificate():
    assert checks.check_certificate(_soa_certificate()) == []


def test_flipped_table_entry_breaks_the_pool_key():
    cert = _soa_certificate()
    table = next(t for m in cert["payload"]["maps"].values()
                 for t in m["components"].values() if t)
    table[0] += 1
    assert any("content hash mismatch" in p for p in checks.check_certificate(cert))


def test_flipped_table_entry_breaks_the_factorization():
    cert = _soa_certificate()
    entry = next(e for e in cert["payload"]["arrows"].values()
                 if len(cert["payload"]["maps"][e["right"]]["components"]["*"]) > 1)
    content = copy.deepcopy(cert["payload"]["maps"][entry["right"]])
    table = content["components"]["*"]
    cod = cert["payload"]["presheaves"][content["dst"]]["at"]["*"]
    table[0] = (table[0] + 1) % max(cod, 1)
    bad = checks.check_certificate(_rekey(cert, entry["right"], content))
    assert not any("content hash" in p for p in bad)
    assert any("R∘L != f" in p or "w;R != bottom" in p for p in bad)


def test_dropped_or_duplicated_hom():
    src, dst = checks.path_graph(3), checks.cycle_graph(3)
    homs = checks.enumerate_homs(src, dst)
    assert len(homs) == 3 and checks.check_homs(src, dst, homs, 3) == []
    assert checks.check_homs(src, dst, homs[:-1], 3)
    assert checks.check_homs(src, dst, homs + homs[-1:], 3)
    assert checks.check_homs(src, dst, homs[:1] + homs[:1] + homs[2:], 3)


def test_unnatural_hom():
    src, dst = checks.path_graph(3), checks.cycle_graph(3)
    homs = checks.enumerate_homs(src, dst)
    broken = copy.deepcopy(homs)
    broken[0]["E"][0] = (broken[0]["E"][0] + 1) % 3
    assert any("not natural" in p for p in checks.check_homs(src, dst, broken, 3))


def test_closed_forms_match_brute_force():
    for n in (2, 3, 4):
        assert len(checks.enumerate_homs(checks.path_graph(n), checks.cycle_graph(n))) == n
    for n, m in ((3, 3), (4, 2), (4, 3), (2, 4)):
        found = checks.enumerate_homs(checks.cycle_graph(n), checks.cycle_graph(m))
        assert len(found) == checks.cycle_hom_count(n, m)
    assert checks.survey_size(2) == 1 + 3 + 7  # n = 0, 1, 2 over m = 0..2


def test_wrong_middle_object_size():
    f = [0, 0, 1]
    left, right = [0, 1, 2], [0, 0, 1, 0, 1]
    assert checks.check_split_epi(f, 2, 5, left, right, 2) == []
    assert checks.check_split_epi(f, 2, 6, left, right + [0], 2)
    assert checks.check_split_epi(f, 2, 5, [1, 2, 3], right, 2)
    assert checks.check_split_epi(f, 2, 5, left, right, 3)


def test_growth_trace():
    assert checks.check_growth_trace("non-convergence: trace [1, 2, 3]\n", 2) == []
    assert checks.check_growth_trace("non-convergence: trace [1, 2, 4]\n", 2)
    assert checks.check_growth_trace("", 2)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
