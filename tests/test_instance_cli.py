import argparse
import json
import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awfs_forge import certificates, cli
from awfs_forge.cli import COMMANDS, build_parser, main
from awfs_forge.arrows import ArrowObject, Square
from awfs_forge.core import (
    Presheaf,
    PresheafMap,
    ValidationError,
    all_maps,
    canonical_dumps,
    pool_key,
    quotient_presheaf,
    sha256_hex,
)
from awfs_forge.fixtures import FIXTURE_NAMES, fixture, fixture_raw
from awfs_forge.instance import from_json
from awfs_forge.lifting import oracle_lift
from awfs_forge.soa import GeneratedAwfs, run_soa
from awfs_forge.verifier import verify_certificate
from written import written


def run_cli(argv, capsys=None):
    code = main(argv)
    return code


def test_fixtures_parse_and_roundtrip():
    for name in FIXTURE_NAMES:
        inst = fixture(name)
        again = from_json(json.loads(inst.canonical_json()))
        assert again.input_hash() == inst.input_hash()


def test_validate_fixture_ok(capsys):
    assert main(["validate", "--fixture", "FIX-M"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok ")


def test_validate_file_path(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(canonical_dumps(fixture_raw("FIX-M")), encoding="utf-8")
    assert main(["validate", str(path)]) == 0


def test_validate_empty_instance(tmp_path):
    raw = {"base": {"objects": ["*"], "identities": {"*": "id_*"}}}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["validate", str(path)]) == 0


def test_validate_broken_naturality(tmp_path, capsys):
    raw = fixture_raw("FIX-G")
    raw["maps"]["f_ep"]["components"]["V"] = [0, 2]  # no longer natural
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "naturality" in err and "f_ep" in err


def test_validation_error_paths():
    raw = fixture_raw("FIX-M")
    raw["maps"]["f21"]["src"] = "nope"
    with pytest.raises(ValidationError) as err:
        from_json(raw)
    assert "maps.f21" in str(err.value)


def test_soa_command_stage_table(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["soa", "--fixture", "FIX-M", "--variant", "monic", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["payload"]["stage_tables"]["f21"] == [2, 3]
    assert all(e["status"] == "pass" for e in cert["payload"]["law_report"])


def test_soa_divergence_exit_code():
    assert main(["soa", "--fixture", "FIX-DIV", "--max-steps", "10"]) == 2


def test_monicity_exit_code(tmp_path):
    raw = fixture_raw("FIX-DIV")
    raw["maps"]["bad"] = {"src": "s2", "dst": "s1", "components": {"*": [0, 0]}}
    raw["generators"]["J"]["arrows"]["j"] = "bad"
    path = tmp_path / "nonmonic.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["soa", str(path), "--variant", "monic"]) == 4


def test_soa_standard_variant(tmp_path):
    out = tmp_path / "std.json"
    assert main(["soa", "--fixture", "FIX-M", "--variant", "standard", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["payload"]["stage_tables"]["f21"] == [2, 3]


def _fix_m_with_j(tmp_path, mname: str):
    """FIX-M with the one generator set J = {j: mname} and no inclusion functor."""
    raw = fixture_raw("FIX-M")
    raw["generators"] = {"J": {"shape": "discrete", "arrows": {"j": mname}}}
    del raw["taus"]
    path = tmp_path / f"fix-m-{mname}.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


@pytest.mark.parametrize("variant", ["monic", "standard"])
def test_soa_keeps_a_stage_whose_cells_add_no_element(variant, tmp_path):
    # j = id1: every cell is glued onto old elements, yet it is the cell that
    # fills its square
    path = _fix_m_with_j(tmp_path, "id1")
    for cmd in ("soa", "lift"):
        out = tmp_path / f"{cmd}.json"
        assert main([cmd, str(path), "--variant", variant, "--out", str(out)]) == 0
        assert main(["verify-cert", str(path), str(out)]) == 0


@pytest.mark.parametrize(
    "options, code, err",
    [
        (
            ["--variant", "standard"], 1,
            "invalid: soa.stage: stage inclusion E^0 -> E^1 is not injective\n",
        ),
        (["--variant", "standard", "--max-steps", "1"], 2, "non-convergence: trace [2, 1]\n"),
        (["--variant", "monic"], 4, "monicity violation: generator j "),
    ],
    ids=["standard", "standard-last-stage", "monic"],
)
def test_soa_with_a_merging_generator(options, code, err, tmp_path, capsys):
    # j = f21 merges the two elements of E^0 = 2 at stage 1
    path = _fix_m_with_j(tmp_path, "f21")
    capsys.readouterr()
    assert main(["soa", str(path), "--arrows", "f21"] + options) == code
    assert capsys.readouterr().err.startswith(err)


def test_verify_cert_round_trip(tmp_path):
    for name, cmd in (("FIX-M", "soa"), ("FIX-M", "lift"), ("FIX-G", "soa")):
        out = tmp_path / f"{name}-{cmd}.json"
        assert main([cmd, "--fixture", name, "--out", str(out)]) == 0
        assert main(["verify-cert", "--fixture", name, str(out)]) == 0


def test_verify_cert_rejects_wrong_instance(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["soa", "--fixture", "FIX-M", "--out", str(out)]) == 0
    assert main(["verify-cert", "--fixture", "FIX-G", str(out)]) == 3


def test_verify_cert_rejects_flipped_entry(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["soa", "--fixture", "FIX-M", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    key = sorted(cert["payload"]["maps"])[0]
    comp = cert["payload"]["maps"][key]["components"]
    obj = next(o for o in comp if comp[o])
    comp[obj][0] += 1
    flipped = tmp_path / "flipped.json"
    flipped.write_text(json.dumps(cert), encoding="utf-8")
    assert main(["verify-cert", "--fixture", "FIX-M", str(flipped)]) == 3


def _rename(node, old: str, new: str):
    """A copy of a JSON value with every string `old`, key or value, replaced by `new`."""
    if isinstance(node, dict):
        return {_rename(k, old, new): _rename(v, old, new) for k, v in node.items()}
    if isinstance(node, list):
        return [_rename(v, old, new) for v in node]
    return new if node == old else node


def _boolean_entry(components: dict) -> str:
    obj = next(o for o, t in components.items() if 1 in t)
    table = components[obj]
    table[table.index(1)] = True
    return obj


def _unknown_object(components: dict) -> str:
    components["Q"] = [0]
    return "Q"


@pytest.mark.parametrize("damage", [_boolean_entry, _unknown_object], ids=["boolean", "unknown-object"])
def test_verify_cert_rejects_a_tampered_map_entry(damage, tmp_path, capsys):
    # `true` in a map table is not the integer 1, and a key that names no base
    # object is not a component, even with the map's pool key rehashed and
    # every reference to it rewritten
    out = tmp_path / "cert.json"
    assert main(["soa", "--fixture", "FIX-M", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    maps = cert["payload"]["maps"]
    old = next(k for k in sorted(maps) if any(1 in t for t in maps[k]["components"].values()))
    content = copy.deepcopy(maps[old])
    obj = damage(content["components"])
    new = "m" + sha256_hex(canonical_dumps(content))[:16]
    cert = _rename(cert, old, new)
    cert["payload"]["maps"][new] = content
    out.write_text(json.dumps(cert), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify-cert", "--fixture", "FIX-M", str(out)]) == 3
    assert capsys.readouterr().out.startswith(
        f"certificate REJECTED: malformed certificate: maps.{new}.components.{obj}: "
    )


@pytest.mark.parametrize("damage", ["string", "dropped-entry", "standard-nonempty"])
def test_verify_cert_rejects_a_changed_law_report(damage, tmp_path, capsys):
    # the embedded law report must be the one the verifier recomputes: the
    # monic law suite over the named arrows, or empty for the standard variant
    monic = tmp_path / "monic.json"
    assert main(["soa", "--fixture", "FIX-M", "--out", str(monic)]) == 0
    cert = json.loads(monic.read_text())
    report = cert["payload"]["law_report"]
    assert len(report) > 1
    if damage == "standard-nonempty":
        out = tmp_path / "standard.json"
        assert main(["soa", "--fixture", "FIX-M", "--variant", "standard", "--out", str(out)]) == 0
        assert main(["verify-cert", "--fixture", "FIX-M", str(out)]) == 0
        cert = json.loads(out.read_text())
        assert cert["payload"]["law_report"] == []
        cert["payload"]["law_report"] = report[:1]
    else:
        cert["payload"]["law_report"] = "x" if damage == "string" else report[1:]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify-cert", "--fixture", "FIX-M", str(bad)]) == 3
    assert capsys.readouterr().out.startswith("certificate REJECTED: law_report: ")


def _drop_unreferenced(payload: dict) -> None:
    """Drop the pool entries that no block names, nor any named map as an
    endpoint: the pools that a certificate of the rewritten records holds."""
    maps, pres = payload["maps"], payload["presheaves"]
    named, stack = set(), [v for k, v in payload.items() if k not in ("maps", "presheaves")]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
        else:
            named.add(value)
    named |= {maps[k][end] for k in named & maps.keys() for end in ("src", "dst")}
    for pool in (maps, pres):
        for key in [k for k in pool if k not in named]:
            del pool[key]


def test_verify_cert_rejects_injective_inclusions_that_are_not_prefixes(tmp_path):
    # relabel an intermediate stage E^1 of a record by reversing each of its
    # sets: every map into or out of it is rewritten to match, and the
    # inclusion E^0 -> E^1 stops being x -> x.  The engine writes every stage
    # inclusion as a prefix inclusion, so this relabelling of an honest
    # record is rejected at its first stage inclusion
    out = tmp_path / "cert.json"
    assert main(["soa", "--fixture", "FIX-G", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    payload = cert["payload"]
    pres, maps = payload["presheaves"], payload["maps"]
    fkey, entry = next((k, e) for k, e in payload["arrows"].items() if len(e["inclusions"]) >= 2)
    stage = pres[entry["stages"][1]]
    flip = {o: list(range(n))[::-1] for o, n in stage["at"].items()}
    base = fixture_raw("FIX-G")["base"]
    ends = {m["name"]: (m["src"], m["dst"]) for m in base["morphisms"]}
    act = {}
    for m, table in stage["act"].items():  # act[m] takes E^1(b) to E^1(a)
        a, b = ends[m]
        act[m] = [0] * len(table)
        for x, y in enumerate(table):
            act[m][flip[b][x]] = flip[a][y]
    new_stage = dict(stage, act=act)
    stage_key = "p" + sha256_hex(canonical_dumps(new_stage))[:16]
    pres[stage_key] = new_stage

    def relabel(key, into):
        content = copy.deepcopy(maps[key])
        for o, table in content["components"].items():
            if into:
                content["components"][o] = [flip[o][v] for v in table]
            else:
                content["components"][o] = [table[flip[o][x]] for x in range(len(table))]
        content["dst" if into else "src"] = stage_key
        new = "m" + sha256_hex(canonical_dumps(content))[:16]
        maps[new] = content
        return new

    entry["stages"][1] = stage_key
    entry["inclusions"][0] = relabel(entry["inclusions"][0], into=True)
    entry["inclusions"][1] = relabel(entry["inclusions"][1], into=False)
    entry["rmaps"][1] = relabel(entry["rmaps"][1], into=False)
    for c in entry["cells"]:
        if c["stage"] == 1:
            c["injection"] = relabel(c["injection"], into=True)
        elif c["stage"] == 2:
            c["top"] = relabel(c["top"], into=True)
    assert any(t != list(range(len(t))) for t in maps[entry["inclusions"][0]]["components"].values())
    _drop_unreferenced(payload)
    assert verify_certificate(fixture("FIX-G"), cert) == (
        False, f"arrows.{fkey}: stage inclusion 0 is not the prefix inclusion"
    )


def _pool_map(maps: dict, content: dict) -> str:
    """Add `content` to a certificate's map pool under its content hash."""
    key = "m" + sha256_hex(canonical_dumps(content))[:16]
    maps[key] = content
    return key


def _pool_then(maps: dict, first: str, second: str) -> str:
    """The pooled composite of two pooled maps, first then second."""
    f, g = maps[first], maps[second]
    return _pool_map(maps, {
        "src": f["src"],
        "dst": g["dst"],
        "components": {o: [g["components"][o][v] for v in t] for o, t in f["components"].items()},
    })


def test_verify_cert_rejects_a_cell_whose_top_edge_is_an_old_square(tmp_path):
    # rewrite a stage-2 cell into a stage-1 cell's square carried one stage
    # up: its top edge factors through inclusion 0, and its injection is the
    # stage-1 cell's pushed along inclusion 1, so the cell commutes, glues and
    # meets r; only stage completeness sees that it is not a new square
    out = tmp_path / "cert.json"
    assert main(["soa", "--fixture", "FIX-G", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    maps = cert["payload"]["maps"]
    fkey, entry = next(
        (k, e) for k, e in cert["payload"]["arrows"].items()
        if any(c["stage"] == 2 for c in e["cells"])
    )
    old = next(c for c in entry["cells"] if c["stage"] == 1)
    cell = next(c for c in entry["cells"] if c["stage"] == 2)
    cell.update(
        j=old["j"],
        top=_pool_then(maps, old["top"], entry["inclusions"][0]),
        bottom=old["bottom"],
        injection=_pool_then(maps, old["injection"], entry["inclusions"][1]),
    )
    assert verify_certificate(fixture("FIX-G"), cert) == (
        False, f"arrows.{fkey}: stage 2 cells do not match the new squares"
    )


def _retopped(maps: dict, entry: dict) -> None:
    """A stage-1 cell's top edge sent to the other vertex of E^0 = edge."""
    cell = next(c for c in entry["cells"] if c["stage"] == 1)
    content = maps[cell["top"]]
    (v,) = content["components"]["V"]
    cell["top"] = _pool_map(maps, dict(content, components={"V": [1 - v], "E": []}))


def _rebottomed(maps: dict, entry: dict) -> None:
    """A cell's bottom edge sent to the other element of cod f = 2."""
    cell = entry["cells"][0]
    content = maps[cell["bottom"]]
    (v,) = content["components"]["*"]
    cell["bottom"] = _pool_map(maps, dict(content, components={"*": [1 - v]}))


def _reswapped(maps: dict, entry: dict) -> None:
    """r_1, the right factor, followed by the swap of cod f = 2."""
    r = maps[entry["rmaps"][1]]
    swap = _pool_map(maps, {"src": r["dst"], "dst": r["dst"], "components": {"*": [1, 0]}})
    entry["rmaps"][1] = entry["right"] = _pool_then(maps, entry["rmaps"][1], swap)


@pytest.mark.parametrize("name, arrow, damage, message", [
    ("FIX-G", "f_ep", _retopped, "cell injection does not glue along the generator"),
    ("FIX-M", "f32", _rebottomed, "cell injection incompatible with r"),
    ("FIX-M", "f32", _reswapped, "r_1 does not restrict to r_0"),
], ids=["glue", "r", "restriction"])
def test_verify_cert_rejects_a_cell_or_right_map_that_breaks_its_square(
    name, arrow, damage, message, tmp_path
):
    # each damage leaves an attaching square that does not commute, and the
    # check named first is the one that sees it
    out = tmp_path / "cert.json"
    assert main(["soa", "--fixture", name, "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    payload = cert["payload"]
    fkey = payload["named"][arrow]
    damage(payload["maps"], payload["arrows"][fkey])
    _drop_unreferenced(payload)
    assert verify_certificate(fixture(name), cert) == (False, f"arrows.{fkey}: {message}")


def _two_to_edge() -> dict:
    """FIX-G with f2: two -> edge, both vertices sent to vertex 0: stage 1
    attaches one edge out of each, and r sends both new target vertices to 1."""
    raw = fixture_raw("FIX-G")
    raw["presheaves"]["two"] = {"at": {"V": 2, "E": 0}, "act": {"s": [], "t": []}}
    raw["maps"]["f2"] = {"src": "two", "dst": "edge", "components": {"V": [0, 0], "E": []}}
    return raw


@pytest.mark.parametrize("name, arrow, damage, triangle, message", [
    ("FIX-G", "f_ep", _retopped, "top", "cell injection does not glue along the generator"),
    ("FIX-M", "f32", _rebottomed, "bottom", "cell injection incompatible with r"),
], ids=["top", "bottom"])
def test_verify_cert_rejects_a_fill_that_fails_a_triangle(
    name, arrow, damage, triangle, message, tmp_path
):
    # a fill is its cell's injection into the last stage (`soa.ArrowRecord.fill`),
    # so the damaged cell's fill fails a triangle of its square, and the
    # cell's own glue or r check is what rejects it
    out = tmp_path / "cert.json"
    assert main(["soa", "--fixture", name, "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    payload = cert["payload"]
    maps, fkey = payload["maps"], payload["named"][arrow]
    entry = payload["arrows"][fkey]
    damage(maps, entry)
    cell = next(c for c in entry["cells"] if c["stage"] == 1)  # the damaged one
    fill = maps[cell["injection"]]["components"]
    if triangle == "top":  # j;fill against the top edge
        j = fixture(name).generators["J"].arrow_of[cell["j"]].f
        composite = {o: [fill[o][x] for x in j.table_at(o)] for o in fill}
    else:  # fill;R against the bottom edge
        right = maps[entry["right"]]["components"]
        composite = {o: [right[o][y] for y in t] for o, t in fill.items()}
    assert composite != maps[cell[triangle]]["components"]
    _drop_unreferenced(payload)
    assert verify_certificate(fixture(name), cert) == (False, f"arrows.{fkey}: {message}")


def test_verify_cert_rejects_a_stage_that_identifies_new_elements(monkeypatch):
    # an engine that quotients stage 1 by the vertices r sends to one: every
    # map stays natural, the injections glue, reach every element and meet
    # r, and the fills cohere, but stage 1 is smaller than its cells' colimit
    instance = from_json(_two_to_edge())
    options = {"arrows": "f2", "variant": "standard"}

    def certify() -> dict:
        payload = certificates.soa_certificate(instance, "J", "standard", 64, ["f2"])
        return written("soa", instance, options, payload)

    honest = certify()
    assert honest["payload"]["stage_tables"] == {"f2": [2, 6]}
    assert verify_certificate(instance, honest) == (True, "")
    build = GeneratedAwfs._build_stage
    vertex = instance.presheaves["vertex"]

    def quotiented(self, stage, stages, rmaps, *args):
        new, iota, injections, r = build(self, stage, stages, rmaps, *args)
        if stage > 1:
            return new, iota, injections, r
        by_r = {}  # r-value -> the first new vertex that r sends there
        relations = []
        for x in range(stages[-1].sizes[0], new.sizes[0]):  # V is object 0
            y = by_r.setdefault(r.tables[0][x], x)
            if y != x:
                pair = (PresheafMap(vertex, new, ((y,), ())), PresheafMap(vertex, new, ((x,), ())))
                relations.append(pair)
        q, proj = quotient_presheaf(new, relations)
        rtables = [[0] * n for n in q.sizes]
        for rt, pt, t in zip(rtables, proj.tables, r.tables):
            for x, image in zip(pt, t):
                rt[x] = image
        r_q = PresheafMap(q, r.dst, tuple(map(tuple, rtables)))
        return q, iota.then(proj), [inj.then(proj) for inj in injections], r_q

    monkeypatch.setattr(GeneratedAwfs, "_build_stage", quotiented)
    forged = certify()
    payload = forged["payload"]
    assert payload["stage_tables"] == {"f2": [2, 5]} and payload["law_report"] == []
    fkey = payload["named"]["f2"]
    assert "delta" not in payload["arrows"][fkey]
    assert verify_certificate(instance, forged) == (
        False, f"arrows.{fkey}: stage 1 identifies new elements at V that its cells keep apart"
    )


@pytest.mark.parametrize("key", ["delta", "mu"])
def test_verify_cert_rejects_another_natural_delta_or_mu(key, tmp_path):
    # swap one arrow's δ or μ for another natural map with the same
    # endpoints, pooled under its own hash: the (once-per-arrow) replay
    # still tells them apart
    out = tmp_path / "cert.json"
    assert main(["soa", "--fixture", "FIX-PW", "--variant", "monic", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    instance = fixture("FIX-PW")
    payload = cert["payload"]
    maps = payload["maps"]

    def presheaf(k):
        content = payload["presheaves"][k]
        return Presheaf.from_json(instance.bases[content["base"]], content)

    for fkey, entry in payload["arrows"].items():
        if key not in entry:
            continue
        content = maps[entry[key]]
        others = [
            m.table_json() for m in all_maps(presheaf(content["src"]), presheaf(content["dst"]))
            if m.table_json() != content["components"]
        ]
        if others:
            entry[key] = _pool_map(maps, dict(content, components=others[0]))
            break
    else:
        pytest.fail(f"no arrow has a second natural map in place of its {key}")
    assert verify_certificate(instance, cert) == (
        False, f"arrows.{fkey}.{key}: differs from the recomputed record entry"
    )


def test_verify_cert_rejects_flipped_fill_reference(tmp_path):
    out = tmp_path / "cert.json"
    assert main(["lift", "--fixture", "FIX-M", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    instance = fixture("FIX-M")
    ok, _ = verify_certificate(instance, cert)
    assert ok
    bad = copy.deepcopy(cert)
    fills = bad["payload"]["lifting_functions"]["f21"]["fills"]
    target = fills[0]
    # swap the fill reference for a different pooled map of matching shape
    original = target["fill"]
    replacement = next(
        k
        for k, v in bad["payload"]["maps"].items()
        if k != original
        and v["src"] == bad["payload"]["maps"][original]["src"]
        and v["dst"] == bad["payload"]["maps"][original]["dst"]
    )
    target["fill"] = replacement
    ok, msg = verify_certificate(instance, bad)
    assert not ok


def test_byte_determinism_across_threads(tmp_path):
    outputs = []
    for threads in (1, 2, 8):
        out = tmp_path / f"cert-{threads}.json"
        assert main(
            ["soa", "--fixture", "FIX-M", "--threads", str(threads), "--out", str(out)]
        ) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_env_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("AWFS_FORGE_THREADS", "2")
    out = tmp_path / "cert.json"
    assert main(["soa", "--fixture", "FIX-M", "--out", str(out)]) == 0


def test_model_command(tmp_path):
    out = tmp_path / "model.json"
    assert main(["model", "--fixture", "FIX-M", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert set(cert["payload"]["replacement"]) == {"s0", "s1", "s2", "s3"}
    assert main(["verify-cert", "--fixture", "FIX-M", str(out)]) == 0


def test_verify_cert_rejects_a_swapped_chi(tmp_path, capsys):
    out = tmp_path / "model.json"
    assert main(["model", "--fixture", "FIX-M", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    payload = cert["payload"]
    content = copy.deepcopy(payload["maps"][payload["chi"]["s1"]])
    table = content["components"]["*"]
    assert table[0] != table[1]
    table[0], table[1] = table[1], table[0]
    key = "m" + sha256_hex(canonical_dumps(content))[:16]
    payload["maps"][key] = content
    payload["chi"]["s1"] = key
    out.write_text(json.dumps(cert), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify-cert", "--fixture", "FIX-M", str(out)]) == 3
    assert capsys.readouterr().out.startswith("certificate REJECTED: chi.s1: ")


def test_verify_cert_rejects_another_filler_as_xi(tmp_path):
    # ξ_f32's lifting problem (L_t f32 against R f32) has more than one
    # filler: another one, pooled under its own hash, passes both triangles
    # but not the cell replay
    out = tmp_path / "model.json"
    assert main(["model", "--fixture", "FIX-M", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    instance = fixture("FIX-M")
    payload = cert["payload"]
    f = ArrowObject(instance.maps["f32"])
    fac_t = run_soa(instance.generators["J"]).factor(f)
    fac = run_soa(instance.generators["I"]).factor(f)
    lt, rf = ArrowObject(fac_t.left), ArrowObject(fac.right)
    content = payload["maps"][payload["xi"]["f32"]]
    others = [
        m.table_json()
        for m in oracle_lift(lt, rf, Square(lt, rf, fac.left, fac_t.right))
        if m.table_json() != content["components"]
    ]
    assert others
    payload["xi"]["f32"] = _pool_map(payload["maps"], dict(content, components=others[0]))
    assert verify_certificate(instance, cert) == (
        False, "xi.f32: xi differs from the cell replay"
    )
    cert["options"]["tau"] = "nope"
    assert verify_certificate(instance, cert) == (False, "options.tau: unknown tau")


@pytest.mark.parametrize("name", ["FIX-M", "FIX-PROJ"])
@pytest.mark.parametrize("keep", [3, 0])
def test_verify_cert_rejects_a_cut_model_law_report(name, keep):
    # every entry left reads pass; the verifier reruns the law suites
    instance = fixture(name)
    payload = certificates.model_certificate(instance, "J", "I", "tau", "monic", 64)
    cert = written("model", instance, {"tau": "tau"}, payload)
    assert verify_certificate(instance, cert) == (True, "")
    assert len(cert["payload"]["law_report"]) > 80
    del cert["payload"]["law_report"][keep:]
    assert verify_certificate(instance, cert) == (
        False, "law_report: embedded law report differs from the recomputed one"
    )


def test_verify_cert_rechecks_a_model_law_failure_before_reporting_it():
    # a forged failure differs from the recomputed report; a real one (FIX-G,
    # test_model_command_reports_failed_axiom_graph) matches it and is reported
    instance = fixture("FIX-M")
    payload = certificates.model_certificate(instance, "J", "I", "tau", "monic", 64)
    cert = written("model", instance, {"tau": "tau"}, payload)
    cert["payload"]["law_report"][3]["status"] = "fail"
    assert verify_certificate(instance, cert) == (
        False, "law_report: embedded law report differs from the recomputed one"
    )


def test_verify_cert_requires_injective_stage_inclusions_in_both_variants():
    # f21's inclusion 0 made to send both elements of E^0 to one, with the
    # left factor (the same single inclusion) repointed: R∘L = f still holds
    instance = fixture("FIX-M")
    payload = certificates.soa_certificate(instance, "J", "standard", 64)
    cert = written("soa", instance, {}, payload)
    payload = cert["payload"]
    fkey = payload["named"]["f21"]
    entry = payload["arrows"][fkey]
    content = payload["maps"][entry["inclusions"][0]]
    assert content["components"] == {"*": [0, 1]} and entry["left"] == entry["inclusions"][0]
    key = _pool_map(payload["maps"], dict(content, components={"*": [0, 0]}))
    entry["inclusions"][0] = entry["left"] = key
    assert verify_certificate(instance, cert) == (
        False, f"arrows.{fkey}: stage inclusion 0 is not the prefix inclusion"
    )


def test_model_command_reports_failed_axiom_graph(tmp_path, capsys):
    out = tmp_path / "modelg.json"
    assert main(["model", "--fixture", "FIX-G", "--out", str(out)]) == 3
    capsys.readouterr()
    assert main(["verify-cert", "--fixture", "FIX-G", str(out)]) == 3
    assert "law_report.weq.fib-cap: embedded law failure" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, path",
    [
        ("model --fixture FIX-DIV", "generators.I"),
        ("model --fixture FIX-PW", "generators.J"),
        ("quillen-check --fixture FIX-DIV", "adjunctions"),
        ("quillen-check --fixture FIX-PW", "adjunctions"),
        ("transport --fixture FIX-DIV", "adjunctions"),
        ("soa --fixture FIX-M --generators nope", "generators.nope"),
        ("model --fixture FIX-M --generators-j nope", "generators.nope"),
        ("quillen-check --fixture FIX-M --generators-i nope", "generators.nope"),
        ("model --fixture FIX-M --tau nope", "taus.nope"),
        ("lift --fixture FIX-M --generators nope", "generators.nope"),
        ("soa --fixture FIX-M --arrows nope", "arrows.nope"),
        ("soa --fixture FIX-M --arrows nope,f21", "arrows.nope"),
        ("lift --fixture FIX-M --arrows f21,nope", "arrows.nope"),
        ("lift --fixture FIX-M --arrows f21,", "arrows."),
    ],
)
def test_unresolvable_names_are_validation_errors(argv, path, capsys):
    assert main(argv.split()) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid: {path}: ") and "Traceback" not in err


def _set(raw, keys, value):
    for k in keys[:-1]:
        raw = raw[k]
    raw[keys[-1]] = value


@pytest.mark.parametrize(
    "keys, value, path",
    [
        ((), [1, 2], "instance"),
        (("presheaves", "edge", "act"), "oops", "presheaves.edge.act"),
        (("maps", "f_vp", "components"), None, "maps.f_vp.components"),
        (("generators",), "x", "generators"),
        (("presheaves",), "x", "presheaves"),
        (("maps",), "x", "maps"),
        (("taus",), "x", "taus"),
        (("adjunctions",), "x", "adjunctions"),
        (("bases",), "x", "bases"),
        (("options",), "x", "options"),
        (("generators", "J", "arrows"), "x", "generators.J.arrows"),
        (("maps", "f_vp", "src"), ["v"], "maps.f_vp.src"),
        (("base", "objects"), 5, "base.objects"),
        (("base", "objects"), [1, 2], "base.objects"),
        (("base", "morphisms", 0, "src"), "Q", "base.morphisms[0].src"),
        (("base", "morphisms", 0), "s", "base.morphisms[0]"),
        (("base", "identities"), {"V": "id_V"}, "base.identities"),
        (("base", "composition"), [["s"]], "base.composition[0]"),
        (("presheaves", "edge", "act", "s"), [7], "presheaves.edge.act.s"),
        (("presheaves", "edge", "act", "s"), [0, 1], "presheaves.edge.act.s"),
        (("presheaves", "edge", "act", "s"), [True], "presheaves.edge.act.s"),
        (("presheaves", "edge", "at", "V"), 1.5, "presheaves.edge.at.V"),
        (("presheaves", "edge", "at", "V"), True, "presheaves.edge.at.V"),
        (("maps", "f_vp", "components", "V"), [True], "maps.f_vp.components.V"),
        (("base", "objects"), ["V", "E", "V"], "base.objects"),
        (("bases",), {"extra": {"objects": ["a", "a"]}}, "bases.extra.objects"),
        (("maps", "f_vp", "components", "Q"), [7], "maps.f_vp.components.Q"),
        (("maps", "f_vp", "components", "V"), [99], "maps.f_vp.components.V"),
        (("maps", "f_vp", "components", "V"), [0, 0], "maps.f_vp.components.V"),
        (("maps", "f_vp", "components"), {"V": [0]}, "maps.f_vp.components.E"),
        (("presheaves", "edge", "at", "Q"), 3, "presheaves.edge.at.Q"),
        (("presheaves", "edge", "base"), ["main"], "presheaves.edge.base"),
        (("presheaves", "edge", "base"), {"a": 1}, "presheaves.edge.base"),
        (("options",), {"max_steps": "abc"}, "options.max_steps"),
        (("options",), {"max_steps": [1]}, "options.max_steps"),
        (("options",), {"max_steps": None}, "options.max_steps"),
        (("options",), {"max_steps": 2.7}, "options.max_steps"),
        (("options",), {"max_steps": True}, "options.max_steps"),
        (("options",), {"max_steps": -1}, "options.max_steps"),
        (("options",), {"variant": "fast"}, "options.variant"),
        (("generators", "JA", "squares"), {"zz": {"top": "zz", "bottom": "conn"}},
         "generators.JA.squares.zz"),
        (("generators", "JA", "squares", "a|id_j"), 5, "generators.JA.squares.a|id_j"),
        (("generators", "JA", "squares"), [], "generators.JA.squares"),
        (("generators", "JA", "arrows"), {"0|j": "ja0"}, "generators.JA.arrows.1|j"),
    ],
    ids=[
        "top-level-list", "act-string", "components-null", "generators-string",
        "presheaves-string", "maps-string",
        "taus-string", "adjunctions-string", "bases-string", "options-string",
        "generator-arrows-string", "map-src-list", "base-objects-number",
        "base-objects-numbers", "morphism-unknown-object", "morphism-string",
        "identities-incomplete", "composition-not-a-triple", "act-out-of-range",
        "act-wrong-length", "act-boolean", "at-float", "at-boolean", "components-boolean",
        "base-duplicate-objects", "extra-base-duplicate-objects",
        "components-unknown-object", "components-out-of-range", "components-too-long",
        "components-missing-object", "at-unknown-object",
        "presheaf-base-list", "presheaf-base-object",
        "max-steps-string", "max-steps-list", "max-steps-null", "max-steps-float",
        "max-steps-boolean", "max-steps-negative", "variant-unknown",
        "square-of-no-shape-morphism", "square-number", "squares-list", "shape-object-no-arrow",
    ],
)
def test_validate_rejects_wrongly_shaped_instances(keys, value, path, tmp_path, capsys):
    # FIX-PW's generators JA are the bundled diagram over a non-discrete shape
    name = "FIX-PW" if keys[:2] == ("generators", "JA") else "FIX-G"
    raw = value if not keys else fixture_raw(name)
    if keys:
        _set(raw, keys, value)
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["validate", str(inst)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid: {path}: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "keys, value, path",
    [
        (("taus", "tau"), 3, "taus.tau"),
        (("taus", "tau", "src"), None, "taus.tau.src"),
        (("taus", "tau", "objects"), [1], "taus.tau.objects"),
        (("taus", "tau", "objects"), {"nope": "nope"}, "taus.tau.objects.nope"),
        (("taus", "tau", "objects"), {"j0": "j0"}, "taus.tau.objects.j1"),
        (("weq",), 5, "weq"),
        (("weq",), {"kind": "list", "arrows": 5}, "weq.arrows"),
        (("weq",), {"kind": "zzz"}, "weq.kind"),
        (("adjunctions", "lan"), 5, "adjunctions.lan"),
        (("adjunctions", "lan", "to_base"), "nope", "adjunctions.lan.to_base"),
        (("adjunctions", "lan", "functor"), None, "adjunctions.lan.functor"),
        (("adjunctions", "lan", "functor", "objects"), {"0": "0"}, "adjunctions.lan.functor.objects.1"),
        (("adjunctions", "ident", "base"), "nope", "adjunctions.ident.base"),
        (("adjunctions", "tab"), {"kind": "explicit", "from_base": "main"}, "adjunctions.tab.kind"),
    ],
    ids=[
        "tau-number", "tau-no-src", "tau-objects-list", "tau-objects-unknown",
        "tau-objects-partial", "weq-number", "weq-arrows-number", "weq-kind-unknown",
        "adjunction-number", "lan-to-base-unknown", "lan-no-functor", "lan-functor-partial",
        "identity-base-unknown", "explicit-kind",
    ],
)
def test_validate_rejects_malformed_taus_weq_and_adjunctions(keys, value, path, tmp_path, capsys):
    # None deletes the key; each of these used to pass `validate` or end in
    # a traceback there or at `transport`
    raw = fixture_raw("FIX-PROJ")
    if value is None:
        del raw[keys[0]][keys[1]][keys[2]]
    else:
        _set(raw, keys, value)
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["validate", str(inst)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid: {path}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if keys == ("adjunctions", "tab"):  # a tabulated kind that no command could run
        assert err == "invalid: adjunctions.tab.kind: unsupported kind 'explicit'\n"


def _idempotent_lan(raw: dict) -> dict:
    """`raw` (FIX-PROJ) with a base `idem`, one object x and e: x → x with
    e∘e = e, and an adjunction `bad` restricting along a functor from `disc`
    that sends both identities to e."""
    raw["bases"]["idem"] = {
        "objects": ["x"],
        "morphisms": [{"name": "e", "src": "x", "dst": "x"}],
        "composition": [["e", "e", "e"]],
        "identities": {"x": "id_x"},
    }
    raw["adjunctions"]["bad"] = {
        "kind": "lan_res", "from_base": "disc", "to_base": "idem",
        "functor": {"objects": {"0": "x", "1": "x"}, "morphisms": {"id_0": "e", "id_1": "e"}},
    }
    return raw


@pytest.mark.parametrize("argv", ["validate", "transport --adjunction bad"])
def test_a_functor_must_send_identities_to_identities(argv, tmp_path, capsys):
    # restricting along it would give "presheaves" whose identities act as e
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(_idempotent_lan(fixture_raw("FIX-PROJ"))), encoding="utf-8")
    assert main([*argv.split(), str(inst)]) == 1
    assert capsys.readouterr().err == (
        "invalid: adjunctions.bad.functor.id_0: does not preserve identities\n"
    )


@pytest.mark.parametrize(
    "damage",
    [lambda b: b[:50], lambda b: b"\xff" + b, lambda b: b"[" * 200_000 + b"]" * 200_000],
    ids=["truncated", "not-utf8", "nested"],
)
def test_validate_rejects_unreadable_instance_files(damage, tmp_path, capsys):
    inst = tmp_path / "bad.json"
    inst.write_bytes(damage(canonical_dumps(fixture_raw("FIX-G")).encode("utf-8")))
    assert main(["validate", str(inst)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid: instance: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "composition, path",
    [
        ([], "generators.JA.shape.compose.b∘a|id_j: missing composite"),
        (
            [["b", "a|id_j", "a|id_j"], ["b", "b", "b"], ["a|id_j", "a|id_j", "b"]],
            "generators.JA.shape.compose.a|id_j∘a|id_j: pair not composable",
        ),
    ],
    ids=["missing-composite", "not-composable"],
)
def test_generator_shapes_are_law_checked(composition, path, tmp_path, capsys):
    # FIX-PW's shape with an endomorphism b of 0|j; the shape is checked as
    # a base is, before the diagram's functor laws
    raw = fixture_raw("FIX-PW")
    ja = raw["generators"]["JA"]
    ja["shape"]["morphisms"].append({"name": "b", "src": "0|j", "dst": "0|j"})
    ja["shape"]["composition"] = composition
    raw["maps"]["idg0"] = {"src": "gen0", "dst": "gen0", "components": {"*|0": [0], "*|1": [0]}}
    ja["squares"]["b"] = {"top": "zz", "bottom": "idg0"}
    inst = tmp_path / "shape.json"
    inst.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["validate", str(inst)]) == 1
    assert capsys.readouterr().err == f"invalid: {path}\n"


def test_validate_rejects_map_endpoints_over_different_bases(tmp_path, capsys):
    # FIX-PROJ's m0: p11 -> p11 over its base "disc"; k_b lives over "main"
    raw = fixture_raw("FIX-PROJ")
    raw["maps"]["m0"]["dst"] = "k_b"
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["validate", str(inst)]) == 1
    assert capsys.readouterr().err == "invalid: maps.m0: source and target live over different bases\n"


MALFORMED = "malformed certificate: "


def _without(field):
    return lambda content: {k: v for k, v in content.items() if k != field}


def _tables(change):
    """The entry with `change` applied to each of its component tables."""
    return lambda content: dict(
        content, components={o: change(t) for o, t in content["components"].items()}
    )


# a pool entry of the wrong shape, pooled under its own key: (pool, key
# prefix, the entry made from the pool's first entry, the rejection at `{key}`)
POOL_DAMAGE = {
    "presheaf-list": ("presheaves", "p", lambda c: [1], MALFORMED + "{key}: must be a JSON object"),
    "presheaf-base-list": ("presheaves", "p", lambda c: dict(c, base=[1]), "{key}: unknown base [1]"),
    "map-list": ("maps", "m", lambda c: [1], MALFORMED + "{key}: must be a JSON object"),
    "map-no-src": ("maps", "m", _without("src"), "{key}: dangling endpoint"),
    "map-src-list": ("maps", "m", lambda c: dict(c, src=[1]), "{key}: dangling endpoint"),
    "map-no-components": (
        "maps", "m", _without("components"),
        MALFORMED + "{key}.components: must be a JSON object",
    ),
    # FIX-M's first pooled map has the one table [0, 1, 2] into 7 elements
    "map-entry-out-of-range": (
        "maps", "m", _tables(lambda t: [99, *t[1:]]),
        MALFORMED + "{key}.components.*: entry 0 -> 99 out of range",
    ),
    "map-table-too-long": (
        "maps", "m", _tables(lambda t: [*t, 0]),
        MALFORMED + "{key}.components.*: length must equal src.size",
    ),
    "map-table-missing": (
        "maps", "m", lambda c: dict(c, components={}),
        MALFORMED + "{key}.components.*: missing object",
    ),
    "map-entry-boolean": (
        "maps", "m", _tables(lambda t: [True, *t[1:]]),
        MALFORMED + "{key}.components.*: must be a JSON list of integers",
    ),
    "map-unknown-object": (
        "maps", "m", lambda c: dict(c, components=dict(c["components"], zz=[])),
        MALFORMED + "{key}.components.zz: unknown base object",
    ),
}


def test_verify_cert_rejects_a_pooled_map_between_bases(tmp_path, capsys):
    out = tmp_path / "cert.json"
    argv = ["--fixture", "FIX-PROJ", "--adjunction", "lan", "--generators", "J", "--out", str(out)]
    assert main(["transport", *argv]) == 0
    cert = json.loads(out.read_text())
    first = {}  # base -> its first pooled presheaf
    for key, content in sorted(cert["payload"]["presheaves"].items()):
        first.setdefault(content["base"], key)
    entry = {"src": first["disc"], "dst": first["main"], "components": {}}
    key = pool_key("m", entry)
    cert["payload"]["maps"][key] = entry
    out.write_text(json.dumps(cert), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify-cert", "--fixture", "FIX-PROJ", str(out)]) == 3
    assert capsys.readouterr().out == (
        f"certificate REJECTED: {MALFORMED}maps.{key}: source and target live over different bases\n"
    )


# a whole pool or record block of the wrong shape: (command, block)
BLOCK_DAMAGE = {
    "presheaves-block": ("soa", "presheaves"),
    "maps-block": ("soa", "maps"),
    "arrows-block": ("soa", "arrows"),
    "model-arrows_j-block": ("model", "arrows_j"),
    "model-arrows_i-block": ("model", "arrows_i"),
    "lift-arrows-block": ("lift", "arrows"),
}


@pytest.mark.parametrize(
    "damage", ["truncate", "stage_tables", "nested", *POOL_DAMAGE, *BLOCK_DAMAGE]
)
def test_verify_cert_rejects_malformed_certificates(damage, tmp_path, capsys):
    out = tmp_path / "cert.json"
    command = BLOCK_DAMAGE[damage][0] if damage in BLOCK_DAMAGE else "soa"
    assert main([command, "--fixture", "FIX-M", "--out", str(out)]) == 0
    text = out.read_text()
    expected = MALFORMED
    if damage == "truncate":
        text = text[: len(text) // 2]
    elif damage == "nested":  # deeper than the JSON decoder's recursion limit
        text = "[" * 200_000 + "]" * 200_000
    else:
        cert = json.loads(text)
        if damage == "stage_tables":
            cert["payload"]["stage_tables"] = "x"
        elif damage in BLOCK_DAMAGE:
            block = BLOCK_DAMAGE[damage][1]
            cert["payload"][block] = [1]
            expected = MALFORMED + f"{block}: must be a JSON object"
        else:
            pool, prefix, change, expected = POOL_DAMAGE[damage]
            entries = cert["payload"][pool]
            content = change(next(iter(entries.values())))
            key = pool_key(prefix, content)
            entries[key] = content
            expected = expected.format(key=f"{pool}.{key}")
        text = json.dumps(cert)
    out.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["verify-cert", "--fixture", "FIX-M", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("certificate REJECTED: " + expected), captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("where", ["instance", "certificate", "out"])
def test_a_directory_path_is_an_error_not_a_traceback(where, tmp_path, capsys):
    argv = {
        "instance": ["validate", str(tmp_path)],
        "certificate": ["verify-cert", "--fixture", "FIX-M", str(tmp_path)],
        "out": ["soa", "--fixture", "FIX-M", "--out", str(tmp_path)],
    }[where]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot open: ") and captured.err.count("\n") == 1
    assert str(tmp_path) in captured.err


def test_a_missing_path_is_still_file_not_found(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 1
    assert capsys.readouterr().err.startswith("file not found: ")


def test_an_arrow_over_another_base_is_skipped(tmp_path):
    # FIX-PROJ's g1 lives over its second base, not under its generators
    out = tmp_path / "cert.json"
    assert main(["soa", "--fixture", "FIX-PROJ", "--arrows", "g1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["payload"]["named"] == {}


def test_transport_and_quillen_commands(tmp_path):
    out = tmp_path / "transport.json"
    assert main(
        ["transport", "--fixture", "FIX-PROJ", "--adjunction", "lan", "--generators", "J", "--out", str(out)]
    ) == 0
    assert main(["verify-cert", "--fixture", "FIX-PROJ", str(out)]) == 0
    out2 = tmp_path / "quillen.json"
    assert main(
        ["quillen-check", "--fixture", "FIX-PROJ", "--adjunction", "lan", "--out", str(out2)]
    ) == 0
    assert main(["verify-cert", "--fixture", "FIX-PROJ", str(out2)]) == 0


def test_pw_soa_command(tmp_path):
    out = tmp_path / "pw.json"
    assert main(["soa", "--fixture", "FIX-PW", "--generators", "JA", "--out", str(out)]) == 0
    assert main(["verify-cert", "--fixture", "FIX-PW", str(out)]) == 0


def test_instance_options_used_as_defaults():
    assert main(["soa", "--fixture", "FIX-DIV"]) == 2  # max_steps 10 from the instance
    assert main(["soa", "--fixture", "FIX-DIV", "--max-steps", "3"]) == 2


@pytest.mark.parametrize("command", ["soa", "lift", "model", "transport", "quillen-check"])
def test_a_negative_max_steps_flag_is_invalid(command, capsys):
    # as invalid as a negative options.max_steps in the instance
    assert main([command, "--fixture", "FIX-M", "--max-steps", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid: --max-steps: must be a nonnegative integer\n"


_INSTANCE = (["instance"], ["-h", "--help", "--fixture"])
_RUN = ["--variant", "--max-steps", "--threads", "--out", "--arrows"]
CLI_SURFACE = {
    "validate": _INSTANCE,
    "soa": (["instance"], _INSTANCE[1] + _RUN + ["--generators"]),
    "lift": (["instance"], _INSTANCE[1] + _RUN + ["--generators"]),
    "model": (["instance"], _INSTANCE[1] + _RUN + ["--generators-j", "--generators-i", "--tau"]),
    "transport": (["instance"], _INSTANCE[1] + _RUN + ["--adjunction", "--generators"]),
    "quillen-check": (
        ["instance"],
        _INSTANCE[1] + _RUN + ["--adjunction", "--generators-j", "--generators-i", "--tau"],
    ),
    "verify-cert": (["instance", "certificate"], _INSTANCE[1]),
}


def test_cli_surface_is_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(CLI_SURFACE)
    for name, (positionals, options) in CLI_SURFACE.items():
        actions = sub.choices[name]._actions
        assert [a.dest for a in actions if not a.option_strings] == positionals, name
        assert [s for a in actions for s in a.option_strings] == options, name
        choices = {a.option_strings[0]: list(a.choices) for a in actions if a.choices}
        want = {"--fixture": ["FIX-M", "FIX-G", "FIX-DIV", "FIX-PW", "FIX-PROJ"]}
        if "--variant" in options:
            want["--variant"] = ["monic", "standard"]
        assert choices == want, name


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [[], ["--help"], ["bogus"], ["soa", "--fixture", "FIX-M", "--bogus"]]
    + [[name, "--help"] for name in COMMANDS]
    + [
        ["soa", "--fixture", "FIX-M", "--max-steps", "-1"],
        ["validate", "--fix", "FIX-M"],
        ["validate", "--fixture=FIX-M"],
        ["validate", "--", "--fixture"],
        ["validate", "--fixture", "FIX-M", "--fixture", "FIX-PW"],
        ["soa", "--fixture", "FIX-M", "--out", "--"],
        ["soa", "--fixture", "FIX-DIV", "--max-steps", "٣"],
        ["verify-cert", "--fixture", "FIX-M", "a.json", "b.json", "c.json"],
        ["verify-cert", "--fixture", "FIX-M", "c.json", "-h"],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_declined_commands_run_as_argparse_parses_them(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.parse_plain(argv) is None
    capsys.readouterr()
    seen = _outcome(argv, capsys)
    monkeypatch.setattr(cli, "parse_plain", lambda argv: None)
    assert _outcome(argv, capsys) == seen


_FLAGS = sorted({o.flag for c in cli.SPEC.values() for o in c.options})
_VALUES = [
    *FIXTURE_NAMES, "FIX-X", "monic", "standard", "0", "3", "12", "007", "-1", "+3", " 3", "٣",
    "", "-", "--", "J", "I", "lan", "ident", "f21", "f21,f10", "a.json", "/tmp/c.json", "x=y",
]
_TOKENS = _VALUES + _FLAGS + ["-h", "--help", "--", "--fix", "--fixture=FIX-M", "--bogus"]


@st.composite
def _argvs(draw):
    """Mostly well-formed commands, with every kind of token argparse reads."""
    command = draw(st.sampled_from([*COMMANDS, "bogus"]))
    own = [o.flag for o in cli.SPEC[command].options] if command in cli.SPEC else _FLAGS
    flag = st.sampled_from(own) | st.sampled_from(_FLAGS)
    chunks = st.tuples(flag, st.sampled_from(_VALUES)) | st.tuples(st.sampled_from(_TOKENS))
    head = draw(st.lists(st.sampled_from(_VALUES), max_size=1))
    middle = draw(st.lists(chunks, max_size=4))
    tail = draw(st.lists(st.sampled_from(_VALUES), max_size=3))
    return [command, *head, *(token for chunk in middle for token in chunk), *tail]


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_the_plain_parser_agrees_with_argparse(argv):
    plain = cli.parse_plain(argv)
    if plain is not None:
        assert vars(plain) == vars(build_parser().parse_args(argv))


def test_fixture_commands_do_not_build_a_parser(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("argparse parser built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert main(["validate", "--fixture", "FIX-PW"]) == 0
    certs = []
    for i, (fx, argv) in enumerate(
        [
            ("FIX-M", ["soa", "--fixture", "FIX-M", "--variant", "standard"]),
            ("FIX-G", ["lift", "--fixture", "FIX-G"]),
            ("FIX-PROJ", ["model", "--fixture", "FIX-PROJ"]),
            ("FIX-PROJ", ["transport", "--fixture", "FIX-PROJ", "--adjunction", "lan"]),
            ("FIX-M", ["quillen-check", "--fixture", "FIX-M", "--adjunction", "ident"]),
        ]
    ):
        out = tmp_path / f"{i}.json"
        assert main([*argv, "--out", str(out)]) == 0, argv
        certs.append((fx, out))
    assert main(["soa", "--fixture", "FIX-DIV", "--out", str(tmp_path / "div.json")]) == 2
    for fx, out in certs:
        assert main(["verify-cert", "--fixture", fx, str(out)]) == 0, out
    instance = tmp_path / "m.json"
    instance.write_text(json.dumps(fixture_raw("FIX-M")))
    assert main(["verify-cert", str(instance), str(certs[0][1])]) == 0
    assert capsys.readouterr().out == "ok " + fixture("FIX-PW").input_hash() + "\n" + (
        "certificate ok\n" * (len(certs) + 1)
    )


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("path_first", [False, True], ids=["plain", "argparse"])
def test_an_instance_path_and_a_fixture_are_not_both_given(command, path_first, capsys):
    paths = ["/nonexistent.json"] + (["/nonexistent-cert.json"] if command == "verify-cert" else [])
    fixture_flag = ["--fixture", "FIX-M"]
    argv = [command, *paths, *fixture_flag] if path_first else [command, *fixture_flag, *paths]
    assert (cli.parse_plain(argv) is None) == path_first
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid: cli: give an instance path or --fixture, not both\n"
