"""`verify-cert` recomputes every derived block of a `soa`, `lift` and
`model` certificate with the certificate writer's own functions and requires
each block whole: cut or replaced blocks, generator blocks that do not
describe the instance's diagram, re-hashed single-entry flips of any pooled
map, record entries with a key more or less or a derived field flipped,
records with more stages than the certificate's `max_steps` allows or cut
short of convergence, pool entries that no block references, and payload or
envelope fields other than the writer's are all rejected, and every honest
certificate verifies."""

import copy
import json
import random

import pytest

from awfs_forge.certificates import ENGINE
from awfs_forge.cli import main
from awfs_forge.core import (
    Presheaf,
    PresheafMap,
    ValidationError,
    all_maps,
    canonical_dumps,
    sha256_hex,
)
from awfs_forge.fixtures import FIXTURE_NAMES, fixture, fixture_raw
from awfs_forge.instance import from_json
from awfs_forge.soa import NonConvergence, run_soa
from awfs_forge.verifier import verify_certificate

FIXTURES = ("FIX-M", "FIX-G", "FIX-PW", "FIX-PROJ")  # FIX-DIV does not converge


def _certify(tmp_path, argv: str, instance=None) -> dict:
    """The certificate that the CLI writes for `argv` (exit 0), read back."""
    out = tmp_path / "cert.json"
    if instance is not None:
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance), encoding="utf-8")  # keys in their order
        argv = f"{argv} {path}"
    assert main(argv.split() + ["--out", str(out)]) == 0, argv
    return json.loads(out.read_text(encoding="utf-8"))


def _za_raw() -> dict:
    """FIX-M with I = {z: e01, a: id1} and tau: j -> z; canonical JSON sorts
    the certified generator block's objects into a, z."""
    raw = fixture_raw("FIX-M")
    raw["generators"]["I"] = {"shape": "discrete", "arrows": {"z": "e01", "a": "id1"}}
    raw["taus"]["tau"]["objects"] = {"j": "z"}
    return raw


def _cut_structure(payload):
    for entry in payload["arrows"].values():
        entry.pop("delta", None)
        entry.pop("mu", None)


def _cut_named(payload):
    payload["named"], payload["stage_tables"], payload["law_report"] = {}, {}, []


def _other_lambda(payload):
    lam = payload["lambdas"]["j"]
    content = payload["maps"][lam]
    payload["lambdas"]["j"] = next(
        k for k, c in payload["maps"].items()
        if k != lam and c["src"] == content["src"] and c["dst"] != content["dst"]
    )


@pytest.mark.parametrize("variant, damage, where, message", [
    ("monic", _cut_structure, "arrows.", "entries differ from the recomputed ones"),
    ("monic", lambda p: p.update(lambdas={}), "lambdas", "entries differ"),
    ("monic", _cut_named, "named", "entries differ"),
    ("standard", _other_lambda, "lambdas.j", "unit coalgebra differs from the fill rule"),
], ids=["no-delta-mu", "no-lambdas", "no-named", "standard-lambda"])
def test_verify_cert_rejects_a_cut_or_replaced_soa_block(variant, damage, where, message, tmp_path):
    instance = fixture("FIX-M")
    cert = _certify(tmp_path, f"soa --fixture FIX-M --variant {variant}")
    assert verify_certificate(instance, cert) == (True, "")
    damage(cert["payload"])
    ok, msg = verify_certificate(instance, cert)
    assert not ok and msg.startswith(where) and message in msg, msg


@pytest.mark.parametrize("command", ["soa", "lift"])
def test_verify_cert_ties_the_generator_block_to_the_instance(command, tmp_path):
    # a FIX-G certificate under I, relabelled J in its options and its block
    instance = fixture("FIX-G")
    cert = _certify(tmp_path, f"{command} --fixture FIX-G --generators I")
    assert verify_certificate(instance, cert) == (True, "")
    relabelled = copy.deepcopy(cert)
    relabelled["options"]["generators"] = relabelled["payload"]["generators"]["label"] = "J"
    assert verify_certificate(instance, relabelled) == (
        False, "generators.objects: entries differ from the recomputed ones"
    )
    cert["options"]["generators"] = "J"
    assert verify_certificate(instance, cert) == (
        False, "generators.label: differs from the options"
    )


def test_verify_cert_accepts_a_model_over_generators_in_any_key_order(tmp_path):
    raw = _za_raw()
    cert = _certify(tmp_path, "model", raw)
    assert list(cert["payload"]["generators_i"]["objects"]) == ["a", "z"]
    assert verify_certificate(from_json(raw), cert) == (True, "")


def _round_trips():
    for name in FIXTURES:
        for gname in fixture(name).generators:
            for argv in (
                f"soa --fixture {name} --generators {gname} --variant monic",
                f"soa --fixture {name} --generators {gname} --variant standard",
                f"lift --fixture {name} --generators {gname}",
            ):
                yield name, argv


@pytest.mark.parametrize("name, argv", list(_round_trips()))
def test_every_soa_and_lift_certificate_verifies(name, argv, tmp_path):
    assert verify_certificate(fixture(name), _certify(tmp_path, argv)) == (True, "")


def _spike_raw() -> dict:
    """FIX-G's graph base with generators S of shape p -> n: jv, a vertex to
    the source of an edge, and jn, two vertices a and b to a spike (an edge
    out of a, and b), connected along a's edge; and f: two -> edge."""
    raw = fixture_raw("FIX-G")
    raw["presheaves"]["two"] = {"at": {"V": 2, "E": 0}, "act": {"s": [], "t": []}}
    raw["presheaves"]["spike"] = {"at": {"V": 3, "E": 1}, "act": {"s": [0], "t": [2]}}
    raw["maps"].update({
        "jn": {"src": "two", "dst": "spike", "components": {"V": [0, 1], "E": []}},
        "cu": {"src": "vertex", "dst": "two", "components": {"V": [0], "E": []}},
        "cv": {"src": "edge", "dst": "spike", "components": {"V": [0, 2], "E": [0]}},
        "f": {"src": "two", "dst": "edge", "components": {"V": [0, 1], "E": []}},
    })
    shape = {"objects": ["p", "n"], "morphisms": [{"name": "c", "src": "p", "dst": "n"}],
             "composition": [], "identities": {"p": "id_p", "n": "id_n"}}
    raw["generators"]["S"] = {"shape": shape, "arrows": {"p": "jv", "n": "jn"},
                              "squares": {"c": {"top": "cu", "bottom": "cv"}}}
    return raw


@pytest.mark.parametrize("variant", ["monic", "standard"])
def test_a_stage_whose_cells_an_older_fill_pins_verifies(variant, tmp_path):
    # f's stage 2 attaches one jn cell, along (a, b) = (0, the vertex that
    # stage 1 added).  Its composite with the connecting square is stage 1's
    # jv cell, whose fill pins the spike's edge to an old one, so the stage
    # adds no element and the verifier's count of new classes must say 0
    raw = _spike_raw()
    cert = _certify(tmp_path, f"soa --generators S --arrows f --variant {variant}", raw)
    assert cert["payload"]["stage_tables"] == {"f": [2, 4, 4]}
    assert verify_certificate(from_json(raw), cert) == (True, "")


ROUND = [  # every certificate of a benchmark `fixtures` round
    *(f"{command} --fixture {name}" for name in FIXTURES for command in (
        "soa --variant monic", "soa --variant standard", "lift"
    )),
    "model --fixture FIX-M",
    "model --fixture FIX-PROJ",
    *(f"{command} --fixture {name} --adjunction {adjunction}"
      for name, adjunction in (("FIX-M", "ident"), ("FIX-G", "ident"), ("FIX-PROJ", "ident"),
                               ("FIX-PROJ", "lan"))
      for command in ("transport", "quillen-check")),
]


def test_the_spliced_pools_write_canonical_json(tmp_path):
    # the writer splices each pool's entries in as their canonical text; the
    # certificate must be the canonical JSON of what it parses to
    for argv in ROUND:
        _certify(tmp_path, argv)
        text = (tmp_path / "cert.json").read_text(encoding="utf-8")
        assert text == canonical_dumps(json.loads(text)) + "\n", argv


def test_the_round_trip_covers_every_converging_fixture():
    converging = set()
    for name in FIXTURE_NAMES:
        instance = fixture(name)
        try:
            for diagram in instance.generators.values():
                gen = run_soa(diagram, variant="standard")
                for m in instance.maps.values():
                    if m.base == diagram.base:
                        gen.record(m)
        except NonConvergence:
            continue
        converging.add(name)
    assert converging == set(FIXTURES)


# -- re-hashed flips ---------------------------------------------------------


def _flips(cert: dict):
    """Every single-entry flip of a pooled map that stays in range: (key,
    object, index, new value)."""
    payload = cert["payload"]
    for key in sorted(payload["maps"]):
        content = payload["maps"][key]
        sizes = payload["presheaves"][content["dst"]]["at"]
        for o, table in sorted(content["components"].items()):
            for i, v in enumerate(table):
                if sizes[o] > 1:
                    yield key, o, i, (v + 1) % sizes[o]


def _renamed(value, old: str, new: str):
    if isinstance(value, dict):
        return {(new if k == old else k): _renamed(v, old, new) for k, v in value.items()}
    if isinstance(value, list):
        return [_renamed(v, old, new) for v in value]
    return new if value == old else value


def _flipped(cert: dict, key: str, o: str, i: int, value: int) -> dict:
    """`cert` with entry i of map `key` at `o` set to `value`, the map pooled
    under its new hash and every reference to it rewritten."""
    content = copy.deepcopy(cert["payload"]["maps"][key])
    content["components"][o][i] = value
    new = "m" + sha256_hex(canonical_dumps(content))[:16]
    maps = {k: c for k, c in cert["payload"]["maps"].items() if k != key}
    maps[new] = content
    payload = {k: v for k, v in cert["payload"].items() if k != "maps"}
    return {**cert, "payload": {**_renamed(payload, key, new), "maps": maps}}


def _sweep_cases():
    for name in FIXTURES:
        yield name, f"soa --fixture {name} --variant standard", None
        yield name, f"lift --fixture {name} --variant standard", None
        yield name, f"soa --fixture {name} --variant monic", 25
    for name in ("FIX-M", "FIX-PROJ"):
        yield name, f"model --fixture {name}", 25


@pytest.mark.parametrize("name, argv, sample", list(_sweep_cases()))
def test_verify_cert_rejects_every_rehashed_flip(name, argv, sample, tmp_path):
    instance = fixture(name)
    cert = _certify(tmp_path, argv)
    assert verify_certificate(instance, cert) == (True, "")
    flips = list(_flips(cert))
    if sample is not None:
        flips = random.Random(f"{argv}").sample(flips, min(sample, len(flips)))
    assert flips
    accepted = [f for f in flips if verify_certificate(instance, _flipped(cert, *f))[0]]
    assert accepted == []


def _other_maps(instance, payload: dict, key: str):
    """The contents of natural maps with the endpoints of pooled map `key`
    and other tables: the other pooled ones, those that differ from it in one
    table entry and, when its domain has at most 9 elements, every one."""
    content = payload["maps"][key]
    for k, other in sorted(payload["maps"].items()):
        if k != key and (other["src"], other["dst"]) == (content["src"], content["dst"]):
            yield other
    src, dst = (
        Presheaf.from_json(instance.bases[c["base"]], c)
        for c in (payload["presheaves"][content["src"]], payload["presheaves"][content["dst"]])
    )
    for o, table in sorted(content["components"].items()):
        for i, v in enumerate(table):
            for w in range(payload["presheaves"][content["dst"]]["at"][o]):
                if w == v:
                    continue
                tables = copy.deepcopy(content["components"])
                tables[o][i] = w
                try:
                    PresheafMap.from_tables(src, dst, tables).check_naturality()
                except ValidationError:
                    continue
                yield dict(content, components=tables)
    if src.total_size <= 9:
        for m in all_maps(src, dst):
            if m.table_json() != content["components"]:
                yield dict(content, components=m.table_json())


def _field_flips(instance, payload: dict, fields: tuple[str, ...]):
    """Single-field flips of the record entries under `arrows`: (record key,
    field, change), where `change(payload, entry)` points a map field at
    another natural map with its endpoints, pooled under its own hash, points
    `mid` at another pooled presheaf, or moves one `trace` entry by one."""

    def repoint(field, content, i=None):
        def change(payload, entry):
            (entry if i is None else entry["fills"][i])[field] = _pooled(payload, "maps", content)
        return change

    def bump(k):
        def change(payload, entry):
            entry["trace"][k] += 1
        return change

    for fkey, entry in sorted(payload["arrows"].items()):
        for field in fields:
            if field == "mid":
                for p in sorted(set(payload["presheaves"]) - {entry["mid"]}):
                    yield fkey, field, lambda payload, e, p=p: e.update(mid=p)
            elif field == "trace":
                for k in range(len(entry["trace"])):
                    yield fkey, field, bump(k)
            elif field == "fill":
                for i, fill in enumerate(entry["fills"]):
                    for content in _other_maps(instance, payload, fill["fill"]):
                        yield fkey, field, repoint("fill", content, i)
            elif field in entry:
                for content in _other_maps(instance, payload, entry[field]):
                    yield fkey, field, repoint(field, content)


@pytest.mark.parametrize("name, argv, fields", [
    ("FIX-G", "soa --fixture FIX-G", ("left", "mid", "trace", "fill", "delta")),
    ("FIX-PW", "lift --fixture FIX-PW", ("left", "mid", "trace", "fill")),
], ids=["FIX-G-soa", "FIX-PW-lift"])
def test_verify_cert_rejects_field_flips_of_record_entries(name, argv, fields, tmp_path):
    # each flip keeps the pools well formed and natural, so only the match of
    # the record entry against `soa.record_block` can reject it
    instance = fixture(name)
    cert = _certify(tmp_path, argv)
    flips = list(_field_flips(instance, cert["payload"], fields))
    rng = random.Random(argv)
    sample = []
    for field in fields:
        of_field = [f for f in flips if f[1] == field]
        assert of_field, field
        sample += rng.sample(of_field, min(8, len(of_field)))
    for fkey, field, change in sample:
        flipped = copy.deepcopy(cert)
        change(flipped["payload"], flipped["payload"]["arrows"][fkey])
        ok, msg = verify_certificate(instance, flipped)
        assert not ok and msg.startswith(f"arrows.{fkey}"), (field, msg)


@pytest.mark.parametrize("value, written", [(3, 3.0), (1, True), (0, False)])
def test_verify_cert_matches_record_entries_type_strictly(value, written, tmp_path):
    # the written value equals the recomputed one under ==, but is a float or
    # a boolean where the record entry holds an integer
    instance = fixture("FIX-M")
    cert = _certify(tmp_path, "soa --fixture FIX-M")
    fkey = next(k for k, e in cert["payload"]["arrows"].items() if e["trace"][0] == value)
    cert["payload"]["arrows"][fkey]["trace"][0] = written
    assert verify_certificate(instance, cert) == (
        False, f"arrows.{fkey}.trace[0]: differs from the recomputed record entry"
    )
    out = tmp_path / "flipped.json"
    out.write_text(json.dumps(cert), encoding="utf-8")
    assert main(["verify-cert", "--fixture", "FIX-M", str(out)]) == 3


@pytest.mark.parametrize("argv, blocks", [
    ("soa --fixture FIX-M", ("arrows",)),
    ("lift --fixture FIX-M", ("arrows",)),
    ("model --fixture FIX-M", ("arrows_j", "arrows_i")),
], ids=["soa", "lift", "model"])
def test_verify_cert_rejects_a_record_entry_with_a_key_more_or_less(argv, blocks, tmp_path):
    instance = fixture("FIX-M")
    cert = _certify(tmp_path, argv)
    differ = "entries differ from the recomputed ones"
    for block in blocks:
        fkey, entry = max(cert["payload"][block].items(), key=lambda kv: len(kv[1]))
        assert "delta" in entry or not argv.startswith("soa")
        more = copy.deepcopy(cert)
        more["payload"][block][fkey]["note"] = entry["left"]
        assert verify_certificate(instance, more) == (False, f"{block}.{fkey}: {differ}")
        more = copy.deepcopy(cert)
        more["payload"][block][fkey]["cells"][0]["note"] = 0
        assert verify_certificate(instance, more) == (False, f"{block}.{fkey}.cells[0]: {differ}")
        for key in entry:
            less = copy.deepcopy(cert)
            del less["payload"][block][fkey][key]
            parsed = key in ("f", "stages", "inclusions", "rmaps", "cells")
            want = f"malformed certificate: '{key}'" if parsed else f"{block}.{fkey}: {differ}"
            assert verify_certificate(instance, less) == (False, want), key


# -- records: one cell and one fill per square, and their own fields ------------


def _pooled(payload: dict, kind: str, content: dict) -> str:
    key = kind[0] + sha256_hex(canonical_dumps(content))[:16]
    payload[kind][key] = content
    return key


def _with_last_cell_twice(payload: dict, fkey: str) -> None:
    """Attach the last cell of a one-object record a second time, along the
    same square, as a new element of a larger last stage: every cell still
    commutes, glues and meets r, and every element is reached."""
    entry = payload["arrows"][fkey]
    n = entry["trace"][-1]
    big = _pooled(payload, "presheaves", {"base": "main", "at": {"*": n + 1}, "act": {}})

    def into_big(key, **change):
        return _pooled(payload, "maps", {**payload["maps"][key], "dst": big, **change})

    last = len(entry["stages"]) - 1
    cell = entry["cells"][-1]
    twin = dict(cell, injection=into_big(cell["injection"], components={"*": [n]}))
    r = payload["maps"][entry["rmaps"][-1]]
    entry["rmaps"][-1] = entry["right"] = _pooled(payload, "maps", {
        **r, "src": big, "components": {"*": r["components"]["*"] + [r["components"]["*"][-1]]},
    })
    entry["stages"][-1] = entry["mid"] = big
    entry["inclusions"][-1] = into_big(entry["inclusions"][-1])
    entry["left"] = into_big(entry["left"])
    for c in entry["cells"]:
        if c["stage"] == last:
            c["injection"] = into_big(c["injection"])
    entry["cells"].append(twin)
    for fill in entry["fills"]:
        fill["top"], fill["fill"] = into_big(fill["top"]), into_big(fill["fill"])
    entry["trace"][-1] += 1
    for name, key in payload["named"].items():
        if key == fkey:
            payload["stage_tables"][name][-1] += 1


def test_verify_cert_rejects_two_cells_along_one_square(tmp_path):
    instance = fixture("FIX-M")
    cert = _certify(tmp_path, "soa --fixture FIX-M --variant standard --arrows f21")
    fkey = cert["payload"]["named"]["f21"]
    assert cert["payload"]["stage_tables"]["f21"] == [2, 3]
    _with_last_cell_twice(cert["payload"], fkey)
    assert verify_certificate(instance, cert) == (False, f"arrows.{fkey}: two cells share a square")


def test_verify_cert_rejects_a_record_cut_before_its_last_stage(tmp_path):
    # the longest record, less its last stage and that stage's cells: every
    # check up to convergence still passes, and the squares that the cut
    # stage attached are left unfilled
    instance = fixture("FIX-G")
    cert = _certify(tmp_path, "soa --fixture FIX-G")
    fkey, entry = max(cert["payload"]["arrows"].items(), key=lambda kv: len(kv[1]["stages"]))
    assert len(entry["stages"]) == 3
    for field in ("stages", "inclusions", "rmaps"):
        entry[field].pop()
    entry["cells"] = [c for c in entry["cells"] if c["stage"] < len(entry["stages"])]
    assert verify_certificate(instance, cert) == (
        False, f"arrows.{fkey}: not converged: a square does not factor through the last stage"
    )


RECOMPUTED = "differs from the recomputed record entry"


@pytest.mark.parametrize("damage, where, message", [
    (lambda e: e["fills"].append(dict(e["fills"][0], fill=e["left"])), ".fills", "entries differ"),
    (lambda e: e.update(mid=e["stages"][0]), ".mid", RECOMPUTED),
    (lambda e: e["trace"].reverse(), ".trace[0]", RECOMPUTED),
    (lambda e: e.update(variant="standard"), ".variant", RECOMPUTED),
], ids=["padded-fills", "mid", "trace", "variant"])
def test_verify_cert_rejects_a_record_whose_own_fields_are_off(damage, where, message, tmp_path):
    instance = fixture("FIX-M")
    cert = _certify(tmp_path, "soa --fixture FIX-M --variant monic")
    fkey = cert["payload"]["named"]["f21"]
    damage(cert["payload"]["arrows"][fkey])
    ok, msg = verify_certificate(instance, cert)
    assert not ok and msg.startswith(f"arrows.{fkey}{where}: {message}"), msg


def test_verify_cert_reports_a_deep_difference_at_its_path(tmp_path):
    # the path below a block is put together only for the difference reported
    instance = fixture("FIX-M")
    cert = _certify(tmp_path, "soa --fixture FIX-M")
    fkey, entry = next((k, e) for k, e in cert["payload"]["arrows"].items() if e["fills"])
    where = f"arrows.{fkey}.fills[0]"
    cases = [
        (dict(entry["fills"][0], fill=entry["f"]), f"{where}.fill: {RECOMPUTED}"),
        (dict(entry["fills"][0], fill="m0"), f"{where}.fill: dangling map reference m0"),
        ([], f"malformed certificate: {where}: not a JSON object"),
    ]
    for damaged, message in cases:
        bad = copy.deepcopy(cert)
        bad["payload"]["arrows"][fkey]["fills"][0] = damaged
        assert verify_certificate(instance, bad) == (False, message)
    jname = next(iter(cert["payload"]["generators"]["objects"]))
    cert["payload"]["generators"]["objects"][jname] = entry["f"]
    assert verify_certificate(instance, cert) == (
        False, f"generators.objects.{jname}: differs from the instance"
    )


def test_verify_cert_rejects_a_stage_with_its_cells_permuted(tmp_path):
    # the cells of a stage are `soa.new_squares` in its order, the order the
    # engine writes them: a permutation would be a second certificate
    instance = fixture("FIX-M")
    cert = _certify(tmp_path, "soa --fixture FIX-M --generators J --variant standard")
    fkey, entry = next(
        (k, e) for k, e in cert["payload"]["arrows"].items()
        if sum(c["stage"] == 1 for c in e["cells"]) >= 2
    )
    assert entry["cells"][0]["stage"] == entry["cells"][1]["stage"] == 1
    entry["cells"][:2] = entry["cells"][1::-1]
    assert verify_certificate(instance, cert) == (
        False, f"arrows.{fkey}: stage 1 cells do not match the new squares"
    )


def test_verify_cert_rejects_cells_out_of_stage_order_or_an_empty_stage(tmp_path):
    # the engine lists cells stage by stage and stops at the first stage that
    # would attach none: either change would be a second certificate
    instance = fixture("FIX-G")
    cert = _certify(tmp_path, "soa --fixture FIX-G --variant standard")
    fkey, entry = next(
        (k, e) for k, e in cert["payload"]["arrows"].items()
        if any(c["stage"] == 2 for c in e["cells"])
    )
    moved = copy.deepcopy(cert)
    cells = moved["payload"]["arrows"][fkey]["cells"]
    cells.insert(0, cells.pop(next(i for i, c in enumerate(cells) if c["stage"] == 2)))
    assert verify_certificate(instance, moved) == (
        False, f"arrows.{fkey}: cells are not listed stage by stage"
    )
    # the last stage once more, along its identity, with r unchanged
    payload = cert["payload"]
    last = entry["stages"][-1]
    tables = {o: list(range(n)) for o, n in payload["presheaves"][last]["at"].items()}
    entry["inclusions"].append(_pooled(payload, "maps", {"src": last, "dst": last, "components": tables}))
    entry["stages"].append(last)
    entry["rmaps"].append(entry["rmaps"][-1])
    entry["trace"].append(entry["trace"][-1])
    for name, key in payload["named"].items():
        if key == fkey:
            payload["stage_tables"][name].append(payload["stage_tables"][name][-1])
    assert verify_certificate(instance, cert) == (
        False, f"arrows.{fkey}: stage {len(entry['stages']) - 1} attaches no cells"
    )


def test_verify_cert_reads_the_named_arrows_and_variant_from_the_options(tmp_path):
    instance = fixture("FIX-M")
    cert = _certify(tmp_path, "soa --fixture FIX-M --arrows f21,g31")
    assert list(cert["payload"]["named"]) == ["f21", "g31"]
    assert verify_certificate(instance, cert) == (True, "")
    every = copy.deepcopy(cert)
    del every["options"]["arrows"]
    # every named arrow's δ needs records that the certificate does not hold
    assert verify_certificate(instance, every) == (False, "arrows: no record for a required arrow")
    cert["options"]["variant"] = "standard"
    assert verify_certificate(instance, cert) == (False, "variant: differs from the options")


def _bounded(cert: dict, options, payload) -> dict:
    """`cert` with `options.max_steps` set to `options` (None deletes it) and
    the payload's `max_steps` to `payload` (None leaves it)."""
    cert = copy.deepcopy(cert)
    if options is None:
        del cert["options"]["max_steps"]
    else:
        cert["options"]["max_steps"] = options
    if payload is not None:
        cert["payload"]["max_steps"] = payload
    return cert


@pytest.mark.parametrize("argv, options, payload, where, message", [
    ("soa --fixture FIX-G", 1, 1, "arrows.", "more stages than max_steps 1 allows"),
    ("soa --fixture FIX-G", None, 1, "arrows.", "more stages than max_steps 1 allows"),
    ("soa --fixture FIX-G", 1, 7, "max_steps", "differs from the options"),
    ("lift --fixture FIX-G", 1, None, "arrows.", "more stages than max_steps 1 allows"),
    ("model --fixture FIX-M", 0, None, "arrows_j.", "more stages than max_steps 0 allows"),
    ("soa --fixture FIX-G", True, 1, "malformed certificate: options.max_steps", "nonnegative"),
    ("soa --fixture FIX-G", 3, -3, "malformed certificate: max_steps", "nonnegative"),
    ("lift --fixture FIX-G", "3", None, "malformed certificate: options.max_steps", "nonnegative"),
    ("model --fixture FIX-M", 2.5, None, "malformed certificate: options.max_steps", "nonnegative"),
], ids=[
    "soa-both-1", "soa-payload-only", "soa-payload-7-options-1", "lift-options-1",
    "model-options-0", "options-boolean", "payload-negative", "lift-options-string",
    "model-options-float",
])
def test_verify_cert_bounds_every_record_by_max_steps(argv, options, payload, where, message, tmp_path):
    # the engine raises NonConvergence before it makes a record with more
    # stages than max_steps; FIX-G's records have at most three
    name = argv.split()[2]
    cert = _bounded(_certify(tmp_path, argv), options, payload)
    ok, msg = verify_certificate(fixture(name), cert)
    assert not ok and msg.startswith(where) and message in msg, msg


def test_verify_cert_accepts_max_steps_at_the_stage_count(tmp_path):
    instance = fixture("FIX-G")
    assert main(["soa", "--fixture", "FIX-G", "--max-steps", "2"]) == 2
    cert = _certify(tmp_path, "soa --fixture FIX-G --max-steps 3")
    assert max(len(e["stages"]) for e in cert["payload"]["arrows"].values()) == 3
    assert verify_certificate(instance, cert) == (True, "")
    assert verify_certificate(instance, _bounded(cert, None, None)) == (True, "")


# -- pools: every entry is referenced ----------------------------------------


def _unreferenced_identity(payload: dict) -> str:
    """Pool the identity map of the first pooled presheaf whose identity is
    not pooled yet, under its own key."""
    pooled = {(c["src"], c["dst"], canonical_dumps(c["components"])) for c in payload["maps"].values()}
    for pkey, content in payload["presheaves"].items():
        tables = {o: list(range(n)) for o, n in content["at"].items()}
        if (pkey, pkey, canonical_dumps(tables)) not in pooled:
            return _pooled(payload, "maps", {"src": pkey, "dst": pkey, "components": tables})
    raise AssertionError("every pooled presheaf's identity is pooled")


def _unreferenced_presheaf(payload: dict) -> str:
    """Pool a set over FIX-M's one-object base, one element larger than the
    largest pooled one."""
    n = max(c["at"]["*"] for c in payload["presheaves"].values())
    return _pooled(payload, "presheaves", {"base": "main", "at": {"*": n + 1}, "act": {}})


# an entry that no check reads, in a pool, the payload or the envelope, or an
# envelope that `certificates.envelope` did not write: kind -> (change, and
# the rejection, with `{key}` the pool key that the change returns)
UNREAD = {
    "maps": (
        lambda cert: _unreferenced_identity(cert["payload"]),
        "maps.{key}: no block references this entry",
    ),
    "presheaves": (
        lambda cert: _unreferenced_presheaf(cert["payload"]),
        "presheaves.{key}: no block references this entry",
    ),
    "envelope-key": (lambda cert: cert.update(extra=1), "envelope.extra: unexpected field"),
    "payload-block": (
        lambda cert: cert["payload"].update(extra=1), "payload.extra: unexpected field"
    ),
    "engine-changed": (
        lambda cert: cert.update(engine="awfs-forge 9.9"),
        f"envelope.engine: differs from {ENGINE!r}",
    ),
    "engine-removed": (lambda cert: cert.pop("engine"), "envelope.engine: missing field"),
}


@pytest.mark.parametrize("argv", ["soa --fixture FIX-M", "lift --fixture FIX-M", "model --fixture FIX-M"])
@pytest.mark.parametrize("kind", list(UNREAD))
def test_verify_cert_rejects_a_pool_entry_that_no_block_references(argv, kind, tmp_path):
    instance = fixture("FIX-M")
    cert = _certify(tmp_path, argv)
    assert verify_certificate(instance, cert) == (True, "")
    change, rejection = UNREAD[kind]
    key = change(cert)
    assert verify_certificate(instance, cert) == (False, rejection.format(key=key))
