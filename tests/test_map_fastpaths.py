"""Fast paths that skip settled per-map work, each against the route it
replaces: composing with a shared identity map, the square sort text built
once per edge, the one-pass reader of map tables from instances and
certificates (`reference_maps.ref_pooled_map` keeps the three-call route),
the canonical JSON encoder built once, and the CLI freezing its import heap
once per process."""

import copy
import gc
import json
import random

import pytest

from awfs_forge import cli
from awfs_forge.arrows import ArrowObject
from awfs_forge.core import (
    _CANONICAL,
    _MARKERS,
    Presheaf,
    PresheafMap,
    ValidationError,
    canonical_dumps,
    sha256_hex,
)
from awfs_forge.fixtures import FIXTURE_NAMES, fixture, fixture_raw
from awfs_forge.lifting import enumerate_new_squares, enumerate_squares, square_key
from awfs_forge.soa import run_soa
from awfs_forge.verifier import _Pools
from reference_maps import components, ref_pooled_map, ref_then

FIXTURES = ("FIX-M", "FIX-G", "FIX-PW", "FIX-PROJ")  # FIX-DIV does not converge
CERTIFIED = [
    f"{command} --fixture {name}"
    for name in FIXTURES
    for command in ("soa --variant monic", "soa --variant standard", "lift")
] + [
    "model --fixture FIX-M",
    "model --fixture FIX-PROJ",
    *(
        f"{command} --fixture {name} --adjunction ident"
        for name in ("FIX-M", "FIX-G", "FIX-PROJ")
        for command in ("transport", "quillen-check")
    ),
    "transport --fixture FIX-PROJ --adjunction lan",
    "quillen-check --fixture FIX-PROJ --adjunction lan",
]


@pytest.fixture(scope="module")
def certificates(tmp_path_factory) -> dict[str, dict]:
    """argv -> the certificate that the CLI writes for it, read back."""
    out = tmp_path_factory.mktemp("certs") / "cert.json"
    certs = {}
    for argv in CERTIFIED:
        assert cli.main(argv.split() + ["--out", str(out)]) == 0, argv
        certs[argv] = json.loads(out.read_text(encoding="utf-8"))
    return certs


def _fixture_of(argv: str) -> str:
    return argv.split("--fixture ")[1].split()[0]


def _copy(p: Presheaf) -> Presheaf:
    """A presheaf equal to `p` that is not `p`."""
    q = Presheaf(p.base, dict(p.at), dict(p.act))
    assert q == p and q is not p
    return q


# -- composing with a shared identity ------------------------------------------


def _composite(f: PresheafMap, g: PresheafMap) -> tuple:
    """f;g by `then`: its endpoints as objects and its components."""
    h = f.then(g)
    return h.src, h.dst, components(h)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_then_with_a_shared_identity_is_the_table_composite(name):
    maps = list(fixture(name).maps.values())
    assert maps
    for m in maps:
        src, dst = m.src, m.dst
        assert PresheafMap.identity(src) is PresheafMap.identity(src)
        for left, right in (
            (PresheafMap.identity(src), m),
            (m, PresheafMap.identity(dst)),
            (PresheafMap.identity(_copy(src)), m),  # endpoints equal, not the same object
            (m, PresheafMap.identity(_copy(dst))),
        ):
            got = _composite(left, right)
            assert got[0] is left.src and got[1] is right.dst
            assert got[2] == ref_then(left, right)
        # an identity on the side whose endpoints are the map's own is the map
        assert PresheafMap.identity(src).then(m) is m
        assert m.then(PresheafMap.identity(dst)) is m
        # a map with identity tables that is not the shared one composes by tables
        fresh = PresheafMap(src, src, PresheafMap.identity(src).tables)
        assert fresh.then(m) == m and fresh.then(m) is not m


def test_then_with_a_shared_identity_still_rejects_a_mismatch():
    maps = list(fixture("FIX-M").maps.values())
    for m in maps:
        for other in maps:
            if other.dst != m.src:
                with pytest.raises(ValidationError, match="codomain/domain mismatch"):
                    PresheafMap.identity(other.dst).then(m)
            if other.src != m.dst:
                with pytest.raises(ValidationError, match="codomain/domain mismatch"):
                    m.then(PresheafMap.identity(other.src))


# -- square order ---------------------------------------------------------------


def _in_square_key_order(squares) -> bool:
    squares = list(squares)
    return squares == sorted(squares, key=lambda s: square_key(s.u, s.v))


@pytest.mark.parametrize("name", FIXTURES)
def test_sorted_squares_follow_square_key(name):
    # into each instance map, into its right factor, and the new squares of
    # its second stage
    instance = fixture(name)
    checked = 0
    for diagram in instance.generators.values():
        gen = run_soa(diagram)
        for g in instance.maps.values():
            if g.base != diagram.base:
                continue
            rec = gen.record(ArrowObject(g))
            for j in diagram.arrow_of.values():
                for target in (g, rec.right()):
                    squares = enumerate_squares(j, ArrowObject(target))
                    assert _in_square_key_order(squares)
                    checked += len(squares)
                if len(rec.stages) > 1:
                    old = [range(n) for n in rec.stages[0].sizes]
                    r_1 = ArrowObject(rec.rmaps[1])
                    assert _in_square_key_order(enumerate_new_squares(j, r_1, old))
    assert checked > 0


def test_square_hashes_are_square_key_hashes(certificates):
    checked = 0
    for argv, cert in certificates.items():
        if not argv.startswith("lift"):
            continue
        payload = cert["payload"]
        pools = _Pools(fixture(_fixture_of(argv)), payload)
        for block in payload["lifting_functions"].values():
            for fill in block["fills"]:
                u, v = pools.maps[fill["top"]], pools.maps[fill["bottom"]]
                assert fill["square_hash"] == sha256_hex(square_key(u, v))[:16]
                checked += 1
    assert checked > 0


# -- map tables, read in one pass ----------------------------------------------


def _outcome(load, *args):
    try:
        m = load(*args)
    except ValidationError as exc:
        return "ValidationError", str(exc)
    return "ok", m.src, m.dst, m.tables


def _pooled_presheaves(instance, payload) -> dict[str, Presheaf]:
    return {
        key: Presheaf.from_json(instance.bases[content.get("base", "main")], content)
        for key, content in payload["presheaves"].items()
    }


def _both(presheaves, content, where):
    src, dst = presheaves[content["src"]], presheaves[content["dst"]]
    args = (src, dst, content.get("components"), where)
    return _outcome(PresheafMap.from_json, *args), _outcome(ref_pooled_map, *args)


def test_one_pass_load_matches_the_three_calls_on_every_pooled_map(certificates):
    loaded = 0
    for argv, cert in certificates.items():
        payload = cert["payload"]
        presheaves = _pooled_presheaves(fixture(_fixture_of(argv)), payload)
        for key, content in payload["maps"].items():
            new, ref = _both(presheaves, content, f"maps.{key}")
            assert new == ref and new[0] == "ok", (argv, key)
            loaded += 1
    assert loaded > 1000


def _corrupt(rng: random.Random, content: dict, pkeys: list[str]) -> dict:
    """`content` with one seeded change: a table entry, a table's length or
    type, a component too many or too few, the components' order or type, or
    an endpoint."""
    content = copy.deepcopy(content)
    comps = content["components"]
    objects = list(comps)
    o = rng.choice(objects)
    t = comps[o]
    kind = rng.choice([
        "value", "value", "value", "bool", "float", "text", "longer", "shorter",
        "drop", "unknown", "not-a-list", "reorder", "not-an-object", "endpoint",
    ])
    if kind in ("value", "bool", "float", "text") and not t:
        kind = "longer"
    if kind == "value":
        t[rng.randrange(len(t))] = rng.randint(-1, max(t) + 2)
    elif kind == "bool":
        i = rng.randrange(len(t))
        t[i] = bool(t[i])
    elif kind == "float":
        i = rng.randrange(len(t))
        t[i] = float(t[i])
    elif kind == "text":
        t[rng.randrange(len(t))] = "0"
    elif kind == "longer":
        t.append(rng.randint(0, 2))
    elif kind == "shorter":
        if t:
            t.pop()
        else:
            del comps[o]
    elif kind == "drop":
        del comps[o]
    elif kind == "unknown":
        comps[rng.choice(["zz", o + "'"])] = list(t)
    elif kind == "not-a-list":
        comps[o] = rng.choice([{"0": 0}, 0, None, tuple(t)])
    elif kind == "reorder":
        rng.shuffle(objects)
        content["components"] = {x: comps[x] for x in objects}
        content["components"][objects[0]] = rng.choice([[-1], "x", t + [0]])
    elif kind == "not-an-object":
        content["components"] = rng.choice([[], None, 0, [t]])
    else:
        content[rng.choice(["src", "dst"])] = rng.choice(pkeys)
    return content


@pytest.mark.parametrize("argv", CERTIFIED)
def test_one_pass_load_matches_the_three_calls_on_corrupted_entries(argv, certificates):
    payload = certificates[argv]["payload"]
    presheaves = _pooled_presheaves(fixture(_fixture_of(argv)), payload)
    pkeys = sorted(presheaves)
    rng = random.Random(argv)
    entries = sorted(payload["maps"].items())
    verdicts = set()
    for key, content in rng.sample(entries, min(60, len(entries))):
        for _ in range(4):
            bad = _corrupt(rng, content, pkeys)
            new, ref = _both(presheaves, bad, f"maps.{key}")
            assert new == ref, (key, bad)
            verdicts.add(new[0])
    assert "ValidationError" in verdicts


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_one_pass_load_matches_the_three_calls_on_corrupted_instance_maps(name):
    presheaves = fixture(name).presheaves
    pkeys = sorted(presheaves)
    rng = random.Random(name)
    verdicts = set()
    for key, content in sorted(fixture_raw(name)["maps"].items()):
        new, ref = _both(presheaves, content, f"maps.{key}")
        assert new == ref and new[0] == "ok", key
        for _ in range(12):
            bad = _corrupt(rng, content, pkeys)
            new, ref = _both(presheaves, bad, f"maps.{key}")
            assert new == ref, (key, bad)
            verdicts.add(new[0])
    assert "ValidationError" in verdicts


# -- canonical JSON -------------------------------------------------------------


def test_the_reused_encoder_writes_what_a_fresh_one_writes(certificates):
    docs = [fixture_raw(name) for name in FIXTURE_NAMES]
    for cert in certificates.values():
        docs.append(cert)
        docs.extend(cert["payload"].values())
        docs.extend(cert["payload"]["presheaves"].values())
        docs.extend(cert["payload"]["maps"].values())
    docs += ["text", "ü", 3, 3.0, True, None, [], {}, {"b": [1, {"a": -0.5}]}]
    for doc in docs:
        assert canonical_dumps(doc) == _CANONICAL.encode(doc)


def test_a_failed_encode_leaves_no_circular_reference_markers():
    with pytest.raises(TypeError):
        canonical_dumps({"a": [[1, 2], object()]})
    assert _MARKERS == {}
    with pytest.raises(ValueError, match="Circular reference"):
        loop: list = []
        loop.append(loop)
        canonical_dumps(loop)
    assert _MARKERS == {}
    assert canonical_dumps({"a": [[1, 2]]}) == '{"a":[[1,2]]}'


# -- the collector -------------------------------------------------------------


def test_the_cli_freezes_the_import_heap_once_per_process(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append(1))
    monkeypatch.setattr(cli, "_heap_frozen", False)
    assert cli.main(["validate", "--fixture", "FIX-M"]) == 0
    assert cli.main(["validate", "--fixture", "FIX-G"]) == 0
    assert calls == [1]
    assert capsys.readouterr().out.count("ok ") == 2
