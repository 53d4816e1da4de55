"""The map kernel works on flat table tuples: differential tests against the
per-component `FinFunction` reference in `reference_maps.py`, and a guard
that every constructed map runs `PresheafMap.__post_init__` exactly once
(the benchmark counts maps by patching it)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awfs_forge.core import (
    FiniteCategory,
    Presheaf,
    PresheafMap,
    ValidationError,
    all_maps,
    coproduct,
    eq_witness,
    glue,
    quotient_presheaf,
    search_maps,
)
from awfs_forge.fixtures import finmap, finset, graph
from reference_maps import (
    components,
    ref_coproduct_legs,
    ref_eq_witness,
    ref_glue,
    ref_identity,
    ref_quotient_tables,
    ref_retarget,
    ref_then,
)

BASES = (FiniteCategory.graph_base(), FiniteCategory.walking_arrow())


@st.composite
def presheaves(draw, base, top=2):
    """Presheaves with at most `top` elements per object (these bases have
    no composites, so any tables act)."""
    at = {o: draw(st.integers(0, top)) for o in base.objects}
    arrows = [base.morphisms[m] for m in base.nonidentity_morphisms()]
    for a, b in arrows:
        if at[a] == 0:
            at[b] = 0
    act = {}
    for m, (a, b) in zip(base.nonidentity_morphisms(), arrows):
        act[m] = draw(st.lists(st.integers(0, max(at[a] - 1, 0)), min_size=at[b], max_size=at[b]))
    return Presheaf.from_json(base, {"at": at, "act": act})


def draw_map(data, src, dst):
    homs = all_maps(src, dst)
    return data.draw(st.sampled_from(homs)) if homs else None


def same(m: PresheafMap, comps, src: Presheaf, dst: Presheaf) -> bool:
    """`m` is the map src -> dst with the reference components `comps`."""
    return (
        m.src == src
        and m.dst == dst
        and all(comps[o].src == src.at[o] and comps[o].dst == dst.at[o] for o in comps)
        and m.tables == tuple(comps[o].table for o in src.base.objects)
    )


def check_views(m: PresheafMap) -> None:
    """The derived views agree with the tables, and equal tables make an
    equal map with an equal hash."""
    assert PresheafMap.from_tables(m.src, m.dst, m.table_json()) == m
    for i, o in enumerate(m.base.objects):
        assert m.components[o].table == m.tables[i] == m.table_at(o)
    twin = PresheafMap(m.src, m.dst, tuple(tuple(t) for t in m.tables))
    assert twin == m and hash(twin) == hash(m)
    assert components(m) == dict(m.components)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_composites_identities_and_retargets_match_the_reference(data):
    base = data.draw(st.sampled_from(BASES))
    a, b, c = (data.draw(presheaves(base)) for _ in range(3))
    f, g = draw_map(data, a, b), draw_map(data, b, c)
    ident = PresheafMap.identity(a)
    assert same(ident, ref_identity(a), a, a)
    check_views(ident)
    if f is None:
        return
    check_views(f)
    assert same(ident.then(f), ref_then(ident, f), a, b) and ident.then(f) == f
    # b is a prefix of b + d, so f retargets to it
    wider = coproduct([b, data.draw(presheaves(base))])
    moved = f.retarget(wider.apex)
    assert same(moved, ref_retarget(f, wider.apex), a, wider.apex)
    assert moved == f.then(wider.legs[0])
    if g is not None:
        fg = f.then(g)
        assert same(fg, ref_then(f, g), a, c)
        check_views(fg)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_colimit_maps_and_glue_match_the_reference(data):
    base = data.draw(st.sampled_from(BASES))
    parts = [data.draw(presheaves(base)) for _ in range(data.draw(st.integers(1, 3)))]
    rec = coproduct(parts)
    for leg, ref, p in zip(rec.legs, ref_coproduct_legs(parts), parts):
        assert same(leg, ref, p, rec.apex)
        check_views(leg)
    # glue the legs' images back: a map out of the coproduct, fixed by its legs
    dst = data.draw(presheaves(base))
    values = [draw_map(data, p, dst) for p in parts]
    if None not in values:
        pairs = list(zip(rec.legs, values))
        glued = glue(rec.apex, dst, pairs, "glue", "disagree")
        assert same(glued, ref_glue(rec.apex, dst, pairs), rec.apex, dst)
        for leg, value in pairs:
            assert leg.then(glued) == value
    # two parts along the same leg glue exactly when they agree
    other = draw_map(data, parts[0], dst)
    if other is not None:
        ident = PresheafMap.identity(parts[0])
        pairs = [(ident, values[0]), (ident, other)]
        ref = ref_glue(parts[0], dst, pairs)
        if ref is None:
            with pytest.raises(ValidationError):
                glue(parts[0], dst, pairs, "glue", "disagree")
        else:
            assert same(glue(parts[0], dst, pairs, "glue", "disagree"), ref, parts[0], dst)
    # quotient by a drawn parallel pair into the apex
    s = data.draw(presheaves(base))
    alpha, beta = draw_map(data, s, rec.apex), draw_map(data, s, rec.apex)
    if alpha is not None:
        q_presheaf, q_map = quotient_presheaf(rec.apex, [(alpha, beta)])
        expected = ref_quotient_tables(rec.apex, [(alpha, beta)])
        assert q_map.src == rec.apex and q_map.dst == q_presheaf
        assert q_map.tables == tuple(expected[o] for o in base.objects)
        assert q_presheaf.sizes == tuple(len(set(t)) for t in q_map.tables)
        q_map.check_naturality()
        check_views(q_map)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_eq_witness_matches_the_element_walk(data):
    # equal maps (the same tables rebuilt), maps that differ, and maps whose
    # endpoints differ: the table comparison must not change any witness
    base = data.draw(st.sampled_from(BASES))
    a, b, c = (data.draw(presheaves(base)) for _ in range(3))
    f, g = draw_map(data, a, b), draw_map(data, a, b)
    if f is None:
        return
    twin = PresheafMap(f.src, f.dst, tuple(tuple(t) for t in f.tables))
    others = [twin, g, draw_map(data, a, c), draw_map(data, c, b)]
    for other in (m for m in others if m is not None):
        assert eq_witness(f, other) == ref_eq_witness(f, other)
        assert eq_witness(other, f) == ref_eq_witness(other, f)
    assert eq_witness(f, twin) is None
    if g is not None and g.tables != f.tables:
        assert eq_witness(f, g)["object"] != "<type>"


def test_a_map_holds_only_its_endpoints_and_tables():
    m = finmap(2, 3, [0, 2])
    assert m.tables == ((0, 2),)
    assert not hasattr(m, "__dict__")
    with pytest.raises(TypeError):
        m.components["*"] = m.components["*"]


# -- the construction hook ---------------------------------------------------


@pytest.fixture
def built(monkeypatch):
    """Counts PresheafMap.__post_init__ calls, patched on the class as the
    benchmark's tracer patches it."""
    counter = {"n": 0}
    original = PresheafMap.__post_init__

    def counted(obj):
        counter["n"] += 1
        original(obj)

    monkeypatch.setattr(PresheafMap, "__post_init__", counted)

    def count(make):
        before = counter["n"]
        out = make()
        return out, counter["n"] - before

    return count


def test_every_constructed_map_runs_the_hook_once(built):
    e1 = graph(2, 1, [0], [1])
    e2 = graph(3, 2, [0, 1], [1, 2])
    f = PresheafMap.from_tables(e1, e2, {"V": [0, 1], "E": [0]})
    g = PresheafMap.from_tables(e2, e2, {"V": [0, 1, 2], "E": [0, 1]})
    fg, point = f.then(g), finmap(1, 2, [1])
    cases = {
        "from_tables": lambda: [PresheafMap.from_tables(e1, e2, {"V": [1, 2], "E": [1]})],
        "then": lambda: [f.then(g)],
        "identity": lambda: [PresheafMap.identity(e2)],
        "retarget": lambda: [point.retarget(finset(3))],
        "search_maps": lambda: list(search_maps(e1, e2)),
        "coproduct": lambda: list(coproduct([e1, e2, e1]).legs),
        "quotient_presheaf": lambda: [quotient_presheaf(e2, [(f, fg)])[1]],
    }
    for name, make in cases.items():
        maps, n = built(make)
        assert len(maps) >= 1 and n == len(maps), name
    rec = coproduct([e1, e1])
    glued, n = built(lambda: glue(rec.apex, e2, [(rec.legs[0], f), (rec.legs[1], f)], "g", "x"))
    assert n == 1 and glued.then(PresheafMap.identity(e2)) == glued
