"""Lan ⊣ restriction read straight off its coend agrees with the copower,
coproduct and quotient route in `reference_lan.py`: the same Lan tables,
maps, units and counits, on FIX-PROJ and on drawn presheaves over functors
whose source has non-identity morphisms, so that triples merge."""

from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awfs_forge.core import FiniteCategory, Presheaf, PresheafMap, ValidationError, all_maps
from awfs_forge.fixtures import fixture
from awfs_forge.transport import FunctorData, restriction_adjunction
from reference_lan import reference_restriction_adjunction

ARROW = FiniteCategory.walking_arrow()
POINT = FiniteCategory.point()
GRAPH = FiniteCategory.graph_base()
PAIR = FiniteCategory(
    ("0", "1"),
    {"id_0": ("0", "0"), "id_1": ("1", "1"), "s": ("0", "1"), "t": ("0", "1")},
    {},
    {"0": "id_0", "1": "id_1"},
)
PATH = FiniteCategory(  # 0 -f-> 1 -g-> 2 with its composite h
    ("0", "1", "2"),
    {
        "id_0": ("0", "0"), "id_1": ("1", "1"), "id_2": ("2", "2"),
        "f": ("0", "1"), "g": ("1", "2"), "h": ("0", "2"),
    },
    {("g", "f"): "h"},
    {"0": "id_0", "1": "id_1", "2": "id_2"},
)
IDEM = FiniteCategory(
    ("x",), {"id_x": ("x", "x"), "e": ("x", "x")}, {("e", "e"): "e"}, {"x": "id_x"}
)

# name -> (source, target, objects, morphisms); identities go to identities
FUNCTORS = {
    "identity-on-arrow": (ARROW, ARROW, {"0": "0", "1": "1"}, {"a": "a"}),
    "arrow-to-point": (ARROW, POINT, {"0": "*", "1": "*"}, {"a": "id_*"}),
    "graph-to-arrow": (GRAPH, ARROW, {"V": "0", "E": "1"}, {"s": "a", "t": "a"}),
    "pair-to-arrow": (PAIR, ARROW, {"0": "0", "1": "1"}, {"s": "a", "t": "a"}),
    "path-to-arrow-late": (
        PATH, ARROW, {"0": "0", "1": "1", "2": "1"}, {"f": "a", "g": "id_1", "h": "a"}
    ),
    "path-to-arrow-early": (
        PATH, ARROW, {"0": "0", "1": "0", "2": "1"}, {"f": "id_0", "g": "a", "h": "a"}
    ),
    "idempotent-to-point": (IDEM, POINT, {"x": "*"}, {"e": "id_*"}),
    "identity-on-path": (PATH, PATH, {o: o for o in PATH.objects}, {"f": "f", "g": "g", "h": "h"}),
    "identity-on-idempotent": (IDEM, IDEM, {"x": "x"}, {"e": "e"}),
}


def functor(name: str) -> FunctorData:
    src, dst, objects, morphisms = FUNCTORS[name]
    return FunctorData(src, dst, dict(objects), dict(morphisms))


def functorial(p: Presheaf) -> bool:
    try:
        p.validate()
    except ValidationError:
        return False
    return True


@cache
def all_presheaves(base: FiniteCategory, lawful: bool = True) -> tuple[Presheaf, ...]:
    """Every presheaf over `base` with at most two elements per object; with
    `lawful` false, every such set of tables that breaks the functor laws."""
    arrows = base.nonidentity_morphisms()
    out = []
    for sizes in product(range(3), repeat=len(base.objects)):
        at = dict(zip(base.objects, sizes))
        choices = [product(range(at[base.src(m)]), repeat=at[base.dst(m)]) for m in arrows]
        for tables in product(*choices):
            act = {m: list(t) for m, t in zip(arrows, tables)}
            p = Presheaf.from_json(base, {"at": at, "act": act})
            if functorial(p) == lawful:
                out.append(p)
    return tuple(out)


def all_tables(p1: Presheaf, p2: Presheaf) -> list[PresheafMap]:
    """Every family of component tables p1 -> p2, natural or not."""
    per_object = [product(range(n2), repeat=n1) for n1, n2 in zip(p1.sizes, p2.sizes)]
    return [PresheafMap(p1, p2, tables) for tables in product(*per_object)]


def outcome(fn, x):
    """fn(x), or the message of the ValidationError it raises."""
    try:
        return fn(x)
    except ValidationError as exc:
        return str(exc)


def assert_same(u: FunctorData, m_presheaves, m_maps, k_presheaves) -> None:
    """Lan, its action on maps, the unit and the counit give what the
    reference gives, or refuse with its message, on the given presheaves over
    u.src and u.dst and maps over u.src."""
    adj, ref = restriction_adjunction(u), reference_restriction_adjunction(u)
    calls = [(name, p) for p in m_presheaves for name in ("t_obj", "unit")]
    calls += [("t_map", phi) for phi in m_maps]
    calls += [("counit", q) for q in [*k_presheaves, *map(adj.t_obj, m_presheaves)]]
    for name, x in calls:
        assert outcome(getattr(adj, name), x) == outcome(getattr(ref, name), x), name


def test_lan_matches_the_reference_on_fix_proj():
    proj = fixture("FIX-PROJ")
    desc = proj.adjunctions["lan"]
    u = FunctorData(
        proj.bases[desc["from_base"]], proj.bases[desc["to_base"]],
        dict(desc["functor"]["objects"]), dict(desc["functor"]["morphisms"]),
    )
    adj = restriction_adjunction(u)
    m_presheaves = [p for p in proj.presheaves.values() if p.base == u.src]
    k_presheaves = [p for p in proj.presheaves.values() if p.base == u.dst]
    m_maps = [m for m in proj.maps.values() if m.base == u.src]
    k_maps = [m for m in proj.maps.values() if m.base == u.dst]
    assert m_presheaves and k_presheaves and m_maps and k_maps
    assert_same(
        u,
        m_presheaves + [adj.s_obj(q) for q in k_presheaves],
        m_maps + [adj.s_map(g) for g in k_maps],
        k_presheaves,
    )


@pytest.mark.parametrize("name", FUNCTORS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lan_matches_the_reference_where_triples_merge(name, data):
    u = functor(name)
    p1, p2 = (data.draw(st.sampled_from(all_presheaves(u.src))) for _ in range(2))
    maps = all_maps(p1, p2)[:8] + all_maps(p2, p1)[:8]
    unnatural = [phi for phi in all_tables(p1, p2) if phi not in all_maps(p1, p2)]
    if unnatural:
        maps += (data.draw(st.sampled_from(unnatural)),)
    # a q that breaks the functor laws has a counit that is not constant on classes
    q = data.draw(st.sampled_from(all_presheaves(u.dst) + all_presheaves(u.dst, False)))
    assert_same(u, [p1, p2], maps, [q])
