import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awfs_forge.arrows import ArrowObject, Square
from awfs_forge.core import (
    FinFunction,
    FinSet,
    FiniteCategory,
    Presheaf,
    PresheafMap,
    ValidationError,
    _identity_json,
    all_maps,
    canonical_dumps,
    coequalizer,
    coproduct,
    eq_witness,
    glue,
    pushout,
    quotient_presheaf,
)
from awfs_forge.fixtures import finmap, finset, graph
from awfs_forge.lifting import enumerate_squares, oracle_lift, square_key
from brute_force import brute_force_maps

PT = FiniteCategory.point()


def test_finfunction_composition_and_validation():
    f = FinFunction(FinSet(2), FinSet(3), (0, 2))
    g = FinFunction(FinSet(3), FinSet(2), (1, 1, 0))
    assert f.then(g).table == (1, 0)
    assert g.then(f).table == (2, 2, 0)
    with pytest.raises(ValidationError):
        FinFunction(FinSet(2), FinSet(1), (0, 1))
    with pytest.raises(ValidationError):
        FinFunction(FinSet(2), FinSet(2), (0,))


def test_category_validation_catches_broken_identity_law():
    FiniteCategory.walking_arrow().validate()
    broken = FiniteCategory(
        ("x",),
        {"id_x": ("x", "x"), "e": ("x", "x")},
        {("e", "e"): "e", ("id_x", "e"): "id_x", ("e", "id_x"): "e", ("id_x", "id_x"): "id_x"},
        {"x": "id_x"},
    )
    with pytest.raises(ValidationError):
        broken.validate()


def test_presheaf_functoriality_validation():
    base = FiniteCategory.graph_base()
    g = graph(2, 1, [0], [1])
    g.validate()
    bad = Presheaf(
        base,
        {"V": FinSet(2), "E": FinSet(1)},
        {
            "s": FinFunction(FinSet(1), FinSet(2), (0,)),
            "t": FinFunction(FinSet(1), FinSet(2), (1,)),
            "id_V": FinFunction(FinSet(2), FinSet(2), (1, 0)),
        },
    )
    with pytest.raises(ValidationError):
        bad.validate()


def test_naturality_validation():
    base = FiniteCategory.graph_base()
    e1 = graph(2, 1, [0], [1])
    e2 = graph(2, 1, [1], [0])  # reversed edge
    swap = PresheafMap.from_tables(e1, e2, {"V": (0, 1), "E": (0,)})
    with pytest.raises(ValidationError):
        swap.check_naturality()


def test_empty_coproduct_is_initial():
    rec = coproduct([], PT)
    assert rec.apex.at["*"].size == 0
    assert rec.legs == ()


def test_coproduct_order_is_concatenation():
    rec = coproduct([finset(2), finset(1)])
    assert rec.apex.at["*"].size == 3
    assert rec.legs[0].components["*"].table == (0, 1)
    assert rec.legs[1].components["*"].table == (2,)


def test_graph_coproduct_matches_pointwise_union():
    e = graph(2, 1, [0], [1])
    rec = coproduct([e, e])
    assert rec.apex.at["V"].size == 4 and rec.apex.at["E"].size == 2
    # direct pointwise union oracle
    assert rec.apex.act["s"].table == (0, 2)
    assert rec.apex.act["t"].table == (1, 3)


def test_pushout_of_identities_is_canonical_relabeling():
    a = finset(3)
    ident = PresheafMap.identity(a)
    rec = pushout(ident, ident)
    assert rec.apex == a
    assert rec.legs[0] == ident and rec.legs[1] == ident


def test_pushout_over_initial_is_coproduct():
    f = finmap(0, 2, [])
    g = finmap(0, 1, [])
    rec = pushout(f, g)
    cop = coproduct([finset(2), finset(1)])
    assert rec.apex == cop.apex
    assert rec.legs[0] == cop.legs[0] and rec.legs[1] == cop.legs[1]


def test_pushout_union_find_oracle():
    # B={0,1} <- A={0} -> C={0}: both legs pick 0; classes {B0,C0}, {B1}
    f = finmap(1, 2, [0])
    g = finmap(1, 1, [0])
    rec = pushout(f, g)
    assert rec.apex.at["*"].size == 2
    assert rec.legs[0].components["*"].table == (0, 1)
    assert rec.legs[1].components["*"].table == (0,)


def test_coequalizer_of_equal_maps_is_relabeling_bijection():
    f = finmap(2, 3, [0, 2])
    rec = coequalizer(f, f)
    assert rec.apex.at["*"].size == 3
    assert rec.legs[0].is_bijective()


def test_coequalizer_no_relations():
    f = finmap(0, 2, [])
    rec = coequalizer(f, f)
    assert rec.apex == finset(2)


def test_coequalizer_collapses():
    f = finmap(1, 2, [0])
    g = finmap(1, 2, [1])
    rec = coequalizer(f, g)
    assert rec.apex.at["*"].size == 1


def test_glue_reproduces_a_cocone_factor_and_locates_its_failures():
    f = finmap(1, 2, [0])
    g = finmap(1, 1, [0])
    rec = pushout(f, g)
    u = finmap(2, 3, [1, 2])
    v = finmap(1, 3, [1])
    out = glue(rec.apex, u.dst, zip(rec.legs, [u, v]), "here", "clash")
    assert rec.legs[0].then(out) == u and rec.legs[1].then(out) == v

    def conflicting():
        yield rec.legs[0], u
        yield rec.legs[1], finmap(1, 3, [2])  # disagrees on the glued class
        raise AssertionError("parts read past the first conflict")

    with pytest.raises(ValidationError) as err:
        glue(rec.apex, u.dst, conflicting(), "here", "clash")
    assert (err.value.path, err.value.message) == ("here", "clash at *")
    with pytest.raises(ValidationError) as err:
        glue(rec.apex, u.dst, [(rec.legs[1], v)], "here", "clash")  # misses b1
    assert err.value.path == "here"


def test_quotient_smallest_representative_labeling():
    x = finset(4)
    rel = (finmap(1, 4, [3]), finmap(1, 4, [1]))
    q, qmap = quotient_presheaf(x, [rel])
    # classes: {0}, {1,3}, {2}; labels by first appearance
    assert qmap.components["*"].table == (0, 1, 2, 1)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    pairs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)),
        max_size=6,
    ),
    seed=st.randoms(),
)
def test_quotient_independent_of_relation_order(n, pairs, seed):
    pairs = [(a % n, b % n) for a, b in pairs]
    x = finset(n)

    def build(order):
        rels = [(finmap(1, n, [a]), finmap(1, n, [b])) for a, b in order]
        return quotient_presheaf(x, rels)

    q1, m1 = build(pairs)
    shuffled = list(pairs)
    seed.shuffle(shuffled)
    q2, m2 = build(shuffled)
    assert q1 == q2
    assert m1 == m2


def test_all_maps_path6_to_cycle6_is_the_six_rotations():
    n = 6
    path = graph(n, n - 1, list(range(n - 1)), list(range(1, n)))
    cycle = graph(n, n, list(range(n)), [(i + 1) % n for i in range(n)])
    rotations = [
        {"V": [(i + k) % n for i in range(n)], "E": [(i + k) % n for i in range(n - 1)]}
        for k in range(n)
    ]
    assert [m.table_json() for m in all_maps(path, cycle)] == rotations


def test_all_maps_canonical_order_and_naturality():
    maps = all_maps(finset(1), finset(2))
    assert [m.components["*"].table for m in maps] == [(0,), (1,)]
    vertex = graph(1, 0, [], [])
    edge = graph(2, 1, [0], [1])
    ms = all_maps(vertex, edge)
    assert len(ms) == 2  # vertex to source or target
    loop = graph(1, 1, [0], [0])
    ms2 = all_maps(edge, loop)
    assert len(ms2) == 1  # edge must land on the loop


# -- structural identity ---------------------------------------------------------

BASES = (FiniteCategory.point(), FiniteCategory.graph_base(), FiniteCategory.walking_arrow())


@st.composite
def presheaves(draw, base, top=2):
    """Presheaves with at most `top` elements per object; these bases have no
    composites, so any tables act."""
    at = {o: draw(st.integers(0, top)) for o in base.objects}
    arrows = [base.morphisms[m] for m in base.nonidentity_morphisms()]
    for a, b in arrows:
        if at[a] == 0:
            at[b] = 0
    act = {}
    for m, (a, b) in zip(base.nonidentity_morphisms(), arrows):
        act[m] = draw(st.lists(st.integers(0, max(at[a] - 1, 0)), min_size=at[b], max_size=at[b]))
    return Presheaf.from_json(base, {"at": at, "act": act})


def rebuilt(p):
    return Presheaf.from_json(p.base, p.to_json())


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(value=JSON)
def test_canonical_dumps_is_sorted_compact_json(value):
    # the shared encoder writes what a fresh one per call wrote
    assert canonical_dumps(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_presheaf_identity_is_its_canonical_json(data):
    p = data.draw(presheaves(data.draw(st.sampled_from(BASES))))
    q = rebuilt(p) if data.draw(st.booleans()) else data.draw(
        presheaves(data.draw(st.sampled_from(BASES)))
    )
    same_json = canonical_dumps([p.base.key, p.to_json()]) == canonical_dumps(
        [q.base.key, q.to_json()]
    )
    assert (p == q) == same_json
    if p == q:
        assert hash(p) == hash(q)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_map_identity_is_its_identity_json(data):
    def draw_map(base):
        homs = all_maps(data.draw(presheaves(base)), data.draw(presheaves(base)))
        return data.draw(st.sampled_from(homs)) if homs else None

    base = data.draw(st.sampled_from(BASES))
    m1 = draw_map(base)
    if m1 is None:
        return
    if data.draw(st.booleans()):
        m2 = PresheafMap.from_tables(rebuilt(m1.src), rebuilt(m1.dst), m1.table_json())
    else:
        m2 = draw_map(data.draw(st.sampled_from(BASES)))
        if m2 is None:
            return
    assert (m1 == m2) == (_identity_json(m1) == _identity_json(m2))
    assert (ArrowObject(m1) == ArrowObject(m2)) == (m1 == m2)
    if m1 == m2:
        assert hash(m1) == hash(m2) and hash(ArrowObject(m1)) == hash(ArrowObject(m2))


def test_type_mismatch_witness_bytes():
    """This witness can reach a law report, so its bytes are pinned."""
    w = eq_witness(finmap(1, 2, [0]), finmap(1, 3, [0]))
    src = "b0c5db454e9754856c4ecdb9f9ccd6b5b5c6cd5bf74ef71bf0d474b4b2e86e55"
    assert w == {
        "object": "<type>",
        "element": -1,
        "lhs": '{"components":{"*":[0]},"dst":"7ab60d947e1435088d8a612f31b7c6691106dd1d13836ae428168abde2417d00","src":"%s"}' % src,
        "rhs": '{"components":{"*":[0]},"dst":"6cc29754cee23ba9100280e75c7d3bdb2f5362c244baa401c376e6e43a793492","src":"%s"}' % src,
    }


# -- hom search against the brute-force reference ----------------------------

IDEMPOTENT = FiniteCategory(
    ("x",),
    {"id_x": ("x", "x"), "e": ("x", "x")},
    {("e", "e"): "e"},
    {"x": "id_x"},
)


@st.composite
def idempotents(draw, top=3):
    """A set with an idempotent endomorphism: each element goes to a fixed point."""
    n = draw(st.integers(0, top))
    fixed = [i == 0 or draw(st.booleans()) for i in range(n)]
    points = [i for i in range(n) if fixed[i]]
    table = [i if fixed[i] else draw(st.sampled_from(points)) for i in range(n)]
    return Presheaf.from_json(IDEMPOTENT, {"at": {"x": n}, "act": {"e": table}})


def small_presheaves(base):
    return idempotents() if base is IDEMPOTENT else presheaves(base, top=3)


# the opposite walking arrow lists its arrow's codomain first, so the search
# meets both orientations of a naturality constraint
SEARCH_BASES = BASES + (FiniteCategory.walking_arrow().opposite(), IDEMPOTENT)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_all_maps_equals_brute_force_in_order(data):
    base = data.draw(st.sampled_from(SEARCH_BASES))
    src, dst = data.draw(small_presheaves(base)), data.draw(small_presheaves(base))
    src.validate()
    dst.validate()
    assert all_maps(src, dst) == brute_force_maps(src, dst)


def draw_map(data, src, dst):
    homs = all_maps(src, dst)
    return data.draw(st.sampled_from(homs)) if homs else None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_squares_and_fillers_equal_filtered_homs(data):
    base = data.draw(st.sampled_from(SEARCH_BASES))
    a, b, c, d = (data.draw(small_presheaves(base)) for _ in range(4))
    jf, gf = draw_map(data, a, b), draw_map(data, c, d)
    if jf is None or gf is None:
        return
    j, g = ArrowObject(jf), ArrowObject(gf)
    squares = enumerate_squares(j, g)
    pairs = (Square(j, g, u, v) for u in all_maps(a, c) for v in all_maps(b, d))
    commuting = [sq for sq in pairs if eq_witness(sq.u.then(g.f), j.f.then(sq.v)) is None]
    assert list(squares) == sorted(commuting, key=lambda sq: square_key(sq.u, sq.v))
    if squares and data.draw(st.booleans()):
        sq = data.draw(st.sampled_from(squares))
    else:
        u, v = draw_map(data, a, c), draw_map(data, b, d)
        if u is None or v is None:
            return
        sq = Square(j, g, u, v)
    fillers = [w for w in all_maps(b, c) if j.f.then(w) == sq.u and w.then(g.f) == sq.v]
    assert oracle_lift(j, g, sq) == fillers


def test_search_is_not_bounded_by_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    path = ArrowObject(PresheafMap.identity(graph(n, n - 1, list(range(n - 1)), list(range(1, n)))))
    ident = Square(path, path, path.f, path.f)
    assert oracle_lift(path, path, ident) == [path.f]


def test_oracle_lift_on_a_non_injective_generator():
    j = g = ArrowObject(finmap(2, 1, [0, 0]))
    agreeing = Square(j, g, finmap(2, 2, [1, 1]), finmap(1, 1, [0]))
    conflicting = Square(j, g, finmap(2, 2, [0, 1]), finmap(1, 1, [0]))
    assert oracle_lift(j, g, agreeing) == [finmap(1, 2, [1])]
    assert oracle_lift(j, g, conflicting) == []


def test_oracle_lift_of_an_ill_typed_square_is_empty():
    j = g = ArrowObject(finmap(2, 1, [0, 0]))
    assert oracle_lift(j, g, Square(j, g, finmap(2, 3, [0, 0]), finmap(1, 1, [0]))) == []
