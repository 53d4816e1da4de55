"""Bundled instances used by the CLI (--fixture) and the acceptance suite.

FIX-M    finite sets with the split-epi generator {0 -> 1}, I = J
FIX-G    directed graphs: J = vertex into edge source, I adds 0 -> vertex
FIX-DIV  finite sets with the diverging generator {1 -> 2}
FIX-PW   natural transformations of finite-set arrows (diagrams over 2)
FIX-PROJ two-base instance for the Lan ⊣ restriction transport suite
"""

from __future__ import annotations

from .core import FiniteCategory, FinFunction, FinSet, Presheaf, PresheafMap
from .instance import InstanceFile, build_raw, from_json


def finset(n: int) -> Presheaf:
    return Presheaf(FiniteCategory.point(), {"*": FinSet(n)}, {})


def finmap(m: int, n: int, table) -> PresheafMap:
    return PresheafMap.from_tables(finset(m), finset(n), {"*": table})


def graph(nv: int, ne: int, src, tgt) -> Presheaf:
    base = FiniteCategory.graph_base()
    return Presheaf(
        base,
        {"V": FinSet(nv), "E": FinSet(ne)},
        {
            "s": FinFunction(FinSet(ne), FinSet(nv), tuple(src)),
            "t": FinFunction(FinSet(ne), FinSet(nv), tuple(tgt)),
        },
    )


def graph_map(src: Presheaf, dst: Presheaf, vtab, etab) -> PresheafMap:
    return PresheafMap.from_tables(src, dst, {"V": vtab, "E": etab})


def _fix_m_raw() -> dict:
    pt = FiniteCategory.point()
    sets = {f"s{n}": ("main", finset(n)) for n in range(5)}
    maps = {
        "e01": ("s0", "s1", finmap(0, 1, [])),
        "id1": ("s1", "s1", finmap(1, 1, [0])),
        "f21": ("s2", "s1", finmap(2, 1, [0, 0])),
        "f32": ("s3", "s2", finmap(3, 2, [0, 0, 1])),
        "g31": ("s3", "s1", finmap(3, 1, [0, 0, 0])),
        "m23": ("s2", "s3", finmap(2, 3, [0, 2])),
    }
    return build_raw(
        {"main": pt},
        sets,
        maps,
        generators={
            "J": {"shape": "discrete", "arrows": {"j": "e01"}},
            "I": {"shape": "discrete", "arrows": {"i": "e01"}},
        },
        weq={"kind": "all"},
        taus={"tau": {"src": "J", "dst": "I", "objects": {"j": "i"}}},
        adjunctions={"ident": {"kind": "identity", "base": "main"}},
    )


def _fix_g_raw() -> dict:
    base = FiniteCategory.graph_base()
    vertex = graph(1, 0, [], [])
    empty = graph(0, 0, [], [])
    edge = graph(2, 1, [0], [1])
    path = graph(3, 2, [0, 1], [1, 2])
    presheaves = {
        "empty": ("main", empty),
        "vertex": ("main", vertex),
        "edge": ("main", edge),
        "path": ("main", path),
    }
    maps = {
        "jv": ("vertex", "edge", graph_map(vertex, edge, [0], [])),
        "j0": ("empty", "vertex", graph_map(empty, vertex, [], [])),
        "f_vp": ("vertex", "path", graph_map(vertex, path, [0], [])),
        "f_ep": ("edge", "path", graph_map(edge, path, [0, 1], [0])),
        "id_v": ("vertex", "vertex", graph_map(vertex, vertex, [0], [])),
    }
    return build_raw(
        {"main": base},
        presheaves,
        maps,
        generators={
            "J": {"shape": "discrete", "arrows": {"jv": "jv"}},
            "I": {"shape": "discrete", "arrows": {"iv": "jv", "i0": "j0"}},
        },
        weq={"kind": "all"},
        taus={"tau": {"src": "J", "dst": "I", "objects": {"jv": "iv"}}},
        adjunctions={"ident": {"kind": "identity", "base": "main"}},
    )


def _fix_div_raw() -> dict:
    pt = FiniteCategory.point()
    sets = {f"s{n}": ("main", finset(n)) for n in (1, 2)}
    maps = {
        "idd": ("s1", "s1", finmap(1, 1, [0])),
        "jdiv": ("s1", "s2", finmap(1, 2, [0])),
    }
    return build_raw(
        {"main": pt},
        sets,
        maps,
        generators={"J": {"shape": "discrete", "arrows": {"j": "jdiv"}}},
        weq={"kind": "all"},
        options={"max_steps": 10},
    )


def _fix_pw_raw() -> dict:
    """Diagrams over the walking arrow, with the pointwise generators of the
    split-epi awfs serialized explicitly (shape 2^op × J)."""
    pt = FiniteCategory.point()
    arrow_cat = FiniteCategory.walking_arrow()
    prod = pt.product(arrow_cat.opposite())
    mor = next(m for m in prod.nonidentity_morphisms())

    def diag(n0: int, n1: int, act) -> Presheaf:
        return Presheaf(
            prod,
            {"*|0": FinSet(n0), "*|1": FinSet(n1)},
            {mor: FinFunction(FinSet(n0), FinSet(n1), tuple(act))},
        )

    def diag_map(src, dst, t0, t1) -> PresheafMap:
        return PresheafMap.from_tables(src, dst, {"*|0": t0, "*|1": t1})

    zero = diag(0, 0, [])
    gen0 = diag(1, 1, [0])  # hom(0,-)·1: constant single point
    gen1 = diag(0, 1, [])  # hom(1,-)·1
    x1 = diag(2, 1, [0, 0])
    y1 = diag(1, 1, [0])
    x2 = diag(3, 2, [0, 1, 0])
    y2 = diag(2, 1, [0, 0])
    presheaves = {
        "zero": ("main", zero),
        "gen0": ("main", gen0),
        "gen1": ("main", gen1),
        "x1": ("main", x1),
        "y1": ("main", y1),
        "x2": ("main", x2),
        "y2": ("main", y2),
    }
    maps = {
        "ja0": ("zero", "gen0", diag_map(zero, gen0, [], [])),
        "ja1": ("zero", "gen1", diag_map(zero, gen1, [], [])),
        "zz": ("zero", "zero", diag_map(zero, zero, [], [])),
        "conn": ("gen1", "gen0", diag_map(gen1, gen0, [], [0])),
        "alpha1": ("x1", "y1", diag_map(x1, y1, [0, 0], [0])),
        "alpha2": ("x2", "y2", diag_map(x2, y2, [1, 0, 1], [0, 0])),
    }
    shape = arrow_cat.opposite().product(FiniteCategory.discrete(("j",)))
    conn_mor = next(m for m in shape.nonidentity_morphisms())
    return build_raw(
        {"main": prod},
        presheaves,
        maps,
        generators={
            "JA": {
                "shape": shape.to_json(),
                "arrows": {"0|j": "ja0", "1|j": "ja1"},
                "squares": {conn_mor: {"top": "zz", "bottom": "conn"}},
            }
        },
        weq={"kind": "all"},
    )


def _fix_proj_raw() -> dict:
    """Two bases: discrete pair (M side) and the walking arrow (K side), with
    the inclusion functor generating Lan ⊣ restriction."""
    disc = FiniteCategory.discrete(("0", "1"))
    arrow_cat = FiniteCategory.walking_arrow()

    def pair(n0, n1) -> Presheaf:
        return Presheaf(disc, {"0": FinSet(n0), "1": FinSet(n1)}, {})

    def map01(src, dst, t0, t1) -> PresheafMap:
        # both bases have the objects "0" and "1"
        return PresheafMap.from_tables(src, dst, {"0": t0, "1": t1})

    def arr(n0, n1, act) -> Presheaf:
        return Presheaf(
            arrow_cat,
            {"0": FinSet(n0), "1": FinSet(n1)},
            {"a": FinFunction(FinSet(n1), FinSet(n0), tuple(act))},
        )

    p00 = pair(0, 0)
    p10 = pair(1, 0)
    p01 = pair(0, 1)
    p11 = pair(1, 1)
    p21 = pair(2, 1)
    k_a = arr(2, 1, [0])
    k_b = arr(1, 1, [0])
    k_c = arr(2, 1, [1])
    presheaves = {
        "p00": ("disc", p00),
        "p10": ("disc", p10),
        "p01": ("disc", p01),
        "p11": ("disc", p11),
        "p21": ("disc", p21),
        "k_a": ("main", k_a),
        "k_b": ("main", k_b),
        "k_c": ("main", k_c),
    }
    maps = {
        "j0": ("p00", "p10", map01(p00, p10, [], [])),
        "j1": ("p00", "p01", map01(p00, p01, [], [])),
        "m0": ("p11", "p11", map01(p11, p11, [0], [0])),
        "m1": ("p11", "p21", map01(p11, p21, [1], [0])),
        "m2": ("p21", "p11", map01(p21, p11, [0, 0], [0])),
        "g1": ("k_a", "k_b", map01(k_a, k_b, [0, 0], [0])),
        "g2": ("k_b", "k_b", map01(k_b, k_b, [0], [0])),
        "g3": ("k_c", "k_b", map01(k_c, k_b, [0, 0], [0])),
    }
    return build_raw(
        {"main": arrow_cat, "disc": disc},
        presheaves,
        maps,
        generators={
            "J": {"shape": "discrete", "arrows": {"j0": "j0", "j1": "j1"}},
            "I": {"shape": "discrete", "arrows": {"j0": "j0", "j1": "j1"}},
        },
        weq={"kind": "all"},
        taus={"tau": {"src": "J", "dst": "I", "objects": {"j0": "j0", "j1": "j1"}}},
        adjunctions={
            "lan": {
                "kind": "lan_res",
                "from_base": "disc",
                "to_base": "main",
                "functor": {"objects": {"0": "0", "1": "1"}, "morphisms": {}},
            },
            "ident": {"kind": "identity", "base": "disc"},
        },
    )


_BUILDERS = {
    "FIX-M": _fix_m_raw,
    "FIX-G": _fix_g_raw,
    "FIX-DIV": _fix_div_raw,
    "FIX-PW": _fix_pw_raw,
    "FIX-PROJ": _fix_proj_raw,
}

FIXTURE_NAMES = tuple(_BUILDERS)


def fixture_raw(name: str) -> dict:
    if name not in _BUILDERS:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    return _BUILDERS[name]()


def fixture(name: str) -> InstanceFile:
    return from_json(fixture_raw(name))
