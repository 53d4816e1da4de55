"""Bundled instances used by the CLI (--fixture) and the acceptance suite.

FIX-M    finite sets with the split-epi generator {0 -> 1}, I = J
FIX-G    directed graphs: J = vertex into edge source, I adds 0 -> vertex
FIX-DIV  finite sets with the diverging generator {1 -> 2}
FIX-PW   natural transformations of finite-set arrows (diagrams over 2)
FIX-PROJ two-base instance for the Lan ⊣ restriction transport suite

Each fixture is an instance document, written out as a literal and rebuilt
on every call (callers may mutate it); `fixture` parses and validates it as
`instance.load` does a file.  Key order is part of a document: it orders maps,
generators and squares in certificates.
"""

from __future__ import annotations

from .core import FiniteCategory, FinFunction, FinSet, Presheaf, PresheafMap
from .instance import InstanceFile, from_json


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


def _fix_m_raw() -> dict:
    return {
        "base": {
            "objects": ["*"],
            "morphisms": [],
            "composition": [],
            "identities": {"*": "id_*"},
        },
        "presheaves": {
            "s0": {"at": {"*": 0}, "act": {}},
            "s1": {"at": {"*": 1}, "act": {}},
            "s2": {"at": {"*": 2}, "act": {}},
            "s3": {"at": {"*": 3}, "act": {}},
            "s4": {"at": {"*": 4}, "act": {}},
        },
        "maps": {
            "e01": {"src": "s0", "dst": "s1", "components": {"*": []}},
            "id1": {"src": "s1", "dst": "s1", "components": {"*": [0]}},
            "f21": {"src": "s2", "dst": "s1", "components": {"*": [0, 0]}},
            "f32": {"src": "s3", "dst": "s2", "components": {"*": [0, 0, 1]}},
            "g31": {"src": "s3", "dst": "s1", "components": {"*": [0, 0, 0]}},
            "m23": {"src": "s2", "dst": "s3", "components": {"*": [0, 2]}},
        },
        "generators": {
            "J": {"shape": "discrete", "arrows": {"j": "e01"}},
            "I": {"shape": "discrete", "arrows": {"i": "e01"}},
        },
        "weq": {"kind": "all"},
        "taus": {"tau": {"src": "J", "dst": "I", "objects": {"j": "i"}}},
        "adjunctions": {"ident": {"kind": "identity", "base": "main"}},
    }


def _fix_g_raw() -> dict:
    return {
        "base": {
            "objects": ["V", "E"],
            "morphisms": [
                {"name": "s", "src": "V", "dst": "E"},
                {"name": "t", "src": "V", "dst": "E"},
            ],
            "composition": [],
            "identities": {"E": "id_E", "V": "id_V"},
        },
        "presheaves": {
            "empty": {"at": {"V": 0, "E": 0}, "act": {"s": [], "t": []}},
            "vertex": {"at": {"V": 1, "E": 0}, "act": {"s": [], "t": []}},
            "edge": {"at": {"V": 2, "E": 1}, "act": {"s": [0], "t": [1]}},
            "path": {"at": {"V": 3, "E": 2}, "act": {"s": [0, 1], "t": [1, 2]}},
        },
        "maps": {
            "jv": {"src": "vertex", "dst": "edge", "components": {"V": [0], "E": []}},
            "j0": {"src": "empty", "dst": "vertex", "components": {"V": [], "E": []}},
            "f_vp": {"src": "vertex", "dst": "path", "components": {"V": [0], "E": []}},
            "f_ep": {"src": "edge", "dst": "path", "components": {"V": [0, 1], "E": [0]}},
            "id_v": {"src": "vertex", "dst": "vertex", "components": {"V": [0], "E": []}},
        },
        "generators": {
            "J": {"shape": "discrete", "arrows": {"jv": "jv"}},
            "I": {"shape": "discrete", "arrows": {"iv": "jv", "i0": "j0"}},
        },
        "weq": {"kind": "all"},
        "taus": {"tau": {"src": "J", "dst": "I", "objects": {"jv": "iv"}}},
        "adjunctions": {"ident": {"kind": "identity", "base": "main"}},
    }


def _fix_div_raw() -> dict:
    return {
        "base": {
            "objects": ["*"],
            "morphisms": [],
            "composition": [],
            "identities": {"*": "id_*"},
        },
        "presheaves": {"s1": {"at": {"*": 1}, "act": {}}, "s2": {"at": {"*": 2}, "act": {}}},
        "maps": {
            "idd": {"src": "s1", "dst": "s1", "components": {"*": [0]}},
            "jdiv": {"src": "s1", "dst": "s2", "components": {"*": [0]}},
        },
        "generators": {"J": {"shape": "discrete", "arrows": {"j": "jdiv"}}},
        "weq": {"kind": "all"},
        "options": {"max_steps": 10},
    }


def _fix_pw_raw() -> dict:
    """Diagrams over the walking arrow, with the pointwise generators of the
    split-epi awfs serialized explicitly (shape 2^op × J).  The base is the
    point times 2^op; the shape is 2^op times the discrete category on j."""
    return {
        "base": {
            "objects": ["*|0", "*|1"],
            "morphisms": [{"name": "id_*|a", "src": "*|1", "dst": "*|0"}],
            "composition": [],
            "identities": {"*|0": "id_*|id_0", "*|1": "id_*|id_1"},
        },
        "presheaves": {
            "zero": {"at": {"*|0": 0, "*|1": 0}, "act": {"id_*|a": []}},
            # gen0 is hom(0,-)·1, the constant single point; gen1 is hom(1,-)·1
            "gen0": {"at": {"*|0": 1, "*|1": 1}, "act": {"id_*|a": [0]}},
            "gen1": {"at": {"*|0": 0, "*|1": 1}, "act": {"id_*|a": []}},
            "x1": {"at": {"*|0": 2, "*|1": 1}, "act": {"id_*|a": [0, 0]}},
            "y1": {"at": {"*|0": 1, "*|1": 1}, "act": {"id_*|a": [0]}},
            "x2": {"at": {"*|0": 3, "*|1": 2}, "act": {"id_*|a": [0, 1, 0]}},
            "y2": {"at": {"*|0": 2, "*|1": 1}, "act": {"id_*|a": [0, 0]}},
        },
        "maps": {
            "ja0": {"src": "zero", "dst": "gen0", "components": {"*|0": [], "*|1": []}},
            "ja1": {"src": "zero", "dst": "gen1", "components": {"*|0": [], "*|1": []}},
            "zz": {"src": "zero", "dst": "zero", "components": {"*|0": [], "*|1": []}},
            "conn": {"src": "gen1", "dst": "gen0", "components": {"*|0": [], "*|1": [0]}},
            "alpha1": {"src": "x1", "dst": "y1", "components": {"*|0": [0, 0], "*|1": [0]}},
            "alpha2": {"src": "x2", "dst": "y2", "components": {"*|0": [1, 0, 1], "*|1": [0, 0]}},
        },
        "generators": {
            "JA": {
                "shape": {
                    "objects": ["0|j", "1|j"],
                    "morphisms": [{"name": "a|id_j", "src": "1|j", "dst": "0|j"}],
                    "composition": [],
                    "identities": {"0|j": "id_0|id_j", "1|j": "id_1|id_j"},
                },
                "arrows": {"0|j": "ja0", "1|j": "ja1"},
                "squares": {"a|id_j": {"top": "zz", "bottom": "conn"}},
            },
        },
        "weq": {"kind": "all"},
    }


def _fix_proj_raw() -> dict:
    """Two bases: discrete pair (M side) and the walking arrow (K side), with
    the inclusion functor generating Lan ⊣ restriction."""
    return {
        "base": {
            "objects": ["0", "1"],
            "morphisms": [{"name": "a", "src": "0", "dst": "1"}],
            "composition": [],
            "identities": {"0": "id_0", "1": "id_1"},
        },
        "bases": {
            "disc": {
                "objects": ["0", "1"],
                "morphisms": [],
                "composition": [],
                "identities": {"0": "id_0", "1": "id_1"},
            },
        },
        "presheaves": {
            "p00": {"at": {"0": 0, "1": 0}, "act": {}, "base": "disc"},
            "p10": {"at": {"0": 1, "1": 0}, "act": {}, "base": "disc"},
            "p01": {"at": {"0": 0, "1": 1}, "act": {}, "base": "disc"},
            "p11": {"at": {"0": 1, "1": 1}, "act": {}, "base": "disc"},
            "p21": {"at": {"0": 2, "1": 1}, "act": {}, "base": "disc"},
            "k_a": {"at": {"0": 2, "1": 1}, "act": {"a": [0]}},
            "k_b": {"at": {"0": 1, "1": 1}, "act": {"a": [0]}},
            "k_c": {"at": {"0": 2, "1": 1}, "act": {"a": [1]}},
        },
        "maps": {  # both bases have the objects "0" and "1"
            "j0": {"src": "p00", "dst": "p10", "components": {"0": [], "1": []}},
            "j1": {"src": "p00", "dst": "p01", "components": {"0": [], "1": []}},
            "m0": {"src": "p11", "dst": "p11", "components": {"0": [0], "1": [0]}},
            "m1": {"src": "p11", "dst": "p21", "components": {"0": [1], "1": [0]}},
            "m2": {"src": "p21", "dst": "p11", "components": {"0": [0, 0], "1": [0]}},
            "g1": {"src": "k_a", "dst": "k_b", "components": {"0": [0, 0], "1": [0]}},
            "g2": {"src": "k_b", "dst": "k_b", "components": {"0": [0], "1": [0]}},
            "g3": {"src": "k_c", "dst": "k_b", "components": {"0": [0, 0], "1": [0]}},
        },
        "generators": {
            "J": {"shape": "discrete", "arrows": {"j0": "j0", "j1": "j1"}},
            "I": {"shape": "discrete", "arrows": {"j0": "j0", "j1": "j1"}},
        },
        "weq": {"kind": "all"},
        "taus": {"tau": {"src": "J", "dst": "I", "objects": {"j0": "j0", "j1": "j1"}}},
        "adjunctions": {
            "lan": {
                "kind": "lan_res",
                "from_base": "disc",
                "to_base": "main",
                "functor": {"objects": {"0": "0", "1": "1"}, "morphisms": {}},
            },
            "ident": {"kind": "identity", "base": "disc"},
        },
    }


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
