"""The workloads' inputs, made from the seed.

Every workload runs the same operations in every round, so each round
attempts the same number and the same share of them fails whatever the seed.
The seed changes content, never size: the order of the fixture commands, the
images of the arrows into the path graph, the labels of the random presheaf
pairs and which arrows the survey verifies.
"""

from __future__ import annotations

import itertools
import random

from checks import BASES, cycle_graph, cycle_hom_count, path_graph

FIXTURES = ("FIX-M", "FIX-G", "FIX-DIV", "FIX-PW", "FIX-PROJ")
DIV_MAX_STEPS = 10  # FIX-DIV's own max_steps option

# ---------------------------------------------------------------------------
# CLI workloads.  An op is a dict: name, argv for `python -m awfs_forge.cli`
# ("{dir}" is the round's directory), the expected exit code, the certificate
# it writes (if any) and the check to run on its output.


def _op(name, argv, rc=0, cert=None, check=None, instance=None):
    return {"name": name, "argv": argv, "rc": rc, "cert": cert, "check": check,
            "instance": instance}


def _producer(name, command, source, extra=(), rc=0, check=("cert",)):
    cert = f"{name}.json"
    return _op(name, [command, *source, *extra, "--out", f"{{dir}}/{cert}"], rc, cert,
               check, source)


def _verifiers(producers):
    """verify-cert on every certificate its command accepted (exit 0)."""
    return [
        _op(f"verify-cert:{p['name']}", ["verify-cert", *p["instance"], f"{{dir}}/{p['cert']}"],
            check=("verified",))
        for p in producers
        if p["cert"] and p["rc"] == 0
    ]


def fixture_ops(seed: int) -> list[dict]:
    """Every bundled fixture × command with a defined answer, in seeded
    order, then verify-cert on every accepted certificate."""
    ops = [_op(f"validate:{fx}", ["validate", "--fixture", fx], check=("validate", fx))
           for fx in FIXTURES]
    for fx in FIXTURES:
        src = ["--fixture", fx]
        div = fx == "FIX-DIV"
        growth = ("growth", DIV_MAX_STEPS)
        for variant in ("monic", "standard"):
            ops.append(_producer(f"soa-{variant}:{fx}", "soa", src, ["--variant", variant],
                                 rc=2 if div else 0, check=growth if div else ("cert",)))
        ops.append(_producer(f"lift:{fx}", "lift", src, rc=2 if div else 0,
                             check=growth if div else ("cert",)))
    for fx in ("FIX-M", "FIX-PROJ"):
        ops.append(_producer(f"model:{fx}", "model", ["--fixture", fx]))
    for fx, adjunction in (("FIX-M", "ident"), ("FIX-G", "ident"), ("FIX-PROJ", "ident"),
                           ("FIX-PROJ", "lan")):
        for command in ("transport", "quillen-check"):
            ops.append(_producer(f"{command}-{adjunction}:{fx}", command, ["--fixture", fx],
                                 ["--adjunction", adjunction]))
    random.Random(seed).shuffle(ops)
    return ops + _verifiers(ops)


GRAPH_PATH = 3  # vertices of the target path; soa under I grows fast with it
GRAPH_ARROWS = "f_vp,f_ep,id_p"


def graph_instance(seed: int) -> dict:
    """FIX-G's graph base and generators J, I with arrows into a path graph:
    a vertex and an edge at seeded places, and the identity on the path."""
    from awfs_forge.fixtures import fixture_raw

    rng = random.Random(seed)
    raw = fixture_raw("FIX-G")
    n = GRAPH_PATH
    path = path_graph(n)
    raw["presheaves"] = {k: raw["presheaves"][k] for k in ("empty", "vertex", "edge")}
    raw["presheaves"]["path"] = {"at": path["at"], "act": path["act"]}
    v, e = rng.randrange(n), rng.randrange(n - 1)
    raw["maps"] = {
        "jv": raw["maps"]["jv"],
        "j0": raw["maps"]["j0"],
        "f_vp": {"src": "vertex", "dst": "path", "components": {"V": [v], "E": []}},
        "f_ep": {"src": "edge", "dst": "path", "components": {"V": [e, e + 1], "E": [e]}},
        "id_p": {"src": "path", "dst": "path",
                 "components": {"V": list(range(n)), "E": list(range(n - 1))}},
    }
    return raw


def graph_ops(instance_path: str) -> list[dict]:
    src = [instance_path]
    ops = []
    for command in ("soa", "lift"):
        for gens in ("J", "I"):
            ops.append(_producer(f"{command}:{gens}", command, src,
                                 ["--generators", gens, "--arrows", GRAPH_ARROWS]))
    ops.append(_producer("model:FIX-G", "model", ["--fixture", "FIX-G"], rc=3,
                         check=("model-fix-g",)))
    return ops + _verifiers(ops)


# ---------------------------------------------------------------------------
# hom-search: (name, src, dst, expected count or None, budget in s or None).
# None as expected count means: count with checks.enumerate_homs.

HOM_BUDGET_S = 1.0
PATH_CYCLE = (2, 3, 4, 5)
CYCLE_PAIRS = ((3, 3), (4, 2), (4, 3), (4, 4), (5, 3), (6, 2), (6, 3))
# A presheaf on the point is only a set, so these pairs are fixed: n -> k
# has k^n maps.
SET_SIZES = ((6, 3), (5, 4), (4, 5), (3, 6))
# The random pairs are seeded relabelings of pairs drawn once from
# RANDOM_PAIRS_SEED.  Relabeling gives isomorphic presheaves, so every seed
# has the same hom counts and candidate tables, and each call costs about the
# same.  The median operation of a round falls among the arrow pairs, so it
# takes the same time whatever the seed.
RANDOM_PAIRS_SEED = 0
RANDOM_SHAPES = {
    "graph": ({"V": 4, "E": 3}, {"V": 3, "E": 4}),
    "arrow": ({"0": 4, "1": 4}, {"0": 3, "1": 3}),
}
RANDOM_PER_BASE = 4


def _random_presheaf(rng: random.Random, base: str, at: dict) -> dict:
    act = {m: [rng.randrange(at[a]) for _ in range(at[b])]
           for m, (a, b) in BASES[base]["morphisms"].items()}
    return {"base": base, "at": dict(at), "act": act}


def relabel(rng: random.Random, presheaf: dict) -> dict:
    """An isomorphic copy: the elements of each object permuted at random."""
    base = BASES[presheaf["base"]]
    perm = {o: rng.sample(range(n), n) for o, n in presheaf["at"].items()}
    act = {}
    for m, (a, b) in base["morphisms"].items():
        # act[m] takes an element of b to one of a.
        table = [0] * presheaf["at"][b]
        for x, y in enumerate(presheaf["act"][m]):
            table[perm[b][x]] = perm[a][y]
        act[m] = table
    return {"base": presheaf["base"], "at": dict(presheaf["at"]), "act": act}


def hom_cases(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    cases = [(f"path{n}->cycle{n}", path_graph(n), cycle_graph(n), n, None) for n in PATH_CYCLE]
    cases += [
        (f"cycle{n}->cycle{m}", cycle_graph(n), cycle_graph(m), cycle_hom_count(n, m), None)
        for n, m in CYCLE_PAIRS
    ]
    cases += [
        (f"set{n}->set{k}", {"base": "point", "at": {"*": n}, "act": {}},
         {"base": "point", "at": {"*": k}, "act": {}}, k**n, None)
        for n, k in SET_SIZES
    ]
    drawn = random.Random(RANDOM_PAIRS_SEED)
    for base, (src_at, dst_at) in RANDOM_SHAPES.items():
        for i in range(RANDOM_PER_BASE):
            src = _random_presheaf(drawn, base, src_at)
            dst = _random_presheaf(drawn, base, dst_at)
            cases.append((f"random-{base}-{i}", relabel(rng, src), relabel(rng, dst), None, None))
    # 6^6 * 6^5 candidate tables by brute force: misses its budget today.
    cases.append(("path6->cycle6", path_graph(6), cycle_graph(6), 6, HOM_BUDGET_S))
    return cases


# ---------------------------------------------------------------------------
# split-epi-survey

SURVEY_BOUND = 5
SURVEY_SAMPLE_PER_CLASS = 3


def survey_arrows(bound: int):
    """(m, n, table) for every finite-set arrow m -> n with m, n <= bound."""
    for m in range(bound + 1):
        for n in range(bound + 1):
            for table in itertools.product(range(n), repeat=m):
                yield m, n, table


def survey_sample(seed: int, bound: int) -> set[tuple]:
    """A seeded sample of the same number of arrows from each (m, n) class,
    so the law checks cost about the same for every seed."""
    rng = random.Random(seed)
    classes: dict[tuple, list] = {}
    for m, n, table in survey_arrows(bound):
        classes.setdefault((m, n), []).append((m, n, table))
    sample = set()
    for key in sorted(classes):
        members = classes[key]
        sample.update(rng.sample(members, min(SURVEY_SAMPLE_PER_CLASS, len(members))))
    return sample
