"""Output checks made apart from awfs-forge.

Nothing here imports the package: every check recomputes its answer from
plain tables with this module's own composition, enumeration and hashing.
Each check returns a list of problems; an empty list means the output is
right.

Presheaves are plain dicts ``{"base": name, "at": {obj: size}, "act": {m:
table}}``.  ``act[m]`` for ``m: a -> b`` maps the value at ``b`` to the value
at ``a`` (contravariant), as in awfs-forge instance files.  A map between
presheaves is ``{obj: table}``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re

# The base categories the hom-search workload draws from, with the object
# order that fixes lexicographic table order.
BASES = {
    "point": {"objects": ["*"], "morphisms": {}},
    "graph": {"objects": ["V", "E"], "morphisms": {"s": ("V", "E"), "t": ("V", "E")}},
    "arrow": {"objects": ["0", "1"], "morphisms": {"a": ("0", "1")}},
}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Hom sets


def is_natural(src: dict, dst: dict, tables: dict) -> bool:
    base = BASES[src["base"]]
    for o in base["objects"]:
        table = tables.get(o)
        if table is None or len(table) != src["at"][o]:
            return False
        if any(not 0 <= v < dst["at"][o] for v in table):
            return False
    for m, (a, b) in base["morphisms"].items():
        sa, da = src["act"][m], dst["act"][m]
        ta, tb = tables[a], tables[b]
        if any(ta[sa[x]] != da[tb[x]] for x in range(src["at"][b])):
            return False
    return True


def enumerate_homs(src: dict, dst: dict) -> list[dict]:
    """Every natural map src -> dst by brute force, in lexicographic order."""
    objs = BASES[src["base"]]["objects"]
    choices = [
        itertools.product(range(dst["at"][o]), repeat=src["at"][o]) for o in objs
    ]
    out = []
    for combo in itertools.product(*choices):
        tables = {o: list(t) for o, t in zip(objs, combo)}
        if is_natural(src, dst, tables):
            out.append(tables)
    return out


def check_homs(src: dict, dst: dict, found: list[dict], expected: int) -> list[str]:
    """found must be `expected` distinct natural maps in strictly increasing
    lexicographic table order."""
    problems = []
    if len(found) != expected:
        problems.append(f"{len(found)} maps, expected {expected}")
    objs = BASES[src["base"]]["objects"]
    previous = None
    for i, tables in enumerate(found):
        if not is_natural(src, dst, tables):
            problems.append(f"map {i} is not natural")
        key = tuple(tuple(tables.get(o, ())) for o in objs)
        if previous is not None and key <= previous:
            problems.append(f"map {i} repeats or breaks lexicographic order")
        previous = key
    return problems


def path_graph(n: int) -> dict:
    """n vertices 0 -> 1 -> ... -> n-1."""
    return {
        "base": "graph",
        "at": {"V": n, "E": n - 1},
        "act": {"s": list(range(n - 1)), "t": list(range(1, n))},
    }


def cycle_graph(n: int) -> dict:
    """Directed cycle on n vertices."""
    return {
        "base": "graph",
        "at": {"V": n, "E": n},
        "act": {"s": list(range(n)), "t": [(i + 1) % n for i in range(n)]},
    }


def cycle_hom_count(n: int, m: int) -> int:
    """Directed cycle_n -> cycle_m: a map winds around, so it exists iff m | n,
    and then the image of vertex 0 fixes it."""
    return m if n % m == 0 else 0


# ---------------------------------------------------------------------------
# Split-epi survey


def survey_size(bound: int) -> int:
    """Number of finite-set arrows m -> n with m, n <= bound."""
    return sum(n**m for m in range(bound + 1) for n in range(bound + 1))


def check_split_epi(
    f: list[int], n: int, mid: int, left: list[int], right: list[int], stages: int
) -> list[str]:
    """The split-epi awfs factors f: m -> n through dom f ⊔ cod f, with the
    first-m inclusion on the left, in at most 2 stages."""
    m = len(f)
    problems = []
    if mid != m + n:
        problems.append(f"middle object has {mid} points, expected {m + n}")
    if left != list(range(m)):
        problems.append("left factor is not the first-m inclusion")
    if len(right) != mid or any(not 0 <= v < n for v in right):
        problems.append("right factor is not a function into cod f")
    elif [right[x] for x in left] != list(f):
        problems.append("R∘L != f")
    if stages > 2:
        problems.append(f"{stages} stages, expected at most 2")
    return problems


# ---------------------------------------------------------------------------
# Certificates


def _compose(first: dict, second: dict) -> dict:
    """Tables of `first` then `second`."""
    return {o: [second[o][x] for x in table] for o, table in first.items()}


def pool_key_problems(payload: dict) -> list[str]:
    problems = []
    for prefix, pool in (("p", "presheaves"), ("m", "maps")):
        for key, content in payload.get(pool, {}).items():
            if prefix + sha256_hex(canonical(content))[:16] != key:
                problems.append(f"{pool}.{key}: content hash mismatch")
    presheaves = payload.get("presheaves", {})
    for key, content in payload.get("maps", {}).items():
        if content["src"] not in presheaves or content["dst"] not in presheaves:
            problems.append(f"maps.{key}: dangling endpoint")
    return problems


def _triangles(maps: dict, gens: dict, fills: list, right: str, where: str) -> list[str]:
    problems = []
    for i, fill in enumerate(fills):
        j, w = maps[gens[fill["j"]]], maps[fill["fill"]]
        if _compose(j["components"], w["components"]) != maps[fill["top"]]["components"]:
            problems.append(f"{where}.fills[{i}]: j;w != top")
        if _compose(w["components"], maps[right]["components"]) != maps[fill["bottom"]]["components"]:
            problems.append(f"{where}.fills[{i}]: w;R != bottom")
    return problems


def _arrow_entry_problems(maps: dict, gens: dict, fkey: str, entry: dict, where: str) -> list[str]:
    problems = []
    f, left, right = maps[entry["f"]], maps[entry["left"]], maps[entry["right"]]
    if entry["f"] != fkey:
        problems.append(f"{where}: entry filed under another arrow")
    if not (left["src"] == f["src"] and right["dst"] == f["dst"]
            and left["dst"] == entry["mid"] == right["src"]):
        problems.append(f"{where}: factors do not connect dom f, Ef and cod f")
    elif _compose(left["components"], right["components"]) != f["components"]:
        problems.append(f"{where}: R∘L != f")
    problems += _triangles(maps, gens, entry.get("fills", []), entry["right"], where)
    return problems


def failed_laws(cert: dict) -> list[tuple[str, str]]:
    return [
        (e["law"], e["probe"])
        for e in cert["payload"].get("law_report", [])
        if e["status"] != "pass"
    ]


def check_certificate(cert: dict, laws_pass: bool = True) -> list[str]:
    """Pool keys, R∘L = f for every factored arrow, the fill triangles of every
    lifting-function entry, and (if `laws_pass`) an all-pass law report."""
    try:
        payload = cert["payload"]
        problems = pool_key_problems(payload)
        maps = payload.get("maps", {})
        for block, gen_block in (
            ("arrows", "generators"),
            ("arrows_j", "generators_j"),
            ("arrows_i", "generators_i"),
        ):
            gens = payload.get(gen_block, {}).get("objects", {})
            for fkey, entry in payload.get(block, {}).items():
                problems += _arrow_entry_problems(maps, gens, fkey, entry, f"{block}.{fkey}")
        gens = payload.get("generators", {}).get("objects", {})
        for name, lf in payload.get("lifting_functions", {}).items():
            problems += _triangles(
                maps, gens, lf["fills"], lf["right_factor"], f"lifting_functions.{name}"
            )
        if laws_pass and failed_laws(cert):
            problems.append(f"law failures {failed_laws(cert)}")
        return problems
    except (KeyError, TypeError, IndexError) as exc:
        return [f"malformed certificate: {exc!r}"]


def check_input_hash(stdout: str, raw: dict) -> list[str]:
    """`validate` prints the sha256 of the instance's canonical JSON."""
    want = f"ok {sha256_hex(canonical(raw))}"
    return [] if stdout.strip() == want else [f"validate printed {stdout.strip()!r}"]


def check_growth_trace(stderr: str, max_steps: int) -> list[str]:
    """The diverging generator {1 -> 2} adds one point per stage, so the trace
    of a 1-point arrow after max_steps stages is 1, 2, ..., max_steps + 1."""
    found = re.search(r"non-convergence: trace \[([0-9, ]*)\]", stderr)
    if not found:
        return ["no growth trace on stderr"]
    trace = [int(v) for v in found.group(1).split(",") if v.strip()]
    want = list(range(1, max_steps + 2))
    return [] if trace == want else [f"growth trace {trace}, expected {want}"]


def check_single_law_failure(cert: dict, named: list[str], law: str, arrow: str) -> list[str]:
    """The only failing law entry is `law` on the named arrow `arrow`, whose
    probe label is its position among the instance's named arrows."""
    want = [(law, f"arrow[{named.index(arrow)}]")]
    got = failed_laws(cert)
    return [] if got == want else [f"law failures {got}, expected {want}"]
