"""Differential tests: the validators that check each identity law once
(`FinFunction`'s range check, `FiniteCategory`, `Presheaf` and
`GeneratorDiagram.validate`, and `PresheafMap.check_naturality`) against the
exhaustive loops kept in `reference_validate.py`, on the bundled bases and
shapes with mutated tables, actions, identity actions and composition
entries.  The verdict and the error's (path, message) must agree, except
that `PresheafMap.from_json` rejects a map table that does not fit at the
same path under its own message; so must `instance.from_json` on mutated
fixture documents, run once with each set of validators."""

import copy
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awfs_forge.arrows import ArrowObject, Square
from awfs_forge.core import (
    FiniteCategory,
    FinFunction,
    FinSet,
    Presheaf,
    PresheafMap,
    ValidationError,
    all_maps,
)
from awfs_forge.fixtures import FIXTURE_NAMES, finmap, fixture, fixture_raw
from awfs_forge.instance import from_json
from awfs_forge.lifting import GeneratorDiagram
from reference_validate import (
    ref_category_validate,
    ref_diagram_validate,
    ref_finfunction_check,
    ref_map_validate,
    ref_presheaf_validate,
)


def _bundled_categories() -> list[FiniteCategory]:
    """Every base and generator shape of the fixtures, plus categories with
    composites: a product of two of them, and the one-object monoids with
    an idempotent and with an involution."""
    cats = []
    for name in FIXTURE_NAMES:
        inst = fixture(name)
        cats += list(inst.bases.values()) + [d.shape for d in inst.generators.values()]
    arrow = FiniteCategory.walking_arrow()
    cats.append(arrow.product(arrow.opposite()))
    for e_e in ("e", "id_x"):  # e∘e = e (idempotent) or e∘e = id (involution)
        cats.append(
            FiniteCategory(("x",), {"id_x": ("x", "x"), "e": ("x", "x")}, {("e", "e"): e_e}, {"x": "id_x"})
        )
    unique = []
    for c in cats:
        if c not in unique:
            unique.append(c)
    return unique


CATEGORIES = _bundled_categories()
WITH_ARROWS = [c for c in CATEGORIES if c.nonidentity_morphisms()]


def outcome(fn, *args):
    """("ok",), ("invalid", path, message), or the type and text of any other
    exception, which both sides must then raise alike."""
    try:
        fn(*args)
    except ValidationError as exc:
        return ("invalid", exc.path, exc.message)
    except Exception as exc:
        return (type(exc).__name__, str(exc))
    return ("ok",)


def ref_category_at(cat, path="base"):
    """The reference category laws, each failure located under `path`."""
    try:
        ref_category_validate(cat)
    except ValidationError as exc:
        raise ValidationError(path + exc.path.removeprefix("base"), exc.message) from None


def ref_shape_then_diagram(diagram, path="generators"):
    """The kernel's order: the shape's laws under `path`.shape, then the
    diagram's, each by the reference loops."""
    ref_category_at(diagram.shape, f"{path}.shape")
    ref_diagram_validate(diagram, path)


def test_the_bundled_categories_are_categories():
    assert len(CATEGORIES) >= 8
    for cat in CATEGORIES:
        ref_category_validate(cat)
        cat.validate()


# -- FinFunction ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 4), k=st.integers(0, 4), data=st.data())
def test_finfunction_range_check_matches_reference(n, k, data):
    length = data.draw(st.sampled_from([n, n, n, max(n - 1, 0), n + 1]))
    table = tuple(data.draw(st.lists(st.integers(-2, k + 1), min_size=length, max_size=length)))
    new = outcome(FinFunction, FinSet(n), FinSet(k), table)
    ref = outcome(ref_finfunction_check, FinFunction._trusted(FinSet(n), FinSet(k), table))
    assert new == ref


# -- FiniteCategory ------------------------------------------------------------


@st.composite
def categories(draw):
    """A bundled category, perhaps with new morphisms whose composites are
    drawn (typed, any name, or missing), then perhaps with an identity or a
    composition entry overwritten, or an object repeated."""
    cat = draw(st.sampled_from(CATEGORIES))
    objects = list(cat.objects)
    morphisms = dict(cat.morphisms)
    for k in range(draw(st.integers(0, 2))):
        morphisms[f"x{k}"] = (draw(st.sampled_from(objects)), draw(st.sampled_from(objects)))
    identities = dict(cat.identities)
    names = list(morphisms)
    compose = dict(cat.compose_table)
    for f in names:
        for g in names:
            if (g, f) in compose or morphisms[f][1] != morphisms[g][0]:
                continue
            if f in identities.values() or g in identities.values():
                continue  # the constructor makes identities neutral
            typed = [h for h in names if morphisms[h] == (morphisms[f][0], morphisms[g][1])]
            pick = draw(st.sampled_from(typed + typed + ["<any>", "<none>"]))
            if pick == "<any>":
                pick = draw(st.sampled_from(names))
            if pick != "<none>":
                compose[(g, f)] = pick
    kind = draw(st.sampled_from(["none", "none", "identity", "compose", "stray", "objects"]))
    if kind == "identity":
        identities[draw(st.sampled_from(objects))] = draw(st.sampled_from(names))
    elif kind == "compose":
        compose[draw(st.sampled_from(sorted(compose)))] = draw(st.sampled_from(names))
    elif kind == "stray":
        compose[(draw(st.sampled_from(names)), draw(st.sampled_from(names)))] = draw(
            st.sampled_from(names)
        )
    elif kind == "objects":
        objects.append(objects[0])
    return FiniteCategory(tuple(objects), morphisms, compose, identities)


@settings(max_examples=400, deadline=None)
@given(cat=categories())
def test_category_validate_matches_reference(cat):
    assert outcome(cat.validate) == outcome(ref_category_validate, cat)


# -- Presheaf ------------------------------------------------------------------


def _action(draw, n_src: int, n_dst: int) -> FinFunction:
    if n_dst == 0:  # no table leaves a nonempty set for the empty one: ill-typed
        n_src = 0
    table = draw(st.lists(st.integers(0, max(n_dst - 1, 0)), min_size=n_src, max_size=n_src))
    return FinFunction(FinSet(n_src), FinSet(n_dst), tuple(table))


@st.composite
def presheaves(draw, base, mutate=True, low=0):
    """Random sizes (at least `low`) and actions on `base`; with `mutate`, an
    action may be missing or ill-typed and an identity action may be any
    endomap."""
    at = {o: draw(st.integers(low, 3)) for o in base.objects}
    idset = set(base.identities.values())
    act = {}
    for m, (a, b) in base.morphisms.items():
        kind = draw(st.sampled_from(["ok"] * 5 + (["missing", "ill-typed"] if mutate else [])))
        if m in idset:
            if kind != "ok":  # any endomap where the identity acts
                act[m] = _action(draw, at[a], at[a])
        elif kind == "ok":
            act[m] = _action(draw, at[b], at[a])
        elif kind == "ill-typed":
            act[m] = _action(draw, draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    return Presheaf(base, {o: FinSet(n) for o, n in at.items()}, act)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_presheaf_validate_matches_reference(data):
    base = data.draw(st.sampled_from(CATEGORIES))
    p = data.draw(presheaves(base))
    assert outcome(p.validate, "p") == outcome(ref_presheaf_validate, p, "p")


# -- PresheafMap ---------------------------------------------------------------


def _valid_presheaf(data, base, low=0) -> Presheaf:
    """A presheaf the validators accept: a drawn one if it is valid, else
    sets of one drawn size on which every morphism acts as the identity."""
    p = data.draw(presheaves(base, mutate=False, low=low))
    if outcome(ref_presheaf_validate, p) == ("ok",):
        return p
    n = FinSet(data.draw(st.integers(low, 2)))
    ident = FinFunction.identity(n)
    return Presheaf(base, {o: n for o in base.objects}, {m: ident for m in base.morphisms})


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_map_validate_matches_reference(data):
    base = data.draw(st.sampled_from(CATEGORIES + WITH_ARROWS * 2))  # where naturality can fail
    # a nonempty target leaves room for tables in range that are not natural
    src, dst = _valid_presheaf(data, base), _valid_presheaf(data, base, low=1)
    natural = all_maps(src, dst)
    kind = data.draw(st.sampled_from(["natural", "flip", "flip", "random", "ill-typed", "bases"]))
    if natural and kind in ("natural", "flip"):
        tables = [list(t) for t in data.draw(st.sampled_from(natural)).tables]
    else:
        tables = [
            data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
            for k, n in zip(src.sizes, dst.sizes)
        ]
    movable = [i for i, t in enumerate(tables) if t and dst.sizes[i] > 1]
    if kind == "flip" and movable:  # one entry moves to another element
        i = data.draw(st.sampled_from(movable))
        x = data.draw(st.integers(0, len(tables[i]) - 1))
        n = dst.sizes[i]
        tables[i][x] = (tables[i][x] + data.draw(st.integers(1, n - 1))) % n
    elif kind == "ill-typed":  # a table one entry too long, or an entry just out of range
        i = data.draw(st.integers(0, len(tables) - 1))
        bad = data.draw(st.sampled_from(["long", "low", "high"]))
        if bad == "long" or not tables[i]:
            tables[i].append(0)
        else:
            tables[i][data.draw(st.integers(0, len(tables[i]) - 1))] = (
                -1 if bad == "low" else dst.sizes[i]
            )
    elif kind == "bases":
        dst = _valid_presheaf(data, data.draw(st.sampled_from(CATEGORIES)))
    m = PresheafMap(src, dst, tuple(tuple(t) for t in tables))
    ref = outcome(ref_map_validate, m, "m")
    if kind in ("ill-typed", "bases"):  # tables from input, read by from_json
        components = dict(zip(src.base.objects, tables))
        assert outcome(PresheafMap.from_json, src, dst, components, "m")[:2] == ref[:2]
    else:
        assert outcome(m.check_naturality, "m") == ref


# -- GeneratorDiagram ----------------------------------------------------------

ARROWS = tuple(
    ArrowObject(finmap(m, n, t))
    for m, n, t in ((2, 1, [0, 0]), (2, 2, [1, 0]), (2, 2, [0, 1]), (0, 1, []), (1, 2, [1]))
)


def _edge(data, src: Presheaf, dst: Presheaf) -> PresheafMap:
    """A map src -> dst, or now and then one between other sets."""
    if data.draw(st.integers(0, 9)) == 0:
        src, dst = data.draw(st.sampled_from([(a.dom, a.cod) for a in ARROWS]))
    homs = all_maps(src, dst)
    if not homs:
        return PresheafMap(src, dst, tuple((0,) * n for n in src.sizes))
    return data.draw(st.sampled_from(homs))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_diagram_validate_matches_reference(data):
    shape = data.draw(categories())
    arrow_of = {o: data.draw(st.sampled_from(ARROWS)) for o in shape.objects}
    idset = set(shape.identities.values())
    squares = {}
    for m, (a, b) in shape.morphisms.items():
        kind = data.draw(st.sampled_from(["square"] * 6 + ["none"]))
        if kind == "none" or (m in idset and data.draw(st.integers(0, 4))):
            continue  # a missing square, or an identity square left to the constructor
        src, dst = arrow_of[a], arrow_of[b]
        u, v = _edge(data, src.dom, dst.dom), _edge(data, src.cod, dst.cod)
        squares[m] = Square(src, dst, u, v)
    diagram = GeneratorDiagram(shape, arrow_of, squares)
    assert outcome(diagram.validate, "g") == outcome(ref_shape_then_diagram, diagram, "g")


# -- instance documents --------------------------------------------------------


def _reference_validators() -> ExitStack:
    stack = ExitStack()
    for owner, name, fn in (
        (FinFunction, "__post_init__", ref_finfunction_check),
        (Presheaf, "validate", ref_presheaf_validate),
        (GeneratorDiagram, "validate", ref_shape_then_diagram),
        (FiniteCategory, "validate", ref_category_at),
    ):
        stack.enter_context(mock.patch.object(owner, name, fn))
    return stack


def _lists(value, out):
    """Every list in the document, empty ones included."""
    if isinstance(value, list):
        out.append(value)
    for v in value.values() if isinstance(value, dict) else value:
        if isinstance(v, (dict, list)):
            _lists(v, out)
    return out


def _slots(value, out):
    """Every (container, key) that holds a string or an integer."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for k, v in items:
        if isinstance(v, (dict, list)):
            _slots(v, out)
        else:
            out.append((value, k))
    return out


def _category_docs(raw: dict) -> list[dict]:
    docs = [raw["base"], *raw.get("bases", {}).values()]
    docs += [g["shape"] for g in raw.get("generators", {}).values() if isinstance(g["shape"], dict)]
    return docs


def _mutate(data, raw: dict) -> None:
    names = sorted({v for c, k in _slots(raw, []) if isinstance(v := c[k], str)})
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["leaf", "leaf", "identity-act", "composition", "append"]))
        if kind == "leaf":
            container, key = data.draw(st.sampled_from(_slots(raw, [])))
            if isinstance(container[key], int):
                container[key] = data.draw(st.integers(-1, 4))
            else:
                container[key] = data.draw(st.sampled_from(names))
        elif kind == "identity-act":
            entry = raw["presheaves"][data.draw(st.sampled_from(sorted(raw["presheaves"])))]
            doc = raw.get("bases", {}).get(entry.get("base"), raw["base"])
            identity = data.draw(st.sampled_from(sorted(doc["identities"].values())))
            entry["act"][identity] = data.draw(st.lists(st.integers(0, 3), max_size=3))
        elif kind == "composition":
            doc = data.draw(st.sampled_from(_category_docs(raw)))
            pool = [m["name"] for m in doc["morphisms"] if isinstance(m, dict)]
            pool += sorted(doc["identities"].values())
            doc["composition"].append([data.draw(st.sampled_from(pool)) for _ in range(3)])
        else:  # a table, an object list or a morphism list grows by one entry
            data.draw(st.sampled_from(_lists(raw, []))).append(data.draw(st.integers(0, 2)))


def _compare_from_json(raw: dict) -> tuple:
    new = outcome(from_json, copy.deepcopy(raw))
    with _reference_validators():
        ref = outcome(from_json, copy.deepcopy(raw))
    assert new == ref
    return new


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_from_json_accepts_every_fixture_with_both_validators(name):
    assert _compare_from_json(fixture_raw(name)) == ("ok",)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(FIXTURE_NAMES), data=st.data())
def test_from_json_on_mutated_fixtures_matches_reference(name, data):
    raw = fixture_raw(name)
    _mutate(data, raw)
    _compare_from_json(raw)
