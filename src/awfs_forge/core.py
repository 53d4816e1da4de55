"""Exact kernel: finite sets, finite categories, finite-set-valued presheaves,
and pointwise finite colimits with deterministic quotient labeling.

Everything here is immutable after construction and every operation is a pure
function.  Presheaves and maps compare and hash by their tables (a tuple
built once per value, its hash cached); canonical JSON and sha256 appear only
at the certificate boundary, where content is written or checked.  A map is
its tuple of per-object tables and nothing else.  Tables from input are
range-checked once, where they are parsed (`PresheafMap.from_json`,
`Presheaf.from_json`); the kernel's own results (composites, identities,
colimits, glued maps, factorizations, searched maps) are built directly from
tables, without that check.
"""

from __future__ import annotations

import hashlib
import json
from functools import cached_property, lru_cache
from itertools import product
from types import MappingProxyType


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# `_CANONICAL.encode` builds a C encoder per call; this one is built once, with
# the same settings.  A failed call can leave its circular-reference markers
# behind, so they are cleared after one.
_MARKERS: dict = {}
_ENCODE = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    _MARKERS, _CANONICAL.default, json.encoder.encode_basestring_ascii, None,
    _CANONICAL.key_separator, _CANONICAL.item_separator, _CANONICAL.sort_keys,
    _CANONICAL.skipkeys, _CANONICAL.allow_nan,
)


def canonical_dumps(obj) -> str:
    """Bit-exact canonical JSON: sorted keys, no whitespace."""
    if _ENCODE is None or isinstance(obj, str):
        return _CANONICAL.encode(obj)
    try:
        return "".join(_ENCODE(obj, 0))
    except BaseException:
        _MARKERS.clear()
        raise


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pool_key(prefix: str, content) -> str:
    """A certificate pool's key for a table's JSON `content`, an object or its
    canonical JSON text: `prefix` ("p" for a presheaf, "m" for a map), then
    the first 16 hex digits of the sha256 of that text."""
    return prefix + sha256_hex(content if type(content) is str else canonical_dumps(content))[:16]


class ValidationError(Exception):
    """A structural law failed, with a location path for diagnostics."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def expect_object(value, path: str) -> dict:
    """`value` if it is a JSON object, else a ValidationError at `path`."""
    if not isinstance(value, dict):
        raise ValidationError(path, "must be a JSON object")
    return value


def expect_table(value, path: str) -> tuple[int, ...]:
    """`value` as a table if it is a JSON list of integers (booleans are not
    integers here), else a ValidationError at `path`."""
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise ValidationError(path, "must be a JSON list of integers")
    return tuple(value)


class FinSet:
    """The set {0, ..., size-1}."""

    __slots__ = ("size",)

    def __init__(self, size: int):
        self.size = size
        self.__post_init__()

    def __post_init__(self):
        if self.size < 0:
            raise ValidationError("FinSet.size", "must be nonnegative")

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is FinSet and self.size == other.size)

    def __hash__(self) -> int:
        return hash((self.size,))


class FinFunction:
    """Total function between FinSets, stored as a lookup table."""

    __slots__ = ("src", "dst", "table")

    def __init__(self, src: FinSet, dst: FinSet, table: tuple[int, ...]):
        self.src = src
        self.dst = dst
        self.table = table
        self.__post_init__()

    def __post_init__(self):
        table, n = self.table, self.dst.size
        if len(table) != self.src.size:
            raise ValidationError("FinFunction.table", "length must equal src.size")
        if table and (min(table) < 0 or max(table) >= n):
            i, v = next((i, v) for i, v in enumerate(table) if not 0 <= v < n)
            raise ValidationError("FinFunction.table", f"entry {i} -> {v} out of range")

    def __eq__(self, other) -> bool:
        return self is other or (
            type(other) is FinFunction
            and self.table == other.table
            and self.src == other.src
            and self.dst == other.dst
        )

    def __hash__(self) -> int:
        return hash((self.src, self.dst, self.table))

    @classmethod
    def _trusted(cls, src: FinSet, dst: FinSet, table: tuple[int, ...]) -> "FinFunction":
        """A kernel result whose table is known to fit src and dst: built
        without the check that input tables go through."""
        fn = object.__new__(cls)
        fn.src = src
        fn.dst = dst
        fn.table = table
        return fn

    def __call__(self, x: int) -> int:
        return self.table[x]

    def then(self, other: "FinFunction") -> "FinFunction":
        """Diagrammatic composite: self followed by other."""
        if self.dst != other.src:
            raise ValidationError("FinFunction.then", "codomain/domain mismatch")
        t = other.table
        return FinFunction._trusted(self.src, other.dst, tuple([t[v] for v in self.table]))

    @staticmethod
    def identity(s: FinSet) -> "FinFunction":
        return FinFunction._trusted(s, s, tuple(range(s.size)))

    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def is_bijective(self) -> bool:
        return self.src.size == self.dst.size and self.is_injective()

    def inverse(self) -> "FinFunction":
        if not self.is_bijective():
            raise ValidationError("FinFunction.inverse", "not a bijection")
        inv = [0] * self.dst.size
        for i, v in enumerate(self.table):
            inv[v] = i
        return FinFunction(self.dst, self.src, tuple(inv))


class FiniteCategory:
    """Finite category with named objects and morphisms.

    Morphism names are globally unique. `compose` maps (g, f) with f: a->b,
    g: b->c to the name of g∘f; the table is total over composable pairs and
    includes identity compositions.
    """

    def __init__(
        self, objects: tuple[str, ...], morphisms: dict[str, tuple[str, str]],
        compose_table: dict[tuple[str, str], str], identities: dict[str, str],
    ):
        self.objects = objects
        self.morphisms = morphisms  # name -> (src, dst)
        self.compose_table = compose_table  # (g, f) -> g∘f
        self.identities = identities  # object -> identity morphism name
        self.__post_init__()

    def __post_init__(self):
        self.objects = tuple(self.objects)
        homs: dict[tuple[str, str], list[str]] = {}
        for name, (a, b) in self.morphisms.items():
            homs.setdefault((a, b), []).append(name)
        self._homs = {k: tuple(v) for k, v in homs.items()}
        self._position = {o: i for i, o in enumerate(self.objects)}
        full = dict(self.compose_table)
        for name, (a, b) in self.morphisms.items():
            full.setdefault((self.identities[b], name), name)
            full.setdefault((name, self.identities[a]), name)
        self.compose_table = full
        self._terminal = self._empty = None  # built by Presheaf.terminal / empty
        idset = set(self.identities.values())
        self._arrows = tuple(m for m in self.morphisms if m not in idset)
        # what the category is: equality and hash read this tuple, built once
        self._content = (
            self.objects,
            tuple(sorted(self.morphisms.items())),
            tuple(sorted(full.items())),
            tuple(sorted(self.identities.items())),
        )
        self._hash = hash(self._content)

    @cached_property
    def key(self) -> str:
        """Canonical JSON of the category's content, as law reports name it."""
        return canonical_dumps(
            {
                "objects": list(self.objects),
                "morphisms": {m: list(v) for m, v in sorted(self.morphisms.items())},
                "compose": {f"{g} {f}": h for (g, f), h in sorted(self.compose_table.items())},
                "identities": dict(sorted(self.identities.items())),
            }
        )

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, FiniteCategory)
            and self._hash == other._hash
            and self._content == other._content
        )

    def __hash__(self) -> int:
        return self._hash

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        return self._homs.get((a, b), ())

    def nonidentity_morphisms(self) -> tuple[str, ...]:
        return self._arrows

    def src(self, m: str) -> str:
        return self.morphisms[m][0]

    def dst(self, m: str) -> str:
        return self.morphisms[m][1]

    def compose(self, g: str, f: str) -> str:
        """g∘f for f: a->b, g: b->c."""
        return self.compose_table[(g, f)]

    def identity(self, obj: str) -> str:
        return self.identities[obj]

    def validate(self, path: str = "base") -> None:
        """The category laws, each failure located under `path`.  Once the
        identities are neutral, associativity holds on every triple that
        contains one, so it is checked on the other triples."""
        seen = set(self.objects)
        if len(seen) != len(self.objects):
            raise ValidationError(f"{path}.objects", "duplicate object names")
        for name, (a, b) in self.morphisms.items():
            if a not in seen or b not in seen:
                raise ValidationError(f"{path}.morphisms.{name}", "endpoint not an object")
        for obj in self.objects:
            i = self.identities.get(obj)
            if i is None or self.morphisms.get(i) != (obj, obj):
                raise ValidationError(f"{path}.identities.{obj}", "missing or ill-typed identity")
        for (g, f), h in self.compose_table.items():
            if self.dst(f) != self.src(g):
                raise ValidationError(f"{path}.compose.{g}∘{f}", "pair not composable")
            if self.morphisms.get(h) is None or (self.src(f), self.dst(g)) != self.morphisms[h]:
                raise ValidationError(f"{path}.compose.{g}∘{f}", f"composite {h} ill-typed")
        for f in self.morphisms:
            for g in self.morphisms:
                if self.dst(f) == self.src(g) and (g, f) not in self.compose_table:
                    raise ValidationError(f"{path}.compose.{g}∘{f}", "missing composite")
        for f in self.morphisms:
            a, b = self.morphisms[f]
            if self.compose(self.identities[b], f) != f or self.compose(f, self.identities[a]) != f:
                raise ValidationError(f"{path}.identity.{f}", "identity not neutral")
        arrows = self._arrows
        for f in arrows:
            for g in arrows:
                if self.dst(f) != self.src(g):
                    continue
                gf = self.compose(g, f)
                for h in arrows:
                    if self.dst(g) != self.src(h):
                        continue
                    if self.compose(h, gf) != self.compose(self.compose(h, g), f):
                        raise ValidationError(
                            f"{path}.assoc.{h}∘{g}∘{f}", "composition not associative"
                        )

    def to_json(self) -> dict:
        idset = set(self.identities.values())
        return {
            "objects": list(self.objects),
            "morphisms": [
                {"name": m, "src": a, "dst": b}
                for m, (a, b) in self.morphisms.items()
                if m not in idset
            ],
            "composition": [
                [g, f, h]
                for (g, f), h in sorted(self.compose_table.items())
                if g not in idset and f not in idset
            ],
            "identities": dict(sorted(self.identities.items())),
        }

    @staticmethod
    def from_json(data: dict) -> "FiniteCategory":
        objects = tuple(data["objects"])
        identities = dict(data.get("identities") or {o: f"id_{o}" for o in objects})
        morphisms: dict[str, tuple[str, str]] = {}
        for o in objects:
            morphisms[identities[o]] = (o, o)
        for m in data.get("morphisms", []):
            morphisms[m["name"]] = (m["src"], m["dst"])
        compose = {(g, f): h for g, f, h in data.get("composition", [])}
        return FiniteCategory(objects, morphisms, compose, identities)

    @staticmethod
    def point() -> "FiniteCategory":
        return FiniteCategory(("*",), {"id_*": ("*", "*")}, {}, {"*": "id_*"})

    @staticmethod
    def discrete(names: tuple[str, ...]) -> "FiniteCategory":
        return FiniteCategory(
            tuple(names),
            {f"id_{o}": (o, o) for o in names},
            {},
            {o: f"id_{o}" for o in names},
        )

    @staticmethod
    def walking_arrow() -> "FiniteCategory":
        return FiniteCategory(
            ("0", "1"),
            {"id_0": ("0", "0"), "id_1": ("1", "1"), "a": ("0", "1")},
            {},
            {"0": "id_0", "1": "id_1"},
        )

    @staticmethod
    def graph_base() -> "FiniteCategory":
        """Base for directed graphs: presheaves have vertex and edge sets."""
        return FiniteCategory(
            ("V", "E"),
            {"id_V": ("V", "V"), "id_E": ("E", "E"), "s": ("V", "E"), "t": ("V", "E")},
            {},
            {"V": "id_V", "E": "id_E"},
        )

    def opposite(self) -> "FiniteCategory":
        morphisms = {m: (b, a) for m, (a, b) in self.morphisms.items()}
        compose = {(f, g): h for (g, f), h in self.compose_table.items()}
        return FiniteCategory(self.objects, morphisms, compose, dict(self.identities))

    def product(self, other: "FiniteCategory") -> "FiniteCategory":
        objects = tuple(f"{a}|{b}" for a in self.objects for b in other.objects)
        morphisms = {
            f"{m}|{n}": (f"{self.src(m)}|{other.src(n)}", f"{self.dst(m)}|{other.dst(n)}")
            for m in self.morphisms
            for n in other.morphisms
        }
        compose = {}
        for (g1, f1), h1 in self.compose_table.items():
            for (g2, f2), h2 in other.compose_table.items():
                compose[(f"{g1}|{g2}", f"{f1}|{f2}")] = f"{h1}|{h2}"
        identities = {
            f"{a}|{b}": f"{self.identities[a]}|{other.identities[b]}"
            for a in self.objects
            for b in other.objects
        }
        return FiniteCategory(objects, morphisms, compose, identities)


class Presheaf:
    """Finite-set-valued presheaf: contravariant functor base^op -> FinSet.

    `act[m]` for m: a -> b in the base is a FinFunction at[b] -> at[a].
    Actions for identities are filled in automatically.
    """

    __slots__ = ("base", "at", "act", "_id", "_hash", "_identity")

    def __init__(self, base: FiniteCategory, at: dict[str, FinSet], act: dict[str, FinFunction]):
        self.base = base
        self.at = at
        self.act = act
        self.__post_init__()

    def __post_init__(self):
        at = {}
        for o in self.base.objects:
            s = self.at[o]
            at[o] = s if isinstance(s, FinSet) else FinSet(int(s))
        self.at = at
        act = dict(self.act)
        for o, i in self.base.identities.items():
            act.setdefault(i, FinFunction.identity(self.at[o]))
        self.act = act
        sizes = tuple(self.at[o].size for o in self.base.objects)
        self._id = (self.base, sizes, tuple(sorted((m, fn.table) for m, fn in act.items())))
        self._hash = hash(self._id)
        self._identity = None  # built by PresheafMap.identity

    def __eq__(self, other) -> bool:
        return self is other or (
            type(other) is Presheaf and self._hash == other._hash and self._id == other._id
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def sizes(self) -> tuple[int, ...]:
        """The size at each base object, in base-object order."""
        return self._id[1]

    @property
    def total_size(self) -> int:
        return sum(s.size for s in self.at.values())

    def validate(self, path: str = "presheaf") -> None:
        """The functor laws over a validated base.  Its identities are
        neutral, so once each acts as an identity, functoriality holds on
        every pair that contains one; it is checked on the other pairs, table
        against gathered table."""
        base, act = self.base, self.act
        for m, (a, b) in base.morphisms.items():
            fn = act.get(m)
            if fn is None:
                raise ValidationError(f"{path}.act.{m}", "missing action")
            if fn.src != self.at[b] or fn.dst != self.at[a]:
                raise ValidationError(f"{path}.act.{m}", "action ill-typed (must be at[dst]->at[src])")
        for o, i in base.identities.items():
            if act[i].table != tuple(range(self.at[o].size)):
                raise ValidationError(f"{path}.act.{i}", "identity action is not the identity")
        arrows = base.nonidentity_morphisms()
        for f in arrows:
            t_f = act[f].table
            for g in arrows:
                if base.dst(f) != base.src(g):
                    continue
                gf = base.compose(g, f)
                if act[gf].table != tuple([t_f[v] for v in act[g].table]):
                    raise ValidationError(
                        f"{path}.act.{gf}", f"functoriality fails: act({g}∘{f}) != act({f})∘act({g})"
                    )

    def to_json(self) -> dict:
        idset = set(self.base.identities.values())
        return {
            "at": {o: self.at[o].size for o in self.base.objects},
            "act": {m: list(fn.table) for m, fn in self.act.items() if m not in idset},
        }

    @staticmethod
    def from_json(base: FiniteCategory, data: dict, path: str = "presheaf") -> "Presheaf":
        at = {}
        for o, n in expect_object(data.get("at"), f"{path}.at").items():
            if o not in base._position:
                raise ValidationError(f"{path}.at.{o}", "unknown base object")
            if type(n) is not int or n < 0:
                raise ValidationError(f"{path}.at.{o}", "must be a nonnegative integer")
            at[o] = FinSet(n)
        for o in base.objects:
            if o not in at:
                raise ValidationError(f"{path}.at.{o}", "missing object")
        act = {}
        for m, table in expect_object(data.get("act", {}), f"{path}.act").items():
            if m not in base.morphisms:
                raise ValidationError(f"{path}.act.{m}", "unknown base morphism")
            a, b = base.morphisms[m]
            try:
                act[m] = FinFunction(at[b], at[a], expect_table(table, f"{path}.act.{m}"))
            except ValidationError as exc:
                raise ValidationError(f"{path}.act.{m}", exc.message) from None
        return Presheaf(base, at, act)

    @staticmethod
    def empty(base: FiniteCategory) -> "Presheaf":
        """The initial presheaf over `base`, built once per base."""
        if base._empty is None:
            zero = FinSet(0)
            none = FinFunction(zero, zero, ())
            base._empty = Presheaf(
                base, {o: zero for o in base.objects}, {m: none for m in base.morphisms}
            )
        return base._empty

    @staticmethod
    def terminal(base: FiniteCategory) -> "Presheaf":
        """The terminal presheaf over `base`, built once per base."""
        if base._terminal is None:
            one = FinSet(1)
            point = FinFunction(one, one, (0,))
            base._terminal = Presheaf(
                base, {o: one for o in base.objects}, {m: point for m in base.morphisms}
            )
        return base._terminal


class PresheafMap:
    """Natural transformation between presheaves on the same base, held as
    its component tables: `tables[i]` is the component at the i-th base
    object.  The constructor trusts its tables (kernel results); tables from
    input go through `from_json` or `from_tables`, which range-check them."""

    __slots__ = ("src", "dst", "tables", "_hash", "_components")

    def __init__(self, src: Presheaf, dst: Presheaf, tables: tuple[tuple[int, ...], ...]):
        self.src = src
        self.dst = dst
        self.tables = tables
        self.__post_init__()

    def __post_init__(self) -> None:
        # runs once per map, however it is built; hash and view are built on
        # first use, as most maps a search lists are never hashed
        self._hash = None
        self._components = None

    def __eq__(self, other) -> bool:
        return self is other or (
            type(other) is PresheafMap
            and self.tables == other.tables
            and (self.src is other.src or self.src == other.src)
            and (self.dst is other.dst or self.dst == other.dst)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.src._hash, self.dst._hash, self.tables))
        return self._hash

    def __repr__(self) -> str:
        return f"PresheafMap({self.tables!r})"

    @property
    def base(self) -> FiniteCategory:
        return self.src.base

    @property
    def components(self) -> MappingProxyType:
        """Read-only view: base object -> its component as a FinFunction."""
        if self._components is None:
            self._components = MappingProxyType({
                o: FinFunction._trusted(self.src.at[o], self.dst.at[o], t)
                for o, t in zip(self.src.base.objects, self.tables)
            })
        return self._components

    def table_at(self, obj: str) -> tuple[int, ...]:
        """The component table at base object `obj`."""
        return self.tables[self.src.base._position[obj]]

    def check_naturality(self, path: str = "map") -> None:
        """Naturality, for tables known to fit, between validated presheaves:
        each identity acts as one, so naturality holds at identities and is
        checked at the other morphisms, gathered table against gathered
        table."""
        src, dst, base = self.src, self.dst, self.src.base
        for m in base.nonidentity_morphisms():
            a, b = base.morphisms[m]
            t_a, t_b = self.table_at(a), self.table_at(b)
            lhs = [t_a[v] for v in src.act[m].table]
            d = dst.act[m].table
            rhs = [d[v] for v in t_b]
            if lhs != rhs:
                x = next(x for x, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
                raise ValidationError(
                    f"{path}.naturality.{m}", f"square fails at element {x} of ({b})"
                )

    def then(self, other: "PresheafMap") -> "PresheafMap":
        if self.dst is not other.src and self.dst != other.src:
            raise ValidationError("map.then", "codomain/domain mismatch")
        # a shared identity on either side: the other map, on the composite's
        # endpoints
        if self is self.src._identity:
            if other.src is self.src:
                return other
            return PresheafMap(self.src, other.dst, other.tables)
        if other is other.src._identity:
            if self.dst is other.dst:
                return self
            return PresheafMap(self.src, other.dst, self.tables)
        tables = tuple([tuple([t[v] for v in s]) for s, t in zip(self.tables, other.tables)])
        return PresheafMap(self.src, other.dst, tables)

    def retarget(self, dst: Presheaf) -> "PresheafMap":
        """The same tables with codomain `dst`, of which self.dst must be a
        prefix sub-presheaf (each dst(o) starts with self.dst(o)): the
        composite of self with a prefix inclusion."""
        if dst is self.dst:
            return self
        if any(k < n for k, n in zip(dst.sizes, self.dst.sizes)):
            raise ValidationError("map.retarget", "codomain smaller than the current one")
        return PresheafMap(self.src, dst, self.tables)

    @staticmethod
    def identity(p: Presheaf) -> "PresheafMap":
        """The identity of `p`, built once per presheaf and shared."""
        if p._identity is None:
            p._identity = PresheafMap(p, p, tuple([tuple(range(n)) for n in p.sizes]))
        return p._identity

    def is_injective(self) -> bool:
        return all(len(set(t)) == len(t) for t in self.tables)

    def is_bijective(self) -> bool:
        return self.src.sizes == self.dst.sizes and self.is_injective()

    def inverse(self) -> "PresheafMap":
        tables = tuple(fn.inverse().table for fn in self.components.values())
        return PresheafMap(self.dst, self.src, tables)

    def table_json(self) -> dict:
        return {o: list(t) for o, t in zip(self.base.objects, self.tables)}

    @staticmethod
    def from_tables(src: Presheaf, dst: Presheaf, tables: dict) -> "PresheafMap":
        """A map from per-object tables, each checked to fit src and dst."""
        return PresheafMap(src, dst, tuple(
            FinFunction(src.at[o], dst.at[o], tuple(tables[o])).table for o in src.base.objects
        ))

    @staticmethod
    def from_json(src: Presheaf, dst: Presheaf, components, path: str) -> "PresheafMap":
        """The natural map src -> dst with the JSON tables `components`, each
        read once: endpoints over different bases are rejected at `path`
        before any table is read, a table that does not fit at
        `path.components.<o>`."""
        base = src.base
        if base != dst.base:
            raise ValidationError(path, "source and target live over different bases")
        where, given = f"{path}.components", {}
        for o, t in expect_object(components, where).items():
            if o not in base._position:
                raise ValidationError(f"{where}.{o}", "unknown base object")
            given[o] = expect_table(t, f"{where}.{o}")
        tables = []
        for o in base.objects:
            t, n = given.get(o), dst.at[o].size
            if t is None:
                raise ValidationError(f"{where}.{o}", "missing object")
            if len(t) != src.at[o].size:
                raise ValidationError(f"{where}.{o}", "length must equal src.size")
            if t and (min(t) < 0 or max(t) >= n):
                i, v = next((i, v) for i, v in enumerate(t) if not 0 <= v < n)
                raise ValidationError(f"{where}.{o}", f"entry {i} -> {v} out of range")
            tables.append(t)
        m = PresheafMap(src, dst, tuple(tables))
        m.check_naturality(path)
        return m


def _identity_json(m: PresheafMap) -> str:
    """Canonical JSON of a map's tables with sha256-named endpoints: the bytes
    that the type-mismatch witness of `eq_witness` carries into law reports."""

    def digest(p: Presheaf) -> str:
        at = {o: p.at[o].size for o in p.base.objects}
        act = {n: list(fn.table) for n, fn in p.act.items()}
        return sha256_hex(canonical_dumps({"base": sha256_hex(p.base.key), "at": at, "act": act}))

    return canonical_dumps({"src": digest(m.src), "dst": digest(m.dst), "components": m.table_json()})


def eq_witness(m1: PresheafMap, m2: PresheafMap):
    """None when the maps agree; otherwise a (object, element, lhs, rhs) witness.
    Equal tables are compared as tuples; elements are walked only to name the
    first difference."""
    if not (m1.src is m2.src or m1.src == m2.src) or not (m1.dst is m2.dst or m1.dst == m2.dst):
        lhs, rhs = _identity_json(m1), _identity_json(m2)
        return {"object": "<type>", "element": -1, "lhs": lhs, "rhs": rhs}
    if m1.tables == m2.tables:
        return None
    for o, t1, t2 in zip(m1.base.objects, m1.tables, m2.tables):
        for x, (v1, v2) in enumerate(zip(t1, t2)):
            if v1 != v2:
                return {"object": o, "element": x, "lhs": v1, "rhs": v2}
    return None


# ---------------------------------------------------------------------------
# Colimits


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # smallest index wins: deterministic representatives
            if rx < ry:
                self.parent[ry] = rx
            else:
                self.parent[rx] = ry


class ColimitRecord:
    """A computed colimit: the apex with legs from the diagram's targets."""

    __slots__ = ("apex", "legs")

    def __init__(self, apex: Presheaf, legs: tuple[PresheafMap, ...]):
        self.apex = apex
        self.legs = legs


def coproduct(parts: list[Presheaf], base: FiniteCategory | None = None) -> ColimitRecord:
    """Componentwise disjoint union; element order is concatenation in input order."""
    if parts:
        base = parts[0].base
        for i, p in enumerate(parts):
            if p.base != base:
                raise ValidationError(f"coproduct.parts[{i}]", "mismatched base categories")
    if base is None:
        raise ValidationError("coproduct", "empty coproduct needs an explicit base")
    offsets: dict[str, list[int]] = {o: [] for o in base.objects}
    sizes = {o: 0 for o in base.objects}
    for p in parts:
        for o in base.objects:
            offsets[o].append(sizes[o])
            sizes[o] += p.at[o].size
    at = {o: FinSet(sizes[o]) for o in base.objects}
    act = {}
    for m, (a, b) in base.morphisms.items():
        table = []
        for i, p in enumerate(parts):
            table.extend(offsets[a][i] + v for v in p.act[m].table)
        act[m] = FinFunction._trusted(at[b], at[a], tuple(table))
    apex = Presheaf(base, at, act)
    legs = tuple(
        PresheafMap(p, apex, tuple(
            tuple(range(offsets[o][i], offsets[o][i] + n)) for o, n in zip(base.objects, p.sizes)
        ))
        for i, p in enumerate(parts)
    )
    return ColimitRecord(apex, legs)


def quotient_presheaf(
    x: Presheaf, relations: list[tuple[PresheafMap, PresheafMap]]
) -> tuple[Presheaf, PresheafMap]:
    """Quotient of x by the congruence generated by pairs of parallel maps into x.

    Each relation (alpha, beta) shares a source S and identifies alpha(s) with
    beta(s) for every element s.  Because relations are graphs of natural maps,
    the pointwise union-find quotient is automatically a presheaf.  Classes are
    labeled by order of first appearance (equivalently, smallest member).
    """
    base = x.base
    ufs = {o: UnionFind(x.at[o].size) for o in base.objects}
    for alpha, beta in relations:
        if alpha.dst != x or beta.dst != x or alpha.src != beta.src:
            raise ValidationError("quotient.relations", "relation maps must be parallel into x")
        for o, ta, tb in zip(base.objects, alpha.tables, beta.tables):
            for a, b in zip(ta, tb):
                ufs[o].union(a, b)
    labels: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    for o in base.objects:
        lab = [-1] * x.at[o].size
        nxt = 0
        for i in range(x.at[o].size):
            r = ufs[o].find(i)
            if lab[r] == -1:
                lab[r] = nxt
                nxt += 1
            lab[i] = lab[r]
        labels[o] = lab
        counts[o] = nxt
    at = {o: FinSet(counts[o]) for o in base.objects}
    reps: dict[str, list[int]] = {}
    for o in base.objects:
        rep = [-1] * counts[o]
        for i, l in enumerate(labels[o]):
            if rep[l] == -1:
                rep[l] = i
        reps[o] = rep
    act = {}
    for m, (a, b) in base.morphisms.items():
        old = x.act[m]
        act[m] = FinFunction._trusted(
            at[b], at[a], tuple(labels[a][old.table[reps[b][c]]] for c in range(counts[b]))
        )
    q_presheaf = Presheaf(base, at, act)
    q_map = PresheafMap(x, q_presheaf, tuple(tuple(labels[o]) for o in base.objects))
    for m, (a, b) in base.morphisms.items():
        # well-definedness of the induced action over every class member
        old = x.act[m]
        for i in range(x.at[b].size):
            if labels[a][old.table[i]] != q_presheaf.act[m].table[labels[b][i]]:
                raise ValidationError(
                    f"quotient.act.{m}", f"relation set not a congruence at element {i}"
                )
    return q_presheaf, q_map


def pushout(f: PresheafMap, g: PresheafMap) -> ColimitRecord:
    """Pushout of B <-f- A -g-> C, computed per base object by union-find."""
    if f.src != g.src:
        raise ValidationError("pushout", "maps must share their source")
    rec = coproduct([f.dst, g.dst])
    inj_b, inj_c = rec.legs
    apex, q = quotient_presheaf(rec.apex, [(f.then(inj_b), g.then(inj_c))])
    return ColimitRecord(apex, (inj_b.then(q), inj_c.then(q)))


def coequalizer(f: PresheafMap, g: PresheafMap) -> ColimitRecord:
    """Coequalizer of a parallel pair f, g: A -> B."""
    if f.src != g.src or f.dst != g.dst:
        raise ValidationError("coequalizer", "maps must be parallel")
    apex, q = quotient_presheaf(f.dst, [(f, g)])
    return ColimitRecord(apex, (q,))


def glue(
    target: Presheaf, dst: Presheaf, parts, where: str, problem: str, start=None
) -> PresheafMap:
    """The map target -> dst that is `value` along `leg` for each (leg, value)
    in `parts`, and `start` (a map into dst) on the prefix of target that is
    its source: a map out of a colimit, fixed by its legs.  Parts are read
    lazily and in order; two that disagree at base object o raise
    ValidationError(where, "<problem> at <o>"), and an element that no leg
    reaches, or a part whose leg does not land in `target` or whose value
    does not land in `dst`, raises a ValidationError at `where`."""
    objects = target.base.objects
    tables = [[-1] * n for n in target.sizes]
    if start is not None:
        tables = [list(t) + row[len(t):] for t, row in zip(start.tables, tables)]
    for leg, value in parts:
        lands = (leg.dst is target or leg.dst == target) and (value.dst is dst or value.dst == dst)
        if not lands:
            raise ValidationError(where, "a part lands off the glued map's endpoints")
        for o, t, lt, vt in zip(objects, tables, leg.tables, value.tables):
            for idx, w in zip(lt, vt):
                if t[idx] == -1:
                    t[idx] = w
                elif t[idx] != w:
                    raise ValidationError(where, f"{problem} at {o}")
    for o, t in zip(objects, tables):
        if -1 in t:
            raise ValidationError(where, f"no leg reaches an element at {o}")
    return PresheafMap(target, dst, tuple([tuple(t) for t in tables]))


# ---------------------------------------------------------------------------
# Exhaustive enumeration of natural transformations


def search_maps(src: Presheaf, dst: Presheaf, allowed=None) -> tuple[PresheafMap, ...]:
    """Every natural transformation src -> dst whose value at each element x of
    src(o) lies in `allowed(o, x)`, a set of elements of dst(o) (all of them
    when `allowed` is None), in lexicographic table order.

    One variable per element, in base-object order and then element order,
    tried in ascending order.  Naturality at m: a -> b is an equation
    value(a, src.act[m][x]) == dst.act[m][value(b, x)] for each x in src(b),
    indexed from both ends: a known value(b, x) narrows value(a, ...) to one
    value, a known value(a, ...) narrows value(b, x) to a fibre of dst.act[m].
    An assignment narrows the later variables its equations reach, and a
    variable narrowed to one value applies its own equations at once, as far
    as the chain reaches (singleton propagation); a branch that empties a
    domain is cut.  Past the last variable that shares an equation with a
    later one, every combination of the domains is a map: the rows of
    `itertools.product`, streamed.
    """
    base = src.base
    spans, n = {}, 0  # the variables of src(o) are range(*spans[o])
    for o in base.objects:
        spans[o] = (n, n + src.at[o].size)
        n = spans[o][1]
    cells = [(o, x) for o in base.objects for x in range(src.at[o].size)]
    if allowed is None:
        domains = [tuple(range(dst.at[o].size)) for o, _ in cells]
    else:
        domains = [tuple(sorted(allowed(o, x))) for o, x in cells]
    # eqs[i]: (j, table, m) for each equation between variables i and j:
    # value(j) == table[value(i)] when m is None, else table[value(j)] ==
    # value(i), answered by fibres[m], built on first use
    eqs: list[list[tuple[int, tuple[int, ...], str | None]]] = [[] for _ in cells]
    free = 0  # from `free` on no variable shares an equation with a later one
    identities = set(base.identities.values())
    for m, (a, b) in base.morphisms.items():
        if m in identities:
            continue
        d = dst.act[m].table
        for x, y in enumerate(src.act[m].table):
            i, j = spans[b][0] + x, spans[a][0] + y
            if i == j:
                domains[i] = tuple(v for v in domains[i] if d[v] == v)
            else:
                eqs[i].append((j, d, None))
                eqs[j].append((i, d, m))
                free = max(free, min(i, j) + 1)
    if not all(domains):
        return ()
    fibres: dict[str, dict[int, tuple[int, ...]]] = {}
    bounds = list(spans.values())
    maps: list[PresheafMap] = []

    def emit() -> None:
        # an assigned variable's domain is its value; per object, its tables
        # are the product of its domains, and the maps the product of those
        rows = product(*[product(*domains[lo:hi]) for lo, hi in bounds])
        maps.extend([PresheafMap(src, dst, row) for row in rows])

    # depth-first without recursion: untried[i] holds the values variable i
    # has not yet taken, pruned[i] the domains its current value narrowed
    untried = [iter(domains[0])] if free else []
    pruned: list[list[tuple[int, tuple[int, ...]]]] = [[]] if free else []
    if not free:
        emit()
    while untried:
        i = len(untried) - 1
        for j, dom in reversed(pruned[i]):
            domains[j] = dom
        v = next(untried[i], None)
        if v is None:
            untried.pop()
            pruned.pop()
            continue
        pruned[i] = trail = [(i, domains[i])]
        domains[i] = (v,)
        known = [(i, v)]  # variables with one value whose equations wait
        while known:
            k, w = known.pop()
            for j, d, m in eqs[k]:
                if j <= i:
                    continue
                dom = domains[j]
                if m is None:
                    new = (d[w],) if d[w] in dom else ()
                elif len(dom) == len(d):  # all of dst(b): the fibre itself
                    if m not in fibres:
                        fibres[m] = fib = {}
                        for e, u in enumerate(d):
                            fib[u] = fib.get(u, ()) + (e,)
                    new = fibres[m].get(w, ())
                else:
                    new = tuple([e for e in dom if d[e] == w])
                if len(new) < len(dom):
                    trail.append((j, dom))
                    domains[j] = new
                    if not new:
                        known = None
                        break
                    if len(new) == 1:
                        known.append((j, new[0]))
            if known is None:
                break
        else:
            if i + 1 == free:
                emit()
            else:
                untried.append(iter(domains[i + 1]))
                pruned.append([])
    return tuple(maps)


@lru_cache(maxsize=None)
def _all_maps_cached(src: Presheaf, dst: Presheaf) -> tuple[PresheafMap, ...]:
    return search_maps(src, dst)


def all_maps(src: Presheaf, dst: Presheaf) -> tuple[PresheafMap, ...]:
    """Every natural transformation src -> dst, in lexicographic table order."""
    return _all_maps_cached(src, dst)
