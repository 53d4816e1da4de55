"""Instance files: parsing, exhaustive validation, and canonical serialization.

An instance bundles finite base categories, named presheaves and maps over
them, generator diagrams, a weak-equivalence predicate, inclusion functors
between generator diagrams, and adjunction descriptors.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Callable

from .arrows import ArrowObject, Square
from .core import (
    FiniteCategory,
    Presheaf,
    PresheafMap,
    ValidationError,
    canonical_dumps,
    expect_object,
    sha256_hex,
)
from .lifting import GeneratorDiagram
from .model import TauData, WeqPredicate
from .transport import AdjunctionData, FunctorData, identity_adjunction, restriction_adjunction


class InstanceFile:
    __slots__ = (
        "bases", "presheaves", "maps", "generators", "weq", "taus", "adjunctions", "options", "raw"
    )

    def __init__(
        self, bases: dict[str, FiniteCategory], presheaves: dict[str, Presheaf],
        maps: dict[str, PresheafMap], generators: dict[str, GeneratorDiagram], weq: WeqPredicate,
        taus: dict[str, TauData], adjunctions: dict[str, Callable[[], AdjunctionData]],
        options: dict, raw: dict,
    ):
        self.bases = bases
        self.presheaves = presheaves
        self.maps = maps
        self.generators = generators
        self.weq = weq
        self.taus = taus
        self.adjunctions = adjunctions
        self.options = options
        self.raw = raw

    def canonical_json(self) -> str:
        return canonical_dumps(self.raw)

    def input_hash(self) -> str:
        return sha256_hex(self.canonical_json())

    def requested_arrows(self, base: FiniteCategory, names=None) -> dict[str, ArrowObject]:
        """The named maps over `base` that a command certifies: all of them,
        or those in `names`, in instance order."""
        return {
            name: ArrowObject(m)
            for name, m in self.maps.items()
            if m.base == base and (names is None or name in names)
        }

    def adjunction(self, name: str) -> AdjunctionData:
        if name not in self.adjunctions:
            raise ValidationError(f"adjunctions.{name}", "unknown adjunction name")
        return self.adjunctions[name]()

    def option(self, key: str, override, fallback):
        """Command option resolution: explicit flag, else instance default."""
        if override is not None:
            return override
        return self.options.get(key, fallback)


def _category(data, path: str) -> FiniteCategory:
    """A base or shape category read from JSON, its shape checked at `path`."""
    objects = expect_object(data, path).get("objects")
    if not isinstance(objects, list) or any(not isinstance(o, str) for o in objects):
        raise ValidationError(f"{path}.objects", "must be a JSON list of strings")
    morphisms = data.get("morphisms", [])
    if not isinstance(morphisms, list):
        raise ValidationError(f"{path}.morphisms", "must be a JSON list")
    for i, m in enumerate(morphisms):
        where = f"{path}.morphisms[{i}]"
        if not isinstance(expect_object(m, where).get("name"), str):
            raise ValidationError(f"{where}.name", "must be a string")
        for end in ("src", "dst"):
            if m.get(end) not in objects:
                raise ValidationError(f"{where}.{end}", f"unknown object {m.get(end)!r}")
    identities = data.get("identities") or {o: f"id_{o}" for o in objects}
    if not isinstance(identities, dict) or set(identities) != set(objects) or any(
        not isinstance(i, str) for i in identities.values()
    ):
        raise ValidationError(f"{path}.identities", "must name one identity for each object")
    names = {m["name"] for m in morphisms} | set(identities.values())
    composition = data.get("composition", [])
    if not isinstance(composition, list):
        raise ValidationError(f"{path}.composition", "must be a JSON list")
    for i, triple in enumerate(composition):
        if not isinstance(triple, list) or len(triple) != 3 or any(
            not isinstance(n, str) or n not in names for n in triple
        ):
            raise ValidationError(f"{path}.composition[{i}]", "must be [g, f, g∘f], morphism names")
    return FiniteCategory.from_json(data)


def _parse_generators(name: str, data: dict, maps: dict[str, PresheafMap]) -> GeneratorDiagram:
    path = f"generators.{name}"
    shape_data = expect_object(data, path).get("shape", "discrete")
    arrows = {}
    for obj, mname in expect_object(data.get("arrows", {}), f"{path}.arrows").items():
        if not isinstance(mname, str) or mname not in maps:
            raise ValidationError(f"{path}.arrows.{obj}", f"unknown map {mname}")
        arrows[obj] = ArrowObject(maps[mname])
    if shape_data == "discrete":
        diagram = GeneratorDiagram.discrete(arrows)
    else:
        shape = _category(shape_data, f"{path}.shape")
        for obj in shape.objects:
            if obj not in arrows:
                raise ValidationError(f"{path}.arrows.{obj}", "missing generator arrow")
        squares = {}
        for mor, sq in expect_object(data.get("squares", {}), f"{path}.squares").items():
            where = f"{path}.squares.{mor}"
            if mor not in shape.morphisms:
                raise ValidationError(where, "unknown shape morphism")
            top, bottom = expect_object(sq, where).get("top"), sq.get("bottom")
            for m in (top, bottom):
                if not isinstance(m, str) or m not in maps:
                    raise ValidationError(where, f"unknown map {m}")
            squares[mor] = Square(
                arrows[shape.src(mor)], arrows[shape.dst(mor)], maps[top], maps[bottom]
            )
        diagram = GeneratorDiagram(shape, arrows, squares)
    diagram.validate(f"generators.{name}")
    return diagram


def _name_map(parent: dict, key: str, path: str, keys, values, total=False) -> dict[str, str]:
    """`parent[key]` (default empty), a JSON object from names in `keys` to
    names in `values`; with `total`, one entry for every name in `keys`."""
    path, value = f"{path}.{key}", parent.get(key, {})
    for k, v in expect_object(value, path).items():
        if k not in keys:
            raise ValidationError(f"{path}.{k}", "unknown name")
        if not isinstance(v, str) or v not in values:
            raise ValidationError(f"{path}.{k}", f"unknown image {v!r}")
    missing = [k for k in keys if k not in value] if total else []
    if missing:
        raise ValidationError(f"{path}.{missing[0]}", "missing image")
    return dict(value)


def _tau(name: str, data, generators: dict[str, GeneratorDiagram]) -> TauData:
    path = f"taus.{name}"
    expect_object(data, path)
    for end in ("src", "dst"):
        g = data.get(end)
        if not isinstance(g, str) or g not in generators:
            raise ValidationError(f"{path}.{end}", f"unknown generators {g}")
    src, dst = generators[data["src"]], generators[data["dst"]]
    tau = TauData(
        src,
        dst,
        _name_map(data, "objects", path, src.arrow_of, dst.arrow_of, True),
        _name_map(data, "morphisms", path, src.shape.morphisms, dst.shape.morphisms),
    )
    tau.validate(path)
    return tau


def _adjunction(name: str, desc, bases) -> Callable[[], AdjunctionData]:
    """The descriptor parsed, as the constructor of its adjunction bound to
    its argument: the base of an identity adjunction, or the functor of a
    Lan ⊣ restriction adjunction (kind `lan_res`)."""
    path = f"adjunctions.{name}"
    kind = expect_object(desc, path).get("kind")
    if kind not in ("identity", "lan_res"):
        raise ValidationError(f"{path}.kind", f"unsupported kind {kind!r}")

    def base(key: str, default="main") -> FiniteCategory:
        bname = desc.get(key, default)
        if not isinstance(bname, str) or bname not in bases:
            raise ValidationError(f"{path}.{key}", "unknown base")
        return bases[bname]

    if kind == "identity":
        return partial(identity_adjunction, base("base"))
    src, dst = base("from_base", None), base("to_base")
    fpath = f"{path}.functor"
    functor = expect_object(desc.get("functor"), fpath)
    u = FunctorData(
        src,
        dst,
        _name_map(functor, "objects", fpath, src.objects, dst.objects, True),
        _name_map(functor, "morphisms", fpath, src.morphisms, dst.morphisms),
    )
    u.validate(fpath)
    return partial(restriction_adjunction, u)


def _options(value) -> dict:
    """The instance's command defaults; booleans are not step bounds here."""
    options = dict(expect_object(value, "options"))
    steps = options.get("max_steps", 0)
    if type(steps) is not int or steps < 0:
        raise ValidationError("options.max_steps", "must be a nonnegative JSON integer")
    if options.get("variant", "monic") not in ("monic", "standard"):
        raise ValidationError("options.variant", "must be monic or standard")
    return options


def from_json(data: dict) -> InstanceFile:
    """Parse and exhaustively validate an instance document."""
    expect_object(data, "instance")
    bases: dict[str, FiniteCategory] = {}
    paths: dict[str, str] = {}  # base name -> where the document defines it
    base_field = data.get("base")
    if base_field is not None:
        bases["main"], paths["main"] = _category(base_field, "base"), "base"
    for bname, bdata in expect_object(data.get("bases", {}), "bases").items():
        paths[bname] = f"bases.{bname}"
        bases[bname] = _category(bdata, paths[bname])
    if "main" not in bases:
        raise ValidationError("base", "missing main base category")
    for bname, cat in bases.items():
        cat.validate(paths[bname])

    presheaves: dict[str, Presheaf] = {}
    for pname, pdata in expect_object(data.get("presheaves", {}), "presheaves").items():
        bname = expect_object(pdata, f"presheaves.{pname}").get("base", "main")
        if not isinstance(bname, str) or bname not in bases:
            raise ValidationError(f"presheaves.{pname}.base", f"unknown base {bname}")
        try:
            p = Presheaf.from_json(bases[bname], pdata, f"presheaves.{pname}")
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"presheaves.{pname}", str(exc)) from None
        p.validate(f"presheaves.{pname}")
        presheaves[pname] = p

    maps: dict[str, PresheafMap] = {}
    for mname, mdata in expect_object(data.get("maps", {}), "maps").items():
        expect_object(mdata, f"maps.{mname}")
        for end in ("src", "dst"):
            if not isinstance(mdata.get(end), str) or mdata[end] not in presheaves:
                raise ValidationError(f"maps.{mname}.{end}", f"unknown presheaf {mdata.get(end)}")
        src, dst = presheaves[mdata["src"]], presheaves[mdata["dst"]]
        maps[mname] = PresheafMap.from_json(src, dst, mdata.get("components"), f"maps.{mname}")

    generators = {
        gname: _parse_generators(gname, gdata, maps)
        for gname, gdata in expect_object(data.get("generators", {}), "generators").items()
    }

    weq = WeqPredicate.from_json(data.get("weq"), maps)

    taus = {
        tname: _tau(tname, tdata, generators)
        for tname, tdata in expect_object(data.get("taus", {}), "taus").items()
    }

    adjunctions = {
        aname: _adjunction(aname, desc, bases)
        for aname, desc in expect_object(data.get("adjunctions", {}), "adjunctions").items()
    }

    return InstanceFile(
        bases=bases,
        presheaves=presheaves,
        maps=maps,
        generators=generators,
        weq=weq,
        taus=taus,
        adjunctions=adjunctions,
        options=_options(data.get("options", {})),
        raw=data,
    )


def load(path: str) -> InstanceFile:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise ValidationError("instance", str(exc)) from None
    return from_json(data)
