"""Test-only reference validators: the exhaustive loops that `FinFunction`'s
range check and the `validate` methods of `FiniteCategory`, `Presheaf`,
`PresheafMap` and `GeneratorDiagram` replaced.  These check every law on
every pair and triple, identities included, element by element; the kernel's
versions check each identity law once and compare gathered tables.
"""

from awfs_forge.arrows import Square
from awfs_forge.core import FinFunction, PresheafMap, ValidationError


def ref_finfunction_check(fn: FinFunction) -> None:
    if len(fn.table) != fn.src.size:
        raise ValidationError("FinFunction.table", "length must equal src.size")
    for i, v in enumerate(fn.table):
        if not (0 <= v < fn.dst.size):
            raise ValidationError("FinFunction.table", f"entry {i} -> {v} out of range")


def ref_category_validate(cat) -> None:
    seen = set(cat.objects)
    if len(seen) != len(cat.objects):
        raise ValidationError("base.objects", "duplicate object names")
    for name, (a, b) in cat.morphisms.items():
        if a not in seen or b not in seen:
            raise ValidationError(f"base.morphisms.{name}", "endpoint not an object")
    for obj in cat.objects:
        i = cat.identities.get(obj)
        if i is None or cat.morphisms.get(i) != (obj, obj):
            raise ValidationError(f"base.identities.{obj}", "missing or ill-typed identity")
    for (g, f), h in cat.compose_table.items():
        if cat.dst(f) != cat.src(g):
            raise ValidationError(f"base.compose.{g}∘{f}", "pair not composable")
        if cat.morphisms.get(h) is None or (cat.src(f), cat.dst(g)) != cat.morphisms[h]:
            raise ValidationError(f"base.compose.{g}∘{f}", f"composite {h} ill-typed")
    for f in cat.morphisms:
        for g in cat.morphisms:
            if cat.dst(f) == cat.src(g) and (g, f) not in cat.compose_table:
                raise ValidationError(f"base.compose.{g}∘{f}", "missing composite")
    for f in cat.morphisms:
        a, b = cat.morphisms[f]
        if cat.compose(cat.identities[b], f) != f or cat.compose(f, cat.identities[a]) != f:
            raise ValidationError(f"base.identity.{f}", "identity not neutral")
    for f in cat.morphisms:
        for g in cat.morphisms:
            if cat.dst(f) != cat.src(g):
                continue
            gf = cat.compose(g, f)
            for h in cat.morphisms:
                if cat.dst(g) != cat.src(h):
                    continue
                if cat.compose(h, gf) != cat.compose(cat.compose(h, g), f):
                    raise ValidationError(f"base.assoc.{h}∘{g}∘{f}", "composition not associative")


def ref_presheaf_validate(p, path: str = "presheaf") -> None:
    for m, (a, b) in p.base.morphisms.items():
        fn = p.act.get(m)
        if fn is None:
            raise ValidationError(f"{path}.act.{m}", "missing action")
        if fn.src != p.at[b] or fn.dst != p.at[a]:
            raise ValidationError(f"{path}.act.{m}", "action ill-typed (must be at[dst]->at[src])")
    for o, i in p.base.identities.items():
        if p.act[i] != FinFunction.identity(p.at[o]):
            raise ValidationError(f"{path}.act.{i}", "identity action is not the identity")
    for f in p.base.morphisms:
        for g in p.base.morphisms:
            if p.base.dst(f) != p.base.src(g):
                continue
            gf = p.base.compose(g, f)
            if p.act[gf] != p.act[g].then(p.act[f]):
                raise ValidationError(
                    f"{path}.act.{gf}", f"functoriality fails: act({g}∘{f}) != act({f})∘act({g})"
                )


def ref_map_validate(m: PresheafMap, path: str = "map") -> None:
    if m.src.base != m.dst.base:
        raise ValidationError(path, "source and target live over different bases")
    objects = m.base.objects
    if len(m.tables) != len(objects):
        raise ValidationError(f"{path}.components", "not one table per base object")
    for o, t in zip(objects, m.tables):
        n = m.dst.at[o].size
        if len(t) != m.src.at[o].size or not all(0 <= v < n for v in t):
            raise ValidationError(f"{path}.components.{o}", "component ill-typed")
    for mor, (a, b) in m.base.morphisms.items():
        t_a, t_b = m.table_at(a), m.table_at(b)
        s, d = m.src.act[mor].table, m.dst.act[mor].table
        for x in range(m.src.at[b].size):
            if t_a[s[x]] != d[t_b[x]]:
                raise ValidationError(
                    f"{path}.naturality.{mor}", f"square fails at element {x} of ({b})"
                )


def ref_diagram_validate(diagram, path: str = "generators") -> None:
    shape, arrow_of, square_of = diagram.shape, diagram.arrow_of, diagram.square_of
    for o in shape.objects:
        if o not in arrow_of:
            raise ValidationError(f"{path}.{o}", "missing generator arrow")
    for m in shape.morphisms:
        sq = square_of.get(m)
        if sq is None:
            raise ValidationError(f"{path}.squares.{m}", "missing square")
        if sq.src != arrow_of[shape.src(m)] or sq.dst != arrow_of[shape.dst(m)]:
            raise ValidationError(f"{path}.squares.{m}", "square endpoints wrong")
        sq.validate(f"{path}.squares.{m}")
    for o, i in shape.identities.items():
        arr = arrow_of[o]
        if square_of[i] != Square(
            arr, arr, PresheafMap.identity(arr.dom), PresheafMap.identity(arr.cod)
        ):
            raise ValidationError(f"{path}.squares.{i}", "identity is not the identity square")
    for f in shape.morphisms:
        for g in shape.morphisms:
            if shape.dst(f) != shape.src(g):
                continue
            gf = shape.compose(g, f)
            composed = Square(
                square_of[f].src,
                square_of[g].dst,
                square_of[f].u.then(square_of[g].u),
                square_of[f].v.then(square_of[g].v),
            )
            if square_of[gf] != composed:
                raise ValidationError(f"{path}.squares.{gf}", "functoriality fails on composite")
