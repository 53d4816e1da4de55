"""Test-only reference for the map kernel: natural transformations as a dict
of one checked `FinFunction` per base object, the representation that
`core.PresheafMap` held before it became a tuple of tables.

Each function returns the components of a kernel result, built one base
object at a time with `FinFunction`'s own composition and range check, so a
table that does not fit its endpoints raises here.
"""

from awfs_forge.core import (
    FinFunction,
    FinSet,
    FiniteCategory,
    Presheaf,
    PresheafMap,
    ValidationError,
    _identity_json,
    expect_object,
    expect_table,
)

Components = dict[str, FinFunction]


def components(m: PresheafMap) -> Components:
    """A map's components, each range-checked against its endpoints."""
    return {
        o: FinFunction(m.src.at[o], m.dst.at[o], t) for o, t in zip(m.base.objects, m.tables)
    }


def ref_then(f: PresheafMap, g: PresheafMap) -> Components:
    cf, cg = components(f), components(g)
    return {o: cf[o].then(cg[o]) for o in f.base.objects}


def ref_identity(p: Presheaf) -> Components:
    return {o: FinFunction.identity(p.at[o]) for o in p.base.objects}


def ref_eq_witness(m1: PresheafMap, m2: PresheafMap):
    """`core.eq_witness` as it was before it compared whole tables: a type
    witness for different endpoints, else a walk over every element that
    names the first difference, else None."""
    if m1.src != m2.src or m1.dst != m2.dst:
        return {"object": "<type>", "element": -1, "lhs": _identity_json(m1), "rhs": _identity_json(m2)}
    c1, c2 = components(m1), components(m2)
    for o in m1.base.objects:
        for x in range(m1.src.at[o].size):
            if c1[o](x) != c2[o](x):
                return {"object": o, "element": x, "lhs": c1[o](x), "rhs": c2[o](x)}
    return None


def ref_retarget(m: PresheafMap, dst: Presheaf) -> Components:
    return {o: FinFunction(m.src.at[o], dst.at[o], fn.table) for o, fn in components(m).items()}


def ref_glue(target: Presheaf, dst: Presheaf, parts) -> Components:
    """The map out of `target` that is `value` along `leg` for each part;
    None when two parts disagree or an element is reached by no leg."""
    out = {}
    for o in target.base.objects:
        table: dict[int, int] = {}
        for leg, value in parts:
            lf, vf = components(leg)[o], components(value)[o]
            for x in range(leg.src.at[o].size):
                if table.setdefault(lf(x), vf(x)) != vf(x):
                    return None
        if sorted(table) != list(range(target.at[o].size)):
            return None
        out[o] = FinFunction(target.at[o], dst.at[o], tuple(table[y] for y in sorted(table)))
    return out


def ref_coproduct_legs(parts: list[Presheaf]) -> list[Components]:
    """The legs of the disjoint union, parts laid end to end in input order."""
    base = parts[0].base
    total = {o: sum(p.at[o].size for p in parts) for o in base.objects}
    legs, offset = [], {o: 0 for o in base.objects}
    for p in parts:
        leg = {}
        for o in base.objects:
            n = p.at[o].size
            leg[o] = FinFunction(p.at[o], FinSet(total[o]), tuple(range(offset[o], offset[o] + n)))
            offset[o] += n
        legs.append(leg)
    return legs


def ref_quotient_tables(x: Presheaf, relations) -> dict[str, tuple[int, ...]]:
    """Per base object, each element's class under the equivalence that the
    relations generate, classes numbered by their smallest member."""
    out = {}
    for o in x.base.objects:
        cls = list(range(x.at[o].size))  # each element's class, as a member
        for alpha, beta in relations:
            for s in range(alpha.src.at[o].size):
                a, b = cls[components(alpha)[o](s)], cls[components(beta)[o](s)]
                cls = [min(a, b) if c in (a, b) else c for c in cls]
        firsts = sorted(set(cls))
        out[o] = tuple(firsts.index(c) for c in cls)
    return out


def expect_components(value, base: FiniteCategory, path: str) -> dict[str, tuple[int, ...]]:
    """`value` as per-object tables if it is a JSON object whose keys are
    objects of `base` and whose values are tables, else a ValidationError
    under `path`."""
    tables = {}
    for o, t in expect_object(value, path).items():
        if o not in base._position:
            raise ValidationError(f"{path}.{o}", "unknown base object")
        tables[o] = expect_table(t, f"{path}.{o}")
    return tables


def ref_pooled_map(src: Presheaf, dst: Presheaf, value, where: str) -> PresheafMap:
    """A map read from JSON components by three calls, the way the package
    read them before `PresheafMap.from_json` read each table once:
    `expect_components`, then `PresheafMap.from_tables` (one range-checked
    `FinFunction` per base object), then `check_naturality`.  Endpoints over
    different bases are refused first, and a missing or ill-fitting table is
    located at `where.components.<o>`, as `from_json` locates them."""
    if src.base != dst.base:
        raise ValidationError(where, "source and target live over different bases")
    path = f"{where}.components"
    tables = expect_components(value, src.base, path)
    for o in src.base.objects:
        if o not in tables:
            raise ValidationError(f"{path}.{o}", "missing object")
        try:
            FinFunction(src.at[o], dst.at[o], tables[o])
        except ValidationError as exc:
            raise ValidationError(f"{path}.{o}", exc.message) from None
    m = PresheafMap.from_tables(src, dst, tables)
    m.check_naturality(where)
    return m
