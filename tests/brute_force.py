"""Test-only reference for hom search: the brute-force enumerator that
`core.all_maps` used before its element-wise search.

Each base object's table is drawn from `product(range(k), repeat=n)` in
`base.objects` order, and naturality is checked against the objects already
chosen, so maps come out in lexicographic table order.
"""

from itertools import product

from awfs_forge.core import Presheaf, PresheafMap


def brute_force_maps(src: Presheaf, dst: Presheaf) -> tuple[PresheafMap, ...]:
    base = src.base
    objs = list(base.objects)
    constraints: dict[str, list[tuple[str, str]]] = {o: [] for o in objs}
    for m, (a, b) in base.morphisms.items():
        if a != b or m != base.identities[a]:
            constraints[b].append((m, a))

    results: list[PresheafMap] = []
    chosen: dict[str, tuple[int, ...]] = {}

    def natural(a: str, b: str, m: str) -> bool:
        # naturality for m: a -> b: comp_a ∘ src.act[m] == dst.act[m] ∘ comp_b
        sa, da = src.act[m].table, dst.act[m].table
        ca, cb = chosen[a], chosen[b]
        return all(ca[sa[x]] == da[cb[x]] for x in range(src.at[b].size))

    def ok_so_far(obj: str) -> bool:
        for m, a in constraints[obj]:
            if a in chosen and not natural(a, obj, m):
                return False
        for o2 in chosen:
            for m, a in constraints[o2]:
                if a == obj and not natural(obj, o2, m):
                    return False
        return True

    def rec(i: int) -> None:
        if i == len(objs):
            results.append(PresheafMap.from_tables(src, dst, chosen))
            return
        o = objs[i]
        n, k = src.at[o].size, dst.at[o].size
        if n > 0 and k == 0:
            return
        for table in product(range(k), repeat=n):
            chosen[o] = table
            if ok_so_far(o):
                rec(i + 1)
            del chosen[o]

    rec(0)
    return tuple(results)
