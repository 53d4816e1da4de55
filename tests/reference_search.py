"""Test-only reference for hom search: the forward-checking search that
`core.search_maps` ran before it propagated singletons.

One variable per element, in base-object order and then element order, each
tried in ascending order.  An assignment narrows only the later variables
that share a naturality equation with it, one equation ahead; every leaf
rebuilds its free tail as a list.  Maps come out in lexicographic table
order, as from `core.search_maps`.
"""

from awfs_forge.core import Presheaf, PresheafMap


def reference_search_maps(src: Presheaf, dst: Presheaf, allowed=None) -> tuple[PresheafMap, ...]:
    """Every natural transformation src -> dst whose value at each element x of
    src(o) lies in `allowed(o, x)`, an iterable of elements of dst(o) (all of
    them when `allowed` is None), in lexicographic table order.

    One variable per element, in base-object order and then element order,
    tried in ascending order.  Naturality at m: a -> b is a binary constraint
    value(a, src.act[m][x]) == dst.act[m][value(b, x)] for each x in src(b);
    each assignment prunes the domains of the later variables it constrains
    (forward checking), and a branch that empties one is cut.
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
    # forward[i]: (j, table, forces) for each later variable j that variable i
    # constrains; `forces` when value(j) == table[value(i)], else when
    # table[value(j)] == value(i).
    forward: list[list[tuple[int, tuple[int, ...], bool]]] = [[] for _ in cells]
    identities = set(base.identities.values())
    for m, (a, b) in base.morphisms.items():
        if m in identities:
            continue
        d = dst.act[m].table
        for x, y in enumerate(src.act[m].table):
            i, j = spans[b][0] + x, spans[a][0] + y
            if i == j:
                domains[i] = tuple(v for v in domains[i] if d[v] == v)
            elif i < j:
                forward[i].append((j, d, True))
            else:
                forward[j].append((i, d, False))
    if not all(domains):
        return ()

    # from `free` on no variable constrains a later one, so their domains stay
    # fixed there and every combination of them is a solution
    free = n
    while free and not forward[free - 1]:
        free -= 1
    value = [0] * free
    bounds = list(spans.values())
    maps: list[PresheafMap] = []

    def emit() -> None:
        tails = [()]
        for dom in domains[free:]:
            tails = [t + (v,) for t in tails for v in dom]
        head = tuple(value)
        for t in tails:
            row = head + t
            maps.append(PresheafMap(src, dst, tuple([row[lo:hi] for lo, hi in bounds])))

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
        pruned[i] = []
        v = next(untried[i], None)
        if v is None:
            untried.pop()
            pruned.pop()
            continue
        value[i] = v
        for j, d, forces in forward[i]:
            dom = domains[j]
            pruned[i].append((j, dom))
            if forces:
                w = d[v]
                domains[j] = (w,) if w in dom else ()
            else:
                domains[j] = tuple(e for e in dom if d[e] == v)
            if not domains[j]:
                break
        else:
            if i + 1 == free:
                emit()
            else:
                untried.append(iter(domains[i + 1]))
                pruned.append([])
    return tuple(maps)
