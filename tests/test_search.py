"""Hom search (`core.search_maps`) against the forward-checking search it
replaced and against brute force, with and without `allowed`, and on path and
cycle graphs, whose maps are known in closed form and whose naturality
equations chain from one end of the graph to the other."""

from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from awfs_forge.core import FiniteCategory, PresheafMap, all_maps, search_maps
from awfs_forge.fixtures import graph
from brute_force import brute_force_maps
from reference_search import reference_search_maps
from test_core import IDEMPOTENT, SEARCH_BASES, idempotents, presheaves, small_presheaves

GRAPH = FiniteCategory.graph_base()
MAX_MAPS = 2000


def hom_bound(src, dst) -> int:
    """An upper bound on the maps src -> dst: an element that a non-identity
    morphism reaches from another element takes the value that element's
    value forces.  On SEARCH_BASES no element forces itself round a cycle."""
    base = src.base
    forced = set()
    for m in base.nonidentity_morphisms():
        a, b = base.morphisms[m]
        forced.update((a, y) for x, y in enumerate(src.act[m].table) if (a, y) != (b, x))
    return prod(
        dst.at[o].size for o in base.objects for x in range(src.at[o].size) if (o, x) not in forced
    )


def large_presheaves(base):
    """Up to six elements per object on the graph base, out of brute force's reach."""
    if base is IDEMPOTENT:
        return idempotents(top=6)
    return presheaves(base, top=6 if base == GRAPH else 4)


def draw_allowed(data, src, dst):
    """Per element of src, all of dst's elements or a random subset of them."""
    sets = {}
    for o in src.base.objects:
        every = range(dst.at[o].size)
        for x in range(src.at[o].size):
            mask = data.draw(st.lists(st.booleans(), min_size=len(every), max_size=len(every)))
            restrict = data.draw(st.booleans())
            sets[o, x] = {v for v, keep in zip(every, mask) if keep} if restrict else set(every)
    return lambda o, x: sets[o, x]


def admits(m: PresheafMap, allowed) -> bool:
    return all(
        v in allowed(o, x) for o, t in zip(m.base.objects, m.tables) for x, v in enumerate(t)
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_search_equals_forward_checking_reference(data):
    base = data.draw(st.sampled_from(SEARCH_BASES))
    src, dst = data.draw(large_presheaves(base)), data.draw(large_presheaves(base))
    src.validate()
    dst.validate()
    assume(hom_bound(src, dst) <= MAX_MAPS)
    assert search_maps(src, dst) == reference_search_maps(src, dst)
    allowed = draw_allowed(data, src, dst)
    assert search_maps(src, dst, allowed) == reference_search_maps(src, dst, allowed)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_search_with_allowed_equals_filtered_brute_force(data):
    base = data.draw(st.sampled_from(SEARCH_BASES))
    src, dst = data.draw(small_presheaves(base)), data.draw(small_presheaves(base))
    src.validate()
    dst.validate()
    allowed = draw_allowed(data, src, dst)
    expected = tuple(m for m in brute_force_maps(src, dst) if admits(m, allowed))
    assert search_maps(src, dst, allowed) == expected


def path(n: int):
    return graph(n, n - 1, range(n - 1), range(1, n))


def cycle(n: int):
    return graph(n, n, range(n), [(i + 1) % n for i in range(n)])


def rotations(src, dst, m: int) -> tuple[PresheafMap, ...]:
    """The maps i -> (c + i) mod m on vertices and on edges, c = 0 .. m-1."""
    return tuple(
        PresheafMap.from_tables(
            src, dst, {o: [(c + i) % m for i in range(src.at[o].size)] for o in ("V", "E")}
        )
        for c in range(m)
    )


@pytest.mark.parametrize("n", range(2, 17))
def test_path_to_cycle_maps_are_the_rotations(n):
    assert all_maps(path(n), cycle(n)) == rotations(path(n), cycle(n), n)


def test_cycle_to_cycle_maps_wind_round_a_divisor():
    for n in range(1, 13):
        for m in range(1, 13):
            expected = rotations(cycle(n), cycle(m), m) if n % m == 0 else ()
            assert all_maps(cycle(n), cycle(m)) == expected, (n, m)
