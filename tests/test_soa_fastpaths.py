"""Differential tests of the small object argument's fast paths, under both
variants: the fill rule against the walk-down reference in
`reference_fill.py`, the new-squares search against the filtered full
enumeration, and appended stages against the colimit reference in
`reference_stage.py`.  Guards keep `core.factor_through`, the colimits and
all but the first stage's full square enumeration out of the stage loop, and
count the engines that one command builds."""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awfs_forge import core, soa, verifier
from awfs_forge.arrows import ArrowObject
from awfs_forge.cli import main
from awfs_forge.core import (
    FiniteCategory,
    FinFunction,
    FinSet,
    Presheaf,
    PresheafMap,
    all_maps,
    factor_through,
)
from awfs_forge.fixtures import finmap, fixture
from awfs_forge.lifting import GeneratorDiagram, enumerate_new_squares, enumerate_squares
from awfs_forge.soa import GeneratedAwfs, MonicityViolation, NonConvergence, _bounded, run_soa
from reference_fill import reference_fill
from reference_stage import reference_stage

FIXTURES = ("FIX-M", "FIX-G", "FIX-PROJ", "FIX-PW")


def _factor_all(gen, arrows):
    """Every record the arrows' factorizations and comultiplications make."""
    for f in arrows:
        try:
            gen.delta(f)
        except (NonConvergence, MonicityViolation):
            pass
    return list(gen.records.values())


@pytest.fixture(scope="module")
def records():
    """(label, engine, record) for every record that factoring and δ of each
    named arrow make, under each generator set of each fixture and each
    variant."""
    out = []
    for name in FIXTURES:
        inst = fixture(name)
        for gname, diagram in inst.generators.items():
            base = next(iter(diagram.arrow_of.values())).base
            arrows = [ArrowObject(m) for m in inst.maps.values() if m.base == base]
            for variant in ("monic", "standard"):
                gen = run_soa(diagram, variant=variant)
                label = f"{name}.{gname}.{variant}"
                out += [(label, gen, rec) for rec in _factor_all(gen, arrows)]
    return out


def _stage_squares(gen, rec):
    """(k, u) for the top edge u of every square into r_k, k >= 1."""
    for k in range(1, len(rec.stages)):
        r_k = ArrowObject(rec.rmaps[k])
        for j in gen.diagram.arrow_of.values():
            for sq in enumerate_squares(j, r_k):
                yield k, sq.u


def test_monic_stage_inclusions_are_prefixes(records):
    assert len({label for label, _, _ in records}) == 14
    for label, _, rec in records:
        for incl in rec.inclusions:
            assert incl.tables == tuple(tuple(range(n)) for n in incl.src.sizes), label


def test_size_check_agrees_with_factor_through_on_squares(records):
    checked = 0
    for label, gen, rec in records:
        for k, u in _stage_squares(gen, rec):
            incl = rec.inclusions[k - 1]
            assert _bounded(u, rec.stages[k - 1]) == (factor_through(u, incl) is not None), label
            checked += 1
    assert checked > 100


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_size_check_agrees_with_factor_through_on_any_tables(records, data):
    # indices, not records, are drawn: a record's repr is long
    i = data.draw(st.sampled_from([i for i, r in enumerate(records) if r[2].inclusions]))
    _, gen, rec = records[i]
    k = data.draw(st.integers(1, len(rec.stages) - 1))
    dst = rec.stages[k]
    sources = [j.dom for j in gen.diagram.arrow_of.values()]
    src = sources[data.draw(st.integers(0, len(sources) - 1))]
    if any(n and not k_o for n, k_o in zip(src.sizes, dst.sizes)):
        return  # no table fits: src(o) nonempty, dst(o) empty
    tables = {
        o: data.draw(st.lists(st.integers(0, max(k_o - 1, 0)), min_size=n, max_size=n))
        for o, n, k_o in zip(src.base.objects, src.sizes, dst.sizes)
    }
    u = PresheafMap.from_tables(src, dst, tables)  # not natural: the check reads tables only
    assert _bounded(u, rec.stages[k - 1]) == (factor_through(u, rec.inclusions[k - 1]) is not None)


def test_fill_matches_the_walk_down(records):
    filled = 0
    for label, gen, rec in records:
        rf = ArrowObject(rec.right())
        for jname, j in gen.diagram.arrow_of.items():
            for sq in enumerate_squares(j, rf):
                assert rec.fill(jname, sq) == reference_fill(rec, jname, sq), label
                filled += 1
    assert filled > 100


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(1, 3), st.data())
def test_split_epi_fill_matches_the_walk_down(m, n, data):
    table = data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    gen = run_soa(GeneratorDiagram.discrete({"j": ArrowObject(finmap(0, 1, []))}))
    for rec in _factor_all(gen, [ArrowObject(finmap(m, n, table))]):
        for incl in rec.inclusions:
            assert incl.tables == tuple(tuple(range(k)) for k in incl.src.sizes)
        for k, u in _stage_squares(gen, rec):
            incl = rec.inclusions[k - 1]
            assert _bounded(u, rec.stages[k - 1]) == (factor_through(u, incl) is not None)
        j = gen.diagram.arrow_of["j"]
        for sq in enumerate_squares(j, ArrowObject(rec.right())):
            assert rec.fill("j", sq) == reference_fill(rec, "j", sq)


def _log_calls(monkeypatch, owner, attr, log):
    """Rebind owner.attr to a wrapper that appends each call's arguments to `log`."""
    original = getattr(owner, attr)

    def logged(*args, **kwargs):
        log.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, logged)


def _log_kernel_calls(monkeypatch, name, log):
    """`_log_calls` for core.<name>, wherever the package bound it."""
    original = getattr(core, name)
    for modname, module in list(sys.modules.items()):
        if modname.startswith("awfs_forge") and getattr(module, name, None) is original:
            _log_calls(monkeypatch, module, name, log)


def _table_key(components: dict) -> tuple:
    return tuple(sorted((o, tuple(t)) for o, t in components.items()))


@pytest.mark.parametrize("fx", ["FIX-M", "FIX-G"])
def test_soa_never_calls_factor_through(fx, monkeypatch, tmp_path):
    # nor glues a stage with a colimit, nor lists all squares past stage 1
    kernel = {name: [] for name in ("factor_through", "coproduct", "quotient_presheaf")}
    for name, log in kernel.items():
        _log_kernel_calls(monkeypatch, name, log)
    factoring, loop_squares, verified_squares = [], [], []
    _log_calls(monkeypatch, GeneratedAwfs, "_compute_record", factoring)
    enumerate_all = soa.enumerate_squares

    def in_loop(j, g):
        loop_squares.append((factoring[-1][1], g))  # (arrow being factored, target)
        return enumerate_all(j, g)

    monkeypatch.setattr(soa, "enumerate_squares", in_loop)
    _log_calls(monkeypatch, verifier, "enumerate_squares", verified_squares)
    _log_calls(monkeypatch, verifier, "enumerate_new_squares", verified_squares)
    for variant in ("monic", "standard"):
        out = tmp_path / f"{variant}.json"
        assert main(["soa", "--fixture", fx, "--variant", variant, "--out", str(out)]) == 0
        assert kernel == {name: [] for name in kernel}
        # stage 1 only: the squares into r_0, which is the arrow itself
        assert loop_squares and all(f == g for f, g in loop_squares)
        # positive controls: the verifier factors through inclusions and
        # searches squares into every r_k (past stage 1, the new ones alone)
        assert main(["verify-cert", "--fixture", fx, str(out)]) == 0
        assert kernel["factor_through"]
        payload = json.loads(out.read_text(encoding="utf-8"))["payload"]
        rmaps = {
            _table_key(payload["maps"][key]["components"])
            for entry in payload["arrows"].values()
            for key in entry["rmaps"]
        }
        assert len(rmaps) > len(payload["arrows"])
        assert rmaps <= {_table_key(args[1].f.table_json()) for args in verified_squares}
        for log in (*kernel.values(), factoring, loop_squares, verified_squares):
            log.clear()


@pytest.mark.parametrize(
    "argv, engines",
    [
        (["quillen-check", "--fixture", "FIX-G", "--adjunction", "ident"], 2),
        (["transport", "--fixture", "FIX-G", "--adjunction", "ident"], 1),
        (["quillen-check", "--fixture", "FIX-PROJ", "--adjunction", "lan"], 2),
        (["model", "--fixture", "FIX-PROJ"], 2),
    ],
)
def test_one_engine_per_distinct_generator_diagram(argv, engines, monkeypatch, tmp_path):
    # model keeps an engine per generator set: its certificate lists each one's records
    built = []
    _log_calls(monkeypatch, GeneratedAwfs, "__init__", built)
    assert main(argv + ["--out", str(tmp_path / "cert.json")]) == 0
    assert len(built) == engines


# -- new squares ------------------------------------------------------------------


def _prefix(p):
    """The elements of a prefix sub-presheaf, per base object."""
    return [range(n) for n in p.sizes]


def _filtered_squares(j, g, old):
    """The squares j => g whose top edge takes a value outside `old`."""
    return tuple(
        sq
        for sq in enumerate_squares(j, g)
        if any(v not in kept for t, kept in zip(sq.u.tables, old) for v in t)
    )


def test_new_squares_match_the_filtered_enumeration(records):
    found = 0
    for label, gen, rec in records:
        for k in range(1, len(rec.stages)):
            g, old = ArrowObject(rec.rmaps[k]), _prefix(rec.stages[k - 1])
            for j in gen.diagram.arrow_of.values():
                new = enumerate_new_squares(j, g, old)
                assert new == _filtered_squares(j, g, old), (label, k)
                found += len(new)
    assert found > 50


@st.composite
def _presheaves(draw, base, extend=None, wide=False):
    """A presheaf on a base without composites; given `extend`, one of which
    it is a prefix sub-presheaf (its elements keep their actions).  A `wide`
    one has 11 or 12 more elements at one base object, past where the repr
    order of `square_key` leaves numeric order ("[10]" < "[2]")."""
    old = extend.sizes if extend is not None else (0,) * len(base.objects)
    grow = {o: draw(st.integers(0, 2)) for o in base.objects}
    if wide:
        grow[draw(st.sampled_from(base.objects))] = draw(st.integers(11, 12))
    sizes = {o: k + grow[o] for o, k in zip(base.objects, old)}
    arrows = [(m, *base.morphisms[m]) for m in base.nonidentity_morphisms()]
    for m, a, b in arrows:
        if sizes[b] and not sizes[a]:
            sizes[a] = 1  # every element at b needs an image at a
    act = {}
    for m, a, b in arrows:
        kept = extend.act[m].table if extend is not None else ()
        fresh = [draw(st.integers(0, sizes[a] - 1)) for _ in range(sizes[b] - len(kept))]
        act[m] = FinFunction(FinSet(sizes[b]), FinSet(sizes[a]), kept + tuple(fresh))
    return Presheaf(base, sizes, act)


def _arrow_into(data, src, target):
    """A drawn map src -> target, as an arrow, or None when there is none."""
    homs = all_maps(src, target)
    return ArrowObject(homs[data.draw(st.integers(0, len(homs) - 1))]) if homs else None


BASES = [FiniteCategory.point(), FiniteCategory.graph_base(), FiniteCategory.walking_arrow()]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BASES[1:]), st.data())
def test_new_squares_match_on_drawn_prefixes(base, data):
    old = data.draw(_presheaves(base))
    dst = data.draw(_presheaves(base, extend=old))
    # with a terminal summand, b and c receive maps from every presheaf
    a, b, c = (data.draw(_presheaves(base)) for _ in range(3))
    b, c = (core.coproduct([p, Presheaf.terminal(base)]).apex for p in (b, c))
    j, g = _arrow_into(data, a, b), _arrow_into(data, dst, c)
    # the drawn prefix, the empty one, and the whole domain
    for prefix in (old, Presheaf.empty(base), dst):
        got = enumerate_new_squares(j, g, _prefix(prefix))
        assert got == _filtered_squares(j, g, _prefix(prefix))
    assert enumerate_new_squares(j, g, _prefix(dst)) == ()
    if a.total_size:
        assert enumerate_new_squares(j, g, _prefix(Presheaf.empty(base))) == enumerate_squares(j, g)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BASES), st.data())
def test_new_squares_match_outside_any_element_sets(base, data):
    # old elements need not form a prefix, nor a sub-presheaf, and the target
    # is wide enough for the canonical order to differ from numeric order
    dst = data.draw(_presheaves(base, wide=True))
    a, b = (data.draw(_presheaves(base)) for _ in range(2))
    b = core.coproduct([b, Presheaf.terminal(base)]).apex
    j = _arrow_into(data, a, b)
    to_point = PresheafMap(dst, Presheaf.terminal(base), tuple((0,) * n for n in dst.sizes))
    g = ArrowObject(data.draw(st.sampled_from([to_point, PresheafMap.identity(dst)])))
    old = [data.draw(st.sets(st.integers(0, n - 1))) if n else set() for n in dst.sizes]
    assert enumerate_new_squares(j, g, old) == _filtered_squares(j, g, old)


def test_new_squares_keep_the_canonical_order_past_ten():
    # u's values leave {0, 2, 5} at 1, 3, 4, 6, ..., 11, and "[10]" < "[11]" < "[1]"
    j = ArrowObject(finmap(1, 1, [0]))
    g = ArrowObject(finmap(12, 1, [0] * 12))
    tops = [sq.u.tables[0][0] for sq in enumerate_new_squares(j, g, [{0, 2, 5}])]
    assert tops == [10, 11, 1, 3, 4, 6, 7, 8, 9]


# -- appended stages --------------------------------------------------------------


def _stage_inputs(rec, k):
    """What the stage loop hands the builder at stage k of a finished record."""
    cell_index = {key: c for key, c in rec.cell_index.items() if c.stage < k}
    attached = [(c.jname, c.square) for c in rec.cells_by_stage[k]]
    return rec.stages[:k], rec.rmaps[:k], cell_index, attached


def test_appended_stages_match_the_colimit(records):
    built = 0
    for label, gen, rec in records:
        for k in range(1, len(rec.stages)):
            args = _stage_inputs(rec, k)
            got = gen._build_stage(k, *args)
            assert got == reference_stage(gen, *args), (label, k)
            assert got == (
                rec.stages[k],
                rec.inclusions[k - 1],
                [c.injection for c in rec.cells_by_stage[k]],
                rec.rmaps[k],
            ), (label, k)
            built += 1
    assert built > 30
