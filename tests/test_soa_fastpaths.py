"""Differential tests of the small object argument's fast paths, under both
variants, against the walk-down reference in `reference_fill.py`, and a guard
that keeps `core.factor_through` out of the engine."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awfs_forge import core
from awfs_forge.arrows import ArrowObject
from awfs_forge.cli import main
from awfs_forge.core import PresheafMap, factor_through
from awfs_forge.fixtures import finmap, fixture
from awfs_forge.lifting import GeneratorDiagram, enumerate_squares
from awfs_forge.soa import MonicityViolation, NonConvergence, _bounded, run_soa
from reference_fill import reference_fill

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
                assert gen.free_fill(rec.f, jname, sq) == reference_fill(rec, jname, sq), label
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
            assert gen.free_fill(rec.f, "j", sq) == reference_fill(rec, "j", sq)


@pytest.fixture
def factor_through_calls(monkeypatch):
    """Counts calls of core.factor_through, wherever the package bound it."""
    calls = []
    original = core.factor_through

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("awfs_forge") and getattr(module, "factor_through", None) is original:
            monkeypatch.setattr(module, "factor_through", counting)
    return calls


@pytest.mark.parametrize("fx", ["FIX-M", "FIX-G"])
def test_soa_never_calls_factor_through(fx, factor_through_calls, tmp_path):
    for variant in ("monic", "standard"):
        out = tmp_path / f"{variant}.json"
        assert main(["soa", "--fixture", fx, "--variant", variant, "--out", str(out)]) == 0
        assert factor_through_calls == []
        # positive control: the verifier still factors through inclusions
        assert main(["verify-cert", "--fixture", fx, str(out)]) == 0
        assert factor_through_calls
        factor_through_calls.clear()
