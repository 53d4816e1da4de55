import pytest

from awfs_forge.arrows import ArrowObject, Square, verify_awfs
from awfs_forge.core import PresheafMap, eq_witness
from awfs_forge.fixtures import FIXTURE_NAMES, finmap, finset, fixture
from awfs_forge.lifting import (
    GeneratorDiagram,
    check_coalgebra_laws,
    check_lifting_function,
    enumerate_squares,
    oracle_lift,
)
from awfs_forge.soa import (
    MonicityViolation,
    NonConvergence,
    lifting_function_to_algebra,
    run_soa,
)
from reference_fill import factor_through
from reference_stage import converged, reference_stage

E01 = ArrowObject(finmap(0, 1, []))
F21 = ArrowObject(finmap(2, 1, [0, 0]))
ID1 = ArrowObject(finmap(1, 1, [0]))


def split_epi_gen(**kw):
    return run_soa(GeneratorDiagram.discrete({"j": E01}), **kw)


# -- the first stage -------------------------------------------------------------


def test_divergent_generator_first_stage():
    # j: 1 -> 2 has one square into ID1, whose cell glues cod j on at its image
    jdiv = ArrowObject(finmap(1, 2, [0]))
    gen = run_soa(GeneratorDiagram.discrete({"j": jdiv}))
    attached = [("j", sq) for sq in enumerate_squares(jdiv, ID1)]
    args = [ID1.dom], [ID1.f], {}, attached
    got = gen._build_stage(1, *args)
    assert got == reference_stage(gen, *args)
    stage, iota, _, r = got
    assert iota.components["*"].table == (0,)
    assert stage == finset(2)
    assert r.components["*"].table == (0, 0)


def _first_stage(gen, f, jnames=None):
    """Stage 1 of f's record, built from every square of the generators into
    f, checked against `reference_stage`."""
    names = gen.diagram.objects() if jnames is None else jnames
    attached = [(j, sq) for j in names for sq in enumerate_squares(gen.diagram.arrow_of[j], f)]
    args = [f.dom], [f.f], {}, attached
    got = gen._build_stage(1, *args)
    assert got == reference_stage(gen, *args)
    return got


def test_first_stage_with_no_cells_is_the_identity():
    stage, iota, injections, r = _first_stage(run_soa(GeneratorDiagram.discrete({})), F21)
    assert stage == F21.dom and injections == []
    assert iota == PresheafMap.identity(F21.dom)
    assert r == F21.f


def test_empty_generators_attach_no_cells():
    rec = run_soa(GeneratorDiagram.discrete({})).record(F21)
    assert rec.stages == [F21.dom] and rec.cells == []
    assert rec.left() == PresheafMap.identity(F21.dom)


def test_split_epi_has_one_square_into_f21():
    # the single point of cod F21 is the one square, so one cell attaches
    (sq,) = enumerate_squares(E01, F21)
    sq.validate()
    assert sq.v.components["*"].table == (0,)
    _, _, (injection,), _ = _first_stage(split_epi_gen(), F21)
    assert injection.components["*"].table == (2,)


def test_split_epi_first_stage():
    stage, iota, _, r = _first_stage(split_epi_gen(), F21)
    assert iota.components["*"].table == (0, 1)
    assert stage == finset(3)
    assert r.components["*"].table == (0, 0, 0)


def test_first_stage_is_the_first_stage_of_run():
    gen = split_epi_gen()
    stage, iota, _, r = _first_stage(gen, F21)
    rec = gen.record(F21)
    assert (rec.stages[1], rec.inclusions[0], rec.rmaps[1]) == (stage, iota, r)


def test_discrete_first_stage_is_a_coproduct_of_cells():
    # empty domains glue nothing: |cod f| cells of a, |cod f|^2 cells of b
    j2 = ArrowObject(finmap(0, 2, []))
    gen = run_soa(GeneratorDiagram.discrete({"a": E01, "b": j2}))
    f = ArrowObject(finmap(0, 2, []))
    stage, _, injections, _ = _first_stage(gen, f)
    assert len(injections) == 2 + 4
    assert stage.total_size == 2 * 1 + 4 * 2


def test_first_stage_cells_of_the_graph_fixture_commute(fixg, fixg_gen):
    f = ArrowObject(fixg.maps["f_vp"])
    squares = enumerate_squares(fixg_gen.diagram.arrow_of["jv"], f)
    assert squares
    for sq in squares:
        sq.validate()
    stage, _, _, r = _first_stage(fixg_gen, f)
    rec = fixg_gen.record(f)
    assert (rec.stages[1], rec.rmaps[1]) == (stage, r)


# -- run_soa ----------------------------------------------------------------------


def test_split_epi_converges_stage_one():
    gen = split_epi_gen()
    for m, n, table in [(2, 1, [0, 0]), (1, 1, [0]), (4, 2, [0, 1, 0, 1]), (0, 3, [])]:
        rec = gen.record(finmap(m, n, table))
        assert converged(gen, rec)
        assert len(rec.stages) == 2
        assert rec.mid() == finset(m + n)


def test_divergence_trace():
    gen = split_epi_gen()
    gen_div = run_soa(GeneratorDiagram.discrete({"j": ArrowObject(finmap(1, 2, [0]))}), max_steps=10)
    with pytest.raises(NonConvergence) as err:
        gen_div.record(ID1)
    assert err.value.trace == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]


def test_monicity_violation_on_noninjective_generator():
    with pytest.raises(MonicityViolation):
        run_soa(GeneratorDiagram.discrete({"j": F21}), variant="monic")


def test_graph_convergence_bound(fixg, fixg_gen):
    # new vertices sit strictly deeper along the acyclic target's order
    f = ArrowObject(fixg.maps["f_vp"])
    rec = fixg_gen.record(f)
    longest_path = 2  # the bundled path graph has two consecutive edges
    assert converged(fixg_gen, rec) and len(rec.stages) - 1 <= longest_path + 1


# -- free structures ---------------------------------------------------------------


def test_free_lifting_function_fill_is_attached_cell(fixm_gen):
    lf = fixm_gen.free_lifting_function(F21)
    rf = ArrowObject(fixm_gen.record(F21).right())
    sq = enumerate_squares(E01, rf)[0]
    assert lf.phi("j", sq).components["*"].table == (2,)


def test_free_lifting_function_is_tabulated_once_and_read_only(fixm_gen):
    # μ, δ and the certificates share one table per arrow, so none may edit it
    lf = fixm_gen.free_lifting_function(F21)
    assert fixm_gen.free_lifting_function(F21.f) is lf
    assert fixm_gen.free_lifting_function(ArrowObject(finmap(2, 1, [0, 0]))) is lf
    key, fill = next(iter(lf.fills.items()))
    with pytest.raises(TypeError):
        lf.fills[key] = fill
    with pytest.raises(TypeError):
        del lf.fills[key]
    fixm_gen.mu(F21)
    fixm_gen.delta(F21)
    assert fixm_gen.free_lifting_function(F21) is lf and lf.fills[key] is fill


def test_degenerate_identity_generator():
    ide = ArrowObject(finmap(0, 0, []))
    gen = run_soa(GeneratorDiagram.discrete({"j": ide}))
    rec = gen.record(F21)
    assert converged(gen, rec)
    lf = gen.free_lifting_function(F21)
    assert check_lifting_function(gen.diagram, lf).passed


def test_graph_fills_minimal_stage_unique(fixg, fixg_gen):
    gen = fixg_gen
    f = ArrowObject(fixg.maps["f_vp"])
    lf = gen.free_lifting_function(f)
    assert check_lifting_function(gen.diagram, lf).passed
    rec = gen.record(f)
    rf = ArrowObject(rec.right())
    jv = gen.diagram.arrow_of["jv"]
    for sq in enumerate_squares(jv, rf):
        fill = lf.phi("jv", sq)
        fillers = oracle_lift(jv, rf, sq)
        assert any(fill == w for w in fillers)


def test_round_trip_equals_mu(fixm_gen):
    for arrow in (F21, ID1, ArrowObject(finmap(3, 2, [0, 0, 1]))):
        lf = fixm_gen.free_lifting_function(arrow)
        alg = lifting_function_to_algebra(fixm_gen, lf)
        assert eq_witness(alg.t, fixm_gen.mu(arrow)) is None


def test_split_epi_algebra_collapse(fixm_gen):
    from awfs_forge.lifting import LiftingFunction

    g31 = ArrowObject(finmap(3, 1, [0, 0, 0]))
    lf = LiftingFunction.tabulate(
        fixm_gen.diagram, g31, lambda jn, sq: finmap(1, 3, [0])
    )
    alg = lifting_function_to_algebra(fixm_gen, lf)
    assert alg.t.components["*"].table == (0, 1, 2, 0)


def test_empty_cell_arrow_algebra_is_identity(fixm_gen):
    ide = ArrowObject(finmap(0, 0, []))
    from awfs_forge.lifting import LiftingFunction

    lf = LiftingFunction.tabulate(fixm_gen.diagram, ide, lambda jn, sq: None)
    alg = lifting_function_to_algebra(fixm_gen, lf)
    assert alg.t == PresheafMap.identity(ide.dom)


def test_lambda_is_comonad_coalgebra(fixm_gen, fixg_gen):
    assert check_coalgebra_laws(fixm_gen.lam("j"), fixm_gen.as_awfs()).passed
    assert check_coalgebra_laws(fixg_gen.lam("jv"), fixg_gen.as_awfs()).passed


def test_delta_empty_generators_is_identity():
    gen = run_soa(GeneratorDiagram.discrete({}))
    assert gen.delta(F21) == PresheafMap.identity(F21.dom)


def test_delta_satisfies_laws(fixm_gen, fixg, fixg_gen):
    assert verify_awfs(fixm_gen.as_awfs(), [F21]).passed
    f = ArrowObject(fixg.maps["f_vp"])
    assert verify_awfs(fixg_gen.as_awfs(), [f]).passed


def test_underlying_wfs_sanity(fixm_gen):
    # Lf lifts against every constructed algebra; Rf carries a lifting function
    for arrow in (F21, ID1):
        rec = fixm_gen.record(arrow)
        larr = ArrowObject(rec.left())
        alg = fixm_gen.free_algebra(arrow)
        for sq in enumerate_squares(larr, alg.g):
            assert oracle_lift(larr, alg.g, sq)
        lf = fixm_gen.free_lifting_function(arrow)
        assert check_lifting_function(fixm_gen.diagram, lf).passed


def test_convergence_certificate(fixm_gen):
    rec = fixm_gen.record(F21)
    rf = ArrowObject(rec.right())
    for jname in fixm_gen.diagram.objects():
        j = fixm_gen.diagram.arrow_of[jname]
        for sq in enumerate_squares(j, rf):
            assert factor_through(sq.u, rec.inclusions[-1]) is not None


# -- standard variant ---------------------------------------------------------------


def _same_records(gen_m, gen_s, f) -> bool:
    """Whether both variants build the same stages, inclusions, right maps and
    cells for f; False when the monic variant does not converge."""
    try:
        a = gen_m.record(f)
    except NonConvergence:
        return False
    b = gen_s.record(f)
    assert (a.stages, a.inclusions, a.rmaps, a.cells) == (b.stages, b.inclusions, b.rmaps, b.cells)
    return True


def test_standard_variant_agrees_on_monic_fixtures():
    gen_m = split_epi_gen()
    gen_s = split_epi_gen(variant="standard")
    for m, n, table in [(2, 1, [0, 0]), (1, 1, [0]), (0, 1, []), (3, 2, [0, 0, 1])]:
        assert _same_records(gen_m, gen_s, ArrowObject(finmap(m, n, table)))
    compared = 0
    for name in FIXTURE_NAMES:
        inst = fixture(name)
        for diagram in inst.generators.values():
            gm = run_soa(diagram, max_steps=8)
            gs = run_soa(diagram, variant="standard", max_steps=8)
            base = next(iter(diagram.arrow_of.values())).base
            for m in inst.maps.values():
                if m.base == base:
                    compared += _same_records(gm, gs, ArrowObject(m))
    assert compared > 20


def test_standard_variant_accepts_noninjective_generators():
    gen = run_soa(GeneratorDiagram.discrete({"j": F21}), variant="standard", max_steps=8)
    fac = gen.factor(ID1)
    assert fac.left.then(fac.right) == ID1.f


# -- nondiscrete shapes ----------------------------------------------------------------


def test_nondiscrete_coend_collapses_copies():
    from awfs_forge.core import FiniteCategory

    shape = FiniteCategory.walking_arrow()
    sq = Square(E01, E01, PresheafMap.identity(E01.dom), PresheafMap.identity(E01.cod))
    diagram = GeneratorDiagram(shape, {"0": E01, "1": E01}, {"a": sq})
    gen = run_soa(diagram)
    fac = gen.factor(F21)
    assert fac.mid == finset(3)  # two isomorphic copies identified by the coend
    assert verify_awfs(gen.as_awfs(), [F21]).passed
    lf = gen.free_lifting_function(F21)
    assert check_lifting_function(diagram, lf).passed
