from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awfs_forge.arrows import ArrowObject, Square
from awfs_forge.core import PresheafMap, all_maps, eq_witness
from awfs_forge.fixtures import finmap, finset, fixture, graph
from awfs_forge.lifting import (
    AlgebraStructure,
    CoalgebraStructure,
    FillFailure,
    GeneratorDiagram,
    LiftingFunction,
    RetractData,
    check_algebra_laws,
    check_algebra_map,
    check_coalgebra_laws,
    check_lifting_function,
    compose_algebras_free,
    compose_lifting,
    enumerate_squares,
    oracle_lift,
    retract_transfer,
    solve_lift,
    square_key,
)
from awfs_forge.soa import lifting_function_to_algebra, run_soa

E01 = ArrowObject(finmap(0, 1, []))
F21 = ArrowObject(finmap(2, 1, [0, 0]))
ID1 = ArrowObject(finmap(1, 1, [0]))


def split_epi_gen():
    return run_soa(GeneratorDiagram.discrete({"j": E01}))


def oracle_lf(diagram, g):
    """Deterministic lifting function: first oracle filler per square."""
    return LiftingFunction.tabulate(
        diagram, g, lambda jn, sq: oracle_lift(diagram.arrow_of[jn], g, sq)[0]
    )


# -- oracle ------------------------------------------------------------------


def test_oracle_identity_generator():
    sq = Square(ID1, F21, finmap(1, 2, [1]), finmap(1, 1, [0]))
    sq.validate()
    fills = oracle_lift(ID1, F21, sq)
    assert len(fills) >= 1
    assert all(f == sq.u for f in fills)


def test_oracle_fiber_count():
    gen = split_epi_gen()
    rf = ArrowObject(gen.record(F21).right())
    sq = enumerate_squares(E01, rf)[0]
    fills = oracle_lift(E01, rf, sq)
    assert len(fills) == 3  # any preimage of the point


def test_oracle_empty_filler_set():
    j = ArrowObject(finmap(2, 1, [0, 0]))
    g = ArrowObject(finmap(2, 1, [0, 0]))
    sq = Square(j, g, finmap(2, 2, [0, 1]), finmap(1, 1, [0]))
    sq.validate()
    assert oracle_lift(j, g, sq) == []


@lru_cache(maxsize=None)
def _engine(name: str, gname: str):
    return run_soa(fixture(name).generators[gname])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["FIX-M", "FIX-G"]), st.booleans(), st.data())
def test_passing_both_triangles_is_oracle_membership(name, free, data):
    # what the verifier's fill checks rest on: among all natural maps
    # cod j -> dom g, those with j;w = u and w;g = v are exactly the oracle's
    # fillers, for g a free right factor (every square fills) or a named
    # arrow (some squares have no filler)
    inst = fixture(name)
    gname = data.draw(st.sampled_from(sorted(inst.generators)))
    gen = _engine(name, gname)
    j = gen.diagram.arrow_of[data.draw(st.sampled_from(gen.diagram.objects()))]
    f = ArrowObject(inst.maps[data.draw(st.sampled_from(sorted(inst.maps)))])
    g = ArrowObject(gen.factor(f).right) if free else f
    squares = enumerate_squares(j, g)
    if not squares:
        return
    sq = squares[data.draw(st.integers(0, len(squares) - 1))]
    passing = [
        w
        for w in all_maps(j.cod, g.dom)
        if eq_witness(j.f.then(w), sq.u) is None and eq_witness(w.then(g.f), sq.v) is None
    ]
    assert passing == oracle_lift(j, g, sq)


# -- solve_lift ---------------------------------------------------------------


def test_solve_lift_unit_forced_identity():
    gen = split_epi_gen()
    co = gen.free_coalgebra(F21)
    alg = gen.free_algebra(F21)
    fac = gen.factor(F21)
    sq = Square(co.f, alg.g, fac.left, fac.right)
    sq.validate()
    w = solve_lift(co, alg, sq, gen.as_fact())
    assert w == PresheafMap.identity(fac.mid)


def test_solve_lift_hits_attached_cell():
    gen = split_epi_gen()
    lam = gen.lam("j")
    alg = gen.free_algebra(F21)
    sq = enumerate_squares(E01, alg.g)[0]
    w = solve_lift(lam, alg, sq, gen.as_fact())
    assert w.components["*"].table == (2,)
    assert any(w == cand for cand in oracle_lift(E01, alg.g, sq))


def test_solve_lift_graph_fixture_stage_one_edge(fixg, fixg_gen):
    gen = fixg_gen
    lam = gen.lam("jv")
    f_vp = ArrowObject(fixg.maps["f_vp"])
    alg = gen.free_algebra(f_vp)
    jv = gen.diagram.arrow_of["jv"]
    rec = gen.record(f_vp)
    stage1_cells = [c for c in rec.cells if c.stage == 1]
    assert len(stage1_cells) == 1
    sq = stage1_cells[0].square
    # the stage-0 square embeds into Rf's domain; fill = the stage-1 cell
    big = Square(jv, alg.g, sq.u.then(rec.inclusion_range(0, len(rec.stages) - 1)), sq.v)
    w = solve_lift(lam, alg, big, gen.as_fact())
    expected = stage1_cells[0].injection.then(rec.inclusion_range(1, len(rec.stages) - 1))
    assert w == expected
    assert any(w == cand for cand in oracle_lift(jv, alg.g, big))


def test_solve_lift_raises_on_corrupt_structure():
    gen = split_epi_gen()
    alg = AlgebraStructure(F21, finmap(3, 2, [0, 1, 0]))
    bad = CoalgebraStructure(F21, finmap(1, 3, [0]))  # not a section of L
    sq = Square(F21, F21, PresheafMap.identity(F21.dom), PresheafMap.identity(F21.cod))
    with pytest.raises(FillFailure):
        solve_lift(bad, alg, sq, gen.as_fact())


# -- lifting functions ----------------------------------------------------------


def test_check_lifting_function_discrete_coherence_vacuous():
    gen = split_epi_gen()
    g31 = ArrowObject(finmap(3, 1, [0, 0, 0]))
    lf = oracle_lf(gen.diagram, g31)
    report = check_lifting_function(gen.diagram, lf)
    assert report.passed
    assert not any(e.law == "coherence" for e in report.entries)


def test_free_lifting_function_passes(fixm_gen):
    lf = fixm_gen.free_lifting_function(F21)
    assert check_lifting_function(fixm_gen.diagram, lf).passed


@pytest.mark.parametrize("gname", ["J", "I"])
def test_free_algebra_and_free_lifting_function_correspond(gname, fixm):
    # the algebra/lifting-function dictionary, both ways, on every named arrow
    gen = run_soa(fixm.generators[gname])
    for m in fixm.maps.values():
        f = ArrowObject(m)
        alg = gen.free_algebra(f)
        fact = gen.as_fact()
        lf = LiftingFunction.tabulate(
            gen.diagram, alg.g, lambda j, sq: solve_lift(gen.lam(j), alg, sq, fact)
        )
        assert lf.fills == gen.free_lifting_function(f).fills
        assert eq_witness(lifting_function_to_algebra(gen, lf).t, alg.t) is None


def test_nondiscrete_mutation_breaks_coherence():
    pw = fixture("FIX-PW")
    diagram = pw.generators["JA"]
    gen = run_soa(diagram)
    alpha = ArrowObject(pw.maps["alpha1"])
    lf = gen.free_lifting_function(alpha)
    assert check_lifting_function(diagram, lf).passed
    # corrupt one fill of the generator with a nonempty filler set
    key = next(
        k for k in lf.fills if k[0] == "0|j" and lf.fills[k].dst.total_size > 1
    )
    fill = lf.fills[key]
    obj = next(o for o in fill.components if fill.components[o].table)
    tables = {o: list(fn.table) for o, fn in fill.components.items()}
    tables[obj][0] = (tables[obj][0] + 1) % fill.dst.at[obj].size
    corrupted = dict(lf.fills)
    corrupted[key] = PresheafMap.from_tables(fill.src, fill.dst, tables)
    bad = LiftingFunction(diagram, lf.g, corrupted)
    report = check_lifting_function(diagram, bad)
    assert not report.passed
    assert any(e.law == "coherence" for e in report.failures()) or report.failures()


# -- retract transfer -----------------------------------------------------------


def test_retract_transfer_identity():
    gen = split_epi_gen()
    g31 = ArrowObject(finmap(3, 1, [0, 0, 0]))
    lf = oracle_lf(gen.diagram, g31)
    ident = RetractData(
        g31,
        g31,
        PresheafMap.identity(g31.dom),
        PresheafMap.identity(g31.cod),
        PresheafMap.identity(g31.dom),
        PresheafMap.identity(g31.cod),
    )
    out = retract_transfer(lf, ident)
    assert all(out.fills[k] == lf.fills[k] for k in lf.fills)


def test_retract_transfer_formula():
    gen = split_epi_gen()
    g31 = ArrowObject(finmap(3, 1, [0, 0, 0]))
    lf = LiftingFunction.tabulate(gen.diagram, g31, lambda jn, sq: finmap(1, 3, [0]))
    assert check_lifting_function(gen.diagram, lf).passed
    h21 = ArrowObject(finmap(2, 1, [0, 0]))
    retract = RetractData(
        h21,
        g31,
        finmap(2, 3, [0, 1]),
        finmap(1, 1, [0]),
        finmap(3, 2, [0, 1, 0]),
        finmap(1, 1, [0]),
    )
    out = retract_transfer(lf, retract)
    assert check_lifting_function(gen.diagram, out).passed
    sq = enumerate_squares(E01, h21)[0]
    assert out.phi("j", sq).components["*"].table == (0,)


def test_retract_transfer_graph_subgraph(fixg, fixg_gen):
    gen = fixg_gen
    f_vp = ArrowObject(fixg.maps["f_vp"])
    rec = gen.record(f_vp)
    g = ArrowObject(rec.right())
    lf = gen.free_lifting_function(f_vp)
    ident = RetractData(
        g,
        g,
        PresheafMap.identity(g.dom),
        PresheafMap.identity(g.cod),
        PresheafMap.identity(g.dom),
        PresheafMap.identity(g.cod),
    )
    out = retract_transfer(lf, ident)
    assert check_lifting_function(gen.diagram, out).passed


def test_retract_transfer_rejects_bad_data():
    g31 = ArrowObject(finmap(3, 1, [0, 0, 0]))
    h21 = ArrowObject(finmap(2, 1, [0, 0]))
    bad = RetractData(
        h21,
        g31,
        finmap(2, 3, [0, 1]),
        finmap(1, 1, [0]),
        finmap(3, 2, [1, 1, 0]),  # r1∘i1 != id
        finmap(1, 1, [0]),
    )
    with pytest.raises(Exception):
        bad.validate()


# -- composition -----------------------------------------------------------------


def test_compose_lifting_with_identity_agrees():
    gen = split_epi_gen()
    phi = oracle_lf(gen.diagram, F21)
    psi = oracle_lf(gen.diagram, ID1)
    comp, out = compose_lifting((F21, phi), (ID1, psi))
    assert comp.f == F21.f
    for (jn, key), fill in out.fills.items():
        assert fill == phi.fills[(jn, key)]


def test_compose_lifting_formula_point():
    gen = split_epi_gen()
    phi = LiftingFunction.tabulate(gen.diagram, F21, lambda jn, sq: finmap(1, 2, [0]))
    psi = oracle_lf(gen.diagram, ID1)
    comp, out = compose_lifting((F21, phi), (ID1, psi))
    sq = enumerate_squares(E01, comp)[0]
    assert out.phi("j", sq).components["*"].table == (0,)


def test_compose_lifting_associative():
    gen = split_epi_gen()
    f = ArrowObject(finmap(3, 2, [0, 0, 1]))
    g = F21
    h = ID1
    phi, psi, rho = oracle_lf(gen.diagram, f), oracle_lf(gen.diagram, g), oracle_lf(gen.diagram, h)
    left = compose_lifting(compose_lifting((f, phi), (g, psi)), (h, rho))
    right = compose_lifting((f, phi), compose_lifting((g, psi), (h, rho)))
    assert left[0] == right[0]
    assert all(left[1].fills[k] == right[1].fills[k] for k in left[1].fills)


def test_compose_algebras_free_axioms_and_dictionary(fixm_gen):
    gen = fixm_gen
    awfs = gen.as_awfs()
    f = ArrowObject(finmap(3, 2, [0, 0, 1]))
    g = F21
    phi, psi = oracle_lf(gen.diagram, f), oracle_lf(gen.diagram, g)
    a_f = lifting_function_to_algebra(gen, phi)
    a_g = lifting_function_to_algebra(gen, psi)
    assert check_algebra_laws(a_f, awfs).passed
    composite = compose_algebras_free(a_f, a_g, awfs)
    assert check_algebra_laws(composite, awfs).passed
    comp_arrow, comp_lf = compose_lifting((f, phi), (g, psi))
    via_dictionary = lifting_function_to_algebra(gen, comp_lf)
    assert eq_witness(composite.t, via_dictionary.t) is None


def test_identity_algebra_composition(fixm_gen):
    gen = fixm_gen
    awfs = gen.as_awfs()
    psi = oracle_lf(gen.diagram, ID1)
    a_id = lifting_function_to_algebra(gen, psi)
    a_f = lifting_function_to_algebra(gen, oracle_lf(gen.diagram, F21))
    composed = compose_algebras_free(a_f, a_id, awfs)
    assert check_algebra_laws(composed, awfs).passed


# -- algebra maps ------------------------------------------------------------------


def test_check_algebra_map_identity(fixm_gen):
    gen = fixm_gen
    alg = gen.free_algebra(F21)
    sq = Square(alg.g, alg.g, PresheafMap.identity(alg.g.dom), PresheafMap.identity(alg.g.cod))
    assert check_algebra_map(sq, alg, alg, gen.as_fact())


def test_free_algebra_squares_are_algebra_maps(fixm_gen):
    gen = fixm_gen
    f = ArrowObject(finmap(3, 2, [0, 0, 1]))
    g = F21
    for sq in enumerate_squares(f, g):
        e_uv = gen.e_on_square(sq)
        r_sq = Square(
            gen.free_algebra(f).g, gen.free_algebra(g).g, e_uv, sq.v
        )
        assert check_algebra_map(r_sq, gen.free_algebra(f), gen.free_algebra(g), gen.as_fact())


def test_vertical_composites_of_algebra_maps(fixm_gen):
    # composable algebra maps compose to an algebra map
    gen = fixm_gen
    fact = gen.as_fact()
    f = ArrowObject(finmap(3, 2, [0, 0, 1]))
    g = F21
    a_f = lifting_function_to_algebra(gen, oracle_lf(gen.diagram, f))
    a_g = lifting_function_to_algebra(gen, oracle_lf(gen.diagram, g))
    a_fg = compose_algebras_free(a_f, a_g, gen.as_awfs())
    ident_sq_f = Square(f, f, PresheafMap.identity(f.dom), PresheafMap.identity(f.cod))
    ident_sq_g = Square(g, g, PresheafMap.identity(g.dom), PresheafMap.identity(g.cod))
    assert check_algebra_map(ident_sq_f, a_f, a_f, fact)
    assert check_algebra_map(ident_sq_g, a_g, a_g, fact)
    comp = ArrowObject(f.f.then(g.f))
    ident_comp = Square(comp, comp, PresheafMap.identity(comp.dom), PresheafMap.identity(comp.cod))
    assert check_algebra_map(ident_comp, a_fg, a_fg, fact)


# -- soundness property -------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    dom=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_solve_lift_soundness_against_oracle(dom, data):
    gen = split_epi_gen()
    table = data.draw(st.lists(st.integers(0, 0), min_size=dom, max_size=dom))
    g = ArrowObject(finmap(dom, 1, table))
    lam = gen.lam("j")
    alg = gen.free_algebra(g)
    for sq in enumerate_squares(E01, alg.g):
        w = solve_lift(lam, alg, sq, gen.as_fact())
        assert any(w == cand for cand in oracle_lift(E01, alg.g, sq))


def test_retract_characterization_instance_level(fixm, fixm_gen):
    # an arrow admits a pointed-endofunctor algebra structure exactly when it
    # fills against its own left factor, and exactly when the oracle confirms
    # membership in the generators' right class
    gen = fixm_gen
    for name, m in fixm.maps.items():
        g = ArrowObject(m)
        fac = gen.factor(g)
        larr = ArrowObject(fac.left)
        sq = Square(larr, g, PresheafMap.identity(g.dom), fac.right)
        sq.validate()
        fills_own_factor = bool(oracle_lift(larr, g, sq))
        in_rlp = all(
            oracle_lift(E01, g, s) for s in enumerate_squares(E01, g)
        )
        assert fills_own_factor == in_rlp, name


def test_unit_counit_squares_are_valid(fixm_gen):
    for arrow in (F21, ID1, E01):
        fac = fixm_gen.factor(arrow)
        eta = Square(arrow, ArrowObject(fac.right), fac.left, PresheafMap.identity(arrow.cod))
        eps = Square(ArrowObject(fac.left), arrow, PresheafMap.identity(arrow.dom), fac.right)
        eta.validate()
        eps.validate()


def test_vertical_algebra_map_composition_nontrivial(fixm_gen):
    # search genuine (non-identity) vertically composable algebra maps and
    # confirm the composite square is again a map of algebras
    gen = fixm_gen
    fact = gen.as_fact()
    awfs = gen.as_awfs()
    f = ArrowObject(finmap(3, 2, [0, 0, 1]))
    g = F21
    a_f = lifting_function_to_algebra(gen, oracle_lf(gen.diagram, f))
    a_g = lifting_function_to_algebra(gen, oracle_lf(gen.diagram, g))
    a_fg = compose_algebras_free(a_f, a_g, awfs)
    checked = 0
    for top in enumerate_squares(f, f):
        if not check_algebra_map(top, a_f, a_f, fact):
            continue
        for bottom in enumerate_squares(g, g):
            if top.v != bottom.u:
                continue
            if not check_algebra_map(bottom, a_g, a_g, fact):
                continue
            comp = ArrowObject(f.f.then(g.f))
            whole = Square(comp, comp, top.u, bottom.v)
            assert check_algebra_map(whole, a_fg, a_fg, fact)
            checked += 1
    assert checked >= 2  # more than just the identity pairing
