from functools import partial

import pytest

from awfs_forge import lifting, model
from awfs_forge.arrows import ArrowObject
from awfs_forge.core import Presheaf, PresheafMap, ValidationError, eq_witness
from awfs_forge.fixtures import finmap, finset, fixture
from awfs_forge.lifting import (
    GeneratorDiagram,
    LiftingFunction,
    check_coalgebra_laws,
    check_lifting_function,
    enumerate_squares,
    oracle_lift,
)
from awfs_forge.model import (
    ReplacementMonad,
    TauData,
    WeqPredicate,
    bang,
    build_model_structure,
    chi,
    check_replacement_laws,
    coalgebra_from_cellular,
    cobang,
    prune_generators,
    transfer_pruned_lifting,
    two_lift_agreement,
    validate_model_axioms,
    verify_comparison,
)
from awfs_forge.soa import NonConvergence, run_soa
from reference_comparison import reference_xi

F21 = ArrowObject(finmap(2, 1, [0, 0]))
ID1 = ArrowObject(finmap(1, 1, [0]))
E01 = ArrowObject(finmap(0, 1, []))


def test_tau_validation_rejects_mismatched_arrows(fixm):
    J = fixm.generators["J"]
    wrong = GeneratorDiagram.discrete({"i": F21})
    tau = TauData(J, wrong, {"j": "i"})
    with pytest.raises(ValidationError):
        tau.validate()


def test_tau_validation_rejects_non_injective(fixg):
    I = fixg.generators["I"]
    J2 = GeneratorDiagram.discrete(
        {"a": I.arrow_of["iv"], "b": I.arrow_of["iv"]}
    )
    tau = TauData(J2, I, {"a": "iv", "b": "iv"})
    with pytest.raises(ValidationError):
        tau.validate()


def test_cellular_coalgebra_matches_free_delta(fixm_amstr, fixg_amstr, fixg):
    # assembling the left factor stage by stage with zeta = lambda reproduces
    # the free comultiplication, table-exactly
    for amstr, arrows in (
        (fixm_amstr, [F21, ID1]),
        (fixg_amstr, [ArrowObject(fixg.maps["f_vp"])]),
    ):
        gen = amstr.gen
        for f in arrows:
            rec = gen.record(f)
            out = coalgebra_from_cellular(
                gen, lambda jn: gen.lam(jn), rec
            )
            assert eq_witness(out.s, gen.delta(f)) is None


def test_cellular_coalgebra_empty_cell_list(fixm_amstr):
    gen = fixm_amstr.gen
    ide = ArrowObject(finmap(0, 0, []))  # no squares, hence no cells
    rec = gen.record(ide)
    assert rec.cells == []
    out = coalgebra_from_cellular(gen, lambda jn: gen.lam(jn), rec)
    fac = gen.factor(ArrowObject(rec.left()))
    assert out.s == fac.left  # trivial structure: s is the left component


def test_cellular_coalgebra_identity_arrow_equals_delta(fixm_amstr):
    # identities still receive cells under the split-epi generator, and the
    # assembled structure coincides with the free comultiplication
    gen = fixm_amstr.gen
    ide = ArrowObject(finmap(2, 2, [0, 1]))
    rec = gen.record(ide)
    out = coalgebra_from_cellular(gen, lambda jn: gen.lam(jn), rec)
    assert eq_witness(out.s, gen.delta(ide)) is None


def test_cellular_coalgebra_single_pushout(fixg_amstr, fixg):
    # the generator arrow itself attaches exactly one cell at stage one; the
    # assembled structure is the pushout-transported zeta structure
    amstr = fixg_amstr
    gen_t, gen = amstr.gen_t, amstr.gen
    f = ArrowObject(fixg.maps["jv"])
    rec = gen_t.record(f)
    assert len([c for c in rec.cells if c.stage == 1]) == 1
    out = coalgebra_from_cellular(
        gen, lambda jn: gen.lam(amstr.tau.on_objects[jn]), rec
    )
    assert check_coalgebra_laws(out, gen.as_awfs()).passed


def test_build_comparison_bijective_when_generators_coincide(fixm, fixm_amstr):
    for name in ("f21", "id1", "e01", "f32"):
        f = ArrowObject(fixm.maps[name])
        assert fixm_amstr.xi.at(f).is_bijective()


def _model_build(instance, variant):
    """A model structure with everything `model_certificate` computes: ξ and
    the law suites on the named arrows, replacement tables and χ."""
    gen_t = run_soa(instance.generators["J"], variant)
    gen = run_soa(instance.generators["I"], variant)
    amstr = build_model_structure(gen_t, gen, instance.taus["tau"], instance.weq)
    base = next(iter(gen_t.diagram.arrow_of.values())).base
    arrows = [ArrowObject(m) for m in instance.maps.values() if m.base == base]
    verify_comparison(amstr, arrows)
    validate_model_axioms(amstr, arrows)
    rep, objects = ReplacementMonad(amstr), []
    for x in instance.presheaves.values():
        if x.base != base or x.total_size > 3:
            continue
        try:
            rep.r_obj(x)
            rep.q_obj(x)
        except NonConvergence:
            continue
        objects.append(x)
    check_replacement_laws(amstr, objects)
    return amstr


def _xi_or_failure(xi, f):
    try:
        return xi(f)
    except NonConvergence as exc:
        return type(exc)


@pytest.mark.parametrize("variant", ["monic", "standard"])
@pytest.mark.parametrize("name", ["FIX-M", "FIX-G", "FIX-PROJ"])
def test_comparison_matches_the_reference_route(name, variant):
    # ξ cell by cell equals ξ through the cellular coalgebra and solve_lift
    # on every arrow that either engine recorded in a model build; the
    # reference runs on engines of its own
    instance = fixture(name)
    amstr = _model_build(instance, variant)
    ref_t = run_soa(instance.generators["J"], variant)
    ref = run_soa(instance.generators["I"], variant)
    probes = set(amstr.gen_t.records) | set(amstr.gen.records)
    assert len(probes) > 20
    for f in probes:
        got = _xi_or_failure(amstr.xi.at, f)
        want = _xi_or_failure(partial(reference_xi, ref_t, ref, amstr.tau), f)
        if isinstance(got, PresheafMap):
            assert eq_witness(got, want) is None
        else:
            assert got is want


def test_comparison_solves_no_lifting_problem(monkeypatch):
    # a return to the cellular-coalgebra route would call solve_lift once per
    # cell and once per arrow; call counts repeat exactly where times do not
    calls = []
    for module in (lifting, model):
        def counted(*args, real=module.solve_lift):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, "solve_lift", counted)
    instance = fixture("FIX-PROJ")
    gen_t, gen = run_soa(instance.generators["J"]), run_soa(instance.generators["I"])
    amstr = build_model_structure(gen_t, gen, instance.taus["tau"], instance.weq)
    base = gen.diagram.arrow_of["j0"].base
    named = [m for m in instance.maps.values() if m.base == base]
    for m in named:
        amstr.xi.at(m)
    assert len(gen.records) >= len(named) == 5 and calls == []


def test_comparison_passes_morphism_laws(fixm, fixm_amstr, fixg, fixg_amstr):
    arrows = [ArrowObject(m) for m in fixm.maps.values()]
    assert verify_comparison(fixm_amstr, arrows).passed
    arrows_g = [ArrowObject(m) for m in fixg.maps.values()]
    assert verify_comparison(fixg_amstr, arrows_g).passed


def test_comparison_injective_on_graph_fixture(fixg, fixg_amstr):
    # instance-level echo of the cofibration theorem: components of the
    # comparison map are componentwise injective when cofibrations are monos
    for name, m in fixg.maps.items():
        f = ArrowObject(m)
        xi_f = fixg_amstr.xi.at(f)
        assert xi_f.is_injective(), name


def test_comparison_cellular_structure_passes_coalgebra_laws(fixg, fixg_amstr):
    amstr = fixg_amstr
    gen, gen_t = amstr.gen, amstr.gen_t
    for name in ("f_vp", "f_ep"):
        f = ArrowObject(fixg.maps[name])
        rec = gen_t.record(f)
        cellular = coalgebra_from_cellular(
            gen, lambda jn: gen.lam(amstr.tau.on_objects[jn]), rec
        )
        assert check_coalgebra_laws(cellular, gen.as_awfs()).passed


def test_two_lift_agreement_exhaustive(fixm, fixm_amstr):
    amstr = fixm_amstr
    arrows = [ArrowObject(fixm.maps[n]) for n in ("f21", "id1", "e01", "f32")]
    coalgebras = [amstr.gen_t.free_coalgebra(f) for f in arrows]
    coalgebras.append(amstr.gen_t.lam("j"))
    algebras = [amstr.gen.free_algebra(f) for f in arrows]
    for co in coalgebras:
        for alg in algebras:
            for sq in enumerate_squares(co.f, alg.g):
                assert two_lift_agreement(amstr, co, alg, sq) is not None


def test_two_lift_identity_square(fixm_amstr):
    amstr = fixm_amstr
    co = amstr.gen_t.free_coalgebra(ID1)
    alg = amstr.gen.free_algebra(ID1)
    for sq in enumerate_squares(co.f, alg.g):
        assert two_lift_agreement(amstr, co, alg, sq) is not None


# -- replacement -------------------------------------------------------------------


def test_replacement_tables_on_point(fixm_amstr):
    rep = ReplacementMonad(fixm_amstr)
    one = finset(1)
    assert rep.q_obj(one) == finset(1)
    assert rep.r_obj(one) == finset(2)
    c = chi(fixm_amstr, one)
    assert c.src == finset(2) and c.dst == finset(2)
    assert c.is_bijective()
    assert c.components["*"].table == (0, 1)


def test_replacement_tables_on_empty(fixm_amstr):
    rep = ReplacementMonad(fixm_amstr)
    zero = finset(0)
    assert rep.q_obj(zero) == finset(0)
    assert rep.r_obj(zero) == finset(1)
    c = chi(fixm_amstr, zero)
    assert c.src == finset(1) and c.dst == finset(1)
    assert c.components["*"].table == (0,)


def test_replacement_laws_exhaustive(fixm, fixm_amstr):
    objects = [p for p in fixm.presheaves.values() if p.total_size <= 3]
    assert len(objects) == 4
    report = check_replacement_laws(fixm_amstr, objects)
    assert report.passed


def test_chi_is_computed_once_per_model_structure_and_object(fixm):
    # a model structure returns the χ it stored; a fresh one computes an
    # equal χ
    def structure():
        gen_t, gen = run_soa(fixm.generators["J"]), run_soa(fixm.generators["I"])
        return build_model_structure(gen_t, gen, fixm.taus["tau"], fixm.weq)

    amstr = structure()
    objects = [p for p in fixm.presheaves.values() if p.total_size <= 3]
    stored = [chi(amstr, x) for x in objects]
    assert [chi(amstr, x) for x in objects] == stored
    assert all(chi(amstr, x) is c for x, c in zip(objects, stored))
    fresh = structure()
    assert [chi(fresh, x) for x in reversed(objects)] == stored[::-1]


def test_terminal_and_initial_presheaves_are_built_once_per_base(fixm, fixg):
    for x in (*fixm.presheaves.values(), *fixg.presheaves.values()):
        one, zero = Presheaf.terminal(x.base), Presheaf.empty(x.base)
        assert bang(x).dst is one and cobang(x).src is zero
        assert one.sizes == (1,) * len(x.base.objects) and zero.sizes == (0,) * len(x.base.objects)
        one.validate()
        zero.validate()


# -- pruning -----------------------------------------------------------------------


def test_prune_generators_split_epi(fixm, fixm_amstr):
    gen = fixm_amstr.gen
    J = fixm.generators["J"]
    pruned = prune_generators(gen, J)
    (name,) = pruned.diagram.objects()
    cj = pruned.diagram.arrow_of[name]
    assert cj.dom == finset(0) and cj.cod == finset(1)
    assert check_coalgebra_laws(pruned.zeta[name], gen.as_awfs()).passed


def test_pruned_transfer_gives_valid_lifting_function(fixm, fixm_amstr):
    gen = fixm_amstr.gen
    J = fixm.generators["J"]
    pruned = prune_generators(gen, J)
    g31 = ArrowObject(finmap(3, 1, [0, 0, 0]))
    lf = LiftingFunction.tabulate(
        pruned.diagram,
        g31,
        lambda jn, sq: oracle_lift(pruned.diagram.arrow_of[jn], g31, sq)[0],
    )
    out = transfer_pruned_lifting(pruned, J, gen, lf)
    assert check_lifting_function(J, out).passed


def test_prune_empty():
    gen = run_soa(GeneratorDiagram.discrete({}))
    pruned = prune_generators(gen, GeneratorDiagram.discrete({}))
    assert pruned.diagram.objects() == ()


# -- model axioms -------------------------------------------------------------------


def test_model_axioms_pass(fixm, fixm_amstr):
    arrows = [ArrowObject(m) for m in fixm.maps.values()]
    assert validate_model_axioms(fixm_amstr, arrows).passed


def test_model_axioms_graph_detect_missing_cap(fixg, fixg_amstr):
    # FIX-G with weq = all is a comparison-map fixture, not a full model
    # structure: the vertex-adjoining generator is a fibration and a weq but
    # not a trivial fibration, and the axiom checker reports exactly that.
    arrows = [ArrowObject(m) for m in fixg.maps.values()]
    report = validate_model_axioms(fixg_amstr, arrows)
    failing = {e.law for e in report.failures()}
    assert failing == {"weq.fib-cap"}
    for law in ("weq.2of3", "weq.acyclicity"):
        assert all(e.status == "pass" for e in report.entries if e.law == law)


def test_weq_predicate_kinds(fixm):
    isos = WeqPredicate("isos")
    assert isos(ArrowObject(finmap(2, 2, [1, 0])))
    assert not isos(F21)
    listed = WeqPredicate.from_json({"kind": "list", "arrows": ["f21"]}, fixm.maps)
    assert listed(ArrowObject(fixm.maps["f21"]))
    assert not listed(ID1)
