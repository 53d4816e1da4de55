from collections import Counter
from functools import partial

import pytest

from awfs_forge import certificates, transport, verifier
from awfs_forge.arrows import ArrowObject
from awfs_forge.core import FiniteCategory, PresheafMap, eq_witness
from awfs_forge.certificates import quillen_certificate, soa_certificate
from awfs_forge.fixtures import finmap, finset, fixture
from awfs_forge.lifting import (
    GeneratorDiagram,
    LiftingFunction,
    check_coalgebra_laws,
    check_lifting_function,
    compose_lifting,
    oracle_lift,
)
from awfs_forge.model import TauData, build_model_structure
from awfs_forge.soa import run_soa
from awfs_forge.transport import (
    FunctorData,
    MateData,
    adjunct_lifting_S,
    build_mates,
    gamma_from_mate,
    identity_adjunction,
    lift_T_coalg,
    pointwise_agreement,
    pointwise_generators,
    projective_generators,
    restriction_adjunction,
    rho_from_mate,
    transport_generators,
    verify_algebraic_quillen,
    verify_lax_colax,
)
from awfs_forge.verifier import verify_certificate
from reference_comparison import reference_rho
from written import written

PT = FiniteCategory.point()
E01 = ArrowObject(finmap(0, 1, []))
F21 = ArrowObject(finmap(2, 1, [0, 0]))
ID1 = ArrowObject(finmap(1, 1, [0]))


@pytest.fixture(scope="module")
def proj():
    return fixture("FIX-PROJ")


@pytest.fixture(scope="module")
def lan_setup(proj):
    adj = proj.adjunction("lan")
    J = proj.generators["J"]
    gen_m = run_soa(J)
    tj = transport_generators(adj, J)
    gen_k = run_soa(tj)
    mates = build_mates(adj, gen_m, gen_k)
    return proj, adj, J, gen_m, tj, gen_k, mates


def k_arrows(proj):
    return [ArrowObject(proj.maps[n]) for n in ("g1", "g2", "g3")]


def m_arrows(proj):
    return [ArrowObject(proj.maps[n]) for n in ("m0", "m1", "m2", "j0", "j1")]


# -- restriction adjunction -----------------------------------------------------


def test_identity_functor_gives_identity_adjunction_data():
    u = FunctorData(PT, PT, {"*": "*"}, {})
    adj = restriction_adjunction(u)
    x = finset(3)
    assert adj.t_obj(x) == x
    assert adj.unit(x) == PresheafMap.identity(x)
    assert adj.counit(x) == PresheafMap.identity(x)


def test_lan_along_point_inclusion_is_representable_extension():
    arrow_cat = FiniteCategory.walking_arrow()
    u = FunctorData(PT, arrow_cat, {"*": "0"}, {})
    adj = restriction_adjunction(u)
    p = finset(2)
    lan = adj.t_obj(p)
    # hom(0, 0) = {id}, hom(1, 0) = {}: extension by the representable at 0
    assert lan.at["0"].size == 2 and lan.at["1"].size == 0


def test_lan_disjoint_union_formula(lan_setup):
    proj, adj, J, gen_m, tj, gen_k, mates = lan_setup
    p = proj.presheaves["p21"]  # (2, 1) over the discrete base
    lan = adj.t_obj(p)
    # component 0 collects hom(0,0)×2 ⊔ hom(0,1)×1; component 1 only hom(1,1)×1
    assert lan.at["0"].size == 3 and lan.at["1"].size == 1
    report = adj.verify(
        [proj.presheaves[n] for n in ("p00", "p10", "p11", "p21")],
        [proj.maps["m1"], proj.maps["m2"]],
        [proj.presheaves[n] for n in ("k_a", "k_b")],
        [proj.maps["g1"], proj.maps["g2"]],
    )
    assert report.passed


def test_restriction_functors_match_a_fresh_adjunction(proj):
    # every functor of one adjunction, called on every FIX-PROJ presheaf and
    # map and on their images (so later calls hit values that earlier ones
    # stored), equals the same call on a fresh adjunction, and a second call
    # returns the stored object
    adj = proj.adjunction("lan")
    calls = []
    for p in proj.presheaves.values():
        if p.base == adj.m_base:
            calls += [("t_obj", p), ("unit", p), ("s_obj", adj.t_obj(p)), ("counit", adj.t_obj(p))]
        else:
            calls += [("s_obj", p), ("counit", p), ("t_obj", adj.s_obj(p)), ("unit", adj.s_obj(p))]
    for m in proj.maps.values():
        if m.base == adj.m_base:
            calls += [("t_map", m), ("s_map", adj.t_map(m))]
        else:
            calls += [("s_map", m), ("t_map", adj.s_map(m))]
    for name, x in calls:
        got = getattr(adj, name)(x)
        assert got == getattr(proj.adjunction("lan"), name)(x), name
        assert getattr(adj, name)(x) is got, name


@pytest.fixture
def body_runs(monkeypatch):
    """Counts the runs of every function that `transport` memoizes, per
    argument and per function: the restriction functors by name, so that a
    second adjunction running them again counts against the first, and ρ and
    γ, which each mate pair builds afresh, by closure."""
    runs = Counter()
    memoize = transport.cache

    def counted(fn):
        key = fn if fn.__name__ in ("rho", "gamma") else fn.__name__

        def body(x):
            runs[(key, x)] += 1
            return fn(x)

        return memoize(body)

    monkeypatch.setattr(transport, "cache", counted)
    return runs


def test_quillen_check_runs_each_restriction_functor_once_per_argument(proj, body_runs):
    quillen_certificate(proj, "lan", "J", "I", "tau", "monic", 64)
    assert {getattr(key, "__name__", key) for key, _ in body_runs} == {
        "restrict_obj", "restrict_map", "lan_block", "lan_map", "unit", "counit", "rho", "gamma"
    }
    assert max(body_runs.values()) == 1


def test_verify_cert_runs_each_replay_once_per_square_or_arrow(monkeypatch):
    """The verifier calls each shared cell rule at most once per square (E)
    or per arrow (μ, δ)."""
    instance = fixture("FIX-PW")
    payload = soa_certificate(instance, "JA", "monic", 64)
    cert = written("soa", instance, {}, payload)
    runs = Counter()
    for name in ("e_rule", "mu_rule", "delta_rule"):
        def counted(*args, body=getattr(verifier, name), name=name):
            runs[(name, args[0])] += 1
            return body(*args)

        monkeypatch.setattr(verifier, name, counted)
    assert verify_certificate(instance, cert) == (True, "")
    assert {name for name, _ in runs} == {"e_rule", "mu_rule", "delta_rule"}
    assert max(runs.values()) == 1


# -- transported generators ------------------------------------------------------


def test_transport_identity_is_same_diagram(fixm):
    adj = identity_adjunction(PT)
    J = fixm.generators["J"]
    tj = transport_generators(adj, J)
    assert tj.arrow_of == J.arrow_of


def test_transport_empty():
    adj = identity_adjunction(PT)
    tj = transport_generators(adj, GeneratorDiagram.discrete({}))
    assert tj.objects() == ()


def test_transport_lan_generators(lan_setup):
    proj, adj, J, gen_m, tj, gen_k, mates = lan_setup
    tj.validate()
    t0 = tj.arrow_of["j0"]
    assert t0.cod.at["0"].size == 1 and t0.cod.at["1"].size == 0
    t1 = tj.arrow_of["j1"]
    assert t1.cod.at["0"].size == 1 and t1.cod.at["1"].size == 1


# -- adjunct lifting --------------------------------------------------------------


def test_adjunct_identity_is_same_function(fixm, fixm_gen):
    adj = identity_adjunction(PT)
    lf = fixm_gen.free_lifting_function(F21)
    sharp = adjunct_lifting_S(adj, fixm_gen.diagram, lf)
    assert all(sharp.fills[k] == lf.fills[k] for k in lf.fills)


def test_adjunct_lifting_valid_over_lan(lan_setup):
    proj, adj, J, gen_m, tj, gen_k, mates = lan_setup
    g = k_arrows(proj)[0]
    lf = gen_k.free_lifting_function(g)
    sharp = adjunct_lifting_S(adj, J, lf)
    assert check_lifting_function(J, sharp).passed


def test_sharp_preserves_composition(lan_setup):
    proj, adj, J, gen_m, tj, gen_k, mates = lan_setup
    p = ArrowObject(proj.maps["g1"])
    q = ArrowObject(proj.maps["g2"])

    def first_fill(diagram, g):
        return LiftingFunction.tabulate(
            diagram, g, lambda jn, sq: oracle_lift(diagram.arrow_of[jn], g, sq)[0]
        )

    phi = first_fill(tj, p)
    psi = first_fill(tj, q)
    comp, comp_lf = compose_lifting((p, phi), (q, psi))
    lhs = adjunct_lifting_S(adj, J, comp_lf)
    comp2, rhs = compose_lifting(
        (adj.s_arrow(p), adjunct_lifting_S(adj, J, phi)),
        (adj.s_arrow(q), adjunct_lifting_S(adj, J, psi)),
    )
    assert comp2.f == adj.s_map(comp.f)
    assert set(lhs.fills) == set(rhs.fills)
    assert all(eq_witness(lhs.fills[k], rhs.fills[k]) is None for k in lhs.fills)


# -- mates ----------------------------------------------------------------------------


def test_rho_is_identity_for_identity_adjunction(fixm, fixm_gen):
    adj = identity_adjunction(PT)
    tj = transport_generators(adj, fixm_gen.diagram)
    gen_k = run_soa(tj)
    mates = build_mates(adj, fixm_gen, gen_k)
    for f in (F21, ID1):
        rho = mates.rho(f)
        assert rho == PresheafMap.identity(rho.src)
        gamma = mates.gamma(f)
        assert gamma == PresheafMap.identity(gamma.src)


@pytest.mark.parametrize("name, adjunction", [
    ("FIX-M", "ident"), ("FIX-G", "ident"), ("FIX-PROJ", "ident"), ("FIX-PROJ", "lan"),
])
def test_mates_match_the_reference_route(name, adjunction, monkeypatch):
    # ρ cell by cell, and γ built from it, equal ρ through the adjunct
    # lifting function and its algebra (and γ built from that) on every arrow
    # that `quillen_certificate` asks either pair of mates for
    mates = []
    build = certificates.build_mates

    def spy(adj, gen_m, gen_k):
        md = build(adj, gen_m, gen_k)
        asked = (set(), set())

        def rho(g):
            asked[0].add(g)
            return md.rho(g)

        def gamma(f):
            asked[1].add(f)
            return md.gamma(f)

        mates.append((adj, gen_m, gen_k, md, asked))
        return MateData(rho, gamma)

    monkeypatch.setattr(certificates, "build_mates", spy)
    quillen_certificate(fixture(name), adjunction, "J", "I", "tau", "monic", 64)
    assert len(mates) == 2
    for adj, gen_m, gen_k, md, (rho_probes, gamma_probes) in mates:
        ref_rho = partial(reference_rho, adj, gen_m, gen_k)
        ref_gamma = gamma_from_mate(adj, gen_m, gen_k, ref_rho)
        assert rho_probes and gamma_probes
        for g in rho_probes:
            assert eq_witness(md.rho(g), ref_rho(g)) is None
        for f in gamma_probes:
            assert eq_witness(md.gamma(f), ref_gamma(f)) is None


def test_rho_tabulates_no_adjunct_lifting_function(monkeypatch):
    # a return to the adjunct route would tabulate one lifting function per
    # arrow; call counts repeat exactly where times do not
    calls = []

    def counted(*args, real=transport.adjunct_lifting_S):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(transport, "adjunct_lifting_S", counted)
    payload = quillen_certificate(fixture("FIX-G"), "ident", "J", "I", "tau", "monic", 64)
    assert payload["rho_t"] and calls == []


def test_mate_round_trip(lan_setup):
    proj, adj, J, gen_m, tj, gen_k, mates = lan_setup
    rho_again = rho_from_mate(adj, gen_m, gen_k, mates.gamma)
    for g in k_arrows(proj):
        assert eq_witness(mates.rho(g), rho_again(g)) is None


def test_lax_colax_pass_over_lan(lan_setup):
    proj, adj, J, gen_m, tj, gen_k, mates = lan_setup
    report = verify_lax_colax(mates, gen_m, gen_k, adj, k_arrows(proj), m_arrows(proj))
    assert report.passed


def test_corrupted_rho_fails_middle_diagram(lan_setup):
    proj, adj, J, gen_m, tj, gen_k, mates = lan_setup
    g = k_arrows(proj)[0]
    rho_g = mates.rho(g)
    obj = next(o for o in rho_g.components if rho_g.components[o].table and rho_g.dst.at[o].size > 1)
    tables = {o: list(fn.table) for o, fn in rho_g.components.items()}
    tables[obj][0] = (tables[obj][0] + 1) % rho_g.dst.at[obj].size
    bad_rho = PresheafMap.from_tables(rho_g.src, rho_g.dst, tables)
    corrupted = MateData(lambda a: bad_rho if a == g else mates.rho(a), mates.gamma)
    report = verify_lax_colax(corrupted, gen_m, gen_k, adj, [g], [])
    assert not report.passed
    assert all(e.witness is not None for e in report.failures())


# -- lifted coalgebra functor ----------------------------------------------------------


def test_lift_T_coalg_identity_adjunction(fixm, fixm_gen):
    adj = identity_adjunction(PT)
    gen_k = run_soa(transport_generators(adj, fixm_gen.diagram))
    mates = build_mates(adj, fixm_gen, gen_k)
    lam = fixm_gen.lam("j")
    lifted = lift_T_coalg(mates, fixm_gen, gen_k, adj, lam)
    assert lifted.s == lam.s


def test_natunitcor_over_lan(lan_setup):
    proj, adj, J, gen_m, tj, gen_k, mates = lan_setup
    for jname in J.objects():
        lam_m = gen_m.lam(jname)
        lifted = lift_T_coalg(mates, gen_m, gen_k, adj, lam_m)
        lam_k = gen_k.lam(jname)
        assert eq_witness(lifted.s, lam_k.s) is None


def test_lifted_free_coalgebra_valid_over_lan(lan_setup):
    proj, adj, J, gen_m, tj, gen_k, mates = lan_setup
    f = m_arrows(proj)[0]
    co = gen_m.free_coalgebra(f)
    lifted = lift_T_coalg(mates, gen_m, gen_k, adj, co)
    assert check_coalgebra_laws(lifted, gen_k.as_awfs()).passed


# -- pointwise and projective generators -------------------------------------------------


def test_pointwise_generators_trivial_index(fixm):
    J = fixm.generators["J"]
    one = FiniteCategory.point()
    ja, prod = pointwise_generators(J, one)
    assert len(ja.objects()) == 1
    arr = next(iter(ja.arrow_of.values()))
    assert arr.cod.total_size == 1


def test_pointwise_generators_walking_arrow(fixm):
    J = fixm.generators["J"]
    A = FiniteCategory.walking_arrow()
    ja, prod = pointwise_generators(J, A)
    ja.validate()
    assert sorted(ja.objects()) == ["0|j", "1|j"]
    assert len(ja.shape.nonidentity_morphisms()) == 1
    sizes = {
        n: tuple(ja.arrow_of[n].cod.at[o].size for o in prod.objects)
        for n in ja.objects()
    }
    assert sizes["0|j"] == (1, 1) and sizes["1|j"] == (0, 1)


def test_pointwise_generators_empty():
    ja, prod = pointwise_generators(
        GeneratorDiagram.discrete({"j": E01}), FiniteCategory.discrete(())
    )
    assert ja.objects() == ()


def test_pointwise_agreement_fixture():
    pw = fixture("FIX-PW")
    diagram = pw.generators["JA"]
    # the serialized fixture diagram matches the constructed one
    fixm = fixture("FIX-M")
    built, prod = pointwise_generators(fixm.generators["J"], FiniteCategory.walking_arrow())
    for name in built.objects():
        assert built.arrow_of[name].f == diagram.arrow_of[name].f
    genA = run_soa(diagram)
    gen = run_soa(fixm.generators["J"])
    for mname in ("alpha1", "alpha2"):
        rep = pointwise_agreement(
            genA, gen, pw.maps[mname], FiniteCategory.walking_arrow(), PT
        )
        assert rep.passed


def test_projective_generators_shapes(fixm):
    J = fixm.generators["J"]
    one = FiniteCategory.point()
    proj1, _ = projective_generators(J, one)
    assert len(proj1.objects()) == 1
    A = FiniteCategory.walking_arrow()
    proj2, _ = projective_generators(J, A)
    assert sorted(proj2.objects()) == ["0|j", "1|j"]
    assert proj2.is_discrete()
    empty, _ = projective_generators(GeneratorDiagram.discrete({"j": E01}), FiniteCategory.discrete(()))
    assert empty.objects() == ()


# -- algebraic Quillen suite ---------------------------------------------------------------


def quillen_pieces(proj, adjunction_name):
    adj = proj.adjunction(adjunction_name)
    J, I = proj.generators["J"], proj.generators["I"]
    tau = proj.taus["tau"]
    gen_t_m, gen_m = run_soa(J), run_soa(I)
    amstr_m = build_model_structure(gen_t_m, gen_m, tau, proj.weq)
    tj, ti = transport_generators(adj, J), transport_generators(adj, I)
    gen_t_k, gen_k = run_soa(tj), run_soa(ti)
    tau_k = TauData(tj, ti, dict(tau.on_objects), dict(tau.on_morphisms))
    amstr_k = build_model_structure(gen_t_k, gen_k, tau_k, proj.weq)
    mates_t = build_mates(adj, gen_t_m, gen_t_k)
    mates = build_mates(adj, gen_m, gen_k)
    return adj, amstr_m, amstr_k, mates_t, mates


def test_quillen_identity_adjunction(proj):
    adj, amstr_m, amstr_k, mates_t, mates = quillen_pieces(proj, "ident")
    arrows = m_arrows(proj)
    report = verify_algebraic_quillen(
        amstr_m, amstr_k, adj, mates_t, mates, arrows, arrows
    )
    assert report.passed


def test_quillen_lan_adjunction(proj):
    adj, amstr_m, amstr_k, mates_t, mates = quillen_pieces(proj, "lan")
    report = verify_algebraic_quillen(
        amstr_m, amstr_k, adj, mates_t, mates, m_arrows(proj), k_arrows(proj)
    )
    assert report.passed


def test_quillen_mutated_gamma_breaks_pentagon(proj):
    adj, amstr_m, amstr_k, mates_t, mates = quillen_pieces(proj, "lan")
    f = m_arrows(proj)[0]
    gamma_f = mates_t.gamma(f)
    obj = next(o for o in gamma_f.components if gamma_f.components[o].table and gamma_f.dst.at[o].size > 1)
    tables = {o: list(fn.table) for o, fn in gamma_f.components.items()}
    tables[obj][0] = (tables[obj][0] + 1) % gamma_f.dst.at[obj].size
    bad = PresheafMap.from_tables(gamma_f.src, gamma_f.dst, tables)
    corrupted_t = MateData(mates_t.rho, lambda a: bad if a == f else mates_t.gamma(a))
    report = verify_algebraic_quillen(
        amstr_m, amstr_k, adj, corrupted_t, mates, [f], []
    )
    assert not report.passed
    assert any(e.law == "pentagon.gamma" for e in report.failures())


def test_flat_sharp_transport_membership(lan_setup):
    # the sharp image of a TJ-lifting function is a J-lifting function
    proj, adj, J, gen_m, tj, gen_k, mates = lan_setup
    g = ArrowObject(proj.maps["g1"])
    lf_k = gen_k.free_lifting_function(g)
    sharp = adjunct_lifting_S(adj, J, lf_k)
    assert check_lifting_function(J, sharp).passed
