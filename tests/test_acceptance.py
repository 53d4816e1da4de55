"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is exact table equality.
"""

import copy
import itertools
import json

import pytest

from awfs_forge.arrows import ArrowObject, Awfs, verify_awfs
from awfs_forge.cli import main
from awfs_forge.core import FiniteCategory, PresheafMap, eq_witness
from awfs_forge.fixtures import finmap, finset, fixture
from awfs_forge.lifting import (
    LiftingFunction,
    check_lifting_function,
    check_coalgebra_laws,
    enumerate_squares,
    oracle_lift,
)
from awfs_forge.model import (
    ReplacementMonad,
    TauData,
    build_model_structure,
    chi,
    check_replacement_laws,
    coalgebra_from_cellular,
    two_lift_agreement,
    verify_comparison,
)
from awfs_forge.soa import NonConvergence, lifting_function_to_algebra, run_soa
from awfs_forge.transport import (
    adjunct_lifting_S,
    build_mates,
    lift_T_coalg,
    pointwise_agreement,
    pointwise_generators,
    rho_from_mate,
    transport_generators,
    verify_algebraic_quillen,
    verify_lax_colax,
)
from awfs_forge.lifting import compose_lifting, compose_algebras_free
from awfs_forge.verifier import verify_certificate
from reference_stage import converged


def report(number: int, text: str) -> None:
    print(f"\n[acceptance {number}] {text}: PASS")


def all_tables(m: int, n: int):
    return itertools.product(range(n), repeat=m)


def mutate_map(m: PresheafMap, obj: str, idx: int, val: int) -> PresheafMap:
    tables = {o: list(fn.table) for o, fn in m.components.items()}
    tables[obj][idx] = val
    return PresheafMap.from_tables(m.src, m.dst, tables)


def test_criterion_1_split_epi_awfs(fixm_gen):
    gen = fixm_gen
    diagram = gen.diagram
    j = diagram.arrow_of["j"]
    checked = 0
    for m in range(5):
        for n in range(5):
            for table in all_tables(m, n):
                f = finmap(m, n, table)
                rec = gen.record(f)
                assert converged(gen, rec)
                assert len(rec.stages) <= 2
                fac = gen.factor(f)
                # E f = dom f ⊔ cod f, table-exactly
                assert fac.mid == finset(m + n)
                assert fac.left.components["*"].table == tuple(range(m))
                assert fac.right.components["*"].table == tuple(table) + tuple(range(n))
                lf = gen.free_lifting_function(f)
                assert check_lifting_function(diagram, lf).passed
                rf = ArrowObject(fac.right)
                for sq in enumerate_squares(j, rf):
                    fillers = oracle_lift(j, rf, sq)
                    assert fillers, "J-boxslash membership refuted by oracle"
                    assert any(lf.phi("j", sq) == w for w in fillers)
                checked += 1
    assert checked == 499
    report(1, f"split-epi awfs exact on all {checked} arrows with |dom|,|cod| <= 4")


def test_criterion_2_divergence_detection():
    fixdiv = fixture("FIX-DIV")
    gen = run_soa(fixdiv.generators["J"], max_steps=10)
    with pytest.raises(NonConvergence) as err:
        gen.record(fixdiv.maps["idd"])
    assert err.value.trace == list(range(1, 12))
    report(2, "divergence detected with stage-size trace [1..11]")


def test_criterion_3_law_suite_and_mutations(fixm, fixm_gen, fixg, fixg_gen):
    caught = 0
    total = 0
    for instance, gen in ((fixm, fixm_gen), (fixg, fixg_gen)):
        arrows = [ArrowObject(m) for m in instance.maps.values()]
        awfs = gen.as_awfs()
        rep = verify_awfs(awfs, arrows)
        assert rep.passed, rep.failures()[:3]
        for f in arrows:
            for which in ("delta", "mu"):
                table_map = gen.delta(f) if which == "delta" else gen.mu(f)
                for obj in table_map.components:
                    size = table_map.dst.at[obj].size
                    for idx, cur in enumerate(table_map.components[obj].table):
                        for val in range(size):
                            if val == cur:
                                continue
                            bad_map = mutate_map(table_map, obj, idx, val)
                            if which == "delta":
                                bad = Awfs(
                                    gen.as_fact(),
                                    lambda a, b=bad_map, f0=f: b if a == f0 else gen.delta(a),
                                    gen.mu,
                                )
                            else:
                                bad = Awfs(
                                    gen.as_fact(),
                                    gen.delta,
                                    lambda a, b=bad_map, f0=f: b if a == f0 else gen.mu(a),
                                )
                            total += 1
                            if not verify_awfs(bad, [f]).passed:
                                caught += 1
    assert caught == total, f"{total - caught} mutations escaped of {total}"
    report(3, f"comonad/monad/distributive laws pass; all {total} single-entry mutations caught")


def test_criterion_4_algebraic_freeness_round_trip(fixm, fixm_gen):
    gen = fixm_gen
    awfs = gen.as_awfs()
    named = {n: ArrowObject(m) for n, m in fixm.maps.items()}
    for f in named.values():
        lf = gen.free_lifting_function(f)
        alg = lifting_function_to_algebra(gen, lf)
        assert eq_witness(alg.t, gen.mu(f)) is None

    def liftable(g):
        return all(
            oracle_lift(gen.diagram.arrow_of["j"], g, sq)
            for sq in enumerate_squares(gen.diagram.arrow_of["j"], g)
        )

    def first_fill(g):
        return LiftingFunction.tabulate(
            gen.diagram, g, lambda jn, sq: oracle_lift(gen.diagram.arrow_of[jn], g, sq)[0]
        )

    pairs = 0
    for f in named.values():
        for g in named.values():
            if f.cod != g.dom or not (liftable(f) and liftable(g)):
                continue
            phi, psi = first_fill(f), first_fill(g)
            a_f = lifting_function_to_algebra(gen, phi)
            a_g = lifting_function_to_algebra(gen, psi)
            route_algebra = compose_algebras_free(a_f, a_g, awfs)
            _, comp_lf = compose_lifting((f, phi), (g, psi))
            route_dictionary = lifting_function_to_algebra(gen, comp_lf)
            assert eq_witness(route_algebra.t, route_dictionary.t) is None
            pairs += 1
    assert pairs >= 3
    report(4, f"round trip equals mu and the dictionary commutes on {pairs} composable pairs")


def test_criterion_5_pointwise_generation(fixm):
    pw = fixture("FIX-PW")
    A = FiniteCategory.walking_arrow()
    J = fixm.generators["J"]
    built, prod = pointwise_generators(J, A)
    serialized = pw.generators["JA"]
    for name in built.objects():
        assert built.arrow_of[name].f == serialized.arrow_of[name].f
    gen_a = run_soa(serialized)
    gen = run_soa(J)
    pt = FiniteCategory.point()
    for name in ("alpha1", "alpha2"):
        rep = pointwise_agreement(gen_a, gen, pw.maps[name], A, pt)
        assert rep.passed
    report(5, "pointwise factorization equals componentwise after canonical relabeling")


def test_criterion_6_comparison_map_suite(fixm, fixm_amstr, fixg, fixg_amstr):
    arrows = [ArrowObject(m) for m in fixm.maps.values()]
    assert verify_comparison(fixm_amstr, arrows).passed
    named = [ArrowObject(fixm.maps[n]) for n in ("f21", "id1", "e01", "f32")]
    coalgebras = [fixm_amstr.gen_t.free_coalgebra(f) for f in named]
    coalgebras.append(fixm_amstr.gen_t.lam("j"))
    algebras = [fixm_amstr.gen.free_algebra(f) for f in named]
    triples = 0
    for co in coalgebras:
        for alg in algebras:
            for sq in enumerate_squares(co.f, alg.g):
                assert two_lift_agreement(fixm_amstr, co, alg, sq) is not None
                triples += 1
    arrows_g = [ArrowObject(m) for m in fixg.maps.values()]
    assert verify_comparison(fixg_amstr, arrows_g).passed
    for f in arrows_g:
        assert fixg_amstr.xi.at(f).is_injective()
        rec = fixg_amstr.gen_t.record(f)
        cellular = coalgebra_from_cellular(
            fixg_amstr.gen,
            lambda jn: fixg_amstr.gen.lam(fixg_amstr.tau.on_objects[jn]),
            rec,
        )
        assert check_coalgebra_laws(cellular, fixg_amstr.gen.as_awfs()).passed
    report(6, f"comparison maps verified; two-lift agreement on {triples} triples; xi injective on graphs")


def test_criterion_7_replacement_suite(fixm, fixm_amstr):
    objects = [p for p in fixm.presheaves.values() if p.total_size <= 3]
    assert len(objects) == 4
    rep_laws = check_replacement_laws(fixm_amstr, objects)
    assert rep_laws.passed
    rep = ReplacementMonad(fixm_amstr)
    chi_empty = chi(fixm_amstr, finset(0))
    assert chi_empty.src == finset(1) and chi_empty.dst == finset(1)
    assert chi_empty.components["*"].table == (0,)
    chi_one = chi(fixm_amstr, finset(1))
    assert rep.q_obj(finset(1)) == finset(1)
    assert rep.r_obj(finset(1)) == finset(2)
    assert chi_one.components["*"].table == (0, 1)
    report(7, "replacement monad, comonad and chi compatibility exact on objects of size <= 3")


def _quillen_setup(proj, adjunction_name):
    adj = proj.adjunction(adjunction_name)
    J, I = proj.generators["J"], proj.generators["I"]
    tau = proj.taus["tau"]
    gen_t_m, gen_m = run_soa(J), run_soa(I)
    amstr_m = build_model_structure(gen_t_m, gen_m, tau, proj.weq)
    tj, ti = transport_generators(adj, J), transport_generators(adj, I)
    gen_t_k, gen_k = run_soa(tj), run_soa(ti)
    tau_k = TauData(tj, ti, dict(tau.on_objects), dict(tau.on_morphisms))
    amstr_k = build_model_structure(gen_t_k, gen_k, tau_k, proj.weq)
    return adj, amstr_m, amstr_k


def test_criterion_8_transport_quillen_suite():
    proj = fixture("FIX-PROJ")
    arrows_m = [ArrowObject(proj.maps[n]) for n in ("m0", "m1", "m2", "j0", "j1")]
    for adjunction_name in ("ident", "lan"):
        adj, amstr_m, amstr_k = _quillen_setup(proj, adjunction_name)
        arrows_k = (
            arrows_m
            if adjunction_name == "ident"
            else [ArrowObject(proj.maps[n]) for n in ("g1", "g2", "g3")]
        )
        mates_t = build_mates(adj, amstr_m.gen_t, amstr_k.gen_t)
        mates = build_mates(adj, amstr_m.gen, amstr_k.gen)

        # sharp preserves composition on composable liftable pairs
        def first_fill(diagram, g):
            return LiftingFunction.tabulate(
                diagram, g, lambda jn, sq: oracle_lift(diagram.arrow_of[jn], g, sq)[0]
            )

        def liftable(diagram, g):
            return all(
                oracle_lift(diagram.arrow_of[jn], g, sq)
                for jn in diagram.objects()
                for sq in enumerate_squares(diagram.arrow_of[jn], g)
            )

        tj = amstr_k.gen_t.diagram
        pairs = 0
        for p in arrows_k:
            for q in arrows_k:
                if p.cod != q.dom or not (liftable(tj, p) and liftable(tj, q)):
                    continue
                phi, psi = first_fill(tj, p), first_fill(tj, q)
                _, comp_lf = compose_lifting((p, phi), (q, psi))
                lhs = adjunct_lifting_S(adj, amstr_m.gen_t.diagram, comp_lf)
                _, rhs = compose_lifting(
                    (adj.s_arrow(p), adjunct_lifting_S(adj, amstr_m.gen_t.diagram, phi)),
                    (adj.s_arrow(q), adjunct_lifting_S(adj, amstr_m.gen_t.diagram, psi)),
                )
                assert set(lhs.fills) == set(rhs.fills)
                assert all(eq_witness(lhs.fills[k], rhs.fills[k]) is None for k in lhs.fills)
                pairs += 1
        assert pairs >= 1

        for md, gm, gk in ((mates_t, amstr_m.gen_t, amstr_k.gen_t), (mates, amstr_m.gen, amstr_k.gen)):
            assert verify_lax_colax(md, gm, gk, adj, arrows_k, arrows_m).passed
            rho_again = rho_from_mate(adj, gm, gk, md.gamma)
            for g in arrows_k:
                assert eq_witness(md.rho(g), rho_again(g)) is None
            for jname in gm.diagram.objects():
                lam_m = gm.lam(jname)
                lifted = lift_T_coalg(md, gk, adj, lam_m)
                assert eq_witness(lifted.s, gk.lam(jname).s) is None

        quillen = verify_algebraic_quillen(
            amstr_m, amstr_k, adj, mates_t, mates, arrows_m, arrows_k
        )
        assert quillen.passed
    report(8, "transport and algebraic Quillen suites pass for identity and Lan-res adjunctions")


def test_criterion_9_certificate_integrity(tmp_path):
    emitted = []
    for args, inst_name in (
        (["soa", "--fixture", "FIX-M"], "FIX-M"),
        (["soa", "--fixture", "FIX-G"], "FIX-G"),
        (["soa", "--fixture", "FIX-PW", "--generators", "JA"], "FIX-PW"),
        (["lift", "--fixture", "FIX-M"], "FIX-M"),
        (["model", "--fixture", "FIX-M"], "FIX-M"),
        (["transport", "--fixture", "FIX-PROJ", "--adjunction", "lan"], "FIX-PROJ"),
        (["quillen-check", "--fixture", "FIX-PROJ", "--adjunction", "lan"], "FIX-PROJ"),
    ):
        out = tmp_path / f"{'_'.join(args[:2])}-{inst_name}-{len(emitted)}.json"
        assert main(args + ["--out", str(out)]) == 0, args
        emitted.append((inst_name, out))
    instances = {n: fixture(n) for n in ("FIX-M", "FIX-G", "FIX-PW", "FIX-PROJ")}
    for inst_name, path in emitted:
        cert = json.loads(path.read_text())
        ok, msg = verify_certificate(instances[inst_name], cert)
        assert ok, f"{path}: {msg}"

    # every pooled table rejects a flipped entry; sweep one flip per table on
    # the FIX-M soa certificate and every entry of the lift certificate
    soa_cert = json.loads(emitted[0][1].read_text())
    flips = 0
    for key, content in soa_cert["payload"]["maps"].items():
        comp = content["components"]
        obj = next((o for o in comp if comp[o]), None)
        if obj is None:
            continue
        bad = copy.deepcopy(soa_cert)
        bad["payload"]["maps"][key]["components"][obj][0] += 1
        ok, _ = verify_certificate(instances["FIX-M"], bad)
        assert not ok
        flips += 1
    for key, content in soa_cert["payload"]["presheaves"].items():
        act = content.get("act", {})
        mor = next((m for m in act if act[m]), None)
        if mor is None:
            continue
        bad = copy.deepcopy(soa_cert)
        bad["payload"]["presheaves"][key]["act"][mor][0] += 1
        ok, _ = verify_certificate(instances["FIX-M"], bad)
        assert not ok
        flips += 1
    lift_cert = json.loads(emitted[3][1].read_text())
    for key, content in lift_cert["payload"]["maps"].items():
        comp = content["components"]
        for obj in comp:
            for idx in range(len(comp[obj])):
                bad = copy.deepcopy(lift_cert)
                bad["payload"]["maps"][key]["components"][obj][idx] += 1
                ok, _ = verify_certificate(instances["FIX-M"], bad)
                assert not ok
                flips += 1

    # structural flips beyond raw tables: swapped fill reference, wrong trace
    bad = copy.deepcopy(soa_cert)
    some_arrow = next(
        k for k, v in bad["payload"]["arrows"].items() if v["fills"]
    )
    entry = bad["payload"]["arrows"][some_arrow]["fills"][0]
    original = entry["fill"]
    substitute = next(
        k
        for k, v in bad["payload"]["maps"].items()
        if k != original
        and v["src"] == bad["payload"]["maps"][original]["src"]
        and v["dst"] == bad["payload"]["maps"][original]["dst"]
    )
    entry["fill"] = substitute
    ok, _ = verify_certificate(instances["FIX-M"], bad)
    assert not ok
    bad2 = copy.deepcopy(soa_cert)
    name = next(iter(bad2["payload"]["stage_tables"]))
    bad2["payload"]["stage_tables"][name][0] += 1
    ok, _ = verify_certificate(instances["FIX-M"], bad2)
    assert not ok
    flips += 2

    # byte-determinism across thread counts
    blobs = []
    for threads in ("1", "2", "8"):
        out = tmp_path / f"det-{threads}.json"
        assert main(["soa", "--fixture", "FIX-M", "--threads", threads, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    report(9, f"all certificates recheck; {flips} corruptions rejected; byte-identical across 1/2/8 threads")
