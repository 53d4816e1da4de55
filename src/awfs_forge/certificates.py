"""Deterministic certificate assembly.

Certificates are self-describing: they embed the input hash, pooled presheaf
and map tables, and full stage/cell provenance for every factored arrow, so
the independent verifier can recheck every claim without engine state.
"""

from __future__ import annotations

from . import __version__
from .arrows import ArrowObject, LawReport, Square, verify_awfs
from .core import (
    FiniteCategory,
    Presheaf,
    PresheafMap,
    canonical_dumps,
    eq_witness,
    sha256_hex,
)
from .instance import InstanceFile
from .lifting import GeneratorDiagram, enumerate_squares, square_key
from .model import (
    ReplacementMonad,
    TauData,
    build_model_structure,
    chi,
    check_replacement_laws,
    validate_model_axioms,
    verify_comparison,
)
from .soa import GeneratedAwfs, NonConvergence, run_soa
from .transport import (
    build_mates,
    lift_T_coalg,
    rho_from_mate,
    transport_generators,
    verify_algebraic_quillen,
    verify_lax_colax,
)


class CertPool:
    """Content-addressed pools for presheaves and maps within one certificate."""

    def __init__(self, bases: dict[str, FiniteCategory]):
        self.base_names = {cat: name for name, cat in bases.items()}
        self.presheaves: dict[str, dict] = {}
        self.maps: dict[str, dict] = {}
        self._pkeys: dict[Presheaf, str] = {}
        self._mkeys: dict[PresheafMap, str] = {}

    def add_presheaf(self, p: Presheaf) -> str:
        if p in self._pkeys:
            return self._pkeys[p]
        if p.base not in self.base_names:
            raise KeyError("presheaf over a base not declared in the instance")
        content = {"base": self.base_names[p.base], **p.to_json()}
        key = "p" + sha256_hex(canonical_dumps(content))[:16]
        self._pkeys[p] = key
        self.presheaves[key] = content
        return key

    def add_map(self, m: PresheafMap) -> str:
        if m in self._mkeys:
            return self._mkeys[m]
        content = {
            "src": self.add_presheaf(m.src),
            "dst": self.add_presheaf(m.dst),
            "components": m.table_json(),
        }
        key = "m" + sha256_hex(canonical_dumps(content))[:16]
        self._mkeys[m] = key
        self.maps[key] = content
        return key


def _fill_entries(pool: CertPool, gen: GeneratedAwfs, rec) -> list[tuple[Square, dict]]:
    """Each square from a generator into the right factor of `rec`, in
    canonical order, with its fill-table entry: the square's edges and the
    free lifting function's fill."""
    lf = gen.free_lifting_function(rec.f)
    rf = ArrowObject(rec.right())
    return [
        (sq, {
            "j": jname,
            "top": pool.add_map(sq.u),
            "bottom": pool.add_map(sq.v),
            "fill": pool.add_map(lf.phi(jname, sq)),
        })
        for jname in gen.diagram.objects()
        for sq in enumerate_squares(gen.diagram.arrow_of[jname], rf)
    ]


def _arrow_entry(
    pool: CertPool, gen: GeneratedAwfs, rec, with_structure: bool, fills=None
) -> dict:
    """The record's certificate entry; `fills` are its `_fill_entries` when
    the caller has built them already."""
    if fills is None:
        fills = _fill_entries(pool, gen, rec)
    entry = {
        "f": pool.add_map(rec.f.f),
        "stages": [pool.add_presheaf(s) for s in rec.stages],
        "inclusions": [pool.add_map(m) for m in rec.inclusions],
        "rmaps": [pool.add_map(m) for m in rec.rmaps],
        "cells": [
            {
                "stage": c.stage,
                "j": c.jname,
                "top": pool.add_map(c.square.u),
                "bottom": pool.add_map(c.square.v),
                "injection": pool.add_map(c.injection),
            }
            for c in rec.cells
        ],
        "left": pool.add_map(rec.left()),
        "mid": pool.add_presheaf(rec.mid()),
        "right": pool.add_map(rec.right()),
        "trace": rec.trace,
        "variant": rec.variant,
        "fills": [e for _, e in fills],
    }
    if with_structure:
        entry["delta"] = pool.add_map(gen.delta(rec.f))
        entry["mu"] = pool.add_map(gen.mu(rec.f))
    return entry


def _emit_generator_block(pool: CertPool, gen: GeneratedAwfs, label: str) -> dict:
    block = {"label": label, "objects": {}, "squares": {}}
    for jname in gen.diagram.objects():
        block["objects"][jname] = pool.add_map(gen.diagram.arrow_of[jname].f)
    for m in gen.diagram.shape.nonidentity_morphisms():
        sq = gen.diagram.square_of[m]
        block["squares"][m] = {"top": pool.add_map(sq.u), "bottom": pool.add_map(sq.v)}
    if not gen.diagram.is_discrete():
        block["shape"] = gen.diagram.shape.to_json()
    return block


def _engine_per_diagram(variant: str, max_steps: int):
    """`run_soa` under one variant and step bound that builds one engine per
    distinct generator diagram: equal diagrams share it, and with it their
    records and structure maps."""
    engines: dict[GeneratorDiagram, GeneratedAwfs] = {}

    def engine(diagram: GeneratorDiagram) -> GeneratedAwfs:
        if diagram not in engines:
            engines[diagram] = run_soa(diagram, variant=variant, max_steps=max_steps)
        return engines[diagram]

    return engine


def _sealed(payload: dict, pool: CertPool, report: LawReport | None = None) -> dict:
    """`payload` with the pooled tables it refers to, and its law report."""
    payload["presheaves"] = pool.presheaves
    payload["maps"] = pool.maps
    if report is not None:
        payload["law_report"] = report.to_json()
    return payload


def envelope(command: str, instance: InstanceFile, options: dict, payload: dict) -> dict:
    return {
        "engine": f"awfs-forge {__version__}",
        "command": command,
        "options": options,
        "input_hash": instance.input_hash(),
        "payload": payload,
    }


def _requested_arrows(instance: InstanceFile, base: FiniteCategory, names) -> list[tuple[str, ArrowObject]]:
    out = []
    for name, m in instance.maps.items():
        if names is not None and name not in names:
            continue
        if m.base != base:
            continue
        out.append((name, ArrowObject(m)))
    return out


def soa_certificate(
    instance: InstanceFile,
    generators: str,
    variant: str,
    max_steps: int,
    arrows=None,
) -> dict:
    """Run the small object argument over named instance arrows and emit the
    full provenance certificate, including the verify_awfs law report."""
    diagram = instance.generators[generators]
    gen = run_soa(diagram, variant=variant, max_steps=max_steps)
    base = next(iter(diagram.arrow_of.values())).base
    requested = _requested_arrows(instance, base, arrows)

    for _, arr in requested:
        gen.record(arr)
        if variant == "monic":
            gen.delta(arr)
            gen.mu(arr)
    for jname in diagram.objects():
        gen.lam(jname)

    report = LawReport()
    if variant == "monic":
        report = verify_awfs(gen.as_awfs(), [arr for _, arr in requested])

    pool = CertPool(instance.bases)
    payload: dict = {
        "generators": _emit_generator_block(pool, gen, generators),
        "variant": variant,
        "max_steps": max_steps,
        "arrows": {},
        "named": {},
        "lambdas": {},
        "stage_tables": {},
    }
    requested_arrows = {arr for _, arr in requested}
    for rec in list(gen.records.values()):
        with_structure = variant == "monic" and rec.f in requested_arrows
        payload["arrows"][pool.add_map(rec.f.f)] = _arrow_entry(
            pool, gen, rec, with_structure
        )
    for name, arr in requested:
        payload["named"][name] = pool.add_map(arr.f)
        payload["stage_tables"][name] = gen.records[arr].trace
    for jname in diagram.objects():
        lam = gen.lam(jname)
        payload["lambdas"][jname] = pool.add_map(lam.s)
    return _sealed(payload, pool, report)


def lift_certificate(
    instance: InstanceFile,
    generators: str,
    variant: str,
    max_steps: int,
    arrows=None,
) -> dict:
    """Free lifting-function certificate: fills in canonical square order."""
    diagram = instance.generators[generators]
    gen = run_soa(diagram, variant=variant, max_steps=max_steps)
    base = next(iter(diagram.arrow_of.values())).base
    requested = _requested_arrows(instance, base, arrows)
    pool = CertPool(instance.bases)
    payload = {
        "generators": _emit_generator_block(pool, gen, generators),
        "lifting_functions": {},
        "arrows": {},
    }
    for name, arr in requested:
        rec = gen.record(arr)
        fills = _fill_entries(pool, gen, rec)
        entries = [
            {**e, "square_hash": sha256_hex(square_key(sq.u, sq.v))[:16]} for sq, e in fills
        ]
        payload["lifting_functions"][name] = {
            "arrow": pool.add_map(arr.f),
            "right_factor": pool.add_map(rec.right()),
            "fills": entries,
        }
        payload["arrows"][pool.add_map(arr.f)] = _arrow_entry(pool, gen, rec, False, fills)
    return _sealed(payload, pool)


def model_certificate(
    instance: InstanceFile,
    generators_j: str,
    generators_i: str,
    tau: str,
    variant: str,
    max_steps: int,
) -> dict:
    """Comparison map, morphism-law report, replacement tables, and χ tables."""
    diagram_j = instance.generators[generators_j]
    diagram_i = instance.generators[generators_i]
    tau_data = instance.taus[tau]
    gen_t = run_soa(diagram_j, variant=variant, max_steps=max_steps)
    gen = run_soa(diagram_i, variant=variant, max_steps=max_steps)
    amstr = build_model_structure(gen_t, gen, tau_data, instance.weq)
    base = next(iter(diagram_j.arrow_of.values())).base
    named = _requested_arrows(instance, base, None)
    arrows = [arr for _, arr in named]

    report = verify_comparison(amstr, arrows)
    report.extend(validate_model_axioms(amstr, arrows))
    rep = ReplacementMonad(amstr)
    objects = []
    skipped = []
    for pname, p in instance.presheaves.items():
        if p.base != base or p.total_size > 3:
            continue
        try:
            rep.r_obj(p)
            rep.q_obj(p)
        except NonConvergence:
            skipped.append(pname)
            continue
        objects.append(pname)
    if objects:
        report.extend(
            check_replacement_laws(amstr, [instance.presheaves[n] for n in objects])
        )

    pool = CertPool(instance.bases)
    payload: dict = {
        "generators_j": _emit_generator_block(pool, gen_t, generators_j),
        "generators_i": _emit_generator_block(pool, gen, generators_i),
        "xi": {},
        "replacement": {},
        "chi": {},
    }
    for name, arr in named:
        payload["xi"][name] = pool.add_map(amstr.xi.at(arr))
    payload["replacement_skipped"] = skipped
    for n in objects:
        x = instance.presheaves[n]
        payload["replacement"][n] = {
            "R": pool.add_presheaf(rep.r_obj(x)),
            "Q": pool.add_presheaf(rep.q_obj(x)),
            "unit": pool.add_map(rep.unit(x)),
            "counit": pool.add_map(rep.counit(x)),
            "mult": pool.add_map(rep.mult(x)),
            "comult": pool.add_map(rep.comult(x)),
        }
        payload["chi"][n] = pool.add_map(chi(amstr, x))
    for key, g in (("arrows_j", gen_t), ("arrows_i", gen)):
        payload[key] = {
            pool.add_map(rec.f.f): _arrow_entry(pool, g, rec, False)
            for rec in list(g.records.values())
        }
    return _sealed(payload, pool, report)


def transport_certificate(
    instance: InstanceFile,
    adjunction: str,
    generators: str,
    variant: str,
    max_steps: int,
) -> dict:
    """Transported generators, mates, and the lax/colax/naturality report."""
    adj = instance.adjunction(adjunction)
    diagram = instance.generators[generators]
    engine = _engine_per_diagram(variant, max_steps)
    gen_m = engine(diagram)
    tj = transport_generators(adj, diagram)
    gen_k = engine(tj)
    md = build_mates(adj, gen_m, gen_k)

    arrows_m = [arr for _, arr in _requested_arrows(instance, adj.m_base, None)]
    arrows_k = [arr for _, arr in _requested_arrows(instance, adj.k_base, None)]
    report = verify_lax_colax(md, gen_m, gen_k, adj, "lax", arrows_k)
    report.extend(verify_lax_colax(md, gen_m, gen_k, adj, "colax", arrows_m))

    rho2 = rho_from_mate(adj, gen_m, gen_k, md.gamma)
    for i, g in enumerate(arrows_k):
        w = eq_witness(md.rho(g), rho2(g))
        report.record("mate.roundtrip", f"k-arrow[{i}]", w is None, w)
    for jname in diagram.objects():
        lam_m = gen_m.lam(jname)
        lifted = lift_T_coalg(md, gen_m, gen_k, adj, lam_m)
        lam_k = gen_k.lam(jname)
        w = eq_witness(lifted.s, lam_k.s)
        report.record("natunit", jname, w is None, w)

    pool = CertPool(instance.bases)
    payload: dict = {
        "adjunction": adjunction,
        "generators": _emit_generator_block(pool, gen_m, generators),
        "transported": _emit_generator_block(pool, gen_k, f"T{generators}"),
        "rho": {},
        "gamma": {},
    }
    for i, g in enumerate(arrows_k):
        payload["rho"][pool.add_map(g.f)] = pool.add_map(md.rho(g))
    for i, f in enumerate(arrows_m):
        payload["gamma"][pool.add_map(f.f)] = pool.add_map(md.gamma(f))
    return _sealed(payload, pool, report)


def quillen_certificate(
    instance: InstanceFile,
    adjunction: str,
    generators_j: str,
    generators_i: str,
    tau: str,
    variant: str,
    max_steps: int,
) -> dict:
    """Full algebraic Quillen adjunction check across both model structures."""
    adj = instance.adjunction(adjunction)
    diagram_j = instance.generators[generators_j]
    diagram_i = instance.generators[generators_i]
    tau_data = instance.taus[tau]
    engine = _engine_per_diagram(variant, max_steps)
    gen_t_m = engine(diagram_j)
    gen_m = engine(diagram_i)
    amstr_m = build_model_structure(gen_t_m, gen_m, tau_data, instance.weq)
    tj = transport_generators(adj, diagram_j)
    ti = transport_generators(adj, diagram_i)
    gen_t_k = engine(tj)
    gen_k = engine(ti)
    if gen_t_k is gen_t_m and gen_k is gen_m:
        # transported generators equal the originals (identity adjunctions):
        # same engines, same tau, so the same model structure and its ξ memo
        amstr_k = amstr_m
    else:
        tau_k = TauData(tj, ti, dict(tau_data.on_objects), dict(tau_data.on_morphisms))
        amstr_k = build_model_structure(gen_t_k, gen_k, tau_k, instance.weq)
    mates_t = build_mates(adj, gen_t_m, gen_t_k)
    mates = build_mates(adj, gen_m, gen_k)

    arrows_m = [arr for _, arr in _requested_arrows(instance, adj.m_base, None)]
    arrows_k = [arr for _, arr in _requested_arrows(instance, adj.k_base, None)]
    report = verify_algebraic_quillen(
        amstr_m, amstr_k, adj, mates_t, mates, arrows_m, arrows_k
    )
    report.extend(verify_lax_colax(mates_t, gen_t_m, gen_t_k, adj, "lax", arrows_k))
    report.extend(verify_lax_colax(mates_t, gen_t_m, gen_t_k, adj, "colax", arrows_m))
    report.extend(verify_lax_colax(mates, gen_m, gen_k, adj, "lax", arrows_k))
    report.extend(verify_lax_colax(mates, gen_m, gen_k, adj, "colax", arrows_m))

    pool = CertPool(instance.bases)
    payload: dict = {
        "adjunction": adjunction,
        "xi_m": {},
        "xi_k": {},
        "gamma_t": {},
        "rho_t": {},
    }
    for f in arrows_m:
        payload["xi_m"][pool.add_map(f.f)] = pool.add_map(amstr_m.xi.at(f))
        payload["gamma_t"][pool.add_map(f.f)] = pool.add_map(mates_t.gamma(f))
    for g in arrows_k:
        payload["xi_k"][pool.add_map(g.f)] = pool.add_map(amstr_k.xi.at(g))
        payload["rho_t"][pool.add_map(g.f)] = pool.add_map(mates_t.rho(g))
    return _sealed(payload, pool, report)
