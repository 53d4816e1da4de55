"""Deterministic certificate assembly.

Certificates are self-describing: they embed the input hash, pooled presheaf
and map tables, and full stage/cell provenance for every factored arrow, so
the independent verifier can recheck every claim without engine state.
"""

from __future__ import annotations

from . import __version__
from .arrows import LawReport
from .core import (
    FiniteCategory,
    Presheaf,
    PresheafMap,
    eq_witness,
    pool_key,
)
from .instance import InstanceFile
from .lifting import GeneratorDiagram, generator_block, lift_blocks
from .model import (
    ReplacementMonad,
    TauData,
    build_model_structure,
    model_blocks,
    replacement_candidates,
)
from .soa import GeneratedAwfs, NonConvergence, record_block, run_soa, soa_blocks
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
        key = self._pkeys.get(p)
        if key is not None:
            return key
        if p.base not in self.base_names:
            raise KeyError("presheaf over a base not declared in the instance")
        content = {"base": self.base_names[p.base], **p.to_json()}
        key = pool_key("p", content)
        self._pkeys[p] = key
        self.presheaves[key] = content
        return key

    def add_map(self, m: PresheafMap) -> str:
        key = self._mkeys.get(m)
        if key is not None:
            return key
        content = {
            "src": self.add_presheaf(m.src),
            "dst": self.add_presheaf(m.dst),
            "components": m.table_json(),
        }
        key = pool_key("m", content)
        self._mkeys[m] = key
        self.maps[key] = content
        return key

    def add(self, block):
        """`block` with each presheaf and map in it replaced by its pool key."""
        kind = type(block)
        if kind is dict:
            return {k: self.add(v) for k, v in block.items()}
        if kind is list:
            return [self.add(v) for v in block]
        if kind is PresheafMap:
            key = self._mkeys.get(block)
            return self.add_map(block) if key is None else key
        if kind is Presheaf:
            return self.add_presheaf(block)
        return block


def _arrow_entries(pool: CertPool, gen: GeneratedAwfs, structure=None) -> dict:
    """Every record the engine made, by pooled arrow, with its δ and μ where
    `structure` (by arrow) holds them."""
    structure = structure or {}
    return {
        pool.add_map(rec.f.f): pool.add(record_block(gen.diagram, rec, structure.get(rec.f)))
        for rec in list(gen.records.values())
    }


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
    named = instance.requested_arrows(diagram.base, arrows)
    blocks, structure = soa_blocks(gen, named, variant)
    pool = CertPool(instance.bases)
    payload: dict = {
        "generators": pool.add(generator_block(diagram, generators)),
        "variant": variant,
        "max_steps": max_steps,
        "arrows": _arrow_entries(pool, gen, structure),
        **pool.add(blocks),
    }
    return _sealed(payload, pool)


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
    named = instance.requested_arrows(diagram.base, arrows)
    pool = CertPool(instance.bases)
    payload = {
        "generators": pool.add(generator_block(diagram, generators)),
        **pool.add(lift_blocks(gen, named)),
    }
    payload["arrows"] = _arrow_entries(pool, gen)
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
    gen_t = run_soa(diagram_j, variant=variant, max_steps=max_steps)
    gen = run_soa(diagram_i, variant=variant, max_steps=max_steps)
    amstr = build_model_structure(gen_t, gen, instance.taus[tau], instance.weq)
    base = diagram_j.base
    rep = ReplacementMonad(amstr)
    objects, skipped = {}, []
    for pname in replacement_candidates(instance.presheaves, base):
        p = instance.presheaves[pname]
        try:
            rep.r_obj(p)
            rep.q_obj(p)
        except NonConvergence:
            skipped.append(pname)
            continue
        objects[pname] = p
    blocks = model_blocks(amstr, instance.requested_arrows(base), objects)
    pool = CertPool(instance.bases)
    payload: dict = {
        "generators_j": pool.add(generator_block(diagram_j, generators_j)),
        "generators_i": pool.add(generator_block(diagram_i, generators_i)),
        "replacement_skipped": skipped,
        **pool.add(blocks),
        "arrows_j": _arrow_entries(pool, gen_t),
        "arrows_i": _arrow_entries(pool, gen),
    }
    return _sealed(payload, pool)


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

    arrows_m = list(instance.requested_arrows(adj.m_base).values())
    arrows_k = list(instance.requested_arrows(adj.k_base).values())
    report = verify_lax_colax(md, gen_m, gen_k, adj, arrows_k, arrows_m)

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
        "generators": pool.add(generator_block(gen_m.diagram, generators)),
        "transported": pool.add(generator_block(gen_k.diagram, f"T{generators}")),
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

    arrows_m = list(instance.requested_arrows(adj.m_base).values())
    arrows_k = list(instance.requested_arrows(adj.k_base).values())
    report = verify_algebraic_quillen(
        amstr_m, amstr_k, adj, mates_t, mates, arrows_m, arrows_k
    )
    report.extend(verify_lax_colax(mates_t, gen_t_m, gen_t_k, adj, arrows_k, arrows_m))
    report.extend(verify_lax_colax(mates, gen_m, gen_k, adj, arrows_k, arrows_m))

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
