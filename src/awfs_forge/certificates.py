"""Deterministic certificate assembly.

Certificates are self-describing: they embed the input hash, pooled presheaf
and map tables, and full stage/cell provenance for every factored arrow, so
the independent verifier can recheck every claim without engine state.
"""

from __future__ import annotations

from functools import cache, partial
from typing import Callable, Iterator, NamedTuple

from . import __version__
from .core import (
    FiniteCategory,
    Presheaf,
    PresheafMap,
    ValidationError,
    canonical_dumps,
    pool_key,
)
from .instance import InstanceFile
from .lifting import generator_block, lift_blocks
from .model import (
    ReplacementMonad,
    TauData,
    build_model_structure,
    model_blocks,
    replacement_candidates,
)
from .soa import GeneratedAwfs, NonConvergence, record_block, run_soa, soa_blocks
from .transport import quillen_blocks, transport_blocks, transport_generators


class CertPool:
    """Content-addressed pools for presheaves and maps within one certificate.
    Each entry is held as its canonical JSON text, the text its key hashes,
    and is written as that text (`certificate_pieces`)."""

    def __init__(self, bases: dict[str, FiniteCategory]):
        self.base_names = {cat: name for name, cat in bases.items()}
        self.presheaves: dict[str, str] = {}
        self.maps: dict[str, str] = {}
        self._pkeys: dict[Presheaf, str] = {}
        self._mkeys: dict[PresheafMap, str] = {}

    def add_presheaf(self, p: Presheaf) -> str:
        key = self._pkeys.get(p)
        if key is not None:
            return key
        if p.base not in self.base_names:
            raise KeyError("presheaf over a base not declared in the instance")
        text = canonical_dumps({"base": self.base_names[p.base], **p.to_json()})
        key = self._pkeys[p] = pool_key("p", text)
        self.presheaves[key] = text
        return key

    def add_map(self, m: PresheafMap) -> str:
        key = self._mkeys.get(m)
        if key is not None:
            return key
        text = canonical_dumps({
            "src": self.add_presheaf(m.src),
            "dst": self.add_presheaf(m.dst),
            "components": m.table_json(),
        })
        key = self._mkeys[m] = pool_key("m", text)
        self.maps[key] = text
        return key

    def key(self, table) -> str:
        """The pool key of a presheaf or map."""
        return self.add_map(table) if type(table) is PresheafMap else self.add_presheaf(table)

    def add(self, block):
        """`block` with each presheaf and map in it, a dict key too, replaced
        by its pool key."""
        kind = type(block)
        if kind is dict:
            return {self.add(k): self.add(v) for k, v in block.items()}
        if kind is list:
            return [self.add(v) for v in block]
        if kind is PresheafMap or kind is Presheaf:
            return self.key(block)
        return block


def _arrow_entries(pool: CertPool, gen: GeneratedAwfs, structure=None) -> dict:
    """Every record the engine made, by pooled arrow, with its δ and μ where
    `structure` (by arrow) holds them, pooled as it is built."""
    structure = structure or {}
    return {
        pool.add_map(rec.f.f): record_block(gen.diagram, rec, structure.get(rec.f), pool.key)
        for rec in list(gen.records.values())
    }


def _sealed(payload: dict, pool: CertPool) -> dict:
    """`payload` with the pooled tables it refers to."""
    payload["presheaves"] = pool.presheaves
    payload["maps"] = pool.maps
    return payload


ENGINE = f"awfs-forge {__version__}"  # every certificate's `engine` field
ENVELOPE = ("engine", "command", "options", "input_hash", "payload")  # its fields
POOLS = ("presheaves", "maps")  # the payload's pools, by `_sealed`


def envelope(command: str, instance: InstanceFile, options: dict, payload: dict) -> dict:
    return dict(zip(ENVELOPE, (ENGINE, command, options, instance.input_hash(), payload)))


def _object(fields) -> Iterator[str]:
    """Canonical JSON of an object, piece by piece, from (key, pieces of the
    value's canonical JSON) pairs in key order, each key plain ASCII that JSON
    writes unescaped."""
    sep = "{"
    for key, pieces in fields:
        yield f'{sep}"{key}":'
        yield from pieces
        sep = ","
    yield "}" if sep == "," else "{}"


def certificate_pieces(cert: dict) -> Iterator[str]:
    """`canonical_dumps` of the envelope `cert`, piece by piece.  Its
    payload's pools (`POOLS`) hold canonical text, and each goes in as
    {"<key>":<text>,...}, the canonical JSON of its parsed entries, so no
    entry is encoded twice or copied."""

    def value(v, pooled: bool = False):
        return _object((k, (v[k],)) for k in sorted(v)) if pooled else (canonical_dumps(v),)

    payload = cert["payload"]
    body = _object((k, value(payload[k], k in POOLS)) for k in sorted(payload))
    return _object((k, body if k == "payload" else value(cert[k])) for k in sorted(cert))


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
    # one engine per distinct generator diagram: equal diagrams share its records
    engine = cache(partial(run_soa, variant=variant, max_steps=max_steps))
    gen_m = engine(diagram)
    gen_k = engine(transport_generators(adj, diagram))
    arrows_m = list(instance.requested_arrows(adj.m_base).values())
    arrows_k = list(instance.requested_arrows(adj.k_base).values())
    pool = CertPool(instance.bases)
    payload: dict = {
        "adjunction": adjunction,
        "generators": pool.add(generator_block(diagram, generators)),
        "transported": pool.add(generator_block(gen_k.diagram, f"T{generators}")),
        **pool.add(transport_blocks(adj, gen_m, gen_k, arrows_m, arrows_k)),
    }
    return _sealed(payload, pool)


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
    # one engine per distinct generator diagram: equal diagrams share its records
    engine = cache(partial(run_soa, variant=variant, max_steps=max_steps))
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
    arrows_m = list(instance.requested_arrows(adj.m_base).values())
    arrows_k = list(instance.requested_arrows(adj.k_base).values())
    pool = CertPool(instance.bases)
    blocks = quillen_blocks(adj, amstr_m, amstr_k, arrows_m, arrows_k)
    return _sealed({"adjunction": adjunction, **pool.add(blocks)}, pool)


class Certifying(NamedTuple):
    """A certifying command: its help, its `certificates` builder, the option
    keys of the named entries it resolves (in resolution order), and whether
    `--arrows` selects the arrows it certifies."""

    help: str
    builder: Callable[..., dict]
    names: tuple[str, ...]
    arrows: bool = False


# option key -> (instance registry, default name, help); a default of None
# stands for the registry's first entry
NAMED = {
    "adjunction": ("adjunctions", None, "adjunction name"),
    "generators": ("generators", None, "generator diagram name"),
    "generators_j": ("generators", "J", "trivial-cofibration generators"),
    "generators_i": ("generators", "I", "cofibration generators"),
    "tau": ("taus", None, "inclusion functor name"),
}

CERTIFYING = {
    "soa": Certifying(
        "run the small object argument and certify", soa_certificate, ("generators",), True
    ),
    "lift": Certifying(
        "emit free lifting-function certificates", lift_certificate, ("generators",), True
    ),
    "model": Certifying(
        "build and verify an algebraic model structure",
        model_certificate,
        ("generators_j", "generators_i", "tau"),
    ),
    "transport": Certifying(
        "transport generators across an adjunction",
        transport_certificate,
        ("adjunction", "generators"),
    ),
    "quillen-check": Certifying(
        "verify an algebraic Quillen adjunction",
        quillen_certificate,
        ("adjunction", "generators_j", "generators_i", "tau"),
    ),
}


class OptionError(ValidationError):
    """An option that does not resolve; `key` is its key in the options block."""

    def __init__(self, key: str, path: str, message: str):
        super().__init__(path, message)
        self.key = key


def _entry(key: str, mapping: dict, name, path: str) -> str:
    """`name` when the instance declares it; the first entry when no name is given."""
    if name is None:
        if not mapping:
            raise OptionError(key, path, "the instance declares none")
        return next(iter(mapping))
    if type(name) is not str or name not in mapping:
        raise OptionError(key, f"{path}.{name}", "unknown name")
    return name


def resolve_options(command: str, instance: InstanceFile, given: dict) -> tuple[dict, dict]:
    """The options block of a `command` certificate and its builder's
    arguments, from the CLI's flags or a certificate's options `given` (None
    or missing: not given).  `variant` and `max_steps` default to the
    instance's options, then monic and 64; a command that selects arrows
    takes all of them when `arrows` is not given, and each name at most once.
    An option that does not resolve raises `OptionError`."""
    row = CERTIFYING[command]
    options = {}
    for key in row.names:
        registry, default, _ = NAMED[key]
        name = given.get(key) if default is None else given.get(key) or default
        options[key] = _entry(key, getattr(instance, registry), name, registry)
    for key, fallback in (("variant", "monic"), ("max_steps", 64)):
        value = given.get(key)
        options[key] = instance.options.get(key, fallback) if value is None else value
    if options["variant"] not in ("monic", "standard"):
        raise OptionError("variant", "--variant", "must be monic or standard")
    if type(options["max_steps"]) is not int or options["max_steps"] < 0:
        raise OptionError("max_steps", "--max-steps", "must be a nonnegative integer")
    arrows = given.get("arrows") or ""
    if type(arrows) is not str:
        raise OptionError("arrows", "--arrows", "must be comma-separated names")
    args = dict(options)
    if arrows:
        options["arrows"] = arrows
    if row.arrows:
        names = arrows.split(",") if arrows else []
        for i, name in enumerate(names):
            _entry("arrows", instance.maps, name, "arrows")
            if name in names[:i]:
                raise OptionError("arrows", f"arrows.{name}", "listed twice")
        # the builder leaves out a named arrow whose map lives over another base
        args["arrows"] = names or None
    return options, args
