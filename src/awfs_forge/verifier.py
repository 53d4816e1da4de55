"""Independent certificate verification.

The verifier never runs the engine's small object argument: it rebuilds
presheaf and map tables from the certificate pools and rechecks every claim
over the certified records.

It shares three things with the engine.  One is the cell rules, which fix a
map out of a cellular object by where each cell goes: E on squares, μ, δ and
λ (`soa.e_rule`, `mu_rule`, `delta_rule`, `lam_rule`) and the comparison map
ξ (`model.xi_rule`).  It runs them over certified records, whose fills are
its own `CertifiedEngine.fill_rule`, once per square.  The second is the law
suites, rerun over the certified records.  The third is the functions that
derive each block of a certificate from the instance and the records
(`lifting.generator_block`, `lift_blocks`, `soa.record_block`, `soa_blocks`,
`model.model_blocks`, over `InstanceFile.requested_arrows`): the verifier
recomputes every block over the certified records and requires the
certificate's block whole, with the same keys and equal tables behind its
pool keys.  Of a record entry it parses only the primary fields, `f`,
`stages`, `inclusions`, `rmaps`, `cells` and `variant` (the options'
variant where they name one); after `check_record`, and `soa_blocks` for δ
and μ, the entry must be `soa.record_block` of its record, which recomputes
`left`, `mid`, `right`, `trace`, the fill table and the named arrows' δ and
μ, so no field can be added, dropped or changed.  Each generator block must
describe the instance's generator diagram that its label names, and
everything runs over that diagram.

The records themselves it checks on its own: content addressing of every pool
entry; each pooled map's tables and naturality, read by
`PresheafMap.from_json` as an instance's maps are, so a table that does not
fit is rejected at `maps.<key>.components.<o>`; each record's structure, with
injective stage inclusions under both variants; stage completeness by its own
square search (stage k's cells must be exactly the squares into r_{k-1} whose
top edge leaves the image of inclusion k-2, all squares into r_0 at stage 1);
covering; convergence within `max_steps` stages; both triangles of every
fill, which `fill_rule` finds by factoring through the inclusions by inverse
lookup, so inclusions need not be prefixes (a natural map that passes both is
one of `lifting.oracle_lift`'s fillers by definition, so the oracle is not
rerun); and the fills' coherence along the generator shape.  Since every
derived block is recomputed from these records, a lift certificate's fills
must be the record's fills, ξ_f its cell replay (ξ's lifting problem can
have several fillers) and χ the canonical two-route lift that the law suites
compute and check to fill its lifting problem.  The engine computes ξ and ρ
cell by cell, so ξ factors only f on either side: a `model` certificate's
`arrows_i` holds only the records that ξ, the replacement tables and χ rest
on.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Callable

from .arrows import ArrowObject, Square
from .core import (
    Presheaf,
    PresheafMap,
    ValidationError,
    eq_witness,
    expect_object,
    factor_through,
    inverse_lookup,
    pool_key,
)
from .instance import InstanceFile
from .lifting import (
    CoalgebraStructure,
    FillFailure,
    GeneratorDiagram,
    enumerate_new_squares,
    enumerate_squares,
    generator_block,
    lift_blocks,
)
from .model import build_model_structure, model_blocks, replacement_candidates
from .soa import (
    ArrowRecord,
    CellRecord,
    RecordAwfs,
    delta_rule,
    e_rule,
    lam_rule,
    mu_rule,
    record_block,
    soa_blocks,
)


class CertificateError(Exception):
    def __init__(self, where: str, message: str):
        self.where = where
        super().__init__(f"{where}: {message}")


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise CertificateError(where, message)


class _Pools:
    def __init__(self, instance: InstanceFile, payload: dict):
        bases = {name: cat for name, cat in instance.bases.items()}
        self.presheaves: dict[str, Presheaf] = {}
        self.maps: dict[str, PresheafMap] = {}
        for key, content in expect_object(payload.get("presheaves", {}), "presheaves").items():
            where = f"presheaves.{key}"
            _require(pool_key("p", content) == key, where, "content hash mismatch")
            bname = expect_object(content, where).get("base", "main")
            _require(type(bname) is str and bname in bases, where, f"unknown base {bname}")
            p = Presheaf.from_json(bases[bname], content, where)
            p.validate(where)
            self.presheaves[key] = p
        for key, content in expect_object(payload.get("maps", {}), "maps").items():
            where = f"maps.{key}"
            _require(pool_key("m", content) == key, where, "content hash mismatch")
            ends = (expect_object(content, where).get("src"), content.get("dst"))
            known = all(type(e) is str and e in self.presheaves for e in ends)
            _require(known, where, "dangling endpoint")
            src, dst = (self.presheaves[e] for e in ends)
            self.maps[key] = PresheafMap.from_json(src, dst, content.get("components"), where)

    def m(self, key: str, where: str) -> PresheafMap:
        _require(key in self.maps, where, f"dangling map reference {key}")
        return self.maps[key]

    def p(self, key: str, where: str) -> Presheaf:
        _require(key in self.presheaves, where, f"dangling presheaf reference {key}")
        return self.presheaves[key]


class _Record(ArrowRecord):
    """A certified record.  It differs from the engine's in what it may not
    assume: stage inclusions need not be prefixes, so maps factor through
    them by inverse lookup, and each fill is `rule`, the verifier's
    `fill_rule` bound to the record's path, run once per square."""

    def __init__(
        self, f, stages, inclusions, rmaps, cells, variant,
        rule: Callable[..., PresheafMap],  # (record, j, square) -> fill
    ):
        super().__init__(f, stages, inclusions, rmaps, cells, variant)
        self.rule = rule
        self._lookups: dict[int, dict] = {}  # inclusion -> its inverse
        self._ranges: dict[tuple[int, int], PresheafMap] = {}
        self._fills: dict[tuple, PresheafMap] = {}  # (j, top, bottom) -> fill

    def fill(self, jname: str, sq: Square) -> PresheafMap:
        key = (jname, sq.u, sq.v)
        fill = self._fills.get(key)
        if fill is None:
            fill = self._fills[key] = self.rule(self, jname, sq)
        return fill

    def inclusion_range(self, lo: int, hi: int) -> PresheafMap:
        out = self._ranges.get((lo, hi))
        if out is None:
            # from inclusion lo on, so that no stage keeps an identity map it
            # does not need
            out = self.inclusions[lo] if lo < hi else PresheafMap.identity(self.stages[lo])
            for b in range(lo + 1, hi):
                out = out.then(self.inclusions[b])
            self._ranges[(lo, hi)] = out
        return out

    def lookup(self, b: int) -> tuple[dict[int, int], ...]:
        """The inverse of inclusion b (stage b -> b + 1), built once: per base
        object, each element of its image -> its preimage."""
        inverse = self._lookups.get(b)
        if inverse is None:
            inverse = self._lookups[b] = inverse_lookup(self.inclusions[b])
        return inverse

    def factor(self, u: PresheafMap, b: int) -> PresheafMap | None:
        """`u` factored through inclusion b, or None."""
        return factor_through(u, self.inclusions[b], self.lookup(b))


def _replayed(rule, *args, where: str) -> PresheafMap:
    """`rule(*args, where)`, with a gluing failure reported at `where`."""
    try:
        return rule(*args, where)
    except ValidationError as exc:
        if exc.path != where:  # raised by a fill, not by the gluing
            raise
        raise CertificateError(where, exc.message) from None


class CertifiedEngine(RecordAwfs):
    """The records of a certificate block, each checked as it is loaded, and
    the deterministic extraction rules replayed over them.  `variant`, when
    given, is the variant that every record must name, and `max_steps` bounds
    every record's stage count as it bounds the engine's (see `_step_bound`)."""

    def __init__(
        self,
        pools: _Pools,
        diagram: GeneratorDiagram,
        block: dict,
        where: str,
        variant: str | None,
        max_steps: int | None,
    ):
        self.diagram = diagram
        self.where = where
        self.records: dict[str, _Record] = {}
        self._by_arrow: dict[PresheafMap, _Record] = {}
        # each replay runs once per square or arrow; a failure raises and
        # stores nothing
        self._esquares: dict[Square, PresheafMap] = {}
        self._mus: dict[PresheafMap, PresheafMap] = {}
        self._deltas: dict[PresheafMap, PresheafMap] = {}
        for fkey, entry in expect_object(block, where).items():
            w = f"{where}.{fkey}"
            f = pools.m(entry["f"], w)
            _require(entry["f"] == fkey, w, "entry key differs from arrow key")
            stages = [pools.p(k, w) for k in entry["stages"]]
            inclusions = [pools.m(k, w) for k in entry["inclusions"]]
            rmaps = [pools.m(k, w) for k in entry["rmaps"]]
            _require(len(rmaps) == len(stages), w, "rmaps/stages length mismatch")
            bounded = max_steps is None or len(stages) <= max_steps
            _require(bounded, w, f"more stages than max_steps {max_steps} allows")
            cells = []
            for c in entry["cells"]:
                stage = c["stage"]
                _require(
                    type(stage) is int and 1 <= stage < len(stages), w, "cell stage out of range"
                )
                sq = Square(
                    diagram.arrow_of[c["j"]],
                    ArrowObject(rmaps[stage - 1]),
                    pools.m(c["top"], w),
                    pools.m(c["bottom"], w),
                )
                cells.append(CellRecord(stage, c["j"], sq, pools.m(c["injection"], w)))
            # a given variant is the one that the entry must name
            rec_variant = entry["variant"] if variant is None else variant
            rule = partial(self.fill_rule, where=w)
            self.records[fkey] = _Record(
                ArrowObject(f), stages, inclusions, rmaps, cells, rec_variant, rule
            )
            self._by_arrow.setdefault(f, self.records[fkey])
        for fkey in self.records:
            self.check_record(fkey)

    # -- structural checks -------------------------------------------------

    def check_record(self, fkey: str) -> None:
        rec = self.records[fkey]
        w = f"{self.where}.{fkey}"
        _require(rec.stages[0] == rec.f.dom, w, "stage 0 is not the domain")
        _require(rec.rmaps[0] == rec.f.f, w, "r_0 is not the arrow")
        _require(len(rec.inclusions) == len(rec.stages) - 1, w, "inclusions length mismatch")
        for b, incl in enumerate(rec.inclusions):
            _require(incl.src == rec.stages[b] and incl.dst == rec.stages[b + 1], w, "inclusion ill-typed")
            _require(incl.is_injective(), w, f"stage inclusion {b} not injective")
            _require(
                eq_witness(incl.then(rec.rmaps[b + 1]), rec.rmaps[b]) is None,
                w,
                f"r_{b + 1} does not restrict to r_{b}",
            )
        _require(eq_witness(rec.left().then(rec.right()), rec.f.f) is None, w, "R∘L ≠ f")
        # cells: attaching data and gluing laws
        for c in rec.cells:  # stages are in range: the loader checked them
            stage, sq = c.stage, c.square
            _require(sq.commutes(), w, "cell attaching square does not commute")
            _require(
                eq_witness(sq.src.f.then(c.injection), sq.u.then(rec.inclusions[stage - 1]))
                is None,
                w,
                "cell injection does not glue along the generator",
            )
            _require(
                eq_witness(c.injection.then(rec.rmaps[stage]), sq.v) is None,
                w,
                "cell injection incompatible with r",
            )
        _require(len(rec.cell_index) == len(rec.cells), w, "two cells share a square")
        # stage completeness and convergence: past stage 1, the new squares
        # are those whose top edge leaves the image of the inclusion before,
        # so a cell whose top edge stays inside it is rejected here
        for stage in range(1, len(rec.stages)):
            expected = set()
            r_prev = ArrowObject(rec.rmaps[stage - 1])
            for jname in self.diagram.objects():
                j = self.diagram.arrow_of[jname]
                squares = (
                    enumerate_squares(j, r_prev)
                    if stage == 1
                    else enumerate_new_squares(j, r_prev, rec.lookup(stage - 2))
                )
                expected.update((jname, sq.u, sq.v) for sq in squares)
            got = {(c.jname, c.square.u, c.square.v) for c in rec.cells_by_stage[stage]}
            _require(expected == got, w, f"stage {stage} cells do not match the new squares")
        # covering: every stage element reached by the inclusion or a cell
        for stage in range(1, len(rec.stages)):
            target = rec.stages[stage]
            seen = [[False] * n for n in target.sizes]
            cells = rec.cells_by_stage[stage]
            for into in chain([rec.inclusions[stage - 1]], (c.injection for c in cells)):
                for hit, t in zip(seen, into.tables):
                    for v in t:
                        hit[v] = True
            for o, hit in zip(target.base.objects, seen):
                _require(all(hit), w, f"stage {stage} has unreachable elements at {o}")
        # convergence, and each square's fill (`fill_rule`) by both triangles:
        # a natural map passing both is one of the square's fillers
        r_last = ArrowObject(rec.rmaps[-1])
        for jname in self.diagram.objects():
            j = self.diagram.arrow_of[jname]
            for sq in enumerate_squares(j, r_last):
                if len(rec.inclusions) == 0:
                    raise CertificateError(w, "unconverged: squares remain at stage 0")
                _require(
                    rec.factor(sq.u, len(rec.inclusions) - 1) is not None,
                    w,
                    "not converged: a square does not factor through the last stage",
                )
                fill = rec.fill(jname, sq)
                _require(eq_witness(j.f.then(fill), sq.u) is None, w, "fill top triangle fails")
                _require(
                    eq_witness(fill.then(rec.rmaps[-1]), sq.v) is None,
                    w,
                    "fill bottom triangle fails",
                )
        # coherence along the generator shape (`lifting.check_lifting_function`):
        # the fill of a square composed with a connecting square is the
        # connecting square's bottom edge followed by the fill
        shape = self.diagram.shape
        for m in shape.nonidentity_morphisms():
            jp, jn, conn = shape.src(m), shape.dst(m), self.diagram.square_of[m]
            for sq in enumerate_squares(self.diagram.arrow_of[jn], r_last):
                composite = Square(conn.src, r_last, conn.u.then(sq.u), conn.v.then(sq.v))
                _require(
                    rec.fill(jp, composite) == conn.v.then(rec.fill(jn, sq)),
                    w,
                    f"fills are not coherent along {m}",
                )

    # -- replay rules --------------------------------------------------------

    def fill_rule(self, rec: _Record, jname: str, sq: Square, where: str) -> PresheafMap:
        gamma, u_min = len(rec.stages) - 1, sq.u
        while gamma >= 1:
            down = rec.factor(u_min, gamma - 1)
            if down is None:
                break
            gamma, u_min = gamma - 1, down
        c = rec.cell_index.get((gamma + 1, jname, u_min.tables, sq.v))
        _require(c is not None, where, "no minimal-stage cell for a fill")
        return c.injection.then(rec.inclusion_range(gamma + 1, len(rec.stages) - 1))

    def e_walk(self, sq: Square) -> PresheafMap:
        """E on a square, replayed once per square."""
        e = self._esquares.get(sq)
        if e is None:
            e = self._esquares[sq] = _replayed(e_rule, sq, self.record, where=self.where)
        return e

    def mu_replay(self, f: PresheafMap) -> PresheafMap:
        """Algebra structure of R f, replayed once per arrow."""
        mu = self._mus.get(f)
        if mu is None:
            mu = self._mus[f] = _replayed(mu_rule, ArrowObject(f), self.record, where=self.where)
        return mu

    def delta_replay(self, f: PresheafMap) -> PresheafMap:
        """Coalgebra structure of L f, replayed once per arrow."""
        delta = self._deltas.get(f)
        if delta is None:
            args = ArrowObject(f), self.record, self.e_walk
            delta = self._deltas[f] = _replayed(delta_rule, *args, where=self.where)
        return delta

    # -- the `RecordAwfs` hooks and λ, over the certified records ------------

    def record(self, f) -> _Record:
        rec = self._by_arrow.get(_map(f))
        _require(rec is not None, self.where, "no record for a required arrow")
        return rec

    def lam(self, jname: str) -> CoalgebraStructure:
        return lam_rule(self.diagram, jname, self.record)

    def e_on_square(self, sq: Square) -> PresheafMap:
        return self.e_walk(sq)

    def mu(self, f) -> PresheafMap:
        return self.mu_replay(_map(f))

    def delta(self, f) -> PresheafMap:
        return self.delta_replay(_map(f))


def _map(f) -> PresheafMap:
    return f.f if isinstance(f, ArrowObject) else f


_MISMATCH = {  # block -> what a differing entry of it means
    "named": "certified arrow differs from the instance map",
    "stage_tables": "trace does not match the certified stages",
    "lambdas": "unit coalgebra differs from the fill rule",
    "lifting_functions": "fill table differs from the certified record",
    "xi": "xi differs from the cell replay",
    "replacement": "table differs from the replacement (co)monads",
    "chi": "chi differs from the two-lift solution",
}


def _match(pools: _Pools, got, want, where: str, message: str) -> None:
    """`got`, a certificate block, is `want` whole: objects with the same
    keys, lists of the same length, a pool key of an equal table for each
    presheaf and map, and every other value equal."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            raise TypeError(f"{where}: not a JSON object")
        _require(got.keys() == want.keys(), where, "entries differ from the recomputed ones")
        for key, value in want.items():
            _match(pools, got[key], value, f"{where}.{key}", message)
    elif isinstance(want, list):
        if not isinstance(got, list):
            raise TypeError(f"{where}: not a JSON list")
        _require(len(got) == len(want), where, "entries differ from the recomputed ones")
        for i, (item, value) in enumerate(zip(got, want)):
            _match(pools, item, value, f"{where}[{i}]", message)
    elif isinstance(want, Presheaf):
        _require(pools.p(got, where) == want, where, message)
    elif isinstance(want, PresheafMap):
        _require(pools.m(got, where) == want, where, message)
    else:
        _require(type(got) is type(want) and got == want, where, message)


def _match_blocks(pools: _Pools, payload: dict, blocks: dict) -> None:
    """Each recomputed block against the certificate's, the law report last."""
    for key, want in blocks.items():
        if key != "law_report":
            _match(pools, payload.get(key), want, key, _MISMATCH[key])
    if "law_report" in blocks:
        _require(
            payload.get("law_report") == blocks["law_report"],
            "law_report",
            "embedded law report differs from the recomputed one",
        )


def _load_diagram(
    instance: InstanceFile, pools: _Pools, payload: dict, options: dict, key: str
) -> GeneratorDiagram:
    """The instance's generator diagram that the generator block `key`
    certifies: the one its label names, which must be `options[key]` when the
    options give one."""
    label = payload[key]["label"]
    _require(options.get(key, label) == label, f"{key}.label", "differs from the options")
    diagram = instance.generators.get(label)
    _require(diagram is not None and diagram.arrow_of, f"{key}.label", "no such generators")
    _match(pools, payload[key], generator_block(diagram, label), key, "differs from the instance")
    return diagram


def _step_bound(options: dict, soa_payload: dict | None = None) -> int | None:
    """The bound on every record's stage count: `options.max_steps` where the
    options give one, else a `soa` payload's `max_steps`, which must equal the
    options' where both are given; None when neither is.  The engine runs at
    most `max_steps` passes and a converged record's last pass attaches
    nothing, so its stages are at most E^0..E^{max_steps - 1}."""
    bound = None
    for where, block in (("options.max_steps", options), ("max_steps", soa_payload or {})):
        if "max_steps" in block:
            steps = block["max_steps"]
            if type(steps) is not int or steps < 0:
                raise ValidationError(where, "must be a nonnegative integer")
            _require(bound in (None, steps), where, "differs from the options")
            bound = steps
    return bound


def _factored(instance: InstanceFile, payload: dict, options: dict, variant: str | None, bound):
    """A `soa` or `lift` certificate's pools, its checked records and the
    arrows it names."""
    pools = _Pools(instance, payload)
    diagram = _load_diagram(instance, pools, payload, options, "generators")
    engine = CertifiedEngine(pools, diagram, payload["arrows"], "arrows", variant, bound)
    names = options.get("arrows")
    named = instance.requested_arrows(diagram.base, names.split(",") if names else None)
    return pools, engine, named


def _match_records(pools: _Pools, engine: CertifiedEngine, block: dict, structure=None) -> None:
    """Each record entry of `block` is `soa.record_block` of its checked
    record whole, with its δ and μ where `structure` (by arrow) holds them."""
    structure = structure or {}
    for fkey, rec in engine.records.items():
        want = record_block(engine.diagram, rec, structure.get(rec.f))
        where = f"{engine.where}.{fkey}"
        _match(pools, block[fkey], want, where, "differs from the recomputed record entry")


def _verify_soa_payload(instance: InstanceFile, payload: dict, options: dict) -> None:
    variant = payload["variant"]
    _require(
        variant in ("monic", "standard") and options.get("variant", variant) == variant,
        "variant",
        "differs from the options",
    )
    bound = _step_bound(options, payload)
    pools, engine, named = _factored(instance, payload, options, variant, bound)
    blocks, structure = soa_blocks(engine, named, variant)
    _match_records(pools, engine, payload["arrows"], structure)
    _match_blocks(pools, payload, blocks)


def _verify_lift_payload(instance: InstanceFile, payload: dict, options: dict) -> None:
    variant, bound = options.get("variant"), _step_bound(options)
    pools, engine, named = _factored(instance, payload, options, variant, bound)
    _match_records(pools, engine, payload["arrows"])
    _match_blocks(pools, payload, lift_blocks(engine, named))


def _verify_model_payload(instance: InstanceFile, payload: dict, options: dict) -> None:
    pools = _Pools(instance, payload)
    diagram_j = _load_diagram(instance, pools, payload, options, "generators_j")
    diagram_i = _load_diagram(instance, pools, payload, options, "generators_i")
    tau = instance.taus.get(options.get("tau"))
    _require(tau is not None, "options.tau", "unknown tau")
    _require(
        tau.src == diagram_j and tau.dst == diagram_i,
        "options.tau",
        "tau does not run between the certified generator diagrams",
    )
    limits = options.get("variant"), _step_bound(options)
    engine_j = CertifiedEngine(pools, diagram_j, payload["arrows_j"], "arrows_j", *limits)
    engine_i = CertifiedEngine(pools, diagram_i, payload["arrows_i"], "arrows_i", *limits)
    _match_records(pools, engine_j, payload["arrows_j"])
    _match_records(pools, engine_i, payload["arrows_i"])
    amstr = build_model_structure(engine_j, engine_i, tau, instance.weq)
    # the objects `model_certificate` tries, less those it reports unconverged
    candidates = replacement_candidates(instance.presheaves, diagram_j.base)
    skipped = payload["replacement_skipped"]
    _require(
        all(n in candidates for n in skipped), "replacement_skipped", "not a candidate object"
    )
    objects = {n: instance.presheaves[n] for n in candidates if n not in skipped}
    blocks = model_blocks(amstr, instance.requested_arrows(diagram_j.base), objects)
    _match_blocks(pools, payload, blocks)
    # a failure is reported only once the recomputed report confirms it
    for entry in payload["law_report"]:
        _require(
            entry["status"] == "pass", f"law_report.{entry['law']}", "embedded law failure"
        )


def _verify_report_only(instance: InstanceFile, payload: dict) -> None:
    pools = _Pools(instance, payload)
    for entry in payload.get("law_report", []):
        _require(
            entry["status"] == "pass", f"law_report.{entry['law']}", "embedded law failure"
        )


def verify_certificate(instance: InstanceFile, cert: dict) -> tuple[bool, str]:
    """Recheck every claim of a certificate; (True, "") or (False, first failure)."""
    try:
        _require("payload" in cert and "command" in cert, "envelope", "missing fields")
        _require(
            cert.get("input_hash") == instance.input_hash(),
            "envelope.input_hash",
            "certificate was produced from a different instance",
        )
        command = cert["command"]
        payload = cert["payload"]
        options = cert.get("options", {})
        if command == "soa":
            _verify_soa_payload(instance, payload, options)
        elif command == "lift":
            _verify_lift_payload(instance, payload, options)
        elif command == "model":
            _verify_model_payload(instance, payload, options)
        elif command in ("transport", "quillen-check"):
            _verify_report_only(instance, payload)
        else:
            raise CertificateError("command", f"unknown command {command!r}")
    except CertificateError as exc:
        return False, str(exc)
    except (
        ValidationError, FillFailure, KeyError, TypeError, IndexError, AttributeError, ValueError
    ) as exc:
        return False, f"malformed certificate: {exc}"
    return True, ""
