"""Independent certificate verification.

The verifier never runs the engine's small object argument: it rebuilds
presheaf and map tables from the certificate pools and rechecks every claim
over the certified records.

It shares two things with the engine.  One is the cell rules, which fix a
map out of a cellular object by where each cell goes: E on squares, μ and δ
(`soa.e_rule`, `mu_rule`, `delta_rule`) and the comparison map ξ
(`model.xi_rule`).  It runs them over certified records, whose fills are the
certified fill tables; `CertifiedEngine.check_record` matches every table
entry against the verifier's own `fill_rule` before any rule reads it.  The
other is the `model` law suites (`verify_comparison`,
`validate_model_axioms`, `check_replacement_laws`), rerun over the certified
records.

Everything else it checks on its own: content addressing and the naturality
of every pooled map; each record's structure, with injective stage
inclusions under both variants; stage completeness by its own square search
(stage k's cells must be exactly the squares into r_{k-1} whose top edge
leaves the image of inclusion k-2, all squares into r_0 at stage 1);
covering; convergence; every fill against `fill_rule`, which factors through
the inclusions by inverse lookup, so inclusions need not be prefixes; and the
law reports, recomputed and compared with the embedded ones.  A fill or lift
fill is checked by its two triangles: a natural map that passes both is one
of `lifting.oracle_lift`'s fillers by definition, so the oracle is not rerun.
ξ's lifting problem can have several fillers, so each certified ξ_f must
equal its cell replay.  Each χ must equal the canonical two-route lift that
the law suites compute and check to fill its lifting problem.  The engine
computes ξ and ρ cell by cell, so ξ factors only f on either side: a `model`
certificate's `arrows_i` holds only the records that ξ, the replacement
tables and χ rest on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

from .arrows import (
    ArrowObject,
    Awfs,
    AwfsMorphism,
    Factored,
    FunctorialFactorization,
    LawReport,
    Square,
    verify_awfs,
)
from .core import (
    FiniteCategory,
    Presheaf,
    PresheafMap,
    ValidationError,
    canonical_dumps,
    eq_witness,
    expect_components,
    factor_through,
    inverse_lookup,
    sha256_hex,
)
from .instance import InstanceFile
from .lifting import (
    AlgebraStructure,
    CoalgebraStructure,
    FillFailure,
    GeneratorDiagram,
    enumerate_new_squares,
    enumerate_squares,
    square_key,
)
from .model import (
    AlgebraicModelStructure,
    bang,
    check_replacement_laws,
    chi,
    cobang,
    validate_model_axioms,
    verify_comparison,
    xi_rule,
)
from .soa import CellRecord, delta_rule, e_rule, mu_rule


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
        for key, content in payload.get("presheaves", {}).items():
            recomputed = "p" + sha256_hex(canonical_dumps(content))[:16]
            _require(recomputed == key, f"presheaves.{key}", "content hash mismatch")
            bname = content.get("base", "main")
            _require(bname in bases, f"presheaves.{key}", f"unknown base {bname}")
            p = Presheaf.from_json(bases[bname], content, f"presheaves.{key}")
            p.validate(f"presheaves.{key}")
            self.presheaves[key] = p
        for key, content in payload.get("maps", {}).items():
            recomputed = "m" + sha256_hex(canonical_dumps(content))[:16]
            _require(recomputed == key, f"maps.{key}", "content hash mismatch")
            src = self.presheaves.get(content["src"])
            dst = self.presheaves.get(content["dst"])
            _require(src is not None and dst is not None, f"maps.{key}", "dangling endpoint")
            tables = expect_components(content["components"], src.base, f"maps.{key}.components")
            m = PresheafMap.from_tables(src, dst, tables)
            m.validate(f"maps.{key}")
            self.maps[key] = m

    def m(self, key: str, where: str) -> PresheafMap:
        _require(key in self.maps, where, f"dangling map reference {key}")
        return self.maps[key]

    def p(self, key: str, where: str) -> Presheaf:
        _require(key in self.presheaves, where, f"dangling presheaf reference {key}")
        return self.presheaves[key]


@dataclass
class _Record:
    """A certified record, with the interface the cell rules read (see
    `soa.e_rule`); its fills come from the certified fill table, which
    `CertifiedEngine.check_record` matches against `fill_rule`."""

    f: PresheafMap
    stages: list[Presheaf]
    inclusions: list[PresheafMap]
    rmaps: list[PresheafMap]
    cells: list[CellRecord]
    fills: dict[tuple[str, PresheafMap, PresheafMap], PresheafMap]  # (j, top, bottom) -> fill
    left_map: PresheafMap
    right_map: PresheafMap
    delta: PresheafMap | None
    mu: PresheafMap | None
    _lookups: dict[int, dict] = field(default_factory=dict)  # inclusion -> its inverse
    _ranges: dict[tuple[int, int], PresheafMap] = field(default_factory=dict)

    def left(self) -> PresheafMap:
        return self.left_map

    def right(self) -> PresheafMap:
        return self.right_map

    def mid(self) -> Presheaf:
        return self.stages[-1]

    def fill(self, jname: str, sq: Square) -> PresheafMap:
        return self.fills[(jname, sq.u, sq.v)]

    def inclusion_range(self, lo: int, hi: int) -> PresheafMap:
        if (lo, hi) not in self._ranges:
            out = PresheafMap.identity(self.stages[lo])
            for b in range(lo, hi):
                out = out.then(self.inclusions[b])
            self._ranges[(lo, hi)] = out
        return self._ranges[(lo, hi)]

    def lookup(self, b: int) -> tuple[dict[int, int], ...]:
        """The inverse of inclusion b (stage b -> b + 1), built once: per base
        object, each element of its image -> its preimage."""
        if b not in self._lookups:
            self._lookups[b] = inverse_lookup(self.inclusions[b])
        return self._lookups[b]

    def factor(self, u: PresheafMap, b: int) -> PresheafMap | None:
        """`u` factored through inclusion b, or None."""
        return factor_through(u, self.inclusions[b], self.lookup(b))

    @cached_property
    def cells_by_stage(self) -> list[list[CellRecord]]:
        """stage -> its cells, in certificate order."""
        out: list[list[CellRecord]] = [[] for _ in self.stages]
        for c in self.cells:
            out[c.stage].append(c)
        return out

    @cached_property
    def cell_index(self) -> dict[tuple, CellRecord]:
        """(stage, j, top, bottom) -> the first cell with those fields."""
        out: dict[tuple, CellRecord] = {}
        for c in self.cells:
            out.setdefault((c.stage, c.jname, c.square.u, c.square.v), c)
        return out


def _replayed(rule, *args, where: str) -> PresheafMap:
    """`rule(*args, where)`, with a gluing failure reported at `where`."""
    try:
        return rule(*args, where)
    except ValidationError as exc:
        if exc.path != where:  # raised by a fill, not by the gluing
            raise
        raise CertificateError(where, exc.message) from None


class CertifiedEngine:
    """Replay of the deterministic extraction rules over certified records."""

    def __init__(self, pools: _Pools, diagram: GeneratorDiagram, block: dict, where: str):
        self.pools = pools
        self.diagram = diagram
        self.where = where
        self.records: dict[str, _Record] = {}
        self._by_arrow: dict[PresheafMap, _Record] = {}
        # each replay runs once per square or arrow; a failure raises and
        # stores nothing
        self._esquares: dict[Square, PresheafMap] = {}
        self._mus: dict[PresheafMap, PresheafMap] = {}
        self._deltas: dict[PresheafMap, PresheafMap] = {}
        for fkey, entry in block.items():
            w = f"{where}.{fkey}"
            f = pools.m(entry["f"], w)
            _require(entry["f"] == fkey, w, "entry key differs from arrow key")
            stages = [pools.p(k, w) for k in entry["stages"]]
            inclusions = [pools.m(k, w) for k in entry["inclusions"]]
            rmaps = [pools.m(k, w) for k in entry["rmaps"]]
            _require(len(rmaps) == len(stages), w, "rmaps/stages length mismatch")
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
            fills = {}
            for fill in entry["fills"]:
                top = pools.m(fill["top"], w)
                bottom = pools.m(fill["bottom"], w)
                fills[(fill["j"], top, bottom)] = pools.m(fill["fill"], w)
            self.records[fkey] = _Record(
                f,
                stages,
                inclusions,
                rmaps,
                cells,
                fills,
                pools.m(entry["left"], w),
                pools.m(entry["right"], w),
                pools.m(entry["delta"], w) if "delta" in entry else None,
                pools.m(entry["mu"], w) if "mu" in entry else None,
            )
            self._by_arrow.setdefault(f, self.records[fkey])

    def record_of(self, f: PresheafMap, where: str) -> _Record:
        rec = self._by_arrow.get(f)
        _require(rec is not None, where, "no record for a required arrow")
        return rec

    # -- structural checks -------------------------------------------------

    def check_record(self, fkey: str) -> None:
        rec = self.records[fkey]
        w = f"{self.where}.{fkey}"
        _require(rec.stages[0] == rec.f.src, w, "stage 0 is not the domain")
        _require(rec.rmaps[0] == rec.f, w, "r_0 is not the arrow")
        _require(len(rec.inclusions) == len(rec.stages) - 1, w, "inclusions length mismatch")
        left, right = rec.left(), rec.right()
        _require(rec.stages[-1] == left.dst, w, "left factor lands off the last stage")
        _require(left == rec.inclusion_range(0, len(rec.stages) - 1), w, "left factor is not the stage composite")
        _require(right == rec.rmaps[-1], w, "right factor is not the last r")
        _require(eq_witness(left.then(right), rec.f) is None, w, "R∘L ≠ f")
        for b, incl in enumerate(rec.inclusions):
            _require(incl.src == rec.stages[b] and incl.dst == rec.stages[b + 1], w, "inclusion ill-typed")
            _require(incl.is_injective(), w, f"stage inclusion {b} not injective")
            _require(
                eq_witness(incl.then(rec.rmaps[b + 1]), rec.rmaps[b]) is None,
                w,
                f"r_{b + 1} does not restrict to r_{b}",
            )
        # cells: attaching data and gluing laws
        by_stage: dict[int, dict[tuple, CellRecord]] = {}
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
            by_stage.setdefault(stage, {})[(c.jname, sq.u, sq.v)] = c
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
            got = by_stage.get(stage, {})
            _require(
                expected == set(got),
                w,
                f"stage {stage} cells do not match the new squares",
            )
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
        # fills: completeness, the minimal-stage rule and both triangles (a
        # natural map passing both is one of the square's fillers)
        expected_fills = set()
        for jname in self.diagram.objects():
            j = self.diagram.arrow_of[jname]
            for sq in enumerate_squares(j, r_last):
                key = (jname, sq.u, sq.v)
                expected_fills.add(key)
                _require(key in rec.fills, w, "missing fill for a square")
                fill = rec.fills[key]
                _require(
                    eq_witness(fill, self.fill_rule(rec, jname, sq, w)) is None,
                    w,
                    "fill differs from the minimal-stage cell",
                )
                _require(eq_witness(j.f.then(fill), sq.u) is None, w, "fill top triangle fails")
                _require(
                    eq_witness(fill.then(rec.rmaps[-1]), sq.v) is None,
                    w,
                    "fill bottom triangle fails",
                )
        _require(set(rec.fills) == expected_fills, w, "extra fills present")

    # -- replay rules --------------------------------------------------------

    def fill_rule(self, rec: _Record, jname: str, sq: Square, where: str) -> PresheafMap:
        gamma, u_min = len(rec.stages) - 1, sq.u
        while gamma >= 1:
            down = rec.factor(u_min, gamma - 1)
            if down is None:
                break
            gamma, u_min = gamma - 1, down
        c = rec.cell_index.get((gamma + 1, jname, u_min, sq.v))
        _require(c is not None, where, "no minimal-stage cell for a fill")
        return c.injection.then(rec.inclusion_range(gamma + 1, len(rec.stages) - 1))

    def record_lookup(self, where: str):
        """Records by arrow, for the cell rules."""
        return lambda a: self.record_of(a.f, where)

    def e_walk(self, sq: Square, where: str) -> PresheafMap:
        """E on a square, replayed once per square."""
        if sq not in self._esquares:
            self._esquares[sq] = _replayed(e_rule, sq, self.record_lookup(where), where=where)
        return self._esquares[sq]

    def mu_replay(self, f: PresheafMap, where: str) -> PresheafMap:
        """Algebra structure of R f, replayed once per arrow."""
        if f not in self._mus:
            self._mus[f] = _replayed(mu_rule, ArrowObject(f), self.record_lookup(where), where=where)
        return self._mus[f]

    def delta_replay(self, f: PresheafMap, where: str) -> PresheafMap:
        """Coalgebra structure of L f, replayed once per arrow."""
        if f not in self._deltas:
            record, e = self.record_lookup(where), lambda sq: self.e_walk(sq, where)
            self._deltas[f] = _replayed(delta_rule, ArrowObject(f), record, e, where=where)
        return self._deltas[f]

    # -- the `GeneratedAwfs` surface that the law suites read ---------------

    def factor(self, f) -> Factored:
        rec = self.record_of(_map(f), self.where)
        return Factored(rec.left(), rec.mid(), rec.right())

    def e_on_square(self, sq: Square) -> PresheafMap:
        return self.e_walk(sq, self.where)

    def mu(self, f) -> PresheafMap:
        return self.mu_replay(_map(f), self.where)

    def delta(self, f) -> PresheafMap:
        return self.delta_replay(_map(f), self.where)

    def free_algebra(self, f) -> AlgebraStructure:
        return AlgebraStructure(ArrowObject(self.factor(f).right), self.mu(f))

    def free_coalgebra(self, f) -> CoalgebraStructure:
        return CoalgebraStructure(ArrowObject(self.factor(f).left), self.delta(f))

    def as_fact(self) -> FunctorialFactorization:
        return FunctorialFactorization(self.factor, self.e_on_square)

    def as_awfs(self) -> Awfs:
        return Awfs(self.as_fact(), self.delta, self.mu)


def _map(f) -> PresheafMap:
    return f.f if isinstance(f, ArrowObject) else f


def _load_diagram(pools: _Pools, block: dict, where: str) -> GeneratorDiagram:
    arrows = {
        name: ArrowObject(pools.m(key, where)) for name, key in block["objects"].items()
    }
    if "shape" in block:
        shape = FiniteCategory.from_json(block["shape"])
        squares = {
            m: Square(
                arrows[shape.src(m)],
                arrows[shape.dst(m)],
                pools.m(sq["top"], where),
                pools.m(sq["bottom"], where),
            )
            for m, sq in block.get("squares", {}).items()
        }
        diagram = GeneratorDiagram(shape, arrows, squares)
    else:
        diagram = GeneratorDiagram.discrete(arrows)
    diagram.validate(where)
    return diagram


def _verify_soa_payload(instance: InstanceFile, payload: dict) -> None:
    pools = _Pools(instance, payload)
    diagram = _load_diagram(pools, payload["generators"], "generators")
    engine = CertifiedEngine(pools, diagram, payload["arrows"], "arrows")
    variant = payload.get("variant", "monic")
    for fkey in payload["arrows"]:
        engine.check_record(fkey)
    for name, fkey in payload.get("named", {}).items():
        rec = engine.records.get(fkey)
        _require(rec is not None, f"named.{name}", "dangling arrow reference")
        _require(
            payload["stage_tables"].get(name) == [s.total_size for s in rec.stages],
            f"stage_tables.{name}",
            "trace does not match the certified stages",
        )
        if instance.maps.get(name) is not None:
            _require(
                rec.f == instance.maps[name],
                f"named.{name}",
                "certified arrow differs from the instance map",
            )
    report = LawReport()  # what `soa_certificate` embeds for the standard variant
    # delta / mu pinned by replay
    if variant == "monic":
        for fkey, entry in payload["arrows"].items():
            rec = engine.records[fkey]
            if rec.mu is not None:
                _require(
                    eq_witness(rec.mu, engine.mu_replay(rec.f, f"arrows.{fkey}.mu")) is None,
                    f"arrows.{fkey}.mu",
                    "mu differs from the stage-collapse replay",
                )
            if rec.delta is not None:
                _require(
                    eq_witness(rec.delta, engine.delta_replay(rec.f, f"arrows.{fkey}.delta"))
                    is None,
                    f"arrows.{fkey}.delta",
                    "delta differs from the composite replay",
                )
        for jname, skey in payload.get("lambdas", {}).items():
            s = pools.m(skey, f"lambdas.{jname}")
            j = diagram.arrow_of[jname]
            rec = engine.record_of(j.f, f"lambdas.{jname}")
            sq = Square(j, ArrowObject(rec.right()), rec.left(), PresheafMap.identity(j.cod))
            _require(
                eq_witness(s, rec.fill(jname, sq)) is None,
                f"lambdas.{jname}",
                "unit coalgebra differs from the fill rule",
            )
        # re-run the law suite through the certified tables
        probes = [
            ArrowObject(pools.m(k, "named")) for k in payload.get("named", {}).values()
        ]
        if probes:
            report = verify_awfs(engine.as_awfs(), probes)
            _require(report.passed, "law_report", "relaw check failed on certified tables")
    _require(
        payload.get("law_report") == report.to_json(),
        "law_report",
        "embedded law report differs from the recomputed one",
    )


def _verify_lift_payload(instance: InstanceFile, payload: dict) -> None:
    pools = _Pools(instance, payload)
    diagram = _load_diagram(pools, payload["generators"], "generators")
    engine = CertifiedEngine(pools, diagram, payload.get("arrows", {}), "arrows")
    for fkey in payload.get("arrows", {}):
        engine.check_record(fkey)
    for name, block in payload.get("lifting_functions", {}).items():
        where = f"lifting_functions.{name}"
        arrow = pools.m(block["arrow"], where)
        right = pools.m(block["right_factor"], where)
        _require(arrow.dst == right.dst, where, "right factor has the wrong codomain")
        rec = engine.record_of(arrow, where)
        _require(rec.right() == right, where, "right factor differs from the certified record")
        rarr = ArrowObject(right)
        seen = set()
        for entry in block["fills"]:
            j = diagram.arrow_of[entry["j"]]
            top = pools.m(entry["top"], where)
            bottom = pools.m(entry["bottom"], where)
            fill = pools.m(entry["fill"], where)
            sq = Square(j, rarr, top, bottom)
            _require(sq.commutes(), where, "fill square does not commute")
            _require(eq_witness(j.f.then(fill), top) is None, where, "fill top triangle")
            _require(eq_witness(fill.then(right), bottom) is None, where, "fill bottom triangle")
            _require(
                eq_witness(fill, engine.fill_rule(rec, entry["j"], sq, where)) is None,
                where,
                "fill differs from the minimal-stage cell",
            )
            _require(
                entry["square_hash"] == sha256_hex(square_key(top, bottom))[:16],
                where,
                "square hash mismatch",
            )
            seen.add((entry["j"], top, bottom))
        expected = set()
        for jname in diagram.objects():
            j = diagram.arrow_of[jname]
            for sq in enumerate_squares(j, rarr):
                expected.add((jname, sq.u, sq.v))
        _require(seen == expected, where, "fill table incomplete or padded")


def _verify_model_payload(instance: InstanceFile, payload: dict, options: dict) -> None:
    for entry in payload.get("law_report", []):
        _require(
            entry["status"] == "pass", f"law_report.{entry['law']}", "embedded law failure"
        )
    pools = _Pools(instance, payload)
    diagram_j = _load_diagram(pools, payload["generators_j"], "generators_j")
    diagram_i = _load_diagram(pools, payload["generators_i"], "generators_i")
    tau = instance.taus.get(options.get("tau"))
    _require(tau is not None, "options.tau", "unknown tau")
    _require(
        tau.src == diagram_j and tau.dst == diagram_i,
        "options.tau",
        "tau does not run between the certified generator diagrams",
    )
    engine_j = CertifiedEngine(pools, diagram_j, payload["arrows_j"], "arrows_j")
    engine_i = CertifiedEngine(pools, diagram_i, payload["arrows_i"], "arrows_i")
    for fkey in payload["arrows_j"]:
        engine_j.check_record(fkey)
    for fkey in payload["arrows_i"]:
        engine_i.check_record(fkey)
    xis: dict[ArrowObject, PresheafMap] = {}  # ξ replayed once per arrow

    def xi(f: ArrowObject, where: str = "law_report") -> PresheafMap:
        if f not in xis:
            records = engine_j.record_lookup(where), engine_i.record_lookup(where)
            xis[f] = _replayed(xi_rule, f, *records, tau, where=where)
        return xis[f]

    base = next(iter(diagram_j.arrow_of.values())).base
    named = {name: ArrowObject(m) for name, m in instance.maps.items() if m.base == base}
    _require(set(payload["xi"]) == set(named), "xi", "not one table per named arrow")
    for name, key in payload["xi"].items():
        where, f = f"xi.{name}", named[name]
        xi_f = pools.m(key, where)
        rec_j, rec_i = engine_j.record_of(f.f, where), engine_i.record_of(f.f, where)
        _require(eq_witness(rec_j.left().then(xi_f), rec_i.left()) is None, where, "left triangle")
        _require(eq_witness(xi_f.then(rec_i.right()), rec_j.right()) is None, where, "right triangle")
        _require(eq_witness(xi_f, xi(f, where)) is None, where, "xi differs from the cell replay")
    # the objects `model_certificate` tries, less those it reports unconverged
    candidates = [
        n for n, p in instance.presheaves.items() if p.base == base and p.total_size <= 3
    ]
    skipped = payload["replacement_skipped"]
    _require(
        all(n in candidates for n in skipped), "replacement_skipped", "not a candidate object"
    )
    objects = [n for n in candidates if n not in skipped]
    for key in ("replacement", "chi"):
        _require(set(payload[key]) == set(objects), key, "not one entry per replaced object")
    # replacement tables: direct re-derivation from certified records
    for name, block in payload["replacement"].items():
        where = f"replacement.{name}"
        x = instance.presheaves[name]
        rec_r = engine_j.record_of(bang(x), where)
        rec_q = engine_i.record_of(cobang(x), where)
        _require(pools.p(block["R"], where) == rec_r.mid(), where, "R table mismatch")
        _require(pools.p(block["Q"], where) == rec_q.mid(), where, "Q table mismatch")
        _require(pools.m(block["unit"], where) == rec_r.left(), where, "unit mismatch")
        _require(pools.m(block["counit"], where) == rec_q.right(), where, "counit mismatch")
        _require(
            eq_witness(pools.m(block["mult"], where), engine_j.mu_replay(bang(x), where))
            is None,
            where,
            "mult differs from replay",
        )
        _require(
            eq_witness(pools.m(block["comult"], where), engine_i.delta_replay(cobang(x), where))
            is None,
            where,
            "comult differs from replay",
        )
    # the law suites, rerun over the certified records with ξ replayed; they
    # compute each χ as the canonical two-route lift, checking that it fills
    # its lifting problem, and the certified χ must be that lift
    amstr = AlgebraicModelStructure(engine_j, engine_i, tau, AwfsMorphism(xi), instance.weq)
    report = verify_comparison(amstr, list(named.values()))
    report.extend(validate_model_axioms(amstr, list(named.values())))
    report.extend(check_replacement_laws(amstr, [instance.presheaves[n] for n in objects]))
    _require(
        payload.get("law_report") == report.to_json(),
        "law_report",
        "embedded law report differs from the recomputed one",
    )
    for name, key in payload["chi"].items():
        _require(
            eq_witness(pools.m(key, f"chi.{name}"), chi(amstr, instance.presheaves[name])) is None,
            f"chi.{name}",
            "chi differs from the two-lift solution",
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
        if command == "soa":
            _verify_soa_payload(instance, payload)
        elif command == "lift":
            _verify_lift_payload(instance, payload)
        elif command == "model":
            _verify_model_payload(instance, payload, cert.get("options", {}))
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
