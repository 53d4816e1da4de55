"""Independent certificate verification.

The verifier never runs the engine: it rebuilds presheaf and map tables from
the certificate pools, checks content addressing and the naturality of every
pooled map, and then rechecks every claim by direct table composition, its
own square search, and deterministic replay of the extraction rules
(minimal-stage fills, cell-wise multiplication, square reindexing) over the
certified stage data.  Stage k's cells must be exactly the squares into
r_{k-1} whose top edge leaves the image of inclusion k-2 (all squares into
r_0 at stage 1); inclusions need not be prefixes.  A fill, lift fill or χ is
checked by its two triangles: a natural map that passes both is one of
`lifting.oracle_lift`'s fillers by definition, so the oracle is not rerun.
The comparison map ξ of a `model` certificate, whose lifting problem can have
several fillers, is replayed by the engine's cell rule: each J-cell of f goes
to the minimal-stage fill, in f's I-side record, of its square read through
τ.  The engine computes ξ and ρ cell by cell, so ξ factors only f on either
side: a `model` certificate's `arrows_i` holds only the records that ξ, the
replacement tables and χ rest on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

from .arrows import (
    ArrowObject,
    Awfs,
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
    glue,
    inverse_lookup,
    sha256_hex,
)
from .instance import InstanceFile
from .lifting import GeneratorDiagram, enumerate_new_squares, enumerate_squares, square_key
from .model import bang, cobang


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
    f: PresheafMap
    stages: list[Presheaf]
    inclusions: list[PresheafMap]
    rmaps: list[PresheafMap]
    cells: list[dict]  # stage, j, top, bottom, injection (resolved maps)
    fills: dict[tuple[str, PresheafMap, PresheafMap], PresheafMap]  # (j, top, bottom) -> fill
    left: PresheafMap
    right: PresheafMap
    delta: PresheafMap | None
    mu: PresheafMap | None
    _lookups: dict[int, dict] = field(default_factory=dict)  # inclusion -> its inverse
    _ranges: dict[tuple[int, int], PresheafMap] = field(default_factory=dict)

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
    def cells_by_stage(self) -> dict[int, list[dict]]:
        """stage -> its cells, in certificate order."""
        out: dict[int, list[dict]] = {}
        for c in self.cells:
            out.setdefault(c["stage"], []).append(c)
        return out

    @cached_property
    def cell_index(self) -> dict[tuple, dict]:
        """(stage, j, top, bottom) -> the first cell with those fields."""
        out: dict[tuple, dict] = {}
        for c in self.cells:
            out.setdefault((c["stage"], c["j"], c["top"], c["bottom"]), c)
        return out


def _walk_stages(
    rec: _Record, start: PresheafMap, dst: Presheaf, fill, where: str, problem: str
) -> PresheafMap:
    """Extend `start` (out of stage 0) stage by stage to a map out of the last
    stage: along each inclusion it is the previous map, on each cell
    `fill(cell, prev_map)`."""
    current = start
    for stage in range(1, len(rec.stages)):
        cells = rec.cells_by_stage.get(stage, ())
        parts = chain(
            [(rec.inclusions[stage - 1], current)],
            ((c["injection"], fill(c, current)) for c in cells),
        )
        try:
            current = glue(rec.stages[stage], dst, parts, where, problem)
        except ValidationError as exc:
            if exc.path != where:  # raised by a fill, not by the gluing
                raise
            raise CertificateError(where, problem) from None
    return current


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
            cells = [
                {
                    "stage": c["stage"],
                    "j": c["j"],
                    "top": pools.m(c["top"], w),
                    "bottom": pools.m(c["bottom"], w),
                    "injection": pools.m(c["injection"], w),
                }
                for c in entry["cells"]
            ]
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

    def check_record(self, fkey: str, variant: str) -> None:
        rec = self.records[fkey]
        w = f"{self.where}.{fkey}"
        _require(rec.stages[0] == rec.f.src, w, "stage 0 is not the domain")
        _require(rec.rmaps[0] == rec.f, w, "r_0 is not the arrow")
        _require(len(rec.rmaps) == len(rec.stages), w, "rmaps/stages length mismatch")
        _require(len(rec.inclusions) == len(rec.stages) - 1, w, "inclusions length mismatch")
        _require(rec.stages[-1] == rec.left.dst, w, "left factor lands off the last stage")
        _require(rec.left == rec.inclusion_range(0, len(rec.stages) - 1), w, "left factor is not the stage composite")
        _require(rec.right == rec.rmaps[-1], w, "right factor is not the last r")
        _require(eq_witness(rec.left.then(rec.right), rec.f) is None, w, "R∘L ≠ f")
        for b, incl in enumerate(rec.inclusions):
            _require(incl.src == rec.stages[b] and incl.dst == rec.stages[b + 1], w, "inclusion ill-typed")
            if variant == "monic":
                _require(incl.is_injective(), w, f"stage inclusion {b} not injective")
            _require(
                eq_witness(incl.then(rec.rmaps[b + 1]), rec.rmaps[b]) is None,
                w,
                f"r_{b + 1} does not restrict to r_{b}",
            )
        # cells: attaching data and gluing laws
        by_stage: dict[int, dict[tuple, dict]] = {}
        for c in rec.cells:
            stage = c["stage"]
            _require(1 <= stage < len(rec.stages), w, "cell stage out of range")
            j = self.diagram.arrow_of[c["j"]]
            sq = Square(j, ArrowObject(rec.rmaps[stage - 1]), c["top"], c["bottom"])
            _require(sq.commutes(), w, "cell attaching square does not commute")
            _require(
                eq_witness(
                    j.f.then(c["injection"]), c["top"].then(rec.inclusions[stage - 1])
                )
                is None,
                w,
                "cell injection does not glue along the generator",
            )
            _require(
                eq_witness(c["injection"].then(rec.rmaps[stage]), c["bottom"]) is None,
                w,
                "cell injection incompatible with r",
            )
            by_stage.setdefault(stage, {})[(c["j"], c["top"], c["bottom"])] = c
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
            cells = rec.cells_by_stage.get(stage, ())
            for into in chain([rec.inclusions[stage - 1]], (c["injection"] for c in cells)):
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
        return c["injection"].then(rec.inclusion_range(gamma + 1, len(rec.stages) - 1))

    def free_fill(self, f: PresheafMap, jname: str, sq: Square, where: str) -> PresheafMap:
        return self.fill_rule(self.record_of(f, where), jname, sq, where)

    def e_walk(self, sq: Square, where: str) -> PresheafMap:
        """E on a square, replayed once per square."""
        if sq not in self._esquares:
            self._esquares[sq] = self._replay_e(sq, where)
        return self._esquares[sq]

    def mu_replay(self, f: PresheafMap, where: str) -> PresheafMap:
        """Algebra structure of R f, replayed once per arrow."""
        if f not in self._mus:
            self._mus[f] = self._replay_mu(f, where)
        return self._mus[f]

    def delta_replay(self, f: PresheafMap, where: str) -> PresheafMap:
        """Coalgebra structure of L f, replayed once per arrow."""
        if f not in self._deltas:
            self._deltas[f] = self._replay_delta(f, where)
        return self._deltas[f]

    def _replay_e(self, sq: Square, where: str) -> PresheafMap:
        recf = self.record_of(sq.src.f, where)
        recg = self.record_of(sq.dst.f, where)
        rg = ArrowObject(recg.right)

        def fill(c: dict, prev_map: PresheafMap) -> PresheafMap:
            j = self.diagram.arrow_of[c["j"]]
            top = c["top"].then(prev_map)
            bottom = c["bottom"].then(sq.v)
            return self.fill_rule(recg, c["j"], Square(j, rg, top, bottom), where)

        return _walk_stages(
            recf, sq.u.then(recg.left), recg.stages[-1], fill, where, "inconsistent E reindexing"
        )

    def _replay_mu(self, f: PresheafMap, where: str) -> PresheafMap:
        """Each cell of E(R f) goes to f's certified fill of its attaching
        square."""
        rec = self.record_of(f, where)
        rec_r = self.record_of(rec.right, where)

        def fill(c: dict, prev_map: PresheafMap) -> PresheafMap:
            return rec.fills[(c["j"], c["top"].then(prev_map), c["bottom"])]

        e_rf = rec_r.f.src
        return _walk_stages(
            rec_r, PresheafMap.identity(e_rf), e_rf, fill, where, "incoherent algebra assembly"
        )

    def _replay_delta(self, f: PresheafMap, where: str) -> PresheafMap:
        """E of the square (L L f, 1) from f to R L f ∘ R f, then the
        composite lifting function's algebra structure on that composite."""
        rec = self.record_of(f, where)
        rec_l = self.record_of(rec.left, where)
        rlf, rf = rec_l.right, rec.right
        comp = rlf.then(rf)
        rec_comp = self.record_of(comp, where)

        def fill(c: dict, prev_map: PresheafMap) -> PresheafMap:
            """Composite lifting function: fill against R f, then against R L f."""
            top = c["top"].then(prev_map)
            mid = rec.fills[(c["j"], top.then(rlf), c["bottom"])]
            return rec_l.fills[(c["j"], top, mid)]

        t_comp = _walk_stages(
            rec_comp, PresheafMap.identity(comp.src), comp.src, fill, where,
            "incoherent algebra assembly",
        )
        e_map = self.e_walk(
            Square(
                ArrowObject(f), ArrowObject(comp), rec_l.left, PresheafMap.identity(f.dst)
            ),
            where,
        )
        return e_map.then(t_comp)

    def as_awfs(self) -> Awfs:
        where = self.where

        def factor(a: ArrowObject) -> Factored:
            rec = self.record_of(a.f, where)
            return Factored(rec.left, rec.stages[-1], rec.right)

        fact = FunctorialFactorization(factor, lambda sq: self.e_walk(sq, where))
        return Awfs(
            fact,
            lambda a: self.delta_replay(a.f, where),
            lambda a: self.mu_replay(a.f, where),
        )


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
        engine.check_record(fkey, variant)
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
            sq = Square(j, ArrowObject(rec.right), rec.left, PresheafMap.identity(j.cod))
            _require(
                eq_witness(s, engine.fill_rule(rec, jname, sq, f"lambdas.{jname}")) is None,
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
        engine.check_record(fkey, payload.get("variant", "monic"))
    for name, block in payload.get("lifting_functions", {}).items():
        where = f"lifting_functions.{name}"
        arrow = pools.m(block["arrow"], where)
        right = pools.m(block["right_factor"], where)
        _require(arrow.dst == right.dst, where, "right factor has the wrong codomain")
        rec = engine.record_of(arrow, where)
        _require(rec.right == right, where, "right factor differs from the certified record")
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
        engine_j.check_record(fkey, "monic")
    for fkey in payload["arrows_i"]:
        engine_i.check_record(fkey, "monic")
    for name, key in payload.get("xi", {}).items():
        where = f"xi.{name}"
        xi_f = pools.m(key, where)
        f = instance.maps.get(name)
        _require(f is not None, where, "unknown named arrow")
        rec_j = engine_j.record_of(f, where)
        rec_i = engine_i.record_of(f, where)
        _require(eq_witness(rec_j.left.then(xi_f), rec_i.left) is None, where, "left triangle")
        _require(eq_witness(xi_f.then(rec_i.right), rec_j.right) is None, where, "right triangle")
        rf = ArrowObject(rec_i.right)

        def fill(c: dict, prev_map: PresheafMap) -> PresheafMap:
            iname = tau.on_objects[c["j"]]
            sq = Square(diagram_i.arrow_of[iname], rf, c["top"].then(prev_map), c["bottom"])
            return engine_i.fill_rule(rec_i, iname, sq, where)

        replay = _walk_stages(
            rec_j, rec_i.left, rec_i.stages[-1], fill, where, "inconsistent comparison"
        )
        _require(eq_witness(xi_f, replay) is None, where, "xi differs from the cell replay")
    # replacement and chi tables: direct re-derivation from certified records
    for name, block in payload.get("replacement", {}).items():
        where = f"replacement.{name}"
        x = instance.presheaves.get(name)
        _require(x is not None, where, "unknown named presheaf")
        rec_r = engine_j.record_of(bang(x), where)
        rec_q = engine_i.record_of(cobang(x), where)
        _require(pools.p(block["R"], where) == rec_r.stages[-1], where, "R table mismatch")
        _require(pools.p(block["Q"], where) == rec_q.stages[-1], where, "Q table mismatch")
        _require(pools.m(block["unit"], where) == rec_r.left, where, "unit mismatch")
        _require(pools.m(block["counit"], where) == rec_q.right, where, "counit mismatch")
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
    for name, key in payload.get("chi", {}).items():
        where = f"chi.{name}"
        x = instance.presheaves.get(name)
        _require(x is not None, where, "unknown named presheaf")
        chi_x = pools.m(key, where)
        rec_r = engine_j.record_of(bang(x), where)
        rec_q = engine_i.record_of(cobang(x), where)
        qx = rec_q.stages[-1]
        rx = rec_r.stages[-1]
        rec_rqx = engine_j.record_of(bang(qx), where)
        rec_qrx = engine_i.record_of(cobang(rx), where)
        # triangles of the defining lifting problem
        u = engine_i.e_walk(
            Square(
                ArrowObject(cobang(x)),
                ArrowObject(cobang(rx)),
                PresheafMap.identity(cobang(x).src),
                rec_r.left,
            ),
            where,
        )
        v = engine_j.e_walk(
            Square(
                ArrowObject(bang(qx)),
                ArrowObject(bang(x)),
                rec_q.right,
                PresheafMap.identity(bang(x).dst),
            ),
            where,
        )
        _require(eq_witness(rec_rqx.left.then(chi_x), u) is None, where, "chi unit triangle")
        _require(eq_witness(chi_x.then(rec_qrx.right), v) is None, where, "chi counit triangle")
        # chi is checked as a filler of its lifting problem (the two triangles
        # above: a natural map passing both is one), not recomputed as the
        # canonical two-route lift


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
    except (ValidationError, KeyError, TypeError, IndexError, AttributeError, ValueError) as exc:
        return False, f"malformed certificate: {exc}"
    return True, ""
