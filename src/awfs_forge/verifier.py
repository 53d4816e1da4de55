"""Independent certificate verification.

The verifier never runs the engine's small object argument: it rebuilds
presheaf and map tables from the certificate pools and rechecks every claim
over the certified records.

It shares four things with the engine.  One is the cell rules, which fix a
map out of a cellular object by where each cell goes: E on squares, μ, δ and
λ (`soa.e_rule`, `mu_rule`, `delta_rule`, `lam_rule`) and the comparison map
ξ (`model.xi_rule`).  It runs them over certified records, whose fills are
its own `CertifiedEngine.fill_rule`, once per square.  The second is the
stage rule, `soa.new_squares`: the squares that each stage attaches.  The
third is the law suites, rerun over the certified records.  The fourth is
the functions that derive each block of a certificate from the instance and
the records (`lifting.generator_block`, `lift_blocks`, `soa.record_block`,
`soa_blocks`, `model.model_blocks`, over `InstanceFile.requested_arrows`):
the verifier recomputes every block over the certified records and requires the
certificate's block whole, with the same keys and equal tables behind its
pool keys (`_match`, which puts together the path of a difference only when
it reports one).  Of a record entry it parses only the primary fields, `f`,
`stages`, `inclusions`, `rmaps`, `cells` and `variant` (the options' variant
where they name one); after `check_record`, and `soa_blocks` for δ and μ,
the entry must be `soa.record_block` of its record, which recomputes
`left`, `mid`, `right`, `trace`, the fill table and the named arrows' δ and
μ, so no field can be added, dropped or changed.  Each generator block must
describe the instance's generator diagram that its label names, and
everything runs over that diagram.

The records themselves it checks on its own: content addressing of every pool
entry; each pooled map's tables and naturality, read by `PresheafMap.from_json`
as an instance's maps are, so a table that does not fit is rejected at
`maps.<key>.components.<o>`; each record's structure, with every stage
inclusion the prefix inclusion x ↦ x under both variants, as the engine writes
it, and each cell's gluing equations, which with the restrictions of r make its
attaching square commute; stage completeness (stage k's cells must be
`soa.new_squares`, in its order, which is the order the engine writes them,
and none of them empty, with the cells listed stage by stage);
covering of the new elements by the cells; convergence within `max_steps`
stages; the fills' coherence along the generator shape; and the count of each
stage's new elements, which must be the number of classes of its cell elements
under the connecting squares' identifications that no top edge or older fill
pins to an old element (counted here, not by the stage builder), so that each
stage is the colimit of the one before and its cells.  With prefix inclusions
a map into a stage keeps its tables in every later one, so these checks
compare tables where they would otherwise build composites: r_{b+1}
restricts to r_b when r_b's tables are prefixes of its own, and a cell glues
along its generator when j;injection has its top edge's tables.  For the
same reason `fill_rule` is the engine's own rule, `soa.ArrowRecord.fill`: one
lookup in the record's cell index, keyed by each cell's own top edge, which
returns the cell's injection with the last stage as codomain.  So a fill's two
triangles are its cell's glue and r checks, and need no check of their own (a
natural map that passes both is one of `lifting.oracle_lift`'s fillers by
definition, so the oracle is not rerun either).  Every pooled map must be
read by some check, and every pooled presheaf too or be an endpoint of such a
map; every envelope, and a `soa`, `lift` or `model` payload, must hold
exactly the fields that `certificates` writes, with the envelope's `engine`
its `ENGINE`; so one claim has one certificate.  Since
every derived block is recomputed from these records, a lift certificate's
fills must be the record's fills, ξ_f its cell replay (ξ's lifting problem can
have several fillers) and χ the canonical two-route lift that the law suites
compute and check to fill its lifting problem.  The engine computes ξ and ρ
cell by cell, so ξ factors only f on either side: a `model` certificate's
`arrows_i` holds only the records that ξ, the replacement tables and χ rest
on.
"""

from __future__ import annotations

from typing import Callable

from .arrows import ArrowObject, Square
from .certificates import ENGINE, ENVELOPE, POOLS
from .core import (
    Presheaf,
    PresheafMap,
    UnionFind,
    ValidationError,
    eq_witness,
    expect_object,
    pool_key,
)
from .instance import InstanceFile
from .lifting import (
    CoalgebraStructure,
    FillFailure,
    GeneratorDiagram,
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
    new_squares,
    record_block,
    soa_blocks,
)


class CertificateError(Exception):
    """A rejection: where in the certificate, and why."""

    def __init__(self, where: str, message: str):
        super().__init__(where, message)
        self.where, self.message = where, message

    def __str__(self) -> str:
        return f"{self.where}: {self.message}"


class _Malformed(CertificateError):
    """A block node of the wrong JSON type, reported as a malformed certificate."""


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise CertificateError(where, message)


class _Pools:
    """A certificate's pools, each entry checked as it is loaded.  `m` and `p`
    note each key they are asked for, for `check_referenced`."""

    def __init__(self, instance: InstanceFile, payload: dict):
        bases = {name: cat for name, cat in instance.bases.items()}
        self.presheaves: dict[str, Presheaf] = {}
        self.maps: dict[str, PresheafMap] = {}
        self.ends: dict[str, tuple[str, str]] = {}  # map key -> its endpoints' keys
        self.read: set[str] = set()
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
            self.ends[key] = ends

    def m(self, key: str, where: str) -> PresheafMap:
        _require(key in self.maps, where, f"dangling map reference {key}")
        self.read.add(key)
        return self.maps[key]

    def p(self, key: str, where: str) -> Presheaf:
        _require(key in self.presheaves, where, f"dangling presheaf reference {key}")
        self.read.add(key)
        return self.presheaves[key]

    def check_referenced(self) -> None:
        """Every pooled map was read through `m`, and every pooled presheaf
        through `p` or as an endpoint of such a map."""
        read = self.read.union(*(self.ends[k] for k in self.read if k in self.ends))
        for kind, pool in (("maps", self.maps), ("presheaves", self.presheaves)):
            for key in pool:
                _require(key in read, f"{kind}.{key}", "no block references this entry")


class _Record(ArrowRecord):
    """A certified record, whose fills are `rule`, the verifier's `fill_rule`,
    run once per square."""

    def __init__(
        self, f, stages, inclusions, rmaps, cells, variant,
        rule: Callable[..., PresheafMap],  # (record, j, square) -> fill
    ):
        super().__init__(f, stages, inclusions, rmaps, cells, variant)
        self.rule = rule
        self._fills: dict[tuple, PresheafMap] = {}  # (j, top, bottom) -> fill

    def fill(self, jname: str, sq: Square) -> PresheafMap:
        key = (jname, sq.u, sq.v)
        fill = self._fills.get(key)
        if fill is None:
            fill = self._fills[key] = self.rule(self, jname, sq)
        return fill


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
            self.records[fkey] = _Record(
                ArrowObject(f), stages, inclusions, rmaps, cells, rec_variant, self.fill_rule
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
        # with each inclusion the prefix one, a map composed with it keeps its
        # tables, and r_{b+1} restricts to r_b when r_b's tables are prefixes
        # of its own
        for b, incl in enumerate(rec.inclusions):
            _require(incl.src == rec.stages[b] and incl.dst == rec.stages[b + 1], w, "inclusion ill-typed")
            prefix = incl.tables == PresheafMap.identity(rec.stages[b]).tables
            _require(prefix, w, f"stage inclusion {b} is not the prefix inclusion")
            r, r_b = rec.rmaps[b + 1], rec.rmaps[b]
            _typed(incl, r)
            _require(
                r.dst == r_b.dst and all(t[: len(s)] == s for t, s in zip(r.tables, r_b.tables)),
                w,
                f"r_{b + 1} does not restrict to r_{b}",
            )
        # cells: gluing laws, which with the restrictions above make each
        # attaching square commute: j;v = j;inj;r_k = u;incl;r_k = u;r_{k-1}
        for c in rec.cells:  # stages are in range: the loader checked them
            stage, sq = c.stage, c.square
            glued = sq.src.f.then(c.injection)
            _typed(sq.u, rec.inclusions[stage - 1])
            _require(
                eq_witness(glued, sq.u.retarget(rec.stages[stage])) is None,
                w,
                "cell injection does not glue along the generator",
            )
            _require(
                eq_witness(c.injection.then(rec.rmaps[stage]), sq.v) is None,
                w,
                "cell injection incompatible with r",
            )
        attached = {(c.stage, c.jname, c.square.u.tables, c.square.v) for c in rec.cells}
        _require(len(attached) == len(rec.cells), w, "two cells share a square")
        # stage completeness: stage k's cells are the squares that the engine
        # attaches there (`soa.new_squares`), in its order, so a cell whose
        # top edge stays inside E^{k-2} is rejected here; the engine stops at
        # the first stage that would attach none, and lists cells stage by stage
        for stage in range(1, len(rec.stages)):
            squares = new_squares(self.diagram, rec.stages[:stage], rec.rmaps[stage - 1])
            expected = [(jname, sq.u, sq.v) for jname, sq in squares]
            got = [(c.jname, c.square.u, c.square.v) for c in rec.cells_by_stage[stage]]
            _require(expected == got, w, f"stage {stage} cells do not match the new squares")
            _require(expected, w, f"stage {stage} attaches no cells")
        in_order = [c.stage for c in rec.cells] == sorted(c.stage for c in rec.cells)
        _require(in_order, w, "cells are not listed stage by stage")
        # covering: the prefix inclusion reaches the old elements, and the
        # cells every new one
        for stage in range(1, len(rec.stages)):
            seen = [set() for _ in rec.f.base.objects]
            for c in rec.cells_by_stage[stage]:
                for hit, t in zip(seen, c.injection.tables):
                    hit.update(t)
            sizes = zip(rec.stages[stage - 1].sizes, rec.stages[stage].sizes)
            for o, hit, (n_old, n) in zip(rec.f.base.objects, seen, sizes):
                reached = hit.issuperset(range(n_old, n))
                _require(reached, w, f"stage {stage} has unreachable elements at {o}")
        # convergence: with the stages complete, a top edge factors through
        # the last stage exactly when it is a cell's.  A square's fill is its
        # cell's injection into the last stage, so the cell's glue and r
        # checks are the fill's two triangles
        r_last = ArrowObject(rec.rmaps[-1])
        for jname in self.diagram.objects():
            for sq in enumerate_squares(self.diagram.arrow_of[jname], r_last):
                if len(rec.inclusions) == 0:
                    raise CertificateError(w, "unconverged: squares remain at stage 0")
                _require(
                    (jname, sq.u.tables, sq.v) in rec.cell_index,
                    w,
                    "not converged: a square does not factor through the last stage",
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
        # the new elements are the colimit's: the injections respect every
        # identification (the glue and coherence checks) and reach every new
        # element (covering), so they are at most as many as the classes that
        # nothing pins to an old element, and fewer when the stage merged two
        for stage in range(1, len(rec.stages)):
            sizes = zip(rec.stages[stage - 1].sizes, rec.stages[stage].sizes)
            counts = zip(rec.f.base.objects, sizes, self._new_classes(rec, stage))
            for o, (n_old, n), classes in counts:
                _require(
                    n - n_old == classes,
                    w,
                    f"stage {stage} identifies new elements at {o} that its cells keep apart",
                )

    def _new_classes(self, rec: _Record, stage: int) -> list[int]:
        """Per base object, the classes of stage `stage`'s cell elements
        under the connecting squares' identifications, less those that a top
        edge or an older square's fill pins to an old element."""
        cells = rec.cells_by_stage[stage]
        # element 0 stands for every old element; cell i's element e at
        # object p is starts[i][p] + e
        starts, ends = [], (1,) * len(rec.f.base.objects)
        for c in cells:
            starts.append(ends)
            ends = tuple(a + b for a, b in zip(ends, c.square.src.cod.sizes))
        start_of = {(c.jname, c.square.u.tables, c.square.v): s for c, s in zip(cells, starts)}
        classes = [UnionFind(n) for n in ends]
        for off, c in zip(starts, cells):
            for uf, o, t in zip(classes, off, c.square.src.f.tables):  # along the top edge
                for y in t:
                    uf.union(0, o + y)
        shape = self.diagram.shape
        for m in shape.nonidentity_morphisms():
            jp, jn, conn = shape.src(m), shape.dst(m), self.diagram.square_of[m]
            for off, c in zip(starts, cells):
                if c.jname != jn:
                    continue
                key = (jp, conn.u.then(c.square.u).tables, conn.v.then(c.square.v))
                other = start_of.get(key)  # None: an older cell's fill, into old elements
                for p, (uf, t) in enumerate(zip(classes, conn.v.tables)):
                    for y, x in enumerate(t):
                        uf.union(0 if other is None else other[p] + y, off[p] + x)
        return [len({uf.find(x) for x in range(n)}) - 1 for uf, n in zip(classes, ends)]

    # -- replay rules --------------------------------------------------------

    def fill_rule(self, rec: _Record, jname: str, sq: Square) -> PresheafMap:
        return ArrowRecord.fill(rec, jname, sq)  # the engine's rule

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


def _typed(m: PresheafMap, n: PresheafMap) -> None:
    """m;n is defined: m lands where n starts, as `PresheafMap.then` requires
    of a composite that a table comparison stands in for."""
    if m.dst != n.src:
        raise ValidationError("map.then", "codomain/domain mismatch")


_MISMATCH = {  # block -> what a differing entry of it means
    "named": "certified arrow differs from the instance map",
    "stage_tables": "trace does not match the certified stages",
    "lambdas": "unit coalgebra differs from the fill rule",
    "lifting_functions": "fill table differs from the certified record",
    "xi": "xi differs from the cell replay",
    "replacement": "table differs from the replacement (co)monads",
    "chi": "chi differs from the two-lift solution",
}


def _match(pools: _Pools, got, want: dict, where: str, message: str) -> None:
    """`got`, a certificate block, is `want` whole: objects with the same
    keys, lists of the same length, a pool key of an equal table for each
    presheaf and map, and every other value equal.  The first difference is
    reported at its path, which is put together only then."""
    try:
        _match_below(pools, got, want, message)
    except _Malformed as exc:
        raise TypeError(f"{where}{exc.where}: {exc.message}") from None
    except CertificateError as exc:
        exc.where = where + exc.where
        raise


def _match_below(pools: _Pools, got, want, message: str) -> None:
    """`_match` at an object or list `want` of a block: a difference fails
    with its path below it, each step added as the failure passes up."""
    if type(want) is dict:
        if not isinstance(got, dict):
            raise _Malformed("", "not a JSON object")
        _require(got.keys() == want.keys(), "", "entries differ from the recomputed ones")
        children, step = [(key, got[key], value) for key, value in want.items()], ".{}"
    else:
        if not isinstance(got, list):
            raise _Malformed("", "not a JSON list")
        _require(len(got) == len(want), "", "entries differ from the recomputed ones")
        children, step = zip(range(len(want)), got, want), "[{}]"
    for at, item, value in children:
        kind = type(value)
        try:
            if kind is dict or kind is list:
                _match_below(pools, item, value, message)
            elif kind is PresheafMap:
                _require(pools.m(item, "") == value, "", message)
            elif kind is Presheaf:
                _require(pools.p(item, "") == value, "", message)
            else:
                _require(type(item) is kind and item == value, "", message)
        except CertificateError as exc:
            exc.where = step.format(at) + exc.where
            raise


def _require_fields(block: dict, fields, where: str) -> None:
    """`block` has exactly the keys `fields`: the first other key, in sorted
    order, fails at `where.<key>`."""
    odd = sorted(block.keys() ^ set(fields))
    if odd:
        message = "unexpected field" if odd[0] in block else "missing field"
        raise CertificateError(f"{where}.{odd[0]}", message)


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
    fields = ("generators", "variant", "max_steps", "arrows", *blocks, *POOLS)
    _require_fields(payload, fields, "payload")
    pools.check_referenced()


def _verify_lift_payload(instance: InstanceFile, payload: dict, options: dict) -> None:
    variant, bound = options.get("variant"), _step_bound(options)
    pools, engine, named = _factored(instance, payload, options, variant, bound)
    _match_records(pools, engine, payload["arrows"])
    blocks = lift_blocks(engine, named)
    _match_blocks(pools, payload, blocks)
    _require_fields(payload, ("generators", "arrows", *blocks, *POOLS), "payload")
    pools.check_referenced()


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
    fields = ("generators_j", "generators_i", "replacement_skipped", "arrows_j", "arrows_i")
    _require_fields(payload, (*fields, *blocks, *POOLS), "payload")
    # a failure is reported only once the recomputed report confirms it
    for entry in payload["law_report"]:
        _require(
            entry["status"] == "pass", f"law_report.{entry['law']}", "embedded law failure"
        )
    pools.check_referenced()


def _verify_report_only(instance: InstanceFile, payload: dict) -> None:
    pools = _Pools(instance, payload)
    for entry in payload.get("law_report", []):
        _require(
            entry["status"] == "pass", f"law_report.{entry['law']}", "embedded law failure"
        )


def verify_certificate(instance: InstanceFile, cert: dict) -> tuple[bool, str]:
    """Recheck every claim of a certificate; (True, "") or (False, first failure)."""
    try:
        _require_fields(expect_object(cert, "envelope"), ENVELOPE, "envelope")
        _require(cert["engine"] == ENGINE, "envelope.engine", f"differs from {ENGINE!r}")
        _require(
            cert.get("input_hash") == instance.input_hash(),
            "envelope.input_hash",
            "certificate was produced from a different instance",
        )
        command = cert["command"]
        payload = cert["payload"]
        options = cert["options"]
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
