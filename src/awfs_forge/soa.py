"""Garner-style small object argument on finite presheaf categories.

Each stage attaches one cell per square into the previous right factor whose
top edge does not already factor through the stage before, so every square
acquires a unique minimal-stage cell and no coequalizer bookkeeping is
needed.  Stages are enumerated and glued semi-naively: each stage touches
only what the one before added.  Past stage 1, the squares searched for are
those whose top edge reaches an element that the previous stage added
(`new_squares`, the engine's alone), and the new stage object is the previous
one with the classes of the new cells' elements appended (a union-find that
joins those elements alone).  Old elements keep their labels and no two of them
merge, so stage inclusions are prefix inclusions x ↦ x and a map into a
stage keeps its tables in every later one.  A square's cell is therefore
found by one lookup, keyed by its generator, its top edge's tables and its
bottom edge.  Both variants run this one loop and differ only in their
monicity checks: the monic variant rejects a non-injective generator or
stage inclusion, the standard variant accepts such generators and stops at a
stage that merged old elements.
"""

from __future__ import annotations

from functools import cached_property

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
    FinFunction,
    FinSet,
    Presheaf,
    PresheafMap,
    UnionFind,
    ValidationError,
    glue,
)
from .lifting import (
    AlgebraStructure,
    CoalgebraStructure,
    GeneratorDiagram,
    LiftingFunction,
    enumerate_new_squares,
    enumerate_squares,
    fill_table,
)


class NonConvergence(Exception):
    """The iteration hit max_steps while still attaching cells."""

    def __init__(self, trace: list[int]):
        self.trace = trace
        super().__init__(f"no convergence after {len(trace) - 1} stages; sizes {trace}")


class MonicityViolation(Exception):
    """The monic variant is inapplicable: a generator or stage inclusion is not monic."""

    def __init__(self, where: str):
        self.where = where
        super().__init__(f"monic variant inapplicable: {where}")


class CellRecord:
    """One attached cell: generator, attaching square into the previous stage's
    right factor, the stage it entered at, and its injection into that stage."""

    __slots__ = ("stage", "jname", "square", "injection")

    def __init__(self, stage: int, jname: str, square: Square, injection: PresheafMap):
        self.stage = stage
        self.jname = jname
        self.square = square
        self.injection = injection  # cod j -> E^{stage}

    def __eq__(self, other) -> bool:
        return type(other) is CellRecord and (
            self.stage, self.jname, self.square, self.injection
        ) == (other.stage, other.jname, other.square, other.injection)


class ArrowRecord:
    """Full stage bookkeeping for one factored arrow."""

    def __init__(
        self, f: ArrowObject, stages: list[Presheaf], inclusions: list[PresheafMap],
        rmaps: list[PresheafMap], cells: list[CellRecord], variant: str,
    ):
        self.f = f
        self.stages = stages  # E^0 .. E^N with E^0 = dom f
        self.inclusions = inclusions  # E^b -> E^{b+1}
        self.rmaps = rmaps  # r_b: E^b -> cod f
        self.cells = cells
        self.variant = variant

    @cached_property
    def cell_index(self) -> dict[tuple, CellRecord]:
        """(j, top tables, bottom) -> the cell attached along that square."""
        return {(c.jname, c.square.u.tables, c.square.v): c for c in self.cells}

    @cached_property
    def cells_by_stage(self) -> list[list[CellRecord]]:
        """stage -> its cells, in record order."""
        out: list[list[CellRecord]] = [[] for _ in self.stages]
        for c in self.cells:
            out[c.stage].append(c)
        return out

    @property
    def trace(self) -> list[int]:
        return [s.total_size for s in self.stages]

    def inclusion_range(self, lo: int, hi: int) -> PresheafMap:
        """E^lo -> E^hi: stage inclusions are prefixes, so a change of codomain."""
        return PresheafMap.identity(self.stages[lo]).retarget(self.stages[hi])

    @cached_property
    def _left(self) -> PresheafMap:
        return self.inclusion_range(0, len(self.stages) - 1)

    def left(self) -> PresheafMap:
        return self._left

    def right(self) -> PresheafMap:
        return self.rmaps[-1]

    def mid(self) -> Presheaf:
        return self.stages[-1]

    def fill(self, jname: str, sq: Square) -> PresheafMap:
        """Fill of a square from generator `jname` into the right factor."""
        return _minimal_fill(self.stages, self.cell_index, jname, sq)


def record_block(diagram: GeneratorDiagram, rec, structure: dict | None = None, leaf=None) -> dict:
    """A record's certificate entry: its arrow, stages, inclusions, right
    maps, cells and variant; what these determine, its factors, stage sizes
    and fill table (`lifting.fill_table`); and `structure` (its δ and μ, from
    `soa_blocks`) when given.  Each presheaf and map of it is `leaf(it)`
    when `leaf` is given: the writer passes its pool's keying."""
    k = leaf or (lambda x: x)
    cells = [
        {
            "stage": c.stage,
            "j": c.jname,
            "top": k(c.square.u),
            "bottom": k(c.square.v),
            "injection": k(c.injection),
        }
        for c in rec.cells
    ]
    fills = [
        {"j": jname, "top": k(sq.u), "bottom": k(sq.v), "fill": k(fill)}
        for jname, sq, fill in fill_table(diagram, rec)
    ]
    return {
        "f": k(rec.f.f),
        "stages": list(map(k, rec.stages)),
        "inclusions": list(map(k, rec.inclusions)),
        "rmaps": list(map(k, rec.rmaps)),
        "cells": cells,
        "left": k(rec.left()),
        "mid": k(rec.mid()),
        "right": k(rec.right()),
        "trace": rec.trace,
        "variant": rec.variant,
        "fills": fills,
        **{name: k(m) for name, m in (structure or {}).items()},
    }


def _minimal_fill(stages, cell_index, jname, sq: Square) -> PresheafMap:
    """Minimal-stage cell injection for a square into the last right factor
    of `stages`, carried up into the last stage object.  Inclusions are
    prefixes, so the cell's top edge has u's tables."""
    cell = cell_index.get((jname, sq.u.tables, sq.v))
    if cell is None:
        raise ValidationError("soa.fill", f"no cell for generator {jname}")
    return cell.injection.retarget(stages[-1])


def new_squares(diagram: GeneratorDiagram, stages, r: PresheafMap) -> list[tuple[str, Square]]:
    """The (generator, square) pairs that the stage after `stages` attaches,
    generator by generator in `diagram.objects()` order: every square into
    `r` at stage 1, and past it those whose top edge leaves `stages[-2]` (a
    top edge that factors through it already has its cell)."""
    g = ArrowObject(r)
    arrows = [(jname, diagram.arrow_of[jname]) for jname in diagram.objects()]
    if len(stages) == 1:
        return [(jname, sq) for jname, j in arrows for sq in enumerate_squares(j, g)]
    old = [range(n) for n in stages[-2].sizes]
    return [(jname, sq) for jname, j in arrows for sq in enumerate_new_squares(j, g, old)]


class RecordAwfs:
    """The awfs read off per-arrow records: the factorization, the free
    (co)algebras and the awfs itself.  A subclass gives `record` (an arrow's
    record, with the interface the cell rules read), `e_on_square`, `mu` and
    `delta`, each once per square or arrow through `_once`; the engine
    computes them, the verifier replays them over certified records."""

    def factor(self, f) -> Factored:
        rec = self.record(f)
        return Factored(rec.left(), rec.mid(), rec.right())

    def free_algebra(self, f) -> AlgebraStructure:
        return AlgebraStructure(ArrowObject(self.record(f).right()), self.mu(f))

    def free_coalgebra(self, f) -> CoalgebraStructure:
        return CoalgebraStructure(ArrowObject(self.record(f).left()), self.delta(f))

    def as_fact(self) -> FunctorialFactorization:
        return FunctorialFactorization(self.factor, self.e_on_square)

    def as_awfs(self) -> Awfs:
        return Awfs(self.as_fact(), self.delta, self.mu)

    @staticmethod
    def _once(memo: dict, key, rule, *args, **kwargs):
        """`memo[key]`, else `rule(*args, **kwargs)` stored there; a failure
        raises and stores nothing."""
        value = memo.get(key)
        if value is None:
            value = memo[key] = rule(*args, **kwargs)
        return value


class GeneratedAwfs(RecordAwfs):
    """The awfs produced by running the small object argument over a generator
    diagram, with per-arrow stage and cell bookkeeping.

    Factorizations of arrows are computed lazily and cached; all structure maps
    (delta, mu, the unit coalgebras, free lifting functions) are derived from
    the cell records.
    """

    def __init__(self, diagram: GeneratorDiagram, variant: str = "monic", max_steps: int = 64):
        if variant not in ("monic", "standard"):
            raise ValidationError("run_soa.variant", f"unknown variant {variant!r}")
        self.diagram = diagram
        self.variant = variant
        self.max_steps = max_steps
        self.records: dict[ArrowObject, ArrowRecord] = {}
        self._failures: dict[ArrowObject, Exception] = {}
        self._esquares: dict[Square, PresheafMap] = {}
        self._deltas: dict[ArrowObject, PresheafMap] = {}
        self._mus: dict[ArrowObject, PresheafMap] = {}
        self._lifts: dict[ArrowObject, LiftingFunction] = {}
        if variant == "monic":
            for jname in diagram.objects():
                if not diagram.arrow_of[jname].f.is_injective():
                    raise MonicityViolation(f"generator {jname} is not componentwise injective")

    # -- factorization ----------------------------------------------------

    def record(self, f) -> ArrowRecord:
        farr = f if isinstance(f, ArrowObject) else ArrowObject(f)
        rec = self.records.get(farr)
        if rec is not None:
            return rec
        if farr in self._failures:
            raise self._failures[farr]
        try:
            rec = self._compute_record(farr)
        except (NonConvergence, MonicityViolation) as exc:
            self._failures[farr] = exc
            raise
        self.records[farr] = rec
        return rec

    def _compute_record(self, farr: ArrowObject) -> ArrowRecord:
        stages = [farr.dom]
        inclusions: list[PresheafMap] = []
        rmaps: list[PresheafMap] = [farr.f]
        cells: list[CellRecord] = []
        cell_index: dict[tuple, CellRecord] = {}
        for stage in range(1, self.max_steps + 1):
            attached = new_squares(self.diagram, stages, rmaps[-1])
            if not attached:
                return ArrowRecord(farr, stages, inclusions, rmaps, cells, self.variant)
            new_stage, iota, injections, r_new = self._build_stage(
                stage, stages, rmaps, cell_index, attached
            )
            stages.append(new_stage)
            inclusions.append(iota)
            rmaps.append(r_new)
            for (jname, sq), inj in zip(attached, injections):
                cell = CellRecord(stage, jname, sq, inj)
                cells.append(cell)
                cell_index[(jname, sq.u.tables, sq.v)] = cell
        raise NonConvergence([s.total_size for s in stages])

    def _build_stage(self, stage, stages, rmaps, cell_index, attached):
        """Append the attached cells to the current stage object: the colimit
        of E^{stage-1} and one cod j per cell, glued along the top edges and
        the connecting squares, with smallest-member labels.

        The cells' elements are numbered after the old ones, cell by cell,
        and the union-find joins only them: each is pinned to an old element
        along its cell's top edge, or to another cell or an older fill along
        a connecting square.  Old elements keep their labels and new classes
        follow in smallest-member order.  Each union joins α(s) with β(s) for
        natural maps α, β that agree after r (the attached squares and the
        fills commute), so the classes form a congruence on which r is
        constant, and the actions and r are read off one member per class.
        A class holding two old elements ends the run: the monic variant
        rejects the stage inclusion, the standard variant stops (see the
        module docstring)."""
        prev, r_prev = stages[-1], rmaps[-1]
        base = prev.base
        objects = base.objects
        arrows = [self.diagram.arrow_of[jname] for jname, _ in attached]
        # cell idx's element e at object position p is offsets[idx][p] + e
        offsets, ends = [], prev.sizes
        for j in arrows:
            offsets.append(ends)
            ends = tuple(a + b for a, b in zip(ends, j.cod.sizes))
        classes = [UnionFind(n) for n in ends]  # a class's root is its smallest member
        merges = [0] * len(objects)  # unions of two classes that hold old elements

        def union(p: int, x: int, y: int) -> None:
            rx, ry = classes[p].find(x), classes[p].find(y)
            if rx != ry:
                classes[p].union(rx, ry)
                if max(rx, ry) < prev.sizes[p]:
                    merges[p] += 1

        for idx, (j, (_, sq)) in enumerate(zip(arrows, attached)):
            for p, (jt, ut) in enumerate(zip(j.f.tables, sq.u.tables)):
                for y, x in zip(jt, ut):
                    union(p, offsets[idx][p] + y, x)
        connecting = self.diagram.shape.nonidentity_morphisms()
        index = {}  # attached square -> its position, read along connecting squares
        if connecting:
            index = {(jname, sq.u, sq.v): i for i, (jname, sq) in enumerate(attached)}
        for m in connecting:
            jp, jn = self.diagram.shape.src(m), self.diagram.shape.dst(m)
            conn = self.diagram.square_of[m]
            for idx, (jname, sq) in enumerate(attached):
                if jname != jn:
                    continue
                cu, cv = conn.u.then(sq.u), conn.v.then(sq.v)
                other = index.get((jp, cu, cv))
                if other is None:
                    fill = _minimal_fill(
                        stages,
                        cell_index,
                        jp,
                        Square(self.diagram.arrow_of[jp], ArrowObject(r_prev), cu, cv),
                    )
                    pinned = fill.tables
                else:
                    pinned = tuple(
                        range(off, off + n) for off, n in zip(offsets[other], conn.v.src.sizes)
                    )
                for p, (pt, ct) in enumerate(zip(pinned, conn.v.tables)):
                    for x, y in zip(pt, ct):
                        union(p, x, offsets[idx][p] + y)

        # labels[p][x - n_old] is the label of new element x; reps[p] lists
        # each new class's smallest member, in label order
        labels, reps, sizes = [], [], []
        for p, n_old in enumerate(prev.sizes):
            label, rep = [], []
            for x in range(n_old, ends[p]):
                root = classes[p].find(x)
                if root < n_old:
                    label.append(root)
                elif root == x:
                    label.append(n_old + len(rep))
                    rep.append(x)
                else:
                    label.append(label[root - n_old])
            labels.append(label)
            reps.append(rep)
            sizes.append(n_old - merges[p] + len(rep))
        if any(merges):
            # two old elements share a class: the stage inclusion is not injective
            if self.variant == "monic":
                raise MonicityViolation(f"stage inclusion E^{stage - 1} -> E^{stage}")
            if stage < self.max_steps:  # past a merge, tables no longer name cells
                raise ValidationError(
                    "soa.stage", f"stage inclusion E^{stage - 1} -> E^{stage} is not injective"
                )
            raise NonConvergence([s.total_size for s in stages] + [sum(sizes)])

        at = {o: FinSet(n) for o, n in zip(objects, sizes)}
        act = {}  # Presheaf fills in the identities' actions
        for m in base.nonidentity_morphisms():
            a, b = base.morphisms[m]
            pa, pb = base._position[a], base._position[b]
            na, nb = prev.sizes[pa], prev.sizes[pb]
            # the label of m's action on each new element at b: a cell's
            # element acts inside its own cell
            images = []
            for idx, j in enumerate(arrows):
                lo = offsets[idx][pa] - na
                images += [labels[pa][lo + e] for e in j.cod.act[m].table]
            table = prev.act[m].table + tuple([images[x - nb] for x in reps[pb]])
            act[m] = FinFunction._trusted(at[b], at[a], table)
        new_stage = Presheaf(base, at, act)

        rtables = [list(t) + [-1] * (n - len(t)) for t, n in zip(r_prev.tables, sizes)]
        injections = []
        for idx, (j, (_, sq)) in enumerate(zip(arrows, attached)):
            tables = []
            for p, vt in enumerate(sq.v.tables):
                lo = offsets[idx][p] - prev.sizes[p]
                inj = labels[p][lo : lo + len(vt)]
                rt = rtables[p]
                for c, w in zip(inj, vt):
                    rt[c] = w
                tables.append(tuple(inj))
            injections.append(PresheafMap(j.cod, new_stage, tuple(tables)))
        iota = PresheafMap(prev, new_stage, PresheafMap.identity(prev).tables)
        r_new = PresheafMap(new_stage, r_prev.dst, tuple([tuple(t) for t in rtables]))
        return new_stage, iota, injections, r_new

    # -- derived structure -------------------------------------------------

    def free_lifting_function(self, f) -> LiftingFunction:
        farr = f if isinstance(f, ArrowObject) else ArrowObject(f)
        rec = self.record(farr)
        rf = ArrowObject(rec.right())
        return self._once(self._lifts, farr, LiftingFunction.tabulate, self.diagram, rf, rec.fill)

    def lam(self, jname: str) -> CoalgebraStructure:
        """Unit functor: the free coalgebra structure of a generator (`lam_rule`)."""
        return lam_rule(self.diagram, jname, self.record)

    def e_on_square(self, sq: Square) -> PresheafMap:
        """E(u, v), once per square (`e_rule`)."""
        return self._once(self._esquares, sq, e_rule, sq, self.record, "e_on_square")

    def mu(self, f) -> PresheafMap:
        """Multiplication E(R f) -> E f, once per arrow (`mu_rule`)."""
        farr = f if isinstance(f, ArrowObject) else ArrowObject(f)
        return self._once(self._mus, farr, mu_rule, farr, self.record, "mu")

    def delta(self, f) -> PresheafMap:
        """Comultiplication E f -> E L f, once per arrow (`delta_rule`)."""
        farr = f if isinstance(f, ArrowObject) else ArrowObject(f)
        args = farr, self.record, self.e_on_square, "delta"
        return self._once(self._deltas, farr, delta_rule, *args)


def run_soa(diagram: GeneratorDiagram, variant: str = "monic", max_steps: int = 64) -> GeneratedAwfs:
    """Construct the lazily-evaluated awfs generated by a diagram."""
    diagram.validate()
    return GeneratedAwfs(diagram, variant=variant, max_steps=max_steps)


def walk_stages(
    rec, start: PresheafMap, dst: Presheaf, fill, where: str, problem: str
) -> PresheafMap:
    """Extend `start` (out of E^0) stage by stage to a map E^N -> dst: each
    stage starts from the previous map's tables, as the old elements are a
    prefix, and glues `fill(cell, prev_map)` on every cell attached there."""
    current = start
    for stage in range(1, len(rec.stages)):
        parts = ((c.injection, fill(c, current)) for c in rec.cells_by_stage[stage])
        current = glue(rec.stages[stage], dst, parts, where, problem, current)
    return current


# -- the cell rules: E, μ and δ as maps out of cellular objects, fixed by where
# each cell goes.  A rule reads records through `record(arrow)`: anything with
# `stages`, `cells_by_stage` (lists of CellRecord), `left()`,
# `right()`, `mid()` and `fill(jname, sq)`, the fill of a square into the
# right factor.  The engine passes its ArrowRecords, the verifier certified
# records; a gluing failure raises ValidationError at `where`.


def e_rule(sq: Square, record, where: str) -> PresheafMap:
    """E(u, v): E f -> E g for a square (u, v): f -> g.  E f's stage 0 goes by
    L g ∘ u, and each cell of f to g's fill of its square composed with (u, v)."""
    recf, recg = record(sq.src), record(sq.dst)
    rg = ArrowObject(recg.right())

    def fill(cell: CellRecord, prev_map: PresheafMap) -> PresheafMap:
        top = cell.square.u.then(prev_map)
        bottom = cell.square.v.then(sq.v)
        return recg.fill(cell.jname, Square(cell.square.src, rg, top, bottom))

    return walk_stages(
        recf, sq.u.then(recg.left()), recg.mid(), fill, where, "inconsistent E reindexing"
    )


def mu_rule(f: ArrowObject, record, where: str) -> PresheafMap:
    """μ_f: E(R f) -> E f.  E(R f)'s stage 0 is E f, and each cell of R f goes
    to f's fill of its square."""
    rec = record(f)
    rf = ArrowObject(rec.right())

    def fill(cell: CellRecord, prev_map: PresheafMap) -> PresheafMap:
        sq = Square(cell.square.src, rf, cell.square.u.then(prev_map), cell.square.v)
        return rec.fill(cell.jname, sq)

    ef = rec.mid()
    return walk_stages(
        record(rf), PresheafMap.identity(ef), ef, fill, where, "incoherent algebra assembly"
    )


def delta_rule(f: ArrowObject, record, e, where: str) -> PresheafMap:
    """δ_f: E f -> E L f, as t ∘ E(L²f, 1) with E the callable `e` on squares.
    E(L²f, 1) runs into E of the composite R L f · R f, and t is the
    composite's algebra structure: each of its cells is filled against R f,
    then against R L f."""
    rec = record(f)
    rec_l = record(ArrowObject(rec.left()))
    rf, rlf = ArrowObject(rec.right()), ArrowObject(rec_l.right())
    comp = ArrowObject(rlf.f.then(rf.f))

    def fill(cell: CellRecord, prev_map: PresheafMap) -> PresheafMap:
        j = cell.square.src
        top = cell.square.u.then(prev_map)
        mid = rec.fill(cell.jname, Square(j, rf, top.then(rlf.f), cell.square.v))
        return rec_l.fill(cell.jname, Square(j, rlf, top, mid))

    elf = rec_l.mid()
    t = walk_stages(
        record(comp), PresheafMap.identity(elf), elf, fill, where, "incoherent algebra assembly"
    )
    return e(Square(f, comp, rec_l.left(), PresheafMap.identity(f.cod))).then(t)


def lam_rule(diagram: GeneratorDiagram, jname: str, record) -> CoalgebraStructure:
    """λ_j: the free coalgebra structure of generator j, its record's fill of
    the square (L j, 1) from j into R j."""
    j = diagram.arrow_of[jname]
    rec = record(j)
    sq = Square(j, ArrowObject(rec.right()), rec.left(), PresheafMap.identity(j.cod))
    return CoalgebraStructure(j, rec.fill(jname, sq))


def soa_blocks(engine, named: dict[str, ArrowObject], variant: str) -> tuple[dict, dict]:
    """A `soa` certificate's blocks (see `lifting.generator_block`): the named
    arrows, their stage sizes, λ of each generator and the law report
    (`verify_awfs` over the named arrows under the monic variant, empty under
    the standard one); and, under the monic variant only, δ and μ of each
    named arrow, by arrow."""
    arrows = list(named.values())
    structure, report = {}, LawReport()
    if variant == "monic":
        structure = {f: {"delta": engine.delta(f), "mu": engine.mu(f)} for f in arrows}
        report = verify_awfs(engine.as_awfs(), arrows)
    blocks = {
        "named": {name: f.f for name, f in named.items()},
        "stage_tables": {
            name: [s.total_size for s in engine.record(f).stages] for name, f in named.items()
        },
        "lambdas": {jname: engine.lam(jname).s for jname in engine.diagram.objects()},
        "law_report": report.to_json(),
    }
    return blocks, structure


def lifting_function_to_algebra(gen: GeneratedAwfs, lf: LiftingFunction) -> AlgebraStructure:
    """Dictionary direction J^⧄ -> algebras: each cell of E(h) lands at the
    fill of its attaching square, transported through the stages."""
    h = lf.g

    def fill(cell: CellRecord, prev_map: PresheafMap) -> PresheafMap:
        j = gen.diagram.arrow_of[cell.jname]
        return lf.phi(cell.jname, Square(j, h, cell.square.u.then(prev_map), cell.square.v))

    t = walk_stages(
        gen.record(h), PresheafMap.identity(h.dom), h.dom, fill,
        "lifting_function_to_algebra", "incoherent lifting function",
    )
    return AlgebraStructure(h, t)
