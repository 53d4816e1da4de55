"""Lifting functions, the canonical lift solver, retract transfer, algebra
composition, and the exhaustive filler oracle that grounds every derived
value in the test suite."""

from __future__ import annotations

from collections.abc import Collection, Mapping, Sequence
from functools import lru_cache
from operator import itemgetter
from types import MappingProxyType

from .arrows import ArrowObject, Awfs, FunctorialFactorization, LawReport, Square
from .core import (
    FiniteCategory,
    Presheaf,
    PresheafMap,
    ValidationError,
    all_maps,
    eq_witness,
    search_maps,
    sha256_hex,
)


class FillFailure(Exception):
    """A canonical lift failed to fill its square: corrupted structures."""

    def __init__(self, witness: dict):
        self.witness = witness
        super().__init__(f"canonical lift does not fill: {witness}")


class GeneratorDiagram:
    """A functor from a finite shape category into the arrow category.

    Objects name generating arrows; morphisms name connecting squares.
    """

    __slots__ = ("shape", "arrow_of", "square_of")

    def __init__(
        self, shape: FiniteCategory, arrow_of: dict[str, ArrowObject],
        square_of: dict[str, Square] | None = None,
    ):
        self.shape = shape
        self.arrow_of = arrow_of
        squares = {} if square_of is None else dict(square_of)
        for o, i in shape.identities.items():
            arr = arrow_of[o]
            squares.setdefault(
                i, Square(arr, arr, PresheafMap.identity(arr.dom), PresheafMap.identity(arr.cod))
            )
        self.square_of = squares

    def _content(self) -> tuple:
        shape = self.shape
        squares = (self.square_of.get(m) for m in shape.morphisms)
        return (
            shape,
            tuple(shape.morphisms.items()),
            tuple(self.arrow_of.get(o) for o in shape.objects),
            tuple(sq and (sq.src, sq.dst, sq.u, sq.v) for sq in squares),
        )

    def __eq__(self, other) -> bool:
        """Equal in shape (its morphisms in the same order), arrows and squares."""
        return self is other or (
            isinstance(other, GeneratorDiagram) and self._content() == other._content()
        )

    def __hash__(self) -> int:
        return hash(self._content())

    def objects(self) -> tuple[str, ...]:
        return self.shape.objects

    @property
    def base(self) -> FiniteCategory:
        """The base category of the generators (the diagram has at least one)."""
        return next(iter(self.arrow_of.values())).base

    def is_discrete(self) -> bool:
        return not self.shape.nonidentity_morphisms()

    def validate(self, path: str = "generators") -> None:
        """The shape's category laws (under `path`.shape), then the diagram's
        functor laws.  Identity squares are checked to be identities, so
        functoriality holds on every pair that contains an identity and is
        checked on the other pairs."""
        self.shape.validate(f"{path}.shape")
        for o in self.shape.objects:
            if o not in self.arrow_of:
                raise ValidationError(f"{path}.{o}", "missing generator arrow")
        for m in self.shape.morphisms:
            sq = self.square_of.get(m)
            if sq is None:
                raise ValidationError(f"{path}.squares.{m}", "missing square")
            if sq.src != self.arrow_of[self.shape.src(m)] or sq.dst != self.arrow_of[self.shape.dst(m)]:
                raise ValidationError(f"{path}.squares.{m}", "square endpoints wrong")
            sq.validate(f"{path}.squares.{m}")
        for o, i in self.shape.identities.items():
            arr = self.arrow_of[o]
            if self.square_of[i] != Square(
                arr, arr, PresheafMap.identity(arr.dom), PresheafMap.identity(arr.cod)
            ):
                raise ValidationError(f"{path}.squares.{i}", "identity is not the identity square")
        arrows = self.shape.nonidentity_morphisms()
        for f in arrows:
            for g in arrows:
                if self.shape.dst(f) != self.shape.src(g):
                    continue
                gf = self.shape.compose(g, f)
                composed = Square(
                    self.square_of[f].src,
                    self.square_of[g].dst,
                    self.square_of[f].u.then(self.square_of[g].u),
                    self.square_of[f].v.then(self.square_of[g].v),
                )
                if self.square_of[gf] != composed:
                    raise ValidationError(
                        f"{path}.squares.{gf}", "functoriality fails on composite"
                    )

    @staticmethod
    def discrete(arrows: dict[str, ArrowObject]) -> "GeneratorDiagram":
        shape = FiniteCategory.discrete(tuple(arrows.keys()))
        return GeneratorDiagram(shape, dict(arrows))


def square_key(u: PresheafMap, v: PresheafMap) -> str:
    """Serialization of a square's edge tables: the canonical square order and
    the `square_hash` of lift certificates."""
    return repr([[list(t) for t in u.tables], [list(t) for t in v.tables]])


@lru_cache(maxsize=None)
def _bottoms(j: ArrowObject, cod: Presheaf) -> dict[PresheafMap, list[PresheafMap]]:
    """The maps v: cod j -> cod by their composite j;v, in table order: one
    table for every square j => g with g.cod == cod, read and never changed."""
    bottoms: dict[PresheafMap, list[PresheafMap]] = {}
    for v in all_maps(j.cod, cod):
        bottoms.setdefault(j.f.then(v), []).append(v)
    return bottoms


def _squares_with_tops(j: ArrowObject, g: ArrowObject, tops) -> tuple[Square, ...]:
    """The squares j => g whose top edge is in `tops`, in canonical order."""
    if not tops:
        return ()
    # (u, v) commutes exactly when u;g == j;v: join the two homs on that map
    bottoms = _bottoms(j, g.cod)
    # sorted by `square_key`, with each edge's table text built once
    keyed: list[tuple[str, Square]] = []
    texts: dict[int, str] = {}  # id of a bottom edge -> the repr of its tables
    for u in tops:
        vs = bottoms.get(u.then(g.f))
        if not vs:
            continue
        text_u = repr([list(t) for t in u.tables])
        for v in vs:
            text_v = texts.get(id(v))
            if text_v is None:
                text_v = texts[id(v)] = repr([list(t) for t in v.tables])
            keyed.append((f"[{text_u}, {text_v}]", Square(j, g, u, v)))
    keyed.sort(key=itemgetter(0))
    return tuple([sq for _, sq in keyed])


@lru_cache(maxsize=None)
def _squares_into_cached(j: ArrowObject, g: ArrowObject) -> tuple[Square, ...]:
    return _squares_with_tops(j, g, all_maps(j.dom, g.dom))


def enumerate_squares(j: ArrowObject, g: ArrowObject) -> tuple[Square, ...]:
    """All squares j => g, in canonical lexicographic order of serialized (u, v)."""
    return _squares_into_cached(j, g)


def enumerate_new_squares(
    j: ArrowObject, g: ArrowObject, old: Sequence[Collection[int]]
) -> tuple[Square, ...]:
    """The squares j => g whose top edge takes a value outside `old`, which
    lists per base object (in base-object order) the old elements of g.dom:
    when they form a sub-presheaf, the squares whose top edge does not factor
    through it.  Same order as `enumerate_squares`.

    The top edges are searched once per variable of dom j, that variable
    being the first to take a new value: the earlier ones range over old
    elements, the later ones over all.  This relies on `search_maps`'s
    variable order, one variable per element in base-object order and then
    element order, which `start` and `owner` restate.  The searches partition
    the new top edges, and each is joined with the bottom edges of the same
    composite j;v."""
    src, dst = j.dom, g.dom
    old_values, new_values = {}, {}
    for o, kept, n in zip(src.base.objects, old, dst.sizes):
        old_values[o] = sorted(kept)
        new_values[o] = [v for v in range(n) if v not in kept]
    start, owner = {}, []  # variable start[o] + x is element x of src(o)
    for o, size in zip(src.base.objects, src.sizes):
        start[o] = len(owner)
        owner += [o] * size
    tops: list[PresheafMap] = []
    for first, o_first in enumerate(owner):
        if not new_values[o_first]:
            continue  # dst has no new element where the first new value goes

        def allowed(o, x, first=first):
            i = start[o] + x
            if i < first:
                return old_values[o]
            return new_values[o] if i == first else range(dst.at[o].size)

        tops.extend(search_maps(src, dst, allowed))
    return _squares_with_tops(j, g, tops)


def oracle_lift(j: ArrowObject, g: ArrowObject, sq: Square) -> list[PresheafMap]:
    """ALL diagonal fillers of the square, in canonical table order.

    This is the module's ground truth: it never consults any engine structure.
    A filler w is searched for directly: on the image of j it is fixed by
    j;w = u, and elsewhere it ranges over the fibre of g over v.
    """
    if sq.src != j or sq.dst != g:
        raise ValidationError("oracle_lift", "square does not connect j to g")
    u, v = sq.u, sq.v
    if u.src != j.dom or u.dst != g.dom or v.src != j.cod or v.dst != g.cod:
        return []
    fibres, fixed = {}, {}
    for o, gt, jt, ut in zip(j.base.objects, g.f.tables, j.f.tables, u.tables):
        fibres[o] = [[] for _ in range(g.cod.at[o].size)]
        for e, image in enumerate(gt):
            fibres[o][image].append(e)
        fixed[o] = {}
        for y, w in zip(jt, ut):
            fixed[o].setdefault(y, set()).add(w)

    def allowed(o: str, y: int):
        fibre = fibres[o][v.table_at(o)[y]]
        values = fixed[o].get(y)
        if values is None:
            return fibre
        return values.intersection(fibre) if len(values) == 1 else ()

    return list(search_maps(j.cod, g.dom, allowed))


class LiftingFunction:
    """Coherent choice of filler for every square from every generator into g.

    Stored as a dense table over the canonical square enumeration; a
    tabulated table is read-only, so that one can be shared.
    """

    __slots__ = ("diagram", "g", "fills")

    def __init__(
        self, diagram: GeneratorDiagram, g: ArrowObject,
        fills: Mapping[tuple[str, Square], PresheafMap],
    ):
        self.diagram = diagram
        self.g = g
        self.fills = fills  # (j name, square) -> filler

    def phi(self, jname: str, sq: Square) -> PresheafMap:
        key = (jname, sq)
        if key not in self.fills:
            raise ValidationError("lifting_function", f"no fill recorded for {jname} square")
        return self.fills[key]

    @staticmethod
    def tabulate(diagram: GeneratorDiagram, g: ArrowObject, fn) -> "LiftingFunction":
        fills = {}
        for jname in diagram.objects():
            j = diagram.arrow_of[jname]
            for sq in enumerate_squares(j, g):
                fills[(jname, sq)] = fn(jname, sq)
        return LiftingFunction(diagram, g, MappingProxyType(fills))


class AlgebraStructure:
    """Algebra datum (g, t): a chosen retraction t: Eg -> dom g."""

    __slots__ = ("g", "t")

    def __init__(self, g: ArrowObject, t: PresheafMap):
        self.g = g
        self.t = t


class CoalgebraStructure:
    """Coalgebra datum (f, s): a chosen section s: cod f -> Ef."""

    __slots__ = ("f", "s")

    def __init__(self, f: ArrowObject, s: PresheafMap):
        self.f = f
        self.s = s


def check_algebra_unit(a: AlgebraStructure, fact: FunctorialFactorization) -> LawReport:
    report = LawReport()
    fac = fact.factor(a.g)
    report.record(
        "algebra.square", "g", a.t.src == fac.mid and a.t.dst == a.g.dom
    )
    if report.passed:
        report.check("algebra.retlaw", "g", a.t.then(a.g.f), fac.right)
        report.check(
            "algebra.unit", "g", fac.left.then(a.t), PresheafMap.identity(a.g.dom)
        )
    return report


def check_algebra_laws(a: AlgebraStructure, awfs: Awfs) -> LawReport:
    """Unit law plus associativity against the monad multiplication."""
    report = check_algebra_unit(a, awfs.fact)
    if not report.passed:
        return report
    fac = awfs.fact.factor(a.g)
    rarr = ArrowObject(fac.right)
    t_sq = Square(rarr, a.g, a.t, PresheafMap.identity(a.g.cod))
    report.check(
        "algebra.assoc",
        "g",
        awfs.mu(a.g).then(a.t),
        awfs.fact.e(t_sq).then(a.t),
    )
    return report


def check_coalgebra_unit(c: CoalgebraStructure, fact: FunctorialFactorization) -> LawReport:
    report = LawReport()
    fac = fact.factor(c.f)
    report.record(
        "coalgebra.square", "f", c.s.src == c.f.cod and c.s.dst == fac.mid
    )
    if report.passed:
        report.check("coalgebra.seclaw", "f", c.f.f.then(c.s), fac.left)
        report.check(
            "coalgebra.unit", "f", c.s.then(fac.right), PresheafMap.identity(c.f.cod)
        )
    return report


def check_coalgebra_laws(c: CoalgebraStructure, awfs: Awfs) -> LawReport:
    """Unit law plus coassociativity against the comonad comultiplication."""
    report = check_coalgebra_unit(c, awfs.fact)
    if not report.passed:
        return report
    fac = awfs.fact.factor(c.f)
    larr = ArrowObject(fac.left)
    s_sq = Square(c.f, larr, PresheafMap.identity(c.f.dom), c.s)
    report.check(
        "coalgebra.coassoc",
        "f",
        c.s.then(awfs.delta(c.f)),
        c.s.then(awfs.fact.e(s_sq)),
    )
    return report


def solve_lift(
    c: CoalgebraStructure,
    a: AlgebraStructure,
    sq: Square,
    fact: FunctorialFactorization,
) -> PresheafMap:
    """Canonical solution w = t ∘ E(u, v) ∘ s of a lifting problem between a
    coalgebra and an algebra.  Raises FillFailure if w does not fill."""
    if sq.src != c.f or sq.dst != a.g:
        raise ValidationError("solve_lift", "square does not connect the structures")
    w = c.s.then(fact.e(sq)).then(a.t)
    top = eq_witness(c.f.f.then(w), sq.u)
    if top is not None:
        raise FillFailure({"triangle": "top", **top})
    bottom = eq_witness(w.then(a.g.f), sq.v)
    if bottom is not None:
        raise FillFailure({"triangle": "bottom", **bottom})
    return w


def check_lifting_function(diagram: GeneratorDiagram, lf: LiftingFunction) -> LawReport:
    """Verify filling on every square and coherence over every shape morphism."""
    report = LawReport()
    g = lf.g
    for jname in diagram.objects():
        j = diagram.arrow_of[jname]
        for idx, sq in enumerate(enumerate_squares(j, g)):
            probe = f"{jname}[{idx}]"
            try:
                w = lf.phi(jname, sq)
            except ValidationError:
                report.record("fill.present", probe, False)
                continue
            try:
                w.check_naturality()
                report.record("fill.natural", probe, True)
            except ValidationError as exc:
                report.record("fill.natural", probe, False, {"error": str(exc)})
            report.check("fill.top", probe, j.f.then(w), sq.u)
            report.check("fill.bottom", probe, w.then(g.f), sq.v)
    for m in diagram.shape.nonidentity_morphisms():
        jp = diagram.shape.src(m)
        jn = diagram.shape.dst(m)
        conn = diagram.square_of[m]
        jarr = diagram.arrow_of[jn]
        for idx, sq in enumerate(enumerate_squares(jarr, g)):
            probe = f"coh.{m}[{idx}]"
            composed = Square(
                diagram.arrow_of[jp], g, conn.u.then(sq.u), conn.v.then(sq.v)
            )
            report.check(
                "coherence",
                probe,
                lf.phi(jp, composed),
                conn.v.then(lf.phi(jn, sq)),
            )
    return report


class RetractData:
    """h as a retract of g: sections i and retractions r on both levels."""

    __slots__ = ("h", "g", "i1", "i2", "r1", "r2")

    def __init__(
        self, h: ArrowObject, g: ArrowObject,
        i1: PresheafMap, i2: PresheafMap, r1: PresheafMap, r2: PresheafMap,
    ):
        self.h = h
        self.g = g
        self.i1 = i1  # dom h -> dom g
        self.i2 = i2  # cod h -> cod g
        self.r1 = r1  # dom g -> dom h
        self.r2 = r2  # cod g -> cod h

    def validate(self) -> None:
        checks = [
            ("retract.r1i1", self.i1.then(self.r1), PresheafMap.identity(self.h.dom)),
            ("retract.r2i2", self.i2.then(self.r2), PresheafMap.identity(self.h.cod)),
            ("retract.sq.i", self.i1.then(self.g.f), self.h.f.then(self.i2)),
            ("retract.sq.r", self.r1.then(self.h.f), self.g.f.then(self.r2)),
        ]
        for path, lhs, rhs in checks:
            w = eq_witness(lhs, rhs)
            if w is not None:
                raise ValidationError(path, f"retract diagram fails at {w}")


def retract_transfer(lf: LiftingFunction, retract: RetractData) -> LiftingFunction:
    """Transfer a lifting function along a retract: ψ(j,u,v) = r1·φ(j, i1·u, i2·v)."""
    retract.validate()
    if retract.g != lf.g:
        raise ValidationError("retract_transfer", "lifting function is not for g")

    def fn(jname: str, sq: Square) -> PresheafMap:
        big = Square(sq.src, retract.g, sq.u.then(retract.i1), sq.v.then(retract.i2))
        return lf.phi(jname, big).then(retract.r1)

    return LiftingFunction.tabulate(lf.diagram, retract.h, fn)


def compose_lifting(
    f_lift: tuple[ArrowObject, LiftingFunction],
    g_lift: tuple[ArrowObject, LiftingFunction],
) -> tuple[ArrowObject, LiftingFunction]:
    """Canonical composite (gf, ψ•φ) with ψ•φ(j,a,b) = φ(j, a, ψ(j, f·a, b))."""
    f, phi = f_lift
    g, psi = g_lift
    if f.cod != g.dom:
        raise ValidationError("compose_lifting", "arrows not composable")
    gf = ArrowObject(f.f.then(g.f))

    def fn(jname: str, sq: Square) -> PresheafMap:
        j = phi.diagram.arrow_of[jname]
        mid = psi.phi(jname, Square(j, g, sq.u.then(f.f), sq.v))
        return phi.phi(jname, Square(j, f, sq.u, mid))

    return gf, LiftingFunction.tabulate(phi.diagram, gf, fn)


def compose_algebras_free(
    a1: AlgebraStructure, a2: AlgebraStructure, awfs: Awfs
) -> AlgebraStructure:
    """Canonical algebra structure on a composite:
    t•s = s ∘ E(1, t·E(f,1)) ∘ δ_{gf} for composable algebras (f,s), (g,t)."""
    f, s = a1.g, a1.t
    g, t = a2.g, a2.t
    if f.cod != g.dom:
        raise ValidationError("compose_algebras_free", "arrows not composable")
    gf = ArrowObject(f.f.then(g.f))
    fact = awfs.fact
    fac_gf = fact.factor(gf)
    # E(f, 1): E(gf) -> Eg
    e_f1 = fact.e(Square(gf, g, f.f, PresheafMap.identity(g.cod)))
    bottom = e_f1.then(t)  # E(gf) -> cod f
    l_gf = ArrowObject(fac_gf.left)
    mid_sq = Square(l_gf, f, PresheafMap.identity(gf.dom), bottom)
    structure = awfs.delta(gf).then(fact.e(mid_sq)).then(s)
    return AlgebraStructure(gf, structure)


def check_algebra_map(
    sq: Square, a_f: AlgebraStructure, a_g: AlgebraStructure, fact: FunctorialFactorization
) -> bool:
    """Whether (u,v): f => g is a map of algebras: s' ∘ E(u,v) = u ∘ s."""
    if sq.src != a_f.g or sq.dst != a_g.g:
        raise ValidationError("check_algebra_map", "square does not connect the algebras")
    return eq_witness(fact.e(sq).then(a_g.t), a_f.t.then(sq.u)) is None


# -- the blocks a certificate derives from the instance and its records, here
# and in `soa.soa_blocks` and `model.model_blocks`.  Each takes an engine: a
# `soa.GeneratedAwfs`, or the verifier's engine over certified records, which
# has the same `diagram`, `record`, `delta`, `mu`, `lam` and `as_awfs`.  A
# block is JSON-shaped, with presheaves and maps where the certificate holds
# pool keys: the certificate writer pools it, the verifier matches it whole.


def generator_block(diagram: GeneratorDiagram, label: str) -> dict:
    """A certificate's generator block: its label, each generator's arrow,
    each connecting square and, unless the diagram is discrete, its shape."""
    block = {
        "label": label,
        "objects": {jname: diagram.arrow_of[jname].f for jname in diagram.objects()},
        "squares": {
            m: {"top": diagram.square_of[m].u, "bottom": diagram.square_of[m].v}
            for m in diagram.shape.nonidentity_morphisms()
        },
    }
    if not diagram.is_discrete():
        block["shape"] = diagram.shape.to_json()
    return block


def fill_table(diagram: GeneratorDiagram, rec) -> list[tuple[str, Square, PresheafMap]]:
    """The record's fill of each square from a generator into its right
    factor, in canonical square order."""
    rf = ArrowObject(rec.right())
    return [
        (jname, sq, rec.fill(jname, sq))
        for jname in diagram.objects()
        for sq in enumerate_squares(diagram.arrow_of[jname], rf)
    ]


def lift_blocks(engine, named: dict[str, ArrowObject]) -> dict:
    """A `lift` certificate's block: each named arrow's free lifting function,
    its right factor and fill table with each square's hash."""
    out = {}
    for name, f in named.items():
        rec = engine.record(f)
        fills = [
            {
                "j": jname,
                "top": sq.u,
                "bottom": sq.v,
                "fill": fill,
                "square_hash": sha256_hex(square_key(sq.u, sq.v))[:16],
            }
            for jname, sq, fill in fill_table(engine.diagram, rec)
        ]
        out[name] = {"arrow": f.f, "right_factor": rec.right(), "fills": fills}
    return {"lifting_functions": out}
