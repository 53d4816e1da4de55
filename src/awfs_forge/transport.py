"""Adjunctions between finite presheaf categories, transport of generators,
lifted functors on algebras/coalgebras, mates, lax/colax morphism checks,
pointwise and projective generators, and the algebraic Quillen law suite.

Lan_u ⊣ u^* reads Lan_u p straight off its coend: at each object a, the
classes of triples (c, α: a → u c, x ∈ p(c)) under
(c2, u(m)∘α, x) ~ (c1, α, p(m) x), labelled in the order of their first
triple."""

from __future__ import annotations

from functools import cache, partial
from typing import Callable

from .arrows import ArrowObject, LawReport, Square
from .core import (
    FinFunction,
    FinSet,
    FiniteCategory,
    Presheaf,
    PresheafMap,
    UnionFind,
    ValidationError,
)
from .lifting import (
    CoalgebraStructure,
    GeneratorDiagram,
    LiftingFunction,
    check_coalgebra_laws,
    oracle_lift,
)
from .model import AlgebraicModelStructure
from .soa import CellRecord, GeneratedAwfs, walk_stages


class FunctorData:
    """A functor between finite base categories, tabulated."""

    __slots__ = ("src", "dst", "on_objects", "on_morphisms")

    def __init__(
        self, src: FiniteCategory, dst: FiniteCategory, on_objects: dict[str, str],
        on_morphisms: dict[str, str],
    ):
        self.src = src
        self.dst = dst
        self.on_objects = on_objects
        self.on_morphisms = on_morphisms
        self.__post_init__()

    def __post_init__(self):
        for o, i in self.src.identities.items():
            self.on_morphisms.setdefault(i, self.dst.identities[self.on_objects[o]])

    def obj(self, o: str) -> str:
        return self.on_objects[o]

    def mor(self, m: str) -> str:
        return self.on_morphisms[m]

    def validate(self, path: str = "functor") -> None:
        for m, (a, b) in self.src.morphisms.items():
            mm = self.on_morphisms.get(m)
            if mm is None:
                raise ValidationError(f"{path}.{m}", "missing morphism image")
            if self.dst.morphisms[mm] != (self.on_objects[a], self.on_objects[b]):
                raise ValidationError(f"{path}.{m}", "image ill-typed")
        for o, i in self.src.identities.items():
            if self.mor(i) != self.dst.identities[self.obj(o)]:
                raise ValidationError(f"{path}.{i}", "does not preserve identities")
        for (g, f), h in self.src.compose_table.items():
            if self.dst.compose(self.mor(g), self.mor(f)) != self.mor(h):
                raise ValidationError(f"{path}.compose.{g}∘{f}", "does not preserve composition")


class AdjunctionData:
    """Adjunction T ⊣ S between presheaf categories, with unit and counit."""

    __slots__ = ("m_base", "k_base", "t_obj", "t_map", "s_obj", "s_map", "unit", "counit")

    def __init__(
        self, m_base: FiniteCategory, k_base: FiniteCategory,
        t_obj: Callable[[Presheaf], Presheaf], t_map: Callable[[PresheafMap], PresheafMap],
        s_obj: Callable[[Presheaf], Presheaf], s_map: Callable[[PresheafMap], PresheafMap],
        unit: Callable[[Presheaf], PresheafMap], counit: Callable[[Presheaf], PresheafMap],
    ):
        self.m_base = m_base
        self.k_base = k_base
        self.t_obj = t_obj
        self.t_map = t_map
        self.s_obj = s_obj
        self.s_map = s_map
        self.unit = unit  # ι_X: X -> STX
        self.counit = counit  # ν_Y: TSY -> Y

    def t_arrow(self, f: ArrowObject) -> ArrowObject:
        return ArrowObject(self.t_map(f.f))

    def s_arrow(self, g: ArrowObject) -> ArrowObject:
        return ArrowObject(self.s_map(g.f))

    def t_square(self, sq: Square) -> Square:
        return Square(self.t_arrow(sq.src), self.t_arrow(sq.dst), self.t_map(sq.u), self.t_map(sq.v))

    def unit_square(self, f: ArrowObject) -> Square:
        """ι at an arrow: f => STf."""
        stf = ArrowObject(self.s_map(self.t_map(f.f)))
        return Square(f, stf, self.unit(f.dom), self.unit(f.cod))

    def counit_square(self, g: ArrowObject) -> Square:
        """ν at an arrow: TSg => g."""
        tsg = ArrowObject(self.t_map(self.s_map(g.f)))
        return Square(tsg, g, self.counit(g.dom), self.counit(g.cod))

    def verify(
        self,
        m_objects: list[Presheaf],
        m_maps: list[PresheafMap],
        k_objects: list[Presheaf],
        k_maps: list[PresheafMap],
    ) -> LawReport:
        """Triangle identities and unit/counit naturality on instance data."""
        report = LawReport()
        for i, x in enumerate(m_objects):
            tx = self.t_obj(x)
            report.check(
                "triangle.T", f"m-object[{i}]",
                self.t_map(self.unit(x)).then(self.counit(tx)),
                PresheafMap.identity(tx),
            )
        for i, y in enumerate(k_objects):
            sy = self.s_obj(y)
            report.check(
                "triangle.S", f"k-object[{i}]",
                self.unit(sy).then(self.s_map(self.counit(y))),
                PresheafMap.identity(sy),
            )
        for i, g in enumerate(m_maps):
            report.check(
                "unit.natural", f"m-map[{i}]",
                g.then(self.unit(g.dst)),
                self.unit(g.src).then(self.s_map(self.t_map(g))),
            )
        for i, g in enumerate(k_maps):
            report.check(
                "counit.natural", f"k-map[{i}]",
                self.t_map(self.s_map(g)).then(self.counit(g.dst)),
                self.counit(g.src).then(g),
            )
        return report


def identity_adjunction(base: FiniteCategory) -> AdjunctionData:
    ident_map = lambda f: f
    ident_obj = lambda x: x
    return AdjunctionData(
        base,
        base,
        ident_obj,
        ident_map,
        ident_obj,
        ident_map,
        lambda x: PresheafMap.identity(x),
        lambda y: PresheafMap.identity(y),
    )


class _LanClasses:
    """Lan_u p straight from its coend.  At each object a of u.dst its
    elements are the classes of triples (c, α: a → u c, x ∈ p(c)), listed by
    c, then α in hom order, then x, under (c2, u(m)∘α, x) ~ (c1, α, p(m) x)
    for every m: c1 → c2; each class is labelled in the order of its first
    triple."""

    def __init__(self, u: FunctorData, p: Presheaf):
        base0, base1 = u.src, u.dst
        self.triples: dict[str, list[tuple[str, str, int]]] = {}
        self.start: dict[tuple[str, str, str], int] = {}  # (a, c, α) -> index of (c, α, 0)
        self.labels: dict[str, list[int]] = {}
        self.sizes: dict[str, int] = {}  # a -> number of classes
        for a in base1.objects:
            triples = self.triples[a] = []
            for c in base0.objects:
                for alpha in base1.hom(a, u.obj(c)):
                    self.start[a, c, alpha] = len(triples)
                    triples += [(c, alpha, x) for x in range(p.at[c].size)]
            uf = UnionFind(len(triples))
            for m in base0.nonidentity_morphisms():
                c1, c2 = base0.src(m), base0.dst(m)
                for alpha in base1.hom(a, u.obj(c1)):
                    i1 = self.start[a, c1, alpha]
                    i2 = self.start[a, c2, base1.compose(u.mor(m), alpha)]
                    for x, y in enumerate(p.act[m].table):
                        uf.union(i2 + x, i1 + y)
            # a root is its class's smallest index, so sorted roots are first triples
            roots = [uf.find(i) for i in range(len(triples))]
            label = {r: k for k, r in enumerate(sorted(set(roots)))}
            self.labels[a] = [label[r] for r in roots]
            self.sizes[a] = len(label)
        act = {}
        for m, (a, b) in base1.morphisms.items():
            move = lambda c, alpha, x: self.class_of(a, c, base1.compose(alpha, m), x)
            act[m] = FinFunction(FinSet(self.sizes[b]), FinSet(self.sizes[a]),
                                 self.table(b, move, f"lan.act.{m}"))
        self.lan = Presheaf(base1, self.sizes, act)

    def class_of(self, a: str, c: str, alpha: str, x: int) -> int:
        """Class of the triple (c, alpha: a -> u c, x in p(c))."""
        return self.labels[a][self.start[a, c, alpha] + x]

    def table(self, a: str, value: Callable, where: str) -> tuple[int, ...]:
        """Each class at a -> `value` of its triples, which must agree."""
        out = [-1] * self.sizes[a]
        for (c, alpha, x), k in zip(self.triples[a], self.labels[a]):
            v = value(c, alpha, x)
            if out[k] == -1:
                out[k] = v
            elif out[k] != v:
                raise ValidationError(where, f"not constant on classes at {a}")
        return tuple(out)

    def map_to(self, dst: Presheaf, value: Callable, where: str) -> PresheafMap:
        """Lan_u p -> dst, sending the class of (c, α, x) at a to value(a, c, α, x)."""
        tables = tuple(self.table(a, partial(value, a), where) for a in self.lan.base.objects)
        return PresheafMap(self.lan, dst, tables)


def restriction_adjunction(u: FunctorData) -> AdjunctionData:
    """Lan_u ⊣ u^* for a functor u between base categories.  Each functor,
    the unit and the counit are computed once per argument for the life of
    the adjunction."""
    u.validate()
    base0, base1 = u.src, u.dst

    @cache
    def restrict_obj(q: Presheaf) -> Presheaf:
        at = {c: q.at[u.obj(c)] for c in base0.objects}
        act = {m: q.act[u.mor(m)] for m in base0.morphisms}
        return Presheaf(base0, at, act)

    @cache
    def restrict_map(g: PresheafMap) -> PresheafMap:
        return PresheafMap(
            restrict_obj(g.src),
            restrict_obj(g.dst),
            tuple(g.table_at(u.obj(c)) for c in base0.objects),
        )

    @cache
    def lan_block(p: Presheaf) -> _LanClasses:
        return _LanClasses(u, p)

    def lan_obj(p: Presheaf) -> Presheaf:
        return lan_block(p).lan

    @cache
    def lan_map(phi: PresheafMap) -> PresheafMap:
        target = lan_block(phi.dst)
        value = lambda a, c, alpha, x: target.class_of(a, c, alpha, phi.table_at(c)[x])
        return lan_block(phi.src).map_to(target.lan, value, "lan_map")

    @cache
    def unit(p: Presheaf) -> PresheafMap:
        block = lan_block(p)
        tabs = {}
        for c in base0.objects:
            a = u.obj(c)
            tabs[c] = [block.class_of(a, c, base1.identities[a], x) for x in range(p.at[c].size)]
        return PresheafMap.from_tables(p, restrict_obj(block.lan), tabs)

    @cache
    def counit(q: Presheaf) -> PresheafMap:
        value = lambda a, c, alpha, y: q.act[alpha].table[y]
        return lan_block(restrict_obj(q)).map_to(q, value, "counit")

    return AdjunctionData(base0, base1, lan_obj, lan_map, restrict_obj, restrict_map, unit, counit)


def transport_generators(adj: AdjunctionData, diagram: GeneratorDiagram) -> GeneratorDiagram:
    """Push a generator diagram through the left adjoint: same shape, image arrows."""
    arrows = {j: adj.t_arrow(diagram.arrow_of[j]) for j in diagram.objects()}
    squares = {
        m: adj.t_square(diagram.square_of[m])
        for m in diagram.shape.nonidentity_morphisms()
    }
    return GeneratorDiagram(diagram.shape, arrows, squares)


def adjunct_lifting_S(
    adj: AdjunctionData,
    diagram_m: GeneratorDiagram,
    lf: LiftingFunction,
) -> LiftingFunction:
    """S-image of an element of TJ^⧄: every fill is replaced by its adjunct."""
    f = lf.g
    sf = adj.s_arrow(f)

    def fn(jname: str, sq: Square) -> PresheafMap:
        tj = lf.diagram.arrow_of[jname]
        flat_u = adj.t_map(sq.u).then(adj.counit(f.dom))
        flat_v = adj.t_map(sq.v).then(adj.counit(f.cod))
        fill = lf.phi(jname, Square(tj, f, flat_u, flat_v))
        j = diagram_m.arrow_of[jname]
        return adj.unit(j.cod).then(adj.s_map(fill))

    return LiftingFunction.tabulate(diagram_m, sf, fn)


class MateData:
    """The mate pair of an adjunction of awfs candidates: rho at arrows of the
    right-adjoint side, gamma at arrows of the left-adjoint side."""

    __slots__ = ("rho", "gamma")

    def __init__(
        self, rho: Callable[[ArrowObject], PresheafMap], gamma: Callable[[ArrowObject], PresheafMap]
    ):
        self.rho = rho  # Q(Sg) -> S(Eg)
        self.gamma = gamma  # T(Qf) -> E(Tf)


def rho_from_lift(
    adj: AdjunctionData, gen_m: GeneratedAwfs, gen_k: GeneratedAwfs
) -> Callable[[ArrowObject], PresheafMap]:
    """ρ_g: Q(Sg) -> S(Eg), cell by cell: Q(Sg)'s stage 0 goes by S(Lg), and
    each cell (a generator j) to the adjunct of gen_k's minimal-stage fill of
    the transposed square from Tj into Rg."""

    @cache
    def rho(g: ArrowObject) -> PresheafMap:
        rec = gen_k.record(g)
        rg = ArrowObject(rec.right())
        eg = rec.mid()

        def fill(cell: CellRecord, prev_map: PresheafMap) -> PresheafMap:
            top = adj.t_map(cell.square.u.then(prev_map)).then(adj.counit(eg))
            bottom = adj.t_map(cell.square.v).then(adj.counit(g.cod))
            sq = Square(gen_k.diagram.arrow_of[cell.jname], rg, top, bottom)
            cod_j = gen_m.diagram.arrow_of[cell.jname].cod
            return adj.unit(cod_j).then(adj.s_map(rec.fill(cell.jname, sq)))

        return walk_stages(
            gen_m.record(adj.s_arrow(g)), adj.s_map(rec.left()), adj.s_obj(eg), fill,
            "rho_from_lift", "inconsistent adjunct assembly",
        )

    return rho


def gamma_from_mate(
    adj: AdjunctionData,
    gen_m: GeneratedAwfs,
    gen_k: GeneratedAwfs,
    rho: Callable[[ArrowObject], PresheafMap],
) -> Callable[[ArrowObject], PresheafMap]:
    """gamma_f = ν_{E(Tf)} ∘ T(rho_{Tf}) ∘ T Q(ι_f)."""

    @cache
    def gamma(f: ArrowObject) -> PresheafMap:
        tf = adj.t_arrow(f)
        q_unit = gen_m.e_on_square(adj.unit_square(f))
        etf = gen_k.factor(tf).mid
        return adj.t_map(q_unit).then(adj.t_map(rho(tf))).then(adj.counit(etf))

    return gamma


def rho_from_mate(
    adj: AdjunctionData,
    gen_m: GeneratedAwfs,
    gen_k: GeneratedAwfs,
    gamma: Callable[[ArrowObject], PresheafMap],
) -> Callable[[ArrowObject], PresheafMap]:
    """rho_g = S E(ν_g) ∘ S(gamma_{Sg}) ∘ ι_{Q(Sg)}."""

    def rho(g: ArrowObject) -> PresheafMap:
        sg = adj.s_arrow(g)
        qsg = gen_m.factor(sg).mid
        e_counit = gen_k.e_on_square(adj.counit_square(g))
        return adj.unit(qsg).then(adj.s_map(gamma(sg))).then(adj.s_map(e_counit))

    return rho


def build_mates(
    adj: AdjunctionData, gen_m: GeneratedAwfs, gen_k: GeneratedAwfs
) -> MateData:
    rho = rho_from_lift(adj, gen_m, gen_k)
    gamma = gamma_from_mate(adj, gen_m, gen_k, rho)
    return MateData(rho, gamma)


def verify_lax_colax(
    md: MateData,
    gen_m: GeneratedAwfs,
    gen_k: GeneratedAwfs,
    adj: AdjunctionData,
    arrows_k: list[ArrowObject],
    arrows_m: list[ArrowObject],
) -> LawReport:
    """The three lax (ρ) diagrams per arrow of `arrows_k`, over the right
    adjoint's source K, then the three colax (γ) diagrams per arrow of
    `arrows_m`, over M."""
    report = LawReport()
    for i, g in enumerate(arrows_k):
        name = f"arrow[{i}]"
        rec = gen_k.record(g)
        sg = adj.s_arrow(g)
        fac = gen_m.factor(sg)
        rho_g = md.rho(g)
        report.check("lax.triangle.left", name, fac.left.then(rho_g), adj.s_map(rec.left()))
        report.check(
            "lax.triangle.right", name, rho_g.then(adj.s_map(rec.right())), fac.right
        )
        # comonad: S(δ_g) ∘ ρ_g = ρ_{Lg} ∘ Q(1, ρ_g) ∘ δ_{Sg}
        lg = ArrowObject(rec.left())
        slg = adj.s_arrow(lg)
        csg = ArrowObject(fac.left)
        mid_sq = Square(csg, slg, PresheafMap.identity(sg.dom), rho_g)
        report.check(
            "lax.comonad",
            name,
            rho_g.then(adj.s_map(gen_k.delta(g))),
            gen_m.delta(sg).then(gen_m.e_on_square(mid_sq)).then(md.rho(lg)),
        )
        # monad: S(μ_g) ∘ ρ_{Rg} ∘ Q(ρ_g, 1) = ρ_g ∘ μ_{Sg}
        rg = ArrowObject(rec.right())
        srg = adj.s_arrow(rg)
        fsg = ArrowObject(fac.right)
        top_sq = Square(fsg, srg, rho_g, PresheafMap.identity(sg.cod))
        report.check(
            "lax.monad",
            name,
            gen_m.e_on_square(top_sq).then(md.rho(rg)).then(adj.s_map(gen_k.mu(g))),
            gen_m.mu(sg).then(rho_g),
        )
    for i, f in enumerate(arrows_m):
        name = f"arrow[{i}]"
        rec = gen_m.record(f)
        tf = adj.t_arrow(f)
        fac = gen_k.factor(tf)
        gamma_f = md.gamma(f)
        report.check(
            "colax.triangle.left", name, adj.t_map(rec.left()).then(gamma_f), fac.left
        )
        report.check(
            "colax.triangle.right", name, gamma_f.then(fac.right), adj.t_map(rec.right())
        )
        # comonad: δ_{Tf} ∘ γ_f = E(1, γ_f) ∘ γ_{Cf} ∘ T(δ_f)
        cf = ArrowObject(rec.left())
        tcf = adj.t_arrow(cf)
        ltf = ArrowObject(fac.left)
        mid_sq = Square(tcf, ltf, PresheafMap.identity(tf.dom), gamma_f)
        report.check(
            "colax.comonad",
            name,
            gamma_f.then(gen_k.delta(tf)),
            adj.t_map(gen_m.delta(f)).then(md.gamma(cf)).then(gen_k.e_on_square(mid_sq)),
        )
        # monad: γ_f ∘ T(μ_f) = μ_{Tf} ∘ E(γ_f, 1) ∘ γ_{Ff}
        ff = ArrowObject(rec.right())
        tff = adj.t_arrow(ff)
        rtf = ArrowObject(fac.right)
        top_sq = Square(tff, rtf, gamma_f, PresheafMap.identity(tf.cod))
        report.check(
            "colax.monad",
            name,
            adj.t_map(gen_m.mu(f)).then(gamma_f),
            md.gamma(ff).then(gen_k.e_on_square(top_sq)).then(gen_k.mu(tf)),
        )
    return report


def lift_T_coalg(
    md: MateData,
    gen_m: GeneratedAwfs,
    gen_k: GeneratedAwfs,
    adj: AdjunctionData,
    c: CoalgebraStructure,
) -> CoalgebraStructure:
    """T~(f, s) = (Tf, γ_f ∘ T s); validated as a coalgebra over K."""
    tf = adj.t_arrow(c.f)
    out = CoalgebraStructure(tf, adj.t_map(c.s).then(md.gamma(c.f)))
    report = check_coalgebra_laws(out, gen_k.as_awfs())
    if not report.passed:
        first = report.failures()[0]
        raise ValidationError("lift_T_coalg", f"{first.law} fails: {first.witness}")
    return out


# ---------------------------------------------------------------------------
# Pointwise and projective generators on diagram categories


def diagram_base(inner: FiniteCategory, index: FiniteCategory) -> FiniteCategory:
    """Base category for presheaf-valued diagrams: inner × index^op."""
    return inner.product(index.opposite())


def yoneda_copower(
    index: FiniteCategory, a: str, p: Presheaf, prod_base: FiniteCategory
) -> Presheaf:
    """index(a, −)·p as a presheaf over inner × index^op; elements at (β|α)
    are pairs (hom index in index(a, α), element of p(β))."""
    inner = p.base
    at = {}
    for o in prod_base.objects:
        beta, alpha = o.split("|")
        at[o] = FinSet(len(index.hom(a, alpha)) * p.at[beta].size)
    act = {}
    for mn, (src_o, dst_o) in prod_base.morphisms.items():
        m, n = mn.split("|")
        beta_s, alpha_s = src_o.split("|")
        beta_d, alpha_d = dst_o.split("|")
        homs_d = index.hom(a, alpha_d)
        homs_s = {h: i for i, h in enumerate(index.hom(a, alpha_s))}
        nd = p.at[beta_d].size
        ns = p.at[beta_s].size
        table = []
        for hi, h in enumerate(homs_d):
            # n names an index-morphism alpha_d -> alpha_s (opposite base)
            composed = index.compose(n, h)
            for x in range(nd):
                table.append(homs_s[composed] * ns + p.act[m].table[x])
        act[mn] = FinFunction(at[dst_o], at[src_o], tuple(table))
    return Presheaf(prod_base, at, act)


def copower_square(
    index: FiniteCategory,
    n: str,
    inner_map: PresheafMap,
    a_src: str,
    a_dst: str,
    prod_base: FiniteCategory,
) -> PresheafMap:
    """index(a_src,−)·P -> index(a_dst,−)·P' along n: a_dst -> a_src and an
    inner map P -> P'."""
    src = yoneda_copower(index, a_src, inner_map.src, prod_base)
    dst = yoneda_copower(index, a_dst, inner_map.dst, prod_base)
    tables = {}
    for o in prod_base.objects:
        beta, alpha = o.split("|")
        homs_src = index.hom(a_src, alpha)
        homs_dst = {h: i for i, h in enumerate(index.hom(a_dst, alpha))}
        n_in = inner_map.src.at[beta].size
        n_out = inner_map.dst.at[beta].size
        table = []
        for hi, h in enumerate(homs_src):
            composed = index.compose(h, n)
            for x in range(n_in):
                table.append(homs_dst[composed] * n_out + inner_map.table_at(beta)[x])
        tables[o] = table
    return PresheafMap.from_tables(src, dst, tables)


def _copowered_generators(
    diagram: GeneratorDiagram, index: FiniteCategory, outer: FiniteCategory, along: dict
) -> tuple[GeneratorDiagram, FiniteCategory]:
    """Generators on diagrams over inner × index^op, of shape outer × J:
    objects index(a,−)·j, and for each n|m the square of m copowered along
    the index morphism along[n]: a_dst -> a_src, where n: a_src -> a_dst in
    outer."""
    prod_base = diagram_base(diagram.base, index)
    shape = outer.product(diagram.shape)
    arrow_of = {}
    for o in shape.objects:
        a, j = o.split("|")
        arrow_of[o] = ArrowObject(
            copower_square(index, index.identities[a], diagram.arrow_of[j].f, a, a, prod_base)
        )
    square_of = {}
    for nm in shape.nonidentity_morphisms():
        n, m = nm.split("|")
        a_src, a_dst = outer.src(n), outer.dst(n)
        conn = diagram.square_of[m]
        square_of[nm] = Square(
            arrow_of[f"{a_src}|{diagram.shape.src(m)}"],
            arrow_of[f"{a_dst}|{diagram.shape.dst(m)}"],
            copower_square(index, along[n], conn.u, a_src, a_dst, prod_base),
            copower_square(index, along[n], conn.v, a_src, a_dst, prod_base),
        )
    return GeneratorDiagram(shape, arrow_of, square_of), prod_base


def pointwise_generators(
    diagram: GeneratorDiagram, index: FiniteCategory
) -> tuple[GeneratorDiagram, FiniteCategory]:
    """Generators for the pointwise awfs on diagrams: shape index^op × J,
    objects index(a,−)·j, with reindexing squares for index morphisms."""
    return _copowered_generators(diagram, index, index.opposite(), {n: n for n in index.morphisms})


def projective_generators(
    diagram: GeneratorDiagram, index: FiniteCategory
) -> tuple[GeneratorDiagram, FiniteCategory]:
    """Projective generators: same copowered objects but only the squares
    induced by the original diagram (no reindexing morphisms)."""
    disc = FiniteCategory.discrete(index.objects)
    along = {disc.identities[a]: index.identities[a] for a in index.objects}
    return _copowered_generators(diagram, index, disc, along)


def extract_component(
    x: Presheaf, a: str, inner: FiniteCategory, index: FiniteCategory
) -> Presheaf:
    """Restrict a presheaf over inner × index^op to one index object."""
    at = {beta: x.at[f"{beta}|{a}"] for beta in inner.objects}
    ida = index.identities[a]
    act = {m: x.act[f"{m}|{ida}"] for m in inner.morphisms}
    return Presheaf(inner, at, act)


def extract_component_map(
    f: PresheafMap, a: str, inner: FiniteCategory, index: FiniteCategory
) -> PresheafMap:
    src = extract_component(f.src, a, inner, index)
    dst = extract_component(f.dst, a, inner, index)
    return PresheafMap(src, dst, tuple(f.table_at(f"{beta}|{a}") for beta in inner.objects))


def pointwise_agreement(
    gen_pointwise: GeneratedAwfs,
    gen_inner: GeneratedAwfs,
    alpha: PresheafMap,
    index: FiniteCategory,
    inner: FiniteCategory,
) -> LawReport:
    """Per index object: the pointwise factorization agrees with the inner one
    after canonical relabeling (via the unique factorization isomorphism)."""
    report = LawReport()
    fac = gen_pointwise.factor(alpha)
    for a in index.objects:
        comp_arrow = extract_component_map(alpha, a, inner, index)
        fac_inner = gen_inner.factor(comp_arrow)
        left_a = extract_component_map(fac.left, a, inner, index)
        right_a = extract_component_map(fac.right, a, inner, index)
        # psi is a diagonal filler of the square (left_a, fac_inner.right)
        # from fac_inner.left to right_a
        j, g = ArrowObject(fac_inner.left), ArrowObject(right_a)
        fillers = oracle_lift(j, g, Square(j, g, left_a, fac_inner.right))
        isos = [psi for psi in fillers if psi.is_bijective()]
        report.record(f"pointwise.iso", a, bool(isos))
        if isos:
            psi = isos[0]
            relabeled_left = left_a.then(psi.inverse())
            relabeled_right = psi.then(right_a)
            report.check("pointwise.left", a, relabeled_left, fac_inner.left)
            report.check("pointwise.right", a, relabeled_right, fac_inner.right)
    return report


# ---------------------------------------------------------------------------
# Algebraic Quillen adjunctions


def verify_algebraic_quillen(
    amstr_m: AlgebraicModelStructure,
    amstr_k: AlgebraicModelStructure,
    adj: AdjunctionData,
    mates_t: MateData,
    mates: MateData,
    arrows_m: list[ArrowObject],
    arrows_k: list[ArrowObject],
) -> LawReport:
    """The comparison-triangle (pentagon) equalities, the commuting lifted
    functors on fixture structures, and the unit equalities on generators."""
    report = LawReport()
    for i, f in enumerate(arrows_m):
        name = f"m-arrow[{i}]"
        tf = adj.t_arrow(f)
        report.check(
            "pentagon.gamma",
            name,
            mates_t.gamma(f).then(amstr_k.xi.at(tf)),
            adj.t_map(amstr_m.xi.at(f)).then(mates.gamma(f)),
        )
    for i, g in enumerate(arrows_k):
        name = f"k-arrow[{i}]"
        sg = adj.s_arrow(g)
        report.check(
            "pentagon.rho",
            name,
            mates_t.rho(g).then(adj.s_map(amstr_k.xi.at(g))),
            amstr_m.xi.at(sg).then(mates.rho(g)),
        )
    # lifted functors commute with ξ_* on free coalgebras
    for i, f in enumerate(arrows_m):
        name = f"m-arrow[{i}]"
        co = amstr_m.gen_t.free_coalgebra(f)
        tf = adj.t_arrow(co.f)
        route1 = adj.t_map(co.s).then(mates_t.gamma(co.f)).then(amstr_k.xi.at(tf))
        pushed = co.s.then(amstr_m.xi.at(co.f))
        route2 = adj.t_map(pushed).then(mates.gamma(co.f))
        report.check("natlift.coalg", name, route1, route2)
    # lifted functors commute with ξ^* on free algebras
    for i, g in enumerate(arrows_k):
        name = f"k-arrow[{i}]"
        alg = amstr_k.gen.free_algebra(g)  # (R_t g, mu) for the K-side
        garr = alg.g
        sg = adj.s_arrow(garr)
        route1 = mates.rho(garr).then(adj.s_map(alg.t))
        route1 = amstr_m.xi.at(sg).then(route1)
        pulled = amstr_k.xi.at(garr).then(alg.t)
        route2 = mates_t.rho(garr).then(adj.s_map(pulled))
        report.check("natlift.alg", name, route1, route2)
    # unit equalities on generators: T~(λ^M j) = λ^K (T j)
    for jname in amstr_m.gen_t.diagram.objects():
        lam_m = amstr_m.gen_t.lam(jname)
        lifted = adj.t_map(lam_m.s).then(mates_t.gamma(lam_m.f))
        lam_k = amstr_k.gen_t.lam(jname)
        report.check("natunit.J", jname, lifted, lam_k.s)
    for iname in amstr_m.gen.diagram.objects():
        lam_m = amstr_m.gen.lam(iname)
        lifted = adj.t_map(lam_m.s).then(mates.gamma(lam_m.f))
        lam_k = amstr_k.gen.lam(iname)
        report.check("natunit.I", iname, lifted, lam_k.s)
    return report
