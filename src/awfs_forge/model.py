"""Algebraic model structures: the comparison map, two-lift agreement,
generator pruning, replacement (co)monads on objects, and the comparison
χ between the two fibrant-cofibrant replacements."""

from __future__ import annotations

from functools import cache
from typing import Callable

from .arrows import (
    ArrowObject,
    AwfsMorphism,
    LawReport,
    Square,
    verify_awfs_morphism,
)
from .core import FiniteCategory, Presheaf, PresheafMap, ValidationError, eq_witness
from .lifting import (
    AlgebraStructure,
    CoalgebraStructure,
    GeneratorDiagram,
    LiftingFunction,
    enumerate_squares,
    oracle_lift,
    solve_lift,
)
from .soa import ArrowRecord, CellRecord, GeneratedAwfs, walk_stages


class TauData:
    """Functor between generator diagrams over the arrow category: a full
    inclusion whose image splits off as a coproduct of shapes."""

    __slots__ = ("src", "dst", "on_objects", "on_morphisms")

    def __init__(
        self, src: GeneratorDiagram, dst: GeneratorDiagram, on_objects: dict[str, str],
        on_morphisms: dict[str, str] | None = None,
    ):
        self.src = src
        self.dst = dst
        self.on_objects = on_objects
        self.on_morphisms = {} if on_morphisms is None else on_morphisms
        self.__post_init__()

    def __post_init__(self):
        for o, i in self.src.shape.identities.items():
            self.on_morphisms.setdefault(i, self.dst.shape.identities[self.on_objects[o]])

    def validate(self, path: str = "tau") -> None:
        values = list(self.on_objects.values())
        if len(set(values)) != len(values):
            raise ValidationError(path, "not injective on objects")
        for j, i in self.on_objects.items():
            if self.src.arrow_of[j] != self.dst.arrow_of[i]:
                raise ValidationError(f"{path}.{j}", "generator arrows differ over the arrow category")
        for m in self.src.shape.morphisms:
            mm = self.on_morphisms.get(m)
            if mm is None:
                raise ValidationError(f"{path}.morphisms.{m}", "missing image")
            if self.dst.shape.src(mm) != self.on_objects[self.src.shape.src(m)]:
                raise ValidationError(f"{path}.morphisms.{m}", "source mismatch")
            if self.dst.shape.dst(mm) != self.on_objects[self.src.shape.dst(m)]:
                raise ValidationError(f"{path}.morphisms.{m}", "target mismatch")
            if self.src.square_of[m] != self.dst.square_of[mm]:
                raise ValidationError(f"{path}.morphisms.{m}", "squares differ")
        image = set(self.on_objects.values())
        for m in self.dst.shape.nonidentity_morphisms():
            a, b = self.dst.shape.src(m), self.dst.shape.dst(m)
            if (a in image) != (b in image):
                raise ValidationError(
                    f"{path}.split.{m}", "target does not decompose as image ⊔ complement"
                )


class WeqPredicate:
    """User-supplied weak equivalence class.

    kind "all" accepts everything, "isos" the componentwise bijections, and
    "list" exactly the listed arrows (by table identity).
    """

    __slots__ = ("kind", "arrows")

    def __init__(self, kind: str = "all", arrows: frozenset = frozenset()):
        self.kind = kind
        self.arrows = arrows

    def __call__(self, f) -> bool:
        arr = f if isinstance(f, ArrowObject) else ArrowObject(f)
        if self.kind == "all":
            return True
        if self.kind == "isos":
            return arr.f.is_bijective()
        if self.kind == "list":
            return arr in self.arrows
        raise ValidationError("weq.kind", f"unknown kind {self.kind!r}")

    @staticmethod
    def from_json(data, maps: dict[str, PresheafMap]) -> "WeqPredicate":
        """`None` or "all", a list of map names, or an object with `kind`
        all, isos or list (the default) and, for list, `arrows`."""
        if data is None or data == "all":
            return WeqPredicate("all")
        path = "weq"
        if isinstance(data, dict):
            kind = data.get("kind", "list")
            if kind in ("all", "isos"):
                return WeqPredicate(kind)
            if kind != "list":
                raise ValidationError("weq.kind", f"unknown kind {kind!r}")
            data, path = data.get("arrows", []), "weq.arrows"
        if not isinstance(data, list):
            raise ValidationError(path, "must be a JSON list of map names")
        arrows = []
        for n in data:
            if not isinstance(n, str) or n not in maps:
                raise ValidationError(f"weq.arrows.{n}", "unknown map name")
            arrows.append(ArrowObject(maps[n]))
        return WeqPredicate("list", frozenset(arrows))


def coalgebra_from_cellular(
    gen: GeneratedAwfs,
    zeta: Callable[[str], CoalgebraStructure],
    target: ArrowRecord,
) -> CoalgebraStructure:
    """Coalgebra structure (for gen's comonad) on a cellularly built arrow.

    Every cell of the target is a generator with a zeta-structure; the
    structure map is assembled stage by stage, filling each cell against the
    free algebra on the target using its zeta coalgebra.
    """
    h = ArrowObject(target.left())
    fac = gen.factor(h)
    alg = gen.free_algebra(h)  # free algebra on the gen-right factor of h
    rt_arrow = ArrowObject(fac.right)
    last = len(target.stages) - 1

    def fill(cell: CellRecord, prev_map: PresheafMap) -> PresheafMap:
        z = zeta(cell.jname)
        top = cell.square.u.then(prev_map)
        bottom = cell.injection.then(target.inclusion_range(cell.stage, last))
        return solve_lift(z, alg, Square(z.f, rt_arrow, top, bottom), gen.as_fact())

    s = walk_stages(
        target, fac.left, fac.mid, fill, "coalgebra_from_cellular", "inconsistent assembly"
    )
    return CoalgebraStructure(h, s)


def xi_rule(f: ArrowObject, record_t, record, tau: TauData, where: str) -> PresheafMap:
    """Comparison map ξ_f: E_t f -> E f, from f's records on the two sides
    (read as in `soa.e_rule`).  E_t f's stage 0 goes by L f, and each cell (a
    generator j of tau.src) to the fill of its square read through tau as a
    square from τ j into R f."""
    rec = record(f)
    rf = ArrowObject(rec.right())

    def fill(cell: CellRecord, prev_map: PresheafMap) -> PresheafMap:
        iname = tau.on_objects[cell.jname]
        top = cell.square.u.then(prev_map)
        return rec.fill(iname, Square(tau.dst.arrow_of[iname], rf, top, cell.square.v))

    return walk_stages(record_t(f), rec.left(), rec.mid(), fill, where, "inconsistent comparison")


def build_comparison(
    gen_t: GeneratedAwfs, gen: GeneratedAwfs, tau: TauData
) -> AwfsMorphism:
    """Comparison map ξ, once per arrow (`xi_rule`)."""
    tau.validate()

    @cache
    def xi(f: ArrowObject) -> PresheafMap:
        return xi_rule(f, gen_t.record, gen.record, tau, "build_comparison")

    return AwfsMorphism(xi)


class AlgebraicModelStructure:
    """Two generated awfs with a comparison map and a weak equivalence class."""

    __slots__ = ("gen_t", "gen", "tau", "xi", "weq", "_chis")

    def __init__(
        self, gen_t: GeneratedAwfs, gen: GeneratedAwfs, tau: TauData, xi: AwfsMorphism,
        weq: WeqPredicate,
    ):
        self.gen_t = gen_t  # (trivial cofibration, fibration) side, from J
        self.gen = gen  # (cofibration, trivial fibration) side, from I
        self.tau = tau
        self.xi = xi
        self.weq = weq
        self._chis: dict[Presheaf, PresheafMap] = {}  # object -> χ, filled by `chi`


def build_model_structure(
    gen_t: GeneratedAwfs, gen: GeneratedAwfs, tau: TauData, weq: WeqPredicate
) -> AlgebraicModelStructure:
    xi = build_comparison(gen_t, gen, tau)
    return AlgebraicModelStructure(gen_t, gen, tau, xi, weq)


def verify_comparison(amstr: AlgebraicModelStructure, probes: list) -> LawReport:
    return verify_awfs_morphism(
        amstr.xi, amstr.gen_t.as_awfs(), amstr.gen.as_awfs(), probes
    )


def two_lift_agreement(
    amstr: AlgebraicModelStructure,
    coalg: CoalgebraStructure,
    alg: AlgebraStructure,
    sq: Square,
) -> bool:
    """Lift through ξ_*(coalgebra) in (C, F_t) versus through ξ^*(algebra) in
    (C_t, F); the two canonical solutions must agree."""
    pushed = CoalgebraStructure(coalg.f, coalg.s.then(amstr.xi.at(coalg.f)))
    w1 = solve_lift(pushed, alg, sq, amstr.gen.as_fact())
    pulled = AlgebraStructure(alg.g, amstr.xi.at(alg.g).then(alg.t))
    w2 = solve_lift(coalg, pulled, sq, amstr.gen_t.as_fact())
    return eq_witness(w1, w2) is None


# ---------------------------------------------------------------------------
# Replacement monad / comonad on objects


def bang(x: Presheaf) -> PresheafMap:
    """The unique map to the terminal presheaf."""
    one = Presheaf.terminal(x.base)
    return PresheafMap(x, one, tuple((0,) * n for n in x.sizes))


def cobang(x: Presheaf) -> PresheafMap:
    """The unique map from the initial presheaf."""
    zero = Presheaf.empty(x.base)
    return PresheafMap(zero, x, ((),) * len(x.sizes))


class ReplacementMonad:
    """Fibrant replacement monad R and cofibrant replacement comonad Q on
    objects, induced by slicing over the terminal / under the initial."""

    __slots__ = ("amstr",)

    def __init__(self, amstr: AlgebraicModelStructure):
        self.amstr = amstr

    def r_obj(self, x: Presheaf) -> Presheaf:
        return self.amstr.gen_t.factor(bang(x)).mid

    def unit(self, x: Presheaf) -> PresheafMap:  # η_X: X -> RX
        return self.amstr.gen_t.factor(bang(x)).left

    def r_map(self, g: PresheafMap) -> PresheafMap:
        one_id = PresheafMap.identity(Presheaf.terminal(g.base))
        sq = Square(ArrowObject(bang(g.src)), ArrowObject(bang(g.dst)), g, one_id)
        return self.amstr.gen_t.e_on_square(sq)

    def mult(self, x: Presheaf) -> PresheafMap:  # μ_X: RRX -> RX
        return self.amstr.gen_t.mu(bang(x))

    def q_obj(self, x: Presheaf) -> Presheaf:
        return self.amstr.gen.factor(cobang(x)).mid

    def counit(self, x: Presheaf) -> PresheafMap:  # ε_X: QX -> X
        return self.amstr.gen.factor(cobang(x)).right

    def q_map(self, g: PresheafMap) -> PresheafMap:
        empty_id = PresheafMap.identity(Presheaf.empty(g.base))
        sq = Square(ArrowObject(cobang(g.src)), ArrowObject(cobang(g.dst)), empty_id, g)
        return self.amstr.gen.e_on_square(sq)

    def comult(self, x: Presheaf) -> PresheafMap:  # δ_X: QX -> QQX
        return self.amstr.gen.delta(cobang(x))


def chi(amstr: AlgebraicModelStructure, x: Presheaf) -> PresheafMap:
    """χ_X: RQX -> QRX, the two-lift-agreeing solution of the lifting problem
    posed by Qη_X and Rε_X between η_{QX} and ε_{RX}.  Computed once per
    model structure and object."""
    if x in amstr._chis:
        return amstr._chis[x]
    rep = ReplacementMonad(amstr)
    qx = rep.q_obj(x)
    j = amstr.gen_t.free_coalgebra(bang(qx))  # η_{QX} with its free structure
    q_alg = amstr.gen.free_algebra(cobang(rep.r_obj(x)))  # ε_{RX} free algebra
    u = rep.q_map(rep.unit(x))  # Qη_X: QX -> QRX
    v = rep.r_map(rep.counit(x))  # Rε_X: RQX -> RX
    sq = Square(j.f, q_alg.g, u, v)
    pushed = CoalgebraStructure(j.f, j.s.then(amstr.xi.at(j.f)))
    w1 = solve_lift(pushed, q_alg, sq, amstr.gen.as_fact())
    pulled = AlgebraStructure(q_alg.g, amstr.xi.at(q_alg.g).then(q_alg.t))
    w2 = solve_lift(j, pulled, sq, amstr.gen_t.as_fact())
    if eq_witness(w1, w2) is not None:
        raise ValidationError("chi", "the two canonical lifts disagree")
    amstr._chis[x] = w1
    return w1


def check_replacement_laws(amstr: AlgebraicModelStructure, objects: list[Presheaf]) -> LawReport:
    """Monad laws for R, comonad laws for Q, and the χ compatibility squares
    with units, counits, multiplication and comultiplication."""
    rep = ReplacementMonad(amstr)
    report = LawReport()
    for i, x in enumerate(objects):
        name = f"object[{i}]"
        rx = rep.r_obj(x)
        report.check(
            "R.unit.left", name, rep.unit(rx).then(rep.mult(x)), PresheafMap.identity(rx)
        )
        report.check(
            "R.unit.right", name, rep.r_map(rep.unit(x)).then(rep.mult(x)), PresheafMap.identity(rx)
        )
        report.check(
            "R.assoc", name,
            rep.mult(rx).then(rep.mult(x)),
            rep.r_map(rep.mult(x)).then(rep.mult(x)),
        )
        qx = rep.q_obj(x)
        report.check(
            "Q.counit.left", name, rep.comult(x).then(rep.counit(qx)), PresheafMap.identity(qx)
        )
        report.check(
            "Q.counit.right", name, rep.comult(x).then(rep.q_map(rep.counit(x))), PresheafMap.identity(qx)
        )
        report.check(
            "Q.coassoc", name,
            rep.comult(x).then(rep.comult(qx)),
            rep.comult(x).then(rep.q_map(rep.comult(x))),
        )
        chi_x = chi(amstr, x)
        report.check("chi.unit", name, rep.unit(qx).then(chi_x), rep.q_map(rep.unit(x)))
        report.check("chi.counit", name, chi_x.then(rep.counit(rx)), rep.r_map(rep.counit(x)))
        # multiplication: χ_X ∘ μ_{QX} = Qμ_X ∘ χ_{RX} ∘ R(χ_X)
        report.check(
            "chi.mult", name,
            rep.mult(qx).then(chi_x),
            rep.r_map(chi_x).then(chi(amstr, rx)).then(rep.q_map(rep.mult(x))),
        )
        # comultiplication: δ_{RX} ∘ χ_X = Qχ_X ∘ χ_{QX} ∘ R(δ_X)
        report.check(
            "chi.comult", name,
            chi_x.then(rep.comult(rx)),
            rep.r_map(rep.comult(x)).then(chi(amstr, qx)).then(rep.q_map(chi_x)),
        )
    return report


# ---------------------------------------------------------------------------
# Generator pruning (replace J by the left factors of its arrows)


class PrunedGenerators:
    __slots__ = ("diagram", "zeta", "sections", "renamed")

    def __init__(
        self, diagram: GeneratorDiagram, zeta: dict[str, CoalgebraStructure],
        sections: dict[str, PresheafMap], renamed: dict[str, str],
    ):
        self.diagram = diagram  # J': arrows C j
        self.zeta = zeta  # J'-name -> free coalgebra (Cj, δ_j)
        self.sections = sections  # original J-name -> section s: cod j -> Qj
        self.renamed = renamed  # original J-name -> J'-name


class PruneError(Exception):
    pass


def prune_generators(gen: GeneratedAwfs, diagram: GeneratorDiagram) -> PrunedGenerators:
    """J' = {Cj | j in J} with canonical free coalgebra structures, plus the
    retract sections found by the oracle."""
    if not diagram.is_discrete():
        raise ValidationError("prune_generators", "generator diagram must be discrete")
    arrows: dict[str, ArrowObject] = {}
    zeta: dict[str, CoalgebraStructure] = {}
    sections: dict[str, PresheafMap] = {}
    renamed: dict[str, str] = {}
    for jname in diagram.objects():
        j = diagram.arrow_of[jname]
        fac = gen.factor(j)
        cj = ArrowObject(fac.left)
        name = f"C_{jname}"
        arrows[name] = cj
        zeta[name] = gen.free_coalgebra(j)
        ft = ArrowObject(fac.right)
        sq = Square(j, ft, fac.left, PresheafMap.identity(j.cod))
        fillers = oracle_lift(j, ft, sq)
        if not fillers:
            raise PruneError(f"no section for generator {jname}: not a trivial cofibration")
        sections[jname] = fillers[0]
        renamed[jname] = name
    return PrunedGenerators(GeneratorDiagram.discrete(arrows), zeta, sections, renamed)


def transfer_pruned_lifting(
    pruned: PrunedGenerators,
    diagram: GeneratorDiagram,
    gen: GeneratedAwfs,
    lf: LiftingFunction,
) -> LiftingFunction:
    """J'^⧄ -> J^⧄ transfer: φ(j,u,v) = ψ(Cj, u, v·F_t j) ∘ s."""

    def fn(jname: str, sq: Square) -> PresheafMap:
        cj_name = pruned.renamed[jname]
        cj = pruned.diagram.arrow_of[cj_name]
        ft = gen.factor(diagram.arrow_of[jname]).right
        big = Square(cj, lf.g, sq.u, ft.then(sq.v))
        return pruned.sections[jname].then(lf.phi(cj_name, big))

    return LiftingFunction.tabulate(diagram, lf.g, fn)


# ---------------------------------------------------------------------------
# Instance-level model axioms


def in_rlp_class(diagram: GeneratorDiagram, g: ArrowObject) -> bool:
    """Oracle check: g has fillers against every generator square."""
    for jname in diagram.objects():
        j = diagram.arrow_of[jname]
        for sq in enumerate_squares(j, g):
            if not oracle_lift(j, g, sq):
                return False
    return True


def validate_model_axioms(
    amstr: AlgebraicModelStructure, arrows: list[ArrowObject]
) -> LawReport:
    """2-of-3 over composable pairs of listed arrows, acyclicity of the free
    trivial-cofibration coalgebras, and F ∩ W ⊆ F_t via the oracle."""
    report = LawReport()
    weq = amstr.weq
    for i, f in enumerate(arrows):
        for k, g in enumerate(arrows):
            if f.cod != g.dom:
                continue
            gf = ArrowObject(f.f.then(g.f))
            wf, wg, wgf = weq(f), weq(g), weq(gf)
            ok = (
                (not (wf and wg) or wgf)
                and (not (wf and wgf) or wg)
                and (not (wg and wgf) or wf)
            )
            report.record("weq.2of3", f"pair[{i},{k}]", ok)
    for i, f in enumerate(arrows):
        ct = ArrowObject(amstr.gen_t.factor(f).left)
        report.record("weq.acyclicity", f"arrow[{i}]", weq(ct))
    for jname in amstr.gen_t.diagram.objects():
        report.record(
            "weq.acyclicity.generator", jname, weq(amstr.gen_t.diagram.arrow_of[jname])
        )
    for i, g in enumerate(arrows):
        if weq(g) and in_rlp_class(amstr.gen_t.diagram, g):
            report.record(
                "weq.fib-cap", f"arrow[{i}]", in_rlp_class(amstr.gen.diagram, g)
            )
    return report


# ---------------------------------------------------------------------------
# Certificate blocks


def replacement_candidates(presheaves: dict[str, Presheaf], base: FiniteCategory) -> list[str]:
    """The named objects whose replacements a `model` certificate tries: those
    over `base` with at most 3 elements, in instance order."""
    return [n for n, p in presheaves.items() if p.base == base and p.total_size <= 3]


def model_blocks(
    amstr: AlgebraicModelStructure, named: dict[str, ArrowObject], objects: dict[str, Presheaf]
) -> dict:
    """A `model` certificate's blocks (see `lifting.generator_block`): ξ at
    each named arrow; R, Q, their (co)units, (co)multiplications and χ at each
    object; and the law report of `verify_comparison`, `validate_model_axioms`
    and `check_replacement_laws`."""
    arrows = list(named.values())
    report = verify_comparison(amstr, arrows)
    report.extend(validate_model_axioms(amstr, arrows))
    report.extend(check_replacement_laws(amstr, list(objects.values())))
    rep = ReplacementMonad(amstr)
    replacement = {
        n: {
            "R": rep.r_obj(x),
            "Q": rep.q_obj(x),
            "unit": rep.unit(x),
            "counit": rep.counit(x),
            "mult": rep.mult(x),
            "comult": rep.comult(x),
        }
        for n, x in objects.items()
    }
    return {
        "xi": {name: amstr.xi.at(f) for name, f in named.items()},
        "replacement": replacement,
        "chi": {n: chi(amstr, x) for n, x in objects.items()},
        "law_report": report.to_json(),
    }
