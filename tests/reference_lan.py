"""Test-only reference for Lan ⊣ restriction: the route that
`transport.restriction_adjunction` took before Lan was read straight off its
coend.  Lan_u p is built as a coproduct of representable copowers
(`rep_copower`), quotiented by the coend relations (`core.quotient_presheaf`,
smallest-member labels), and maps out of it are glued over the quotient
(`core.glue`)."""

from awfs_forge.core import (
    FinFunction,
    FinSet,
    FiniteCategory,
    Presheaf,
    PresheafMap,
    coproduct,
    glue,
    quotient_presheaf,
)
from awfs_forge.transport import AdjunctionData, FunctorData, _per_argument


def rep_copower(base: FiniteCategory, w: str, size: int) -> Presheaf:
    """The copower hom(−, w) · {0..size-1}: elements at a are pairs
    (hom index, point), flattened as hom_index * size + point."""
    at = {o: FinSet(len(base.hom(o, w)) * size) for o in base.objects}
    act = {}
    for m, (a, b) in base.morphisms.items():
        homs_b = base.hom(b, w)
        homs_a = base.hom(a, w)
        idx_a = {h: i for i, h in enumerate(homs_a)}
        table = []
        for hi, h in enumerate(homs_b):
            composite = base.compose(h, m)  # a -> b -> w
            for x in range(size):
                table.append(idx_a[composite] * size + x)
        act[m] = FinFunction(at[b], at[a], tuple(table))
    return Presheaf(base, at, act)


class _LanBlock:
    """Pointwise left Kan extension of one presheaf along a base functor."""

    def __init__(self, u: FunctorData, p: Presheaf):
        self.u = u
        self.p = p
        base0, base1 = u.src, u.dst
        self.pieces = []  # (c, presheaf over base1)
        for c in base0.objects:
            self.pieces.append((c, rep_copower(base1, u.obj(c), p.at[c].size)))
        self.cop = coproduct([q for _, q in self.pieces], base1)
        rels = []
        for m in base0.nonidentity_morphisms():
            c1, c2 = base0.src(m), base0.dst(m)  # m: c1 -> c2
            block1 = rep_copower(base1, u.obj(c1), p.at[c2].size)
            # left: (alpha: a -> u c1, x in P(c2)) -> (u(m)∘alpha, x) in block c2
            # right: -> (alpha, P(m) x) in block c1
            i1 = self._piece_index(c1)
            i2 = self._piece_index(c2)
            left_tabs, right_tabs = {}, {}
            for a in base1.objects:
                homs1 = base1.hom(a, u.obj(c1))
                homs2 = {h: i for i, h in enumerate(base1.hom(a, u.obj(c2)))}
                n2 = p.at[c2].size
                n1 = p.at[c1].size
                lt, rt = [], []
                for hi, h in enumerate(homs1):
                    comp = base1.compose(u.mor(m), h)
                    for x in range(n2):
                        lt.append(homs2[comp] * n2 + x)
                        rt.append(hi * n1 + p.act[m].table[x])
                left_tabs[a] = lt
                right_tabs[a] = rt
            left = PresheafMap.from_tables(block1, self.cop.apex, {
                a: [self.cop.legs[i2].table_at(a)[v] for v in left_tabs[a]]
                for a in base1.objects
            })
            right = PresheafMap.from_tables(block1, self.cop.apex, {
                a: [self.cop.legs[i1].table_at(a)[v] for v in right_tabs[a]]
                for a in base1.objects
            })
            rels.append((left, right))
        self.lan, self.q = quotient_presheaf(self.cop.apex, rels)

    def _piece_index(self, c: str) -> int:
        for i, (cc, _) in enumerate(self.pieces):
            if cc == c:
                return i
        raise KeyError(c)

    def class_of(self, a: str, c: str, alpha: str, x: int) -> int:
        """Class of the element (alpha: a -> u c, x in P(c))."""
        i = self._piece_index(c)
        homs = self.u.dst.hom(a, self.u.obj(c))
        flat = homs.index(alpha) * self.p.at[c].size + x
        return self.q.table_at(a)[self.cop.legs[i].table_at(a)[flat]]



def reference_restriction_adjunction(u: FunctorData) -> AdjunctionData:
    """Lan_u ⊣ u^* for a functor u between base categories.  Each functor,
    the unit and the counit are computed once per argument for the life of
    the adjunction."""
    u.validate()
    base0, base1 = u.src, u.dst

    @_per_argument
    def restrict_obj(q: Presheaf) -> Presheaf:
        at = {c: q.at[u.obj(c)] for c in base0.objects}
        act = {m: q.act[u.mor(m)] for m in base0.morphisms}
        return Presheaf(base0, at, act)

    @_per_argument
    def restrict_map(g: PresheafMap) -> PresheafMap:
        return PresheafMap(
            restrict_obj(g.src),
            restrict_obj(g.dst),
            tuple(g.table_at(u.obj(c)) for c in base0.objects),
        )

    @_per_argument
    def lan_block(p: Presheaf) -> _LanBlock:
        return _LanBlock(u, p)

    def lan_obj(p: Presheaf) -> Presheaf:
        return lan_block(p).lan

    @_per_argument
    def lan_map(phi: PresheafMap) -> PresheafMap:
        b1, b2 = lan_block(phi.src), lan_block(phi.dst)
        raw_tabs = {}
        for a in base1.objects:
            t = []
            for i, (c, piece) in enumerate(b1.pieces):
                homs = base1.hom(a, u.obj(c))
                n = phi.src.at[c].size
                for hi in range(len(homs)):
                    for x in range(n):
                        t.append(
                            b2.cop.legs[i].table_at(a)[
                                hi * phi.dst.at[c].size + phi.table_at(c)[x]
                            ]
                        )
            raw_tabs[a] = t
        raw = PresheafMap.from_tables(b1.cop.apex, b2.cop.apex, raw_tabs)
        return glue(b1.lan, b2.lan, [(b1.q, raw.then(b2.q))], "lan_map", "not constant on classes")

    @_per_argument
    def unit(p: Presheaf) -> PresheafMap:
        block = lan_block(p)
        tabs = {}
        for c in base0.objects:
            a = u.obj(c)
            ident = base1.identities[a]
            tabs[c] = [block.class_of(a, c, ident, x) for x in range(p.at[c].size)]
        return PresheafMap.from_tables(p, restrict_obj(block.lan), tabs)

    @_per_argument
    def counit(q: Presheaf) -> PresheafMap:
        p = restrict_obj(q)
        block = lan_block(p)
        value_tabs = {}
        for a in base1.objects:
            t = []
            for c, piece in block.pieces:
                homs = base1.hom(a, u.obj(c))
                for alpha in homs:
                    for y in range(p.at[c].size):
                        t.append(q.act[alpha].table[y])
            value_tabs[a] = t
        value = PresheafMap.from_tables(block.cop.apex, q, value_tabs)
        return glue(block.lan, q, [(block.q, value)], "counit", "not constant on classes")

    return AdjunctionData(base0, base1, lan_obj, lan_map, restrict_obj, restrict_map, unit, counit)
