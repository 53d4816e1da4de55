"""Arrow category of a presheaf category, functorial factorizations, awfs
records, and exhaustive comonad/monad/distributive-law verification."""

from __future__ import annotations

from typing import Callable, NamedTuple

from .core import (
    FiniteCategory,
    Presheaf,
    PresheafMap,
    ValidationError,
    eq_witness,
)


class ArrowObject:
    """An object of the arrow category: a single presheaf map."""

    __slots__ = ("f",)

    def __init__(self, f: PresheafMap):
        self.f = f

    def __eq__(self, other) -> bool:
        return isinstance(other, ArrowObject) and (self.f is other.f or self.f == other.f)

    def __hash__(self) -> int:
        return hash(self.f)

    @property
    def dom(self) -> Presheaf:
        return self.f.src

    @property
    def cod(self) -> Presheaf:
        return self.f.dst

    @property
    def base(self) -> FiniteCategory:
        return self.f.base


class Square:
    """Morphism (u, v): src => dst of the arrow category: a commutative square.

    u maps domains, v maps codomains, and dst.f ∘ u = v ∘ src.f.
    """

    __slots__ = ("src", "dst", "u", "v")

    def __init__(self, src: ArrowObject, dst: ArrowObject, u: PresheafMap, v: PresheafMap):
        self.src = src
        self.dst = dst
        self.u = u
        self.v = v

    def __eq__(self, other) -> bool:
        return isinstance(other, Square) and (
            (self.u is other.u or self.u == other.u) and (self.v is other.v or self.v == other.v)
        )

    def __hash__(self) -> int:
        return hash((self.u, self.v))

    def validate(self, path: str = "square") -> None:
        if self.u.src != self.src.dom or self.u.dst != self.dst.dom:
            raise ValidationError(f"{path}.u", "top edge ill-typed")
        if self.v.src != self.src.cod or self.v.dst != self.dst.cod:
            raise ValidationError(f"{path}.v", "bottom edge ill-typed")
        w = eq_witness(self.u.then(self.dst.f), self.src.f.then(self.v))
        if w is not None:
            raise ValidationError(
                f"{path}", f"square does not commute at ({w['object']}, {w['element']})"
            )


class Factored(NamedTuple):
    left: PresheafMap  # Lf: dom f -> Ef
    mid: Presheaf  # Ef
    right: PresheafMap  # Rf: Ef -> cod f


class FunctorialFactorization:
    """Section of the composition functor, materialized as a pair of callables.

    The owning engine computes both the object part and the action on squares;
    this record only packages them behind a uniform interface.
    """

    __slots__ = ("on_object", "on_square")

    def __init__(
        self, on_object: Callable[[ArrowObject], Factored],
        on_square: Callable[[Square], PresheafMap],
    ):
        self.on_object = on_object
        self.on_square = on_square

    def factor(self, x) -> Factored:
        a = x if isinstance(x, ArrowObject) else ArrowObject(x)
        return self.on_object(a)

    def left(self, x) -> ArrowObject:
        return ArrowObject(self.factor(x).left)

    def right(self, x) -> ArrowObject:
        return ArrowObject(self.factor(x).right)

    def e(self, sq: Square) -> PresheafMap:
        return self.on_square(sq)


class Awfs:
    """Algebraic weak factorization system: factorization plus δ and μ.

    delta(f): Ef -> ELf is the codomain part of the comultiplication;
    mu(f): ERf -> Ef is the domain part of the multiplication.
    """

    __slots__ = ("fact", "delta", "mu")

    def __init__(
        self, fact: FunctorialFactorization, delta: Callable[[ArrowObject], PresheafMap],
        mu: Callable[[ArrowObject], PresheafMap],
    ):
        self.fact = fact
        self.delta = delta
        self.mu = mu

    def factor(self, x) -> Factored:
        return self.fact.factor(x)

    def e(self, sq: Square) -> PresheafMap:
        return self.fact.e(sq)


class AwfsMorphism:
    """Morphism of awfs: a natural family xi(f): Ef -> E'f."""

    __slots__ = ("xi",)

    def __init__(self, xi: Callable[[ArrowObject], PresheafMap]):
        self.xi = xi

    def at(self, x) -> PresheafMap:
        a = x if isinstance(x, ArrowObject) else ArrowObject(x)
        return self.xi(a)


class LawEntry:
    __slots__ = ("law", "probe", "status", "witness")

    def __init__(self, law: str, probe: str, status: str, witness: dict | None = None):
        self.law = law
        self.probe = probe
        self.status = status  # "pass" | "fail"
        self.witness = witness

    def to_json(self) -> dict:
        out = {"law": self.law, "probe": self.probe, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class LawReport:
    __slots__ = ("entries",)

    def __init__(self, entries: list[LawEntry] | None = None):
        self.entries = [] if entries is None else entries

    @property
    def passed(self) -> bool:
        return all(e.status == "pass" for e in self.entries)

    def failures(self) -> list[LawEntry]:
        return [e for e in self.entries if e.status == "fail"]

    def check(self, law: str, probe: str, lhs: PresheafMap, rhs: PresheafMap) -> None:
        w = eq_witness(lhs, rhs)
        self.entries.append(LawEntry(law, probe, "pass" if w is None else "fail", w))

    def check_lazy(self, law: str, probe: str, lhs, rhs) -> None:
        """Evaluate both sides, treating engine errors as failures: a law whose
        equation cannot even be formed has failed."""
        try:
            self.check(law, probe, lhs(), rhs())
        except Exception as exc:  # corrupted structures break E-computations
            self.entries.append(LawEntry(law, probe, "fail", {"error": str(exc)}))

    def record(self, law: str, probe: str, ok: bool, witness: dict | None = None) -> None:
        self.entries.append(LawEntry(law, probe, "pass" if ok else "fail", witness))

    def extend(self, other: "LawReport") -> "LawReport":
        self.entries.extend(other.entries)
        return self

    def to_json(self) -> list[dict]:
        return [e.to_json() for e in self.entries]


def _probe_name(i: int, x) -> str:
    kind = "square" if isinstance(x, Square) else "arrow"
    return f"{kind}[{i}]"


def verify_awfs(awfs: Awfs, probes: list) -> LawReport:
    """Exhaustive per-probe law suite for a candidate awfs.

    Arrow probes get the comonad laws for (L, ε, δ), the monad laws for
    (R, η, μ), and the distributive law δ·μ = μ_L·E(δ,μ)·δ_R.  Square probes
    get functoriality of E plus naturality of δ and μ.
    """
    report = LawReport()
    fact = awfs.fact
    for i, probe in enumerate(probes):
        name = _probe_name(i, probe)
        if isinstance(probe, Square):
            sq = probe
            e_uv = fact.e(sq)
            lf = fact.factor(sq.src)
            lg = fact.factor(sq.dst)
            report.check("E.rect.top", name, lf.left.then(e_uv), sq.u.then(lg.left))
            report.check("E.rect.bottom", name, e_uv.then(lg.right), lf.right.then(sq.v))
            if sq.src == sq.dst and sq.u == PresheafMap.identity(sq.src.dom) and sq.v == PresheafMap.identity(sq.src.cod):
                report.check("E.identity", name, e_uv, PresheafMap.identity(lf.mid))
            # naturality of δ and μ against the probe square
            l_sq = Square(fact.left(sq.src), fact.left(sq.dst), sq.u, e_uv)
            r_sq = Square(fact.right(sq.src), fact.right(sq.dst), e_uv, sq.v)
            report.check(
                "delta.natural",
                name,
                e_uv.then(awfs.delta(sq.dst)),
                awfs.delta(sq.src).then(fact.e(l_sq)),
            )
            report.check(
                "mu.natural",
                name,
                fact.e(r_sq).then(awfs.mu(sq.dst)),
                awfs.mu(sq.src).then(e_uv),
            )
            continue

        f = probe if isinstance(probe, ArrowObject) else ArrowObject(probe)
        fac = fact.factor(f)
        lf, ef, rf = fac.left, fac.mid, fac.right
        report.check("factorization", name, lf.then(rf), f.f)

        larr = ArrowObject(lf)
        rarr = ArrowObject(rf)
        delta_f = awfs.delta(f)
        mu_f = awfs.mu(f)
        fac_l = fact.factor(larr)
        fac_r = fact.factor(rarr)
        ident_e = PresheafMap.identity(ef)

        # comonad counit laws: (1, RLf)∘δ and L(ε)∘δ are identities on Ef
        report.check_lazy(
            "comonad.counit.whisker",
            name,
            lambda: delta_f.then(fac_l.right),
            lambda: ident_e,
        )
        eps_sq = Square(larr, f, PresheafMap.identity(f.dom), rf)
        report.check_lazy(
            "comonad.counit.fatten",
            name,
            lambda: delta_f.then(fact.e(eps_sq)),
            lambda: ident_e,
        )
        # coassociativity: δ_{Lf} ∘ δ_f = E(1, δ_f) ∘ δ_f
        llarr = ArrowObject(fac_l.left)
        dl_sq = Square(larr, llarr, PresheafMap.identity(f.dom), delta_f)
        report.check_lazy(
            "comonad.coassoc",
            name,
            lambda: delta_f.then(awfs.delta(larr)),
            lambda: delta_f.then(fact.e(dl_sq)),
        )

        # monad unit laws
        report.check_lazy(
            "monad.unit.whisker", name, lambda: fac_r.left.then(mu_f), lambda: ident_e
        )
        eta_sq = Square(f, rarr, lf, PresheafMap.identity(f.cod))
        report.check_lazy(
            "monad.unit.fatten", name, lambda: fact.e(eta_sq).then(mu_f), lambda: ident_e
        )
        # associativity: μ_f ∘ μ_{Rf} = μ_f ∘ E(μ_f, 1)
        rrarr = ArrowObject(fac_r.right)
        mr_sq = Square(rrarr, rarr, mu_f, PresheafMap.identity(f.cod))
        report.check_lazy(
            "monad.assoc",
            name,
            lambda: awfs.mu(rarr).then(mu_f),
            lambda: fact.e(mr_sq).then(mu_f),
        )

        # distributive law: δ_f ∘ μ_f = μ_{Lf} ∘ E(δ_f, μ_f) ∘ δ_{Rf}
        lr_arr = ArrowObject(fac_r.left)
        rl_arr = ArrowObject(fac_l.right)
        dist_sq = Square(lr_arr, rl_arr, delta_f, mu_f)
        report.check_lazy(
            "distributive",
            name,
            lambda: mu_f.then(delta_f),
            lambda: awfs.delta(rarr).then(fact.e(dist_sq)).then(awfs.mu(larr)),
        )
    return report


def verify_awfs_morphism(
    xi: AwfsMorphism, from_awfs: Awfs, to_awfs: Awfs, probes: list
) -> LawReport:
    """Check the factorization triangles plus the comonad- and monad-morphism
    axioms of a candidate morphism of awfs, per probe arrow."""
    report = LawReport()
    for i, probe in enumerate(probes):
        f = probe if isinstance(probe, ArrowObject) else ArrowObject(probe)
        name = _probe_name(i, f)
        fac = from_awfs.fact.factor(f)
        fac2 = to_awfs.fact.factor(f)
        xi_f = xi.at(f)
        report.check("triangle.left", name, fac.left.then(xi_f), fac2.left)
        report.check("triangle.right", name, xi_f.then(fac2.right), fac.right)

        larr = ArrowObject(fac.left)
        larr2 = ArrowObject(fac2.left)
        # comonad morphism: δ'_f ∘ ξ_f = ξ_{L'f} ∘ E(1, ξ_f) ∘ δ_f
        l_sq = Square(larr, larr2, PresheafMap.identity(f.dom), xi_f)
        report.check_lazy(
            "comonad.morphism",
            name,
            lambda: xi_f.then(to_awfs.delta(f)),
            lambda: from_awfs.delta(f).then(from_awfs.fact.e(l_sq)).then(xi.at(larr2)),
        )
        rarr = ArrowObject(fac.right)
        rarr2 = ArrowObject(fac2.right)
        # monad morphism: ξ_f ∘ μ_f = μ'_f ∘ ξ_{R'f} ∘ E(ξ_f, 1)
        r_sq = Square(rarr, rarr2, xi_f, PresheafMap.identity(f.cod))
        report.check_lazy(
            "monad.morphism",
            name,
            lambda: from_awfs.mu(f).then(xi_f),
            lambda: from_awfs.fact.e(r_sq).then(xi.at(rarr2)).then(to_awfs.mu(f)),
        )
    return report
