"""Test-only reference routes for the comparison map ξ and the mate ρ: the
constructions that `model.build_comparison` and `transport.rho_from_lift`
replaced by a walk over cells.

ξ_f gives the left factor L_t f its cellular coalgebra structure for the
I-side awfs (each J-cell filled through τ by `solve_lift`), then solves the
canonical lifting problem of (L f, R_t f) against the free algebra on R f.

ρ_g tabulates the S-image of g's free lifting function (every fill replaced
by its adjunct), turns it into an algebra structure on S(R g), and
precomposes with Q(S L g, 1).
"""

from awfs_forge.arrows import ArrowObject, Square
from awfs_forge.core import PresheafMap
from awfs_forge.lifting import solve_lift
from awfs_forge.model import TauData, coalgebra_from_cellular
from awfs_forge.soa import GeneratedAwfs, lifting_function_to_algebra
from awfs_forge.transport import AdjunctionData, adjunct_lifting_S


def reference_xi(
    gen_t: GeneratedAwfs, gen: GeneratedAwfs, tau: TauData, f: ArrowObject
) -> PresheafMap:
    rec_t = gen_t.record(f)
    fac = gen.factor(f)
    coalg = coalgebra_from_cellular(gen, lambda jname: gen.lam(tau.on_objects[jname]), rec_t)
    alg = gen.free_algebra(f)
    sq = Square(coalg.f, alg.g, fac.left, rec_t.right())
    return solve_lift(coalg, alg, sq, gen.as_fact())


def reference_rho(
    adj: AdjunctionData, gen_m: GeneratedAwfs, gen_k: GeneratedAwfs, g: ArrowObject
) -> PresheafMap:
    rec = gen_k.record(g)
    psi_sharp = adjunct_lifting_S(adj, gen_m.diagram, gen_k.free_lifting_function(g))
    alg = lifting_function_to_algebra(gen_m, psi_sharp)
    sg = adj.s_arrow(g)
    srg = ArrowObject(adj.s_map(rec.right()))
    sq = Square(sg, srg, adj.s_map(rec.left()), PresheafMap.identity(sg.cod))
    return gen_m.e_on_square(sq).then(alg.t)
