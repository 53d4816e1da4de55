"""Test-only reference routes for μ and δ: the constructions that
`soa.GeneratedAwfs.mu` and `delta` replaced by the cell rules `soa.mu_rule`
and `soa.delta_rule`.

μ_f is the algebra structure of f's tabulated free lifting function.  δ_f
composes the tabulated free lifting functions of R L f and R f
(`lifting.compose_lifting`), takes the composite's algebra structure and
precomposes it with E(L²f, 1).
"""

from awfs_forge.arrows import ArrowObject, Square
from awfs_forge.core import PresheafMap
from awfs_forge.lifting import compose_lifting
from awfs_forge.soa import GeneratedAwfs, lifting_function_to_algebra


def reference_mu(gen: GeneratedAwfs, f: ArrowObject) -> PresheafMap:
    return lifting_function_to_algebra(gen, gen.free_lifting_function(f)).t


def reference_delta(gen: GeneratedAwfs, f: ArrowObject) -> PresheafMap:
    """δ_f = (μ_f • μ_{Lf}) ∘ E(L²f, 1)."""
    rec = gen.record(f)
    larr = ArrowObject(rec.left())
    rec_l = gen.record(larr)
    rlf = ArrowObject(rec_l.right())
    rf = ArrowObject(rec.right())
    phi = gen.free_lifting_function(larr)  # for R(Lf)
    psi = gen.free_lifting_function(f)  # for Rf
    comp_arrow, comp_lf = compose_lifting((rlf, phi), (rf, psi))
    alg = lifting_function_to_algebra(gen, comp_lf)  # E(Rf·RLf) -> ELf
    sq = Square(f, comp_arrow, rec_l.left(), PresheafMap.identity(f.cod))
    return gen.e_on_square(sq).then(alg.t)
