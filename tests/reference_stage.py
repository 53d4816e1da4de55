"""Test-only references for the small object argument's stage loop.

`reference_stage` is the stage builder that `soa.GeneratedAwfs._build_stage`
used before stages were appended: one coproduct of the current stage object
and one cod j per attached cell, quotiented by the top-edge and
connecting-square relations (`core.quotient_presheaf`, smallest-member
labels), with r glued over the quotient.  `converged` is the stopping
condition read off a finished record.
"""

from awfs_forge.arrows import ArrowObject, Square
from awfs_forge.core import PresheafMap, coproduct, glue, quotient_presheaf
from awfs_forge.lifting import enumerate_squares
from awfs_forge.soa import ArrowRecord, GeneratedAwfs, _minimal_fill
from reference_fill import factor_through


def reference_stage(gen: GeneratedAwfs, stages, rmaps, cell_index, attached):
    """(new stage, iota, cell injections, r_new) for the cells `attached`
    onto stages[-1], as one colimit."""
    prev = stages[-1]
    r_prev = rmaps[-1]
    pieces = [prev] + [gen.diagram.arrow_of[j].cod for j, _ in attached]
    cop = coproduct(pieces, prev.base)
    inj0 = cop.legs[0]
    rels: list[tuple[PresheafMap, PresheafMap]] = []
    for idx, (jname, sq) in enumerate(attached):
        j = gen.diagram.arrow_of[jname]
        rels.append((j.f.then(cop.legs[idx + 1]), sq.u.then(inj0)))
    index = {(jname, sq.u, sq.v): i for i, (jname, sq) in enumerate(attached)}
    for m in gen.diagram.shape.nonidentity_morphisms():
        jp, jn = gen.diagram.shape.src(m), gen.diagram.shape.dst(m)
        conn = gen.diagram.square_of[m]
        for idx, (jname, sq) in enumerate(attached):
            if jname != jn:
                continue
            leg = cop.legs[idx + 1]
            cu, cv = conn.u.then(sq.u), conn.v.then(sq.v)
            ckey = (jp, cu, cv)
            if ckey in index:
                rels.append((cop.legs[index[ckey] + 1], conn.v.then(leg)))
            else:
                fill = _minimal_fill(
                    stages,
                    cell_index,
                    jp,
                    Square(gen.diagram.arrow_of[jp], ArrowObject(r_prev), cu, cv),
                )
                rels.append((fill.then(inj0), conn.v.then(leg)))
    new_stage, q = quotient_presheaf(cop.apex, rels)
    iota = inj0.then(q)
    injections = [cop.legs[i + 1].then(q) for i in range(len(attached))]
    legs, values = [iota] + injections, [r_prev] + [sq.v for _, sq in attached]
    r_new = glue(new_stage, r_prev.dst, zip(legs, values), "soa.stage", "inconsistent r")
    return new_stage, iota, injections, r_new


def converged(gen: GeneratedAwfs, rec: ArrowRecord) -> bool:
    """Whether every square from a generator into the record's right factor
    has its top edge in the stage before the last, so that it has its cell
    and the next stage would attach nothing."""
    rf = ArrowObject(rec.right())
    squares = [sq for j in gen.diagram.arrow_of.values() for sq in enumerate_squares(j, rf)]
    if len(rec.stages) < 2:
        return not squares
    return all(factor_through(sq.u, rec.inclusions[-1]) is not None for sq in squares)
