"""Test-only reference for the small object argument's fill rule: the
walk-down that the engine and the verifier used before a square's cell was
found by one index lookup.

The top edge u of a square into the right factor is factored down the stage
inclusions with `factor_through` for as long as it factors; the cell
attached one stage above the lowest stage reached is the square's cell, and
its injection is composed back up the inclusions with `then`.
"""

from awfs_forge.arrows import Square
from awfs_forge.core import PresheafMap, ValidationError
from awfs_forge.soa import ArrowRecord


def factor_through(u: PresheafMap, incl: PresheafMap) -> PresheafMap | None:
    """The unique u' with incl ∘ u' = u, when it exists (incl injective),
    found through each table's inverse."""
    inverses = [{v: x for x, v in enumerate(t)} for t in incl.tables]
    try:
        tables = tuple(tuple(inv[v] for v in t) for inv, t in zip(inverses, u.tables))
    except KeyError:
        return None
    return PresheafMap(u.src, incl.src, tables)


def reference_fill(rec: ArrowRecord, jname: str, sq: Square) -> PresheafMap:
    cells = {(c.stage, c.jname, c.square.u, c.square.v): c for c in rec.cells}
    gamma, u_min = len(rec.stages) - 1, sq.u
    while gamma >= 1:
        down = factor_through(u_min, rec.inclusions[gamma - 1])
        if down is None:
            break
        gamma, u_min = gamma - 1, down
    cell = cells.get((gamma + 1, jname, u_min, sq.v))
    if cell is None:
        raise ValidationError("reference_fill", f"no cell at minimal stage {gamma + 1}")
    out = cell.injection
    for b in range(gamma + 1, len(rec.stages) - 1):
        out = out.then(rec.inclusions[b])
    return out
