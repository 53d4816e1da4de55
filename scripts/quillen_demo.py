#!/usr/bin/env python3
"""Run the full algebraic Quillen pipeline on the bundled projective fixture:
transport generators along Lan ⊣ restriction, build both model structures,
and print the coherence report."""

import argparse
from collections import Counter

from awfs_forge.arrows import ArrowObject
from awfs_forge.fixtures import fixture
from awfs_forge.model import TauData, build_model_structure
from awfs_forge.soa import run_soa
from awfs_forge.transport import (
    build_mates,
    transport_generators,
    verify_algebraic_quillen,
    verify_lax_colax,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--adjunction", default="lan", choices=("lan", "ident"))
    args = parser.parse_args()

    proj = fixture("FIX-PROJ")
    adj = proj.adjunction(args.adjunction)
    J, I = proj.generators["J"], proj.generators["I"]
    tau = proj.taus["tau"]
    gen_t_m, gen_m = run_soa(J), run_soa(I)
    amstr_m = build_model_structure(gen_t_m, gen_m, tau, proj.weq)
    tj, ti = transport_generators(adj, J), transport_generators(adj, I)
    gen_t_k, gen_k = run_soa(tj), run_soa(ti)
    tau_k = TauData(tj, ti, dict(tau.on_objects), dict(tau.on_morphisms))
    amstr_k = build_model_structure(gen_t_k, gen_k, tau_k, proj.weq)
    mates_t = build_mates(adj, gen_t_m, gen_t_k)
    mates = build_mates(adj, gen_m, gen_k)

    arrows_m = [ArrowObject(m) for m in proj.maps.values() if m.base == adj.m_base]
    arrows_k = [ArrowObject(m) for m in proj.maps.values() if m.base == adj.k_base]
    if args.adjunction == "ident":
        arrows_k = arrows_m
    report = verify_algebraic_quillen(
        amstr_m, amstr_k, adj, mates_t, mates, arrows_m, arrows_k
    )
    for md, gm, gk, label in (
        (mates_t, gen_t_m, gen_t_k, "trivial-cofibration pair"),
        (mates, gen_m, gen_k, "cofibration pair"),
    ):
        report.extend(verify_lax_colax(md, gm, gk, adj, arrows_k, arrows_m))

    counts = Counter(e.law for e in report.entries)
    width = max(len(law) for law in counts)
    for law in sorted(counts):
        fails = sum(1 for e in report.entries if e.law == law and e.status != "pass")
        status = "ok" if fails == 0 else f"{fails} FAILURES"
        print(f"{law:<{width}}  {counts[law]:>3} checks  {status}")
    print("\nall laws pass" if report.passed else "\nLAW FAILURES PRESENT")


if __name__ == "__main__":
    main()
