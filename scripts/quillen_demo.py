#!/usr/bin/env python3
"""Run the full algebraic Quillen check on the bundled projective fixture:
transport generators along Lan ⊣ restriction, build both model structures,
and summarise the coherence report of `quillen-check` law by law."""

import argparse
from collections import Counter

from awfs_forge.certificates import quillen_certificate
from awfs_forge.fixtures import fixture


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--adjunction", default="lan", choices=("lan", "ident"))
    args = parser.parse_args()

    proj = fixture("FIX-PROJ")
    entries = quillen_certificate(proj, args.adjunction, "J", "I", "tau", "monic", 64)["law_report"]
    counts = Counter(e["law"] for e in entries)
    fails = Counter(e["law"] for e in entries if e["status"] != "pass")
    width = max(len(law) for law in counts)
    for law in sorted(counts):
        status = "ok" if fails[law] == 0 else f"{fails[law]} FAILURES"
        print(f"{law:<{width}}  {counts[law]:>3} checks  {status}")
    print("\nLAW FAILURES PRESENT" if fails else "\nall laws pass")


if __name__ == "__main__":
    main()
