"""Child process of the benchmark: one round of a library workload, or one
set-up probe of any workload.

    python3 perfbench/worker.py WORKLOAD --seed N --spawned T --dir DIR
        [--setup-only] [--spans FILE]

`--spawned` is the parent's `time.monotonic()` just before it started this
process; the worker reports when its first operation could run on the same
clock.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time

import checks
import inputs


class BudgetExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def _timed(fn, budget=None):
    """(seconds, result or None when the budget ran out)."""
    if budget is not None:
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, budget)
    start = time.perf_counter()
    try:
        result = fn()
    except BudgetExceeded:
        result = None
    finally:
        if budget is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, result


# ---------------------------------------------------------------------------
# Inputs.  Each setup function returns what the round's operations need.


def setup_fixtures(seed, work):
    from awfs_forge.fixtures import fixture

    return [fixture(name) for name in inputs.FIXTURES]


def setup_graph(seed, work):
    from awfs_forge.fixtures import fixture
    from awfs_forge.instance import load

    path = os.path.join(work, "graph.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(inputs.graph_instance(seed), handle)
    return [load(path), fixture("FIX-G")]


def setup_survey(seed, work):
    from awfs_forge.arrows import ArrowObject
    from awfs_forge.fixtures import finmap, fixture
    from awfs_forge.soa import run_soa

    gen = run_soa(fixture("FIX-M").generators["J"])
    sample = inputs.survey_sample(seed, inputs.SURVEY_BOUND)
    arrows = [
        (m, n, table, ArrowObject(finmap(m, n, table)), (m, n, table) in sample)
        for m, n, table in inputs.survey_arrows(inputs.SURVEY_BOUND)
    ]
    return gen, arrows


def _presheaf(spec):
    from awfs_forge.core import FiniteCategory, Presheaf

    base = {"point": FiniteCategory.point, "graph": FiniteCategory.graph_base,
            "arrow": FiniteCategory.walking_arrow}[spec["base"]]()
    return Presheaf.from_json(base, spec)


def setup_homs(seed, work):
    return [
        (name, src, dst, expected, budget, _presheaf(src), _presheaf(dst))
        for name, src, dst, expected, budget in inputs.hom_cases(seed)
    ]


# ---------------------------------------------------------------------------
# Rounds.  Each returns (ops, wall seconds, problems, digest of outputs);
# an op is [name, seconds, "ok" | "failed"].


def round_survey(state):
    from awfs_forge.arrows import ArrowObject, verify_awfs

    gen, arrows = state
    awfs = gen.as_awfs()

    def one(arrow, verify):
        rec = gen.record(arrow)
        return rec, (verify_awfs(awfs, [ArrowObject(arrow.f)]) if verify else None)

    outputs = []
    start = time.perf_counter()
    for m, n, table, arrow, verify in arrows:
        outputs.append(_timed(lambda: one(arrow, verify)))
    wall = time.perf_counter() - start

    ops, problems, digest = [], [], hashlib.sha256()
    if len(arrows) != checks.survey_size(inputs.SURVEY_BOUND):
        problems.append(f"{len(arrows)} arrows surveyed, expected {checks.survey_size(inputs.SURVEY_BOUND)}")
    for (m, n, table, _, verify), (seconds, (rec, report)) in zip(arrows, outputs):
        name = f"{m}->{n}:{''.join(map(str, table))}"
        found = [
            f"{name}: {p}"
            for p in checks.check_split_epi(
                list(table), n, rec.mid().at["*"].size, list(rec.left().components["*"].table),
                list(rec.right().components["*"].table), len(rec.stages),
            )
        ]
        if report is not None and not report.passed:
            found.append(f"{name}: law failures {report.failures()[:1]}")
        problems += found
        ops.append([name, seconds, "failed" if found else "ok"])
        digest.update(json.dumps([name, list(rec.right().components["*"].table), rec.trace,
                                  report.to_json() if report is not None else None]).encode())
    return ops, wall, problems, digest.hexdigest()


def round_homs(state):
    from awfs_forge.core import all_maps

    outputs = []
    start = time.perf_counter()
    for _, _, _, _, budget, src, dst in state:
        outputs.append(_timed(lambda: all_maps(src, dst), budget))
    wall = time.perf_counter() - start

    ops, problems, digest = [], [], hashlib.sha256()
    for (name, src, dst, expected, budget, _, _), (seconds, found) in zip(state, outputs):
        if found is None:
            ops.append([name, seconds, "failed"])
            digest.update(f"{name}:budget".encode())
            continue
        objs = checks.BASES[src["base"]]["objects"]
        tables = [{o: list(m.components[o].table) for o in objs} for m in found]
        want = expected if expected is not None else len(checks.enumerate_homs(src, dst))
        bad = checks.check_homs(src, dst, tables, want)
        problems += [f"{name}: {p}" for p in bad]
        ops.append([name, seconds, "failed" if bad else "ok"])
        digest.update(json.dumps([name, tables]).encode())
    return ops, wall, problems, digest.hexdigest()


WORKLOADS = {
    "fixtures": (setup_fixtures, None),
    "graph-soa": (setup_graph, None),
    "split-epi-survey": (setup_survey, round_survey),
    "hom-search": (setup_homs, round_homs),
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    tracer = None
    if args.spans:
        import awfs_forge.cli  # noqa: F401  (start-up ends once the package is imported)
        import tracing

        imported = time.monotonic()
        tracer = tracing.Tracer()
        tracer.install()
    setup, run_round = WORKLOADS[args.workload]
    state = setup(args.seed, args.dir)
    ready = time.monotonic()
    out = {"setup_s": ready - args.spawned}
    if not args.setup_only:
        ops, wall, problems, digest = run_round(state)
        out.update(ops=ops, wall_s=wall, problems=problems, digest=digest)
    if tracer is not None:
        tracer.dump(args.spans, args.spawned, imported)
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
