"""awfs-forge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  Workloads (see README.md):

  fixtures          every bundled fixture x CLI command, then verify-cert
  graph-soa         soa / lift / verify-cert on arrows into a path graph
  split-epi-survey  FIX-M's J factors every finite-set arrow up to size 5
  hom-search        core.all_maps on path, cycle and random presheaf pairs

A run repeats whole rounds of the workload's operations for about S seconds,
checking every output outside the timed part.  Library rounds each run in a
fresh worker that times its own set-up.  CLI rounds run each command in its
own process, which times the command itself (cli_child.py), and time set-up
probes between commands.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it runs untraced and traced rounds in turn and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fixtures", "graph-soa", "split-epi-survey", "hom-search")
CLI_WORKLOADS = ("fixtures", "graph-soa")
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5  # at least
PROBE_EVERY = 10  # CLI operations between set-up probes
OP_TIMEOUT_S = 150


class Run:
    def __init__(self, workload: str, seed: int, root: str, work: str):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.work = work
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.ops: list = []  # [name, seconds, "ok" | "failed"] of every round
        self.problems: list[str] = []
        self.walls: list[float] = []  # every round's wall time, traced or not
        self.setups: list[float] = []
        if workload in CLI_WORKLOADS:
            self.probe()  # writes the workload's input files
            if workload == "fixtures":
                self.cli_ops = inputs.fixture_ops(seed)
            else:
                self.cli_ops = inputs.graph_ops(os.path.join(work, "graph.json"))

    # -- child processes ---------------------------------------------------

    def _spawn(self, argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, *argv], cwd=self.root, env=self.env, capture_output=True,
            text=True, timeout=OP_TIMEOUT_S,
        )
        return proc, time.monotonic() - start

    def _worker(self, *extra: str) -> dict:
        argv = [os.path.join(HERE, "worker.py"), self.workload, "--seed", str(self.seed),
                "--dir", self.work, "--spawned", str(time.monotonic()), *extra]
        proc, _ = self._spawn(argv)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def probe(self) -> float:
        """Seconds from process start until the first operation can run."""
        return self._worker("--setup-only")["setup_s"]

    # -- rounds ------------------------------------------------------------

    def round(self, spans_dir: str | None,
              sample_setup: bool = False) -> tuple[float, dict, list[str]]:
        """One round: (wall seconds, outputs to compare across runs, span dumps).
        With `sample_setup`, the round samples set-up time: a library round's
        worker times its own, and CLI rounds run probes between operations,
        untimed."""
        if self.workload in CLI_WORKLOADS:
            wall, outputs, dumps = self._cli_round(spans_dir, sample_setup)
        else:
            dumps = [os.path.join(spans_dir, "worker.json")] if spans_dir else []
            out = self._worker(*(["--spans", dumps[0]] if dumps else []))
            if sample_setup:
                self.setups.append(out["setup_s"])
            self.ops += out["ops"]
            self.problems += out["problems"]
            wall, outputs = out["wall_s"], {"digest": out["digest"]}
        self.walls.append(wall)
        return wall, outputs, dumps

    def _cli_round(self, spans_dir: str | None, sample_setup: bool):
        rdir = tempfile.mkdtemp(prefix="round-", dir=self.work)
        results, dumps = [], []
        timing = os.path.join(self.work, "op.time")
        for i, op in enumerate(self.cli_ops):
            if sample_setup and i % PROBE_EVERY == 0:
                self.setups.append(self.probe())
            argv = [a.replace("{dir}", rdir) for a in op["argv"]]
            spans = "-"
            if spans_dir:
                spans = os.path.join(spans_dir, f"op{i}.json")
                dumps.append(spans)
            if os.path.exists(timing):
                os.remove(timing)
            proc, seconds = self._spawn([os.path.join(HERE, "cli_child.py"), timing,
                                         str(time.monotonic()), spans, *argv])
            if os.path.exists(timing):
                with open(timing, "r", encoding="utf-8") as handle:
                    seconds = float(handle.read())
            else:
                self.problems.append(f"{op['name']}: the command wrote no timing")
            results.append((proc, seconds))
        wall = sum(seconds for _, seconds in results)

        outputs = {}
        for op, (proc, seconds) in zip(self.cli_ops, results):
            cert = None
            if op["cert"] and os.path.exists(os.path.join(rdir, op["cert"])):
                with open(os.path.join(rdir, op["cert"]), "r", encoding="utf-8") as handle:
                    outputs[op["name"]] = handle.read()
                cert = json.loads(outputs[op["name"]])
            bad = self._check_cli(op, proc, cert)
            self.problems += [f"{op['name']}: {p}" for p in bad]
            self.ops.append([op["name"], seconds, "failed" if bad else "ok"])
        shutil.rmtree(rdir)
        return wall, outputs, dumps

    def _check_cli(self, op: dict, proc, cert) -> list[str]:
        if proc.returncode != op["rc"]:
            return [f"exit {proc.returncode}, expected {op['rc']}: {proc.stderr[-500:]}"]
        kind = op["check"][0]
        if kind == "validate":
            from awfs_forge.fixtures import fixture_raw

            return checks.check_input_hash(proc.stdout, fixture_raw(op["check"][1]))
        if kind == "growth":
            return checks.check_growth_trace(proc.stderr, op["check"][1])
        if kind == "verified":
            return [] if proc.stdout.strip() == "certificate ok" else [proc.stdout.strip()]
        if cert is None:
            return ["no certificate written"]
        if kind == "model-fix-g":
            from awfs_forge.fixtures import fixture_raw

            # j0: ∅ -> vertex has no square from jv, so it lifts against J, but
            # it cannot lift against itself: no map from a vertex to ∅.
            named = list(fixture_raw("FIX-G")["maps"])
            return checks.check_certificate(cert, laws_pass=False) + \
                checks.check_single_law_failure(cert, named, "weq.fib-cap", "j0")
        return checks.check_certificate(cert)

    # -- runs --------------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        start = time.monotonic()
        while _another_round(start, seconds, len(self.walls)):
            self.round(None, sample_setup=True)
        while len(self.setups) < SETUP_SAMPLES:
            self.setups.append(self.probe())
        # Another process on the machine only ever slows an operation down, so
        # each operation counts with its fastest time in the run, and a round
        # with the sum of those.
        best: dict[str, float] = {}
        for name, seconds_taken, _ in self.ops:
            best[name] = min(seconds_taken, best.get(name, seconds_taken))
        return {
            "setup_s": statistics.median(self.setups),
            "wall_s": sum(best.values()),
            "op_p50_ms": 1000 * statistics.median(best.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }

    def trace(self, seconds: float) -> dict:
        """Untraced and traced rounds in turn; every round's outputs must equal
        the first's, byte for byte."""
        walls: dict[bool, list[float]] = {False: [], True: []}
        layers, first = [], None
        start = time.monotonic()
        while not walls[True] or _another_round(start, seconds, len(self.walls)):
            traced = len(walls[False]) > len(walls[True])
            spans_dir = tempfile.mkdtemp(prefix="spans-", dir=self.work) if traced else None
            wall, outputs, dumps = self.round(spans_dir)
            walls[traced].append(wall)
            first = outputs if first is None else first
            if outputs != first:
                differ = sorted(k for k in first if outputs.get(k) != first[k])
                self.problems.append(f"outputs differ between rounds (traced: {traced}): {differ}")
            if traced:
                layers.append(tracing.layer_metrics(dumps))
                shutil.rmtree(spans_dir)
        out = {k: statistics.median(r[k] for r in layers) for k in tracing.PER_LAYER}
        out["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        return out


def _another_round(start: float, seconds: float, done: int) -> bool:
    """Start another whole round if it should end within the run's seconds,
    judging by the mean round so far, so a run lasts about `seconds`.  Every
    run has at least two rounds, so each operation has a second sample."""
    if done < 2:
        return True
    elapsed = time.monotonic() - start
    return elapsed + elapsed / done <= seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "awfs_forge", "__init__.py")):
        sys.stderr.write("run from the root of an awfs-forge checkout: no src/awfs_forge here\n")
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    os.makedirs(os.path.join(root, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, ".perfbench_work"))
    try:
        run = Run(args.workload, args.seed, root, work)
        if args.trace:
            values = run.trace(args.seconds)
            units = tracing.PER_LAYER
        else:
            values = run.measure(args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for op in run.ops if op[2] == "failed")
    for problem in run.problems[:20]:
        sys.stderr.write(f"problem: {problem}\n")
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} round walls = {[round(w, 3) for w in run.walls]} s")
    print(f"{args.workload} ops attempted = {len(run.ops)}, failed = {failed}")
    result = {
        "correct": not run.problems,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
