"""Spans around awfs-forge's layers, installed from outside the package.

`Tracer.install()` wraps the public functions and methods listed in `_targets`
and rebinds every name under which a module of the package looks them up
(``from .core import all_maps`` copies the function into the importing
module).  Spans are kept in memory as (name, start, end, parent, count, tag)
and written out once by `Tracer.dump`; `layer_metrics` turns the dumps of one
round into the per-layer metrics.  Only the traced benchmark run installs
this, so the untraced run times the package untouched.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time

MODULES = (
    "cli", "instance", "core", "lifting", "soa",
    "arrows", "model", "transport", "certificates", "verifier",
)

COLIMITS = ("coproduct", "pushout", "coequalizer", "quotient_presheaf")
STRUCTURE = ("delta", "mu", "e_on_square", "free_lifting_function", "lam")
REPLAY = ("mu_replay", "delta_replay", "e_walk", "fill_rule")
CERTIFICATES = (
    "soa_certificate", "lift_certificate", "model_certificate",
    "transport_certificate", "quillen_certificate",
)

# Per-layer metrics: name -> unit.  `layer_metrics` fills every one.
PER_LAYER = {
    "cli.startup_s": "s",
    "instance.load_s": "s",
    "core.all_maps.calls": "count",
    "core.all_maps.results": "count",
    "core.all_maps.self_s": "s",
    "core.colimits.calls": "count",
    "core.colimits.self_s": "s",
    "core.maps_built": "count",
    "lifting.enumerate_squares.calls": "count",
    "lifting.enumerate_squares.self_s": "s",
    "lifting.enumerate_squares.accept_ratio": "ratio",
    "lifting.oracle_lift.calls": "count",
    "lifting.oracle_lift.self_s": "s",
    "lifting.oracle_lift.accept_ratio": "ratio",
    "soa.record.calls": "count",
    "soa.record.self_s": "s",
    "soa.structure.self_s": "s",
    "arrows.laws.self_s": "s",
    "arrows.laws.checked": "count",
    "model.self_s": "s",
    "transport.self_s": "s",
    "certificates.assembly.self_s": "s",
    "verifier.self_s": "s",
    "verifier.check_record.self_s": "s",
    "verifier.replay.self_s": "s",
    "trace.overhead_s": "s",
}


def _public_callables(module, owner_names=()):
    """Public functions defined in `module`, plus public methods of the
    classes named in `owner_names`."""
    out = []
    for name, value in vars(module).items():
        if name.startswith("_") or not callable(value) or isinstance(value, type):
            continue
        if getattr(value, "__module__", None) == module.__name__:
            out.append((module, name))
    for cls_name in owner_names:
        cls = getattr(module, cls_name)
        for name, value in vars(cls).items():
            if not name.startswith("_") and callable(value) and not isinstance(value, staticmethod):
                out.append((cls, name))
    return out


def _targets(pkg):
    """(owner, attribute, span name) for every wrapped callable."""
    m = {name: getattr(pkg, name) for name in MODULES}
    named = [
        (m["cli"], "main"),
        (m["instance"], "load"),
        (m["instance"], "from_json"),
        (m["core"], "all_maps"),
        *((m["core"], n) for n in COLIMITS),
        (m["lifting"], "enumerate_squares"),
        (m["lifting"], "oracle_lift"),
        (m["soa"].GeneratedAwfs, "record"),
        *((m["soa"].GeneratedAwfs, n) for n in STRUCTURE),
        (m["arrows"], "verify_awfs"),
        (m["arrows"], "verify_awfs_morphism"),
        *((m["certificates"], n) for n in CERTIFICATES),
        (m["verifier"], "verify_certificate"),
        (m["verifier"].CertifiedEngine, "check_record"),
        *((m["verifier"].CertifiedEngine, n) for n in REPLAY),
    ]
    named += _public_callables(m["model"], ("ReplacementMonad",))
    named += _public_callables(m["transport"], ("AdjunctionData",))
    out = []
    for owner, attr in named:
        layer = owner.__module__ if isinstance(owner, type) else owner.__name__
        out.append((owner, attr, f"{layer.rsplit('.', 1)[-1]}.{attr}"))
    return out


def _count(name: str):
    """What a span of `name` records about its result."""
    if name in ("core.all_maps", "lifting.enumerate_squares", "lifting.oracle_lift"):
        return len
    if name in ("arrows.verify_awfs", "arrows.verify_awfs_morphism"):
        return lambda report: len(report.entries)
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.maps_built = 0

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        count = _count(name)
        tagged = name == "core.all_maps"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                n = count(result) if count is not None and result is not None else 0
                # all_maps spans carry their argument pair, so enumerate_squares
                # can multiply the sizes of its u and v candidate lists.
                tag = f"{id(args[0])}:{id(args[1])}" if tagged else ""
                spans[idx] = (name, start, end, parent, n, tag)

        return traced

    def install(self) -> None:
        import awfs_forge.cli  # noqa: F401  (imports every module of the package)

        pkg = sys.modules["awfs_forge"]
        modules = [mod for key, mod in sys.modules.items() if key.startswith("awfs_forge")]
        for owner, attr, name in _targets(pkg):
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            setattr(owner, attr, wrapper)
            if not isinstance(owner, type):
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

        map_cls = pkg.core.PresheafMap
        post_init = map_cls.__post_init__

        def counted(obj):
            self.maps_built += 1
            post_init(obj)

        map_cls.__post_init__ = counted

    def dump(self, path: str, started: float, imported: float) -> None:
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent, n, tag in self.spans:
            rows.append([names.setdefault(name, len(names)), start, end, parent, n, tag])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "startup_s": imported - started,
                    "maps_built": self.maps_built,
                    "names": list(names),
                    "spans": rows,
                },
                handle,
            )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dump_paths: list[str]) -> dict[str, float]:
    """Per-layer metrics of one round, from the span dumps of its processes
    (all but trace.overhead_s, which compares whole rounds)."""
    total: dict[str, float] = {k: 0.0 for k in PER_LAYER}
    startups = []
    sq_returned = sq_candidates = fills = fill_candidates = 0
    for path in dump_paths:
        with open(path, "r", encoding="utf-8") as handle:
            dump = json.load(handle)
        startups.append(dump["startup_s"])
        total["core.maps_built"] += dump["maps_built"]
        names = dump["names"]
        spans = [(names[r[0]], *r[1:]) for r in dump["spans"]]
        child_time = [0.0] * len(spans)
        children: list[list[int]] = [[] for _ in spans]
        for i, (_, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                children[parent].append(i)
        for i, (name, start, end, parent, n, _) in enumerate(spans):
            for key in _layer(name):
                total[key] += 1 if key.endswith(".calls") else end - start - child_time[i]
            if name == "core.all_maps":
                total["core.all_maps.results"] += n
            if name.startswith("instance.") and not _has_ancestor(spans, i, "instance."):
                total["instance.load_s"] += end - start
            if name.startswith("arrows.") and not _has_ancestor(spans, i, "arrows."):
                total["arrows.laws.checked"] += n
            under = [spans[c] for c in children[i] if spans[c][0] == "core.all_maps"]
            if name == "lifting.enumerate_squares" and under:
                # A cache hit enumerates nothing; a miss lists u: dom j -> dom g
                # and v: cod j -> cod g, and tries every pair.
                sizes = {tag: size for _, _, _, _, size, tag in under}
                sq_returned += n
                sq_candidates += math.prod(sizes.values()) if len(sizes) > 1 else 0
            if name == "lifting.oracle_lift":
                fills += n
                fill_candidates += sum(c[4] for c in under)
    total["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    total["lifting.enumerate_squares.accept_ratio"] = _ratio(sq_returned, sq_candidates)
    total["lifting.oracle_lift.accept_ratio"] = _ratio(fills, fill_candidates)
    return total


def _has_ancestor(spans, i: int, prefix: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


@functools.lru_cache(maxsize=None)
def _layer(name: str) -> tuple[str, ...]:
    """The per-layer metric keys a span of `name` adds its self time or call to."""
    module, attr = name.split(".", 1)
    if name == "core.all_maps":
        return ("core.all_maps.calls", "core.all_maps.self_s")
    if module == "core" and attr in COLIMITS:
        return ("core.colimits.calls", "core.colimits.self_s")
    if name in ("lifting.enumerate_squares", "lifting.oracle_lift"):
        return (f"{name}.calls", f"{name}.self_s")
    if name == "soa.record":
        return ("soa.record.calls", "soa.record.self_s")
    if module == "soa" and attr in STRUCTURE:
        return ("soa.structure.self_s",)
    if module == "arrows":
        return ("arrows.laws.self_s",)
    if module in ("model", "transport"):
        return (f"{module}.self_s",)
    if module == "certificates":
        return ("certificates.assembly.self_s",)
    if name == "verifier.verify_certificate":
        return ("verifier.self_s",)
    if name == "verifier.check_record":
        return ("verifier.check_record.self_s",)
    if module == "verifier":
        return ("verifier.replay.self_s",)
    return ()
