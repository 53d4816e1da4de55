"""The cell rules that the engine and the verifier share (`soa.e_rule`,
`mu_rule`, `delta_rule`, `model.xi_rule`): μ and δ differential-tested
against the tabulated lifting-function routes they replaced
(`reference_structure.py`) on every record of the bundled fixtures under
both variants, δ against its cellular fill on every instance map and on
graph-soa, a guard that μ and δ tabulate nothing, a guard that every
name the benchmark's tracer wraps is defined on the class or module it is
looked up on, and a guard that the record-derived awfs surface is defined
once, on the base class of the engine and the verifier."""

import importlib.util
import sys
from pathlib import Path

import awfs_forge
from awfs_forge import instance, lifting
from awfs_forge.arrows import ArrowObject
from awfs_forge.core import eq_witness
from awfs_forge.fixtures import fixture
from awfs_forge.lifting import LiftingFunction
from awfs_forge.soa import GeneratedAwfs, MonicityViolation, NonConvergence, RecordAwfs, run_soa
from awfs_forge.verifier import CertifiedEngine
import reference_structure
from reference_structure import cellular_delta, reference_delta, reference_mu

FIXTURES = ("FIX-M", "FIX-G", "FIX-PW", "FIX-PROJ")
FAILURES = (NonConvergence, MonicityViolation)
ROOT = Path(__file__).resolve().parent.parent


def _engines():
    """(label, engine) for each generator set of each fixture and each
    variant, with the named arrows over its base factored."""
    for name in FIXTURES:
        inst = fixture(name)
        for gname, diagram in inst.generators.items():
            base = next(iter(diagram.arrow_of.values())).base
            arrows = [ArrowObject(m) for m in inst.maps.values() if m.base == base]
            for variant in ("monic", "standard"):
                gen = run_soa(diagram, variant=variant)
                for f in arrows:
                    try:
                        gen.record(f)
                    except FAILURES:
                        pass
                yield f"{name}.{gname}.{variant}", gen


def test_mu_and_delta_match_the_lifting_function_routes():
    checked = 0
    for label, gen in _engines():
        for f in list(gen.records):
            assert eq_witness(gen.mu(f), reference_mu(gen, f)) is None, label
            assert eq_witness(gen.delta(f), reference_delta(gen, f)) is None, label
            checked += 1
    assert checked == 76


def test_delta_is_its_cellular_fill(monkeypatch):
    # δ_f fills the square (L(L f), 1) from L f to R(L f) cell by cell, on
    # every instance map over each generator set's base, under both variants,
    # and on graph-soa n=3 and n=5 under I; the engine's refusals are skipped
    cases = []
    for name in FIXTURES:
        inst = fixture(name)
        for gname, diagram in inst.generators.items():
            for variant in ("monic", "standard"):
                cases.append((f"{name}.{gname}.{variant}", inst, run_soa(diagram, variant=variant)))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    inputs = importlib.import_module("inputs")
    for n in (3, 5):
        monkeypatch.setattr(inputs, "GRAPH_PATH", n)
        inst = instance.from_json(inputs.graph_instance(seed=1))
        cases.append((f"graph-soa.{n}", inst, run_soa(inst.generators["I"])))
    checked = 0
    for label, inst, gen in cases:
        base = next(iter(gen.diagram.arrow_of.values())).base
        for f in [ArrowObject(m) for m in inst.maps.values() if m.base == base]:
            try:
                delta = gen.delta(f)
            except FAILURES:
                continue
            assert eq_witness(delta, cellular_delta(gen, f)) is None, label
            checked += 1
    assert checked == 76 + 2 * 5


def test_mu_and_delta_tabulate_no_lifting_function(monkeypatch):
    calls = {"tabulate": 0, "compose_lifting": 0}

    def counting(name, body):
        def counted(*args, **kwargs):
            calls[name] += 1
            return body(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        LiftingFunction, "tabulate", staticmethod(counting("tabulate", LiftingFunction.tabulate))
    )
    composed = counting("compose_lifting", lifting.compose_lifting)
    modules = [m for n, m in sys.modules.items() if n.startswith("awfs_forge.")]
    for module in modules + [reference_structure]:
        if hasattr(module, "compose_lifting"):  # every name it is imported under
            monkeypatch.setattr(module, "compose_lifting", composed)
    inst = fixture("FIX-M")
    gen = run_soa(inst.generators["J"])
    for m in inst.maps.values():
        gen.mu(m)
        gen.delta(m)
    assert calls == {"tabulate": 0, "compose_lifting": 0}
    reference_delta(gen, ArrowObject(inst.maps["f21"]))  # the counters do count
    assert calls == {"tabulate": 3, "compose_lifting": 1}


def test_every_traced_name_is_defined_on_its_owner():
    # perfbench/tracing.py rebinds `vars(owner)[attr]`: a name that an owner
    # only inherits, or that is gone, breaks `perfbench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in tracing.MODULES:
        importlib.import_module(f"awfs_forge.{name}")
    targets = tracing._targets(awfs_forge)
    assert len(targets) > 30
    missing = [(owner.__name__, attr) for owner, attr, _ in targets if attr not in vars(owner)]
    assert missing == []


def test_the_record_derived_surface_is_defined_once():
    shared = ("factor", "free_algebra", "free_coalgebra", "as_fact", "as_awfs")
    assert [name for name in shared if name not in vars(RecordAwfs)] == []
    for owner in (GeneratedAwfs, CertifiedEngine):
        assert issubclass(owner, RecordAwfs)
        assert [name for name in shared if name in vars(owner)] == [], owner.__name__
