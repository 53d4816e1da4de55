import pytest

from awfs_forge.arrows import (
    ArrowObject,
    Awfs,
    Square,
    verify_awfs,
    verify_awfs_morphism,
    AwfsMorphism,
)
from awfs_forge.core import FinFunction, FinSet, PresheafMap, ValidationError
from awfs_forge.fixtures import finmap, finset
from awfs_forge.lifting import GeneratorDiagram
from awfs_forge.soa import run_soa

F21 = ArrowObject(finmap(2, 1, [0, 0]))
ID1 = ArrowObject(finmap(1, 1, [0]))
E01 = ArrowObject(finmap(0, 1, []))


def split_epi_gen():
    return run_soa(GeneratorDiagram.discrete({"j": E01}))


def mutate(m: PresheafMap, obj: str, idx: int, val: int) -> PresheafMap:
    tables = {o: list(fn.table) for o, fn in m.components.items()}
    tables[obj][idx] = val
    return PresheafMap.from_tables(m.src, m.dst, tables)


def test_e_on_square_preserves_vertical_composites():
    # E of a composite of two squares is the composite of their E's
    gen = split_epi_gen()
    swap = Square(F21, F21, finmap(2, 2, [1, 0]), finmap(1, 1, [0]))
    swap.validate()
    both = Square(F21, F21, swap.u.then(swap.u), swap.v.then(swap.v))
    both.validate()
    assert both.u.components["*"].table == (0, 1)
    assert both.v.components["*"].table == (0,)
    assert gen.e_on_square(both) == gen.e_on_square(swap).then(gen.e_on_square(swap))
    assert gen.e_on_square(swap) != gen.e_on_square(both)


def test_square_validation_rejects_noncommuting():
    bad = Square(E01, F21, finmap(0, 2, []), finmap(1, 1, [0]))
    bad.validate()  # commutes (empty domain)
    g = ArrowObject(finmap(2, 2, [0, 1]))
    nope = Square(ArrowObject(finmap(2, 2, [1, 0])), g, finmap(2, 2, [0, 1]), finmap(2, 2, [0, 1]))
    with pytest.raises(ValidationError):
        nope.validate()


def test_empty_generator_factorization_is_trivial():
    gen = run_soa(GeneratorDiagram.discrete({}))
    fac = gen.factor(F21)
    assert fac.left == PresheafMap.identity(F21.dom)
    assert fac.mid == F21.dom
    assert fac.right == F21.f


def test_split_epi_factorization_tables():
    gen = split_epi_gen()
    fac = gen.factor(F21)
    assert fac.left.components["*"].table == (0, 1)
    assert fac.mid == finset(3)
    assert fac.right.components["*"].table == (0, 0, 0)


def test_e_of_identity_square_is_identity():
    gen = split_epi_gen()
    identity = Square(F21, F21, PresheafMap.identity(F21.dom), PresheafMap.identity(F21.cod))
    e = gen.e_on_square(identity)
    assert e == PresheafMap.identity(gen.factor(F21).mid)


def test_verify_awfs_passes_on_empty_and_split_epi():
    empty = run_soa(GeneratorDiagram.discrete({}))
    assert verify_awfs(empty.as_awfs(), [F21, ID1]).passed
    gen = split_epi_gen()
    report = verify_awfs(gen.as_awfs(), [F21, ID1, E01])
    assert report.passed
    laws = {e.law for e in report.entries}
    assert "distributive" in laws and "comonad.coassoc" in laws


def test_verify_awfs_square_probe():
    gen = split_epi_gen()
    sq = Square(F21, ID1, finmap(2, 1, [0, 0]), finmap(1, 1, [0]))
    sq.validate()
    report = verify_awfs(gen.as_awfs(), [sq])
    assert report.passed
    laws = {e.law for e in report.entries}
    assert "delta.natural" in laws and "mu.natural" in laws


def test_corrupted_mu_fails_with_witness():
    gen = split_epi_gen()
    good = gen.as_awfs()
    bad_mu = mutate(gen.mu(F21), "*", 3, 0)

    def mu(f):
        return bad_mu if f == F21 else gen.mu(f)

    bad = Awfs(gen.as_fact(), gen.delta, mu)
    report = verify_awfs(bad, [F21])
    assert not report.passed
    failing = report.failures()
    assert failing and all(e.witness is not None for e in failing)
    assert verify_awfs(good, [F21]).passed


def test_awfs_morphism_identity_passes(fixm_amstr):
    amstr = fixm_amstr
    gen = amstr.gen
    ident = AwfsMorphism(lambda f: PresheafMap.identity(gen.factor(f).mid))
    report = verify_awfs_morphism(ident, gen.as_awfs(), gen.as_awfs(), [F21, ID1])
    assert report.passed


def test_awfs_morphism_built_comparison_passes(fixm_amstr):
    report = verify_awfs_morphism(
        fixm_amstr.xi, fixm_amstr.gen_t.as_awfs(), fixm_amstr.gen.as_awfs(), [F21, ID1, E01]
    )
    assert report.passed


def test_awfs_morphism_corrupted_component_fails(fixm_amstr):
    amstr = fixm_amstr

    def corrupted(idx, val):
        bad_xi = mutate(amstr.xi.at(F21), "*", idx, val)
        wrapper = AwfsMorphism(lambda f: bad_xi if f == F21 else amstr.xi.at(f))
        return verify_awfs_morphism(
            wrapper, amstr.gen_t.as_awfs(), amstr.gen.as_awfs(), [F21]
        )

    # a non-commuting component breaks a triangle with a witness
    report = corrupted(0, 2)
    assert not report.passed
    assert any(e.law.startswith("triangle") for e in report.failures())
    assert all(e.witness is not None for e in report.failures())
    # a triangle-preserving corruption is still caught by the (co)monad laws
    report2 = corrupted(2, 0)
    assert not report2.passed


def test_law_report_serialization():
    gen = split_epi_gen()
    report = verify_awfs(gen.as_awfs(), [ID1])
    data = report.to_json()
    assert all(set(e) >= {"law", "probe", "status"} for e in data)
