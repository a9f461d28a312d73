"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines.
"""

import random
import time

from opticat.base import Just, Left, Nothing, Right
from opticat.encode import concrete_to_iso, functorize, prof_encoding, unfunctorize
from opticat.families import FamilyTag, Setter, first, just
from opticat.functors import FUNCTOR_FAMILY
from opticat.iso import observational_eq
from opticat.laws import (
    FAIL,
    check_enhancing_laws,
    check_lawful,
    check_morphism,
    check_optic_family_laws,
    concrete_family_fixture,
    function_arrow_fixture,
    gen_iso_optic,
    gen_lawful_achlens,
    gen_lawful_adapter,
    gen_lawful_lens,
    gen_lawful_optional,
    gen_lawful_prism,
    gen_unlawful_lens,
    getting_fixture,
    iso_capability_fixture,
    iso_family_fixture,
    labels,
    matching_fixture,
    naturals_within,
    shape_pools,
    standard_morphism_specs,
    standard_naturals,
    standard_shapes,
)
from opticat.prof import (
    FUNCTION_ARROW,
    get_operator,
    iso_to_prof,
    match_operator,
    prof_first,
    prof_just,
    prof_to_iso,
)
from opticat.probes import maps_agree


def _report(number, name, start):
    print(f"ACCEPTANCE {number} {name}: PASS ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_worked_examples():
    start = time.perf_counter()

    # concrete records
    f = first()
    assert f.get((4, "hello")) == 4
    assert f.put(12, (4, "hello")) == (12, "hello")
    first_of_4 = f.compose(f).compose(f)
    assert first_of_4.put(42, (((1, 2), "hi"), 4)) == (((42, 2), "hi"), 4)
    j = just()
    jj = j.compose(j)
    assert j.match(Just(42)) == Right(42)
    assert j.match(Nothing()) == Left(Nothing())
    assert jj.match(Just(Nothing())) == Left(Just(Nothing()))
    assert jj.match(Just(Just(42))) == Right(42)
    assert jj.build(42) == Just(Just(42))

    # profunctor-encoded forms
    pf = prof_first()
    assert get_operator(pf)((4, "hello")) == 4
    assert pf.run(FUNCTION_ARROW, lambda _: 12)((4, "hello")) == (12, "hello")
    pf3 = pf.compose(pf).compose(pf)
    assert pf3.run(FUNCTION_ARROW, lambda _: 42)((((1, 2), "hi"), 4)) == (
        ((42, 2), "hi"),
        4,
    )
    pj = prof_just()
    pjj = pj.compose(pj)
    assert match_operator(pj)(Just(42)) == Right(42)
    assert match_operator(pj)(Nothing()) == Left(Nothing())
    assert match_operator(pjj)(Just(Nothing())) == Left(Just(Nothing()))
    assert match_operator(pjj)(Just(Just(42))) == Right(42)
    assert prof_encoding(FamilyTag.PRISM).decode(pjj).build(42) == Just(Just(42))

    # the encoded canonical lens decodes to the same worked values
    enc = prof_encoding(FamilyTag.LENS)
    decoded = enc.decode(enc.encode(f))
    assert decoded.get((4, "hello")) == 4
    assert decoded.put(12, (4, "hello")) == (12, "hello")

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _report(1, "worked-example reproduction", start)


def test_criterion_2_optic_family_law_suite():
    start = time.perf_counter()
    failures = []
    for tag in FamilyTag:
        for rep in check_optic_family_laws(concrete_family_fixture(tag)):
            if not rep.passed:
                failures.append((f"concrete.{tag.value}", rep.law, rep.failures[:1]))
    pools = shape_pools()
    for tag, family in FUNCTOR_FAMILY.items():
        fix = iso_family_fixture(family, pools[tag])
        for rep in check_optic_family_laws(fix):
            if not rep.passed:
                failures.append((f"iso.{family.name}", rep.law, rep.failures[:1]))
    assert failures == []
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s"
    _report(2, "optic family law suite (6 concrete + iso over registry)", start)


def test_criterion_3_enhancing_law_suite():
    start = time.perf_counter()
    shapes = standard_shapes()
    naturals = standard_naturals(shapes)
    assert len(naturals) >= 5
    dom = labels("a", 2)
    pools = shape_pools(shapes)
    arrow_shapes = [shapes[k] for k in ("id", "pair", "sum", "maybe_pair", "maybe", "compose_pm")]
    compose_all = [
        (shapes["pair"], shapes["pair2"]),
        (shapes["sum"], shapes["maybe"]),
        (shapes["pair"], shapes["maybe"]),
    ]
    product_nats = [n for n in naturals if n.source.product and n.target.product]
    suites = [
        ("FunctionArrow", function_arrow_fixture(), arrow_shapes, naturals, compose_all),
        (
            "Getting",
            getting_fixture(dom),
            [shapes[k] for k in ("id", "pair", "maybe_pair", "compose_pp")],
            product_nats,
            [(shapes["pair"], shapes["pair2"])],
        ),
        ("Matching", matching_fixture(dom), arrow_shapes, naturals, compose_all),
    ]
    for tag, family in FUNCTOR_FAMILY.items():
        pool = pools[tag]
        pairs = [(f, g) for f in pool for g in pool if f.payloads and g.payloads][:3]
        suites.append(
            (
                f"IsoOptic[{family.name}]",
                iso_capability_fixture(family, pool, dom, dom),
                pool,
                naturals_within(family, naturals),
                pairs,
            )
        )
    failures = []
    wedge_naturals = 0
    for name, fixture, shape_list, nats, pairs in suites:
        if name in ("FunctionArrow", "Matching"):
            wedge_naturals = max(wedge_naturals, len(nats))
        for rep in check_enhancing_laws(
            fixture, shape_list, nats, dom, dom, compose_pairs=pairs
        ):
            if not rep.passed:
                failures.append((name, rep.law, rep.failures[:1]))
    assert wedge_naturals >= 5
    assert failures == []
    _report(3, "enhancing law suite (4 capabilities, wedge over >=5 naturals)", start)


def test_criterion_4_representation_theorem():
    start = time.perf_counter()
    pools = shape_pools()
    dom_a = ("a0", "a1")
    dom_s = ("s0", "s1", "s2")
    rng = random.Random("representation")
    checked = 0
    for tag, family in FUNCTOR_FAMILY.items():
        pool = pools[tag]
        for k in range(100):
            shape = rng.choice(pool)
            optic = gen_iso_optic(1000 + k, shape, family, dom_a, dom_a, dom_s, dom_s)
            encoded = iso_to_prof(optic)
            back = prof_to_iso(encoded)
            assert observational_eq(optic, back, dom_a, dom_a, dom_s), (family.name, k)
            again = iso_to_prof(back)
            assert maps_agree(encoded, again, dom_a, dom_a, dom_s), (family.name, k)
            checked += 1
    assert checked >= 500
    # every prebuilt profunctor optic round-trips too
    from opticat.prof import prof_right, prof_second

    prebuilt = {
        "first": (prof_first(), [(a, "c") for a in dom_a]),
        "second": (prof_second(), [("c", a) for a in dom_a]),
        "just": (prof_just(), [Nothing()] + [Just(a) for a in dom_a]),
        "right": (prof_right(), [Left("c")] + [Right(a) for a in dom_a]),
    }
    for name, (optic, wholes) in prebuilt.items():
        again = iso_to_prof(prof_to_iso(optic))
        assert maps_agree(optic, again, dom_a, dom_a, wholes), name
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.2f}s"
    _report(4, f"representation theorem ({checked} iso optics, both round trips)", start)


def test_criterion_5_derivation_theorem():
    start = time.perf_counter()
    dom_r = labels("r", 2)
    dom_a = labels("a", 2)
    dom_s = tuple(f"s{i}" for i in range(4))
    adapter_s = ("s0", "s1")
    pools = shape_pools()

    def lens_case(seed):
        return gen_lawful_lens(seed, dom_r, dom_a, dom_s), dom_s

    def prism_case(seed):
        return gen_lawful_prism(seed, dom_r, dom_a, dom_s), dom_s

    def achlens_case(seed):
        return gen_lawful_achlens(seed, dom_r, dom_a, dom_s), dom_s

    def adapter_case(seed):
        return gen_lawful_adapter(seed, dom_a, adapter_s), adapter_s

    def setter_case(seed):
        lens = gen_lawful_lens(seed, dom_r, dom_a, dom_s)
        return Setter(over=lens.map_optic), dom_s

    def optional_case(seed):
        return gen_lawful_optional(seed, labels("m", 2), labels("k", 1), dom_a, dom_s), dom_s

    cases = {
        FamilyTag.LENS: lens_case,
        FamilyTag.PRISM: prism_case,
        FamilyTag.ACHLENS: achlens_case,
        FamilyTag.ADAPTER: adapter_case,
        FamilyTag.SETTER: setter_case,
        FamilyTag.OPTIONAL: optional_case,
    }
    assert set(cases) == set(FamilyTag)
    per_family = 200
    for tag, make in cases.items():
        family = functorize(tag).functor_family
        enc = prof_encoding(tag)
        for seed in range(per_family):
            optic, wholes = make(seed)
            iso = concrete_to_iso(optic)
            back = unfunctorize(iso, tag)
            assert maps_agree(back, optic, dom_a, dom_a, wholes), (
                tag,
                seed,
            )
            # converse on the image of the residual form
            iso_back = concrete_to_iso(back)
            assert observational_eq(
                iso, iso_back, dom_a, dom_a, wholes
            ), (tag, seed)
        # converse on generated residual forms off the image
        pool = pools[tag]
        rng = random.Random(f"derivation:{tag}")
        for k in range(40):
            shape = rng.choice(pool)
            optic = gen_iso_optic(2000 + k, shape, family, dom_a, dom_a, dom_s, dom_s)
            back = concrete_to_iso(unfunctorize(optic, tag))
            assert observational_eq(
                optic, back, dom_a, dom_a, dom_s
            ), (tag, k)

    # profunctor-encoding round trips for the two spotlighted equivalences
    for tag, make in ((FamilyTag.LENS, lens_case), (FamilyTag.ACHLENS, achlens_case)):
        enc = prof_encoding(tag)
        for seed in range(per_family):
            optic, wholes = make(seed)
            back = enc.decode(enc.encode(optic))
            assert maps_agree(back, optic, dom_a, dom_a, wholes), (
                tag,
                seed,
            )
            assert all(back.get(s) == optic.get(s) for s in wholes)
    _report(5, "derivation theorem (200 lawful optics per family, both directions)", start)


def test_criterion_6_morphism_preservation():
    start = time.perf_counter()
    specs = standard_morphism_specs(n_pairs=20)
    by_kind = {}
    for spec in specs:
        kind = spec.name.split(".")[0]
        by_kind.setdefault(kind, []).append(spec)
    assert set(by_kind) == {
        "concrete_to_iso",
        "unfunctorize",
        "iso_to_prof",
        "prof_to_iso",
        "encode",
        "decode",
        "embed",
    }
    failures = []
    for kind, kind_specs in by_kind.items():
        pair_count = sum(len(spec.pairs) for spec in kind_specs)
        assert pair_count >= 100, (kind, pair_count)
        for spec in kind_specs:
            for rep in check_morphism(spec):
                if not rep.passed:
                    failures.append((spec.name, rep.law, rep.failures[:1]))
    assert failures == []
    _report(6, "morphism preservation (100 pairs per conversion)", start)


def test_criterion_7_negative_controls():
    start = time.perf_counter()
    dom_a = labels("a", 2)
    dom_s = ("s0", "s1", "s2")
    lens = gen_unlawful_lens(dom_a, dom_s)
    reports = {rep.law: rep for rep in check_lawful(lens, dom_a, dom_s)}
    assert reports["lawful.reentry"].status == FAIL
    assert reports["lawful.reentry"].failures[0]["inputs"]

    from opticat.laws import CapabilityFixture
    from opticat.prof import ProfunctorCapability

    def broken_enhance(shape, h):
        if shape.parts is not None:
            return lambda p: p
        return lambda p: shape.map(h, p)

    broken = CapabilityFixture(
        cap=ProfunctorCapability(
            name="BrokenArrow",
            dimap=lambda f, g, h: (lambda x: g(h(f(x)))),
            enhance=broken_enhance,
        ),
        values=function_arrow_fixture().values,
        eq=function_arrow_fixture().eq,
    )
    shapes = standard_shapes()
    reports = {
        rep.law: rep
        for rep in check_enhancing_laws(
            broken,
            [shapes["pair"]],
            [],
            dom_a,
            dom_a,
            compose_pairs=[(shapes["pair"], shapes["pair2"])],
        )
    }
    assert reports["enhancing.compose_shape"].status == FAIL
    _report(7, "negative controls (unlawful lens, broken enhancing record)", start)


def test_criterion_8_cli_golden_and_parser():
    start = time.perf_counter()
    from opticat.cli import parse_path, print_path, run
    from test_cli import GOLDEN, _random_path

    assert len(GOLDEN) >= 20
    assert any(case[1] == "snd.some" for case in GOLDEN)
    for command, path, value, doc, exit_code, stdout in GOLDEN:
        code, out = run(command, path, value, doc)
        assert code == exit_code, (command, path, out)
        if stdout is not None:
            assert out == stdout, (command, path)
    rng = random.Random(2024)
    for _ in range(1000):
        path = _random_path(rng)
        assert parse_path(print_path(path)) == path
    _report(8, f"CLI golden table ({len(GOLDEN)} cases) and parser round trip", start)
