"""Generators, law checkers, negative controls, coverage guard, reports."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from opticat.encode import Functorization, functorize
from opticat.base import Left, Right
from opticat.families import FamilyTag, Lens
from opticat.functors import ID_SHAPE, IS_PRODUCT, ContainerShape, Id, pair_shape
from opticat.prof import FUNCTION_ARROW, ProfunctorCapability
from opticat.laws import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    CapabilityFixture,
    REQUIRED_LAWS,
    check_enhancing_laws,
    check_functor_laws,
    check_lawful,
    function_arrow_fixture,
    gen_lawful_achlens,
    gen_lawful_adapter,
    gen_lawful_lens,
    gen_lawful_optional,
    gen_lawful_prism,
    gen_random_optic,
    gen_unlawful_lens,
    labels,
    merge_reports,
    report_lines,
    run_all_law_checks,
    standard_shapes,
)


def test_generated_lenses_are_lawful():
    dom_r, dom_a = labels("r", 2), labels("a", 3)
    for seed in range(25):
        lens = gen_lawful_lens(seed, dom_r, dom_a)
        dom_s = tuple(f"s{i}" for i in range(6))
        assert all(rep.passed for rep in check_lawful(lens, dom_a, dom_s))


def test_first_over_finite_pairs_is_lawful():
    from opticat.families import first

    dom_a = ("a0", "a1")
    pairs = [(a, c) for a in dom_a for c in ("c0", "c1")]
    reports = check_lawful(first(), dom_a, pairs)
    assert all(rep.passed for rep in reports)


def test_every_bijection_yields_a_lawful_lens():
    # |R|=2, |A|=3: all 720 assignments of wholes to residual-focus pairs
    dom_r, dom_a = ("r0", "r1"), ("a0", "a1", "a2")
    pairs = [(r, a) for r in dom_r for a in dom_a]
    dom_s = tuple(f"s{i}" for i in range(6))
    count = 0
    for perm in itertools.permutations(pairs):
        to_pair = dict(zip(dom_s, perm))
        from_pair = {v: k for k, v in to_pair.items()}
        lens = Lens(
            get=lambda s, t=to_pair: t[s][1],
            put=lambda b, s, t=to_pair, f=from_pair: f[(t[s][0], b)],
        )
        count += 1
        assert all(lens.get(lens.put(b, s)) == b for b in dom_a for s in dom_s)
        assert all(lens.put(lens.get(s), s) == s for s in dom_s)
        assert all(
            lens.put(b, lens.put(b2, s)) == lens.put(b, s)
            for b in dom_a
            for b2 in dom_a
            for s in dom_s
        )
    assert count == 720


def test_singleton_residual_lens_is_adapter_like():
    dom_r, dom_a = labels("r", 1), labels("a", 3)
    lens = gen_lawful_lens(0, dom_r, dom_a)
    dom_s = tuple(f"s{i}" for i in range(3))
    # put ignores the previous whole entirely: PutPut is trivial
    for b in dom_a:
        outs = {lens.put(b, s) for s in dom_s}
        assert len(outs) == 1
    assert all(rep.passed for rep in check_lawful(lens, dom_a, dom_s))


def test_generators_deterministic_under_seed():
    dom_r, dom_a = labels("r", 2), labels("a", 2)
    dom_s = tuple(f"s{i}" for i in range(4))
    l1 = gen_lawful_lens(42, dom_r, dom_a, dom_s)
    l2 = gen_lawful_lens(42, dom_r, dom_a, dom_s)
    assert all(l1.get(s) == l2.get(s) for s in dom_s)
    assert all(l1.put(b, s) == l2.put(b, s) for b in dom_a for s in dom_s)
    p1 = gen_lawful_prism(42, dom_r, dom_a)
    p2 = gen_lawful_prism(42, dom_r, dom_a)
    assert all(p1.match(s) == p2.match(s) for s in (f"s{i}" for i in range(4)))


def test_generated_prisms_achlenses_optionals_adapters_are_lawful():
    dom_r, dom_a = labels("r", 2), labels("a", 2)
    for seed in range(10):
        prism = gen_lawful_prism(seed, dom_r, dom_a)
        assert all(
            rep.passed
            for rep in check_lawful(prism, dom_a, tuple(f"s{i}" for i in range(4)))
        )
        al = gen_lawful_achlens(seed, dom_r, dom_a)
        assert all(
            rep.passed
            for rep in check_lawful(al, dom_a, tuple(f"s{i}" for i in range(4)))
        )
        opt = gen_lawful_optional(seed, labels("m", 2), labels("k", 1), dom_a)
        assert all(
            rep.passed
            for rep in check_lawful(opt, dom_a, tuple(f"s{i}" for i in range(4)))
        )
        ad = gen_lawful_adapter(seed, dom_a)
        assert all(
            rep.passed for rep in check_lawful(ad, dom_a, ("s0", "s1"))
        )


def test_setter_from_shape_map_is_lawful():
    shape = pair_shape(("r0", "r1"))
    setter = functorize(FamilyTag.SETTER).enhance_op(shape)
    dom_a = labels("a", 2)
    reports = check_lawful(setter, dom_a, shape.payloads(list(dom_a)))
    assert all(rep.passed for rep in reports)


# The seeds of gen_random_optic, at |A| = 2 and |S| = 2 or 3, whose records
# passed the six concrete checkers (lens, prism, adapter, setter, achromatic
# lens and optional laws) that check_lawful replaced; pinned from them.
_CONCRETE_LAWFUL = {
    (FamilyTag.LENS, 2): [
        66, 70, 147, 173, 181, 194, 206, 276, 306, 395, 467, 469, 477, 488, 603, 642, 735,
        748, 771, 788, 796, 815, 817, 823, 855, 875, 909, 933, 941, 945, 988,
    ],
    (FamilyTag.PRISM, 2): [
        1, 24, 67, 82, 91, 149, 197, 225, 276, 328, 332, 352, 422, 444, 489, 518, 611, 661,
        685, 725, 813, 889, 928, 936, 953, 956, 983,
    ],
    (FamilyTag.ADAPTER, 2): [
        8, 14, 21, 23, 25, 26, 33, 36, 40, 45, 46, 47, 56, 64, 67, 73, 86, 88, 95, 96, 108,
        111, 122, 123, 134, 137, 145, 146, 152, 165, 169, 173, 176, 180, 203, 204, 230, 251,
        252, 265, 274, 277, 284, 287, 293, 294, 298, 320, 321, 363, 379, 390, 407, 412, 417,
        419, 432, 437, 455, 473, 474, 489, 494, 499, 510, 513, 514, 519, 523, 537, 547, 584,
        593, 599, 607, 611, 612, 613, 616, 617, 632, 646, 653, 662, 665, 666, 675, 679, 696,
        698, 704, 708, 710, 722, 726, 737, 746, 753, 762, 766, 769, 781, 839, 840, 855, 856,
        867, 871, 874, 876, 888, 889, 893, 903, 904, 906, 910, 936, 944, 951, 955, 960, 963,
        964,
    ],
    (FamilyTag.ACHLENS, 2): [18, 126, 326, 390, 575, 870, 887],
    (FamilyTag.OPTIONAL, 2): [
        157, 175, 189, 414, 444, 447, 506, 527, 528, 580, 597, 641, 651, 656, 737, 795, 828,
        878, 905, 954, 965,
    ],
    (FamilyTag.SETTER, 2): [
        29, 39, 63, 66, 102, 111, 124, 139, 141, 147, 153, 157, 158, 177, 193, 219, 224, 240,
        243, 249, 256, 283, 289, 292, 322, 375, 391, 397, 414, 417, 454, 461, 495, 531, 537,
        570, 594, 607, 618, 625, 640, 645, 657, 665, 671, 678, 706, 721, 774, 782, 800, 801,
        815, 837, 903, 937, 951, 962, 966,
    ],
    (FamilyTag.LENS, 3): [],
    (FamilyTag.PRISM, 3): [512, 799, 856, 898, 978],
    (FamilyTag.ACHLENS, 3): [],
    (FamilyTag.OPTIONAL, 3): [509, 558],
    (FamilyTag.SETTER, 3): [353, 361, 789],
}

# The optionals the concrete laws passed and check_lawful FAILs, by the law
# that fails first in REQUIRED_LAWS order.  A miss that returns another whole
# broke no optional law, and neither did a broken PutPut.
_ONLY_CONCRETE_LAWFUL = {
    (FamilyTag.OPTIONAL, 2): dict.fromkeys(
        [175, 189, 414, 447, 506, 528, 580, 597, 651, 656, 737, 795, 878, 905],
        "lawful.outside",
    ),
    (FamilyTag.OPTIONAL, 3): dict.fromkeys([509, 558], "lawful.reentry"),
}


def test_check_lawful_agrees_with_the_concrete_laws_on_a_seeded_corpus():
    # 1000 random records per family and size: every record the concrete
    # laws passed passes check_lawful, except the listed optionals, and no
    # record they failed passes it.
    dom_a = labels("a", 2)
    fields_only = []
    for (tag, n), pinned in _CONCRETE_LAWFUL.items():
        wholes = labels("s", n)
        passed, first_fail = [], {}
        for seed in range(1000):
            optic = gen_random_optic(tag, seed, dom_a, wholes)
            failing = [rep.law for rep in check_lawful(optic, dom_a, wholes) if not rep.passed]
            if not failing:
                passed.append(seed)
            elif seed in pinned:
                first_fail[seed] = min(failing, key=REQUIRED_LAWS.index)
            if tag is FamilyTag.OPTIONAL and n == 2 and failing == ["lawful.fields"]:
                fields_only.append(seed)
        assert first_fail == _ONLY_CONCRETE_LAWFUL.get((tag, n), {}), (tag, n)
        assert passed == [seed for seed in pinned if seed not in first_fail], (tag, n)
    # put on a miss is part of an optional's meaning: these fail lawful.fields alone
    assert len(fields_only) == 58


def test_every_family_has_a_full_row_in_both_tables():
    # A family is stated once in encode (its functorization and residual
    # form) and once in laws (its random record and lawful optics); a
    # family missing from a table would skip its derivation or its laws.
    # Every record field is read off a shape by encode, drawn at random by
    # laws and compared by lawful.fields, so a new field cannot miss a
    # field table.
    from opticat import encode, laws
    from opticat.encode import concrete_to_iso
    from opticat.families import CONCRETE_FAMILIES
    from opticat.functors import FUNCTOR_FAMILY, ID_SHAPE

    tables = [
        CONCRETE_FAMILIES, FUNCTOR_FAMILY, encode._FUNCTORIZATIONS, laws._FAMILY_LAWS,
        laws.shape_pools(),
    ]
    assert all(set(table) == set(FamilyTag) for table in tables)
    for tag in FamilyTag:
        row = functorize(tag)
        assert row.family_tag is tag
        assert row.functor_family.member(ID_SHAPE)
        assert row.enhance_op(ID_SHAPE).tag is tag
        optic = laws.gen_random_optic(tag, 0, labels("a", 2), labels("s", 3))
        assert type(optic) is CONCRETE_FAMILIES[tag]
        fields = set(CONCRETE_FAMILIES[tag].__slots__)
        assert all(
            fields <= set(table)
            for table in (encode._LAYER_FIELDS, laws._FIELD_DRAWS, laws._FIELD_INPUTS)
        )
        assert concrete_to_iso(optic).family is row.functor_family
        optics, wholes = laws._FAMILY_LAWS[tag]()
        assert optics and all(o.tag is tag for o in optics)
        assert all(
            rep.passed for o in optics for rep in check_lawful(o, laws._LAWFUL_A, wholes)
        )
    with pytest.raises(TypeError):
        concrete_to_iso(object())
    # run_all_law_checks walks the families once, each row with its functor
    # family, so the rows' functor families are the registry's, one row each
    assert all(functorize(tag).functor_family is FUNCTOR_FAMILY[tag] for tag in FamilyTag)
    assert len({id(f) for f in FUNCTOR_FAMILY.values()}) == len(FamilyTag)


def test_cardinality_mismatch_rejected():
    with pytest.raises(ValueError):
        gen_lawful_lens(0, labels("r", 2), labels("a", 2), ("s0", "s1", "s2"))
    with pytest.raises(ValueError):
        gen_lawful_prism(0, labels("r", 2), labels("a", 2), ("s0",))


def test_empty_domain_rejected():
    # no law may pass on zero cases, so no domain is empty
    with pytest.raises(ValueError, match="empty"):
        labels("x", 0)


# Negative controls ---------------------------------------------------------------

def _lawful_sides(optic, inputs):
    """The two sides ``check_lawful`` compared on ``inputs``, recomputed
    from the optic's residual form: the replay of a counterexample."""
    from opticat.encode import _LAYER_FIELDS, concrete_to_iso, unfunctorize
    from opticat.laws import _foci

    residual = concrete_to_iso(optic)
    shape, forward, backward = residual.shape, residual.forward, residual.backward
    args = {k: v for k, v in inputs.items() if k not in ("field", "h2")}
    if "field" in inputs:  # lawful.fields
        name = inputs["field"]
        collapsed = unfunctorize(residual, optic.tag)
        return getattr(collapsed, name)(*args.values()), getattr(optic, name)(*args.values())
    if set(inputs) == {"s"}:  # lawful.outside
        return inputs["s"], backward(forward(inputs["s"]))
    # lawful.reentry: a payload mapped from a whole, or built from a focus
    if "h" in args:
        c = shape.map(args["h"], forward(args["s"]))
    else:
        (name, b), = args.items()
        c = _LAYER_FIELDS[name](shape)(b)
    d = forward(backward(c))
    if "h2" in inputs:
        h2 = inputs["h2"]
        return backward(shape.map(h2, c)), backward(shape.map(h2, d))
    return _foci(shape, c), _foci(shape, d)


def _replays(optic, failure):
    """The counterexample's two sides are the ones its inputs give, and they
    differ."""
    expected, actual = _lawful_sides(optic, failure["inputs"])
    return (expected, actual) == (failure["expected"], failure["actual"]) and expected != actual


def test_unlawful_lens_fails_reentry_with_a_counterexample_that_replays():
    from opticat.encode import concrete_to_iso

    dom_a = labels("a", 2)
    dom_s = ("s0", "s1", "s2")
    lens = gen_unlawful_lens(dom_a, dom_s)
    reports = {rep.law: rep for rep in check_lawful(lens, dom_a, dom_s)}
    assert reports["lawful.outside"].passed and reports["lawful.fields"].passed
    rep = reports["lawful.reentry"]
    assert rep.status == FAIL
    ce = rep.failures[0]
    assert set(ce["inputs"]) == {"s", "h"}
    assert _replays(lens, ce)
    # the payload (s0, a1) re-enters holding a0: put ignores the new focus
    residual = concrete_to_iso(lens)
    payload = residual.shape.map(ce["inputs"]["h"], residual.forward(ce["inputs"]["s"]))
    assert payload == ("s0", "a1")
    assert (ce["expected"], ce["actual"]) == (["a1"], ["a0"])
    assert lens.put("a1", "s0") == "s0"


def _optional_whose_put_on_a_miss_moves():
    """The lawful optional that holds a0 in s0 and a1 in s1 and misses s2,
    except that put on the miss returns s0."""
    from opticat.families import Optional

    hits = {"s0": "a0", "s1": "a1"}
    return Optional(
        match=lambda s: Right(hits[s]) if s in hits else Left(s),
        put=lambda b, s: "s0" if b == "a0" else "s1",
    )


def _achlens_whose_create_picks_the_residual_by_focus():
    """Over S = R x A with get and put lawful, create(a0) = (r0, a0) but
    create(a1) = (r1, a1): put(b2, create(b)) is not create(b2)."""
    from opticat.families import AchLens

    return AchLens(
        get=lambda s: s[1],
        put=lambda b, s: (s[0], b),
        create=lambda b: ("r0", b) if b == "a0" else ("r1", b),
    )


# (law, optic, foci, wholes, the keys of the counterexample's inputs)
_LAWFUL_CONTROLS = [
    # its miss on s0 returns the other whole
    (
        "lawful.outside",
        gen_random_optic(FamilyTag.OPTIONAL, 175, labels("a", 2), labels("s", 2)),
        labels("a", 2), labels("s", 2), {"s"},
    ),
    # put(a1, put(a0, s1)) is not put(a1, s1): PutPut fails
    (
        "lawful.reentry",
        gen_random_optic(FamilyTag.OPTIONAL, 509, labels("a", 2), labels("s", 3)),
        labels("a", 2), labels("s", 3), {"s", "h", "h2"},
    ),
    (
        "lawful.reentry",
        _achlens_whose_create_picks_the_residual_by_focus(),
        labels("a", 2), [(r, a) for r in ("r0", "r1") for a in labels("a", 2)],
        {"create", "h2"},
    ),
    (
        "lawful.fields",
        _optional_whose_put_on_a_miss_moves(),
        labels("a", 2), labels("s", 3), {"field", "b", "s"},
    ),
]


@pytest.mark.parametrize(
    "law, optic, foci, wholes, keys",
    _LAWFUL_CONTROLS,
    ids=["optional-miss-moves", "optional-put-put", "achlens-create", "optional-miss-put"],
)
def test_each_lawful_law_fails_on_a_planted_defect_that_replays(law, optic, foci, wholes, keys):
    reports = {rep.law: rep for rep in check_lawful(optic, foci, wholes)}
    rep = reports[law]
    assert rep.status == FAIL
    failure = rep.failures[0]
    assert set(failure["inputs"]) == keys
    assert _replays(optic, failure)


def test_a_put_on_a_miss_that_moves_fails_only_lawful_fields():
    # No map action reads put on a miss, so only lawful.fields sees it.
    optic = _optional_whose_put_on_a_miss_moves()
    reports = {rep.law: rep for rep in check_lawful(optic, labels("a", 2), labels("s", 3))}
    assert [law for law, rep in reports.items() if not rep.passed] == ["lawful.fields"]
    assert reports["lawful.fields"].failures[0]["inputs"] == {"field": "put", "b": "a0", "s": "s2"}


def test_a_lens_whose_put_raises_fails_with_the_raise():
    # A raise on either side of a case is a FAIL naming the case's inputs,
    # and every law still reports.
    def put(b, s):
        if s == "s1":
            raise KeyError("s1")
        return s

    lens = Lens(get=lambda s: "a0", put=put)
    reports = {rep.law: rep for rep in check_lawful(lens, labels("a", 2), ("s0", "s1"))}
    assert set(reports) == {"lawful.outside", "lawful.reentry", "lawful.fields"}
    assert reports["lawful.outside"].status == FAIL
    assert reports["lawful.outside"].failures == [{"inputs": {"s": "s1"}, "raised": "KeyError('s1')"}]
    assert reports["lawful.fields"].failures == [
        {"inputs": {"field": "put", "b": "a0", "s": "s1"}, "raised": "KeyError('s1')"}
    ]


def _function_arrow_with(dimap=FUNCTION_ARROW.dimap, enhance=FUNCTION_ARROW.enhance):
    """The function-arrow capability fixture with a planted dimap or enhance."""
    arrow = function_arrow_fixture()
    cap = ProfunctorCapability(arrow.cap.name, dimap, enhance)
    return CapabilityFixture(cap, arrow.values, arrow.eq)


def _enhancing_reports(fix, compose_pairs=()):
    shapes = standard_shapes()
    dom = labels("a", 2)
    reports = check_enhancing_laws(fix, [shapes["pair"]], [], dom, dom, compose_pairs)
    return {rep.law: rep for rep in reports}


def test_broken_enhancing_record_is_detected():
    # dimap is fine but enhance ignores the shape's nesting at composed
    # shapes, so the shape-composition law must fail
    def broken_enhance(shape, h):
        if shape.parts is not None:
            return lambda p: p
        return lambda p: shape.map(h, p)

    shapes = standard_shapes()
    reports = _enhancing_reports(
        _function_arrow_with(enhance=broken_enhance), [(shapes["pair"], shapes["pair2"])]
    )
    assert reports["enhancing.compose_shape"].status == FAIL
    assert reports["enhancing.compose_shape"].failures


def test_a_dimap_that_applies_g_twice_fails_dimap_composition():
    # g applied twice is still the identity when g is, so dimap_identity
    # cannot see it.
    twice = _function_arrow_with(dimap=lambda f, g, h: lambda x: g(g(h(f(x)))))
    reports = _enhancing_reports(twice)
    assert reports["profunctor.dimap_identity"].status == PASS
    assert reports["profunctor.dimap_composition"].status == FAIL
    assert _enhancing_reports(function_arrow_fixture())["profunctor.dimap_composition"].passed


def test_a_dimap_that_applies_f_twice_fails_identity_shape_with_the_raise():
    # identity_shape's f is the identity container's unwrap, and a second
    # unwrap meets a bare focus: the raise FAILs the law, and every other
    # law of the capability still reports.
    twice = _function_arrow_with(dimap=lambda f, g, h: lambda x: g(h(f(f(x)))))
    reports = _enhancing_reports(twice)
    assert len(reports) == 6
    assert reports["enhancing.identity_shape"].failures == [
        {
            "inputs": {"cap": "FunctionArrow", "value": 0},
            "raised": "AttributeError(\"'str' object has no attribute 'value'\")",
        }
    ]
    assert reports["profunctor.dimap_composition"].status == FAIL
    assert reports["enhancing.map_commute"].passed


def test_an_enhance_that_maps_twice_fails_map_commute():
    twice = _function_arrow_with(enhance=lambda shape, h: lambda p: shape.map(h, shape.map(h, p)))
    assert _enhancing_reports(twice)["enhancing.map_commute"].status == FAIL
    assert _enhancing_reports(function_arrow_fixture())["enhancing.map_commute"].passed


def test_a_function_arrow_fail_names_an_input_that_replays():
    # The reader fixtures compare probe by probe, so a FAIL names the first
    # input s on which the two sides differ, with each side's value there.
    twice = _function_arrow_with(enhance=lambda shape, h: lambda p: shape.map(h, shape.map(h, p)))
    rep = _enhancing_reports(twice)["enhancing.identity_shape"]
    assert rep.status == FAIL
    failure = rep.failures[0]
    dom = labels("a", 2)
    p = twice.values(dom, dom)[failure["inputs"]["value"]]
    lhs = twice.cap.enhance(ID_SHAPE, p)
    rhs = twice.cap.dimap(lambda p: p.value, Id, p)
    s = failure["inputs"]["s"]
    assert s in ID_SHAPE.payloads(dom)
    assert (failure["actual"], failure["expected"]) == (lhs(s), rhs(s))
    assert lhs(s) != rhs(s)


def test_budget_marks_inconclusive_never_passed():
    dom_a = labels("a", 3)
    dom_s = tuple(f"s{i}" for i in range(6))
    lens = gen_lawful_lens(0, labels("r", 2), dom_a, dom_s)
    reports = {rep.law: rep for rep in check_lawful(lens, dom_a, dom_s, budget=5)}
    assert reports["lawful.reentry"].status == INCONCLUSIVE
    assert not reports["lawful.reentry"].passed


def _lossy_pair():
    """A pair shape whose enumeration leaves its last payload out."""
    pair = pair_shape(("r0", "r1"))
    lossy = ContainerShape(
        name="LossyPair",
        map=pair.map,
        product=pair.product,
        payloads=lambda dom: pair.payloads(dom)[:-1],
    )
    return pair, lossy


def test_shape_whose_payloads_leave_one_out_fails_payloads_closed():
    pair, lossy = _lossy_pair()
    reports = {rep.law: rep for rep in check_functor_laws(lossy, labels("a", 3))}
    rep = reports["functor.payloads_closed"]
    assert rep.status == FAIL
    inputs = rep.failures[0]["inputs"]
    assert set(inputs) == {"shape", "h", "p"} and inputs["shape"] == "LossyPair"
    # the counterexample replays: map(h, p) is the payload left out over B
    image = lossy.map(inputs["h"], inputs["p"])
    assert image not in lossy.payloads(list(labels("b", 2)))
    assert image in pair.payloads(list(labels("b", 2)))
    assert reports["functor.map_composition"].passed


def test_index_skips_unhashable_payloads():
    from opticat.laws import _index

    assert _index([["r0"], ("r0", "a0"), ["r0"], ("r0", "a0")]) == {("r0", "a0"): 1}


def test_gen_iso_optic_needs_a_payload_enumeration():
    from opticat.functors import ANY_FUNCTOR, cps_shape
    from opticat.laws import gen_iso_optic

    dom = labels("a", 2)
    with pytest.raises(ValueError, match="shape Cps has no payload enumeration"):
        gen_iso_optic(0, cps_shape(), ANY_FUNCTOR, dom, dom, dom, dom)


def _list_pair():
    """A pair shape whose map returns a list, which no enumeration holds
    and no dict can hash; mapping a list again forgets the function."""
    pair = pair_shape(("r0", "r1"))
    return ContainerShape(
        name="ListPair",
        map=lambda h, p: [p[0], h(p[1])] if isinstance(p, tuple) else list(p),
        payloads=pair.payloads,
    )


@pytest.mark.parametrize(
    "shape, line",
    [
        (
            _lossy_pair()[1],
            '{"cases": 3645, "counterexample": null, "law": "functor.map_composition", '
            '"status": "PASS"}',
        ),
        (
            _list_pair(),
            '{"cases": 9, "counterexample": {"actual": ["r0", "a1"], "expected": ["r0", "a0"], '
            '"inputs": {"f": "FiniteFn({\'a0\':\'a0\', \'a1\':\'a0\', \'a2\':\'a0\'})", '
            '"g": "FiniteFn({\'a0\':\'a0\', \'a1\':\'a0\', \'a2\':\'a1\'})", '
            '"p": ["r0", "a2"], "shape": "ListPair"}}, "law": "functor.map_composition", '
            '"status": "FAIL"}',
        ),
    ],
    ids=["lossy", "unhashable"],
)
def test_map_composition_maps_afresh_off_the_enumeration(shape, line):
    # map(g, p) off the enumeration, or unhashable, is mapped again with f
    # instead of read from the table: the verdict and counterexample are
    # those of mapping every case, pinned from that implementation.
    reports = check_functor_laws(shape, labels("a", 3))
    lines = [out for out in report_lines(reports) if '"functor.map_composition"' in out]
    assert lines == [line]


def test_functor_laws_map_each_function_and_payload_once():
    # Over the standard shapes, functor.map_composition reads map(f . g, p)
    # and map(f, map(g, p)) from one table of map(h, p), so the checker maps
    # 36 times per payload (the identity, 27 table rows over a 3-element
    # domain, 8 closure probes): 2 376 calls, against 98 604 when each
    # composition case maps on both sides.
    calls = 0

    def counting(inner):
        def map_(h, p):
            nonlocal calls
            calls += 1
            return inner(h, p)
        return map_

    for shape in standard_shapes().values():
        fields = {name: getattr(shape, name) for name in ContainerShape.__slots__}
        fields["map"] = counting(shape.map)
        reports = check_functor_laws(ContainerShape(**fields), labels("a", 3))
        assert all(rep.passed for rep in reports), shape.name
    assert 0 < calls <= 2376


# Coverage, merging, reports --------------------------------------------------------

@pytest.fixture(scope="module")
def default_reports():
    """One default run_all_law_checks(), for the tests that only read it."""
    return run_all_law_checks()


def test_entry_point_fails_when_reported_laws_differ_from_required(
    default_reports, monkeypatch, capsys
):
    # REQUIRED_LAWS is the coverage list: main exits 1 when the suite
    # reports another law set, even though every reported law passes.
    import opticat.laws as laws

    reports = default_reports
    monkeypatch.setattr(laws, "run_all_law_checks", lambda: reports)
    for required, code in [
        (REQUIRED_LAWS, 0),
        (REQUIRED_LAWS + ("lens.unchecked",), 1),
        (REQUIRED_LAWS[1:], 1),
    ]:
        monkeypatch.setattr(laws, "REQUIRED_LAWS", required)
        assert laws.main([]) == code, len(required)
        assert len(capsys.readouterr().out.splitlines()) == len(reports)


@pytest.mark.parametrize("argv", [["--budget", "5", "--nonsense"], ["--budget", "5"], [""]])
def test_entry_point_rejects_arguments(argv, monkeypatch, capsys):
    # Any argument exits 2 with one line on stderr, before the suite runs;
    # main() reads sys.argv when it is given no argument list.
    import sys

    import opticat.laws as laws

    def not_run():
        raise AssertionError("the suite ran")

    monkeypatch.setattr(laws, "run_all_law_checks", not_run)
    monkeypatch.setattr(sys, "argv", ["opticat.laws"] + argv)
    for args in (argv, None):
        code = laws.main(args)
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.endswith("\n")


def test_full_suite_passes_and_covers_required_laws(default_reports):
    reports = default_reports
    assert {rep.law for rep in reports} == set(REQUIRED_LAWS)
    failing = [rep.law for rep in reports if not rep.passed]
    assert failing == []


def test_budgeted_suite_never_passes_a_law_compared_on_sampled_probes(monkeypatch):
    # A small budget makes some probe sets sampled, not exhaustive.  Each
    # probe set is charged to the law whose next case it decides; none of
    # those laws may come back PASS.
    import opticat.probes as probes
    from opticat.laws import _LawRun

    probe_functions, case = probes.probe_functions, _LawRun.case
    pending, sampled_laws = [], set()

    def recording_probe_functions(*args, **kwargs):
        fns, exhaustive = probe_functions(*args, **kwargs)
        pending.append(exhaustive)
        return fns, exhaustive

    def recording_case(self, inputs, expected, actual, probe=None):
        if not all(pending):
            sampled_laws.add(self.report.law)
        pending.clear()
        return case(self, inputs, expected, actual, probe)

    monkeypatch.setattr(probes, "probe_functions", recording_probe_functions)
    monkeypatch.setattr(_LawRun, "case", recording_case)
    reports = {rep.law: rep for rep in run_all_law_checks(budget=20)}
    assert sampled_laws
    assert [law for law in sorted(sampled_laws) if reports[law].status == PASS] == []


def test_iso_capability_fixture_compares_under_the_law_budget(monkeypatch):
    # The IsoOptic fixture's equality probes optics, so it must probe with
    # the law's budget, where the sampled-probe rule can see it.
    import opticat.probes as probes
    from opticat.functors import FUNCTOR_FAMILY
    from opticat.laws import (
        iso_capability_fixture,
        naturals_within,
        shape_pools,
        standard_naturals,
    )

    probe_functions, budgets = probes.probe_functions, []

    def recording_probe_functions(dom_a, dom_b, dom_s, max_evals=probes.DEFAULT_MAX_EVALS):
        budgets.append(max_evals)
        return probe_functions(dom_a, dom_b, dom_s, max_evals)

    monkeypatch.setattr(probes, "probe_functions", recording_probe_functions)
    shapes = standard_shapes()
    naturals = standard_naturals(shapes)
    pools = shape_pools(shapes)
    dom = labels("a", 2)
    for tag, family in FUNCTOR_FAMILY.items():
        pool = pools[tag]
        pairs = [(f, g) for f in pool for g in pool if f.payloads and g.payloads][:3]
        check_enhancing_laws(
            iso_capability_fixture(family, pool, dom, dom),
            pool,
            naturals_within(family, naturals),
            dom,
            dom,
            compose_pairs=pairs,
            budget=20,
        )
    assert budgets
    assert set(budgets) == {20}


def _lens_fixture_whose_inj_ignores_the_new_focus():
    from opticat.laws import FamilyFixture, concrete_family_fixture

    fix = concrete_family_fixture(FamilyTag.LENS)
    return FamilyFixture(
        fix.name,
        lambda f, g: Lens(get=f, put=lambda b, s: s),
        fix.triples,
        fix.doms,
        fix.inj_tables,
    )


def test_an_inj_that_ignores_the_new_focus_fails_inj_identity():
    # inj(identity, identity) must act as the identity: its map action is h.
    from opticat.base import identity
    from opticat.laws import check_optic_family_laws

    broken = _lens_fixture_whose_inj_ignores_the_new_focus()
    reports = {rep.law: rep for rep in check_optic_family_laws(broken)}
    rep = reports["optic_family.inj_identity"]
    assert rep.status == FAIL
    failure = rep.failures[0]
    h, s = failure["inputs"]["h"], failure["inputs"]["s"]
    assert failure["actual"] == broken.inj(identity, identity).map_optic(h)(s)
    assert failure["expected"] == h(s) != failure["actual"]


def test_a_probe_by_probe_fail_names_the_whole_on_which_the_sides_differ():
    from opticat.laws import check_optic_family_laws

    broken = _lens_fixture_whose_inj_ignores_the_new_focus()
    reports = {rep.law: rep for rep in check_optic_family_laws(broken)}
    rep = reports["optic_family.map_inj"]
    assert rep.status == FAIL
    failure = rep.failures[0]
    inputs = failure["inputs"]
    f, g, _, _ = broken.inj_tables[inputs["table"]]
    h, s = inputs["h"], inputs["s"]
    assert failure["actual"] == broken.inj(f, g).map_optic(h)(s)
    assert failure["expected"] == g(h(f(s))) != failure["actual"]
    line = json.loads(next(report_lines([rep])))
    assert {"h", "s"} <= set(line["counterexample"]["inputs"])


def test_map_is_shape_map_names_its_probe():
    from opticat.laws import check_functorization_laws

    fz = functorize(FamilyTag.LENS)
    # a one-layer lens whose put ignores the new focus
    broken = Functorization(
        fz.family_tag, fz.functor_family,
        lambda shape: Lens(get=fz.enhance_op(shape).get, put=lambda b, p: p),
        fz.residual,
    )
    pair, dom = pair_shape(("r0", "r1")), labels("a", 2)
    reports = check_functorization_laws(broken, [pair], [], dom, dom, compose_pairs=[])
    rep = {rep.law: rep for rep in reports}["functorization.map_is_shape_map"]
    assert rep.status == FAIL
    failure = rep.failures[0]
    h, p = failure["inputs"]["h"], failure["inputs"]["p"]
    assert failure["actual"] == broken.enhance_op(pair).map_optic(h)(p)
    assert failure["expected"] == pair.map(h, p) != failure["actual"]


def test_a_comparison_fail_names_a_probe_that_replays():
    from opticat.base import identity
    from opticat.laws import check_optic_family_laws

    broken = _lens_fixture_whose_inj_ignores_the_new_focus()
    reports = {rep.law: rep for rep in check_optic_family_laws(broken)}
    rep = reports["optic_family.identity_left"]
    assert rep.status == FAIL
    failure = rep.failures[0]
    o1 = broken.triples[failure["inputs"]["triple"]][0]
    lhs, rhs = broken.inj(identity, identity).compose(o1), o1
    probe = failure["probe"]
    h, s = probe["h"], probe["s"]
    assert probe["lhs"] == lhs.map_optic(h)(s)
    assert probe["rhs"] == rhs.map_optic(h)(s)
    assert probe["lhs"] != probe["rhs"]
    line = json.loads(next(report_lines([rep])))
    assert line["status"] == FAIL
    assert set(line["counterexample"]["probe"]) == {"h", "s", "lhs", "rhs"}


def test_an_iso_capability_fail_names_a_probe_that_replays():
    # The IsoOptic fixture's eq returns its comparison's case, so a FAIL
    # there names its probe as the optic-family laws do.
    from opticat.iso import iso_dimap
    from opticat.laws import iso_capability_fixture, shape_pools

    dom = labels("a", 2)
    iso = iso_capability_fixture(IS_PRODUCT, shape_pools()[FamilyTag.LENS], dom, dom)
    # dimap applies its second function twice
    cap = ProfunctorCapability(
        iso.cap.name, lambda f, g, o: iso_dimap(f, lambda t: g(g(t)), o), iso.cap.enhance
    )
    broken = CapabilityFixture(cap, iso.values, iso.eq)
    rep = _enhancing_reports(broken)["enhancing.identity_shape"]
    assert rep.status == FAIL
    failure = rep.failures[0]
    assert failure["inputs"]["cap"] == "IsoOptic"
    p = broken.values(dom, dom)[failure["inputs"]["value"]]
    lhs = cap.enhance(ID_SHAPE, p)
    rhs = cap.dimap(lambda p: p.value, Id, p)
    probe = failure["probe"]
    h, s = probe["h"], probe["s"]
    assert probe["lhs"] == lhs.map_optic(h)(s)
    assert probe["rhs"] == rhs.map_optic(h)(s)
    assert probe["lhs"] != probe["rhs"]
    assert _enhancing_reports(iso)["enhancing.identity_shape"].passed


def test_a_natural_pair_that_is_no_section_fails_iso_retraction(monkeypatch):
    # Tagging a residual and then forgetting it for "r0" is natural but no
    # section, so the twisted optic is not the pure zoom on a residual "r1".
    from opticat import laws
    from opticat.laws import Natural, check_iso_laws, naturals_within, shape_pools

    sh = standard_shapes()
    forget = Natural("maybe_pair_forget", sh["maybe_pair"], sh["pair"], lambda p: ("r0", p[1]))
    naturals = naturals_within(IS_PRODUCT, laws.standard_naturals(sh) + [forget])
    pool = shape_pools(sh)[FamilyTag.LENS]

    def retraction(pairs):
        monkeypatch.setattr(laws, "_RETRACTIONS", pairs)
        return {rep.law: rep for rep in check_iso_laws(IS_PRODUCT, pool, naturals)}["iso.retraction"]

    assert retraction((("pair_tag", "maybe_pair_default"),)).passed
    rep = retraction((("pair_tag", "maybe_pair_forget"),))
    assert rep.status == FAIL
    failure = rep.failures[0]
    assert failure["inputs"]["natural"] == "pair_tag"
    probe = failure["probe"]
    assert probe["s"] == ("r1", "a0")
    assert probe["lhs"] != probe["rhs"]


def _lens_conversion(theta):
    """A LENS -> LENS morphism spec over ``theta``, on random lens pairs."""
    from functools import partial

    from opticat.laws import MorphismSpec, _chains, gen_random_optic

    doms = {"s": labels("s", 3), "a1": labels("a", 3), "a2": labels("x", 2)}
    pairs = _chains(partial(gen_random_optic, FamilyTag.LENS), doms, range(0, 8, 2), 2)
    return MorphismSpec("broken", theta, Lens.inj, Lens.inj, pairs, doms)


def _morphism_sides(spec, law, inputs):
    """The two sides ``check_morphism`` compared for ``law`` on ``inputs``."""
    import random

    from opticat.laws import _rand_table

    if law == "morphism.preserves_inj":
        ds, d1 = spec.doms["s"], spec.doms["a1"]
        rng = random.Random(spec.name)
        tables = [(_rand_table(rng, ds, d1), _rand_table(rng, d1, ds)) for _ in range(3)]
        f, g = tables[inputs["sample"]]
        return spec.theta(spec.inj_src(f, g)), spec.inj_dst(f, g)
    o1, o2 = spec.pairs[inputs["pair"]]
    if law == "morphism.preserves_compose":
        return spec.theta(o1.compose(o2)), spec.theta(o1).compose(spec.theta(o2))
    return spec.theta(o1), o1


@pytest.mark.parametrize(
    "theta, failing",
    [
        # put keeps the whole, which inj's put and a random lens's replace
        (
            lambda o: Lens(get=o.get, put=lambda b, s: s),
            ("morphism.preserves_inj", "morphism.preserves_map"),
        ),
        # put runs twice: idempotent on inj's put, not on a random lens's
        (
            lambda o: Lens(get=o.get, put=lambda b, s: o.put(b, o.put(b, s))),
            ("morphism.preserves_compose", "morphism.preserves_map"),
        ),
    ],
)
def test_a_broken_conversion_fails_its_morphism_laws(theta, failing):
    from opticat.laws import check_morphism

    spec = _lens_conversion(theta)
    reports = {rep.law: rep for rep in check_morphism(spec)}
    for law in failing:
        rep = reports[law]
        assert rep.status == FAIL, law
        failure = rep.failures[0]
        lhs, rhs = _morphism_sides(spec, law, failure["inputs"])
        probe = failure["probe"]
        h, s = probe["h"], probe["s"]
        assert probe["lhs"] == lhs.map_optic(h)(s)
        assert probe["rhs"] == rhs.map_optic(h)(s)
        assert probe["lhs"] != probe["rhs"]


def test_a_probe_names_only_the_case_whose_own_comparison_failed():
    # iso.retraction expects some comparisons to come out False; a later
    # failure that made no comparison names no probe.
    from opticat.families import first, second
    from opticat.laws import _LawRun

    dom_a = ("a0", "a1")
    pairs = [(a, c) for a in dom_a for c in dom_a]
    run = _LawRun("x.law")
    assert not run.agrees(first(), second(), dom_a, dom_a, pairs)
    run.run([({"case": 0}, True, True), ({"case": 1}, True, False)])
    assert run.report.failures == [{"inputs": {"case": 1}, "expected": True, "actual": False}]


def test_merge_is_deterministic_and_keeps_first_failure():
    from opticat.laws import LawReport

    reports = [
        LawReport("z.law", 5, [], PASS),
        LawReport("a.law", 2, [{"inputs": 1, "expected": 2, "actual": 3}], FAIL),
        LawReport("a.law", 4, [{"inputs": 9, "expected": 8, "actual": 7}], FAIL),
    ]
    merged = merge_reports(reports)
    assert [rep.law for rep in merged] == ["a.law", "z.law"]
    assert merged[0].cases == 6
    assert merged[0].failures == [{"inputs": 1, "expected": 2, "actual": 3}]


def test_law_report_entry_point(default_reports, monkeypatch, capsys):
    import opticat.laws as laws

    monkeypatch.setattr(laws, "run_all_law_checks", lambda: default_reports)
    assert laws.main([]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= len(REQUIRED_LAWS)
    assert all(json.loads(line)["status"] == PASS for line in lines)


def _closed_pipe():
    """The write end of a pipe whose read end is already closed."""
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.parametrize(
    "stdout,redirect,unbuffered,message",
    [(_closed_pipe, "", "", "[Errno 32] Broken pipe"),
     (_closed_pipe, "", "1", "[Errno 32] Broken pipe"),
     (None, ">&-", "", "stdout is closed"),
     (None, ">/dev/full", "", "[Errno 28] No space left on device")],
    ids=["closed-pipe", "closed-pipe-unbuffered", "closed-stdout", "full-disk"],
)
def test_an_unwritable_stdout_exits_4_with_one_line(stdout, redirect, unbuffered, message):
    # Exit 1 means a law failed, so a reader that stops early must not read
    # as one.  Buffered, the report meets the stream in main's flush, and
    # the interpreter flushes once more at exit; unbuffered, every line is
    # its own write.
    import opticat.laws as laws

    if "/dev/full" in redirect and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(laws.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    argv = ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "opticat.laws"]
    fd = None if stdout is None else stdout()
    try:
        proc = subprocess.run(argv, stdout=fd, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        if fd is not None:
            os.close(fd)
    assert proc.returncode == 4
    assert proc.stderr.decode() == f"python -m opticat.laws: cannot write output: {message}\n"


def test_report_lines_are_json_records():
    dom_a = labels("a", 2)
    dom_s = ("s0", "s1", "s2")
    reports = check_lawful(gen_unlawful_lens(dom_a, dom_s), dom_a, dom_s)
    lines = list(report_lines(reports))
    assert len(lines) == 3
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"law", "status", "cases", "counterexample"}
    parsed = [json.loads(line) for line in lines]
    failed = [rec for rec in parsed if rec["status"] == FAIL]
    assert failed and all(rec["counterexample"] is not None for rec in failed)


def test_default_suite_decides_each_probe_set_at_most_once_per_comparison(monkeypatch):
    # The default suite makes 8 536 observational comparisons, more than
    # the bound below.  Deciding a comparison's probe set (exhaustive or
    # sampled) takes one probes_exhaustive call at most, under whatever name
    # a module bound it.
    import opticat.iso as iso
    import opticat.laws as laws
    import opticat.probes as probes

    original, calls = probes.probes_exhaustive, []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (probes, iso, laws):
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counting)
    run_all_law_checks()
    assert 0 < len(calls) <= 7150


def test_default_suite_compares_iso_pairs_only_in_residual_form(monkeypatch):
    # Every comparison goes through observational_eq, which compares two
    # IsoOptics through their residual form, so maps_agree never gets two.
    import opticat.iso as iso
    import opticat.laws as laws

    iso_pairs = []
    for module in (laws, iso):
        def recording(o1, o2, *args, original=module.maps_agree, **kwargs):
            if isinstance(o1, iso.IsoOptic) and isinstance(o2, iso.IsoOptic):
                iso_pairs.append((o1, o2))
            return original(o1, o2, *args, **kwargs)

        monkeypatch.setattr(module, "maps_agree", recording)
    run_all_law_checks()
    assert iso_pairs == []


def test_fail_counterexample_prints_probe_functions_by_repr():
    # A probe function is a dict, but a counterexample shows it as its repr,
    # not as a JSON object.
    from opticat.families import Setter

    dom_a = labels("a", 2)
    twice = Setter(over=lambda h: (lambda p: h(h(p))))
    lines = list(report_lines(check_lawful(twice, dom_a, dom_a)))
    assert lines[1] == (
        '{"cases": 3, "counterexample": {"actual": "a0", "expected": "a1", '
        '"inputs": {"h": "FiniteFn({\'a0\':\'a0\', \'a1\':\'a0\'})", '
        '"h2": "FiniteFn({\'a0\':\'a1\', \'a1\':\'a0\'})", "s": "a0"}}, '
        '"law": "lawful.reentry", "status": "FAIL"}'
    )


@pytest.mark.parametrize(
    "golden, budget",
    [("law_report.jsonl", None), ("law_report_budget20.jsonl", 20)],
)
def test_law_reports_match_golden(golden, budget, request):
    # Speed work on the suite may not change a verdict or a case count: the
    # golden files are `python -m opticat.laws` and the budget-20 report.
    from pathlib import Path

    expected = (Path(__file__).parent / "golden" / golden).read_text().splitlines()
    if budget is None:
        reports = request.getfixturevalue("default_reports")
    else:
        reports = run_all_law_checks(budget=budget)
    assert list(report_lines(reports)) == expected


# The digest of every fixture's draws.  A fixture that draws other optics can
# leave every law report unchanged, so only this digest shows it; a change
# that means to redraw the fixtures regenerates the golden reports with it.
_FIXTURE_DIGEST = "ab75c06b9f3945158afbbfc90bd0a6991855eef880b424d8d057a0cf7f3f1bf2"


def test_fixture_draws_match_their_digest():
    import hashlib

    from opticat.functors import FUNCTOR_FAMILY
    from opticat.laws import (
        concrete_family_fixture,
        iso_family_fixture,
        shape_pools,
        standard_morphism_specs,
    )
    from opticat.probes import all_functions

    def optic(o, foci, wholes):
        # an optic is its map action: map_optic(h)(s) for every probe h
        return repr([[o.map_optic(h)(s) for s in wholes] for h in all_functions(foci, foci)])

    chain = (("a1", "s"), ("a2", "a1"), ("a3", "a2"))
    signature = ("s", "a1", "a1", "a3")  # the domain of each inj table
    pools = shape_pools()
    fixtures = [concrete_family_fixture(tag) for tag in FamilyTag] + [
        iso_family_fixture(family, pools[tag]) for tag, family in FUNCTOR_FAMILY.items()
    ]
    entries = []
    for fix in fixtures:
        d = fix.doms
        entries += [
            fix.name + "".join(optic(o, d[a], d[s]) for o, (a, s) in zip(triple, chain))
            for triple in fix.triples
        ]
        entries += [
            fix.name + repr([[t(x) for x in d[k]] for t, k in zip(tables, signature)])
            for tables in fix.inj_tables
        ]
    # embed.ACHLENS.LENS and embed.ACHLENS.OPTIONAL came after the digest;
    # they draw the same pairs as embed.ACHLENS.SETTER.
    later = {"embed.ACHLENS.LENS", "embed.ACHLENS.OPTIONAL"}
    draws = {}
    for spec in standard_morphism_specs(2):
        d = spec.doms
        draws[spec.name] = [
            optic(o1, d["a1"], d["s"]) + optic(o2, d["a2"], d["a1"]) for o1, o2 in spec.pairs
        ]
        if spec.name not in later:
            entries += [spec.name + draw for draw in draws[spec.name]]
    assert all(draws[name] == draws["embed.ACHLENS.SETTER"] for name in later)
    assert len(entries) == 154
    assert hashlib.sha256("\n".join(entries).encode()).hexdigest() == _FIXTURE_DIGEST
