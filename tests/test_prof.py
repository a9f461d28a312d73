"""Profunctor optics: operators, prebuilt optics, representation round trips."""

import itertools

import pytest

from opticat.base import Just, Left, Nothing, Right, identity
from opticat.encode import concrete_to_iso, embed, prof_encoding, unfunctorize
from opticat.families import FamilyTag, Optional, each, family_join, first, just, second
from opticat.functors import (
    FUNCTOR_FAMILY,
    IS_PRODUCT,
    IS_SUM,
    compose_shapes,
    maybe_shape,
    pair_shape,
    sum_shape,
)
from opticat.iso import observational_eq
from opticat.prof import (
    FUNCTION_ARROW,
    GETTING,
    MATCHING,
    UnsupportedOperatorError,
    get_operator,
    iso_to_prof,
    match_operator,
    prof_first,
    prof_inj,
    prof_just,
    prof_right,
    prof_second,
    prof_to_iso,
)
from opticat.laws import gen_iso_optic, gen_lawful_lens, gen_random_optic, labels
from opticat.probes import all_functions, maps_agree

DOM = ("a0", "a1")


# run and operators ---------------------------------------------------------------

def test_identity_leaves_value_unchanged():
    ident = prof_inj(identity, identity, IS_PRODUCT)
    h = lambda x: x + 1
    assert ident.run(FUNCTION_ARROW, h)(41) == 42
    assert ident.run(GETTING, identity)("s") == "s"


def test_prof_first_function_arrow():
    run = prof_first().run(FUNCTION_ARROW, lambda x: x + 8)
    assert run((4, "c")) == (12, "c")


def test_prof_second_function_arrow():
    run = prof_second().run(FUNCTION_ARROW, lambda x: x + 1)
    assert run(("c", 1)) == ("c", 2)


def test_get_operator_prof_first():
    assert get_operator(prof_first())((4, "hello")) == 4


def test_get_operator_identity():
    assert get_operator(prof_inj(identity, identity, IS_PRODUCT))("s0") == "s0"


def test_get_operator_agrees_with_concrete_lens():
    dom_a = labels("a", 2)
    dom_s = tuple(f"s{i}" for i in range(4))
    lens = gen_lawful_lens(3, labels("r", 2), dom_a, dom_s)
    encoded = prof_encoding(FamilyTag.LENS).encode(lens)
    reader = get_operator(encoded)
    assert all(reader(s) == lens.get(s) for s in dom_s)


def test_match_operator_prof_just():
    m = match_operator(prof_just())
    assert m(Just(42)) == Right(42)
    assert m(Nothing()) == Left(Nothing())


def test_match_operator_identity_orientation():
    m = match_operator(prof_inj(identity, identity, IS_SUM))
    assert m("s") == Right("s")


def test_match_operator_just_just():
    m = match_operator(prof_just().compose(prof_just()))
    assert m(Just(Nothing())) == Left(Just(Nothing()))
    assert m(Just(Just(42))) == Right(42)


def test_build_through_decode():
    decoded = prof_encoding(FamilyTag.PRISM).decode(prof_just().compose(prof_just()))
    assert decoded.build(42) == Just(Just(42))


def test_prof_right_function_arrow():
    run = prof_right().run(FUNCTION_ARROW, lambda x: x + 1)
    assert run(Right(1)) == Right(2)
    assert run(Left("c")) == Left("c")


def test_prof_first_twice_is_nested_pair_map():
    stacked = prof_first().compose(prof_first())
    run = stacked.run(FUNCTION_ARROW, lambda x: x + 1)
    assert run(((1, 2), 3)) == ((2, 2), 3)
    assert get_operator(stacked)(((1, 2), 3)) == 1


def test_cross_family_optional_matches_oracle():
    # second . just needs both product and sum enhancement; at MATCHING it
    # reproduces exactly the concrete optional semantics
    composite = prof_second().compose(prof_just())
    m = match_operator(composite)

    def oracle_match(s):
        c, mb = s
        return Right(mb.value) if isinstance(mb, Just) else Left((c, Nothing()))

    oracle = Optional(
        match=oracle_match,
        put=lambda b, s: (s[0], Just(b)) if isinstance(s[1], Just) else s,
    )
    wholes = [(c, mb) for c in ("c0", "c1") for mb in (Nothing(), Just("a0"), Just("a1"))]
    for s in wholes:
        assert m(s) == oracle.match(s)
    run = composite.run(FUNCTION_ARROW, lambda a: a.upper())
    for s in wholes:
        assert run(s) == oracle.map_optic(lambda a: a.upper())(s)


def test_composition_across_families_lands_at_the_join():
    # For every ordered pair of families, the profunctor composite and the
    # residual-form composite are over the join's functor family, agree, and
    # decode there as the tag-lattice route.
    dom_s, dom_a1, dom_a2 = labels("s", 3), labels("a", 2), labels("x", 2)
    pairs = list(itertools.product(FamilyTag, FamilyTag))
    assert len(pairs) == 36
    for a, b in pairs:
        j = family_join(a, b)
        o1 = gen_random_optic(a, 0, dom_a1, dom_s)
        o2 = gen_random_optic(b, 1, dom_a2, dom_a1)
        oracle = embed(o1, j).compose(embed(o2, j))
        composite = prof_encoding(a).encode(o1).compose(prof_encoding(b).encode(o2))
        assert composite.family is FUNCTOR_FAMILY[j], (a, b)
        decoded = prof_encoding(j).decode(composite)
        assert maps_agree(decoded, oracle, dom_a2, dom_a2, dom_s), (a, b)
        residual = concrete_to_iso(o1).compose(concrete_to_iso(o2))
        assert residual.family is FUNCTOR_FAMILY[j], (a, b)
        assert maps_agree(unfunctorize(residual, j), oracle, dom_a2, dom_a2, dom_s), (a, b)
        assert observational_eq(residual, prof_to_iso(composite), dom_a2, dom_a2, dom_s), (a, b)


def test_get_operator_unsupported_on_sum_family():
    with pytest.raises(UnsupportedOperatorError):
        get_operator(prof_just())(Just(1))


def test_get_operator_unsupported_on_setter_family():
    encoded = prof_encoding(FamilyTag.SETTER).encode(each())
    with pytest.raises(UnsupportedOperatorError):
        get_operator(encoded)((1, 2))


def test_match_operator_unsupported_on_setter_family():
    encoded = prof_encoding(FamilyTag.SETTER).encode(each())
    with pytest.raises(UnsupportedOperatorError):
        match_operator(encoded)((1, 2))


# Representation theorem ----------------------------------------------------------

def test_iso_to_prof_of_inj_is_dimap():
    f = dict(zip(DOM, ("a1", "a0")))
    g = dict(zip(DOM, ("a0", "a0")))
    from opticat.iso import iso_inj

    lhs = iso_to_prof(iso_inj(lambda s: f[s], lambda b: g[b], IS_PRODUCT))
    rhs = prof_inj(lambda s: f[s], lambda b: g[b], IS_PRODUCT)
    assert maps_agree(lhs, rhs, DOM, DOM, DOM)


def test_round_trip_prof_to_iso_of_iso_to_prof():
    shape = pair_shape(("r0", "r1"))
    optic = gen_iso_optic(40, shape, IS_PRODUCT, DOM, DOM, DOM, DOM)
    back = prof_to_iso(iso_to_prof(optic))
    assert observational_eq(optic, back, DOM, DOM, DOM)


def test_round_trip_iso_to_prof_of_prof_to_iso():
    shape = sum_shape(("r0",))
    optic = iso_to_prof(gen_iso_optic(41, shape, IS_SUM, DOM, DOM, DOM, DOM))
    again = iso_to_prof(prof_to_iso(optic))
    assert maps_agree(optic, again, DOM, DOM, DOM)


def test_prof_to_iso_of_pure_zoom_is_pure_zoom():
    from opticat.iso import enhance_iso

    shape = pair_shape(("r0", "r1"))
    optic = iso_to_prof(enhance_iso(shape, IS_PRODUCT))
    back = prof_to_iso(optic)
    payloads = shape.payloads(list(DOM))
    assert observational_eq(back, enhance_iso(shape, IS_PRODUCT), DOM, DOM, payloads)


def test_prof_to_iso_of_encoded_lens_is_lens_to_iso():
    dom_a = labels("a", 2)
    dom_s = tuple(f"s{i}" for i in range(4))
    lens = gen_lawful_lens(7, labels("r", 2), dom_a, dom_s)
    encoded = prof_encoding(FamilyTag.LENS).encode(lens)
    back = prof_to_iso(encoded)
    assert observational_eq(
        back, concrete_to_iso(lens), dom_a, dom_a, dom_s
    )


def test_prebuilt_optics_round_trip():
    wholes = {
        "first": [(a, "c") for a in DOM],
        "second": [("c", a) for a in DOM],
        "just": [Nothing()] + [Just(a) for a in DOM],
        "right": [Left("c")] + [Right(a) for a in DOM],
    }
    prebuilt = {
        "first": prof_first(),
        "second": prof_second(),
        "just": prof_just(),
        "right": prof_right(),
    }
    for name, optic in prebuilt.items():
        again = iso_to_prof(prof_to_iso(optic))
        assert maps_agree(optic, again, DOM, DOM, wholes[name]), name


def test_the_two_spellings_of_the_canonical_optics_agree():
    # prof_first/second/just are residual forms, families.first/second/just
    # hand-written records; over small domains they agree on every probe
    # and whole, and under each one's reader.
    pairs = [(x, y) for x in DOM for y in DOM]
    options = [Nothing()] + [Just(a) for a in DOM]
    for prof, concrete, wholes, read, concrete_read in [
        (prof_first(), first(), pairs, get_operator, lambda o: o.get),
        (prof_second(), second(), pairs, get_operator, lambda o: o.get),
        (prof_just(), just(), options, match_operator, lambda o: o.match),
    ]:
        for h in all_functions(DOM, DOM):
            run, concrete_run = prof.map_optic(h), concrete.map_optic(h)
            assert [run(s) for s in wholes] == [concrete_run(s) for s in wholes], h
        assert [read(prof)(s) for s in wholes] == [concrete_read(concrete)(s) for s in wholes]


# Capability plumbing --------------------------------------------------------------

def test_matching_enhance_requires_affine_shape():
    from opticat.functors import cps_shape

    with pytest.raises(UnsupportedOperatorError):
        MATCHING.enhance(cps_shape(), Right)


def test_unknown_shape_error_names_the_shape():
    from opticat.functors import cps_shape

    with pytest.raises(UnsupportedOperatorError, match="Cps"):
        GETTING.enhance(cps_shape(), identity)


def test_matching_enhance_on_compose_shape():
    shape = compose_shapes(pair_shape(("r0",)), maybe_shape())
    from opticat.functors import Comp

    enhanced = MATCHING.enhance(shape, Right)
    assert enhanced(Comp(("r0", Just("a1")))) == Right("a1")
    assert enhanced(Comp(("r0", Nothing()))) == Left(Comp(("r0", Nothing())))
