"""Functorizations, residual forms, and profunctor encodings per family."""

import pytest

from opticat.base import Just, Left, Nothing, Right, identity
from opticat.encode import (
    concrete_to_iso,
    embed,
    functorize,
    prof_encoding,
    unfunctorize,
)
from opticat.families import (
    AchLens,
    Adapter,
    FamilyMismatchError,
    FamilyTag,
    Lens,
    Prism,
    Setter,
    each,
    first,
    just,
)
from opticat.functors import (
    ID_SHAPE,
    IS_SUM,
    FunctorFamily,
    UnsupportedShapeError,
    compose_shapes,
    cps_shape,
    maybe_pair_shape,
    maybe_shape,
    pair_shape,
    sum_shape,
)
from opticat.iso import enhance_iso, iso_inj, observational_eq
from opticat.laws import (
    gen_iso_optic,
    gen_lawful_achlens,
    gen_lawful_adapter,
    gen_lawful_lens,
    gen_lawful_prism,
    labels,
    standard_shapes,
)
from opticat.probes import all_functions, maps_agree

DOM = ("a0", "a1")


# Functorizations ---------------------------------------------------------------

def test_lens_zoom_through_pair():
    optic = functorize(FamilyTag.LENS).enhance_op(pair_shape(("c",)))
    assert optic.get(("c", "a1")) == "a1"
    assert optic.put("b", ("c", "a0")) == ("c", "b")


def test_setter_zoom_at_identity_function():
    shape = pair_shape(("c",))
    optic = functorize(FamilyTag.SETTER).enhance_op(shape)
    for p in shape.payloads(list(DOM)):
        assert optic.over(identity)(p) == p


def test_achlens_zoom_create_defaults_residual():
    optic = functorize(FamilyTag.ACHLENS).enhance_op(maybe_pair_shape(("c",)))
    assert optic.create("b") == (Nothing(), "b")
    assert optic.get((Just("c"), "a0")) == "a0"
    assert optic.put("b", (Just("c"), "a0")) == (Just("c"), "b")


def test_prism_zoom_through_sum():
    optic = functorize(FamilyTag.PRISM).enhance_op(sum_shape(("c",)))
    assert optic.match(Left("c")) == Left(Left("c"))
    assert optic.match(Right("a0")) == Right("a0")
    assert optic.build("b") == Right("b")


def test_adapter_zoom_through_identity_like():
    from opticat.functors import Id

    optic = functorize(FamilyTag.ADAPTER).enhance_op(ID_SHAPE)
    assert optic.fwd(Id("x")) == "x"
    assert optic.bwd("x") == Id("x")


def test_functorize_rejects_non_member_shapes():
    # Every row's one-layer optic refuses, at once, each standard shape
    # outside its functor family, the continuation shape included.
    with pytest.raises(UnsupportedShapeError):
        functorize(FamilyTag.OPTIONAL).enhance_op(cps_shape())
    refusing = set()
    for tag in FamilyTag:
        fz = functorize(tag)
        for shape in (*standard_shapes().values(), cps_shape()):
            if not fz.functor_family.member(shape):
                with pytest.raises(UnsupportedShapeError):
                    fz.enhance_op(shape)
                refusing.add(tag)
    assert refusing == set(FamilyTag) - {FamilyTag.SETTER}


def test_adapter_functorization_rigidity():
    # every identity-like member shape is a two-sided inverse on payloads
    for shape in (ID_SHAPE, compose_shapes(ID_SHAPE, ID_SHAPE)):
        optic = functorize(FamilyTag.ADAPTER).enhance_op(shape)
        for p in shape.payloads(list(DOM)):
            assert optic.bwd(optic.fwd(p)) == p
        for a in DOM:
            assert optic.fwd(optic.bwd(a)) == a


def test_functorize_families():
    assert functorize(FamilyTag.ADAPTER).functor_family.name == "IdOnly"
    assert functorize(FamilyTag.LENS).functor_family.name == "IsProduct"
    assert functorize(FamilyTag.PRISM).functor_family.name == "IsSum"
    assert functorize(FamilyTag.SETTER).functor_family.name == "Functor"
    assert functorize(FamilyTag.ACHLENS).functor_family.name == "IsPointedProduct"
    assert functorize(FamilyTag.OPTIONAL).functor_family.name == "IsAffine"


def test_registry_holds_the_functor_family_of_every_concrete_family():
    # The law suite runs its iso-level laws over FUNCTOR_FAMILY, so a
    # family missing from it skips them.
    from opticat.functors import FUNCTOR_FAMILY

    assert {tag: functorize(tag).functor_family for tag in FamilyTag} == FUNCTOR_FAMILY


def test_unfunctorize_refuses_a_family_that_only_shares_a_registry_name():
    impostor = FunctorFamily("IsProduct", lambda s: True)
    with pytest.raises(FamilyMismatchError):
        unfunctorize(enhance_iso(sum_shape(("r0",)), impostor), FamilyTag.LENS)


# Residual forms ------------------------------------------------------------------

def test_lens_residual_form_pairs_the_whole():
    optic = concrete_to_iso(first())
    assert optic.forward(("a", "c")) == (("a", "c"), "a")
    assert optic.backward((("a", "c"), "b")) == ("b", "c")
    assert optic.shape.product is not None
    assert optic.family.name == "IsProduct"


def test_achlens_residual_form_is_pointed():
    al = gen_lawful_achlens(1, labels("r", 2), labels("a", 2))
    optic = concrete_to_iso(al)
    assert optic.shape.point is not None
    assert optic.family.name == "IsPointedProduct"
    assert isinstance(optic.forward("s0")[0], Just)


def test_adapter_residual_form_is_plain_injection():
    fwd = dict(zip(("s0", "s1"), DOM))
    bwd = {v: k for k, v in fwd.items()}
    adapter = Adapter(fwd=lambda s: fwd[s], bwd=lambda a: bwd[a])
    optic = concrete_to_iso(adapter)
    oracle = iso_inj(lambda s: fwd[s], lambda a: bwd[a])
    assert observational_eq(optic, oracle, DOM, DOM, ("s0", "s1"))


def test_prism_residual_form_keeps_miss():
    optic = concrete_to_iso(just())
    assert optic.forward(Nothing()) == Left(Nothing())
    assert optic.forward(Just(7)) == Right(7)
    assert optic.backward(Left(Nothing())) == Nothing()
    assert optic.backward(Right(7)) == Just(7)


def test_setter_residual_form_runs_continuations():
    optic = concrete_to_iso(each())
    k = optic.forward((1, 2, 3))
    assert k(lambda x: x * 10) == (10, 20, 30)
    assert optic.backward(k) == (1, 2, 3)


# Round trips ----------------------------------------------------------------------

def _lens_case(seed):
    dom_a = labels("a", 2)
    dom_s = tuple(f"s{i}" for i in range(4))
    return gen_lawful_lens(seed, labels("r", 2), dom_a, dom_s), dom_a, dom_s


def test_unfunctorize_round_trip_lens():
    lens, dom_a, dom_s = _lens_case(3)
    back = unfunctorize(concrete_to_iso(lens), FamilyTag.LENS)
    assert maps_agree(back, lens, dom_a, dom_a, dom_s)
    assert all(back.get(s) == lens.get(s) for s in dom_s)
    assert all(back.put(b, s) == lens.put(b, s) for b in dom_a for s in dom_s)


def test_unfunctorize_round_trip_prism():
    dom_a = labels("a", 2)
    dom_s = tuple(f"s{i}" for i in range(4))
    prism = gen_lawful_prism(4, labels("r", 2), dom_a, dom_s)
    back = unfunctorize(concrete_to_iso(prism), FamilyTag.PRISM)
    assert all(back.match(s) == prism.match(s) for s in dom_s)
    assert all(back.build(b) == prism.build(b) for b in dom_a)


def test_unfunctorize_round_trip_adapter():
    adapter = gen_lawful_adapter(5, labels("a", 3))
    back = unfunctorize(concrete_to_iso(adapter), FamilyTag.ADAPTER)
    for s in ("s0", "s1", "s2"):
        assert back.fwd(s) == adapter.fwd(s)
    for a in labels("a", 3):
        assert back.bwd(a) == adapter.bwd(a)


def test_unfunctorize_round_trip_setter():
    setter = functorize(FamilyTag.SETTER).enhance_op(pair_shape(("r0", "r1")))
    back = unfunctorize(concrete_to_iso(setter), FamilyTag.SETTER)
    wholes = pair_shape(("r0", "r1")).payloads(list(DOM))
    for h in all_functions(DOM, DOM):
        assert all(back.over(h)(p) == setter.over(h)(p) for p in wholes)


def test_unfunctorize_round_trip_achlens():
    dom_a = labels("a", 2)
    dom_s = tuple(f"s{i}" for i in range(4))
    al = gen_lawful_achlens(6, labels("r", 2), dom_a, dom_s)
    back = unfunctorize(concrete_to_iso(al), FamilyTag.ACHLENS)
    assert all(back.get(s) == al.get(s) for s in dom_s)
    assert all(back.put(b, s) == al.put(b, s) for b in dom_a for s in dom_s)
    assert all(back.create(b) == al.create(b) for b in dom_a)


def test_reverse_round_trip_achlens_small_domains():
    # iso -> concrete -> iso observationally, |S|=3 and |A|=2
    dom_s = ("s0", "s1", "s2")
    shape = maybe_pair_shape(("r0",))
    family = functorize(FamilyTag.ACHLENS).functor_family
    optic = gen_iso_optic(7, shape, family, DOM, DOM, dom_s, dom_s)
    back = concrete_to_iso(unfunctorize(optic, FamilyTag.ACHLENS))
    assert observational_eq(optic, back, DOM, DOM, dom_s)


def test_reverse_round_trip_other_families():
    dom_s = ("s0", "s1", "s2")
    cases = [
        (FamilyTag.LENS, pair_shape(("r0", "r1"))),
        (FamilyTag.PRISM, sum_shape(("r0",))),
        (FamilyTag.ADAPTER, ID_SHAPE),
        (FamilyTag.OPTIONAL, compose_shapes(pair_shape(("r0",)), maybe_shape())),
    ]
    for tag, shape in cases:
        family = functorize(tag).functor_family
        optic = gen_iso_optic(8, shape, family, DOM, DOM, dom_s, dom_s)
        back = concrete_to_iso(unfunctorize(optic, tag))
        assert observational_eq(optic, back, DOM, DOM, dom_s), tag


def test_unfunctorize_of_inj_is_inj():
    f = dict(zip(("s0", "s1"), DOM))
    g = dict(zip(DOM, ("s1", "s0")))
    for tag, cls in [
        (FamilyTag.LENS, Lens),
        (FamilyTag.PRISM, Prism),
        (FamilyTag.ADAPTER, Adapter),
        (FamilyTag.SETTER, Setter),
        (FamilyTag.ACHLENS, AchLens),
    ]:
        family = functorize(tag).functor_family
        optic = iso_inj(lambda s: f[s], lambda b: g[b], family)
        back = unfunctorize(optic, tag)
        oracle = cls.inj(lambda s: f[s], lambda b: g[b])
        assert maps_agree(back, oracle, DOM, DOM, ("s0", "s1")), tag


def test_unfunctorize_family_mismatch():
    optic = iso_inj(identity, identity, IS_SUM)
    with pytest.raises(FamilyMismatchError):
        unfunctorize(optic, FamilyTag.LENS)


# Profunctor encodings --------------------------------------------------------------

def test_decode_encode_first():
    enc = prof_encoding(FamilyTag.LENS)
    back = enc.decode(enc.encode(first()))
    assert back.get((4, "hello")) == 4
    assert back.put(12, (4, "hello")) == (12, "hello")


def test_encode_identity_at_function_arrow():
    from opticat.prof import FUNCTION_ARROW

    enc = prof_encoding(FamilyTag.LENS)
    optic = enc.encode(Lens.inj(identity, identity))
    run = optic.run(FUNCTION_ARROW, lambda x: x + 1)
    assert all(run(x) == x + 1 for x in range(4))


def test_decode_encode_500_random_lawful_lenses():
    enc = prof_encoding(FamilyTag.LENS)
    dom_a = labels("a", 2)
    dom_s = tuple(f"s{i}" for i in range(4))
    for seed in range(500):
        lens = gen_lawful_lens(seed, labels("r", 2), dom_a, dom_s)
        back = enc.decode(enc.encode(lens))
        assert all(back.get(s) == lens.get(s) for s in dom_s)
        assert all(
            back.put(b, s) == lens.put(b, s) for b in dom_a for s in dom_s
        )


def test_decode_encode_all_families():
    dom_a = labels("a", 2)
    dom_s = tuple(f"s{i}" for i in range(4))
    cases = {
        FamilyTag.LENS: gen_lawful_lens(1, labels("r", 2), dom_a, dom_s),
        FamilyTag.PRISM: gen_lawful_prism(1, labels("r", 2), dom_a, dom_s),
        FamilyTag.ADAPTER: gen_lawful_adapter(1, dom_a, ("s0", "s1")),
        FamilyTag.SETTER: functorize(FamilyTag.SETTER).enhance_op(pair_shape(("r0", "r1"))),
        FamilyTag.ACHLENS: gen_lawful_achlens(1, labels("r", 2), dom_a, dom_s),
    }
    wholes = {
        FamilyTag.ADAPTER: ("s0", "s1"),
        FamilyTag.SETTER: pair_shape(("r0", "r1")).payloads(list(dom_a)),
    }
    for tag, optic in cases.items():
        enc = prof_encoding(tag)
        back = enc.decode(enc.encode(optic))
        dom = wholes.get(tag, dom_s)
        assert maps_agree(back, optic, dom_a, dom_a, dom), tag


def test_optional_encoding_is_registered():
    enc = prof_encoding(FamilyTag.OPTIONAL)
    from opticat.laws import gen_lawful_optional

    dom_a = labels("a", 2)
    dom_s = tuple(f"s{i}" for i in range(4))
    opt = gen_lawful_optional(2, labels("m", 2), labels("k", 1), dom_a, dom_s)
    back = enc.decode(enc.encode(opt))
    assert all(back.match(s) == opt.match(s) for s in dom_s)
    assert all(
        back.put(b, s) == opt.put(b, s) for b in dom_a for s in dom_s
    )


def test_encoding_takes_an_optic_into_its_family_first():
    # A lens encodes at OPTIONAL through its embedding; a prism does not
    # embed into LENS, so the lens encoding refuses it before running it.
    dom_s = tuple(f"s{i}" for i in range(4))
    lens = gen_lawful_lens(3, labels("r", 2), labels("a", 2), dom_s)
    enc = prof_encoding(FamilyTag.OPTIONAL)
    back = enc.decode(enc.encode(lens))
    assert all(back.match(s) == Right(lens.get(s)) for s in dom_s)
    with pytest.raises(FamilyMismatchError):
        prof_encoding(FamilyTag.LENS).encode(just())


def test_decoding_takes_an_optic_up_the_order():
    # A lens's profunctor optic decodes at SETTER as the lens's embedding
    # does; a prism's does not decode at LENS.
    dom_a, wholes = ("a0", "a1"), [(a, c) for a in ("a0", "a1") for c in ("c0", "c1")]
    decoded = prof_encoding(FamilyTag.SETTER).decode(prof_encoding(FamilyTag.LENS).encode(first()))
    assert type(decoded) is Setter
    assert maps_agree(decoded, embed(first(), FamilyTag.SETTER), dom_a, dom_a, wholes)
    with pytest.raises(FamilyMismatchError):
        prof_encoding(FamilyTag.LENS).decode(prof_encoding(FamilyTag.PRISM).encode(just()))


def test_prof_encoding_unregistered_tag():
    with pytest.raises(KeyError):
        functorize("nope")
