"""Concrete family records, canonical optics, and the shared operations."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opticat.base import Just, Left, Nothing, Right, identity
from opticat.families import (
    CONCRETE_FAMILIES,
    Adapter,
    FamilyMismatchError,
    FamilyTag,
    Lens,
    Optional,
    Prism,
    dimap_optic,
    each,
    family_join,
    family_le,
    first,
    just,
    multi_map_optic,
    second,
)
from opticat.encode import concrete_to_iso, embed, functorize
from opticat.functors import (
    FUNCTOR_FAMILY,
    ID_SHAPE,
    compose_shapes,
    cps_shape,
    maybe_pair_shape,
    maybe_shape,
    pair_shape,
    sum_shape,
)
from opticat.laws import (
    check_lawful,
    gen_lawful_lens,
    gen_lawful_prism,
    gen_random_optic,
    labels,
)
from opticat.probes import all_functions, maps_agree

TAGS = list(FamilyTag)


# Worked examples --------------------------------------------------------------

def test_first_get():
    assert first().get((4, "hello")) == 4


def test_first_put():
    assert first().put(12, (4, "hello")) == (12, "hello")


def test_first_of_4_put():
    first_of_4 = first().compose(first()).compose(first())
    assert first_of_4.put(42, (((1, 2), "hi"), 4)) == (((42, 2), "hi"), 4)


def test_just_match_hit():
    assert just().match(Just(42)) == Right(42)


def test_just_match_miss():
    assert just().match(Nothing()) == Left(Nothing())


def test_just_match_refuses_a_non_option():
    with pytest.raises(TypeError, match="expected Just or Nothing, got 3"):
        just().match(3)


def test_just_just_matches():
    jj = just().compose(just())
    assert jj.match(Just(Nothing())) == Left(Just(Nothing()))
    assert jj.match(Just(Just(42))) == Right(42)
    assert jj.build(42) == Just(Just(42))


def test_just_map_optic():
    # evaluated by hand from the match/build reading: a miss passes the
    # whole value through, a hit rebuilds around the mapped focus
    run = just().map_optic(lambda x: x + 1)
    assert run(Nothing()) == Nothing()
    assert run(Just(41)) == Just(42)


def test_first_map_optic_plus_8():
    assert first().map_optic(lambda x: x + 8)((4, "hello")) == (12, "hello")


def test_each_setter():
    assert each().over(lambda x: x * 2)((1, 2, 3)) == (2, 4, 6)


def test_second_lens():
    assert second().get((4, "hello")) == "hello"
    assert second().put("bye", (4, "hello")) == (4, "bye")


# Shared operations -------------------------------------------------------------

def test_identity_lens_is_get_identity():
    lens = Lens.inj(identity, identity)
    assert lens.get("anything") == "anything"


def test_identity_prism_matches_right():
    prism = Prism.inj(identity, identity)
    assert prism.match("x") == Right("x")


def test_identity_map_optic_is_plain_application():
    for tag in TAGS:
        optic = CONCRETE_FAMILIES[tag].inj(identity, identity)
        run = optic.map_optic(lambda x: x + 10)
        assert all(run(x) == x + 10 for x in range(5))


def test_compose_rejects_family_mismatch():
    with pytest.raises(FamilyMismatchError):
        first().compose(just())


def test_compose_identity_left_and_right():
    dom_r, dom_a = labels("r", 2), labels("a", 2)
    lens = gen_lawful_lens(3, dom_r, dom_a)
    dom_s = tuple(f"s{i}" for i in range(4))
    for composite in (
        Lens.inj(identity, identity).compose(lens),
        lens.compose(Lens.inj(identity, identity)),
    ):
        assert maps_agree(composite, lens, dom_a, dom_a, dom_s)


def test_inj_lens_put_discards_whole():
    lens = Lens.inj(lambda s: s * 2, lambda b: b + 1)
    assert lens.put(10, "ignored") == 11
    assert lens.get(3) == 6


def test_inj_prism_match_always_hits():
    dom_s = ["e0", "e1", "e2", "e3", "e4"]
    fwd = {s: f"a{i % 2}" for i, s in enumerate(dom_s)}
    prism = Prism.inj(lambda s: fwd[s], lambda b: b)
    for s in dom_s:
        assert prism.match(s) == Right(fwd[s])


def test_inj_of_the_identity_pair_is_the_identity():
    for tag in TAGS:
        lhs = CONCRETE_FAMILIES[tag].inj(lambda x: x, lambda x: x)
        rhs = CONCRETE_FAMILIES[tag].inj(identity, identity)
        dom = ("u0", "u1", "u2")
        assert maps_agree(lhs, rhs, dom, dom, dom)


def test_inj_functoriality():
    # inj(f' . f, g . g') agrees with inj(f, g) . inj(f', g') on every probe
    dom_s = ("s0", "s1", "s2")
    dom_a = ("a0", "a1")
    dom_x = ("x0", "x1")
    f = dict(zip(dom_s, ("a1", "a0", "a1")))
    g = dict(zip(dom_a, ("s2", "s0")))
    f2 = dict(zip(dom_a, ("x0", "x1")))
    g2 = dict(zip(dom_x, ("a1", "a1")))
    for tag in TAGS:
        fused = CONCRETE_FAMILIES[tag].inj(lambda s: f2[f[s]], lambda y: g[g2[y]])
        staged = CONCRETE_FAMILIES[tag].inj(lambda s: f[s], lambda b: g[b]).compose(
            CONCRETE_FAMILIES[tag].inj(lambda a: f2[a], lambda y: g2[y])
        )
        assert maps_agree(fused, staged, dom_x, dom_x, dom_s)


def test_map_optic_of_inj_is_sandwich():
    dom_s = ("s0", "s1", "s2")
    dom_a = ("a0", "a1")
    f = dict(zip(dom_s, ("a1", "a0", "a1")))
    g = dict(zip(dom_a, ("s2", "s0")))
    for tag in TAGS:
        optic = CONCRETE_FAMILIES[tag].inj(lambda s: f[s], lambda b: g[b])
        for h in all_functions(dom_a, dom_a):
            run = optic.map_optic(h)
            assert all(run(s) == g[h(f[s])] for s in dom_s)


def test_map_optic_homomorphism_lens():
    dom_r, dom_a2 = labels("r", 2), labels("a", 2)
    inner_s = tuple(f"m{i}" for i in range(4))
    inner = gen_lawful_lens(7, dom_r, dom_a2, inner_s)
    outer = gen_lawful_lens(8, labels("q", 2), inner_s)
    outer_s = tuple(f"s{i}" for i in range(8))
    composite = outer.compose(inner)
    for h in all_functions(dom_a2, dom_a2):
        fused = composite.map_optic(h)
        staged = outer.map_optic(inner.map_optic(h))
        assert all(fused(s) == staged(s) for s in outer_s)


def test_composition_preserves_lens_lawfulness():
    dom_a2 = labels("x", 2)
    dom_a1 = labels("a", 4)
    inner = gen_lawful_lens(11, labels("r", 2), dom_a2, dom_a1)
    outer_s = tuple(f"s{i}" for i in range(8))
    outer = gen_lawful_lens(12, labels("q", 2), dom_a1, outer_s)
    composite = outer.compose(inner)
    assert all(r.passed for r in check_lawful(composite, dom_a2, outer_s))


def test_composition_preserves_prism_lawfulness():
    dom_a2 = labels("x", 2)
    dom_a1 = labels("a", 3)
    inner = gen_lawful_prism(13, labels("r", 1), dom_a2, dom_a1)
    outer_s = tuple(f"s{i}" for i in range(5))
    outer = gen_lawful_prism(14, labels("q", 2), dom_a1, outer_s)
    composite = outer.compose(inner)
    assert all(r.passed for r in check_lawful(composite, dom_a2, outer_s))


def test_composition_preserves_achlens_lawfulness():
    from opticat.laws import gen_lawful_achlens

    dom_a2 = labels("x", 2)
    dom_a1 = labels("a", 4)
    inner = gen_lawful_achlens(15, labels("r", 2), dom_a2, dom_a1)
    outer_s = tuple(f"s{i}" for i in range(8))
    outer = gen_lawful_achlens(16, labels("q", 2), dom_a1, outer_s)
    composite = outer.compose(inner)
    assert all(r.passed for r in check_lawful(composite, dom_a2, outer_s))


def test_composition_preserves_optional_lawfulness():
    # Outer misses reach the composite's put, which returns the outer residual.
    from opticat.laws import gen_lawful_optional

    dom_a2 = labels("x", 2)
    dom_a1 = labels("a", 3)
    inner = gen_lawful_optional(17, labels("n", 1), labels("j", 1), dom_a2, dom_a1)
    outer_s = labels("s", 5)
    outer = gen_lawful_optional(18, labels("m", 2), labels("k", 1), dom_a1, outer_s)
    assert any(isinstance(outer.match(s), Left) for s in outer_s)
    reports = check_lawful(outer.compose(inner), dom_a2, outer_s)
    assert all(r.passed and r.cases for r in reports)
    # a lawful miss residual is the whole itself, so name one that is not
    missing = Optional(match=lambda s: Left(("rest", s)), put=lambda b, s: ("put", b, s))
    assert missing.compose(inner).put("x0", "s0") == ("rest", "s0")


def test_compose_associativity_observational():
    dom = ("a0", "a1")
    mid = ("m0", "m1", "m2")
    top = ("s0", "s1", "s2", "s3")
    from opticat.laws import gen_random_optic

    for tag in TAGS:
        o1 = gen_random_optic(tag, 21, mid, top)
        o2 = gen_random_optic(tag, 22, mid, mid)
        o3 = gen_random_optic(tag, 23, dom, mid)
        lhs = o1.compose(o2.compose(o3))
        rhs = o1.compose(o2).compose(o3)
        assert maps_agree(lhs, rhs, dom, dom, top)


# multi_map_optic / dimap_optic -------------------------------------------------

def test_multi_map_all_identity():
    dom = ("a0", "a1")
    top = ("s0", "s1", "s2")
    from opticat.laws import gen_random_optic

    for tag in TAGS:
        optic = gen_random_optic(tag, 31, dom, top)
        ident = lambda x: x
        wrapped = multi_map_optic(ident, ident, ident, ident, optic)
        assert maps_agree(wrapped, optic, dom, dom, top)


def test_multi_map_reduces_to_dimap():
    dom = ("a0", "a1")
    top = ("s0", "s1", "s2")
    fs = {"t0": "s1", "t1": "s2"}
    ft = dict(zip(top, ("u0", "u1", "u0")))
    from opticat.laws import gen_random_optic

    for tag in TAGS:
        optic = gen_random_optic(tag, 32, dom, top)
        ident = lambda x: x
        lhs = multi_map_optic(ident, ident, lambda t: fs[t], lambda t: ft[t], optic)
        rhs = dimap_optic(lambda t: fs[t], lambda t: ft[t], optic)
        assert maps_agree(lhs, rhs, dom, dom, tuple(fs))


def test_dimap_on_adapter_composes_endpoints():
    f0 = {"a0": "b0", "a1": "b1"}
    g0 = {"b0": "a1", "b1": "a0"}
    adapter = Adapter(fwd=lambda s: f0[s], bwd=lambda b: g0[b])
    fs = {"z0": "a1", "z1": "a0"}
    gt = {"a0": "w0", "a1": "w1"}
    wrapped = dimap_optic(lambda z: fs[z], lambda a: gt[a], adapter)
    # unfolding the composition by hand gives fwd = f0 . fs and bwd = gt . g0
    oracle = Adapter(fwd=lambda z: f0[fs[z]], bwd=lambda b: gt[g0[b]])
    assert maps_agree(wrapped, oracle, ("b0", "b1"), ("b0", "b1"), ("z0", "z1"))


def test_dimap_identity_is_noop():
    dom = ("a0", "a1")
    top = ("s0", "s1", "s2")
    from opticat.laws import gen_random_optic

    for tag in TAGS:
        optic = gen_random_optic(tag, 33, dom, top)
        ident = lambda x: x
        assert maps_agree(dimap_optic(ident, ident, optic), optic, dom, dom, top)


def test_multi_map_functor_composition_law():
    # applying multi_map twice equals one multi_map of the composed arrows
    dom = ("a0", "a1", "a2")
    from opticat.laws import gen_random_optic

    fa1 = dict(zip(dom, ("a1", "a2", "a0")))
    fa2 = dict(zip(dom, ("a2", "a2", "a1")))
    fb1 = dict(zip(dom, ("a0", "a0", "a1")))
    fb2 = dict(zip(dom, ("a1", "a0", "a2")))
    for tag in TAGS:
        optic = gen_random_optic(tag, 34, dom, dom)
        twice = multi_map_optic(
            lambda a: fa1[a], lambda b: fb1[b], lambda s: fa2[s], lambda t: fb2[t],
            multi_map_optic(
                lambda a: fa2[a], lambda b: fb2[b], lambda s: fa1[s], lambda t: fb1[t],
                optic,
            ),
        )
        fused = multi_map_optic(
            lambda a: fa1[fa2[a]],
            lambda b: fb2[fb1[b]],
            lambda s: fa1[fa2[s]],
            lambda t: fb2[fb1[t]],
            optic,
        )
        assert maps_agree(twice, fused, dom, dom, dom)


# Family tag lattice -------------------------------------------------------------

def test_join_lens_prism_is_optional():
    assert family_join(FamilyTag.LENS, FamilyTag.PRISM) == FamilyTag.OPTIONAL


def test_setter_is_top():
    for tag in TAGS:
        assert family_join(tag, FamilyTag.SETTER) == FamilyTag.SETTER


def test_adapter_is_bottom():
    for tag in TAGS:
        assert family_join(FamilyTag.ADAPTER, tag) == tag
        assert family_le(FamilyTag.ADAPTER, tag)


def test_join_idempotent_commutative():
    for a, b in itertools.product(TAGS, TAGS):
        assert family_join(a, a) == a
        assert family_join(a, b) == family_join(b, a)


def test_join_associative_all_triples():
    for a, b, c in itertools.product(TAGS, TAGS, TAGS):
        assert family_join(a, family_join(b, c)) == family_join(family_join(a, b), c)


@given(st.sampled_from(TAGS), st.sampled_from(TAGS))
def test_join_is_upper_bound(a, b):
    j = family_join(a, b)
    assert family_le(a, j) and family_le(b, j)


# Embeddings along the order ------------------------------------------------------

def test_embed_same_family_is_identity():
    for tag in TAGS:
        optic = CONCRETE_FAMILIES[tag].inj(identity, identity)
        assert embed(optic, tag) is optic


@pytest.mark.parametrize(
    "src,dst",
    [
        (FamilyTag.SETTER, FamilyTag.LENS),
        (FamilyTag.OPTIONAL, FamilyTag.LENS),
        (FamilyTag.PRISM, FamilyTag.LENS),
    ],
)
def test_embed_rejects_pairs_outside_the_order(src, dst):
    with pytest.raises(FamilyMismatchError):
        embed(CONCRETE_FAMILIES[src].inj(identity, identity), dst)


class _FieldProxy:
    """Forwards a record's ``tag`` and its fields, and nothing else."""

    def __init__(self, record):
        self.tag = record.tag
        for name in type(record).__slots__:
            setattr(self, name, getattr(record, name))


def test_embed_reads_only_tag_and_fields():
    dom_a, dom_s = labels("a", 2), labels("s", 3)
    pairs = [(a, b) for a in TAGS for b in TAGS if a != b and family_le(a, b)]
    assert len(pairs) == 13
    for a, b in pairs:
        record = gen_random_optic(a, 0, dom_a, dom_s)
        embedded = embed(_FieldProxy(record), b)
        assert type(embedded) is CONCRETE_FAMILIES[b]
        assert maps_agree(embedded, record, dom_a, dom_a, dom_s), (a, b)


def test_residual_shapes_belong_to_every_larger_family():
    # embed reads a residual form again in the larger family's functor family
    dom_a, dom_s = labels("a", 2), labels("s", 3)
    for a, b in itertools.product(TAGS, TAGS):
        if family_le(a, b):
            shape = concrete_to_iso(gen_random_optic(a, 0, dom_a, dom_s)).shape
            assert functorize(b).functor_family.member(shape), (a, b)


def test_the_order_is_inclusion_of_the_rows_functor_families():
    # a <= b exactly when row b's functor family holds row a's residual
    # shape, and exactly when it holds every witness shape in row a's
    dom_a, dom_s = labels("a", 2), labels("s", 3)
    pair, maybe = pair_shape(), maybe_shape()
    witnesses = [
        ID_SHAPE, pair, maybe_pair_shape(), sum_shape(), maybe, cps_shape(),
        compose_shapes(pair, maybe), compose_shapes(ID_SHAPE, ID_SHAPE),
    ]
    for a, b in itertools.product(TAGS, TAGS):
        shape = concrete_to_iso(gen_random_optic(a, 0, dom_a, dom_s)).shape
        assert family_le(a, b) == FUNCTOR_FAMILY[b].member(shape), (a, b)
        fa, fb = FUNCTOR_FAMILY[a], FUNCTOR_FAMILY[b]
        included = all(fb.member(w) for w in witnesses if fa.member(w))
        assert family_le(a, b) == included, (a, b)


def test_embeddings_compose_along_the_order():
    dom_a, dom_s = labels("a", 2), labels("s", 3)
    chains = [
        (a, b, c) for a, b, c in itertools.product(TAGS, TAGS, TAGS)
        if family_le(a, b) and family_le(b, c)
    ]
    assert len(chains) == 45
    for a, b, c in chains:
        optic = gen_random_optic(a, 0, dom_a, dom_s)
        assert maps_agree(embed(embed(optic, b), c), embed(optic, c), dom_a, dom_a, dom_s)
