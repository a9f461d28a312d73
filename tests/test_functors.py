"""Container shapes: functor laws, capability round trips, family registry."""

import copy
import itertools

import pytest

from opticat.base import UNIT, Just, Left, Nothing, Right
from opticat.families import FamilyMismatchError
from opticat.functors import (
    ANY_FUNCTOR,
    FAMILY_TAG,
    FUNCTOR_FAMILY,
    ID_ONLY,
    ID_SHAPE,
    IS_POINTED_PRODUCT,
    IS_PRODUCT,
    IS_SUM,
    Comp,
    ContainerShape,
    FunctorFamily,
    Id,
    UnsupportedShapeError,
    affine_match,
    affine_supported,
    compose_shapes,
    cps_shape,
    joined,
    maybe_pair_shape,
    maybe_shape,
    pair_shape,
    sum_shape,
)
from opticat.probes import all_functions

DOM = ("a0", "a1", "a2")


def enumerable_shapes():
    pair = pair_shape(("r0", "r1"))
    return [
        ID_SHAPE,
        pair,
        maybe_pair_shape(("r0", "r1")),
        sum_shape(("r0", "r1")),
        maybe_shape(),
        compose_shapes(pair, pair_shape(("q0",))),
        compose_shapes(sum_shape(("r0",)), maybe_shape()),
        compose_shapes(pair, maybe_shape()),
        compose_shapes(ID_SHAPE, ID_SHAPE),
    ]


@pytest.mark.parametrize("shape", enumerable_shapes(), ids=lambda s: s.name)
def test_functor_identity(shape):
    for p in shape.payloads(list(DOM)):
        assert shape.map(lambda a: a, p) == p


@pytest.mark.parametrize("shape", enumerable_shapes(), ids=lambda s: s.name)
def test_functor_composition(shape):
    fns = all_functions(DOM, DOM)
    for f, g in itertools.product(fns[:9], fns[:9]):
        for p in shape.payloads(list(DOM)):
            assert shape.map(lambda a: f(g(a)), p) == shape.map(f, shape.map(g, p))


@pytest.mark.parametrize(
    "shape",
    [s for s in enumerable_shapes() if s.product],
    ids=lambda s: s.name,
)
def test_product_round_trip(shape):
    for p in shape.payloads(list(DOM)):
        unit_part, focus = shape.product.to_product(p)
        assert shape.product.from_product((unit_part, focus)) == p
        assert shape.product.to_product(shape.product.from_product((unit_part, focus))) == (
            unit_part,
            focus,
        )


@pytest.mark.parametrize(
    "shape",
    [s for s in enumerable_shapes() if s.sum],
    ids=lambda s: s.name,
)
def test_sum_round_trip(shape):
    for p in shape.payloads(list(DOM)):
        e = shape.sum.to_sum(p)
        assert shape.sum.from_sum(e) == p
        assert shape.sum.to_sum(shape.sum.from_sum(e)) == e


def test_pair_to_product_shape():
    shape = pair_shape(("r0",))
    assert shape.product.to_product(("r0", "a1")) == (("r0", UNIT), "a1")
    assert shape.product.from_product((("r0", UNIT), "a2")) == ("r0", "a2")


def test_compose_pair_pair_nested_unit():
    # the outer residual routes through the inner product: the unit part is
    # a nested pair of units around both residuals
    shape = compose_shapes(pair_shape(("x", "y")), pair_shape(("u", "v")))
    payload = Comp(("x", ("v", "a2")))
    unit_part, focus = shape.product.to_product(payload)
    assert focus == "a2"
    assert unit_part == Comp(("x", ("v", UNIT)))
    assert shape.product.from_product((unit_part, focus)) == payload
    for p in shape.payloads(list(DOM)):
        assert shape.product.from_product(shape.product.to_product(p)) == p


def test_compose_with_id_acts_like_inner():
    inner = pair_shape(("r0", "r1"))
    shape = compose_shapes(ID_SHAPE, inner)
    bump = {"a0": "a1", "a1": "a2", "a2": "a0"}
    for p in inner.payloads(list(DOM)):
        wrapped = Comp(Id(p))
        assert shape.map(lambda a: bump[a], wrapped) == Comp(Id(inner.map(lambda a: bump[a], p)))


def test_maybe_pair_point():
    shape = maybe_pair_shape(("r0",))
    assert shape.point.unit == (Nothing(), UNIT)
    assert shape.product.from_product((shape.point.unit, "a0")) == (Nothing(), "a0")


def test_compose_point_is_nested_unit():
    shape = compose_shapes(maybe_pair_shape(("r0",)), maybe_pair_shape(("q0",)))
    assert shape.point.unit == Comp(((Nothing(), (Nothing(), UNIT))))
    assert shape.product.to_product(
        shape.product.from_product((shape.point.unit, "a1"))
    ) == (shape.point.unit, "a1")


def test_point_requires_product():
    from opticat.functors import ContainerShape, PointCap

    with pytest.raises(ValueError):
        ContainerShape(name="bad", map=lambda h, p: p, point=PointCap(unit=None))


def test_sum_shape_map_only_touches_hits():
    shape = sum_shape(("r0",))
    assert shape.map(lambda a: a.upper(), Left("r0")) == Left("r0")
    assert shape.map(lambda a: a.upper(), Right("a0")) == Right("A0")


def test_id_shape_sum_has_no_residual():
    with pytest.raises(ValueError):
        ID_SHAPE.sum.from_sum(Left("r"))


def test_cps_shape_functor_laws():
    shape = cps_shape()
    dom_b = ("b0", "b1")
    probes = all_functions(DOM, dom_b)

    def table_cont(result_by_fn):
        return lambda fn: result_by_fn[tuple(fn(a) for a in DOM)]

    results = {tuple(fn(a) for a in DOM): i for i, fn in enumerate(probes)}
    k = table_cont(results)
    assert all(shape.map(lambda a: a, k)(fn) == k(fn) for fn in probes)
    rot = {"a0": "a1", "a1": "a2", "a2": "a0"}
    swap = {"a0": "a2", "a1": "a1", "a2": "a0"}
    fused = shape.map(lambda a: rot[swap[a]], k)
    staged = shape.map(lambda a: rot[a], shape.map(lambda a: swap[a], k))
    assert all(fused(fn) == staged(fn) for fn in probes)


# Family registry ---------------------------------------------------------------

def test_registry_membership():
    assert IS_PRODUCT.member(pair_shape(("r0",)))
    assert not IS_PRODUCT.member(sum_shape(("r0",)))
    assert IS_POINTED_PRODUCT.member(maybe_pair_shape(("r0",)))
    assert not IS_POINTED_PRODUCT.member(pair_shape(("r0",)))
    assert IS_SUM.member(maybe_shape())
    assert not IS_SUM.member(pair_shape(("r0",)))
    assert ID_ONLY.member(ID_SHAPE)
    assert not ID_ONLY.member(pair_shape(("r0",)))
    assert ANY_FUNCTOR.member(cps_shape())


def test_a_family_that_only_shares_a_registry_name_is_off_the_registry():
    impostor = FunctorFamily("IsProduct", lambda s: True)
    assert impostor != IS_PRODUCT
    assert impostor not in FAMILY_TAG
    with pytest.raises(FamilyMismatchError):
        joined(IS_SUM, impostor)


def test_joined_keeps_one_family_and_refuses_two_off_the_registry():
    off = FunctorFamily("OffRegistry", lambda s: True)
    for family in [*FUNCTOR_FAMILY.values(), off]:
        assert joined(family, family) is family
    # a copy is the same family: records compare by their fields
    copied = copy.deepcopy(off)
    assert copied is not off and joined(off, copied) is off
    # distinct lambdas make distinct families
    with pytest.raises(FamilyMismatchError):
        joined(off, FunctorFamily("OffRegistry", lambda s: True))


def test_monoid_closure():
    pools = {
        ANY_FUNCTOR: [pair_shape(("r0",)), maybe_shape(), cps_shape()],
        IS_PRODUCT: [pair_shape(("r0",)), maybe_pair_shape(("q0",))],
        IS_SUM: [sum_shape(("r0",)), maybe_shape()],
        IS_POINTED_PRODUCT: [maybe_pair_shape(("r0",)), maybe_pair_shape(("q0",))],
        ID_ONLY: [ID_SHAPE],
    }
    for family, pool in pools.items():
        assert family.member(ID_SHAPE), family.name
        for f, g in itertools.product(pool, pool):
            assert family.member(compose_shapes(f, g)), (family.name, f.name, g.name)


def test_affine_match_pair():
    shape = pair_shape(("r0",))
    assert affine_match(shape, ("r0", "a1")) == Right("a1")


def test_affine_match_sum():
    shape = sum_shape(("r0",))
    assert affine_match(shape, Left("r0")) == Left(Left("r0"))
    assert affine_match(shape, Right("a0")) == Right("a0")


def test_affine_match_compose_pair_maybe():
    shape = compose_shapes(pair_shape(("r0",)), maybe_shape())
    assert affine_match(shape, Comp(("r0", Just("a0")))) == Right("a0")
    assert affine_match(shape, Comp(("r0", Nothing()))) == Left(Comp(("r0", Nothing())))


def test_id_only_is_a_pointed_product_that_is_also_a_sum():
    # A shape that is both a product and a sum is the identity; IdOnly also
    # asks for the point, so every IdOnly shape is in every other registry
    # family and the family order is inclusion for every shape.
    from opticat.encode import functorize
    from opticat.families import FamilyTag

    sh = ID_SHAPE
    composed = compose_shapes(sh, sh)
    assert ID_ONLY.member(sh) and ID_ONLY.member(composed)
    unpointed = ContainerShape("ProductSum", map=sh.map, product=sh.product, sum=sh.sum)
    assert not ID_ONLY.member(unpointed)
    assert IS_PRODUCT.member(unpointed) and IS_SUM.member(unpointed)
    adapter = functorize(FamilyTag.ADAPTER).enhance_op(composed)
    assert [adapter.bwd(a) for a in DOM] == [Comp(Id(Id(a))) for a in DOM]
    assert [adapter.fwd(adapter.bwd(a)) for a in DOM] == list(DOM)
    assert all(adapter.bwd(adapter.fwd(p)) == p for p in composed.payloads(DOM))


def test_affine_unsupported_on_cps():
    assert not affine_supported(cps_shape())
    with pytest.raises(UnsupportedShapeError):
        affine_match(cps_shape(), lambda fn: None)


# Payload enumerations ------------------------------------------------------------

def memo_shapes():
    from opticat.laws import standard_shapes

    shapes = list(standard_shapes().values())
    nested = compose_shapes(compose_shapes(pair_shape(("r0",)), maybe_shape()), ID_SHAPE)
    return shapes + [nested]


@pytest.mark.parametrize("shape", memo_shapes(), ids=lambda s: s.name)
def test_payloads_enumerate_once_per_domain(shape):
    # Equal domains share one tuple, whatever holds their elements.
    from opticat.laws import labels

    first = shape.payloads(list(DOM))
    assert type(first) is tuple
    for dom in (list(DOM), DOM, labels("a", 3)):
        assert shape.payloads(dom) is first
    other = shape.payloads(DOM[:2])
    assert other is not first and shape.payloads(list(DOM[:2])) is other


def test_payload_memo_belongs_to_its_shape():
    # No table outlives the shape: two shapes built alike enumerate apart.
    assert pair_shape(("r0",)).payloads(DOM) is not pair_shape(("r0",)).payloads(DOM)


@pytest.mark.parametrize("shape", memo_shapes(), ids=lambda s: s.name)
def test_shapes_survive_deepcopy(shape):
    import copy

    assert copy.deepcopy(shape) == shape


def test_payload_order_is_pinned():
    # Seeded fixtures draw from the enumeration with rng.choice, so its
    # order is part of every fixture.
    assert pair_shape(("r0", "r1")).payloads(DOM[:2]) == (
        ("r0", "a0"), ("r0", "a1"), ("r1", "a0"), ("r1", "a1"),
    )
    shape = compose_shapes(sum_shape(("r0",)), maybe_shape())
    assert shape.payloads(DOM[:2]) == (
        Comp(Left("r0")),
        Comp(Right(Nothing())),
        Comp(Right(Just("a0"))),
        Comp(Right(Just("a1"))),
    )
