"""Container shapes: runtime witnesses for one-parameter containers.

A shape packages a ``map`` action over tagged payloads together with the
capability records (product, sum, point) that decide which shape families
it belongs to.  Higher-kinded quantification is defunctionalized:
"a container F" is a :class:`ContainerShape` value, and "an F a" is a payload
the shape's operations know how to interpret.  The pointed pair is the pair
over optional residuals plus a point, so the pair's code is stated once.
"""

from .base import UNIT, Box, Just, Left, Nothing, Record, Right
from .families import FamilyMismatchError, FamilyTag, family_join


class UnsupportedShapeError(TypeError):
    """Raised when an operation needs a capability a shape does not carry."""


class Id(Box):
    """Payload wrapper for the identity container."""

    __slots__ = ("value",)


class Comp(Box):
    """Payload wrapper for a composed container: an outer payload whose
    focus slots hold inner payloads."""

    __slots__ = ("value",)


class ProductCap(Record):
    # to_product: payload -> (unit_payload, focus)
    # from_product: (unit_payload, focus) -> payload
    __slots__ = ("to_product", "from_product")


class SumCap(Record):
    # to_sum: payload -> Left(residual) | Right(focus)
    # from_sum: Left(residual) | Right(focus) -> payload
    __slots__ = ("to_sum", "from_sum")


class PointCap(Record):
    __slots__ = ("unit",)  # the distinguished unit payload


class ContainerShape(Record):
    # map: (h, payload) -> payload.  payloads enumerates all payloads over a
    # finite focus domain; None when the payload space is not enumerable
    # (e.g. continuation containers).  The enumeration is closed under map:
    # map(h, p) is in payloads(B) for every p in payloads(A) and h: A -> B
    # (the functor.payloads_closed law), and iso.observational_eq relies on
    # it.  The constructors below enumerate once per domain and hand every
    # equal domain (a list or tuple of the same elements) the same tuple, so
    # domains must be hashable and callers must not expect a fresh list.  The
    # memo belongs to the shape; a payloads function passed in here runs as
    # given.  parts is (f, g) on a compose_shapes result and None otherwise;
    # two results over the same parts act alike.  point needs product, so
    # the family order is inclusion.
    __slots__ = ("name", "map", "product", "sum", "point", "payloads", "parts")

    def __init__(
        self, name, map, product=None, sum=None, point=None, payloads=None, parts=None,
    ):
        super().__init__(name, map, product, sum, point, payloads, parts)
        if self.point is not None and self.product is None:
            raise ValueError(f"shape {self.name}: point requires product")

    def __repr__(self):
        return f"ContainerShape({self.name})"


class FunctorFamily(Record):
    """A named family of shapes, decided by a membership predicate.

    Registry families are closed under :data:`ID_SHAPE` and
    :func:`compose_shapes` by construction of the capability propagation.
    """

    __slots__ = ("name", "member")

    def __repr__(self):
        return f"FunctorFamily({self.name})"


# Shape constructors ---------------------------------------------------------

def _enumerated(enum):
    """``enum`` run once per domain: equal domains get the same tuple."""
    memo = {}

    def payloads(dom):
        dom = tuple(dom)
        found = memo.get(dom)
        if found is None:
            found = memo[dom] = tuple(enum(dom))
        return found

    return payloads


def _mk_id_shape():
    def from_sum(e):
        if isinstance(e, Right):
            return Id(e.value)
        raise ValueError("identity container has no residual")

    return ContainerShape(
        name="Id",
        map=lambda h, p: Id(h(p.value)),
        product=ProductCap(
            to_product=lambda p: (Id(UNIT), p.value),
            from_product=lambda pair: Id(pair[1]),
        ),
        sum=SumCap(to_sum=lambda p: Right(p.value), from_sum=from_sum),
        point=PointCap(unit=Id(UNIT)),
        payloads=_enumerated(lambda dom: [Id(a) for a in dom]),
    )


ID_SHAPE = _mk_id_shape()


def pair_shape(residuals=None, name=None) -> ContainerShape:
    """The (c, -) container.  Pass the residual domain to make payloads
    enumerable for exhaustive checks."""
    enum = None
    if residuals is not None:
        residuals = tuple(residuals)
        enum = _enumerated(lambda dom: [(c, a) for c in residuals for a in dom])
    return ContainerShape(
        name=name or "Pair",
        map=lambda h, p: (p[0], h(p[1])),
        product=ProductCap(
            to_product=lambda p: ((p[0], UNIT), p[1]),
            from_product=lambda pair: (pair[0][0], pair[1]),
        ),
        payloads=enum,
    )


def maybe_pair_shape(residuals=None, name=None) -> ContainerShape:
    """The (option c, -) container: the pair over residuals Nothing() and
    Just(c), pointed at Nothing()."""
    if residuals is not None:
        residuals = [Nothing()] + [Just(c) for c in residuals]
    pair = pair_shape(residuals, name or "MaybePair")
    return ContainerShape(
        pair.name, pair.map, pair.product, point=PointCap(unit=(Nothing(), UNIT)),
        payloads=pair.payloads,
    )


def sum_shape(residuals=None, name=None) -> ContainerShape:
    """The (c + -) container; payloads are Left(residual) or Right(focus)."""
    enum = None
    if residuals is not None:
        residuals = tuple(residuals)
        enum = _enumerated(lambda dom: [Left(c) for c in residuals] + [Right(a) for a in dom])
    return ContainerShape(
        name=name or "Sum",
        map=lambda h, p: Right(h(p.value)) if isinstance(p, Right) else p,
        sum=SumCap(to_sum=lambda p: p, from_sum=lambda e: e),
        payloads=enum,
    )


def maybe_shape() -> ContainerShape:
    """The option container; a sum whose residual is the unit value."""
    return ContainerShape(
        name="Maybe",
        map=lambda h, p: Just(h(p.value)) if isinstance(p, Just) else p,
        sum=SumCap(
            to_sum=lambda p: Right(p.value) if isinstance(p, Just) else Left(UNIT),
            from_sum=lambda e: Just(e.value) if isinstance(e, Right) else Nothing(),
        ),
        payloads=_enumerated(lambda dom: [Nothing()] + [Just(a) for a in dom]),
    )


def cps_shape() -> ContainerShape:
    """The continuation container: payloads are functions (a -> b) -> t."""

    def cmap(h, k):
        return lambda fn: k(lambda a: fn(h(a)))

    return ContainerShape(name="Cps", map=cmap)


def compose_shapes(f: ContainerShape, g: ContainerShape) -> ContainerShape:
    """Nest two containers; capabilities propagate when both sides carry
    them.  The composed product routes the outer residual through the
    inner's from_product so the unit part nests correctly."""

    def cmap(h, p):
        return Comp(f.map(lambda gp: g.map(h, gp), p.value))

    product = None
    if f.product and g.product:
        def to_product(p):
            f1, gp = f.product.to_product(p.value)
            g1, x = g.product.to_product(gp)
            return (Comp(f.product.from_product((f1, g1))), x)

        def from_product(pair):
            fg1, x = pair
            f1, g1 = f.product.to_product(fg1.value)
            inner = g.product.from_product((g1, x))
            return Comp(f.product.from_product((f1, inner)))

        product = ProductCap(to_product, from_product)

    sumcap = None
    if f.sum and g.sum:
        def to_sum(p):
            e = f.sum.to_sum(p.value)
            if isinstance(e, Left):
                return Left(Left(e.value))
            e2 = g.sum.to_sum(e.value)
            if isinstance(e2, Left):
                return Left(Right(e2.value))
            return e2

        def from_sum(e):
            if isinstance(e, Right):
                return Comp(f.sum.from_sum(Right(g.sum.from_sum(e))))
            r = e.value
            if isinstance(r, Left):
                return Comp(f.sum.from_sum(Left(r.value)))
            return Comp(f.sum.from_sum(Right(g.sum.from_sum(Left(r.value)))))

        sumcap = SumCap(to_sum, from_sum)

    point = None
    if f.point and g.point and product:
        point = PointCap(
            unit=Comp(f.product.from_product((f.point.unit, g.point.unit)))
        )

    enum = None
    if f.payloads and g.payloads:
        enum = _enumerated(lambda dom: [Comp(fp) for fp in f.payloads(g.payloads(dom))])

    return ContainerShape(
        name=f"Compose({f.name},{g.name})",
        map=cmap,
        product=product,
        sum=sumcap,
        point=point,
        payloads=enum,
        parts=(f, g),
    )


# Affine decomposition -------------------------------------------------------
#
# Shapes built from products and sums hold at most one focus, so they admit a
# one-way split: either the payload carries no focus at all (and can stand as
# a payload of any focus type), or it holds exactly one focus value.

def affine_supported(shape: ContainerShape) -> bool:
    if shape.sum or shape.product:
        return True
    if shape.parts:
        return all(affine_supported(part) for part in shape.parts)
    return False


def affine_match(shape: ContainerShape, payload):
    """Split a payload into Left(focus-free payload) or Right(focus)."""
    if shape.sum:
        e = shape.sum.to_sum(payload)
        if isinstance(e, Left):
            return Left(shape.sum.from_sum(e))
        return e
    if shape.product:
        return Right(shape.product.to_product(payload)[1])
    if shape.parts:
        f, g = shape.parts
        m = affine_match(f, payload.value)
        if isinstance(m, Left):
            return Left(Comp(m.value))
        m2 = affine_match(g, m.value)
        if isinstance(m2, Left):
            gt = m2.value
            return Left(Comp(f.map(lambda _: gt, payload.value)))
        return m2
    raise UnsupportedShapeError(f"shape {shape.name} has no affine decomposition")


# Family registry ------------------------------------------------------------

ANY_FUNCTOR = FunctorFamily("Functor", lambda s: True)
IS_PRODUCT = FunctorFamily("IsProduct", lambda s: s.product is not None)
IS_SUM = FunctorFamily("IsSum", lambda s: s.sum is not None)
IS_POINTED_PRODUCT = FunctorFamily(
    "IsPointedProduct", lambda s: s.product is not None and s.point is not None
)
# A natural C x a ~ D + a forces C ~ 1 and D ~ 0, so a shape that is both a
# product and a sum is the identity; requiring the point as well keeps
# IdOnly inside IsPointedProduct.
ID_ONLY = FunctorFamily(
    "IdOnly", lambda s: s.product is not None and s.sum is not None and s.point is not None
)
IS_AFFINE = FunctorFamily("IsAffine", affine_supported)

# The one pairing of concrete families with the functor families they zoom
# through, and back; the family order (``families._UPSETS``) is inclusion.
FUNCTOR_FAMILY = {
    FamilyTag.SETTER: ANY_FUNCTOR,
    FamilyTag.LENS: IS_PRODUCT,
    FamilyTag.PRISM: IS_SUM,
    FamilyTag.ACHLENS: IS_POINTED_PRODUCT,
    FamilyTag.ADAPTER: ID_ONLY,
    FamilyTag.OPTIONAL: IS_AFFINE,
}
FAMILY_TAG = {fam: tag for tag, fam in FUNCTOR_FAMILY.items()}


def joined(f: FunctorFamily, g: FunctorFamily) -> FunctorFamily:
    """The functor family of a composite over ``f`` and ``g``, and the one
    rule for it: ``f`` itself when ``g`` is ``f`` or equal to it (a copy),
    else the functor family of their concrete families' join.  Different
    families, one off the registry, raise."""
    if f is g or f == g:
        return f
    if f not in FAMILY_TAG or g not in FAMILY_TAG:
        raise FamilyMismatchError(f"cannot compose optics over {f.name} and {g.name}")
    return FUNCTOR_FAMILY[family_join(FAMILY_TAG[f], FAMILY_TAG[g])]
