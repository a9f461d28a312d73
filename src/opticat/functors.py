"""Container shapes: runtime witnesses for one-parameter containers.

A shape packages a ``map`` action over tagged payloads together with the
capability records (product, sum, point, ident) that decide which shape
families it belongs to.  Higher-kinded quantification is defunctionalized:
"a container F" is a :class:`ContainerShape` value, and "an F a" is a payload
the shape's operations know how to interpret.
"""

from .base import UNIT, Just, Left, Nothing, Record, Right


class UnsupportedShapeError(TypeError):
    """Raised when an operation needs a capability a shape does not carry."""


class Id(Record):
    """Payload wrapper for the identity container."""

    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        if type(other) is Id:
            return self.value is other.value or self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))


class Comp(Record):
    """Payload wrapper for a composed container: an outer payload whose
    focus slots hold inner payloads."""

    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        if type(other) is Comp:
            return self.value is other.value or self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))


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


class IdentCap(Record):
    # wrap: focus -> payload; unwrap: payload -> focus
    __slots__ = ("wrap", "unwrap")


class ContainerShape(Record):
    # map: (h, payload) -> payload.  payloads enumerates all payloads over a
    # finite focus domain; None when the payload space is not enumerable
    # (e.g. continuation containers).
    __slots__ = (
        "name", "map", "product", "sum", "point", "ident", "payloads", "parts", "lawful",
    )

    def __init__(
        self, name, map, product=None, sum=None, point=None, ident=None,
        payloads=None, parts=None, lawful=True,
    ):
        super().__init__(name, map, product, sum, point, ident, payloads, parts, lawful)
        if self.point is not None and self.product is None:
            raise ValueError(f"shape {self.name}: point requires product")

    def __repr__(self):
        return f"ContainerShape({self.name})"


class FunctorFamily(Record):
    """A named family of shapes, decided by a membership predicate.

    Registry families are closed under :func:`id_shape` and
    :func:`compose_shapes` by construction of the capability propagation.
    Two families are equal when their names are.
    """

    __slots__ = ("name", "member")

    def __eq__(self, other):
        if type(other) is FunctorFamily:
            return self.name == other.name
        return NotImplemented

    def __hash__(self):
        return hash((self.name,))

    def __repr__(self):
        return f"FunctorFamily({self.name})"


# Shape constructors ---------------------------------------------------------

def id_shape() -> ContainerShape:
    return _ID_SHAPE


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
        ident=IdentCap(wrap=Id, unwrap=lambda p: p.value),
        payloads=lambda dom: [Id(a) for a in dom],
    )


def pair_shape(residuals=None, name=None) -> ContainerShape:
    """The (c, -) container.  Pass the residual domain to make payloads
    enumerable for exhaustive checks."""
    enum = None
    if residuals is not None:
        residuals = tuple(residuals)
        enum = lambda dom: [(c, a) for c in residuals for a in dom]
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
    """The (option c, -) container: a pair whose residual has a default."""
    enum = None
    if residuals is not None:
        tags = [Nothing()] + [Just(c) for c in residuals]
        enum = lambda dom: [(mc, a) for mc in tags for a in dom]
    return ContainerShape(
        name=name or "MaybePair",
        map=lambda h, p: (p[0], h(p[1])),
        product=ProductCap(
            to_product=lambda p: ((p[0], UNIT), p[1]),
            from_product=lambda pair: (pair[0][0], pair[1]),
        ),
        point=PointCap(unit=(Nothing(), UNIT)),
        payloads=enum,
    )


def sum_shape(residuals=None, name=None) -> ContainerShape:
    """The (c + -) container; payloads are Left(residual) or Right(focus)."""
    enum = None
    if residuals is not None:
        residuals = tuple(residuals)
        enum = lambda dom: [Left(c) for c in residuals] + [Right(a) for a in dom]
    return ContainerShape(
        name=name or "Sum",
        map=lambda h, p: Right(h(p.value)) if isinstance(p, Right) else p,
        sum=SumCap(to_sum=lambda p: p, from_sum=lambda e: e),
        payloads=enum,
    )


def maybe_shape(name=None) -> ContainerShape:
    """The option container; a sum whose residual is the unit value."""
    return ContainerShape(
        name=name or "Maybe",
        map=lambda h, p: Just(h(p.value)) if isinstance(p, Just) else p,
        sum=SumCap(
            to_sum=lambda p: Right(p.value) if isinstance(p, Just) else Left(UNIT),
            from_sum=lambda e: Just(e.value) if isinstance(e, Right) else Nothing(),
        ),
        payloads=lambda dom: [Nothing()] + [Just(a) for a in dom],
    )


def cps_shape(name=None) -> ContainerShape:
    """The continuation container: payloads are functions (a -> b) -> t."""

    def cmap(h, k):
        return lambda fn: k(lambda a: fn(h(a)))

    return ContainerShape(name=name or "Cps", map=cmap)


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

    ident = None
    if f.ident and g.ident:
        ident = IdentCap(
            wrap=lambda a: Comp(f.ident.wrap(g.ident.wrap(a))),
            unwrap=lambda p: g.ident.unwrap(f.ident.unwrap(p.value)),
        )

    enum = None
    if f.payloads and g.payloads:
        enum = lambda dom: [Comp(fp) for fp in f.payloads(g.payloads(dom))]

    return ContainerShape(
        name=f"Compose({f.name},{g.name})",
        map=cmap,
        product=product,
        sum=sumcap,
        point=point,
        ident=ident,
        payloads=enum,
        parts=(f, g),
        lawful=f.lawful and g.lawful,
    )


# Affine decomposition -------------------------------------------------------
#
# Shapes built from products and sums hold at most one focus, so they admit a
# one-way split: either the payload carries no focus at all (and can stand as
# a payload of any focus type), or it holds exactly one focus value.

def affine_supported(shape: ContainerShape) -> bool:
    if shape.sum or shape.product or shape.ident:
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
    if shape.ident:
        return Right(shape.ident.unwrap(payload))
    raise UnsupportedShapeError(f"shape {shape.name} has no affine decomposition")


# Family registry ------------------------------------------------------------

def any_functor() -> FunctorFamily:
    return _ANY_FUNCTOR


def is_product() -> FunctorFamily:
    return _IS_PRODUCT


def is_sum() -> FunctorFamily:
    return _IS_SUM


def is_pointed_product() -> FunctorFamily:
    return _IS_POINTED_PRODUCT


def id_only() -> FunctorFamily:
    return _ID_ONLY


def is_affine() -> FunctorFamily:
    return _IS_AFFINE


_ID_SHAPE = _mk_id_shape()
_ANY_FUNCTOR = FunctorFamily("Functor", lambda s: s.lawful)
_IS_PRODUCT = FunctorFamily("IsProduct", lambda s: s.lawful and s.product is not None)
_IS_SUM = FunctorFamily("IsSum", lambda s: s.lawful and s.sum is not None)
_IS_POINTED_PRODUCT = FunctorFamily(
    "IsPointedProduct",
    lambda s: s.lawful and s.product is not None and s.point is not None,
)
_ID_ONLY = FunctorFamily("IdOnly", lambda s: s.lawful and s.ident is not None)
_IS_AFFINE = FunctorFamily("IsAffine", lambda s: s.lawful and affine_supported(s))

FAMILY_REGISTRY = {
    fam.name: fam
    for fam in (_ANY_FUNCTOR, _IS_PRODUCT, _IS_SUM, _IS_POINTED_PRODUCT, _ID_ONLY, _IS_AFFINE)
}
