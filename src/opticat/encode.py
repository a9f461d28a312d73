"""Per-family functorizations and the concrete <-> iso <-> prof conversions.

Each concrete family determines the largest shape family it can zoom
through (its functorization); pairing that with a concrete-to-iso
transformation yields an executable profunctor encoding whose encode and
decode are mutually inverse up to observational equality.  For lenses and
achromatic lenses the round trip holds only for lawful inputs.
"""

from .base import Just, Left, Nothing, Record, Right, identity
from .families import (
    AchLens,
    Adapter,
    FamilyMismatchError,
    FamilyTag,
    Lens,
    Optional,
    Prism,
    Setter,
)
from .functors import (
    Comp,
    ContainerShape,
    FunctorFamily,
    UnsupportedShapeError,
    affine_match,
    any_functor,
    compose_shapes,
    cps_shape,
    id_only,
    is_affine,
    is_pointed_product,
    is_product,
    is_sum,
    maybe_pair_shape,
    maybe_shape,
    pair_shape,
    sum_shape,
)
from .iso import IsoOptic, enhance_to_arrow, iso_inj
from .prof import ProfOptic, iso_to_prof, prof_to_iso


class Functorization(Record):
    # enhance_op: shape -> concrete optic zooming through one layer
    __slots__ = ("family_tag", "functor_family", "enhance_op")


class ProfEncoding(Record):
    # encode: concrete optic -> ProfOptic
    # decode: ProfOptic -> concrete optic
    __slots__ = ("encode", "decode")


def _adapter_enhance(shape: ContainerShape) -> Adapter:
    if shape.ident is None:
        raise UnsupportedShapeError(
            f"adapters only zoom through identity-like shapes, not {shape.name}"
        )
    return Adapter(fwd=shape.ident.unwrap, bwd=shape.ident.wrap)


def _lens_enhance(shape: ContainerShape) -> Lens:
    if shape.product is None:
        raise UnsupportedShapeError(f"shape {shape.name} has no product capability")
    return Lens(
        get=lambda p: shape.product.to_product(p)[1],
        put=lambda b, p: shape.map(lambda _: b, p),
    )


def _prism_enhance(shape: ContainerShape) -> Prism:
    if shape.sum is None:
        raise UnsupportedShapeError(f"shape {shape.name} has no sum capability")
    return Prism(
        match=lambda p: affine_match(shape, p),
        build=lambda b: shape.sum.from_sum(Right(b)),
    )


def _setter_enhance(shape: ContainerShape) -> Setter:
    return Setter(over=lambda h: (lambda p: shape.map(h, p)))


def _achlens_enhance(shape: ContainerShape) -> AchLens:
    if shape.product is None or shape.point is None:
        raise UnsupportedShapeError(
            f"shape {shape.name} lacks a pointed product capability"
        )
    return AchLens(
        get=lambda p: shape.product.to_product(p)[1],
        put=lambda b, p: shape.map(lambda _: b, p),
        create=lambda b: shape.product.from_product((shape.point.unit, b)),
    )


def _optional_enhance(shape: ContainerShape) -> Optional:
    return Optional(
        match=lambda p: affine_match(shape, p),
        put=lambda b, p: shape.map(lambda _: b, p),
    )


_FUNCTORIZATIONS = {
    FamilyTag.ADAPTER: lambda: Functorization(
        FamilyTag.ADAPTER, id_only(), _adapter_enhance
    ),
    FamilyTag.LENS: lambda: Functorization(
        FamilyTag.LENS, is_product(), _lens_enhance
    ),
    FamilyTag.PRISM: lambda: Functorization(
        FamilyTag.PRISM, is_sum(), _prism_enhance
    ),
    FamilyTag.SETTER: lambda: Functorization(
        FamilyTag.SETTER, any_functor(), _setter_enhance
    ),
    FamilyTag.ACHLENS: lambda: Functorization(
        FamilyTag.ACHLENS, is_pointed_product(), _achlens_enhance
    ),
    FamilyTag.OPTIONAL: lambda: Functorization(
        FamilyTag.OPTIONAL, is_affine(), _optional_enhance
    ),
}


def functorize(tag: FamilyTag) -> Functorization:
    """The shape family a concrete family zooms through, with its one-layer
    optic."""
    try:
        return _FUNCTORIZATIONS[tag]()
    except KeyError:
        raise KeyError(f"no functorization registered for {tag}") from None


# Concrete -> iso ------------------------------------------------------------

def concrete_to_iso(optic) -> IsoOptic:
    """Re-express a concrete optic as an existential residual form.

    Accepts unlawful inputs; the round trip with :func:`unfunctorize` is
    only guaranteed for lawful lenses and achromatic lenses.
    """
    if isinstance(optic, Lens):
        return IsoOptic(
            family=is_product(),
            shape=pair_shape(name="Pair[whole]"),
            forward=lambda s: (s, optic.get(s)),
            backward=lambda p: optic.put(p[1], p[0]),
        )
    if isinstance(optic, Prism):
        return IsoOptic(
            family=is_sum(),
            shape=sum_shape(name="Sum[whole]"),
            forward=optic.match,
            backward=lambda e: e.value if isinstance(e, Left) else optic.build(e.value),
        )
    if isinstance(optic, Adapter):
        return iso_inj(optic.fwd, optic.bwd, id_only())
    if isinstance(optic, Setter):
        return IsoOptic(
            family=any_functor(),
            shape=cps_shape(),
            forward=lambda s: (lambda fn: optic.over(fn)(s)),
            backward=lambda k: k(identity),
        )
    if isinstance(optic, AchLens):
        def backward(p):
            mc, b = p
            if isinstance(mc, Nothing):
                return optic.create(b)
            return optic.put(b, mc.value)

        return IsoOptic(
            family=is_pointed_product(),
            shape=maybe_pair_shape(name="MaybePair[whole]"),
            forward=lambda s: (Just(s), optic.get(s)),
            backward=backward,
        )
    if isinstance(optic, Optional):
        def forward(s):
            e = optic.match(s)
            if isinstance(e, Left):
                return Comp((e.value, Nothing()))
            return Comp((s, Just(e.value)))

        def backward(p):
            x, m = p.value
            if isinstance(m, Nothing):
                return x
            return optic.put(m.value, x)

        return IsoOptic(
            family=is_affine(),
            shape=compose_shapes(pair_shape(name="Pair[whole]"), maybe_shape()),
            forward=forward,
            backward=backward,
        )
    raise TypeError(f"no residual form registered for {type(optic).__name__}")


# Iso -> concrete ------------------------------------------------------------

def unfunctorize(optic: IsoOptic, tag: FamilyTag):
    """Collapse a residual form back into a concrete family."""
    fz = functorize(tag)
    if optic.family.name != fz.functor_family.name:
        raise FamilyMismatchError(
            f"iso optic over {optic.family.name} cannot unfunctorize "
            f"into {tag.value} (expects {fz.functor_family.name})"
        )
    return enhance_to_arrow(optic, fz.enhance_op)


# Profunctor encodings -------------------------------------------------------

def prof_encoding(tag: FamilyTag) -> ProfEncoding:
    functorize(tag)  # fail early on unregistered tags

    def encode(optic) -> ProfOptic:
        return iso_to_prof(concrete_to_iso(optic))

    def decode(optic: ProfOptic):
        return unfunctorize(prof_to_iso(optic), tag)

    return ProfEncoding(encode=encode, decode=decode)
