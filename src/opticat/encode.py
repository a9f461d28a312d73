"""Per-family functorizations and the concrete <-> iso <-> prof conversions.

Each concrete family has one row, its :class:`Functorization`: the largest
shape family it can zoom through (its ``functors.FUNCTOR_FAMILY`` entry),
its one-layer optic, and the map from its optics to their residual forms.
Every one-layer optic is the family's record with each field read off the
shape by one table, ``_LAYER_FIELDS``; it refuses any shape outside the
family.  A row yields an executable profunctor encoding whose encode and
decode are mutually inverse up to observational equality.  For lenses and
achromatic lenses the round trip holds only for lawful inputs.

The family order (``families._UPSETS``) is read in one place:
:func:`unfunctorize` collapses a residual form of any family at or below
its target, so :func:`embed` and every ``decode`` follow the order with no
check of their own.
"""

from functools import partial

from .base import Just, Left, Nothing, Record, Right, identity
from .families import CONCRETE_FAMILIES, FamilyMismatchError, FamilyTag, family_le
from .functors import (
    FAMILY_TAG,
    FUNCTOR_FAMILY,
    Comp,
    UnsupportedShapeError,
    affine_match,
    compose_shapes,
    cps_shape,
    maybe_pair_shape,
    maybe_shape,
    pair_shape,
    sum_shape,
)
from .iso import IsoOptic, enhance_to_arrow, iso_inj
from .prof import ProfOptic, iso_to_prof, prof_to_iso


class Functorization(Record):
    # enhance_op: shape -> concrete optic zooming through one layer
    # residual: concrete optic of the family -> its residual form (IsoOptic)
    __slots__ = ("family_tag", "functor_family", "enhance_op", "residual")


class ProfEncoding(Record):
    # encode: concrete optic -> ProfOptic
    # decode: ProfOptic -> concrete optic
    __slots__ = ("encode", "decode")


# One read of a shape per record field name, as ``laws._FIELD_DRAWS`` has
# one draw: a family's one-layer optic is its record with every field read
# off the shape.  An adapter reads like an achromatic lens whose put ignores
# the whole.
_LAYER_FIELDS = {
    **dict.fromkeys(("get", "fwd"), lambda shape: lambda p: shape.product.to_product(p)[1]),
    **dict.fromkeys(
        ("create", "bwd"),
        lambda shape: lambda b: shape.product.from_product((shape.point.unit, b)),
    ),
    "put": lambda shape: lambda b, p: shape.map(lambda _: b, p),
    "over": lambda shape: lambda h: (lambda p: shape.map(h, p)),
    "match": lambda shape: partial(affine_match, shape),
    "build": lambda shape: lambda b: shape.sum.from_sum(Right(b)),
}


def _adapter_residual(family, optic) -> IsoOptic:
    return iso_inj(optic.fwd, optic.bwd, family)


def _lens_residual(family, optic) -> IsoOptic:
    return IsoOptic(
        family=family,
        shape=pair_shape(name="Pair[whole]"),
        forward=lambda s: (s, optic.get(s)),
        backward=lambda p: optic.put(p[1], p[0]),
    )


def _prism_residual(family, optic) -> IsoOptic:
    return IsoOptic(
        family=family,
        shape=sum_shape(name="Sum[whole]"),
        forward=optic.match,
        backward=lambda e: e.value if isinstance(e, Left) else optic.build(e.value),
    )


def _setter_residual(family, optic) -> IsoOptic:
    return IsoOptic(
        family=family,
        shape=cps_shape(),
        forward=lambda s: (lambda fn: optic.over(fn)(s)),
        backward=lambda k: k(identity),
    )


def _achlens_residual(family, optic) -> IsoOptic:
    def backward(p):
        mc, b = p
        if isinstance(mc, Nothing):
            return optic.create(b)
        return optic.put(b, mc.value)

    return IsoOptic(
        family=family,
        shape=maybe_pair_shape(name="MaybePair[whole]"),
        forward=lambda s: (Just(s), optic.get(s)),
        backward=backward,
    )


def _optional_residual(family, optic) -> IsoOptic:
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
        family=family,
        shape=compose_shapes(pair_shape(name="Pair[whole]"), maybe_shape()),
        forward=forward,
        backward=backward,
    )


def _row(tag, residual) -> Functorization:
    """A family's row over its functor family; its one-layer optic refuses
    shapes outside that family, and its residual forms are over it."""
    family = FUNCTOR_FAMILY[tag]
    cls = CONCRETE_FAMILIES[tag]

    def enhance_op(shape):
        if not family.member(shape):
            raise UnsupportedShapeError(f"shape {shape.name} is not a member of {family.name}")
        return cls(*(_LAYER_FIELDS[name](shape) for name in cls.__slots__))

    return Functorization(tag, family, enhance_op, partial(residual, family))


_FUNCTORIZATIONS = {
    row.family_tag: row
    for row in (
        _row(FamilyTag.ADAPTER, _adapter_residual),
        _row(FamilyTag.LENS, _lens_residual),
        _row(FamilyTag.PRISM, _prism_residual),
        _row(FamilyTag.SETTER, _setter_residual),
        _row(FamilyTag.ACHLENS, _achlens_residual),
        _row(FamilyTag.OPTIONAL, _optional_residual),
    )
}


def functorize(tag: FamilyTag) -> Functorization:
    """A concrete family's row: the shape family it zooms through, its
    one-layer optic and its residual form."""
    try:
        return _FUNCTORIZATIONS[tag]
    except KeyError:
        raise KeyError(f"no functorization registered for {tag}") from None


# Concrete -> iso ------------------------------------------------------------

def concrete_to_iso(optic) -> IsoOptic:
    """Re-express a concrete optic as an existential residual form, by the
    ``residual`` of the row of its family's ``tag``.

    Accepts unlawful inputs; the round trip with :func:`unfunctorize` is
    only guaranteed for lawful lenses and achromatic lenses.
    """
    row = _FUNCTORIZATIONS.get(getattr(optic, "tag", None))
    if row is None:
        raise TypeError(f"no residual form registered for {type(optic).__name__}")
    return row.residual(optic)


# Iso -> concrete ------------------------------------------------------------

def unfunctorize(optic: IsoOptic, tag: FamilyTag):
    """Collapse a residual form into the concrete family ``tag``.

    The form may be over the functor family of any family at or below
    ``tag``: its shape is then a member of ``tag``'s functor family too, and
    ``tag``'s one-layer optic zooms through it.  Raises
    ``FamilyMismatchError`` off the order.
    """
    fz = functorize(tag)
    source = FAMILY_TAG.get(optic.family)
    if source is None or not family_le(source, tag):
        raise FamilyMismatchError(
            f"iso optic over {optic.family.name} cannot unfunctorize "
            f"into {tag.value} (expects {fz.functor_family.name} or below)"
        )
    return enhance_to_arrow(optic, fz.enhance_op)


# Embeddings -----------------------------------------------------------------

def embed(optic, tag: FamilyTag):
    """The record of family ``tag`` with the same action as ``optic``: its
    residual form, collapsed into ``tag``.

    Only the record's ``tag`` and fields are read, so a forwarding proxy of
    a record embeds like the record itself.  Raises ``FamilyMismatchError``
    off the order.
    """
    return optic if optic.tag == tag else unfunctorize(concrete_to_iso(optic), tag)


# Profunctor encodings -------------------------------------------------------

def prof_encoding(tag: FamilyTag) -> ProfEncoding:
    row = functorize(tag)

    def encode(optic) -> ProfOptic:
        return iso_to_prof(row.residual(embed(optic, tag)))

    def decode(optic: ProfOptic):
        return unfunctorize(prof_to_iso(optic), tag)

    return ProfEncoding(encode=encode, decode=decode)
