"""Profunctor optics via explicit capability passing.

A :class:`ProfOptic` is a transformation that, handed any lawful
:class:`ProfunctorCapability` for its functor family, turns a profunctor
value on the focus pair into one on the whole pair.  Rank-2 quantification
becomes a plain argument: the capability record carries ``dimap`` plus a
per-shape ``enhance``.  Optics of two families compose at their join.
"""

from .base import Left, Record, Right, identity
from .functors import (
    IS_PRODUCT,
    IS_SUM,
    FunctorFamily,
    affine_match,
    affine_supported,
    joined,
    maybe_shape,
    pair_shape,
    sum_shape,
)
from .iso import IsoOptic, enhance_iso, iso_compose, iso_dimap, iso_inj


class UnsupportedOperatorError(TypeError):
    """Raised when an operator's capability cannot handle a shape the optic
    zooms through (e.g. reading from a map-only family)."""


class ProfunctorCapability(Record):
    # dimap: (f, g, p) -> p'
    # enhance: (shape, p) -> p'
    __slots__ = ("name", "dimap", "enhance")


class ProfOptic(Record):
    # run: (capability, pab) -> pst
    __slots__ = ("family", "run")

    def compose(self, inner):
        return ProfOptic(
            family=joined(self.family, inner.family),
            run=lambda cap, p: self.run(cap, inner.run(cap, p)),
        )

    def map_optic(self, h):
        return self.run(FUNCTION_ARROW, h)


def prof_inj(fwd, bwd, family) -> ProfOptic:
    return ProfOptic(family=family, run=lambda cap, p: cap.dimap(fwd, bwd, p))


# Operator profunctors -------------------------------------------------------

FUNCTION_ARROW = ProfunctorCapability(
    name="FunctionArrow",
    dimap=lambda f, g, h: (lambda x: g(h(f(x)))),
    enhance=lambda shape, h: (lambda p: shape.map(h, p)),
)


# A GETTING value forgets the update side: it is a reader s -> a.

def _getting_enhance(shape, p):
    if shape.product is None:
        raise UnsupportedOperatorError(
            f"get needs a product decomposition; shape {shape.name} has none"
        )
    return lambda payload: p(shape.product.to_product(payload)[1])


GETTING = ProfunctorCapability(
    name="Getting",
    dimap=lambda f, g, p: (lambda s: p(f(s))),
    enhance=_getting_enhance,
)


# A MATCHING value is a partial reader s -> Left(t) | Right(a): Right(focus)
# on a hit, Left(rest) on a miss.

def _matching_dimap(f, g, p):
    def run(s):
        e = p(f(s))
        if isinstance(e, Left):
            return Left(g(e.value))
        return e

    return run


def _matching_enhance(shape, p):
    if not affine_supported(shape):
        raise UnsupportedOperatorError(
            f"match needs an affine decomposition; shape {shape.name} has none"
        )

    def run(payload):
        m = affine_match(shape, payload)
        if isinstance(m, Left):
            return m
        e = p(m.value)
        if isinstance(e, Left):
            t = e.value
            return Left(shape.map(lambda _: t, payload))
        return e

    return run


MATCHING = ProfunctorCapability(
    name="Matching",
    dimap=_matching_dimap,
    enhance=_matching_enhance,
)


def get_operator(optic: ProfOptic):
    """Total reader of a profunctor optic over a product-capable family."""
    return optic.run(GETTING, identity)


def match_operator(optic: ProfOptic):
    """Partial reader: s -> Left(rest) | Right(focus)."""
    return optic.run(MATCHING, Right)


# Prebuilt profunctor optics -------------------------------------------------

def _swap(p):
    return (p[1], p[0])


_PAIR = pair_shape()
_SUM = sum_shape()


# Each is the profunctor optic of a residual form (see :func:`iso_to_prof`):
# the zoom through one container layer (Pair, Sum or the option container),
# or, for prof_first, Pair with its two slots swapped.  The option container
# matches through its own sum capability, the one option-to-sum conversion.

def prof_second() -> ProfOptic:
    return iso_to_prof(enhance_iso(_PAIR, IS_PRODUCT))


def prof_first() -> ProfOptic:
    return iso_to_prof(IsoOptic(IS_PRODUCT, _PAIR, _swap, _swap))


def prof_right() -> ProfOptic:
    return iso_to_prof(enhance_iso(_SUM, IS_SUM))


def prof_just() -> ProfOptic:
    return iso_to_prof(enhance_iso(maybe_shape(), IS_SUM))


# Conversions to and from iso optics -----------------------------------------

def iso_to_prof(optic: IsoOptic) -> ProfOptic:
    """Enhance through the carried shape, then reparametrize by the arrows."""
    return ProfOptic(
        family=optic.family,
        run=lambda cap, p: cap.dimap(
            optic.forward, optic.backward, cap.enhance(optic.shape, p)
        ),
    )


def iso_capability(family: FunctorFamily) -> ProfunctorCapability:
    """Iso optics themselves form a capability record for their family."""
    return ProfunctorCapability(
        name="IsoOptic",
        dimap=iso_dimap,
        enhance=lambda shape, optic: iso_compose(enhance_iso(shape, family), optic),
    )


def prof_to_iso(optic: ProfOptic) -> IsoOptic:
    """Instantiate at the iso-optic capability and apply to the identity."""
    return optic.run(iso_capability(optic.family), iso_inj(identity, identity, optic.family))
