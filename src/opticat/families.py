"""Concrete optic families and the operations every family shares.

Each family is a small record of total functions.  Every family's class
carries the same operations: the class method ``inj`` injects a plain
function pair (the identity optic is ``inj(identity, identity)``), and the
methods ``compose`` and ``map_optic`` (an action on functions) run on
records.  Composing two records of different families raises.
Heterogeneous composition goes through the tag lattice, where
:func:`opticat.encode.embed` takes each record into the join of the
families through its residual form, or through residual forms or the
profunctor encoding (see :mod:`opticat.iso` and :mod:`opticat.prof`),
whose composites land at the same join.
"""

from enum import Enum

from .base import Just, Left, Nothing, Record, Right


class FamilyMismatchError(TypeError):
    """Raised when composing raw records from two different families."""


class FamilyTag(Enum):
    ADAPTER = "ADAPTER"
    LENS = "LENS"
    PRISM = "PRISM"
    OPTIONAL = "OPTIONAL"
    ACHLENS = "ACHLENS"
    SETTER = "SETTER"


# Upward-closed sets of the family order: ``a <= b`` when ``b``'s functor
# family (``functors.FUNCTOR_FAMILY``) holds ``a``'s residual shape.  A literal
# table keeps ``functors`` out of the CLI's imports; a test ties it to the rows.
_UPSETS = {
    FamilyTag.ADAPTER: frozenset(FamilyTag),
    FamilyTag.LENS: frozenset({FamilyTag.LENS, FamilyTag.OPTIONAL, FamilyTag.SETTER}),
    FamilyTag.PRISM: frozenset({FamilyTag.PRISM, FamilyTag.OPTIONAL, FamilyTag.SETTER}),
    FamilyTag.ACHLENS: frozenset(
        {FamilyTag.ACHLENS, FamilyTag.LENS, FamilyTag.OPTIONAL, FamilyTag.SETTER}
    ),
    FamilyTag.OPTIONAL: frozenset({FamilyTag.OPTIONAL, FamilyTag.SETTER}),
    FamilyTag.SETTER: frozenset({FamilyTag.SETTER}),
}


def family_le(a: FamilyTag, b: FamilyTag) -> bool:
    """True when every optic of family ``a`` embeds into family ``b``."""
    return b in _UPSETS[a]


def family_join(a: FamilyTag, b: FamilyTag) -> FamilyTag:
    """Least family both ``a`` and ``b`` embed into."""
    shared = _UPSETS[a] & _UPSETS[b]
    return next(c for c in shared if shared <= _UPSETS[c])


class Lens(Record):
    """Product-like access: total ``get`` plus ``put(b, s)``."""

    __slots__ = ("get", "put")

    tag = FamilyTag.LENS

    @classmethod
    def inj(cls, fwd, bwd):
        # put discards the previous whole value: there is no structure on s
        # to push the new focus into.
        return cls(get=fwd, put=lambda b, _s: bwd(b))

    def compose(self, inner):
        _require_same_family(self, inner)
        outer = self

        def put(y, s):
            return outer.put(inner.put(y, outer.get(s)), s)

        return Lens(get=lambda s: inner.get(outer.get(s)), put=put)

    def map_optic(self, h):
        return lambda s: self.put(h(self.get(s)), s)


class Prism(Record):
    """Sum-like access: ``match`` splits off the focus, ``build`` re-injects.

    ``match`` returns ``Right(focus)`` on a hit and ``Left(rest)`` on a miss.
    """

    __slots__ = ("match", "build")

    tag = FamilyTag.PRISM

    @classmethod
    def inj(cls, fwd, bwd):
        return cls(match=lambda s: Right(fwd(s)), build=bwd)

    def compose(self, inner):
        _require_same_family(self, inner)
        outer = self

        def match(s):
            e = outer.match(s)
            if isinstance(e, Left):
                return e
            e2 = inner.match(e.value)
            if isinstance(e2, Left):
                return Left(outer.build(e2.value))
            return e2

        return Prism(match=match, build=lambda y: outer.build(inner.build(y)))

    def map_optic(self, h):
        def run(s):
            e = self.match(s)
            if isinstance(e, Left):
                return e.value
            return self.build(h(e.value))

        return run


class Adapter(Record):
    """A pure conversion pair."""

    __slots__ = ("fwd", "bwd")

    tag = FamilyTag.ADAPTER

    @classmethod
    def inj(cls, fwd, bwd):
        return cls(fwd=fwd, bwd=bwd)

    def compose(self, inner):
        _require_same_family(self, inner)
        return Adapter(
            fwd=lambda s: inner.fwd(self.fwd(s)),
            bwd=lambda y: self.bwd(inner.bwd(y)),
        )

    def map_optic(self, h):
        return lambda s: self.bwd(h(self.fwd(s)))


class Setter(Record):
    """Map-only access: ``over`` lifts a focus function to the whole."""

    __slots__ = ("over",)

    tag = FamilyTag.SETTER

    @classmethod
    def inj(cls, fwd, bwd):
        return cls(over=lambda h: (lambda s: bwd(h(fwd(s)))))

    def compose(self, inner):
        _require_same_family(self, inner)
        return Setter(over=lambda h: self.over(inner.over(h)))

    def map_optic(self, h):
        return self.over(h)


class AchLens(Record):
    """A lens with a constructor: ``create`` builds a whole from a focus."""

    __slots__ = ("get", "put", "create")

    tag = FamilyTag.ACHLENS

    @classmethod
    def inj(cls, fwd, bwd):
        return cls(get=fwd, put=lambda b, _s: bwd(b), create=bwd)

    def compose(self, inner):
        lens = Lens.compose(self, inner)
        return AchLens(
            get=lens.get, put=lens.put, create=lambda y: self.create(inner.create(y))
        )

    map_optic = Lens.map_optic


class Optional(Record):
    """Affine access: at most one focus.  ``match`` as for prisms, ``put``
    replaces the focus when present and returns the miss value otherwise."""

    __slots__ = ("match", "put")

    tag = FamilyTag.OPTIONAL

    @classmethod
    def inj(cls, fwd, bwd):
        return cls(match=lambda s: Right(fwd(s)), put=lambda b, _s: bwd(b))

    def compose(self, inner):
        _require_same_family(self, inner)
        outer = self

        def match(s):
            e = outer.match(s)
            if isinstance(e, Left):
                return e
            e2 = inner.match(e.value)
            if isinstance(e2, Left):
                return Left(outer.put(e2.value, s))
            return e2

        def put(y, s):
            e = outer.match(s)
            if isinstance(e, Left):
                return e.value
            return outer.put(inner.put(y, e.value), s)

        return Optional(match=match, put=put)

    def map_optic(self, h):
        def run(s):
            e = self.match(s)
            if isinstance(e, Left):
                return e.value
            return self.put(h(e.value), s)

        return run


CONCRETE_FAMILIES = {cls.tag: cls for cls in (Adapter, Lens, Prism, Optional, AchLens, Setter)}


def multi_map_optic(fa, fb, fs, ft, optic):
    """Reparametrize all four type slots by plain functions."""
    cls = type(optic)
    return cls.inj(fs, ft).compose(optic).compose(cls.inj(fa, fb))


def dimap_optic(fs, ft, optic):
    """Reparametrize the whole-structure slots only."""
    return type(optic).inj(fs, ft).compose(optic)


def _require_same_family(outer, inner):
    if type(outer) is not type(inner):
        raise FamilyMismatchError(
            f"cannot compose {type(outer).__name__} with {type(inner).__name__}; "
            "embed both into their family join or use the profunctor encoding"
        )


# Canonical optics -----------------------------------------------------------

def first():
    """Lens onto the left slot of a pair."""
    return Lens(get=lambda p: p[0], put=lambda b, p: (b, p[1]))


def second():
    """Lens onto the right slot of a pair."""
    return Lens(get=lambda p: p[1], put=lambda b, p: (p[0], b))


def just():
    """Prism onto the payload of an option value."""

    def match(m):
        if isinstance(m, Just):
            return Right(m.value)
        if isinstance(m, Nothing):
            return Left(m)
        raise TypeError(f"expected Just or Nothing, got {m!r}")

    return Prism(match=match, build=Just)


def each():
    """Setter over every element of a tuple."""
    return Setter(over=lambda h: (lambda xs: tuple(h(x) for x in xs)))
