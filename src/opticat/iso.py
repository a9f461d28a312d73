"""Isomorphism optics: an existential (shape, forward, backward) triple.

An :class:`IsoOptic` packs a container shape from a functor family together
with arrows into and out of the container.  Two such optics compose by
nesting their shapes; over two families they land at the join, as
profunctor optics do (see :func:`functors.joined`).  Equality is decided
observationally (see :func:`observational_eq`); the positive direction of
the underlying "equal up to a natural transformation" rule is exercised in
the law suite through registered natural transformations.
"""

from .base import Record, identity
from .functors import (
    ANY_FUNCTOR,
    ID_SHAPE,
    Comp,
    ContainerShape,
    Id,
    UnsupportedShapeError,
    compose_shapes,
    joined,
)
from . import probes
from .probes import DEFAULT_MAX_EVALS, maps_agree


class IsoOptic(Record):
    # forward: s -> payload of shape over a
    # backward: payload of shape over b -> t
    __slots__ = ("family", "shape", "forward", "backward")

    def __init__(self, family, shape, forward, backward):
        if not family.member(shape):
            raise UnsupportedShapeError(f"shape {shape.name} is not a member of {family.name}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "forward", forward)
        object.__setattr__(self, "backward", backward)

    def compose(self, inner):
        return iso_compose(self, inner)

    def map_optic(self, h):
        return lambda s: self.backward(self.shape.map(h, self.forward(s)))


def iso_inj(fwd, bwd, family=None):
    """Embed a plain function pair: identity shape, wrap on the way in."""
    return IsoOptic(
        family=family or ANY_FUNCTOR,
        shape=ID_SHAPE,
        forward=lambda s: Id(fwd(s)),
        backward=lambda p: bwd(p.value),
    )


def iso_compose(outer: IsoOptic, inner: IsoOptic) -> IsoOptic:
    return IsoOptic(
        family=joined(outer.family, inner.family),
        shape=compose_shapes(outer.shape, inner.shape),
        forward=lambda s: Comp(outer.shape.map(inner.forward, outer.forward(s))),
        backward=lambda p: outer.backward(outer.shape.map(inner.backward, p.value)),
    )


def iso_dimap(fs, ft, optic: IsoOptic) -> IsoOptic:
    """Reparametrize the whole-structure slots without growing the shape."""
    return IsoOptic(
        family=optic.family,
        shape=optic.shape,
        forward=lambda s: optic.forward(fs(s)),
        backward=lambda p: ft(optic.backward(p)),
    )


def enhance_iso(shape: ContainerShape, family=None) -> IsoOptic:
    """The optic that zooms through one container layer: both arrows are
    identities on payloads."""
    return IsoOptic(
        family=family or ANY_FUNCTOR,
        shape=shape,
        forward=identity,
        backward=identity,
    )


def observational_eq(l1, l2, dom_a, dom_b, dom_s, max_evals=DEFAULT_MAX_EVALS):
    """Equality via map agreement on the probe set.

    Two iso optics are compared through their residual form, where ``map h``
    is ``backward . shape.map(h) . forward``.  Each whole's ``forward`` runs
    once, before any probe.  When the tables decide (see
    :func:`_tables_agree`) the optics are equal without a probe; otherwise
    every probe reuses the stored payloads.  The verdict is
    :func:`maps_agree`'s.  An exception need not be: ``forward`` runs on
    every whole before ``backward`` runs, and the tables run ``backward`` on
    payloads no probe may reach.  Any other pair of optics goes to
    :func:`maps_agree`.
    """
    if not (isinstance(l1, IsoOptic) and isinstance(l2, IsoOptic)):
        return maps_agree(l1, l2, dom_a, dom_b, dom_s, max_evals=max_evals)
    fwd1, fwd2 = l1.forward, l2.forward
    payloads = [(fwd1(s), fwd2(s)) for s in dom_s]
    if _tables_agree(l1, l2, payloads, dom_a, dom_b):
        return True
    fns, _ = probes.probe_functions(dom_a, dom_b, dom_s, max_evals)
    map1, bwd1 = l1.shape.map, l1.backward
    map2, bwd2 = l2.shape.map, l2.backward
    for h in fns:
        for p1, p2 in payloads:
            if bwd1(map1(h, p1)) != bwd2(map2(h, p2)):
                return False
    return True


def _tables_agree(l1, l2, payloads, dom_a, dom_b):
    """Equal residual-form tables: one enumerable shape, equal payloads in
    ``payloads(dom_a)`` for every whole, and equal ``backward``s on
    ``payloads(dom_b)``.  Then the optics agree on every ``h``, because
    ``shape.map(h)`` sends ``payloads(dom_a)`` into ``payloads(dom_b)`` (the
    ``functor.payloads_closed`` law).  Both enumerations are the shape's
    stored tuples (see :class:`ContainerShape`)."""
    shape = l1.shape
    if shape.payloads is None or not _same_shape(shape, l2.shape):
        return False
    over_a = shape.payloads(dom_a)
    if not all(p1 == p2 and p1 in over_a for p1, p2 in payloads):
        return False
    bwd1, bwd2 = l1.backward, l2.backward
    return all(bwd1(q) == bwd2(q) for q in shape.payloads(dom_b))


def _same_shape(a, b):
    """One shape: the same object, or :func:`compose_shapes` results over
    the same parts, whose ``map`` and ``payloads`` act alike."""
    if a is b:
        return True
    if a.parts is None or b.parts is None:
        return False
    return all(map(_same_shape, a.parts, b.parts))


def enhance_to_arrow(optic: IsoOptic, enhance_op):
    """Convert into any family that can zoom through the optic's shapes.

    ``enhance_op`` maps a member shape to that family's one-layer optic; the
    result is the injection of the two arrows composed with it.  This is a
    morphism of optic families whenever ``enhance_op`` is lawful.
    """
    enhanced = enhance_op(optic.shape)
    cls = type(enhanced)
    return cls.inj(optic.forward, optic.backward).compose(enhanced)
