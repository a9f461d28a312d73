"""Isomorphism optics: an existential (shape, forward, backward) triple.

An :class:`IsoOptic` packs a container shape from a functor family together
with arrows into and out of the container.  Equality of two such optics is
decided observationally (see :func:`observational_eq`); the positive
direction of the underlying "equal up to a natural transformation" rule is
exercised in the law suite through registered natural transformations.
"""

from .base import Record, identity
from .families import FamilyMismatchError
from .functors import (
    Comp,
    ContainerShape,
    FunctorFamily,
    any_functor,
    compose_shapes,
    id_shape,
)
from . import probes
from .probes import DEFAULT_MAX_EVALS, maps_agree


class FamilyMembershipError(TypeError):
    """Raised when a shape does not belong to the optic's functor family."""


class IsoOptic(Record):
    # forward: s -> payload of shape over a
    # backward: payload of shape over b -> t
    __slots__ = ("family", "shape", "forward", "backward")

    def __init__(self, family, shape, forward, backward):
        if not family.member(shape):
            raise FamilyMembershipError(
                f"shape {shape.name} is not a member of {family.name}"
            )
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
    shape = id_shape()
    return IsoOptic(
        family=family or any_functor(),
        shape=shape,
        forward=lambda s: shape.ident.wrap(fwd(s)),
        backward=lambda p: bwd(shape.ident.unwrap(p)),
    )


def iso_identity(family=None):
    return iso_inj(identity, identity, family)


def iso_compose(outer: IsoOptic, inner: IsoOptic) -> IsoOptic:
    if outer.family.name != inner.family.name:
        raise FamilyMismatchError(
            f"cannot compose iso optics over {outer.family.name} "
            f"and {inner.family.name}"
        )
    shape = compose_shapes(outer.shape, inner.shape)
    return IsoOptic(
        family=outer.family,
        shape=shape,
        forward=lambda s: Comp(outer.shape.map(inner.forward, outer.forward(s))),
        backward=lambda p: outer.backward(outer.shape.map(inner.backward, p.value)),
    )


def iso_map_optic(optic: IsoOptic, h):
    return optic.map_optic(h)


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
        family=family or any_functor(),
        shape=shape,
        forward=identity,
        backward=identity,
    )


def observational_eq(l1, l2, dom_a, dom_b, dom_s, max_evals=DEFAULT_MAX_EVALS):
    """Equality via map agreement on the probe set.

    Two iso optics are compared through their residual form: ``map h`` is
    ``backward . shape.map(h) . forward`` and ``forward`` does not depend on
    ``h``, so each whole's ``forward`` runs once, when the first probe
    reaches it, and later probes reuse its payload.  The calls run in
    :func:`maps_agree`'s order otherwise, so the verdict and any exception
    are the same.  Any other pair of optics goes to :func:`maps_agree`.
    """
    if not (isinstance(l1, IsoOptic) and isinstance(l2, IsoOptic)):
        return maps_agree(l1, l2, dom_a, dom_b, dom_s, max_evals=max_evals)
    fns, _ = probes.probe_functions(dom_a, dom_b, dom_s, max_evals)
    fwd1, map1, bwd1 = l1.forward, l1.shape.map, l1.backward
    fwd2, map2, bwd2 = l2.forward, l2.shape.map, l2.backward
    payloads = []  # per whole, the (forward of l1, forward of l2) pair
    for h in fns[:1]:
        for s in dom_s:
            p1 = fwd1(s)
            r1 = bwd1(map1(h, p1))
            p2 = fwd2(s)
            if r1 != bwd2(map2(h, p2)):
                return False
            payloads.append((p1, p2))
    for h in fns[1:]:
        for p1, p2 in payloads:
            if bwd1(map1(h, p1)) != bwd2(map2(h, p2)):
                return False
    return True


def enhance_to_arrow(optic: IsoOptic, enhance_op):
    """Convert into any family that can zoom through the optic's shapes.

    ``enhance_op`` maps a member shape to that family's one-layer optic; the
    result is the injection of the two arrows composed with it.  This is a
    morphism of optic families whenever ``enhance_op`` is lawful.
    """
    enhanced = enhance_op(optic.shape)
    cls = type(enhanced)
    return cls.inj(optic.forward, optic.backward).compose(enhanced)
