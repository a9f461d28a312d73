"""Isomorphism optics: normal form, retraction, observational equality."""

import pytest

from opticat.base import identity
from opticat.encode import concrete_to_iso, functorize
from opticat.families import FamilyMismatchError, FamilyTag, Lens, first
from opticat.functors import (
    ANY_FUNCTOR,
    ID_SHAPE,
    IS_AFFINE,
    IS_PRODUCT,
    IS_SUM,
    Comp,
    FunctorFamily,
    Id,
    UnsupportedShapeError,
    compose_shapes,
    maybe_shape,
    pair_shape,
    sum_shape,
)
from opticat.iso import (
    IsoOptic,
    enhance_iso,
    enhance_to_arrow,
    iso_compose,
    iso_inj,
    observational_eq,
)
from opticat.laws import gen_iso_optic, gen_lawful_lens, labels
from opticat.probes import all_functions, distinguishing_probe, maps_agree

DOM3 = ("a0", "a1", "a2")


def test_membership_is_checked():
    with pytest.raises(UnsupportedShapeError):
        IsoOptic(IS_PRODUCT, sum_shape(("r0",)), identity, identity)


def test_iso_inj_identity_is_observational_identity():
    ident = iso_inj(identity, identity)
    run = ident.map_optic(lambda x: x.upper())
    assert all(run(s) == s.upper() for s in DOM3)


def test_iso_inj_map_is_sandwich():
    f = dict(zip(DOM3, ("a1", "a2", "a0")))
    g = dict(zip(DOM3, ("a2", "a2", "a1")))
    optic = iso_inj(lambda s: f[s], lambda b: g[b])
    for h in all_functions(DOM3, DOM3):
        run = optic.map_optic(h)
        assert all(run(s) == g[h(f[s])] for s in DOM3)


def test_iso_inj_functoriality():
    f = dict(zip(DOM3, ("a1", "a2", "a0")))
    g = dict(zip(DOM3, ("a2", "a2", "a1")))
    f2 = dict(zip(DOM3, ("a0", "a0", "a1")))
    g2 = dict(zip(DOM3, ("a1", "a0", "a2")))
    fused = iso_inj(lambda s: f2[f[s]], lambda y: g[g2[y]])
    staged = iso_compose(
        iso_inj(lambda s: f[s], lambda b: g[b]),
        iso_inj(lambda a: f2[a], lambda y: g2[y]),
    )
    assert observational_eq(fused, staged, DOM3, DOM3, DOM3)


def test_compose_across_families_lands_at_the_join():
    lhs = iso_inj(identity, identity, IS_PRODUCT)
    rhs = iso_inj(identity, identity, IS_SUM)
    composite = iso_compose(lhs, rhs)
    assert composite.family is IS_AFFINE
    assert observational_eq(composite, iso_inj(identity, identity), DOM3, DOM3, DOM3)


def test_compose_off_the_registry_requires_same_family():
    off = FunctorFamily("OffRegistry", lambda s: True)
    lhs = iso_inj(identity, identity, off)
    with pytest.raises(FamilyMismatchError):
        iso_compose(lhs, iso_inj(identity, identity, IS_PRODUCT))
    with pytest.raises(FamilyMismatchError):
        iso_compose(iso_inj(identity, identity, IS_SUM), lhs)
    assert iso_compose(lhs, lhs).family is off


def test_enhance_iso_composition_normal_form():
    # zooming through two layers equals wrapping into the composed layer
    f_shape = pair_shape(("r0", "r1"))
    g_shape = pair_shape(("q0",))
    lhs = iso_compose(enhance_iso(f_shape), enhance_iso(g_shape))
    fg = compose_shapes(f_shape, g_shape)
    rhs = iso_compose(iso_inj(Comp, lambda p: p.value), enhance_iso(fg))
    dom_s = f_shape.payloads(g_shape.payloads(list(DOM3)))
    assert observational_eq(lhs, rhs, DOM3, DOM3, dom_s)


def test_compose_with_identity_is_identity():
    optic = gen_iso_optic(5, pair_shape(("r0", "r1")), IS_PRODUCT, DOM3, DOM3, DOM3, DOM3)
    for composite in (
        iso_compose(iso_inj(identity, identity, IS_PRODUCT), optic),
        iso_compose(optic, iso_inj(identity, identity, IS_PRODUCT)),
    ):
        assert observational_eq(composite, optic, DOM3, DOM3, DOM3)


def test_map_optic_of_composite_is_composition():
    sh = pair_shape(("r0",))
    outer = gen_iso_optic(6, sh, IS_PRODUCT, DOM3, DOM3, DOM3, DOM3)
    inner = gen_iso_optic(7, sh, IS_PRODUCT, ("x0", "x1"), ("x0", "x1"), DOM3, DOM3)
    composite = iso_compose(outer, inner)
    for h in all_functions(("x0", "x1"), ("x0", "x1")):
        fused = composite.map_optic(h)
        staged = lambda s: outer.map_optic(inner.map_optic(h))(s)
        assert all(fused(s) == staged(s) for s in DOM3)


def test_enhance_iso_map_id_is_identity():
    shape = pair_shape(("r0", "r1"))
    run = enhance_iso(shape).map_optic(identity)
    for p in shape.payloads(list(DOM3)):
        assert run(p) == p


def test_enhance_iso_on_id_shape_equals_wrapping_inj():
    shape = ID_SHAPE
    lhs = enhance_iso(shape)
    rhs = iso_inj(lambda p: p.value, Id)
    payloads = shape.payloads(list(DOM3))
    assert observational_eq(lhs, rhs, DOM3, DOM3, payloads)


def test_lens_to_iso_map_const_12():
    optic = concrete_to_iso(first())
    assert optic.map_optic(lambda _: 12)((4, "hello")) == (12, "hello")


def test_converted_lens_agrees_with_concrete_map():
    dom_a = labels("a", 2)
    dom_s = tuple(f"s{i}" for i in range(4))
    lens = gen_lawful_lens(9, labels("r", 2), dom_a, dom_s)
    optic = concrete_to_iso(lens)
    for h in all_functions(dom_a, dom_a):
        run_iso = optic.map_optic(h)
        run_lens = lens.map_optic(h)
        assert all(run_iso(s) == run_lens(s) for s in dom_s)


def test_normal_form():
    # any iso optic equals the injection of its arrows around the pure zoom
    shape = pair_shape(("r0", "r1"))
    optic = gen_iso_optic(10, shape, IS_PRODUCT, DOM3, DOM3, DOM3, DOM3)
    rebuilt = iso_compose(
        iso_inj(optic.forward, optic.backward, IS_PRODUCT),
        enhance_iso(shape, IS_PRODUCT),
    )
    assert observational_eq(optic, rebuilt, DOM3, DOM3, DOM3)


def test_retraction_forward_direction():
    # agreement with the pure zoom forces backward . forward = id
    shape = pair_shape(("r0", "r1"))
    payloads = shape.payloads(list(DOM3))
    for seed in range(12):
        optic = gen_iso_optic(seed, shape, IS_PRODUCT, DOM3, DOM3, payloads, payloads)
        if observational_eq(optic, enhance_iso(shape, IS_PRODUCT), DOM3, DOM3, payloads):
            assert all(optic.backward(optic.forward(p)) == p for p in payloads)


def test_retraction_natural_witness():
    # a natural relabeling of the residual with its inverse is a section and
    # observationally the pure zoom
    shape = pair_shape(("r0", "r1"))
    swap = {"r0": "r1", "r1": "r0"}
    optic = IsoOptic(
        IS_PRODUCT,
        shape,
        forward=lambda p: (swap[p[0]], p[1]),
        backward=lambda p: (swap[p[0]], p[1]),
    )
    payloads = shape.payloads(list(DOM3))
    assert all(optic.backward(optic.forward(p)) == p for p in payloads)
    assert observational_eq(optic, enhance_iso(shape, IS_PRODUCT), DOM3, DOM3, payloads)


def test_observational_eq_reflexive():
    shape = pair_shape(("r0",))
    optic = gen_iso_optic(20, shape, IS_PRODUCT, DOM3, DOM3, DOM3, DOM3)
    assert observational_eq(optic, optic, DOM3, DOM3, DOM3)


def test_observational_eq_up_to_natural_transformation():
    # moving a natural transformation between forward and backward is invisible
    pair = pair_shape(("r0", "r1"))
    fwd = {s: ("r0", s) if s != "a1" else ("r1", "a0") for s in DOM3}
    phi = lambda p: Id(p[1])  # drop the residual: natural pair -> id
    bwd_table = {Id(a): a for a in DOM3}
    lhs = IsoOptic(
        IS_PRODUCT,
        ID_SHAPE,
        forward=lambda s: phi(fwd[s]),
        backward=lambda p: bwd_table[p],
    )
    rhs = IsoOptic(
        IS_PRODUCT,
        pair,
        forward=lambda s: fwd[s],
        backward=lambda p: bwd_table[phi(p)],
    )
    assert observational_eq(lhs, rhs, DOM3, DOM3, DOM3)


def test_observational_eq_distinguishes_distinct_lenses():
    dom_a = labels("a", 3)
    dom_s = tuple(f"s{i}" for i in range(6))
    l1 = gen_lawful_lens(1, labels("r", 2), dom_a, dom_s)
    l2 = gen_lawful_lens(2, labels("r", 2), dom_a, dom_s)
    i1, i2 = concrete_to_iso(l1), concrete_to_iso(l2)
    assert not observational_eq(i1, i2, dom_a, dom_a, dom_s)
    witness = distinguishing_probe(i1, i2, dom_a, dom_a, dom_s)
    assert witness is not None
    assert witness["lhs"] != witness["rhs"]


def test_enhance_to_arrow_on_inj_is_inj():
    f = dict(zip(DOM3, ("a1", "a2", "a0")))
    g = dict(zip(DOM3, ("a2", "a2", "a1")))
    optic = iso_inj(lambda s: f[s], lambda b: g[b], IS_PRODUCT)
    lens = enhance_to_arrow(optic, functorize(FamilyTag.LENS).enhance_op)
    oracle = Lens.inj(lambda s: f[s], lambda b: g[b])
    from opticat.probes import maps_agree

    assert maps_agree(lens, oracle, DOM3, DOM3, DOM3)


def test_enhance_to_arrow_on_pure_zoom_is_enhance_op():
    from opticat.probes import maps_agree

    shape = pair_shape(("r0", "r1"))
    fz = functorize(FamilyTag.LENS)
    lens = enhance_to_arrow(enhance_iso(shape, IS_PRODUCT), fz.enhance_op)
    payloads = shape.payloads(list(DOM3))
    assert maps_agree(lens, fz.enhance_op(shape), DOM3, DOM3, payloads)


def test_enhance_to_arrow_preserves_map():
    shape = pair_shape(("r0", "r1"))
    optic = gen_iso_optic(30, shape, IS_PRODUCT, DOM3, DOM3, DOM3, DOM3)
    lens = enhance_to_arrow(optic, functorize(FamilyTag.LENS).enhance_op)
    for h in all_functions(DOM3, DOM3):
        run_lens = lens.map_optic(h)
        run_iso = optic.map_optic(h)
        assert all(run_lens(s) == run_iso(s) for s in DOM3)


def test_enhance_iso_is_a_lawful_zoom():
    # the pure zoom satisfies the one-layer optic laws for its own family:
    # its map action is the shape's map, and the wedge holds on registered
    # natural transformations
    from opticat.laws import naturals_within, standard_naturals, standard_shapes

    family = ANY_FUNCTOR
    shapes = standard_shapes()
    for shape in (shapes["pair"], shapes["sum"], shapes["maybe_pair"]):
        zoom = enhance_iso(shape, family)
        for h in all_functions(DOM3, DOM3):
            run = zoom.map_optic(h)
            assert all(run(p) == shape.map(h, p) for p in shape.payloads(list(DOM3)))
    for nat in naturals_within(family, standard_naturals(shapes)):
        lhs = iso_compose(
            iso_inj(identity, nat.fn, family), enhance_iso(nat.source, family)
        )
        rhs = iso_compose(
            iso_inj(nat.fn, identity, family), enhance_iso(nat.target, family)
        )
        payloads = nat.source.payloads(list(DOM3))
        assert observational_eq(lhs, rhs, DOM3, DOM3, payloads), nat.name


def test_residual_form_agrees_with_maps_agree_and_runs_each_forward_once():
    # observational_eq on two iso optics gives maps_agree's verdict, but runs
    # each whole's forward once rather than once per probe and whole.
    from opticat.functors import FUNCTOR_FAMILY
    from opticat.laws import shape_pools
    from opticat.probes import maps_agree, probe_functions

    As, ss = labels("a", 2), labels("s", 3)
    n_probes = len(probe_functions(As, As, ss)[0])
    pools = shape_pools()

    def pairs():
        for tag, family in FUNCTOR_FAMILY.items():
            for sh1 in pools[tag]:
                for sh2 in pools[tag]:
                    for seed in range(2):
                        o1 = gen_iso_optic(seed, sh1, family, As, As, ss, ss)
                        for k in (seed, seed + 1):
                            yield o1, gen_iso_optic(k, sh2, family, As, As, ss, ss)
                        yield o1, iso_inj(o1.forward, o1.backward, family).compose(
                            enhance_iso(sh1, family)
                        )

    def counted(optic):
        calls = []

        def forward(s):
            calls.append(s)
            return optic.forward(s)

        return IsoOptic(optic.family, optic.shape, forward, optic.backward), calls

    outcomes = []
    for o1, o2 in pairs():
        (c1, calls1), (c2, calls2) = counted(o1), counted(o2)
        verdict = observational_eq(c1, c2, As, As, ss)
        assert verdict == maps_agree(o1, o2, As, As, ss)
        if verdict:
            assert calls1 == calls2 == list(ss)
        else:
            assert len(calls1) <= len(ss) and len(calls2) <= len(ss)
        outcomes.append(verdict)
    assert len(outcomes) >= 200 and n_probes > 1
    assert 0 < outcomes.count(True) < len(outcomes)


def test_residual_form_raises_where_maps_agree_raises():
    shape = pair_shape(("r0", "r1"))
    optic = enhance_iso(shape, IS_PRODUCT)
    partial = IsoOptic(IS_PRODUCT, shape, identity, {}.__getitem__)
    payloads = shape.payloads(list(DOM3))
    with pytest.raises(KeyError):
        observational_eq(optic, partial, DOM3, DOM3, payloads)
    with pytest.raises(KeyError):
        observational_eq(partial, optic, DOM3, DOM3, payloads)


# Tables before probes: observational_eq decides equal residual-form tables
# without a probe, and must give maps_agree's verdict either way.

def _probing_eq(monkeypatch):
    """observational_eq, returning its verdict and whether it asked for a
    probe set."""
    import opticat.probes as probes

    original, requests = probes.probe_functions, []

    def recording(*args, **kwargs):
        requests.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(probes, "probe_functions", recording)

    def eq(*args):
        requests.clear()
        return observational_eq(*args), bool(requests)

    return eq


def test_backward_differing_on_one_payload_gets_maps_agree_verdict(monkeypatch):
    eq = _probing_eq(monkeypatch)
    As, ss = labels("a", 2), labels("s", 3)
    family = ANY_FUNCTOR
    pair = pair_shape(("r0", "r1"))
    verdicts = []
    for shape in (pair, sum_shape(("r0", "r1")), compose_shapes(pair, maybe_shape())):
        for seed in range(3):
            o1 = gen_iso_optic(seed, shape, family, As, As, ss, ss)
            for q in shape.payloads(list(As)):
                table = {p: o1.backward(p) for p in shape.payloads(list(As))}
                table[q] = next(t for t in ss if t != table[q])
                o2 = IsoOptic(family, shape, o1.forward, table.__getitem__)
                verdict, probed = eq(o1, o2, As, As, ss)
                assert verdict == maps_agree(o1, o2, As, As, ss), (shape, seed, q)
                assert probed  # the tables differ
                verdicts.append(verdict)
    assert 0 < verdicts.count(True) < len(verdicts)


def test_separately_composed_shapes_over_the_same_parts_are_one_shape(monkeypatch):
    eq = _probing_eq(monkeypatch)
    As, ss = labels("a", 2), labels("s", 3)
    family = ANY_FUNCTOR
    pair, maybe, q = pair_shape(("r0", "r1")), maybe_shape(), pair_shape(("q0",), name="Q")

    def nested():
        return compose_shapes(compose_shapes(pair, maybe), q)

    for build in (lambda: compose_shapes(pair, maybe), nested):
        fg1, fg2 = build(), build()
        assert fg1 is not fg2
        for seed in range(4):
            o1 = gen_iso_optic(seed, fg1, family, As, As, ss, ss)
            same = IsoOptic(family, fg2, o1.forward, o1.backward)
            assert maps_agree(o1, same, As, As, ss)
            assert eq(o1, same, As, As, ss) == (True, False)
            # enhancing twice builds two composed shapes over the same parts
            zoom1 = iso_compose(enhance_iso(pair, family), o1)
            zoom2 = iso_compose(enhance_iso(pair, family), same)
            assert zoom1.shape is not zoom2.shape
            wholes = pair.payloads(list(ss))
            assert eq(zoom1, zoom2, As, As, wholes) == (True, False)

    # other tables, or a part that is another object, go to the probes
    fg = compose_shapes(pair, maybe)
    lookalike = compose_shapes(pair_shape(("r0", "r1")), maybe)
    verdicts = []
    for seed in range(4):
        o1 = gen_iso_optic(seed, fg, family, As, As, ss, ss)
        o2 = gen_iso_optic(seed + 1, compose_shapes(pair, maybe), family, As, As, ss, ss)
        twin = IsoOptic(family, lookalike, o1.forward, o1.backward)
        for other in (o2, twin):
            verdict, probed = eq(o1, other, As, As, ss)
            assert verdict == maps_agree(o1, other, As, As, ss) and probed
            verdicts.append(verdict)
    assert verdicts[1::2] == [True] * 4 and False in verdicts[::2]


def test_forward_outside_the_enumerated_payloads_falls_back_to_probes(monkeypatch):
    # ("r9", a) is no payload of the enumeration, so the backwards' agreement
    # on payloads(dom_b) says nothing about where the probes land.
    eq = _probing_eq(monkeypatch)
    shape = pair_shape(("r0", "r1"))
    family = ANY_FUNCTOR
    forward = lambda s: ("r9", "a0")
    o1 = IsoOptic(family, shape, forward, lambda p: p[1])
    o2 = IsoOptic(family, shape, forward, lambda p: "s0" if p[0] == "r9" else p[1])
    o3 = IsoOptic(family, shape, forward, lambda p: p[1])
    dom = ("a0", "a1")
    assert all(o1.backward(q) == o2.backward(q) for q in shape.payloads(list(dom)))
    assert maps_agree(o1, o2, dom, dom, DOM3) is False
    assert eq(o1, o2, dom, dom, DOM3) == (False, True)
    assert eq(o1, o3, dom, dom, DOM3) == (True, True)
