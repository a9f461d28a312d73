"""Probe functions and the probe-set memo."""

import pytest

import opticat.probes as probes
from opticat.probes import FiniteFn, all_functions, probe_functions


def test_finite_fn_is_its_table():
    f = FiniteFn([("a0", "a1"), ("a1", "a0")])
    assert f("a0") == "a1" and f("a1") == "a0"
    with pytest.raises(KeyError):
        f("a2")
    assert isinstance(f, dict) and dict(f) == {"a0": "a1", "a1": "a0"}


def test_finite_fn_equality_and_hash_are_identity():
    f = FiniteFn({"a0": "a1"})
    g = FiniteFn({"a0": "a1"})
    assert f == f and not f != f
    assert f != g and not f == g
    assert f != {"a0": "a1"} and {"a0": "a1"} != f
    assert not f == {"a0": "a1"} and not {"a0": "a1"} == f
    assert hash(f) == object.__hash__(f)
    assert len({f, g}) == 2


def test_finite_fn_repr():
    f = FiniteFn([("a0", "a1"), ("a1", ("r0", "a0"))])
    assert repr(f) == "FiniteFn({'a0':'a1', 'a1':('r0', 'a0')})"


def test_probe_set_is_built_once_for_equal_arguments(monkeypatch):
    calls = []
    original = probes.probes_exhaustive

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(probes, "probes_exhaustive", counting)
    dom = ("q0", "q1", "q2")
    fns, exhaustive = probe_functions(dom, dom, ("s0", "s1"))
    assert isinstance(fns, tuple) and exhaustive
    assert [dict(f) for f in fns] == [dict(f) for f in all_functions(dom, dom)]
    assert probe_functions(list(dom), dom, ["t0", "t1"]) == (fns, True)
    assert probe_functions(dom, dom, ("s0", "s1"))[0] is fns
    assert len(calls) == 1


def test_probe_set_key_holds_domains_size_and_budget():
    dom, wholes = ("p0", "p1", "p2"), ("s0", "s1")
    fns, _ = probe_functions(dom, dom, wholes)
    sampled, exhaustive = probe_functions(dom, dom, wholes, max_evals=10)
    assert not exhaustive and len(sampled) == probes.SAMPLE_SIZE
    assert probe_functions(dom, dom, wholes + ("s2",), max_evals=50)[1] is False
    assert probe_functions(dom, dom, wholes, max_evals=54)[1] is True
    assert probe_functions(dom, dom[:2], wholes)[0] != fns
    assert probe_functions(dom, dom, wholes)[0] is not fns


_JSON_FOCI = (0, "x", None, [1, 2])


def test_a_sample_over_an_unhashable_domain_scans_its_pairs():
    # sample_functions chooses its table as all_functions does, so JSON
    # foci, a list among them, give tables that can be called on the list.
    fns = probes.sample_functions(_JSON_FOCI, _JSON_FOCI)
    assert len(fns) == probes.SAMPLE_SIZE
    assert all(f([1, 2]) in _JSON_FOCI for f in fns)
    assert repr(fns[0]).startswith("FiniteFn({0:")


def test_a_sample_over_a_hashable_domain_keeps_its_draws():
    import random

    dom = ("a0", "a1", "a2")
    rng = random.Random(0)
    draws = [{a: rng.choice(dom) for a in dom} for _ in range(probes.SAMPLE_SIZE)]
    fns = probes.sample_functions(dom, dom)
    assert all(type(f) is FiniteFn for f in fns)
    assert [dict(f) for f in fns] == draws


def test_sampled_path_optics_over_json_foci_compare():
    # Two idx(0) paths are equal; a budget that forces a sampled probe set
    # over JSON foci still compares them.
    from opticat.cli import compile_path, parse_path
    from opticat.iso import observational_eq

    wholes = [[a, "x"] for a in _JSON_FOCI]
    o1, _ = compile_path(parse_path("idx(0)"))
    o2, _ = compile_path(parse_path("idx(0)"))
    assert observational_eq(o1, o2, _JSON_FOCI, _JSON_FOCI, wholes, max_evals=10)
    assert observational_eq(o1, o2, _JSON_FOCI, _JSON_FOCI, wholes)


def test_both_probe_tables_print_alike():
    scanned = all_functions(_JSON_FOCI, (0,))[0]
    assert repr(scanned) == "FiniteFn({0:0, 'x':0, None:0, [1, 2]:0})"
    assert repr(all_functions(("a0",), (0,))[0]) == "FiniteFn({'a0':0})"
