"""Probe functions and the probe-set memo."""

import pytest

import opticat.probes as probes
from opticat.probes import FiniteFn, all_functions, probe_functions


def test_finite_fn_is_its_table():
    f = FiniteFn([("a0", "a1"), ("a1", "a0")])
    assert f("a0") == "a1" and f("a1") == "a0"
    with pytest.raises(KeyError):
        f("a2")
    table = f.table
    assert type(table) is dict and table == {"a0": "a1", "a1": "a0"}
    table["a0"] = "a0"
    assert f("a0") == "a1"


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
    assert [f.table for f in fns] == [f.table for f in all_functions(dom, dom)]
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
