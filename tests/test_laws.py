"""Generators, law checkers, negative controls, coverage guard, reports."""

import itertools
import json

import pytest

from opticat.families import Lens
from opticat.functors import pair_shape
from opticat.laws import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    FiniteDomain,
    REQUIRED_LAWS,
    check_adapter_laws,
    check_achlens_laws,
    check_enhancing_laws,
    check_lens_laws,
    check_optional_laws,
    check_prism_laws,
    check_setter_laws,
    function_arrow_fixture,
    gen_lawful_achlens,
    gen_lawful_adapter,
    gen_lawful_lens,
    gen_lawful_optional,
    gen_lawful_prism,
    gen_setter,
    gen_unlawful_lens,
    labels,
    merge_reports,
    report_lines,
    run_all_law_checks,
    standard_shapes,
)


def test_generated_lenses_are_lawful():
    dom_r, dom_a = labels("r", 2), labels("a", 3)
    for seed in range(25):
        lens = gen_lawful_lens(seed, dom_r, dom_a)
        dom_s = tuple(f"s{i}" for i in range(6))
        assert all(rep.passed for rep in check_lens_laws(lens, dom_a, dom_s))


def test_first_over_finite_pairs_is_lawful():
    from opticat.families import first

    dom_a = ("a0", "a1")
    pairs = [(a, c) for a in dom_a for c in ("c0", "c1")]
    reports = check_lens_laws(first(), dom_a, pairs)
    assert all(rep.passed for rep in reports)


def test_every_bijection_yields_a_lawful_lens():
    # |R|=2, |A|=3: all 720 assignments of wholes to residual-focus pairs
    dom_r, dom_a = ("r0", "r1"), ("a0", "a1", "a2")
    pairs = [(r, a) for r in dom_r for a in dom_a]
    dom_s = tuple(f"s{i}" for i in range(6))
    count = 0
    for perm in itertools.permutations(pairs):
        to_pair = dict(zip(dom_s, perm))
        from_pair = {v: k for k, v in to_pair.items()}
        lens = Lens(
            get=lambda s, t=to_pair: t[s][1],
            put=lambda b, s, t=to_pair, f=from_pair: f[(t[s][0], b)],
        )
        count += 1
        assert all(lens.get(lens.put(b, s)) == b for b in dom_a for s in dom_s)
        assert all(lens.put(lens.get(s), s) == s for s in dom_s)
        assert all(
            lens.put(b, lens.put(b2, s)) == lens.put(b, s)
            for b in dom_a
            for b2 in dom_a
            for s in dom_s
        )
    assert count == 720


def test_singleton_residual_lens_is_adapter_like():
    dom_r, dom_a = labels("r", 1), labels("a", 3)
    lens = gen_lawful_lens(0, dom_r, dom_a)
    dom_s = tuple(f"s{i}" for i in range(3))
    # put ignores the previous whole entirely: PutPut is trivial
    for b in dom_a:
        outs = {lens.put(b, s) for s in dom_s}
        assert len(outs) == 1
    assert all(rep.passed for rep in check_lens_laws(lens, dom_a, dom_s))


def test_generators_deterministic_under_seed():
    dom_r, dom_a = labels("r", 2), labels("a", 2)
    dom_s = tuple(f"s{i}" for i in range(4))
    l1 = gen_lawful_lens(42, dom_r, dom_a, dom_s)
    l2 = gen_lawful_lens(42, dom_r, dom_a, dom_s)
    assert all(l1.get(s) == l2.get(s) for s in dom_s)
    assert all(l1.put(b, s) == l2.put(b, s) for b in dom_a for s in dom_s)
    p1 = gen_lawful_prism(42, dom_r, dom_a)
    p2 = gen_lawful_prism(42, dom_r, dom_a)
    assert all(p1.match(s) == p2.match(s) for s in (f"s{i}" for i in range(4)))


def test_generated_prisms_achlenses_optionals_adapters_are_lawful():
    dom_r, dom_a = labels("r", 2), labels("a", 2)
    for seed in range(10):
        prism = gen_lawful_prism(seed, dom_r, dom_a)
        assert all(
            rep.passed
            for rep in check_prism_laws(prism, dom_a, tuple(f"s{i}" for i in range(4)))
        )
        al = gen_lawful_achlens(seed, dom_r, dom_a)
        assert all(
            rep.passed
            for rep in check_achlens_laws(al, dom_a, tuple(f"s{i}" for i in range(4)))
        )
        opt = gen_lawful_optional(seed, labels("m", 2), labels("k", 1), dom_a)
        assert all(
            rep.passed
            for rep in check_optional_laws(opt, dom_a, tuple(f"s{i}" for i in range(4)))
        )
        ad = gen_lawful_adapter(seed, dom_a)
        assert all(
            rep.passed for rep in check_adapter_laws(ad, dom_a, ("s0", "s1"))
        )


def test_setter_from_shape_map_is_lawful():
    shape = pair_shape(("r0", "r1"))
    setter = gen_setter(shape)
    dom_a = labels("a", 2)
    reports = check_setter_laws(setter, dom_a, shape.payloads(list(dom_a)))
    assert all(rep.passed for rep in reports)


def test_cardinality_mismatch_rejected():
    with pytest.raises(ValueError):
        gen_lawful_lens(0, labels("r", 2), labels("a", 2), ("s0", "s1", "s2"))
    with pytest.raises(ValueError):
        gen_lawful_prism(0, labels("r", 2), labels("a", 2), ("s0",))


def test_empty_domain_rejected():
    with pytest.raises(ValueError):
        FiniteDomain("empty", ())
    with pytest.raises(ValueError):
        FiniteDomain("dup", ("x", "x"))


# Negative controls ---------------------------------------------------------------

def test_unlawful_lens_fails_get_put_with_counterexample():
    dom_a = labels("a", 2)
    dom_s = ("s0", "s1", "s2")
    lens = gen_unlawful_lens(dom_a, dom_s)
    reports = {rep.law: rep for rep in check_lens_laws(lens, dom_a, dom_s)}
    rep = reports["lens.get_put"]
    assert rep.status == FAIL
    ce = rep.failures[0]
    assert ce["expected"] != ce["actual"]
    assert "b" in ce["inputs"] and "s" in ce["inputs"]
    # the counterexample replays: put really does ignore the new focus
    assert lens.get(lens.put(ce["inputs"]["b"], ce["inputs"]["s"])) == ce["actual"]


def test_broken_enhancing_record_is_detected():
    from opticat.prof import ProfunctorCapability
    from opticat.laws import CapabilityFixture

    # dimap is fine but enhance ignores the shape's nesting at composed
    # shapes, so the shape-composition law must fail
    def broken_enhance(shape, h):
        if shape.parts is not None:
            return lambda p: p
        return lambda p: shape.map(h, p)

    broken = ProfunctorCapability(
        name="BrokenArrow",
        dimap=lambda f, g, h: (lambda x: g(h(f(x)))),
        enhance=broken_enhance,
    )
    fix = CapabilityFixture(
        name="BrokenArrow",
        cap=broken,
        values=function_arrow_fixture().values,
        eq=function_arrow_fixture().eq,
    )
    shapes = standard_shapes()
    dom = labels("a", 2)
    reports = {
        rep.law: rep
        for rep in check_enhancing_laws(
            fix,
            [shapes["pair"]],
            [],
            dom,
            dom,
            compose_pairs=[(shapes["pair"], shapes["pair2"])],
        )
    }
    assert reports["enhancing.compose_shape"].status == FAIL
    assert reports["enhancing.compose_shape"].failures


def test_budget_marks_inconclusive_never_passed():
    dom_a = labels("a", 3)
    dom_s = tuple(f"s{i}" for i in range(6))
    lens = gen_lawful_lens(0, labels("r", 2), dom_a, dom_s)
    reports = {rep.law: rep for rep in check_lens_laws(lens, dom_a, dom_s, budget=5)}
    assert reports["lens.get_put"].status == INCONCLUSIVE
    assert not reports["lens.get_put"].passed


# Coverage, merging, reports --------------------------------------------------------

def test_entry_point_fails_when_reported_laws_differ_from_required(monkeypatch, capsys):
    # REQUIRED_LAWS is the coverage list: main exits 1 when the suite
    # reports another law set, even though every reported law passes.
    import opticat.laws as laws

    reports = run_all_law_checks()
    monkeypatch.setattr(laws, "run_all_law_checks", lambda: reports)
    for required, code in [
        (REQUIRED_LAWS, 0),
        (REQUIRED_LAWS + ("lens.unchecked",), 1),
        (REQUIRED_LAWS[1:], 1),
    ]:
        monkeypatch.setattr(laws, "REQUIRED_LAWS", required)
        assert laws.main([]) == code, len(required)
        assert len(capsys.readouterr().out.splitlines()) == len(reports)


def test_full_suite_passes_and_covers_required_laws():
    reports = run_all_law_checks()
    assert {rep.law for rep in reports} == set(REQUIRED_LAWS)
    failing = [rep.law for rep in reports if not rep.passed]
    assert failing == []


def test_budgeted_suite_never_passes_a_law_compared_on_sampled_probes(monkeypatch):
    # A small budget makes some probe sets sampled, not exhaustive.  Each
    # probe set is charged to the law whose next case it decides; none of
    # those laws may come back PASS.
    import opticat.probes as probes
    from opticat.laws import _LawRun

    probe_functions, case = probes.probe_functions, _LawRun.case
    pending, sampled_laws = [], set()

    def recording_probe_functions(*args, **kwargs):
        fns, exhaustive = probe_functions(*args, **kwargs)
        pending.append(exhaustive)
        return fns, exhaustive

    def recording_case(self, inputs, expected, actual):
        if not all(pending):
            sampled_laws.add(self.report.law)
        pending.clear()
        return case(self, inputs, expected, actual)

    monkeypatch.setattr(probes, "probe_functions", recording_probe_functions)
    monkeypatch.setattr(_LawRun, "case", recording_case)
    reports = {rep.law: rep for rep in run_all_law_checks(budget=20)}
    assert sampled_laws
    assert [law for law in sorted(sampled_laws) if reports[law].status == PASS] == []


def test_iso_capability_fixture_compares_under_the_law_budget(monkeypatch):
    # The IsoOptic fixture's equality probes optics, so it must probe with
    # the law's budget, where the sampled-probe rule can see it.
    import opticat.probes as probes
    from opticat.functors import FAMILY_REGISTRY
    from opticat.laws import (
        iso_capability_fixture,
        naturals_within,
        shape_pools,
        standard_naturals,
    )

    probe_functions, budgets = probes.probe_functions, []

    def recording_probe_functions(dom_a, dom_b, dom_s, max_evals=probes.DEFAULT_MAX_EVALS):
        budgets.append(max_evals)
        return probe_functions(dom_a, dom_b, dom_s, max_evals)

    monkeypatch.setattr(probes, "probe_functions", recording_probe_functions)
    shapes = standard_shapes()
    naturals = standard_naturals(shapes)
    pools = shape_pools(shapes)
    dom = labels("a", 2)
    for name, family in FAMILY_REGISTRY.items():
        pool = pools[name]
        pairs = [(f, g) for f in pool for g in pool if f.payloads and g.payloads][:3]
        check_enhancing_laws(
            iso_capability_fixture(family, pool, dom, dom),
            pool,
            naturals_within(family, naturals),
            dom,
            dom,
            compose_pairs=pairs,
            budget=20,
        )
    assert budgets
    assert set(budgets) == {20}


def test_merge_is_deterministic_and_keeps_first_failure():
    from opticat.laws import LawReport

    reports = [
        LawReport("z.law", 5, [], PASS),
        LawReport("a.law", 2, [{"inputs": 1, "expected": 2, "actual": 3}], FAIL),
        LawReport("a.law", 4, [{"inputs": 9, "expected": 8, "actual": 7}], FAIL),
    ]
    merged = merge_reports(reports)
    assert [rep.law for rep in merged] == ["a.law", "z.law"]
    assert merged[0].cases == 6
    assert merged[0].failures == [{"inputs": 1, "expected": 2, "actual": 3}]


def test_law_report_entry_point(capsys):
    from opticat.laws import main

    assert main([]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= len(REQUIRED_LAWS)
    assert all(json.loads(line)["status"] == PASS for line in lines)


def test_report_lines_are_json_records():
    dom_a = labels("a", 2)
    dom_s = ("s0", "s1", "s2")
    reports = check_lens_laws(gen_unlawful_lens(dom_a, dom_s), dom_a, dom_s)
    lines = list(report_lines(reports))
    assert len(lines) == 3
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"law", "status", "cases", "counterexample"}
    parsed = [json.loads(line) for line in lines]
    failed = [rec for rec in parsed if rec["status"] == FAIL]
    assert failed and all(rec["counterexample"] is not None for rec in failed)


def test_default_suite_decides_each_probe_set_at_most_once_per_comparison(monkeypatch):
    # The default suite makes 8 536 observational comparisons, more than
    # the bound below.  Deciding a comparison's probe set (exhaustive or
    # sampled) takes one probes_exhaustive call at most, under whatever name
    # a module bound it.
    import opticat.iso as iso
    import opticat.laws as laws
    import opticat.probes as probes

    original, calls = probes.probes_exhaustive, []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (probes, iso, laws):
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counting)
    run_all_law_checks()
    assert 0 < len(calls) <= 7150


def test_default_suite_compares_iso_pairs_only_in_residual_form(monkeypatch):
    # Every comparison goes through observational_eq, which compares two
    # IsoOptics through their residual form, so maps_agree never gets two.
    import opticat.iso as iso
    import opticat.laws as laws

    iso_pairs = []
    for module in (laws, iso):
        def recording(o1, o2, *args, original=module.maps_agree, **kwargs):
            if isinstance(o1, iso.IsoOptic) and isinstance(o2, iso.IsoOptic):
                iso_pairs.append((o1, o2))
            return original(o1, o2, *args, **kwargs)

        monkeypatch.setattr(module, "maps_agree", recording)
    run_all_law_checks()
    assert iso_pairs == []


def test_fail_counterexample_prints_probe_functions_by_repr():
    # A probe function is a dict, but a counterexample shows it as its repr,
    # not as a JSON object.
    from opticat.families import Setter

    dom_a = labels("a", 2)
    twice = Setter(over=lambda h: (lambda p: h(h(p))))
    lines = list(report_lines(check_setter_laws(twice, dom_a, dom_a.elements)))
    assert lines[0] == (
        '{"cases": 17, "counterexample": {"actual": "a0", "expected": "a1", '
        '"inputs": {"f": "FiniteFn({\'a0\':\'a1\', \'a1\':\'a0\'})", '
        '"g": "FiniteFn({\'a0\':\'a0\', \'a1\':\'a0\'})", "p": "a0"}}, '
        '"law": "setter.over_composition", "status": "FAIL"}'
    )


@pytest.mark.parametrize(
    "golden, budget",
    [("law_report.jsonl", None), ("law_report_budget20.jsonl", 20)],
)
def test_law_reports_match_golden(golden, budget):
    # Speed work on the suite may not change a verdict or a case count: the
    # golden files are `python -m opticat.laws` and the budget-20 report.
    from pathlib import Path

    expected = (Path(__file__).parent / "golden" / golden).read_text().splitlines()
    reports = run_all_law_checks() if budget is None else run_all_law_checks(budget=budget)
    assert list(report_lines(reports)) == expected
