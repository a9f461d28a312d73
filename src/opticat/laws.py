"""Optic generators over finite domains and the executable law suite.

Checkers never assert; they return :class:`LawReport` values whose failures
carry the first counterexample in enumeration order.  Budgeted runs that hit
the evaluation cap, or that would compare optics on a sampled probe set, come
back INCONCLUSIVE, never silently passed.  Every comparison of two optics
goes through :func:`observational_eq`.  The evaluation budget is the suite's
only setting: fixtures and seeds are fixed.  :data:`REQUIRED_LAWS` is the
coverage list, and :func:`main` fails when the laws the suite reports differ
from it.
"""

import itertools
import json
import random
import sys
from functools import partial

from .base import Just, Left, Nothing, Record, Right, identity
from .families import (
    CONCRETE_FAMILIES,
    AchLens,
    Adapter,
    FamilyTag,
    Lens,
    Optional,
    Prism,
    Setter,
    embed,
    family_le,
)
from .encode import concrete_to_iso, functorize, prof_encoding, unfunctorize
from .functors import (
    FAMILY_REGISTRY,
    Comp,
    Id,
    compose_shapes,
    id_shape,
    maybe_pair_shape,
    maybe_shape,
    pair_shape,
    sum_shape,
)
from . import probes
from .iso import IsoOptic, enhance_iso, iso_identity, iso_inj, observational_eq
# maps_agree is unused here, but perfbench/tracing.py patches laws.maps_agree
# by name, and a missing name crashes a traced law_suite run.
from .probes import DEFAULT_MAX_EVALS, FiniteFn, all_functions, maps_agree
from .prof import (
    FUNCTION_ARROW,
    GETTING,
    MATCHING,
    Getting,
    Matching,
    iso_capability,
    iso_to_prof,
    prof_inj,
    prof_to_iso,
)

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


class FiniteDomain(Record):
    __slots__ = ("name", "elements")

    def __init__(self, name, elements):
        super().__init__(name, tuple(elements))
        if not self.elements:
            raise ValueError(f"domain {self.name} is empty")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError(f"domain {self.name} has duplicate elements")

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def labels(prefix: str, n: int) -> FiniteDomain:
    return FiniteDomain(prefix, tuple(f"{prefix}{i}" for i in range(n)))


class LawReport:
    def __init__(self, law, cases=0, failures=None, status=PASS):
        self.law = law
        self.cases = cases
        self.failures = [] if failures is None else failures
        self.status = status

    def __eq__(self, other):
        if type(other) is LawReport:
            return (self.law, self.cases, self.failures, self.status) == (
                other.law, other.cases, other.failures, other.status
            )
        return NotImplemented

    @property
    def passed(self):
        return self.status == PASS and not self.failures


class _LawRun:
    """Collects cases for one law; keeps the first counterexample only.

    This is the one place the enumeration policy lives: :meth:`run` stops at
    the first counterexample or when the budget runs out, and :meth:`agrees`
    never lets a comparison on a sampled probe set pass.
    """

    def __init__(self, law, budget=DEFAULT_MAX_EVALS):
        self.report = LawReport(law=law)
        self.budget = budget

    def case(self, inputs, expected, actual):
        """Record one comparison; returns False when enumeration should stop."""
        if self.report.cases >= self.budget:
            self.report.status = INCONCLUSIVE
            return False
        self.report.cases += 1
        if expected != actual:
            self.report.failures.append(
                {"inputs": inputs, "expected": expected, "actual": actual}
            )
            self.report.status = FAIL
            return False
        return True

    def run(self, cases):
        """Consume lazy ``(inputs, expected, actual)`` triples; returns the
        report."""
        for inputs, expected, actual in cases:
            if not self.case(inputs, expected, actual):
                break
        return self.report

    def agrees(self, lhs, rhs, dom_a, dom_b, dom_s):
        """:func:`observational_eq` under this law's budget.  A sampled probe
        set can refute equality but not show it, so it leaves the law
        INCONCLUSIVE at best.  The probe set is built once: the comparison
        gets the same one back from :func:`probes.probe_functions`."""
        _, exhaustive = probes.probe_functions(dom_a, dom_b, dom_s, self.budget)
        if not exhaustive and self.report.status == PASS:
            self.report.status = INCONCLUSIVE
        return observational_eq(lhs, rhs, dom_a, dom_b, dom_s, max_evals=self.budget)

    def agreements(self, cases):
        """:meth:`run` over lazy ``(inputs, lhs, rhs, dom_a, dom_b, dom_s)``
        cases, each passing when :meth:`agrees` holds."""
        return self.run(
            (inputs, True, self.agrees(lhs, rhs, *doms))
            for inputs, lhs, rhs, *doms in cases
        )


def merge_reports(reports):
    """Deterministic merge: one report per law name, first failure kept."""
    by_law = {}
    for rep in reports:
        cur = by_law.get(rep.law)
        if cur is None:
            by_law[rep.law] = LawReport(
                rep.law, rep.cases, list(rep.failures[:1]), rep.status
            )
            continue
        cur.cases += rep.cases
        if not cur.failures:
            cur.failures = list(rep.failures[:1])
        order = {FAIL: 2, INCONCLUSIVE: 1, PASS: 0}
        if order[rep.status] > order[cur.status]:
            cur.status = rep.status
    return [by_law[name] for name in sorted(by_law)]


def report_lines(reports):
    """Machine-readable output: one JSON record per law."""
    for rep in merge_reports(reports):
        yield json.dumps(
            {
                "law": rep.law,
                "status": rep.status,
                "cases": rep.cases,
                "counterexample": _plain(rep.failures[0]) if rep.failures else None,
            },
            sort_keys=True,
        )


def write_report(reports, fp):
    for line in report_lines(reports):
        fp.write(line + "\n")


def _plain(value):
    if isinstance(value, dict) and not isinstance(value, FiniteFn):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


# Generators ------------------------------------------------------------------

def _seeded_bijection(seed, cells, dom_s, size):
    """A seeded bijection from the wholes (``s0``, ``s1``, ... by default)
    onto ``cells``.  Returns the RNG, for further seeded choices, the table
    and its inverse."""
    ss = tuple(dom_s) if dom_s is not None else tuple(f"s{i}" for i in range(len(cells)))
    if len(ss) != len(cells):
        raise ValueError(f"|S|={len(ss)} but {size}={len(cells)}")
    rng = random.Random(seed)
    split = dict(zip(ss, rng.sample(cells, len(cells))))
    return rng, split, {v: k for k, v in split.items()}


def _lens_bijection(seed, dom_r, dom_a, dom_s):
    pairs = list(itertools.product(dom_r, dom_a))
    return _seeded_bijection(seed, pairs, dom_s, "|R|*|A|")


def gen_lawful_lens(seed, dom_r, dom_a, dom_s=None) -> Lens:
    """A lawful simple lens from a seeded bijection between the whole domain
    and residual-focus pairs."""
    _, to_pair, from_pair = _lens_bijection(seed, dom_r, dom_a, dom_s)
    return Lens(
        get=lambda s: to_pair[s][1],
        put=lambda b, s: from_pair[(to_pair[s][0], b)],
    )


def gen_lawful_prism(seed, dom_r, dom_a, dom_s=None) -> Prism:
    """A lawful simple prism from a seeded bijection between the whole domain
    and a residual-plus-focus sum."""
    cells = [Left(r) for r in dom_r] + [Right(a) for a in dom_a]
    _, split, unsplit = _seeded_bijection(seed, cells, dom_s, "|R|+|A|")

    def match(s):
        e = split[s]
        return e if isinstance(e, Right) else Left(s)

    return Prism(match=match, build=lambda a: unsplit[Right(a)])


def gen_lawful_achlens(seed, dom_r, dom_a, dom_s=None) -> AchLens:
    """A lawful achromatic lens: a lens bijection whose residual has a
    seeded distinguished point used by ``create``."""
    rng, to_pair, from_pair = _lens_bijection(seed, dom_r, dom_a, dom_s)
    point = rng.choice(tuple(dom_r))
    return AchLens(
        get=lambda s: to_pair[s][1],
        put=lambda b, s: from_pair[(to_pair[s][0], b)],
        create=lambda b: from_pair[(point, b)],
    )


def gen_lawful_adapter(seed, dom_a, dom_s=None) -> Adapter:
    _, fwd, bwd = _seeded_bijection(seed, list(dom_a), dom_s, "|A|")
    return Adapter(fwd=lambda s: fwd[s], bwd=lambda a: bwd[a])


def gen_setter(shape) -> Setter:
    """The canonical lawful setter of a shape: its map action."""
    return Setter(over=lambda h: (lambda p: shape.map(h, p)))


def gen_lawful_optional(seed, dom_miss, dom_keep, dom_a, dom_s=None) -> Optional:
    """A lawful simple optional from a bijection S = miss + keep*focus."""
    cells = [Left(m) for m in dom_miss] + [
        Right(ka) for ka in itertools.product(dom_keep, dom_a)
    ]
    _, split, unsplit = _seeded_bijection(seed, cells, dom_s, "|miss|+|keep|*|A|")

    def match(s):
        e = split[s]
        return Right(e.value[1]) if isinstance(e, Right) else Left(s)

    def put(b, s):
        e = split[s]
        if isinstance(e, Left):
            return s
        return unsplit[Right((e.value[0], b))]

    return Optional(match=match, put=put)


def gen_unlawful_lens(dom_a, dom_s) -> Lens:
    """Deliberately broken: put ignores the new focus, so GetPut fails."""
    As, ss = tuple(dom_a), tuple(dom_s)
    return Lens(get=lambda s: As[ss.index(s) % len(As)], put=lambda b, s: s)


# Random (not necessarily lawful) records for structural-law fixtures --------

def _rand_table(rng, dom_in, dom_out):
    return {x: rng.choice(list(dom_out)) for x in dom_in}


def gen_random_optic(tag: FamilyTag, seed, dom_a, dom_s):
    """An arbitrary total record of the family.  The shared-operation laws
    hold for any record, lawful or not, so these make strong fixtures."""
    rng = random.Random(f"{tag}:{seed}")
    As, ss = tuple(dom_a), tuple(dom_s)
    if tag == FamilyTag.LENS:
        get = _rand_table(rng, ss, As)
        put = {(b, s): rng.choice(ss) for b in As for s in ss}
        return Lens(get=lambda s: get[s], put=lambda b, s: put[(b, s)])
    if tag == FamilyTag.PRISM:
        cells = [Left(t) for t in ss] + [Right(a) for a in As]
        match = {s: rng.choice(cells) for s in ss}
        build = _rand_table(rng, As, ss)
        return Prism(match=lambda s: match[s], build=lambda a: build[a])
    if tag == FamilyTag.ADAPTER:
        fwd = _rand_table(rng, ss, As)
        bwd = _rand_table(rng, As, ss)
        return Adapter(fwd=lambda s: fwd[s], bwd=lambda a: bwd[a])
    if tag == FamilyTag.SETTER:
        e1 = _rand_table(rng, ss, As)
        e2 = _rand_table(rng, ss, As)
        combine = {(s, b1, b2): rng.choice(ss) for s in ss for b1 in As for b2 in As}
        return Setter(
            over=lambda h: (lambda s: combine[(s, h(e1[s]), h(e2[s]))])
        )
    if tag == FamilyTag.ACHLENS:
        get = _rand_table(rng, ss, As)
        put = {(b, s): rng.choice(ss) for b in As for s in ss}
        create = _rand_table(rng, As, ss)
        return AchLens(
            get=lambda s: get[s],
            put=lambda b, s: put[(b, s)],
            create=lambda b: create[b],
        )
    if tag == FamilyTag.OPTIONAL:
        cells = [Left(t) for t in ss] + [Right(a) for a in As]
        match = {s: rng.choice(cells) for s in ss}
        put = {(b, s): rng.choice(ss) for b in As for s in ss}
        return Optional(match=lambda s: match[s], put=lambda b, s: put[(b, s)])
    raise KeyError(tag)


def gen_iso_optic(seed, shape, family, dom_a, dom_b, dom_s, dom_t) -> IsoOptic:
    """An arbitrary iso optic: seeded forward/backward tables over the
    shape's enumerated payloads."""
    if shape.payloads is None:
        raise ValueError(f"shape {shape.name} has no payload enumeration")
    rng = random.Random(f"{shape.name}:{seed}")
    pa = shape.payloads(list(dom_a))
    pb = shape.payloads(list(dom_b))
    fwd = {s: rng.choice(pa) for s in dom_s}
    bwd = {p: rng.choice(list(dom_t)) for p in pb}
    return IsoOptic(
        family=family,
        shape=shape,
        forward=lambda s: fwd[s],
        backward=lambda p: bwd[p],
    )


# Concrete-family law groups --------------------------------------------------

def check_lens_laws(lens, dom_a, dom_s, budget=DEFAULT_MAX_EVALS):
    As, ss = tuple(dom_a), tuple(dom_s)
    return [
        _LawRun("lens.get_put", budget).run(
            ({"b": b, "s": s}, b, lens.get(lens.put(b, s)))
            for b, s in itertools.product(As, ss)
        ),
        _LawRun("lens.put_get", budget).run(
            ({"s": s}, s, lens.put(lens.get(s), s)) for s in ss
        ),
        _LawRun("lens.put_put", budget).run(
            ({"b": b, "b2": b2, "s": s}, lens.put(b, s), lens.put(b, lens.put(b2, s)))
            for b, b2, s in itertools.product(As, As, ss)
        ),
    ]


def check_prism_laws(prism, dom_a, dom_s, budget=DEFAULT_MAX_EVALS):
    As, ss = tuple(dom_a), tuple(dom_s)
    return [
        _LawRun("prism.match_build", budget).run(
            ({"b": b}, Right(b), prism.match(prism.build(b))) for b in As
        ),
        _LawRun("prism.build_match", budget).run(
            ({"s": s}, s, prism.build(e.value))
            for s, e in zip(ss, map(prism.match, ss))
            if isinstance(e, Right)
        ),
        _LawRun("prism.no_match_identity", budget).run(
            ({"s": s}, s, e.value)
            for s, e in zip(ss, map(prism.match, ss))
            if isinstance(e, Left)
        ),
    ]


def check_adapter_laws(adapter, dom_a, dom_s, budget=DEFAULT_MAX_EVALS):
    return [
        _LawRun("adapter.fwd_bwd", budget).run(
            ({"a": a}, a, adapter.fwd(adapter.bwd(a))) for a in dom_a
        ),
        _LawRun("adapter.bwd_fwd", budget).run(
            ({"s": s}, s, adapter.bwd(adapter.fwd(s))) for s in dom_s
        ),
    ]


def check_setter_laws(setter, dom_a, wholes, budget=DEFAULT_MAX_EVALS):
    As = tuple(dom_a)
    run_id = setter.over(identity)
    fns = all_functions(As, As)

    def over_composition():
        for f, g in itertools.product(fns, fns):
            fused = setter.over(lambda a: f(g(a)))
            staged = setter.over(f)
            inner = setter.over(g)
            for p in wholes:
                yield {"f": f, "g": g, "p": p}, fused(p), staged(inner(p))

    return [
        _LawRun("setter.over_identity", budget).run(
            ({"p": p}, p, run_id(p)) for p in wholes
        ),
        _LawRun("setter.over_composition", budget).run(over_composition()),
    ]


def check_achlens_laws(al, dom_a, dom_s, budget=DEFAULT_MAX_EVALS):
    reports = [
        LawReport(rep.law.replace("lens.", "achlens."), rep.cases, rep.failures, rep.status)
        for rep in check_lens_laws(al, dom_a, dom_s, budget)
    ]
    get_create = _LawRun("achlens.get_create", budget).run(
        ({"b": b}, b, al.get(al.create(b))) for b in dom_a
    )
    return reports + [get_create]


def check_optional_laws(opt, dom_a, dom_s, budget=DEFAULT_MAX_EVALS):
    As, ss = tuple(dom_a), tuple(dom_s)
    return [
        _LawRun("optional.hit_put_identity", budget).run(
            ({"s": s}, s, opt.put(e.value, s))
            for s, e in zip(ss, map(opt.match, ss))
            if isinstance(e, Right)
        ),
        _LawRun("optional.put_then_match", budget).run(
            ({"b": b, "s": s}, Right(b), opt.match(opt.put(b, s)))
            for b, s in itertools.product(As, ss)
            if isinstance(opt.match(s), Right)
        ),
        _LawRun("optional.miss_put_residual", budget).run(
            ({"b": b, "s": s}, e.value, opt.put(b, s))
            for b, (s, e) in itertools.product(As, zip(ss, map(opt.match, ss)))
            if isinstance(e, Left)
        ),
    ]


def lens_is_lawful(lens, dom_a, dom_s):
    return all(r.passed for r in check_lens_laws(lens, dom_a, dom_s))


def prism_is_lawful(prism, dom_a, dom_s):
    return all(r.passed for r in check_prism_laws(prism, dom_a, dom_s))


# Shape law group -------------------------------------------------------------

def _round_trip_laws(group, key, shape_name, payloads, to, back, budget):
    """``back . to`` on payloads and ``to . back`` on their images are
    identities: the product and sum capability laws."""
    return [
        _LawRun(f"{group}.round_trip_from_to", budget).run(
            ({"shape": shape_name, "p": p}, p, back(to(p))) for p in payloads
        ),
        _LawRun(f"{group}.round_trip_to_from", budget).run(
            ({"shape": shape_name, key: x}, x, to(back(x))) for x in map(to, payloads)
        ),
    ]


def check_functor_laws(shape, dom_a, budget=DEFAULT_MAX_EVALS):
    As = tuple(dom_a)
    payloads = shape.payloads(list(As))
    fns = all_functions(As, As)

    reports = [
        _LawRun("functor.map_identity", budget).run(
            ({"shape": shape.name, "p": p}, p, shape.map(identity, p)) for p in payloads
        ),
        _LawRun("functor.map_composition", budget).run(
            (
                {"shape": shape.name, "f": f, "g": g, "p": p},
                shape.map(lambda a: f(g(a)), p),
                shape.map(f, shape.map(g, p)),
            )
            for f, g in itertools.product(fns, fns)
            for p in payloads
        ),
    ]
    if shape.product:
        cap = shape.product
        reports += _round_trip_laws(
            "product", "pair", shape.name, payloads, cap.to_product, cap.from_product, budget
        )
    if shape.sum:
        cap = shape.sum
        reports += _round_trip_laws(
            "sum", "e", shape.name, payloads, cap.to_sum, cap.from_sum, budget
        )
    return reports


# Optic-family law group ------------------------------------------------------

class FamilyFixture:
    """Everything the shared-operation law checker needs for one family."""

    def __init__(self, name, identity, inj, triples, doms, inj_tables):
        self.name = name
        self.identity = identity      # () -> identity optic
        self.inj = inj                # (fwd, bwd) -> optic
        self.triples = triples        # [(o1, o2, o3)] composable, outermost first
        self.doms = doms              # keys: s, a1, a2, a3  (simple optics: b=a, t=s)
        # [(f, g, f2, g2)]  f: s->a1, g: a1->s, f2: a1->a3, g2: a3->a1
        self.inj_tables = inj_tables


def check_optic_family_laws(fix, budget=DEFAULT_MAX_EVALS):
    ds, d1 = tuple(fix.doms["s"]), tuple(fix.doms["a1"])
    d2, d3 = tuple(fix.doms["a2"]), tuple(fix.doms["a3"])
    triples = list(enumerate(fix.triples))
    tables = list(enumerate(fix.inj_tables))

    def map_inj():
        for i, (f, g, _, _) in tables:
            optic = fix.inj(f, g)
            for h in all_functions(d1, d1):
                run = optic.map_optic(h)
                ok = all(run(s) == g(h(f(s))) for s in ds)
                yield {"fixture": fix.name, "table": i, "h": h}, True, ok

    def map_composition():
        for i, (o1, o2, _) in triples:
            pair_optic = o1.compose(o2)
            for h in all_functions(d2, d2):
                staged = o1.map_optic(o2.map_optic(h))
                fused = pair_optic.map_optic(h)
                ok = all(fused(s) == staged(s) for s in ds)
                yield {"fixture": fix.name, "triple": i, "h": h}, True, ok

    return [
        _LawRun("optic_family.compose_associative", budget).agreements(
            (
                {"fixture": fix.name, "triple": i},
                o1.compose(o2.compose(o3)),
                o1.compose(o2).compose(o3),
                d3, d3, ds,
            )
            for i, (o1, o2, o3) in triples
        ),
        _LawRun("optic_family.identity_left", budget).agreements(
            ({"fixture": fix.name, "triple": i}, fix.identity().compose(o1), o1, d1, d1, ds)
            for i, (o1, _, _) in triples
        ),
        _LawRun("optic_family.identity_right", budget).agreements(
            ({"fixture": fix.name, "triple": i}, o1.compose(fix.identity()), o1, d1, d1, ds)
            for i, (o1, _, _) in triples
        ),
        _LawRun("optic_family.inj_identity", budget).agreements(
            ({"fixture": fix.name, "table": i}, fix.inj(identity, identity), fix.identity(), ds, ds, ds)
            for i, _ in tables
        ),
        _LawRun("optic_family.inj_composition", budget).agreements(
            (
                {"fixture": fix.name, "table": i},
                fix.inj(lambda s: f2(f(s)), lambda y: g(g2(y))),
                fix.inj(f, g).compose(fix.inj(f2, g2)),
                d3, d3, ds,
            )
            for i, (f, g, f2, g2) in tables
        ),
        _LawRun("optic_family.map_inj", budget).run(map_inj()),
        _LawRun("optic_family.map_composition", budget).run(map_composition()),
    ]


def _inj_tables(rng, doms):
    """Two seeded (f, g, f2, g2) tables: f: s->a1, g: a1->s, f2: a1->a3,
    g2: a3->a1."""
    signature = (("s", "a1"), ("a1", "s"), ("a1", "a3"), ("a3", "a1"))
    return [
        tuple(_rand_table(rng, doms[x], doms[y]).__getitem__ for x, y in signature)
        for _ in range(2)
    ]


def concrete_family_fixture(tag: FamilyTag) -> FamilyFixture:
    doms = {
        "s": labels("s", 4),
        "a1": labels("a", 3),
        "a2": labels("m", 3),
        "a3": labels("x", 2),
    }
    triples = [
        (
            gen_random_optic(tag, 10 * k, doms["a1"], doms["s"]),
            gen_random_optic(tag, 10 * k + 1, doms["a2"], doms["a1"]),
            gen_random_optic(tag, 10 * k + 2, doms["a3"], doms["a2"]),
        )
        for k in range(3)
    ]
    cls = CONCRETE_FAMILIES[tag]
    return FamilyFixture(
        name=f"concrete.{tag.value}",
        identity=lambda: cls.inj(identity, identity),
        inj=cls.inj,
        triples=triples,
        doms=doms,
        inj_tables=_inj_tables(random.Random(f"inj:{tag}:0"), doms),
    )


def iso_family_fixture(family, shape_pool) -> FamilyFixture:
    doms = {
        "s": labels("s", 3),
        "a1": labels("a", 3),
        "a2": labels("m", 2),
        "a3": labels("x", 2),
    }
    rng = random.Random(f"{family.name}:0")
    triples = []
    for k in range(3):
        sh1, sh2, sh3 = (rng.choice(shape_pool) for _ in range(3))
        triples.append(
            (
                gen_iso_optic(10 * k, sh1, family, doms["a1"], doms["a1"], doms["s"], doms["s"]),
                gen_iso_optic(10 * k + 1, sh2, family, doms["a2"], doms["a2"], doms["a1"], doms["a1"]),
                gen_iso_optic(10 * k + 2, sh3, family, doms["a3"], doms["a3"], doms["a2"], doms["a2"]),
            )
        )
    return FamilyFixture(
        name=f"iso.{family.name}",
        identity=lambda: iso_identity(family),
        inj=lambda f, g: iso_inj(f, g, family),
        triples=triples,
        doms=doms,
        inj_tables=_inj_tables(rng, doms),
    )


# Standard shapes and natural transformations ---------------------------------

def standard_shapes() -> dict:
    residuals = ("r0", "r1")
    pair = pair_shape(residuals, name="Pair")
    pair2 = pair_shape(("q0", "q1"), name="Pair2")
    mpair = maybe_pair_shape(residuals, name="MaybePair")
    summ = sum_shape(residuals, name="Sum")
    sum_unit = sum_shape(((),), name="SumUnit")
    mb = maybe_shape()
    return {
        "id": id_shape(),
        "pair": pair,
        "pair2": pair2,
        "maybe_pair": mpair,
        "sum": summ,
        "sum_unit": sum_unit,
        "maybe": mb,
        "compose_pp": compose_shapes(pair, pair2),
        "compose_sm": compose_shapes(summ, mb),
        "compose_pm": compose_shapes(pair, mb),
        "compose_ii": compose_shapes(id_shape(), id_shape()),
    }


class Natural(Record):
    """A registered natural transformation between two shapes."""

    __slots__ = ("name", "source", "target", "fn")


def standard_naturals(shapes=None) -> list:
    sh = shapes or standard_shapes()
    rot = {"r0": "r1", "r1": "r0"}
    return [
        Natural("pair_drop", sh["pair"], sh["id"], lambda p: Id(p[1])),
        Natural("pair_tag", sh["pair"], sh["maybe_pair"], lambda p: (Just(p[0]), p[1])),
        Natural("id_point", sh["id"], sh["maybe_pair"], lambda p: (Nothing(), p.value)),
        Natural("id_const_pair", sh["id"], sh["pair"], lambda p: ("r0", p.value)),
        Natural(
            "pair_rotate", sh["pair"], sh["pair"], lambda p: (rot[p[0]], p[1])
        ),
        Natural("id_hit", sh["id"], sh["sum"], lambda p: Right(p.value)),
        Natural("id_just", sh["id"], sh["maybe"], lambda p: Just(p.value)),
        Natural(
            "maybe_unit_sum",
            sh["maybe"],
            sh["sum_unit"],
            lambda m: Right(m.value) if isinstance(m, Just) else Left(()),
        ),
        Natural(
            "sum_squash",
            sh["sum"],
            sh["maybe"],
            lambda e: Just(e.value) if isinstance(e, Right) else Nothing(),
        ),
        Natural(
            "sum_rotate",
            sh["sum"],
            sh["sum"],
            lambda e: Left(rot[e.value]) if isinstance(e, Left) else e,
        ),
        Natural("id_nat", sh["id"], sh["id"], lambda p: p),
        Natural(
            "maybe_pair_default",
            sh["maybe_pair"],
            sh["pair"],
            lambda p: (p[0].value if isinstance(p[0], Just) else "r0", p[1]),
        ),
    ]


def _natural_retraction_pairs(naturals):
    """(forward, retraction) pairs among the registered naturals: the two
    residual rotations are involutions, tagging a residual is undone by the
    defaulting projection, and the identity retracts itself."""
    by_name = {nat.name: nat for nat in naturals}
    pairs = []
    for fwd_name, bwd_name in (
        ("pair_rotate", "pair_rotate"),
        ("sum_rotate", "sum_rotate"),
        ("id_nat", "id_nat"),
        ("pair_tag", "maybe_pair_default"),
    ):
        if fwd_name in by_name and bwd_name in by_name:
            pairs.append((by_name[fwd_name], by_name[bwd_name]))
    return pairs


def naturals_within(family, naturals):
    return [
        nat
        for nat in naturals
        if family.member(nat.source) and family.member(nat.target)
    ]


# Enhancing law group ---------------------------------------------------------

class CapabilityFixture:
    """A capability record plus the machinery to enumerate and compare its
    profunctor values extensionally.  ``eq`` gets the law's :class:`_LawRun`,
    so a comparison that probes goes through its budget."""

    def __init__(self, name, cap, values, eq):
        self.name = name
        self.cap = cap
        self.values = values  # (dom_in, dom_out) -> list of P values
        self.eq = eq          # (run, p1, p2, dom_in) -> bool


def function_arrow_fixture():
    return CapabilityFixture(
        name="FunctionArrow",
        cap=FUNCTION_ARROW,
        values=lambda din, dout: all_functions(din, dout),
        eq=lambda run, p1, p2, din: all(p1(x) == p2(x) for x in din),
    )


def getting_fixture(focus_dom):
    focus = tuple(focus_dom)
    return CapabilityFixture(
        name="Getting",
        cap=GETTING,
        values=lambda din, dout: [Getting(f) for f in all_functions(din, focus)],
        eq=lambda run, p1, p2, din: all(p1.run(x) == p2.run(x) for x in din),
    )


def matching_fixture(focus_dom):
    focus = tuple(focus_dom)

    def values(din, dout):
        cells = [Left(y) for y in dout] + [Right(a) for a in focus]
        return [Matching(f) for f in all_functions(din, cells)]

    return CapabilityFixture(
        name="Matching",
        cap=MATCHING,
        values=values,
        eq=lambda run, p1, p2, din: all(p1.run(x) == p2.run(x) for x in din),
    )


def iso_capability_fixture(family, shape_pool, focus_a, focus_b):
    fa, fb = tuple(focus_a), tuple(focus_b)

    def values(din, dout):
        rng = random.Random(f"{family.name}:0:{tuple(din)}:{tuple(dout)}")
        out = []
        for i in range(4):
            shape = rng.choice(shape_pool)
            out.append(gen_iso_optic(i, shape, family, fa, fb, din, dout))
        return out

    return CapabilityFixture(
        name="IsoOptic",
        cap=iso_capability(family),
        values=values,
        eq=lambda run, p1, p2, din: run.agrees(p1, p2, fa, fb, din),
    )


def check_enhancing_laws(
    fix: CapabilityFixture,
    shapes,
    naturals,
    dom_a,
    dom_b,
    compose_pairs=None,
    budget=DEFAULT_MAX_EVALS,
):
    """The capability laws: dimap is functorial, enhance respects the
    identity shape, shape composition, registered naturals (wedge), and
    commutes with dimap through the shape's map."""
    As, Bs = tuple(dom_a), tuple(dom_b)
    cap = fix.cap
    values = fix.values(As, Bs)
    fns_a = all_functions(As, As)
    fns_b = all_functions(Bs, Bs)
    idsh = id_shape()
    id_payloads = idsh.payloads(list(As))

    def law(name, cases):
        """Run lazy ``(inputs, lhs, rhs, dom_in)`` cases through ``fix.eq``."""
        run = _LawRun(name, budget)
        return run.run(
            (inputs, True, fix.eq(run, lhs, rhs, din)) for inputs, lhs, rhs, din in cases
        )

    def dimap_identity():
        for i, p in enumerate(values):
            yield {"cap": fix.name, "value": i}, cap.dimap(identity, identity, p), p, As

    def dimap_composition():
        for f, f2 in itertools.product(fns_a[:6], fns_a[:6]):
            for g, g2 in itertools.product(fns_b[:6], fns_b[:6]):
                for i, p in enumerate(values[:4]):
                    fused = cap.dimap(lambda x: f2(f(x)), lambda y: g(g2(y)), p)
                    staged = cap.dimap(f, g, cap.dimap(f2, g2, p))
                    yield {"cap": fix.name, "value": i}, fused, staged, As

    def identity_shape():
        for i, p in enumerate(values):
            lhs = cap.enhance(idsh, p)
            rhs = cap.dimap(idsh.ident.unwrap, idsh.ident.wrap, p)
            yield {"cap": fix.name, "value": i}, lhs, rhs, id_payloads

    def compose_shape():
        for f_shape, g_shape in compose_pairs or []:
            fg = compose_shapes(f_shape, g_shape)
            fg_payloads = fg.payloads(list(As))
            for i, p in enumerate(values[:4]):
                lhs = cap.enhance(fg, p)
                rhs = cap.dimap(
                    lambda cp: cp.value, Comp, cap.enhance(f_shape, cap.enhance(g_shape, p))
                )
                inputs = {"cap": fix.name, "shapes": (f_shape.name, g_shape.name), "value": i}
                yield inputs, lhs, rhs, fg_payloads

    def wedge():
        for nat in naturals:
            src_payloads = nat.source.payloads(list(As))
            for i, p in enumerate(values[:4]):
                lhs = cap.dimap(identity, nat.fn, cap.enhance(nat.source, p))
                rhs = cap.dimap(nat.fn, identity, cap.enhance(nat.target, p))
                inputs = {"cap": fix.name, "natural": nat.name, "value": i}
                yield inputs, lhs, rhs, src_payloads

    def map_commute():
        for shape in shapes:
            payloads = shape.payloads(list(As))
            for u, v in itertools.product(fns_a[:4], fns_b[:4]):
                for i, p in enumerate(values[:3]):
                    lhs = cap.enhance(shape, cap.dimap(u, v, p))
                    rhs = cap.dimap(
                        lambda pa: shape.map(u, pa),
                        lambda pb: shape.map(v, pb),
                        cap.enhance(shape, p),
                    )
                    inputs = {"cap": fix.name, "shape": shape.name, "value": i}
                    yield inputs, lhs, rhs, payloads

    return [
        law("profunctor.dimap_identity", dimap_identity()),
        law("profunctor.dimap_composition", dimap_composition()),
        law("enhancing.identity_shape", identity_shape()),
        law("enhancing.compose_shape", compose_shape()),
        law("enhancing.wedge", wedge()),
        law("enhancing.map_commute", map_commute()),
    ]


# Functorization law group ----------------------------------------------------

def check_functorization_laws(
    fz, shapes, naturals, dom_a, dom_b, compose_pairs=None, budget=DEFAULT_MAX_EVALS
):
    As, Bs = tuple(dom_a), tuple(dom_b)
    tag = fz.family_tag.value
    cls = type(fz.enhance_op(id_shape()))
    idsh = id_shape()
    probe = all_functions(As, Bs)
    fns_a, fns_b = all_functions(As, As)[:4], all_functions(Bs, Bs)[:4]

    def map_is_shape_map():
        for shape in shapes:
            optic = fz.enhance_op(shape)
            payloads = shape.payloads(list(As))
            for h in probe:
                run = optic.map_optic(h)
                for p in payloads:
                    yield {"tag": tag, "shape": shape.name, "p": p}, shape.map(h, p), run(p)

    def compose_shape():
        for f_shape, g_shape in compose_pairs or []:
            fg = compose_shapes(f_shape, g_shape)
            rhs = cls.inj(lambda cp: cp.value, Comp).compose(
                fz.enhance_op(f_shape)
            ).compose(fz.enhance_op(g_shape))
            inputs = {"tag": tag, "shapes": (f_shape.name, g_shape.name)}
            yield inputs, fz.enhance_op(fg), rhs, As, Bs, fg.payloads(list(As))

    def wedge():
        for nat in naturals:
            lhs = cls.inj(identity, nat.fn).compose(fz.enhance_op(nat.source))
            rhs = cls.inj(nat.fn, identity).compose(fz.enhance_op(nat.target))
            yield {"tag": tag, "natural": nat.name}, lhs, rhs, As, Bs, nat.source.payloads(list(As))

    def inj_commute():
        for shape in shapes:
            payloads = shape.payloads(list(As))
            for u, v in itertools.product(fns_a, fns_b):
                lhs = fz.enhance_op(shape).compose(cls.inj(u, v))
                rhs = cls.inj(
                    lambda p: shape.map(u, p), lambda p: shape.map(v, p)
                ).compose(fz.enhance_op(shape))
                yield {"tag": tag, "shape": shape.name}, lhs, rhs, As, Bs, payloads

    identity_case = (
        {"tag": tag},
        fz.enhance_op(idsh),
        cls.inj(idsh.ident.unwrap, idsh.ident.wrap),
        As, Bs, idsh.payloads(list(As)),
    )
    return [
        _LawRun("functorization.map_is_shape_map", budget).run(map_is_shape_map()),
        _LawRun("functorization.identity_shape", budget).agreements([identity_case]),
        _LawRun("functorization.compose_shape", budget).agreements(compose_shape()),
        _LawRun("functorization.wedge", budget).agreements(wedge()),
        _LawRun("functorization.inj_commute", budget).agreements(inj_commute()),
    ]


# Iso-specific law group ------------------------------------------------------

def check_iso_laws(family, shape_pool, naturals, budget=DEFAULT_MAX_EVALS):
    dom_a = labels("a", 2)
    dom_s = labels("s", 3)
    As, ss = dom_a.elements, dom_s.elements
    optics = [
        (shape, gen_iso_optic(i, shape, family, dom_a, dom_a, dom_s, dom_s))
        for i, shape in enumerate(shape_pool)
    ]

    def normal_form():
        for shape, optic in optics:
            rebuilt = iso_inj(optic.forward, optic.backward, family).compose(
                enhance_iso(shape, family)
            )
            yield {"family": family.name, "shape": shape.name}, optic, rebuilt, As, As, ss

    def endo_identity():
        # chasing an optic through inj/compose round trips must be identity
        for shape, optic in optics:
            chained = iso_identity(family).compose(optic).compose(iso_identity(family))
            yield {"family": family.name, "shape": shape.name}, optic, chained, As, As, ss

    retract = _LawRun("iso.retraction", budget)

    def retractions():
        # equality with the pure zoom forces backward . forward = id; the
        # converse needs natural components (checked below), not raw tables
        for i, shape in enumerate(shape_pool):
            payloads = shape.payloads(list(As))
            same = gen_iso_optic(100 + i, shape, family, dom_a, dom_a, payloads, payloads)
            section = all(same.backward(same.forward(p)) == p for p in payloads)
            zoom = enhance_iso(shape, family)
            ok = section or not retract.agrees(same, zoom, As, As, payloads)
            yield {"family": family.name, "shape": shape.name, "direction": "arbitrary"}, True, ok
        for nat, nat_inv in _natural_retraction_pairs(naturals):
            if not (family.member(nat.source) and family.member(nat.target)):
                continue
            twisted = IsoOptic(family, nat.target, forward=nat.fn, backward=nat_inv.fn)
            payloads = nat.source.payloads(list(As))
            section = all(twisted.backward(twisted.forward(p)) == p for p in payloads)
            zoom = enhance_iso(nat.source, family)
            ok = section and retract.agrees(twisted, zoom, As, As, payloads)
            yield {"family": family.name, "natural": nat.name, "direction": "natural"}, True, ok

    def enhance_composition():
        for f_shape, g_shape in itertools.combinations(shape_pool, 2):
            lhs = enhance_iso(f_shape, family).compose(enhance_iso(g_shape, family))
            fg = compose_shapes(f_shape, g_shape)
            rhs = iso_inj(Comp, lambda p: p.value, family).compose(enhance_iso(fg, family))
            dom_in = f_shape.payloads(g_shape.payloads(list(As)))
            yield {"family": family.name, "shapes": (f_shape.name, g_shape.name)}, lhs, rhs, As, As, dom_in

    def equality_up_to_natural():
        for nat in naturals:
            rng = random.Random(f"{nat.name}:0")
            pa_src = nat.source.payloads(list(As))
            pb_tgt = nat.target.payloads(list(As))
            fwd = {s: rng.choice(pa_src) for s in ss}
            bwd = {p: rng.choice(list(ss)) for p in pb_tgt}
            with_fwd = IsoOptic(
                family, nat.target, forward=lambda s: nat.fn(fwd[s]), backward=bwd.__getitem__
            )
            with_bwd = IsoOptic(
                family, nat.source, forward=fwd.__getitem__, backward=lambda p: bwd[nat.fn(p)]
            )
            yield {"family": family.name, "natural": nat.name}, with_fwd, with_bwd, As, As, ss

    return [
        _LawRun("iso.normal_form", budget).agreements(normal_form()),
        retract.run(retractions()),
        _LawRun("iso.enhance_composition", budget).agreements(enhance_composition()),
        _LawRun("iso.endo_identity", budget).agreements(endo_identity()),
        _LawRun("iso.equality_up_to_natural", budget).agreements(equality_up_to_natural()),
    ]


# Morphism law group ----------------------------------------------------------

class MorphismSpec:
    """A conversion between families plus composable sample pairs."""

    def __init__(self, name, theta, inj_src, inj_dst, pairs, doms):
        self.name = name
        self.theta = theta      # source optic -> target optic
        self.inj_src = inj_src  # (f, g) -> source optic
        self.inj_dst = inj_dst  # (f, g) -> target optic
        self.pairs = pairs      # [(o1, o2)] composable in the source family
        self.doms = doms        # keys: s, a1, a2


def check_morphism(spec: MorphismSpec, budget=DEFAULT_MAX_EVALS):
    ds, d1, d2 = (tuple(spec.doms[k]) for k in ("s", "a1", "a2"))
    rng = random.Random(spec.name)
    tables = [(_rand_table(rng, ds, d1), _rand_table(rng, d1, ds)) for _ in range(3)]

    return [
        _LawRun("morphism.preserves_inj", budget).agreements(
            (
                {"conversion": spec.name, "sample": i},
                spec.theta(spec.inj_src(f.__getitem__, g.__getitem__)),
                spec.inj_dst(f.__getitem__, g.__getitem__),
                d1, d1, ds,
            )
            for i, (f, g) in enumerate(tables)
        ),
        _LawRun("morphism.preserves_compose", budget).agreements(
            (
                {"conversion": spec.name, "pair": i},
                spec.theta(o1.compose(o2)),
                spec.theta(o1).compose(spec.theta(o2)),
                d2, d2, ds,
            )
            for i, (o1, o2) in enumerate(spec.pairs)
        ),
        _LawRun("morphism.preserves_map", budget).agreements(
            ({"conversion": spec.name, "pair": i}, spec.theta(o1), o1, d1, d1, ds)
            for i, (o1, _) in enumerate(spec.pairs)
        ),
    ]


# Registry and full run -------------------------------------------------------

REQUIRED_LAWS = (
    "lens.get_put",
    "lens.put_get",
    "lens.put_put",
    "achlens.get_put",
    "achlens.put_get",
    "achlens.put_put",
    "achlens.get_create",
    "prism.match_build",
    "prism.build_match",
    "prism.no_match_identity",
    "adapter.fwd_bwd",
    "adapter.bwd_fwd",
    "setter.over_identity",
    "setter.over_composition",
    "optional.hit_put_identity",
    "optional.put_then_match",
    "optional.miss_put_residual",
    "functor.map_identity",
    "functor.map_composition",
    "product.round_trip_from_to",
    "product.round_trip_to_from",
    "sum.round_trip_from_to",
    "sum.round_trip_to_from",
    "profunctor.dimap_identity",
    "profunctor.dimap_composition",
    "optic_family.compose_associative",
    "optic_family.identity_left",
    "optic_family.identity_right",
    "optic_family.inj_identity",
    "optic_family.inj_composition",
    "optic_family.map_inj",
    "optic_family.map_composition",
    "morphism.preserves_inj",
    "morphism.preserves_compose",
    "morphism.preserves_map",
    "enhancing.identity_shape",
    "enhancing.compose_shape",
    "enhancing.wedge",
    "enhancing.map_commute",
    "iso.normal_form",
    "iso.retraction",
    "iso.enhance_composition",
    "iso.endo_identity",
    "iso.equality_up_to_natural",
    "functorization.map_is_shape_map",
    "functorization.identity_shape",
    "functorization.compose_shape",
    "functorization.wedge",
    "functorization.inj_commute",
)


# Standard fixtures and the full suite ----------------------------------------

def shape_pools(shapes=None):
    """Member shape pools per registered functor family."""
    sh = shapes or standard_shapes()
    return {
        "Functor": [sh["pair"], sh["sum"], sh["maybe_pair"], sh["maybe"], sh["compose_pm"]],
        "IsProduct": [sh["id"], sh["pair"], sh["maybe_pair"], sh["compose_pp"]],
        "IsSum": [sh["id"], sh["sum"], sh["maybe"], sh["compose_sm"]],
        "IsPointedProduct": [sh["id"], sh["maybe_pair"]],
        "IdOnly": [sh["id"], sh["compose_ii"]],
        "IsAffine": [sh["id"], sh["pair"], sh["sum"], sh["maybe"], sh["compose_pm"]],
    }


def standard_morphism_specs(n_pairs):
    """Morphism fixtures for every conversion the library ships, over every
    concrete family, and for every embedding of the family order."""
    doms = {"s": labels("s", 3), "a1": labels("a", 3), "a2": labels("x", 2)}
    pools = shape_pools()

    def conversions(tag):
        family = functorize(tag).functor_family
        pool = pools[family.name]
        enc = prof_encoding(tag)
        concrete = CONCRETE_FAMILIES[tag].inj

        def iso(f, g):
            return iso_inj(f, g, family)

        def prof(f, g):
            return prof_inj(f, g, family)

        def concrete_pairs(k):
            return [
                (
                    gen_random_optic(tag, k + 2 * j, doms["a1"], doms["s"]),
                    gen_random_optic(tag, k + 2 * j + 1, doms["a2"], doms["a1"]),
                )
                for j in range(n_pairs)
            ]

        def iso_pairs(k):
            rng = random.Random(f"{family.name}:pairs:{k}")
            return [
                (
                    gen_iso_optic(k + 2 * j, rng.choice(pool), family, doms["a1"], doms["a1"], doms["s"], doms["s"]),
                    gen_iso_optic(k + 2 * j + 1, rng.choice(pool), family, doms["a2"], doms["a2"], doms["a1"], doms["a1"]),
                )
                for j in range(n_pairs)
            ]

        def lifted(theta, pairs):
            return [(theta(o1), theta(o2)) for o1, o2 in pairs]

        # name, theta, source injection, target injection, source pairs
        embeddings = [
            (f"embed.{tag.value}.{to.value}", partial(embed, tag=to), concrete,
             CONCRETE_FAMILIES[to].inj, concrete_pairs(0))
            for to in FamilyTag
            if to != tag and family_le(tag, to)
        ]
        return embeddings + [
            (f"concrete_to_iso.{tag.value}", concrete_to_iso, concrete, iso, concrete_pairs(0)),
            (f"unfunctorize.{tag.value}", lambda o: unfunctorize(o, tag), iso, concrete, iso_pairs(0)),
            (f"iso_to_prof.{family.name}", iso_to_prof, iso, prof, iso_pairs(1)),
            (f"prof_to_iso.{family.name}", prof_to_iso, prof, iso, lifted(iso_to_prof, iso_pairs(2))),
            (f"encode.{tag.value}", enc.encode, concrete, prof, concrete_pairs(3)),
            (f"decode.{tag.value}", enc.decode, prof, concrete, lifted(enc.encode, concrete_pairs(4))),
        ]

    return [
        MorphismSpec(name, theta, inj_src, inj_dst, pairs, doms)
        for tag in FamilyTag
        for name, theta, inj_src, inj_dst, pairs in conversions(tag)
    ]


def run_all_law_checks(budget=DEFAULT_MAX_EVALS):
    """Run every checker over the standard fixtures and return the merged
    reports, sorted by law name."""
    shapes = standard_shapes()
    naturals = standard_naturals(shapes)
    pools = shape_pools(shapes)
    dom_a = labels("a", 2)
    dom_b = dom_a
    dom_r = labels("r", 2)
    reports = []

    # concrete record laws on generated lawful optics
    dom_ls = labels("s", len(dom_r) * 3)
    big_a = labels("a", 3)
    for k in range(2):
        lens = gen_lawful_lens(k, dom_r, big_a, dom_ls)
        reports += check_lens_laws(lens, big_a, dom_ls, budget)
        dom_ps = labels("s", len(dom_r) + 3)
        prism = gen_lawful_prism(k, dom_r, big_a, dom_ps)
        reports += check_prism_laws(prism, big_a, dom_ps, budget)
        al = gen_lawful_achlens(k, dom_r, big_a, dom_ls)
        reports += check_achlens_laws(al, big_a, dom_ls, budget)
        ad = gen_lawful_adapter(k, big_a, labels("s", 3))
        reports += check_adapter_laws(ad, big_a, labels("s", 3), budget)
        st = gen_setter(shapes["pair"])
        reports += check_setter_laws(
            st, big_a, shapes["pair"].payloads(list(big_a)), budget
        )
        dom_os = labels("s", 2 + 1 * 3)
        opt = gen_lawful_optional(k, labels("m", 2), labels("k", 1), big_a, dom_os)
        reports += check_optional_laws(opt, big_a, dom_os, budget)

    # shape laws
    for shape in shapes.values():
        reports += check_functor_laws(shape, labels("a", 3), budget)

    # shared optic-family laws: six concrete families, iso over each registry family
    for tag in FamilyTag:
        reports += check_optic_family_laws(concrete_family_fixture(tag), budget)
    for fam_name, family in FAMILY_REGISTRY.items():
        fix = iso_family_fixture(family, pools[fam_name])
        reports += check_optic_family_laws(fix, budget)

    # capability laws
    arrow_shapes = [shapes[k] for k in ("id", "pair", "sum", "maybe_pair", "maybe", "compose_pm")]
    compose_all = [
        (shapes["pair"], shapes["pair2"]),
        (shapes["sum"], shapes["maybe"]),
        (shapes["pair"], shapes["maybe"]),
    ]
    reports += check_enhancing_laws(
        function_arrow_fixture(), arrow_shapes, naturals, dom_a, dom_b,
        compose_pairs=compose_all, budget=budget,
    )
    product_shapes = [shapes[k] for k in ("id", "pair", "maybe_pair", "compose_pp")]
    product_nats = [
        n for n in naturals if n.source.product and n.target.product
    ]
    reports += check_enhancing_laws(
        getting_fixture(dom_a), product_shapes, product_nats, dom_a, dom_b,
        compose_pairs=[(shapes["pair"], shapes["pair2"])], budget=budget,
    )
    reports += check_enhancing_laws(
        matching_fixture(dom_a), arrow_shapes, naturals, dom_a, dom_b,
        compose_pairs=compose_all, budget=budget,
    )
    for fam_name, family in FAMILY_REGISTRY.items():
        fam_nats = naturals_within(family, naturals)
        pool = pools[fam_name]
        pairs = [(f, g) for f in pool for g in pool if f.payloads and g.payloads][:3]
        reports += check_enhancing_laws(
            iso_capability_fixture(family, pool, dom_a, dom_b),
            pool,
            fam_nats,
            dom_a,
            dom_b,
            compose_pairs=pairs,
            budget=budget,
        )

    # iso-specific laws per registry family
    for fam_name, family in FAMILY_REGISTRY.items():
        reports += check_iso_laws(
            family, pools[fam_name], naturals_within(family, naturals), budget
        )

    # functorizations for all six concrete families
    for tag in FamilyTag:
        fz = functorize(tag)
        pool = pools[fz.functor_family.name]
        fam_nats = naturals_within(fz.functor_family, naturals)
        pairs = [(f, g) for f in pool for g in pool][:3]
        reports += check_functorization_laws(
            fz, pool, fam_nats, dom_a, dom_b, compose_pairs=pairs, budget=budget
        )

    # conversions are morphisms
    for spec in standard_morphism_specs(n_pairs=2):
        reports += check_morphism(spec, budget)

    return merge_reports(reports)


def main(argv=None):
    """Emit the full law report as JSON lines.  Exit 1 when a law does not
    pass, or when the laws reported differ from :data:`REQUIRED_LAWS`."""
    reports = run_all_law_checks()
    write_report(reports, sys.stdout)
    covered = {rep.law for rep in reports} == set(REQUIRED_LAWS)
    return 0 if covered and all(rep.passed for rep in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
