"""Optic generators over finite domains and the executable law suite.

Lawfulness is one law group of residual forms for every family,
:func:`check_lawful`.  Checkers never assert; they return :class:`LawReport`
values whose failures carry the first counterexample in enumeration order; in
:func:`check_lawful` and :func:`check_enhancing_laws` a case that raises is a
FAIL naming its inputs and ``"raised"``.  Budgeted runs that hit
the evaluation cap, or that would compare optics on a sampled probe set, come
back INCONCLUSIVE, never silently passed.  Laws that state two optics equal
compare them through :func:`observational_eq`, and a FAIL there names the
probe ``{h, s, lhs, rhs}`` on which the two sides differ.
``optic_family.inj_identity``, ``optic_family.map_inj``,
``optic_family.map_composition`` and ``functorization.map_is_shape_map``
compare map actions probe by probe; a FAIL there names ``h`` and the first
whole ``s`` (or payload ``p``) on which the two sides differ.
The evaluation budget is the suite's only setting: fixtures and seeds are
fixed.  :data:`REQUIRED_LAWS` is the coverage list, and :func:`main` fails
when the laws the suite reports differ from it.
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
    family_le,
)
from .encode import _LAYER_FIELDS, concrete_to_iso, embed, functorize, prof_encoding, unfunctorize
from .functors import (
    ID_SHAPE,
    IS_AFFINE,
    IS_PRODUCT,
    Comp,
    Id,
    compose_shapes,
    maybe_pair_shape,
    maybe_shape,
    pair_shape,
    sum_shape,
)
from . import probes
from .iso import IsoOptic, enhance_iso, iso_inj, observational_eq
# maps_agree is unused here, but perfbench/tracing.py patches laws.maps_agree
# by name, and a missing name crashes a traced law_suite run.
from .probes import DEFAULT_MAX_EVALS, FiniteFn, all_functions, maps_agree
from .prof import (
    FUNCTION_ARROW,
    GETTING,
    MATCHING,
    iso_capability,
    iso_to_prof,
    prof_inj,
    prof_to_iso,
)

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


def labels(prefix: str, n: int) -> tuple:
    """The finite domain ``(prefix0, ..., prefix{n-1})``.  A domain is never
    empty, so that no law can pass on zero cases."""
    if n < 1:
        raise ValueError(f"domain {prefix} is empty")
    return tuple(f"{prefix}{i}" for i in range(n))


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
    the first counterexample or when the budget runs out, and
    :meth:`compared` never lets a comparison on a sampled probe set pass.
    A case is ``(inputs, expected, actual)``; a comparison that fails adds
    a fourth item, its probe, so each case carries all it reports.
    """

    def __init__(self, law, budget=DEFAULT_MAX_EVALS):
        self.report = LawReport(law=law)
        self.budget = budget

    def case(self, inputs, expected, actual, probe=None):
        """Record one case; returns False when enumeration should stop.  A
        failing case with a ``probe`` names ``probe()``: the probe on which
        the two sides of its comparison differ."""
        if self.report.cases >= self.budget:
            self.report.status = INCONCLUSIVE
            return False
        self.report.cases += 1
        if expected != actual:
            failure = {"inputs": inputs, "expected": expected, "actual": actual}
            if probe is not None:
                failure["probe"] = probe()
            self.report.failures.append(failure)
            self.report.status = FAIL
            return False
        return True

    def run(self, cases):
        """Consume lazy cases; returns the report."""
        for case in cases:
            if not self.case(*case):
                break
        return self.report

    def raised(self, inputs, exc):
        """The one rule for a case whose side raises: one more case, a FAIL
        naming ``inputs`` and ``"raised": repr(exc)``, and the law's end."""
        self.report.cases += 1
        self.report.failures.append({"inputs": inputs, "raised": repr(exc)})
        self.report.status = FAIL
        return self.report

    def attempts(self, units):
        """:meth:`run` over ``(inputs, cases, *args)`` units, whose cases the
        generator ``cases(inputs, *args)`` computes; a raise there is
        :meth:`raised` with the unit's ``inputs``."""
        for inputs, cases, *args in units:
            try:
                for case in cases(inputs, *args):
                    if not self.case(*case):
                        return self.report
            except Exception as exc:
                return self.raised(inputs, exc)
        return self.report

    def compared(self, inputs, lhs, rhs, dom_a, dom_b, dom_s):
        """The case that ``lhs`` and ``rhs`` are :func:`observational_eq`
        under this law's budget.  A sampled probe set can refute equality
        but not show it, so it leaves the law INCONCLUSIVE at best.  The
        probe set is built once: the comparison gets the same one back from
        :func:`probes.probe_functions`.  A failing case's probe is searched
        for only when the case is recorded as a FAIL."""
        _, exhaustive = probes.probe_functions(dom_a, dom_b, dom_s, self.budget)
        if not exhaustive and self.report.status == PASS:
            self.report.status = INCONCLUSIVE
        if observational_eq(lhs, rhs, dom_a, dom_b, dom_s, max_evals=self.budget):
            return inputs, True, True
        probe = partial(probes.distinguishing_probe, lhs, rhs, dom_a, dom_b, dom_s, self.budget)
        return inputs, True, False, probe

    def agrees(self, lhs, rhs, dom_a, dom_b, dom_s):
        """Whether :meth:`compared` holds, for a law that expects some
        comparisons to fail."""
        return self.compared(None, lhs, rhs, dom_a, dom_b, dom_s)[2]

    def agreements(self, cases):
        """:meth:`run` over lazy ``(inputs, lhs, rhs, dom_a, dom_b, dom_s)``
        cases, each :meth:`compared`."""
        return self.run(self.compared(*case) for case in cases)


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
    ss = dom_s if dom_s is not None else labels("s", len(cells))
    if len(ss) != len(cells):
        raise ValueError(f"|S|={len(ss)} but {size}={len(cells)}")
    rng = random.Random(seed)
    split = dict(zip(ss, rng.sample(cells, len(cells))))
    return rng, split, {v: k for k, v in split.items()}


def gen_lawful_lens(seed, dom_r, dom_a, dom_s=None) -> Lens:
    """A lawful simple lens from a seeded bijection between the whole domain
    and residual-focus pairs: the achromatic lens of the same seed without
    its ``create``."""
    al = gen_lawful_achlens(seed, dom_r, dom_a, dom_s)
    return Lens(get=al.get, put=al.put)


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
    """A lawful achromatic lens: a seeded bijection between the whole domain
    and residual-focus pairs, whose residual has a seeded distinguished
    point used by ``create``."""
    pairs = list(itertools.product(dom_r, dom_a))
    rng, to_pair, from_pair = _seeded_bijection(seed, pairs, dom_s, "|R|*|A|")
    point = rng.choice(dom_r)
    return AchLens(
        get=lambda s: to_pair[s][1],
        put=lambda b, s: from_pair[(to_pair[s][0], b)],
        create=lambda b: from_pair[(point, b)],
    )


def gen_lawful_adapter(seed, dom_a, dom_s=None) -> Adapter:
    _, fwd, bwd = _seeded_bijection(seed, dom_a, dom_s, "|A|")
    return Adapter(fwd=lambda s: fwd[s], bwd=lambda a: bwd[a])


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
    """Deliberately broken: put ignores the new focus, so a payload whose
    focus changed re-enters with the old one (lawful.reentry fails)."""
    return Lens(get=lambda s: dom_a[dom_s.index(s) % len(dom_a)], put=lambda b, s: s)


# Random (not necessarily lawful) records for structural-law fixtures --------

def _rand_table(rng, dom_in, dom_out):
    """A seeded total function from ``dom_in`` to ``dom_out``: a table lookup."""
    return {x: rng.choice(dom_out) for x in dom_in}.__getitem__


def _draw_put(rng, As, ss):
    put = _rand_table(rng, itertools.product(As, ss), ss)
    return lambda b, s: put((b, s))


def _draw_over(rng, As, ss):
    e1 = _rand_table(rng, ss, As)
    e2 = _rand_table(rng, ss, As)
    combine = _rand_table(rng, itertools.product(ss, As, As), ss)
    return lambda h: (lambda s: combine((s, h(e1(s)), h(e2(s)))))


# One seeded draw per record field name, from the RNG, the foci As and the
# wholes ss.
_FIELD_DRAWS = {
    **dict.fromkeys(("get", "fwd"), lambda rng, As, ss: _rand_table(rng, ss, As)),
    **dict.fromkeys(("build", "bwd", "create"), lambda rng, As, ss: _rand_table(rng, As, ss)),
    "match": lambda rng, As, ss: _rand_table(rng, ss, [Left(t) for t in ss] + [Right(a) for a in As]),
    "put": _draw_put,
    "over": _draw_over,
}


def gen_random_optic(tag: FamilyTag, seed, dom_a, dom_s):
    """An arbitrary total record of the family, its fields drawn in
    ``__slots__`` order.  The shared-operation laws hold for any record,
    lawful or not, so these make strong fixtures."""
    rng = random.Random(f"{tag}:{seed}")
    cls = CONCRETE_FAMILIES[tag]
    return cls(*(_FIELD_DRAWS[name](rng, dom_a, dom_s) for name in cls.__slots__))


def gen_iso_optic(seed, shape, family, dom_a, dom_b, dom_s, dom_t) -> IsoOptic:
    """An arbitrary iso optic: seeded forward/backward tables over the
    shape's enumerated payloads."""
    if shape.payloads is None:
        raise ValueError(f"shape {shape.name} has no payload enumeration")
    rng = random.Random(f"{shape.name}:{seed}")
    forward = _rand_table(rng, dom_s, shape.payloads(dom_a))
    return IsoOptic(family, shape, forward, _rand_table(rng, shape.payloads(dom_b), dom_t))


# Lawfulness law group --------------------------------------------------------

# The inputs on which each record field is compared.  ``over``'s value is a
# function, which lawful.reentry reads through the map action.
_FIELD_INPUTS = {
    **dict.fromkeys(("get", "match", "fwd"), lambda As, ss: [{"s": s} for s in ss]),
    **dict.fromkeys(("build", "create", "bwd"), lambda As, ss: [{"b": b} for b in As]),
    "put": lambda As, ss: [{"b": b, "s": s} for b, s in itertools.product(As, ss)],
    "over": lambda As, ss: [],
}


def _first(seen, value):
    """Whether ``value`` is new to ``seen``, a set and a list, which then
    holds it.  A value that cannot be hashed (JSON) is found by equality."""
    hashed, listed = seen
    try:
        new = value not in hashed
        hashed.add(value)
    except TypeError:
        new = value not in listed
        if new:
            listed.append(value)
    return new


def _foci(shape, payload):
    """The foci of ``payload``, in the order ``shape.map`` visits them."""
    found = []
    shape.map(lambda a: found.append(a) or a, payload)
    return found


def check_lawful(optic, dom_a, wholes, budget=DEFAULT_MAX_EVALS):
    """Lawfulness, once for every family: the record's residual form
    (:func:`concrete_to_iso`) is an isomorphism up to the residual.

    ``lawful.outside``: ``backward(forward(s)) == s`` for every whole.
    ``lawful.reentry``: each reachable payload ``c``, ``shape.map(h,
    forward(s))`` or one that ``build``/``create`` reads off the shape,
    re-enters as ``d = forward(backward(c))`` with ``c``'s foci (on affine
    shapes), and ``backward(shape.map(h2, d)) == backward(shape.map(h2, c))``
    for every ``h2``; each distinct ``c`` and mapped pair once.
    ``lawful.fields``: each field that is not a function equals that field of
    :func:`unfunctorize` of the residual form; it sees an optional's ``put``
    on a miss, which no map action reads.  A setter has no such field.
    """
    residual = concrete_to_iso(optic)
    shape, forward, backward = residual.shape, residual.forward, residual.backward
    collapsed = unfunctorize(residual, optic.tag)
    fns = all_functions(dom_a, dom_a)
    affine = IS_AFFINE.member(shape)  # a continuation runs h only when run
    reached = set(), []

    def outside(inputs, s):
        yield inputs, s, backward(forward(s))

    def reentry(inputs, reach, *args):
        c = reach(*args)
        if not _first(reached, c):
            return
        d = forward(backward(c))
        if affine:
            foci = _foci(shape, c), _foci(shape, d)
            yield (inputs, *foci)
        # shape.map(h2, .) reads h2 at the foci alone, so h2s that agree
        # there make one pair; a continuation's foci are not visited
        acted = set(), []
        for h2 in fns:
            if not affine or _first(acted, tuple(map(h2, foci[0] + foci[1]))):
                yield {**inputs, "h2": h2}, backward(shape.map(h2, c)), backward(shape.map(h2, d))

    def field(inputs, name, *args):
        yield inputs, getattr(collapsed, name)(*args), getattr(optic, name)(*args)

    whole = lambda s, h: shape.map(h, forward(s))  # a whole's payload, mapped by h
    payloads = [({"s": s, "h": h}, reentry, whole, s, h) for s in wholes for h in fns] + [
        ({name: b}, reentry, _LAYER_FIELDS[name](shape), b)
        for name, cap in (("build", shape.sum), ("create", shape.point))
        if cap
        for b in dom_a
    ]
    fields = [
        ({"field": name, **args}, field, name, *args.values())
        for name in type(optic).__slots__
        for args in _FIELD_INPUTS[name](dom_a, wholes)
    ]
    reports = [
        _LawRun("lawful.outside", budget).attempts(({"s": s}, outside, s) for s in wholes),
        _LawRun("lawful.reentry", budget).attempts(payloads),
    ]
    if fields:
        reports.append(_LawRun("lawful.fields", budget).attempts(fields))
    return reports


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


def _index(values):
    """The first position of each hashable value."""
    index = {}
    for j, value in enumerate(values):
        try:
            index.setdefault(value, j)
        except TypeError:
            pass
    return index


def _lookup(index, value):
    """``index[value]``, or None when the value is absent or unhashable."""
    try:
        return index.get(value)
    except TypeError:
        return None


def check_functor_laws(shape, dom_a, budget=DEFAULT_MAX_EVALS):
    payloads = shape.payloads(dom_a)
    fns = all_functions(dom_a, dom_a)

    def map_composition():
        # One table, mapped[h][j] = map(h, payloads[j]).  fns holds every
        # function, f . g among them, so map(f . g, p) is a read of the row
        # found by its image tuple; map(f, map(g, p)) reads row f where
        # map(g, p) sits in the payloads (functor.payloads_closed), and is
        # mapped afresh when it is not there or cannot be hashed.
        mapped = [[shape.map(h, p) for p in payloads] for h in fns]
        row_of = {tuple(map(h, dom_a)): row for h, row in zip(fns, mapped)}
        index = _index(payloads)
        at = [[_lookup(index, gp) for gp in row] for row in mapped]
        for f, f_mapped in zip(fns, mapped):
            for g, g_mapped, g_at in zip(fns, mapped, at):
                fg_mapped = row_of[tuple(f(g(a)) for a in dom_a)]
                for p, fgp, gp, j in zip(payloads, fg_mapped, g_mapped, g_at):
                    yield (
                        {"shape": shape.name, "f": f, "g": g, "p": p},
                        fgp,
                        shape.map(f, gp) if j is None else f_mapped[j],
                    )

    def payloads_closed():
        dom_b = labels("b", 2)
        over_b = shape.payloads(dom_b)
        for h in all_functions(dom_a, dom_b):
            for p in payloads:
                yield {"shape": shape.name, "h": h, "p": p}, True, shape.map(h, p) in over_b

    reports = [
        _LawRun("functor.map_identity", budget).run(
            ({"shape": shape.name, "p": p}, p, shape.map(identity, p)) for p in payloads
        ),
        _LawRun("functor.map_composition", budget).run(map_composition()),
        _LawRun("functor.payloads_closed", budget).run(payloads_closed()),
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

class FamilyFixture(Record):
    """Everything the shared-operation law checker needs for one family."""

    # inj: (fwd, bwd) -> optic; the identity is inj(identity, identity)
    # triples: [(o1, o2, o3)] composable, outermost first
    # doms: keys s, a1, a2, a3  (simple optics: b=a, t=s)
    # inj_tables: [(f, g, f2, g2)]  f: s->a1, g: a1->s, f2: a1->a3, g2: a3->a1
    __slots__ = ("name", "inj", "triples", "doms", "inj_tables")


def _agree_on(inputs, actual, expected, wholes):
    """A probe-by-probe case: ``actual`` and ``expected`` agree on every
    whole.  When they do not, the case names the first whole ``s`` on which
    they differ and gives each side's value there."""
    for s in wholes:
        lhs, rhs = actual(s), expected(s)
        if lhs != rhs:
            return {**inputs, "s": s}, rhs, lhs
    return inputs, True, True


def check_optic_family_laws(fix, budget=DEFAULT_MAX_EVALS):
    ds, d1, d2, d3 = (fix.doms[k] for k in ("s", "a1", "a2", "a3"))
    triples = list(enumerate(fix.triples))
    tables = list(enumerate(fix.inj_tables))

    def map_inj():
        for i, (f, g, _, _) in tables:
            optic = fix.inj(f, g)
            for h in all_functions(d1, d1):
                inputs = {"fixture": fix.name, "table": i, "h": h}
                yield _agree_on(inputs, optic.map_optic(h), lambda s: g(h(f(s))), ds)

    def inj_identity():
        # the identity optic inj(identity, identity) maps every h to h itself
        run_id = fix.inj(identity, identity)
        for h in all_functions(ds, ds):
            yield _agree_on({"fixture": fix.name, "h": h}, run_id.map_optic(h), h, ds)

    def map_composition():
        for i, (o1, o2, _) in triples:
            pair_optic = o1.compose(o2)
            for h in all_functions(d2, d2):
                inputs = {"fixture": fix.name, "triple": i, "h": h}
                fused, staged = pair_optic.map_optic(h), o1.map_optic(o2.map_optic(h))
                yield _agree_on(inputs, fused, staged, ds)

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
            ({"fixture": fix.name, "triple": i}, fix.inj(identity, identity).compose(o1), o1, d1, d1, ds)
            for i, (o1, _, _) in triples
        ),
        _LawRun("optic_family.identity_right", budget).agreements(
            ({"fixture": fix.name, "triple": i}, o1.compose(fix.inj(identity, identity)), o1, d1, d1, ds)
            for i, (o1, _, _) in triples
        ),
        _LawRun("optic_family.inj_identity", budget).run(inj_identity()),
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


def _chains(draw, doms, starts, length):
    """Composable simple optics, outermost first: for each seed ``k`` of
    ``starts``, the ``length`` optics ``draw(k + i, foci, wholes)`` down the
    domain chain ``s``, ``a1``, ``a2``, ``a3``, each focusing on the next
    domain of the chain."""
    chain = [doms[key] for key in ("s", "a1", "a2", "a3")[: length + 1]]
    return [
        tuple(map(draw, range(k, k + length), chain[1:], chain[:-1]))
        for k in starts
    ]


def _draw_iso(rng, pool, family, seed, dom_a, dom_s):
    """A simple iso optic of ``family`` on a shape that ``rng`` draws from
    ``pool``; :func:`gen_iso_optic` seeds its own tables, so each draw takes
    one choice from ``rng``."""
    return gen_iso_optic(seed, rng.choice(pool), family, dom_a, dom_a, dom_s, dom_s)


def _drawn_family(name, inj, draw, rng, n_s, n_m):
    """The fixture whose triples ``draw`` draws at seeds 0, 10 and 20 over
    ``n_s`` wholes and ``n_m`` middle foci, and whose two inj tables
    ``rng`` draws after them."""
    doms = {
        "s": labels("s", n_s),
        "a1": labels("a", 3),
        "a2": labels("m", n_m),
        "a3": labels("x", 2),
    }
    triples = _chains(draw, doms, range(0, 30, 10), 3)
    signature = (("s", "a1"), ("a1", "s"), ("a1", "a3"), ("a3", "a1"))
    tables = [
        tuple(_rand_table(rng, doms[x], doms[y]) for x, y in signature)
        for _ in range(2)
    ]
    return FamilyFixture(name, inj, triples, doms, tables)


def concrete_family_fixture(tag: FamilyTag) -> FamilyFixture:
    return _drawn_family(
        f"concrete.{tag.value}", CONCRETE_FAMILIES[tag].inj, partial(gen_random_optic, tag),
        random.Random(f"inj:{tag}:0"), n_s=4, n_m=3,
    )


def iso_family_fixture(family, shape_pool) -> FamilyFixture:
    rng = random.Random(f"{family.name}:0")
    return _drawn_family(
        f"iso.{family.name}", partial(iso_inj, family=family),
        partial(_draw_iso, rng, shape_pool, family), rng, n_s=3, n_m=2,
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
        "id": ID_SHAPE,
        "pair": pair,
        "pair2": pair2,
        "maybe_pair": mpair,
        "sum": summ,
        "sum_unit": sum_unit,
        "maybe": mb,
        "compose_pp": compose_shapes(pair, pair2),
        "compose_sm": compose_shapes(summ, mb),
        "compose_pm": compose_shapes(pair, mb),
        "compose_ii": compose_shapes(ID_SHAPE, ID_SHAPE),
    }


class Natural(Record):
    """A registered natural transformation between two shapes."""

    __slots__ = ("name", "source", "target", "fn")


def standard_naturals(sh) -> list:
    """The registered naturals between the shapes ``sh`` of :func:`standard_shapes`."""
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
        Natural("maybe_unit_sum", sh["maybe"], sh["sum_unit"], sh["maybe"].sum.to_sum),
        Natural("sum_squash", sh["sum"], sh["maybe"], sh["maybe"].sum.from_sum),
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


# (forward, retraction) pairs of registered naturals: the two residual
# rotations are involutions, tagging a residual is undone by the defaulting
# projection, and the identity retracts itself.
_RETRACTIONS = (
    ("pair_rotate", "pair_rotate"),
    ("sum_rotate", "sum_rotate"),
    ("id_nat", "id_nat"),
    ("pair_tag", "maybe_pair_default"),
)


def naturals_within(family, naturals):
    return [
        nat
        for nat in naturals
        if family.member(nat.source) and family.member(nat.target)
    ]


# Enhancing law group ---------------------------------------------------------

class CapabilityFixture(Record):
    """A capability record plus the machinery to enumerate and compare its
    profunctor values extensionally.  ``eq`` gets the law's :class:`_LawRun`,
    so a comparison that probes goes through its budget, and returns the
    case that two values are equal."""

    # values: (dom_in, dom_out) -> list of P values
    # eq: (run, inputs, p1, p2, dom_in) -> case
    __slots__ = ("cap", "values", "eq")


def _reader_fixture(cap, codomain):
    """The fixture whose values are every function from ``din`` to
    ``codomain(dout)``, compared pointwise: a FAIL names the first input
    ``s`` on which they differ."""
    return CapabilityFixture(
        cap,
        lambda din, dout: all_functions(din, codomain(dout)),
        lambda run, inputs, p1, p2, din: _agree_on(inputs, p1, p2, din),
    )


def function_arrow_fixture():
    return _reader_fixture(FUNCTION_ARROW, identity)


def getting_fixture(focus_dom):
    return _reader_fixture(GETTING, lambda dout: focus_dom)


def matching_fixture(focus_dom):
    return _reader_fixture(
        MATCHING, lambda dout: [Left(y) for y in dout] + [Right(a) for a in focus_dom]
    )


def iso_capability_fixture(family, shape_pool, focus_a, focus_b):
    def values(din, dout):
        rng = random.Random(f"{family.name}:0:{tuple(din)}:{tuple(dout)}")
        out = []
        for i in range(4):
            shape = rng.choice(shape_pool)
            out.append(gen_iso_optic(i, shape, family, focus_a, focus_b, din, dout))
        return out

    return CapabilityFixture(
        cap=iso_capability(family),
        values=values,
        eq=lambda run, inputs, p1, p2, din: run.compared(inputs, p1, p2, focus_a, focus_b, din),
    )


def check_enhancing_laws(
    fix: CapabilityFixture,
    shapes,
    naturals,
    dom_a,
    dom_b,
    compose_pairs,
    budget=DEFAULT_MAX_EVALS,
):
    """The capability laws: dimap is functorial, enhance respects the
    identity shape, shape composition, registered naturals (wedge), and
    commutes with dimap through the shape's map."""
    cap = fix.cap
    values = fix.values(dom_a, dom_b)
    fns_a = all_functions(dom_a, dom_a)
    fns_b = all_functions(dom_b, dom_b)

    def law(name, cases):
        """Run lazy ``(inputs, lhs, rhs, dom_in)`` cases through ``fix.eq``;
        a comparison that raises FAILs the law (:meth:`_LawRun.raised`)."""
        run = _LawRun(name, budget)
        for case in cases:
            try:
                if not run.case(*fix.eq(run, *case)):
                    break
            except Exception as exc:
                return run.raised(case[0], exc)
        return run.report

    def dimap_identity():
        for i, p in enumerate(values):
            yield {"cap": cap.name, "value": i}, cap.dimap(identity, identity, p), p, dom_a

    def dimap_composition():
        for f, f2 in itertools.product(fns_a[:6], fns_a[:6]):
            for g, g2 in itertools.product(fns_b[:6], fns_b[:6]):
                for i, p in enumerate(values[:4]):
                    fused = cap.dimap(lambda x: f2(f(x)), lambda y: g(g2(y)), p)
                    staged = cap.dimap(f, g, cap.dimap(f2, g2, p))
                    yield {"cap": cap.name, "value": i}, fused, staged, dom_a

    def identity_shape():
        id_payloads = ID_SHAPE.payloads(dom_a)
        for i, p in enumerate(values):
            lhs = cap.enhance(ID_SHAPE, p)
            rhs = cap.dimap(lambda p: p.value, Id, p)
            yield {"cap": cap.name, "value": i}, lhs, rhs, id_payloads

    def compose_shape():
        for f_shape, g_shape in compose_pairs:
            fg = compose_shapes(f_shape, g_shape)
            fg_payloads = fg.payloads(dom_a)
            for i, p in enumerate(values[:4]):
                lhs = cap.enhance(fg, p)
                rhs = cap.dimap(
                    lambda cp: cp.value, Comp, cap.enhance(f_shape, cap.enhance(g_shape, p))
                )
                inputs = {"cap": cap.name, "shapes": (f_shape.name, g_shape.name), "value": i}
                yield inputs, lhs, rhs, fg_payloads

    def wedge():
        for nat in naturals:
            src_payloads = nat.source.payloads(dom_a)
            for i, p in enumerate(values[:4]):
                lhs = cap.dimap(identity, nat.fn, cap.enhance(nat.source, p))
                rhs = cap.dimap(nat.fn, identity, cap.enhance(nat.target, p))
                inputs = {"cap": cap.name, "natural": nat.name, "value": i}
                yield inputs, lhs, rhs, src_payloads

    def map_commute():
        for shape in shapes:
            payloads = shape.payloads(dom_a)
            for u, v in itertools.product(fns_a[:4], fns_b[:4]):
                for i, p in enumerate(values[:3]):
                    lhs = cap.enhance(shape, cap.dimap(u, v, p))
                    rhs = cap.dimap(
                        lambda pa: shape.map(u, pa),
                        lambda pb: shape.map(v, pb),
                        cap.enhance(shape, p),
                    )
                    inputs = {"cap": cap.name, "shape": shape.name, "value": i}
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
    fz, shapes, naturals, dom_a, dom_b, compose_pairs, budget=DEFAULT_MAX_EVALS
):
    tag = fz.family_tag.value
    cls = CONCRETE_FAMILIES[fz.family_tag]
    probe = all_functions(dom_a, dom_b)
    fns_a, fns_b = all_functions(dom_a, dom_a)[:4], all_functions(dom_b, dom_b)[:4]

    def map_is_shape_map():
        for shape in shapes:
            optic = fz.enhance_op(shape)
            payloads = shape.payloads(dom_a)
            for h in probe:
                run = optic.map_optic(h)
                for p in payloads:
                    yield {"tag": tag, "shape": shape.name, "h": h, "p": p}, shape.map(h, p), run(p)

    def compose_shape():
        for f_shape, g_shape in compose_pairs:
            fg = compose_shapes(f_shape, g_shape)
            rhs = cls.inj(lambda cp: cp.value, Comp).compose(
                fz.enhance_op(f_shape)
            ).compose(fz.enhance_op(g_shape))
            inputs = {"tag": tag, "shapes": (f_shape.name, g_shape.name)}
            yield inputs, fz.enhance_op(fg), rhs, dom_a, dom_b, fg.payloads(dom_a)

    def wedge():
        for nat in naturals:
            lhs = cls.inj(identity, nat.fn).compose(fz.enhance_op(nat.source))
            rhs = cls.inj(nat.fn, identity).compose(fz.enhance_op(nat.target))
            yield {"tag": tag, "natural": nat.name}, lhs, rhs, dom_a, dom_b, nat.source.payloads(dom_a)

    def inj_commute():
        for shape in shapes:
            payloads = shape.payloads(dom_a)
            for u, v in itertools.product(fns_a, fns_b):
                lhs = fz.enhance_op(shape).compose(cls.inj(u, v))
                rhs = cls.inj(
                    lambda p: shape.map(u, p), lambda p: shape.map(v, p)
                ).compose(fz.enhance_op(shape))
                yield {"tag": tag, "shape": shape.name}, lhs, rhs, dom_a, dom_b, payloads

    identity_case = (
        {"tag": tag},
        fz.enhance_op(ID_SHAPE),
        cls.inj(lambda p: p.value, Id),
        dom_a, dom_b, ID_SHAPE.payloads(dom_a),
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
    """The laws of ``family``'s residual forms, on its member shapes
    ``shape_pool`` and the registered ``naturals`` that lie within it."""
    As, ss = labels("a", 2), labels("s", 3)
    optics = [
        (shape, gen_iso_optic(i, shape, family, As, As, ss, ss))
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
        id_iso = iso_inj(identity, identity, family)
        for shape, optic in optics:
            chained = id_iso.compose(optic).compose(id_iso)
            yield {"family": family.name, "shape": shape.name}, optic, chained, As, As, ss

    retract = _LawRun("iso.retraction", budget)

    def retractions():
        # equality with the pure zoom forces backward . forward = id; the
        # converse needs natural components (checked below), not raw tables
        for i, shape in enumerate(shape_pool):
            payloads = shape.payloads(As)
            same = gen_iso_optic(100 + i, shape, family, As, As, payloads, payloads)
            section = all(same.backward(same.forward(p)) == p for p in payloads)
            zoom = enhance_iso(shape, family)
            ok = section or not retract.agrees(same, zoom, As, As, payloads)
            yield {"family": family.name, "shape": shape.name, "direction": "arbitrary"}, True, ok
        by_name = {nat.name: nat for nat in naturals}
        for fwd_name, bwd_name in _RETRACTIONS:
            if fwd_name not in by_name or bwd_name not in by_name:
                continue
            nat, nat_inv = by_name[fwd_name], by_name[bwd_name]
            twisted = IsoOptic(family, nat.target, forward=nat.fn, backward=nat_inv.fn)
            inputs = {"family": family.name, "natural": nat.name, "direction": "natural"}
            zoom = enhance_iso(nat.source, family)
            yield retract.compared(inputs, twisted, zoom, As, As, nat.source.payloads(As))

    def enhance_composition():
        for f_shape, g_shape in itertools.combinations(shape_pool, 2):
            lhs = enhance_iso(f_shape, family).compose(enhance_iso(g_shape, family))
            fg = compose_shapes(f_shape, g_shape)
            rhs = iso_inj(Comp, lambda p: p.value, family).compose(enhance_iso(fg, family))
            dom_in = f_shape.payloads(g_shape.payloads(As))
            yield {"family": family.name, "shapes": (f_shape.name, g_shape.name)}, lhs, rhs, As, As, dom_in

    def equality_up_to_natural():
        for nat in naturals:
            rng = random.Random(f"{nat.name}:0")
            fwd = _rand_table(rng, ss, nat.source.payloads(As))
            bwd = _rand_table(rng, nat.target.payloads(As), ss)
            with_fwd = IsoOptic(family, nat.target, lambda s: nat.fn(fwd(s)), bwd)
            with_bwd = IsoOptic(family, nat.source, fwd, lambda p: bwd(nat.fn(p)))
            yield {"family": family.name, "natural": nat.name}, with_fwd, with_bwd, As, As, ss

    return [
        _LawRun("iso.normal_form", budget).agreements(normal_form()),
        retract.run(retractions()),
        _LawRun("iso.enhance_composition", budget).agreements(enhance_composition()),
        _LawRun("iso.endo_identity", budget).agreements(endo_identity()),
        _LawRun("iso.equality_up_to_natural", budget).agreements(equality_up_to_natural()),
    ]


# Morphism law group ----------------------------------------------------------

class MorphismSpec(Record):
    """A conversion between families plus composable sample pairs."""

    # theta: source optic -> target optic
    # inj_src, inj_dst: (f, g) -> source optic, target optic
    # pairs: [(o1, o2)] composable in the source family
    # doms: keys s, a1, a2
    __slots__ = ("name", "theta", "inj_src", "inj_dst", "pairs", "doms")


def check_morphism(spec: MorphismSpec, budget=DEFAULT_MAX_EVALS):
    ds, d1, d2 = (spec.doms[k] for k in ("s", "a1", "a2"))
    rng = random.Random(spec.name)
    tables = [(_rand_table(rng, ds, d1), _rand_table(rng, d1, ds)) for _ in range(3)]

    return [
        _LawRun("morphism.preserves_inj", budget).agreements(
            (
                {"conversion": spec.name, "sample": i},
                spec.theta(spec.inj_src(f, g)),
                spec.inj_dst(f, g),
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
    "lawful.outside",
    "lawful.reentry",
    "lawful.fields",
    "functor.map_identity",
    "functor.map_composition",
    "functor.payloads_closed",
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
    """Member shapes of each concrete family's functor family, keyed by the
    family's tag."""
    sh = shapes or standard_shapes()
    return {
        FamilyTag.SETTER: [sh["pair"], sh["sum"], sh["maybe_pair"], sh["maybe"], sh["compose_pm"]],
        FamilyTag.LENS: [sh["id"], sh["pair"], sh["maybe_pair"], sh["compose_pp"]],
        FamilyTag.PRISM: [sh["id"], sh["sum"], sh["maybe"], sh["compose_sm"]],
        FamilyTag.ACHLENS: [sh["id"], sh["maybe_pair"]],
        FamilyTag.ADAPTER: [sh["id"], sh["compose_ii"]],
        FamilyTag.OPTIONAL: [sh["id"], sh["pair"], sh["sum"], sh["maybe"], sh["compose_pm"]],
    }


def standard_morphism_specs(n_pairs):
    """Morphism fixtures for every conversion the library ships, over every
    concrete family, and for every embedding of the family order."""
    doms = {"s": labels("s", 3), "a1": labels("a", 3), "a2": labels("x", 2)}
    pools = shape_pools()

    def conversions(tag):
        family = functorize(tag).functor_family
        pool = pools[tag]
        enc = prof_encoding(tag)
        concrete = CONCRETE_FAMILIES[tag].inj
        iso, prof = partial(iso_inj, family=family), partial(prof_inj, family=family)

        def drawn_pairs(draw, k):
            """``n_pairs`` composable pairs, at seeds k + 2j and k + 2j + 1."""
            return _chains(draw, doms, range(k, k + 2 * n_pairs, 2), 2)

        def iso_pairs(k):
            rng = random.Random(f"{family.name}:pairs:{k}")
            return drawn_pairs(partial(_draw_iso, rng, pool, family), k)

        concrete_pairs = partial(drawn_pairs, partial(gen_random_optic, tag))

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


# Per family: its lawful optics with their wholes, checked by check_lawful
# with foci _LAWFUL_A.
_LAWFUL_A = labels("a", 3)
_LAWFUL_R = labels("r", 2)


def _seeded(gen, *doms):
    """The lawful optics ``gen(k, *doms)`` for seeds 0 and 1; the last domain
    holds their wholes."""
    return lambda: ([gen(k, *doms) for k in range(2)], doms[-1])


def _canonical_setter():
    """The canonical setter of the pair shape takes no seed, so one check
    covers it."""
    pair = pair_shape(_LAWFUL_R, name="Pair")
    return [functorize(FamilyTag.SETTER).enhance_op(pair)], pair.payloads(_LAWFUL_A)


_FAMILY_LAWS = {
    FamilyTag.ADAPTER: _seeded(gen_lawful_adapter, _LAWFUL_A, labels("s", 3)),
    FamilyTag.LENS: _seeded(gen_lawful_lens, _LAWFUL_R, _LAWFUL_A, labels("s", 6)),
    FamilyTag.PRISM: _seeded(gen_lawful_prism, _LAWFUL_R, _LAWFUL_A, labels("s", 5)),
    FamilyTag.OPTIONAL: _seeded(
        gen_lawful_optional, labels("m", 2), labels("k", 1), _LAWFUL_A, labels("s", 5)
    ),
    FamilyTag.ACHLENS: _seeded(gen_lawful_achlens, _LAWFUL_R, _LAWFUL_A, labels("s", 6)),
    FamilyTag.SETTER: _canonical_setter,
}


def run_all_law_checks(budget=DEFAULT_MAX_EVALS):
    """Run every checker over the standard fixtures and return the merged
    reports, sorted by law name."""
    shapes = standard_shapes()
    naturals = standard_naturals(shapes)
    pools = shape_pools(shapes)
    dom_a = labels("a", 2)
    dom_b = dom_a
    reports = []

    # per family, with its functor family's member shapes, naturals and
    # compose pairs: its laws on its lawful optics, the shared optic-family
    # laws on its random records and on its iso optics, the laws of its
    # functorization and of its iso capability, and the iso-specific laws
    for tag, lawful in _FAMILY_LAWS.items():
        fz = functorize(tag)
        family = fz.functor_family
        pool = pools[tag]
        fam_nats = naturals_within(family, naturals)
        pairs = [(f, g) for f in pool for g in pool][:3]
        optics, wholes = lawful()
        for optic in optics:
            reports += check_lawful(optic, _LAWFUL_A, wholes, budget)
        reports += check_optic_family_laws(concrete_family_fixture(tag), budget)
        reports += check_optic_family_laws(iso_family_fixture(family, pool), budget)
        reports += check_functorization_laws(
            fz, pool, fam_nats, dom_a, dom_b, compose_pairs=pairs, budget=budget
        )
        reports += check_enhancing_laws(
            iso_capability_fixture(family, pool, dom_a, dom_b),
            pool, fam_nats, dom_a, dom_b, compose_pairs=pairs, budget=budget,
        )
        reports += check_iso_laws(family, pool, fam_nats, budget)

    # shape laws
    for shape in shapes.values():
        reports += check_functor_laws(shape, labels("a", 3), budget)

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
    reports += check_enhancing_laws(
        getting_fixture(dom_a), pools[FamilyTag.LENS], naturals_within(IS_PRODUCT, naturals),
        dom_a, dom_b,
        compose_pairs=[(shapes["pair"], shapes["pair2"])], budget=budget,
    )
    reports += check_enhancing_laws(
        matching_fixture(dom_a), arrow_shapes, naturals, dom_a, dom_b,
        compose_pairs=compose_all, budget=budget,
    )

    # conversions are morphisms
    for spec in standard_morphism_specs(n_pairs=2):
        reports += check_morphism(spec, budget)

    return merge_reports(reports)


def main(argv=None):
    """Emit the full law report as JSON lines.  Exit 1 when a law does not
    pass, or when the laws reported differ from :data:`REQUIRED_LAWS`.  The
    entry point takes no arguments: any argument exits 2 with one line on
    stderr and nothing on stdout.  Exit 4 with one line on stderr, as
    ``opticat`` does, when stdout cannot take the report: a reader that
    closed the pipe, a full disk, a closed stdout.  ``sys.stdout`` is then
    set to None, so that the interpreter's own flush at exit does not fail
    on the same stream again."""
    args = sys.argv[1:] if argv is None else argv
    if args:
        print(f"python -m opticat.laws: takes no arguments, got {args[0]!r}", file=sys.stderr)
        return 2
    reports = run_all_law_checks()
    try:
        if sys.stdout is None:  # descriptor 1 was closed at start-up
            raise OSError("stdout is closed")
        for line in report_lines(reports):
            sys.stdout.write(line + "\n")
        sys.stdout.flush()
    except OSError as exc:
        sys.stdout = None
        print(f"python -m opticat.laws: cannot write output: {exc}", file=sys.stderr)
        return 4
    covered = {rep.law for rep in reports} == set(REQUIRED_LAWS)
    return 0 if covered and all(rep.passed for rep in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
