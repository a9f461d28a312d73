"""Finite-function probes for observational equality.

Optic equality in this library is observational: two optics are equal when
their map actions agree on every probe function and input.  Over the finite
domains used in tests the probe set is exhaustive; otherwise a seeded sample
of function tables is used, never silently reported as exhaustive.

A probe is a :class:`FiniteFn`, a function that is its own table, so calling
it is a dict lookup.  :func:`probe_functions` keeps the last probe set it
built, because the law suite asks for the same set many times in a row.
"""

import itertools
import random

DEFAULT_MAX_EVALS = 100_000
SAMPLE_SIZE = 64


class FiniteFn(dict):
    """A total function given by an explicit table over a finite domain.

    The function is its table: calling it looks its argument up.  Equality
    and hashing are by identity, as for any other function.
    """

    __slots__ = ()
    __call__ = dict.__getitem__
    __hash__ = object.__hash__

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    def __repr__(self):
        items = ", ".join(f"{k!r}:{v!r}" for k, v in self.items())
        return f"FiniteFn({{{items}}})"


class _ScanFn(tuple):
    """A FiniteFn over a domain that cannot be hashed (JSON arrays and
    objects): its ``(argument, value)`` pairs, scanned on each call."""

    __slots__ = ()

    def __call__(self, x):
        for a, b in self:
            if a == x:
                return b
        raise KeyError(x)


def all_functions(dom_a, dom_b):
    """Every total function from dom_a to dom_b, as FiniteFn tables (as
    _ScanFn tables when dom_a holds an unhashable value)."""
    table = FiniteFn
    try:
        set(dom_a)
    except TypeError:
        table = _ScanFn
    return [table(zip(dom_a, image)) for image in itertools.product(dom_b, repeat=len(dom_a))]


def sample_functions(dom_a, dom_b):
    """A seeded sample of SAMPLE_SIZE function tables from dom_a to dom_b."""
    rng = random.Random(0)
    return [
        FiniteFn((a, rng.choice(dom_b)) for a in dom_a)
        for _ in range(SAMPLE_SIZE)
    ]


def probes_exhaustive(dom_a, dom_b, dom_s, max_evals):
    """Probe set policy: exhaustive when the total evaluation count fits the
    budget, else a seeded sample."""
    count = len(dom_b) ** len(dom_a) * max(len(dom_s), 1)
    return count <= max_evals


_last = (None, None)  # (key, result) of the last probe_functions call


def probe_functions(dom_a, dom_b, dom_s, max_evals=DEFAULT_MAX_EVALS):
    """The probe set :func:`probes_exhaustive` chooses.  Returns
    (functions, exhaustive_flag), the functions as a tuple.

    The last result is kept and returned again while the arguments are
    equal.  Its key is everything the set depends on: both domains, and
    the size of ``dom_s`` and the budget, which with the domains fix the
    mode.  Callers share the tuple and its tables, so none may change them.
    """
    global _last
    dom_a, dom_b = tuple(dom_a), tuple(dom_b)
    key = (dom_a, dom_b, len(dom_s), max_evals)
    if _last[0] != key:
        if probes_exhaustive(dom_a, dom_b, dom_s, max_evals):
            result = tuple(all_functions(dom_a, dom_b)), True
        else:
            result = tuple(sample_functions(dom_a, dom_b)), False
        _last = key, result
    return _last[1]


def distinguishing_probe(o1, o2, dom_a, dom_b, dom_s, max_evals=DEFAULT_MAX_EVALS):
    """The first probe, in :func:`probe_functions` order, on which the map
    actions of two optics differ, as ``{h, s, lhs, rhs}`` with ``lhs`` and
    ``rhs`` each side's ``map_optic(h)(s)``; None if every probe agrees."""
    fns, _ = probe_functions(dom_a, dom_b, dom_s, max_evals)
    for h in fns:
        run1, run2 = o1.map_optic(h), o2.map_optic(h)
        for s in dom_s:
            lhs = run1(s)
            rhs = run2(s)
            if lhs != rhs:
                return {"h": h, "s": s, "lhs": lhs, "rhs": rhs}
    return None


def maps_agree(o1, o2, dom_a, dom_b, dom_s, max_evals=DEFAULT_MAX_EVALS):
    """Observational equality of two optics via their map actions."""
    return distinguishing_probe(o1, o2, dom_a, dom_b, dom_s, max_evals) is None
