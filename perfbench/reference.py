"""Independent reference for the opticat CLI.

Implements the path grammar, the five commands and the exit codes as the
README describes them, without importing opticat, so that every benchmark
call can be checked against it:

* misses leave the document unchanged;
* ``match`` on a miss returns the whole document as ``rest``;
* ``--strict`` makes a miss of ``set``/``map`` on a match-capable path exit 3;
* documents and values must be strict JSON (no ``NaN``, ``Infinity`` or
  numbers that overflow to infinity) and UTF-8, else exit 4.

Inputs nested ``LIMIT`` or more deep, or paths of ``LIMIT`` or more steps,
are beyond the CLI's recursion budget.  For those the reference still gives
the full answer, and ``Outcome.limit`` is set: a clean rejection (exit 3 or
4, a one-line message, empty stdout) is accepted in its place.
"""

import json
import math
import re
import sys
from contextlib import contextmanager
from typing import NamedTuple

EXIT_OK = 0
EXIT_UNSUPPORTED = 2
EXIT_TYPE = 3
EXIT_PARSE = 4
EXIT_CODES = (EXIT_OK, EXIT_UNSUPPORTED, EXIT_TYPE, EXIT_PARSE)

LIMIT = 1000
COMMANDS = ("get", "set", "map", "match", "build")
MAP_FNS = ("incr", "negate", "upper", "lower")
WORD_STEPS = ("fst", "snd", "some", "each")

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NAT = re.compile(r"[0-9]+")


class Outcome(NamedTuple):
    code: int
    stdout: str
    limit: bool = False


class PathError(ValueError):
    pass


class NotJson(ValueError):
    pass


class Mismatch(Exception):
    """A step met a document of the wrong shape."""


MISS = object()


@contextmanager
def deep_recursion(limit=50_000):
    """Lets json and the evaluator below walk inputs far deeper than 1000."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


# JSON ------------------------------------------------------------------------

def _reject_constant(name):
    raise NotJson(f"{name} is not JSON")


def _finite_float(text):
    value = float(text)
    if math.isinf(value):
        raise NotJson(f"{text} overflows")
    return value


def strict_loads(text):
    """Parse strict JSON; raises NotJson on anything else."""
    try:
        return json.loads(
            text, parse_constant=_reject_constant, parse_float=_finite_float
        )
    except json.JSONDecodeError as exc:
        raise NotJson(str(exc)) from exc


def render(value) -> str:
    """Canonical JSON: sorted keys, compact separators, non-ASCII kept."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
        allow_nan=False,
    )


def is_canonical(stdout: str) -> bool:
    """True when stdout is one canonical JSON value followed by a newline."""
    if not stdout.endswith("\n"):
        return False
    body = stdout[:-1]
    with deep_recursion():
        try:
            return render(strict_loads(body)) == body
        except (NotJson, ValueError, RecursionError):
            return False


def depth(value) -> int:
    """Nesting depth of a JSON value (scalars are 0), without recursion."""
    best = 0
    stack = [(value, 0)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, list):
            stack.extend((x, d + 1) for x in node)
            best = max(best, d + 1)
        elif isinstance(node, dict):
            stack.extend((x, d + 1) for x in node.values())
            best = max(best, d + 1)
    return best


# Paths -----------------------------------------------------------------------

def parse_path(text):
    """path := step ('.' step)* ; returns a list of (kind, arg) pairs."""
    steps = []
    step, pos = _parse_step(text, 0)
    steps.append(step)
    while pos < len(text):
        if text[pos] != ".":
            raise PathError(f"expected '.' at offset {pos}")
        step, pos = _parse_step(text, pos + 1)
        steps.append(step)
    return steps


def _parse_step(text, pos):
    for word in WORD_STEPS:
        if text.startswith(word, pos):
            return (word, None), pos + len(word)
    if text.startswith("key(", pos):
        name, pos = _parse_key_name(text, pos + 4)
    elif text.startswith("idx(", pos):
        m = _NAT.match(text, pos + 4)
        if not m:
            raise PathError(f"expected a natural number at offset {pos + 4}")
        name, pos = int(m.group()), m.end()
    else:
        raise PathError(f"expected a step at offset {pos}")
    if not text.startswith(")", pos):
        raise PathError(f"expected ')' at offset {pos}")
    return ("key" if isinstance(name, str) else "idx", name), pos + 1


def _parse_key_name(text, pos):
    if not text.startswith('"', pos):
        m = _IDENT.match(text, pos)
        if not m:
            raise PathError(f"expected an identifier or string at offset {pos}")
        return m.group(), m.end()
    out = []
    i = pos + 1
    while i < len(text):
        ch = text[i]
        if ch == '"':
            return "".join(out), i + 1
        if ch == "\\":
            if i + 1 >= len(text) or text[i + 1] not in '"\\':
                raise PathError(f"bad escape at offset {i}")
            ch = text[i + 1]
            i += 1
        out.append(ch)
        i += 1
    raise PathError(f"unterminated string at offset {pos}")


def family(steps) -> str:
    """The lattice join of the step families: lens and prism meet at
    optional, and any ``each`` makes the path a setter."""
    kinds = {kind for kind, _ in steps}
    if "each" in kinds:
        return "SETTER"
    if kinds <= {"fst", "snd"}:
        return "LENS"
    if kinds == {"some"}:
        return "PRISM"
    return "OPTIONAL"


SUPPORTS = {
    "get": {"LENS"},
    "set": {"LENS", "PRISM", "OPTIONAL", "SETTER"},
    "map": {"LENS", "PRISM", "OPTIONAL", "SETTER"},
    "match": {"LENS", "PRISM", "OPTIONAL"},
    "build": {"PRISM"},
}


# Evaluation --------------------------------------------------------------------

def _focus(doc, step):
    """The child a step selects, MISS, or Mismatch for a wrong shape."""
    kind, arg = step
    if kind in ("fst", "snd"):
        if not (isinstance(doc, list) and len(doc) == 2):
            raise Mismatch(kind)
        return doc[0] if kind == "fst" else doc[1]
    if kind == "key":
        if not isinstance(doc, dict):
            raise Mismatch(kind)
        return doc[arg] if arg in doc else MISS
    if kind == "idx":
        if not isinstance(doc, list):
            raise Mismatch(kind)
        return doc[arg] if arg < len(doc) else MISS
    if kind == "some":
        if doc is None:
            return MISS
        if isinstance(doc, dict) and len(doc) == 1 and "some" in doc:
            return doc["some"]
        raise Mismatch(kind)
    raise ValueError(kind)


def _replace(doc, step, child):
    kind, arg = step
    if kind == "fst":
        return [child, doc[1]]
    if kind == "snd":
        return [doc[0], child]
    if kind == "key":
        return {**doc, arg: child}
    if kind == "idx":
        return doc[:arg] + [child] + doc[arg + 1:]
    return {"some": child}


def view(doc, steps):
    """Focus of an each-free path, or MISS."""
    for step in steps:
        doc = _focus(doc, step)
        if doc is MISS:
            return MISS
    return doc


def modify(doc, steps, h):
    """Apply h at every focus; misses leave their part unchanged.  The
    affine prefix is walked iteratively; only ``each`` recurses."""
    trail = []
    cur = doc
    for i, step in enumerate(steps):
        if step[0] == "each":
            if not isinstance(cur, list):
                raise Mismatch("each")
            rest = steps[i + 1:]
            cur = [modify(x, rest, h) for x in cur]
            break
        child = _focus(cur, step)
        if child is MISS:
            return doc
        trail.append((cur, step))
        cur = child
    else:
        cur = h(cur)
    for parent, step in reversed(trail):
        cur = _replace(parent, step, cur)
    return cur


def map_fn(name):
    def number(op):
        def run(x):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise Mismatch(name)
            return op(x)
        return run

    def string(op):
        def run(x):
            if not isinstance(x, str):
                raise Mismatch(name)
            return op(x)
        return run

    return {
        "incr": number(lambda x: x + 1),
        "negate": number(lambda x: -x),
        "upper": string(str.upper),
        "lower": string(str.lower),
    }[name]


def _ok(value):
    return Outcome(EXIT_OK, render(value) + "\n")


def _fail(code):
    return Outcome(code, "")


def expected(command, path, value=None, doc_bytes=None, strict=False, docs=None):
    """The outcome ``opticat command path [value] [--strict]`` must have when
    the document's bytes are ``doc_bytes`` (ignored by ``build``).  ``docs``
    is an optional dict that keeps parsed documents between calls."""
    with deep_recursion():
        out, limit = _expected(command, path, value, doc_bytes, strict,
                               {} if docs is None else docs)
    return out._replace(limit=limit)


def _load(doc_bytes, docs):
    """(document, depth), or None when the bytes are not UTF-8 strict JSON."""
    if doc_bytes not in docs:
        try:
            doc = strict_loads(doc_bytes.decode("utf-8"))
            docs[doc_bytes] = doc, depth(doc)
        except (UnicodeDecodeError, NotJson):
            docs[doc_bytes] = None
    return docs[doc_bytes]


def _expected(command, path, value, doc_bytes, strict, docs):
    doc = None
    doc_depth = 0
    if command != "build":
        loaded = _load(doc_bytes, docs)
        if loaded is None:
            return _fail(EXIT_PARSE), False
        doc, doc_depth = loaded
    try:
        steps = parse_path(path)
    except PathError:
        return _fail(EXIT_PARSE), doc_depth >= LIMIT
    limit = doc_depth >= LIMIT or len(steps) >= LIMIT
    if command not in COMMANDS or family(steps) not in SUPPORTS[command]:
        return _fail(EXIT_UNSUPPORTED), limit
    if command in ("set", "build"):
        if value is None:
            return _fail(EXIT_UNSUPPORTED), limit
        try:
            new = strict_loads(value)
        except NotJson:
            return _fail(EXIT_PARSE), limit
    if command == "map" and value not in MAP_FNS:
        return _fail(EXIT_UNSUPPORTED), limit
    limit = limit or (command in ("set", "build") and depth(new) >= LIMIT)

    try:
        if command == "build":
            for _ in steps:
                new = {"some": new}
            return _ok(new), limit
        if command in ("get", "match"):
            focus = view(doc, steps)
            if command == "get":
                return _ok(focus), limit
            if focus is MISS:
                return _ok({"matched": False, "rest": doc}), limit
            return _ok({"matched": True, "value": focus}), limit
        if strict and family(steps) != "SETTER" and view(doc, steps) is MISS:
            return _fail(EXIT_TYPE), limit
        h = (lambda _x: new) if command == "set" else map_fn(value)
        return _ok(modify(doc, steps, h)), limit
    except Mismatch:
        return _fail(EXIT_TYPE), limit


# Judging one call ---------------------------------------------------------------

def _one_line(stderr: str) -> bool:
    return (
        stderr.count("\n") <= 1
        and stderr.strip() != ""
        and "Traceback" not in stderr
    )


def judge(want: Outcome, code: int, stdout: str, stderr: str):
    """None when the call behaved as the reference says, else a short
    reason naming the first rule it broke."""
    if code not in EXIT_CODES:
        return f"exit {code}"
    if code != EXIT_OK and not _one_line(stderr):
        return "stderr is not a one-line message"
    if want.limit and code in (EXIT_TYPE, EXIT_PARSE) and stdout == "":
        return None
    if code != want.code:
        return f"exit {code}, reference {want.code}"
    if stdout != want.stdout:
        if stdout and not is_canonical(stdout):
            return "stdout is not canonical JSON"
        return "stdout differs from the reference"
    return None


def judge_verdict(required, code: int, stdout: str, stderr: str):
    """Checks one ``python -m opticat.laws`` run: exit 0, one JSON record
    per required law, every law PASS."""
    if code != 0:
        return f"exit {code}"
    seen = {}
    for line in stdout.splitlines():
        try:
            record = strict_loads(line)
        except NotJson:
            return "a report line is not JSON"
        seen[record.get("law")] = record.get("status")
    if set(seen) != set(required):
        return "reported law set differs from REQUIRED_LAWS"
    failing = sorted(law for law, status in seen.items() if status != "PASS")
    if failing:
        return f"{len(failing)} laws not PASS, first {failing[0]}"
    return None
