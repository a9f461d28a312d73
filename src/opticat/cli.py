"""opticat: apply composed optics to JSON documents from the command line.

Usage:
    opticat <command> <path> [value] [--input FILE] [--strict]

Commands: get, set VALUE, map FN, match, build VALUE.  Paths are dotted step
sequences; each step compiles to an optic, is embedded into the join of the
steps' families, and the steps compose right to left.  Documents and values
are strict UTF-8 JSON.  Exit codes: 0 success, 2 unsupported command for the
path's family, 3 type mismatch (or a miss under --strict, or a path or
document too deep to evaluate), 4 parse error (or a document too deep to
load).
"""

import json
import math
import operator
import re
import sys
from dataclasses import dataclass
from functools import reduce

from . import __version__
from .base import Left, Right
from .families import (
    FamilyTag,
    Lens,
    Optional,
    Prism,
    Setter,
    embed,
    family_join,
    family_le,
)

EXIT_OK = 0
EXIT_UNSUPPORTED = 2
EXIT_TYPE = 3
EXIT_PARSE = 4

USAGE = "usage: opticat <command> <path> [value] [--input FILE] [--strict]"


class PathSyntaxError(ValueError):
    def __init__(self, message, offset, expected):
        super().__init__(message)
        self.offset = offset
        self.expected = tuple(expected)


class DocTypeError(TypeError):
    """A step met a document of the wrong shape."""


# Path expressions ------------------------------------------------------------

FST = "fst"
SND = "snd"
KEY = "key"
IDX = "idx"
SOME = "some"
EACH = "each"

_WORD_STEPS = (FST, SND, SOME, EACH)
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NAT = re.compile(r"[0-9]+")


@dataclass(frozen=True)
class Step:
    kind: str
    arg: object = None


@dataclass(frozen=True)
class PathExpr:
    steps: tuple


def parse_path(text: str) -> PathExpr:
    """Grammar: path := step ('.' step)*
    step := 'fst' | 'snd' | 'key(' IDENT|STRING ')' | 'idx(' NAT ')'
          | 'some' | 'each'
    """
    steps = []
    pos = 0
    step, pos = _parse_step(text, pos)
    steps.append(step)
    while pos < len(text):
        if text[pos] != ".":
            raise PathSyntaxError(
                f"expected '.' or end of path at offset {pos}", pos, ["."]
            )
        pos += 1
        step, pos = _parse_step(text, pos)
        steps.append(step)
    return PathExpr(steps=tuple(steps))


_STEP_TOKENS = ["fst", "snd", "key(", "idx(", "some", "each"]


def _parse_step(text, pos):
    for word in _WORD_STEPS:
        if text.startswith(word, pos):
            return Step(word), pos + len(word)
    if text.startswith("key(", pos):
        name, pos = _parse_key_arg(text, pos + 4)
        if not text.startswith(")", pos):
            raise PathSyntaxError(f"expected ')' at offset {pos}", pos, [")"])
        return Step(KEY, name), pos + 1
    if text.startswith("idx(", pos):
        m = _NAT.match(text, pos + 4)
        if not m:
            raise PathSyntaxError(
                f"expected a natural number at offset {pos + 4}", pos + 4, ["NAT"]
            )
        pos = m.end()
        if not text.startswith(")", pos):
            raise PathSyntaxError(f"expected ')' at offset {pos}", pos, [")"])
        return Step(IDX, int(m.group())), pos + 1
    raise PathSyntaxError(
        f"expected a step at offset {pos}", pos, list(_STEP_TOKENS)
    )


def _parse_key_arg(text, pos):
    if text.startswith('"', pos):
        out = []
        i = pos + 1
        while i < len(text):
            ch = text[i]
            if ch == "\\":
                if i + 1 >= len(text) or text[i + 1] not in ('"', "\\"):
                    raise PathSyntaxError(
                        f"bad escape at offset {i}", i, ["\\\"", "\\\\"]
                    )
                out.append(text[i + 1])
                i += 2
            elif ch == '"':
                return "".join(out), i + 1
            else:
                out.append(ch)
                i += 1
        raise PathSyntaxError(f"unterminated string at offset {pos}", pos, ['"'])
    m = _IDENT.match(text, pos)
    if not m:
        raise PathSyntaxError(
            f"expected an identifier or string at offset {pos}", pos, ["IDENT", "STRING"]
        )
    return m.group(), m.end()


def print_path(path: PathExpr) -> str:
    parts = []
    for step in path.steps:
        if step.kind == KEY:
            name = step.arg
            if _IDENT.fullmatch(name):
                parts.append(f"key({name})")
            else:
                quoted = name.replace("\\", "\\\\").replace('"', '\\"')
                parts.append(f'key("{quoted}")')
        elif step.kind == IDX:
            parts.append(f"idx({step.arg})")
        else:
            parts.append(step.kind)
    return ".".join(parts)


# Step optics over documents ---------------------------------------------------

def _kind(doc):
    if doc is None:
        return "null"
    if isinstance(doc, bool):
        return "boolean"
    if isinstance(doc, (int, float)):
        return "number"
    if isinstance(doc, str):
        return "string"
    if isinstance(doc, list):
        return "array"
    if isinstance(doc, dict):
        return "object"
    raise TypeError(f"not a document: {doc!r}")


def _type_error(doc, name, expected):
    """The one statement of a failed check: ``name`` met ``doc`` where it
    needs ``expected``.  Built only on failure, so checks stay inline."""
    return DocTypeError(f"{name} expects {expected}, got {_kind(doc)}")


def _as_pair(doc, step):
    if not isinstance(doc, list) or len(doc) != 2:
        raise _type_error(doc, step, "a 2-element array")
    return doc


def _slot(i, step):
    def put(b, d):
        pair = list(_as_pair(d, step))
        pair[i] = b
        return pair

    return Lens(get=lambda d: _as_pair(d, step)[i], put=put)


def _key(name):
    step = f"key({name})"

    def match(d):
        if not isinstance(d, dict):
            raise _type_error(d, step, "an object")
        return Right(d[name]) if name in d else Left(d)

    def put(b, d):
        if not isinstance(d, dict):
            raise _type_error(d, step, "an object")
        return {**d, name: b} if name in d else d

    return Optional(match=match, put=put)


def _idx(n):
    step = f"idx({n})"

    def match(d):
        if not isinstance(d, list):
            raise _type_error(d, step, "an array")
        return Right(d[n]) if n < len(d) else Left(d)

    def put(b, d):
        if not isinstance(d, list):
            raise _type_error(d, step, "an array")
        return d[:n] + [b] + d[n + 1:] if n < len(d) else d

    return Optional(match=match, put=put)


def _some():
    # options encode as null (absent) or a single-key {"some": ...} object
    def match(d):
        if d is None:
            return Left(None)
        if not isinstance(d, dict) or set(d) != {"some"}:
            raise _type_error(d, SOME, "null or a some-object")
        return Right(d["some"])

    return Prism(match=match, build=lambda b: {"some": b})


def _each():
    def over(h):
        def run(d):
            if not isinstance(d, list):
                raise _type_error(d, EACH, "an array")
            return [h(x) for x in d]

        return run

    return Setter(over=over)


# Step kind -> its record, from the step's argument.
_STEP_OPTICS = {
    FST: lambda _: _slot(0, FST),
    SND: lambda _: _slot(1, SND),
    KEY: _key,
    IDX: _idx,
    SOME: lambda _: _some(),
    EACH: lambda _: _each(),
}


def compile_path(path: PathExpr):
    """The path's optic and family.  The family is the join of the steps'
    families; each step is embedded into it once and the steps compose right
    to left, so each command costs time linear in the path length."""
    records = [_STEP_OPTICS[step.kind](step.arg) for step in path.steps]
    tag = reduce(family_join, (record.tag for record in records))
    optic = embed(records[-1], tag)
    for record in reversed(records[:-1]):
        optic = embed(record, tag).compose(optic)
    return optic, tag


# Commands ---------------------------------------------------------------------

# The family each command needs: a path supports the command when its
# family embeds into it, and the command runs that family's operation.
_REQUIRES = {
    "get": FamilyTag.LENS,
    "set": FamilyTag.SETTER,
    "map": FamilyTag.SETTER,
    "match": FamilyTag.OPTIONAL,
    "build": FamilyTag.PRISM,
}

# map function name -> (the exact types it accepts, their kind, the function)
_MAP_FNS = {
    "incr": ((int, float), "a number", lambda x: x + 1),
    "negate": ((int, float), "a number", operator.neg),
    "upper": ((str,), "a string", str.upper),
    "lower": ((str,), "a string", str.lower),
}


def _map_fn(name):
    types, expected, fn = _MAP_FNS[name]

    def h(x):
        if type(x) not in types:
            raise _type_error(x, name, expected)
        return fn(x)

    return h


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def _finite(text):
    number = float(text)
    if math.isinf(number):
        raise ValueError(f"number {text} is out of range")
    return number


def _loads(text):
    """Strict JSON: NaN, Infinity and numbers that overflow are errors."""
    return json.loads(text, parse_constant=_not_json, parse_float=_finite)


def render(doc) -> str:
    """Canonical serialization: sorted keys, no insignificant whitespace."""
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
        allow_nan=False,
    )


def run(command, path_text, value_text=None, doc=None, strict=False):
    """Execute one command; returns (exit_code, output_text)."""
    try:
        path = parse_path(path_text)
    except PathSyntaxError as exc:
        expected = ", ".join(exc.expected)
        return EXIT_PARSE, f"opticat: path error: {exc} (expected: {expected})"

    compiled, tag = compile_path(path)

    if command not in _REQUIRES:
        return EXIT_UNSUPPORTED, f"opticat: unknown command {command!r}"
    if not family_le(tag, _REQUIRES[command]):
        return (
            EXIT_UNSUPPORTED,
            f"opticat: command {command!r} is not supported by a "
            f"{tag.value} path",
        )

    value = None
    if command in ("set", "build"):
        if value_text is None:
            return EXIT_UNSUPPORTED, f"opticat: command {command!r} needs a value"
        try:
            value = _loads(value_text)
        except (ValueError, RecursionError) as exc:
            return EXIT_PARSE, f"opticat: value is not valid JSON: {exc}"
    if command == "map" and value_text not in _MAP_FNS:
        return EXIT_UNSUPPORTED, f"opticat: map needs one of {', '.join(_MAP_FNS)}"

    optic = embed(compiled, _REQUIRES[command])
    try:
        if strict and command in ("set", "map") and family_le(tag, FamilyTag.OPTIONAL):
            if isinstance(embed(compiled, FamilyTag.OPTIONAL).match(doc), Left):
                return EXIT_TYPE, "opticat: no focus at path (strict mode)"
        if command == "get":
            out = optic.get(doc)
        elif command == "match":
            e = optic.match(doc)
            hit = isinstance(e, Right)
            out = {"matched": hit, "value" if hit else "rest": e.value}
        elif command == "build":
            out = optic.build(value)
        else:
            h = _map_fn(value_text) if command == "map" else lambda _: value
            out = optic.map_optic(h)(doc)
        return EXIT_OK, render(out)
    except DocTypeError as exc:
        return EXIT_TYPE, f"opticat: type error: {exc}"
    except (RecursionError, ValueError) as exc:
        return EXIT_TYPE, f"opticat: cannot evaluate or render: {exc}"


# Entry point ------------------------------------------------------------------

def _read_doc(input_file):
    if input_file is not None:
        with open(input_file, "r", encoding="utf-8") as fh:
            return fh.read()
    text = sys.stdin.read()
    # A surrogateescape stdin (the C locale) turns bad bytes into surrogates.
    text.encode("utf-8")
    return text


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    if "--help" in argv or "-h" in argv or not argv:
        print(USAGE)
        print(__doc__.strip())
        return EXIT_OK
    if "--version" in argv:
        print(f"opticat {__version__}")
        return EXIT_OK

    strict = False
    input_file = None
    positional = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--strict":
            strict = True
        elif arg == "--input":
            if i + 1 >= len(argv):
                print("opticat: --input needs a file", file=sys.stderr)
                return EXIT_UNSUPPORTED
            input_file = argv[i + 1]
            i += 1
        else:
            positional.append(arg)
        i += 1

    if len(positional) < 2 or len(positional) > 3:
        print(USAGE, file=sys.stderr)
        return EXIT_UNSUPPORTED

    command = positional[0]
    path_text = positional[1]
    value_text = positional[2] if len(positional) == 3 else None

    doc = None
    if command != "build":
        try:
            doc = _loads(_read_doc(input_file))
        except (OSError, ValueError, RecursionError) as exc:
            print(f"opticat: cannot read document: {exc}", file=sys.stderr)
            return EXIT_PARSE

    code, output = run(command, path_text, value_text, doc, strict)
    try:
        print(output, file=sys.stdout if code == EXIT_OK else sys.stderr)
    except UnicodeEncodeError as exc:
        # a lone surrogate escape in the input ("\ud800") has no UTF-8 form
        print(f"opticat: input is not Unicode text: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return code


if __name__ == "__main__":
    sys.exit(main())
