"""opticat: apply composed optics to JSON documents from the command line.

Usage:
    opticat <command> <path> [value] [--input FILE] [--strict]

Commands: get, set VALUE, map FN, match, build VALUE.  Paths are dotted step
sequences; each step compiles to an optic and steps of different families
compose by promotion through the family lattice.  Exit codes: 0 success,
2 unsupported command for the path's family, 3 type mismatch (or a miss
under --strict), 4 parse error.
"""

import json
import re
import sys
from dataclasses import dataclass

from . import __version__
from .base import Left, Right, either
from .families import (
    FamilyTag,
    Lens,
    Optional,
    Prism,
    Setter,
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


class Miss(Exception):
    """Strict mode: a match-capable path had no focus."""


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


def _as_pair(doc, step):
    if not isinstance(doc, list) or len(doc) != 2:
        raise DocTypeError(f"{step} expects a 2-element array, got {_kind(doc)}")
    return doc


def _fst():
    return Lens(
        get=lambda d: _as_pair(d, FST)[0],
        put=lambda b, d: [b, _as_pair(d, FST)[1]],
    )


def _snd():
    return Lens(
        get=lambda d: _as_pair(d, SND)[1],
        put=lambda b, d: [_as_pair(d, SND)[0], b],
    )


def _key(name):
    def match(d):
        if not isinstance(d, dict):
            raise DocTypeError(f"key({name}) expects an object, got {_kind(d)}")
        return Right(d[name]) if name in d else Left(d)

    def put(b, d):
        if not isinstance(d, dict):
            raise DocTypeError(f"key({name}) expects an object, got {_kind(d)}")
        return {**d, name: b} if name in d else d

    return Optional(match=match, put=put)


def _idx(n):
    def match(d):
        if not isinstance(d, list):
            raise DocTypeError(f"idx({n}) expects an array, got {_kind(d)}")
        return Right(d[n]) if n < len(d) else Left(d)

    def put(b, d):
        if not isinstance(d, list):
            raise DocTypeError(f"idx({n}) expects an array, got {_kind(d)}")
        if n >= len(d):
            return d
        return d[:n] + [b] + d[n + 1:]

    return Optional(match=match, put=put)


def _some():
    # options encode as null (absent) or a single-key {"some": ...} object
    def match(d):
        if d is None:
            return Left(None)
        if isinstance(d, dict) and set(d) == {"some"}:
            return Right(d["some"])
        raise DocTypeError(f"some expects null or a some-object, got {_kind(d)}")

    return Prism(match=match, build=lambda b: {"some": b})


def _each():
    def over(h):
        def run(d):
            if not isinstance(d, list):
                raise DocTypeError(f"each expects an array, got {_kind(d)}")
            return [h(x) for x in d]

        return run

    return Setter(over=over)


STEP_TAGS = {
    FST: FamilyTag.LENS,
    SND: FamilyTag.LENS,
    KEY: FamilyTag.OPTIONAL,
    IDX: FamilyTag.OPTIONAL,
    SOME: FamilyTag.PRISM,
    EACH: FamilyTag.SETTER,
}


def _step_optic(step: Step):
    if step.kind == FST:
        return _fst()
    if step.kind == SND:
        return _snd()
    if step.kind == KEY:
        return _key(step.arg)
    if step.kind == IDX:
        return _idx(step.arg)
    if step.kind == SOME:
        return _some()
    if step.kind == EACH:
        return _each()
    raise KeyError(step.kind)


# Family promotion -------------------------------------------------------------

def _lens_to_optional(o):
    return Optional(match=lambda s: Right(o.get(s)), put=o.put)


def _prism_to_optional(o):
    return Optional(
        match=o.match,
        put=lambda b, s: either(lambda t: t, lambda _a: o.build(b), o.match(s)),
    )


def _to_setter(o):
    return Setter(over=lambda h: o.map_optic(h))


_PROMOTIONS = {
    (FamilyTag.LENS, FamilyTag.OPTIONAL): _lens_to_optional,
    (FamilyTag.PRISM, FamilyTag.OPTIONAL): _prism_to_optional,
    (FamilyTag.LENS, FamilyTag.SETTER): _to_setter,
    (FamilyTag.PRISM, FamilyTag.SETTER): _to_setter,
    (FamilyTag.OPTIONAL, FamilyTag.SETTER): _to_setter,
}


def promote(optic, from_tag: FamilyTag, to_tag: FamilyTag):
    if from_tag == to_tag:
        return optic
    return _PROMOTIONS[(from_tag, to_tag)](optic)


def compile_path(path: PathExpr):
    """Left-to-right composition with family promotion at each join."""
    optic = None
    tag = None
    for step in path.steps:
        step_optic = _step_optic(step)
        step_tag = STEP_TAGS[step.kind]
        if optic is None:
            optic, tag = step_optic, step_tag
            continue
        joined = family_join(tag, step_tag)
        optic = promote(optic, tag, joined).compose(
            promote(step_optic, step_tag, joined)
        )
        tag = joined
    return optic, tag


# Commands ---------------------------------------------------------------------

# The family each command needs: a path supports the command when its
# family embeds into it.
_REQUIRES = {
    "get": FamilyTag.LENS,
    "set": FamilyTag.SETTER,
    "map": FamilyTag.SETTER,
    "match": FamilyTag.OPTIONAL,
    "build": FamilyTag.PRISM,
}

_MAP_FNS = ("incr", "negate", "upper", "lower")


def _map_fn(name):
    def incr(x):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise DocTypeError(f"incr expects a number, got {_kind(x)}")
        return x + 1

    def negate(x):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise DocTypeError(f"negate expects a number, got {_kind(x)}")
        return -x

    def upper(x):
        if not isinstance(x, str):
            raise DocTypeError(f"upper expects a string, got {_kind(x)}")
        return x.upper()

    def lower(x):
        if not isinstance(x, str):
            raise DocTypeError(f"lower expects a string, got {_kind(x)}")
        return x.lower()

    return {"incr": incr, "negate": negate, "upper": upper, "lower": lower}[name]


def render(doc) -> str:
    """Canonical serialization: sorted keys, no insignificant whitespace."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _as_match(optic, tag):
    if tag == FamilyTag.LENS:
        return lambda s: Right(optic.get(s))
    return optic.match


def run(command, path_text, value_text=None, doc=None, strict=False):
    """Execute one command; returns (exit_code, output_text)."""
    try:
        path = parse_path(path_text)
    except PathSyntaxError as exc:
        expected = ", ".join(exc.expected)
        return EXIT_PARSE, f"opticat: path error: {exc} (expected: {expected})"

    optic, tag = compile_path(path)

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
            value = json.loads(value_text)
        except json.JSONDecodeError as exc:
            return EXIT_PARSE, f"opticat: value is not valid JSON: {exc}"
    if command == "map":
        if value_text not in _MAP_FNS:
            return (
                EXIT_UNSUPPORTED,
                f"opticat: map needs one of {', '.join(_MAP_FNS)}",
            )

    try:
        if command == "build":
            return EXIT_OK, render(optic.build(value))
        if strict and command in ("set", "map") and family_le(tag, _REQUIRES["match"]):
            if isinstance(_as_match(optic, tag)(doc), Left):
                raise Miss
        if command == "get":
            return EXIT_OK, render(optic.get(doc))
        if command == "set":
            return EXIT_OK, render(optic.map_optic(lambda _: value)(doc))
        if command == "map":
            return EXIT_OK, render(optic.map_optic(_map_fn(value_text))(doc))
        if command == "match":
            e = _as_match(optic, tag)(doc)
            if isinstance(e, Right):
                return EXIT_OK, render({"matched": True, "value": e.value})
            return EXIT_OK, render({"matched": False, "rest": e.value})
    except Miss:
        return EXIT_TYPE, "opticat: no focus at path (strict mode)"
    except DocTypeError as exc:
        return EXIT_TYPE, f"opticat: type error: {exc}"
    raise AssertionError(command)


# Entry point ------------------------------------------------------------------

def _read_doc(input_file):
    if input_file is not None:
        with open(input_file, "r", encoding="utf-8") as fh:
            return fh.read()
    return sys.stdin.read()


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
            doc = json.loads(_read_doc(input_file))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"opticat: cannot read document: {exc}", file=sys.stderr)
            return EXIT_PARSE

    code, output = run(command, path_text, value_text, doc, strict)
    if code == EXIT_OK:
        print(output)
    else:
        print(output, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
