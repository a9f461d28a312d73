"""opticat: apply composed optics to JSON documents from the command line.

Usage:
    opticat <command> <path> [value] [--input FILE] [--strict]

Commands: get, set VALUE, map FN, match, build VALUE.  Paths are dotted step
sequences.  Each step kind is one row of a table: its family, its read and
its modify action.  A path's family is the join of its steps' families;
reads run the steps left to right, and writes compose their modify actions
right to left.  Documents, values and output are strict UTF-8 JSON.  Exit
codes: 0 success, 2 unsupported command for the path's family, 3 type
mismatch (or a miss under --strict, or a path or document too deep to
evaluate), 4 parse error (or a document that cannot be read, a closed stdin
included, or is too deep to load, or output that is not Unicode text or
cannot be written: a reader that closed the pipe, a full disk, a closed
stdout).
"""

import gc
import json
import math
import os
import re
import sys
from functools import reduce

from . import __version__
from .base import Left, Record, Right
from .families import FamilyTag, family_join, family_le

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


class Step(Record):
    __slots__ = ("kind", "arg")

    def __init__(self, kind, arg=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "arg", arg)


class PathExpr(Record):
    __slots__ = ("steps",)


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


# Step kinds over documents ----------------------------------------------------

def _kind(doc):
    """The JSON type name of a loaded document; a dict is the one left."""
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
    return "object"


def _fail(doc, name, expected):
    """The one statement of a failed check: ``name`` met ``doc`` where it
    needs ``expected``.  Called only on failure, so checks stay inline."""
    raise DocTypeError(f"{name} expects {expected}, got {_kind(doc)}")


_MISS = object()  # a view's result where a partial step has no focus

# Each step kind, stated once as (family, view, over).  ``view(arg, d)``
# checks d's type, then gives the focus, or _MISS.  ``over(arg, h)`` gives
# the function that checks d's type, then rebuilds d with ``h`` applied to
# the focus, and gives d itself on a miss.  These are the step's actions on
# the reading capabilities and on the function arrow.  Each check is an
# inline ``isinstance``/``len`` test, so a step costs one frame per element;
# only a failed check calls ``_fail``.  Options encode as null (absent) or a
# single-key {"some": ...} object.
_STEPS = {
    FST: (
        FamilyTag.LENS,
        lambda _, d: (
            d[0] if isinstance(d, list) and len(d) == 2
            else _fail(d, FST, "a 2-element array")
        ),
        lambda _, h: lambda d: (
            [h(d[0]), d[1]] if isinstance(d, list) and len(d) == 2
            else _fail(d, FST, "a 2-element array")
        ),
    ),
    SND: (
        FamilyTag.LENS,
        lambda _, d: (
            d[1] if isinstance(d, list) and len(d) == 2
            else _fail(d, SND, "a 2-element array")
        ),
        lambda _, h: lambda d: (
            [d[0], h(d[1])] if isinstance(d, list) and len(d) == 2
            else _fail(d, SND, "a 2-element array")
        ),
    ),
    KEY: (
        FamilyTag.OPTIONAL,
        lambda name, d: (
            d.get(name, _MISS) if isinstance(d, dict)
            else _fail(d, f"key({name})", "an object")
        ),
        lambda name, h: lambda d: (
            ({**d, name: h(d[name])} if name in d else d) if isinstance(d, dict)
            else _fail(d, f"key({name})", "an object")
        ),
    ),
    IDX: (
        FamilyTag.OPTIONAL,
        lambda n, d: (
            (d[n] if n < len(d) else _MISS) if isinstance(d, list)
            else _fail(d, f"idx({n})", "an array")
        ),
        lambda n, h: lambda d: (
            (d[:n] + [h(d[n])] + d[n + 1:] if n < len(d) else d)
            if isinstance(d, list) else _fail(d, f"idx({n})", "an array")
        ),
    ),
    SOME: (
        FamilyTag.PRISM,
        lambda _, d: (
            _MISS if d is None
            else d["some"] if isinstance(d, dict) and len(d) == 1 and "some" in d
            else _fail(d, SOME, "null or a some-object")
        ),
        lambda _, h: lambda d: (
            d if d is None
            else {"some": h(d["some"])}
            if isinstance(d, dict) and len(d) == 1 and "some" in d
            else _fail(d, SOME, "null or a some-object")
        ),
    ),
    EACH: (
        FamilyTag.SETTER,
        None,  # a setter has no read
        lambda _, h: lambda d: (
            [h(x) for x in d] if isinstance(d, list) else _fail(d, EACH, "an array")
        ),
    ),
}


class _PathOptic:
    """A compiled path: its family and its steps as (family, view, over, arg).

    Reads run the views left to right; writes compose the modify actions
    right to left, one frame per step.  Each command runs only on the
    families that support it: ``get`` on lenses, ``match`` up to optionals,
    ``build`` on prisms (``some`` is the one prism step).
    """

    __slots__ = ("tag", "_steps")

    def __init__(self, tag, steps):
        self.tag = tag
        self._steps = steps

    def get(self, doc):
        for _, view, _, arg in self._steps:
            doc = view(arg, doc)
        return doc

    def match(self, doc):
        """``Right(focus)``, or ``Left(doc)`` at the first miss."""
        focus = doc
        for _, view, _, arg in self._steps:
            focus = view(arg, focus)
            if focus is _MISS:
                return Left(doc)
        return Right(focus)

    def map_optic(self, h):
        for _, _, over, arg in reversed(self._steps):
            h = over(arg, h)
        return h

    def put(self, b, doc):
        return self.map_optic(lambda _: b)(doc)

    def build(self, b):
        for _ in self._steps:
            b = {"some": b}
        return b


def compile_path(path: PathExpr):
    """The path's optic and family, the join of its steps' families."""
    steps = tuple((*_STEPS[step.kind], step.arg) for step in path.steps)
    tag = reduce(family_join, (step[0] for step in steps))
    return _PathOptic(tag, steps), tag


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

# map function name -> the function.  Each checks its argument's exact type
# inline, so a mapped element costs one frame; only a mismatch calls _fail.
_MAP_FNS = {
    "incr": lambda x: x + 1 if type(x) in (int, float) else _fail(x, "incr", "a number"),
    "negate": lambda x: -x if type(x) in (int, float) else _fail(x, "negate", "a number"),
    "upper": lambda x: x.upper() if type(x) is str else _fail(x, "upper", "a string"),
    "lower": lambda x: x.lower() if type(x) is str else _fail(x, "lower", "a string"),
}


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
    """Canonical serialization: sorted keys, no insignificant whitespace.

    Every value rendered here holds no cycle: documents and values come from
    ``json.loads``, and a write only rebuilds containers along its path (a
    ``set`` through ``each`` shares its value between rows, which is not a
    cycle).  So the encoder skips its per-container cycle bookkeeping.  Its
    depth guard stays: a value too deep to render raises ``RecursionError``.
    """
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
        allow_nan=False, check_circular=False,
    )


def run(command, path_text, value_text=None, doc=None, strict=False, trees=None):
    """Execute one command; returns (exit_code, output_text).  A list given
    as ``trees`` receives the output tree, so the caller decides when it is
    freed."""
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

    if command in ("get", "match") and value_text is not None:
        return EXIT_UNSUPPORTED, f"opticat: command {command!r} takes no value"
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

    try:
        if strict and command in ("set", "map") and family_le(tag, FamilyTag.OPTIONAL):
            if isinstance(optic.match(doc), Left):
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
            h = _MAP_FNS[value_text] if command == "map" else lambda _: value
            out = optic.map_optic(h)(doc)
        if trees is not None:
            trees.append(out)
        text = render(out)
    except DocTypeError as exc:
        return EXIT_TYPE, f"opticat: type error: {exc}"
    except (RecursionError, ValueError) as exc:
        return EXIT_TYPE, f"opticat: cannot evaluate or render: {exc}"
    try:
        # A surrogateescape stdout (the C locale) would pass a lone surrogate
        # escape from the input ("\udce9") through as a raw byte.
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return EXIT_PARSE, f"opticat: input is not Unicode text: {exc}"
    return EXIT_OK, text


# Entry point ------------------------------------------------------------------

def _read_doc(input_file):
    if input_file is not None:
        with open(input_file, "r", encoding="utf-8") as fh:
            return fh.read()
    if sys.stdin is None:  # descriptor 0 was closed when the process started
        raise OSError("stdin is closed")
    text = sys.stdin.read()
    # A surrogateescape stdin (the C locale) turns bad bytes into surrogates.
    text.encode("utf-8")
    return text


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    Without an argument list, ``main`` is the process entry (the ``opticat``
    console script, ``python -m opticat.cli``) and does not return: after
    writing and flushing its output it ends the process with ``os._exit``
    while the input and output trees are still referenced.  Freeing a large
    document's trees one object at a time, and the interpreter's
    finalization after that, cost time on every call and give an exiting
    process nothing: its memory goes back to the system whole.  With an
    argument list, ``main`` returns the exit code and the trees are freed.
    """
    # One run over an acyclic JSON tree makes no reference cycles for the
    # collector to find, only a growing heap for it to walk.
    enabled = gc.isenabled()
    gc.disable()
    try:
        trees = []  # referenced up to os._exit, so never freed there
        code = _write(*_main(sys.argv[1:] if argv is None else argv, trees))
        if argv is None:
            os._exit(code)
        return code
    finally:
        if enabled:
            gc.enable()


def _main(argv, trees):
    """Parse one command line and run it: (exit code, the text to print).
    ``trees`` receives the input and output trees."""
    argv = list(argv)

    if "--help" in argv or "-h" in argv or not argv:
        return EXIT_OK, f"{USAGE}\n{__doc__.strip()}"
    if "--version" in argv:
        return EXIT_OK, f"opticat {__version__}"

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
                return EXIT_UNSUPPORTED, "opticat: --input needs a file"
            input_file = argv[i + 1]
            i += 1
        else:
            positional.append(arg)
        i += 1

    if len(positional) < 2 or len(positional) > 3:
        return EXIT_UNSUPPORTED, USAGE

    command = positional[0]
    path_text = positional[1]
    value_text = positional[2] if len(positional) == 3 else None

    doc = None
    if command != "build":
        try:
            doc = _loads(_read_doc(input_file))
        except (OSError, ValueError, RecursionError) as exc:
            return EXIT_PARSE, f"opticat: cannot read document: {exc}"
        trees.append(doc)

    return run(command, path_text, value_text, doc, strict, trees)


def _write(code, text):
    """Print ``text``: the output on stdout for exit 0, else the message on
    stderr.  Returns the exit code, EXIT_PARSE when stdout cannot take the
    output."""
    if code == EXIT_OK:
        try:
            if sys.stdout is None:  # descriptor 1 was closed at start-up
                raise OSError("stdout is closed")
            print(text)
            sys.stdout.flush()
            return code
        except UnicodeEncodeError as exc:
            # a stdout set to an encoding other than UTF-8 may not carry it
            code, text = EXIT_PARSE, f"opticat: input is not Unicode text: {exc}"
        except OSError as exc:
            # a reader that closed the pipe early, a full disk
            code, text = EXIT_PARSE, f"opticat: cannot write output: {exc}"
    # print(file=None) would fall back to stdout
    if sys.stderr is not None:
        try:
            print(text, file=sys.stderr)
            sys.stderr.flush()
        except OSError:
            pass  # no stream is left to report on; the exit code still tells
    return code


if __name__ == "__main__":
    sys.exit(main())
