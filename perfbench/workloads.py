"""Seeded workload generators.

Each generator writes its documents under a work directory and returns the
list of calls one run cycles through.  opticat sees only these files and
argv; the seed never reaches it.

* ``cli_small``: documents under about 2 KB, paths of 1-8 steps over all six
  step kinds, all five commands with and without ``--strict``, including
  calls that must exit 2, 3 or 4.  The CLI costs microseconds here; startup
  is the work.
* ``bulk_rows``: one document of 10**5 ``[id, null | {"some": {...}}]`` rows,
  passed with ``--input``.  Writes go through ``each``; reads touch one row.
  Load, traversal and render are the work.
* ``deep_path``: hit-only documents nested n deep with ``fst``/``snd``/
  ``idx``/``key`` paths of length n, n cycling through a log-spaced grid over
  100..800 (8x, under the recursion limit near 1000), three writes per read.
  Compile and traversal are the work.
* ``law_suite``: ``python -m opticat.laws`` verdicts, alternating with
  processes that only import ``opticat.laws``.  It takes no input, so the
  seed is unused.

``item2_probes`` makes the ROADMAP item-2 inputs apart from any workload: a
document nested 1000 or more deep, a path of 1000 or more steps, non-UTF-8
bytes, or NaN / Infinity / 1e999.  They fail until item 2 lands, so they run
as a fixed probe set outside the timed calls, and the runs report how many of
them fail.
"""

import json
import os
import random
import re
from dataclasses import dataclass

from reference import expected, render

WORKLOADS = ("cli_small", "bulk_rows", "deep_path", "law_suite")
LIGHT = "light"
HEAVY = "heavy"

CLI = "cli"
LAWS = "laws"
IMPORT_LAWS = "import_laws"


@dataclass
class Call:
    program: str          # CLI, LAWS or IMPORT_LAWS
    cls: str              # LIGHT or HEAVY
    args: tuple = ()      # argv after the program
    doc: str = None       # file fed on stdin, None for no input
    command: str = None   # what the reference needs to know
    path: str = None
    value: str = None
    strict: bool = False
    input_file: str = None
    want: object = None   # reference Outcome, filled by attach_expected


def cli_call(command, path, value=None, *, strict=False, doc=None, input_file=None):
    args = [command, path] + ([] if value is None else [value])
    if strict:
        args.append("--strict")
    if input_file is not None:
        args += ["--input", input_file]
    cls = LIGHT if command in ("get", "match") else HEAVY
    return Call(CLI, cls, tuple(args), doc, command, path, value, strict, input_file)


def doc_bytes(call):
    source = call.input_file or call.doc
    if call.command == "build" or source is None:
        return None
    with open(source, "rb") as fh:
        return fh.read()


def attach_expected(calls):
    docs = {}
    for call in calls:
        if call.program == CLI and call.want is None:
            call.want = expected(call.command, call.path, call.value,
                                 doc_bytes(call), call.strict, docs)


def fresh(path):
    """Open a new, empty file at path.  Unlinking first is much faster than
    truncating on file systems that discard freed blocks synchronously."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "w+b")


class _Files:
    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0
        os.makedirs(workdir, exist_ok=True)

    def write(self, data):
        if isinstance(data, str):
            data = data.encode("utf-8")
        name = os.path.join(self.workdir, f"doc{self.count:05d}.json")
        self.count += 1
        with fresh(name) as fh:
            fh.write(data)
        return name


def generate(workload, seed, workdir):
    rng = random.Random(f"{workload}:{seed}")
    files = _Files(workdir)
    return {
        "cli_small": _cli_small,
        "bulk_rows": _bulk_rows,
        "deep_path": _deep_path,
        "law_suite": _law_suite,
    }[workload](rng, files)


# cli_small ----------------------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KEYS = ("a", "b", "name", "v", "x_1", "k", "a b", 'q"t', "café", "back\\slash")
_SCALARS = (0, 1, 7, -3, 42, 2.5, -0.25, 1e-3, "x", "héllo", "日本",
            "MiXeD", True, False, None)
_STEP_KINDS = ("fst", "snd", "key", "idx", "some", "each")
_BAD_PATH_TEXT = ("fsx", "key(1a)", 'key("open', "idx(-1)", "idx()", "", ".fst",
                  "fst..snd", 'key("a\\x")', "each.", "some(")
_BAD_DOCS = ("[1,2", '{"a":}', "", "tru", "[1,]", "{'a':1}", "[1 2]")
_BAD_VALUES = ("{", "'x'", "tru", "[1,]", "")


def _key_text(name):
    if _IDENT.fullmatch(name):
        return f"key({name})"
    return 'key("' + name.replace("\\", "\\\\").replace('"', '\\"') + '")'


def _path_text(steps):
    parts = []
    for kind, arg in steps:
        if kind == "key":
            parts.append(_key_text(arg))
        elif kind == "idx":
            parts.append(f"idx({arg})")
        else:
            parts.append(kind)
    return ".".join(parts)


def _steps(rng, kinds, n):
    out = []
    for _ in range(n):
        kind = rng.choice(kinds)
        arg = rng.choice(_KEYS) if kind == "key" else rng.randint(0, 3) if kind == "idx" else None
        out.append((kind, arg))
    return out


def _filler(rng):
    r = rng.random()
    if r < 0.8:
        return rng.choice(_SCALARS)
    if r < 0.9:
        return [rng.choice(_SCALARS) for _ in range(rng.randint(0, 3))]
    return {rng.choice(_KEYS): rng.choice(_SCALARS)}


def _wrap(rng, step, child):
    kind, arg = step
    if kind == "fst":
        return [child, _filler(rng)]
    if kind == "snd":
        return [_filler(rng), child]
    if kind == "key":
        out = {k: _filler(rng) for k in rng.sample(_KEYS, rng.randint(0, 2)) if k != arg}
        out[arg] = child
        return out
    if kind == "idx":
        out = [_filler(rng) for _ in range(arg + 1 + rng.randint(0, 2))]
        out[arg] = child
        return out
    if kind == "some":
        return {"some": child}
    return [child] * rng.randint(1, 3)


def _broken(rng, step):
    """A stand-in for a subdocument that makes ``step`` miss or mismatch."""
    kind, arg = step
    if rng.random() < 0.5:
        return rng.choice(("oops", 5, True))
    if kind == "key":
        return {arg + "_": 1}
    if kind == "idx":
        return [0] * arg
    if kind == "some":
        return None
    return [1, 2, 3]


def _small_doc(rng, steps, leaf, variant):
    bad = rng.randrange(len(steps)) if variant in ("miss", "mismatch") else -1
    doc = leaf
    for i in range(len(steps) - 1, -1, -1):
        doc = _broken(rng, steps[i]) if i == bad else _wrap(rng, steps[i], doc)
    return doc


def _doc_text(rng, doc):
    if rng.random() < 0.5:
        return render(doc)
    return json.dumps(doc, indent=rng.choice((None, 1, 2)),
                      ensure_ascii=rng.random() < 0.5)


def _normal_call(rng, files, command):
    variant = rng.choices(
        ("hit", "miss", "mismatch", "badpath", "baddoc", "badvalue"),
        (55, 12, 10, 8, 7, 8),
    )[0]
    n = rng.randint(1, 8)
    if command == "get" and rng.random() < 0.75:
        steps = _steps(rng, ("fst", "snd"), n)
    elif command == "build" and rng.random() < 0.75:
        steps = _steps(rng, ("some",), rng.randint(1, 4))
    elif command == "match" and rng.random() < 0.85:
        steps = _steps(rng, _STEP_KINDS[:5], n)
    else:
        steps = _steps(rng, _STEP_KINDS, n)
    path = _path_text(steps)
    if variant == "badpath":
        cut = rng.randint(0, len(path))
        path = path[:cut] + rng.choice(_BAD_PATH_TEXT) + path[cut:]

    value = None
    leaf = _filler(rng)
    if command == "map":
        value = rng.choice(("incr", "negate", "upper", "lower"))
        numeric = value in ("incr", "negate")
        if rng.random() < 0.9:
            leaf = rng.choice((3, -8, 0.5, 1000)) if numeric else rng.choice(
                ("abc", "Été", "MiXeD", "straße"))
        if variant == "badvalue":
            value = rng.choice(("double", "INCR", "id"))
    elif command in ("set", "build"):
        value = render(_filler(rng)) if variant != "badvalue" else rng.choice(_BAD_VALUES)

    for _ in range(20):
        doc = _small_doc(rng, steps, leaf, variant)
        text = _doc_text(rng, doc)
        if len(text.encode("utf-8")) < 2000:
            break
        steps = [(k, a) if k != "each" else ("fst", None) for k, a in steps]
        if variant != "badpath":
            path = _path_text(steps)
    if variant == "baddoc":
        text = rng.choice(_BAD_DOCS)
    stdin = None if command == "build" else files.write(text)
    return cli_call(command, path, value, strict=rng.random() < 0.3, doc=stdin)


def _chain(rng, steps, leaf="1"):
    """Text of a document with ``leaf`` at the end of ``steps`` (each-free),
    built as a string so that any depth works."""
    head, tail = [], []
    for kind, arg in steps:
        if kind == "fst":
            head.append("[")
            tail.append(f",{rng.randint(0, 9)}]")
        elif kind == "snd":
            head.append(f"[{rng.randint(0, 9)},")
            tail.append("]")
        elif kind == "idx":
            head.append("[" + "0," * arg)
            tail.append(",0" * rng.randint(0, 2) + "]")
        elif kind == "key":
            head.append("{" + json.dumps(arg) + ":")
            tail.append(',"zz":0}' if arg != "zz" else "}")
        else:
            head.append('{"some":')
            tail.append("}")
    return "".join(head) + leaf + "".join(reversed(tail))


def _item2_call(rng, files, kind):
    if kind == "deep_doc":
        d = rng.randint(1100, 1600)
        text = _chain(rng, [("fst", None)] * d)
        command = rng.choice(("get", "match", "set"))
        path = rng.choice(("fst", "fst.fst", "fst.snd"))
        value = "0" if command == "set" else None
        return cli_call(command, path, value, doc=files.write(text))
    if kind == "long_miss":
        n = rng.randint(1000, 1500)
        command = rng.choice(("match", "set", "map"))
        if rng.random() < 0.5:
            path, text = ".".join(["key(a)"] * n), '{"a":{"b":1}}'
        else:
            path, text = ".".join(["fst"] * n), "[1,2]"
        value = {"set": "0", "map": "incr"}.get(command)
        return cli_call(command, path, value, doc=files.write(text))
    if kind == "long_hit":
        n = rng.randint(1000, 1300)
        steps = [(rng.choice(("fst", "snd")), None) for _ in range(n)]
        command = rng.choice(("get", "set", "map"))
        value = {"set": "0", "map": "incr"}.get(command)
        return cli_call(command, _path_text(steps), value,
                        doc=files.write(_chain(rng, steps)))
    if kind == "non_utf8":
        data = rng.choice((b'["caf\xe9",1]', b'{"a":"\xff\xfe","b":2}', b'[1,"\xc3"]'))
        command, path = rng.choice((("get", "snd"), ("match", "key(b)"), ("map", "fst")))
        value = "upper" if command == "map" else None
        return cli_call(command, path, value, doc=files.write(data))
    if kind == "nan_doc":
        text = rng.choice(("[NaN,1]", '{"a":Infinity,"b":2}', "[1e999,2]", "[-Infinity,[3,4]]"))
        command, path = rng.choice((("get", "snd"), ("match", "key(a)"), ("set", "fst")))
        value = "0" if command == "set" else None
        return cli_call(command, path, value, doc=files.write(text))
    # nan_value
    command = rng.choice(("set", "build"))
    value = rng.choice(("NaN", "Infinity", "-Infinity", "1e999", "[1,NaN]"))
    if command == "build":
        return cli_call("build", "some", value)
    return cli_call("set", "fst", value, doc=files.write("[1,2]"))


ITEM2_KINDS = ("deep_doc", "long_miss", "long_hit", "non_utf8", "nan_doc", "nan_value")
ITEM2_PER_KIND = 2
_BLOCK = ("get", "match", "set", "map", "build", "get", "match", "set", "map")


def item2_probes(seed, workdir):
    """The ROADMAP item-2 inputs, ITEM2_PER_KIND of each kind, from the seed."""
    rng = random.Random(f"item2:{seed}")
    files = _Files(workdir)
    return [_item2_call(rng, files, kind) for kind in ITEM2_KINDS for _ in range(ITEM2_PER_KIND)]


def _cli_small(rng, files, blocks=40):
    return [_normal_call(rng, files, command) for _ in range(blocks) for command in _BLOCK]


# bulk_rows ----------------------------------------------------------------------

BULK_ROWS = 100_000
_TAGS = ("red", "green", "blue", "gold")


def bulk_text(rng, m):
    """An [id, null | {"some": {...}}] document of m rows, and the ids of
    rows whose payload has a "v" key."""
    rows, hits = [], []
    for i in range(m):
        r = rng.random()
        if r < 0.15:
            rows.append([i, None])
        elif r < 0.2:
            rows.append([i, {"some": {"t": rng.choice(_TAGS), "k": f"r{i}"}}])
        else:
            rows.append([i, {"some": {"v": rng.randint(0, 10**6),
                                      "t": rng.choice(_TAGS), "k": f"r{i}"}}])
            hits.append(i)
    # Keys out of order, so that the output's sorting is checked.
    return json.dumps(rows, separators=(",", ":")), hits


def _bulk_rows(rng, files):
    text, hits = bulk_text(rng, BULK_ROWS)
    doc = files.write(text)
    # Three maps to one set: the two kinds differ by about a third in cost,
    # and an even mix would put the median between the two clusters.
    bump = cli_call("map", "each.snd.some.key(v)", "incr", input_file=doc)
    writes = [
        bump,
        cli_call("set", "each.fst", render(rng.choice((0, -1, "id", None))), input_file=doc),
        bump,
        bump,
    ]
    calls = []
    for i, k in enumerate(rng.sample(hits, 8)):
        calls.append(writes[i % len(writes)])
        calls.append(cli_call("match", f"idx({k}).snd.some.key(v)", input_file=doc))
    return calls


# deep_path ----------------------------------------------------------------------

DEEP_GRID = tuple(round(100 * 8 ** (i / 15)) for i in range(16))


def deep_steps(rng, n, kinds=("fst", "snd", "idx", "key")):
    out = []
    for _ in range(n):
        kind = rng.choice(kinds)
        if kind == "idx":
            out.append((kind, rng.randint(0, 2)))
        else:
            out.append((kind, rng.choice(("a", "b", "k")) if kind == "key" else None))
    return out


def _deep_path(rng, files):
    grid = list(DEEP_GRID)
    rng.shuffle(grid)
    calls = []
    for i, n in enumerate(grid):
        lens = deep_steps(rng, n, ("fst", "snd"))
        mixed = deep_steps(rng, n)
        if i % 2 == 0:
            calls.append(cli_call("get", _path_text(lens), doc=files.write(_chain(rng, lens))))
        else:
            calls.append(cli_call("match", _path_text(mixed), doc=files.write(_chain(rng, mixed))))
        # Three writes per read: reads are startup-bound, and with fewer of
        # them their tail stays clear of the machine's occasional stalls.
        for command in ("map", "set", "map"):
            mixed = deep_steps(rng, n)
            value = "incr" if command == "map" else str(rng.randint(0, 99))
            calls.append(cli_call(command, _path_text(mixed), value,
                                  doc=files.write(_chain(rng, mixed))))
    return calls


# law_suite ----------------------------------------------------------------------

def _law_suite(rng, files):
    # Two imports per verdict, so that the light tail has enough samples.
    return [Call(IMPORT_LAWS, LIGHT), Call(IMPORT_LAWS, LIGHT), Call(LAWS, HEAVY)]
