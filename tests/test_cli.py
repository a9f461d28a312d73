"""Path parsing, compilation, command semantics, and the golden table."""

import ast
import contextlib
import copy
import gc
import io
import json
import os
import random
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import opticat.cli as cli
from opticat.base import Left, Right
from opticat.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TYPE,
    EXIT_UNSUPPORTED,
    PathExpr,
    PathSyntaxError,
    Step,
    compile_path,
    main,
    parse_path,
    print_path,
    render,
    run,
)
from opticat.encode import embed
from opticat.families import (
    FamilyTag,
    Lens,
    Optional,
    Prism,
    Setter,
    family_join,
    family_le,
)
from opticat.laws import check_lawful
from opticat.probes import all_functions


# Parsing -----------------------------------------------------------------------

def test_parse_simple_steps():
    assert parse_path("fst.fst.fst") == PathExpr(
        (Step("fst"), Step("fst"), Step("fst"))
    )


def test_parse_key_idx_some():
    assert parse_path("key(users).idx(0).some") == PathExpr(
        (Step("key", "users"), Step("idx", 0), Step("some"))
    )


def test_parse_quoted_key():
    assert parse_path('key("one two")') == PathExpr((Step("key", "one two"),))
    assert parse_path('key("a\\"b")') == PathExpr((Step("key", 'a"b'),))


def test_parse_rejects_empty_step():
    with pytest.raises(PathSyntaxError) as err:
        parse_path("fst..snd")
    assert err.value.offset == 4
    assert "fst" in err.value.expected


def test_parse_rejects_trailing_garbage():
    with pytest.raises(PathSyntaxError):
        parse_path("fst.")
    with pytest.raises(PathSyntaxError):
        parse_path("fst snd")
    with pytest.raises(PathSyntaxError):
        parse_path("idx(x)")
    with pytest.raises(PathSyntaxError):
        parse_path("key(")


def _random_path(rng):
    steps = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(["fst", "snd", "some", "each", "key", "idx"])
        if kind == "key":
            name = rng.choice(
                ["users", "a_b", "x1", 'we"ird', "spa ced", "back\\slash", ""]
            )
            steps.append(Step("key", name))
        elif kind == "idx":
            steps.append(Step("idx", rng.randint(0, 99)))
        else:
            steps.append(Step(kind))
    return PathExpr(tuple(steps))


def test_parse_print_round_trip_1000_paths():
    rng = random.Random(2024)
    for _ in range(1000):
        path = _random_path(rng)
        assert parse_path(print_path(path)) == path


@given(st.lists(st.sampled_from(["fst", "snd", "some", "each"]), min_size=1, max_size=8))
def test_parse_print_round_trip_word_steps(kinds):
    path = PathExpr(tuple(Step(k) for k in kinds))
    assert parse_path(print_path(path)) == path


# Compilation --------------------------------------------------------------------

STEP_TAG_TABLE = {
    "fst": FamilyTag.LENS,
    "snd": FamilyTag.LENS,
    "some": FamilyTag.PRISM,
    "each": FamilyTag.SETTER,
}


def test_single_step_tags():
    for text, tag in STEP_TAG_TABLE.items():
        assert compile_path(parse_path(text))[1] == tag
    assert compile_path(parse_path("key(a)"))[1] == FamilyTag.OPTIONAL
    assert compile_path(parse_path("idx(0)"))[1] == FamilyTag.OPTIONAL


def test_concatenation_tag_is_join():
    cases = ["fst.snd", "fst.some", "each.fst", "some.key(a)", "snd.idx(1).some"]
    for text in cases:
        path = parse_path(text)
        tag = compile_path(path)[1]
        expected = compile_path(PathExpr(path.steps[:1]))[1]
        for step in path.steps[1:]:
            expected = family_join(expected, compile_path(PathExpr((step,)))[1])
        assert tag == expected, text


def test_lens_prism_path_compiles_to_optional():
    assert compile_path(parse_path("fst.some"))[1] == FamilyTag.OPTIONAL


def test_each_anything_is_setter():
    assert compile_path(parse_path("each.fst"))[1] == FamilyTag.SETTER


def test_lifted_put_get_on_lens_paths():
    rng = random.Random(7)

    def gen_doc(depth):
        if depth == 0:
            return rng.randint(0, 9)
        return [gen_doc(depth - 1), gen_doc(depth - 1)]

    for text in ["fst", "snd", "fst.snd", "snd.snd", "fst.fst.snd"]:
        path = parse_path(text)
        optic, tag = compile_path(path)
        assert tag == FamilyTag.LENS
        for _ in range(20):
            doc = gen_doc(4)
            assert optic.put(optic.get(doc), doc) == doc


def _nested_pairs(depth):
    leaf = st.integers(0, 9) | st.text(max_size=3) | st.booleans()
    strategy = leaf
    for _ in range(depth):
        strategy = st.lists(strategy, min_size=2, max_size=2)
    return strategy


@given(
    st.lists(st.sampled_from(["fst", "snd"]), min_size=1, max_size=3),
    st.data(),
)
def test_lifted_put_get_property(kinds, data):
    doc = data.draw(_nested_pairs(len(kinds)))
    optic, tag = compile_path(PathExpr(tuple(Step(k) for k in kinds)))
    assert tag == FamilyTag.LENS
    assert optic.put(optic.get(doc), doc) == doc


def test_map_incr_twice_equals_plus_two():
    optic, _ = compile_path(parse_path("each"))
    rng = random.Random(8)
    for _ in range(20):
        doc = [rng.randint(-5, 5) for _ in range(rng.randint(0, 6))]
        twice = optic.map_optic(lambda x: x + 1)(optic.map_optic(lambda x: x + 1)(doc))
        assert twice == optic.map_optic(lambda x: x + 2)(doc)


# Command semantics: the golden table ----------------------------------------------

GOLDEN = [
    # (command, path, value, document, expected_exit, expected_stdout)
    ("get", "fst", None, [4, "hello"], 0, "4"),
    ("set", "fst", "12", [4, "hello"], 0, '[12,"hello"]'),
    ("get", "fst.fst.fst", None, [[[1, 2], "hi"], 4], 0, "1"),
    ("set", "fst.fst.fst", "42", [[[1, 2], "hi"], 4], 0, '[[[42,2],"hi"],4]'),
    ("match", "some", None, {"some": 42}, 0, '{"matched":true,"value":42}'),
    ("match", "some", None, None, 0, '{"matched":false,"rest":null}'),
    ("match", "some.some", None, {"some": None}, 0, '{"matched":false,"rest":{"some":null}}'),
    ("match", "some.some", None, {"some": {"some": 42}}, 0, '{"matched":true,"value":42}'),
    ("build", "some.some", "42", None, 0, '{"some":{"some":42}}'),
    ("match", "snd.some", None, [1, {"some": 5}], 0, '{"matched":true,"value":5}'),
    ("match", "snd.some", None, [1, None], 0, '{"matched":false,"rest":[1,null]}'),
    ("set", "snd.some", "9", [1, {"some": 5}], 0, '[1,{"some":9}]'),
    ("set", "snd.some", "9", [1, None], 0, "[1,null]"),
    ("map", "each", "incr", [1, 2, 3], 0, "[2,3,4]"),
    ("map", "each.fst", "incr", [[1, "a"], [2, "b"]], 0, '[[2,"a"],[3,"b"]]'),
    ("map", "snd", "upper", [1, "abc"], 0, '[1,"ABC"]'),
    ("map", "fst", "negate", [4, "x"], 0, '[-4,"x"]'),
    ("match", "key(a)", None, {"a": 1, "b": 2}, 0, '{"matched":true,"value":1}'),
    ("set", "key(a)", "9", {"a": 1}, 0, '{"a":9}'),
    ("set", "key(a)", "9", {"b": 1}, 0, '{"b":1}'),
    ("set", "idx(1)", '"x"', [1, 2, 3], 0, '[1,"x",3]'),
    ("set", "idx(9)", '"x"', [1, 2], 0, "[1,2]"),
    ("match", "idx(0)", None, [], 0, '{"matched":false,"rest":[]}'),
    ("match", "fst", None, [1, 2], 0, '{"matched":true,"value":1}'),
    ("get", "snd", None, [0, {"b": 1, "a": 2}], 0, '{"a":2,"b":1}'),
    ("map", "some.fst", "incr", {"some": [1, 2]}, 0, '{"some":[2,2]}'),
    ("map", "some.fst", "incr", None, 0, "null"),
    ("get", "fst..snd", None, [1, 2], 4, None),
    ("get", "each", None, [1, 2], 2, None),
    ("get", "key(a)", None, {"a": 1}, 2, None),
    ("build", "fst", "1", None, 2, None),
    ("get", "fst", None, {"a": 1}, 3, None),
    ("map", "fst", "incr", ["x", 1], 3, None),
    ("match", "some", None, 5, 3, None),
    ("set", "fst", "not json", [1, 2], 4, None),
    ("set", "fst", "NaN", [1, 2], 4, None),
    ("set", "fst", "Infinity", [1, 2], 4, None),
    ("set", "fst", "[1,-Infinity]", [1, 2], 4, None),
    ("build", "some", "1e999", None, 4, None),
    ("build", "some", "-1e999", None, 4, None),
    ("set", "fst", "1.5e308", [1, 2], 0, "[1.5e+308,2]"),
    # one digit more than int-to-text conversion allows
    ("map", "fst", "incr", [10**4300 - 1, 0], 3, None),
    # lone low surrogates, which a surrogateescape stdout would write raw
    ("get", "fst", None, ["\udc80", 1], 4, None),
    ("match", "snd", None, [1, {"a": "\udcff"}], 4, None),
]


@pytest.mark.parametrize(
    "command,path,value,doc,exit_code,stdout",
    GOLDEN,
    ids=[f"{c[0]}-{c[1]}-{i}" for i, c in enumerate(GOLDEN)],
)
def test_golden(command, path, value, doc, exit_code, stdout):
    code, out = run(command, path, value, doc)
    assert code == exit_code, out
    if stdout is not None:
        assert out == stdout


# One mismatch per step kind, read and write, and one per map function: the
# whole message, byte for byte.
TYPE_ERRORS = [
    ("get", "fst", None, {}, 3,
     "opticat: type error: fst expects a 2-element array, got object"),
    ("set", "fst", "0", [1, 2, 3], 3,
     "opticat: type error: fst expects a 2-element array, got array"),
    ("get", "snd", None, "x", 3,
     "opticat: type error: snd expects a 2-element array, got string"),
    ("set", "snd", "0", [1], 3,
     "opticat: type error: snd expects a 2-element array, got array"),
    ("match", "key(a)", None, [1], 3,
     "opticat: type error: key(a) expects an object, got array"),
    ("set", 'key("a b")', "0", 1, 3,
     "opticat: type error: key(a b) expects an object, got number"),
    ("match", "idx(0)", None, {}, 3,
     "opticat: type error: idx(0) expects an array, got object"),
    ("set", "idx(1)", "0", None, 3,
     "opticat: type error: idx(1) expects an array, got null"),
    ("match", "some", None, 1, 3,
     "opticat: type error: some expects null or a some-object, got number"),
    ("match", "some", None, {"some": 1, "x": 2}, 3,
     "opticat: type error: some expects null or a some-object, got object"),
    ("set", "some", "0", [1], 3,
     "opticat: type error: some expects null or a some-object, got array"),
    ("map", "some", "incr", {"none": 1}, 3,
     "opticat: type error: some expects null or a some-object, got object"),
    # each has no read
    ("get", "each", None, [1], 2,
     "opticat: command 'get' is not supported by a SETTER path"),
    ("map", "each", "incr", {}, 3,
     "opticat: type error: each expects an array, got object"),
    ("set", "each.fst", "0", [[1, 2], True], 3,
     "opticat: type error: fst expects a 2-element array, got boolean"),
    ("map", "snd.some.key(v)", "incr", [0, {"some": {"v": "x"}}], 3,
     "opticat: type error: incr expects a number, got string"),
    ("map", "fst", "negate", [True, 0], 3,
     "opticat: type error: negate expects a number, got boolean"),
    ("map", "fst", "upper", [1, 0], 3,
     "opticat: type error: upper expects a string, got number"),
    ("map", "fst", "lower", [None, 0], 3,
     "opticat: type error: lower expects a string, got null"),
]


@pytest.mark.parametrize(
    "command,path,value,doc,exit_code,message",
    TYPE_ERRORS,
    ids=[f"{c[0]}-{c[1]}-{i}" for i, c in enumerate(TYPE_ERRORS)],
)
def test_type_error_messages(command, path, value, doc, exit_code, message):
    assert run(command, path, value, doc) == (exit_code, message)


def test_strict_turns_misses_into_exit_3():
    assert run("set", "key(a)", "9", {"b": 1}, strict=True)[0] == EXIT_TYPE
    assert run("map", "snd.some", "incr", [1, None], strict=True)[0] == EXIT_TYPE
    assert run("set", "key(a)", "9", {"a": 1}, strict=True)[0] == EXIT_OK


# Entry point -----------------------------------------------------------------------

def test_main_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('[4,"hello"]'))
    assert main(["get", "fst"]) == 0
    assert capsys.readouterr().out == "4\n"


def test_main_reads_input_file(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text('[4,"hello"]')
    assert main(["set", "fst", "12", "--input", str(doc)]) == 0
    assert capsys.readouterr().out == '[12,"hello"]\n'


def test_main_strict_flag(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text('{"b":1}')
    assert main(["set", "key(a)", "9", "--input", str(doc), "--strict"]) == EXIT_TYPE


def test_main_build_needs_no_input(capsys):
    assert main(["build", "some", "7"]) == 0
    assert capsys.readouterr().out == '{"some":7}\n'


def test_main_version(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("opticat ")


def test_version_matches_pyproject():
    import opticat

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fp:
        assert opticat.__version__ == tomllib.load(fp)["project"]["version"]


def _modules_added_by_import(module):
    """The modules that importing ``module`` adds to ``sys.modules`` in a
    fresh interpreter running the same source tree as this one.  Modules
    that the site hooks preload are already there, so they do not count."""
    import opticat

    src = str(Path(opticat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import json, sys; before = set(sys.modules); "
        f"import {module}; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    return set(json.loads(out))


def test_importing_the_cli_loads_only_base_and_families():
    added = _modules_added_by_import("opticat.cli")
    assert {m for m in added if m.split(".")[0] == "opticat"} == {
        "opticat", "opticat.base", "opticat.cli", "opticat.families",
    }
    assert not added & {"dataclasses", "inspect", "ast", "dis", "typing"}


def test_importing_the_laws_loads_no_dataclasses():
    added = _modules_added_by_import("opticat.laws")
    assert "opticat.laws" in added
    assert not added & {"dataclasses", "inspect"}


def test_no_module_imports_a_name_it_never_uses():
    # perfbench/tracing.py patches laws.maps_agree by name, so laws keeps it.
    import opticat

    unused = set()
    for path in Path(opticat.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.add(f"{path.stem}.{name}")
    assert unused - {"laws.maps_agree"} == set()


def test_no_module_imports_inside_a_function():
    # A module's dependencies are its header: no name, embed included, comes
    # back into a module as a deferred import.
    import opticat

    deferred = []
    for path in Path(opticat.__file__).parent.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deferred += [
                    f"{path.stem}.{func.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert deferred == []


def _global_accessors(tree):
    """The module-level functions of a module that take no parameters and
    only return one of the module's globals (after an optional docstring)."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        if a.posonlyargs or a.args or a.kwonlyargs or a.vararg or a.kwarg:
            continue
        body = node.body
        if len(body) == 2 and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant
        ):
            body = body[1:]
        if (
            len(body) == 1
            and isinstance(body[0], ast.Return)
            and isinstance(body[0].value, ast.Name)
            and body[0].value.id in bound
        ):
            found.append(node.name)
    return found


def test_no_function_only_returns_a_global():
    # A constant is named as itself, not through a function that hands back
    # a module global.
    import opticat

    accessors = {
        f"{path.stem}.{name}"
        for path in Path(opticat.__file__).parent.glob("*.py")
        for name in _global_accessors(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert accessors == set()
    planted = ast.parse('X = 1\ndef x():\n    """doc"""\n    return X\ndef y(a):\n    return X\n')
    assert _global_accessors(planted) == ["x"]


def _defaulted_parameters(func):
    """A function's parameters that have defaults, each with its position
    (None for a keyword-only one)."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    params = {arg.arg: i for i, arg in enumerate(positional) if i >= first}
    params.update(
        (arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default
    )
    return params


def test_every_default_is_overridden_by_some_call():
    # A default that no call overrides is a parameter nobody needs.  This
    # covers each module-level function of the package that some call in the
    # package or its tests names directly.  A function also used as a value
    # (kept in a table, passed along or patched) may be called with anything,
    # so it is left out.
    import opticat

    src = Path(opticat.__file__).parent
    paths = [*src.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    stems = {path.stem for path in paths if path.parent == src}
    defaults = {
        (path.stem, node.name): _defaulted_parameters(node)
        for path, tree in trees.items()
        if path.parent == src
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    passed = {key: set() for key in defaults}
    called, as_value = set(), set()
    for path, tree in trees.items():
        # the names in this file that stand for a function, or for a module
        functions = {fn: (mod, fn) for mod, fn in defaults if path == src / f"{mod}.py"}
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                mod = (node.module or "").rpartition(".")[2]
                for alias in node.names:
                    if (mod, alias.name) in defaults:
                        functions[alias.asname or alias.name] = (mod, alias.name)
                    elif alias.name in stems:
                        modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname and alias.name.startswith("opticat."):
                        modules[alias.asname] = alias.name.rpartition(".")[2]

        def refers_to(expr):
            if isinstance(expr, ast.Name):
                return functions.get(expr.id)
            if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
                key = (modules.get(expr.value.id), expr.attr)
                return key if key in defaults else None
            return None

        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (key := refers_to(node.func)):
                callees.add(node.func)
                called.add(key)
                spread = any(isinstance(arg, ast.Starred) for arg in node.args) or any(
                    kw.arg is None for kw in node.keywords
                )
                passed[key].update(
                    param for param, i in defaults[key].items()
                    if spread or (i is not None and i < len(node.args))
                )
                passed[key].update(kw.arg for kw in node.keywords)
        as_value.update(
            refers_to(node)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and node not in callees
        )
    never_passed = [
        f"{mod}.{fn}.{param}"
        for (mod, fn) in sorted(called - as_value)
        for param in defaults[mod, fn]
        if param not in passed[mod, fn]
    ]
    assert never_passed == []


def test_main_help(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_main_usage_error(capsys):
    assert main(["get"]) == EXIT_UNSUPPORTED


@pytest.mark.parametrize(
    "command, path, doc", [("get", "fst", "[1,2]"), ("match", "key(a)", '{"a":1}')]
)
def test_a_value_given_to_get_or_match_exits_2(command, path, doc, capsys, monkeypatch):
    # A mistyped flag such as --stirct is a third positional argument; it
    # must not be dropped silently.
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert main([command, path, "--stirct"]) == EXIT_UNSUPPORTED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"opticat: command {command!r} takes no value\n"


def test_main_bad_document(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
    assert main(["get", "fst"]) == EXIT_PARSE


def test_main_error_goes_to_stderr(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("[1,2]"))
    assert main(["get", "fst..snd"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "offset 4" in captured.err


def _main_with_stdin(argv, data):
    """main() on bytes fed through a strict UTF-8 stdin: (code, out, err).
    stdout is a surrogateescape one, as in the C locale, and ``out`` is its
    bytes decoded as strict UTF-8."""
    raw, err = io.BytesIO(), io.StringIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape")
    old = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old
    out.flush()
    return code, raw.getvalue().decode("utf-8"), err.getvalue()


def _one_line_error(err):
    return err.endswith("\n") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "data",
    [b"[NaN,1]", b'{"a":Infinity,"b":2}', b"[-Infinity,[3,4]]", b"[1e999,2]",
     b"[-1e999,2]", b'["caf\xe9",1]', b"[1," + b"[" * 5000 + b"]" * 5000 + b"]",
     b'["\\udce9",1]'],
    ids=["nan", "infinity", "minus-infinity", "overflow", "minus-overflow",
         "not-utf8", "too-deep", "lone-low-surrogate"],
)
def test_main_rejects_documents_that_are_not_strict_json(data):
    code, out, err = _main_with_stdin(["get", "fst"], data)
    assert code == EXIT_PARSE
    assert out == ""
    assert _one_line_error(err), err


def test_main_rejects_bad_bytes_from_a_surrogateescape_stdin(monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b'["caf\xe9",1]'), encoding="utf-8",
                             errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["get", "snd"]) == EXIT_PARSE


def _deep_pairs(n, leaf=1):
    doc = leaf
    for _ in range(n):
        doc = [doc, 2]
    return doc


def test_too_deep_to_evaluate_or_render_exits_3():
    n = sys.getrecursionlimit() + 200
    path = ".".join(["fst"] * n)
    # A read runs its steps in a loop; a write nests one frame per step.
    assert run("get", path, None, _deep_pairs(n)) == (EXIT_OK, "1")
    code, out = run("set", path, "0", _deep_pairs(n))
    assert code == EXIT_TYPE and "\n" not in out
    code, out = run("get", "snd", None, [0, _deep_pairs(n)])
    assert code == EXIT_TYPE and "\n" not in out


def test_long_path_put_visits_each_step_a_bounded_number_of_times(monkeypatch):
    # Composed right to left, a put runs each step's modify action once; a
    # left fold re-ran the whole prefix at every step (n^2/2 reads).
    n = 800
    calls = []
    family, view, over = cli._STEPS["fst"]

    def counted_view(arg, d):
        calls.append("view")
        return view(arg, d)

    def counted_over(arg, h):
        action = over(arg, h)

        def counted(d):
            calls.append("over")
            return action(d)

        return counted

    monkeypatch.setitem(cli._STEPS, "fst", (family, counted_view, counted_over))
    optic, _ = compile_path(PathExpr((Step("fst"),) * n))
    # The counting wrapper is a second frame per step.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2 * n)
    try:
        assert optic.put(7, _deep_pairs(n)) == _deep_pairs(n, leaf=7)
    finally:
        sys.setrecursionlimit(limit)
    assert 0 < len(calls) <= 2 * n


def test_a_bulk_map_calls_the_map_function_once_per_hit():
    # Rows: hits, a null option, a some-object without the key, and a float.
    rows = [[0, {"some": {"v": i}}] for i in range(5)]
    rows += [[1, None], [2, {"some": {"w": 0}}], [3, {"some": {"v": 0.5}}]]
    hits = 6
    key_over = cli._STEPS[cli.KEY][2]("v", None).__code__
    below_key = 0

    def profile(frame, event, arg):
        # a Python call made by the key step's modify action, or below it
        nonlocal below_key
        if event == "call":
            caller = frame.f_back
            while caller is not None and caller.f_code is not key_over:
                caller = caller.f_back
            below_key += caller is not None

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run("map", "each.snd.some.key(v)", "incr", rows)
    finally:
        sys.setprofile(previous)
    assert result == (
        EXIT_OK,
        '[[0,{"some":{"v":1}}],[0,{"some":{"v":2}}],[0,{"some":{"v":3}}],'
        '[0,{"some":{"v":4}}],[0,{"some":{"v":5}}],[1,null],'
        '[2,{"some":{"w":0}}],[3,{"some":{"v":1.5}}]]',
    )
    assert below_key == hits


_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=3)
    | st.sampled_from(["\udc80", "\udcff"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "b", "some"]), inner, max_size=2),
    max_leaves=8,
)
_STEPS = st.one_of(
    st.sampled_from([Step("fst"), Step("snd"), Step("some"), Step("each")]),
    st.builds(Step, st.just("key"), st.sampled_from(["a", "b", "some"])),
    st.builds(Step, st.just("idx"), st.integers(0, 2)),
)


def _reference_render(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCS)
def test_render_matches_the_cycle_checked_encoder(doc):
    assert render(doc) == _reference_render(doc)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    doc=_DOCS,
    path=st.lists(_STEPS, min_size=1, max_size=4).map(lambda steps: PathExpr(tuple(steps))),
    write=st.sampled_from([("set", "0"), ("set", "[1]"), ("set", '{"a":[0]}'),
                           ("map", "incr"), ("map", "upper")]),
)
def test_writes_render_canonically_and_leave_their_input_alone(doc, path, write):
    command, value = write
    before = copy.deepcopy(doc)
    # a set shares one value between every focus, as run's set does
    shared = None if command == "map" else json.loads(value)
    h = cli._MAP_FNS[value] if command == "map" else lambda _: shared
    try:
        out = compile_path(path)[0].map_optic(h)(doc)
    except cli.DocTypeError:
        out = None
    else:
        assert render(out) == _reference_render(out)
    assert doc == before
    code, text = run(command, print_path(path), value, doc)
    assert doc == before
    if out is not None and code == EXIT_OK:
        assert text == _reference_render(out)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.binary(max_size=40) | _DOCS.map(lambda d: json.dumps(d).encode()),
    command=st.sampled_from(["get", "set", "map", "match", "build", "bogus"]),
    path=st.lists(_STEPS, min_size=1, max_size=5).map(
        lambda steps: print_path(PathExpr(tuple(steps)))
    ) | st.text(max_size=8).filter(lambda text: not text.startswith("-")),
    value=st.none() | st.sampled_from(
        ["incr", "upper", "0", '"x"', "NaN", "1e999", "[1,2]", "{"]
    ),
    strict=st.booleans(),
)
def test_main_exits_with_a_documented_code_and_no_traceback(
    data, command, path, value, strict
):
    argv = [command, path] + ([] if value is None else [value])
    argv += ["--strict"] if strict else []
    code, out, err = _main_with_stdin(argv, data)
    assert code in (EXIT_OK, EXIT_UNSUPPORTED, EXIT_TYPE, EXIT_PARSE)
    if code == EXIT_OK:
        assert err == "" and out == render(json.loads(out)) + "\n"
    else:
        assert out == "" and _one_line_error(err), err


@pytest.mark.parametrize(
    "path,message",
    [("key(a", "expected ')' at offset 5 (expected: ))"),
     ("idx(3", "expected ')' at offset 5 (expected: ))"),
     ("key(1)", "expected an identifier or string at offset 4 (expected: IDENT, STRING)"),
     ('key("ab', 'unterminated string at offset 4 (expected: ")')],
)
def test_each_unfinished_step_argument_exits_4_with_its_message(path, message):
    assert _main_with_stdin(["get", path], b'{"a":1}') == (
        EXIT_PARSE, "", f"opticat: path error: {message}\n"
    )


@pytest.mark.parametrize(
    "argv,code,message",
    [(["get", 'key("a\\x")'], EXIT_PARSE,
      'opticat: path error: bad escape at offset 6 (expected: \\", \\\\)'),
     (["get", "fst", "--input"], EXIT_UNSUPPORTED, "opticat: --input needs a file")],
    ids=["bad-escape", "trailing-input"],
)
def test_a_bad_escape_and_a_trailing_input_flag_exit_with_one_line(argv, code, message):
    assert _main_with_stdin(argv, b'{"a":1}') == (code, "", message + "\n")


def test_main_rejects_a_lone_surrogate_it_cannot_print(monkeypatch):
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    monkeypatch.setattr("sys.stdin", io.StringIO('["\\ud800",1]'))
    monkeypatch.setattr("sys.stdout", stdout)
    monkeypatch.setattr("sys.stderr", err)
    assert main(["get", "fst"]) == EXIT_PARSE
    assert _one_line_error(err.getvalue())
    monkeypatch.setattr("sys.stdin", io.StringIO('["\\ud800",1]'))
    assert main(["get", "snd"]) == EXIT_OK


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "argv,data,code",
    [(["get", "fst"], b"[1,2]", EXIT_OK), (["get", "each"], b"[1,2]", EXIT_UNSUPPORTED),
     (["get", "fst"], b"{}", EXIT_TYPE), (["get", "fst"], b"[1,", EXIT_PARSE)],
    ids=["exit-0", "exit-2", "exit-3", "exit-4"],
)
def test_main_restores_the_cycle_collector(argv, data, code, enabled):
    before = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert _main_with_stdin(argv, data)[0] == code
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if before else gc.disable)()


def test_main_runs_without_the_cycle_collector(monkeypatch):
    seen = []
    real_run = cli.run

    def run_spy(*args):
        seen.append(gc.isenabled())
        return real_run(*args)

    monkeypatch.setattr(cli, "run", run_spy)
    assert _main_with_stdin(["get", "fst"], b"[1,2]")[0] == EXIT_OK
    assert seen == [False]


@pytest.mark.parametrize(
    "command,value", [("get", None), ("match", None), ("set", "0"), ("map", "incr")]
)
def test_a_5000_step_path_on_a_shallow_document_exits_3(command, value):
    argv = [command, ".".join(["fst"] * 5000)] + ([] if value is None else [value])
    code, out, err = _main_with_stdin(argv, b"[[1,2],3]")
    assert code == EXIT_TYPE and out == "" and _one_line_error(err), err


# The process entry: main() without arguments, as the console script calls it -------

_CONSOLE_SCRIPT = "import sys; from opticat.cli import main; sys.exit(main())"
_ROWS = json.dumps(
    [[i, {"some": {"v": i, "w": "x" * 10}} if i % 5 else None] for i in range(10_000)]
).encode()


def _console_script(argv, redirect=""):
    """The argv of a shell that runs the console script on ``argv`` with the
    shell redirection ``redirect`` (such as ``>&-``), under an environment
    free of PYTHON* settings (PYTHONUNBUFFERED would hide a failing flush)."""
    import opticat

    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(opticat.__file__).resolve().parents[1])
    env["PYTHONIOENCODING"] = "utf-8"
    argv = ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-c",
            _CONSOLE_SCRIPT, *argv]
    return argv, env


def _run_console_script(argv, data=b"", redirect=""):
    argv, env = _console_script(argv, redirect)
    proc = subprocess.run(argv, input=data, capture_output=True, env=env, timeout=60)
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


@pytest.mark.parametrize(
    "argv,data,code",
    [(["--help"], b"", EXIT_OK), (["get", "fst"], b'[4,"hello"]', EXIT_OK),
     (["get", "each"], b"[1,2]", EXIT_UNSUPPORTED), (["get", "fst"], b"{}", EXIT_TYPE),
     (["get", "fst..snd"], b"[1,2]", EXIT_PARSE), (["get", "fst"], b"[1,", EXIT_PARSE),
     (["map", "each.snd.some.key(v)", "incr"], _ROWS, EXIT_OK)],
    ids=["help", "exit-0", "exit-2", "exit-3", "exit-4-path", "exit-4-document",
         "map-10k-rows"],
)
def test_the_console_script_prints_and_exits_as_main_returns(argv, data, code):
    in_process = _main_with_stdin(argv, data)
    assert in_process[0] == code
    assert _run_console_script(argv, data) == in_process


@pytest.mark.parametrize(
    "argv,redirect,message",
    [(["get", "fst"], ">&-", "opticat: cannot write output: stdout is closed"),
     (["--help"], ">&-", "opticat: cannot write output: stdout is closed"),
     (["get", "fst"], ">/dev/full",
      "opticat: cannot write output: [Errno 28] No space left on device"),
     (["get", "fst"], "<&-", "opticat: cannot read document: stdin is closed"),
     (["get", "fst..snd"], "2>&-", None)],
    ids=["closed-stdout", "help-closed-stdout", "full-disk", "closed-stdin",
         "closed-stderr"],
)
def test_an_unusable_standard_stream_exits_4(argv, redirect, message):
    if "/dev/full" in redirect and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    code, out, err = _run_console_script(argv, b"[1,2]", redirect)
    assert (code, out, err) == (EXIT_PARSE, "", "" if message is None else message + "\n")


def test_a_reader_that_closes_the_pipe_early_gets_one_line_and_exit_4(tmp_path):
    # The output (about 450 KB) is larger than a pipe holds, so the writer
    # meets the closed pipe whatever the timing.
    doc = tmp_path / "rows.json"
    doc.write_bytes(_ROWS)
    argv, env = _console_script(["map", "each.snd.some.key(v)", "incr", "--input", str(doc)])
    with subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(20) == b'[[0,null],[1,{"some"'
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_PARSE
    assert err == b"opticat: cannot write output: [Errno 32] Broken pipe\n"


# The CLI's steps under the library's law suite ------------------------------------

_FOCI = (0, "x", None, [1, 2])
_PAIRS = [[a, b] for a in _FOCI for b in _FOCI]
_OBJECTS = [{}, {"b": 0}] + [{"a": a} for a in _FOCI] + [{"a": a, "b": 0} for a in _FOCI]
_ARRAYS = [[], [0]] + [[0, a] for a in _FOCI] + [[0, a, "x"] for a in _FOCI]
_OPTIONS = [None] + [{"some": a} for a in _FOCI]
_SMALL = (0, 1, 2)  # lawful.reentry enumerates every function on these
_LISTS = [[], [0], [1, 2], [2, 0, 1]]

# (step, its argument, the family whose record it is checked as, foci,
# wholes).  A prism is an optional too, and only its optional record reaches
# its modify action.
_STEP_LAWS = [
    ("fst", None, FamilyTag.LENS, _FOCI, _PAIRS),
    ("snd", None, FamilyTag.LENS, _FOCI, _PAIRS),
    ("key", "a", FamilyTag.OPTIONAL, _FOCI, _OBJECTS),
    ("idx", 1, FamilyTag.OPTIONAL, _FOCI, _ARRAYS),
    ("some", None, FamilyTag.PRISM, _FOCI, _OPTIONS),
    ("some", None, FamilyTag.OPTIONAL, _FOCI, _OPTIONS),
    ("each", None, FamilyTag.SETTER, _SMALL, _LISTS),
]

def _step_record(kind, arg, family, over=None):
    """The step table's row for ``kind`` as a concrete record of ``family``:
    its read gives get/match, its modify action gives put/over."""
    _, view, row_over = cli._STEPS[kind]
    over = over or row_over

    def match(d):
        focus = view(arg, d)
        return Left(d) if focus is cli._MISS else Right(focus)

    def put(b, d):
        return over(arg, lambda _: b)(d)

    if family == FamilyTag.LENS:
        return Lens(get=lambda d: view(arg, d), put=put)
    if family == FamilyTag.OPTIONAL:
        return Optional(match=match, put=put)
    if family == FamilyTag.PRISM:
        build = compile_path(PathExpr((Step(kind, arg),)))[0].build
        return Prism(match=match, build=build)
    return Setter(over=lambda h: over(arg, h))


def _step_ids(rows):
    return [f"{row[0]}-{row[2].value}" for row in rows]


@pytest.mark.parametrize("kind,arg,family,foci,wholes", _STEP_LAWS, ids=_step_ids(_STEP_LAWS))
def test_each_step_meets_the_laws_of_its_family(kind, arg, family, foci, wholes):
    # key and idx meet lawful.fields too: put on a miss returns the document
    assert family_le(cli._STEPS[kind][0], family)
    reports = check_lawful(_step_record(kind, arg, family), foci, wholes)
    assert all(rep.passed and rep.cases > 0 for rep in reports), reports


def test_each_is_the_list_functors_map():
    # The identity is a lawful setter too, so the setter laws alone cannot
    # tell `each` from a step that ignores its function.
    over = cli._STEPS["each"][2]
    for h in all_functions(_SMALL, _SMALL):
        for whole in _LISTS:
            assert over(None, h)(whole) == [h(x) for x in whole]


_MUTABLE = [row for row in _STEP_LAWS if row[2] in (FamilyTag.LENS, FamilyTag.OPTIONAL)]


@pytest.mark.parametrize("kind,arg,family,foci,wholes", _MUTABLE, ids=_step_ids(_MUTABLE))
def test_a_modify_action_that_ignores_its_function_fails_the_laws(
    kind, arg, family, foci, wholes
):
    row_over = cli._STEPS[kind][2]
    mutant = _step_record(kind, arg, family, over=lambda a, h: row_over(a, lambda x: x))
    reports = {rep.law: rep for rep in check_lawful(mutant, foci, wholes)}
    assert reports["lawful.reentry"].status == "FAIL"


# A path is the library's composition of its steps ---------------------------------

def _random_steps(rng):
    steps = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["fst", "snd", "key", "idx", "some", "each"])
        arg = {"key": rng.choice("ab"), "idx": rng.randint(0, 2)}.get(kind)
        steps.append(Step(kind, arg))
    return steps


def _document(steps, leaf, at=-1, there=None):
    """A document on which ``steps`` reach ``leaf``, except that step
    ``at`` meets ``there``."""
    if at == 0:
        return there
    if not steps:
        return leaf
    inner = _document(steps[1:], leaf, at - 1, there)
    kind, arg = steps[0].kind, steps[0].arg
    return {
        "fst": lambda: [inner, 0],
        "snd": lambda: [0, inner],
        "key": lambda: {arg: inner, "z": 0},
        "idx": lambda: [0] * arg + [inner, 0],
        "some": lambda: {"some": inner},
        "each": lambda: [inner, inner],
    }[kind]()


# What each partial step meets on a miss
_MISSES = {"key": lambda arg: {"z": 0}, "idx": lambda arg: [0] * arg, "some": lambda arg: None}


def _outcome(run, doc):
    try:
        return run(doc)
    except cli.DocTypeError as err:
        return ("DocTypeError", str(err))


def test_a_path_acts_as_the_composition_of_its_step_records():
    # The step records, embedded into the path's family and composed, agree
    # with the compiled path on a hit, a miss and a type mismatch, failed
    # checks and their messages included.
    rng = random.Random(8)
    outcomes = []
    for _ in range(400):
        steps = _random_steps(rng)
        optic, tag = compile_path(PathExpr(tuple(steps)))
        records = [
            embed(_step_record(step.kind, step.arg, cli._STEPS[step.kind][0]), tag)
            for step in steps
        ]
        composed = reduce(lambda outer, inner: outer.compose(inner), records)
        partial = [i for i, step in enumerate(steps) if step.kind in _MISSES]
        docs = [_document(steps, 7), _document(steps, 7, rng.randrange(len(steps)), "x")]
        if partial:
            i = rng.choice(partial)
            docs.append(_document(steps, 7, i, _MISSES[steps[i].kind](steps[i].arg)))
        runs = [(optic.map_optic(lambda v: ["h", v]), composed.map_optic(lambda v: ["h", v]))]
        if tag == FamilyTag.LENS:
            runs.append((optic.get, composed.get))
        if family_le(tag, FamilyTag.OPTIONAL):
            runs.append((optic.match, embed(composed, FamilyTag.OPTIONAL).match))
        for doc in docs:
            for path_run, record_run in runs:
                outcome = _outcome(path_run, doc)
                assert outcome == _outcome(record_run, doc), (steps, doc)
                outcomes.append(outcome)
    assert len(outcomes) > 1500
    assert sum(isinstance(out, Left) for out in outcomes) > 100
    assert sum(isinstance(out, tuple) for out in outcomes) > 300
