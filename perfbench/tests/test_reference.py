"""The reference evaluator against the README's worked examples and the
documented exit codes."""

import pytest

from reference import (
    LIMIT,
    Outcome,
    PathError,
    expected,
    family,
    is_canonical,
    judge,
    judge_verdict,
    parse_path,
)


def run(command, path, value=None, doc=None, strict=False):
    data = None if doc is None else doc.encode("utf-8")
    return expected(command, path, value, data, strict)


@pytest.mark.parametrize("command, path, value, doc, out", [
    ("get", "fst", None, '[4,"hello"]', "4\n"),
    ("set", "fst", "12", '[4,"hello"]', '[12,"hello"]\n'),
    ("match", "snd.some", None, '[1,{"some":5}]', '{"matched":true,"value":5}\n'),
    ("match", "some.some", None, '{"some":null}', '{"matched":false,"rest":{"some":null}}\n'),
    ("build", "some.some", "42", None, '{"some":{"some":42}}\n'),
])
def test_readme_examples(command, path, value, doc, out):
    assert run(command, path, value, doc) == Outcome(0, out)


def test_misses_leave_the_document_unchanged():
    doc = '{"a":[1,2],"b":null}'
    assert run("set", "key(c).fst", "0", doc).stdout == '{"a":[1,2],"b":null}\n'
    assert run("map", "key(b).some", "incr", doc).stdout == '{"a":[1,2],"b":null}\n'
    assert run("map", "key(a).idx(5)", "incr", doc).stdout == '{"a":[1,2],"b":null}\n'


def test_match_miss_returns_the_whole_document_as_rest():
    assert run("match", "key(a).idx(3)", None, '{"a":[1],"z":0}') == Outcome(
        0, '{"matched":false,"rest":{"a":[1],"z":0}}\n')


def test_each_maps_every_element():
    doc = '[[1,{"some":{"v":1}}],[2,null],[3,{"some":{"k":0}}]]'
    assert run("map", "each.snd.some.key(v)", "incr", doc).stdout == (
        '[[1,{"some":{"v":2}}],[2,null],[3,{"some":{"k":0}}]]\n')
    assert run("set", "each.fst", '"x"', "[[1,2],[3,4]]").stdout == '[["x",2],["x",4]]\n'


def test_strict_miss_exits_3_only_for_set_and_map():
    doc = '{"b":1}'
    assert run("set", "key(a)", "0", doc, strict=True).code == 3
    assert run("map", "key(a)", "incr", doc, strict=True).code == 3
    assert run("match", "key(a)", None, doc, strict=True).code == 0
    assert run("set", "each.key(a)", "0", "[{}]", strict=True).code == 0


@pytest.mark.parametrize("command, path, value, doc, code", [
    ("get", "key(a)", None, "{}", 2),            # get needs a lens path
    ("match", "each", None, "[]", 2),            # match is not a setter command
    ("build", "fst", "1", None, 2),              # build needs a prism path
    ("map", "fst", "double", "[1,2]", 2),        # unknown function
    ("frob", "fst", None, "[1,2]", 2),           # unknown command
    ("set", "fst", None, "[1,2]", 2),            # set needs a value
    ("get", "fst", None, '"text"', 3),           # type mismatch
    ("map", "fst", "incr", '["a",1]', 3),        # incr on a string
    ("map", "some", "upper", '{"some":1,"x":2}', 3),
    ("get", "fst..snd", None, "[1,2]", 4),       # path syntax
    ("get", "fst", None, "[1,2", 4),             # document syntax
    ("set", "fst", "{", "[1,2]", 4),             # value syntax
    ("get", "snd", None, "[NaN,1]", 4),          # not JSON
    ("get", "snd", None, "[1e999,1]", 4),
    ("set", "fst", "Infinity", "[1,2]", 4),
])
def test_exit_codes(command, path, value, doc, code):
    assert run(command, path, value, doc).code == code


def test_non_utf8_document_exits_4():
    assert expected("get", "fst", None, b'["caf\xe9",1]') == Outcome(4, "")


def test_parse_errors_beat_command_errors_and_documents_come_first():
    assert run("frob", "fst.", None, "[1,2]").code == 4
    assert run("get", "key(a)", None, "[1,").code == 4


def test_path_grammar():
    assert parse_path('fst.key("a \\"b\\"").idx(007).some.each.key(x_1)') == [
        ("fst", None), ("key", 'a "b"'), ("idx", 7), ("some", None),
        ("each", None), ("key", "x_1")]
    for bad in ("", "fst.", ".fst", "fstx", "idx(-1)", 'key("a\\x")', "key(1a)", 'key("a'):
        with pytest.raises(PathError):
            parse_path(bad)


def test_family_is_the_lattice_join():
    assert family(parse_path("fst.snd")) == "LENS"
    assert family(parse_path("some.some")) == "PRISM"
    assert family(parse_path("fst.some")) == "OPTIONAL"
    assert family(parse_path("key(a).fst")) == "OPTIONAL"
    assert family(parse_path("fst.each.some")) == "SETTER"


def test_deep_inputs_are_answered_and_marked_as_limit():
    depth = LIMIT + 200
    doc = "[" * depth + "1" + ",0]" * depth
    got = run("get", ".".join(["fst"] * depth), None, doc)
    assert got == Outcome(0, "1\n", limit=True)
    assert run("get", "fst", None, "[[1,0],0]").limit is False


def test_judge():
    want = Outcome(0, "4\n")
    assert judge(want, 0, "4\n", "") is None
    assert judge(want, 0, "5\n", "") == "stdout differs from the reference"
    assert judge(want, 0, "NaN\n", "") == "stdout is not canonical JSON"
    assert judge(want, 1, "", "Traceback (most recent call last):\n  ...\n") == "exit 1"
    assert judge(Outcome(3, ""), 3, "", "opticat: type error\n") is None
    assert judge(Outcome(3, ""), 3, "", "two\nlines\n") == "stderr is not a one-line message"
    limit = Outcome(0, "[1]\n", limit=True)
    assert judge(limit, 4, "", "opticat: document nested too deep\n") is None
    assert judge(limit, 0, "[1]\n", "") is None
    assert judge(limit, 2, "", "opticat: no\n") == "exit 2, reference 0"


def test_canonical():
    assert is_canonical('{"a":1,"b":[true,null]}\n')
    assert not is_canonical('{"b":1,"a":2}\n')
    assert not is_canonical('{"a": 1}\n')
    assert not is_canonical("NaN\n")
    assert not is_canonical("1")


def test_judge_verdict():
    required = ["a.x", "b.y"]
    lines = '{"law":"a.x","status":"PASS"}\n{"law":"b.y","status":"PASS"}\n'
    assert judge_verdict(required, 0, lines, "") is None
    assert judge_verdict(required, 0, lines.replace("b.y", "c.z"), "") == (
        "reported law set differs from REQUIRED_LAWS")
    assert judge_verdict(required, 1, lines.replace('PASS"}\n{', 'FAIL"}\n{', 1), "") == "exit 1"
    assert judge_verdict(required, 0, lines.replace('PASS"}\n{', 'INCONCLUSIVE"}\n{', 1), "") == (
        "1 laws not PASS, first a.x")
